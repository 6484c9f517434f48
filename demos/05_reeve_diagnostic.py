"""Reeve cones: a classical family of lattice pathologies, probed here for
non-terminating Nash iterations.

reeve(q) is the saturated semigroup of the cone over the simplex with
vertices (0,0,0), (1,0,0), (0,1,0), (1,1,q) placed at height one in Z^4.
It is smooth exactly for q = 1.  Two questions:

1. Does any small q reproduce the seven-generator self-replicating
   semigroup (see demo 04), either directly or among the saturated charts
   of its first normalized step?  Answer below: no, for q <= 6 — the two
   constructions are genuinely different singularities.
2. Do Reeve cones themselves cycle?  In characteristic 2 the iteration on
   reeve(3) and reeve(4) finds a chart that closes a cycle of chart
   isomorphism classes, so the family does produce positive-characteristic
   non-termination.
"""
from nashlab import (
    RunConfig,
    counterexample_x,
    invariant_key,
    is_smooth,
    isomorphic,
    reeve,
    run,
    step_charts,
)

x = counterexample_x()
print("q  smooth  iso to demo-04 semigroup   first-step saturated charts iso to it")
for q in range(1, 7):
    s = reeve(q)
    direct = s.rank == x.rank and isomorphic(s, x) is not None
    hits = [
        c.base_exponent
        for c in step_charts(s, 0, True)
        if c.semigroup.rank == x.rank
        and invariant_key(c.semigroup) == invariant_key(x)
        and isomorphic(c.semigroup, x) is not None
    ]
    print(f"{q}  {str(is_smooth(s)).ljust(7)} {str(direct).ljust(25)} {hits or 'none'}")

print("\ncharacteristic-2 iterations:")
for q in (2, 3, 4):
    tree = run(reeve(q), RunConfig(characteristic=2, max_depth=3, max_nodes=200))
    print(f"  reeve({q}): {tree.verdict_summary}")
    for node in tree.nodes:
        if node.closes_cycle:
            print(
                f"    chart at depth {node.depth} closes a cycle through node "
                f"{node.cycle_target} (depth {tree.nodes[node.cycle_target].depth})"
            )
