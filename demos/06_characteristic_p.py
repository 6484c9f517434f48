"""How the field characteristic changes the Nash iteration.

The logarithmic Jacobian ideal keeps a d-subset of generators only when the
determinant of their exponents is nonzero in the base field, so in
characteristic p entire terms can vanish and the blowup charts change.  Two
experiments:

* the seven-generator self-replicating semigroup of demo 04, which cycles
  in characteristic 0 — does it also cycle mod p?
* the Reeve cones, smooth resolutions in characteristic 0 for small q —
  do they stay resolvable mod p?

At depth 4 for the seven-generator semigroup and depth 6 for the Reeve
cones (1000 nodes each), every row is definite: the semigroup cycles in
every characteristic, and reeve(q) resolves except in characteristic 2
and, for q = 3 and 4, in characteristic 3, where it cycles.  The
acceptance tests assert the positive-characteristic rows.
"""
from nashlab import RunConfig, counterexample_x, reeve, run

PRIMES = (2, 3, 5, 7)


def survey(label, semigroup, max_depth):
    print(label)
    for ch in (0,) + PRIMES:
        cfg = RunConfig(characteristic=ch, max_depth=max_depth, max_nodes=1000)
        tree = run(semigroup, cfg)
        stats = tree.stats()
        print(
            f"  char {ch}: {tree.verdict_summary.ljust(19)} "
            f"nodes={stats['node_count']:<4d} depth={stats['depth_reached']}"
        )
    print()


survey("self-replicating semigroup in C^7 (depth <= 4):",
       counterexample_x(), max_depth=4)
for q in (2, 3, 4):
    survey(f"reeve({q}) (depth <= 6):", reeve(q), max_depth=6)
