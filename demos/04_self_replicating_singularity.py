"""A singularity whose Nash blowup contains an identical copy of itself.

The variety is a 4-dimensional affine toric variety in C^7 cut out by six
binomials.  Its semigroup has seven generators a1..a7 in Z^4, recovered
here as a saturated basis of the integer kernel of the relation matrix.
One Nash blowup step (characteristic 0) produces eleven charts, and one of
them is unimodularly isomorphic to the whole variety, so the iteration
never terminates: Nash blowups do not resolve singularities in general.
"""
from nashlab import (
    RunConfig,
    X_RELATIONS,
    counterexample_generators,
    counterexample_x,
    run,
    step_charts,
)

gens = counterexample_generators()
print("generators a1..a7:")
for i, g in enumerate(gens, 1):
    print(f"  a{i} = {g}")
print("\ndefining relations (rows over a1..a7):")
for rel in X_RELATIONS:
    lhs = " + ".join(f"{c}*a{i+1}" for i, c in enumerate(rel) if c > 0)
    rhs = " + ".join(f"{-c}*a{i+1}" for i, c in enumerate(rel) if c < 0)
    print(f"  {lhs} = {rhs}")

x = counterexample_x()
charts = step_charts(x, 0, False)
print(f"\none Nash step: {len(charts)} surviving charts")

tree = run(x, RunConfig(characteristic=0, max_depth=1))
print("verdict:", tree.verdict_summary)
for node in tree.nodes:
    if node.closes_cycle:
        print(f"chart at base exponent {node.base_exponent} is isomorphic to the root")
        print("unimodular certificate U (maps chart generators onto root generators):")
        for row in node.certificate.matrix:
            print("   ", row)

with open("self_replicating.dot", "w", encoding="utf-8") as fh:
    fh.write(tree.to_dot())
print("\nchart tree written to self_replicating.dot")
