"""The cusp curve x^3 = y^2, i.e. the numerical semigroup <2,3>.

In characteristic 0 one Nash blowup step already resolves it: the only
surviving chart is the full semigroup N, which is smooth.  In
characteristic 2 the generator 2 drops out of the logarithmic Jacobian
ideal (its 1x1 determinant vanishes mod 2), the ideal becomes principal,
and blowing up a principal monomial ideal changes nothing: the step is an
isomorphism and the iteration cycles forever.
"""
from nashlab import RunConfig, log_jacobian, numerical, run, step_charts

cusp = numerical([2, 3])
print("semigroup:", cusp.generators)

for ch in (0, 2):
    ideal = log_jacobian(cusp, ch)
    charts = [c.semigroup for c in step_charts(cusp, ch, False)]
    print(f"\ncharacteristic {ch}:")
    print("  log Jacobian exponents:", ideal.exponents)
    print("  charts after one step:", [c.generators for c in charts])
    tree = run(cusp, RunConfig(characteristic=ch))
    print("  verdict:", tree.verdict_summary)
    for node in tree.nodes:
        if node.verdict == "Cycle":
            print(
                "  chart at depth",
                node.depth,
                "is isomorphic to node",
                node.cycle_target,
                "via the 1x1 unimodular matrix",
                node.certificate.matrix,
            )
