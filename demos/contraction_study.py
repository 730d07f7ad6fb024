"""Watch the objective gap contract geometrically under projected descent
and compare the measured rate with the curvature-predicted one.
"""

import numpy as np

from genpgd import (
    GeneratorSpec,
    Objective,
    ProblemSpec,
    ProjectionConfig,
    SolverConfig,
    contraction_report,
    contraction_factor,
    epsilon_pgd,
    gen_problem,
    subspace_curvature,
)

# plenty of measurements pushes the curvature ratio under 2, so the
# worst-case rate is a genuine contraction and the comparison means something
spec = ProblemSpec(n=80, k=5, m=250, generator=GeneratorSpec(kind="linear"))
inst = gen_problem(spec, seed=4)
obj = Objective("linear", inst.A, inst.y)
W = inst.net.layers[0].weights
alpha, beta = subspace_curvature(inst.A, W)

cfg = SolverConfig(eta=1.0 / beta, iters=80)
trace = epsilon_pgd(obj, inst.net, ProjectionConfig(method="closed-form-linear"),
                    cfg, x_star=inst.truth.x_star)

gaps = trace.gaps()
print(f"solved a noiseless instance in {len(trace.records) - 1} iterations")
print(f"gap trajectory: {gaps[0]:.3e} -> {gaps[10]:.3e} (t=10) -> {gaps[-1]:.3e}")

rep = contraction_report(trace, rho=contraction_factor(alpha, beta))
print(f"theory rate (worst case): {contraction_factor(alpha, beta):.4f}")
print(f"fitted rate:              {rep.fitted_rate:.4f}  (R^2 {rep.fit_r2:.4f})")
print(f"bound violations before the numeric floor: {rep.violations}")
if rep.plateau_index is not None:
    print(f"gap flattens out around t={rep.plateau_index} at level {rep.plateau_level:.1e}")
else:
    print("no plateau inside this horizon")

# per-step ratios, first ten: each should sit at or under the fitted rate
ratios = gaps[1:11] / gaps[:10]
print("first ten per-step ratios:", np.array2string(ratios, precision=3))
