"""Recover a signal that is a range point plus a sparse deviation.

The two-block solver keeps separate iterates for the range part and the
sparse part.  Each iteration takes one gradient at their sum and lets both
blocks react to it: the range block re-projects, the sparse block
re-thresholds.  At the end we can ask each block how close it came to its
own piece of the ground truth.
"""

import numpy as np

from genpgd import (
    GeneratorSpec,
    Objective,
    ProblemSpec,
    ProjectionConfig,
    SolverConfig,
    gen_problem,
)
from genpgd.solver import myopic_pgd

spec = ProblemSpec(
    n=80, k=5, m=50, l=4, basis="identity",
    generator=GeneratorSpec(kind="linear"),
)
inst = gen_problem(spec, seed=2)
truth = inst.truth
print(f"instance: n={inst.meta.n}, m={inst.meta.m}, latent k={inst.meta.k}, "
      f"sparse budget l={inst.meta.l}")
print(f"true sparse part uses coordinates "
      f"{np.flatnonzero(np.abs(truth.nu_star) > 1e-12).tolist()}")

# the sparsity budget is part of the solver config; direct calls do not
# inherit it from the instance the way the harness runner does
cfg = SolverConfig(mode="myopic", l=4, iters=120)
trace = myopic_pgd(Objective("linear", inst.A, inst.y), inst.net, inst.basis,
                   ProjectionConfig(method="closed-form-linear"), cfg,
                   x_star=truth.x_star)

u, v = trace.final_components
x_hat = trace.final_point
print(f"after {len(trace.records) - 1} iterations:")
print(f"  |x_hat - x*|            = {np.linalg.norm(x_hat - truth.x_star):.2e}")
print(f"  range block error       = {np.linalg.norm(u - (truth.x_star - truth.nu_star)):.2e}")
print(f"  sparse block error      = {np.linalg.norm(v - truth.nu_star):.2e}")
print(f"  sparse block support    = {np.flatnonzero(np.abs(v) > 1e-10).tolist()}")
print(f"  nonzeros kept per step  = {trace.sparse_nnz}")
