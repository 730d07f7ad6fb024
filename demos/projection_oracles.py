"""Compare the three projection routes on the same target.

closed-form-linear is exact but only exists for single affine layers; grid
certifies a best-on-grid point for tiny latent dimension; latent-gd is the
workhorse for anything else and never certifies.  latent-gd runs
Levenberg–Marquardt from several latent starts: each iteration builds the
n-by-k Jacobian, solves the damped k-by-k Gauss–Newton system, and raises the
damping until the step lowers the residual, so a restart converges in tens
of iterations and the best restart wins.  The last section shows the
deliberately degraded oracle used for slack studies.
"""

import numpy as np

from genpgd import (
    ProjectionConfig,
    forward,
    make_linear_generator,
    make_random_generator,
    project,
)

rng = np.random.default_rng(3)

W = np.linalg.qr(rng.standard_normal((15, 3)))[0]
flat = make_linear_generator(W)
x = rng.standard_normal(15)

exact = project(ProjectionConfig(method="closed-form-linear"), flat, x)
print(f"closed form: residual_sq {exact.residual_sq:.6f}, certified {exact.certified}")

# nonconvex range now: grid vs multi-restart Levenberg–Marquardt
net = make_random_generator(2, 20, 2, (8,), activation="relu", seed=0)
target = forward(net, np.array([1.3, -0.4])) + 0.05 * rng.standard_normal(20)

grid = project(ProjectionConfig(method="grid", grid_resolution=151), net, target)
lgd = project(ProjectionConfig(method="latent-gd", restarts=10), net, target)
print(f"grid:      residual_sq {grid.residual_sq:.8f}, certified {grid.certified}")
print(f"latent-gd: residual_sq {lgd.residual_sq:.8f}, certified {lgd.certified}")
print(f"  descent beats the 151-point grid mesh: {lgd.residual_sq <= grid.residual_sq}")

# more restarts never hurt: candidates only accumulate
for r in (1, 3, 10):
    res = project(ProjectionConfig(method="latent-gd", restarts=r), net, target)
    print(f"  restarts={r:>2}: residual_sq {res.residual_sq:.8f}")

# the degraded oracle walks the output along the range until the residual
# grows by the requested slack; useful to study solvers under inexactness
for slack in (0.0, 1e-4, 1e-2):
    res = project(
        ProjectionConfig(method="closed-form-linear", degrade_slack=slack), flat, x)
    print(f"degrade_slack={slack:<6g} residual_sq {res.residual_sq:.8f}")
