"""Restricted curvature and alignment constants: sampled estimates vs the
exact spectral values available for linear generators.

The solver's step size and its predicted convergence rate both come from
these constants, so we care that the sampled route (the only one available
for nonlinear generators) tracks the exact one where both exist.
"""

import numpy as np

from genpgd import (
    Objective,
    OrthoBasis,
    estimate_incoherence,
    estimate_rsc_rss,
    latent_pair_sampler,
    make_linear_generator,
    subspace_curvature,
    subspace_incoherence,
)

rng = np.random.default_rng(5)
n, k, m = 60, 4, 30
W = np.linalg.qr(rng.standard_normal((n, k)))[0]
A = rng.standard_normal((m, n)) / np.sqrt(m)
obj = Objective("linear", A, rng.standard_normal(m))
net = make_linear_generator(W)

alpha, beta = subspace_curvature(A, W)
print(f"exact curvature over the range: alpha {alpha:.6f}, beta {beta:.6f} "
      f"(ratio {beta / alpha:.3f})")

print("sampled estimates (pair sampling + cross-pair recombination):")
for num_pairs in (50, 200, 1000):
    a_hat, b_hat = estimate_rsc_rss(obj, latent_pair_sampler(net), num_pairs=num_pairs, seed=0)
    print(f"  N={num_pairs:<5} alpha_hat {a_hat:.6f}  beta_hat {b_hat:.6f}  "
          f"rel errs {abs(a_hat - alpha) / alpha:.1e} / {abs(b_hat - beta) / beta:.1e}")

# alignment between the range and a sparse-in-basis set, for one support:
# the exact value is the top singular value of W^T B_S
B = OrthoBasis.random(n, seed=9)
S = rng.choice(n, size=5, replace=False)
mu_exact = subspace_incoherence(W, B, S)
mu_hat = estimate_incoherence(net, B, 5, num_samples=2000, support=S)
print(f"alignment with a fixed 5-sparse support: exact {mu_exact:.6f}, "
      f"sampled {mu_hat:.6f}")
print("the sampled value approaches the exact one from below; every sample is")
print("a genuine pair of admissible directions, so it can never overshoot")
