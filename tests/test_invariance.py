"""Metamorphic checks: a problem re-expressed so that, in exact arithmetic,
its solve cannot change solves to the same result up to rounding.

- (a) rotate the measurements, (A, y) -> (QA, Qy) with Q orthogonal: least
  squares sees A only through A^T A and A^T y.
- (b) scale the measurements, (A, y) -> (cA, cy), with ``stop_gap`` scaled
  by c^2: F, its gradient, beta and gamma scale by c^2 and eta = 1/beta by
  1/c^2, so the iterates are the same and every gap scales by c^2.
- (c) permute the hidden units of an mlp: the rows of W1 and b1 and the
  columns of W2.
- (d) rebalance a zero-bias relu layer, W1 -> cW1 and W2 -> W2/c, c > 0.
- Permuting the columns of a Myopic solve's basis leaves its iterates as
  they are (ties in the hard threshold aside).

A GLM link is not homogeneous, so only (c) and (d) apply to it.  c = 3 is
not a power of two: a power of two scales without rounding and would hide
nothing.  A degraded projection (``degrade_slack`` > 0) is left out, since
its direction is keyed on the exact bits of its target.

Counts (iterations, plateau index, violations) must match exactly.  Every
other compared value must agree to ``_ROUNDING``, or, along a latent-gd
solve, to its cost tolerance ``_FTOL``: a latent-gd row stops on a relative
gain of ``_FTOL``, so two runs whose rounding differs agree to that, not to
eps.  Gaps and distances are compared relative to their start values.
"""

import dataclasses

import numpy as np
import pytest

from genpgd import (
    ExperimentConfig,
    GeneratorNetwork,
    GeneratorSpec,
    Layer,
    OrthoBasis,
    ProblemSpec,
    ProjectionConfig,
    SolverConfig,
    gen_problem,
    run_solve,
)
from genpgd.projection import _FTOL

# 2^12 ulps: a re-expressed problem differs from its original by rounding
# alone, and the values compared here pass through far fewer than a few
# thousand roundings without a contraction damping them
_ROUNDING = 4096 * np.finfo(float).eps
C = 3.0

CLOSED_FORM = ProjectionConfig(method="closed-form-linear")
LATENT_GD = ProjectionConfig(method="latent-gd", restarts=10, inner_iters=50)
LINEAR = ProblemSpec(n=100, k=5, m=40, generator=GeneratorSpec(kind="linear"))
RELU = ProblemSpec(n=60, k=4, m=40, generator=GeneratorSpec(kind="mlp", widths=(20,)))


def _reexpressed(inst, A=None, y=None, net=None, basis=None):
    """``inst`` with the given parts replaced; the noise is refit so that
    y = A x* + noise holds bitwise, which moves y by rounding at most."""
    A = inst.A if A is None else A
    y = inst.y if y is None else y
    clean = A @ inst.truth.x_star
    noise = y - clean
    return dataclasses.replace(inst, A=A, y=clean + noise, net=net or inst.net,
                               basis=basis or inst.basis,
                               truth=dataclasses.replace(inst.truth, noise=noise))


def rotate(inst):
    m = len(inst.A)
    Q = np.linalg.qr(np.random.default_rng(1).standard_normal((m, m)))[0]
    return _reexpressed(inst, A=Q @ inst.A, y=Q @ inst.y)


def scale(inst):
    return _reexpressed(inst, A=C * inst.A, y=C * inst.y)


def permute_hidden(inst):
    first, last = inst.net.layers
    p = np.random.default_rng(2).permutation(len(first.bias))
    net = GeneratorNetwork([Layer(first.weights[p], first.bias[p], first.activation),
                            Layer(last.weights[:, p], last.bias, last.activation)])
    return _reexpressed(inst, net=net)


def rebalance(inst):
    first, last = inst.net.layers
    assert not first.bias.any()  # relu(c t) = c relu(t) needs a zero bias
    net = GeneratorNetwork([Layer(C * first.weights, first.bias, first.activation),
                            Layer(last.weights / C, last.bias, last.activation)])
    return _reexpressed(inst, net=net)


def assert_same_solve(base, variant, tol, s=1.0, regularity=True):
    """``variant`` solved as ``base`` did, with every F-scaled value (gaps,
    beta, the violation floor) s times the base's and eta 1/s times it.
    ``tol`` bounds the traces; the regularity bundle, taken before the
    solve, is held to ``_ROUNDING``, and with ``regularity`` False it and
    the violation count it grades are not compared."""
    (sa, ta), (sb, tb) = base, variant
    for name in ("iters", "plateau_index", "rateable") + ("violations",) * regularity:
        assert getattr(sb, name) == getattr(sa, name), name
    ga, gb = np.array(ta.gaps()), np.array(tb.gaps())
    da = np.array([r.dist_to_truth for r in ta.records])
    db = np.array([r.dist_to_truth for r in tb.records])
    g0 = s * abs(ga[0])
    assert np.max(np.abs(gb - s * ga)) <= tol * g0
    assert np.max(np.abs(db - da)) <= tol * da[0]
    if sa.plateau_level is not None:
        assert abs(sb.plateau_level - s * sa.plateau_level) <= tol * g0
    if not regularity:
        return
    # the floor is read against the gaps, so it is held to their scale
    assert abs(sb.violation_floor - s * sa.violation_floor) <= _ROUNDING * g0
    ra, rb = sa.regularity, sb.regularity
    pairs = [(sb.eta, sa.eta / s), (rb.alpha, s * ra.alpha), (rb.beta, s * ra.beta),
             (rb.delta, ra.delta), (rb.mu, ra.mu)]
    if sa.theory_rate is not None:
        pairs.append((sb.theory_rate, sa.theory_rate))
    for got, want in pairs:
        assert abs(got - want) <= _ROUNDING * abs(want)


def _relu_config(inst, s=1.0):
    # noiseless, so F(x*) = 0 and the gap at the zero start is F(0)
    stop = 1e-3 * s * 0.5 * float(inst.y @ inst.y)
    return ExperimentConfig(problem=RELU, projection=LATENT_GD,
                            solver=SolverConfig(iters=30, stop_gap=stop))


@pytest.mark.parametrize("noise_level", [0.0, 0.01])
def test_closed_form_solve_ignores_rotation_and_scale(noise_level):
    spec = dataclasses.replace(LINEAR, noise_level=noise_level)
    inst = gen_problem(spec, 0)
    cfg = ExperimentConfig(problem=spec, projection=CLOSED_FORM, solver=SolverConfig(iters=60))
    base = run_solve(inst, cfg)
    assert_same_solve(base, run_solve(rotate(inst), cfg), _ROUNDING)
    assert_same_solve(base, run_solve(scale(inst), cfg), _ROUNDING, s=C * C)


@pytest.mark.parametrize("seed", [0, 1])
def test_latent_gd_solve_ignores_every_relation(seed):
    inst = gen_problem(RELU, seed)
    cfg = _relu_config(inst)
    base = run_solve(inst, cfg)
    for variant in (rotate, permute_hidden, rebalance):
        assert_same_solve(base, run_solve(variant(inst), cfg), _FTOL)
    assert_same_solve(base, run_solve(scale(inst), _relu_config(inst, C * C)), _FTOL, s=C * C)


def test_glm_solve_ignores_hidden_unit_order_and_balance():
    spec = dataclasses.replace(RELU, measurement="glm-sigmoid")
    inst = gen_problem(spec, 0)
    cfg = ExperimentConfig(problem=spec, projection=LATENT_GD, solver=SolverConfig(iters=15))
    base = run_solve(inst, cfg)
    for variant in (permute_hidden, rebalance):
        assert_same_solve(base, run_solve(variant(inst), cfg), _FTOL)


def test_myopic_iterates_ignore_basis_column_order():
    # the bundle samples supports by column index, so it is not compared;
    # the step size is fixed to the base's so the iterates can be
    spec = dataclasses.replace(LINEAR, m=80, l=2, basis="random", noise_level=0.01)
    inst = gen_problem(spec, 0)
    cfg = ExperimentConfig(problem=spec, projection=CLOSED_FORM,
                           solver=SolverConfig(iters=40, mode="myopic"))
    base = run_solve(inst, cfg)
    cfg = dataclasses.replace(cfg, solver=dataclasses.replace(cfg.solver, eta=base[0].eta))
    p = np.random.default_rng(3).permutation(spec.n)
    permuted = _reexpressed(inst, basis=OrthoBasis(inst.basis.matrix[:, p]))
    assert_same_solve(base, run_solve(permuted, cfg), _ROUNDING, regularity=False)
