"""Projection oracles: closed form, grid, latent descent, hard thresholding."""

import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from genpgd.errors import ConfigError, ContractError
from genpgd.generator import (
    Activation,
    GeneratorNetwork,
    Layer,
    _forward_jacobian,
    forward,
    forward_batch,
    make_linear_generator,
    make_random_generator,
)
from genpgd.projection import (
    OrthoBasis,
    ProjectionConfig,
    hard_threshold,
    hard_threshold_coeffs,
    project,
)
from genpgd import generator, projection
from genpgd.objective import Objective
from genpgd.solver import SolverConfig, epsilon_pgd
from genpgd.projection import (
    _LADDER, _ORACLES, _descend_lockstep, _oracle, _restart_starts, _start_pass)
from genpgd.seeding import _direction_reader, spawn_rng


def brute_force_sparse_projection(B, v, l):
    """Independent oracle: best l-sparse-in-B approximation by trying every
    support of size l."""
    n = B.shape[0]
    c = B.T @ v
    best = None
    for S in itertools.combinations(range(n), l):
        cs = np.zeros(n)
        for i in S:
            cs[i] = c[i]
        w = B @ cs
        d = np.linalg.norm(v - w)
        if best is None or d < best[0]:
            best = (d, w)
    return best


def brute_force_grid(net, x, lo, hi, res):
    """Independent oracle: plain double loop over the same grid."""
    axes = [np.linspace(lo, hi, res) for _ in range(net.k)]
    best = None
    for zvals in itertools.product(*axes):
        z = np.array(zvals)
        r = float(np.sum((x - forward(net, z)) ** 2))
        if best is None or r < best[0] - 1e-18:
            best = (r, z)
    return best


def sequential_descend(net, x, z0, inner_iters):
    """Reference: one restart of Levenberg–Marquardt on its own, one trial
    at a time, the loop the lockstep descent replaces.  Each row of the
    lockstep run must end where this ends from the same start, up to
    rounding.  It has no damping floor: a singular damped system counts as
    a reject instead.  Returns the final latent, the f at the start and
    after each accept (the last is the final f), and the trial outcomes in
    order, "A" for an accept and "R" for a reject, in lower case for a trial
    whose decrease test is decided by at most ``_TIE`` f."""
    eye = np.eye(net.k)
    outcomes = []
    z = z0
    J = _jacobian(net, z)
    r = forward(net, z) - x
    f = 0.5 * float(r @ r)
    lam = float(np.sum(J * J))
    fs = [f]
    for _ in range(inner_iters):
        g = J.T @ r
        if float(g @ g) < 1e-18:
            break
        JtJ = J.T @ J
        for _ in range(projection._MAX_MISSES * _LADDER):
            try:
                p = np.linalg.solve(JtJ + lam * eye, g)
            except np.linalg.LinAlgError:
                outcomes.append("R")
                lam *= 4.0
                continue
            z_try = z - p
            r_try = forward(net, z_try) - x
            f_try = 0.5 * float(r_try @ r_try)
            margin = f - 1e-4 * float(g @ p) - f_try
            tie = abs(margin) <= _TIE * f
            if margin >= 0:
                outcomes.append("a" if tie else "A")
                break
            outcomes.append("r" if tie else "R")
            lam *= 4.0
        else:
            break
        converged = f - f_try <= projection._FTOL * f
        z, r, f = z_try, r_try, f_try
        fs.append(f)
        lam *= 0.25
        if converged:
            break
        J = _jacobian(net, z)
    return z, fs, "".join(outcomes)


def _jacobian(net, z):
    return _forward_jacobian(net, z[None])[1][0]


# A trial's f differs by up to 5 eps f between forward and forward_batch
# columns of other batch widths (measured on these nets), so a decrease test
# decided by less than this may go the other way in the lockstep run.
_TIE = 4e-15


def ladder_accepts(outcomes):
    """The lockstep rounds in which a row makes the trial sequence
    ``outcomes`` of :func:`sequential_descend`, as the row's accept count
    after each round: a round tries ``_LADDER`` damping levels and the row
    takes its first passing level."""
    outcomes = outcomes.upper()
    accepts, i = [], 0
    while i < len(outcomes):
        tried = outcomes[i:i + _LADDER]
        i += tried.index("A") + 1 if "A" in tried else len(tried)
        accepts.append(outcomes[:i].count("A"))
    return accepts


def pruned_replays(fs, trials, kappa):
    """Replay the lockstep prune rule over the reference descents: row i
    makes its accepts, f values ``fs[i]``, on the rounds of
    :func:`ladder_accepts` and stops after its last round, unless after some
    round its last accepted gain is below the one before it and f - kappa
    gain exceeds the least f of the rows already stopped.

    Each f is off by at most ``_TIE`` f in the lockstep run, so a prune test
    decided within that rounding may go either way: it forks the replay.
    A row with a tie (see :func:`sequential_descend`) may branch at that
    round, so from the first tie of any row the least f may differ too; a
    prune test that could stop a row from then on makes the row loose, not
    a fork.  Returns every outcome as arrays of each row's f and round count
    where it stops, and the round from which the lockstep row may stop
    elsewhere (inf for a pinned row)."""
    plan = [ladder_accepts(t) for t in trials]
    tie = [next((len(ladder_accepts(t[:j + 1])) for j, c in enumerate(t) if c.islower()),
                np.inf) for t in trials]
    shaky = min(tie)  # the first round whose least f may differ
    end = {i: (row[-1], 0) for i, row in enumerate(fs) if not plan[i]}
    states = [(end, min((f for f, _ in end.values()), default=np.inf), list(tie))]
    outcomes = []
    t = 0
    while states:
        t += 1
        forked = []
        for end, f_stop, loose in states:
            if len(end) == len(fs):
                outcomes.append(tuple(map(np.array, zip(*(
                    (*end[i], loose[i]) for i in range(len(fs)))))))
                continue
            end, loose = dict(end), list(loose)
            running = [i for i in range(len(fs)) if i not in end]
            for i in running:
                if len(plan[i]) == t:
                    end[i] = (fs[i][-1], t)
                    f_stop = min(f_stop, fs[i][-1])
            either = []  # rows whose prune test may go either way
            for i in running:
                a = plan[i][t - 1]
                if i in end or a < 2:
                    continue
                f, gain, prev = fs[i][a], fs[i][a - 1] - fs[i][a], fs[i][a - 2] - fs[i][a - 1]
                margin = f - kappa * gain - f_stop
                blur = _TIE * fs[i][a - 2]  # each test is off by a multiple of this
                if abs(prev - gain) > 4 * blur and gain >= prev:
                    continue  # no shrink: no prune whatever the least f
                if t >= shaky:
                    loose[i] = min(loose[i], t)
                elif abs(prev - gain) <= 4 * blur or abs(margin) <= (2 * kappa + 2) * blur:
                    if margin > -(2 * kappa + 2) * blur:
                        either.append((i, (f, t)))
                elif margin > 0:
                    end[i] = (f, t)
            for k in range(2 ** len(either)):
                stops = {i: e for j, (i, e) in enumerate(either) if k >> j & 1}
                forked.append(({**end, **stops}, f_stop, loose))
        states = forked
        assert len(states) <= 256  # the forks stay few
    return outcomes


def lockstep_agrees(f, rounds, fs, trials, outcome):
    """Whether a lockstep run's f per row and round count agree with one
    outcome of :func:`pruned_replays`: a pinned row ends at the outcome's f
    to rtol 1e-9, a loose row without ties at one of its later reference f
    to rtol 1e-9, a loose row with a tie no higher than before the round it
    came loose, and the round count equals the outcome's if every row is
    pinned and is no lower than any row's pinned rounds otherwise."""
    ref, ref_rounds, loose = outcome
    pinned = np.isinf(loose)
    if not np.all(np.abs(f[pinned] - ref[pinned]) <= 1e-9 * np.abs(ref[pinned])):
        return False
    for i in np.flatnonzero(~pinned):
        accepts = ladder_accepts(trials[i])
        if trials[i].isupper():
            later = np.array(fs[i][accepts[int(loose[i]) - 1]:])
            if not np.any(np.abs(f[i] - later) <= 1e-9 * later):
                return False
        elif f[i] > fs[i][accepts[int(loose[i]) - 2] if loose[i] > 1 else 0] * (1.0 + 1e-9):
            return False
    if pinned.all():
        return rounds == max(ref_rounds)
    return rounds >= max(np.minimum(ref_rounds, loose))


def duplicate_column_net():
    """Two identical latent columns: J^T J is singular everywhere, so only
    the damping floor keeps the damped system solvable once lam shrinks."""
    base = make_random_generator(2, 8, 2, [6], "tanh", seed=23)
    w = base.layers[0].weights[:, :1]
    dup = GeneratorNetwork(
        [Layer(np.hstack([w, w]), np.zeros(6), Activation("tanh")), base.layers[1]])
    one = GeneratorNetwork([Layer(w, np.zeros(6), Activation("tanh")), base.layers[1]])
    return dup, one


class TestOrthoBasis:
    def test_identity_and_random(self):
        B = OrthoBasis.identity(6)
        np.testing.assert_array_equal(B.matrix, np.eye(6))
        Q = OrthoBasis.random(6, seed=3)
        assert np.max(np.abs(Q.matrix.T @ Q.matrix - np.eye(6))) < 1e-12

    def test_random_is_seed_deterministic(self):
        a = OrthoBasis.random(5, seed=1).matrix
        b = OrthoBasis.random(5, seed=1).matrix
        np.testing.assert_array_equal(a, b)

    def test_rejects_non_orthonormal(self):
        M = np.eye(4)
        M[0, 0] = 1.001
        with pytest.raises(ContractError, match="orthonormal"):
            OrthoBasis(M)
        with pytest.raises(ContractError, match="square"):
            OrthoBasis(np.ones((4, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # B^T B - I has NaN entries, which no `dev > tol` test catches
        M = np.eye(4)
        M[0, 0] = bad
        with pytest.raises(ContractError, match="orthonormal"):
            OrthoBasis(M)


class TestHardThreshold:
    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(0)
        for trial in range(40):
            n = int(rng.integers(2, 11))
            l = int(rng.integers(0, min(3, n) + 1))
            B = OrthoBasis.random(n, seed=trial)
            v = rng.standard_normal(n)
            w = hard_threshold(B, v, l)
            if l == 0:
                np.testing.assert_array_equal(w, np.zeros(n))
                continue
            d_oracle, _ = brute_force_sparse_projection(B.matrix, v, l)
            assert abs(np.linalg.norm(v - w) - d_oracle) <= 1e-12

    def test_tie_break_lowest_index(self):
        B = OrthoBasis.identity(3)
        w = hard_threshold(B, np.array([1.0, -1.0, 1.0]), 2)
        np.testing.assert_array_equal(w, np.array([1.0, -1.0, 0.0]))

    def test_identity_basis_keeps_entries_exactly(self):
        B = OrthoBasis.identity(5)
        v = np.array([0.1, -3.0, 2.0, 0.0, -2.5])
        w = hard_threshold(B, v, 2)
        np.testing.assert_array_equal(w, np.array([0.0, -3.0, 0.0, 0.0, -2.5]))

    def test_l_at_least_n_is_identity(self):
        B = OrthoBasis.random(4, seed=2)
        v = np.random.default_rng(1).standard_normal(4)
        np.testing.assert_allclose(hard_threshold(B, v, 4), v, atol=1e-12)

    def test_sparsity_of_coefficients_is_exact(self):
        rng = np.random.default_rng(5)
        B = OrthoBasis.random(8, seed=9)
        for _ in range(10):
            v = rng.standard_normal(8)
            w, coeffs = hard_threshold_coeffs(B, v, 3)
            assert np.count_nonzero(coeffs) <= 3
            np.testing.assert_array_equal(w, B.matrix @ coeffs)

    def test_bad_l_rejected(self):
        B = OrthoBasis.identity(3)
        with pytest.raises(ContractError, match="sparsity"):
            hard_threshold(B, np.zeros(3), -1)


def closed_form(W, x):
    """``project`` with ``closed-form-linear`` onto the span of ``W``."""
    return project(ProjectionConfig(method="closed-form-linear"), make_linear_generator(W), x)


def lstsq_point(W, x):
    """Independent reference: the least-squares point from LAPACK's driver."""
    return W @ np.linalg.lstsq(W, x, rcond=None)[0]


class TestProjectLinear:
    """Closed-form projection onto the column span of a linear generator."""

    def test_normal_equations_residual_orthogonal(self):
        rng = np.random.default_rng(7)
        W = rng.standard_normal((20, 4))
        x = rng.standard_normal(20)
        res = closed_form(W, x)
        assert res.certified
        assert np.max(np.abs(W.T @ (x - res.point))) < 1e-9
        np.testing.assert_allclose(res.point, lstsq_point(W, x), atol=1e-12)
        np.testing.assert_allclose(res.point, W @ res.latent, atol=1e-14)
        assert abs(res.residual_sq - np.sum((x - res.point) ** 2)) < 1e-12

    def test_non_expansive(self):
        rng = np.random.default_rng(8)
        W = rng.standard_normal((15, 3))
        for _ in range(20):
            x, y = rng.standard_normal((2, 15))
            px = closed_form(W, x).point
            py = closed_form(W, y).point
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        W = rng.standard_normal((10, 2))
        first = closed_form(W, rng.standard_normal(10))
        second = closed_form(W, first.point)
        assert second.residual_sq <= 1e-20

    def test_point_already_in_span(self):
        W = np.eye(6)[:, :2]
        x = np.array([1.0, 2.0, 0, 0, 0, 0])
        res = closed_form(W, x)
        assert res.residual_sq <= 1e-30
        np.testing.assert_allclose(res.point, x, atol=1e-15)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ContractError, match="singular value"):
            make_linear_generator(np.ones((5, 2)))

    def test_wide_or_empty_matrix_rejected(self):
        # more columns than rows cannot have full column rank, whatever the
        # singular values of the rows are
        W = np.random.default_rng(3).standard_normal((2, 5))
        with pytest.raises(ContractError, match="singular value"):
            make_linear_generator(W)
        with pytest.raises(ContractError, match="2-d matrix"):
            make_linear_generator(np.zeros((5, 0)))


def ill_conditioned(rng, n, k, cond):
    """n-by-k matrix with singular values log-spaced from 1 down to 1/cond."""
    U = np.linalg.qr(rng.standard_normal((n, k)))[0]
    V = np.linalg.qr(rng.standard_normal((k, k)))[0]
    return (U * np.logspace(0, -np.log10(cond), k)) @ V.T


def normal_equation_residual(W, x, point):
    """||W^T (x - point)|| relative to ||W|| ||x||: zero at the exact
    least-squares point."""
    return np.linalg.norm(W.T @ (x - point)) / (np.linalg.norm(W, 2) * np.linalg.norm(x))


class TestFactoredLayer:
    def test_factor_is_computed_once_per_config_and_network(self, monkeypatch):
        calls = []
        factor = projection._pseudo_inverse

        def counting_factor(W):
            calls.append(W)
            return factor(W)

        monkeypatch.setattr(projection, "_pseudo_inverse", counting_factor)
        net, obj, x_star = _linear_problem(31)
        cfgs = [ProjectionConfig(method="closed-form-linear", degrade_slack=slack)
                for slack in (0.0, 1e-4, 1e-2)]
        epsilon_pgd(obj, net, cfgs[0], SolverConfig(iters=200), x_star=x_star)
        assert len(calls) == 1
        calls.clear()
        _oracle.cache_clear()
        for cfg in cfgs:
            for _ in range(2):
                project(cfg, net, x_star)
        assert len(calls) == 3
        assert all(W is net.layers[0].weights for W in calls)

    def test_caller_mutation_does_not_reach_the_network(self):
        rng = np.random.default_rng(32)
        W = rng.standard_normal((12, 3))
        net = make_linear_generator(W)
        x = rng.standard_normal(12)
        cfg = ProjectionConfig(method="closed-form-linear")
        before = project(cfg, net, x)
        W *= 2.0
        after = project(cfg, net, x)
        np.testing.assert_array_equal(after.point, before.point)
        np.testing.assert_array_equal(net.layers[0].weights, W / 2.0)
        for array in (net.layers[0].weights, net.layers[0].bias):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_rank_deficient_layer_raises_on_every_call(self):
        layer = Layer(np.ones((5, 2)), np.zeros(5), Activation("identity"))
        net = GeneratorNetwork([layer])
        for _ in range(2):
            with pytest.raises(ContractError, match="singular value"):
                project(ProjectionConfig(method="closed-form-linear"), net, np.zeros(5))

    def test_ill_conditioned_accuracy_matches_lstsq(self):
        # cond 1e8: the pseudo-inverse keeps the normal equations within 10x
        # of LAPACK's least-squares driver
        rng = np.random.default_rng(33)
        worst = {"project": 0.0, "lstsq": 0.0}
        for _ in range(20):
            W = ill_conditioned(rng, 100, 5, 1e8)
            x = rng.standard_normal(100)
            points = {
                "project": closed_form(W, x).point,
                "lstsq": lstsq_point(W, x),
            }
            for name, point in points.items():
                worst[name] = max(worst[name], normal_equation_residual(W, x, point))
        assert worst["project"] <= 10.0 * worst["lstsq"]

    def test_offset_layer_matches_shifted_least_squares(self):
        rng = np.random.default_rng(34)
        W, b, x = rng.standard_normal((12, 3)), rng.standard_normal(12), rng.standard_normal(12)
        net = GeneratorNetwork([Layer(W, b, Activation("identity"))])
        res = project(ProjectionConfig(method="closed-form-linear"), net, x)
        np.testing.assert_allclose(res.latent, np.linalg.lstsq(W, x - b, rcond=None)[0],
                                   atol=1e-12)
        np.testing.assert_array_equal(res.point, forward(net, res.latent))


class TestProjectClosedForm:
    def test_matches_lstsq(self):
        rng = np.random.default_rng(11)
        W = rng.standard_normal((12, 3))
        net = make_linear_generator(W)
        x = rng.standard_normal(12)
        cfg = ProjectionConfig(method="closed-form-linear")
        res = project(cfg, net, x)
        np.testing.assert_allclose(res.point, lstsq_point(W, x), atol=1e-12)
        assert res.certified
        np.testing.assert_array_equal(res.point, forward(net, res.latent))

    def test_requires_single_identity_layer(self):
        net = make_random_generator(2, 8, 2, [4], "relu", seed=0)
        with pytest.raises(ConfigError, match="identity"):
            project(ProjectionConfig(method="closed-form-linear"), net, np.zeros(8))


class TestTargetChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method,arch", [
        ("closed-form-linear", "linear"), ("grid", "relu"), ("latent-gd", "relu")])
    def test_non_finite_target_rejected(self, method, arch, bad):
        if arch == "linear":
            net = make_linear_generator(np.random.default_rng(35).standard_normal((8, 2)))
        else:
            net = make_random_generator(2, 8, 2, [4], "relu", seed=0)
        cfg = ProjectionConfig(method=method, restarts=3, grid_resolution=5)
        for x in (np.full(8, bad), np.where(np.arange(8) == 3, bad, 0.0)):
            with pytest.raises(ContractError, match="finite"):
                project(cfg, net, x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_linear_generator_rejects_non_finite_inputs(self, bad):
        W = np.random.default_rng(36).standard_normal((6, 2))
        with pytest.raises(ContractError, match="target must be finite"):
            closed_form(W, np.where(np.arange(6) == 2, bad, 0.0))
        W[0, 1] = bad
        with pytest.raises(ContractError, match="must be finite"):
            make_linear_generator(W)


class TestProjectGrid:
    def setup_method(self):
        self.net = make_random_generator(2, 6, 2, [4], "relu", seed=21)

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(12)
        cfg = ProjectionConfig(method="grid", grid_bounds=(-2.0, 2.0), grid_resolution=9)
        for _ in range(5):
            x = rng.standard_normal(6)
            res = project(cfg, self.net, x)
            r_oracle, z_oracle = brute_force_grid(self.net, x, -2.0, 2.0, 9)
            assert abs(res.residual_sq - r_oracle) <= 1e-12
            np.testing.assert_allclose(res.latent, z_oracle, atol=1e-12)
            assert not res.certified  # a mesh point is no certificate
            np.testing.assert_array_equal(res.point, forward(self.net, res.latent))

    def test_grid_limited_to_small_latent_dim(self):
        net = make_random_generator(4, 8, 1, [], "relu", seed=0)
        with pytest.raises(ConfigError, match="k <= 3"):
            project(ProjectionConfig(method="grid"), net, np.zeros(8))

    def test_idempotent_within_epsilon(self):
        cfg = ProjectionConfig(method="grid", grid_bounds=(-3.0, 3.0), grid_resolution=15)
        x = np.random.default_rng(1).standard_normal(6)
        first = project(cfg, self.net, x)
        second = project(cfg, self.net, first.point)
        assert second.residual_sq <= max(cfg.epsilon, 1e-24)

    def test_per_coordinate_bounds(self):
        cfg = ProjectionConfig(
            method="grid", grid_bounds=[(-1.0, 0.0), (0.0, 2.0)], grid_resolution=5
        )
        res = project(cfg, self.net, np.zeros(6))
        assert -1.0 <= res.latent[0] <= 0.0
        assert 0.0 <= res.latent[1] <= 2.0


class TestProjectLatentGd:
    def test_near_exact_on_linear_generator(self):
        rng = np.random.default_rng(13)
        W = rng.standard_normal((10, 3))
        net = make_linear_generator(W)
        x = rng.standard_normal(10)
        res = project(ProjectionConfig(method="latent-gd", restarts=3, seed=0), net, x)
        ref = closed_form(W, x)
        assert res.residual_sq <= ref.residual_sq + 1e-6
        assert not res.certified
        np.testing.assert_array_equal(res.point, forward(net, res.latent))

    def test_monotone_in_restarts(self):
        net = make_random_generator(2, 8, 2, [6], "relu", seed=4)
        x = np.random.default_rng(2).standard_normal(8)
        resids = [
            project(ProjectionConfig(method="latent-gd", restarts=r, seed=7), net, x).residual_sq
            for r in (1, 3, 10)
        ]
        assert resids[0] >= resids[1] >= resids[2]

    def test_pure_given_config(self):
        net = make_random_generator(2, 8, 2, [6], "relu", seed=4)
        x = np.random.default_rng(3).standard_normal(8)
        cfg = ProjectionConfig(method="latent-gd", restarts=4, seed=5)
        a = project(cfg, net, x)
        b = project(cfg, net, x)
        np.testing.assert_array_equal(a.point, b.point)
        np.testing.assert_array_equal(a.latent, b.latent)
        assert a.residual_sq == b.residual_sq

    def test_one_restart_converges_on_linear_generator(self):
        # Levenberg-Marquardt is exact Gauss-Newton in the limit of small
        # damping, so on an affine generator it reaches the least-squares
        # optimum in a handful of iterations
        for seed in range(5):
            rng = np.random.default_rng(seed)
            W = rng.standard_normal((10, 3))
            x = rng.standard_normal(10)
            cfg = ProjectionConfig(method="latent-gd", restarts=1, inner_iters=20, seed=0)
            res = project(cfg, make_linear_generator(W), x)
            assert res.residual_sq <= closed_form(W, x).residual_sq + 1e-10

    @pytest.mark.parametrize("activation,slope", [("tanh", None), ("leaky-relu", 0.2)])
    def test_descent_never_increases_residual(self, activation, slope):
        rng = np.random.default_rng(17)
        for net_seed in range(12):
            net = make_random_generator(3, 12, 2, [8], activation, seed=net_seed, slope=slope)
            x = rng.standard_normal(12)
            Z0 = rng.uniform(-3.0, 3.0, size=(20, 3))
            start = np.sum((forward_batch(net, Z0.T).T - x) ** 2, axis=1)
            for inner_iters in (1, 2, 3, 5, 10, 200):
                Z, f = _descend_lockstep(net, x, Z0, inner_iters, _start_pass(net, Z0))
                assert Z.shape == Z0.shape and f.shape == (20,)
                assert np.all(2.0 * f <= start)
                for z, fi in zip(Z, f):
                    assert fi == pytest.approx(
                        0.5 * float(np.sum((forward(net, z) - x) ** 2)), rel=1e-12)

    @pytest.mark.parametrize("activation,slope", [("relu", None), ("leaky-relu", 0.2),
                                                  ("tanh", None)])
    def test_origin_restart_is_dead_only_on_zero_bias_relu(self, activation, slope):
        # zero biases put every preactivation at 0 at the origin, where relu's
        # subgradient is 0: J(0) = 0, so restart 0 keeps f = 0.5 ||x||^2 and
        # 10 restarts run 9 live descents; leaky-relu and tanh move from it
        net = make_random_generator(4, 20, 2, [12], activation, seed=5, slope=slope)
        x = forward(net, np.random.default_rng(6).standard_normal(4))
        cfg = ProjectionConfig(method="latent-gd", restarts=10, inner_iters=50)
        Z0 = _restart_starts(cfg.seed, cfg.restarts, tuple(cfg._resolve_bounds(net.k)))
        Z, f = _descend_lockstep(net, x, Z0, cfg.inner_iters, _start_pass(net, Z0))
        if activation == "relu":
            np.testing.assert_array_equal(Z[0], np.zeros(4))
            assert f[0] == pytest.approx(0.5 * float(x @ x), rel=1e-15)
        else:
            assert np.any(Z[0] != 0.0) and f[0] < 0.5 * float(x @ x)
        assert np.all(np.any(Z[1:] != Z0[1:], axis=1))

    @pytest.mark.parametrize("case", ["tanh", "leaky-relu", "relu", "one-restart", "duplicate"])
    def test_lockstep_rows_match_sequential_reference(self, case, monkeypatch):
        stacked_solves = [0, 0]  # stacked, single-system
        solve = np.linalg.solve
        rounds = [0]  # one forward_batch call per lockstep round

        def counted(a, b):
            stacked_solves[np.ndim(a) == 2] += 1
            return solve(a, b)

        def counted_batch(net, Z):
            rounds[0] += 1
            return forward_batch(net, Z)

        restarts = 1 if case == "one-restart" else 10
        if case == "duplicate":
            net = duplicate_column_net()[0]
        else:
            activation = "relu" if case == "one-restart" else case
            net = make_random_generator(3, 16, 2, [10], activation, seed=31,
                                        slope=0.2 if case == "leaky-relu" else None)
        if case == "one-restart":
            # a first-layer bias gives J(0) != 0, so the lone restart at the
            # origin descends (with zero biases it would never move)
            first = net.layers[0]
            bias = np.random.default_rng(32).standard_normal(first.bias.size)
            net = GeneratorNetwork([Layer(first.weights, bias, first.activation),
                                    *net.layers[1:]])
        cfg = ProjectionConfig(method="latent-gd", restarts=restarts, inner_iters=50, seed=3)
        Z0 = _restart_starts(cfg.seed, restarts, tuple(cfg._resolve_bounds(net.k)))
        assert Z0.shape == (restarts, net.k) and not Z0.flags.writeable
        # the origin, then restart j from the nested stream (seed, j); drawn once
        np.testing.assert_array_equal(Z0[0], np.zeros(net.k))
        for j in range(1, restarts):
            np.testing.assert_array_equal(Z0[j], spawn_rng(3, j).uniform(-3.0, 3.0, net.k))
        assert _restart_starts(cfg.seed, restarts, tuple(cfg._resolve_bounds(net.k))) is Z0
        exact = 0  # draws whose round count is pinned exactly
        pruned = 0  # pinned rows the replay stops before their last trial
        for s in range(6):
            x = np.random.default_rng(s).standard_normal(net.n)
            rounds[0] = 0
            with monkeypatch.context() as patched:
                patched.setattr(np.linalg, "solve", counted)
                patched.setattr(projection, "forward_batch", counted_batch)
                Z, f = _descend_lockstep(net, x, Z0, cfg.inner_iters, _start_pass(net, Z0))
            assert rounds[0] >= 1  # a descent ran: the rtol check compares two descents
            _, fs, trials = zip(*(sequential_descend(net, x, z0, cfg.inner_iters) for z0 in Z0))
            # a pinned row, pruned or not, stops at the reference's f of its
            # last round; the ladder makes each row's trials in fewer rounds,
            # not other trials
            outcomes = pruned_replays(fs, trials, projection._PRUNE)
            agree = [o for o in outcomes if lockstep_agrees(f, rounds[0], fs, trials, o)]
            assert agree, f"no replay outcome of {len(outcomes)} agrees"
            ref, ref_rounds, loose = agree[0]
            pinned = np.isinf(loose)
            plans = [len(ladder_accepts(t)) for t in trials]
            pruned += sum((ref_rounds < plans) & pinned)
            exact += pinned.all()
            # the same winner, unless two rows tie to within that tolerance
            win, ref_win = int(np.argmin(f)), int(np.argmin(ref))
            if pinned[win] and pinned[ref_win]:
                assert win == ref_win or ref[win] == pytest.approx(ref[ref_win], rel=1e-9)
            res = project(cfg, net, x)
            np.testing.assert_array_equal(res.latent, Z[win])
        assert stacked_solves[1] == 0  # the duplicate case too: the floor keeps it solvable
        assert exact >= 2
        if case in ("tanh", "leaky-relu", "relu"):
            assert pruned >= 1  # the replay checks pruned rows too

    def test_prune_stops_restarts_in_the_losing_basin(self, monkeypatch):
        # G(z) = tanh(w z + b) with one latent has two basins for this x:
        # f near 0.13 around z = 0 and near 1.25 around z = -1.4.  Every
        # generator value is one product and one tanh, so a row's bits do
        # not depend on how many rows run beside it
        net = GeneratorNetwork([Layer(np.array([[-2.0], [0.5], [-3.0]]),
                                      np.array([0.5, 1.0, -0.5]), Activation("tanh"))])
        x = np.array([0.5, 0.25, -0.5])
        Z0 = _restart_starts(0, 10, ((-3.0, 3.0),))
        rounds = [0]

        def counted_batch(net, Z):
            rounds[0] += 1
            return forward_batch(net, Z)

        def descend(Z0, kappa):
            rounds[0] = 0
            with monkeypatch.context() as patched:
                patched.setattr(projection, "forward_batch", counted_batch)
                patched.setattr(projection, "_PRUNE", kappa)
                Z, f = _descend_lockstep(net, x, Z0, 50, _start_pass(net, Z0))
            return Z, f, rounds[0]

        # without pruning each row ends where it ends alone, bit for bit
        Z, f, unpruned = descend(Z0, np.inf)
        for i in range(len(Z0)):
            Z_alone, f_alone, _ = descend(Z0[i:i + 1], np.inf)
            np.testing.assert_array_equal(Z[i], Z_alone[0])
            assert f[i] == f_alone[0]
        assert np.sum(f > 5.0 * f.min()) >= 2  # restarts in the losing basin
        Z_pruned, f_pruned, pruned = descend(Z0, 100.0)
        assert pruned < unpruned
        win = int(np.argmin(f))
        assert int(np.argmin(f_pruned)) == win
        np.testing.assert_array_equal(Z_pruned[win], Z[win])

    def test_reject_cap_stops_a_row_after_its_seventeenth_missed_round(self, monkeypatch):
        # no trial ever passes: 17 rounds of 3 levels, 51 rejects, then the row stops
        net = make_random_generator(3, 12, 2, [8], "tanh", seed=4)
        x = np.random.default_rng(0).standard_normal(12)
        Z0 = np.array([[0.5, -1.0, 2.0]])
        f0 = 0.5 * float(np.sum((forward(net, Z0[0]) - x) ** 2))
        trials = []

        def never_passes(net, Z):
            trials.append(Z.shape[1])
            return np.full((net.n, Z.shape[1]), 1e6)

        monkeypatch.setattr(projection, "forward_batch", never_passes)
        Z, f = _descend_lockstep(net, x, Z0, 200, _start_pass(net, Z0))
        assert trials == [3] * 17
        np.testing.assert_array_equal(Z, Z0)
        assert f[0] == pytest.approx(f0, rel=1e-15)

    def test_accept_resets_the_reject_count(self, monkeypatch):
        # 9 rejects, an accept in round 4, then no trial passes: the cap
        # counts 17 missed rounds from the accept, not from the start
        net = make_random_generator(3, 12, 2, [8], "tanh", seed=4)
        x = np.random.default_rng(0).standard_normal(12)
        Z0 = np.array([[0.5, -1.0, 2.0]])
        f0 = 0.5 * float(np.sum((forward(net, Z0[0]) - x) ** 2))
        trials = []

        def passes_once(net, Z):
            trials.append(Z.shape[1])
            if len(trials) == 4:
                return forward_batch(net, Z)
            return np.full((net.n, Z.shape[1]), 1e6)

        monkeypatch.setattr(projection, "forward_batch", passes_once)
        Z, f = _descend_lockstep(net, x, Z0, 200, _start_pass(net, Z0))
        assert trials == [3] * 21
        assert f[0] < f0 and np.any(Z != Z0)

    def test_reject_cap_survives_the_compaction_of_another_row(self, monkeypatch):
        # row 0 starts at the origin, and each of its first 51 trials lands
        # in a poisoned shell around it (output 1e6); its 52nd would land
        # inside the shell and pass.  Row 1 descends far away and stops at
        # inner_iters in round 16, after which row 0 has missed 16 rounds:
        # round 17 must be its last although the compaction of round 16
        # left row 0 alone
        net = make_random_generator(2, 12, 2, [8], "tanh", seed=1)
        x = forward(net, np.array([2.0, -1.5])) + np.random.default_rng(1).standard_normal(12)
        Z0 = np.array([[0.0, 0.0], [2.5, -2.0]])
        J = _jacobian(net, Z0[0])
        lam = float(np.sum(J * J))  # trial j tries damping lam 4^j
        first, last = (np.linalg.norm(np.linalg.solve(J.T @ J + lam * 4.0 ** j * np.eye(2),
                                                          -J.T @ x)) for j in (0, 50))

        def poisoned(z):
            return last / 2 < np.linalg.norm(z) < 2 * first

        widths = []

        def poisoned_batch(net, Z):
            widths.append(Z.shape[1])
            out = forward_batch(net, Z)
            out[:, [poisoned(z) for z in Z.T]] = 1e6
            return out

        monkeypatch.setattr(projection, "forward_batch", poisoned_batch)
        Z, f = _descend_lockstep(net, x, Z0, 16, _start_pass(net, Z0))
        monkeypatch.setitem(globals(), "forward", lambda net, z: (
            np.full(net.n, 1e6) if poisoned(z) else generator.forward(net, z)))
        (z0, fs0, trials0), (z1, fs1, trials1) = (sequential_descend(net, x, z, 16) for z in Z0)
        assert (trials0, trials1) == ("R" * 51, "A" * 16)
        assert widths == [6] * 16 + [3]
        np.testing.assert_array_equal(Z[0], z0)
        assert f[0] == pytest.approx(fs0[-1], rel=1e-15)
        np.testing.assert_allclose(Z[1], z1, rtol=1e-9)
        assert f[1] == pytest.approx(fs1[-1], rel=1e-9)

    def test_dependent_latent_directions(self):
        # the range of the duplicate-column net is that of the one-latent
        # net, which a fine grid covers
        dup, one = duplicate_column_net()
        lgd = ProjectionConfig(method="latent-gd", restarts=3, seed=0)
        grid = ProjectionConfig(method="grid", grid_bounds=(-6.0, 6.0), grid_resolution=2001)
        for s in range(5):
            x = np.random.default_rng(s).standard_normal(8)
            got = project(lgd, dup, x).residual_sq
            assert got <= project(grid, one, x).residual_sq + 1e-9

    def test_zero_range_generator(self):
        # all-zero weights: the range is {0}; descent stays wherever it starts
        net = GeneratorNetwork([Layer(np.zeros((5, 1)), np.zeros(5), Activation("identity"))])
        x = np.ones(5)
        res = project(ProjectionConfig(method="latent-gd", restarts=2, seed=0), net, x)
        np.testing.assert_array_equal(res.point, np.zeros(5))
        assert abs(res.residual_sq - 5.0) < 1e-12


def _full_bisection_latent(net, x, res, slack, seed):
    """The degradation step with all 200 bisection steps and no early stop:
    the reference the early-stopping bisection must reproduce bit for bit."""
    d = _direction_reader(seed, net.k)(x)
    target = res.residual_sq + slack

    def h(s):
        return float(np.sum((x - forward(net, res.latent + s * d)) ** 2)) - target

    hi = 1e-8
    while h(hi) < 0:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) >= 0:
            hi = mid
        else:
            lo = mid
    return res.latent + hi * d


def _count_forward(monkeypatch):
    calls = [0]

    def counted(net, z):
        calls[0] += 1
        return forward(net, z)

    monkeypatch.setattr(projection, "forward", counted)
    return calls


class TestDegradedProjection:
    def test_slack_calibration(self, monkeypatch):
        rng = np.random.default_rng(14)
        orthonormal = make_linear_generator(np.linalg.qr(rng.standard_normal((30, 4)))[0])
        skewed = GeneratorNetwork([Layer(
            rng.standard_normal((30, 4)) * np.array([3.0, 1.0, 0.3, 0.1]),
            rng.standard_normal(30),
            Activation("identity"),
        )])
        x = rng.standard_normal(30)
        # a two-iteration latent-gd start is off the exact projection, so the
        # cross term r0 . W d of the closed-form root is far from zero; the
        # seeds vary the direction d and with it the sign of that term
        starts = [ProjectionConfig(method="closed-form-linear", seed=0)] + [
            ProjectionConfig(method="latent-gd", restarts=1, inner_iters=2, seed=seed)
            for seed in range(4)
        ]
        calls = _count_forward(monkeypatch)
        for net in (orthonormal, skewed):
            for start in starts:
                base = project(start, net, x)
                for slack in (1e-8, 1e-6, 1e-4, 1e-2, 1.0):
                    cfg = replace(start, epsilon=slack, degrade_slack=slack)
                    before = calls[0]
                    res = project(cfg, net, x)
                    np.testing.assert_array_equal(res.point, forward(net, res.latent))
                    got = res.residual_sq - base.residual_sq
                    assert abs(got - slack) < 1e-8 * max(1.0, slack)
                    assert res.certified == base.certified
                    if start.method == "closed-form-linear":
                        assert res.certified
                        # the exact projection and the degraded point
                        assert calls[0] - before == 2
        # far from the range b^2 >> a slack, where (b + root) / a would cancel to 0
        s = projection._affine_step(np.array([1.0, 0.0]), np.array([-1e4, 3.0]), 1e-8)
        assert s == pytest.approx(5e-13, rel=1e-12, abs=0.0)

    def test_zero_range_has_no_root(self):
        net = GeneratorNetwork([Layer(np.zeros((6, 2)), np.ones(6), Activation("identity"))])
        x = np.arange(6.0)
        for method in ("grid", "latent-gd"):
            cfg = ProjectionConfig(method=method, degrade_slack=1e-3, restarts=2,
                                   inner_iters=5, grid_resolution=5)
            with pytest.raises(ContractError, match="could not calibrate"):
                project(cfg, net, x)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_bisection_on_nonaffine_net(self, activation, monkeypatch):
        net = make_random_generator(2, 12, 2, [6], activation=activation, seed=3)
        rng = np.random.default_rng(16)
        x = forward(net, np.array([0.7, -1.1])) + 0.05 * rng.standard_normal(12)
        start = ProjectionConfig(method="grid", grid_resolution=41, seed=5)
        base = project(start, net, x)
        calls = _count_forward(monkeypatch)
        for slack in (1e-4, 1e-2):
            before = calls[0]
            res = project(replace(start, degrade_slack=slack), net, x)
            used = calls[0] - before
            np.testing.assert_array_equal(res.point, forward(net, res.latent))
            assert abs(res.residual_sq - base.residual_sq - slack) < 1e-8 * max(1.0, slack)
            np.testing.assert_array_equal(
                res.latent, _full_bisection_latent(net, x, base, slack, start.seed)
            )
            # doublings plus bisection to float resolution, not 200 steps
            assert used < 120

    @pytest.mark.parametrize("kind,method", [("affine", "closed-form-linear"),
                                             ("affine", "latent-gd"), ("relu", "latent-gd")])
    def test_degraded_result_is_the_composed_latent(self, kind, method):
        # project builds one result, after the degradation: its latent must
        # be the undegraded latent plus s d, its point and residual those of
        # that latent, whichever route found s
        rng = np.random.default_rng(19)
        if kind == "affine":
            net = make_linear_generator(np.linalg.qr(rng.standard_normal((14, 3)))[0])
        else:
            net = make_random_generator(3, 14, 2, [8], activation="relu", seed=6)
        x = forward(net, rng.standard_normal(3)) + 0.1 * rng.standard_normal(14)
        start = ProjectionConfig(method=method, restarts=3, inner_iters=20, seed=7)
        base = project(start, net, x)
        for slack, epsilon in ((1e-4, 1e-3), (1e-3, 1e-4)):
            res = project(replace(start, epsilon=epsilon, degrade_slack=slack), net, x)
            if kind == "affine":
                d = _direction_reader(start.seed, net.k)(x)
                s = projection._affine_step(net.layers[0].weights @ d, x - base.point, slack)
                want = base.latent + s * d
            else:
                want = _full_bisection_latent(net, x, base, slack, start.seed)
            np.testing.assert_array_equal(res.latent, want)
            np.testing.assert_array_equal(res.point, forward(net, res.latent))
            assert res.residual_sq == float(np.sum((x - res.point) ** 2))
            assert res.certified == (method != "latent-gd" and epsilon >= slack)

    def test_degraded_is_pure(self):
        rng = np.random.default_rng(15)
        W = np.linalg.qr(rng.standard_normal((12, 3)))[0]
        net = make_linear_generator(W)
        x = rng.standard_normal(12)
        cfg = ProjectionConfig(
            method="closed-form-linear", epsilon=1e-3, degrade_slack=1e-3, seed=2
        )
        a = project(cfg, net, x)
        b = project(cfg, net, x)
        np.testing.assert_array_equal(a.latent, b.latent)
        # the config keeps a numpy seed as passed; it draws what the int draws
        c = project(replace(cfg, seed=np.int64(2)), net, x)
        np.testing.assert_array_equal(a.latent, c.latent)

    @pytest.mark.parametrize("method", ["closed-form-linear", "grid", "latent-gd"])
    def test_certificate_needs_epsilon_to_cover_the_slack(self, method):
        W = np.linalg.qr(np.random.default_rng(17).standard_normal((10, 2)))[0]
        net = make_linear_generator(W)
        x = np.random.default_rng(18).standard_normal(10)
        for epsilon in (0.0, 5e-4, 1e-3):
            cfg = ProjectionConfig(method=method, epsilon=epsilon, degrade_slack=1e-3,
                                   grid_resolution=11, restarts=2, inner_iters=5)
            # only the closed form certifies, and it loses the certificate
            # when the advertised slack is below the injected one
            expected = method == "closed-form-linear" and epsilon >= 1e-3
            assert project(cfg, net, x).certified == expected


class TestDegradationDirection:
    """The unit direction a degraded projection moves along, read from a
    keyed hash of (seed, exact bits of x)."""

    def test_keyed_by_seed_and_exact_bits(self):
        x = np.random.default_rng(20).standard_normal(30)
        d = _direction_reader(2, 5)(x)
        np.testing.assert_array_equal(_direction_reader(2, 5)(x.copy()), d)
        nudged = x.copy()
        nudged[7] = np.nextafter(x[7], np.inf)
        assert np.all(_direction_reader(2, 5)(nudged) != d)
        assert np.all(_direction_reader(3, 5)(x) != d)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_unit_norm(self, k):
        for s in range(20):
            d = _direction_reader(s, k)(np.random.default_rng(s).standard_normal(12))
            assert d.shape == (k,)
            assert abs(np.linalg.norm(d) - 1.0) <= 1e-15

    def test_numpy_and_wide_integer_seeds(self):
        x = np.linspace(-1.0, 1.0, 9)
        d = _direction_reader(2, 4)(x)
        np.testing.assert_array_equal(_direction_reader(np.int64(2), 4)(x), d)
        wide = _direction_reader(2**70, 4)(x)
        assert np.all(np.isfinite(wide)) and np.all(wide != d)

    def test_isotropic(self):
        rng = np.random.default_rng(21)
        D = np.array([_direction_reader(0, 3)(rng.standard_normal(6)) for _ in range(4000)])
        assert np.all(np.abs(D.mean(axis=0)) <= 0.05)
        assert np.all(np.abs((D ** 2).mean(axis=0) - 1.0 / 3.0) <= 0.03)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_matches_the_written_out_formula(self, k):
        def reference(seed, x, k):
            key = b"%d:%b" % (seed, x.tobytes())
            digest = hashlib.shake_256(key).digest(16 * ((k + 1) // 2))
            normals = []
            for i in range(0, len(digest), 16):
                u = (int.from_bytes(digest[i:i + 8], "big") >> 11) + 1
                r = math.sqrt(-2.0 * math.log(u * 2.0**-53))
                t = 2.0 * math.pi * (int.from_bytes(digest[i + 8:i + 16], "big") >> 11) * 2.0**-53
                normals += (r * math.cos(t), r * math.sin(t))
            return np.array(normals[:k]) / math.hypot(*normals[:k])

        wide = np.random.default_rng(k).standard_normal(40)
        for x in (wide[:20], wide[::2], wide[::-2]):  # contiguous, strided, reversed
            for seed in (0, 7, 2**63 - 1):
                got = _direction_reader(seed, k)(x)
                assert got.tobytes() == reference(seed, x, k).tobytes()
                assert got.tobytes() == _direction_reader(seed, k)(x.copy()).tobytes()


class TestAffineStep:
    @staticmethod
    def reference(w, r0, slack):
        # the root in numpy scalars, as the step was first written
        a = w @ w
        b = r0 @ w
        root = np.sqrt(b * b + a * slack)
        return float(slack / (root - b) if b <= 0 else (b + root) / a)

    def test_matches_the_numpy_scalar_formula(self):
        rng = np.random.default_rng(41)
        cases = [(np.array([1.0, 0.0]), np.array([-1e4, 3.0])),  # far, b < 0
                 (np.array([1.0, 0.0]), np.array([1e4, 3.0])),  # far, b > 0
                 (np.array([0.0, 2.0]), np.array([5.0, 0.0]))]  # b = 0
        for _ in range(50):
            w, r0 = rng.standard_normal(30), rng.standard_normal(30)
            cases += [(w, r0), (w, -r0)]  # both signs of b
        for w, r0 in cases:
            for slack in (1e-12, 1e-4, 1e-2, 1.0, 3):
                got = projection._affine_step(w, r0, slack)
                assert type(got) is float and got == self.reference(w, r0, slack) and got > 0


def _linear_problem(seed, n=20, k=3, m=30):
    rng = np.random.default_rng(seed)
    net = make_linear_generator(np.linalg.qr(rng.standard_normal((n, k)))[0])
    x_star = forward(net, rng.standard_normal(k))
    A = rng.standard_normal((m, n)) / np.sqrt(m)
    return net, Objective("linear", A, A @ x_star), x_star


class TestOracle:
    """``project`` resolves one oracle per (config, network) in ``_oracle``."""

    def test_a_solve_builds_each_oracle_once(self):
        net, obj, x_star = _linear_problem(42)
        for cfg in (ProjectionConfig(method="closed-form-linear"),
                    ProjectionConfig(method="closed-form-linear", degrade_slack=1e-4),
                    ProjectionConfig(method="grid", grid_resolution=5),
                    ProjectionConfig(method="latent-gd", restarts=2, inner_iters=3,
                                     degrade_slack=1e-4)):
            _oracle.cache_clear()
            trace = epsilon_pgd(obj, net, cfg, SolverConfig(iters=200), x_star=x_star)
            assert len(trace.records) == 201
            info = _oracle.cache_info()
            assert (info.misses, info.hits, info.currsize) == (1, 199, 1)

    def test_cached_results_equal_fresh_ones(self):
        net = _linear_problem(43)[0]
        relu = make_random_generator(3, 20, 2, [8], "relu", seed=4)
        rng = np.random.default_rng(44)
        xs = [rng.standard_normal(20) for _ in range(3)]
        cases = []
        for g, base in ((net, ProjectionConfig(method="closed-form-linear", seed=3)),
                        (relu, ProjectionConfig(method="latent-gd", restarts=3, inner_iters=5))):
            cases += [(g, c) for c in (base, replace(base, seed=4), replace(base, epsilon=1e-3),
                                       replace(base, degrade_slack=1e-3),
                                       replace(base, degrade_slack=1e-3, seed=4),
                                       replace(base, degrade_slack=1e-3, epsilon=1e-3),
                                       replace(base, degrade_slack=1e-2))]
        warm = [[project(c, g, x) for g, c in cases] for x in xs]  # interleaved, cache warm
        assert _oracle.cache_info().currsize == _ORACLES
        for x, row in zip(xs, warm):
            for (g, c), got in zip(cases, row):
                _oracle.cache_clear()
                fresh = project(c, g, x)
                assert got.latent.tobytes() == fresh.latent.tobytes()
                assert got.point.tobytes() == fresh.point.tobytes()
                assert (got.residual_sq, got.certified) == (fresh.residual_sq, fresh.certified)

    def test_errors_raise_on_every_call(self):
        rng = np.random.default_rng(45)
        good = make_linear_generator(rng.standard_normal((6, 2)))
        relu = make_random_generator(2, 8, 2, [4], "relu", seed=0)
        wide = make_linear_generator(rng.standard_normal((10, 4)))
        singular = GeneratorNetwork([Layer(np.ones((5, 2)), np.zeros(5), Activation("identity"))])
        closed, grid = ProjectionConfig(method="closed-form-linear"), ProjectionConfig(method="grid")
        cases = [(ConfigError, "identity", closed, relu, np.zeros(8)),
                 (ConfigError, "k <= 3", grid, wide, np.zeros(10)),
                 (ContractError, "singular value", closed, singular, np.zeros(5)),
                 (ContractError, "finite", closed, good, np.array([0.0, 1.0, np.nan, 0, 0, 0])),
                 (ContractError, "shape", closed, good, np.zeros(7)),
                 # a bad target is named before a bad config
                 (ContractError, "finite", closed, relu, np.full(8, np.inf)),
                 (ContractError, "shape", grid, wide, np.zeros(3))]
        _oracle.cache_clear()
        for _ in range(3):
            for error, match, cfg, net, x in cases:
                with pytest.raises(error, match=match):
                    project(cfg, net, x)
        assert _oracle.cache_info().currsize == 0

    def test_latent_gd_starts_are_drawn_once(self, monkeypatch):
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return spawn_rng(*args)

        monkeypatch.setattr(projection, "spawn_rng", counted)
        net = make_random_generator(3, 12, 2, [6], "tanh", seed=8)
        cfg = ProjectionConfig(method="latent-gd", restarts=5, inner_iters=4, seed=9)
        _oracle.cache_clear()
        _restart_starts.cache_clear()
        for s in range(3):
            project(cfg, net, np.random.default_rng(s).standard_normal(12))
        assert calls[0] == cfg.restarts - 1

    def test_latent_gd_start_pass_is_made_once(self, monkeypatch):
        # J, J^T J and tr(J^T J) at the fixed starts do not depend on the
        # target, so the oracle makes their full pass once, not per call
        full = [0]

        def counted(net, Z, outputs=True):
            full[0] += outputs
            return _forward_jacobian(net, Z, outputs)

        monkeypatch.setattr(projection, "_forward_jacobian", counted)
        net = make_random_generator(3, 12, 2, [6], "tanh", seed=8)
        cfg = ProjectionConfig(method="latent-gd", restarts=5, inner_iters=4, seed=9)
        _oracle.cache_clear()
        for s in range(2):
            project(cfg, net, np.random.default_rng(s).standard_normal(12))
        assert full[0] == 1

    def test_generator_is_looked_up_at_call_time(self, monkeypatch):
        # a cached oracle still evaluates through the module's forward, so
        # a wrapper installed after it was built sees every evaluation
        net, _, x_star = _linear_problem(46)
        cfg = ProjectionConfig(method="closed-form-linear", degrade_slack=1e-4)
        project(cfg, net, x_star)
        calls = _count_forward(monkeypatch)
        project(cfg, net, x_star + 0.1)
        assert calls[0] == 2  # the exact point and the degraded one


class TestConfigAndResult:
    def test_bad_method(self):
        with pytest.raises(ConfigError, match="method"):
            ProjectionConfig(method="newton")

    def test_bad_bounds(self):
        with pytest.raises(ConfigError, match="grid_bounds"):
            ProjectionConfig(grid_bounds=(2.0, -2.0))

    @pytest.mark.parametrize("name,least", [("restarts", 1), ("inner_iters", 1),
                                            ("grid_resolution", 2)])
    def test_counts_below_their_floor(self, name, least):
        with pytest.raises(ConfigError, match=name):
            ProjectionConfig(**{name: least - 1})

    def test_per_axis_bounds_must_match_the_latent_dimension(self):
        net = make_random_generator(3, 8, 2, [5], seed=0)
        cfg = ProjectionConfig(method="grid", grid_bounds=((-1, 1), (-2, 2)), grid_resolution=3)
        with pytest.raises(ConfigError, match="2 intervals for latent dim 3"):
            project(cfg, net, np.zeros(8))

    def test_bounded_range_cannot_take_the_slack(self):
        # a tanh output keeps every point of the range in [-1, 1]^4, so no
        # step along it adds 1e6 to the squared residual of the target 0
        net = GeneratorNetwork([Layer(np.eye(4)[:, :2], np.zeros(4), Activation("tanh"))])
        cfg = ProjectionConfig(restarts=1, inner_iters=1, degrade_slack=1e6)
        with pytest.raises(ContractError, match="could not calibrate"):
            project(cfg, net, np.zeros(4))

    def test_threshold_vector_must_match_the_basis(self):
        with pytest.raises(ContractError, match=r"shape \(4,\)"):
            hard_threshold_coeffs(OrthoBasis.identity(4), np.ones(3), 1)
