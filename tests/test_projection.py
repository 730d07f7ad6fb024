"""Projection oracles: closed form, grid, latent descent, hard thresholding."""

import itertools
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
from genpgd.projection import _descend_lockstep, _restart_starts, _stable_hash
from genpgd.seeding import spawn_rng


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
    """Reference: one restart of Levenberg–Marquardt on its own, the loop
    the lockstep descent replaces.  Each row of the lockstep run must end
    where this ends from the same start."""
    eye = np.eye(net.k)
    z = z0
    J = _jacobian(net, z)
    r = forward(net, z) - x
    f = 0.5 * float(r @ r)
    lam = float(np.sum(J * J))
    for _ in range(inner_iters):
        g = J.T @ r
        if float(g @ g) < 1e-18:
            break
        JtJ = J.T @ J
        for _ in range(50):
            try:
                p = np.linalg.solve(JtJ + lam * eye, g)
            except np.linalg.LinAlgError:
                lam *= 4.0
                continue
            z_try = z - p
            r_try = forward(net, z_try) - x
            f_try = 0.5 * float(r_try @ r_try)
            if f_try <= f - 1e-4 * float(g @ p):
                break
            lam *= 4.0
        else:
            break
        converged = f - f_try <= 1e-12 * f
        z, r, f = z_try, r_try, f_try
        lam *= 0.25
        if converged:
            break
        J = _jacobian(net, z)
    return z, f


def _jacobian(net, z):
    return _forward_jacobian(net, z[None])[1][0]


def duplicate_column_net():
    """Two identical latent columns: J^T J is singular everywhere, so the
    damped system turns singular once lam shrinks below rounding."""
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
    def test_factor_is_computed_once_per_layer(self, monkeypatch):
        calls = []
        factor = generator._pseudo_inverse

        def counting_factor(W):
            calls.append(W)
            return factor(W)

        monkeypatch.setattr(generator, "_pseudo_inverse", counting_factor)
        rng = np.random.default_rng(31)
        layer = Layer(rng.standard_normal((12, 3)), rng.standard_normal(12), Activation("identity"))
        net = GeneratorNetwork([layer])
        cfg = ProjectionConfig(method="closed-form-linear")
        project(cfg, net, rng.standard_normal(12))
        cached = layer.pseudo_inverse
        project(cfg, net, rng.standard_normal(12))
        assert layer.pseudo_inverse is cached
        assert len(calls) == 1

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
        assert "pseudo_inverse" not in vars(layer)

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
            assert res.certified
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
                Z, f = _descend_lockstep(net, x, Z0, inner_iters)
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
        Z, f = _descend_lockstep(net, x, Z0, cfg.inner_iters)
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

        def counted(a, b):
            stacked_solves[np.ndim(a) == 2] += 1
            return solve(a, b)

        restarts = 1 if case == "one-restart" else 10
        if case == "duplicate":
            net = duplicate_column_net()[0]
        else:
            activation = "relu" if case == "one-restart" else case
            net = make_random_generator(3, 16, 2, [10], activation, seed=31,
                                        slope=0.2 if case == "leaky-relu" else None)
        cfg = ProjectionConfig(method="latent-gd", restarts=restarts, inner_iters=50, seed=3)
        Z0 = _restart_starts(cfg.seed, restarts, tuple(cfg._resolve_bounds(net.k)))
        assert Z0.shape == (restarts, net.k) and not Z0.flags.writeable
        # the origin, then restart j from the nested stream (seed, j); drawn once
        np.testing.assert_array_equal(Z0[0], np.zeros(net.k))
        for j in range(1, restarts):
            np.testing.assert_array_equal(Z0[j], spawn_rng(3, j).uniform(-3.0, 3.0, net.k))
        assert _restart_starts(cfg.seed, restarts, tuple(cfg._resolve_bounds(net.k))) is Z0
        for s in range(6):
            x = np.random.default_rng(s).standard_normal(net.n)
            with monkeypatch.context() as patched:
                patched.setattr(np.linalg, "solve", counted)
                Z, f = _descend_lockstep(net, x, Z0, cfg.inner_iters)
            ref = np.array([sequential_descend(net, x, z0, cfg.inner_iters)[1] for z0 in Z0])
            np.testing.assert_allclose(f, ref, rtol=1e-9, atol=0.0)
            # the same winner, unless two rows tie to within that tolerance
            win, ref_win = int(np.argmin(f)), int(np.argmin(ref))
            assert win == ref_win or ref[win] == pytest.approx(ref[ref_win], rel=1e-9)
            res = project(cfg, net, x)
            np.testing.assert_array_equal(res.latent, Z[win])
        if case == "duplicate":
            assert stacked_solves[1] > 0  # the row-by-row fallback ran
        else:
            assert stacked_solves[1] == 0

    def test_singular_systems_fall_back_row_by_row(self):
        rng = np.random.default_rng(33)
        B = rng.standard_normal((3, 4, 4))
        M = B @ B.transpose(0, 2, 1) + np.eye(4)
        M[1] = np.ones((4, 4))  # singular: only this row may fail
        g = rng.standard_normal((3, 4))
        P, solved = projection._damped_steps(M, g)
        np.testing.assert_array_equal(solved, [True, False, True])
        np.testing.assert_array_equal(P[1], np.zeros(4))
        for i in (0, 2):
            np.testing.assert_array_equal(P[i], np.linalg.solve(M[i], g[i]))

    def test_dependent_latent_directions(self):
        # the range of the duplicate-column net is that of the one-latent
        # net, which the grid certifies
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
    rng = spawn_rng(seed, _stable_hash(x))
    d = rng.standard_normal(net.k)
    d /= np.linalg.norm(d)
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


class TestConfigAndResult:
    def test_bad_method(self):
        with pytest.raises(ConfigError, match="method"):
            ProjectionConfig(method="newton")

    def test_bad_bounds(self):
        with pytest.raises(ConfigError, match="grid_bounds"):
            ProjectionConfig(grid_bounds=(2.0, -2.0))
