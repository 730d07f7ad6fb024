"""Objectives, gradients vs finite differences, regularity estimators vs exact
eigenvalue/SVD oracles."""

import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import genpgd.objective as objective_mod
from genpgd.errors import ContractError, NumericError
from genpgd.generator import forward, forward_batch, make_linear_generator, make_random_generator
from genpgd.objective import (
    Objective,
    RegularityEstimates,
    curvature_ratio,
    estimate_diameter_gamma,
    estimate_incoherence,
    estimate_rsc_rss,
    gradient,
    latent_pair_sampler,
    minkowski_curvature,
    subspace_curvature,
    subspace_incoherence,
    sum_pair_sampler,
    value,
)
from genpgd.projection import OrthoBasis


def fd_gradient(obj, x, h=1e-6):
    """Independent oracle: central differences of the scalar objective."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (value(obj, xp) - value(obj, xm)) / (2.0 * h)
    return g


def scaled_latent_sampler(net, scale):
    """Pairs of range points as :func:`latent_pair_sampler` draws them, from
    latents ``scale`` times standard normal."""

    def sample(rng, count):
        z = scale * rng.standard_normal((count, 2, net.k))
        return forward_batch(net, z.reshape(2 * count, net.k).T).T

    return sample


def random_objective(kind, link, m, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n)) / np.sqrt(m)
    if kind == "least-squares":
        return Objective("linear", A=A, y=rng.standard_normal(m))
    y = rng.uniform(0.2, 0.8, size=m) if link == "sigmoid" else rng.uniform(0.5, 2.0, size=m)
    return Objective(f"glm-{link}", A=A, y=y)


class TestValueGradient:
    def test_least_squares_hand_value(self):
        obj = Objective("linear", A=np.array([[1.0, 0.0], [0.0, 2.0]]), y=np.array([1.0, 2.0]))
        # residual at x = (0, 0) is y itself: value = 0.5 * (1 + 4)
        assert value(obj, np.zeros(2)) == 2.5
        np.testing.assert_array_equal(gradient(obj, np.zeros(2)), np.array([-1.0, -4.0]))

    def test_glm_sigmoid_hand_value(self):
        obj = Objective("glm-sigmoid", A=np.array([[1.0]]), y=np.array([0.5]))
        assert abs(value(obj, np.zeros(1)) - math.log(2.0)) < 1e-15

    def test_glm_sigmoid_stable_at_large_inputs(self):
        obj = Objective("glm-sigmoid", A=np.array([[1.0]]), y=np.array([0.5]))
        v = value(obj, np.array([800.0]))
        # log(1 + e^t) - 0.5 t -> 0.5 t for large t
        assert abs(v - 400.0) < 1e-9
        assert np.isfinite(gradient(obj, np.array([800.0]))[0])

    def test_glm_exp_hand_value(self):
        obj = Objective("glm-exp", A=np.array([[1.0], [2.0]]), y=np.array([1.0, 0.5]))
        # F = (e^t1 - 1*t1) + (e^t2 - 0.5*t2) at x = 0: 1 + 1
        assert value(obj, np.zeros(1)) == 2.0

    def test_glm_exp_overflow_names_row(self):
        obj = Objective("glm-exp", A=np.array([[1.0], [1000.0]]), y=np.array([1.0, 1.0]))
        with pytest.raises(NumericError, match="row 1"):
            value(obj, np.array([2.0]))
        with pytest.raises(NumericError, match="row 1"):
            gradient(obj, np.array([2.0]))

    @pytest.mark.parametrize(
        "kind,link",
        [("least-squares", None), ("glm", "sigmoid"), ("glm", "exp")],
    )
    def test_gradient_matches_finite_differences(self, kind, link):
        obj = random_objective(kind, link, m=12, n=7, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = 0.5 * rng.standard_normal(7)
            got = gradient(obj, x)
            want = fd_gradient(obj, x)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)

    def test_dimension_mismatch(self):
        obj = random_objective("least-squares", None, 5, 4, 0)
        with pytest.raises(ContractError, match="shape"):
            value(obj, np.zeros(6))

    def test_validation(self):
        A, y = np.eye(2), np.zeros(2)
        with pytest.raises(ContractError, match="measurement"):
            Objective("huber", A, y)
        with pytest.raises(ContractError, match="measurement"):
            Objective("glm-probit", A, y)
        with pytest.raises(ContractError, match="shape"):
            Objective("linear", A, np.zeros(3))

    @pytest.mark.parametrize("name", ["least-squares", "glm", "sigmoid", "exp"])
    def test_names_outside_the_config_vocabulary_are_rejected(self, name):
        # the objective takes problem.measurement's names and no others
        with pytest.raises(ContractError) as exc:
            Objective(name, np.eye(2), np.zeros(2))
        assert str(exc.value) == (
            f"measurement must be one of ('linear', 'glm-sigmoid', 'glm-exp'), got {name!r}")


class TestCurvatureEstimator:
    def setup_method(self):
        rng = np.random.default_rng(17)
        self.W = np.linalg.qr(rng.standard_normal((30, 4)))[0]
        self.A = rng.standard_normal((50, 30)) / np.sqrt(50)
        self.obj = Objective("linear", self.A, rng.standard_normal(50))
        self.net = make_linear_generator(self.W)
        # independent spectral oracle, raw numpy
        H = self.W.T @ self.A.T @ self.A @ self.W
        lams = np.linalg.eigvalsh(H)
        self.lam_min, self.lam_max = lams[0], lams[-1]

    def test_every_ratio_inside_exact_spectrum(self):
        # every unmasked pair's ratio lies in [alpha, beta], so the extremes
        # bound them all
        extremes = np.array(
            estimate_rsc_rss(self.obj, latent_pair_sampler(self.net), num_pairs=500, seed=0))
        assert np.all(extremes >= self.lam_min - 1e-9)
        assert np.all(extremes <= self.lam_max + 1e-9)

    def test_extremes_converge_at_2000_pairs(self):
        alpha, beta = estimate_rsc_rss(
            self.obj, latent_pair_sampler(self.net), num_pairs=2000, seed=1)
        assert self.lam_min <= alpha <= 1.05 * self.lam_min
        assert 0.95 * self.lam_max <= beta <= self.lam_max
        assert beta >= alpha > 0

    def test_reported_pairs_reproduce_extremes(self):
        # the scan's winner indices, on the points the estimator draws,
        # reproduce the reported extremes
        sampler = latent_pair_sampler(self.net)
        alpha, beta = estimate_rsc_rss(self.obj, sampler, num_pairs=200, seed=2)
        pts = sampler(objective_mod.spawn_rng(2), 200)
        (i_lo, j_lo), (i_hi, j_hi) = objective_mod._cross_pair_extremes(self.obj, pts)
        r_lo = curvature_ratio(self.obj, pts[i_lo], pts[j_lo])
        r_hi = curvature_ratio(self.obj, pts[i_hi], pts[j_hi])
        assert abs(r_lo - alpha) < 1e-12
        assert abs(r_hi - beta) < 1e-12

    def test_glm_ratios_nonnegative(self):
        for link in ("sigmoid", "exp"):
            obj = random_objective("glm", link, 20, 10, 5)
            net = make_random_generator(3, 10, 2, [6], "relu", seed=1)
            est = estimate_rsc_rss(obj, scaled_latent_sampler(net, 0.5), num_pairs=300, seed=3)
            assert np.all(np.array(est) >= -1e-10)

    def test_degenerate_sampler_errors(self):
        def constant(rng, count):
            return np.zeros((2 * count, 30))

        with pytest.raises(ContractError, match="sampler"):
            estimate_rsc_rss(self.obj, constant, num_pairs=10, seed=0)

    def test_points_closer_than_rounding_error(self):
        # distinct pairs, but every Bregman term sits below the rounding of F,
        # so no ratio is meaningful (read as extremes, they fall far outside
        # the spectrum)
        with pytest.raises(ContractError, match="sampler"):
            estimate_rsc_rss(self.obj, scaled_latent_sampler(self.net, 1e-8), 50, seed=0)

    def test_sampler_shape_checked(self):
        # one pair per call, whatever the count: the shape names the mismatch
        def one_pair(rng, count):
            return rng.standard_normal((2, 30))

        with pytest.raises(ContractError, match="shape"):
            estimate_rsc_rss(self.obj, one_pair, num_pairs=5, seed=0)

    @pytest.mark.parametrize("num_pairs", [0, -3, 1.5, True, "4"])
    def test_bad_pair_counts_rejected(self, num_pairs):
        with pytest.raises(ContractError, match="num_pairs"):
            estimate_rsc_rss(self.obj, latent_pair_sampler(self.net), num_pairs, seed=0)

    def test_sampler_is_called_once_for_all_pairs(self):
        counts = []

        def counted(rng, count):
            counts.append(count)
            return latent_pair_sampler(self.net)(rng, count)

        estimate_rsc_rss(self.obj, counted, num_pairs=25, seed=0)
        assert counts == [25]

    def test_duplicate_points_are_masked_not_redrawn(self):
        # 7 distinct points, each given twice: every as-sampled pair is a
        # duplicate, and the cross pairs among the distinct points still bound
        # the exact spectrum; no duplicate pair wins
        def duplicates(rng, count):
            return np.repeat(rng.standard_normal((count, 4)) @ self.W.T, 2, axis=0)

        alpha, beta = estimate_rsc_rss(self.obj, duplicates, 7, seed=0)
        assert self.lam_min - 1e-9 <= alpha <= beta <= self.lam_max + 1e-9
        pts = duplicates(objective_mod.spawn_rng(0), 7)
        for i, j in objective_mod._cross_pair_extremes(self.obj, pts):
            assert not np.array_equal(pts[i], pts[j])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sampler_points_rejected(self, bad):
        def poisoned(rng, count):
            pts = latent_pair_sampler(self.net)(rng, count)
            pts[3, 5] = bad
            return pts

        with pytest.raises(ContractError, match="sampler gave non-finite"):
            estimate_rsc_rss(self.obj, poisoned, num_pairs=10, seed=0)

    def test_latent_sampler_makes_no_per_point_work(self, monkeypatch):
        # a work count, not a timing: every point goes through forward_batch,
        # and value/gradient run only in the two winners' curvature_ratio
        # recomputations (two values and one gradient each)
        net = make_random_generator(3, 30, 2, [10], "relu", seed=41)
        calls = {"forward": 0, "value": 0, "gradient": 0}
        for name in calls:
            def counted(*args, _name=name, _inner=getattr(objective_mod, name)):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(objective_mod, name, counted)
        estimate_rsc_rss(self.obj, latent_pair_sampler(net), num_pairs=100, seed=0)
        assert calls == {"forward": 0, "value": 4, "gradient": 2}

    def test_exp_overflow_raises(self):
        net = make_random_generator(3, 10, 2, [6], "relu", seed=1)
        A = np.random.default_rng(42).standard_normal((20, 10))
        A[5] *= 1e4
        obj = Objective("glm-exp", A, np.ones(20))
        with pytest.raises(NumericError, match="row 5"):
            estimate_rsc_rss(obj, latent_pair_sampler(net), num_pairs=50, seed=0)


def brute_force_extremes(obj, pts):
    """Independent oracle: every ordered pair through curvature_ratio, under
    the scan's relative distance floor; ties go to the first pair in
    row-major order.  Returns ((alpha, pair), (beta, pair))."""
    lo = hi = None
    for i, j in itertools.permutations(range(len(pts)), 2):
        d = pts[j] - pts[i]
        if d @ d < 1e-12 * (pts[i] @ pts[i] + 1.0 + pts[j] @ pts[j]):
            continue
        r = curvature_ratio(obj, pts[i], pts[j])
        if lo is None or r < lo[0]:
            lo = (r, (i, j))
        if hi is None or r > hi[0]:
            hi = (r, (i, j))
    return lo, hi


def always_masked_extremes(obj, pts, chunk, tally):
    """The pair scan with every block's floor mask built, as it was before
    the scan built the mask only when a block's winner needs it.  Appends
    to ``tally`` each off-diagonal block whose unmasked argmin or argmax is
    a masked pair."""
    fvals, R, T = objective_mod._fit_batch(obj, pts)
    sum_factors = objective_mod._sum_factors
    sq = np.sum(pts * pts, axis=1)
    dist = sum_factors(pts, pts, -2.0, sq, sq)
    floor = sum_factors(pts[:, :0], pts[:, :0], 0.0, 1e-12 * (sq + 1.0), 1e-12 * sq)
    symmetric = obj.measurement == "linear"
    if symmetric:
        tq = np.sum(T * T, axis=1)
        rise = sum_factors(T, T, -2.0, tq, tq)
    else:
        rise = sum_factors(R, T, -2.0, 2.0 * (np.sum(R * T, axis=1) - fvals), 2.0 * fvals)
    lower = np.tri(chunk, dtype=bool)
    best_lo, best_hi = np.inf, -np.inf
    at_lo = at_hi = None
    for start in range(0, len(pts), chunk):
        rows = slice(start, start + chunk)
        for col in range(start if symmetric else 0, len(pts), chunk):
            cols = slice(col, col + chunk)
            dd = dist[0][rows] @ dist[1][cols].T
            masked = dd < floor[0][rows] @ floor[1][cols].T
            r = rise[0][rows] @ rise[1][cols].T
            if symmetric and col == start:
                masked |= lower[:len(r), :len(r)]
            with np.errstate(divide="ignore", invalid="ignore"):
                r /= dd
            if col != start and (masked.flat[np.argmin(r)] or masked.flat[np.argmax(r)]):
                tally.append((start, col))
            r[masked] = np.inf
            i, j = np.unravel_index(np.argmin(r), r.shape)
            if r[i, j] < best_lo:
                best_lo, at_lo = float(r[i, j]), (start + int(i), col + int(j))
            r[masked] = -np.inf
            i, j = np.unravel_index(np.argmax(r), r.shape)
            if r[i, j] > best_hi:
                best_hi, at_hi = float(r[i, j]), (start + int(i), col + int(j))
    if at_lo is None or at_hi is None:
        return None
    return at_lo, at_hi


class TestCrossPairScan:
    @pytest.mark.parametrize("count,chunk", [(5, 8), (16, 8), (21, 8), (30, 128)],
                             ids=["under-one-block", "whole-blocks", "ragged", "default-chunk"])
    @pytest.mark.parametrize("kind,link", [("least-squares", None), ("glm", "sigmoid"),
                                           ("glm", "exp")])
    def test_matches_all_ordered_pairs(self, kind, link, count, chunk):
        obj = random_objective(kind, link, m=9, n=12, seed=count)
        net = make_random_generator(3, 12, 2, [8], "relu", seed=count)
        rng = np.random.default_rng(chunk)
        pts = forward_batch(net, 0.5 * rng.standard_normal((3, count))).T
        # a near-duplicate of point 0: its Gram-expanded distance is rounding
        # noise, so only the mask keeps its ratio from winning
        pts[-1] = pts[0] + 1e-9 * rng.standard_normal(12)
        got = objective_mod._cross_pair_extremes(obj, pts, chunk=chunk)
        for (i, j), (want, pair) in zip(got, brute_force_extremes(obj, pts)):
            if kind == "glm":
                assert (i, j) == pair
            else:
                assert i < j and (i, j) == tuple(sorted(pair))
                assert curvature_ratio(obj, pts[i], pts[j]) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("kind,link", [("least-squares", None), ("glm", "sigmoid"),
                                           ("glm", "exp")])
    def test_on_demand_mask_matches_the_always_masked_scan(self, kind, link):
        # the scan builds a block's floor mask only when the block's raw
        # winner is masked or NaN; near-duplicate and duplicate pairs across
        # blocks make such winners, and the winners must not move
        obj = random_objective(kind, link, m=9, n=12, seed=60)
        net = make_random_generator(3, 12, 2, [8], "relu", seed=60)
        rng = np.random.default_rng(60)
        tally = []
        for draw in range(60):
            pts = forward_batch(net, rng.standard_normal((3, int(rng.integers(9, 40))))).T
            for _ in range(draw % 4):  # a copy of a point in another block
                i = int(rng.integers(0, 8))
                j = int(rng.integers(8, len(pts)))
                pts[j] = pts[i] + (1e-9 if draw % 8 < 4 else 0.0) * rng.standard_normal(12)
            want = always_masked_extremes(obj, pts, 8, tally)
            assert objective_mod._cross_pair_extremes(obj, pts, chunk=8) == want
        assert len(tally) >= 5  # off-diagonal blocks whose raw winner is masked
        same = np.repeat(pts[:1], 20, axis=0)  # every pair under the floor
        assert always_masked_extremes(obj, same, 8, []) is None
        assert objective_mod._cross_pair_extremes(obj, same, chunk=8) is None

    def test_least_squares_winners_are_upper_triangle_pairs(self):
        # the symmetric scan skips j <= i on diagonal blocks; the skipped twin
        # of a pair can round below or above it, so over 200 draws a scan that
        # kept it would report some winners as (j, i): about one draw in five
        obj = random_objective("least-squares", None, m=9, n=12, seed=50)
        net = make_random_generator(3, 12, 2, [8], "relu", seed=50)
        rng = np.random.default_rng(50)
        for _ in range(200):
            pts = forward_batch(net, 0.5 * rng.standard_normal((3, 40))).T
            for i, j in objective_mod._cross_pair_extremes(obj, pts):
                assert i < j


def written_out_fit(obj, x):
    """F(x) and grad F(x) by the formulas written out term by term, each
    from its own product with A: the reference :func:`objective_mod._fit`
    must reproduce bit for bit."""
    t = obj.A @ x
    if obj.measurement == "linear":
        r = t - obj.y
        return 0.5 * float(r @ r), obj.A.T @ (t - obj.y)
    if obj.measurement == "glm-sigmoid":
        phi = np.log1p(np.exp(-np.abs(t))) + np.maximum(t, 0.0)
        mean = 0.5 * (1.0 + np.tanh(0.5 * t))
    else:
        phi = mean = np.exp(t)
    return float(np.sum(phi - obj.y * t)), obj.A.T @ (mean - obj.y)


class TestFusedFit:
    @pytest.mark.parametrize(
        "kind,link",
        [("least-squares", None), ("glm", "sigmoid"), ("glm", "exp")],
    )
    def test_matches_written_out_formulas_bitwise(self, kind, link):
        obj = random_objective(kind, link, m=12, n=7, seed=45)
        rng = np.random.default_rng(46)
        for scale in (0.0, 0.5, 3.0):
            x = scale * rng.standard_normal(7)
            f_ref, g_ref = written_out_fit(obj, x)
            f, R = objective_mod._fit(obj, x)
            assert f == f_ref and value(obj, x) == f_ref
            np.testing.assert_array_equal(obj.A.T @ R, g_ref)
            np.testing.assert_array_equal(gradient(obj, x), g_ref)

    def test_exp_overflow_names_the_same_row_everywhere(self):
        A = np.array([[1.0], [-2.0], [1000.0], [2000.0]])
        obj = Objective("glm-exp", A=A, y=np.ones(4))
        for call in (objective_mod._fit, value, gradient):
            with pytest.raises(NumericError, match="row 2$"):
                call(obj, np.array([1.0]))
        # a negative latent overflows the other row first
        with pytest.raises(NumericError, match="row 1$"):
            objective_mod._fit(obj, np.array([-400.0]))


class TestBatchedFit:
    @pytest.mark.parametrize(
        "kind,link",
        [("least-squares", None), ("glm", "sigmoid"), ("glm", "exp")],
    )
    def test_matches_per_point_value_and_gradient(self, kind, link):
        obj = random_objective(kind, link, m=12, n=7, seed=43)
        pts = 0.5 * np.random.default_rng(44).standard_normal((25, 7))
        fvals, R, T = objective_mod._fit_batch(obj, pts)
        np.testing.assert_array_equal(T, pts @ obj.A.T)
        np.testing.assert_allclose(fvals, [value(obj, p) for p in pts], rtol=1e-13)
        np.testing.assert_allclose(R @ obj.A, np.stack([gradient(obj, p) for p in pts]),
                                   rtol=1e-13)


class TestExactOracles:
    def test_subspace_curvature_identity_measurement(self):
        rng = np.random.default_rng(20)
        W = rng.standard_normal((12, 3))  # deliberately not orthonormal
        a, b = subspace_curvature(np.eye(12), W)
        assert abs(a - 1.0) < 1e-10 and abs(b - 1.0) < 1e-10

    def test_subspace_curvature_matches_raw_eigh(self):
        rng = np.random.default_rng(21)
        W = np.linalg.qr(rng.standard_normal((25, 5)))[0]
        A = rng.standard_normal((40, 25)) / np.sqrt(40)
        a, b = subspace_curvature(A, W)
        lams = np.linalg.eigvalsh(W.T @ A.T @ A @ W)
        assert abs(a - lams[0]) < 1e-10
        assert abs(b - lams[-1]) < 1e-10

    def test_subspace_curvature_depends_only_on_the_span(self):
        # a repeated direction and a badly scaled column leave the span, and
        # so the constants, unchanged; the rank cutoff drops the repeat
        rng = np.random.default_rng(24)
        W = rng.standard_normal((20, 3))
        A = rng.standard_normal((30, 20)) / np.sqrt(30)
        Q = np.linalg.qr(W)[0]
        lams = np.linalg.eigvalsh(Q.T @ A.T @ A @ Q)
        for M in (np.hstack([W, W[:, :1] + W[:, 1:2]]), W * [1.0, 1e-6, 1e6]):
            a, b = subspace_curvature(A, M)
            assert abs(a - lams[0]) <= 1e-12 * lams[-1] and abs(b - lams[-1]) <= 1e-12 * lams[-1]

    @pytest.mark.parametrize("seed", range(6))
    def test_span_wider_than_rows_has_zero_alpha(self, seed):
        # 3 rows against a 4-dimensional span: A Q has a null vector, whose
        # eigenvalue eigvalsh returns as rounding of either sign
        rng = np.random.default_rng(seed)
        W = np.linalg.qr(rng.standard_normal((30, 4)))[0]
        A = rng.standard_normal((3, 30)) / np.sqrt(3)
        a, b = subspace_curvature(A, W)
        assert a == 0.0
        assert abs(b - np.linalg.eigvalsh(W.T @ A.T @ A @ W)[-1]) <= 1e-12 * b

    @pytest.mark.parametrize("seed", range(6))
    def test_sum_set_wider_than_rows_has_zero_alpha(self, seed):
        # rank(W) + 2l = 13 > 12 rows on every support; 5 + 2 = 7 rows would do
        rng = np.random.default_rng(seed)
        W = np.linalg.qr(rng.standard_normal((100, 5)))[0]
        basis = OrthoBasis.random(100, seed=seed)
        A = rng.standard_normal((12, 100)) / np.sqrt(12)
        a, b = minkowski_curvature(A, W, basis, l=4, seed=seed)
        assert a == 0.0 and b > 0
        assert minkowski_curvature(A, W, basis, l=1, seed=seed)[0] > 0

    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency
        src = os.path.dirname(os.path.dirname(objective_mod.__file__))
        code = "import sys, genpgd; print(sorted(m for m in sys.modules if m[:5] == 'scipy'))"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_import_loads_no_process_pool(self):
        # the sweep imports its process pool when it forks; at import time
        # it would cost every command ~8 ms
        src = os.path.dirname(os.path.dirname(objective_mod.__file__))
        code = ("import sys, genpgd, genpgd.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'multiprocessing' or m[:19] == 'concurrent.futures'))")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_minkowski_curvature_brackets_subspace(self):
        rng = np.random.default_rng(22)
        W = np.linalg.qr(rng.standard_normal((8, 2)))[0]
        A = rng.standard_normal((16, 8)) / np.sqrt(16)
        basis = OrthoBasis.identity(8)
        supports = list(itertools.combinations(range(8), 2))
        a_mink, b_mink = minkowski_curvature(A, W, basis, l=1, supports=supports)
        a_sub, b_sub = subspace_curvature(A, W)
        assert a_mink <= a_sub + 1e-12
        assert b_mink >= b_sub - 1e-12
        # independent check of one support: plain numpy on the stacked basis
        S = supports[3]
        M = np.hstack([W, np.eye(8)[:, list(S)]])
        Q, _ = np.linalg.qr(M)
        lams = np.linalg.eigvalsh(Q.T @ A.T @ A @ Q)
        assert a_mink <= lams[0] + 1e-12
        assert b_mink >= lams[-1] - 1e-12

    def test_minkowski_sampled_supports_deterministic(self):
        rng = np.random.default_rng(23)
        W = np.linalg.qr(rng.standard_normal((20, 3)))[0]
        A = rng.standard_normal((30, 20)) / np.sqrt(30)
        basis = OrthoBasis.identity(20)
        r1 = minkowski_curvature(A, W, basis, l=2, seed=5)
        r2 = minkowski_curvature(A, W, basis, l=2, seed=5)
        assert r1 == r2

    def test_subspace_incoherence_disjoint_identity(self):
        W = np.eye(10)[:, :3]
        basis = OrthoBasis.identity(10)
        assert subspace_incoherence(W, basis, [5, 6]) == 0.0
        assert abs(subspace_incoherence(W, basis, [0]) - 1.0) < 1e-12

    def test_subspace_incoherence_matches_raw_svd(self):
        rng = np.random.default_rng(24)
        W = np.linalg.qr(rng.standard_normal((40, 3)))[0]
        basis = OrthoBasis.random(40, seed=8)
        S = [1, 7, 19, 30]
        got = subspace_incoherence(W, basis, S)
        want = np.linalg.svd(W.T @ basis.matrix[:, S], compute_uv=False)[0]
        assert abs(got - want) < 1e-12


def _graded_W(rng, n, k, cond):
    # orthogonal columns scaled from 1 down to 1/cond: the span is that of
    # the unscaled columns to rounding, whatever cond is (a W mixed by a
    # rotation would fix its own span only to about eps * cond)
    Q = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return Q * np.logspace(0, -np.log10(cond), k)


def _basis(kind, n, seed):
    return OrthoBasis.random(n, seed) if kind == "random" else OrthoBasis.identity(n)


class TestSumSetKernel:
    """The batched exact oracles against the per-support SVD route."""

    @staticmethod
    def _per_support(A, W, basis, S):
        return subspace_curvature(A, np.hstack([W, basis.matrix[:, list(S)]]))

    @staticmethod
    def _count_fallbacks(monkeypatch):
        calls = []
        real = objective_mod.subspace_curvature

        def counted(A, M):
            calls.append(M.shape)
            return real(A, M)

        monkeypatch.setattr(objective_mod, "subspace_curvature", counted)
        return calls

    def _check(self, A, W, basis, supports, tol=1e-13):
        kernel = objective_mod._SumSetKernel(W, basis)
        per = [self._per_support(A, W, basis, S) for S in supports]
        for S, (lo, hi) in zip(supports, per):
            got = kernel.curvature(A, [S])
            assert abs(got[0] - lo) <= tol * hi and abs(got[1] - hi) <= tol * hi
        alpha, beta = kernel.curvature(A, supports)
        assert abs(alpha - min(lo for lo, _ in per)) <= tol * beta
        assert abs(beta - max(hi for _, hi in per)) <= tol * beta

    @pytest.mark.parametrize("basis_kind", ["random", "identity"])
    @pytest.mark.parametrize("cond", [1.0, 1e6, 1e9])
    def test_matches_per_support_route(self, monkeypatch, basis_kind, cond):
        rng = np.random.default_rng(30)
        n, k, l = 40, 5, 3
        W = _graded_W(rng, n, k, cond)
        A = rng.standard_normal((50, n)) / np.sqrt(50)
        basis = _basis(basis_kind, n, 31)
        supports = [np.sort(rng.choice(n, 2 * l, replace=False)) for _ in range(30)]
        kernel = objective_mod._SumSetKernel(W, basis)
        calls = self._count_fallbacks(monkeypatch)
        kernel.curvature(A, supports)
        assert calls == []  # every generic support takes the batched route
        self._check(A, W, basis, supports)

    @pytest.mark.parametrize("basis_kind", ["random", "identity"])
    def test_rank_deficient_W(self, basis_kind):
        rng = np.random.default_rng(32)
        W = np.linalg.qr(rng.standard_normal((30, 4)))[0]
        W = np.hstack([W, W[:, :1]])  # a repeated column
        A = rng.standard_normal((45, 30)) / np.sqrt(45)
        basis = _basis(basis_kind, 30, 33)
        assert objective_mod._SumSetKernel(W, basis).Q.shape == (30, 4)
        supports = [np.sort(rng.choice(30, 4, replace=False)) for _ in range(20)]
        self._check(A, W, basis, supports)

    @pytest.mark.parametrize("basis_kind", ["random", "identity"])
    def test_support_meeting_the_span_falls_back(self, monkeypatch, basis_kind):
        # W holds basis column 3, so every support containing 3 spans a
        # space of dimension k + |S| - 1 and C_S is singular
        rng = np.random.default_rng(34)
        n = 24
        basis = _basis(basis_kind, n, 35)
        W = np.hstack([basis.matrix[:, 3:4], rng.standard_normal((n, 2))])
        A = rng.standard_normal((36, n)) / np.sqrt(36)
        supports = [np.array([1, 3, 7, 20]), np.array([0, 5, 9, 11]),
                    np.array([2, 3, 4, 5]), np.array([6, 10, 14, 18])]
        calls = self._count_fallbacks(monkeypatch)
        objective_mod._SumSetKernel(W, basis).curvature(A, supports)
        assert len(calls) == 2
        self._check(A, W, basis, supports)

    def test_more_directions_than_dimensions(self, monkeypatch):
        # k + 2l > n: span([W, B_S]) is all of R^n, so the constants are
        # the extreme eigenvalues of A^T A
        rng = np.random.default_rng(36)
        n = 8
        W = rng.standard_normal((n, 5))
        A = rng.standard_normal((12, n)) / np.sqrt(12)
        basis = OrthoBasis.random(n, 37)
        supports = [np.sort(rng.choice(n, 4, replace=False)) for _ in range(6)]
        calls = self._count_fallbacks(monkeypatch)
        alpha, beta = objective_mod._SumSetKernel(W, basis).curvature(A, supports)
        assert len(calls) == len(supports)
        lams = np.linalg.eigvalsh(A.T @ A)
        assert abs(alpha - lams[0]) <= 1e-13 * lams[-1]
        assert abs(beta - lams[-1]) <= 1e-13 * lams[-1]
        self._check(A, W, basis, supports)

    def test_nearly_orthonormal_basis(self):
        # OrthoBasis admits columns orthonormal to 1e-8; C_S is the Gram of
        # the basis columns' part off span(W), not I - K_S^T K_S
        rng = np.random.default_rng(42)
        n = 30
        M = OrthoBasis.random(n, 43).matrix * (1.0 + 2e-9 * rng.standard_normal(n))
        basis = OrthoBasis(M)
        W = _graded_W(rng, n, 4, 10.0)
        A = rng.standard_normal((40, n)) / np.sqrt(40)
        supports = [np.sort(rng.choice(n, 6, replace=False)) for _ in range(20)]
        self._check(A, W, basis, supports)

    def test_ragged_supports(self):
        rng = np.random.default_rng(38)
        W = _graded_W(rng, 30, 3, 1e3)
        A = rng.standard_normal((40, 30)) / np.sqrt(40)
        basis = OrthoBasis.random(30, 39)
        supports = [np.array([4]), np.array([1, 2, 9, 28]), np.array([], dtype=int),
                    np.array([0, 17, 29]), np.array([5, 6, 7, 8])]
        self._check(A, W, basis, supports)

    @pytest.mark.parametrize("basis_kind", ["random", "identity"])
    @pytest.mark.parametrize("cond", [1.0, 1e9])
    def test_incoherence_matches_per_support_svd(self, basis_kind, cond):
        rng = np.random.default_rng(40)
        n, k, l = 50, 4, 3
        W = _graded_W(rng, n, k, cond)
        Q = W / np.linalg.norm(W, axis=0)  # an orthonormal basis of span(W)
        basis = _basis(basis_kind, n, 41)
        supports = [np.sort(rng.choice(n, l, replace=False)) for _ in range(40)]
        supports.append(np.array([2, 30]))  # a ragged nu* support
        kernel = objective_mod._SumSetKernel(W, basis)
        per = [np.linalg.svd(Q.T @ basis.matrix[:, S], compute_uv=False)[0] for S in supports]
        for S, want in zip(supports, per):
            assert abs(kernel.incoherence([S]) - want) <= 1e-13
            assert abs(subspace_incoherence(W, basis, S) - want) <= 1e-13
        assert abs(kernel.incoherence(supports) - max(per)) <= 1e-13
        assert kernel.incoherence([np.array([], dtype=int)]) == 0.0


class TestIncoherenceEstimator:
    def test_converges_to_svd_oracle(self):
        rng = np.random.default_rng(25)
        W = np.linalg.qr(rng.standard_normal((100, 5)))[0]
        net = make_linear_generator(W)
        basis = OrthoBasis.identity(100)
        S = [3, 17, 41, 66, 90]
        oracle = subspace_incoherence(W, basis, S)
        mu = estimate_incoherence(net, basis, l=5, num_samples=5000, seed=0, support=S)
        assert mu <= oracle + 1e-12
        assert mu >= 0.98 * oracle

    def test_monotone_in_samples_nested(self):
        net = make_random_generator(3, 20, 2, [10], "relu", seed=2)
        basis = OrthoBasis.random(20, seed=3)
        mus = [
            estimate_incoherence(net, basis, l=2, num_samples=N, seed=4)
            for N in (50, 200, 1000)
        ]
        assert mus[0] <= mus[1] <= mus[2]
        assert all(0.0 <= m < 1.0 for m in mus)

    @pytest.mark.parametrize("num_samples", [0, -5, 2.5, True])
    def test_bad_sample_count_rejected(self, num_samples):
        net = make_random_generator(3, 10, 2, [6], "relu", seed=1)
        with pytest.raises(ContractError, match="num_samples"):
            estimate_incoherence(net, OrthoBasis.identity(10), l=2, num_samples=num_samples)

    def test_orthogonal_directions_give_zero(self):
        W = np.eye(12)[:, :2]
        net = make_linear_generator(W)
        basis = OrthoBasis.identity(12)
        mu = estimate_incoherence(net, basis, l=3, num_samples=100, seed=0, support=[6, 7, 8])
        assert mu == 0.0


class TestDiameterGamma:
    def test_tanh_final_activation_diameter_bound(self):
        from genpgd.generator import Activation, GeneratorNetwork, Layer

        rng = np.random.default_rng(28)
        net = GeneratorNetwork(
            [
                Layer(rng.standard_normal((8, 4)), np.zeros(8), Activation("tanh")),
                Layer(rng.standard_normal((9, 8)), np.zeros(9), Activation("tanh")),
            ]
        )
        # a tanh output layer caps every coordinate at 1 in magnitude
        obj = Objective("linear", np.eye(9), np.ones(9))
        delta, gamma = estimate_diameter_gamma(net, obj, np.zeros(9), seed=2)
        assert 0 < delta <= 2 * np.sqrt(9)
        assert gamma == 3.0  # |A^T (A 0 - y)| = |y|

    def test_gamma_zero_at_consistent_truth(self):
        rng = np.random.default_rng(27)
        W = np.linalg.qr(rng.standard_normal((20, 3)))[0]
        net = make_linear_generator(W)
        A = rng.standard_normal((30, 20)) / np.sqrt(30)
        x_star = W @ rng.standard_normal(3)
        obj = Objective("linear", A, A @ x_star)
        _, gamma = estimate_diameter_gamma(net, obj, x_star=x_star, seed=3)
        assert gamma < 1e-12
        noisy = Objective("linear", A, A @ x_star + 0.1 * rng.standard_normal(30))
        _, gamma2 = estimate_diameter_gamma(net, noisy, x_star=x_star, seed=3)
        assert abs(gamma2 - np.linalg.norm(gradient(noisy, x_star))) < 1e-14

    def test_latents_are_the_per_latent_stream(self):
        # one (_NUM_SAMPLES, k) draw holds the latents of _NUM_SAMPLES
        # successive k-draws, so delta is the loop's up to rounding
        net = make_random_generator(4, 30, 2, [12], "relu", seed=5)
        rng = objective_mod.spawn_rng(6)
        pts = np.stack([forward(net, rng.standard_normal(4))
                        for _ in range(objective_mod._NUM_SAMPLES)])
        want = max(np.linalg.norm(p - q) for p in pts for q in pts)
        obj = Objective("linear", np.eye(30), np.zeros(30))
        delta, _ = estimate_diameter_gamma(net, obj, np.zeros(30), seed=6)
        assert abs(delta - want) <= 1e-13 * want


class TestRegularityEstimates:
    def test_round_trip_and_validation(self):
        est = RegularityEstimates(
            alpha=0.5, beta=1.5, mu=0.2, gamma=0.01, delta=4.0, num_samples=100, seed=7
        )
        back = RegularityEstimates(**json.loads(json.dumps(est.to_json())))
        assert back == est
        with pytest.raises(ContractError, match="beta"):
            RegularityEstimates(alpha=2.0, beta=1.0, mu=0.1, gamma=0.0, delta=1.0,
                                num_samples=10, seed=0)
        with pytest.raises(ContractError, match="mu"):
            RegularityEstimates(alpha=0.5, beta=1.0, mu=1.0, gamma=0.0, delta=1.0,
                                num_samples=10, seed=0)

    @pytest.mark.parametrize("alpha,beta,match", [
        (0.5, np.inf, "finite beta"), (0.5, np.nan, "finite beta"), (0.0, 0.0, "beta > 0"),
        (-1e-16, 1.0, "0 <= alpha"), (np.nan, 1.0, "0 <= alpha")])
    def test_rejected_curvatures(self, alpha, beta, match):
        with pytest.raises(ContractError, match=match):
            RegularityEstimates(alpha=alpha, beta=beta, mu=0.0, gamma=0.0, delta=1.0,
                                num_samples=0, seed=0)

    def test_zero_alpha_is_accepted(self):
        # a span wider than A has rows: no theory rate, but a step size 1/beta
        est = RegularityEstimates(alpha=0.0, beta=2.0, mu=0.0, gamma=0.0, delta=1.0,
                                  num_samples=0, seed=0)
        assert est.alpha == 0.0

    def test_rejected_gamma_and_delta(self):
        # a NaN in the violation floor 2*gamma*delta + ... passes every step
        for gamma, delta in [(np.nan, 1.0), (0.0, np.nan), (np.inf, 1.0), (0.0, np.inf),
                             (-1e-16, 1.0), (0.0, -1e-16)]:
            with pytest.raises(ContractError, match="finite gamma, delta >= 0"):
                RegularityEstimates(alpha=0.5, beta=1.5, mu=0.0, gamma=gamma, delta=delta,
                                    num_samples=50, seed=1)
        est = RegularityEstimates(alpha=0.5, beta=1.5, mu=0.0, gamma=0.0, delta=0.0,
                                  num_samples=50, seed=1)
        assert est.gamma == est.delta == 0.0


class TestLatentPairSampler:
    def test_one_draw_same_stream_as_per_pair_draws(self, monkeypatch):
        net = make_random_generator(3, 15, 2, [8], "relu", seed=31)
        latents = []
        inner = objective_mod.forward_batch
        monkeypatch.setattr(objective_mod, "forward_batch",
                            lambda net, Z: latents.append(Z.copy()) or inner(net, Z))
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        pts = latent_pair_sampler(net)(rng, 9)
        ref_z = np.concatenate([ref_rng.standard_normal((2, 3)) for _ in range(9)])
        assert len(latents) == 1
        np.testing.assert_array_equal(latents[0].T, ref_z)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        ref = np.array([forward(net, z) for z in ref_z])
        assert pts.shape == ref.shape
        # gemm against per-point gemv: rounding only, relative to each point
        assert np.all(np.linalg.norm(pts - ref, axis=1) <= 1e-14 * np.linalg.norm(ref, axis=1))


class TestSumPairSampler:
    def test_batch_matches_per_point_reference(self):
        net = make_random_generator(3, 20, 2, [10], "tanh", seed=32)
        basis = OrthoBasis.random(20, seed=33)
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        pts = sum_pair_sampler(net, basis, l=3)(rng, 7)
        ref = []
        for _ in range(14):  # each point: latent, support, coefficients
            z = ref_rng.standard_normal(3)
            idx = ref_rng.choice(20, size=3, replace=False)
            coeffs = np.zeros(20)
            coeffs[idx] = ref_rng.standard_normal(3)
            ref.append(forward(net, z) + basis.matrix @ coeffs)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        ref = np.array(ref)
        assert np.all(np.linalg.norm(pts - ref, axis=1) <= 1e-14 * np.linalg.norm(ref, axis=1))

    def test_points_decompose(self):
        rng = np.random.default_rng(30)
        W = np.linalg.qr(rng.standard_normal((12, 2)))[0]
        net = make_linear_generator(W)
        basis = OrthoBasis.identity(12)
        sampler = sum_pair_sampler(net, basis, l=2)
        x, y = sampler(np.random.default_rng(0), 1)
        assert x.shape == (12,) and y.shape == (12,)
        obj = Objective("linear", np.eye(12), np.zeros(12))
        # identity measurement: curvature of the sum set is exactly 1
        est = estimate_rsc_rss(obj, sampler, num_pairs=50, seed=0)
        np.testing.assert_allclose(est, np.ones(2), rtol=1e-9)


class TestRejectedInputs:
    @pytest.mark.parametrize("A,y,match", [
        (np.ones(3), np.ones(3), "2-d"),
        (np.full((2, 3), np.nan), np.ones(2), "finite"),
        (np.ones((2, 3)), np.array([1.0, np.inf]), "finite"),
    ])
    def test_objective_data(self, A, y, match):
        with pytest.raises(ContractError, match=match):
            Objective("linear", A, y)

    def test_curvature_ratio_needs_distinct_points(self):
        obj = Objective("linear", np.eye(3), np.ones(3))
        with pytest.raises(ContractError, match="distinct"):
            curvature_ratio(obj, np.ones(3), np.ones(3) + 1e-13)
