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


def random_objective(kind, link, m, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n)) / np.sqrt(m)
    if kind == "least-squares":
        return Objective(kind="least-squares", A=A, y=rng.standard_normal(m))
    y = rng.uniform(0.2, 0.8, size=m) if link == "sigmoid" else rng.uniform(0.5, 2.0, size=m)
    return Objective(kind="glm", A=A, y=y, link=link)


class TestValueGradient:
    def test_least_squares_hand_value(self):
        obj = Objective("least-squares", A=np.array([[1.0, 0.0], [0.0, 2.0]]), y=np.array([1.0, 2.0]))
        # residual at x = (0, 0) is y itself: value = 0.5 * (1 + 4)
        assert value(obj, np.zeros(2)) == 2.5
        np.testing.assert_array_equal(gradient(obj, np.zeros(2)), np.array([-1.0, -4.0]))

    def test_glm_sigmoid_hand_value(self):
        obj = Objective("glm", A=np.array([[1.0]]), y=np.array([0.5]), link="sigmoid")
        assert abs(value(obj, np.zeros(1)) - math.log(2.0)) < 1e-15

    def test_glm_sigmoid_stable_at_large_inputs(self):
        obj = Objective("glm", A=np.array([[1.0]]), y=np.array([0.5]), link="sigmoid")
        v = value(obj, np.array([800.0]))
        # log(1 + e^t) - 0.5 t -> 0.5 t for large t
        assert abs(v - 400.0) < 1e-9
        assert np.isfinite(gradient(obj, np.array([800.0]))[0])

    def test_glm_exp_hand_value(self):
        obj = Objective("glm", A=np.array([[1.0], [2.0]]), y=np.array([1.0, 0.5]), link="exp")
        # F = (e^t1 - 1*t1) + (e^t2 - 0.5*t2) at x = 0: 1 + 1
        assert value(obj, np.zeros(1)) == 2.0

    def test_glm_exp_overflow_names_row(self):
        obj = Objective("glm", A=np.array([[1.0], [1000.0]]), y=np.array([1.0, 1.0]), link="exp")
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
        with pytest.raises(ContractError, match="kind"):
            Objective("huber", A, y)
        with pytest.raises(ContractError, match="link"):
            Objective("glm", A, y, link="probit")
        with pytest.raises(ContractError, match="link"):
            Objective("least-squares", A, y, link="sigmoid")
        with pytest.raises(ContractError, match="shape"):
            Objective("least-squares", A, np.zeros(3))


class TestCurvatureEstimator:
    def setup_method(self):
        rng = np.random.default_rng(17)
        self.W = np.linalg.qr(rng.standard_normal((30, 4)))[0]
        self.A = rng.standard_normal((50, 30)) / np.sqrt(50)
        self.obj = Objective("least-squares", self.A, rng.standard_normal(50))
        self.net = make_linear_generator(self.W)
        # independent spectral oracle, raw numpy
        H = self.W.T @ self.A.T @ self.A @ self.W
        lams = np.linalg.eigvalsh(H)
        self.lam_min, self.lam_max = lams[0], lams[-1]

    def test_every_ratio_inside_exact_spectrum(self):
        # every unmasked pair's ratio lies in [alpha, beta], so the extremes
        # bound them all
        est = estimate_rsc_rss(self.obj, latent_pair_sampler(self.net), num_pairs=500, seed=0)
        extremes = np.array([est.alpha, est.beta])
        assert np.all(extremes >= self.lam_min - 1e-9)
        assert np.all(extremes <= self.lam_max + 1e-9)

    def test_extremes_converge_at_2000_pairs(self):
        est = estimate_rsc_rss(self.obj, latent_pair_sampler(self.net), num_pairs=2000, seed=1)
        assert self.lam_min <= est.alpha <= 1.05 * self.lam_min
        assert 0.95 * self.lam_max <= est.beta <= self.lam_max
        assert est.beta >= est.alpha > 0

    def test_reported_pairs_reproduce_extremes(self):
        est = estimate_rsc_rss(self.obj, latent_pair_sampler(self.net), num_pairs=200, seed=2)
        r_lo = curvature_ratio(self.obj, *est.alpha_pair)
        r_hi = curvature_ratio(self.obj, *est.beta_pair)
        assert abs(r_lo - est.alpha) < 1e-12
        assert abs(r_hi - est.beta) < 1e-12

    def test_glm_ratios_nonnegative(self):
        for link in ("sigmoid", "exp"):
            obj = random_objective("glm", link, 20, 10, 5)
            net = make_random_generator(3, 10, 2, [6], "relu", seed=1)
            est = estimate_rsc_rss(obj, latent_pair_sampler(net, scale=0.5), num_pairs=300, seed=3)
            assert np.all(np.array([est.alpha, est.beta]) >= -1e-10)

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
            estimate_rsc_rss(self.obj, latent_pair_sampler(self.net, scale=1e-8), 50, seed=0)

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

    def test_redraw_keeps_the_sequential_pairs(self, monkeypatch):
        # a tape of pairs with duplicates at known positions: the batched
        # redraw keeps exactly the first num_pairs distinct pairs and reads
        # the tape no further than a pair-by-pair loop would
        tape = np.random.default_rng(40).standard_normal((40, 2, 30))
        dup = [0, 3, 4, 9, 10, 11, 17]
        tape[dup, 1] = tape[dup, 0]
        num_pairs = 12
        distinct = [t for t in range(40) if t not in dup]
        counts = []

        def stub(rng, count):
            start = sum(counts)
            counts.append(count)
            return tape[start:start + count].reshape(2 * count, 30)

        seen = []
        inner = objective_mod._cross_pair_extremes
        monkeypatch.setattr(objective_mod, "_cross_pair_extremes",
                            lambda obj, pts: seen.append(pts.copy()) or inner(obj, pts))
        estimate_rsc_rss(self.obj, stub, num_pairs, seed=0)
        np.testing.assert_array_equal(
            seen[0], tape[distinct[:num_pairs]].reshape(2 * num_pairs, 30))
        assert counts[0] == num_pairs
        assert sum(counts) == distinct[num_pairs - 1] + 1

    def test_redraw_cap_is_fifty_times_the_count(self):
        drawn = []

        def duplicates(rng, count):
            drawn.append(count)
            return np.repeat(rng.standard_normal((count, 30)), 2, axis=0)

        with pytest.raises(ContractError, match="cannot produce distinct pairs"):
            estimate_rsc_rss(self.obj, duplicates, 7, seed=0)
        assert sum(drawn) == 50 * 7

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
        obj = Objective("glm", A, np.ones(20), link="exp")
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

    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency
        src = os.path.dirname(os.path.dirname(objective_mod.__file__))
        code = "import sys, genpgd; print(sorted(m for m in sys.modules if m[:5] == 'scipy'))"
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
        r1 = minkowski_curvature(A, W, basis, l=2, num_supports=25, seed=5)
        r2 = minkowski_curvature(A, W, basis, l=2, num_supports=25, seed=5)
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
        return objective_mod._span_curvature(A, np.hstack([W, basis.matrix[:, list(S)]]))

    @staticmethod
    def _count_fallbacks(monkeypatch):
        calls = []
        real = objective_mod._span_curvature

        def counted(A, M):
            calls.append(M.shape)
            return real(A, M)

        monkeypatch.setattr(objective_mod, "_span_curvature", counted)
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
        est = estimate_diameter_gamma(net, num_samples=60, seed=2)
        assert 0 < est.delta <= 2 * np.sqrt(9)

    def test_gamma_zero_at_consistent_truth(self):
        rng = np.random.default_rng(27)
        W = np.linalg.qr(rng.standard_normal((20, 3)))[0]
        net = make_linear_generator(W)
        A = rng.standard_normal((30, 20)) / np.sqrt(30)
        x_star = W @ rng.standard_normal(3)
        obj = Objective("least-squares", A, A @ x_star)
        est = estimate_diameter_gamma(net, obj, x_star=x_star, num_samples=40, seed=3)
        assert est.gamma < 1e-12
        noisy = Objective("least-squares", A, A @ x_star + 0.1 * rng.standard_normal(30))
        est2 = estimate_diameter_gamma(net, noisy, x_star=x_star, num_samples=40, seed=3)
        assert abs(est2.gamma - np.linalg.norm(gradient(noisy, x_star))) < 1e-14

    @pytest.mark.parametrize("num_samples", [0, 1, -2, 2.5, True])
    def test_bad_sample_counts_rejected(self, num_samples):
        net = make_random_generator(3, 10, 2, [6], "relu", seed=1)
        with pytest.raises(ContractError, match="num_samples"):
            estimate_diameter_gamma(net, num_samples=num_samples)

    def test_latents_are_the_per_latent_stream(self):
        # one (num_samples, k) draw holds the latents of num_samples
        # successive k-draws, so delta is the loop's up to rounding
        net = make_random_generator(4, 30, 2, [12], "relu", seed=5)
        rng = objective_mod.spawn_rng(6)
        pts = np.stack([forward(net, rng.standard_normal(4)) for _ in range(50)])
        want = max(np.linalg.norm(p - q) for p in pts for q in pts)
        est = estimate_diameter_gamma(net, num_samples=50, seed=6)
        assert abs(est.delta - want) <= 1e-13 * want


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

    def test_optional_fields(self):
        est = RegularityEstimates(alpha=0.5, beta=1.5, mu=0.0, gamma=None, delta=None,
                                  num_samples=50, seed=1)
        doc = json.loads(json.dumps(est.to_json()))
        assert doc["gamma"] is None and doc["delta"] is None


class TestLatentPairSampler:
    def test_one_draw_same_stream_as_per_pair_draws(self, monkeypatch):
        net = make_random_generator(3, 15, 2, [8], "relu", seed=31)
        latents = []
        inner = objective_mod.forward_batch
        monkeypatch.setattr(objective_mod, "forward_batch",
                            lambda net, Z: latents.append(Z.copy()) or inner(net, Z))
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        pts = latent_pair_sampler(net, scale=0.5)(rng, 9)
        ref_z = np.concatenate([0.5 * ref_rng.standard_normal((2, 3)) for _ in range(9)])
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
        obj = Objective("least-squares", np.eye(12), np.zeros(12))
        # identity measurement: curvature of the sum set is exactly 1
        est = estimate_rsc_rss(obj, sampler, num_pairs=50, seed=0)
        np.testing.assert_allclose([est.alpha, est.beta], np.ones(2), rtol=1e-9)
