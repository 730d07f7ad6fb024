"""Objectives, gradients vs finite differences, regularity estimators vs exact
eigenvalue/SVD oracles."""

import itertools
import json
import math

import numpy as np
import pytest

from genpgd.errors import ContractError, NumericError
from genpgd.generator import make_linear_generator, make_random_generator
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
        def constant(rng):
            return np.zeros(30), np.zeros(30)

        with pytest.raises(ContractError, match="sampler"):
            estimate_rsc_rss(self.obj, constant, num_pairs=10, seed=0)

    def test_points_closer_than_rounding_error(self):
        # distinct pairs, but every Bregman term sits below the rounding of F,
        # so no ratio is meaningful (read as extremes, they fall far outside
        # the spectrum)
        with pytest.raises(ContractError, match="sampler"):
            estimate_rsc_rss(self.obj, latent_pair_sampler(self.net, scale=1e-8), 50, seed=0)


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


class TestSumPairSampler:
    def test_points_decompose(self):
        rng = np.random.default_rng(30)
        W = np.linalg.qr(rng.standard_normal((12, 2)))[0]
        net = make_linear_generator(W)
        basis = OrthoBasis.identity(12)
        sampler = sum_pair_sampler(net, basis, l=2)
        x, y = sampler(np.random.default_rng(0))
        assert x.shape == (12,) and y.shape == (12,)
        obj = Objective("least-squares", np.eye(12), np.zeros(12))
        # identity measurement: curvature of the sum set is exactly 1
        est = estimate_rsc_rss(obj, sampler, num_pairs=50, seed=0)
        np.testing.assert_allclose([est.alpha, est.beta], np.ones(2), rtol=1e-9)
