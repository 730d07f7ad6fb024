"""Solver loops, contraction reporting, theory-rate helpers."""

import numpy as np
import pytest

from genpgd.errors import ConfigError, ContractError, DivergenceError
from genpgd.generator import forward, make_linear_generator
from genpgd.objective import Objective, subspace_curvature
from genpgd.projection import OrthoBasis, ProjectionConfig
from genpgd.solver import (
    SolverConfig,
    contraction_factor,
    contraction_report,
    default_step_size,
    epsilon_pgd,
    myopic_pgd,
    trace_from_csv,
    trace_to_csv,
)


def linear_instance(n, k, m, seed, noise=0.0):
    """Orthonormal-column linear generator, Gaussian measurements, known truth."""
    rng = np.random.default_rng(seed)
    W = np.linalg.qr(rng.standard_normal((n, k)))[0]
    net = make_linear_generator(W)
    z_star = rng.standard_normal(k)
    x_star = W @ z_star
    A = rng.standard_normal((m, n)) / np.sqrt(m)
    y = A @ x_star
    if noise:
        e = rng.standard_normal(m)
        y = y + noise * np.linalg.norm(A @ x_star) / np.linalg.norm(e) * e
    obj = Objective("least-squares", A, y)
    return net, W, obj, x_star


EXACT = ProjectionConfig(method="closed-form-linear")


class TestPgdBasics:
    def test_denoising_converges_in_one_step(self):
        net, W, _, x_star = linear_instance(20, 3, 20, seed=0)
        obj = Objective("least-squares", np.eye(20), x_star)
        # one exact step lands on the truth up to rounding, so a near-zero
        # stop threshold fires immediately after it
        cfg = SolverConfig(eta=1.0, iters=5, stop_gap=1e-24)
        trace = epsilon_pgd(obj, net, EXACT, cfg, x_star=x_star)
        assert len(trace.records) == 2  # initial state plus one step
        np.testing.assert_allclose(trace.final_point, x_star, atol=1e-12)
        assert trace.records[-1].gap <= 1e-24

    def test_stationary_start_never_moves(self):
        # a coordinate subspace projects its own points without rounding, so
        # the truth is an exact fixed point of the iteration
        W = np.eye(15)[:, :2]
        net = make_linear_generator(W)
        x_star = W @ np.array([0.7, -1.3])
        obj = Objective("least-squares", np.eye(15), x_star)
        cfg = SolverConfig(eta=0.7, iters=6)
        trace = epsilon_pgd(obj, net, EXACT, cfg, x0=x_star, x_star=x_star)
        assert len(trace.records) == 7
        assert all(r.dist_to_truth == 0.0 for r in trace.records)
        f0 = trace.records[0].f_value
        assert all(abs(r.f_value - f0) < 1e-20 for r in trace.records)

    def test_records_contiguous_and_finite(self):
        net, W, obj, x_star = linear_instance(30, 4, 40, seed=2)
        trace = epsilon_pgd(obj, net, EXACT, SolverConfig(iters=20), x_star=x_star)
        assert [r.t for r in trace.records] == list(range(21))
        assert all(np.isfinite(r.f_value) for r in trace.records)
        assert trace.records[0].proj_residual_sq == 0.0

    def test_default_step_is_inverse_beta_oracle(self):
        net, W, obj, x_star = linear_instance(30, 4, 40, seed=3)
        _, beta = subspace_curvature(obj.A, W)
        eta = default_step_size(obj, net)
        assert abs(eta - 1.0 / beta) < 1e-12
        trace = epsilon_pgd(obj, net, EXACT, SolverConfig(iters=3), x_star=x_star)
        assert abs(trace.eta - 1.0 / beta) < 1e-12

    def test_monotone_descent_with_certified_projection(self):
        for seed in range(3):
            net, W, obj, x_star = linear_instance(40, 5, 80, seed=seed)
            trace = epsilon_pgd(obj, net, EXACT, SolverConfig(iters=40), x_star=x_star)
            f = [r.f_value for r in trace.records]
            assert all(f[t + 1] <= f[t] + 1e-15 for t in range(len(f) - 1))

    def test_divergence_raises_with_partial_trace(self):
        net, W, obj, x_star = linear_instance(30, 4, 40, seed=4)
        with pytest.raises(DivergenceError) as exc:
            epsilon_pgd(obj, net, EXACT, SolverConfig(eta=500.0, iters=200), x_star=x_star)
        trace = exc.value.trace
        assert trace is not None and len(trace.records) >= 1
        assert all(np.isfinite(r.f_value) for r in trace.records)

    def test_early_stop_on_gap(self):
        net, W, obj, x_star = linear_instance(30, 4, 200, seed=5)
        cfg = SolverConfig(iters=500, stop_gap=1e-6)
        trace = epsilon_pgd(obj, net, EXACT, cfg, x_star=x_star)
        assert len(trace.records) < 501
        assert trace.records[-1].gap <= 1e-6

    def test_deterministic_given_config(self):
        net, W, obj, x_star = linear_instance(25, 3, 50, seed=6)
        cfg = SolverConfig(iters=15)
        t1 = epsilon_pgd(obj, net, EXACT, cfg, x_star=x_star)
        t2 = epsilon_pgd(obj, net, EXACT, cfg, x_star=x_star)
        np.testing.assert_array_equal(
            [r.f_value for r in t1.records], [r.f_value for r in t2.records]
        )
        np.testing.assert_array_equal(t1.final_point, t2.final_point)

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="mode"):
            SolverConfig(mode="sgd")
        with pytest.raises(ConfigError, match="eta"):
            SolverConfig(eta=-1.0)
        with pytest.raises(ConfigError, match="iters"):
            SolverConfig(iters=0)
        with pytest.raises(ConfigError, match="sparsity"):
            SolverConfig(l=-2)
        # zero is a legal stop threshold, distinct from "no threshold"
        assert SolverConfig(stop_gap=0.0).stop_gap == 0.0

    def test_gap_requires_truth(self):
        net, W, obj, _ = linear_instance(20, 3, 30, seed=7)
        trace = epsilon_pgd(obj, net, EXACT, SolverConfig(iters=5))
        assert all(r.gap is None and r.dist_to_truth is None for r in trace.records)
        with pytest.raises(ContractError, match="gap"):
            contraction_report(trace, rho=0.5)


class TestContractionBound:
    def test_per_step_bound_well_conditioned(self):
        # m large enough that the restricted condition number stays below 2
        for seed in range(3):
            net, W, obj, x_star = linear_instance(60, 5, 600, seed=10 + seed)
            alpha, beta = subspace_curvature(obj.A, W)
            assert beta / alpha < 2.0
            trace = epsilon_pgd(obj, net, EXACT, SolverConfig(iters=80), x_star=x_star)
            gaps = trace.gaps()
            bound = contraction_factor(alpha, beta) + 0.05
            for t in range(len(gaps) - 1):
                if gaps[t] < 1e-10:
                    break
                assert gaps[t + 1] <= bound * gaps[t]

    def test_factor_helpers(self):
        assert abs(contraction_factor(1.0, 1.5) - 0.5) < 1e-15
        with pytest.raises(ContractError):
            contraction_factor(0.0, 1.0)
        with pytest.raises(ContractError, match="mu"):
            contraction_factor(1.0, 1.5, 1.0)

    def test_myopic_factor_formula(self):
        # frozen hand evaluation: beta/alpha = 1.5, mu = 0.1
        # c = 1.5*0.1/(2*0.9) = 0.75/9; numerator 1.5 - 1 + 3c = 0.75;
        # denominator 1 - c
        got = contraction_factor(1.0, 1.5, 0.1)
        assert abs(got - 0.75 / (1.0 - 0.75 / 9.0)) < 1e-12

    def test_myopic_factor_vacuous_is_inf(self):
        # beta/alpha = 5, mu = 0.4 drives the denominator nonpositive
        assert contraction_factor(1.0, 5.0, 0.4) == np.inf

    def test_zero_mu_reduces_to_plain_factors(self):
        # the two-block body at mu = 0 is beta/alpha - 1 bit for bit
        for beta in (2.0, 2.8, 3.8, 7.4):
            assert contraction_factor(2.0, beta, 0.0) == beta / 2.0 - 1.0
            assert contraction_factor(2.0, beta) == beta / 2.0 - 1.0


class TestContractionReport:
    def test_pure_geometric_sequence(self):
        gaps = 0.5 ** np.arange(40)
        rep = contraction_report(gaps, rho=0.5, floor=0.0)
        assert rep.rateable
        assert abs(rep.fitted_rate - 0.5) < 1e-6
        assert rep.violations == 0
        assert rep.plateau_index is None
        np.testing.assert_allclose(rep.ratios, 0.5 * np.ones(39), rtol=1e-12)

    def test_floored_geometric_sequence(self):
        gaps = np.maximum(0.5 ** np.arange(60), 1e-8)
        rep = contraction_report(gaps, rho=0.5, floor=1e-8)
        assert rep.plateau_index is not None
        assert abs(rep.plateau_level - 1e-8) < 1e-14
        assert abs(rep.fitted_rate - 0.5) < 1e-3
        assert rep.violations == 0  # the floor term absorbs the plateau

    def test_too_short_is_unrateable(self):
        rep = contraction_report(np.array([1.0, 0.5]), rho=None)
        assert not rep.rateable
        assert rep.fitted_rate is None

    def test_violation_counting(self):
        gaps = np.array([1.0, 0.6, 0.25, 0.20])
        rep = contraction_report(gaps, rho=0.5, floor=0.0)
        # 0.6 > 0.5 and 0.20 > 0.125 violate; 0.25 <= 0.30 does not
        assert rep.violations == 2
        assert abs(rep.violation_fraction - 2.0 / 3.0) < 1e-15


class TestMyopic:
    def make_instance(self, n, k, l, m, seed):
        rng = np.random.default_rng(seed)
        W = np.linalg.qr(rng.standard_normal((n, k)))[0]
        net = make_linear_generator(W)
        basis = OrthoBasis.identity(n)
        z_star = rng.standard_normal(k)
        sup = rng.choice(n, size=l, replace=False) if l else np.array([], dtype=int)
        nu = np.zeros(n)
        nu[sup] = rng.standard_normal(l)
        x_star = W @ z_star + nu
        A = rng.standard_normal((m, n)) / np.sqrt(m)
        obj = Objective("least-squares", A, A @ x_star)
        return net, basis, obj, x_star

    def test_reduces_to_pgd_when_sparsity_zero(self):
        net, basis, obj, x_star = self.make_instance(30, 3, 0, 60, seed=20)
        cfg = SolverConfig(mode="myopic", iters=25, l=0, eta=0.4)
        tm = myopic_pgd(obj, net, basis, EXACT, cfg, x_star=x_star)
        tp = epsilon_pgd(obj, net, EXACT, SolverConfig(iters=25, eta=0.4), x_star=x_star)
        np.testing.assert_array_equal(
            [r.f_value for r in tm.records], [r.f_value for r in tp.records]
        )
        np.testing.assert_array_equal(tm.final_point, tp.final_point)

    def test_recovers_range_plus_sparse(self):
        net, basis, obj, x_star = self.make_instance(60, 4, 3, 50, seed=21)
        cfg = SolverConfig(mode="myopic", iters=200, l=3)
        trace = myopic_pgd(obj, net, basis, EXACT, cfg, x_star=x_star)
        assert trace.records[-1].dist_to_truth <= 1e-6
        u, v = trace.final_components
        np.testing.assert_array_equal(trace.final_point, u + v)

    def test_sparse_part_feasible_every_iteration(self):
        net, basis, obj, x_star = self.make_instance(40, 3, 4, 35, seed=22)
        cfg = SolverConfig(mode="myopic", iters=60, l=4)
        trace = myopic_pgd(obj, net, basis, EXACT, cfg, x_star=x_star)
        assert trace.sparse_nnz is not None
        assert all(c <= 4 for c in trace.sparse_nnz)

    def test_both_blocks_use_the_same_gradient(self):
        # one iteration from zero: u_1 = P(-eta g), v_1 = T(-eta g) with the
        # same g = grad F(0); verify against hand assembly
        from genpgd.objective import gradient
        from genpgd.projection import hard_threshold, project

        net, basis, obj, x_star = self.make_instance(25, 2, 3, 30, seed=23)
        eta = 0.3
        cfg = SolverConfig(mode="myopic", iters=1, l=3, eta=eta)
        trace = myopic_pgd(obj, net, basis, EXACT, cfg, x_star=x_star)
        g = gradient(obj, np.zeros(25))
        u1 = project(EXACT, net, -eta * g).point
        v1 = hard_threshold(basis, -eta * g, 3)
        np.testing.assert_allclose(trace.final_point, u1 + v1, atol=1e-14)

    def test_divergence_trace_keeps_both_blocks(self):
        net, basis, obj, x_star = self.make_instance(30, 3, 2, 40, seed=24)
        cfg = SolverConfig(mode="myopic", iters=200, l=2, eta=500.0)
        with pytest.raises(DivergenceError) as exc:
            myopic_pgd(obj, net, basis, EXACT, cfg, x_star=x_star)
        trace = exc.value.trace
        assert trace.final_components is not None
        u, v = trace.final_components
        np.testing.assert_array_equal(trace.final_point, u + v)
        assert len(trace.sparse_nnz) == len(trace.records) >= 1


class TestTraceCsv:
    def test_round_trip_exact(self, tmp_path):
        net, W, obj, x_star = linear_instance(20, 3, 30, seed=30)
        trace = epsilon_pgd(obj, net, EXACT, SolverConfig(iters=10), x_star=x_star)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        text = path.read_text()
        assert text.splitlines()[0] == "t,f_value,gap,dist_to_truth,proj_residual_sq,wall_time_us"
        back = trace_from_csv(path)
        for a, b in zip(trace.records, back):
            assert a.t == b.t
            assert a.f_value == b.f_value
            assert a.gap == b.gap
            assert a.dist_to_truth == b.dist_to_truth
            assert a.proj_residual_sq == b.proj_residual_sq

    def test_unknown_truth_leaves_fields_empty(self, tmp_path):
        net, W, obj, _ = linear_instance(20, 3, 30, seed=31)
        trace = epsilon_pgd(obj, net, EXACT, SolverConfig(iters=3))
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[2] == "" and row[3] == ""
        back = trace_from_csv(path)
        assert back[0].gap is None
