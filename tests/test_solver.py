"""Solver loops, contraction reporting, theory-rate helpers."""

import numpy as np
import pytest

from genpgd import solver
from genpgd.errors import ConfigError, ContractError, DivergenceError, NumericError
from genpgd.generator import forward, make_linear_generator, make_random_generator
from genpgd.objective import Objective, gradient, subspace_curvature, value
from genpgd.projection import OrthoBasis, ProjectionConfig, hard_threshold_coeffs, project
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
    obj = Objective("linear", A, y)
    return net, W, obj, x_star


EXACT = ProjectionConfig(method="closed-form-linear")


class TestPgdBasics:
    def test_denoising_converges_in_one_step(self):
        net, W, _, x_star = linear_instance(20, 3, 20, seed=0)
        obj = Objective("linear", np.eye(20), x_star)
        # one exact step lands on the truth up to rounding, so a near-zero
        # stop threshold fires immediately after it
        cfg = SolverConfig(eta=1.0, iters=5, stop_gap=1e-24)
        trace = epsilon_pgd(obj, net, EXACT, cfg, x_star=x_star)
        assert len(trace.records) == 2  # initial state plus one step
        np.testing.assert_allclose(trace.final_point, x_star, atol=1e-12)
        assert trace.records[-1].gap <= 1e-24

    def test_truth_is_an_exact_fixed_point(self):
        # with A = I and eta = 1 the first step from zero lands on the truth,
        # and a coordinate subspace projects its own points without
        # rounding, so the truth is then an exact fixed point of the iteration
        W = np.eye(15)[:, :2]
        net = make_linear_generator(W)
        x_star = W @ np.array([0.7, -1.3])
        obj = Objective("linear", np.eye(15), x_star)
        cfg = SolverConfig(eta=1.0, iters=6)
        trace = epsilon_pgd(obj, net, EXACT, cfg, x_star=x_star)
        assert len(trace.records) == 7
        assert trace.records[0].dist_to_truth > 0
        assert all(r.dist_to_truth == 0.0 for r in trace.records[1:])
        assert all(r.f_value == 0.0 for r in trace.records[1:])

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
        # zero is a legal stop threshold, distinct from "no threshold"
        assert SolverConfig(stop_gap=0.0).stop_gap == 0.0

    def test_gap_requires_truth(self):
        net, W, obj, _ = linear_instance(20, 3, 30, seed=7)
        trace = epsilon_pgd(obj, net, EXACT, SolverConfig(iters=5))
        assert all(r.gap is None and r.dist_to_truth is None for r in trace.records)
        with pytest.raises(ContractError, match="gap"):
            contraction_report(trace, rho=0.5)


def composed_pgd(objective, net, proj_cfg, cfg, x_star=None, basis=None, l=0):
    """The ε-PGD loop written out from :func:`value`, :func:`gradient`,
    :func:`project` and :func:`hard_threshold_coeffs`, one call of each per
    iteration, with the divergence guard but no stop gap.

    Returns the records as (t, f_value, gap, dist_to_truth,
    proj_residual_sq) tuples, the last point, and whether the guard fired;
    :func:`epsilon_pgd` must reproduce every one of them bit for bit.
    """
    f_star = None if x_star is None else value(objective, x_star)
    u = x = np.zeros(net.n)
    v = np.zeros(net.n)

    def row(t, f, residual_sq):
        return (t, f, None if f_star is None else f - f_star,
                None if x_star is None else float(np.linalg.norm(x - x_star)), residual_sq)

    f = value(objective, x)
    rows = [row(0, f, 0.0)]
    threshold = 1e3 * max(f, 1e-12)
    for t in range(1, cfg.iters + 1):
        g = gradient(objective, x)
        res = project(proj_cfg, net, u - cfg.eta * g)
        u = x = res.point
        if basis is not None:
            v = hard_threshold_coeffs(basis, v - cfg.eta * g, l)[0]
            x = u + v
        f = value(objective, x)
        if not np.isfinite(f) or f > threshold:
            return rows, x, True
        rows.append(row(t, f, res.residual_sq))
    return rows, x, False


def _composed_cases():
    net, W, obj, x_star = linear_instance(40, 4, 30, seed=40)
    yield "linear-exact", (obj, net, EXACT, SolverConfig(eta=0.5, iters=30), x_star, {})
    degraded = ProjectionConfig(method="closed-form-linear", degrade_slack=1e-4, seed=3)
    yield "linear-degraded", (obj, net, degraded, SolverConfig(eta=0.5, iters=30), x_star, {})
    yield "linear-diverges", (obj, net, EXACT, SolverConfig(eta=40.0, iters=30), x_star, {})
    basis = OrthoBasis.random(40, seed=41)
    nu = basis.matrix[:, [3, 17]] @ np.array([0.8, -0.5])
    obj_sum = Objective("linear", obj.A, obj.A @ (x_star + nu))
    yield "myopic", (obj_sum, net, EXACT, SolverConfig(eta=0.5, iters=30, mode="myopic"),
                     x_star + nu, {"basis": basis, "l": 2})
    relu = make_random_generator(3, 24, 2, [10], activation="relu", seed=42)
    rng = np.random.default_rng(43)
    x_relu = forward(relu, rng.standard_normal(3))
    A = rng.standard_normal((18, 24)) / np.sqrt(18)
    gd = ProjectionConfig(method="latent-gd", restarts=3, inner_iters=10, seed=4)
    yield "relu-latent-gd", (Objective("linear", A, A @ x_relu), relu, gd,
                             SolverConfig(eta=0.5, iters=6), x_relu, {})
    y = (rng.uniform(size=30) < 0.5 * (1.0 + np.tanh(0.5 * obj.A @ x_star))).astype(float)
    yield "glm-sigmoid", (Objective("glm-sigmoid", obj.A, y), net, EXACT,
                          SolverConfig(eta=1.0, iters=30), x_star, {})


_COMPOSED = dict(_composed_cases())


class TestFusedLoop:
    """:func:`epsilon_pgd` takes F and the next gradient from one product
    with A per iterate and builds one projection result; none of it may
    move a bit of what the composed loop records."""

    @pytest.mark.parametrize("case", list(_COMPOSED))
    def test_records_equal_the_composed_loop(self, case):
        obj, net, proj_cfg, cfg, x_star, sparse = _COMPOSED[case]
        rows, x, diverged = composed_pgd(obj, net, proj_cfg, cfg, x_star, **sparse)
        assert diverged == (case == "linear-diverges")
        if diverged:
            with pytest.raises(DivergenceError) as exc:
                epsilon_pgd(obj, net, proj_cfg, cfg, x_star=x_star, **sparse)
            trace = exc.value.trace  # the partial trace, up to the guard
        else:
            trace = epsilon_pgd(obj, net, proj_cfg, cfg, x_star=x_star, **sparse)
        got = [(r.t, r.f_value, r.gap, r.dist_to_truth, r.proj_residual_sq)
               for r in trace.records]
        assert got == rows
        np.testing.assert_array_equal(trace.final_point, x)

    def test_glm_exp_overflow_surfaces_at_the_same_iteration(self, monkeypatch):
        rng = np.random.default_rng(2)
        net = make_linear_generator(np.linalg.qr(rng.standard_normal((12, 2)))[0])
        A = rng.standard_normal((8, 12))
        obj = Objective("glm-exp", A, rng.uniform(0.5, 2.0, 8))
        cfg = SolverConfig(eta=0.35, iters=30)
        real, calls = project, [0]

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(solver, "project", counted)
        monkeypatch.setitem(globals(), "project", counted)  # composed_pgd's
        outcomes = []
        for run in (epsilon_pgd, composed_pgd):
            calls[0] = 0
            with pytest.raises(NumericError) as exc:
                run(obj, net, EXACT, cfg)
            outcomes.append((calls[0], str(exc.value)))
        # the fourth iterate's value overflows, after its projection
        assert outcomes == [(4, "non-finite intermediate at row 5")] * 2


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
        np.testing.assert_allclose(rep.checked, 0.5 * np.ones(39), rtol=1e-12)

    def test_floored_geometric_sequence(self):
        gaps = np.maximum(0.5 ** np.arange(60), 1e-8)
        rep = contraction_report(gaps, rho=0.5, floor=1e-8)
        assert rep.plateau_index is not None
        assert abs(rep.plateau_level - 1e-8) < 1e-14
        assert abs(rep.fitted_rate - 0.5) < 1e-3
        assert rep.violations == 0  # the floor term absorbs the plateau

    def test_flat_negative_tail_is_not_checked(self):
        # a noisy solve's gap turns negative and stays flat; the detector
        # compares magnitudes, so it fires on that tail five steps in, and
        # the segment ends where the gaps first reach the tail's level
        gaps = np.array([1.0, 0.4, 0.1, 0.06, -0.003] + [-0.003] * 10)
        rep = contraction_report(gaps, rho=0.5)
        assert rep.plateau_index == 9 and rep.plateau_level == -0.003
        # the segment is gaps[:4], its 3 steps all checked
        np.testing.assert_array_equal(rep.checked, gaps[1:4] / gaps[:3])
        assert rep.violations == 1  # 0.06 > 0.5 * 0.1
        assert rep.violation_fraction == rep.violations / rep.checked.size
        # each flat step -0.003 > 2 * -0.003 would be a violation at rho = 2
        rep = contraction_report(gaps, rho=2.0)
        assert rep.violations == 0 and rep.violation_fraction == 0.0

    def test_plateau_level_is_the_tail_median(self):
        # one spike in the tail: its median 0.01 is not its mean
        gaps = np.array([1.0, 0.5, 0.25, 0.125, 0.0625] + [0.01] * 5 + [0.05, 0.01])
        rep = contraction_report(gaps)
        assert rep.plateau_index == 10
        assert rep.plateau_level == 0.01 != np.mean(gaps[5:])

    def test_nan_gap_leaves_both_its_steps_unchecked(self):
        gaps = 0.5 ** np.arange(12)
        gaps[4] = np.nan
        rep = contraction_report(gaps, rho=0.4)
        keep = np.array([t not in (3, 4) for t in range(11)])
        np.testing.assert_array_equal(rep.checked, (gaps[1:] / gaps[:-1])[keep])
        assert rep.violations == rep.checked.size == 9  # every ratio is 0.5
        assert rep.violation_fraction == 1.0

    def test_denormal_gap_overflows_its_ratio_quietly(self):
        gaps = np.array([1.0, 5e-324, 1.0, 0.5])
        rep = contraction_report(gaps, rho=0.5)
        assert rep.checked[1] == np.inf
        assert rep.violations == 1 and rep.violation_fraction == 1 / 3

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

    def test_non_finite_floor_rejected(self):
        gaps = 0.9 ** np.arange(8)
        assert contraction_report(gaps, rho=0.5).violations == 7
        for floor in (np.nan, np.inf):
            with pytest.raises(ContractError, match="finite floor"):
                contraction_report(gaps, rho=0.5, floor=floor)

    def test_flat_start_checks_no_step(self):
        # the gap falls less than 1 % in the first 5 steps, so the plateau
        # band reaches gaps[0] and the pre-plateau segment is empty
        rep = contraction_report([1.0] * 8, rho=0.5)
        assert rep.checked.size == 0 and not rep.rateable
        assert rep.violations is None and rep.violation_fraction is None


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
        obj = Objective("linear", A, A @ x_star)
        return net, basis, obj, x_star

    def test_reduces_to_pgd_when_sparsity_zero(self):
        net, basis, obj, x_star = self.make_instance(30, 3, 0, 60, seed=20)
        cfg = SolverConfig(mode="myopic", iters=25, eta=0.4)
        tm = myopic_pgd(obj, net, basis, 0, EXACT, cfg, x_star=x_star)
        tp = epsilon_pgd(obj, net, EXACT, SolverConfig(iters=25, eta=0.4), x_star=x_star)
        np.testing.assert_array_equal(
            [r.f_value for r in tm.records], [r.f_value for r in tp.records]
        )
        np.testing.assert_array_equal(tm.final_point, tp.final_point)

    def test_recovers_range_plus_sparse(self):
        net, basis, obj, x_star = self.make_instance(60, 4, 3, 50, seed=21)
        cfg = SolverConfig(mode="myopic", iters=200)
        trace = myopic_pgd(obj, net, basis, 3, EXACT, cfg, x_star=x_star)
        assert trace.records[-1].dist_to_truth <= 1e-6
        u, v = trace.final_components
        np.testing.assert_array_equal(trace.final_point, u + v)

    def test_sparse_part_feasible_every_iteration(self):
        net, basis, obj, x_star = self.make_instance(40, 3, 4, 35, seed=22)
        cfg = SolverConfig(mode="myopic", iters=60)
        trace = myopic_pgd(obj, net, basis, 4, EXACT, cfg, x_star=x_star)
        assert trace.sparse_nnz is not None
        assert all(c <= 4 for c in trace.sparse_nnz)

    def test_both_blocks_use_the_same_gradient(self):
        # one iteration from zero: u_1 = P(-eta g), v_1 = T(-eta g) with the
        # same g = grad F(0); verify against hand assembly
        from genpgd.objective import gradient
        from genpgd.projection import hard_threshold, project

        net, basis, obj, x_star = self.make_instance(25, 2, 3, 30, seed=23)
        eta = 0.3
        cfg = SolverConfig(mode="myopic", iters=1, eta=eta)
        trace = myopic_pgd(obj, net, basis, 3, EXACT, cfg, x_star=x_star)
        g = gradient(obj, np.zeros(25))
        u1 = project(EXACT, net, -eta * g).point
        v1 = hard_threshold(basis, -eta * g, 3)
        np.testing.assert_allclose(trace.final_point, u1 + v1, atol=1e-14)

    @pytest.mark.parametrize("mode, with_basis, message", [
        ("myopic", False, "solver mode 'myopic' needs a basis"),
        ("pgd", True, "solver mode 'pgd' takes no basis"),
    ])
    def test_mode_and_basis_must_agree(self, mode, with_basis, message):
        net, basis, obj, x_star = self.make_instance(30, 3, 2, 40, seed=25)
        cfg = SolverConfig(mode=mode, iters=3, eta=0.4)
        with pytest.raises(ConfigError, match=message):
            epsilon_pgd(obj, net, EXACT, cfg, x_star=x_star, basis=basis if with_basis else None)

    @pytest.mark.parametrize("mode", ["pgd", "myopic"])
    def test_a_budget_needs_a_basis(self, mode):
        # a budget without a basis would threshold nothing: it is refused,
        # named, before the mode's own basis rule
        net, basis, obj, x_star = self.make_instance(30, 3, 2, 40, seed=25)
        cfg = SolverConfig(mode=mode, iters=3, eta=0.4)
        with pytest.raises(ConfigError, match="^sparsity l = 3 needs a basis$"):
            epsilon_pgd(obj, net, EXACT, cfg, x_star=x_star, l=3)

    @pytest.mark.parametrize("l", [-1, 2.0, True])
    def test_budget_is_a_count(self, l):
        net, basis, obj, x_star = self.make_instance(30, 3, 2, 40, seed=25)
        cfg = SolverConfig(mode="myopic", iters=3, eta=0.4)
        with pytest.raises(ConfigError, match="^sparsity l must be an integer >= 0"):
            myopic_pgd(obj, net, basis, l, EXACT, cfg, x_star=x_star)

    def test_divergence_trace_keeps_both_blocks(self):
        net, basis, obj, x_star = self.make_instance(30, 3, 2, 40, seed=24)
        cfg = SolverConfig(mode="myopic", iters=200, eta=500.0)
        with pytest.raises(DivergenceError) as exc:
            myopic_pgd(obj, net, basis, 2, EXACT, cfg, x_star=x_star)
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

    @pytest.mark.parametrize("row", ["", "1.5,2,3,4,5,6", "1,2,3,4,-inf,6"],
                             ids=["blank", "fractional-t", "minus-inf"])
    def test_rejects_rows_the_writer_never_writes(self, tmp_path, row):
        net, W, obj, x_star = linear_instance(20, 3, 30, seed=32)
        path = tmp_path / "trace.csv"
        trace_to_csv(epsilon_pgd(obj, net, EXACT, SolverConfig(iters=3), x_star=x_star), path)
        with open(path, "a") as f:
            f.write(row + "\n")
        with pytest.raises(ContractError, match=r"trace.csv line 6"):
            trace_from_csv(path)

    def test_rejects_a_wrong_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,f_value,gap,dist_to_truth,proj_residual_sq\n")
        with pytest.raises(ContractError, match=r"trace.csv line 1"):
            trace_from_csv(path)

    def test_writer_matches_the_per_cell_writer(self, tmp_path):
        # the per-cell formatting the template writer replaced, written out
        def per_cell(path, columns, rows):
            with open(path, "w", newline="") as f:
                for cells in [columns, *rows]:
                    f.write(",".join("" if v is None else format(v, ".17e")
                                     if isinstance(v, float) else str(v) for v in cells) + "\r\n")

        cells = [0.1, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308,
                 np.float64(-2.5e-7), np.float64(np.nan)]
        rows = [(t, v, None if t % 2 else -v, None, v * 3.0, 12.5) for t, v in enumerate(cells)]
        rows += [[7, "run_m80_l2_t0", 3, np.int64(-4), True, "error: NumericError"],
                 ("a,b", None, None, None, None, None), (3, 1.0, 2.0, 3.0, 4.0, np.float64(5.0))]
        net, W, obj, x_star = linear_instance(20, 3, 30, seed=33)
        traces = [epsilon_pgd(obj, net, EXACT, SolverConfig(iters=4), x_star=x_star),
                  epsilon_pgd(obj, net, EXACT, SolverConfig(iters=4))]  # unknown truth
        for trace in traces:
            rows += [(r.t, r.f_value, r.gap, r.dist_to_truth, r.proj_residual_sq,
                      r.wall_time * 1e6) for r in trace.records]
        columns = ("t", "f_value", "gap", "dist_to_truth", "proj_residual_sq", "wall_time_us")
        for some in (rows, rows[::-1], rows[:1], []):
            per_cell(tmp_path / "want.csv", columns, some)
            solver._write_csv(tmp_path / "got.csv", columns, some)
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestRejectedInputs:
    def test_default_step_needs_positive_smoothness(self):
        net = make_linear_generator(np.eye(6)[:, :2])
        obj = Objective("linear", np.zeros((4, 6)), np.zeros(4))
        with pytest.raises(ContractError, match="smoothness"):
            default_step_size(obj, net)

    def test_stop_gap_needs_a_truth(self):
        net, _, obj, _ = linear_instance(20, 3, 20, seed=0)
        with pytest.raises(ConfigError, match="stop_gap"):
            epsilon_pgd(obj, net, EXACT, SolverConfig(eta=1.0, stop_gap=1e-6))

    @pytest.mark.parametrize("gaps", [[], [1.0], [[1.0, 0.5], [0.2, 0.1]]])
    def test_contraction_report_needs_a_gap_sequence(self, gaps):
        with pytest.raises(ContractError, match="1-d gap sequence"):
            contraction_report(gaps)
