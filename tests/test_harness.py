"""Instance generation, end-to-end solves, sweeps, and reports."""

import copy
import csv
import json

import numpy as np
import pytest

from genpgd.errors import ConfigError, ContractError, DivergenceError
from genpgd.generator import forward, network_to_json
from genpgd.harness import (
    ExperimentConfig,
    ProblemInstance,
    build_objective,
    emit_report,
    estimate_regularity,
    gen_problem,
    load_problem,
    run_solve,
    run_sweep,
    save_problem,
)
from genpgd.harness import _read_matrix_csv, _write_matrix_csv
from genpgd.objective import subspace_curvature
from genpgd.projection import project
from genpgd.seeding import derive_seed
from genpgd.solver import contraction_factor, contraction_report, trace_from_csv


BASE = {
    "problem": {
        "n": 30,
        "k": 4,
        "m": 40,
        "l": 0,
        "noise_level": 0.0,
        "generator": {"kind": "linear"},
        "basis": None,
        "measurement": "linear",
    },
    "projection": {"method": "closed-form-linear"},
    "solver": {"iters": 40},
    "sweep": {"trials": 1},
    "out_dir": "runs",
    "master_seed": 11,
}


def make_config(**patches):
    raw = copy.deepcopy(BASE)
    for dotted, value in patches.items():
        node = raw
        *parents, leaf = dotted.split(".")
        for p in parents:
            node = node[p]
        node[leaf] = value
    return ExperimentConfig.from_json(raw)


class TestExperimentConfig:
    def test_round_trip(self):
        cfg = make_config(**{"sweep.m": [20, 40], "sweep.trials": 3})
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_unknown_keys_rejected_everywhere(self):
        for dotted in ("bogus", "problem.bogus", "solver.bogus",
                       "projection.bogus", "sweep.bogus",
                       "problem.generator.bogus"):
            with pytest.raises(ConfigError, match="bogus"):
                make_config(**{dotted: 1})

    def test_axis_and_trial_validation(self):
        with pytest.raises(ConfigError, match="empty"):
            make_config(**{"sweep.m": []})
        with pytest.raises(ConfigError, match="trials"):
            make_config(**{"sweep.trials": 0})
        with pytest.raises(ConfigError, match="m"):
            make_config(**{"sweep.m": [40, 0]})

    def test_problem_validation(self):
        with pytest.raises(ConfigError, match="l"):
            make_config(**{"problem.l": 31})  # exceeds n=30
        with pytest.raises(ConfigError, match="m"):
            make_config(**{"problem.m": 0})
        with pytest.raises(ConfigError, match="basis"):
            make_config(**{"problem.l": 2})  # sparse part with no basis
        with pytest.raises(ConfigError, match="measurement"):
            make_config(**{"problem.measurement": "poisson-count"})

    def test_from_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(BASE))
        assert ExperimentConfig.from_file(path) == make_config()

    def test_sweep_defaults_to_single_point(self):
        cfg = make_config()
        assert cfg.sweep_points() == [(40, 0, 0.0)]


class TestGenProblem:
    def test_noiseless_linear_is_exact(self):
        cfg = make_config()
        inst = gen_problem(cfg.problem, seed=5)
        assert np.array_equal(inst.y, inst.A @ inst.truth.x_star)
        assert np.all(inst.truth.noise == 0.0)

    def test_zero_sparsity_stays_in_range(self):
        inst = gen_problem(make_config().problem, seed=6)
        assert inst.truth.nu_star is None
        assert np.array_equal(inst.truth.x_star, forward(inst.net, inst.truth.z_star))

    def test_sparse_deviation_support(self):
        cfg = make_config(**{"problem.basis": "identity", "problem.l": 3})
        inst = gen_problem(cfg.problem, seed=7)
        assert np.count_nonzero(inst.truth.nu_star) == 3
        recon = forward(inst.net, inst.truth.z_star) + inst.truth.nu_star
        np.testing.assert_allclose(inst.truth.x_star, recon, atol=1e-12)

    def test_noise_is_relative(self):
        cfg = make_config(**{"problem.noise_level": 0.25})
        inst = gen_problem(cfg.problem, seed=8)
        clean = inst.A @ inst.truth.x_star
        ratio = np.linalg.norm(inst.truth.noise) / np.linalg.norm(clean)
        assert abs(ratio - 0.25) < 1e-12

    def test_measurement_scaling(self):
        cfg = make_config(**{"problem.m": 200, "problem.n": 50})
        inst = gen_problem(cfg.problem, seed=9)
        # entries are N(0, 1/m): the empirical std over 10k draws should sit
        # within a few standard errors of 1/sqrt(m)
        assert abs(inst.A.std() * np.sqrt(200) - 1.0) < 0.05

    def test_glm_mean_response(self):
        cfg = make_config(**{"problem.measurement": "glm-sigmoid"})
        inst = gen_problem(cfg.problem, seed=10)
        t = inst.A @ inst.truth.x_star
        np.testing.assert_allclose(inst.y, 0.5 * (1.0 + np.tanh(0.5 * t)), atol=1e-12)
        assert np.array_equal(inst.y, t + inst.truth.noise)

    def test_deterministic_and_seed_sensitive(self):
        spec = make_config().problem
        a = gen_problem(spec, seed=3)
        b = gen_problem(spec, seed=3)
        c = gen_problem(spec, seed=4)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.y, b.y)
        assert not np.array_equal(a.y, c.y)

    def test_tampered_truth_rejected(self):
        inst = gen_problem(make_config().problem, seed=5)
        bad = dict(net=inst.net, basis=inst.basis, A=inst.A, y=inst.y,
                   truth=inst.truth, meta=inst.meta)
        bad["y"] = inst.y + 1.0
        with pytest.raises(ContractError):
            ProblemInstance(**bad)


class TestSaveLoad:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = make_config(**{"problem.basis": "random", "problem.l": 2})
        inst = gen_problem(cfg.problem, seed=12)
        save_problem(inst, tmp_path / "inst")
        back = load_problem(tmp_path / "inst")
        assert np.array_equal(back.A, inst.A)
        assert np.array_equal(back.y, inst.y)
        assert np.array_equal(back.truth.x_star, inst.truth.x_star)
        assert np.array_equal(back.truth.nu_star, inst.truth.nu_star)
        assert np.array_equal(back.basis.matrix, inst.basis.matrix)
        assert back.meta == inst.meta
        probe = np.ones(inst.net.k)
        assert np.array_equal(forward(back.net, probe), forward(inst.net, probe))

    def test_files_are_stable(self, tmp_path):
        inst = gen_problem(make_config().problem, seed=13)
        save_problem(inst, tmp_path / "a")
        save_problem(inst, tmp_path / "b")
        for name in ("instance.json", "A.csv", "network.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_corrupted_file_rejected(self, tmp_path):
        inst = gen_problem(make_config().problem, seed=14)
        save_problem(inst, tmp_path / "inst")
        doc = json.loads((tmp_path / "inst" / "instance.json").read_text())
        doc["truth"]["x_star"][0] += 0.5
        (tmp_path / "inst" / "instance.json").write_text(json.dumps(doc))
        with pytest.raises(ContractError):
            load_problem(tmp_path / "inst")

    def test_matrix_csv_round_trip(self, tmp_path):
        M = np.random.default_rng(0).standard_normal((7, 3))
        _write_matrix_csv(tmp_path / "m.csv", M)
        assert np.array_equal(_read_matrix_csv(tmp_path / "m.csv"), M)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (40, 100), (100, 100)])
    def test_matrix_csv_matches_per_element_format(self, tmp_path, shape):
        rng = np.random.default_rng(sum(shape))
        M = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        special = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan]
        M.flat[: len(special)] = special[: M.size]
        _write_matrix_csv(tmp_path / "m.csv", M)
        expected = "".join(",".join(format(v, ".17e") for v in row) + "\n" for row in M)
        assert (tmp_path / "m.csv").read_text() == expected

    def test_network_file_matches_streaming_encoder(self, tmp_path):
        mlp = {"kind": "mlp", "widths": [6], "activation": "leaky-relu", "slope": 0.2}
        inst = gen_problem(make_config(**{"problem.generator": mlp}).problem, seed=15)
        save_problem(inst, tmp_path / "inst")
        with open(tmp_path / "ref.json", "w") as f:
            json.dump(network_to_json(inst.net), f)
        assert ((tmp_path / "inst" / "network.json").read_bytes()
                == (tmp_path / "ref.json").read_bytes())


class TestRunSolve:
    def test_denoising_dist_bounded_by_projection_residual(self, tmp_path):
        # y = x* with x* = G(z*) + sparse part, so the range solver can do no
        # better than the projection of x* onto the range
        cfg = make_config(**{"problem.basis": "identity", "problem.l": 4,
                             "problem.n": 25, "problem.k": 3, "problem.m": 25,
                             "solver.iters": 30})
        inst = gen_problem(cfg.problem, seed=20)
        n = inst.meta.n
        denoise = ProblemInstance(
            net=inst.net, basis=inst.basis, A=np.eye(n),
            y=np.eye(n) @ inst.truth.x_star + inst.truth.noise * 0.0,
            truth=inst.truth,
            meta=inst.meta)
        summary, trace = run_solve(denoise, cfg, out_dir=tmp_path)
        res = project(cfg.projection, inst.net, inst.truth.x_star)
        assert summary.final_dist <= np.sqrt(res.residual_sq) + 1e-10

    def test_summary_files_and_fields(self, tmp_path):
        cfg = make_config()
        inst = gen_problem(cfg.problem, seed=21)
        summary, trace = run_solve(inst, cfg, out_dir=tmp_path)
        records = trace_from_csv(tmp_path / "trace.csv")
        assert len(records) == len(trace.records)
        doc = json.loads((tmp_path / "summary.json").read_text())
        for key in ("final_gap", "final_dist", "fitted_rate", "theory_rate",
                    "violations", "regularity", "runtime", "status"):
            assert key in doc
        assert doc["status"] == "ok"
        assert set(doc["runtime"]) == {"proj_time_total", "grad_time_total",
                                       "regularity_time_total"}
        assert all(v >= 0.0 for v in doc["runtime"].values())

    def test_theory_rate_matches_oracle(self):
        cfg = make_config(**{"problem.m": 400})
        inst = gen_problem(cfg.problem, seed=22)
        summary, _ = run_solve(inst, cfg)
        W = inst.net.layers[0].weights
        expected = contraction_factor(*subspace_curvature(inst.A, W))
        assert abs(summary.theory_rate - expected) < 1e-12

    def test_violations_consistent_with_trace(self, tmp_path):
        cfg = make_config(**{"problem.m": 400, "solver.iters": 60})
        inst = gen_problem(cfg.problem, seed=23)
        summary, trace = run_solve(inst, cfg, out_dir=tmp_path)
        records = trace_from_csv(tmp_path / "trace.csv")
        gaps = [r.gap for r in records]
        rep = contraction_report(gaps, rho=summary.theory_rate)
        assert summary.violations == rep.violations

    def test_null_eta_is_inverse_bundle_beta(self):
        cfg = make_config(**{"problem.generator": {"kind": "mlp", "widths": [8]},
                             "problem.n": 12, "problem.k": 2, "solver.iters": 3,
                             "projection": {"method": "latent-gd", "restarts": 2,
                                            "inner_iters": 10}})
        inst = gen_problem(cfg.problem, seed=27)
        summary, trace = run_solve(inst, cfg)
        assert summary.eta == trace.eta == 1.0 / summary.regularity.beta

    def test_myopic_needs_basis(self):
        cfg = make_config(**{"solver.mode": "myopic"})
        inst = gen_problem(cfg.problem, seed=24)
        with pytest.raises(ConfigError, match="basis"):
            run_solve(inst, cfg)

    def test_myopic_end_to_end_recovery(self):
        cfg = make_config(**{"problem.n": 40, "problem.k": 3, "problem.l": 3,
                             "problem.m": 35, "problem.basis": "identity",
                             "solver.mode": "myopic", "solver.iters": 200})
        inst = gen_problem(cfg.problem, seed=25)
        summary, _ = run_solve(inst, cfg)
        assert summary.final_dist <= 1e-6

    def test_divergence_propagates_with_trace(self):
        cfg = make_config(**{"solver.eta": 500.0})
        inst = gen_problem(cfg.problem, seed=26)
        with pytest.raises(DivergenceError) as err:
            run_solve(inst, cfg)
        assert err.value.trace is not None


class TestEstimateRegularity:
    def test_linear_least_squares_uses_exact_oracle(self):
        cfg = make_config()
        inst = gen_problem(cfg.problem, seed=30)
        obj = build_objective(inst, cfg.problem.measurement)
        reg = estimate_regularity(inst, obj, seed=0)
        W = inst.net.layers[0].weights
        alpha, beta = subspace_curvature(inst.A, W)
        assert abs(reg.alpha - alpha) < 1e-12
        assert abs(reg.beta - beta) < 1e-12
        assert reg.mu == 0.0
        assert reg.gamma is not None and reg.gamma < 1e-10  # consistent truth
        assert reg.delta > 0

    def test_sparse_mode_bounds(self):
        cfg = make_config(**{"problem.basis": "identity", "problem.l": 3,
                             "solver.mode": "myopic"})
        inst = gen_problem(cfg.problem, seed=31)
        obj = build_objective(inst, cfg.problem.measurement)
        reg = estimate_regularity(inst, obj, sparsity=3, seed=0)
        assert 0 < reg.alpha <= reg.beta
        assert 0 <= reg.mu < 1

    def test_nonlinear_falls_back_to_sampling(self):
        cfg = make_config(**{"problem.generator": {"kind": "mlp", "widths": [8]},
                             "problem.n": 12, "problem.k": 2})
        inst = gen_problem(cfg.problem, seed=32)
        obj = build_objective(inst, cfg.problem.measurement)
        reg = estimate_regularity(inst, obj, seed=0)
        assert 0 < reg.alpha <= reg.beta


class TestRunSweep:
    def test_single_point_matches_run_solve(self, tmp_path):
        cfg = make_config(**{"out_dir": str(tmp_path / "sweep")})
        result = run_sweep(cfg)
        assert len(result.rows) == 1
        row = result.rows[0]
        inst = gen_problem(cfg.problem, seed=derive_seed(11, 0, 0))
        summary, _ = run_solve(inst, cfg)
        assert row["final_gap"] == summary.final_gap
        assert row["final_dist"] == summary.final_dist
        assert row["status"] == "ok"

    def test_trials_get_distinct_seeds(self, tmp_path):
        cfg = make_config(**{"sweep.trials": 5, "out_dir": str(tmp_path / "s")})
        result = run_sweep(cfg)
        seeds = [row["seed"] for row in result.rows]
        assert len(set(seeds)) == 5

    def test_recovery_improves_with_measurements(self, tmp_path):
        # doubling m should shrink the noise floor by ~sqrt(2) per step;
        # 7 trials keep the medians ahead of sampling noise
        cfg = make_config(**{"problem.k": 5, "problem.noise_level": 0.1,
                             "sweep.m": [10, 20, 40, 80], "sweep.trials": 7,
                             "solver.iters": 60,
                             "out_dir": str(tmp_path / "s")})
        result = run_sweep(cfg)
        med = [a["final_dist_median"] for a in result.aggregates]
        assert all(med[i + 1] <= med[i] for i in range(len(med) - 1))

    def test_sweep_csv_is_byte_stable(self, tmp_path):
        rows = []
        for sub in ("a", "b"):
            cfg = make_config(**{"sweep.m": [20, 40], "sweep.trials": 2,
                                 "out_dir": str(tmp_path / sub)})
            run_sweep(cfg)
            rows.append((tmp_path / sub / "sweep.csv").read_bytes())
        assert rows[0] == rows[1]

    def test_failures_recorded_not_raised(self, tmp_path):
        cfg = make_config(**{"solver.eta": 500.0, "sweep.trials": 2,
                             "out_dir": str(tmp_path / "s")})
        result = run_sweep(cfg)
        assert len(result.rows) == 2
        assert all(row["status"] == "divergence" for row in result.rows)
        assert all(row["final_dist"] is None for row in result.rows)
        text = (tmp_path / "s" / "sweep.csv").read_text()
        assert "divergence" in text


class TestEmitReport:
    def make_results(self, tmp_path, **patches):
        cfg = make_config(**{"problem.m": 400, "solver.iters": 50,
                             "out_dir": str(tmp_path / "s"), **patches})
        run_sweep(cfg)
        return tmp_path / "s"

    def test_passing_run_reports_no_violations(self, tmp_path):
        results = self.make_results(tmp_path)
        paths = emit_report(results)
        text = paths["report"].read_text()
        assert "PASS" in text
        assert "FAIL" not in text

    def test_short_runs_flagged_unrateable(self, tmp_path):
        results = self.make_results(tmp_path, **{"solver.iters": 1})
        text = emit_report(results)["report"].read_text()
        assert "unrateable" in text

    def test_report_is_byte_stable(self, tmp_path):
        results = self.make_results(tmp_path)
        first = {k: p.read_bytes() for k, p in emit_report(results).items()}
        second = {k: p.read_bytes() for k, p in emit_report(results).items()}
        assert first == second

    def test_plot_data_shape(self, tmp_path):
        results = self.make_results(tmp_path)
        paths = emit_report(results)
        gap_lines = paths["gap_plot"].read_text().splitlines()
        assert gap_lines[0] == "x\tseries\tvalue"
        assert len(gap_lines) > 10
        scatter = paths["rate_plot"].read_text().splitlines()
        assert scatter[0] == "x\tseries\tvalue"
        assert len(scatter) == 2  # one rateable run

    def test_rate_at_least_one_is_skipped(self, tmp_path):
        # m=12 measurements of a 6-dim range in R^40: the curvature ratio
        # makes the pgd theory rate far above 1, a bound that checks nothing
        results = self.make_results(tmp_path, **{
            "problem.n": 40, "problem.k": 6, "problem.m": 12,
            "sweep.trials": 3})
        with open(results / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert all(float(r["theory_rate"]) >= 1.0 for r in rows)
        text = emit_report(results)["report"].read_text()
        assert text.count("theory rate vacuous") == 3
        assert "PASS" not in text
        assert text.rstrip().endswith("3 runs, 0 pass, 0 fail, 3 skip")

    def test_divergent_run_marked(self, tmp_path):
        results = self.make_results(tmp_path, **{"solver.eta": 500.0})
        text = emit_report(results)["report"].read_text()
        assert "divergence" in text
