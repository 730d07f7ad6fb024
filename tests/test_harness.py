"""Instance generation, end-to-end solves, sweeps, and reports."""

import copy
import csv
import dataclasses
import json
import math
import multiprocessing
import numbers
import os
import re
import signal
import tempfile
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from genpgd.errors import ConfigError, ContractError, DivergenceError
from genpgd.generator import forward, network_to_json, save_network
from genpgd.harness import (
    ExperimentConfig,
    GeneratorSpec,
    ProblemInstance,
    ProblemSpec,
    SweepSpec,
    emit_report,
    estimate_regularity,
    gen_problem,
    load_problem,
    run_solve,
    run_sweep,
    save_problem,
)
from genpgd.harness import _read_matrix, _sweep_workers
from genpgd.objective import (
    Objective,
    RegularityEstimates,
    _NUM_PAIRS,
    _SumSetKernel,
    _curvature_bounds,
    _sampled_supports,
    estimate_diameter_gamma,
    estimate_incoherence,
    minkowski_curvature,
    subspace_curvature,
)
from genpgd.projection import ProjectionConfig, project
from genpgd.seeding import derive_seed, spawn_rng
from genpgd.solver import SolverConfig, contraction_factor, contraction_report, trace_from_csv


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


def _config_paths(cls, prefix=()):
    """Every key path of the config schema: each section and each leaf."""
    for f in dataclasses.fields(cls):
        yield prefix + (f.name,)
        if dataclasses.is_dataclass(f.default_factory):
            yield from _config_paths(f.default_factory, prefix + (f.name,))


def _numbers(node):
    """Every number held in a parsed config, through nested sections and
    tuples."""
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from _numbers(getattr(node, f.name))
    elif isinstance(node, tuple):
        for v in node:
            yield from _numbers(v)
    elif isinstance(node, numbers.Real) and not isinstance(node, bool):
        yield node


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


class TestExperimentConfig:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(path=st.sampled_from(sorted(_config_paths(ExperimentConfig))), value=_JSON_VALUES)
    @example(path=("projection", "epsilon"), value=math.nan)
    @example(path=("projection", "epsilon"), value=math.inf)
    @example(path=("problem", "generator", "slope"), value=math.nan)
    def test_any_json_value_parses_or_raises_a_config_error(self, path, value):
        # parse only: a mutated n or m may ask a solve for a huge array; an
        # accepted config holds only finite numbers (a nan or inf epsilon
        # would make every violation check pass)
        try:
            cfg = make_config(**{".".join(path): value})
        except (ConfigError, ContractError):
            return
        assert all(-math.inf < v < math.inf for v in _numbers(cfg))

    def test_per_axis_grid_bounds_from_json(self):
        cfg = make_config(**{"projection.grid_bounds": [[-1, 0], [0, 2]]})
        built = ProjectionConfig(method="closed-form-linear",
                                 grid_bounds=((-1.0, 0.0), (0.0, 2.0)))
        assert cfg.projection == built
        assert cfg.projection.grid_bounds == ((-1.0, 0.0), (0.0, 2.0))

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

    @pytest.mark.parametrize("dims", [{"problem.n": 0}, {"problem.k": 0}])
    def test_dimensions_at_least_one(self, dims):
        with pytest.raises(ConfigError, match="[nk] must be an integer >= 1"):
            make_config(**dims)

    # every count field of the config: its class, its name in the error and
    # the least value it takes
    COUNTS = [(ProjectionConfig, "restarts", "restarts", 1),
              (ProjectionConfig, "inner_iters", "inner_iters", 1),
              (ProjectionConfig, "grid_resolution", "grid_resolution", 2),
              (ProjectionConfig, "seed", "seed", 0),
              (SolverConfig, "iters", "iters", 1),
              (ProblemSpec, "n", "n", 1), (ProblemSpec, "k", "k", 1),
              (ProblemSpec, "m", "m", 1), (ProblemSpec, "l", "l", 0),
              (SweepSpec, "trials", "trials", 1),
              (ExperimentConfig, "master_seed", "master_seed", 0)]

    @pytest.mark.parametrize("cls,field,name,least", COUNTS,
                             ids=[f"{c.__name__}.{f}" for c, f, _, _ in COUNTS])
    @pytest.mark.parametrize("bad", ["bool", "float", "str", "below"])
    def test_count_fields_take_plain_integers(self, cls, field, name, least, bad):
        # a bool, a float, a string or a value under the bound: one
        # ConfigError naming the field, raised at construction
        value = {"bool": True, "float": 2.5, "str": "5", "below": least - 1}[bad]
        want = f"{name} must be an integer >= {least}, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            cls(**{field: value})

    def test_json_counts_are_typed_by_the_loader_first(self):
        with pytest.raises(ConfigError, match="config.projection.restarts must be a JSON integer"):
            make_config(**{"projection.restarts": 2.5})

    def test_linear_generator_needs_k_at_most_n(self):
        with pytest.raises(ConfigError, match="linear generator needs k <= n"):
            ProblemSpec(n=3, k=5)
        # an mlp may map up from a small output space (its widths warn instead)
        ProblemSpec(n=3, k=5, generator=GeneratorSpec(kind="mlp", widths=(8,)))

    @pytest.mark.parametrize("kind,field,value", [
        ("linear", "widths", [8, 9]), ("linear", "activation", "tanh"),
        ("linear", "slope", 0.3), ("linear", "path", "net.json"),
        ("file", "widths", [8]), ("file", "activation", "leaky-relu"), ("file", "slope", 0.3),
        ("mlp", "path", "net.json"),
    ])
    def test_generator_fields_belong_to_their_kind(self, kind, field, value):
        gen = {"kind": kind, field: value}
        if kind == "file":
            gen.setdefault("path", "net.json")
        with pytest.raises(ConfigError, match=f"generator kind '{kind}' takes no {field}"):
            make_config(**{"problem.generator": gen})

    def test_generator_defaults_stated_on_another_kind_are_accepted(self):
        # the defaults cannot be told from fields left out, "relu" included
        gen = {"kind": "linear", "widths": [], "activation": "relu", "slope": None, "path": None}
        assert make_config(**{"problem.generator": gen}) == make_config()

    def test_value_that_breaks_a_check_is_a_config_error(self):
        # from_json takes Python values too; an array's == has no truth value
        with pytest.raises(ConfigError, match="malformed config.problem"):
            make_config(**{"problem.basis": np.zeros(2)})

    @pytest.mark.parametrize("axis,values,label", [
        ("sweep.m", [20, 40, 20], "m20_l0_nl0_t0"),
        ("sweep.noise_level", [0.1, 0.1000001], "m40_l0_nl0.1_t0"),  # the same %g
        ("sweep.noise_level", [0.0, -0.0], "m40_l0_nl0_t0"),  # one point, named twice
    ])
    def test_sweep_points_need_distinct_run_labels(self, axis, values, label):
        with pytest.raises(ConfigError, match=f"share the run label '{label}'"):
            make_config(**{axis: values})

    def test_from_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(BASE))
        assert ExperimentConfig.from_file(path) == make_config()

    def test_sweep_defaults_to_single_point(self):
        cfg = make_config()
        assert [(s.m, s.l, s.noise_level) for s in cfg.sweep_points()] == [(40, 0, 0.0)]
        assert cfg.sweep_points() == [cfg.problem]


class TestGenProblem:
    def test_generator_file_round_trip(self, tmp_path):
        mlp = make_config(**{"problem.generator": {"kind": "mlp", "widths": [8]}})
        ref = gen_problem(mlp.problem, seed=12)
        save_network(ref.net, tmp_path / "net.json")
        spec = {"kind": "file", "path": str(tmp_path / "net.json")}
        inst = gen_problem(make_config(**{"problem.generator": spec}).problem, seed=12)
        assert network_to_json(inst.net) == network_to_json(ref.net)
        np.testing.assert_array_equal(inst.y, ref.y)
        np.testing.assert_array_equal(inst.truth.x_star, ref.truth.x_star)
        wrong_k = make_config(**{"problem.generator": spec, "problem.k": 5})
        with pytest.raises(ConfigError, match="maps 4 -> 30"):
            gen_problem(wrong_k.problem, seed=12)

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
        for name in ("instance.json", "A.npy", "network.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_corrupted_file_rejected(self, tmp_path):
        inst = gen_problem(make_config().problem, seed=14)
        save_problem(inst, tmp_path / "inst")
        doc = json.loads((tmp_path / "inst" / "instance.json").read_text())
        doc["truth"]["x_star"][0] += 0.5
        (tmp_path / "inst" / "instance.json").write_text(json.dumps(doc))
        with pytest.raises(ContractError):
            load_problem(tmp_path / "inst")

    @pytest.mark.parametrize("field,value,kind", [
        ("m", "15", "integer"), ("l", True, "integer"), ("n", 30.0, "integer"),
        ("seed", None, "integer"), ("noise_level", "0", "number"),
    ])
    def test_mistyped_meta_rejected(self, tmp_path, field, value, kind):
        inst = gen_problem(make_config().problem, seed=14)
        save_problem(inst, tmp_path / "inst")
        doc = json.loads((tmp_path / "inst" / "instance.json").read_text())
        doc["meta"][field] = value
        (tmp_path / "inst" / "instance.json").write_text(json.dumps(doc))
        with pytest.raises(ContractError, match=f"meta.{field} must be a JSON {kind}"):
            load_problem(tmp_path / "inst")

    @pytest.mark.parametrize("files", [
        {"A": "A.npy", "network": "network.json"},
        {"A": "A.npy", "network": "network.json", "basis": "basis.npy", "extra": None},
        {"A": "./A.npy", "network": "network.json", "basis": None},
        {"A": "A.npy", "network": "../g1/network.json", "basis": None},
        ["A.npy", "network.json", None],
    ])
    def test_manifest_names_only_the_written_files(self, tmp_path, files):
        inst = gen_problem(make_config().problem, seed=14)
        save_problem(inst, tmp_path / "inst")
        doc = json.loads((tmp_path / "inst" / "instance.json").read_text())
        assert doc["files"] == {"A": "A.npy", "network": "network.json", "basis": None}
        doc["files"] = files
        (tmp_path / "inst" / "instance.json").write_text(json.dumps(doc))
        with pytest.raises(ContractError, match="not the ones save_problem writes"):
            load_problem(tmp_path / "inst")

    def test_meta_k_disagreeing_with_the_network_rejected(self, tmp_path):
        inst = gen_problem(make_config().problem, seed=14)
        save_problem(inst, tmp_path / "inst")
        doc = json.loads((tmp_path / "inst" / "instance.json").read_text())
        doc["meta"]["k"] = 7
        (tmp_path / "inst" / "instance.json").write_text(json.dumps(doc))
        with pytest.raises(ContractError, match="meta k=7, n=30 does not match the network's "
                                                "k=4, n=30"):
            load_problem(tmp_path / "inst")

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (40, 100), (100, 100)])
    def test_matrix_npy_round_trip_bitwise(self, tmp_path, shape):
        rng = np.random.default_rng(sum(shape))
        M = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        special = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan]
        M.flat[: len(special)] = special[: M.size]
        np.save(tmp_path / "m.npy", M)
        back = _read_matrix(tmp_path / "m.npy", shape)
        assert type(back) is np.ndarray and back.dtype == np.float64
        assert np.array_equal(back.view(np.uint64), M.view(np.uint64))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(name=st.sampled_from(["instance.json", "A.npy", "basis.npy", "network.json"]),
           data=st.data())
    def test_mutated_files_load_consistently_or_raise_contract_error(self, name, data):
        # truncation or byte flips in any instance file: the load either
        # gives an instance whose identities hold or raises ContractError
        cfg = make_config(**{"problem.basis": "random", "problem.l": 2})
        with tempfile.TemporaryDirectory() as tmp:
            inst_dir = save_problem(gen_problem(cfg.problem, seed=16), Path(tmp) / "inst")
            raw = bytearray((inst_dir / name).read_bytes())
            if data.draw(st.booleans(), label="truncate"):
                del raw[data.draw(st.integers(0, len(raw) - 1), label="cut"):]
            else:
                # half the flips land in the first 128 bytes, a .npy header
                where = st.integers(0, len(raw) - 1) | st.integers(0, 127)
                flips = st.tuples(where, st.integers(0, 255))
                for i, byte in data.draw(st.lists(flips, min_size=1, max_size=4), label="flips"):
                    raw[i] = byte
            (inst_dir / name).write_bytes(raw)
            try:
                back = load_problem(inst_dir)
            except ContractError:
                return
        assert back.A.shape == (back.meta.m, back.meta.n)
        assert np.array_equal(back.A @ back.truth.x_star + back.truth.noise, back.y)
        if back.basis is not None:
            B = back.basis.matrix
            assert np.max(np.abs(B.T @ B - np.eye(back.meta.n))) <= 1e-8

    @pytest.mark.parametrize("patches", [{}, {"problem.basis": "random", "problem.l": 2}])
    def test_instance_file_matches_streaming_encoder(self, tmp_path, patches):
        inst = gen_problem(make_config(**patches).problem, seed=17)
        save_problem(inst, tmp_path / "inst")

        def vec(a):
            return None if a is None else [float(v) for v in a]

        truth = {name: vec(getattr(inst.truth, name))
                 for name in ("z_star", "nu_star", "x_star", "noise")}
        doc = {"format": "genpgd-instance", "meta": dataclasses.asdict(inst.meta),
               "truth": truth, "y": vec(inst.y),
               "files": {"A": "A.npy", "network": "network.json",
                         "basis": None if inst.basis is None else "basis.npy"}}
        with open(tmp_path / "ref.json", "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        assert ((tmp_path / "inst" / "instance.json").read_bytes()
                == (tmp_path / "ref.json").read_bytes())

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

    def test_noisy_solve_plateaus_below_zero(self):
        # noise puts the least-squares minimum below f(x*), so the gap
        # settles at a negative level; the plateau is found there
        cfg = make_config(**{"problem.n": 100, "problem.k": 5, "problem.m": 40,
                             "problem.noise_level": 0.1, "solver.iters": 100})
        summary, trace = run_solve(gen_problem(cfg.problem, seed=0), cfg)
        assert summary.final_gap < 0 and summary.plateau_level < 0
        assert summary.plateau_index == 16
        assert summary.plateau_level == float(np.median(trace.gaps()[11:]))

    def test_violation_floor_is_the_bundle_floor(self, tmp_path):
        # 2 gamma delta + beta (epsilon + degrade_slack), from the bundle
        # summary.json records, with the slack counted
        cfg = make_config(**{"problem.noise_level": 0.05, "solver.iters": 20,
                             "projection": {"method": "closed-form-linear",
                                            "epsilon": 1e-4, "degrade_slack": 1e-3}})
        run_solve(gen_problem(cfg.problem, seed=29), cfg, out_dir=tmp_path)
        doc = json.loads((tmp_path / "summary.json").read_text())
        reg = doc["regularity"]
        assert reg["gamma"] > 0 and reg["delta"] > 0
        assert doc["violation_floor"] == (2.0 * reg["gamma"] * reg["delta"]
                                          + reg["beta"] * (doc["epsilon"] + 1e-3))

    def test_null_eta_is_inverse_bundle_beta(self):
        cfg = make_config(**{"problem.generator": {"kind": "mlp", "widths": [8]},
                             "problem.n": 12, "problem.k": 2, "solver.iters": 3,
                             "projection": {"method": "latent-gd", "restarts": 2,
                                            "inner_iters": 10}})
        inst = gen_problem(cfg.problem, seed=27)
        summary, trace = run_solve(inst, cfg)
        assert summary.eta == trace.eta == 1.0 / summary.regularity.beta

    @pytest.mark.parametrize("measurement", ["glm-sigmoid", "glm-exp"])
    def test_glm_on_linear_generator_samples_the_curvature(self, measurement):
        # no exact oracle for a GLM: the bundle comes from sampled points
        cfg = make_config(**{"problem.measurement": measurement, "solver.iters": 20})
        inst = gen_problem(cfg.problem, seed=28)
        summary, _ = run_solve(inst, cfg)
        assert summary.status == "ok"
        assert np.isfinite([summary.final_f, summary.final_gap, summary.final_dist]).all()
        assert summary.regularity.num_samples == 400
        assert summary.eta == 1.0 / summary.regularity.beta

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
        summary, trace = run_solve(inst, cfg)
        assert summary.final_dist <= 1e-6
        # the solve thresholds to the instance's own budget, l = 3
        assert len(trace.sparse_nnz) == len(trace.records) and max(trace.sparse_nnz) == 3

    def test_divergence_propagates_with_trace(self):
        cfg = make_config(**{"solver.eta": 500.0})
        inst = gen_problem(cfg.problem, seed=26)
        with pytest.raises(DivergenceError) as err:
            run_solve(inst, cfg)
        assert err.value.trace is not None


class TestRejectedInstances:
    def inst(self):
        return gen_problem(make_config().problem, seed=15)

    @pytest.mark.parametrize("field,match", [("A", "A shape"), ("y", "y shape")])
    def test_arrays_must_match_meta(self, field, match):
        inst = self.inst()
        with pytest.raises(ContractError, match=match):
            dataclasses.replace(inst, **{field: getattr(inst, field)[:-1]})

    @pytest.mark.parametrize("l", [-1, 31])
    def test_budget_must_lie_in_zero_to_n(self, l):
        # the bound ProblemSpec puts on a config, so a hand-edited meta.l
        # never reaches a support draw of more than n coordinates
        inst = self.inst()
        with pytest.raises(ContractError, match=rf"^meta l={l} must lie in \[0, n=30\]$"):
            dataclasses.replace(inst, meta=dataclasses.replace(inst.meta, l=l))

    def test_meta_must_be_an_object(self, tmp_path):
        save_problem(self.inst(), tmp_path)
        doc = json.loads((tmp_path / "instance.json").read_text())
        doc["meta"] = list(doc["meta"].values())
        (tmp_path / "instance.json").write_text(json.dumps(doc))
        with pytest.raises(ContractError, match="meta must be a JSON object"):
            load_problem(tmp_path)

    def test_unknown_measurement(self):
        inst = self.inst()
        with pytest.raises(ContractError, match="measurement must be one of .*, got 'poisson'"):
            Objective("poisson", inst.A, inst.y)

    def test_sparsity_needs_a_basis(self):
        inst = self.inst()
        with pytest.raises(ConfigError, match="needs a basis"):
            estimate_regularity(inst, Objective("linear", inst.A, inst.y), sparsity=2)


class TestZeroCurvature:
    """A span wider than A has rows has the curvature alpha = 0 under every
    oracle: the solve runs, with no theory rate and so no violation count.
    Sampled pairs would read a small positive alpha there instead."""

    CONFIGS = {  # patches, and the pairs the curvature oracle samples
        "pgd, m < k": ({"problem.m": 3, "solver.iters": 20}, 0),
        "myopic, m < k + 2l": ({"problem.n": 100, "problem.k": 5, "problem.m": 12,
                                "problem.l": 4, "problem.basis": "random",
                                "solver.mode": "myopic", "solver.iters": 20}, 0),
        "glm-sigmoid, m < k": ({"problem.m": 3, "problem.measurement": "glm-sigmoid",
                                "solver.iters": 20}, _NUM_PAIRS),
        "relu mlp, m < k": ({"problem.m": 3, "problem.generator": {"kind": "mlp", "widths": [8]},
                             "projection": {"method": "latent-gd"}, "solver.iters": 20},
                            _NUM_PAIRS),
    }

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("name", CONFIGS)
    def test_solve_records_no_theory_rate(self, name, seed):
        patches, num_samples = self.CONFIGS[name]
        cfg = make_config(**patches, master_seed=seed)
        inst = gen_problem(cfg.problem, derive_seed(seed, 0, 0))
        summary, _ = run_solve(inst, cfg)
        assert summary.regularity.alpha == 0.0 and summary.regularity.beta > 0
        assert summary.regularity.num_samples == num_samples
        assert summary.theory_rate is None and summary.violations is None


class TestEstimateRegularity:
    def test_linear_least_squares_uses_exact_oracle(self):
        cfg = make_config()
        inst = gen_problem(cfg.problem, seed=30)
        obj = Objective(cfg.problem.measurement, inst.A, inst.y)
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
        obj = Objective(cfg.problem.measurement, inst.A, inst.y)
        reg = estimate_regularity(inst, obj, sparsity=3, seed=0)
        assert 0 < reg.alpha <= reg.beta
        assert 0 <= reg.mu < 1
        # the exact curvature is minkowski_curvature's, bit for bit
        W = inst.net.layers[0].weights
        assert (reg.alpha, reg.beta) == minkowski_curvature(
            inst.A, W, inst.basis, 3, seed=derive_seed(0, 0))

    def test_nonlinear_falls_back_to_sampling(self):
        cfg = make_config(**{"problem.generator": {"kind": "mlp", "widths": [8]},
                             "problem.n": 12, "problem.k": 2})
        inst = gen_problem(cfg.problem, seed=32)
        obj = Objective(cfg.problem.measurement, inst.A, inst.y)
        reg = estimate_regularity(inst, obj, seed=0)
        assert 0 < reg.alpha <= reg.beta


def _reference_regularity(inst, objective, sparsity, seed):
    """The bundle as the harness once assembled it from the objective's
    parts, with the truth support's coefficients above an absolute 1e-12."""
    net, basis = inst.net, inst.basis
    exact = net.is_single_affine and objective.measurement == "linear"
    alpha, beta = _curvature_bounds(objective, net, basis, sparsity, seed=derive_seed(seed, 0))
    if exact and sparsity > 0:
        supports = _sampled_supports(inst.meta.n, sparsity, spawn_rng(seed, 1))
        if inst.truth.nu_star is not None and inst.meta.l > 0:
            live = np.flatnonzero(np.abs(basis.matrix.T @ inst.truth.nu_star) > 1e-12)
            if live.size:
                supports.append(live)
        mu = _SumSetKernel(net.layers[0].weights, basis).incoherence(supports)
    else:
        mu = (estimate_incoherence(net, basis, sparsity,
                                   num_samples=_NUM_PAIRS, seed=derive_seed(seed, 1))
              if sparsity > 0 and not exact else 0.0)
    delta, gamma = estimate_diameter_gamma(
        net, objective=objective, x_star=inst.truth.x_star, seed=derive_seed(seed, 2))
    return RegularityEstimates(alpha=alpha, beta=beta, mu=mu, gamma=gamma, delta=delta,
                               num_samples=0 if exact else _NUM_PAIRS, seed=seed)


_MLP = {"kind": "mlp", "widths": [8]}


class TestRegularityReference:
    """Every route of the bundle gives the reference's bits."""

    @pytest.mark.parametrize("patches, sparsity, exact", [
        ({}, 0, True),  # exact subspace
        ({"problem.basis": "random", "problem.l": 3}, 3, True),  # sum set + truth support
        ({"problem.basis": "random"}, 2, True),  # l = 2 on an l = 0 instance
        ({"problem.generator": _MLP}, 0, False),  # sampled pairs
        ({"problem.basis": "random", "problem.l": 2,
          "problem.measurement": "glm-sigmoid"}, 2, False),  # refined sampled mu
        ({"problem.generator": _MLP, "problem.basis": "identity",
          "problem.l": 2}, 2, False),  # sampled sum-set points
    ])
    def test_bundle_matches_reference(self, patches, sparsity, exact):
        cfg = make_config(**patches)
        # at this seed the sum set's mu is the truth support's
        inst = gen_problem(cfg.problem, seed=89)
        obj = Objective(cfg.problem.measurement, inst.A, inst.y)
        got = estimate_regularity(inst, obj, sparsity=sparsity, seed=7)
        want = _reference_regularity(inst, obj, sparsity, seed=7)
        for f in dataclasses.fields(RegularityEstimates):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
        assert got.num_samples == (0 if exact else _NUM_PAIRS)
        assert (got.mu > 0) == (sparsity > 0)


class TestRunSweep:
    def test_single_point_matches_run_solve(self, tmp_path):
        cfg = make_config(**{"out_dir": str(tmp_path / "sweep")})
        rows = run_sweep(cfg)
        assert len(rows) == 1
        row = rows[0]
        inst = gen_problem(cfg.problem, seed=derive_seed(11, 0, 0))
        summary, _ = run_solve(inst, cfg)
        assert row["final_gap"] == summary.final_gap
        assert row["final_dist"] == summary.final_dist
        assert row["status"] == "ok"

    def test_trials_get_distinct_seeds(self, tmp_path):
        cfg = make_config(**{"sweep.trials": 5, "out_dir": str(tmp_path / "s")})
        seeds = [row["seed"] for row in run_sweep(cfg)]
        assert len(set(seeds)) == 5

    def test_recovery_improves_with_measurements(self, tmp_path):
        # doubling m should shrink the noise floor by ~sqrt(2) per step;
        # 7 trials keep the medians ahead of sampling noise
        cfg = make_config(**{"problem.k": 5, "problem.noise_level": 0.1,
                             "sweep.m": [10, 20, 40, 80], "sweep.trials": 7,
                             "solver.iters": 60,
                             "out_dir": str(tmp_path / "s")})
        rows = run_sweep(cfg)
        med = [np.median([r["final_dist"] for r in rows
                          if r["m"] == m and r["status"] == "ok"])
               for m in cfg.sweep.m]
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
        rows = run_sweep(cfg)
        assert len(rows) == 2
        assert all(row["status"] == "divergence" for row in rows)
        assert all(row["final_dist"] is None for row in rows)
        text = (tmp_path / "s" / "sweep.csv").read_text()
        assert "divergence" in text

    @pytest.mark.parametrize("patch", ["sweep.noise_level", "problem.noise_level"])
    def test_noise_minus_0_runs_as_0(self, tmp_path, patch):
        cfg = make_config(**{patch: [-0.0] if patch.startswith("sweep") else -0.0,
                             "solver.iters": 5, "out_dir": str(tmp_path / "s")})
        assert [r["run"] for r in run_sweep(cfg)] == ["m40_l0_nl0_t0"]
        lines = (tmp_path / "s" / "sweep.txt").read_text().splitlines()[2:]
        assert [line.split()[2:4] for line in lines] == [["0", "1/1"]]
        # `genpgd gen` writes the sweep's first trial, meta and all
        inst = gen_problem(cfg.problem, derive_seed(cfg.master_seed, 0, 0))
        assert math.copysign(1.0, inst.meta.noise_level) == 1.0
        save_problem(inst, tmp_path / "gen")
        assert ((tmp_path / "gen" / "instance.json").read_bytes()
                == (tmp_path / "s" / "m40_l0_nl0_t0" / "instance" / "instance.json").read_bytes())

    def _stubbed_sweep(self, tmp_path, monkeypatch):
        """A 12-point sweep run inline with each trial stubbed out; returns
        the trials' configs and the ProblemSpec constructions inside
        run_sweep."""
        cfg = make_config(**{"sweep.m": [10, 20, 30, 40], "sweep.noise_level": [0, 0.1, 0.2],
                             "sweep.trials": 2, "out_dir": str(tmp_path)})
        configs, built = [], []
        post_init = ProblemSpec.__post_init__

        def counted(spec):
            built.append(spec)
            post_init(spec)

        def stub(task):
            configs.append(task[0])
            return dict(task[2], status="ok", final_gap=None, final_dist=None,
                        fitted_rate=None, theory_rate=None, violations=None)
        monkeypatch.setattr(ProblemSpec, "__post_init__", counted)
        monkeypatch.setattr("genpgd.harness._run_trial", stub)
        monkeypatch.setattr("genpgd.harness._sweep_workers", lambda tasks: 1)
        assert len(run_sweep(cfg)) == 24
        return cfg, configs, built

    def test_each_point_is_built_twice(self, tmp_path, monkeypatch):
        # once by sweep_points, once as its own config validates: 2P, not P + P^2
        _, _, built = self._stubbed_sweep(tmp_path, monkeypatch)
        assert len(built) <= 2 * 12

    def test_trial_config_holds_only_its_point(self, tmp_path, monkeypatch):
        cfg, configs, _ = self._stubbed_sweep(tmp_path, monkeypatch)
        assert all(c.sweep == SweepSpec() for c in configs)
        assert [c.problem for c in configs[::2]] == cfg.sweep_points()
        assert [(c.problem.m, c.problem.noise_level) for c in configs[::2]] == [
            (m, nl) for m in (10, 20, 30, 40) for nl in (0.0, 0.1, 0.2)]


def _comparable_files(root):
    """Every file under ``root`` by relative path, less its timings: the
    ``wall_time_us`` column of a ``trace.csv`` and the ``runtime`` block of
    a ``summary.json``."""
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name == "trace.csv":
            lines = path.read_text().splitlines()
            assert lines[0].endswith(",wall_time_us")
            content = [line.rsplit(",", 1)[0] for line in lines]
        elif path.name == "summary.json":
            content = json.loads(path.read_text())
            del content["runtime"]
        else:
            content = path.read_bytes()
        files[str(path.relative_to(root))] = content
    return files


class TestParallelSweep:
    # glm-exp at a fixed step: some trials converge, some diverge, one overflows
    MIXED = {"problem.measurement": "glm-exp", "solver.eta": 1.2, "solver.iters": 20,
             "sweep.m": [10, 20, 40, 80], "sweep.trials": 3}

    def test_pool_writes_the_bytes_of_an_inline_sweep(self, tmp_path, monkeypatch):
        files, rows = {}, {}
        for name, workers in (("pool", lambda tasks: min(tasks, 3)),
                              ("inline", lambda tasks: 1)):
            monkeypatch.setattr("genpgd.harness._sweep_workers", workers)
            cfg = make_config(**self.MIXED, out_dir=str(tmp_path / name))
            rows[name] = run_sweep(cfg)
            emit_report(tmp_path / name)
            files[name] = _comparable_files(tmp_path / name)
        assert rows["pool"] == rows["inline"]
        assert {"ok", "divergence", "error: NumericError"} <= {r["status"] for r in rows["pool"]}
        # rows in (point, trial) order, in the result and in sweep.csv
        runs = [f"m{m}_l0_nl0_t{t}" for m in self.MIXED["sweep.m"] for t in range(3)]
        assert [r["run"] for r in rows["pool"]] == runs
        with open(tmp_path / "pool" / "sweep.csv", newline="") as f:
            assert [r["run"] for r in csv.DictReader(f)] == runs
        assert files["pool"].keys() == files["inline"].keys()
        for path, content in files["pool"].items():
            assert content == files["inline"][path], path

    def test_table_has_one_line_per_point_from_its_rows(self, tmp_path):
        rows = run_sweep(make_config(**self.MIXED, out_dir=str(tmp_path)))
        lines = (tmp_path / "sweep.txt").read_text().splitlines()[2:]
        assert len(lines) == len(self.MIXED["sweep.m"])
        for m, line in zip(self.MIXED["sweep.m"], lines):
            ok = [r for r in rows if r["m"] == m and r["status"] == "ok"]
            dist = [r["final_dist"] for r in ok]
            cells = line.split()
            assert cells[:4] == [str(m), "0", "0", f"{len(ok)}/3"]
            assert cells[4] == (f"{np.median(dist):.3e}" if dist else "-")
        assert {line.split()[3] for line in lines} >= {"0/3", "2/3"}

    def test_sweep_in_a_daemonic_worker_runs_inline(self, tmp_path, monkeypatch):
        # three usable CPUs would fork a pool, which a daemonic process may not
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        cfg = make_config(**{"sweep.trials": 2, "out_dir": str(tmp_path / "s")})
        worker = multiprocessing.get_context("fork").Process(
            target=run_sweep, args=(cfg,), daemon=True)
        worker.start()
        worker.join(timeout=120)
        assert worker.exitcode == 0  # None while it still runs
        assert len((tmp_path / "s" / "sweep.csv").read_text().splitlines()) == 3

    def test_a_killed_worker_raises_instead_of_hanging(self, tmp_path, monkeypatch):
        cfg = make_config(**{"sweep.trials": 4, "out_dir": str(tmp_path / "s")})
        doomed, caller = derive_seed(11, 0, 2), os.getpid()
        real = gen_problem

        def killed(spec, seed):
            if seed == doomed and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)  # as the OOM killer does
            return real(spec, seed)

        def sweep():  # in its own process, which a hang cannot stall
            try:
                run_sweep(cfg)
            except BrokenProcessPool:
                os._exit(0)
            os._exit(1)
        monkeypatch.setattr("genpgd.harness.gen_problem", killed)
        monkeypatch.setattr("genpgd.harness._sweep_workers", lambda tasks: 2)
        caller_process = multiprocessing.get_context("fork").Process(target=sweep)
        caller_process.start()
        caller_process.join(timeout=120)
        if caller_process.exitcode is None:
            caller_process.kill()
        assert caller_process.exitcode == 0

    def test_one_worker_without_cpu_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert _sweep_workers(8) == 1


class TestRejectedConfig:
    """A config that every trial would reject is a fault of the config, not
    a trial status: the loader raises it, or the sweep does, from a trial
    run inline or in a forked worker, and writes no sweep.csv."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("patches, message", [
        ({"problem.k": 2, "projection": {"method": "latent-gd", "restarts": 3, "inner_iters": 10,
                                         "grid_bounds": [[-3, 3]] * 3}},
         "grid_bounds lists 3 intervals for latent dim 2"),
        ({"problem.generator": _MLP}, "closed-form-linear needs a single identity-activation"),
    ], ids=["grid_bounds-count", "closed-form-on-mlp"])
    def test_run_sweep_raises_the_config_error(self, tmp_path, monkeypatch, patches, message,
                                               workers):
        monkeypatch.setattr("genpgd.harness._sweep_workers", lambda tasks: workers)
        cfg = make_config(**patches, **{"sweep.trials": 2, "out_dir": str(tmp_path)})
        with pytest.raises(ConfigError, match=message):
            run_sweep(cfg)
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("generator, message", [
        ({**_MLP, "activation": "sigmoid"}, "unknown activation kind 'sigmoid'"),
        ({**_MLP, "slope": 0.2}, "activation 'relu' takes no slope"),
    ], ids=["sigmoid", "relu-slope"])
    def test_activation_is_checked_as_the_config_loads(self, generator, message):
        with pytest.raises(ContractError, match=message):
            make_config(**{"problem.generator": generator})


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

    def test_rate_of_exactly_one_is_skipped(self, tmp_path):
        # a bound of exactly 1 admits any non-expanding gap sequence, so it
        # is vacuous too: the run that passes at its own rate is skipped
        results = self.make_results(tmp_path)
        sweep = results / "sweep.csv"
        header, row = sweep.read_text().splitlines()
        cells = row.split(",")
        assert header.split(",")[10] == "theory_rate" and float(cells[10]) < 1.0
        cells[10] = format(1.0, ".17e")
        sweep.write_text(f"{header}\n{','.join(cells)}\n")
        text = emit_report(results)["report"].read_text()
        assert "theory rate vacuous (1.000000e+00 >= 1)" in text
        assert text.rstrip().endswith("1 runs, 0 pass, 0 fail, 1 skip")

    def test_run_with_violations_fails(self, tmp_path):
        # a gap sequence that broke the bound: the recorded count decides
        results = self.make_results(tmp_path)
        sweep = results / "sweep.csv"
        header, row = sweep.read_text().splitlines()
        assert header.endswith(",violations") and row.endswith(",0")
        sweep.write_text(f"{header}\n{row[:-1]}2\n")
        text = emit_report(results)["report"].read_text()
        assert "violations 2/" in text and text.count("FAIL") == 1
        assert text.rstrip().endswith("1 runs, 0 pass, 1 fail, 0 skip")

    def test_divergent_run_marked(self, tmp_path):
        results = self.make_results(tmp_path, **{"solver.eta": 500.0})
        text = emit_report(results)["report"].read_text()
        assert "divergence" in text
