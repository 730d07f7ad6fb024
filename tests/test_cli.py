"""Command line entry points and exit codes."""

import csv
import io
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest

import genpgd
import genpgd.harness
from genpgd.cli import main
from genpgd.harness import _SWEEP_COLUMNS, _run_trial
from genpgd.seeding import derive_seed
from genpgd.solver import TRACE_COLUMNS


_CALLER = os.getpid()


def _killed_at_trial_1(task):
    """``harness._run_trial``, except that the worker running trial 1 kills
    itself as the kernel's OOM killer would; module level, so the pool can
    send it to its workers by name.  Inline, trial 1 runs as usual."""
    if task[2]["trial"] == 1 and os.getpid() != _CALLER:
        os.kill(os.getpid(), signal.SIGKILL)
    return _run_trial(task)


def write_config(tmp_path, **patches):
    doc = {
        "problem": {
            "n": 30, "k": 4, "m": 40, "l": 0, "noise_level": 0.0,
            "generator": {"kind": "linear"}, "basis": None,
            "measurement": "linear",
        },
        "projection": {"method": "closed-form-linear"},
        "solver": {"iters": 30},
        "sweep": {"trials": 1},
        "out_dir": str(tmp_path / "out"),
        "master_seed": 7,
    }
    for dotted, value in patches.items():
        node = doc
        *parents, leaf = dotted.split(".")
        for p in parents:
            node = node[p]
        node[leaf] = value
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    return path


# the contents of a bad network file for a "file" generator; None writes no file
_BAD_NETWORKS = {"network-missing": None, "network-not-json": "{nope",
                 "network-layers-5": '{"layers": 5}'}


_MLP_NET = {"kind": "mlp", "widths": [8]}
# configs that every trial would reject: the first three as the config
# loads, the others as a trial builds its network or projection
_REJECTED = {
    "zero-width": ({"problem.generator": {"kind": "mlp", "widths": [0]}},
                   "widths must be a list of positive integers, got [0]"),
    "sigmoid": ({"problem.generator": {**_MLP_NET, "activation": "sigmoid"}},
                "unknown activation kind 'sigmoid'"),
    "relu-slope": ({"problem.generator": {**_MLP_NET, "slope": 0.2}},
                   "activation 'relu' takes no slope"),
    "grid_bounds-count": ({"problem.k": 2, "projection": {
        "method": "latent-gd", "restarts": 3, "inner_iters": 10,
        "grid_bounds": [[-3, 3]] * 3}}, "grid_bounds lists 3 intervals for latent dim 2"),
    "closed-form-on-mlp": ({"problem.generator": _MLP_NET},
                           "closed-form-linear needs a single identity-activation layer"),
    "grid-k4": ({"projection": {"method": "grid"}}, "grid projection requires k <= 3, got k=4"),
    "myopic-without-basis": ({"solver.mode": "myopic"},
                             "myopic mode needs an instance with a basis"),
}
# the faults of a projection or solver config, which `gen` never reads
_SOLVE_FAULTS = ("grid_bounds-count", "closed-form-on-mlp", "grid-k4", "myopic-without-basis")


def _paths(root):
    """Every path under ``root``, to check that a failed command made none."""
    return sorted(root.rglob("*"))


def _write_network(path, name):
    if _BAD_NETWORKS[name] is not None:
        path.write_text(_BAD_NETWORKS[name])


def _npy(M, **kwargs):
    buf = io.BytesIO()
    np.save(buf, M, **kwargs)
    return buf.getvalue()


def _npy_with_header(header, M):
    """The bytes of ``M`` behind a .npy header that says ``header``."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, header)
    return buf.getvalue() + M.tobytes()


def _npz(M):
    buf = io.BytesIO()
    np.savez(buf, M)
    return buf.getvalue()


def _oversized_header(M):
    # numpy refuses a header over 10000 bytes, in a message of three lines
    header = repr({"descr": "<f8", "fortran_order": False, "shape": M.shape})
    header = (header + " " * 20000 + "\n").encode()
    return b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header + M.tobytes()


_MANGLED_MATRICES = {
    "empty": lambda M: b"",
    "truncated": lambda M: _npy(M)[:-100],
    "text": lambda M: "\n".join(",".join(format(v, ".17e") for v in row) for row in M).encode(),
    "pickled-object-array": lambda M: _npy(M.astype(object), allow_pickle=True),
    "int-dtype": lambda M: _npy(M.astype(np.int64)),
    "one-dimensional": lambda M: _npy(M.ravel()),
    "big-endian": lambda M: _npy(M.astype(">f8")),
    "transposed": lambda M: _npy(np.ascontiguousarray(M.T)),
    "lying-header": lambda M: _npy_with_header(
        {"descr": "<f8", "fortran_order": False, "shape": (10**9, 10**6)}, M),
    # A: y no longer equals A x* + noise; basis: not orthonormal
    "scaled": lambda M: _npy(2.0 * M),
    "unclosed-header": lambda M: _npy(M).replace(b"}", b" ", 1),
    "oversized-header": _oversized_header,
    "npz-archive": _npz,
}


class TestGen:
    def test_writes_instance(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "instance.json").exists()
        assert (out / "A.npy").exists()
        assert str(out) in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["gen", "--config", str(cfg), "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "instance.json").read_bytes()
        b = (tmp_path / "b" / "instance.json").read_bytes()
        assert a == b

    def test_seed_flag_changes_instance(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["gen", "--config", str(cfg), "--out", str(tmp_path / "b"),
              "--seed", "99"])
        a = (tmp_path / "a" / "instance.json").read_bytes()
        b = (tmp_path / "b" / "instance.json").read_bytes()
        assert a != b


class TestSolve:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "trace.csv").exists()
        doc = json.loads((out / "summary.json").read_text())
        assert doc["status"] == "ok"
        assert "final_dist" in capsys.readouterr().out

    def test_solve_existing_instance(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen", "--config", str(cfg), "--out", str(tmp_path / "inst")])
        code = main(["solve", "--config", str(cfg), str(tmp_path / "inst"),
                     "--out", str(tmp_path / "res")])
        assert code == 0
        assert (tmp_path / "res" / "summary.json").exists()

    def test_solve_missing_instance_exit_code(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg), str(tmp_path / "nowhere")]) == 2

    def test_manifest_pointing_outside_the_instance_exit_code(self, tmp_path, capsys):
        # an instance.json alone, its manifest naming another instance's files
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "g1")]) == 0
        doc = json.loads((tmp_path / "g1" / "instance.json").read_text())
        doc["files"].update(A=str(tmp_path / "g1" / "A.npy"), network="../g1/network.json")
        (tmp_path / "g2").mkdir()
        (tmp_path / "g2" / "instance.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["solve", "--config", str(cfg), str(tmp_path / "g2"),
                     "--out", str(tmp_path / "res")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: instance at ") and err.count("\n") == 1
        assert not (tmp_path / "res").exists()
        # the unmodified instance still solves
        assert main(["solve", "--config", str(cfg), str(tmp_path / "g1"),
                     "--out", str(tmp_path / "res")]) == 0

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc["truth"].pop("noise"),
        lambda doc: doc["meta"].update(bogus=1),
        lambda doc: doc["files"].update(A="missing.csv"),
        lambda doc: doc["meta"].update(m=str(doc["meta"]["m"])),
        lambda doc: doc["meta"].update(k=7),
    ], ids=["missing-truth-noise", "unknown-meta-key", "missing-matrix-file",
            "string-meta-m", "meta-k-not-the-network-k"])
    def test_malformed_instance_exit_code(self, tmp_path, capsys, corrupt):
        cfg = write_config(tmp_path)
        inst = tmp_path / "inst"
        main(["gen", "--config", str(cfg), "--out", str(inst)])
        doc = json.loads((inst / "instance.json").read_text())
        corrupt(doc)
        (inst / "instance.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["solve", "--config", str(cfg), str(inst),
                     "--out", str(tmp_path / "res")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("mangle", _MANGLED_MATRICES.values(), ids=_MANGLED_MATRICES.keys())
    @pytest.mark.parametrize("name", ["A.npy", "basis.npy"])
    def test_corrupted_matrix_file_exit_code(self, tmp_path, capsys, name, mangle):
        cfg = write_config(tmp_path, **{"problem.basis": "random", "problem.l": 2})
        inst = tmp_path / "inst"
        main(["gen", "--config", str(cfg), "--out", str(inst)])
        (inst / name).write_bytes(mangle(np.load(inst / name)))
        capsys.readouterr()
        assert main(["solve", "--config", str(cfg), str(inst),
                     "--out", str(tmp_path / "res")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_huge_basis_entry_prints_one_error_line(self, tmp_path):
        # B^T B overflows; in a fresh process, as a user runs it, no numpy
        # warning may reach stderr before the error line
        cfg = write_config(tmp_path, **{"problem.basis": "random", "problem.l": 2})
        inst = tmp_path / "inst"
        main(["gen", "--config", str(cfg), "--out", str(inst)])
        B = np.load(inst / "basis.npy")
        B[0, 0] = 1e300
        np.save(inst / "basis.npy", B)
        src = os.path.dirname(os.path.dirname(genpgd.__file__))
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "genpgd.cli", "solve", "--config",
             str(cfg), str(inst), "--out", str(tmp_path / "res")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: basis is not orthonormal")

    def test_csv_instance_directory_exit_code(self, tmp_path, capsys):
        # the matrix format before .npy; `genpgd gen` regenerates such a directory
        cfg = write_config(tmp_path)
        inst = tmp_path / "inst"
        main(["gen", "--config", str(cfg), "--out", str(inst)])
        A = np.load(inst / "A.npy")
        (inst / "A.npy").unlink()
        (inst / "A.csv").write_bytes(_MANGLED_MATRICES["text"](A))
        doc = json.loads((inst / "instance.json").read_text())
        doc["files"]["A"] = "A.csv"
        (inst / "instance.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["solve", "--config", str(cfg), str(inst),
                     "--out", str(tmp_path / "res")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "A.csv" in err[0]

    def test_divergence_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, **{"solver.eta": 500.0})
        assert main(["solve", "--config", str(cfg)]) == 3
        assert not (tmp_path / "out").exists()  # its instance/ went with it

    def test_overflow_exit_code(self, tmp_path, capsys):
        # exp-link GLM with a huge step: the objective overflows (NumericError)
        cfg = write_config(tmp_path, **{"problem.measurement": "glm-exp",
                                        "solver.eta": 1e6, "solver.iters": 5})
        assert main(["solve", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_out_of_memory_exit_code(self, tmp_path, monkeypatch, capsys):
        # a stand-in: a truly oversized config could be granted under memory
        # overcommit and get the test process killed
        def oversized(spec, seed):
            raise MemoryError
        monkeypatch.setattr("genpgd.cli.gen_problem", oversized)
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "too large" in err[0]


class TestConfigErrors:
    def test_unknown_key_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bogus": 1}))
        assert main(["gen", "--config", str(path)]) == 2

    def test_projection_inner_step_is_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"projection.inner_step": 0.5})
        assert main(["gen", "--config", str(cfg)]) == 2
        assert "inner_step" in capsys.readouterr().err

    @pytest.mark.parametrize("generator,field", [
        ({"kind": "linear", "widths": [8, 9], "activation": "tanh", "slope": 0.3}, "widths"),
        ({"kind": "mlp", "widths": [20], "path": "net.json"}, "path"),
    ], ids=["linear-with-mlp-fields", "mlp-with-path"])
    def test_generator_field_of_another_kind_exit_code(self, tmp_path, capsys, generator,
                                                        field):
        # both configs used to exit 0: one wrote a single identity layer,
        # the other never read its path
        cfg = write_config(tmp_path, **{"problem.generator": generator})
        assert main(["gen", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and f"no {field}" in err[0]
        assert not (tmp_path / "out").exists()

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["gen", "--config", str(path)]) == 2

    @pytest.mark.parametrize("doc", [
        {"problem": 5}, {"solver": []}, [],
        {"sweep": {"m": 5}}, {"sweep": {"trials": 1.5}}, {"sweep": {"m": [40.5]}},
        {"problem": {"basis": "identity"}, "sweep": {"l": [True]}},
        {"sweep": {"noise_level": ["x"]}},
        {"solver": {"iters": "x"}}, {"solver": {"eta": "x"}}, {"problem": {"n": "a"}},
        {"projection": {"restarts": None}}, {"problem": {"generator": 3}},
        {"problem": {"noise_level": "nan"}}, {"problem": {"noise_level": float("nan")}},
        {"problem": {"noise_level": float("inf")}},
        *({section: {name: bad}} for section, name in (
            ("projection", "epsilon"), ("projection", "degrade_slack"),
            ("solver", "eta"), ("solver", "stop_gap"))
          for bad in (float("nan"), float("inf"))),
        {"out_dir": None}, {"out_dir": 5},
        {"problem": {"generator": {"kind": "mlp", "widths": ["a"]}}},
        {"problem": {"generator": {"kind": "mlp", "widths": 5}}},
        {"problem": {"generator": {"kind": "mlp", "widths": [20.5]}}},
        {"problem": {"generator": {"kind": "mlp", "widths": [20],
                                   "activation": "leaky-relu", "slope": "x"}}},
        {"problem": {"generator": {"kind": "file", "path": 5}}},
        {"projection": {"grid_bounds": "ab"}}, {"projection": {"grid_bounds": "12"}},
        {"projection": {"grid_bounds": []}}, {"projection": {"grid_bounds": [0, 1e999]}},
        {"projection": {"grid_bounds": [-1e308, 1e308]}},
        {"projection": {"grid_bounds": [[-1e308, 1e308], [0, 1]]}},
        {"problem": {"generator": {"kind": "mlp"}}},
        {"problem": {"generator": {"kind": "mlp", "widths": [], "activation": "tanh"}}},
        "network-missing", "network-not-json", "network-layers-5",
    ], ids=json.dumps)
    def test_malformed_config_exit_code(self, tmp_path, monkeypatch, capsys, doc):
        monkeypatch.chdir(tmp_path)  # an accepted config would write here
        if isinstance(doc, str):  # a generator read from a bad network file
            _write_network(tmp_path / "net.json", doc)
            doc = {"problem": {"generator": {"kind": "file", "path": "net.json"}}}
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        assert main(["gen", "--config", "bad.json"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("command", ["gen", "solve"])
    @pytest.mark.parametrize("patch", [
        {"projection.epsilon": 10 ** 400}, {"projection.degrade_slack": 10 ** 400},
        {"solver.eta": 10 ** 400}, {"solver.stop_gap": 10 ** 400},
        {"problem.noise_level": 10 ** 400}, {"sweep.noise_level": [0.0, 10 ** 400]},
        {"problem.generator": {"kind": "mlp", "widths": [20], "activation": "leaky-relu",
                               "slope": 10 ** 400}},
    ], ids=["epsilon", "degrade_slack", "eta", "stop_gap", "noise_level", "sweep-noise_level",
            "slope"])
    def test_integer_beyond_float_range_exit_code(self, tmp_path, capsys, command, patch):
        # JSON reads 10^400 as a Python int, which compares below float("inf")
        cfg = write_config(tmp_path, **patch)
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_missing_config_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["gen"])
        assert err.value.code == 2

    # the sparsity budget is the problem's; the solver section has no l
    @pytest.mark.parametrize("command", ["gen", "solve", "estimate", "sweep"])
    @pytest.mark.parametrize("mode", ["pgd", "myopic"])
    def test_solver_budget_is_an_unknown_key(self, tmp_path, capsys, command, mode):
        cfg = write_config(tmp_path, **{"problem.basis": "identity", "problem.l": 2,
                                        "solver": {"iters": 5, "mode": mode, "l": 31}})
        before = _paths(tmp_path)
        assert main([command, "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: unknown key 'l' in config.solver"]
        assert _paths(tmp_path) == before

    # a saved instance whose meta.l was edited above its n, on the
    # closed-form linear and the latent-gd mlp routes
    _ROUTES = {
        "linear": {},
        "mlp": {"problem.generator": {"kind": "mlp", "widths": [8]},
                "projection": {"method": "latent-gd", "restarts": 2, "inner_iters": 10}},
    }

    @pytest.mark.parametrize("mode", ["pgd", "myopic"])
    @pytest.mark.parametrize("route", list(_ROUTES))
    def test_saved_budget_above_n_exit_code(self, tmp_path, capsys, mode, route):
        cfg = write_config(tmp_path, **self._ROUTES[route], **{
            "problem.basis": "identity", "problem.l": 2,
            "solver": {"iters": 5, "mode": mode}})
        inst = tmp_path / "inst"
        assert main(["gen", "--config", str(cfg), "--out", str(inst)]) == 0
        capsys.readouterr()
        doc = json.loads((inst / "instance.json").read_text())
        doc["meta"]["l"] = 31
        (inst / "instance.json").write_text(json.dumps(doc))
        before = _paths(tmp_path)
        assert main(["solve", "--config", str(cfg), str(inst)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: meta l=31 must lie in [0, n=30]"]
        assert _paths(tmp_path) == before


    @pytest.mark.parametrize("mode", ["pgd", "myopic"])
    def test_saved_budget_without_a_basis_exit_code(self, tmp_path, capsys, mode):
        cfg = write_config(tmp_path, **{"solver": {"iters": 5, "mode": mode}})
        inst = tmp_path / "inst"
        assert main(["gen", "--config", str(cfg), "--out", str(inst)]) == 0
        capsys.readouterr()
        doc = json.loads((inst / "instance.json").read_text())
        doc["meta"]["l"] = 3
        (inst / "instance.json").write_text(json.dumps(doc))
        before = _paths(tmp_path)
        assert main(["solve", "--config", str(cfg), str(inst)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: meta l=3 > 0 needs a basis"]
        assert _paths(tmp_path) == before


class TestSweepAndReport:
    @pytest.mark.parametrize("axis,values,label", [
        ("sweep.m", [40, 40], "m40_l0_nl0_t0"),
        ("sweep.noise_level", [0.1, 0.1000001], "m40_l0_nl0.1_t0"),
        ("sweep.noise_level", [0.0, -0.0], "m40_l0_nl0_t0"),
    ])
    def test_points_sharing_a_run_directory_exit_2(self, tmp_path, capsys, axis, values, label):
        cfg = write_config(tmp_path, **{axis: values})
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert f"share the run label '{label}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_curvature_runs_solve_and_skip(self, tmp_path, capsys):
        # 3 rows against a 4-dimensional range: alpha = 0, so every run has
        # no theory rate, and the report skips it as vacuous
        cfg = write_config(tmp_path, **{"problem.m": 3, "solver.iters": 20})
        for seed in range(6):
            out = tmp_path / f"solve{seed}"
            assert main(["solve", "--config", str(cfg), "--seed", str(seed),
                         "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["regularity"]["alpha"] == 0.0 and summary["theory_rate"] is None
        cfg = write_config(tmp_path, **{"problem.m": 3, "solver.iters": 20, "sweep.trials": 3})
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert main(["report", str(tmp_path / "out")]) == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert report.count("theory rate vacuous") == 3
        assert "total: 3 runs, 0 pass, 0 fail, 3 skip" in report

    def test_sweep_then_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"sweep.m": [20, 40], "sweep.trials": 2})
        assert main(["sweep", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "sweep.csv").exists()
        assert (out / "sweep.txt").exists()
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert (out / "report.txt").exists()
        assert (out / "plot_gap_vs_t.tsv").exists()

    def test_saved_instance_solves_to_the_sweep_row(self, tmp_path):
        # each trial's saved instance/ is the instance the sweep solved
        cfg = write_config(tmp_path, **{
            "problem.basis": "random", "problem.l": 2, "solver.mode": "myopic",
            "sweep.m": [30, 40], "sweep.trials": 2})
        assert main(["sweep", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        with open(out / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4 and all(row["status"] == "ok" for row in rows)
        for row in rows:
            res = tmp_path / "res" / row["run"]
            assert main(["solve", "--config", str(cfg), str(out / row["run"] / "instance"),
                         "--out", str(res)]) == 0
            summary = json.loads((res / "summary.json").read_text())
            assert summary["final_dist"] == float(row["final_dist"])

    def test_gen_writes_the_first_trial_instance_of_a_sweep(self, tmp_path):
        cfg = write_config(tmp_path, **{
            "problem.basis": "random", "problem.l": 2, "problem.noise_level": 0.1,
            "sweep.m": [40, 20], "sweep.trials": 2})
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "gen")]) == 0
        assert main(["sweep", "--config", str(cfg)]) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as f:
            first = tmp_path / "out" / next(csv.DictReader(f))["run"] / "instance"
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in (tmp_path / "gen").iterdir())
        for name in names:
            assert (tmp_path / "gen" / name).read_bytes() == (first / name).read_bytes(), name

    @pytest.mark.parametrize("fails", [False, True])
    def test_sweep_leaves_no_worker_behind(self, tmp_path, monkeypatch, capsys, fails):
        # a MemoryError inside a worker exits 2 as it does inline
        real, caller = genpgd.harness.gen_problem, os.getpid()

        def in_a_worker(spec, seed):
            assert os.getpid() != caller, "trial ran outside a worker"
            if fails:
                raise MemoryError
            return real(spec, seed)
        monkeypatch.setattr("genpgd.harness.gen_problem", in_a_worker)
        monkeypatch.setattr("genpgd.harness._sweep_workers", lambda tasks: 2)
        cfg = write_config(tmp_path, **{"sweep.trials": 4})
        assert main(["sweep", "--config", str(cfg)]) == (2 if fails else 0)
        err = capsys.readouterr().err.splitlines()
        if fails:
            assert len(err) == 1 and err[0].startswith("error: ") and "too large" in err[0]
        else:
            assert err == []
        assert multiprocessing.active_children() == []

    def test_a_killed_worker_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("genpgd.harness._run_trial", _killed_at_trial_1)
        monkeypatch.setattr("genpgd.harness._sweep_workers", lambda tasks: 2)
        cfg = write_config(tmp_path, **{"sweep.trials": 4})
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a sweep worker died") and err.count("\n") == 1
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", list(_REJECTED))
    def test_sweep_of_a_rejected_config_exits_2(self, tmp_path, monkeypatch, capsys, name,
                                                workers):
        patches, message = _REJECTED[name]
        monkeypatch.setattr("genpgd.harness._sweep_workers", lambda tasks: workers)
        cfg = write_config(tmp_path, **patches, **{"sweep.trials": 2})
        before = _paths(tmp_path)
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert _paths(tmp_path) == before
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("network", list(_BAD_NETWORKS))
    def test_sweep_over_a_bad_network_file_exits_2(self, tmp_path, monkeypatch, capsys,
                                                   network, workers):
        # every trial reads the one file, so it fails the sweep as it fails `gen`
        monkeypatch.setattr("genpgd.harness._sweep_workers", lambda tasks: workers)
        _write_network(tmp_path / "net.json", network)
        cfg = write_config(tmp_path, **{
            "problem.generator": {"kind": "file", "path": str(tmp_path / "net.json")},
            "sweep.trials": 2})
        before = _paths(tmp_path)
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert _paths(tmp_path) == before
        assert multiprocessing.active_children() == []

    def test_sweep_survives_divergent_trials(self, tmp_path):
        cfg = write_config(tmp_path, **{"solver.eta": 500.0})
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert "divergence" in (tmp_path / "out" / "sweep.csv").read_text()

    def test_report_on_non_sweep_dir_exit_code(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 2

    def _swept(self, tmp_path):
        cfg = write_config(tmp_path, **{"solver.iters": 5})
        assert main(["sweep", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        return out, out / "m40_l0_nl0_t0" / "trace.csv"

    def test_report_on_short_trace_row_exit_code(self, tmp_path, capsys):
        out, trace = self._swept(tmp_path)
        with open(trace, "a") as f:
            f.write("1,2\n")
        assert main(["report", str(out)]) == 2
        assert "trace.csv line 8" in capsys.readouterr().err

    def test_report_on_non_numeric_trace_cell_exit_code(self, tmp_path):
        out, trace = self._swept(tmp_path)
        trace.write_text(trace.read_text().replace("\n1,", "\none,", 1))
        assert main(["report", str(out)]) == 2

    def test_report_on_missing_or_empty_trace_exit_code(self, tmp_path):
        out, trace = self._swept(tmp_path)
        trace.write_text("")
        assert main(["report", str(out)]) == 2
        trace.unlink()
        assert main(["report", str(out)]) == 2

    @pytest.mark.parametrize("mangle", [
        lambda cells: cells[:1] + ["4.5"] + cells[2:],  # non-integer m
        lambda cells: cells[:3],
        lambda cells: cells + ["extra"],
    ], ids=["non-integer-m", "short-row", "long-row"])
    def test_report_on_malformed_sweep_row_exit_code(self, tmp_path, capsys, mangle):
        out, _ = self._swept(tmp_path)
        sweep = out / "sweep.csv"
        lines = sweep.read_text().splitlines()
        lines[1] = ",".join(mangle(lines[1].split(",")))
        sweep.write_text("\n".join(lines) + "\n")
        assert main(["report", str(out)]) == 2
        assert "sweep.csv line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("status", ["weird", "error: KeyError", "OK", "",
                                        "error: ConfigError"])
    def test_report_on_unknown_status_exit_code(self, tmp_path, capsys, status):
        out, _ = self._swept(tmp_path)
        _set_cell(out / "sweep.csv", 1, _SWEEP_COLUMNS.index("status"), status)
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "unknown status" in err[0] and "sweep.csv line 2" in err[0]

    @pytest.mark.parametrize("status", [
        "divergence", "error: ContractError", "error: NumericError"])
    def test_report_reads_every_status_a_sweep_writes(self, tmp_path, status):
        out, _ = self._swept(tmp_path)
        _set_cell(out / "sweep.csv", 1, _SWEEP_COLUMNS.index("status"), status)
        assert main(["report", str(out)]) == 0
        assert f"status {status}  FAIL" in (out / "report.txt").read_text()

    def test_sweep_with_a_flat_start_completes(self, tmp_path):
        # at eta = 1e-6 the gap falls less than 1 % in 5 steps: the plateau
        # band reaches gaps[0] and the pre-plateau segment is empty
        cfg = write_config(tmp_path, **{"problem.k": 3, "solver.eta": 1e-6,
                                        "solver.iters": 20})
        assert main(["sweep", "--config", str(cfg)]) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as f:
            (row,) = csv.DictReader(f)
        assert row["status"] == "ok" and row["violations"] == ""
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "one")]) == 0

    @pytest.mark.parametrize("keep", ["header-only", "one-row", "no-gaps"])
    def test_report_skips_a_run_with_no_checked_steps(self, tmp_path, graded_sweep, keep):
        out = tmp_path / "out"
        shutil.copytree(graded_sweep, out)
        trace = out / "m90_l0_nl0_t0" / "trace.csv"
        lines = trace.read_text().splitlines()
        if keep == "no-gaps":
            for i in range(1, len(lines)):
                _set_cell(trace, i, TRACE_COLUMNS.index("gap"), "")
        else:
            trace.write_text("\n".join(lines[:1 if keep == "header-only" else 2]) + "\n")
        assert main(["report", str(out)]) == 0
        report = (out / "report.txt").read_text().splitlines()
        assert report[2].startswith("run m90_l0_nl0_t0: theory 7.318")
        assert report[2].endswith("no checked steps  SKIP")
        assert report[-1] == "total: 1 runs, 0 pass, 0 fail, 1 skip"
        # the empty count the sweep writes for such a run reads the same
        _set_cell(out / "sweep.csv", 1, _SWEEP_COLUMNS.index("violations"), "")
        assert main(["report", str(out)]) == 0
        assert (out / "report.txt").read_text().splitlines() == report


def _set_cell(path, line, column, value):
    """Overwrite one cell of a CSV artifact (``line`` 0 is the header)."""
    lines = path.read_text().splitlines()
    cells = lines[line].split(",")
    cells[column] = value
    lines[line] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def graded_sweep(tmp_path_factory):
    """A one-run sweep whose report grades its run: ``report.txt`` PASS."""
    base = tmp_path_factory.mktemp("graded")
    cfg = write_config(base, **{"problem.k": 3, "problem.m": 90, "solver.iters": 8})
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert main(["report", str(base / "out")]) == 0
    assert (base / "out" / "report.txt").read_text().splitlines()[2].endswith("PASS")
    return base / "out"


# what each mutation puts in place of one cell
_MUTATIONS = {"extra": lambda cell: [cell, "1"], "missing": lambda cell: [],
              "text": lambda cell: ["abc"], "inf": lambda cell: ["inf"],
              "nan": lambda cell: ["nan"], "empty": lambda cell: [""]}
# the cells a writer leaves empty: no truth, or no results for a failed trial;
# a graded run with checked steps always has a violations count
_EMPTY_OK = {"trace.csv": TRACE_COLUMNS[2:4], "sweep.csv": _SWEEP_COLUMNS[7:-1]}


@pytest.mark.parametrize("mutation", list(_MUTATIONS))
@pytest.mark.parametrize("name,column", [("sweep.csv", c) for c in _SWEEP_COLUMNS]
                         + [("trace.csv", c) for c in TRACE_COLUMNS])
def test_report_on_a_mutated_cell(tmp_path, capsys, graded_sweep, name, column, mutation):
    # report exits 0 or 2 with one error line; it rejects every cell the
    # writers never write and reads every cell they do
    out = tmp_path / "out"
    shutil.copytree(graded_sweep, out)
    path = out / name if name == "sweep.csv" else out / "m90_l0_nl0_t0" / name
    columns = _SWEEP_COLUMNS if name == "sweep.csv" else TRACE_COLUMNS
    lines = path.read_text().splitlines()
    i = 2 if name == "trace.csv" else 1  # a trace row inside the graded segment
    cells, j = lines[i].split(","), columns.index(column)
    cells[j:j + 1] = _MUTATIONS[mutation](cells[j])
    lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["report", str(out)])
    err = capsys.readouterr().err.splitlines()
    if mutation == "empty" and column in _EMPTY_OK[name]:
        assert code == 0 and err == []
    else:
        assert code == 2 and len(err) == 1 and err[0].startswith("error: ")
        # a run label of text points at a trace.csv that is not there
        relabeled = column == "run" and mutation in ("text", "inf", "nan")
        assert ("trace.csv" if relabeled else f"{name} line {i + 1}") in err[0]


_COMMANDS = {"gen": ["gen"], "solve": ["solve"], "estimate": ["estimate"],
             "estimate-out": ["estimate", "--out", "est"]}
_CONTRACT_CASES = [(name, command) for name in [*_REJECTED, *_BAD_NETWORKS]
                   for command in _COMMANDS
                   if not (command == "gen" and name in _SOLVE_FAULTS)]


class TestErrorContract:
    """`gen`, `solve` and `estimate` (with and without --out) fail a
    rejected config as `sweep` does: exit 2, the sweep's one `error:` line
    on stderr, nothing on stdout and no new path."""

    @pytest.mark.parametrize("name,command", _CONTRACT_CASES,
                             ids=[f"{n}-{c}" for n, c in _CONTRACT_CASES])
    def test_exit_2_with_the_sweeps_error_line(self, tmp_path, monkeypatch, capsys, name,
                                               command):
        monkeypatch.chdir(tmp_path)  # where `estimate --out est` writes
        if name in _REJECTED:
            patches = _REJECTED[name][0]
        else:
            _write_network(tmp_path / "net.json", name)
            patches = {"problem.generator": {"kind": "file", "path": str(tmp_path / "net.json")}}
        cfg = write_config(tmp_path, **patches)
        monkeypatch.setattr("genpgd.harness._sweep_workers", lambda tasks: 1)
        before = _paths(tmp_path)
        assert main(["sweep", "--config", str(cfg)]) == 2
        sweep_err = capsys.readouterr().err
        assert len(sweep_err.splitlines()) == 1 and sweep_err.startswith("error: ")
        assert main([*_COMMANDS[command], "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == sweep_err
        assert _paths(tmp_path) == before


class TestUnwritableOutput:
    """An output path under a regular file ends the command with exit 2 and
    one error line, not a traceback, and leaves the file as it was."""

    @pytest.mark.parametrize("argv", [
        ["gen", "--out", "{file}/x"], ["solve", "--out", "{file}"],
        ["estimate", "--out", "{file}/y"], ["sweep", "--out", "{file}"],
        ["report", "{file}"], ["report", "{swept}", "--out", "{file}"],
    ], ids=" ".join)
    def test_exit_code(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path)
        file = tmp_path / "file"
        file.write_text("not a directory\n")
        if argv[0] == "report":
            assert main(["sweep", "--config", str(cfg)]) == 0
            capsys.readouterr()
        else:
            argv = argv + ["--config", str(cfg)]
        argv = [a.format(file=file, swept=tmp_path / "out") for a in argv]
        before = _paths(tmp_path)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        err = err.splitlines()
        assert out == "" and len(err) == 1 and err[0].startswith("error: ")
        assert file.read_text() == "not a directory\n" and _paths(tmp_path) == before
        if argv == ["report", str(file)]:  # read before any directory is made
            assert err[0].startswith(f"error: cannot read {file / 'sweep.csv'}")


class TestFailedCommandCleanup:
    """A command that exits non-zero removes the output directory it
    created, with the parents it created for it; one that wrote into an
    existing directory leaves that directory and what it wrote there."""

    _MLP = {"problem.generator": {"kind": "mlp", "widths": [8]}}

    @pytest.mark.parametrize("out", ["out", "new/deep/out"])
    def test_solve_closed_form_on_an_mlp(self, tmp_path, capsys, out):
        cfg = write_config(tmp_path, **self._MLP)
        before = _paths(tmp_path)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: closed-form-linear needs a single identity-activation layer"]
        assert _paths(tmp_path) == before

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_an_existing_directory_stays(self, tmp_path, command):
        cfg = write_config(tmp_path, **self._MLP)
        (tmp_path / "out").mkdir()
        assert main([command, "--config", str(cfg)]) == 2
        run = "." if command == "solve" else "m40_l0_nl0_t0"
        instance = tmp_path / "out" / run / "instance"
        assert sorted(p.name for p in instance.iterdir()) == [
            "A.npy", "instance.json", "network.json"]

    def test_report_of_a_malformed_trace(self, tmp_path, capsys, graded_sweep):
        (tmp_path / "swept").mkdir()
        shutil.copytree(graded_sweep, tmp_path / "swept" / "out")
        (tmp_path / "swept" / "out" / "m90_l0_nl0_t0" / "trace.csv").write_text("t,f\n")
        before = _paths(tmp_path)
        assert main(["report", str(tmp_path / "swept" / "out"),
                     "--out", str(tmp_path / "new")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert _paths(tmp_path) == before

    def test_an_uncaught_exception_removes_it_too(self, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr("genpgd.cli.run_solve", interrupted)
        cfg = write_config(tmp_path)
        before = _paths(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            main(["solve", "--config", str(cfg)])
        assert _paths(tmp_path) == before


class TestEstimate:
    def test_prints_constants(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["estimate", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha"] > 0
        assert doc["beta"] >= doc["alpha"]
        assert 0 <= doc["mu"] < 1

    def test_writes_file_with_out(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["estimate", "--config", str(cfg),
                     "--out", str(tmp_path / "est")]) == 0
        doc = json.loads((tmp_path / "est" / "regularity.json").read_text())
        assert doc["beta"] >= doc["alpha"] > 0

    @pytest.mark.parametrize("patches", [
        {},
        {"problem.generator": {"kind": "mlp", "widths": [12]},
         "projection": {"method": "latent-gd", "restarts": 2, "inner_iters": 10},
         "solver.iters": 3},
        # the myopic bundle and solve both use the instance's budget, l = 3
        {"problem.l": 3, "problem.basis": "random", "solver.mode": "myopic",
         "solver.iters": 5},
        {"problem.l": 2, "problem.basis": "random", "problem.measurement": "glm-sigmoid",
         "solver.mode": "myopic", "solver.iters": 5},
    ], ids=["closed-form", "mlp", "myopic", "glm-myopic"])
    def test_matches_the_bundle_solve_records(self, tmp_path, capsys, patches):
        cfg = write_config(tmp_path, **patches)
        assert main(["estimate", "--config", str(cfg),
                     "--out", str(tmp_path / "est")]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "solve")]) == 0
        est = json.loads((tmp_path / "est" / "regularity.json").read_text())
        summary = json.loads((tmp_path / "solve" / "summary.json").read_text())
        assert printed == est == summary["regularity"]
        assert summary["eta"] == 1.0 / est["beta"]
        # and the library's bundle, in and out of a solve, field for field
        config = genpgd.harness.ExperimentConfig.from_file(cfg)
        inst = genpgd.harness.gen_problem(config.problem, derive_seed(config.master_seed, 0, 0))
        reg = genpgd.harness.estimate_regularity(inst, config)
        solved = genpgd.harness.run_solve(inst, config)[0].regularity
        for name in est:
            assert getattr(reg, name) == getattr(solved, name) == est[name], name
