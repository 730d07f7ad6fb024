"""Command line entry points and exit codes."""

import json

import pytest

from genpgd.cli import main


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


class TestGen:
    def test_writes_instance(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "instance.json").exists()
        assert (out / "A.csv").exists()
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

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc["truth"].pop("noise"),
        lambda doc: doc["meta"].update(bogus=1),
        lambda doc: doc["files"].update(A="missing.csv"),
    ], ids=["missing-truth-noise", "unknown-meta-key", "missing-matrix-file"])
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

    def test_divergence_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, **{"solver.eta": 500.0})
        assert main(["solve", "--config", str(cfg)]) == 3


class TestConfigErrors:
    def test_unknown_key_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bogus": 1}))
        assert main(["gen", "--config", str(path)]) == 2

    def test_projection_inner_step_is_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"projection.inner_step": 0.5})
        assert main(["gen", "--config", str(cfg)]) == 2
        assert "inner_step" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["gen", "--config", str(path)]) == 2

    def test_missing_config_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["gen"])
        assert err.value.code == 2


class TestSweepAndReport:
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
        {"problem.generator": {"kind": "mlp", "widths": [12]},
         "projection": {"method": "latent-gd", "restarts": 2, "inner_iters": 10},
         "solver.iters": 3},
        # the solve's l (3) differs from the instance's (2)
        {"problem.l": 2, "problem.basis": "identity", "solver.mode": "myopic",
         "solver.l": 3, "solver.iters": 5},
    ], ids=["mlp", "myopic-solver-l"])
    def test_matches_the_bundle_solve_records(self, tmp_path, capsys, patches):
        cfg = write_config(tmp_path, **patches)
        assert main(["estimate", "--config", str(cfg),
                     "--out", str(tmp_path / "est")]) == 0
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "solve")]) == 0
        est = json.loads((tmp_path / "est" / "regularity.json").read_text())
        summary = json.loads((tmp_path / "solve" / "summary.json").read_text())
        assert est == summary["regularity"]
        assert summary["eta"] == 1.0 / est["beta"]
