"""tools/outputs_digest.py: the digest of every benchmark output file."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "outputs_digest.py"
_SPEC = importlib.util.spec_from_file_location("outputs_digest", _PATH)
digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest)


def _retime(root):
    """Give every timing under ``root`` a new value: each ``wall_time_us``
    cell of a trace.csv and each ``runtime`` entry of a summary.json."""
    for path in root.rglob("trace.csv"):
        header, *rows = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(header + b"".join(r.rsplit(b",", 1)[0] + b",4.2e+01\r\n" for r in rows))
    for path in root.rglob("summary.json"):
        doc = json.loads(path.read_text())
        doc["runtime"] = {name: 42.0 for name in doc["runtime"]}
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", sorted(digest.ITEMS))
def test_digest_repeats_and_ignores_timings(tmp_path, name):
    roots = [digest.run_items(name, 11, 1, tmp_path / f"run{i}") for i in range(2)]
    first = digest.tree_digest(roots[0])
    assert first[1] > 0 and digest.tree_digest(roots[1]) == first
    _retime(roots[1])
    assert digest.tree_digest(roots[1]) == first
    # any other change shows: a final value of one solve
    summary = next(roots[1].rglob("summary.json"))
    doc = json.loads(summary.read_text())
    doc["final_f"] += 1.0
    summary.write_text(json.dumps(doc))
    assert digest.tree_digest(roots[1]) != first


_CL_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_CL_SPEC = importlib.util.spec_from_file_location("code_lines", _CL_PATH)
code_lines = importlib.util.module_from_spec(_CL_SPEC)
_CL_SPEC.loader.exec_module(code_lines)

_FIXTURE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps its line

# a comment alone


class C:
    """Class docstring."""

    x = """not a docstring,
    an assignment"""

    def f(self):
        """Function docstring."""
        return os.sep


async def g():
    "one-line docstring"
    return [
        1,
    ]
'''


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    # code: import, class, both lines of x, def, return, async def, the list's 3 lines
    assert code_lines.count(_FIXTURE) == (24, 10)


def test_code_lines_prints_each_module_and_the_sum(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[1:]] == [
        ["a.py", "24", "10"], ["b.py", "3", "1"], ["sum", "27", "11"]]


_BP_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_BP_SPEC = importlib.util.spec_from_file_location("bench_pairs", _BP_PATH)
bench_pairs = importlib.util.module_from_spec(_BP_SPEC)
_BP_SPEC.loader.exec_module(bench_pairs)


def _fake_run(**metrics):
    return {"metrics": metrics}


def test_bench_pairs_summary_arithmetic():
    base_p50 = [1.66, 1.62, 1.70, 1.65, 1.63]
    change_p50 = [1.50, 1.49, 1.52, 1.70, 1.51]  # the change loses pair 3
    base_rate = [0.57, 0.56, 0.58, 0.57, 0.55]
    change_rate = [0.63, 0.55, 0.62, 0.64, 0.60]  # and its rate pair 1
    pairs = [{"base": _fake_run(p50=b, rate=br), "change": _fake_run(p50=c, rate=cr)}
             for b, c, br, cr in zip(base_p50, change_p50, base_rate, change_rate)]
    got = bench_pairs.summarize(pairs, {"p50": "lower", "rate": "higher"})
    p50 = got["p50"]
    # inclusive quartiles of 5 values: the 2nd, 3rd and 4th smallest
    assert p50["base"] == {"median": 1.65, "q1": 1.63, "q3": 1.66}
    assert p50["change"] == {"median": 1.51, "q1": 1.50, "q3": 1.52}
    assert p50["median_change"] == pytest.approx(1.51 / 1.65 - 1)
    assert (p50["change_won"], p50["pairs"], p50["better"]) == (4, 5, "lower")
    rate = got["rate"]
    assert rate["base"] == {"median": 0.57, "q1": 0.56, "q3": 0.57}
    assert rate["change_won"] == 4
    # a tie is no win, and one pair has its value as every quartile
    one = bench_pairs.summarize([{"base": _fake_run(p50=2.0), "change": _fake_run(p50=2.0)}],
                                {"p50": "lower"})["p50"]
    assert one["base"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert one["change_won"] == 0 and one["median_change"] == 0.0


def test_bench_pairs_alternate_and_cover_every_end_to_end_metric():
    assert [bench_pairs.order(i) for i in range(3)] == [
        ("base", "change"), ("change", "base"), ("base", "change")]
    assert bench_pairs.directions() == {
        "solve_ref.p50": "lower", "solve_ref.tail": "lower", "solves_per_ref": "higher",
        "recovered_frac": "higher", "setup_s": "lower", "peak_rss_mb": "lower"}


def _git(repo, *args):
    return subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True,
                          check=True).stdout.strip()


def test_bench_pairs_records_the_src_tree_each_side_unpacks(tmp_path, monkeypatch):
    # a throwaway repository: one commit, then an edit under src/ left
    # uncommitted; commits and stashes need an identity, set for both tools
    for role in ("AUTHOR", "COMMITTER"):
        monkeypatch.setenv(f"GIT_{role}_NAME", "t")
        monkeypatch.setenv(f"GIT_{role}_EMAIL", "t@example.com")
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "a.py").write_text("x = 1\n")
    (repo / "README").write_text("r\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "one")
    head, head_src = _git(repo, "rev-parse", "HEAD"), _git(repo, "rev-parse", "HEAD:src")
    monkeypatch.setattr(bench_pairs, "REPO", repo)
    clean = bench_pairs.sides("HEAD")
    assert clean == {"base": {"rev": head, "src_tree": head_src},
                     "change": {"rev": head, "src_tree": head_src}}
    (repo / "src" / "a.py").write_text("x = 2\n")
    dirty = bench_pairs.sides("HEAD")
    assert dirty["base"] == clean["base"] and dirty["change"]["rev"] != head
    # the change side is the working tree: committing it gives the same src tree
    _git(repo, "commit", "-q", "-am", "two")
    assert dirty["change"]["src_tree"] == _git(repo, "rev-parse", "HEAD:src") != head_src
    assert bench_pairs._unpack(dirty["change"]["rev"], tmp_path / "out") == tmp_path / "out"
    assert (tmp_path / "out" / "src" / "a.py").read_text() == "x = 2\n"


def test_bench_pairs_keeps_one_entry_per_workload_and_seed(tmp_path):
    out = tmp_path / "BENCH.json"
    bench_pairs.store(out, "relu-latentgd", 11, {"v": 1})
    bench_pairs.store(out, "relu-latentgd", 5, {"v": 2})
    bench_pairs.store(out, "relu-latentgd", 11, {"v": 3})
    assert json.loads(out.read_text()) == {"workloads": {
        "relu-latentgd@11": {"v": 3}, "relu-latentgd@5": {"v": 2}}}
    # a file keyed by workload alone is left as it is, not mixed with this layout
    old = tmp_path / "OLD.json"
    old.write_text(json.dumps({"workloads": {"relu-latentgd": {"v": 0}}}))
    with pytest.raises(SystemExit, match="workload alone"):
        bench_pairs.store(old, "relu-latentgd", 11, {"v": 1})
    assert json.loads(old.read_text()) == {"workloads": {"relu-latentgd": {"v": 0}}}
