"""tools/outputs_digest.py: the digest of every benchmark output file."""

import importlib.util
import json
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
