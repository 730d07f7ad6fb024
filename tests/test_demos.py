"""Every demo script, and the README's quick start, runs to completion
against the current package."""

import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _first_python_block(path) -> str:
    text = path.read_text()
    start = text.index("```python\n") + len("```python\n")
    return text[start:text.index("```", start)]


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS + [README], ids=lambda p: p.name)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if path == README:
        exec(compile(_first_python_block(path), str(path), "exec"), {})
    else:
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_cli_walkthrough_runs(tmp_path):
    # a `genpgd` command that runs this checkout's package, first on PATH
    shim = tmp_path / "bin" / "genpgd"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m genpgd.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(shim.parent), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        ["bash", str(ROOT / "demos" / "cli_walkthrough.sh")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    report = proc.stdout.split("== genpgd report: grade every run against its theory rate ==")
    assert len(report) == 2 and report[1].strip()
