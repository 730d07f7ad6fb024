"""Every demo script, and the README's quick start, runs to completion
against the current package; the README's config block is the schema."""

import dataclasses
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from genpgd import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _first_block(path, lang="python") -> str:
    text = path.read_text()
    start = text.index(f"```{lang}\n") + len(f"```{lang}\n")
    return text[start:text.index("```", start)]


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS + [README], ids=lambda p: p.name)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if path == README:
        exec(compile(_first_block(path), str(path), "exec"), {})
    else:
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_config_block_names_every_field():
    # the documented config loads, and each section lists exactly its
    # dataclass's fields, in order: a field added or dropped needs a doc line
    doc = json.loads(re.sub(r"[ \t]*//.*", "", _first_block(README, "jsonc")))
    ExperimentConfig.from_json(doc)

    def check(cls, section, where):
        assert list(section) == [f.name for f in dataclasses.fields(cls)], where
        for f in dataclasses.fields(cls):
            if dataclasses.is_dataclass(f.default_factory):
                check(f.default_factory, section[f.name], f"{where}.{f.name}")
    check(ExperimentConfig, doc, "config")


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
