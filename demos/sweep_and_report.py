"""Run a small measurement-count sweep end to end and read the artifacts.

A sweep crosses the configured axes, solves every (point, trial) cell into
its own directory, and aggregates per-point medians into sweep.txt; the
report step grades each run against its theory rate and emits plot-ready
TSVs (columns x/series/value) for the gap curves and the rate scatter.
"""

import dataclasses
import tempfile
from pathlib import Path

from genpgd import (
    ExperimentConfig,
    GeneratorSpec,
    ProblemSpec,
    ProjectionConfig,
    SolverConfig,
    SweepSpec,
    emit_report,
    run_sweep,
)

cfg = ExperimentConfig(
    problem=ProblemSpec(n=40, k=4, generator=GeneratorSpec(kind="linear")),
    projection=ProjectionConfig(method="closed-form-linear"),
    solver=SolverConfig(iters=40),
    sweep=SweepSpec(m=(15, 30, 60), noise_level=(0.01,), trials=3),
    master_seed=7,
)

with tempfile.TemporaryDirectory() as d:
    rows = run_sweep(dataclasses.replace(cfg, out_dir=d))
    ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"swept {len(rows)} runs into {d} ({ok} ok)")
    print()
    print("--- sweep.txt (per-point aggregates) ---")
    print((Path(d) / "sweep.txt").read_text())

    paths = emit_report(d)
    print("--- report.txt (theory-rate verdicts) ---")
    print(Path(paths["report"]).read_text())
    gap_tsv = Path(paths["gap_plot"]).read_text().splitlines()
    print(f"gap plot data: {len(gap_tsv) - 1} rows, header {gap_tsv[0]!r}")
    print("feed the TSVs to any plotting tool; each series is one run label")
