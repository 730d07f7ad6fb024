"""The benchmark's three workloads.

A workload builds its inputs from the workload seed (``item``: one instance,
or one sweep config), runs one closed-loop operation on an item (``run``)
and checks that operation's outputs.  Calls into genpgd go through module
attributes looked up at call time (``harness.run_solve``, ``cli.main``), so
the wrappers of a traced run see them.

Sizes, and why each workload exists, are in ``bench/README.md``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from genpgd import cli, harness
from genpgd.harness import ExperimentConfig, GeneratorSpec, ProblemSpec
from genpgd.projection import ProjectionConfig
from genpgd.solver import SolverConfig

from stats import tree_bytes


@dataclass
class OpResult:
    """What one operation did.  ``samples`` are its solve_s samples (one per
    solve, or one per sweep pass); ``busy_s`` is the wall time of its timed
    calls into genpgd; ``fingerprint`` digests the outputs that must repeat
    bit for bit when the same item is run again."""

    solves: int
    failed: int = 0
    recovered: int = 0
    samples: list = field(default_factory=list)
    busy_s: float = 0.0
    records: int = 0
    bytes_written: int = 0
    fingerprint: str = ""
    problems: list = field(default_factory=list)


def item_seed(salt: int, seed: int, i: int) -> int:
    """Instance seed for item ``i`` of a workload run with ``seed``."""
    return int(np.random.SeedSequence([salt, seed, i]).generate_state(1)[0])


def _rel_err(final_dist, x_star) -> float:
    return float(final_dist) / float(np.linalg.norm(x_star))


def _trace_digest(path) -> str:
    """sha256 of ``trace.csv`` without its ``wall_time_us`` column."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    keep = [j for j, name in enumerate(rows[0]) if name != "wall_time_us"]
    h = hashlib.sha256()
    for row in rows:
        h.update(",".join(row[j] for j in keep).encode() + b"\n")
    return h.hexdigest()


class ReluLatentGD:
    """pgd solves over a one-hidden-layer ReLU generator with the latent-gd
    projection, each run until the gap falls to GAP_RATIO of its start."""

    name = "relu-latentgd"
    solves_per_op = 1
    pool = 128
    counted = 10
    SPEC = ProblemSpec(n=60, k=4, m=40,
                       generator=GeneratorSpec(kind="mlp", widths=(20,)))
    PROJECTION = ProjectionConfig(method="latent-gd", restarts=10, inner_iters=50)
    ITERS = 30
    GAP_RATIO = 1e-3
    TOLERANCE = 0.1

    def item(self, seed, i, workdir):
        inst = harness.gen_problem(self.SPEC, item_seed(1, seed, i))
        # noiseless, so F(x*) = 0 and the gap at the zero start is F(0)
        start_gap = 0.5 * float(inst.y @ inst.y)
        cfg = ExperimentConfig(
            problem=self.SPEC, projection=self.PROJECTION,
            solver=SolverConfig(iters=self.ITERS, stop_gap=self.GAP_RATIO * start_gap))
        return inst, cfg

    def run(self, item, outdir):
        inst, cfg = item
        t0 = time.perf_counter()
        summary, trace = harness.run_solve(inst, cfg, out_dir=outdir)
        dt = time.perf_counter() - t0
        res = OpResult(solves=1, samples=[dt], busy_s=dt, records=len(trace.records),
                       bytes_written=tree_bytes(outdir),
                       fingerprint=_trace_digest(Path(outdir) / "trace.csv"))
        values = [v for r in trace.records for v in (r.f_value, r.gap, r.dist_to_truth)]
        if not all(math.isfinite(v) for v in values):
            res.failed = 1
            res.problems.append(f"seed {inst.meta.seed}: non-finite trace")
        res.recovered = int(_rel_err(summary.final_dist, inst.truth.x_star) <= self.TOLERANCE)
        return res


class LinearSlack:
    """The slack-floor study: one linear instance solved exactly and with
    two degraded projections; one operation is the three solves."""

    name = "linear-slack"
    solves_per_op = 3
    pool = 48
    counted = 4
    SPEC = ProblemSpec(n=100, k=5, m=40, generator=GeneratorSpec(kind="linear"))
    SLACKS = (0.0, 1e-4, 1e-2)
    ITERS = 200
    EXACT_TOLERANCE = 1e-8

    def item(self, seed, i, workdir):
        inst = harness.gen_problem(self.SPEC, item_seed(2, seed, i))
        cfgs = [ExperimentConfig(
                    problem=self.SPEC,
                    projection=ProjectionConfig(method="closed-form-linear", degrade_slack=s),
                    solver=SolverConfig(iters=self.ITERS))
                for s in self.SLACKS]
        return inst, cfgs

    @classmethod
    def tolerance(cls, slack) -> float:
        # a degraded projection leaves the iterate about sqrt(slack) off
        return cls.EXACT_TOLERANCE if slack == 0 else 2.0 * math.sqrt(slack)

    def run(self, item, outdir):
        inst, cfgs = item
        res = OpResult(solves=len(cfgs))
        summaries = []
        for j, cfg in enumerate(cfgs):
            out = Path(outdir) / f"slack{j}"
            t0 = time.perf_counter()
            summary, trace = harness.run_solve(inst, cfg, out_dir=out)
            res.samples.append(time.perf_counter() - t0)
            res.busy_s += res.samples[-1]
            res.records += len(trace.records)
            summaries.append(summary)
        res.bytes_written = tree_bytes(outdir)
        res.fingerprint = hashlib.sha256("".join(
            _trace_digest(Path(outdir) / f"slack{j}" / "trace.csv")
            for j in range(len(cfgs))).encode()).hexdigest()
        errs = [_rel_err(s.final_dist, inst.truth.x_star) for s in summaries]
        res.recovered = sum(e <= self.tolerance(s) for e, s in zip(errs, self.SLACKS))
        # an exact run that never plateaus is ranked by where it stopped
        levels = [s.plateau_level if s.plateau_level is not None else s.final_gap
                  for s in summaries]
        where = f"seed {inst.meta.seed}"
        if not all(a < b for a, b in zip(levels, levels[1:])):
            res.failed = len(cfgs)
            res.problems.append(f"{where}: plateau levels {levels} not ordered by slack")
        elif errs[0] >= self.EXACT_TOLERANCE:
            res.failed = 1
            res.problems.append(f"{where}: slack-0 relative error {errs[0]:.3e}")
        return res


class MyopicSweep:
    """``genpgd sweep`` then ``genpgd report`` through ``cli.main``; one
    operation is one sweep pass, and a solve is one trial of it."""

    name = "myopic-sweep"
    solves_per_op = 8
    pool = 64
    counted = 4
    CONFIG = {
        "problem": {"n": 100, "k": 5, "m": 80, "l": 2, "basis": "random",
                    "generator": {"kind": "linear"}},
        "projection": {"method": "closed-form-linear"},
        "solver": {"mode": "myopic", "iters": 100},
        "sweep": {"m": [80, 100], "l": [2, 4], "trials": 2},
    }
    TOLERANCE = 1e-3

    def item(self, seed, i, workdir):
        path = Path(workdir) / "configs" / f"sweep{i}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(dict(self.CONFIG, master_seed=item_seed(3, seed, i))))
        return path

    def run(self, item, outdir):
        outdir = str(outdir)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["sweep", "--config", str(item), "--out", outdir])]
            if codes[0] == 0:
                codes.append(cli.main(["report", outdir]))
        dt = time.perf_counter() - t0
        res = OpResult(solves=self.solves_per_op, busy_s=dt, bytes_written=tree_bytes(outdir))
        if codes != [0, 0]:
            res.failed = res.solves
            res.problems.append(f"{item.name}: exit codes {codes}")
            return res
        sweep_csv = Path(outdir) / "sweep.csv"
        res.fingerprint = hashlib.sha256(sweep_csv.read_bytes()).hexdigest()
        with open(sweep_csv, newline="") as f:
            rows = list(csv.DictReader(f))
        res.samples.append(dt / len(rows))
        for row in rows:
            if row["status"] != "ok":
                res.failed += 1
                res.problems.append(f"{item.name} {row['run']}: status {row['status']}")
                continue
            run_dir = Path(outdir) / row["run"]
            truth = json.loads((run_dir / "instance" / "instance.json").read_text())["truth"]
            res.recovered += _rel_err(row["final_dist"], truth["x_star"]) <= self.TOLERANCE
            with open(run_dir / "trace.csv") as f:
                res.records += sum(1 for _ in f) - 1
        if len(rows) != res.solves:
            res.failed = res.solves
            res.problems.append(f"{item.name}: {len(rows)} rows, expected {res.solves}")
        return res


WORKLOADS = {w.name: w for w in (ReluLatentGD(), LinearSlack(), MyopicSweep())}
