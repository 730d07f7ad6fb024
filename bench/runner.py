"""The benchmark's run logic: set-up timing, the closed loop timed against a
reference kernel, the paired traced loop, correctness verdicts and the
result record.  ``run.py`` is the
entry point; it times the package import before this module loads."""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import genpgd
import stats
import tracing
from workloads import WORKLOADS, OpResult

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
OUT = BENCH / "out"
SETUP_REPEATS = 5
MAX_PROBLEMS = 20


def _measure_setup(cmd) -> list[float]:
    """Median-ready set-up samples, each from a fresh process."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def _blas_threads():
    """Threads OpenBLAS reports, read through numpy's bundled library."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment(seed) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _attempt(wl, item, outdir):
    """Run one operation; an exception fails all of its solves."""
    shutil.rmtree(outdir, ignore_errors=True)
    try:
        return wl.run(item, outdir)
    except Exception as e:  # the loop must go on and count the failure
        traceback.print_exc(file=sys.stderr)
        return OpResult(solves=wl.solves_per_op, failed=wl.solves_per_op,
                        problems=[f"{type(e).__name__}: {e}"])


def _counts(ops) -> dict:
    attempted = sum(o.solves for o in ops)
    failed = sum(o.failed for o in ops)
    return {"attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted if attempted else 1.0,
            "problems": [p for o in ops for p in o.problems][:MAX_PROBLEMS]}


def _metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


# A fixed kernel shaped like genpgd's hot path: small matrix-vector products
# and an elementwise max driven from a Python loop, plus float formatting as
# in the artifact writers.  It does not touch genpgd, so no change to the
# package moves it; only the machine does.
_REF_RNG = np.random.default_rng(0)
_REF_W1 = _REF_RNG.standard_normal((20, 4))
_REF_W2 = _REF_RNG.standard_normal((60, 20))
_REF_Z = _REF_RNG.standard_normal(4)
REF_STEPS = 3000


def reference_s() -> float:
    """Wall time of the reference kernel, ~15 ms on the reference box."""
    w1, w2, z = _REF_W1, _REF_W2, _REF_Z
    t0 = time.perf_counter()
    for _ in range(REF_STEPS):
        b = w2 @ np.maximum(w1 @ z, 0.0)
        format(float(b[0]), ".17e")
    return time.perf_counter() - t0


def _untraced(wl, args, workdir, probe_cmd):
    setup = _measure_setup(probe_cmd)
    items = [wl.item(args.seed, i, workdir) for i in range(wl.pool)]
    leftover = tracing.wrapped_attributes(genpgd)
    if leftover:
        raise RuntimeError(f"untraced run found wrappers on {leftover}")
    outdir = workdir / "op"
    warm = _attempt(wl, items[0], outdir)

    # the reference kernel runs between consecutive operations; each
    # operation is timed in units of the mean of the two around it
    ops, refs = [], [reference_s()]
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < args.seconds:
        ops.append(_attempt(wl, items[len(ops) % len(items)], outdir))
        refs.append(reference_s())
    wall = time.perf_counter() - start

    done = [(o, 0.5 * (refs[i] + refs[i + 1])) for i, o in enumerate(ops) if o.samples]
    samples = [s for o, _ in done for s in o.samples]
    ref_samples = [s / ref for o, ref in done for s in o.samples]
    finished = sum(o.solves for o, _ in done)
    counts = _counts([warm] + ops)
    repeat_ok = bool(warm.fingerprint) and warm.fingerprint == ops[0].fingerprint
    correct = counts["failed"] == 0 and repeat_ok
    detail = dict(counts, ops=len(ops), loop_wall_s=wall, solve_samples=len(samples),
                  setup_samples_s=setup, reference_s=stats.median(refs),
                  outputs_repeat=repeat_ok, fingerprint=warm.fingerprint)
    if not samples:
        return correct, counts, {}, detail
    tail_s, tail_pct = stats.tail(samples)
    tail_ref, _ = stats.tail(ref_samples)
    detail.update(tail_percentile=tail_pct, seconds_metrics={
        "solve_s.p50": stats.median(samples),
        "solve_s.tail": tail_s,
        "solves_per_s": finished / sum(o.busy_s for o, _ in done),
    })
    metrics = {
        "solve_ref.p50": _metric(stats.median(ref_samples), "ref"),
        "solve_ref.tail": _metric(tail_ref, "ref"),
        "solves_per_ref": _metric(finished / sum(o.busy_s / ref for o, ref in done), "1/ref"),
        "recovered_frac": _metric(sum(o.recovered for o in ops) / sum(o.solves for o in ops),
                                  "fraction"),
        "setup_s": _metric(stats.median(setup), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                               "MB"),
    }
    return correct, counts, metrics, detail


def _subtree_leaf_calls(spans, root_name, leaf_name) -> int:
    """Calls of ``leaf_name`` made anywhere under spans named ``root_name``."""
    by_id = {s["id"]: s for s in spans}

    def under_root(span):
        while span is not None:
            if span["name"] == root_name:
                return True
            span = by_id.get(span["parent"])
        return False

    return sum(s["leaves"].get(leaf_name, (0, 0.0))[0] for s in spans if under_root(s))


def _layer_metrics(tracer, ops) -> tuple[dict, dict]:
    """Per-layer metrics over the counted traced operations, per solve."""
    n = sum(o.solves for o in ops)
    proj = [s for s in tracer.spans if s["name"] == "projection.project"]

    def calls(name):
        return tracer.calls(name) / n

    def secs(name):
        return tracer.seconds(name) / n

    def self_s(name):
        return tracer.self_seconds(name) / n

    def per_project(count):
        return count / len(proj) if proj else 0.0

    def p50(values):
        return stats.median(values) if values else 0.0

    m = {
        "generator.forward.calls": _metric(calls("generator.forward"), "calls/solve"),
        "generator.forward.s": _metric(secs("generator.forward"), "s/solve"),
        "generator.vjp.calls": _metric(calls("generator.vjp"), "calls/solve"),
        "generator.s": _metric(sum(secs(f"generator.{f}")
                                   for f in ("forward", "vjp", "forward_batch")), "s/solve"),
        "generator.flops": _metric(tracer.counters["flops"] / n, "flop/solve"),
        "projection.project.calls": _metric(calls("projection.project"), "calls/solve"),
        "projection.project.s": _metric(p50([s["end"] - s["start"] for s in proj]), "s"),
        "projection.project.self_s": _metric(p50([s["self_s"] for s in proj]), "s"),
        "projection.forward_per_project": _metric(per_project(_subtree_leaf_calls(
            tracer.spans, "projection.project", "generator.forward")), "calls/call"),
        "projection.vjp_per_project": _metric(per_project(_subtree_leaf_calls(
            tracer.spans, "projection.project", "generator.vjp")), "calls/call"),
        "projection.certified_frac": _metric(per_project(tracer.counters["certified"]),
                                             "fraction"),
        "projection.hard_threshold.calls": _metric(
            calls("projection.hard_threshold_coeffs"), "calls/solve"),
        "seeding.spawn_rng.calls": _metric(calls("seeding.spawn_rng"), "calls/solve"),
        "seeding.spawn_rng.s": _metric(secs("seeding.spawn_rng"), "s/solve"),
        "objective.value.calls": _metric(calls("objective.value"), "calls/solve"),
        "objective.value.s": _metric(secs("objective.value"), "s/solve"),
        "objective.gradient.calls": _metric(calls("objective.gradient"), "calls/solve"),
        "objective.gradient.s": _metric(secs("objective.gradient"), "s/solve"),
        "objective.estimate_diameter_gamma.s": _metric(
            secs("objective.estimate_diameter_gamma"), "s/solve"),
        "solver.iterations": _metric(sum(o.records for o in ops) / n, "records/solve"),
        "solver.default_step_size.s": _metric(secs("solver.default_step_size"), "s/solve"),
        "solver.loop.self_s": _metric(self_s("solver.epsilon_pgd") + self_s("solver.myopic_pgd"),
                                      "s/solve"),
        "solver.trace_to_csv.s": _metric(secs("solver.trace_to_csv"), "s/solve"),
        "harness.gen_problem.s": _metric(secs("harness.gen_problem"), "s/solve"),
        "harness.estimate_regularity.s": _metric(secs("harness.estimate_regularity"),
                                                 "s/solve"),
        "harness.run_solve.self_s": _metric(self_s("harness.run_solve"), "s/solve"),
        "harness.bytes_written": _metric(sum(o.bytes_written for o in ops) / n, "bytes/solve"),
        "harness.save_problem.calls": _metric(calls("harness.save_problem"), "calls/solve"),
        "harness.emit_report.calls": _metric(calls("harness.emit_report"), "calls/solve"),
        "cli.main.calls": _metric(calls("cli.main"), "calls/solve"),
    }
    functions = {name: {"calls": t[0] / n, "s": t[1] / n, "self_s": t[2] / n}
                 for name, t in sorted(tracer.totals.items())}
    bases = {"solves": n, "project_calls": len(proj)}
    return m, {"functions_per_solve": functions, "bases": bases}


def _traced(wl, args, workdir, probe_cmd):
    tracer = tracing.Tracer()
    items = []
    with tracing.traced(tracer, genpgd):
        for i in range(wl.counted):
            tracer.solve = i
            items.append(wl.item(args.seed, i, workdir))
    tracer.solve = None
    outdir = workdir / "op"
    warm = _attempt(wl, items[0], outdir)

    plain, traced_ops = [], []
    self_in_ops = 0.0
    metrics = layer_detail = None
    start = time.perf_counter()
    while len(traced_ops) < wl.counted or time.perf_counter() - start < args.seconds:
        i = len(traced_ops)
        if i >= len(items):
            items.append(wl.item(args.seed, i, workdir))
        # alternate which side goes first, so drift does not bias the overhead
        for traced_side in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_side:
                if tracing.wrapped_attributes(genpgd):
                    raise RuntimeError("untraced operation found wrappers installed")
                plain.append(_attempt(wl, items[i], outdir))
                continue
            tracer.solve = i
            before = tracer.root_total
            with tracing.traced(tracer, genpgd):
                traced_ops.append(_attempt(wl, items[i], outdir))
            tracer.solve = None
            if i < wl.counted:
                self_in_ops += tracer.root_total - before
        if len(traced_ops) == wl.counted:
            metrics, layer_detail = _layer_metrics(tracer, traced_ops)
            busy = sum(o.busy_s for o in traced_ops)
            metrics["trace.coverage"] = _metric(self_in_ops / busy if busy else 0.0,
                                                "fraction")

    plain_samples = [s for o in plain for s in o.samples]
    traced_samples = [s for o in traced_ops for s in o.samples]
    overhead = 0.0
    if plain_samples and traced_samples:
        overhead = stats.median(traced_samples) - stats.median(plain_samples)
    metrics["trace.overhead_s"] = _metric(overhead, "s")

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{wl.name}-seed{args.seed}.json"
    tracer.write(spans_file)
    counts = _counts(plain + traced_ops)
    repeat_ok = (bool(warm.fingerprint) and warm.fingerprint == plain[0].fingerprint
                 and plain[0].fingerprint == traced_ops[0].fingerprint)
    correct = counts["failed"] == 0 and warm.failed == 0 and repeat_ok
    detail = dict(counts, pairs=len(traced_ops), counted_ops=wl.counted,
                  outputs_repeat=repeat_ok, fingerprint=warm.fingerprint,
                  untraced_p50_s=stats.median(plain_samples) if plain_samples else None,
                  traced_p50_s=stats.median(traced_samples) if traced_samples else None,
                  spans_file=str(spans_file.relative_to(ROOT)), **layer_detail)
    return correct, counts, metrics, detail


def run(args, import_s, probe_cmd) -> int:
    """Run ``args.workload`` traced or untraced; print and save the result."""
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = WORK / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    measure = _traced if args.trace else _untraced
    try:
        correct, counts, metrics, detail = measure(wl, args, workdir, probe_cmd)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = dict(workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  correct=correct, import_s=import_s, environment=_environment(args.seed),
                  **detail)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0 if correct else 1
