"""Run the benchmark on a base revision and on the working tree, in
alternating pairs, and write the summary to a bench file.

    python3 tools/bench_pairs.py --base REV --workload relu-latentgd --pairs 5 \\
        --seed 11 --out BENCH_29.json

Both sides run from fresh temporary directories, removed at the end: the
base side holds the committed files of ``REV`` and the change side the
working tree's tracked files (``git stash create``, or ``HEAD`` when
nothing is modified), each unpacked with ``git archive``.  Pair i runs
``bench/run.py --workload W --seed S --seconds T --trace 0`` on both sides,
T being ``BENCHMARK.json``'s ``run_seconds``, the base first in even pairs
and the change first in odd ones, so a drift of the machine load falls on
both sides alike.

``OUT`` holds one entry per workload; a run replaces its workload's entry
and keeps the others.  An entry records the two sides, every run (its
end-to-end metrics, failure counts, environment block and fingerprint) and,
per end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles, the change of the medians, and how many pairs the change won
(was strictly better in).  The exit code is 1 when a run failed a check or
the two sides' fingerprints differ.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def directions() -> dict:
    """Each end-to-end metric's better direction, "lower" or "higher"."""
    return {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}


def order(i: int) -> tuple[str, str]:
    """The sides of pair ``i`` in the order they run."""
    return ("base", "change") if i % 2 == 0 else ("change", "base")


def quartiles(values) -> dict:
    """Median and quartiles (inclusive method: q1 and q3 of 5 values are
    the 2nd and 4th smallest)."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs, better: dict) -> dict:
    """Per metric of ``better``: both sides' quartiles over ``pairs`` (each
    ``{"base": run, "change": run}``, a run holding ``metrics``), the
    relative change of the medians and the pairs the change won."""
    out = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        qb, qc = quartiles(base), quartiles(change)
        out[name] = {
            "better": direction, "base": qb, "change": qc,
            "median_change": qc["median"] / qb["median"] - 1.0 if qb["median"] else None,
            "change_won": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
            "pairs": len(pairs),
        }
    return out


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``bench/run.py`` run in ``tree``: its metric values,
    counts, environment block and fingerprint."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        raise RuntimeError(
            f"bench/run.py in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    return {"exit": proc.returncode, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "environment": detail["environment"], "fingerprint": detail["fingerprint"]}


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=REPO, capture_output=True, text=True,
                          check=True).stdout.strip()


def _unpack(rev: str, into: str) -> Path:
    """The files of commit ``rev``, written to the directory ``into``."""
    archive = subprocess.run(["git", "archive", rev], cwd=REPO, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return Path(into)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision of the base side")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="bench file to write, e.g. BENCH_29.json")
    args = p.parse_args(argv)
    sha = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    revs = {"base": sha, "change": _git("stash", "create") or "HEAD"}
    seconds = BENCHMARK["run_seconds"]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: _unpack(rev, f"{tmp}/{side}") for side, rev in revs.items()}
        for i in range(args.pairs):
            pair = {"first": order(i)[0]}
            for side in order(i):
                pair[side] = run_bench(trees[side], args.workload, args.seed, seconds)
                m = pair[side]["metrics"]
                print(f"pair {i} {side:<6} " + " ".join(f"{k}={v:.4g}" for k, v in m.items()),
                      file=sys.stderr)
            pairs.append(pair)
    runs = [p[side] for p in pairs for side in ("base", "change")]
    ok = all(r["correct"] and r["exit"] == 0 for r in runs)
    same = len({r["fingerprint"] for r in runs}) == 1
    entry = {"base": sha, "change": {"head": _git("rev-parse", "HEAD"),
                                     "dirty": bool(_git("status", "--porcelain", "--", "src"))},
             "seed": args.seed, "seconds": seconds, "all_correct": ok,
             "same_fingerprint": same, "metrics": summarize(pairs, directions()),
             "pairs": pairs}
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"workloads": {}}
    doc["workloads"][args.workload] = entry
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, s in entry["metrics"].items():
        print(f"{name:<15} {s['base']['median']:.4g} -> {s['change']['median']:.4g} "
              f"won {s['change_won']}/{s['pairs']}")
    return 0 if ok and same else 1


if __name__ == "__main__":
    sys.exit(main())
