"""genpgd benchmark: one workload, one process, a closed loop of solves.

    python3 bench/run.py --workload relu-latentgd --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  With ``--trace 0`` the run measures the end-to-end metrics with
no wrappers installed; with ``--trace 1`` it pairs each untraced operation
with a traced one and reports the per-layer metrics.  The last line of
standard output is the result object; the line before it, and a file under
``bench/out/``, hold the details (environment, sample counts, checks).  The
exit code is 1 when a correctness check failed and 2 when the package or the
workload is missing.  ``bench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

# one BLAS thread (nproc is 2 on the reference box): the matrices are tiny,
# and a second thread only adds synchronisation noise
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SRC = Path(__file__).resolve().parent.parent / "src"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time the import plus input building, print it, exit")
    return p.parse_args(argv)


def _setup_probe(args) -> int:
    """Set-up as a fresh process pays it: import genpgd, then build the
    workload's inputs (instances, or sweep config files)."""
    t0 = time.perf_counter()
    import genpgd  # noqa: F401
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = Path(__file__).resolve().parent / "_work" / f"setup-{os.getpid()}"
    try:
        t1 = time.perf_counter()
        for i in range(wl.pool):
            wl.item(args.seed, i, workdir)
        build_s = time.perf_counter() - t1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": import_s + build_s}))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if not (SRC / "genpgd" / "__init__.py").is_file():
        print(f"error: no genpgd package at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return _setup_probe(args)

    t0 = time.perf_counter()
    import genpgd  # noqa: F401
    import_s = time.perf_counter() - t0
    import runner

    probe_cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", *argv]
    return runner.run(args, import_s, probe_cmd)


if __name__ == "__main__":
    sys.exit(main())
