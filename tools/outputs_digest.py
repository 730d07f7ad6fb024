"""Digest every output file the benchmark's workloads write, timings left out.

    python3 tools/outputs_digest.py --seed 11

Builds the items of each workload in ``bench/workloads.py`` (imported from
``bench/``, with the package from ``src/``, as ``bench/run.py`` does) and
runs the first ``ITEMS[name]`` of them, each into its own directory: all 48
linear-slack items, all 128 relu-latentgd items (a rare latent-gd row
shows in only a few of them) and the first 16 myopic-sweep passes.  Prints
one line per workload: a sha256 prefix over the (relative path, content)
pairs of every file written, and the file count.
The content of a ``trace.csv`` leaves out its ``wall_time_us`` column and
that of a ``summary.json`` its ``runtime`` block, so two trees that differ
only in timings have the same digest.  Two source trees compute the same
outputs when their digests agree at a few seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # the bench's one BLAS thread, so the bits match its runs

REPO = Path(__file__).resolve().parent.parent
for _dir in (REPO / "src", REPO / "bench"):
    if str(_dir) not in sys.path:
        sys.path.insert(0, str(_dir))

from workloads import WORKLOADS  # noqa: E402

ITEMS = {"linear-slack": 48, "relu-latentgd": 128, "myopic-sweep": 16}
DIGEST_CHARS = 16


def _content(path: Path) -> bytes:
    """The bytes of ``path`` that do not depend on timing."""
    data = path.read_bytes()
    if path.name == "trace.csv":
        lines = data.splitlines()
        if not lines[0].endswith(b",wall_time_us"):
            raise ValueError(f"{path}: last column is not wall_time_us")
        return b"\n".join(line.rsplit(b",", 1)[0] for line in lines)
    if path.name == "summary.json":
        doc = json.loads(data)
        del doc["runtime"]
        return json.dumps(doc, indent=2, sort_keys=True).encode()
    return data


def tree_digest(root) -> tuple[str, int]:
    """sha256 prefix over every file under ``root`` and the file count."""
    root = Path(root)
    h = hashlib.sha256()
    files = sorted(p for p in root.rglob("*") if p.is_file())
    for path in files:
        rel, content = path.relative_to(root).as_posix().encode(), _content(path)
        h.update(b"%d:%s%d:" % (len(rel), rel, len(content)) + content)
    return h.hexdigest()[:DIGEST_CHARS], len(files)


def run_items(name: str, seed: int, count: int, workdir) -> Path:
    """Run items 0..count-1 of workload ``name`` at ``seed``; returns the
    directory that holds their outputs, one subdirectory per item."""
    wl = WORKLOADS[name]
    workdir = Path(workdir)
    out = workdir / "out" / name
    for i in range(count):
        wl.run(wl.item(seed, i, workdir / "items" / name), out / f"item{i}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="outputs-digest-") as workdir:
        for name, count in ITEMS.items():
            digest, files = tree_digest(run_items(name, args.seed, count, workdir))
            print(f"{name:<14} {digest}  ({files} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
