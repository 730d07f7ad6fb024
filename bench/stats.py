"""Summary arithmetic of the benchmark: medians, the tail percentile, the
computed work counts and the byte count of written outputs.

Pure functions of their inputs, so ``test_bench.py`` can pin them without
running a workload.
"""

from __future__ import annotations

import os
import statistics

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def median(samples) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return float(statistics.median(samples))


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile)``.  With n sorted samples that is the
    (n - beyond)-th smallest, at percentile ``100 (n - beyond) / n``.  Below
    ``2 * beyond`` samples that percentile would not exceed the median, so
    the median (percentile 50) is returned instead; the caller records the
    sample count next to it.
    """
    n = len(samples)
    if n < 2 * beyond:
        return median(samples), 50.0
    ordered = sorted(samples)
    return float(ordered[n - beyond - 1]), 100.0 * (n - beyond) / n


def layer_macs(net) -> int:
    """Multiply-accumulates of one forward pass: the sum over layers of
    out_dim * in_dim (bias adds and activations are not counted)."""
    return sum(layer.weights.size for layer in net.layers)


# forward: one pass.  vjp: the forward pass again, then one product with
# every transposed weight matrix.  forward_batch: one pass per column.
FLOPS_PER_MAC = {"forward": 2, "vjp": 4, "forward_batch": 2}


def generator_flops(name: str, net, batch: int = 1) -> int:
    """Computed flops of one generator call, 2 per multiply-accumulate;
    ``batch`` is the number of latent columns of a ``forward_batch``."""
    return FLOPS_PER_MAC[name] * layer_macs(net) * batch


def tree_bytes(path) -> int:
    """Total size of the regular files under ``path`` (0 if it is absent)."""
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total
