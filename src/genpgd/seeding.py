"""Deterministic hierarchical seed derivation.

Every random draw in the package starts here.  Most flow through a
``numpy.random.Generator`` whose seed is derived from an integer root seed
plus a tuple of integer coordinates (restart index, axis index, trial
index, ...); the degradation direction, keyed by the exact bits of a
vector, is read from a hash instead.  Derivation is pure, so changing one
leaf of an experiment tree never perturbs another.  The config checks
that every module shares, ``check_seed`` and ``finite_real``, live here.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import sys

import numpy as np

from .errors import ContractError


def check_seed(seed) -> int:
    """Validate that ``seed`` is a plain nonnegative integer and return it."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ContractError(f"seed must be a nonnegative integer, got {seed!r}")
    if seed < 0:
        raise ContractError(f"seed must be nonnegative, got {seed}")
    return int(seed)


def finite_real(v) -> bool:
    """Whether a config value is a number of float range: a bool is no
    number, and an integer beyond ``sys.float_info.max`` is no float."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def derive_seed(root: int, *coords: int) -> int:
    """Map (root, coords...) to a single derived seed, deterministically."""
    parts = [check_seed(root)] + [check_seed(c) for c in coords]
    return int(np.random.SeedSequence(parts).generate_state(1, dtype=np.uint64)[0])


def spawn_rng(root: int, *coords: int) -> np.random.Generator:
    """A fresh Generator seeded from (root, coords...)."""
    parts = [check_seed(root)] + [check_seed(c) for c in coords]
    return np.random.default_rng(np.random.SeedSequence(parts))


def _unit_direction(seed: int, x: np.ndarray, k: int) -> np.ndarray:
    """A uniformly distributed unit vector in R^k, a pure function of
    ``seed`` and the exact bits of ``x``: a SHAKE-256 digest of both gives
    53-bit uniforms, which Box–Muller turns into k normals."""
    key = b"%d:%b" % (int(seed), x.tobytes())  # the decimal seed ends at ":"
    digest = hashlib.shake_256(key).digest(16 * ((k + 1) // 2))
    normals = []
    for i in range(0, len(digest), 16):
        u = (int.from_bytes(digest[i:i + 8], "big") >> 11) + 1  # in (0, 2^53]: finite log
        r = math.sqrt(-2.0 * math.log(u * 2.0**-53))
        t = 2.0 * math.pi * (int.from_bytes(digest[i + 8:i + 16], "big") >> 11) * 2.0**-53
        normals += (r * math.cos(t), r * math.sin(t))
    norm = math.hypot(*normals[:k])
    return np.array(normals[:k]) / norm
