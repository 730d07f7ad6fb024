"""Deterministic hierarchical seed derivation.

Every random draw in the package starts here.  Most flow through a
``numpy.random.Generator`` whose seed is derived from an integer root seed
plus a tuple of integer coordinates (restart index, axis index, trial
index, ...); the degradation direction, keyed by the exact bits of a
vector, is read from a hash instead.  Derivation is pure, so changing one
leaf of an experiment tree never perturbs another.  The config checks
that every module shares, ``check_count`` and ``finite_real``, live here.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import struct
import sys

import numpy as np

from .errors import ContractError


def check_count(name: str, value, least: int = 0, error=ContractError) -> int:
    """``value`` as an int if it is a plain integer (not a bool) no smaller
    than ``least``, else ``error`` naming ``name``: a config class passes
    :class:`ConfigError`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def finite_real(v) -> bool:
    """Whether a config value is a number of float range: a bool is no
    number, and an integer beyond ``sys.float_info.max`` is no float."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def derive_seed(root: int, *coords: int) -> int:
    """Map (root, coords...) to a single derived seed, deterministically."""
    parts = [check_count("seed", c) for c in (root, *coords)]
    return int(np.random.SeedSequence(parts).generate_state(1, dtype=np.uint64)[0])


def spawn_rng(root: int, *coords: int) -> np.random.Generator:
    """A fresh Generator seeded from (root, coords...)."""
    parts = [check_count("seed", c) for c in (root, *coords)]
    return np.random.default_rng(np.random.SeedSequence(parts))


def _direction_reader(seed: int, k: int):
    """The map from x to a uniformly distributed unit vector in R^k, a pure
    function of ``seed`` and the exact bits of ``x``: a SHAKE-256 digest of
    both gives 53-bit uniforms, which Box–Muller turns into k normals.  The
    seed's key prefix and the digest's layout are resolved once."""
    prefix, words = b"%d:" % int(seed), 2 * ((k + 1) // 2)  # the decimal seed ends at ":"
    unpack = struct.Struct(">%dQ" % words).unpack

    def read(x: np.ndarray) -> np.ndarray:
        h = hashlib.shake_256(prefix)
        h.update(np.ascontiguousarray(x))  # the key ends with x's C-order bytes
        q = unpack(h.digest(8 * words))
        normals = []
        for i in range(0, words, 2):
            u = (q[i] >> 11) + 1  # in (0, 2^53]: finite log
            r = math.sqrt(-2.0 * math.log(u * 2.0**-53))
            t = 2.0 * math.pi * (q[i + 1] >> 11) * 2.0**-53
            normals += (r * math.cos(t), r * math.sin(t))
        norm = math.hypot(*normals[:k])
        return np.array([v / norm for v in normals[:k]])
    return read
