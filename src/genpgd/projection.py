"""Approximate and exact projection onto the range of a generator.

Three routes are provided.  ``closed-form-linear`` is the exact least-squares
projection available when the generator is a single affine layer; ``grid``
certifies a best-on-grid point for latent dimension at most 3; ``latent-gd``
runs multi-restart Levenberg–Marquardt in latent space and never certifies
optimality (the landscape is nonconvex).  Hard thresholding of analysis
coefficients in an orthonormal basis, the exact projection onto the set of
basis-sparse vectors, lives here too.
"""

from __future__ import annotations

import functools
import hashlib
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ContractError
from .generator import GeneratorNetwork, _forward_jacobian, forward, forward_batch
from .generator import vjp  # noqa: F401  (bench/test_bench.py traces it through this module)
from .seeding import check_seed, spawn_rng

__all__ = [
    "OrthoBasis",
    "ProjectionConfig",
    "ProjectionResult",
    "project",
    "hard_threshold",
    "hard_threshold_coeffs",
]

_METHODS = ("closed-form-linear", "latent-gd", "grid")


@dataclass(frozen=True)
class OrthoBasis:
    """An n-by-n orthonormal matrix; columns are the analysis directions."""

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ContractError(f"basis must be square, got shape {M.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries overflow
            dev = np.max(np.abs(M.T @ M - np.eye(len(M)))) if np.isfinite(M).all() else np.nan
        if not dev <= 1e-8:  # a NaN deviation fails too
            raise ContractError(f"basis is not orthonormal (max |B^T B - I| = {dev:.3e})")
        object.__setattr__(self, "matrix", M)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, n: int) -> "OrthoBasis":
        return cls(np.eye(n))

    @classmethod
    def random(cls, n: int, seed: int) -> "OrthoBasis":
        """Haar-distributed orthonormal basis (QR with sign correction)."""
        rng = spawn_rng(seed)
        Q, R = np.linalg.qr(rng.standard_normal((n, n)))
        return cls(Q * np.sign(np.diag(R)))


@dataclass(frozen=True)
class ProjectionConfig:
    """How to project onto a generator range.

    ``epsilon`` is the advertised slack of the oracle: a certified result
    promises squared residual within ``epsilon`` of the true minimum over the
    range.  ``degrade_slack`` deliberately perturbs an otherwise certified
    output along the range by (up to) that much squared residual; it exists
    to study how solvers respond to inexact oracles.  On a single affine
    layer the step along the range is the closed-form root of the quadratic
    residual; on any other network it is found by bisection to float
    resolution.  ``grid_bounds`` is the latent search box, one ``(lo, hi)``
    pair for every coordinate or one pair per coordinate (default (-3, 3)
    per coordinate), stored as a tuple of float pairs: the grid method
    evaluates on a mesh over it, and latent-gd samples restart points
    from it.

    ``latent-gd`` runs ``restarts`` Levenberg–Marquardt descents on
    z -> 0.5 ||x - G(z)||^2.  ``inner_iters`` caps the accepted steps of
    each (one Jacobian and one damped k-by-k solve per step).  The restarts
    run in lockstep, one batched solve and one batched generator evaluation
    per round, but each keeps its own damping and stopping rules, so every
    restart ends where it would have ended alone.  Restart 0, the origin,
    never moves on a zero-bias ReLU network (J(0) = 0): 10 restarts, 9 descents.
    """

    method: str = "latent-gd"
    epsilon: float = 0.0
    restarts: int = 10
    inner_iters: int = 200
    grid_bounds: tuple | None = None
    grid_resolution: int = 101
    seed: int = 0
    degrade_slack: float = 0.0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigError(f"unknown projection method {self.method!r}")
        if self.epsilon < 0:
            raise ConfigError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if self.inner_iters < 1:
            raise ConfigError(f"inner_iters must be >= 1, got {self.inner_iters}")
        if self.grid_resolution < 2:
            raise ConfigError(f"grid_resolution must be >= 2, got {self.grid_resolution}")
        if self.degrade_slack < 0:
            raise ConfigError(f"degrade_slack must be nonnegative, got {self.degrade_slack}")
        check_seed(self.seed)
        object.__setattr__(self, "grid_bounds", _bound_pairs(self.grid_bounds))

    def _resolve_bounds(self, k: int) -> tuple[tuple[float, float], ...]:
        out = self.grid_bounds or ((-3.0, 3.0),)
        if len(out) == 1:
            return out * k
        if len(out) != k:
            raise ConfigError(f"grid_bounds lists {len(out)} intervals for latent dim {k}")
        return out


def _bound_pairs(b):
    """``grid_bounds`` as a tuple of float ``(lo, hi)`` pairs, or None."""
    def finite(v):  # a bool is no number; a huge int is no float
        return (isinstance(v, numbers.Real) and not isinstance(v, bool)
                and abs(v) <= sys.float_info.max)

    if b is None:
        return None
    pairs = [b] if isinstance(b, (list, tuple)) and len(b) == 2 and finite(b[0]) else b
    if not (isinstance(pairs, (list, tuple)) and pairs and all(
            isinstance(p, (list, tuple)) and len(p) == 2 and all(map(finite, p))
            for p in pairs)):
        raise ConfigError(f"grid_bounds must be one (lo, hi) pair of finite numbers "
                          f"or one per latent axis, got {b!r:.60}")
    for lo, hi in pairs:
        if not lo < hi:
            raise ConfigError(f"grid_bounds interval ({lo}, {hi}) is empty")
    return tuple((float(lo), float(hi)) for lo, hi in pairs)


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of one projection call.

    ``point`` always equals ``forward(net, latent)``; ``certified`` is True
    only for methods that can guarantee ``residual_sq`` is within the
    config's ``epsilon`` of the true squared distance to the range.
    """

    point: np.ndarray
    latent: np.ndarray
    residual_sq: float
    certified: bool


def _check_target(n: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ContractError(f"target must have shape ({n},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ContractError("target must be finite")
    return x


def _result(net: GeneratorNetwork, x: np.ndarray, z: np.ndarray, certified: bool) -> ProjectionResult:
    point = forward(net, z)
    return ProjectionResult(
        point=point,
        latent=z,
        residual_sq=float(np.sum((x - point) ** 2)),
        certified=certified,
    )


def _damped_steps(M: np.ndarray, g: np.ndarray):
    """Solve every ``M[i] p = g[i]``: one stacked solve, or row by row when
    some system is singular.  Returns the steps and a mask of the rows that
    solved; a singular row's step is left at zero."""
    try:
        return np.linalg.solve(M, g[:, :, None])[:, :, 0], np.ones(len(g), dtype=bool)
    except np.linalg.LinAlgError:
        P = np.zeros_like(g)
        solved = np.ones(len(g), dtype=bool)
        for i in range(len(g)):
            try:
                P[i] = np.linalg.solve(M[i], g[i])
            except np.linalg.LinAlgError:
                solved[i] = False
        return P, solved


def _normal_equations(J: np.ndarray, r: np.ndarray):
    """``J^T r`` and ``J^T J`` for every row of a stack of Jacobians."""
    Jt = J.transpose(0, 2, 1)
    return (Jt @ r[:, :, None])[:, :, 0], Jt @ J


def _descend_lockstep(net, x, Z0, inner_iters):
    """Levenberg–Marquardt on z -> 0.5 ||x - G(z)||^2 from every row of
    ``Z0`` at once; returns the final latents (one per row) and their f.

    Each row runs its own descent: it solves (J^T J + lam I) p = J^T r for
    the k-by-k damped Gauss–Newton step and accepts z - p on sufficient
    decrease (f_try <= f - 1e-4 g^T p).  A rejected trial multiplies its lam
    by 4 and re-solves with the same J, an accepted one divides it by 4.
    lam starts at tr(J^T J), so the first steps are short gradient-like
    moves.  A row stops at ``inner_iters`` accepted steps, on a gradient norm
    below 1e-9, when 50 damping increases in a row find no decrease, or when
    a step gains at most 1e-12 of f.  A singular damped system (dependent
    Jacobian columns with lam below their rounding) counts as a reject.

    The rows advance in lockstep: one round is one stacked solve over the
    rows still running, one :func:`forward_batch` over their trial latents
    and one Jacobian pass over the rows that accepted.
    """
    Z = np.array(Z0, dtype=float)
    out, J = _forward_jacobian(net, Z)
    r = out - x
    f = 0.5 * np.einsum("ij,ij->i", r, r)
    lam = np.einsum("ijk,ijk->i", J, J)  # tr(J^T J)
    g, JtJ = _normal_equations(J, r)
    eye = np.eye(net.k)
    rejects = np.zeros(len(Z), dtype=int)  # in a row, since the last accept
    steps = np.zeros(len(Z), dtype=int)  # accepted
    active = np.einsum("ij,ij->i", g, g) >= 1e-18  # gradient norm at least 1e-9
    while active.any():
        rows = np.flatnonzero(active)
        P, solved = _damped_steps(JtJ[rows] + lam[rows, None, None] * eye, g[rows])
        tried, P = rows[solved], P[solved]
        Z_try = Z[tried] - P
        r_try = forward_batch(net, Z_try.T).T - x
        f_try = 0.5 * np.einsum("ij,ij->i", r_try, r_try)
        ok = f_try <= f[tried] - 1e-4 * np.einsum("ij,ij->i", g[tried], P)

        rej = np.concatenate([rows[~solved], tried[~ok]])
        lam[rej] *= 4.0
        rejects[rej] += 1
        active[rej[rejects[rej] >= 50]] = False

        acc = tried[ok]
        converged = f[acc] - f_try[ok] <= 1e-12 * f[acc]
        Z[acc], r[acc], f[acc] = Z_try[ok], r_try[ok], f_try[ok]
        lam[acc] *= 0.25
        rejects[acc] = 0
        steps[acc] += 1
        done = converged | (steps[acc] >= inner_iters)
        active[acc[done]] = False
        acc = acc[~done]
        if acc.size:
            g[acc], JtJ[acc] = _normal_equations(_forward_jacobian(net, Z[acc])[1], r[acc])
            active[acc] = np.einsum("ij,ij->i", g[acc], g[acc]) >= 1e-18
    return Z, f


@functools.lru_cache(maxsize=32)
def _restart_starts(seed: int, restarts: int, bounds: tuple) -> np.ndarray:
    """The latent-gd start points as rows of a read-only (restarts, k)
    array: the origin, then row j uniform in the box ``bounds`` (one
    (lo, hi) pair per latent coordinate) from the nested stream (seed, j)."""
    lo, hi = np.array(bounds).T
    Z0 = np.zeros((restarts, len(bounds)))
    for j in range(1, restarts):
        Z0[j] = spawn_rng(seed, j).uniform(lo, hi)
    Z0.flags.writeable = False
    return Z0


def _project_latent_gd(cfg: ProjectionConfig, net: GeneratorNetwork, x: np.ndarray):
    """Multi-restart Levenberg–Marquardt in latent space, all restarts in
    lockstep (see :func:`_descend_lockstep`).  Restart 0 starts at the
    origin; later restarts draw uniformly from the search box
    (``grid_bounds``, same default as the grid method), which covers
    far-from-origin basins that standard normal draws rarely reach.
    Restarts use nested seed streams (seed, restart index), so growing
    ``restarts`` only adds candidates; the best residual is therefore
    nonincreasing in ``restarts``.  Ties go to the lowest restart index.
    """
    Z, f = _descend_lockstep(
        net, x, _restart_starts(cfg.seed, cfg.restarts, cfg._resolve_bounds(net.k)),
        cfg.inner_iters)
    best = int(np.argmin(f))  # first minimum wins: deterministic tie-break
    return _result(net, x, Z[best], certified=False)


def _project_grid(cfg: ProjectionConfig, net: GeneratorNetwork, x: np.ndarray):
    if net.k > 3:
        raise ConfigError(f"grid projection requires k <= 3, got k={net.k}")
    bounds = cfg._resolve_bounds(net.k)
    axes = [np.linspace(lo, hi, cfg.grid_resolution) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    Z = np.stack([m.ravel() for m in mesh])
    X = forward_batch(net, Z)
    resid = np.sum((X - x[:, None]) ** 2, axis=0)
    best = int(np.argmin(resid))  # first minimum wins: deterministic tie-break
    return _result(net, x, Z[:, best], certified=True)


def _project_closed_form(net: GeneratorNetwork, x: np.ndarray):
    """Latent ``pinv(W) @ (x - bias)``, with the pseudo-inverse factored once
    per layer and cached on it (:attr:`Layer.pseudo_inverse`)."""
    if not net.is_single_affine:
        raise ConfigError("closed-form-linear needs a single identity-activation layer")
    layer = net.layers[0]
    return _result(net, x, layer.pseudo_inverse @ (x - layer.bias), certified=True)


def _stable_hash(x: np.ndarray) -> int:
    digest = hashlib.blake2b(np.ascontiguousarray(x).tobytes(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _affine_step(w: np.ndarray, r0: np.ndarray, slack: float) -> float:
    """Positive root s of ||r0 - s w||^2 = ||r0||^2 + slack, i.e. of
    a s^2 - 2 b s - slack = 0 with a = w.w and b = r0.w, in the form that
    avoids cancellation for either sign of b."""
    a = w @ w
    if not a > 0:  # w = 0: the range is a single point, the residual never grows
        raise ContractError("could not calibrate degradation slack along the range")
    b = r0 @ w
    root = np.sqrt(b * b + a * slack)
    return float(slack / (root - b) if b <= 0 else (b + root) / a)


def _bisect_step(net, x, z: np.ndarray, d: np.ndarray, target: float) -> float:
    """Smallest s found by doubling then bisection with residual at z + s d
    at least ``target``.  Bisection stops once the midpoint rounds onto an
    endpoint: every later step would leave both endpoints unchanged."""

    def h(s):
        p = forward(net, z + s * d)
        return float(np.sum((x - p) ** 2)) - target

    hi = 1e-8
    for _ in range(400):
        if h(hi) >= 0:
            break
        hi *= 2.0
    else:
        raise ContractError("could not calibrate degradation slack along the range")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if h(mid) >= 0:
            hi = mid
        else:
            lo = mid
    return hi


def _degrade_within_range(net, x, res: ProjectionResult, slack: float, seed: int):
    """Move the projected point along the range until its squared residual
    grows by ``slack``.  The perturbation stays inside Range(G) by
    construction (it moves the latent), and the direction/scale are a pure
    function of (seed, x).  The direction is seeded by a hash of x's exact
    bits, so any upstream change that moves x by an ulp draws a new
    direction: a different realization of the same random process.

    On a single affine layer the residual along the line is the quadratic
    ||r0 - s W d||^2, so the step is its positive root (one ``forward``).
    Any other network doubles then bisects on the step to float resolution.
    """
    rng = spawn_rng(seed, _stable_hash(x))
    d = rng.standard_normal(net.k)
    d /= np.linalg.norm(d)
    if net.is_single_affine:
        s = _affine_step(net.layers[0].weights @ d, x - res.point, slack)
    else:
        s = _bisect_step(net, x, res.latent, d, res.residual_sq + slack)
    return _result(net, x, res.latent + s * d, certified=res.certified)


def project(cfg: ProjectionConfig, net: GeneratorNetwork, x) -> ProjectionResult:
    """Project ``x`` onto the range of ``net`` per the configured method.

    Pure given (cfg, net, x): all randomness (restart starts, degradation
    direction) derives from ``cfg.seed``.  ``x`` must be a finite length-n
    vector, else :class:`ContractError`, whatever the method.
    """
    x = _check_target(net.n, x)
    if cfg.method == "closed-form-linear":
        res = _project_closed_form(net, x)
    elif cfg.method == "grid":
        res = _project_grid(cfg, net, x)
    else:
        res = _project_latent_gd(cfg, net, x)
    if cfg.degrade_slack > 0.0:
        degraded = _degrade_within_range(net, x, res, cfg.degrade_slack, cfg.seed)
        # the certificate only survives if the advertised slack covers the
        # injected one
        certified = res.certified and cfg.epsilon >= cfg.degrade_slack
        res = replace(degraded, certified=certified)
    return res


def hard_threshold_coeffs(basis: OrthoBasis, v, l: int):
    """Keep the ``l`` largest-magnitude analysis coefficients of ``v``.

    Returns ``(w, coeffs)`` where ``coeffs`` is the exactly-l-sparse
    coefficient vector and ``w = basis @ coeffs``.  Ties in magnitude keep
    the lowest index.  This is the exact Euclidean projection onto the set
    of vectors whose analysis representation has at most ``l`` nonzeros.
    """
    if not isinstance(l, (int, np.integer)) or isinstance(l, bool) or l < 0:
        raise ContractError(f"sparsity l must be a nonnegative integer, got {l!r}")
    v = np.asarray(v, dtype=float)
    B = basis.matrix
    if v.shape != (B.shape[0],):
        raise ContractError(f"vector must have shape ({B.shape[0]},), got {v.shape}")
    c = B.T @ v
    keep = np.argsort(-np.abs(c), kind="stable")[: min(l, c.size)]
    coeffs = np.zeros_like(c)
    coeffs[keep] = c[keep]
    return B @ coeffs, coeffs


def hard_threshold(basis: OrthoBasis, v, l: int) -> np.ndarray:
    """Best approximation of ``v`` that is ``l``-sparse in ``basis``."""
    return hard_threshold_coeffs(basis, v, l)[0]
