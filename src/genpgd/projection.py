"""Approximate and exact projection onto the range of a generator.

Three routes are provided.  ``closed-form-linear`` is the exact least-squares
projection available when the generator is a single affine layer, and the
only route that certifies its result; ``grid`` returns the best point of a
latent mesh for latent dimension at most 3 (the projection may lie between
mesh points or outside the box); ``latent-gd`` runs multi-restart
Levenberg–Marquardt in latent space (the landscape is nonconvex).  Hard
thresholding of analysis coefficients in an orthonormal basis, the exact
projection onto the set of basis-sparse vectors, lives here too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .generator import GeneratorNetwork, _forward_jacobian, _pseudo_inverse, forward, forward_batch
from .generator import vjp  # noqa: F401  (bench/test_bench.py traces it through this module)
from .seeding import _direction_reader, check_count, finite_real, spawn_rng

__all__ = [
    "OrthoBasis",
    "ProjectionConfig",
    "ProjectionResult",
    "project",
]

_METHODS = ("closed-form-linear", "latent-gd", "grid")
_DAMPING_FLOOR = 1e-12  # least LM lam, relative to tr(J^T J)
_LADDER = 3  # damping levels lam, 4 lam, 16 lam tried in one latent-gd round
_MAX_MISSES = 17  # a latent-gd row stops after this many rounds in a row with no level passing
_PRUNE = 100.0  # a latent-gd row stops once f - _PRUNE * its last gain > a stopped f
_FTOL = 1e-8  # a latent-gd row stops on a gain <= _FTOL f: scipy's ftol, MINPACK's ~sqrt(eps)


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

    ``method`` is ``closed-form-linear``, ``latent-gd`` or ``grid``.
    ``epsilon`` is the advertised slack of the oracle: a certified result
    promises squared residual within ``epsilon`` of the true minimum over
    the range.  ``restarts`` counts latent-gd's start points; restart 0, the
    origin, never moves on a zero-bias ReLU network (J(0) = 0), so 10
    restarts are 9 descents.  ``inner_iters`` caps the accepted
    Levenberg–Marquardt steps of each restart (:func:`_descend_lockstep`).
    ``grid_bounds`` is the latent search box, one ``(lo, hi)`` pair for
    every coordinate or one pair per coordinate (default (-3, 3) per
    coordinate), stored as a tuple of float pairs, each with lo < hi and a
    finite width hi - lo: the grid method evaluates on a mesh of
    ``grid_resolution`` points per axis over it, and latent-gd samples
    restart points from it.  ``seed`` keys the restart points and the
    degradation direction.  ``degrade_slack``
    deliberately moves the method's output along the range until its
    squared residual grows by that much, to study how solvers respond to
    inexact oracles (:func:`_oracle`); a degraded result is certified only
    when ``epsilon`` covers it.
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
        if not (finite_real(self.epsilon) and self.epsilon >= 0):
            raise ConfigError(f"epsilon must be finite and nonnegative, got {self.epsilon}")
        for name, least in (("restarts", 1), ("inner_iters", 1), ("grid_resolution", 2),
                            ("seed", 0)):
            check_count(name, getattr(self, name), least, ConfigError)
        if not (finite_real(self.degrade_slack) and self.degrade_slack >= 0):
            raise ConfigError(
                f"degrade_slack must be finite and nonnegative, got {self.degrade_slack}")
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
    if b is None:
        return None
    pairs = [b] if isinstance(b, (list, tuple)) and len(b) == 2 and finite_real(b[0]) else b
    if not (isinstance(pairs, (list, tuple)) and pairs and all(
            isinstance(p, (list, tuple)) and len(p) == 2 and all(map(finite_real, p))
            for p in pairs)):
        raise ConfigError(f"grid_bounds must be one (lo, hi) pair of finite numbers "
                          f"or one per latent axis, got {b!r:.60}")
    for lo, hi in pairs:
        if not lo < hi:
            raise ConfigError(f"grid_bounds interval ({lo}, {hi}) is empty")
        if not math.isfinite(float(hi) - float(lo)):
            raise ConfigError(f"grid_bounds interval ({lo}, {hi}) is wider than a float")
    return tuple((float(lo), float(hi)) for lo, hi in pairs)


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of one projection call.

    ``point`` always equals ``forward(net, latent)``; ``certified`` is True
    only for ``closed-form-linear``, the one method that can guarantee
    ``residual_sq`` is within the config's ``epsilon`` of the true squared
    distance to the range.
    """

    point: np.ndarray
    latent: np.ndarray
    residual_sq: float
    certified: bool


def _check_target(n: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ContractError(f"target must have shape ({n},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ContractError("target must be finite")
    return x


def _sq_dist(x: np.ndarray, point: np.ndarray) -> float:
    return float(((x - point) ** 2).sum())


def _normal_equations(J: np.ndarray, r: np.ndarray):
    """``J^T r`` and ``J^T J`` for every row of a stack of Jacobians."""
    Jt = J.transpose(0, 2, 1)
    return (Jt @ r[:, :, None])[:, :, 0], Jt @ J


def _start_pass(net, Z0):
    """What :func:`_descend_lockstep` needs at the starts ``Z0`` that does
    not depend on the target: the outputs, the Jacobians J, J^T J and
    tr(J^T J), one row each, read-only so a caller may keep them."""
    out, J = _forward_jacobian(net, Z0)
    first = out, J, J.transpose(0, 2, 1) @ J, np.einsum("ijk,ijk->i", J, J)
    for a in first:
        a.flags.writeable = False
    return first


def _descend_lockstep(net, x, Z0, inner_iters, first):
    """Levenberg–Marquardt on z -> 0.5 ||x - G(z)||^2 from every row of
    ``Z0`` at once; returns the final latents (one per row) and their f.
    ``first`` is :func:`_start_pass` at ``Z0``.

    Each row runs its own descent: it solves (J^T J + lam I) p = J^T r for
    the k-by-k damped Gauss–Newton step and accepts z - p on sufficient
    decrease (f_try <= f - 1e-4 g^T p).  A rejected trial multiplies its lam
    by 4 and re-solves with the same J, an accepted one divides it by 4.
    lam starts at tr(J^T J), so the first steps are short gradient-like
    moves.  A row stops at ``inner_iters`` accepted steps, on a gradient norm
    below 1e-9, when 51 damping increases in a row find no decrease, or when
    a step gains at most ``_FTOL`` = 1e-8 of f.  That is the usual LM cost
    tolerance (scipy's ``least_squares`` ftol; MINPACK advises about
    sqrt(eps)): the oracle need only be epsilon-approximate, and the gains a
    tighter stop chases lie orders of magnitude below the gaps between
    basins.  Each new J lifts lam to at least ``_DAMPING_FLOOR`` tr(J^T J),
    so J^T J + lam I stays positive definite.

    The rows advance in lockstep, and a round tries a ladder of ``_LADDER``
    damping levels, lam, 4 lam, 16 lam, for every running row: one stacked
    solve over (rows x levels), one :func:`forward_batch` over all those
    trial latents and one Jacobian pass, J alone, over the rows that
    accepted (their outputs are the trials' already).  A row
    takes its first level that passes, so its lam becomes lam 4^j / 4 for
    level j; a row that passes no level takes lam 4^``_LADDER`` and stops
    after ``_MAX_MISSES`` such rounds in a row, its 51st reject.  These
    scalings are powers of two, so each row tries exactly the damping
    sequence of the one-at-a-time descent above and stops by the same
    rules; the levels above the one taken are spent evaluations.  The
    rounds are compact and of fixed shape: state is kept only for the
    running rows, with their indices into ``Z0``, a stopped row's latent
    and f are written out once, and a round in which every row accepts
    updates the state by whole-array assignment.

    The rest of a round's bookkeeping is cut to what the common round
    needs.  Over the first 40 seed-11 relu-latentgd bench items (276
    projections, 3225 rounds) every row accepted in 2722 rounds, every row
    took a new J in 1921 and some row stopped in 967.  So each row's first
    trial column is computed once and cut with the rows, and when every
    row takes a new J, g, J^T J and the stop flags are rebound to the
    pass's arrays and lam is raised in place.  None of this changes a value.

    One more rule stops a row that cannot win.  After a round, a running
    row whose last accepted gain in f is below the gain before it stops
    when f - ``_PRUNE`` gain exceeds f_stop, the least f of the rows
    already stopped.  If its gains decayed geometrically with ratio at most
    ``_PRUNE`` / (1 + ``_PRUNE``), the row could gain at most ``_PRUNE``
    gain more and never get below f_stop.  That premise is a heuristic, not
    a bound: a pruned row ends short of where it would end alone.

    An unpruned row ends where it would end alone only up to rounding:
    :func:`forward_batch` rounds a column differently with the batch's
    width, so a row's bits depend on how many rows are still running, and
    a decrease test decided within rounding may go the other way.
    """
    Z_end = np.array(Z0, dtype=float)
    out, J, JtJ, lam = first
    r = out - x
    f_end = 0.5 * np.einsum("ij,ij->i", r, r)
    g = (J.transpose(0, 2, 1) @ r[:, :, None])[:, :, 0]
    run = np.einsum("ij,ij->i", g, g) >= 1e-18  # gradient norm at least 1e-9
    f_stop = f_end[~run].min(initial=np.inf)  # the least f of a stopped row
    idx = np.flatnonzero(run)  # the running rows, as indices into Z0
    Z, r, f, g, JtJ, lam = Z_end[idx], r[idx], f_end[idx], g[idx], JtJ[idx], lam[idx]
    misses = np.zeros(idx.size, dtype=int)  # rounds in a row with no level passing
    steps = np.zeros(idx.size, dtype=int)  # accepted
    gain = np.full(idx.size, -np.inf)  # f gained by the last accepted step
    prev = gain.copy()  # and by the one before it
    scale = 4.0 ** np.arange(_LADDER)
    eye = np.eye(net.k)
    base = np.arange(idx.size) * _LADDER  # each running row's first trial column
    while idx.size:
        lam_try = lam[:, None] * scale
        P = np.linalg.solve(JtJ[:, None] + lam_try[:, :, None, None] * eye,
                            g[:, None, :, None])[..., 0]
        Z_try = (Z[:, None] - P).reshape(-1, net.k)  # row-major: (row, level)
        r_try = forward_batch(net, Z_try.T).T - x
        f_try = 0.5 * np.einsum("ij,ij->i", r_try, r_try)
        ok = f_try.reshape(-1, _LADDER) <= f[:, None] - 1e-4 * np.einsum("ilk,ik->il", P, g)
        hit = ok.any(axis=1)
        pick = base + ok.argmax(axis=1)  # first level that passed
        f_new = f_try[pick]
        if hit.all():  # the common round: every row accepts
            Z, r, lam = Z_try[pick], r_try[pick], lam_try.ravel()[pick] * 0.25
            prev, gain = gain, f - f_new
            stop = gain <= _FTOL * f
            f = f_new
            misses[:] = 0
            steps += 1
            stop |= steps >= inner_iters
        else:
            Z = np.where(hit[:, None], Z_try[pick], Z)
            r = np.where(hit[:, None], r_try[pick], r)
            lam = np.where(hit, lam_try.ravel()[pick] * 0.25, lam * 4.0 ** _LADDER)
            prev, gain = np.where(hit, gain, prev), np.where(hit, f - f_new, gain)
            converged = gain <= _FTOL * f
            f = np.where(hit, f_new, f)
            misses = np.where(hit, 0, misses + 1)
            steps = steps + hit
            stop = np.where(hit, converged | (steps >= inner_iters), misses >= _MAX_MISSES)
        fresh = hit & ~stop  # accepted and going on: a new J
        if fresh.all():  # whole arrays: rebind, no copy through an index
            g, JtJ = _normal_equations(_forward_jacobian(net, Z, outputs=False), r)
            np.maximum(lam, _DAMPING_FLOOR * np.trace(JtJ, axis1=1, axis2=2), out=lam)
            stop = np.einsum("ij,ij->i", g, g) < 1e-18
        elif fresh.any():
            g[fresh], JtJ[fresh] = _normal_equations(
                _forward_jacobian(net, Z[fresh], outputs=False), r[fresh])
            lam[fresh] = np.maximum(lam[fresh],
                                    _DAMPING_FLOOR * np.trace(JtJ[fresh], axis1=1, axis2=2))
            stop[fresh] = np.einsum("ij,ij->i", g[fresh], g[fresh]) < 1e-18
        f_stop = f[stop].min(initial=f_stop)
        shrink = (gain < prev) & ~stop  # two accepts, so gain > 0
        if shrink.any():
            stop[shrink] = f[shrink] - _PRUNE * gain[shrink] > f_stop
        if stop.any():
            Z_end[idx[stop]], f_end[idx[stop]] = Z[stop], f[stop]
            go = ~stop
            idx, Z, r, f, lam, g, JtJ, misses, steps, gain, prev = (
                a[go] for a in (idx, Z, r, f, lam, g, JtJ, misses, steps, gain, prev))
            base = base[:idx.size]
    return Z_end, f_end


@functools.lru_cache(maxsize=32)
def _restart_starts(seed: int, restarts: int, bounds: tuple) -> np.ndarray:
    """The latent-gd start points as rows of a read-only (restarts, k)
    array: the origin, then row j uniform in the box ``bounds`` (one
    (lo, hi) pair per latent coordinate; it reaches far-from-origin basins)
    from the nested stream (seed, j), so more restarts only add candidates.
    The best residual is nonincreasing in ``restarts`` only as far as the
    prune rule's premise holds (:func:`_descend_lockstep`)."""
    lo, hi = np.array(bounds).T
    Z0 = np.zeros((restarts, len(bounds)))
    for j in range(1, restarts):
        Z0[j] = spawn_rng(seed, j).uniform(lo, hi)
    Z0.flags.writeable = False
    return Z0


def _affine_step(w: np.ndarray, r0: np.ndarray, slack: float) -> float:
    """Positive root s of ||r0 - s w||^2 = ||r0||^2 + slack, i.e. of
    a s^2 - 2 b s - slack = 0 with a = w.w and b = r0.w, in the form that
    avoids cancellation for either sign of b; taken in Python floats."""
    a = float(w @ w)
    if not a > 0:  # w = 0: the range is a single point, the residual never grows
        raise ContractError("could not calibrate degradation slack along the range")
    b = float(r0 @ w)
    root = math.sqrt(b * b + a * slack)
    return slack / (root - b) if b <= 0 else (b + root) / a


def _bisect_step(net, x, z: np.ndarray, d: np.ndarray, slack: float) -> float:
    """Smallest s found by doubling then bisection with residual at z + s d
    at least ``slack`` above the residual at z.  Bisection stops once the
    midpoint rounds onto an endpoint: every later step would leave both
    endpoints unchanged."""
    target = _sq_dist(x, forward(net, z)) + slack

    def h(s):
        return _sq_dist(x, forward(net, z + s * d)) - target

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


_ORACLES = 8  # (config, network) oracles kept, each holding its network


@functools.lru_cache(maxsize=_ORACLES)
def _oracle(cfg: ProjectionConfig, net: GeneratorNetwork):
    """The map from a checked target x to ``project(cfg, net, x)``.

    What depends on (cfg, net) alone is resolved here once: the method and
    its checks, the pseudo-inverse, latent-gd's starts and its first pass
    at them (:func:`_start_pass`), the certificate rule and the
    degradation's direction reader.  An error raises here, on
    every call, since no error is cached.  ``forward`` is looked up at call
    time, so a wrapper installed later sees every generator evaluation.

    Each method gives a latent: ``pinv(W) (x - bias)``, the first best grid
    point, or the first best latent-gd restart.  A degraded oracle then
    moves it along the range until the squared residual of its point grows
    by ``degrade_slack``, in a unit direction read from a keyed hash of the
    seed and x's exact bits (an ulp's change in x draws a new direction).
    On a single affine layer the residual along the line is the quadratic
    ||r0 - s W d||^2, r0 = x - G(z), so the step is its positive root (one
    ``forward``); any other network doubles then bisects on the step to
    float resolution.  The point and residual are taken once, at the end.
    """
    if cfg.method == "closed-form-linear":
        if not net.is_single_affine:
            raise ConfigError("closed-form-linear needs a single identity-activation layer")
        P, bias = _pseudo_inverse(net.layers[0].weights), net.layers[0].bias

        def latent(x):
            return P @ (x - bias)
    elif cfg.method == "grid":
        if net.k > 3:
            raise ConfigError(f"grid projection requires k <= 3, got k={net.k}")
        axes = [np.linspace(lo, hi, cfg.grid_resolution) for lo, hi in cfg._resolve_bounds(net.k)]

        def latent(x):  # the mesh is built on every call: kept, it would pin 100s of MB at k = 3
            Z = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
            resid = np.sum((forward_batch(net, Z) - x[:, None]) ** 2, axis=0)
            return Z[:, int(np.argmin(resid))]  # first minimum wins: deterministic tie-break
    else:
        Z0 = _restart_starts(cfg.seed, cfg.restarts, cfg._resolve_bounds(net.k))
        first = _start_pass(net, Z0)

        def latent(x):
            Z, f = _descend_lockstep(net, x, Z0, cfg.inner_iters, first)
            return Z[int(np.argmin(f))]  # first minimum wins: deterministic tie-break
    certified, slack = cfg.method == "closed-form-linear", cfg.degrade_slack
    if slack > 0.0:
        # the certificate only survives if the advertised slack covers the injected one
        certified = certified and cfg.epsilon >= slack
        undegraded, direction = latent, _direction_reader(cfg.seed, net.k)
        W = net.layers[0].weights if net.is_single_affine else None

        def latent(x):
            z, d = undegraded(x), direction(x)
            if W is None:
                return z + _bisect_step(net, x, z, d, slack) * d
            return z + _affine_step(W @ d, x - forward(net, z), slack) * d

    def oracle(x):
        z = latent(x)
        point = forward(net, z)
        return ProjectionResult(point, z, _sq_dist(x, point), certified)
    return oracle


def project(cfg: ProjectionConfig, net: GeneratorNetwork, x) -> ProjectionResult:
    """Project ``x`` onto the range of ``net`` per the configured method.

    Pure given (cfg, net, x): all randomness (restart starts, degradation
    direction) derives from ``cfg.seed``.  ``x`` must be a finite length-n
    vector, else :class:`ContractError`, whatever the method; the target is
    checked first.  The oracle is resolved once per (config, network) by
    :func:`_oracle`, whose cache keeps the last 8 pairs, so at most 8
    networks (keyed by identity) stay alive.
    """
    x = _check_target(net.n, x)
    return _oracle(cfg, net)(x)


def hard_threshold_coeffs(basis: OrthoBasis, v, l: int):
    """Keep the ``l`` largest-magnitude analysis coefficients of ``v``.

    Returns ``(w, coeffs)`` where ``coeffs`` is the exactly-l-sparse
    coefficient vector and ``w = basis @ coeffs``.  Ties in magnitude keep
    the lowest index.  This is the exact Euclidean projection onto the set
    of vectors whose analysis representation has at most ``l`` nonzeros.
    """
    check_count("sparsity l", l)
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
