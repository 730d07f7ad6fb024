"""Measurement objectives and empirical regularity diagnostics.

Two objective families are supported: plain least squares
``0.5 * ||y - A x||^2`` and generalized linear models
``sum_i phi(a_i' x) - y_i (a_i' x)`` with a sigmoid (logistic) or exponential
potential.  Alongside value/gradient evaluation, this module estimates the
constants that drive the convergence theory of the solvers: the smallest and
largest curvature of the objective along a constraint set, the incoherence
between a generator range and a sparse basis, the constraint-set diameter,
and the gradient norm at a known truth.  Exact eigenvalue/SVD oracles are
provided for the linear-generator least-squares case, where the estimates
can be checked against closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ContractError, NumericError
from .generator import GeneratorNetwork, forward
from .projection import OrthoBasis
from .seeding import spawn_rng

__all__ = [
    "Objective",
    "CurvatureEstimate",
    "DiameterGammaEstimate",
    "RegularityEstimates",
    "value",
    "gradient",
    "curvature_ratio",
    "estimate_rsc_rss",
    "estimate_incoherence",
    "estimate_diameter_gamma",
    "latent_pair_sampler",
    "sum_pair_sampler",
    "subspace_curvature",
    "minkowski_curvature",
    "subspace_incoherence",
]

_KINDS = ("least-squares", "glm")
_LINKS = ("sigmoid", "exp")


@dataclass(frozen=True)
class Objective:
    """A data-fit objective over signals of length n.

    ``least-squares`` ignores ``link``; ``glm`` requires one.
    """

    kind: str
    A: np.ndarray
    y: np.ndarray
    link: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ContractError(f"unknown objective kind {self.kind!r}")
        A = np.asarray(self.A, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if A.ndim != 2:
            raise ContractError(f"A must be 2-d, got shape {A.shape}")
        if y.shape != (A.shape[0],):
            raise ContractError(f"y shape {y.shape} does not match A rows {A.shape[0]}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(y))):
            raise ContractError("A and y must be finite")
        if self.kind == "glm":
            if self.link not in _LINKS:
                raise ContractError(f"glm link must be one of {_LINKS}, got {self.link!r}")
        elif self.link is not None:
            raise ContractError("least-squares takes no link")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


def _inner(obj: Objective, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (obj.n,):
        raise ContractError(f"x shape {x.shape} does not match A columns {obj.n}")
    t = obj.A @ x
    _check_rows_finite(t)
    return t


def _check_rows_finite(rows: np.ndarray):
    if not np.all(np.isfinite(rows)):
        i = int(np.flatnonzero(~np.isfinite(rows))[0])
        raise NumericError(f"non-finite intermediate at row {i}")


def value(obj: Objective, x) -> float:
    """Objective value at ``x``; raises NumericError naming the first
    offending row if any per-row term overflows."""
    t = _inner(obj, x)
    if obj.kind == "least-squares":
        r = t - obj.y
        return 0.5 * float(r @ r)
    if obj.link == "sigmoid":
        # log(1 + e^t) computed without overflow for any t
        phi = np.log1p(np.exp(-np.abs(t))) + np.maximum(t, 0.0)
    else:
        with np.errstate(over="ignore"):
            phi = np.exp(t)
        _check_rows_finite(phi)
    return float(np.sum(phi - obj.y * t))


def gradient(obj: Objective, x) -> np.ndarray:
    """Gradient of :func:`value` at ``x``: ``A^T (A x - y)`` for least
    squares, ``A^T (phi'(A x) - y)`` for glm."""
    t = _inner(obj, x)
    if obj.kind == "least-squares":
        return obj.A.T @ (t - obj.y)
    mean = _link_mean(t, obj.link)
    _check_rows_finite(mean)
    return obj.A.T @ (mean - obj.y)


def _link_mean(t: np.ndarray, link: str) -> np.ndarray:
    """GLM response mean phi'(t) of the link's potential; overflow of the
    exp link is left as inf for the caller to reject."""
    if link == "sigmoid":
        return 0.5 * (1.0 + np.tanh(0.5 * t))  # stable logistic
    with np.errstate(over="ignore"):
        return np.exp(t)


def curvature_ratio(obj: Objective, x, y_pt) -> float:
    """Normalized Bregman curvature between two points:
    ``2 (F(y) - F(x) - <grad F(x), y - x>) / ||y - x||^2``.

    For a quadratic objective this is the Rayleigh quotient of A^T A along
    the difference direction; min/max over a constraint set give the strong
    convexity / smoothness constants restricted to that set.
    """
    x = np.asarray(x, dtype=float)
    y_pt = np.asarray(y_pt, dtype=float)
    d = y_pt - x
    dd = float(d @ d)
    if dd < 1e-24:
        raise ContractError("points are not distinct enough for a curvature ratio")
    bregman = value(obj, y_pt) - value(obj, x) - float(gradient(obj, x) @ d)
    return 2.0 * bregman / dd


# ---------------------------------------------------------------------------
# samplers


def latent_pair_sampler(net: GeneratorNetwork, scale: float = 1.0):
    """Pairs of range points from independent Gaussian latents."""

    def sample(rng):
        z = scale * rng.standard_normal((2, net.k))
        return forward(net, z[0]), forward(net, z[1])

    return sample


def sum_pair_sampler(net: GeneratorNetwork, basis: OrthoBasis, l: int):
    """Pairs of points from {range point + l-sparse-in-basis deviation}.

    Each point draws its own latent and its own sparse part on a uniform
    size-l support.
    """
    n = basis.n

    def one(rng):
        z = rng.standard_normal(net.k)
        idx = rng.choice(n, size=l, replace=False)
        coeffs = np.zeros(n)
        coeffs[idx] = rng.standard_normal(len(idx))
        return forward(net, z) + basis.matrix @ coeffs

    def sample(rng):
        return one(rng), one(rng)

    return sample


# ---------------------------------------------------------------------------
# estimators

# sample sizes of a regularity bundle: pairs per sampled curvature bound (also
# the incoherence samples), latents per diameter estimate
_NUM_PAIRS = 400
_NUM_SAMPLES = 64


@dataclass(frozen=True)
class CurvatureEstimate:
    """Empirical restricted curvature range with the extreme-achieving pairs."""

    alpha: float
    beta: float
    alpha_pair: tuple
    beta_pair: tuple


def estimate_rsc_rss(obj: Objective, sampler, num_pairs: int, seed: int = 0) -> CurvatureEstimate:
    """Min/max curvature ratio over the 2 * ``num_pairs`` points of
    ``num_pairs`` sampled pairs.

    Every sampled point lies in the constraint set, so every ordered cross
    pair among them is a valid direction: one pass takes F and its gradient
    once per point and the extremes over all those pairs, which include the
    as-sampled ones.  ``alpha``/``beta`` are recomputed through
    :func:`curvature_ratio` on the winning pairs, so each reported pair
    reproduces its value.

    A pair closer than 1e-12 is skipped and redrawn.  The sampler is
    reported as degenerate (:class:`ContractError`) when it cannot produce
    distinct pairs within 50x the requested count, or when its points are
    all too close together for any ratio to rise above the rounding of the
    distances.
    """
    rng = spawn_rng(seed)
    points = []
    attempts = 0
    while len(points) < 2 * num_pairs:
        attempts += 1
        if attempts > 50 * num_pairs:
            raise ContractError("sampler is degenerate: cannot produce distinct pairs")
        x, y_pt = sampler(rng)
        d = np.asarray(y_pt) - np.asarray(x)
        if float(d @ d) < 1e-24:
            continue
        points += [x, y_pt]
    pts = np.array(points, dtype=float)
    extremes = _cross_pair_extremes(obj, pts)
    if extremes is None:
        raise ContractError(
            "sampler is degenerate: no pair of its points is far enough apart "
            "for a curvature ratio above rounding")
    (i_lo, j_lo), (i_hi, j_hi) = extremes
    pair_lo, pair_hi = (pts[i_lo], pts[j_lo]), (pts[i_hi], pts[j_hi])
    return CurvatureEstimate(
        alpha=curvature_ratio(obj, *pair_lo),
        beta=curvature_ratio(obj, *pair_hi),
        alpha_pair=pair_lo,
        beta_pair=pair_hi,
    )


def _cross_pair_extremes(obj: Objective, pts: np.ndarray, chunk: int = 256):
    """Index pairs (from_i, to_j) minimizing/maximizing the curvature ratio
    over all ordered cross pairs of the rows of ``pts``.

    One value and one gradient per point, then chunked algebra.  The squared
    distances come from a Gram expansion whose cancellation noise is about
    1e-16 times the point scale, so pairs below a relative floor are masked
    out rather than trusted; returns None if nothing survives the mask.
    """
    fvals = np.array([value(obj, p) for p in pts])
    grads = np.stack([gradient(obj, p) for p in pts])
    sq = np.sum(pts * pts, axis=1)
    best_lo, best_hi = np.inf, -np.inf
    at_lo = at_hi = None
    for start in range(0, pts.shape[0], chunk):
        Pi = pts[start:start + chunk]
        dots = Pi @ pts.T
        dd = sq[start:start + chunk, None] + sq[None, :] - 2.0 * dots
        gdiff = grads[start:start + chunk] @ pts.T - np.sum(grads[start:start + chunk] * Pi, axis=1)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = 2.0 * (fvals[None, :] - fvals[start:start + chunk, None] - gdiff) / dd
        r[dd < 1e-12 * (1.0 + sq[start:start + chunk, None] + sq[None, :])] = np.nan
        if np.all(np.isnan(r)):
            continue
        i, j = np.unravel_index(np.nanargmin(r), r.shape)
        if r[i, j] < best_lo:
            best_lo, at_lo = float(r[i, j]), (start + int(i), int(j))
        i, j = np.unravel_index(np.nanargmax(r), r.shape)
        if r[i, j] > best_hi:
            best_hi, at_hi = float(r[i, j]), (start + int(i), int(j))
    if at_lo is None or at_hi is None:
        return None
    return at_lo, at_hi


def estimate_incoherence(net: GeneratorNetwork, basis: OrthoBasis, l: int,
                         num_samples: int = 1000, seed: int = 0, support=None) -> float:
    """Largest observed alignment between range directions and sparse
    directions, a lower bound on the true incoherence constant.

    Each sample draws a range difference, pairs it with its best aligned
    l-sparse response (restricted to ``support`` when given), and for
    single-affine-layer generators sharpens it with two alternating-projection
    rounds; every refined direction is still a difference of admissible
    points, so the max stays a lower bound.  The
    estimate is monotone nondecreasing in ``num_samples`` for a fixed seed
    because samples are drawn from one nested stream.
    """
    rng = spawn_rng(seed)
    B = basis.matrix
    sup = None if support is None else np.asarray(support, dtype=int)
    linear = net.is_single_affine
    if linear:
        Q = np.linalg.qr(net.layers[0].weights)[0]

    def sparse_response(du):
        c = B.T @ du
        if sup is not None:
            idx = sup
        else:
            idx = np.argsort(-np.abs(c), kind="stable")[:l]
        dv = B[:, idx] @ c[idx]
        return dv

    best = 0.0
    for _ in range(num_samples):
        z = rng.standard_normal((2, net.k))
        du = forward(net, z[0]) - forward(net, z[1])
        if float(du @ du) < 1e-24:
            continue
        dv = sparse_response(du)
        if linear:
            for _ in range(2):
                if float(dv @ dv) < 1e-24:
                    break
                du = Q @ (Q.T @ dv)
                if float(du @ du) < 1e-24:
                    break
                dv = sparse_response(du)
        nu = np.linalg.norm(du)
        nv = np.linalg.norm(dv)
        if nu < 1e-12 or nv < 1e-12:
            continue
        best = max(best, abs(float(du @ dv)) / (nu * nv))
    return best


@dataclass(frozen=True)
class DiameterGammaEstimate:
    """Sampled constraint-set diameter and gradient norm at the truth."""

    delta: float
    gamma: float | None
    num_samples: int
    seed: int


def estimate_diameter_gamma(net: GeneratorNetwork, objective: Objective | None = None,
                            x_star=None, num_samples: int = _NUM_SAMPLES, seed: int = 0
                            ) -> DiameterGammaEstimate:
    """Max pairwise distance between the images of standard-normal
    latents, plus the gradient norm at a known truth when one is supplied."""
    rng = spawn_rng(seed)
    pts = np.empty((num_samples, net.n))
    for i in range(num_samples):
        pts[i] = forward(net, rng.standard_normal(net.k))
    sq = np.sum(pts**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    delta = float(np.sqrt(max(np.max(d2), 0.0)))
    gamma = None
    if objective is not None and x_star is not None:
        gamma = float(np.linalg.norm(gradient(objective, x_star)))
    return DiameterGammaEstimate(delta=delta, gamma=gamma,
                                 num_samples=num_samples, seed=seed)


@dataclass(frozen=True)
class RegularityEstimates:
    """The bundle of constants the convergence bounds consume."""

    alpha: float
    beta: float
    mu: float
    gamma: float | None
    delta: float | None
    num_samples: int
    seed: int

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta) and self.alpha > 0):
            raise ContractError(f"need finite beta >= alpha > 0, got alpha={self.alpha}")
        if self.beta < self.alpha:
            raise ContractError(f"need beta >= alpha, got beta={self.beta} < alpha={self.alpha}")
        if not 0.0 <= self.mu < 1.0:
            raise ContractError(f"mu must lie in [0, 1), got {self.mu}")

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "mu": self.mu,
            "gamma": self.gamma,
            "delta": self.delta,
            "num_samples": self.num_samples,
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# exact oracles (linear-generator least-squares case)


def subspace_curvature(A, W) -> tuple[float, float]:
    """Exact smallest/largest curvature of ``0.5 ||y - A x||^2`` along the
    column span of ``W``: the extreme generalized eigenvalues of
    ``(A W)^T (A W)`` against ``W^T W``."""
    A = np.asarray(A, dtype=float)
    W = np.asarray(W, dtype=float)
    M = A @ W
    lams = scipy.linalg.eigh(M.T @ M, W.T @ W, eigvals_only=True)
    return float(lams[0]), float(lams[-1])


def minkowski_curvature(A, W, basis: OrthoBasis, l: int, supports=None,
                        num_supports: int = 50, seed: int = 0) -> tuple[float, float]:
    """Curvature range of the least-squares objective over the sum set
    {range point + l-sparse-in-basis deviation}.

    Differences of two such points live in span(W) plus a 2l-sparse part, so
    the exact constants per support follow from an eigendecomposition on the
    stacked subspace; supports are enumerated when given, otherwise sampled.
    Each support's bound is exact; sampling only controls how much of the
    union is covered, so alpha is an upper bound and beta a lower bound on
    the true constants over the full set.
    """
    A = np.asarray(A, dtype=float)
    W = np.asarray(W, dtype=float)
    n = basis.n
    size = min(2 * l, n)
    if supports is None:
        rng = spawn_rng(seed)
        supports = [tuple(np.sort(rng.choice(n, size=size, replace=False)))
                    for _ in range(num_supports)]
    alpha, beta = np.inf, -np.inf
    for S in supports:
        M = np.hstack([W, basis.matrix[:, list(S)]])
        Q = scipy.linalg.orth(M)
        lams = np.linalg.eigvalsh((A @ Q).T @ (A @ Q))
        alpha = min(alpha, float(lams[0]))
        beta = max(beta, float(lams[-1]))
    return alpha, beta


def _curvature_bounds(obj: Objective, net: GeneratorNetwork, basis: OrthoBasis | None = None,
                      l: int = 0, seed: int = 0) -> tuple[float, float]:
    """(alpha, beta) of ``obj`` over the range of ``net``, or over the
    range-plus-l-sparse sum set when a basis and l > 0 are given.

    Exact (:func:`subspace_curvature` / :func:`minkowski_curvature`) for
    least squares on a single affine layer; otherwise
    :func:`estimate_rsc_rss` over ``_NUM_PAIRS`` sampled pairs.
    """
    sparse = basis is not None and l > 0
    if obj.kind == "least-squares" and net.is_single_affine:
        W = net.layers[0].weights
        if sparse:
            return minkowski_curvature(obj.A, W, basis, l, seed=seed)
        return subspace_curvature(obj.A, W)
    sampler = sum_pair_sampler(net, basis, l) if sparse else latent_pair_sampler(net)
    est = estimate_rsc_rss(obj, sampler, _NUM_PAIRS, seed=seed)
    return est.alpha, est.beta


def subspace_incoherence(W, basis: OrthoBasis, support) -> float:
    """Exact incoherence between span(W) and the span of the given basis
    columns: the largest singular value of Q^T B_S with Q an orthonormal
    basis of span(W)."""
    W = np.asarray(W, dtype=float)
    Q = np.linalg.qr(W)[0]
    M = Q.T @ basis.matrix[:, list(support)]
    s = np.linalg.svd(M, compute_uv=False)
    return float(s[0]) if s.size else 0.0
