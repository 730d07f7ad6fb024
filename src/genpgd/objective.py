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

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ContractError, NumericError
from .generator import GeneratorNetwork, forward, forward_batch
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
        i = int(np.flatnonzero(~np.isfinite(rows))[0]) % rows.shape[-1]
        raise NumericError(f"non-finite intermediate at row {i}")


def value(obj: Objective, x) -> float:
    """Objective value at ``x``; raises NumericError naming the first
    offending row if any per-row term overflows."""
    t = _inner(obj, x)
    if obj.kind == "least-squares":
        r = t - obj.y
        return 0.5 * float(r @ r)
    return float(np.sum(_potential(t, obj.link) - obj.y * t))


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


def _potential(t: np.ndarray, link: str) -> np.ndarray:
    """GLM potential phi(t) of the link, elementwise; an overflowing exp
    raises NumericError naming its row."""
    if link == "sigmoid":
        # log(1 + e^t) computed without overflow for any t
        return np.log1p(np.exp(-np.abs(t))) + np.maximum(t, 0.0)
    with np.errstate(over="ignore"):
        phi = np.exp(t)
    _check_rows_finite(phi)
    return phi


def _fit_batch(obj: Objective, pts: np.ndarray):
    """:func:`value` at every row of ``pts`` through one product with A.

    Returns ``(values, R, T)``: ``T = pts A^T`` holds the inner products and
    ``R`` the link residuals (``T - y`` for least squares, ``phi'(T) - y``
    for glm), so the gradients are the rows of ``R A``.
    """
    T = pts @ obj.A.T
    _check_rows_finite(T)
    if obj.kind == "least-squares":
        R = T - obj.y
        return 0.5 * np.einsum("ij,ij->i", R, R), R, T
    fvals = np.sum(_potential(T, obj.link) - obj.y * T, axis=1)
    R = _link_mean(T, obj.link) - obj.y
    _check_rows_finite(R)
    return fvals, R, T


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
    """Pairs of range points from independent Gaussian latents:
    ``sample(rng, count)`` maps one ``standard_normal((count, 2, k))`` draw
    (the stream of ``count`` per-pair draws) by one :func:`forward_batch`
    to a (2 * count, n) array, pair i in rows 2i and 2i + 1."""

    def sample(rng, count):
        z = scale * rng.standard_normal((count, 2, net.k))
        return forward_batch(net, z.reshape(2 * count, net.k).T).T

    return sample


def sum_pair_sampler(net: GeneratorNetwork, basis: OrthoBasis, l: int):
    """Pairs of points from {range point + l-sparse-in-basis deviation}.

    Each point draws its own latent and its own sparse part on a uniform
    size-l support, point by point; ``sample(rng, count)`` maps all 2 *
    ``count`` latents by one :func:`forward_batch`, rows as in
    :func:`latent_pair_sampler`.
    """

    def sample(rng, count):
        Z = np.empty((2 * count, net.k))
        coeffs = np.zeros((basis.n, 2 * count))
        for i in range(2 * count):
            Z[i] = rng.standard_normal(net.k)
            idx = rng.choice(basis.n, size=l, replace=False)
            coeffs[idx, i] = rng.standard_normal(len(idx))
        return (forward_batch(net, Z.T) + basis.matrix @ coeffs).T

    return sample


# ---------------------------------------------------------------------------
# estimators

# sample sizes of a regularity bundle: pairs per sampled curvature bound (also
# the incoherence samples), latents per diameter estimate, sampled supports
# per exact sum-set constant
_NUM_PAIRS = 400
_NUM_SAMPLES = 64
_NUM_SUPPORTS = 50


@dataclass(frozen=True)
class CurvatureEstimate:
    """Empirical restricted curvature range with the extreme-achieving pairs."""

    alpha: float
    beta: float
    alpha_pair: tuple
    beta_pair: tuple


def _check_count(name: str, count, least: int):
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < least:
        raise ContractError(f"{name} must be an integer >= {least}, got {count!r}")


def estimate_rsc_rss(obj: Objective, sampler, num_pairs: int, seed: int = 0) -> CurvatureEstimate:
    """Min/max curvature ratio over the 2 * ``num_pairs`` points of
    ``num_pairs`` pairs drawn by ``sampler(rng, count)``, which returns a
    (2 * count, n) array holding pair i in rows 2i and 2i + 1.

    Every sampled point lies in the constraint set, so every cross pair among
    them is a valid direction: one batched pass takes F and its gradient at
    all points and the extremes over all those pairs, the as-sampled ones
    included: each unordered pair once for least squares, whose Bregman ratio
    is symmetric, and each ordered pair for glm.  :func:`curvature_ratio`
    recomputes ``alpha``/``beta`` on the winners, so each pair reproduces its value.

    Pairs closer than 1e-12 are dropped and only the missing ones redrawn,
    keeping the pairs a pair-by-pair draw keeps.  The sampler is reported
    as degenerate (:class:`ContractError`) when it cannot produce distinct
    pairs within 50x the requested count, or when its points are all too
    close together for any ratio to rise above the rounding of the
    distances.
    """
    _check_count("num_pairs", num_pairs, 1)
    rng = spawn_rng(seed)
    kept, have, drawn = [], 0, 0
    while have < num_pairs:
        count = min(num_pairs - have, 50 * num_pairs - drawn)
        if count == 0:
            raise ContractError("sampler is degenerate: cannot produce distinct pairs")
        pairs = np.asarray(sampler(rng, count), dtype=float)
        if pairs.shape != (2 * count, obj.n):
            raise ContractError(f"sampler gave shape {pairs.shape}, want {(2 * count, obj.n)}")
        drawn += count
        d = pairs[1::2] - pairs[0::2]
        kept.append(pairs.reshape(count, 2, obj.n)[np.einsum("ij,ij->i", d, d) >= 1e-24])
        have += len(kept[-1])
    pts = np.concatenate(kept).reshape(2 * num_pairs, obj.n)
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


def _sum_factors(X, c, a, b):
    """Row factors L, R with ``(L @ R.T)[i, j] = c X_i . X_j + a_i + b_j``."""
    one = np.ones((len(a), 1))
    L = np.hstack([X, a[:, None], one])
    L[:, :-2] *= c  # in place, with no scaled copy of X
    return L, np.hstack([X, one, b[:, None]])


def _cross_pair_extremes(obj: Objective, pts: np.ndarray, chunk: int = 128):
    """Index pairs (i, j) minimizing/maximizing the curvature ratio over the
    cross pairs of the rows of ``pts``, in blocks of ``chunk`` rows.

    Least squares scans each unordered pair once (square blocks on and above
    the diagonal, i < j): its ratio ``||T_i - T_j||^2 / ||p_i - p_j||^2``,
    ``T = pts A^T``, is symmetric, and :func:`_sum_factors` gives a block of
    numerators, distances or mask floors by one product.  glm scans every
    ordered pair (from p_i to p_j) over whole rows, with F and the link
    residuals R from :func:`_fit_batch`: ``<grad F(p_i), p_j> = R_i . T_j``.
    Gram-expanded distances carry cancellation noise of about 1e-16 times the
    point scale, so pairs closer than ``1e-12 (|p_i|^2 + 1 + |p_j|^2)`` are
    masked out rather than trusted; returns None if nothing survives.
    """
    fvals, R, T = _fit_batch(obj, pts)
    sq = np.sum(pts * pts, axis=1)
    symmetric = obj.kind == "least-squares"
    if symmetric:
        tq = np.sum(T * T, axis=1)
        dist = _sum_factors(pts, -2.0, sq, sq)
        rise = _sum_factors(T, -2.0, tq, tq)
        floor = _sum_factors(pts[:, :0], 0.0, 1e-12 * (sq + 1.0), 1e-12 * sq)
        lower = np.tri(chunk, dtype=bool)  # j <= i on a diagonal block
    else:
        gp = np.sum(R * T, axis=1)
    best_lo, best_hi = np.inf, -np.inf
    at_lo = at_hi = None
    for start in range(0, len(pts), chunk):
        rows = slice(start, start + chunk)
        for col in range(start, len(pts), chunk) if symmetric else (0,):
            if symmetric:
                cols = slice(col, col + chunk)
                dd = dist[0][rows] @ dist[1][cols].T
                masked = dd < floor[0][rows] @ floor[1][cols].T
                r = rise[0][rows] @ rise[1][cols].T
                if col == start:
                    masked |= lower[:len(r), :len(r)]
            else:
                dd = np.add.outer(sq[rows], sq) - 2.0 * (pts[rows] @ pts.T)
                masked = dd < 1e-12 * np.add.outer(sq[rows] + 1.0, sq)
                r = R[rows] @ T.T
                r -= gp[rows, None]
                np.subtract(fvals - fvals[rows, None], r, out=r)
                r *= 2.0
            with np.errstate(divide="ignore", invalid="ignore"):
                r /= dd  # masked entries are overwritten below
            r[masked] = np.inf
            i, j = np.unravel_index(np.argmin(r), r.shape)
            if r[i, j] < best_lo:
                best_lo, at_lo = float(r[i, j]), (start + int(i), col + int(j))
            r[masked] = -np.inf
            i, j = np.unravel_index(np.argmax(r), r.shape)
            if r[i, j] > best_hi:
                best_hi, at_hi = float(r[i, j]), (start + int(i), col + int(j))
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
    _check_count("num_samples", num_samples, 1)
    rng = spawn_rng(seed)
    B = basis.matrix
    sup = None if support is None else np.asarray(support, dtype=int)
    linear = net.is_single_affine
    if linear:
        Q = np.linalg.qr(net.layers[0].weights)[0]

    def sparse_response(du):
        c = B.T @ du
        idx = sup if sup is not None else np.argsort(-np.abs(c), kind="stable")[:l]
        return B[:, idx] @ c[idx]

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
    """Max pairwise distance between the images of ``num_samples``
    standard-normal latents (one draw, mapped by one :func:`forward_batch`),
    plus the gradient norm at a known truth when one is supplied."""
    _check_count("num_samples", num_samples, 2)
    rng = spawn_rng(seed)
    pts = forward_batch(net, rng.standard_normal((num_samples, net.k)).T).T
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
        return asdict(self)


# ---------------------------------------------------------------------------
# exact oracles (linear-generator least-squares case)


# a support whose sparse directions keep a squared sine of less than this to
# span(W) (the smallest eigenvalue of C_S in :class:`_SumSetKernel`) is left
# to :func:`_span_curvature`: the Cholesky route's rounding grows as
# eps / lambda_min(C_S)
_MIN_SINE_SQ = 0.1


def _span_basis(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(M): the left singular vectors of ``M``
    whose singular values exceed ``max(M.shape) * eps * sigma_max``."""
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return U[:, s > max(M.shape) * np.finfo(float).eps * s[0]]


def _span_curvature(A: np.ndarray, M: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues of ``(A Q)^T (A Q)`` with ``Q`` the
    :func:`_span_basis` of ``M``, the smallest and largest curvature of
    ``0.5 ||y - A x||^2`` along span(M)."""
    AQ = A @ _span_basis(M)
    lams = np.linalg.eigvalsh(AQ.T @ AQ)
    return float(lams[0]), float(lams[-1])


def subspace_curvature(A, W) -> tuple[float, float]:
    """Exact smallest/largest curvature of ``0.5 ||y - A x||^2`` along the
    column span of ``W`` (:func:`_span_curvature` on ``W``)."""
    return _span_curvature(np.asarray(A, dtype=float), np.asarray(W, dtype=float))


def _by_size(supports):
    """The supports grouped by size: one (count, size) index array each."""
    groups = {}
    for S in supports:
        S = np.asarray(S, dtype=int)
        groups.setdefault(S.size, []).append(S)
    return [np.array(g, dtype=int).reshape(len(g), size) for size, g in groups.items()]


def _sampled_supports(n: int, size: int, rng, count: int = _NUM_SUPPORTS) -> list:
    """``count`` sorted uniform size-``size`` subsets of range(n), one
    ``rng.choice`` each."""
    return [np.sort(rng.choice(n, size=size, replace=False)) for _ in range(count)]


class _SumSetKernel:
    """The exact oracles of the sum set {W z + l-sparse-in-B}, batched over
    supports from one factor of span(W).

    ``Q`` is the :func:`_span_basis` of W and ``K = Q^T B`` holds the basis
    columns' coordinates in it; every constant below is read off them.
    """

    def __init__(self, W, basis: OrthoBasis):
        self.W = np.asarray(W, dtype=float)
        self.B = basis.matrix
        self.Q = _span_basis(self.W)
        self.K = self.Q.T @ self.B

    def incoherence(self, supports) -> float:
        """Largest over the supports of the top singular value of
        ``K[:, S]``, the exact incoherence between span(W) and span(B_S);
        one batched SVD per support size, 0 for no columns."""
        mu = 0.0
        for idx in _by_size(supports):
            if idx.shape[1]:
                s = np.linalg.svd(self.K[:, idx].transpose(1, 0, 2), compute_uv=False)
                mu = max(mu, float(np.max(s[:, 0])))
        return mu

    def curvature(self, A, supports) -> tuple[float, float]:
        """Smallest and largest curvature of ``0.5 ||y - A x||^2`` over the
        spans of ``[W, B_S]``, S over the supports.

        P = B - Q K is the part of B off span(W).  With X = A Q, Y = A P and
        the Cholesky factor L_S of C_S = P_S^T P_S, [Q, P_S L_S^-T] is an
        orthonormal basis of span([W, B_S]), so the curvatures along it are
        the eigenvalues of the Gram of [X, Y_S L_S^-T]: blocks gathered from
        X^T X, X^T Y and Y^T Y (taken once, over the columns the supports
        use), then one batched cholesky/inv/eigvalsh per support size.  A
        support whose C_S is not safely positive definite (B_S close to
        span(W), or rank(W) + |S| > n) goes to :func:`_span_curvature`.
        """
        A = np.asarray(A, dtype=float)
        groups = _by_size(supports)
        cols = np.unique(np.concatenate([np.empty(0, dtype=int)] + [g.ravel() for g in groups]))
        X = A @ self.Q
        Bu, Ku = self.B[:, cols], self.K[:, cols]
        Y = A @ Bu - X @ Ku
        Gxx, Gxy, Gyy = X.T @ X, X.T @ Y, Y.T @ Y
        C = Bu.T @ Bu - Ku.T @ Ku
        r = X.shape[1]
        alpha, beta = np.inf, -np.inf
        for idx in groups:
            J = np.searchsorted(cols, idx)
            s = J.shape[1]
            C_S = C[J[:, :, None], J[:, None, :]]
            safe = (np.linalg.eigvalsh(C_S)[:, 0] > _MIN_SINE_SQ if s
                    else np.ones(len(J), dtype=bool))
            for S in idx[~safe]:
                lo, hi = _span_curvature(A, np.hstack([self.W, self.B[:, S]]))
                alpha, beta = min(alpha, lo), max(beta, hi)
            if not safe.any():
                continue
            J = J[safe]
            Li = np.linalg.inv(np.linalg.cholesky(C_S[safe]))
            LiT = Li.transpose(0, 2, 1)
            H = np.empty((len(J), r + s, r + s))
            H[:, :r, :r] = Gxx
            H[:, r:, :r] = Li @ Gxy[:, J].transpose(1, 2, 0)
            H[:, :r, r:] = H[:, r:, :r].transpose(0, 2, 1)
            H[:, r:, r:] = Li @ Gyy[J[:, :, None], J[:, None, :]] @ LiT
            lams = np.linalg.eigvalsh(H)
            alpha = min(alpha, float(lams[:, 0].min()))
            beta = max(beta, float(lams[:, -1].max()))
        return alpha, beta


def minkowski_curvature(A, W, basis: OrthoBasis, l: int, supports=None,
                        num_supports: int = _NUM_SUPPORTS, seed: int = 0
                        ) -> tuple[float, float]:
    """Curvature range of the least-squares objective over the sum set
    {range point + l-sparse-in-basis deviation}.

    Differences of two such points live in span(W) plus a 2l-sparse part, so
    the exact constants per support are those of span([W, B_S])
    (:meth:`_SumSetKernel.curvature`); supports are enumerated when given,
    otherwise sampled.  Each support's bound is exact; sampling only
    controls how much of the union is covered, so alpha is an upper bound
    and beta a lower bound on the true constants over the full set.
    """
    if supports is None:
        supports = _sampled_supports(basis.n, min(2 * l, basis.n), spawn_rng(seed),
                                     num_supports)
    return _SumSetKernel(W, basis).curvature(A, supports)


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
    columns: the largest singular value of Q^T B_S with Q the
    :func:`_span_basis` of W."""
    return _SumSetKernel(W, basis).incoherence([support])
