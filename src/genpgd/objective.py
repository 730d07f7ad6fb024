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
from .seeding import check_count, derive_seed, spawn_rng

__all__ = [
    "Objective",
    "value",
    "gradient",
    "estimate_rsc_rss",
    "estimate_incoherence",
    "subspace_curvature",
    "minkowski_curvature",
    "subspace_incoherence",
]

_MEASUREMENTS = ("linear", "glm-sigmoid", "glm-exp")


@dataclass(frozen=True)
class Objective:
    """A data-fit objective over signals of length n, named by the config's
    ``problem.measurement``: ``linear`` (least squares), ``glm-sigmoid`` or
    ``glm-exp``."""

    measurement: str
    A: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.measurement not in _MEASUREMENTS:
            raise ContractError(
                f"measurement must be one of {_MEASUREMENTS}, got {self.measurement!r}")
        A = np.asarray(self.A, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if A.ndim != 2:
            raise ContractError(f"A must be 2-d, got shape {A.shape}")
        if y.shape != (A.shape[0],):
            raise ContractError(f"y shape {y.shape} does not match A rows {A.shape[0]}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(y))):
            raise ContractError("A and y must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)

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
    if not np.isfinite(rows).all():
        i = int(np.flatnonzero(~np.isfinite(rows))[0]) % rows.shape[-1]
        raise NumericError(f"non-finite intermediate at row {i}")


def _fit(obj: Objective, x) -> tuple[float, np.ndarray]:
    """F(x) and the link residual R (``A x - y``, or ``phi'(A x) - y`` for
    glm) from one product with A, so the gradient is ``A^T R``.  Raises
    NumericError naming the first overflowing row; an exp link's phi' is
    its phi, so checking the potential covers R too."""
    t = _inner(obj, x)
    if obj.measurement == "linear":
        R = t - obj.y
        return 0.5 * float(R @ R), R
    f = float(np.sum(_potential(t, obj.measurement) - obj.y * t))
    return f, _link_mean(t, obj.measurement) - obj.y


def value(obj: Objective, x) -> float:
    """Objective value at ``x``; raises NumericError naming the first
    offending row if any per-row term overflows."""
    return _fit(obj, x)[0]


def gradient(obj: Objective, x) -> np.ndarray:
    """Gradient of :func:`value` at ``x``: ``A^T (A x - y)`` for least
    squares, ``A^T (phi'(A x) - y)`` for glm."""
    return obj.A.T @ _fit(obj, x)[1]


def _link_mean(t: np.ndarray, measurement: str) -> np.ndarray:
    """Response mean of ``measurement`` at inner products ``t``: ``t`` itself
    for ``linear``, else phi'(t) of the GLM potential; overflow of the exp
    link is left as inf for the caller to reject."""
    if measurement == "linear":
        return t
    if measurement == "glm-sigmoid":
        return 0.5 * (1.0 + np.tanh(0.5 * t))  # stable logistic
    with np.errstate(over="ignore"):
        return np.exp(t)


def _potential(t: np.ndarray, measurement: str) -> np.ndarray:
    """GLM potential phi(t) of a glm ``measurement``, elementwise; an
    overflowing exp raises NumericError naming its row."""
    if measurement == "glm-sigmoid":
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
    for glm), so the gradients are the rows of ``R A``; as in :func:`_fit`,
    the finite checks of T and of the potential cover R.
    """
    T = pts @ obj.A.T
    _check_rows_finite(T)
    if obj.measurement == "linear":
        R = T - obj.y
        return 0.5 * np.einsum("ij,ij->i", R, R), R, T
    fvals = np.sum(_potential(T, obj.measurement) - obj.y * T, axis=1)
    return fvals, _link_mean(T, obj.measurement) - obj.y, T


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
# estimators

# sample sizes of a regularity bundle: pairs per sampled curvature bound (also
# the incoherence samples), latents per diameter estimate, sampled supports
# per exact sum-set constant
_NUM_PAIRS = 400
_NUM_SAMPLES = 64
_NUM_SUPPORTS = 50


def _sample_points(net: GeneratorNetwork, rng, count: int, basis: OrthoBasis | None = None,
                   l: int = 0) -> np.ndarray:
    """``count`` points of the range of ``net``, or of the
    range-plus-l-sparse sum set when a basis and l > 0 are given, as the
    rows of a (count, n) array.

    Range points map one ``standard_normal((count, k))`` draw (the stream of
    ``count`` per-point draws) by one :func:`forward_batch`.  Each sum-set
    point draws its own latent, then its own sparse part on a uniform size-l
    support, point by point, and all the latents go through one
    :func:`forward_batch`.
    """
    if basis is None or l == 0:
        return forward_batch(net, rng.standard_normal((count, net.k)).T).T
    Z = np.empty((count, net.k))
    coeffs = np.zeros((basis.n, count))
    for i in range(count):
        Z[i] = rng.standard_normal(net.k)
        idx = rng.choice(basis.n, size=l, replace=False)  # drawn before its values
        coeffs[idx, i] = rng.standard_normal(l)
    return (forward_batch(net, Z.T) + basis.matrix @ coeffs).T


def estimate_rsc_rss(obj: Objective, pts) -> tuple[float, float]:
    """``(alpha, beta)``: the min/max curvature ratio over the cross pairs of
    the rows of ``pts``, a finite (N, n) array of constraint-set points.

    Every row lies in the constraint set, so every cross pair among them is
    a valid direction: one batched pass takes F and its gradient at all
    points and the extremes over all those pairs: each unordered pair once
    for least squares, whose Bregman ratio is symmetric, and each ordered
    pair for glm.  Each value is :func:`curvature_ratio` at the pair
    :func:`_cross_pair_extremes` picks.

    Near-duplicate points are masked by the scan's distance floor.  Points
    that are not finite, or not (N, n), are rejected
    (:class:`ContractError`), and so are points all too close together for
    any ratio to rise above the rounding of the distances.
    """
    pts = np.ascontiguousarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != obj.n:
        raise ContractError(f"points have shape {pts.shape}, want (N, {obj.n})")
    if not np.all(np.isfinite(pts)):
        raise ContractError("points are not finite")
    extremes = _cross_pair_extremes(obj, pts)
    if extremes is None:
        raise ContractError(
            "points are degenerate: no pair of them is far enough apart "
            "for a curvature ratio above rounding")
    return tuple(curvature_ratio(obj, pts[i], pts[j]) for i, j in extremes)


def _sum_factors(X, Y, c, a, b):
    """Row factors L, R with ``(L @ R.T)[i, j] = c X_i . Y_j + a_i + b_j``."""
    one = np.ones((len(a), 1))
    L = np.hstack([X, a[:, None], one])
    L[:, :-2] *= c  # in place, with no scaled copy of X
    return L, np.hstack([Y, one, b[:, None]])


def _cross_pair_extremes(obj: Objective, pts: np.ndarray, chunk: int = 128):
    """Index pairs (i, j) minimizing/maximizing the curvature ratio over the
    cross pairs of the rows of ``pts``, in square blocks of ``chunk`` rows.

    Each block's numerators and distances are one product of
    :func:`_sum_factors`.  Least squares scans each unordered pair once
    (blocks on and above the diagonal, i < j): its ratio
    ``||T_i - T_j||^2 / ||p_i - p_j||^2``, ``T = pts A^T``, is symmetric.
    glm scans every ordered pair (from p_i to p_j), with F and the link
    residuals R from :func:`_fit_batch`: ``<grad F(p_i), p_j> = R_i . T_j``.
    Gram-expanded distances carry cancellation noise of about 1e-16 times the
    point scale, so pairs closer than ``1e-12 (|p_i|^2 + 1 + |p_j|^2)`` are
    masked out rather than trusted (the floor is summed as ``fa_i + fb_j``,
    which has the bits a product of the factors ``[fa_i, 1]`` and
    ``[1, fb_j]`` has); returns None if nothing survives.

    A block builds that floor mask only when a winner needs it: its first
    argmin and argmax are taken on the raw ratios (j <= i left out on a
    least-squares diagonal block), and only when one of them is a pair
    under the floor, or a NaN, is the block masked and scanned again.  The
    winners cannot change: masking only turns entries into +inf (-inf for
    the max), so a raw first minimum that is not masked and not NaN (then
    no entry is NaN) is still the masked block's first minimum, or ties it
    at inf, which wins nothing.  No least-squares block of the 128 seed-11
    relu-latentgd items needed its mask; a glm scan masks each diagonal
    block, whose i = j pairs lie under the floor.
    """
    symmetric = obj.measurement == "linear"
    if symmetric:  # the ratio reads T alone: no residuals or values
        T = pts @ obj.A.T
        _check_rows_finite(T)
        tq = np.sum(T * T, axis=1)
        rise = _sum_factors(T, T, -2.0, tq, tq)
    else:
        fvals, R, T = _fit_batch(obj, pts)
        rise = _sum_factors(R, T, -2.0, 2.0 * (np.sum(R * T, axis=1) - fvals), 2.0 * fvals)
    sq = np.sum(pts * pts, axis=1)
    dist = _sum_factors(pts, pts, -2.0, sq, sq)
    fa, fb = 1e-12 * (sq + 1.0), 1e-12 * sq  # the floor of pair (i, j) is fa_i + fb_j
    lower = np.tri(chunk, dtype=bool)  # j <= i on a diagonal block
    best_lo, best_hi = np.inf, -np.inf
    at_lo = at_hi = None
    with np.errstate(divide="ignore", invalid="ignore"):  # x/0 and 0/0 lie under the floor
        for start in range(0, len(pts), chunk):
            rows = slice(start, start + chunk)
            for col in range(start if symmetric else 0, len(pts), chunk):
                cols = slice(col, col + chunk)
                dd = dist[0][rows] @ dist[1][cols].T
                r = rise[0][rows] @ rise[1][cols].T
                r /= dd
                tri = lower[:len(r), :len(r)] if symmetric and col == start else False
                for masked in (tri, None):  # the floor mask only when a winner needs it
                    if masked is None:
                        masked = tri | (dd < fa[rows, None] + fb[cols])
                    r[masked] = np.inf
                    lo = divmod(int(np.argmin(r)), r.shape[1])
                    v_lo = r[lo]
                    r[masked] = -np.inf
                    hi = divmod(int(np.argmax(r)), r.shape[1])
                    if v_lo == v_lo and all(dd[i, j] >= fa[start + i] + fb[col + j]
                                            for i, j in (lo, hi)):
                        break
                if v_lo < best_lo:
                    best_lo, at_lo = float(v_lo), (start + lo[0], col + lo[1])
                if r[hi] > best_hi:
                    best_hi, at_hi = float(r[hi]), (start + hi[0], col + hi[1])
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
    check_count("num_samples", num_samples, 1)
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


def estimate_diameter_gamma(net: GeneratorNetwork, objective: Objective, x_star,
                            seed: int = 0) -> tuple[float, float]:
    """``(delta, gamma)``: the max pairwise distance between the images of
    ``_NUM_SAMPLES`` range points (:func:`_sample_points` from ``seed``),
    and the norm of the gradient of ``objective`` at ``x_star``."""
    pts = _sample_points(net, spawn_rng(seed), _NUM_SAMPLES)
    sq = np.sum(pts**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    delta = float(np.sqrt(max(np.max(d2), 0.0)))
    return delta, float(np.linalg.norm(gradient(objective, x_star)))


@dataclass(frozen=True)
class RegularityEstimates:
    """The bundle of constants the convergence bounds consume.  alpha may be
    0 (a span wider than A has rows, under every oracle), which leaves no
    theory rate; beta must be positive, since the default step size is
    1/beta.  gamma and delta are :func:`estimate_diameter_gamma`'s, finite
    and >= 0: the violation floor 2*gamma*delta + ... of a solve is built
    from them."""

    alpha: float
    beta: float
    mu: float
    gamma: float
    delta: float
    num_samples: int
    seed: int

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ContractError(f"need a finite beta > 0, got beta={self.beta}")
        if not 0.0 <= self.alpha <= self.beta:
            raise ContractError(
                f"need 0 <= alpha <= beta, got alpha={self.alpha}, beta={self.beta}")
        if not 0.0 <= self.mu < 1.0:
            raise ContractError(f"mu must lie in [0, 1), got {self.mu}")
        if not (0.0 <= self.gamma < np.inf and 0.0 <= self.delta < np.inf):
            raise ContractError(
                f"need finite gamma, delta >= 0, got gamma={self.gamma}, delta={self.delta}")

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# exact oracles (linear-generator least-squares case)


# a support whose sparse directions keep a squared sine of less than this to
# span(W) (the smallest eigenvalue of C_S in :class:`_SumSetKernel`) is left
# to :func:`subspace_curvature`: the Cholesky route's rounding grows as
# eps / lambda_min(C_S)
_MIN_SINE_SQ = 0.1


def _span_basis(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(M): the left singular vectors of ``M``
    whose singular values exceed ``max(M.shape) * eps * sigma_max``."""
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return U[:, s > max(M.shape) * np.finfo(float).eps * s[0]]


def subspace_curvature(A, W) -> tuple[float, float]:
    """Exact smallest/largest curvature of ``0.5 ||y - A x||^2`` along the
    column span of ``W``: the extreme eigenvalues of ``(A Q)^T (A Q)`` with
    ``Q`` the :func:`_span_basis` of ``W``.  The smallest is exactly 0 when
    A Q has more columns than rows, where eigvalsh would return rounding
    of either sign."""
    AQ = np.asarray(A, dtype=float) @ _span_basis(np.asarray(W, dtype=float))
    lams = np.linalg.eigvalsh(AQ.T @ AQ)
    return float(lams[0]) if AQ.shape[1] <= AQ.shape[0] else 0.0, float(lams[-1])


def _by_size(supports):
    """The supports grouped by size: one (count, size) index array each."""
    groups = {}
    for S in supports:
        S = np.asarray(S, dtype=int)
        groups.setdefault(S.size, []).append(S)
    return [np.array(g, dtype=int).reshape(len(g), size) for size, g in groups.items()]


def _sampled_supports(n: int, size: int, rng) -> list:
    """``_NUM_SUPPORTS`` sorted uniform size-``size`` subsets of range(n),
    one ``rng.choice`` each."""
    return [np.sort(rng.choice(n, size=size, replace=False)) for _ in range(_NUM_SUPPORTS)]


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
        span(W), or rank(W) + |S| > n) goes to :func:`subspace_curvature`.
        Like there, the smallest curvature of a span wider than A has rows
        is exactly 0.
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
                lo, hi = subspace_curvature(A, np.hstack([self.W, self.B[:, S]]))
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
            alpha = min(alpha, float(lams[:, 0].min()) if r + s <= len(A) else 0.0)
            beta = max(beta, float(lams[:, -1].max()))
        return alpha, beta


def minkowski_curvature(A, W, basis: OrthoBasis, l: int, supports=None, seed: int = 0
                        ) -> tuple[float, float]:
    """Curvature range of the least-squares objective over the sum set
    {range point + l-sparse-in-basis deviation}.

    Differences of two such points live in span(W) plus a 2l-sparse part, so
    the exact constants per support are those of span([W, B_S])
    (:meth:`_SumSetKernel.curvature`); supports are enumerated when given,
    otherwise ``_NUM_SUPPORTS`` are sampled from ``seed`` by
    :func:`_sampled_supports`.  Each support's bound is exact; sampling only
    controls how much of the union is covered, so alpha is an upper bound
    and beta a lower bound on the true constants over the full set.
    """
    if supports is None:
        supports = _sampled_supports(basis.n, min(2 * l, basis.n), spawn_rng(seed))
    return _SumSetKernel(W, basis).curvature(A, supports)


def _exact(obj: Objective, net: GeneratorNetwork) -> bool:
    """Whether the exact oracles apply: least squares on a single affine layer."""
    return obj.measurement == "linear" and net.is_single_affine


def _curvature_bounds(obj: Objective, net: GeneratorNetwork, basis: OrthoBasis | None = None,
                      l: int = 0, seed: int = 0) -> tuple[float, float]:
    """(alpha, beta) of ``obj`` over the range of ``net``, or over the
    range-plus-l-sparse sum set when a basis and l > 0 are given.

    Exact (:func:`subspace_curvature` / :func:`minkowski_curvature`) when
    :func:`_exact`; otherwise :func:`estimate_rsc_rss` over 2 *
    ``_NUM_PAIRS`` points that :func:`_sample_points` draws from ``seed``.
    Either way alpha is exactly 0 when A has fewer rows than the span has
    dimensions (rank W exactly, k on the sampled path, plus min(2l, n) over
    a sum set), where sampled pairs would miss the flat direction and read
    a small positive ratio.  A net narrower than k so
    loses its alpha on the sampled path rather than keep a wrong one.
    """
    sparse = basis is not None and l > 0
    if _exact(obj, net):
        W = net.layers[0].weights
        if sparse:
            return minkowski_curvature(obj.A, W, basis, l, seed=seed)
        return subspace_curvature(obj.A, W)
    # in C order here, so the drawn array is freed before the scan, not held through it
    pts = np.ascontiguousarray(_sample_points(net, spawn_rng(seed), 2 * _NUM_PAIRS, basis, l))
    alpha, beta = estimate_rsc_rss(obj, pts)
    if len(obj.A) < net.k + (min(2 * l, net.n) if sparse else 0):
        alpha = 0.0
    return alpha, beta


def _regularity(obj: Objective, net: GeneratorNetwork, basis: OrthoBasis | None, l: int,
                x_star, truth_support, seed: int) -> RegularityEstimates:
    """The regularity bundle of ``obj`` on ``net`` (plus l-sparse-in-``basis``
    deviations when l > 0), gamma at ``x_star``: alpha and beta from
    :func:`_curvature_bounds`; mu 0 when l = 0, else exact over 50 sampled
    l-supports plus ``truth_support`` (a lower bound) or sampled by
    :func:`estimate_incoherence`; delta and gamma from
    :func:`estimate_diameter_gamma`.  Every oracle choice, sample size and
    seed of the bundle is made here."""
    exact = _exact(obj, net)
    alpha, beta = _curvature_bounds(obj, net, basis, l, seed=derive_seed(seed, 0))
    if l == 0:
        mu = 0.0
    elif exact:
        supports = _sampled_supports(basis.n, l, spawn_rng(seed, 1)) + [truth_support]
        mu = _SumSetKernel(net.layers[0].weights, basis).incoherence(supports)
    else:
        mu = estimate_incoherence(net, basis, l, num_samples=_NUM_PAIRS,
                                  seed=derive_seed(seed, 1))
    delta, gamma = estimate_diameter_gamma(net, obj, x_star, seed=derive_seed(seed, 2))
    return RegularityEstimates(alpha=alpha, beta=beta, mu=mu, gamma=gamma, delta=delta,
                               num_samples=0 if exact else _NUM_PAIRS, seed=seed)


def subspace_incoherence(W, basis: OrthoBasis, support) -> float:
    """Exact incoherence between span(W) and the span of the given basis
    columns: the largest singular value of Q^T B_S with Q the
    :func:`_span_basis` of W."""
    return _SumSetKernel(W, basis).incoherence([support])
