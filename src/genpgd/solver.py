"""Projected-gradient solvers and contraction diagnostics.

``epsilon_pgd`` minimizes an objective over the range of a generator by
alternating a gradient step with a (possibly approximate) projection back
onto the range.  Given an orthonormal basis it is the two-block Myopic
ε-PGD for signals that are a range point plus an l-sparse deviation: both
blocks step against the *same* gradient of the combined iterate, then
re-project / re-threshold independently — no inner alternating
minimization.  ``myopic_pgd`` is that call under its own name.

The theory helper converts curvature and incoherence constants into a
per-iteration contraction factor for the optimality gap, and
``contraction_report`` measures how a recorded gap sequence actually behaved
against such a factor.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DivergenceError
from .generator import GeneratorNetwork
from .objective import Objective, _curvature_bounds, gradient, value
from .projection import OrthoBasis, ProjectionConfig, hard_threshold_coeffs, project

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "IterationTrace",
    "ContractionReport",
    "epsilon_pgd",
    "myopic_pgd",
    "default_step_size",
    "contraction_report",
    "contraction_factor",
    "trace_to_csv",
    "trace_from_csv",
]

TRACE_COLUMNS = ("t", "f_value", "gap", "dist_to_truth", "proj_residual_sq", "wall_time_us")


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and step policy for both solver modes.

    ``eta=None`` resolves to 1/beta-hat at solve time: ``run_solve`` takes
    beta-hat from the solve's one regularity bundle, and a direct call of
    :func:`epsilon_pgd` / :func:`myopic_pgd` from :func:`default_step_size`.
    ``stop_gap`` ends the run early once the optimality gap falls to that
    level; it needs a known truth.  ``l`` is the sparsity budget of the
    myopic mode's deviation block.
    """

    eta: float | None = None
    iters: int = 100
    mode: str = "pgd"
    l: int = 0
    stop_gap: float | None = None

    def __post_init__(self):
        if self.mode not in ("pgd", "myopic"):
            raise ConfigError(f"unknown solver mode {self.mode!r}")
        if self.eta is not None and not self.eta > 0:
            raise ConfigError(f"eta must be positive, got {self.eta}")
        if self.iters < 1:
            raise ConfigError(f"iters must be >= 1, got {self.iters}")
        if self.l < 0:
            raise ConfigError(f"sparsity l must be nonnegative, got {self.l}")
        if self.stop_gap is not None and self.stop_gap < 0:
            raise ConfigError(f"stop_gap must be nonnegative, got {self.stop_gap}")


@dataclass(frozen=True)
class IterationRecord:
    t: int
    f_value: float
    gap: float | None
    dist_to_truth: float | None
    proj_residual_sq: float
    wall_time: float  # seconds spent producing this record


@dataclass
class IterationTrace:
    """Everything a solve recorded: per-iteration rows plus final state.

    ``final_components`` (range block, sparse block) and ``sparse_nnz`` (one
    count per row) are set only by a solve with a sparse block."""

    records: list[IterationRecord]
    final_point: np.ndarray
    final_components: tuple[np.ndarray, np.ndarray] | None
    eta: float
    proj_time_total: float
    grad_time_total: float
    sparse_nnz: list[int] | None = None

    def gaps(self) -> np.ndarray:
        if any(r.gap is None for r in self.records):
            raise ContractError("trace has no gap values; solve with a known truth")
        return np.array([r.gap for r in self.records])


def default_step_size(objective: Objective, net: GeneratorNetwork,
                      basis: OrthoBasis | None = None, l: int = 0,
                      seed: int = 0) -> float:
    """1/beta-hat for the given problem, for solver calls made without a
    step size.

    beta-hat comes from the curvature routine behind
    ``harness.estimate_regularity`` (same oracle choice, same pair count):
    exact for least squares on a single affine layer, over the range alone
    or over the range-plus-sparse sum set when a basis and ``l`` > 0 are
    supplied, and sampled otherwise.  ``run_solve`` never calls this; it
    sets eta from its regularity bundle.
    """
    _, beta = _curvature_bounds(objective, net, basis, l, seed=seed)
    if not beta > 0:
        raise ContractError(f"estimated smoothness {beta} is not positive")
    return 1.0 / beta


def epsilon_pgd(objective: Objective, net: GeneratorNetwork,
                proj_cfg: ProjectionConfig, cfg: SolverConfig,
                x0=None, x_star=None, basis: OrthoBasis | None = None) -> IterationTrace:
    """Gradient step then range projection, from ``x0`` (default zero).

    With a ``basis`` the iterate is x_t = u_t + v_t, a range block plus a
    ``cfg.l``-sparse block in that basis (which starts at zero).  Both
    blocks consume the one gradient g taken at x_t: the range block
    re-projects u_t - eta*g, the sparse block re-thresholds v_t - eta*g, and
    neither sees the other's update within an iteration.  Without a basis
    there is no sparse block and x_t = u_t.

    Records one row per iteration (row 0 is the initial state).  Raises
    :class:`DivergenceError` with the partial trace if the objective blows
    past 1e3 times its initial value or stops being finite.
    """
    if cfg.stop_gap is not None and x_star is None:
        raise ConfigError("stop_gap needs a known truth point")
    f_star = None
    if x_star is not None:
        x_star = np.asarray(x_star, dtype=float)
        f_star = value(objective, x_star)
    eta = cfg.eta if cfg.eta is not None else default_step_size(objective, net, basis, cfg.l)
    u = x = np.zeros(net.n) if x0 is None else np.asarray(x0, dtype=float)
    v = nnz = None
    if basis is not None:
        v, nnz = np.zeros(net.n), [0]
        x = u + v
    records = []

    def record(t, f, residual_sq, wall):
        records.append(IterationRecord(
            t=t, f_value=f, gap=None if f_star is None else f - f_star,
            dist_to_truth=None if x_star is None else float(np.linalg.norm(x - x_star)),
            proj_residual_sq=residual_sq, wall_time=wall))

    f = value(objective, x)
    record(0, f, 0.0, 0.0)
    threshold = 1e3 * max(f, 1e-12)
    proj_t = grad_t = 0.0
    diverged = False
    for t in range(1, cfg.iters + 1):
        tic = time.perf_counter()
        g = gradient(objective, x)
        grad_t += time.perf_counter() - tic
        toc = time.perf_counter()
        res = project(proj_cfg, net, u - eta * g)
        proj_t += time.perf_counter() - toc
        u = x = res.point
        if basis is not None:
            v, coeffs = hard_threshold_coeffs(basis, v - eta * g, cfg.l)
            x = u + v
        f = value(objective, x)
        diverged = not np.isfinite(f) or f > threshold
        if diverged:
            break
        record(t, f, res.residual_sq, time.perf_counter() - tic)
        if nnz is not None:
            nnz.append(int(np.count_nonzero(coeffs)))
        if cfg.stop_gap is not None and records[-1].gap <= cfg.stop_gap:
            break
    trace = IterationTrace(
        records=records,
        final_point=x,
        final_components=None if basis is None else (u, v),
        eta=eta,
        proj_time_total=proj_t,
        grad_time_total=grad_t,
        sparse_nnz=nnz,
    )
    if diverged:
        raise DivergenceError(
            f"objective value {f:.3e} at iteration {t} exceeds the divergence "
            f"guard ({threshold:.3e}); step size is likely too large",
            trace=trace,
        )
    return trace


def myopic_pgd(objective: Objective, net: GeneratorNetwork, basis: OrthoBasis,
               proj_cfg: ProjectionConfig, cfg: SolverConfig,
               x_star=None) -> IterationTrace:
    """Myopic ε-PGD: :func:`epsilon_pgd` from zero with the sparse block in
    ``basis``."""
    return epsilon_pgd(objective, net, proj_cfg, cfg, x_star=x_star, basis=basis)


# ---------------------------------------------------------------------------
# theory rates


def contraction_factor(alpha: float, beta: float, mu: float = 0.0) -> float:
    """Per-iteration gap factor for step size 1/beta:
    ``(r - 1 + 3c) / (1 - c)`` with r = beta/alpha and
    c = r mu / (2 (1 - mu)).

    The descent lemma with eta = 1/beta gives
    gap_{t+1} <= (beta/alpha - 1) gap_t + floor once the current gap is moved
    to the right-hand side; the incoherence ``mu`` between the range and the
    sparse directions adds the coupling c of the two-block solver.  At
    mu = 0 (no sparse block) the factor is exactly beta/alpha - 1, which
    contracts when beta/alpha < 2.  Returns +inf when the denominator is
    nonpositive (the bound is vacuous there).
    """
    if not (np.isfinite(alpha) and alpha > 0 and beta >= alpha):
        raise ContractError(f"need beta >= alpha > 0, got alpha={alpha}, beta={beta}")
    if not 0.0 <= mu < 1.0:
        raise ContractError(f"mu must lie in [0, 1), got {mu}")
    r = beta / alpha
    coupling = 0.5 * r * mu / (1.0 - mu)
    den = 1.0 - coupling
    if den <= 0:
        return np.inf
    return (r - 1.0 + 3.0 * coupling) / den


# ---------------------------------------------------------------------------
# empirical contraction measurement


@dataclass(frozen=True)
class ContractionReport:
    """How a gap sequence behaved: per-step ratios, violations of a bound,
    fitted geometric rate over the pre-plateau segment, detected plateau.

    ``fit_end`` is the exclusive end of the segment used for both the rate
    fit and violation counting (the whole sequence when no plateau)."""

    ratios: np.ndarray
    violations: int | None
    violation_fraction: float | None
    fitted_rate: float | None
    fit_r2: float | None
    plateau_index: int | None
    plateau_level: float | None
    rateable: bool
    fit_end: int


_PLATEAU_WINDOW = 5


def contraction_report(trace_or_gaps, rho: float | None = None, floor: float = 0.0
                       ) -> ContractionReport:
    """Measure a recorded gap sequence against a contraction bound.

    The plateau is detected at the first index whose gap failed to decrease
    by at least 1% over the trailing 5-iteration window; the geometric rate
    is the least-squares slope of log gap over the points strictly before
    that window.  Fewer than 3 such points flags the sequence unrateable.
    ``rho``/``floor`` count violations of gap_{t+1} <= rho*gap_t + floor
    over that same pre-plateau segment: once the sequence has bottomed out,
    the bound's additive term dominates and ratios carry no information.
    """
    if isinstance(trace_or_gaps, IterationTrace):
        gaps = trace_or_gaps.gaps()
    else:
        gaps = np.asarray(trace_or_gaps, dtype=float)
    if gaps.ndim != 1 or gaps.size < 2:
        raise ContractError("need a 1-d gap sequence with at least 2 entries")

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = gaps[1:] / gaps[:-1]

    plateau_index = None
    w = _PLATEAU_WINDOW
    for t in range(w, gaps.size):
        if gaps[t] > 0.99 * gaps[t - w]:
            plateau_index = t
            break
    if plateau_index is not None:
        tail = gaps[max(plateau_index - w, 0):]
        plateau_level = float(np.median(tail))
        # the detector lags the floor by up to the window length (more when
        # the floor oscillates), so locate the segment cut at the first
        # entry into the band the tail actually occupies
        ceiling = float(np.max(tail))
        fit_end = int(np.argmax(gaps <= ceiling))
    else:
        plateau_level = None
        fit_end = gaps.size

    violations = violation_fraction = None
    if rho is not None:
        prev, nxt = gaps[:fit_end - 1], gaps[1:fit_end]
        bad = nxt > rho * prev + floor
        violations = int(np.count_nonzero(bad))
        checked = max(fit_end - 1, 0)
        violation_fraction = violations / checked if checked else 0.0

    ts = np.arange(fit_end)
    mask = gaps[:fit_end] > 0.0
    ts, ys = ts[mask], np.log(gaps[:fit_end][mask])
    if ts.size >= 3:
        slope, intercept = np.polyfit(ts, ys, 1)
        pred = slope * ts + intercept
        ss_res = float(np.sum((ys - pred) ** 2))
        ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
        fitted_rate = float(np.exp(slope))
        fit_r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        rateable = True
    else:
        fitted_rate = fit_r2 = None
        rateable = False

    return ContractionReport(
        ratios=ratios,
        violations=violations,
        violation_fraction=violation_fraction,
        fitted_rate=fitted_rate,
        fit_r2=fit_r2,
        plateau_index=plateau_index,
        plateau_level=plateau_level,
        rateable=rateable,
        fit_end=int(fit_end),
    )


# ---------------------------------------------------------------------------
# trace serialization


def _fmt(v) -> str:
    return "" if v is None else format(float(v), ".17e")


def trace_to_csv(trace: IterationTrace, path) -> None:
    """One row per iteration; floats in full-precision scientific notation,
    unknown gap/distance left empty."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TRACE_COLUMNS)
        for r in trace.records:
            writer.writerow(
                [r.t, _fmt(r.f_value), _fmt(r.gap), _fmt(r.dist_to_truth),
                 _fmt(r.proj_residual_sq), _fmt(r.wall_time * 1e6)]
            )


def trace_from_csv(path) -> list[IterationRecord]:
    """Read a :func:`trace_to_csv` file; a missing file, a wrong header or a
    short or non-numeric row raises :class:`ContractError` naming the file
    and the line."""
    records = []
    try:
        f = open(path, newline="")
    except OSError as e:
        raise ContractError(f"no trace at {path}: {e}") from e
    with f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or tuple(header) != TRACE_COLUMNS:
            raise ContractError(f"unexpected trace header {header} in {path}")
        for row in reader:
            try:
                records.append(
                    IterationRecord(
                        t=int(row[0]),
                        f_value=float(row[1]),
                        gap=float(row[2]) if row[2] else None,
                        dist_to_truth=float(row[3]) if row[3] else None,
                        proj_residual_sq=float(row[4]),
                        wall_time=float(row[5]) / 1e6,
                    )
                )
            except (IndexError, ValueError) as e:
                raise ContractError(
                    f"malformed trace row at {path} line {reader.line_num}: {e}") from e
    return records
