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

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DivergenceError
from .generator import GeneratorNetwork
from .objective import Objective, _curvature_bounds, _fit, value
from .projection import OrthoBasis, ProjectionConfig, hard_threshold_coeffs, project
from .seeding import check_count, finite_real

__all__ = [
    "SolverConfig",
    "IterationTrace",
    "epsilon_pgd",
    "contraction_report",
    "contraction_factor",
]

TRACE_COLUMNS = ("t", "f_value", "gap", "dist_to_truth", "proj_residual_sq", "wall_time_us")


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and step policy for both solver modes.

    ``eta=None`` resolves to 1/beta-hat at solve time: ``run_solve`` takes
    beta-hat from the solve's one regularity bundle, and a direct call of
    :func:`epsilon_pgd` / :func:`myopic_pgd` from :func:`default_step_size`.
    ``stop_gap`` ends the run early once the optimality gap falls to that
    level; it needs a known truth.  The myopic mode's sparsity budget is
    the problem's, not the solver's: a solve takes it with the basis
    (``run_solve`` passes the instance's ``meta.l``).
    """

    eta: float | None = None
    iters: int = 100
    mode: str = "pgd"
    stop_gap: float | None = None

    def __post_init__(self):
        if self.mode not in ("pgd", "myopic"):
            raise ConfigError(f"unknown solver mode {self.mode!r}")
        if self.eta is not None and not (finite_real(self.eta) and self.eta > 0):
            raise ConfigError(f"eta must be finite and positive, got {self.eta}")
        check_count("iters", self.iters, 1, ConfigError)
        if self.stop_gap is not None and not (finite_real(self.stop_gap) and self.stop_gap >= 0):
            raise ConfigError(f"stop_gap must be finite and nonnegative, got {self.stop_gap}")


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
    count per row) are set only by a solve with a sparse block.
    ``grad_time_total`` times the products A^T R only: the product A x that
    R comes from is shared with, and timed as part of, the value step."""

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
                      basis: OrthoBasis | None = None, l: int = 0) -> float:
    """1/beta-hat for the given problem, for solver calls made without a
    step size.

    beta-hat comes from the curvature routine behind
    ``harness.estimate_regularity`` (same oracle choice, same pair count)
    at seed 0: exact for least squares on a single affine layer, over the
    range alone or over the range-plus-sparse sum set when a basis and
    ``l`` > 0 are supplied, and sampled otherwise.  ``run_solve`` never
    calls this; it sets eta from its regularity bundle.
    """
    _, beta = _curvature_bounds(objective, net, basis, l)
    if not beta > 0:
        raise ContractError(f"estimated smoothness {beta} is not positive")
    return 1.0 / beta


def epsilon_pgd(objective: Objective, net: GeneratorNetwork,
                proj_cfg: ProjectionConfig, cfg: SolverConfig,
                x_star=None, basis: OrthoBasis | None = None, l: int = 0) -> IterationTrace:
    """Gradient step then range projection, from zero.

    With a ``basis``, which mode "myopic" needs and "pgd" forbids (else
    :class:`ConfigError`), the iterate is x_t = u_t + v_t, a range block
    plus an ``l``-sparse block in that basis (which starts at zero).  A
    budget ``l`` > 0 without a basis is a :class:`ConfigError` naming l.
    Both blocks consume the one gradient g taken at x_t: the range block
    re-projects u_t - eta*g, the sparse block re-thresholds v_t - eta*g, and
    neither sees the other's update within an iteration.  Without a basis
    there is no sparse block and x_t = u_t.

    Records one row per iteration (row 0 is the initial state).  Raises
    :class:`DivergenceError` with the partial trace if the objective blows
    past 1e3 times its initial value or stops being finite.
    """
    if cfg.stop_gap is not None and x_star is None:
        raise ConfigError("stop_gap needs a known truth point")
    check_count("sparsity l", l, 0, ConfigError)
    if l > 0 and basis is None:
        raise ConfigError(f"sparsity l = {l} needs a basis")
    if (cfg.mode == "myopic") != (basis is not None):
        need = "needs a" if basis is None else "takes no"
        raise ConfigError(f"solver mode {cfg.mode!r} {need} basis")
    f_star = None
    if x_star is not None:
        x_star = np.asarray(x_star, dtype=float)
        f_star = value(objective, x_star)
    eta = cfg.eta if cfg.eta is not None else default_step_size(objective, net, basis, l)
    u = x = np.zeros(net.n)
    v = nnz = None
    if basis is not None:
        v, nnz = np.zeros(net.n), [0]
        x = u + v
    records = []

    def record(t, f, residual_sq, wall):
        d = None if x_star is None else x - x_star
        records.append(IterationRecord(
            t=t, f_value=f, gap=None if f_star is None else f - f_star,
            dist_to_truth=None if d is None else math.sqrt(d @ d),
            proj_residual_sq=residual_sq, wall_time=wall))

    f, R = _fit(objective, x)
    record(0, f, 0.0, 0.0)
    threshold = 1e3 * max(f, 1e-12)
    proj_t = grad_t = 0.0
    diverged = False
    for t in range(1, cfg.iters + 1):
        tic = time.perf_counter()
        g = objective.A.T @ R  # the gradient at x, from the product of the value step
        grad_t += time.perf_counter() - tic
        toc = time.perf_counter()
        res = project(proj_cfg, net, u - eta * g)
        proj_t += time.perf_counter() - toc
        u = x = res.point
        if basis is not None:
            v, coeffs = hard_threshold_coeffs(basis, v - eta * g, l)
            x = u + v
        f, R = _fit(objective, x)
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


def myopic_pgd(objective: Objective, net: GeneratorNetwork, basis: OrthoBasis, l: int,
               proj_cfg: ProjectionConfig, cfg: SolverConfig,
               x_star=None) -> IterationTrace:
    """Myopic ε-PGD: :func:`epsilon_pgd` from zero with the ``l``-sparse
    block in ``basis``; pass the instance's own budget, ``inst.meta.l``."""
    return epsilon_pgd(objective, net, proj_cfg, cfg, x_star=x_star, basis=basis, l=l)


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
    """How a gap sequence behaved: checked-step ratios, violations of a
    bound, fitted geometric rate over the pre-plateau segment, plateau.

    The rate fit and the checked steps use one segment: the gaps before
    the first that enters the plateau's band (the whole sequence when no
    plateau).  A checked step is a pair (gap_t, gap_t+1) inside that
    segment with both values finite and gap_t > 0; ``checked`` holds their
    ratios in order."""

    checked: np.ndarray
    violations: int | None
    violation_fraction: float | None
    fitted_rate: float | None
    fit_r2: float | None
    plateau_index: int | None
    plateau_level: float | None
    rateable: bool


_PLATEAU_WINDOW = 5


def contraction_report(trace_or_gaps, rho: float | None = None, floor: float = 0.0
                       ) -> ContractionReport:
    """Measure a recorded gap sequence against a contraction bound.

    The plateau is detected at the first index whose gap magnitude failed
    to decrease by at least 1% over the trailing 5-iteration window (a noisy
    solve's gap can settle at a negative level, which a signed test never
    flags); ``plateau_level`` is the median of the gaps from that window's
    start on.  The geometric rate
    is the least-squares slope of log gap over the points strictly before
    that window.  Fewer than 3 such points flags the sequence unrateable.
    ``rho``/``floor`` count violations of gap_{t+1} <= rho*gap_t + floor
    over the checked steps (:class:`ContractionReport`) of that segment:
    once the sequence has bottomed out, the bound's additive term dominates
    and ratios carry no information.  ``floor`` must be finite.  The count
    and its fraction are None without ``rho`` or with no checked step.
    """
    if isinstance(trace_or_gaps, IterationTrace):
        gaps = trace_or_gaps.gaps()
    else:
        gaps = np.asarray(trace_or_gaps, dtype=float)
    if gaps.ndim != 1 or gaps.size < 2:
        raise ContractError("need a 1-d gap sequence with at least 2 entries")
    if not math.isfinite(floor):  # a NaN floor would pass every step
        raise ContractError(f"need a finite floor, got {floor}")

    plateau_index = None
    w = _PLATEAU_WINDOW
    for t in range(w, gaps.size):
        if abs(gaps[t]) > 0.99 * abs(gaps[t - w]):
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

    prev, nxt = gaps[:max(fit_end - 1, 0)], gaps[1:max(fit_end, 1)]
    keep = np.isfinite(prev) & np.isfinite(nxt) & (prev > 0)
    prev, nxt = prev[keep], nxt[keep]
    with np.errstate(over="ignore"):  # a denormal gap_t can overflow its ratio
        checked = nxt / prev
    violations = violation_fraction = None
    if rho is not None and prev.size:  # no count at all when no step is checked
        violations = int(np.count_nonzero(nxt > rho * prev + floor))
        violation_fraction = violations / prev.size

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
        checked=checked,
        violations=violations,
        violation_fraction=violation_fraction,
        fitted_rate=fitted_rate,
        fit_r2=fit_r2,
        plateau_index=plateau_index,
        plateau_level=plateau_level,
        rateable=rateable,
    )


# ---------------------------------------------------------------------------
# CSV artifacts


def _write_csv(path, columns, rows) -> None:
    """The one CSV writer of ``trace.csv`` and ``sweep.csv``: the header
    ``columns``, then one CRLF-ended line per row of values in column
    order; None is an empty cell, a float ``format(v, ".17e")``.  One ``%``
    over the rows' templates (one per shape of cell types) makes the file."""
    templates, lines, cells_in_order = {}, [], []
    for cells in [columns, *rows]:
        shape = tuple(map(type, cells))
        if shape not in templates:
            templates[shape] = ",".join("%.0s" if t is type(None) else "%.17e"
                                        if issubclass(t, float) else "%s" for t in shape) + "\r\n"
        lines.append(templates[shape])
        cells_in_order += cells
    with open(path, "w", newline="") as f:
        f.write("".join(lines) % tuple(cells_in_order))


def _read_csv(path, columns, kinds, what: str, optional=()) -> list[tuple]:
    """The rows of a :func:`_write_csv` file, as tuples of cells parsed by
    ``kinds`` (``int``, ``float`` or ``str``, one per column).  An empty
    cell reads None in the ``optional`` columns.  An unreadable file, a
    header other than ``columns``, a wrong cell count, an empty cell
    elsewhere, an unparsable cell or a non-finite float raises
    :class:`ContractError` naming the file and the line."""
    try:
        with open(path) as f:
            lines = f.read().removesuffix("\n").split("\n")
    except (OSError, ValueError) as e:
        raise ContractError(f"cannot read {path}: {e}") from e
    if tuple(lines[0].split(",")) != columns:
        raise ContractError(f"unexpected {what} header at {path} line 1")
    rows = []
    for num, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        try:
            if len(cells) != len(columns):
                raise ValueError(f"{len(cells)} cells, expected {len(columns)}")
            row = tuple(None if not cell and name in optional else kind(cell)
                        for cell, kind, name in zip(cells, kinds, columns))
            if "" in row or not all(math.isfinite(v) for v in row if isinstance(v, float)):
                raise ValueError("empty or non-finite cell")
        except ValueError as e:
            raise ContractError(f"malformed {what} row at {path} line {num}: {e}") from e
        rows.append(row)
    return rows


def trace_to_csv(trace: IterationTrace, path) -> None:
    """One :func:`_write_csv` row per iteration; an unknown gap or distance
    is an empty cell."""
    _write_csv(path, TRACE_COLUMNS, [
        (r.t, r.f_value, r.gap, r.dist_to_truth, r.proj_residual_sq, r.wall_time * 1e6)
        for r in trace.records])


def trace_from_csv(path) -> list[IterationRecord]:
    """Read a :func:`trace_to_csv` file through :func:`_read_csv`."""
    rows = _read_csv(path, TRACE_COLUMNS, (int,) + (float,) * 5, "trace",
                     optional=TRACE_COLUMNS[2:4])
    return [IterationRecord(*cells[:5], wall_time=cells[5] / 1e6) for cells in rows]
