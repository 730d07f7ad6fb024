"""Synthetic instances, end-to-end solves, parameter sweeps, reports.

Everything here is desk-scale plumbing around the solver: generate a problem
whose ground truth is known by construction, run a configured solve against
it, fan that out over parameter grids with hierarchical seeding, and turn
the results into plot-ready data plus a text report that checks the observed
contraction against the theory rate.

All files are plain text (JSON, CSV, TSV) with floats written in
full-precision scientific notation so every artifact round-trips bitwise and
re-runs with the same master seed are byte-identical (timing is kept out of
comparable outputs for that reason).
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DivergenceError, NumericError
from .generator import (
    GeneratorNetwork,
    forward,
    load_network,
    make_linear_generator,
    make_random_generator,
    save_network,
)
from .objective import (
    Objective,
    RegularityEstimates,
    _NUM_PAIRS,
    _curvature_bounds,
    _link_mean,
    estimate_diameter_gamma,
    estimate_incoherence,
    subspace_incoherence,
)
from .projection import OrthoBasis, ProjectionConfig
from .seeding import check_seed, derive_seed, spawn_rng
from .solver import (
    SolverConfig,
    contraction_factor,
    contraction_report,
    epsilon_pgd,
    trace_from_csv,
    trace_to_csv,
)

__all__ = [
    "GeneratorSpec",
    "ProblemSpec",
    "SweepSpec",
    "ExperimentConfig",
    "Truth",
    "InstanceMeta",
    "ProblemInstance",
    "SolveSummary",
    "SweepResult",
    "gen_problem",
    "save_problem",
    "load_problem",
    "build_objective",
    "estimate_regularity",
    "run_solve",
    "run_sweep",
    "emit_report",
]

_MEASUREMENTS = ("linear", "glm-sigmoid", "glm-exp")
_BASES = (None, "identity", "random")


def _reject_unknown(doc: dict, allowed, where: str):
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _from_fields(cls, doc: dict, where: str):
    names = [f.name for f in dataclasses.fields(cls)]
    _reject_unknown(doc, names, where)
    return cls(**doc)


@dataclass(frozen=True)
class GeneratorSpec:
    """Which generator to use: a fresh random one or one from disk."""

    kind: str = "linear"
    widths: tuple = ()
    activation: str = "relu"
    slope: float | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "mlp", "file"):
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        if self.kind == "file" and not self.path:
            raise ConfigError("generator kind 'file' needs a path")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))

    def build(self, k: int, n: int, seed: int) -> GeneratorNetwork:
        if self.kind == "linear":
            # orthonormal columns keep the range geometry isometric to the
            # latent space, which is the family the desk experiments assume
            W = np.linalg.qr(spawn_rng(seed).standard_normal((n, k)))[0]
            return make_linear_generator(W)
        if self.kind == "mlp":
            return make_random_generator(
                k, n, len(self.widths) + 1, self.widths,
                activation=self.activation, seed=seed, slope=self.slope)
        net = load_network(self.path)
        if net.k != k or net.n != n:
            raise ConfigError(
                f"network at {self.path} maps {net.k} -> {net.n}, "
                f"config wants {k} -> {n}")
        return net


@dataclass(frozen=True)
class ProblemSpec:
    """Instance dimensions, generator/basis choices, measurement model."""

    n: int = 30
    k: int = 4
    m: int = 40
    l: int = 0
    noise_level: float = 0.0
    generator: GeneratorSpec = field(default_factory=GeneratorSpec)
    basis: str | None = None
    measurement: str = "linear"

    def __post_init__(self):
        _validate_point(self.n, self.m, self.l, self.noise_level)
        if self.n < 1 or self.k < 1:
            raise ConfigError(f"need n, k >= 1, got n={self.n}, k={self.k}")
        if self.l > 0 and self.basis is None:
            raise ConfigError("sparse deviation (l > 0) needs a basis")
        if self.basis not in _BASES:
            raise ConfigError(f"basis must be one of {_BASES}, got {self.basis!r}")
        if self.measurement not in _MEASUREMENTS:
            raise ConfigError(
                f"measurement must be one of {_MEASUREMENTS}, got {self.measurement!r}")

    @classmethod
    def from_json(cls, doc: dict) -> "ProblemSpec":
        doc = dict(doc)
        if "generator" in doc:
            doc["generator"] = _from_fields(
                GeneratorSpec, doc["generator"], "problem.generator")
        names = [f.name for f in dataclasses.fields(cls)]
        _reject_unknown(doc, names, "problem")
        return cls(**doc)

    def to_json(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["generator"]["widths"] = list(self.generator.widths)
        return doc


def _validate_point(n, m, l, noise_level):
    if m < 1:
        raise ConfigError(f"need m >= 1, got m={m}")
    if l < 0 or l > n:
        raise ConfigError(f"need 0 <= l <= n, got l={l} with n={n}")
    if noise_level < 0:
        raise ConfigError(f"noise_level must be nonnegative, got {noise_level}")


@dataclass(frozen=True)
class SweepSpec:
    """Axes swept by ``run_sweep``; absent axes use the problem's value."""

    m: tuple | None = None
    l: tuple | None = None
    noise_level: tuple | None = None
    trials: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        for name in ("m", "l", "noise_level"):
            axis = getattr(self, name)
            if axis is None:
                continue
            axis = tuple(axis)
            if not axis:
                raise ConfigError(f"sweep axis {name!r} is empty")
            object.__setattr__(self, name, axis)


@dataclass(frozen=True)
class ExperimentConfig:
    """One self-contained experiment: problem family, solver, sweep, seed.

    The JSON form has five sections (``problem``, ``projection``, ``solver``,
    ``sweep``) plus ``out_dir`` and ``master_seed``; unknown keys anywhere
    are rejected rather than ignored.
    """

    problem: ProblemSpec = field(default_factory=ProblemSpec)
    projection: ProjectionConfig = field(default_factory=ProjectionConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    out_dir: str = "runs"
    master_seed: int = 0

    def __post_init__(self):
        check_seed(self.master_seed)
        # axis values must make sense against the fixed dimensions
        for m in self.sweep.m or ():
            _validate_point(self.problem.n, m, self.problem.l, 0.0)
        for l in self.sweep.l or ():
            _validate_point(self.problem.n, self.problem.m, l, 0.0)
            if l > 0 and self.problem.basis is None:
                raise ConfigError("sweep over l > 0 needs a basis")
        for nl in self.sweep.noise_level or ():
            _validate_point(self.problem.n, self.problem.m, self.problem.l, nl)

    def sweep_points(self) -> list[tuple[int, int, float]]:
        ms = self.sweep.m or (self.problem.m,)
        ls = self.sweep.l or (self.problem.l,)
        nls = self.sweep.noise_level or (self.problem.noise_level,)
        return [(int(m), int(l), float(nl))
                for m, l, nl in itertools.product(ms, ls, nls)]

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        _reject_unknown(
            doc,
            ("problem", "projection", "solver", "sweep", "out_dir", "master_seed"),
            "experiment config")
        kwargs = {}
        if "problem" in doc:
            kwargs["problem"] = ProblemSpec.from_json(doc["problem"])
        if "projection" in doc:
            proj = dict(doc["projection"])
            if isinstance(proj.get("grid_bounds"), list):
                b = proj["grid_bounds"]
                proj["grid_bounds"] = tuple(
                    tuple(p) if isinstance(p, list) else p for p in b)
            kwargs["projection"] = _from_fields(ProjectionConfig, proj, "projection")
        if "solver" in doc:
            kwargs["solver"] = _from_fields(SolverConfig, doc["solver"], "solver")
        if "sweep" in doc:
            kwargs["sweep"] = _from_fields(SweepSpec, doc["sweep"], "sweep")
        if "out_dir" in doc:
            kwargs["out_dir"] = str(doc["out_dir"])
        if "master_seed" in doc:
            kwargs["master_seed"] = doc["master_seed"]
        return cls(**kwargs)

    def to_json(self) -> dict:
        proj = dataclasses.asdict(self.projection)
        if proj["grid_bounds"] is not None:
            proj["grid_bounds"] = [list(p) for p in self.projection._bound_pairs()]
        sweep = dataclasses.asdict(self.sweep)
        for name in ("m", "l", "noise_level"):
            if sweep[name] is not None:
                sweep[name] = list(sweep[name])
        return {
            "problem": self.problem.to_json(),
            "projection": proj,
            "solver": dataclasses.asdict(self.solver),
            "sweep": sweep,
            "out_dir": self.out_dir,
            "master_seed": self.master_seed,
        }

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as f:
                doc = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config file {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
        return cls.from_json(doc)


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True)
class Truth:
    z_star: np.ndarray
    nu_star: np.ndarray | None
    x_star: np.ndarray
    noise: np.ndarray


@dataclass(frozen=True)
class InstanceMeta:
    n: int
    m: int
    k: int
    l: int
    noise_level: float
    seed: int


@dataclass(frozen=True)
class ProblemInstance:
    """A solvable instance plus the ground truth it was built from.

    Construction re-checks the bookkeeping identities, so a corrupted or
    hand-edited instance file cannot masquerade as a valid one:
    x* must equal G(z*) + nu* to 1e-12 and y must equal A x* + noise exactly.
    """

    net: GeneratorNetwork
    basis: OrthoBasis | None
    A: np.ndarray
    y: np.ndarray
    truth: Truth
    meta: InstanceMeta

    def __post_init__(self):
        m, n = self.meta.m, self.meta.n
        if self.A.shape != (m, n):
            raise ContractError(f"A shape {self.A.shape} does not match meta ({m}, {n})")
        if self.y.shape != (m,):
            raise ContractError(f"y shape {self.y.shape} does not match m={m}")
        recon = forward(self.net, self.truth.z_star)
        if self.truth.nu_star is not None:
            recon = recon + self.truth.nu_star
            if self.basis is not None:
                coeffs = self.basis.matrix.T @ self.truth.nu_star
                tol = 1e-12 * max(1.0, float(np.linalg.norm(self.truth.nu_star)))
                nnz = int(np.count_nonzero(np.abs(coeffs) > tol))
                if nnz > self.meta.l:
                    raise ContractError(
                        f"nu_star has {nnz} active basis coefficients, budget is {self.meta.l}")
        err = float(np.max(np.abs(self.truth.x_star - recon)))
        if err > 1e-12:
            raise ContractError(
                f"x_star deviates from G(z_star) + nu_star by {err:.3e}")
        if not np.array_equal(self.A @ self.truth.x_star + self.truth.noise, self.y):
            raise ContractError("y must equal A x_star + noise exactly as stored")


def gen_problem(spec: ProblemSpec, seed: int) -> ProblemInstance:
    """Draw one instance of the configured family, fully determined by
    ``seed``: Gaussian A with entry variance 1/m, standard Gaussian latent
    truth, uniformly-supported Gaussian sparse deviation, and noise scaled
    to the requested level relative to the clean response."""
    check_seed(seed)
    net = spec.generator.build(spec.k, spec.n, derive_seed(seed, 0))
    if spec.basis == "identity":
        basis = OrthoBasis.identity(spec.n)
    elif spec.basis == "random":
        basis = OrthoBasis.random(spec.n, derive_seed(seed, 1))
    else:
        basis = None

    z_star = spawn_rng(seed, 2).standard_normal(spec.k)
    if basis is not None:
        support = spawn_rng(seed, 3).choice(spec.n, size=spec.l, replace=False)
        coeffs = np.zeros(spec.n)
        coeffs[np.sort(support)] = spawn_rng(seed, 4).standard_normal(spec.l)
        nu_star = basis.matrix @ coeffs
        x_star = forward(net, z_star) + nu_star
    else:
        nu_star = None
        x_star = forward(net, z_star)

    A = spawn_rng(seed, 5).standard_normal((spec.m, spec.n)) / np.sqrt(spec.m)
    clean = A @ x_star
    mean = clean if spec.measurement == "linear" else _link_mean(
        clean, spec.measurement.split("-")[1])
    if spec.noise_level > 0:
        e = spawn_rng(seed, 6).standard_normal(spec.m)
        scale = float(np.linalg.norm(mean)) or 1.0
        gauss = spec.noise_level * scale / float(np.linalg.norm(e)) * e
    else:
        gauss = np.zeros(spec.m)
    # stored so that y == A x* + noise holds bitwise even for glm links,
    # where the link discrepancy is folded into the noise vector
    noise = (mean - clean) + gauss
    y = clean + noise
    return ProblemInstance(
        net=net, basis=basis, A=A, y=y,
        truth=Truth(z_star=z_star, nu_star=nu_star, x_star=x_star, noise=noise),
        meta=InstanceMeta(n=spec.n, m=spec.m, k=spec.k, l=spec.l,
                          noise_level=float(spec.noise_level), seed=seed),
    )


# ---------------------------------------------------------------------------
# instance files


def _write_matrix_csv(path, M) -> None:
    """Row-major CSV, one matrix row per line, full-precision floats
    (``%.17e``, the same bytes as ``format(v, ".17e")`` per element)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    line = ",".join(["%.17e"] * M.shape[1]) + "\n"
    with open(path, "w") as f:
        f.write("".join(line % tuple(row) for row in M.tolist()))


def _read_matrix_csv(path) -> np.ndarray:
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise ContractError(f"matrix file {path} is empty")
    return np.array(rows)


def _vec(arr) -> list:
    return [float(v) for v in arr]


def save_problem(inst: ProblemInstance, directory) -> Path:
    directory = Path(directory)
    os.makedirs(directory, exist_ok=True)
    _write_matrix_csv(directory / "A.csv", inst.A)
    save_network(inst.net, directory / "network.json")
    if inst.basis is not None:
        _write_matrix_csv(directory / "basis.csv", inst.basis.matrix)
    doc = {
        "format": "genpgd-instance",
        "meta": dataclasses.asdict(inst.meta),
        "truth": {
            "z_star": _vec(inst.truth.z_star),
            "nu_star": None if inst.truth.nu_star is None else _vec(inst.truth.nu_star),
            "x_star": _vec(inst.truth.x_star),
            "noise": _vec(inst.truth.noise),
        },
        "y": _vec(inst.y),
        "files": {
            "A": "A.csv",
            "network": "network.json",
            "basis": "basis.csv" if inst.basis is not None else None,
        },
    }
    with open(directory / "instance.json", "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return directory


def load_problem(directory) -> ProblemInstance:
    directory = Path(directory)
    try:
        with open(directory / "instance.json") as f:
            doc = json.load(f)
    except OSError as e:
        raise ContractError(f"no readable instance at {directory}: {e}") from e
    except json.JSONDecodeError as e:
        raise ContractError(f"instance file at {directory} is not valid JSON: {e}") from e
    if not isinstance(doc, dict) or doc.get("format") != "genpgd-instance":
        raise ContractError(f"{directory} does not hold a problem instance")
    try:
        truth = doc["truth"]
        nu = truth["nu_star"]
        basis_file = doc["files"]["basis"]
        return ProblemInstance(
            net=load_network(directory / doc["files"]["network"]),
            basis=None if basis_file is None else OrthoBasis(
                _read_matrix_csv(directory / basis_file)),
            A=_read_matrix_csv(directory / doc["files"]["A"]),
            y=np.array(doc["y"], dtype=float),
            truth=Truth(
                z_star=np.array(truth["z_star"], dtype=float),
                nu_star=None if nu is None else np.array(nu, dtype=float),
                x_star=np.array(truth["x_star"], dtype=float),
                noise=np.array(truth["noise"], dtype=float),
            ),
            meta=InstanceMeta(**doc["meta"]),
        )
    except ContractError:  # a ValueError too; already carries its message
        raise
    except KeyError as e:
        raise ContractError(f"instance at {directory} lacks field {e}") from e
    except (OSError, TypeError, ValueError) as e:
        raise ContractError(f"malformed instance at {directory}: {e}") from e


# ---------------------------------------------------------------------------
# solving


def build_objective(inst: ProblemInstance, measurement: str) -> Objective:
    if measurement == "linear":
        return Objective("least-squares", inst.A, inst.y)
    if measurement not in _MEASUREMENTS:
        raise ConfigError(f"unknown measurement model {measurement!r}")
    return Objective("glm", inst.A, inst.y, link=measurement.split("-")[1])


def estimate_regularity(inst: ProblemInstance, objective: Objective,
                        sparsity: int = 0, seed: int = 0) -> RegularityEstimates:
    """Curvature, incoherence, gradient-at-truth, and diameter constants.

    Uses the exact eigen/SVD oracles when the instance is a linear generator
    with a least-squares objective, and the pair-sampling estimators
    otherwise.  ``sparsity`` > 0 widens the curvature set to range + sparse
    sums and turns on the incoherence estimate.
    """
    net, basis = inst.net, inst.basis
    if sparsity > 0 and basis is None:
        raise ConfigError("sparsity > 0 needs a basis")
    alpha, beta = _curvature_bounds(objective, net, basis, sparsity,
                                    seed=derive_seed(seed, 0))
    exact = net.is_single_affine and objective.kind == "least-squares"
    if exact:
        W = net.layers[0].weights
        if sparsity > 0:
            rng = spawn_rng(seed, 1)
            supports = [np.sort(rng.choice(inst.meta.n, size=sparsity, replace=False))
                        for _ in range(50)]
            if inst.truth.nu_star is not None and inst.meta.l > 0:
                coeffs = basis.matrix.T @ inst.truth.nu_star
                live = np.flatnonzero(np.abs(coeffs) > 1e-12)
                if live.size:
                    supports.append(live)
            mu = max(subspace_incoherence(W, basis, S) for S in supports)
        else:
            mu = 0.0
        used = 0
    else:
        mu = (estimate_incoherence(net, basis, sparsity,
                                   num_samples=_NUM_PAIRS, seed=derive_seed(seed, 1))
              if sparsity > 0 else 0.0)
        used = _NUM_PAIRS
    dg = estimate_diameter_gamma(
        net, objective=objective, x_star=inst.truth.x_star, seed=derive_seed(seed, 2))
    return RegularityEstimates(alpha=alpha, beta=beta, mu=mu,
                               gamma=dg.gamma, delta=dg.delta,
                               num_samples=used, seed=seed)


@dataclass(frozen=True)
class SolveSummary:
    """What one solve did, stripped of anything non-deterministic except the
    runtime block (which is reported but never compared byte-wise)."""

    status: str
    iters: int
    eta: float
    epsilon: float
    violation_floor: float
    final_f: float
    final_gap: float | None
    final_dist: float | None
    fitted_rate: float | None
    fit_r2: float | None
    rateable: bool
    plateau_index: int | None
    plateau_level: float | None
    theory_rate: float | None
    violations: int | None
    violation_fraction: float | None
    regularity: RegularityEstimates
    proj_time_total: float
    grad_time_total: float
    regularity_time_total: float

    def to_json(self) -> dict:
        runtime = ("proj_time_total", "grad_time_total", "regularity_time_total")
        doc = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
               if f.name != "regularity" and f.name not in runtime}
        doc["regularity"] = self.regularity.to_json()
        doc["runtime"] = {name: getattr(self, name) for name in runtime}
        return doc


def _solve_setup(inst: ProblemInstance, config: ExperimentConfig):
    """The objective, the resolved solver config, the one regularity
    bundle of a solve of ``inst`` under ``config`` and its wall time.

    A myopic solve inherits the instance's sparsity budget when the solver
    config leaves ``l`` at 0, and its curvature set uses that budget.  A
    null ``eta`` becomes 1/beta of the bundle, so the step size and the
    theory rate rest on the same beta-hat.
    """
    obj = build_objective(inst, config.problem.measurement)
    solver_cfg = config.solver
    sparsity = 0
    if solver_cfg.mode == "myopic":
        if inst.basis is None:
            raise ConfigError("myopic mode needs an instance with a basis")
        if solver_cfg.l == 0 and inst.meta.l > 0:
            solver_cfg = dataclasses.replace(solver_cfg, l=inst.meta.l)
        sparsity = solver_cfg.l
    tic = time.perf_counter()
    reg = estimate_regularity(inst, obj, sparsity=sparsity,
                              seed=derive_seed(inst.meta.seed, 100))
    reg_time = time.perf_counter() - tic
    if solver_cfg.eta is None:
        solver_cfg = dataclasses.replace(solver_cfg, eta=1.0 / reg.beta)
    return obj, solver_cfg, reg, reg_time


def run_solve(inst: ProblemInstance, config: ExperimentConfig,
              out_dir=None):
    """Solve one instance under ``config``; returns (summary, trace).

    Writes ``trace.csv`` and ``summary.json`` into ``out_dir`` when given.
    One regularity bundle per solve supplies both the theory rate and, when
    ``solver.eta`` is null, the step size 1/beta (``summary.json`` records
    it as ``regularity``); ``genpgd estimate`` prints the same bundle.  A
    myopic solve inherits the instance's sparsity budget when the solver
    config leaves ``l`` at 0.  Divergence propagates to the caller with the
    partial trace attached.
    """
    obj, solver_cfg, reg, reg_time = _solve_setup(inst, config)
    theory = contraction_factor(reg.alpha, reg.beta, reg.mu)
    theory_rate = float(theory) if np.isfinite(theory) else None
    basis = inst.basis if solver_cfg.mode == "myopic" else None
    trace = epsilon_pgd(obj, inst.net, config.projection, solver_cfg,
                        x_star=inst.truth.x_star, basis=basis)

    # the contraction guarantee carries an additive term of the order of
    # the gradient-at-truth times the set diameter plus the projection
    # slack; violations are only meaningful above that floor
    floor = 0.0
    if reg.gamma is not None and reg.delta is not None:
        floor += 2.0 * reg.gamma * reg.delta
    floor += reg.beta * (config.projection.epsilon + config.projection.degrade_slack)
    report = contraction_report(trace, rho=theory_rate, floor=floor)
    last = trace.records[-1]
    summary = SolveSummary(
        status="ok",
        iters=last.t,
        eta=trace.eta,
        epsilon=float(config.projection.epsilon),
        violation_floor=floor,
        final_f=last.f_value,
        final_gap=last.gap,
        final_dist=last.dist_to_truth,
        fitted_rate=report.fitted_rate,
        fit_r2=report.fit_r2,
        rateable=report.rateable,
        plateau_index=report.plateau_index,
        plateau_level=report.plateau_level,
        theory_rate=theory_rate,
        violations=report.violations,
        violation_fraction=report.violation_fraction,
        regularity=reg,
        proj_time_total=trace.proj_time_total,
        grad_time_total=trace.grad_time_total,
        regularity_time_total=reg_time,
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        trace_to_csv(trace, out_dir / "trace.csv")
        with open(out_dir / "summary.json", "w") as f:
            json.dump(summary.to_json(), f, indent=2, sort_keys=True)
            f.write("\n")
    return summary, trace


# ---------------------------------------------------------------------------
# sweeps


_SWEEP_COLUMNS = ("run", "m", "l", "noise_level", "trial", "seed", "status",
                  "final_gap", "final_dist", "fitted_rate", "theory_rate",
                  "violations")


def _run_label(m, l, nl, trial) -> str:
    return f"m{m}_l{l}_nl{nl:g}_t{trial}"


@dataclass
class SweepResult:
    rows: list
    aggregates: list
    directory: Path


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17e")
    return str(v)


def run_sweep(config: ExperimentConfig, out_dir=None) -> SweepResult:
    """Cartesian sweep over the configured axes, ``trials`` instances each.

    Each (axis point, trial) pair gets its own derived seed, so rerunning a
    sweep or reordering points never changes any individual trial.  Trial
    failures become rows with status != ok; the sweep always completes and
    the per-trial CSV contains no timing, so identical configs give
    byte-identical files.
    """
    root = Path(out_dir if out_dir is not None else config.out_dir)
    os.makedirs(root, exist_ok=True)
    rows = []
    for p_idx, (m, l, nl) in enumerate(config.sweep_points()):
        spec_pt = dataclasses.replace(config.problem, m=m, l=l, noise_level=nl)
        cfg_pt = dataclasses.replace(config, problem=spec_pt)
        for trial in range(config.sweep.trials):
            seed = derive_seed(config.master_seed, p_idx, trial)
            label = _run_label(m, l, nl, trial)
            run_dir = root / label
            row = {"run": label, "m": m, "l": l, "noise_level": nl,
                   "trial": trial, "seed": seed, "status": "ok",
                   "final_gap": None, "final_dist": None, "fitted_rate": None,
                   "theory_rate": None, "violations": None}
            try:
                inst = gen_problem(spec_pt, seed)
                save_problem(inst, run_dir / "instance")
                summary, _ = run_solve(inst, cfg_pt, out_dir=run_dir)
                row.update(
                    final_gap=summary.final_gap,
                    final_dist=summary.final_dist,
                    fitted_rate=summary.fitted_rate,
                    theory_rate=summary.theory_rate,
                    violations=summary.violations,
                )
            except DivergenceError:
                row["status"] = "divergence"
            except (ConfigError, ContractError, NumericError) as e:
                row["status"] = f"error: {type(e).__name__}"
            rows.append(row)

    with open(root / "sweep.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in _SWEEP_COLUMNS])

    aggregates = _aggregate(rows)
    _write_table(root / "sweep.txt", aggregates, config.sweep.trials)
    return SweepResult(rows=rows, aggregates=aggregates, directory=root)


def _quartiles(values):
    if not values:
        return None, None, None
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float(med), float(q1), float(q3)


def _aggregate(rows) -> list:
    out = []
    for (m, l, nl), group in itertools.groupby(
            rows, key=lambda r: (r["m"], r["l"], r["noise_level"])):
        group = list(group)
        ok = [r for r in group if r["status"] == "ok"]
        dist = _quartiles([r["final_dist"] for r in ok if r["final_dist"] is not None])
        rate = _quartiles([r["fitted_rate"] for r in ok if r["fitted_rate"] is not None])
        out.append({
            "m": m, "l": l, "noise_level": nl,
            "trials": len(group), "ok": len(ok),
            "final_dist_median": dist[0], "final_dist_q1": dist[1],
            "final_dist_q3": dist[2],
            "fitted_rate_median": rate[0], "fitted_rate_q1": rate[1],
            "fitted_rate_q3": rate[2],
        })
    return out


def _cell3(med, q1, q3) -> str:
    if med is None:
        return "-"
    return f"{med:.3e} [{q1:.3e}, {q3:.3e}]"


def _write_table(path, aggregates, trials) -> None:
    header = (f"{'m':>6} {'l':>4} {'noise':>8} {'ok':>5}  "
              f"{'final_dist med [q1, q3]':<42} {'fitted_rate med [q1, q3]':<42}")
    lines = [header, "-" * len(header)]
    for a in aggregates:
        lines.append(
            f"{a['m']:>6} {a['l']:>4} {a['noise_level']:>8g} "
            f"{a['ok']:>3}/{trials:<2}  "
            f"{_cell3(a['final_dist_median'], a['final_dist_q1'], a['final_dist_q3']):<42} "
            f"{_cell3(a['fitted_rate_median'], a['fitted_rate_q1'], a['fitted_rate_q3']):<42}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# reporting


def _read_sweep_csv(path) -> list:
    rows = []
    try:
        f = open(path, newline="")
    except OSError as e:
        raise ContractError(f"no sweep results at {path}: {e}") from e
    with f:
        reader = csv.DictReader(f)
        if tuple(reader.fieldnames or ()) != _SWEEP_COLUMNS:
            raise ContractError(f"unexpected sweep header in {path}")
        for raw in reader:
            # DictReader pads a short row with None and files extra cells under None
            if None in raw or None in raw.values():
                raise ContractError(
                    f"sweep row at {path} line {reader.line_num} has "
                    f"the wrong number of cells")
            row = dict(raw)
            try:
                for name in ("m", "l", "trial", "seed", "violations"):
                    row[name] = int(raw[name]) if raw[name] else None
                for name in ("noise_level", "final_gap", "final_dist",
                             "fitted_rate", "theory_rate"):
                    row[name] = float(raw[name]) if raw[name] else None
            except ValueError as e:
                raise ContractError(
                    f"malformed sweep row at {path} line {reader.line_num}: {e}") from e
            rows.append(row)
    return rows


def emit_report(results_dir, out_dir=None) -> dict:
    """Turn a sweep directory into plot-ready TSVs and a text verdict.

    ``report.txt`` gives one line per run: PASS when every recorded step
    respected the theory rate, FAIL on violations or solver failure, SKIP
    when the bound is vacuous (no theory rate, or a rate of 1 or more),
    plus an unrateable note when fewer than 3
    usable points existed for the rate fit.  Output depends only on the
    recorded files, so reports are byte-stable.
    """
    results_dir = Path(results_dir)
    out_dir = Path(out_dir) if out_dir is not None else results_dir
    os.makedirs(out_dir, exist_ok=True)
    rows = _read_sweep_csv(results_dir / "sweep.csv")

    gap_lines = ["x\tseries\tvalue"]
    scatter_lines = ["x\tseries\tvalue"]
    report_lines = ["contraction bound report", "=" * 24]
    n_pass = n_fail = n_skip = 0
    for row in rows:
        label = row["run"]
        if row["status"] != "ok":
            report_lines.append(f"run {label}: status {row['status']}  FAIL")
            n_fail += 1
            continue
        records = trace_from_csv(results_dir / label / "trace.csv")
        gaps = np.array([np.nan if r.gap is None else r.gap for r in records])
        for r in records:
            if r.gap is not None and r.gap > 0:
                gap_lines.append(
                    f"{r.t}\t{label}\t{format(np.log10(r.gap), '.17e')}")
        notes = []
        if row["fitted_rate"] is None:
            notes.append("unrateable (fewer than 3 usable points)")
        elif row["theory_rate"] is not None:
            scatter_lines.append(
                f"{format(row['theory_rate'], '.17e')}\t{label}\t"
                f"{format(row['fitted_rate'], '.17e')}")
        rate = row["theory_rate"]
        if rate is None or rate >= 1.0:
            # a bound of 1 or more admits any non-expanding gap sequence
            why = "" if rate is None else f" ({rate:.6e} >= 1)"
            report_lines.append(
                f"run {label}: theory rate vacuous{why}; "
                + "; ".join(notes or ["no bound to check"]) + "  SKIP")
            n_skip += 1
            continue
        # display ratios over the same pre-plateau segment the rate was
        # fitted on; the floor region after convergence is pure noise
        fit_end = contraction_report(gaps).fit_end if gaps.size >= 2 else gaps.size
        prev, nxt = gaps[:fit_end - 1], gaps[1:fit_end]
        finite = np.isfinite(prev) & np.isfinite(nxt) & (prev > 0)
        ratios = nxt[finite] / prev[finite]
        max_ratio = float(np.max(ratios)) if ratios.size else float("nan")
        steps = int(np.count_nonzero(finite))
        verdict = "PASS" if row["violations"] == 0 else "FAIL"
        if verdict == "PASS":
            n_pass += 1
        else:
            n_fail += 1
        margin = row["theory_rate"] - max_ratio if np.isfinite(max_ratio) else float("nan")
        note = ("; " + "; ".join(notes)) if notes else ""
        report_lines.append(
            f"run {label}: theory {row['theory_rate']:.6e}, "
            f"max_ratio {max_ratio:.6e}, margin {margin:.3e}, "
            f"violations {row['violations']}/{steps}{note}  {verdict}")
    report_lines.append("=" * 24)
    report_lines.append(
        f"total: {len(rows)} runs, {n_pass} pass, {n_fail} fail, {n_skip} skip")

    paths = {
        "report": out_dir / "report.txt",
        "gap_plot": out_dir / "plot_gap_vs_t.tsv",
        "rate_plot": out_dir / "plot_rate_scatter.tsv",
    }
    paths["report"].write_text("\n".join(report_lines) + "\n")
    paths["gap_plot"].write_text("\n".join(gap_lines) + "\n")
    paths["rate_plot"].write_text("\n".join(scatter_lines) + "\n")
    return paths
