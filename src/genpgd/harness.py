"""Synthetic instances, end-to-end solves, parameter sweeps, reports.

Everything here is desk-scale plumbing around the solver: generate a problem
whose ground truth is known by construction, run a configured solve against
it, fan that out over parameter grids with hierarchical seeding, and turn
the results into plot-ready data plus a text report that checks the observed
contraction against the theory rate.

Instance matrices are ``.npy`` files of exact float64 bits and all other
files plain text (JSON, CSV, TSV) with full-precision floats, so every
artifact round-trips bitwise and re-runs with the same master seed are
byte-identical (timing is kept out of comparable outputs for that reason).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import numbers
import os
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DivergenceError, NumericError
from .generator import (
    Activation,
    GeneratorNetwork,
    _read_json,
    forward,
    load_network,
    make_linear_generator,
    make_random_generator,
    save_network,
)
from .objective import _MEASUREMENTS, Objective, RegularityEstimates, _link_mean, _regularity
from .projection import OrthoBasis, ProjectionConfig, _oracle
from .seeding import check_count, derive_seed, finite_real, spawn_rng
from .solver import (
    SolverConfig,
    _read_csv,
    _write_csv,
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
    "ProblemInstance",
    "SolveSummary",
    "gen_problem",
    "save_problem",
    "load_problem",
    "estimate_regularity",
    "run_solve",
    "run_sweep",
    "emit_report",
]

_BASES = (None, "identity", "random")


_JSON_TYPES = {"int": (numbers.Integral, "integer"), "float": (numbers.Real, "number"),
               "str": (str, "string")}


def _is_a(value, kind: str) -> bool:
    """JSON typing of input values: a bool is no number, an int is a float."""
    return isinstance(value, _JSON_TYPES[kind][0]) and not isinstance(value, bool)


def _load(cls, doc, where: str):
    """Build dataclass ``cls``, a config section or an instance's meta, from
    the JSON object ``doc``, naming ``where`` in every error.  A dataclass
    default factory makes a nested section, an ``int``, ``float`` or ``str``
    annotation admits only that JSON type; ``cls`` validates the rest."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {doc!r:.60}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in doc.items():
        f = fields.get(key)
        if f is None:
            raise ConfigError(f"unknown key {key!r} in {where}")
        if dataclasses.is_dataclass(f.default_factory):
            value = _load(f.default_factory, value, f"{where}.{key}")
        elif f.type in _JSON_TYPES and not _is_a(value, f.type):
            raise ConfigError(
                f"{where}.{key} must be a JSON {_JSON_TYPES[f.type][1]}, got {value!r:.60}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (ConfigError, ContractError):
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"malformed {where}: {e}") from e


@dataclass(frozen=True)
class GeneratorSpec:
    """Which generator to use: a fresh random one or one from disk.

    ``widths``, ``activation`` and ``slope`` describe an ``mlp`` and
    ``path`` names a ``file``; another kind that sets one of them away from
    its default is a :class:`ConfigError` naming the field, not a silent
    no-op.  ``activation`` defaults to ``"relu"``, so a linear generator
    that states ``"activation": "relu"`` cannot be told from one that
    leaves it out, and is accepted.  An ``mlp`` needs at least one hidden
    width: with none it would be one affine layer that drops its activation.
    """

    kind: str = "linear"
    widths: tuple = ()
    activation: str = "relu"
    slope: float | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "mlp", "file"):
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        if self.kind == "file" and not (isinstance(self.path, (str, os.PathLike)) and self.path):
            raise ConfigError("generator kind 'file' needs a path")
        if not (isinstance(self.widths, (list, tuple))
                and all(_is_a(w, "int") and w >= 1 for w in self.widths)):
            raise ConfigError(f"widths must be a list of positive integers, got {self.widths!r}")
        if self.slope is not None and not finite_real(self.slope):
            raise ConfigError(f"slope must be finite, got {self.slope}")
        if self.kind == "mlp":  # the hidden layers' activation, checked before any trial
            Activation(self.activation, self.slope)
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        default = {f.name: f.default for f in dataclasses.fields(self)}
        for name, kind in (("widths", "mlp"), ("activation", "mlp"), ("slope", "mlp"),
                           ("path", "file")):
            if self.kind != kind and getattr(self, name) != default[name]:
                raise ConfigError(f"generator kind {self.kind!r} takes no {name} (only {kind!r})")
        if self.kind == "mlp" and not self.widths:
            raise ConfigError("an mlp generator needs at least one hidden width")

    def build(self, k: int, n: int, seed: int) -> GeneratorNetwork:
        """The generator mapping k -> n: a fresh ``linear`` or ``mlp`` one
        drawn from ``seed``, or the ``file`` one.  A ``file`` network that
        cannot be loaded, or that maps other sizes, is a :class:`ConfigError`:
        every trial of a sweep reads the same file."""
        if self.kind == "linear":
            # orthonormal columns keep the range geometry isometric to the
            # latent space, which is the family the desk experiments assume
            W = np.linalg.qr(spawn_rng(seed).standard_normal((n, k)))[0]
            return make_linear_generator(W)
        if self.kind == "mlp":
            return make_random_generator(
                k, n, len(self.widths) + 1, self.widths,
                activation=self.activation, seed=seed, slope=self.slope)
        try:
            net = load_network(self.path)
        except ContractError as e:
            raise ConfigError(str(e)) from e
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
        for name, least in (("n", 1), ("k", 1), ("m", 1), ("l", 0)):
            check_count(name, getattr(self, name), least, ConfigError)
        if self.generator.kind == "linear" and self.k > self.n:
            raise ConfigError(f"a linear generator needs k <= n, got k={self.k}, n={self.n}")
        if self.l > self.n:
            raise ConfigError(f"need 0 <= l <= n, got l={self.l} with n={self.n}")
        if not (finite_real(self.noise_level) and self.noise_level >= 0):
            raise ConfigError(f"noise_level must be finite and nonnegative, got {self.noise_level}")
        if self.l > 0 and self.basis is None:
            raise ConfigError("sparse deviation (l > 0) needs a basis")
        if self.basis not in _BASES:
            raise ConfigError(f"basis must be one of {_BASES}, got {self.basis!r}")
        if self.measurement not in _MEASUREMENTS:
            raise ConfigError(
                f"measurement must be one of {_MEASUREMENTS}, got {self.measurement!r}")


@dataclass(frozen=True)
class SweepSpec:
    """Axes swept by ``run_sweep``; absent axes use the problem's value."""

    m: tuple | None = None
    l: tuple | None = None
    noise_level: tuple | None = None
    trials: int = 1

    def __post_init__(self):
        check_count("trials", self.trials, 1, ConfigError)
        for name, kind in (("m", "int"), ("l", "int"), ("noise_level", "float")):
            axis = getattr(self, name)
            if axis is None:
                continue
            if not (isinstance(axis, (list, tuple)) and all(_is_a(v, kind) for v in axis)):
                raise ConfigError(
                    f"sweep axis {name!r} must be a list of {_JSON_TYPES[kind][1]}s, got {axis!r}")
            if not axis:
                raise ConfigError(f"sweep axis {name!r} is empty")
            if kind == "float" and not all(map(finite_real, axis)):
                raise ConfigError(f"sweep axis {name!r} must hold finite numbers, got {axis!r:.60}")
            object.__setattr__(self, name, tuple(axis))


@dataclass(frozen=True)
class ExperimentConfig:
    """One self-contained experiment: problem family, solver, sweep, seed.

    The JSON form is an object of four sections (``problem``, ``projection``,
    ``solver``, ``sweep``), each an object, plus ``out_dir`` and
    ``master_seed``; unknown keys anywhere are rejected rather than ignored.
    """

    problem: ProblemSpec = field(default_factory=ProblemSpec)
    projection: ProjectionConfig = field(default_factory=ProjectionConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    out_dir: str = "runs"
    master_seed: int = 0

    def __post_init__(self):
        check_count("master_seed", self.master_seed, 0, ConfigError)
        self.sweep_points()

    def sweep_points(self) -> list[ProblemSpec]:
        """The problem at each sweep point, in (m, l, noise_level) product
        order, an absent axis at the problem's value.  Each is a validated
        :class:`ProblemSpec` with its own runs: two points that share a run
        label are a :class:`ConfigError`.  A noise level of -0.0 becomes
        0.0 (``+ 0.0`` changes no other value's bits), so an axis that
        lists both names one point twice."""
        ms = self.sweep.m or (self.problem.m,)
        ls = self.sweep.l or (self.problem.l,)
        nls = self.sweep.noise_level or (self.problem.noise_level,)
        points = {}  # by trial-0 run label
        for m, l, nl in itertools.product(ms, ls, nls):
            spec = dataclasses.replace(self.problem, m=int(m), l=int(l),
                                       noise_level=float(nl) + 0.0)
            label = _run_label(spec, 0)
            if label in points:
                raise ConfigError(f"two sweep points share the run label {label!r}")
            points[label] = spec
        return list(points.values())

    @classmethod
    def from_json(cls, doc) -> "ExperimentConfig":
        return _load(cls, doc, "config")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_json(_read_json(path, ConfigError))


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


def _truth_support(inst: ProblemInstance) -> np.ndarray:
    """The truth's sparse support: the basis coefficients of nu* above
    1e-12 max(1, ||nu*||); empty without a basis or a nu*."""
    nu = inst.truth.nu_star
    if nu is None or inst.basis is None:
        return np.empty(0, dtype=int)
    tol = 1e-12 * max(1.0, float(np.linalg.norm(nu)))
    return np.flatnonzero(np.abs(inst.basis.matrix.T @ nu) > tol)


@dataclass(frozen=True)
class ProblemInstance:
    """A solvable instance plus the ground truth it was built from.

    Construction re-checks the bookkeeping identities, so a corrupted or
    hand-edited instance file cannot masquerade as a valid one: the meta's
    k and n must be the network's, its sparsity budget l must lie in
    [0, n], be 0 without a basis (the rules a :class:`ProblemSpec` puts on
    a config) and cover nu*'s support, x* must equal G(z*) + nu* to 1e-12
    and y must equal A x* + noise exactly.
    """

    net: GeneratorNetwork
    basis: OrthoBasis | None
    A: np.ndarray
    y: np.ndarray
    truth: Truth
    meta: InstanceMeta

    def __post_init__(self):
        m, n = self.meta.m, self.meta.n
        if (self.meta.k, n) != (self.net.k, self.net.n):
            raise ContractError(f"meta k={self.meta.k}, n={n} does not match the network's "
                                f"k={self.net.k}, n={self.net.n}")
        if not 0 <= self.meta.l <= n:
            raise ContractError(f"meta l={self.meta.l} must lie in [0, n={n}]")
        if self.meta.l > 0 and self.basis is None:
            raise ContractError(f"meta l={self.meta.l} > 0 needs a basis")
        if self.A.shape != (m, n):
            raise ContractError(f"A shape {self.A.shape} does not match meta ({m}, {n})")
        if self.y.shape != (m,):
            raise ContractError(f"y shape {self.y.shape} does not match m={m}")
        recon = forward(self.net, self.truth.z_star)
        if self.truth.nu_star is not None:
            recon = recon + self.truth.nu_star
        nnz = _truth_support(self).size
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
    to the requested level relative to the clean response.  ``meta``
    records a noise level of -0.0 as 0.0, as a sweep point does."""
    check_count("seed", seed)
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
    mean = _link_mean(clean, spec.measurement)
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
                          noise_level=float(spec.noise_level) + 0.0, seed=seed),
    )


# ---------------------------------------------------------------------------
# instance files


def _read_matrix(path, shape) -> np.ndarray:
    """The little-endian float64 matrix of ``shape`` that ``np.save`` wrote at
    ``path``.  Memory-mapping checks the header before any data is copied, so
    a malformed file raises :class:`ContractError` without allocating."""
    try:
        with open(path, "rb") as f:  # np.load reads a CSV as a pickle, a zip as .npz
            if f.read(6) != b"\x93NUMPY":
                raise ValueError("not a .npy file")
        M = np.load(path, mmap_mode="r", allow_pickle=False)
    # each seen from np.load on a mangled header; its messages can span lines
    except (EOFError, OSError, OverflowError, SyntaxError, TypeError, ValueError,
            tokenize.TokenError) as e:
        raise ContractError(f"cannot read matrix file {path}: {' '.join(str(e).split())}") from e
    if M.dtype.str != "<f8" or M.shape != shape:
        raise ContractError(
            f"{path} holds a {M.dtype.str} array of shape {M.shape}, expected <f8 of shape {shape}")
    return np.array(M)


def _vec(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


# the manifest in instance.json; its basis entry is null for an instance without one
_FILES = {"A": "A.npy", "network": "network.json", "basis": "basis.npy"}


def save_problem(inst: ProblemInstance, directory) -> Path:
    directory = Path(directory)
    os.makedirs(directory, exist_ok=True)
    np.save(directory / "A.npy", np.asarray(inst.A, dtype="<f8"))
    save_network(inst.net, directory / "network.json")
    if inst.basis is not None:
        np.save(directory / "basis.npy", np.asarray(inst.basis.matrix, dtype="<f8"))
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
        "files": _FILES if inst.basis is not None else {**_FILES, "basis": None},
    }
    with open(directory / "instance.json", "w") as f:
        f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")  # one write, json.dump's bytes
    return directory


def load_problem(directory) -> ProblemInstance:
    """Read an instance written by :func:`save_problem`.  Its ``files``
    manifest must name just what ``save_problem`` writes: ``A.npy``,
    ``network.json`` and ``basis.npy`` or null, so no file outside
    ``directory`` is read.  A missing, unreadable or malformed part raises
    :class:`ContractError`."""
    directory = Path(directory)
    doc = _read_json(directory / "instance.json", ContractError)
    if not isinstance(doc, dict) or doc.get("format") != "genpgd-instance":
        raise ContractError(f"{directory} does not hold a problem instance")
    try:
        meta = _load(InstanceMeta, doc["meta"], "meta")
        files, truth = doc["files"], doc["truth"]
        if files not in (_FILES, {**_FILES, "basis": None}):
            raise ContractError(f"instance at {directory} names files {files!r:.100}, "
                                f"not the ones save_problem writes")
        nu = truth["nu_star"]
        return ProblemInstance(
            net=load_network(directory / files["network"]),
            basis=None if files["basis"] is None else OrthoBasis(
                _read_matrix(directory / files["basis"], (meta.n, meta.n))),
            A=_read_matrix(directory / files["A"], (meta.m, meta.n)),
            y=np.array(doc["y"], dtype=float),
            truth=Truth(
                z_star=np.array(truth["z_star"], dtype=float),
                nu_star=None if nu is None else np.array(nu, dtype=float),
                x_star=np.array(truth["x_star"], dtype=float),
                noise=np.array(truth["noise"], dtype=float),
            ),
            meta=meta,
        )
    except ContractError:  # a ValueError too; already carries its message
        raise
    except KeyError as e:
        raise ContractError(f"instance at {directory} lacks field {e}") from e
    except (OSError, TypeError, ValueError) as e:
        raise ContractError(f"malformed instance at {directory}: {e}") from e


# ---------------------------------------------------------------------------
# solving


@dataclass(frozen=True)
class SolveSummary:
    """What one solve did, stripped of anything non-deterministic except the
    runtime block (which is reported but never compared byte-wise).
    ``grad_time_total`` is the trace's: the products A^T R only."""

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


# the ContractionReport fields a SolveSummary carries
_REPORT_FIELDS = ("fitted_rate", "fit_r2", "rateable", "plateau_index", "plateau_level",
                  "violations", "violation_fraction")


def _sparse_block(inst: ProblemInstance, config: ExperimentConfig):
    """The (basis, sparsity budget) a solve of ``inst`` under ``config``
    projects with: the instance's basis and ``meta.l`` in myopic mode, and
    (None, 0) otherwise."""
    if config.solver.mode != "myopic":
        return None, 0
    if inst.basis is None:
        raise ConfigError("myopic mode needs an instance with a basis")
    return inst.basis, inst.meta.l


def estimate_regularity(inst: ProblemInstance, config: ExperimentConfig) -> RegularityEstimates:
    """The one regularity bundle of a solve of ``inst`` under ``config``:
    what :func:`run_solve` records and ``genpgd estimate`` prints.

    Curvature, incoherence, gradient-at-truth and diameter constants of the
    configured measurement's objective on ``inst``, over the range plus, in
    myopic mode, the ``meta.l``-sparse deviations in the instance's basis
    (where mu is estimated; 0 otherwise), at seed
    ``derive_seed(meta.seed, 100)``.  The projection oracle is resolved
    first, so a method the network does not admit is a
    :class:`ConfigError` here, for ``estimate`` as for ``solve``.  The oracle
    choice (exact for least squares on a linear generator) and sample sizes
    are ``objective._regularity``'s."""
    obj = Objective(config.problem.measurement, inst.A, inst.y)
    l = _sparse_block(inst, config)[1]
    _oracle(config.projection, inst.net)
    return _regularity(obj, inst.net, inst.basis, l, inst.truth.x_star,
                       _truth_support(inst), derive_seed(inst.meta.seed, 100))


def run_solve(inst: ProblemInstance, config: ExperimentConfig,
              out_dir=None):
    """Solve one instance under ``config``; returns (summary, trace).

    Writes ``trace.csv`` and ``summary.json`` into ``out_dir`` when given.
    The one bundle :func:`estimate_regularity` gives for ``(inst, config)``
    supplies both the theory rate and, when ``solver.eta`` is null, the step
    size 1/beta (``summary.json`` records it as ``regularity``, and
    ``regularity_time_total`` its wall time, the oracle's build left out).
    A myopic solve hands the solver the basis and budget ``meta.l`` its
    bundle was estimated over.  A bundle with alpha = 0 gives no theory
    rate, so no violation count.  Divergence propagates to the caller with
    the partial trace attached.
    """
    obj = Objective(config.problem.measurement, inst.A, inst.y)
    basis, l = _sparse_block(inst, config)
    _oracle(config.projection, inst.net)  # built untimed: the bundle's lookup is a cache hit
    tic = time.perf_counter()
    reg = estimate_regularity(inst, config)
    reg_time = time.perf_counter() - tic
    solver_cfg = config.solver
    if solver_cfg.eta is None:
        solver_cfg = dataclasses.replace(solver_cfg, eta=1.0 / reg.beta)
    theory = contraction_factor(reg.alpha, reg.beta, reg.mu) if reg.alpha > 0 else np.inf
    theory_rate = float(theory) if np.isfinite(theory) else None
    trace = epsilon_pgd(obj, inst.net, config.projection, solver_cfg,
                        x_star=inst.truth.x_star, basis=basis, l=l)

    # the contraction guarantee carries an additive term of the order of
    # the gradient-at-truth times the set diameter plus the projection
    # slack; violations are only meaningful above that floor
    floor = (2.0 * reg.gamma * reg.delta
             + reg.beta * (config.projection.epsilon + config.projection.degrade_slack))
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
        theory_rate=theory_rate,
        regularity=reg,
        proj_time_total=trace.proj_time_total,
        grad_time_total=trace.grad_time_total,
        regularity_time_total=reg_time,
        **{name: getattr(report, name) for name in _REPORT_FIELDS},
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        trace_to_csv(trace, out_dir / "trace.csv")
        with open(out_dir / "summary.json", "w") as f:
            f.write(json.dumps(summary.to_json(), indent=2, sort_keys=True) + "\n")
    return summary, trace


# ---------------------------------------------------------------------------
# sweeps


# the failures a sweep records as a trial status "error: <name>"; with "ok"
# and "divergence" the only statuses it writes.  A ConfigError, a fault of
# the config that every trial shares, ends the sweep instead
_TRIAL_ERRORS = (ContractError, NumericError)
_SWEEP_STATUSES = frozenset(
    ["ok", "divergence"] + [f"error: {e.__name__}" for e in _TRIAL_ERRORS])

# a trial's inputs, its status, then the SolveSummary fields it reports
_SWEEP_COLUMNS = ("run", "m", "l", "noise_level", "trial", "seed", "status",
                  "final_gap", "final_dist", "fitted_rate", "theory_rate",
                  "violations")
_SWEEP_KINDS = (str, int, int, float, int, int, str, float, float, float, float, int)


def _run_label(spec: ProblemSpec, trial: int) -> str:
    return f"m{spec.m}_l{spec.l}_nl{spec.noise_level:g}_t{trial}"


def _run_trial(task) -> dict:
    """One sweep trial, ``task`` = (config at its point, run directory, row
    of inputs with the seed): generate, save, solve, and return the row with
    its results.  A divergence or a ``_TRIAL_ERRORS`` failure becomes the
    row's status; anything else (``ConfigError``, ``OSError``, ...) propagates."""
    config, run_dir, row = task
    row = dict(row, status="ok", **dict.fromkeys(_SWEEP_COLUMNS[7:]))
    try:
        inst = gen_problem(config.problem, row["seed"])
        save_problem(inst, run_dir / "instance")
        summary, _ = run_solve(inst, config, out_dir=run_dir)
        row.update((name, getattr(summary, name)) for name in _SWEEP_COLUMNS[7:])
    except DivergenceError:
        row["status"] = "divergence"
    except _TRIAL_ERRORS as e:
        row["status"] = f"error: {type(e).__name__}"
    return row


def _sweep_workers(tasks: int) -> int:
    """Forked workers for a sweep of ``tasks`` trials: one per usable CPU.
    1, to run inline, where CPU affinity is unknown (not Linux) or the
    caller is a daemonic multiprocessing worker, which may start no process."""
    import multiprocessing  # here, not at the top: its import costs every command ~8 ms
    if not hasattr(os, "sched_getaffinity") or multiprocessing.current_process().daemon:
        return 1
    return min(tasks, len(os.sched_getaffinity(0)))


def run_sweep(config: ExperimentConfig) -> list[dict]:
    """Cartesian sweep over the configured axes, ``trials`` instances each,
    written under ``config.out_dir``; returns the rows of ``sweep.csv``.

    Each point of :meth:`ExperimentConfig.sweep_points` runs its trials
    under a config that holds only that point (its ``sweep`` is
    ``SweepSpec()``).  Each (point, trial) pair gets its own derived seed,
    so rerunning a sweep never changes any individual trial.  Trial
    failures become rows with status != ok, but a :class:`ConfigError` ends
    the sweep; the per-trial CSV contains no timing, so identical configs
    give byte-identical files.

    On Linux the trials run in forked workers, one per usable CPU; elsewhere,
    and inside a daemonic worker, they run inline.  Rows come back in
    (point, trial) order either way, so no output byte depends on the worker
    count.  Each trial's ``summary.json`` ``runtime`` block is timed inside
    the worker that ran it.  ``MemoryError``, ``OSError`` and
    ``KeyboardInterrupt`` leave the sweep as they would inline; a worker
    killed by a signal raises a :class:`ConfigError` (exit 2) that is also
    a ``BrokenProcessPool``.  No worker outlives the call.
    """
    root = Path(config.out_dir)
    os.makedirs(root, exist_ok=True)
    tasks = []
    for p_idx, spec in enumerate(config.sweep_points()):
        cfg_pt = dataclasses.replace(config, problem=spec, sweep=SweepSpec())
        for trial in range(config.sweep.trials):
            label = _run_label(spec, trial)
            tasks.append((cfg_pt, root / label, {
                "run": label, "m": spec.m, "l": spec.l, "noise_level": spec.noise_level,
                "trial": trial, "seed": derive_seed(config.master_seed, p_idx, trial)}))

    workers = _sweep_workers(len(tasks))
    if workers == 1:
        rows = [_run_trial(task) for task in tasks]
    else:
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        class WorkerDied(ConfigError, BrokenProcessPool):
            """Exit 2 in ``cli``, and still a BrokenProcessPool to a caller."""

        # fork, not spawn: a spawned worker imports numpy afresh, which takes
        # longer than a small sweep's trials.  A worker that dies (say, to the
        # kernel's OOM killer) breaks the pool here, where a
        # multiprocessing.Pool would wait for its trial forever.  On any
        # exception the queued trials are cancelled and the running ones
        # finish before the pool shuts down.
        fork = multiprocessing.get_context("fork")
        try:
            with ProcessPoolExecutor(workers, mp_context=fork) as pool:
                rows = list(pool.map(_run_trial, tasks))  # in task order
        except BrokenProcessPool as e:
            raise WorkerDied("a sweep worker died, killed by a signal (the kernel's OOM "
                             "killer does this to a trial too large for memory)") from e

    _write_csv(root / "sweep.csv", _SWEEP_COLUMNS,
               [[row[c] for c in _SWEEP_COLUMNS] for row in rows])

    _write_table(root / "sweep.txt", rows)
    return rows


def _cell3(values) -> str:
    """The median [q1, q3] of ``values``, or "-" for none."""
    if not values:
        return "-"
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return f"{med:.3e} [{q1:.3e}, {q3:.3e}]"


def _write_table(path, rows) -> None:
    """One line per sweep point: its ok trials out of its rows, and the
    median [q1, q3] of the ok rows' final_dist and fitted_rate.  A point's
    rows are consecutive and share its (m, l, noise_level)."""
    header = (f"{'m':>6} {'l':>4} {'noise':>8} {'ok':>5}  "
              f"{'final_dist med [q1, q3]':<42} {'fitted_rate med [q1, q3]':<42}")
    lines = [header, "-" * len(header)]
    for _, group in itertools.groupby(rows, key=lambda r: (r["m"], r["l"], r["noise_level"])):
        group = list(group)
        ok = [r for r in group if r["status"] == "ok"]
        m, l, nl = group[0]["m"], group[0]["l"], group[0]["noise_level"]
        lines.append(f"{m:>6} {l:>4} {nl:>8g} {len(ok):>3}/{len(group):<2}  " + " ".join(
            f"{_cell3([r[c] for r in ok if r[c] is not None]):<42}"
            for c in ("final_dist", "fitted_rate")))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# reporting


def _read_sweep_csv(path) -> list:
    # an error row has empty results; an empty status reads None and is rejected below
    rows = [dict(zip(_SWEEP_COLUMNS, cells)) for cells in _read_csv(
        path, _SWEEP_COLUMNS, _SWEEP_KINDS, "sweep", optional=_SWEEP_COLUMNS[6:])]
    for line, row in enumerate(rows, start=2):
        if row["status"] not in _SWEEP_STATUSES:
            raise ContractError(
                f"unknown status {row['status']!r:.60} in sweep row at {path} line {line}")
    return rows


def emit_report(results_dir, out_dir=None) -> dict:
    """Turn a sweep directory into plot-ready TSVs and a text verdict.

    ``report.txt`` gives one line per run: PASS when every checked step
    respected the theory rate, FAIL on violations or solver failure, SKIP
    when the bound is vacuous (no theory rate, or a rate of 1 or more) or
    the trace has no checked step, plus an unrateable note when fewer than
    3 usable points existed for the rate fit.  A run with checked steps
    and no violations count is a :class:`ContractError`.  Output depends
    only on the recorded files, so reports are byte-stable.
    """
    results_dir = Path(results_dir)
    out_dir = Path(out_dir) if out_dir is not None else results_dir
    rows = _read_sweep_csv(results_dir / "sweep.csv")
    os.makedirs(out_dir, exist_ok=True)

    gap_lines = ["x\tseries\tvalue"]
    scatter_lines = ["x\tseries\tvalue"]
    report_lines = ["contraction bound report", "=" * 24]
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    for line, row in enumerate(rows, start=2):
        label = row["run"]
        if row["status"] != "ok":
            report_lines.append(f"run {label}: status {row['status']}  FAIL")
            counts["FAIL"] += 1
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
            counts["SKIP"] += 1
            continue
        # the checked steps the solve counted its violations over
        checked = contraction_report(gaps).checked if gaps.size >= 2 else gaps[:0]
        note = ("; " + "; ".join(notes)) if notes else ""
        if not checked.size:  # a count of 0 violations among 0 steps checks nothing
            text, verdict = f"theory {rate:.6e}, no checked steps{note}", "SKIP"
        elif row["violations"] is None:  # a run with a checked step has a count
            raise ContractError(f"{results_dir / 'sweep.csv'} line {line}: no violations count")
        else:
            max_ratio = float(np.max(checked))
            margin = rate - max_ratio if np.isfinite(max_ratio) else float("nan")
            verdict = "PASS" if row["violations"] == 0 else "FAIL"
            text = (f"theory {rate:.6e}, max_ratio {max_ratio:.6e}, margin {margin:.3e}, "
                    f"violations {row['violations']}/{checked.size}{note}")
        report_lines.append(f"run {label}: {text}  {verdict}")
        counts[verdict] += 1
    report_lines.append("=" * 24)
    report_lines.append(f"total: {len(rows)} runs, {counts['PASS']} pass, "
                        f"{counts['FAIL']} fail, {counts['SKIP']} skip")

    paths = {
        "report": out_dir / "report.txt",
        "gap_plot": out_dir / "plot_gap_vs_t.tsv",
        "rate_plot": out_dir / "plot_rate_scatter.tsv",
    }
    paths["report"].write_text("\n".join(report_lines) + "\n")
    paths["gap_plot"].write_text("\n".join(gap_lines) + "\n")
    paths["rate_plot"].write_text("\n".join(scatter_lines) + "\n")
    return paths
