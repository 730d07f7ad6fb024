"""genpgd: projected gradient descent over the range of a generative network.

The package solves inverse problems of the form "minimize F(x) subject to x
in Range(G)" for a feedforward generator G, plus a variant that adds a sparse
deviation in an orthonormal basis.  It ships the projection oracles, the
solvers, empirical estimators for the curvature and incoherence constants
that govern the convergence theory, and a small experiment harness with a
CLI (``genpgd gen|solve|sweep|report|estimate``).

The root exports the entry points and their types; helpers live in their
submodules.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ContractError,
    DivergenceError,
    GenpgdError,
    NumericError,
)
from .generator import (
    Activation,
    GeneratorNetwork,
    Layer,
    forward,
    forward_batch,
    load_network,
    make_linear_generator,
    make_random_generator,
    save_network,
    vjp,
)
from .objective import (
    Objective,
    estimate_incoherence,
    estimate_rsc_rss,
    gradient,
    latent_pair_sampler,
    minkowski_curvature,
    subspace_curvature,
    subspace_incoherence,
    value,
)
from .projection import (
    OrthoBasis,
    ProjectionConfig,
    ProjectionResult,
    hard_threshold,
    project,
)
from .harness import (
    ExperimentConfig,
    GeneratorSpec,
    ProblemInstance,
    ProblemSpec,
    SolveSummary,
    SweepSpec,
    build_objective,
    emit_report,
    estimate_regularity,
    gen_problem,
    load_problem,
    run_solve,
    run_sweep,
    save_problem,
)
from .solver import (
    IterationTrace,
    SolverConfig,
    contraction_factor,
    contraction_report,
    epsilon_pgd,
    myopic_pgd,
)

__all__ = [
    "__version__",
    "ConfigError",
    "ContractError",
    "DivergenceError",
    "GenpgdError",
    "NumericError",
    "Activation",
    "GeneratorNetwork",
    "Layer",
    "forward",
    "forward_batch",
    "load_network",
    "make_linear_generator",
    "make_random_generator",
    "save_network",
    "vjp",
    "Objective",
    "estimate_incoherence",
    "estimate_rsc_rss",
    "gradient",
    "latent_pair_sampler",
    "minkowski_curvature",
    "subspace_curvature",
    "subspace_incoherence",
    "value",
    "OrthoBasis",
    "ProjectionConfig",
    "ProjectionResult",
    "hard_threshold",
    "project",
    "ExperimentConfig",
    "GeneratorSpec",
    "ProblemInstance",
    "ProblemSpec",
    "SolveSummary",
    "SweepSpec",
    "build_objective",
    "emit_report",
    "estimate_regularity",
    "gen_problem",
    "load_problem",
    "run_solve",
    "run_sweep",
    "save_problem",
    "IterationTrace",
    "SolverConfig",
    "contraction_factor",
    "contraction_report",
    "epsilon_pgd",
    "myopic_pgd",
]
