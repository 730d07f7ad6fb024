"""genpgd: projected gradient descent over the range of a generative network.

The package solves inverse problems of the form "minimize F(x) subject to x
in Range(G)" for a feedforward generator G, plus a variant that adds a sparse
deviation in an orthonormal basis.  It ships the projection oracles, the
solvers, empirical estimators for the curvature and incoherence constants
that govern the convergence theory, and a small experiment harness with a
CLI (``genpgd gen|solve|sweep|report|estimate``).

Each module's ``__all__`` is its export list, and the root re-exports those
lists: the entry points and their types.  Helpers live in their submodules
(``genpgd.projection.hard_threshold``, ``genpgd.solver.myopic_pgd``).
"""

__version__ = "0.1.0"

from .errors import *
from .generator import *
from .objective import *
from .projection import *
from .harness import *
from .solver import *
from . import errors, generator, objective, projection, harness, solver

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += generator.__all__
__all__ += objective.__all__
__all__ += projection.__all__
__all__ += harness.__all__
__all__ += solver.__all__
