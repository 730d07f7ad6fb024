"""The public surface: each module's ``__all__`` is its export list, and the
root package re-exports those lists and nothing else."""

import os
import subprocess
import sys

import genpgd
from genpgd import errors, generator, harness, objective, projection, solver

MODULES = (errors, generator, objective, projection, harness, solver)  # the root's import order


def test_root_all_is_the_module_lists_in_import_order():
    want = ["__version__"] + [name for m in MODULES for name in m.__all__]
    assert genpgd.__all__ == want
    assert len(set(want)) == len(want) == 46


def test_every_listed_name_is_defined_in_its_module():
    for m in MODULES:
        for name in m.__all__:
            obj = getattr(m, name)
            assert obj.__module__ == m.__name__, f"{m.__name__}.{name} is a re-export"
            assert getattr(genpgd, name) is obj


def test_helpers_resolve_in_their_submodules():
    # kept for callers that reach them by module and name, the benchmark's
    # tracer among them; the first two are no longer root exports
    assert callable(projection.hard_threshold) and callable(solver.myopic_pgd)
    assert callable(solver.default_step_size) and callable(objective.estimate_diameter_gamma)
    assert projection.vjp is generator.vjp
    assert not {"hard_threshold", "myopic_pgd"} & set(genpgd.__all__)


def test_import_leaves_the_sweep_pool_unloaded():
    # harness imports them only to fork a sweep's workers; at the top of a
    # module they would cost every command's start-up
    src = os.path.dirname(os.path.dirname(genpgd.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, genpgd, genpgd.cli; print(*sys.modules, sep='\\n')"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.splitlines())
    assert "genpgd.cli" in loaded
    assert not {"multiprocessing", "concurrent.futures"} & loaded
