"""Import layering, checked on the source with the stdlib ``ast``.

Pins the edges the layer map in ``docs/architecture.md`` relies on: the
toolchain module sits below every package, so the trainer in ``ml`` can
compile its epoch kernel without reaching up into ``perf``, the native
engine no longer reaches into ``core`` for its cache root, ``serve`` and
``jobs`` form no import cycle, and no ``hw`` module imports the netlist
compiler of ``perf`` (the cell semantics both use live in ``hw.cells``).
Every import statement counts, including those inside functions.

Known upward imports outside these three modules are not pinned here:
``ml/feature_selection.py`` imports ``core``, and ``perf/benchmark.py`` and
``perf/flow_bench.py`` import ``core`` and ``eval``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Set

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def imported_modules(relative_path: str) -> Set[str]:
    """Every module named by an import statement in one package file.

    ``from a import b`` yields both ``a`` and ``a.b``, since ``b`` may be a
    submodule (``from repro import toolchain``).
    """
    tree = ast.parse((PACKAGE / relative_path).read_text())
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import in {relative_path}"
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _inside(name: str, packages) -> bool:
    return any(name == p or name.startswith(p + ".") for p in packages)


def test_walker_sees_imports_inside_functions():
    # flow_bench imports the flow executor at module level and the
    # feature selector imports core inside a function.
    assert "repro.core.flow_executor" in imported_modules("perf/flow_bench.py")
    assert "repro.core.sequential_svm" in imported_modules("ml/feature_selection.py")


def test_toolchain_imports_only_the_standard_library():
    outside = {
        name
        for name in imported_modules("toolchain.py")
        if name.split(".")[0] not in sys.stdlib_module_names | {"__future__"}
    }
    assert not outside


def test_svm_trainer_imports_nothing_above_ml():
    above = ("repro.perf", "repro.core", "repro.hw", "repro.serve", "repro.jobs", "repro.eval")
    assert not {n for n in imported_modules("ml/svm.py") if _inside(n, above)}


def test_native_engine_imports_nothing_above_perf():
    above = ("repro.core", "repro.serve", "repro.jobs", "repro.eval")
    assert not {n for n in imported_modules("perf/native.py") if _inside(n, above)}


def _package_imports(package: str) -> Set[str]:
    """Every module named by an import in any file of one subpackage."""
    names: Set[str] = set()
    for path in sorted((PACKAGE / package).glob("*.py")):
        names |= imported_modules(f"{package}/{path.name}")
    return names


def test_serve_imports_nothing_from_jobs():
    assert not {n for n in _package_imports("serve") if _inside(n, ("repro.jobs",))}


def test_jobs_imports_only_the_serve_transport():
    from_serve = {n for n in _package_imports("jobs") if _inside(n, ("repro.serve",))}
    assert from_serve  # the frame transport
    assert all(_inside(n, ("repro.serve.transport",)) for n in from_serve)


def test_hw_never_imports_the_netlist_compiler():
    for path in sorted((PACKAGE / "hw").rglob("*.py")):
        relative = str(path.relative_to(PACKAGE))
        compiler = {
            n for n in imported_modules(relative) if _inside(n, ("repro.perf.compile",))
        }
        assert not compiler, relative
