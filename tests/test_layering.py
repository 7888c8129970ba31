"""Import layering: which packages each layer may not import.

``LAYER_RULES`` is the one table.  An import counts wherever it appears:
at module level, inside a function, or under ``TYPE_CHECKING``.

- ``repro.workloads`` owns the iteration record both substrates emit
  (``IterationResult``) and the per-round mean; ``repro.simulator`` and
  ``repro.tcp`` record it.  None of them may import ``repro.fluid``, so the
  record cannot drift back into the fluid package.
- The packet engine and topology stand alone: the engine takes a
  duck-typed ``SimMonitor`` rather than a ``repro.guards`` rail, and
  ``topology.RoutingProvider`` keeps fault routing out of the simulator.
  ``repro.simulator`` may import none of the layers built on top of it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: (importing packages, packages none of them may import), one rule a row.
LAYER_RULES = [
    pytest.param(
        ("simulator", "tcp", "workloads"), ("fluid",),
        id="lower_layers_do_not_import_fluid",
    ),
    pytest.param(
        ("simulator",), ("guards", "faults", "harness", "service"),
        id="simulator_does_not_import_upper_layers",
    ),
]


def imported_modules(source: str, module: str, is_package: bool = False) -> set[str]:
    """Absolute names of everything ``source`` (the code of ``module``)
    imports, relative imports resolved; ``from a import b`` yields both
    ``a`` and ``a.b``, since ``b`` may be a submodule."""
    package = module.split(".") if is_package else module.split(".")[:-1]
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = ".".join(package[: len(package) - node.level + 1])
                origin = f"{base}.{node.module}" if node.module else base
            else:
                origin = node.module or ""
            names.add(origin)
            names.update(f"{origin}.{alias.name}" for alias in node.names)
    return names


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(f"{package}.")


def test_resolves_relative_imports():
    names = imported_modules(
        "from ..fluid.flowsim import IterationResult\nfrom . import job\n",
        "repro.workloads.traceio",
    )
    assert names == {
        "repro.fluid.flowsim",
        "repro.fluid.flowsim.IterationResult",
        "repro.workloads",
        "repro.workloads.job",
    }
    assert imported_modules("from .. import fluid\n", "repro.tcp", is_package=True) == {
        "repro", "repro.fluid",
    }


def test_counts_type_checking_and_function_level_imports():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from ..guards import GuardRail\n"
        "def lazy():\n"
        "    import repro.faults.routing\n"
    )
    names = imported_modules(source, "repro.simulator.engine")
    assert {"repro.guards.GuardRail", "repro.faults.routing"} <= names


@pytest.mark.parametrize("packages, forbidden", LAYER_RULES)
def test_import_boundaries(packages, forbidden):
    offenders = []
    for package in packages:
        for path in sorted((SRC / "repro" / package).rglob("*.py")):
            parts = path.relative_to(SRC).with_suffix("").parts
            is_package = parts[-1] == "__init__"
            module = ".".join(parts[:-1] if is_package else parts)
            names = imported_modules(path.read_text(), module, is_package)
            offenders += [
                f"{module} imports {name}"
                for name in sorted(names)
                if any(_within(name, f"repro.{banned}") for banned in forbidden)
            ]
    assert offenders == []
