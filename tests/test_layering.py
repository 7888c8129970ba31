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

The start-up gate at the end is a rule the static table cannot express:
scipy and networkx may be imported only inside the function bodies that
call them, so a fresh interpreter's ``import repro`` loads neither.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: What every ``repro`` command and benchmark process imports first.
STARTUP_MODULES = ("repro", "repro.cli", "repro.harness.experiments", "repro.service")
#: Packages each served by one function that imports it on first call:
#: scipy by ``core.analysis.loss``, networkx by ``build_from_graph``.
CALL_TIME_PACKAGES = ("scipy", "networkx")

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


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


#: The loaded modules of :data:`CALL_TIME_PACKAGES`, as a Python expression.
_LOADED = (
    f"sorted(m for m in sys.modules if m.split('.')[0] in {CALL_TIME_PACKAGES!r})"
)


def test_startup_loads_neither_scipy_nor_networkx():
    imports = "".join(f"import {module}\n" for module in STARTUP_MODULES)
    code = f"import json, sys\n{imports}print(json.dumps({_LOADED}))\n"
    loaded = json.loads(_fresh(code))
    assert loaded == [], f"importing {STARTUP_MODULES} loaded {loaded}"


_ON_CALL = f"""
import json, sys
import repro
from repro.core.analysis import loss, loss_closed_form
from repro.simulator import Simulator, build_from_graph

before = {_LOADED}
value = loss(0.3, 0.5, 1.8)
assert abs(value - loss_closed_form(0.3, 0.5, 1.8)) < 1e-8, value
assert "scipy.integrate" in sys.modules

import networkx as nx

graph = nx.Graph()
graph.add_node("sw", kind="switch")
graph.add_edge("a", "sw", delay=1e-6)
graph.add_edge("sw", "b", delay=1e-6)
network = build_from_graph(Simulator(), graph)
assert network.routes[("a", "b")] == ("a", "sw", "b"), network.routes
print(json.dumps(before))
"""


def test_call_time_imports_still_work():
    """``loss`` loads scipy on its first call and ``build_from_graph`` runs
    on a networkx graph, in a process that started without either."""
    assert json.loads(_fresh(_ON_CALL)) == []
