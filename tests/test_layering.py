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

One sharing rule: only ``repro.fluid.allocation`` turns progress into
weights.  Every fluid engine, the serve engine included, holds a
``FairShare`` or ``MLTCPWeighted`` and calls its ``weights`` or
``weights_array``, so no other module of ``repro.fluid`` or
``repro.service`` may import or name the aggressiveness function behind
them.

One MLTCP hook pair: under ``repro.tcp`` only ``CongestionControl`` (the
no-op defaults) and ``_MltcpMixin`` (Algorithm 1) define ``_observe`` and
``_ai_scale``, and only ``MltcpState`` constructs an ``IterationTracker``,
so every MLTCP variant, window- or rate-based, shares one tracker clamp
and one degradation log.

Dependencies: numpy is the only third-party package ``src/repro`` may
import, anywhere.  The one exception is the optional SMT backend: ``z3``
may be imported only inside function bodies of ``repro.verify.solver``,
which probe for it.  A fresh-interpreter check at the end keeps scipy and
networkx, which the tests use as oracles, off the start-up path.
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
#: The one third-party package any module of ``src/repro`` may import.
RUNTIME_DEPENDENCIES = frozenset({"numpy"})
#: ``(module, package)``: a package the module may import only inside a
#: function body, so importing the module never needs it.
CALL_TIME_ONLY = {("repro.verify.solver", "z3")}

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


#: The names that compute ``F(bytes_ratio)`` outside a policy object.
WEIGHT_NAMES = ("LinearAggressiveness", "default_aggressiveness", "mltcp_weights_array")
#: The one module that may use them, and the packages it is guarded in.
WEIGHT_OWNER = "repro.fluid.allocation"
WEIGHT_PACKAGES = ("fluid", "service")


def weight_uses(source: str, module: str, is_package: bool = False) -> list[str]:
    """Each import or load of a :data:`WEIGHT_NAMES` name in ``source``."""
    uses = [
        f"imports {name}"
        for name in sorted(imported_modules(source, module, is_package))
        if name.rpartition(".")[2] in WEIGHT_NAMES
    ]
    loads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in WEIGHT_NAMES:
            loads.append((node.lineno, node.col_offset, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in WEIGHT_NAMES:
            loads.append((node.lineno, node.col_offset, f".{node.attr}"))
    return uses + [f"line {line}: loads {name}" for line, _, name in sorted(loads)]


def test_weight_uses_sees_imports_and_loads():
    source = (
        "from ..core.aggressiveness import LinearAggressiveness\n"
        "import repro.fluid.allocation as alloc\n"
        "def f(x):\n"
        "    return type(x) is LinearAggressiveness or alloc.mltcp_weights_array\n"
    )
    assert weight_uses(source, "repro.service.engine") == [
        "imports repro.core.aggressiveness.LinearAggressiveness",
        "line 4: loads LinearAggressiveness",
        "line 4: loads .mltcp_weights_array",
    ]


def test_only_allocation_turns_progress_into_weights():
    offenders = []
    for package in WEIGHT_PACKAGES:
        for path in sorted((SRC / "repro" / package).rglob("*.py")):
            parts = path.relative_to(SRC).with_suffix("").parts
            is_package = parts[-1] == "__init__"
            module = ".".join(parts[:-1] if is_package else parts)
            if module == WEIGHT_OWNER:
                continue
            offenders += [
                f"{module}: {use}"
                for use in weight_uses(path.read_text(), module, is_package)
            ]
    assert offenders == []


#: Algorithm 1's two hooks on a congestion control's window increase.
MLTCP_HOOKS = ("_observe", "_ai_scale")
#: The classes that may define them: the defaults and MLTCP's overrides.
HOOK_OWNERS = ("CongestionControl", "_MltcpMixin")
#: The one class that may construct Algorithm 1's per-flow state.
TRACKER_OWNER = "MltcpState"


def mltcp_plumbing(source: str) -> list[tuple[str, str]]:
    """``(class, name)`` for each :data:`MLTCP_HOOKS` method a class of
    ``source`` defines and each ``IterationTracker`` it constructs (class
    ``""`` at module level), in source order."""
    found: list[tuple[str, str]] = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if (
                isinstance(node, ast.ClassDef)
                and isinstance(child, ast.FunctionDef)
                and child.name in MLTCP_HOOKS
            ):
                found.append((owner, child.name))
            elif isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if called == "IterationTracker":
                    found.append((owner, called))
            visit(child, owner)

    visit(ast.parse(source), "")
    return found


def test_mltcp_plumbing_sees_hooks_and_trackers():
    source = (
        "class Reno(CongestionControl):\n"
        "    def _ai_scale(self, conn):\n"
        "        return 1.0\n"
        "    class Inner:\n"
        "        def _observe(self, newly_acked, conn): ...\n"
        "def _observe(newly_acked, conn): ...\n"
        "class State:\n"
        "    def __init__(self, config):\n"
        "        self.tracker = iteration.IterationTracker(config)\n"
        "tracker = IterationTracker(config)\n"
    )
    assert mltcp_plumbing(source) == [
        ("Reno", "_ai_scale"),
        ("Inner", "_observe"),
        ("State", "IterationTracker"),
        ("", "IterationTracker"),
    ]


def test_one_mltcp_hook_pair_and_one_tracker_owner():
    offenders = []
    for path in sorted((SRC / "repro" / "tcp").rglob("*.py")):
        for owner, name in mltcp_plumbing(path.read_text()):
            allowed = HOOK_OWNERS if name in MLTCP_HOOKS else (TRACKER_OWNER,)
            if owner not in allowed:
                offenders.append(f"{path.name}: {owner or '<module>'} {name}")
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


def third_party_imports(source: str) -> list[tuple[str, bool]]:
    """``(top-level package, inside a function body)`` of every absolute
    import in ``source`` outside the standard library and ``repro``."""
    found: list[tuple[str, bool]] = []

    def visit(node: ast.AST, in_function: bool) -> None:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            names = []
        for name in names:
            top = name.split(".")[0]
            if top != "repro" and top not in sys.stdlib_module_names:
                found.append((top, in_function))
        in_function = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(ast.parse(source), False)
    return found


def test_finds_third_party_imports_at_any_depth():
    source = (
        "import os, numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "from . import sibling\n"
        "if TYPE_CHECKING:\n"
        "    import networkx\n"
        "class A:\n"
        "    def f(self):\n"
        "        from scipy import integrate\n"
    )
    assert third_party_imports(source) == [
        ("numpy", False), ("networkx", False), ("scipy", True),
    ]


def test_numpy_is_the_only_runtime_dependency():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for package, in_function in third_party_imports(path.read_text()):
            if package in RUNTIME_DEPENDENCIES:
                continue
            if in_function and (module, package) in CALL_TIME_ONLY:
                continue
            where = "in a function" if in_function else "at module level"
            offenders.append(f"{module}: {package} ({where})")
    assert offenders == []


def test_startup_loads_neither_scipy_nor_networkx():
    imports = "".join(f"import {module}\n" for module in STARTUP_MODULES)
    loaded = (
        "sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'networkx'))"
    )
    code = f"import json, sys\n{imports}print(json.dumps({loaded}))\n"
    loaded_modules = json.loads(_fresh(code))
    assert loaded_modules == [], f"importing {STARTUP_MODULES} loaded {loaded_modules}"
