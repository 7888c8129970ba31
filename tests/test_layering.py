"""Import layering: the packet stack and the workload model sit below the
fluid simulators.

``repro.workloads`` owns the iteration record both substrates emit
(``IterationResult``) and the per-round mean; ``repro.simulator`` and
``repro.tcp`` record it.  None of them may import ``repro.fluid``, so the
record cannot drift back into the fluid package.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LOWER_PACKAGES = ("simulator", "tcp", "workloads")


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


def _is_fluid(name: str) -> bool:
    return name == "repro.fluid" or name.startswith("repro.fluid.")


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


def test_lower_layers_do_not_import_fluid():
    offenders = []
    for package in LOWER_PACKAGES:
        for path in sorted((SRC / "repro" / package).rglob("*.py")):
            parts = path.relative_to(SRC).with_suffix("").parts
            is_package = parts[-1] == "__init__"
            module = ".".join(parts[:-1] if is_package else parts)
            names = imported_modules(path.read_text(), module, is_package)
            offenders += [f"{module} imports {n}" for n in sorted(names) if _is_fluid(n)]
    assert offenders == []
