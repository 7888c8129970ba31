"""Every callable the end-to-end benchmark's tracer wraps still exists.

``e2e_bench/tracing.py`` wraps ``src/`` entry points by name
(``Target.where``), so renaming or deleting one under ``src/`` would
otherwise fail only ``make test-e2e-bench``.  This test loads the tracer
by path, without the benchmark's own import path, and resolves every
target the way the tracer does: the module imports, a ``Class.method``
is defined on that class itself (the tracer patches the class's own
attribute), and a function is callable.  Some methods exist only as
such per-step hooks — the four next-event methods of the fluid
simulators, for example — and this is what keeps a cleanup from
deleting them.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "e2e_bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # The tracer's dataclasses look their module up while being built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WHERES = sorted({target.where for target in _load_tracing().TARGETS})


def test_tracer_wraps_something():
    assert len(WHERES) > 50


@pytest.mark.parametrize("where", WHERES)
def test_traced_name_resolves(where):
    module_name, _, path = where.partition(":")
    module = importlib.import_module(module_name)
    if "." in path:
        class_name, attr = path.split(".")
        cls = getattr(module, class_name)
        assert attr in vars(cls), f"{where}: not defined on {class_name}"
    else:
        assert callable(getattr(module, path, None)), f"{where}: no such function"
