"""Hot-path performance rules (PRF001, PRF002).

The fast-path work documented in docs/PERFORMANCE.md got its wins largely
by hoisting per-event allocation out of the simulators' inner loops:
plain tuples on the event heap, pooled packets, flow views mutated in
place.  PRF001 keeps that property from eroding — constructing a
dataclass inside an event handler (``on_*``), a dispatch loop
(``_dispatch``), or an allocation policy (``allocate``) puts a
``__init__`` + ``__eq__``-capable object allocation back on the hottest
call sites in the repo.

Detection is module-local by design: the checker flags calls to classes
*defined in the same file* with a ``@dataclass`` decorator (plus
``dataclasses.replace``, which always builds a fresh instance).  It
cannot see dataclasses imported from elsewhere; that keeps the rule
precise, and the fixture tests honest.  Construction that is genuinely
cold (error paths, once-per-run setup) is suppressed in place with
``# repro-lint: disable=PRF001``.

PRF002 guards the vectorized-core contract: inside a module carrying the
``# repro-lint: hot-path-module`` marker, flow state lives in
``FlowArrays`` struct-of-arrays and must be advanced with whole-array
numpy passes — a Python ``for`` loop over a ``FlowView``/``_JobRuntime``
sequence there reintroduces the O(flows) interpreter work the PR-9
vectorization removed.  Flow-typed sequences are found with a small
per-function dataflow: parameters and variables annotated with a flow
view/runtime type seed the set, which then propagates through
``sorted``/``list``/``tuple``/``reversed`` calls, slices, and
assignments.  The scalar reference implementations and FlowView-compat
policy paths keep their loops on purpose — each carries a
``# repro-lint: disable=PRF002`` at the loop header.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .engine import Finding, LintContext, Rule, dotted_name, terminal_name

__all__ = ["RULES"]

#: Module marker opting a file into the PRF002 per-flow-loop rule.  A
#: plain substring scan (comment or docstring both count): the marker is
#: a declaration about the whole module, not a per-line directive.
_HOT_MODULE_MARKER = "repro-lint: hot-path-module"

#: Type names whose sequences PRF002 considers per-flow state.
_FLOW_TYPE_NAMES = ("FlowView", "_JobRuntime")

#: Builtins through which flow-typed sequences propagate unchanged.
_SEQUENCE_WRAPPERS = frozenset({"sorted", "list", "tuple", "reversed"})

#: Function names that sit on the per-event / per-step hot path.
_HOT_PREFIXES = ("on_",)
_HOT_NAMES = frozenset({"_dispatch", "allocate"})


def _is_hot_function(name: str) -> bool:
    return name.startswith(_HOT_PREFIXES) or name in _HOT_NAMES


def _dataclass_names(tree: ast.Module) -> frozenset[str]:
    """Names of classes in this module carrying a ``@dataclass`` decorator."""
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if terminal_name(target) == "dataclass":
                names.add(node.name)
                break
    return frozenset(names)


def _is_replace_call(func: ast.expr) -> bool:
    return dotted_name(func) in ("dataclasses.replace", "replace")


def _check_prf001(ctx: LintContext) -> Iterator[Finding]:
    dataclasses_here = _dataclass_names(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _is_hot_function(node.name):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            callee = terminal_name(call.func)
            if callee in dataclasses_here:
                yield Finding(
                    ctx.path, call.lineno, call.col_offset, "PRF001",
                    f"dataclass `{callee}` constructed inside hot-path "
                    f"function `{node.name}`: allocate once outside the "
                    "event loop and mutate in place (see "
                    "docs/PERFORMANCE.md), or suppress if this path is "
                    "cold",
                )
            elif _is_replace_call(call.func):
                yield Finding(
                    ctx.path, call.lineno, call.col_offset, "PRF001",
                    "`dataclasses.replace` inside hot-path function "
                    f"`{node.name}` builds a fresh instance per call: "
                    "mutate a pre-built object instead, or suppress if "
                    "this path is cold",
                )


def _mentions_flow_type(annotation: ast.expr) -> bool:
    """Whether an annotation names one of the flow view/runtime types."""
    for node in ast.walk(annotation):
        if isinstance(node, (ast.Name, ast.Attribute)):
            if terminal_name(node) in _FLOW_TYPE_NAMES:
                return True
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotations ("Sequence[FlowView]") stay strings in the
            # AST; a substring check is the best available signal.
            if any(name in node.value for name in _FLOW_TYPE_NAMES):
                return True
    return False


#: Mapping type heads whose iteration yields keys rather than elements.
_MAPPING_HEADS = frozenset(
    {"dict", "Dict", "Mapping", "MutableMapping", "defaultdict", "OrderedDict"}
)


def _is_mapping_annotation(annotation: ast.expr) -> bool:
    """Whether the annotation's outermost type is a mapping."""
    head = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return terminal_name(head) in _MAPPING_HEADS


def _is_flow_sequence_expr(expr: ast.expr, flow_names: set[str]) -> bool:
    """Whether an expression denotes a flow-typed sequence.

    Flow-typed-ness propagates through slicing (``ordered[:k]``) and the
    order-preserving sequence builtins (``sorted(flows)``), and a list
    comprehension whose element is a direct flow-type construction
    (``[FlowView(...) for ...]``) is a seed.
    """
    if isinstance(expr, ast.Name):
        return expr.id in flow_names
    if isinstance(expr, ast.Subscript):
        return _is_flow_sequence_expr(expr.value, flow_names)
    if isinstance(expr, ast.Call):
        if terminal_name(expr.func) in _SEQUENCE_WRAPPERS and expr.args:
            return _is_flow_sequence_expr(expr.args[0], flow_names)
        return False
    if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
        element = expr.elt
        if isinstance(element, ast.Call):
            return terminal_name(element.func) in _FLOW_TYPE_NAMES
    return False


def _flow_typed_names(func: ast.AST) -> set[str]:
    """Names bound to flow-view/runtime sequences inside one function.

    Seeds: parameters and ``x: list[FlowView]``-style annotated targets.
    Propagation: ``a = <flow-typed expression>`` assignments, iterated to
    a fixed point so chains like ``ordered = sorted(flows)`` resolve.
    """
    names: set[str] = set()
    arguments = getattr(func, "args", None)
    if arguments is not None:
        for arg in [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]:
            if arg.annotation is not None and _mentions_flow_type(arg.annotation):
                names.add(arg.arg)
    changed = True
    while changed:
        changed = False
        for node in ast.walk(func):
            target: Optional[str] = None
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                # Mapping annotations don't seed: iterating a
                # ``dict[int, list[FlowView]]`` yields keys, not flows.
                if _mentions_flow_type(node.annotation) and not _is_mapping_annotation(
                    node.annotation
                ):
                    target = node.target.id
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                if isinstance(node.targets[0], ast.Name) and _is_flow_sequence_expr(
                    node.value, names
                ):
                    target = node.targets[0].id
            if target is not None and target not in names:
                names.add(target)
                changed = True
    return names


def _check_prf002(ctx: LintContext) -> Iterator[Finding]:
    if _HOT_MODULE_MARKER not in ctx.source:
        return
    for func in ast.walk(ctx.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        flow_names = _flow_typed_names(func)
        if not flow_names:
            continue
        for node in ast.walk(func):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if _is_flow_sequence_expr(node.iter, flow_names):
                yield Finding(
                    ctx.path, node.lineno, node.col_offset, "PRF002",
                    f"per-flow Python loop over `{ast.unparse(node.iter)}` "
                    "in a hot-path module: advance flow state with "
                    "whole-array numpy passes over FlowArrays "
                    "(docs/PERFORMANCE.md, \"Vectorized core & scale "
                    "benchmarks\"), or suppress if this is the scalar "
                    "reference / FlowView-compat path",
                )


RULES: tuple[Rule, ...] = (
    Rule(
        code="PRF001",
        name="hot-path-dataclass",
        summary=(
            "event handlers, dispatch loops and allocation policies may "
            "not construct dataclasses"
        ),
        rationale=(
            "`on_*`/`_dispatch`/`allocate` run once per event or per "
            "fluid step; a dataclass construction there undoes the "
            "pooling and in-place mutation the fast paths rely on "
            "(docs/PERFORMANCE.md) and shows up directly in "
            "`make bench-perf`."
        ),
        checker=_check_prf001,
        scopes=("repro/simulator/", "repro/fluid/"),
    ),
    Rule(
        code="PRF002",
        name="hot-path-flow-loop",
        summary=(
            "modules marked `repro-lint: hot-path-module` may not walk "
            "FlowView/runtime sequences with Python for loops"
        ),
        rationale=(
            "The vectorized fluid core keeps flow state in FlowArrays "
            "struct-of-arrays and advances it with whole-array numpy "
            "passes; a per-flow Python loop in a marked module "
            "reintroduces O(flows) interpreter work per event and erodes "
            "the 10k-flow-scale speedups gated by "
            "benchmarks/bench_scale_fluid.py (docs/PERFORMANCE.md).  "
            "Scalar reference implementations and FlowView-compat policy "
            "paths suppress in place."
        ),
        checker=_check_prf002,
        scopes=("repro/",),
    ),
)
