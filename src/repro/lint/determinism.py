"""Determinism rules (DET001–DET005).

The simulators promise bit-identical replays given a seed — fault replay,
``serve --resume`` and the result cache all depend on it.  These rules
catch the ways that promise quietly breaks: process-global RNGs,
wall-clock reads, hash-order-dependent iteration, and mutable default
arguments.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Union

from .engine import Finding, LintContext, Rule, dotted_name

__all__ = ["RULES"]

#: Functions of the stdlib ``random`` module that draw from (or reseed) the
#: process-global generator.  ``random.Random(seed)`` is *not* here: a
#: seeded instance is the approved idiom.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "sample", "shuffle", "seed", "getrandbits", "gauss", "normalvariate",
        "lognormvariate", "expovariate", "betavariate", "gammavariate",
        "triangular", "vonmisesvariate", "paretovariate", "weibullvariate",
        "binomialvariate", "randbytes",
    }
)

#: Wall-clock reads, by dotted call name.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "date.today", "datetime.date.today",
    }
)

#: ``np.random.*`` attributes that construct *seeded, local* generators and
#: are therefore fine; every other ``np.random.X(...)`` call touches numpy's
#: legacy global state.
_NUMPY_LOCAL_OK = frozenset(
    {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
     "MT19937", "SFC64", "BitGenerator", "RandomState"}
)


def _call_label(surface: str, resolved: str) -> str:
    """``surface`` as written, annotated with what it resolves to."""
    if surface == resolved:
        return f"`{surface}()`"
    return f"`{surface}()` (resolves to `{resolved}`)"


def _check_det001(ctx: LintContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        surface = dotted_name(node.func)
        name = ctx.resolve(surface)
        if name is None:
            continue
        if name.startswith("random.") and name.split(".", 1)[1] in _GLOBAL_RANDOM_FNS:
            yield Finding(
                ctx.path, node.lineno, node.col_offset, "DET001",
                f"{_call_label(surface, name)} draws from the process-global "
                "RNG; use a seeded `random.Random(seed)` or "
                "`np.random.default_rng(seed)` instance instead",
            )


def _check_det002(ctx: LintContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        surface = dotted_name(node.func)
        name = ctx.resolve(surface)
        if name in _WALL_CLOCK_CALLS:
            yield Finding(
                ctx.path, node.lineno, node.col_offset, "DET002",
                f"{_call_label(surface, name)} reads the wall clock; "
                "simulation code must use `sim.now`, and timing belongs in "
                "the harness/telemetry layer (repro.harness)",
            )


def _check_det003(ctx: LintContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        surface = dotted_name(node.func)
        name = ctx.resolve(surface)
        if name is None:
            continue
        for prefix in ("np.random.", "numpy.random."):
            if name.startswith(prefix):
                attr = name[len(prefix):].split(".", 1)[0]
                if attr not in _NUMPY_LOCAL_OK:
                    yield Finding(
                        ctx.path, node.lineno, node.col_offset, "DET003",
                        f"{_call_label(surface, name)} uses numpy's legacy "
                        "global RNG state; construct a generator with "
                        "`np.random.default_rng(seed)` and draw from it",
                    )
                break


_SetSource = Union[ast.Set, ast.SetComp]


def _is_set_expr(node: ast.expr, set_vars: set[str]) -> bool:
    """Whether ``node`` is statically recognisable as an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_vars:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_vars) or _is_set_expr(
            node.right, set_vars
        )
    return False


def _annotation_is_set(annotation: ast.expr) -> bool:
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - unparse failures are exotic
        return False
    return text.replace(" ", "").lower().startswith(("set[", "frozenset["))


def _annotation_is_dict_of_sets(annotation: ast.expr) -> bool:
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover
        return False
    squeezed = text.replace(" ", "").lower()
    return squeezed.startswith("dict[") and (
        ",set[" in squeezed or ",frozenset[" in squeezed
    )


class _SetIterationVisitor(ast.NodeVisitor):
    """Per-scope tracking of set-typed locals and iteration over them.

    Handles the repo's real patterns: names bound to set literals/
    comprehensions/``set(...)`` calls, ``x: set[...]`` annotations, dicts
    annotated ``dict[K, set[V]]`` (whose subscripts are sets), and set
    algebra (``a - b``, ``a | b``).  Iterating any of these in a ``for``
    loop, list/dict comprehension or generator expression is flagged;
    ``sorted(...)`` around the set (or building another set) is the fix.
    """

    def __init__(self, ctx: LintContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []
        self._set_vars: list[set[str]] = [set()]
        self._dict_of_set_vars: list[set[str]] = [set()]

    # -- scope management ---------------------------------------------------

    def _enter(self) -> None:
        self._set_vars.append(set())
        self._dict_of_set_vars.append(set())

    def _exit(self) -> None:
        self._set_vars.pop()
        self._dict_of_set_vars.pop()

    @property
    def set_vars(self) -> set[str]:
        return set().union(*self._set_vars)

    @property
    def dict_of_set_vars(self) -> set[str]:
        return set().union(*self._dict_of_set_vars)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter()
        self.generic_visit(node)
        self._exit()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter()
        self.generic_visit(node)
        self._exit()

    # -- binding collection -------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value, self.set_vars):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_vars[-1].add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            if _annotation_is_set(node.annotation):
                self._set_vars[-1].add(node.target.id)
            elif _annotation_is_dict_of_sets(node.annotation):
                self._dict_of_set_vars[-1].add(node.target.id)
        self.generic_visit(node)

    # -- iteration sites ----------------------------------------------------

    def _iter_is_unordered_set(self, iter_node: ast.expr) -> bool:
        if _is_set_expr(iter_node, self.set_vars):
            return True
        # members[key] where members: dict[K, set[V]]
        if isinstance(iter_node, ast.Subscript) and isinstance(
            iter_node.value, ast.Name
        ):
            return iter_node.value.id in self.dict_of_set_vars
        return False

    def _flag(self, iter_node: ast.expr) -> None:
        described = ast.unparse(iter_node)
        self.findings.append(
            Finding(
                self.ctx.path, iter_node.lineno, iter_node.col_offset,
                "DET004",
                f"iteration over unordered set `{described}`: order depends "
                "on PYTHONHASHSEED and leaks into results (e.g. float "
                "summation order); iterate `sorted(...)` instead",
            )
        )

    def visit_For(self, node: ast.For) -> None:
        if self._iter_is_unordered_set(node.iter):
            self._flag(node.iter)
        self.generic_visit(node)

    def _visit_comprehension_container(
        self, node: ast.ListComp | ast.DictComp | ast.GeneratorExp
    ) -> None:
        for comp in node.generators:
            if self._iter_is_unordered_set(comp.iter):
                self._flag(comp.iter)
        self.generic_visit(node)

    # A SetComp over a set stays unordered either way — building one more
    # set from another cannot leak iteration order, so it is exempt.
    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension_container(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension_container(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension_container(node)


def _check_det004(ctx: LintContext) -> Iterable[Finding]:
    visitor = _SetIterationVisitor(ctx)
    visitor.visit(ctx.tree)
    return visitor.findings


def _check_det005(ctx: LintContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            ):
                mutable = True
            if mutable:
                yield Finding(
                    ctx.path, default.lineno, default.col_offset, "DET005",
                    f"mutable default argument in `{node.name}()`: the "
                    "object is shared across calls; default to None and "
                    "construct inside the function",
                )


RULES: tuple[Rule, ...] = (
    Rule(
        code="DET001",
        name="global-random",
        summary="no module-level `random.*` calls",
        rationale=(
            "The process-global RNG is shared mutable state: any import-order "
            "or call-order change reshuffles every downstream draw, and "
            "seeded replay (faults, serve --resume, the result cache) breaks."
        ),
        checker=_check_det001,
    ),
    Rule(
        code="DET002",
        name="wall-clock",
        summary="no wall-clock reads outside the harness layer",
        rationale=(
            "Simulated time is `sim.now`; a wall-clock read in simulation "
            "code makes results depend on host speed. The harness/telemetry "
            "layer is allowlisted — measuring real runtime is its job — and "
            "so is the verify layer, whose solver backends enforce "
            "wall-clock query budgets, and the service layer, whose "
            "watchdog/backoff machinery measures real timeouts (with "
            "injectable clocks so simulated results stay deterministic)."
        ),
        checker=_check_det002,
        exempt=("harness/", "verify/", "service/"),
    ),
    Rule(
        code="DET003",
        name="numpy-global-random",
        summary="no legacy `np.random.*` global-state calls",
        rationale=(
            "`np.random.seed`/`np.random.normal` etc. mutate one hidden "
            "global stream; `np.random.default_rng(seed)` gives each "
            "component its own reproducible generator."
        ),
        checker=_check_det003,
    ),
    Rule(
        code="DET004",
        name="unordered-set-iteration",
        summary="no iteration over unordered sets in simulation code",
        rationale=(
            "Set iteration order depends on PYTHONHASHSEED. When that order "
            "reaches float summation or event scheduling, two runs of the "
            "same seed diverge in the last ulp — the hardest kind of "
            "nondeterminism to debug. Iterate `sorted(...)`."
        ),
        checker=_check_det004,
        scopes=("simulator/", "fluid/", "tcp/", "schedulers/", "faults/",
                "core/"),
    ),
    Rule(
        code="DET005",
        name="mutable-default",
        summary="no mutable default arguments",
        rationale=(
            "A mutable default is constructed once and shared by every "
            "call; state leaks between invocations (and between test "
            "cases) in order-dependent ways."
        ),
        checker=_check_det005,
    ),
)
