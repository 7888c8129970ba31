"""Guard-hygiene rules (GRD001, GRD002).

The guardrail subsystem (docs/ROBUSTNESS.md) only works when failures are
*visible*: an invariant monitor cannot report what an ``except Exception:
pass`` silently ate three layers down.  GRD001 flags exception swallowing —
a bare ``except:`` that never re-raises, or a catch-all handler whose body
does nothing at all — so every broad catch in ``src/repro/`` either
narrows its exception type, handles the error meaningfully, or carries an
explicit ``# repro-lint: disable=GRD001`` with a justification.

GRD002 tightens the bar for *fault-handling* code specifically (the
``faults`` package and any function whose name mentions faults, chaos or
rerouting): there, catching an exception — however narrow — without
re-raising or recording the event through a guardrail/telemetry API is a
silent repair in exactly the code whose job is making failures
observable.  Handlers must re-raise, or call one of the recording APIs
(``violation``, ``record``, ``report_violations``, ``fail``), or carry a
justified ``# repro-lint: disable=GRD002``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .engine import Finding, LintContext, Rule, terminal_name

__all__ = ["RULES"]

#: Catch-all exception names: catching these hides everything, including
#: the guardrail's own :class:`~repro.guards.GuardViolationError`.
_CATCH_ALL = frozenset({"Exception", "BaseException"})


def _contains_raise(body: list[ast.stmt]) -> bool:
    """Whether any statement (at any depth) in ``body`` re-raises."""
    return any(
        isinstance(node, ast.Raise) for stmt in body for node in ast.walk(stmt)
    )


def _is_catch_all(handler_type: ast.expr) -> bool:
    """Whether the handler's type expression names a catch-all class."""
    if isinstance(handler_type, ast.Tuple):
        return any(terminal_name(el) in _CATCH_ALL for el in handler_type.elts)
    return terminal_name(handler_type) in _CATCH_ALL


def _is_swallow_only(body: list[ast.stmt]) -> bool:
    """Whether the handler body discards the error without acting on it.

    ``pass``, a lone docstring/constant expression, and ``continue`` are
    pure swallows.  Anything else — logging, counters, ``return False``,
    fallbacks — is a deliberate handling decision and GRD001 stays out of
    the way.
    """
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        return False
    return True


def _check_grd001(ctx: LintContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            # Bare ``except:`` catches KeyboardInterrupt/SystemExit too;
            # only tolerable when the handler provably re-raises.
            if not _contains_raise(node.body):
                yield Finding(
                    ctx.path, node.lineno, node.col_offset, "GRD001",
                    "bare `except:` without a re-raise swallows every "
                    "error (including GuardViolationError and "
                    "KeyboardInterrupt); catch a specific exception or "
                    "re-raise",
                )
        elif _is_catch_all(node.type):
            if not _contains_raise(node.body) and _is_swallow_only(node.body):
                yield Finding(
                    ctx.path, node.lineno, node.col_offset, "GRD001",
                    "`except Exception:` with an empty body silently "
                    "discards the error; narrow the exception type, handle "
                    "it, or justify with `# repro-lint: disable=GRD001`",
                )


#: APIs whose call counts as "the failure was recorded": the guardrail's
#: reporting entry point, the telemetry's ``record``, the CLI's ``fail``.
_RECORDING_CALLS = frozenset(
    {
        "violation",
        "record",
        "report_violations",
        "fail",
    }
)

#: Function names that mark a code path as fault-handling even outside
#: the ``faults`` package.  The lookbehind keeps "default" (de-FAULT)
#: from counting as fault-handling.
_FAULT_NAME = re.compile(r"(?<!de)fault|chaos|reroute", re.IGNORECASE)


def _records_event(body: list[ast.stmt]) -> bool:
    """Whether any statement in ``body`` calls a recording API."""
    return any(
        isinstance(node, ast.Call) and terminal_name(node.func) in _RECORDING_CALLS
        for stmt in body
        for node in ast.walk(stmt)
    )


def _in_faults_package(ctx: LintContext) -> bool:
    return "faults" in ctx.posix_path.split("/")


def _check_grd002(ctx: LintContext) -> Iterator[Finding]:
    whole_file = _in_faults_package(ctx)
    yield from _grd002_walk(ctx, ctx.tree.body, in_scope=whole_file)


def _grd002_walk(
    ctx: LintContext, body: list[ast.stmt], in_scope: bool
) -> Iterator[Finding]:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _grd002_walk(
                ctx,
                stmt.body,
                in_scope or bool(_FAULT_NAME.search(stmt.name)),
            )
            continue
        if isinstance(stmt, ast.ClassDef):
            yield from _grd002_walk(ctx, stmt.body, in_scope)
            continue
        if in_scope and isinstance(stmt, ast.Try):
            for handler in stmt.handlers:
                if not _contains_raise(handler.body) and not _records_event(
                    handler.body
                ):
                    caught = (
                        ast.unparse(handler.type) if handler.type else "everything"
                    )
                    yield Finding(
                        ctx.path, handler.lineno, handler.col_offset, "GRD002",
                        f"fault-handling code catches {caught} without "
                        "re-raising or recording a guard event; failures in "
                        "fault paths must stay observable — re-raise, call a "
                        "recording API (violation/record/...), "
                        "or justify with `# repro-lint: disable=GRD002`",
                    )
        for child_body in _stmt_bodies(stmt):
            yield from _grd002_walk(ctx, child_body, in_scope)


def _stmt_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    """Every nested statement list of ``stmt`` (if/for/try/with bodies)."""
    bodies: list[list[ast.stmt]] = []
    for field_name in ("body", "orelse", "finalbody"):
        value = getattr(stmt, field_name, None)
        if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
            bodies.append(value)
    for handler in getattr(stmt, "handlers", []) or []:
        bodies.append(handler.body)
    return bodies


RULES: tuple[Rule, ...] = (
    Rule(
        code="GRD001",
        name="swallowed-exception",
        summary="no silent swallowing of broad exception catches",
        rationale=(
            "The guardrail subsystem relies on failures surfacing: a "
            "catch-all handler that does nothing hides invariant "
            "violations, masks real bugs as flaky behaviour, and can eat "
            "the `raise`-policy GuardViolationError itself."
        ),
        checker=_check_grd001,
    ),
    Rule(
        code="GRD002",
        name="unrecorded-fault-handler",
        summary="fault-handling code must record or re-raise caught errors",
        rationale=(
            "Fault-injection and rerouting code exists to make failures "
            "observable; an exception handler there that neither re-raises "
            "nor records through the guardrail/telemetry API silently "
            "repairs exactly the signal chaos campaigns and recovery SLOs "
            "measure."
        ),
        checker=_check_grd002,
        scopes=("src/repro/",),
    ),
)
