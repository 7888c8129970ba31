"""Core machinery of the ``repro lint`` analyzer.

The engine is deliberately small: a :class:`Rule` couples a stable code
(``DET001``, ``FLT001``, ...) to a checker function that walks a parsed
module and yields :class:`Finding` objects.  Everything repo-specific —
which calls break determinism, which identifier suffixes denote units —
lives in the rule modules (:mod:`repro.lint.determinism`,
:mod:`repro.lint.floats`, :mod:`repro.lint.units`,
:mod:`repro.lint.hygiene`), so adding a rule rarely touches this file
(see docs/LINTING.md, "Adding a rule").

Two cross-statement facilities live here because every rule shares them:

* **Suppressions** — a finding is dropped when the line that produced it
  carries a ``repro-lint`` comment disabling its code (comma-separate
  several codes, or use ``all``), or when any line in the file carries
  the ``-file`` variant.  Directives are parsed from *comment tokens
  only* (via :mod:`tokenize`), so directive-shaped text inside
  docstrings or string literals is inert.  A directive that suppresses
  nothing is itself a finding (``SUP001``), mirroring ruff's
  unused-``noqa`` check.
* **Alias dataflow** — :meth:`LintContext.resolve` expands an
  identifier through the module's imports and simple assignments
  (``from random import shuffle``; ``r = random``), so checkers match
  on canonical dotted names instead of surface spelling.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Callable, Iterable, Iterator, Optional

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "SUPPRESSION_RULE",
    "lint_source",
    "dotted_name",
    "terminal_name",
]

#: Directive syntax, matched inside comment tokens only: the marker
#: ``repro-lint:`` followed by ``disable=CODE1,CODE2`` (line scope),
#: ``disable-file=CODE`` (file scope), or ``disable=all``.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\s]+|all)"
)

#: How many alias-chain hops :meth:`LintContext.resolve` follows before
#: giving up — a guard against pathological ``a = b; b = a`` cycles.
_ALIAS_DEPTH = 8


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """``path:line:col: CODE message`` — the one-line report format."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _collect_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the canonical dotted names they alias.

    Sources of aliasing, in module order:

    * ``import numpy as np`` → ``np: numpy``
    * ``from random import shuffle as sh`` → ``sh: random.shuffle``
      (relative and star imports carry no canonical target and are
      skipped)
    * ``r = random`` / ``gen = np.random`` → the target name maps to the
      RHS Name/Attribute chain; chains resolve transitively at lookup.

    The map is flow-insensitive: a rebind later in the module wins for
    the whole file, which errs toward *more* findings — the right bias
    for a determinism linter.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname is not None:
                    aliases[name.asname] = name.name
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative import: no absolute canonical name
            for name in node.names:
                if name.name == "*":
                    continue
                bound = name.asname or name.name
                aliases[bound] = f"{node.module}.{name.name}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            if value is None:
                continue
            chain = dotted_name(value)
            if chain is None:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id != chain:
                    aliases[target.id] = chain
    return aliases


@dataclass
class LintContext:
    """Everything a checker may consult about the module under analysis."""

    path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    _aliases: Optional[dict[str, str]] = field(default=None, repr=False)

    @property
    def posix_path(self) -> str:
        """The path with forward slashes, for scope matching."""
        return str(PurePosixPath(self.path.replace("\\", "/")))

    @property
    def aliases(self) -> dict[str, str]:
        """Local-name → canonical dotted-name map, built lazily once."""
        if self._aliases is None:
            self._aliases = _collect_aliases(self.tree)
        return self._aliases

    def resolve(self, name: Optional[str]) -> Optional[str]:
        """Expand ``name`` through the module's alias map.

        Longest-prefix, transitive: with ``r = random`` the name
        ``r.seed`` resolves to ``random.seed``; with ``from numpy import
        random as nr``, ``nr.normal`` resolves to ``numpy.random.normal``.
        Unknown names come back unchanged, so callers can resolve
        unconditionally before matching.
        """
        if not name:
            return name
        # Each alias is applied at most once: this terminates cycles
        # (``a = b; b = a``) and self-similar bindings (``from datetime
        # import datetime`` maps ``datetime`` to ``datetime.datetime``,
        # which must not re-expand).
        applied: set[str] = set()
        for _ in range(_ALIAS_DEPTH):
            parts = name.split(".")
            for cut in range(len(parts), 0, -1):
                prefix = ".".join(parts[:cut])
                target = self.aliases.get(prefix)
                if target is not None and target != prefix and prefix not in applied:
                    applied.add(prefix)
                    name = ".".join([target, *parts[cut:]])
                    break
            else:
                return name
        return name


Checker = Callable[[LintContext], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """A lint rule: stable code, human summary, scope, and checker.

    ``scopes`` restricts the rule to files whose posix path contains any of
    the given substrings (empty tuple = every file); ``exempt`` then carves
    out allowlisted layers (e.g. the harness may read wall clocks).
    """

    code: str
    name: str
    summary: str
    rationale: str
    checker: Checker
    scopes: tuple[str, ...] = ()
    exempt: tuple[str, ...] = ()

    def applies_to(self, posix_path: str) -> bool:
        """Whether this rule runs on the file at ``posix_path``."""
        if any(marker in posix_path for marker in self.exempt):
            return False
        if not self.scopes:
            return True
        return any(marker in posix_path for marker in self.scopes)


@dataclass
class _Directive:
    """One parsed suppression comment, with per-code usage tracking."""

    line: int
    col: int
    file_wide: bool
    codes: frozenset[str]
    used: set[str] = field(default_factory=set)

    def match(self, finding: Finding) -> bool:
        """Whether this directive silences ``finding``; records usage."""
        if "*" in self.codes:
            self.used.add("*")
            return True
        if finding.code in self.codes:
            self.used.add(finding.code)
            return True
        return False


def _parse_directives(source: str) -> list[_Directive]:
    """Extract suppression directives from the module's comment tokens.

    Tokenizing (rather than regex-scanning raw lines) keeps
    directive-shaped text inside docstrings and string literals from
    registering as real suppressions.
    """
    directives: list[_Directive] = []
    reader = io.StringIO(source).readline
    try:
        tokens = list(tokenize.generate_tokens(reader))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return directives  # ast.parse accepted it; keep what we have
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        kind, spec = match.group(1), match.group(2)
        codes = (
            frozenset({"*"})
            if spec.strip().lower() == "all"
            else frozenset(c.strip().upper() for c in spec.split(",") if c.strip())
        )
        if not codes:
            continue
        directives.append(
            _Directive(
                line=token.start[0],
                col=token.start[1] + match.start(),
                file_wide=(kind == "disable-file"),
                codes=codes,
            )
        )
    return directives


def _suppressed(finding: Finding, directives: list[_Directive]) -> bool:
    """Whether any directive silences ``finding`` (marks all that do)."""
    hit = False
    for directive in directives:
        if directive.file_wide or directive.line == finding.line:
            if directive.match(finding):
                hit = True
    return hit


def _unused_directive_findings(
    path: str, directives: list[_Directive], active_codes: set[str]
) -> Iterator[Finding]:
    """SUP001 findings for directive codes that silenced nothing.

    Only codes whose rule actually ran are flagged: under a narrowed
    ``--select`` a directive for an unselected rule cannot prove itself
    useful, so it gets the benefit of the doubt.
    """
    for directive in directives:
        where = "in this file" if directive.file_wide else "on this line"
        for code in sorted(directive.codes):
            if code in directive.used:
                continue
            if code == "*":
                label = "``disable=all`` matched no finding"
            elif code in active_codes:
                label = f"no {code} finding {where}"
            else:
                continue
            yield Finding(
                path=path,
                line=directive.line,
                col=directive.col,
                code="SUP001",
                message=(
                    f"unused suppression: {label}; remove the stale "
                    f"directive so real regressions are not silenced"
                ),
            )


def _sup001_suppressed(finding: Finding, directives: list[_Directive]) -> bool:
    """Whether a SUP001 staleness report is explicitly opted out.

    Only a literal ``SUP001`` in a directive counts — ``disable=all``
    must not self-excuse its own staleness report, or every stale
    blanket suppression would hide itself.
    """
    hit = False
    for directive in directives:
        if directive.file_wide or directive.line == finding.line:
            if "SUP001" in directive.codes:
                directive.used.add("SUP001")
                hit = True
    return hit


#: SUP001 is implemented by the engine itself (it needs the post-filter
#: usage ledger), so its checker is empty; registering the Rule makes the
#: code selectable, documentable, and itself suppressible like any other.
SUPPRESSION_RULE = Rule(
    code="SUP001",
    name="unused-suppression",
    summary="suppression directive that silences no finding",
    rationale=(
        "A stale ``disable=`` comment outlives the finding it excused and "
        "then silently swallows the next real violation on that line; "
        "flagging it keeps the suppression inventory honest (the same "
        "contract as ruff's unused-``noqa``)."
    ),
    checker=lambda ctx: (),
)


def lint_source(
    source: str, path: str, rules: Iterable[Rule]
) -> list[Finding]:
    """Run every applicable rule over one module's source.

    Raises :class:`SyntaxError` when the source does not parse — callers
    decide whether that is a usage error (CLI) or a test expectation.
    """
    rules = list(rules)
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    ctx = LintContext(path=path, source=source, tree=tree, lines=lines)
    directives = _parse_directives(source)
    findings: list[Finding] = []
    active_codes: set[str] = set()
    sup_active = False
    for rule in rules:
        if not rule.applies_to(ctx.posix_path):
            continue
        active_codes.add(rule.code)
        if rule.code == SUPPRESSION_RULE.code:
            sup_active = True
        for finding in rule.checker(ctx):
            if not _suppressed(finding, directives):
                findings.append(finding)
    if sup_active:
        for finding in _unused_directive_findings(path, directives, active_codes):
            if not _sup001_suppressed(finding, directives):
                findings.append(finding)
    return sorted(findings)


# -- shared AST helpers used by several rule modules ------------------------


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.expr) -> str | None:
    """The last identifier of a Name/Attribute chain (``c`` of ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None
