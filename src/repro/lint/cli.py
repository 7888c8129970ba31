"""CLI glue for ``repro lint``: path expansion, rule selection, reporting.

Exit codes follow the repo-wide convention in :mod:`repro.cliutil`:
``0`` clean, ``1`` findings, ``2`` usage/IO error (unreadable path,
syntax error, unknown rule code).  ``--json`` swaps the human report for
a machine-readable findings array on stdout (same exit codes), for
editor integrations and CI annotators.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Iterable, Optional, Sequence

from ..cliutil import EXIT_OK, EXIT_VIOLATIONS, fail, report_violations
from .engine import Finding, Rule, lint_source

__all__ = ["lint_paths", "run_lint"]


def _expand(paths: Sequence[str]) -> list[Path]:
    """Files to lint: each path is a ``.py`` file or a directory to walk."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def lint_paths(
    paths: Sequence[str], rules: Optional[Iterable[Rule]] = None
) -> list[Finding]:
    """Lint every Python file under ``paths``; returns all findings.

    Library entry point (tests use it directly).  Raises ``OSError`` for
    unreadable paths and ``SyntaxError`` for unparseable files — the CLI
    wrapper maps both to exit code 2.
    """
    from . import ALL_RULES

    active = tuple(rules) if rules is not None else ALL_RULES
    findings: list[Finding] = []
    for file in _expand(paths):
        source = file.read_text(encoding="utf-8")
        findings.extend(lint_source(source, str(file), active))
    return sorted(findings)


def _select_rules(
    select: Optional[str], ignore: Optional[str]
) -> tuple[Rule, ...]:
    from . import ALL_RULES, rule_by_code

    rules: tuple[Rule, ...] = ALL_RULES
    if select:
        rules = tuple(rule_by_code(code) for code in select.split(","))
    if ignore:
        ignored = {code.strip().upper() for code in ignore.split(",")}
        for code in ignored:
            rule_by_code(code)  # KeyError -> usage error upstream
        rules = tuple(rule for rule in rules if rule.code not in ignored)
    return rules


def findings_as_json(findings: Sequence[Finding]) -> str:
    """The ``--json`` payload: a list of ``{path, line, col, code, message}``."""
    return json.dumps(
        [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "code": f.code,
                "message": f.message,
            }
            for f in findings
        ],
        indent=2,
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute the ``repro lint`` subcommand on its parsed namespace
    (``paths``, ``select``, ``ignore``, ``list_rules``, ``json_output``);
    returns a process exit code."""
    from . import ALL_RULES

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.name:28} {rule.summary}")
        return EXIT_OK

    try:
        rules = _select_rules(args.select, args.ignore)
    except KeyError as error:
        return fail(f"unknown lint rule code: {error.args[0]!r}")

    try:
        findings = lint_paths(args.paths, rules)
    except OSError as error:
        return fail(f"cannot read {getattr(error, 'filename', None) or args.paths}: {error}")
    except SyntaxError as error:
        return fail(f"cannot parse {error.filename}:{error.lineno}: {error.msg}")

    checked = len(_expand(args.paths))
    if args.json_output:
        # Machine consumers parse stdout; stderr stays silent and the
        # exit code alone signals clean vs. findings.
        print(findings_as_json(findings))
        return EXIT_VIOLATIONS if findings else EXIT_OK
    if findings:
        return report_violations(
            f"repro lint: {len(findings)} finding(s) in {checked} file(s)",
            (finding.render() for finding in findings),
        )
    print(f"repro lint: {checked} file(s) checked, no findings")
    return EXIT_OK
