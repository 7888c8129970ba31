"""CLI glue for ``repro verify``: run queries, check/regenerate artifacts.

Exit codes follow :mod:`repro.cliutil`: ``0`` every selected property
reached its expected verdict (and, with ``--check``, every committed
artifact exists and is fresh), ``1`` a property disagreed / timed out /
an artifact is stale or missing, ``2`` usage error (unknown property or
backend).  A requested-but-missing z3 backend *skips* with
:data:`repro.verify.solver.Z3_INSTALL_HINT` rather than failing, so CI
without the optional ``[verify]`` extra stays green.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Optional, Sequence

from ..cliutil import EXIT_OK, fail, report_violations
from .certificates import (
    CERTIFICATE_DIR,
    artifact_filename,
    build_artifact,
    load_artifact,
    staleness_errors,
    write_artifact,
)
from .properties import PROPERTIES, property_by_name
from .solver import Verdict, solve

__all__ = ["run_verify"]


def _selected(names: Sequence[str]) -> list:
    if not names:
        return [PROPERTIES[name] for name in sorted(PROPERTIES)]
    return [property_by_name(name) for name in names]


def _artifact_path(prop, directory: Optional[Path]) -> Path:
    base = Path(directory) if directory is not None else CERTIFICATE_DIR
    return base / artifact_filename(prop)


def _render(verdict: Verdict, expected: str) -> str:
    status = "ok" if verdict.verdict == expected else (
        "skipped" if verdict.verdict == "skipped" else "FAIL"
    )
    line = (
        f"{verdict.property:38} v{verdict.version}  "
        f"{verdict.verdict:8} (expected {expected:5}) "
        f"[{verdict.backend}, {verdict.states_checked} states, "
        f"{verdict.elapsed_s:.2f} s]  {status}"
    )
    if verdict.reason:
        line += f"\n    {verdict.reason}"
    return line


def run_verify(args: argparse.Namespace) -> int:
    """Execute the ``repro verify`` subcommand on its parsed namespace
    (options as ``repro verify --help`` lists them); returns an exit code."""
    if args.list_properties:
        for name in sorted(PROPERTIES):
            prop = PROPERTIES[name]
            print(f"{prop.name:38} v{prop.version}  expects {prop.expected:5}  {prop.summary}")
        return EXIT_OK

    try:
        selected = _selected(args.properties)
    except KeyError as error:
        return fail(str(error.args[0]))

    write_dir = Path(args.write_dir) if args.write_dir else None
    problems: list[str] = []
    verdicts: list[Verdict] = []
    for prop in selected:
        verdict = solve(
            prop, backend=args.backend, fast=args.fast, timeout_s=args.timeout
        )
        verdicts.append(verdict)
        print(_render(verdict, prop.expected))
        if verdict.verdict == "skipped":
            continue  # optional backend absent/not applicable: clear, not fatal
        if verdict.verdict != prop.expected:
            problems.append(
                f"{prop.name}: got {verdict.verdict!r}, expected "
                f"{prop.expected!r}"
                + (f" ({verdict.reason})" if verdict.reason else "")
            )
            continue
        if args.write:
            path = write_artifact(build_artifact(verdict), write_dir)
            print(f"    wrote {path}")

    # Committed-artifact audit: staleness always, existence under --check.
    for prop in selected:
        path = _artifact_path(prop, write_dir)
        if not path.exists():
            if args.check and not args.write:
                problems.append(
                    f"{prop.name}: no committed artifact at {path} "
                    f"(regenerate with `python -m repro verify --write`)"
                )
            continue
        try:
            artifact = load_artifact(path)
        except (ValueError, OSError) as error:
            problems.append(f"{prop.name}: unreadable artifact {path}: {error}")
            continue
        problems.extend(staleness_errors(artifact))

    if args.report is not None:
        _write_report(args.report, verdicts)
        print(f"verification report written to {args.report}")

    if problems:
        return report_violations(
            f"repro verify: {len(problems)} problem(s) across "
            f"{len(selected)} property(ies)",
            problems,
        )
    print(
        f"repro verify: {len(selected)} property(ies) at their expected "
        f"verdicts"
    )
    return EXIT_OK


def _write_report(path: str, verdicts: Sequence[Verdict]) -> None:
    """Write a run-report with one ``verification`` record per verdict."""
    from ..harness.telemetry import RunTelemetry

    telemetry = RunTelemetry("verify")
    for verdict in verdicts:
        telemetry.record(
            "verification",
            property=verdict.property,
            version=verdict.version,
            verdict=verdict.verdict,
            backend=verdict.backend,
            states_checked=verdict.states_checked,
            elapsed_s=verdict.elapsed_s,
            params=verdict.params,
            reason=verdict.reason,
        )
    telemetry.write(Path(path))
