"""Command-line interface: regenerate any paper figure from the terminal.

Usage::

    python -m repro list
    python -m repro run fig2
    python -m repro run fig4 --fast
    python -m repro run all --fast --workers 4
    python -m repro run fig6 --no-cache --report fig6.run.json
    python -m repro validate-report bench_reports/ablation_noise.run.json
    python -m repro bench-compare bench_reports/perf_baseline.json
    python -m repro bench-compare current.json --baseline bench_reports/perf_baseline.json
    python -m repro lint src
    python -m repro lint --list-rules
    python -m repro faults --fast --workers 4 --report faults.run.json
    python -m repro faults --schedule my_faults.json --substrate packet
    python -m repro guards my_run.run.json
    python -m repro guards --run --policy raise --substrate both
    python -m repro cross-rack --racks 4 --oversub 2 --substrate both
    python -m repro serve --epochs 20 --rate 0.8 --journal svc.journal
    python -m repro serve --resume --journal svc.journal --report svc.run.json
    python -m repro serve --query svc.journal
    python -m repro docs-check docs

Each figure runner prints the same rows/series its benchmark emits.  The
``--fast`` flag shrinks iteration counts for a quick smoke run (shapes
still hold, numbers are noisier).

Figures execute through the experiment runner
(:mod:`repro.harness.runner`): ``--workers N`` renders independent figures
on a process pool, results are cached under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro``) so an unchanged figure re-prints instantly, and
``--no-cache`` forces recomputation.  ``--report PATH`` writes the JSON
run-report; ``validate-report`` checks such a report against the schema in
``docs/run_report.schema.json`` (see docs/HARNESS.md).

``faults`` sweeps the fault-recovery matrix (every fault class x policy x
substrate, see docs/FAULTS.md) with the runner's resilience features on:
per-point timeouts, retries and crash isolation.  Finished points land in
the result cache as they complete, so re-running the same command re-runs
only the points that failed or never ran.

``bench-compare`` checks a pytest-benchmark report against a committed
performance baseline (docs/PERFORMANCE.md) and fails on regressions beyond
a threshold — the perf-gate behind ``make bench-perf``.

``guards`` is the runtime-guardrail front end (docs/ROBUSTNESS.md): given a
run-report it summarizes the report's ``violation``, ``degradation`` and
``watchdog`` records and fails (exit 1) when invariant violations were
recorded, or exits 2 when the report does not validate; with ``--run`` it
executes a guarded fault-recovery experiment itself, attaching a
:class:`repro.guards.GuardRail` to both substrates — the smoke target
behind ``make guards-smoke``.

``cross-rack`` compares MLTCP against vanilla congestion control on a
parameterized multi-rack fat tree (racks, spines, oversubscription,
placement policy; docs/TOPOLOGIES.md) in either or both substrates, and
writes each link's utilization into the run-report as a
``link_utilization`` record.

``serve`` runs the long-lived scheduling service (docs/SERVICE.md): an
open-loop arrival model admits jobs into the live array-backed fluid
engine under admission control and a watchdog-supervised stepper; with
``--journal`` every completed epoch is committed to a write-ahead journal
so a killed daemon resumes (``--resume``) to bit-identical state, and
``--query`` summarizes a journal without running.

``docs-check`` executes the python code fences of the markdown docs
(the gate behind ``make docs-check``) so documented examples can't rot.

``lint`` runs the repo's AST-based determinism/unit-safety analyzer
(docs/LINTING.md).  All subcommands share one error contract
(:mod:`repro.cliutil`): exit 0 on success, 1 when the checked input has
violations (lint findings, schema violations), 2 when the command could
not run (unreadable file, bad arguments); diagnostics go to stderr.

Each subcommand is one row of :data:`SUBCOMMANDS`; numbers are typed
options, so an out-of-range value exits 2 before any work runs
(docs/HARNESS.md, "Adding a subcommand").
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

import numpy as np

from .harness.experiments import (
    RECOVERY_FAULTS,
    RECOVERY_POLICIES,
    fairness_competition_share,
    fairness_loss_response,
    fig1_traffic_patterns,
    fig2_schedules,
    fig3_aggressiveness,
    fig4_six_jobs,
    fig5_loss_function,
    fig6_packet_two_jobs,
    noise_error_bound,
)
from .cliutil import EXIT_OK, fail, report_violations
from .docscheck import run_docs_check
from .harness.cache import ResultCache
from .harness.report import render_table, sparkline
from .harness.runner import ExperimentRunner
from .harness.telemetry import RUN_REPORT_SCHEMA, RunTelemetry, validate_run_report
from .lint.cli import run_lint
from .verify.cli import run_verify

__all__ = ["main", "FIGURES", "SUBCOMMANDS"]


def _fig1(fast: bool) -> str:
    traces = fig1_traffic_patterns(duration=3.0 if fast else 5.0)
    lines = ["Figure 1 — per-job offered load (Gbps)"]
    for name, (_times, demand) in traces.items():
        lines.append(f"  {name}: {sparkline(demand, width=70)}")
    return "\n".join(lines)


def _fig2(fast: bool) -> str:
    result = fig2_schedules(iterations=30 if fast else 60)
    names = ["J1", "J2", "J3", "J4"]
    return render_table(
        ["schedule"] + names,
        [
            ["optimal"] + [result.optimal_times[n] for n in names],
            ["srpt (early)"] + [result.srpt_times[n] for n in names],
            ["mltcp (converged)"] + [result.mltcp_times[n] for n in names],
        ],
        title=(
            "Figure 2 — iteration times (s); MLTCP gap vs optimal "
            f"{100 * result.mltcp_gap_vs_optimal:.2f}%, converged at "
            f"iteration {result.mltcp_converged_at}"
        ),
    )


def _fig3(fast: bool) -> str:
    series = fig3_aggressiveness(iterations=25 if fast else 40)
    lines = ["Figure 3 — mean iteration time per round (s)"]
    for key, values in series.items():
        lines.append(
            f"  {key}: {sparkline(values, width=60)}  final "
            f"{values[-5:].mean():.3f}"
        )
    return "\n".join(lines)


def _fig4(fast: bool) -> str:
    result = fig4_six_jobs(iterations=120 if fast else 400)
    return render_table(
        ["percentile", "Reno (s)", "MLTCP (s)"],
        [
            [f"p{q}", float(np.percentile(result.reno_times, q)),
             float(np.percentile(result.mltcp_times, q))]
            for q in (50, 90, 99)
        ],
        title=(
            "Figure 4 — six-job iteration-time CDF; tail speedup "
            f"{result.tail_speedup_p99:.2f}x (paper: 1.59x)"
        ),
    )


def _fig5(fast: bool) -> str:
    curves = fig5_loss_function(samples=121 if fast else 361)
    idx = int(np.argmin(curves["loss"]))
    lines = [
        "Figure 5(c) — interleaving loss over one period",
        f"  Loss:  {sparkline(curves['loss'], width=70)}",
        f"  Shift: {sparkline(curves['shift'], width=70)}",
        f"  minimum at delta = {curves['delta'][idx]:.3f} s (T/2 = "
        f"{curves['delta'][-1] / 2:.3f} s)",
    ]
    return "\n".join(lines)


def _fig6(fast: bool) -> str:
    result = fig6_packet_two_jobs(iterations=25 if fast else 40)
    lines = ["Figure 6 — packet-level two-job sliding (iteration times, ms)"]
    for name, times in result.iteration_times.items():
        lines.append(f"  {name}: {sparkline(times * 1000, width=60)}")
    lines.append(
        f"  ideal {1000 * result.ideal_iteration_time:.1f} ms, converged at "
        f"iteration {result.converged_at}, final "
        f"{1000 * result.final_mean:.1f} ms"
    )
    return "\n".join(lines)


def _noise(fast: bool) -> str:
    rows = noise_error_bound(
        sigmas=(0.002, 0.01) if fast else (0.001, 0.002, 0.005, 0.01, 0.02),
        iterations=1500 if fast else 4000,
    )
    return render_table(
        ["sigma", "measured std", "2*sigma*(1+I/S) bound"],
        [[r["sigma"], r["measured_std"], r["theory_bound"]] for r in rows],
        title="§4 — approximation error under noise",
    )


def _fairness(fast: bool) -> str:
    share = fairness_competition_share(
        loss_probs=(0.0,),
        horizon=0.5 if fast else 2.0,
        seeds=(1,) if fast else (1, 2, 3),
    )
    mathis = fairness_loss_response(
        loss_probs=(0.001, 0.004) if fast else (0.0005, 0.001, 0.002, 0.004),
        transfer_bytes=8_000_000 if fast else 20_000_000,
    )
    return "\n\n".join(
        [
            render_table(
                ["loss", "MLTCP Mbps", "Reno Mbps", "share"],
                [
                    [r["loss_prob"], r["mltcp_mbps"], r["reno_mbps"], r["share_ratio"]]
                    for r in share
                ],
                title="§5 — competition share (saturated MLTCP vs Reno)",
            ),
            render_table(
                ["loss", "Reno Mbps", "Mathis model"],
                [
                    [r["loss_prob"], r["reno_mbps"], r["mathis_prediction_mbps"]]
                    for r in mathis
                ],
                title="§5 — Reno vs the 1/sqrt(p) law",
            ),
        ]
    )


FIGURES: dict[str, tuple[str, Callable[[bool], str]]] = {
    "fig1": ("traffic patterns of the four jobs", _fig1),
    "fig2": ("centralized vs SRPT vs MLTCP", _fig2),
    "fig3": ("aggressiveness functions F1-F6", _fig3),
    "fig4": ("six jobs: Reno vs MLTCP CDF", _fig4),
    "fig5": ("the interleaving loss function", _fig5),
    "fig6": ("packet-level two-job sliding", _fig6),
    "noise": ("§4 approximation-error bound", _noise),
    "fairness": ("§5 fairness vs legacy TCP", _fairness),
}


def _render_figure(figure: str, fast: bool) -> str:
    """Render one figure to its report text (a runner point; top-level so
    ``--workers`` can execute figures on pool workers)."""
    _description, fn = FIGURES[figure]
    return fn(fast)


class UsageError(Exception):
    """A bad command-line argument; :func:`main` reports it through
    :func:`repro.cliutil.fail` (exit 2).

    The typed options raise it while argparse parses (argparse catches only
    its own errors), and the checks several handlers share raise it from
    inside the handler.
    """


class _Number(argparse.Action):
    """Store a numeric option's value, checked against the option's type.

    The subclasses are the types: ``parse`` converts the text, ``positive``
    picks ``> 0`` over ``>= 0``, and every value must be finite.  A value
    outside the type is a :class:`UsageError` naming the option, raised
    while argparse parses, so before any work runs.
    """

    parse: Callable[[str], float]
    positive: bool
    noun: str

    def __call__(self, parser, namespace, text, option_string=None) -> None:
        try:
            value = self.parse(text)
            valid = math.isfinite(value) and (value > 0 or not self.positive and value == 0)
        except (ValueError, OverflowError):  # not a number, or an int past float
            valid = False
        if not valid:
            raise UsageError(
                f"argument {option_string}: must be {self.noun}, got {text}"
            )
        setattr(namespace, self.dest, value)


class PositiveInt(_Number):
    parse, positive, noun = int, True, "a positive integer"


class NonNegativeInt(_Number):
    parse, positive, noun = int, False, "a non-negative integer"


class PositiveFloat(_Number):
    parse, positive, noun = float, True, "a finite positive number"


class NonNegativeFloat(_Number):
    parse, positive, noun = float, False, "a finite non-negative number"


def _runner(args, **resilience) -> ExperimentRunner:
    """The experiment runner behind ``run``, ``faults``, ``cross-rack`` and
    ``chaos``: ``--workers``, ``--no-cache`` and the run's telemetry."""
    return ExperimentRunner(
        name="cli." + args.command.replace("-", "_"),
        workers=args.workers,
        cache=None if args.no_cache else ResultCache(),
        **resilience,
    )


def _write_report(args, telemetry: RunTelemetry) -> None:
    """Write the JSON run-report when ``--report`` asked for one."""
    if args.report:
        path = telemetry.write(args.report)
        print(f"run-report written to {path}")


def _finish(args, telemetry: RunTelemetry) -> int:
    """The runner commands' epilogue: the report, then the summary line."""
    _write_report(args, telemetry)
    print(telemetry.summary_line())
    return EXIT_OK


def _read_json(path: str) -> Any:
    return json.loads(Path(path).read_text())


def _load(what: str, path: str, read: Callable[[str], Any] = _read_json) -> Any:
    """``read(path)``; input it cannot read or parse is a usage error."""
    try:
        return read(path)
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise UsageError(f"cannot read {what} {path}: {error}") from None


def _substrates(args) -> list[str]:
    """The simulators ``--substrate`` selects."""
    return ["fluid", "packet"] if args.substrate == "both" else [args.substrate]


def _check_known(what: str, names: list[str], known: Iterable[str]) -> None:
    """Reject any of ``names`` outside ``known``, listing the valid ones."""
    valid = sorted(known)
    unknown = [name for name in names if name not in valid]
    if unknown:
        raise UsageError(f"unknown {what} {unknown}; valid: {valid}")


def _check_recovery(args, faults: list[str], policies: list[str]) -> None:
    """Reject fault classes that the recovery experiment cannot build, and
    policies that no requested substrate runs
    (:data:`~repro.harness.experiments.RECOVERY_FAULTS`, ``RECOVERY_POLICIES``)."""
    _check_known("fault class(es)", faults, RECOVERY_FAULTS)
    _check_known(
        "policy(ies)",
        policies,
        {name for s in _substrates(args) for name in RECOVERY_POLICIES[s]},
    )


def _runner_options(parser: argparse.ArgumentParser) -> None:
    """The options of every runner command: its size, how it executes
    (:func:`_runner`) and what it writes (:func:`_finish`)."""
    parser.add_argument(
        "--fast", action="store_true", help="smaller iteration counts"
    )
    parser.add_argument(
        "--workers", action=PositiveInt, default=None, metavar="N",
        help="run independent points on an N-process pool "
        "(default: sequential)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute even when a cached result exists "
        "(cache dir: $REPRO_CACHE_DIR, default ~/.cache/repro)",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="also write the JSON run-report (wall time, event counts, "
        "cache hits and the command's records) to PATH",
    )


def _list_command(args) -> int:
    """Execute ``repro list`` (also what a bare ``repro`` does)."""
    for name, (description, _fn) in FIGURES.items():
        print(f"  {name:9} {description}")
    return EXIT_OK


def _run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("figure", choices=[*FIGURES, "all"])
    _runner_options(parser)


def _run_command(args) -> int:
    """Execute ``repro run`` through the cached/parallel experiment runner."""
    targets = list(FIGURES) if args.figure == "all" else [args.figure]
    runner = _runner(args)
    outputs = runner.run_points(
        _render_figure, [{"figure": name, "fast": args.fast} for name in targets]
    )
    for text in outputs:
        print(text)
        print()
    return _finish(args, runner.telemetry)


def _recovery_options(parser: argparse.ArgumentParser) -> None:
    """Where ``faults`` and ``guards --run`` run the fault-recovery
    experiment, from which base seed."""
    parser.add_argument(
        "--substrate", choices=["fluid", "packet", "both"], default="both",
        help="which simulator(s) to run faults in (default: both)",
    )
    parser.add_argument(
        "--seed", action=NonNegativeInt, default=5, help="base seed (default 5)"
    )


def _faults_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--classes",
        default=",".join(RECOVERY_FAULTS),
        metavar="A,B,...",
        help="comma-separated fault classes to sweep (default: all six)",
    )
    parser.add_argument(
        "--policies",
        default="mltcp,reno,dctcp",
        metavar="A,B,...",
        help="comma-separated policies to compare (default: mltcp,reno,dctcp)",
    )
    _recovery_options(parser)
    parser.add_argument(
        "--schedule",
        metavar="PATH",
        default=None,
        help="replay a custom FaultSchedule JSON file instead of the "
        "built-in per-class schedules (times are absolute seconds)",
    )
    _runner_options(parser)
    parser.add_argument(
        "--timeout", action=PositiveFloat, default=None, metavar="S",
        help="per-point wall-clock budget in seconds (default: none)",
    )
    parser.add_argument(
        "--retries", action=NonNegativeInt, default=1, metavar="N",
        help="re-run a failed point up to N times with backoff (default 1)",
    )


def _faults_command(args) -> int:
    """Execute ``repro faults``: the recovery matrix with resilience on."""
    from .faults.schedule import FaultSchedule
    from .harness.experiments import check_recovery_schedule, fault_recovery
    from .harness.runner import FailedPoint

    substrates = _substrates(args)
    schedule_json: Optional[str] = None
    if args.schedule is not None:
        try:
            schedule_json = Path(args.schedule).read_text()
            schedule = FaultSchedule.from_json(Path(args.schedule))  # fail fast
        except (OSError, ValueError) as error:
            return fail(f"cannot use fault schedule {args.schedule}: {error}")
        # Job and link names differ per substrate: check each before any
        # point runs, so a typo exits 2 instead of failing every point.
        for substrate in substrates:
            try:
                check_recovery_schedule(schedule, substrate)
            except ValueError as error:
                return fail(
                    f"cannot use fault schedule {args.schedule} on the "
                    f"{substrate} substrate: {error}"
                )

    faults = ["custom"] if schedule_json else args.classes.split(",")
    policies = args.policies.split(",")
    _check_recovery(args, [f for f in faults if f != "custom"], policies)

    points = [
        {
            "fault": fault,
            "policy": policy,
            "substrate": substrate,
            "iterations": (40 if args.fast else 80)
            if substrate == "fluid"
            else (30 if args.fast else 60),
            "seed": args.seed,
            **({"schedule_json": schedule_json} if schedule_json else {}),
        }
        for substrate in substrates
        for fault in faults
        for policy in policies
    ]

    runner = _runner(
        args, timeout=args.timeout, retries=args.retries, isolate_failures=True
    )
    results = runner.run_points(fault_recovery, points)

    rows = []
    failed = 0
    for point, result in zip(points, results):
        if isinstance(result, FailedPoint):
            failed += 1
            rows.append(
                [point["substrate"], point["fault"], point["policy"],
                 "-", "-", f"FAILED ({result.kind})"]
            )
            continue
        # Every injected fault the point replayed becomes a ``fault``
        # record, tagged with the point that saw it.
        for line in result.fault_log:
            runner.telemetry.record("fault", detail=line, params=point)
        rows.append(
            [result.substrate, result.fault, result.policy,
             result.disturbed_rounds,
             f"{result.reconverged_at}/{len(result.series)}",
             "yes" if result.recovered else "NO"]
        )
    print(
        render_table(
            ["substrate", "fault", "policy", "disturbed rounds",
             "reconverged at", "recovered"],
            rows,
            title="Fault recovery — rounds perturbed beyond tolerance "
            "(vs a fault-free control run)",
        )
    )
    if failed:
        retry = (
            "--no-cache kept no finished point, so re-running recomputes "
            "them all."
            if args.no_cache
            else "Re-run the same command to retry only those: finished "
            "points come back from the result cache."
        )
        print(
            f"\n{failed} point(s) failed; details in the run-report's "
            f"crash, error, timeout and retry records. {retry}"
        )
    return _finish(args, runner.telemetry)


def _guards_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "report_file", nargs="?", default=None, metavar="REPORT",
        help="run-report (.run.json) whose guard records to summarize",
    )
    parser.add_argument(
        "--run", action="store_true",
        help="run fault_recovery with a guardrail attached instead of "
        "reading a report",
    )
    parser.add_argument(
        "--policy", choices=["record", "raise"], default="record",
        help="guard policy for --run: record violations, or raise at the "
        "first one (default: record)",
    )
    parser.add_argument(
        "--cc", default="mltcp", metavar="POLICY",
        help="congestion-control policy under test (default: mltcp)",
    )
    parser.add_argument(
        "--fault", default="job_restart", metavar="CLASS",
        help="fault class to inject during --run (default: job_restart)",
    )
    _recovery_options(parser)
    parser.add_argument(
        "--iterations", action=PositiveInt, default=None, metavar="N",
        help="training iterations per run (default: 40 fluid / 30 packet)",
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write the JSON run-report (guard records) to PATH",
    )


def _guards_command(args) -> int:
    """Execute ``repro guards``: summarize or produce guardrail telemetry.

    Exit codes follow :mod:`repro.cliutil`: 0 when no invariant violation
    was found, 1 when violations exist (in the report or during ``--run``),
    2 when the input cannot be read or does not validate against the
    run-report schema.
    """
    from .harness.report import render_guard_summary

    if args.run:
        return _guards_run_command(args)
    if args.report_file is None:
        return fail("give a run-report to summarize, or --run to produce one")
    report = _load("report", args.report_file)
    errors = validate_run_report(report)
    if errors:
        return fail(
            f"{args.report_file} is not a valid run-report "
            f"({len(errors)} schema error(s)); first: {errors[0]}"
        )
    print(render_guard_summary(report["records"]))
    violations = [r for r in report["records"] if r["kind"] == "violation"]
    if violations:
        return report_violations(
            f"{args.report_file}: {len(violations)} invariant violation(s)",
            [v["detail"] for v in violations],
        )
    return EXIT_OK


def _guards_run_command(args) -> int:
    """Execute ``repro guards --run``: guarded fault-recovery end to end.

    Attaches one :class:`~repro.guards.GuardRail` per substrate to a
    :func:`~repro.harness.experiments.fault_recovery` run, then records
    everything the rail caught: fallback-engaged reports (MLTCP degrading
    to vanilla CC) are ``degradation`` records — expected, graceful —,
    everything else is a genuine invariant ``violation`` and fails the
    command.
    """
    from .guards import GuardRail, GuardViolationError
    from .harness.experiments import fault_recovery
    from .harness.report import render_guard_summary

    _check_recovery(args, [args.fault], [args.cc])
    substrates = _substrates(args)
    telemetry = RunTelemetry("cli.guards")
    rows = []
    hard_failures: list[str] = []
    for substrate in substrates:
        rail = GuardRail(args.policy)
        iterations = (
            args.iterations
            if args.iterations is not None
            else (40 if substrate == "fluid" else 30)
        )
        episodes = 0
        try:
            result = fault_recovery(
                args.fault,
                args.cc,
                substrate,
                iterations=iterations,
                seed=args.seed,
                guards=rail,
            )
        except GuardViolationError as error:
            # The raising violation is already recorded in the rail; the
            # run itself could not finish.
            hard_failures.append(f"{substrate}: {error}")
            recovered = "ABORTED"
        else:
            recovered = "yes" if result.recovered else "NO"
            episodes = len(result.degradation_episodes)
        for violation in rail.violations:
            telemetry.record(
                "degradation" if violation.fallback_engaged else "violation",
                detail=violation.render(),
                guard=violation.guard,
                subject=violation.subject,
                time=violation.time,
                params={"substrate": substrate, "fault": args.fault},
            )
        genuine = sum(1 for v in rail.violations if not v.fallback_engaged)
        rows.append([substrate, args.fault, genuine, episodes, recovered])
    print(
        render_table(
            ["substrate", "fault", "violations", "degradations", "recovered"],
            rows,
            title=(
                f"repro guards --run (cc={args.cc}, policy={args.policy}, "
                f"seed={args.seed})"
            ),
        )
    )
    print(render_guard_summary(telemetry.records))
    _write_report(args, telemetry)
    problems = hard_failures + [
        r["detail"] for r in telemetry.records if r["kind"] == "violation"
    ]
    if problems:
        return report_violations(
            f"guards run: {len(problems)} invariant violation(s)", problems
        )
    return EXIT_OK


def _validate_report_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("report", help="path to a .run.json run-report")
    parser.add_argument(
        "--schema",
        default=None,
        help="path to a JSON schema file (default: the built-in schema, "
        "mirrored at docs/run_report.schema.json)",
    )


def _validate_report_command(args) -> int:
    """Validate a JSON run-report.

    Exit codes follow :mod:`repro.cliutil`: 0 when the report conforms,
    1 on schema violations, 2 when the report/schema cannot be read.
    """
    report = _load("report", args.report)
    schema = RUN_REPORT_SCHEMA
    if args.schema is not None:
        schema = _load("schema", args.schema)
    errors = validate_run_report(report, schema)
    if errors:
        return report_violations(
            f"{args.report}: {len(errors)} schema violation(s)", errors
        )
    totals = report.get("totals", {})
    print(
        f"{args.report}: valid run-report "
        f"({totals.get('points', '?')} points, "
        f"{totals.get('cache_hits', '?')} cache hits)"
    )
    return EXIT_OK


#: Default comparison point for ``repro bench-compare``: the pre-optimization
#: seed numbers (bench_reports/perf_seed.json).  ``make bench-perf`` passes
#: ``--baseline bench_reports/perf_baseline.json`` to gate fresh runs against
#: the current optimized tree instead.
DEFAULT_BENCH_BASELINE = "bench_reports/perf_seed.json"


def _bench_compare_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "current",
        help="benchmark report to check: raw --benchmark-json output or a "
        "compact baseline file",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BENCH_BASELINE,
        metavar="PATH",
        help=f"baseline to compare against (default: {DEFAULT_BENCH_BASELINE}, "
        "the pre-optimization seed numbers)",
    )
    parser.add_argument(
        "--threshold",
        action=NonNegativeFloat,
        default=0.15,
        metavar="FRACTION",
        help="allowed slowdown before the gate fails (default 0.15 = 15%%)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="GLOB",
        help="gate only the baseline benchmarks matching this glob (e.g. "
        "'test_scale_*' for `make bench-scale-smoke`); unmatched baseline "
        "entries are neither compared nor reported missing",
    )
    parser.add_argument(
        "--save",
        metavar="PATH",
        default=None,
        help="also write the current stats as a compact baseline to PATH "
        "(how bench_reports/perf_baseline.json is refreshed)",
    )
    parser.add_argument(
        "--note",
        default=None,
        help="free-form provenance note embedded in the --save output",
    )


def _bench_compare_command(args) -> int:
    """Execute ``repro bench-compare``: perf gate against a baseline file.

    Exit codes follow :mod:`repro.cliutil`: 0 when every benchmark is within
    the regression threshold, 1 when one regressed (or vanished), 2 when a
    report cannot be read.
    """
    from .harness.perfbench import compare, load_report, write_baseline

    current = _load("benchmark report", args.current, load_report)
    baseline = _load("baseline", args.baseline, load_report)

    if args.select:
        import fnmatch

        baseline = {
            name: stat
            for name, stat in baseline.items()
            if fnmatch.fnmatchcase(name, args.select)
        }
        if not baseline:
            return fail(
                f"--select {args.select!r} matches no benchmark in "
                f"{args.baseline}"
            )

    comparison = compare(current, baseline, threshold=args.threshold)
    print(
        render_table(
            ["benchmark", "baseline min (ms)", "current min (ms)", "speedup"],
            [
                [
                    row.name,
                    row.baseline_min * 1e3,
                    row.current_min * 1e3,
                    f"{row.speedup:.2f}x",
                ]
                for row in comparison.rows
            ],
            title=(
                f"bench-compare — {args.current} vs {args.baseline} "
                f"(regression threshold {args.threshold:.0%})"
            ),
        )
    )
    if args.save:
        path = write_baseline(args.save, current, note=args.note)
        print(f"compact baseline written to {path}")
    if not comparison.ok:
        details = [
            f"{row.name}: {row.current_min * 1e3:.3f} ms vs baseline "
            f"{row.baseline_min * 1e3:.3f} ms ({row.speedup:.2f}x)"
            for row in comparison.regressions
        ] + [
            f"{name}: in baseline but missing from the current report"
            for name in comparison.missing
        ]
        return report_violations(
            f"{args.current}: {len(details)} benchmark gate violation(s)", details
        )
    return EXIT_OK


def _compat_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", help="path to a scenario saved with "
                        "repro.workloads.save_scenario")
    parser.add_argument("--capacity", action=PositiveFloat, default=50.0,
                        help="bottleneck capacity in Gbps (default 50)")


def _compat_command(args) -> int:
    """Check a saved scenario (JSON) against the §4 compatibility precondition."""
    from .schedulers.compatibility import best_compatibility
    from .workloads.traceio import load_scenario

    jobs = [j.with_jitter(0.0) for j in _load("scenario", args.scenario, load_scenario)]
    score, schedule = best_compatibility(jobs, args.capacity)
    print(
        render_table(
            ["job", "ideal iteration (s)", "optimized offset (s)"],
            [
                [j.name, j.ideal_iteration_time, schedule.offset_of(j.name)]
                for j in jobs
            ],
            title=f"{args.scenario} on a {args.capacity:g} Gbps bottleneck",
        )
    )
    if score >= 1.0 - 1e-9:
        verdict = (
            "interleaved schedule exists - the paper's convergence "
            "guarantee applies"
        )
    else:
        verdict = (
            "no zero-contention interleave: MLTCP converges to the "
            "least-contended configuration instead"
        )
    print(f"\nbest compatibility score: {score:.4f} ({verdict})")
    return EXIT_OK


def _fabric_options(parser: argparse.ArgumentParser) -> None:
    """The fat tree ``cross-rack`` and ``chaos`` run on, and the
    simulator(s) they run it in (docs/TOPOLOGIES.md)."""
    parser.add_argument(
        "--racks", action=PositiveInt, default=4, metavar="N",
        help="number of racks (default 4)",
    )
    parser.add_argument(
        "--hosts-per-rack", action=PositiveInt, default=4, metavar="N",
        help="hosts per rack (default 4)",
    )
    parser.add_argument(
        "--spines", action=PositiveInt, default=2, metavar="N",
        help="number of spine switches (default 2)",
    )
    parser.add_argument(
        "--oversub", action=PositiveFloat, default=2.0, metavar="RATIO",
        help="oversubscription ratio: host bandwidth into a rack over its "
        "uplink bandwidth (default 2.0)",
    )
    parser.add_argument(
        "--placement", default="spread", metavar="POLICY",
        help="job placement policy: packed, spread or random "
        "(default: spread)",
    )
    parser.add_argument(
        "--ecmp-seed", type=int, default=2,
        help="seed of the deterministic ECMP spine choice (default 2)",
    )
    parser.add_argument(
        "--substrate", choices=["fluid", "packet", "both"], default="fluid",
        help="which simulator(s) to run (default: fluid; packet is slower)",
    )


def _fabric(args) -> dict:
    """The fabric's runner-point fields, after checking ``--placement``."""
    from .workloads.placement import PLACEMENT_POLICIES

    if args.placement not in PLACEMENT_POLICIES:
        raise UsageError(
            f"unknown placement policy {args.placement!r}; "
            f"valid: {list(PLACEMENT_POLICIES)}"
        )
    return {
        "n_racks": args.racks,
        "hosts_per_rack": args.hosts_per_rack,
        "n_spines": args.spines,
        "oversubscription": args.oversub,
        "placement": args.placement,
    }


def _cross_rack_options(parser: argparse.ArgumentParser) -> None:
    _fabric_options(parser)
    parser.add_argument(
        "--iterations", action=PositiveInt, default=None, metavar="N",
        help="training iterations per job (default: 40, or 20 with --fast)",
    )
    parser.add_argument(
        "--seed", action=NonNegativeInt, default=2, help="base seed (default 2)"
    )
    _runner_options(parser)


def _cross_rack_command(args) -> int:
    """Execute ``repro cross-rack``: MLTCP vs vanilla CC on a fat tree.

    Runs :func:`~repro.harness.experiments.cross_rack_interleaving` for
    each requested substrate through the experiment runner, prints the
    per-link contention analysis and converged iteration times, and
    records every fabric link's utilization (both policies) into the
    run-report as ``link_utilization`` records (docs/TOPOLOGIES.md).
    """
    from .harness.experiments import cross_rack_interleaving

    iterations = args.iterations
    if iterations is None:
        iterations = 20 if args.fast else 40
    fabric = _fabric(args)
    points = [
        {
            "substrate": substrate,
            **fabric,
            "iterations": iterations,
            "seed": args.seed,
            "ecmp_seed": args.ecmp_seed,
        }
        for substrate in _substrates(args)
    ]
    runner = _runner(args)
    try:
        results = runner.run_points(cross_rack_interleaving, points)
    except ValueError as error:
        return fail(str(error))

    for point, result in zip(points, results):
        fabric_links = set(result.spec.fabric_links())
        print(
            render_table(
                ["uplink", "competitors", "mean (Gbps)", "peak", "overloaded"],
                [
                    [
                        c.link,
                        ",".join(c.competitors) if c.competitors else "-",
                        c.mean_load_gbps,
                        c.peak_load_gbps,
                        f"{c.overload_fraction:.0%}",
                    ]
                    for c in result.contention
                    if c.competitors
                ],
                title=(
                    f"cross-rack [{result.substrate}] — "
                    f"{result.spec.n_racks} racks x "
                    f"{result.spec.hosts_per_rack} hosts, "
                    f"{result.spec.n_spines} spines, "
                    f"{result.spec.oversubscription:g}:1 oversubscribed "
                    f"({result.spec.uplink_gbps:g} Gbps/uplink), "
                    f"placement={result.placement_policy}"
                ),
            )
        )
        print(
            f"  {result.cross_rack_flows}/{len(result.placements)} flows "
            f"cross racks; ideal iteration "
            f"{1000 * result.ideal_iteration_time:.1f} ms"
        )
        print(
            f"  final mean iteration: mltcp "
            f"{1000 * result.final_mean('mltcp'):.1f} ms, vanilla "
            f"{1000 * result.final_mean('fair'):.1f} ms "
            f"(speedup {result.speedup:.2f}x)"
        )
        print()
        for policy in ("mltcp", "fair"):
            utilization = result.link_utilization[policy]
            for link in sorted(fabric_links):
                runner.telemetry.record(
                    "link_utilization",
                    link=link,
                    utilization=utilization[link],
                    capacity_gbps=result.spec.uplink_gbps,
                    policy=policy,
                    substrate=result.substrate,
                    params=point,
                )
    return _finish(args, runner.telemetry)


def _chaos_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--campaigns", action=PositiveInt, default=3, metavar="N",
        help="independently seeded campaigns to run (default 3)",
    )
    _fabric_options(parser)
    parser.add_argument(
        "--iterations", action=PositiveInt, default=None, metavar="N",
        help="training iterations per job (default: 48, or 32 with --fast)",
    )
    parser.add_argument(
        "--seed", action=NonNegativeInt, default=2,
        help="base seed; campaigns derive theirs from it (default 2)",
    )
    parser.add_argument(
        "--guard-policy", choices=["record", "raise", "off"], default="record",
        help="guardrail policy for the faulted runs; off = no guardrail "
        "(default: record)",
    )
    _runner_options(parser)


def _chaos_command(args) -> int:
    """Execute ``repro chaos``: seeded chaos campaigns with recovery SLOs.

    Runs :func:`~repro.harness.experiments.chaos_recovery` through the
    experiment runner, prints a per-fault campaign summary (time to
    reroute, time to re-interleave, goodput lost for MLTCP vs fair
    share), and records everything into the run-report: each scheduled
    fault as a ``fault`` record, every guard report and MLTCP degradation
    episode (annotated with its coinciding fault window) as a
    ``violation`` / ``degradation`` record, and the per-fault SLOs as
    ``recovery`` records.
    """
    from .harness.experiments import chaos_recovery

    iterations = args.iterations
    if iterations is None:
        iterations = 32 if args.fast else 48
    fabric = _fabric(args)
    points = [
        {
            "substrate": substrate,
            "campaigns": args.campaigns,
            **fabric,
            "iterations": iterations,
            "seed": args.seed,
            "ecmp_seed": args.ecmp_seed,
            "guard_policy": None if args.guard_policy == "off" else args.guard_policy,
        }
        for substrate in _substrates(args)
    ]
    runner = _runner(args)
    try:
        all_results = runner.run_points(chaos_recovery, points)
    except ValueError as error:
        return fail(str(error))

    for point, campaigns in zip(points, all_results):
        rows = []
        reinterleaved = {"mltcp": 0, "fair": 0}
        n_faults = 0
        for result in campaigns:
            # The two policies replay the identical schedule, so their SLO
            # tuples align fault-by-fault.
            for mltcp_slo, fair_slo in zip(
                result.slos["mltcp"], result.slos["fair"]
            ):
                n_faults += 1
                reinterleaved["mltcp"] += int(mltcp_slo.reinterleaved)
                reinterleaved["fair"] += int(fair_slo.reinterleaved)
                rows.append(
                    [
                        result.campaign_index,
                        mltcp_slo.fault,
                        f"{1000 * mltcp_slo.time_to_reroute:.1f}",
                        _format_tti(mltcp_slo.time_to_reinterleave),
                        _format_tti(fair_slo.time_to_reinterleave),
                        f"{mltcp_slo.goodput_lost_bits / 1e6:.0f}",
                        f"{fair_slo.goodput_lost_bits / 1e6:.0f}",
                    ]
                )
            for description in result.fault_descriptions:
                runner.telemetry.record(
                    "fault", detail=description, params=point
                )
            for policy in ("mltcp", "fair"):
                for slo in result.slos[policy]:
                    runner.telemetry.record(
                        "recovery",
                        **slo.as_record(),
                        policy=policy,
                        substrate=result.substrate,
                        campaign=result.campaign_index,
                        params=point,
                    )
                for violation in result.violations[policy]:
                    context = violation.get("fault_context")
                    runner.telemetry.record(
                        "violation",
                        detail=violation["message"]
                        + (f" (during: {context})" if context else ""),
                        guard=violation["guard"],
                        subject=violation["subject"],
                        time=violation["time"],
                        params=point,
                    )
            for episode in result.degradation_episodes:
                context = episode.get("fault_context")
                runner.telemetry.record(
                    "degradation",
                    detail=str(episode.get("reason", "degraded to vanilla CC"))
                    + (f" (during: {context})" if context else ""),
                    subject=str(episode.get("flow")),
                    time=float(episode.get("start", 0.0)),
                    params=point,
                )
        print(
            render_table(
                [
                    "campaign",
                    "fault",
                    "reroute (ms)",
                    "mltcp re-interleave",
                    "fair re-interleave",
                    "mltcp lost (Mb)",
                    "fair lost (Mb)",
                ],
                rows,
                title=(
                    f"chaos [{point['substrate']}] — "
                    f"{args.campaigns} campaign(s) on "
                    f"{args.racks} racks x {args.hosts_per_rack} hosts, "
                    f"{args.spines} spines, {args.oversub:g}:1 "
                    f"oversubscribed, seed {args.seed}"
                ),
            )
        )
        print(
            f"  re-interleaved after mltcp {reinterleaved['mltcp']}/{n_faults}"
            f", fair {reinterleaved['fair']}/{n_faults} fault(s)"
        )
        print()
    return _finish(args, runner.telemetry)


def _format_tti(time_to_reinterleave: Optional[float]) -> str:
    """Render a time-to-reinterleave: milliseconds, or "never"."""
    if time_to_reinterleave is None:
        return "never"
    return f"{1000 * time_to_reinterleave:.1f} ms"


def _serve_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--epochs", action=PositiveInt, default=30, metavar="N",
        help="service epochs to run (default 30)",
    )
    parser.add_argument(
        "--epoch-s", action=PositiveFloat, default=1.0, metavar="SECONDS",
        help="simulated seconds per epoch (default 1.0)",
    )
    parser.add_argument(
        "--horizon", action=PositiveFloat, default=None, metavar="SECONDS",
        help="arrival-process horizon (default: epochs * epoch-s)",
    )
    parser.add_argument(
        "--rate", action=PositiveFloat, default=0.6, metavar="PER_S",
        help="mean Poisson arrival rate in jobs/s (default 0.6)",
    )
    parser.add_argument(
        "--mean-iterations", action=PositiveFloat, default=12.0, metavar="N",
        help="mean geometric job lifetime in iterations (default 12)",
    )
    parser.add_argument(
        "--diurnal-amplitude", action=NonNegativeFloat, default=0.0,
        metavar="A",
        help="diurnal rate modulation amplitude in [0, 1) (default 0)",
    )
    parser.add_argument(
        "--diurnal-period", action=PositiveFloat, default=60.0,
        metavar="SECONDS",
        help="diurnal modulation period (default 60)",
    )
    parser.add_argument(
        "--flash", action="append", metavar="TIME:SIZE",
        help="inject a flash crowd of SIZE fine-tune jobs at TIME "
        "(repeatable)",
    )
    parser.add_argument(
        "--template", choices=["gpt2-fast", "gpt2", "mix"],
        default="gpt2-fast",
        help="job template(s) arrivals are drawn from (default: gpt2-fast)",
    )
    parser.add_argument(
        "--capacity", action=PositiveFloat, default=50.0, metavar="GBPS",
        help="bottleneck capacity in Gbps (default 50)",
    )
    parser.add_argument(
        "--cc", choices=["mltcp", "fair"], default="mltcp",
        help="congestion-control policy for the live engine "
        "(default: mltcp)",
    )
    parser.add_argument(
        "--seed", action=NonNegativeInt, default=0,
        help="base seed; the arrival stream derives seed+1 (default 0)",
    )
    parser.add_argument(
        "--max-running", action=PositiveInt, default=8, metavar="N",
        help="admission-control concurrency limit (default 8)",
    )
    parser.add_argument(
        "--queue-limit", action=PositiveInt, default=16, metavar="N",
        help="bounded pending-queue depth (default 16)",
    )
    parser.add_argument(
        "--shed-policy", choices=["reject", "defer", "degrade"],
        default="defer",
        help="load-shedding policy past the limits (default: defer)",
    )
    parser.add_argument(
        "--snapshot-every", action=PositiveInt, default=5, metavar="N",
        help="emit a service snapshot record every N epochs (default 5)",
    )
    parser.add_argument(
        "--churn-limit", action=PositiveInt, default=4, metavar="N",
        help="per-epoch churn above which the engine clamps to vanilla "
        "CC for a few epochs (default 4)",
    )
    parser.add_argument(
        "--journal", metavar="PATH", default=None,
        help="write-ahead journal path; enables crash recovery and "
        "--resume",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from the journal at --journal instead of starting "
        "fresh",
    )
    parser.add_argument(
        "--crash-at-epoch", action=PositiveInt, default=None, metavar="N",
        help="inject one stepper crash mid-epoch N (recovery drill)",
    )
    parser.add_argument(
        "--faults", metavar="PATH", default=None,
        help="JSON fault schedule applied to the bottleneck "
        "(repro faults export format)",
    )
    parser.add_argument(
        "--snapshots", metavar="PATH", default=None,
        help="also append each service snapshot to PATH as JSON lines",
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write the JSON run-report (includes the service "
        "snapshot records) to PATH",
    )
    parser.add_argument(
        "--query", metavar="PATH", default=None,
        help="summarize an existing journal at PATH and exit (no run)",
    )


def _serve_command(args) -> int:
    """Execute ``repro serve``: the long-lived churn daemon (docs/SERVICE.md).

    Admits jobs from a seeded open-loop arrival model into the live
    array-backed fluid engine, under admission control, a watchdog-
    supervised stepper and (optionally) a write-ahead journal.  With
    ``--query`` it summarizes an existing journal instead of running.
    """
    from .faults.schedule import FaultSchedule
    from .service import (
        ChurnDaemon,
        JournalError,
        ServiceConfig,
        ServiceCrash,
        ServiceJournal,
    )
    from .service.daemon import query_journal
    from .workloads import ArrivalModel, FlashCrowd
    from .workloads.presets import gpt2_fast_job, gpt2_job

    if args.query:
        try:
            summary = query_journal(args.query)
        except JournalError as error:
            return fail(f"cannot query journal {args.query}: {error.detail}")
        except OSError as error:
            return fail(f"cannot query journal {args.query}: {error}")
        print(json.dumps(summary, indent=2))
        return EXIT_OK

    horizon = args.horizon
    if horizon is None:
        horizon = args.epochs * args.epoch_s
    flash_crowds = []
    for spec in args.flash or ():
        try:
            at, size = spec.split(":", 1)
            flash_crowds.append(FlashCrowd(time=float(at), size=int(size)))
        except ValueError as error:
            return fail(f"bad --flash {spec!r} (want TIME:SIZE): {error}")
    if args.template == "gpt2":
        templates = (gpt2_job("tpl"),)
    elif args.template == "mix":
        templates = (gpt2_fast_job("tplA"), gpt2_job("tplB"))
    else:
        templates = (gpt2_fast_job("tpl"),)
    schedule = None
    if args.faults:
        try:
            schedule = FaultSchedule.from_json(args.faults)
        except (OSError, ValueError, KeyError) as error:
            return fail(f"cannot load fault schedule {args.faults}: {error}")
    try:
        model = ArrivalModel(
            rate_per_s=args.rate,
            horizon_s=horizon,
            mean_iterations=args.mean_iterations,
            diurnal_amplitude=args.diurnal_amplitude,
            diurnal_period_s=args.diurnal_period,
            flash_crowds=tuple(flash_crowds),
        )
        config = ServiceConfig(
            arrival=model,
            templates=templates,
            capacity_gbps=args.capacity,
            cc=args.cc,
            seed=args.seed,
            epoch_s=args.epoch_s,
            epochs=args.epochs,
            max_running=args.max_running,
            queue_limit=args.queue_limit,
            shed_policy=args.shed_policy,
            snapshot_every=args.snapshot_every,
            churn_limit=args.churn_limit,
            faults=schedule,
        )
    except ValueError as error:
        return fail(str(error))
    telemetry = RunTelemetry("cli.serve")
    try:
        # The daemon only ever restores the latest committed epoch, so keep
        # a bounded number of states in RAM; the file keeps the history.
        journal = (
            ServiceJournal(args.journal, retain=2) if args.journal else None
        )
        daemon = ChurnDaemon(
            config,
            journal=journal,
            telemetry=telemetry,
            snapshot_path=args.snapshots,
            resume=args.resume,
            crash_at_epoch=args.crash_at_epoch,
        )
        result = daemon.run()
    except JournalError as error:
        verb = "resume from" if args.resume else "use"
        return fail(f"cannot {verb} journal {args.journal}: {error.detail}")
    except ValueError as error:
        return fail(str(error))
    except ServiceCrash as crash:
        return fail(f"service did not survive: {crash}")

    counters = result["counters"]
    print(
        render_table(
            ["admitted", "deferred", "shed", "degraded", "departed",
             "recoveries", "still running", "queue"],
            [[
                counters["admitted"], counters["deferred"], counters["shed"],
                counters["degraded"], counters["departed"],
                counters["recoveries"], len(result["per_job"]["running"]),
                result["queue_depth"],
            ]],
            title=(
                f"serve [{config.cc}] — {result['epochs_run']} epoch(s) x "
                f"{config.epoch_s:g}s, {args.rate:g} arrivals/s, "
                f"{config.shed_policy} shedding, seed {config.seed}"
            ),
        )
    )
    slo = result["slo_attainment"]
    print(
        f"  slo attainment: "
        + (f"{100 * slo:.0f}%" if slo is not None else "n/a")
        + f" of {counters['departed']} departed job(s); "
        f"{result['snapshots']} snapshot(s); "
        f"per-job fingerprint {daemon.per_job_fingerprint()[:16]}"
    )
    _write_report(args, telemetry)
    return EXIT_OK


def _docs_check_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=["docs"],
        help="markdown files or directories to check (default: docs)",
    )


def _lint_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select", metavar="A,B,...", default=None,
        help="run only these rule codes (comma-separated)",
    )
    parser.add_argument(
        "--ignore", metavar="A,B,...", default=None,
        help="skip these rule codes (comma-separated)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--json", action="store_true", dest="json_output",
        help="emit findings as a JSON array on stdout "
        "(path/line/col/code/message); same exit codes",
    )


def _verify_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "properties", nargs="*", metavar="PROPERTY",
        help="property names to check (default: the whole catalog; "
        "see --list)",
    )
    parser.add_argument(
        "--backend", default="auto", choices=("auto", "exhaustive", "z3"),
        help="solver backend: 'exhaustive' (hermetic grid search), 'z3' "
        "(requires the [verify] extra), or 'auto' (z3 when available and "
        "applicable, else exhaustive)",
    )
    parser.add_argument(
        "--timeout", action=PositiveFloat, default=30.0, metavar="SECONDS",
        help="per-query solver budget; an expired budget yields verdict "
        "'unknown' (default 30)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="use each property's reduced smoke-test grid (make "
        "verify-smoke)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="additionally require a fresh committed artifact for every "
        "selected property",
    )
    parser.add_argument(
        "--write", action="store_true",
        help="(re)write certificate/counterexample artifacts for verdicts "
        "that match expectations",
    )
    parser.add_argument(
        "--write-dir", metavar="DIR", default=None,
        help="read/write artifacts in DIR instead of the committed "
        "src/repro/verify/certificates/",
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write a JSON run-report with a verification record per "
        "property",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_properties",
        help="print the property catalog and exit",
    )


@dataclass(frozen=True)
class Subcommand:
    """One ``repro`` subcommand: its name, the function that declares its
    options, the handler :func:`main` calls with the parsed namespace
    (returning a :mod:`repro.cliutil` exit code), and its help line."""

    name: str
    options: Callable[[argparse.ArgumentParser], None]
    handler: Callable[[argparse.Namespace], int]
    help: str


#: Every subcommand, in ``repro --help`` order.  Adding one is adding a row
#: here (docs/HARNESS.md, "Adding a subcommand"); README.md's CLI table
#: lists the same names (tests/test_cli.py checks it).
SUBCOMMANDS: tuple[Subcommand, ...] = (
    Subcommand("list", lambda parser: None, _list_command,
               "list available figures"),
    Subcommand("run", _run_options, _run_command, "run one figure (or 'all')"),
    Subcommand("compat", _compat_options, _compat_command,
               "check a saved scenario (JSON) for the §4 compatibility "
               "precondition"),
    Subcommand("faults", _faults_options, _faults_command,
               "fault-recovery matrix: inject faults, measure reconvergence "
               "(crash-isolated, resumes from the result cache; see "
               "docs/FAULTS.md)"),
    Subcommand("lint", _lint_options, run_lint,
               "run the AST-based determinism/unit-safety analyzer "
               "(rule catalog: docs/LINTING.md)"),
    Subcommand("verify", _verify_options, run_verify,
               "bounded model checking of Algorithm 1: prove or refute the "
               "named properties and audit committed certificates "
               "(docs/VERIFICATION.md)"),
    Subcommand("bench-compare", _bench_compare_options, _bench_compare_command,
               "compare a pytest-benchmark report against a committed perf "
               "baseline; fails on regressions (docs/PERFORMANCE.md)"),
    Subcommand("guards", _guards_options, _guards_command,
               "summarize a run-report's guard records, or --run a guarded "
               "fault-recovery experiment (docs/ROBUSTNESS.md)"),
    Subcommand("cross-rack", _cross_rack_options, _cross_rack_command,
               "MLTCP vs vanilla CC on a multi-rack oversubscribed fat tree, "
               "with per-link contention telemetry (docs/TOPOLOGIES.md)"),
    Subcommand("chaos", _chaos_options, _chaos_command,
               "seeded chaos campaigns on the fabric: failure-aware ECMP "
               "rerouting + recovery SLOs (docs/FAULTS.md)"),
    Subcommand("serve", _serve_options, _serve_command,
               "long-lived churn daemon: open-loop arrivals, admission "
               "control, watchdog-supervised stepping, journaled recovery "
               "(docs/SERVICE.md)"),
    Subcommand("docs-check", _docs_check_options,
               lambda args: run_docs_check(args.paths),
               "execute the python code fences in markdown docs so examples "
               "can't rot (the gate behind `make docs-check`)"),
    Subcommand("validate-report", _validate_report_options,
               _validate_report_command,
               "check a JSON run-report against the run-report schema"),
)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, one subparser per :data:`SUBCOMMANDS` row."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from the MLTCP paper (HotNets '24).",
    )
    parser.set_defaults(handler=_list_command)  # a bare `repro` lists
    subparsers = parser.add_subparsers(dest="command")
    for command in SUBCOMMANDS:
        subparser = subparsers.add_parser(command.name, help=command.help)
        command.options(subparser)
        subparser.set_defaults(handler=command.handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except UsageError as error:
        return fail(str(error))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
