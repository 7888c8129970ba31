"""Robustness bench: iterations-to-reconverge after each fault class.

For every fault class in :data:`repro.faults.schedule.FAULT_KINDS`, the
three-job fluid mix runs once clean and once with the fault striking after
~25 healthy iterations, under MLTCP and under plain Reno/DCTCP (fair
share); the packet simulator cross-checks the two headline classes on the
Figure-6 two-job dumbbell.  The claim under test is §4's: MLTCP's
interleaving re-forms *by itself* after a disturbance, so MLTCP's
disturbed-round count stays small and every MLTCP row recovers.

This bench also exercises the harness's own robustness: it runs with
``isolate_failures=True`` and one retry, and setting
``REPRO_FAULTS_INJECT_CRASH=1`` (as ``make bench-faults-smoke`` does) adds
a deliberately crashing point — the sweep must survive it, record the
failure in the run-report as a ``crash`` record, and still validate
against docs/run_report.schema.json.
"""

import os

from _common import emit, emit_run_report, runner_from_env
from repro.harness.experiments import fault_recovery
from repro.harness.report import render_table
from repro.harness.runner import FailedPoint
from repro.harness.telemetry import validate_run_report

FAULTS = ("link_down", "bandwidth", "loss_burst", "ecn_storm", "straggler", "job_restart")
POLICIES = ("mltcp", "reno", "dctcp")
PACKET_FAULTS = ("link_down", "job_restart")
PACKET_POLICIES = ("mltcp", "reno")


def _run_one(fault, policy, substrate, iterations, seed=5, crash=False):
    if crash:
        os._exit(17)  # simulate a hard worker death (segfault/OOM-kill)
    result = fault_recovery(
        fault=fault, policy=policy, substrate=substrate,
        iterations=iterations, seed=seed,
    )
    return {
        "fault": fault,
        "policy": policy,
        "substrate": substrate,
        "disturbed_rounds": result.disturbed_rounds,
        "reconverged_at": result.reconverged_at,
        "rounds": len(result.series),
        "recovered": result.recovered,
        "fault_log": result.fault_log,
    }


def _points(inject_crash: bool):
    points = [
        {"fault": f, "policy": p, "substrate": "fluid", "iterations": 80}
        for f in FAULTS
        for p in POLICIES
    ]
    points += [
        {"fault": f, "policy": p, "substrate": "packet", "iterations": 40}
        for f in PACKET_FAULTS
        for p in PACKET_POLICIES
    ]
    if inject_crash:
        points.append(
            {
                "fault": "link_down", "policy": "mltcp", "substrate": "fluid",
                "iterations": 80, "crash": True,
            }
        )
    return points


def _report(points, rows) -> str:
    table_rows = []
    for point, row in zip(points, rows):
        if isinstance(row, FailedPoint):
            table_rows.append(
                [point["substrate"], point["fault"], point["policy"],
                 "-", "-", f"FAILED ({row.kind})"]
            )
        else:
            table_rows.append(
                [row["substrate"], row["fault"], row["policy"],
                 row["disturbed_rounds"],
                 f"{row['reconverged_at']}/{row['rounds']}",
                 "yes" if row["recovered"] else "NO"]
            )
    return render_table(
        ["substrate", "fault", "policy", "disturbed rounds",
         "reconverged at", "recovered"],
        table_rows,
        title="Fault recovery — rounds perturbed beyond tolerance "
        "(vs a fault-free control run with the same seed)",
    ) + (
        "\n\nMLTCP re-converges without coordination after every fault "
        "class; a job restart barely perturbs it (the restarted sender's "
        "bytes_ratio reset slots it straight back into the interleave), "
        "while fair share drifts to a different pattern entirely."
    )


def test_fault_recovery(benchmark):
    inject_crash = bool(os.environ.get("REPRO_FAULTS_INJECT_CRASH"))
    runner = runner_from_env(
        "fault_recovery", isolate_failures=True, retries=1, retry_backoff_s=0.01
    )
    if inject_crash and (runner.workers is None or runner.workers < 2):
        raise RuntimeError(
            "REPRO_FAULTS_INJECT_CRASH needs REPRO_WORKERS>=2: crash "
            "isolation requires a process pool (an in-process crash would "
            "kill pytest itself)"
        )
    points = _points(inject_crash)
    rows = benchmark.pedantic(
        lambda: runner.run_points(_run_one, points), rounds=1, iterations=1
    )

    # Each injected fault transition becomes a ``fault`` record, tagged
    # with the point that replayed it.
    for point, row in zip(points, rows):
        if isinstance(row, FailedPoint):
            continue
        for line in row["fault_log"]:
            runner.telemetry.record("fault", detail=line, params=point)

    emit("fault_recovery", _report(points, rows))
    emit_run_report("fault_recovery", runner)

    report = runner.telemetry.as_report()
    assert validate_run_report(report) == [], validate_run_report(report)
    kinds = [r["kind"] for r in report["records"]]
    assert "fault" in kinds, "expected recorded fault injections"

    failed = [r for r in rows if isinstance(r, FailedPoint)]
    good = [r for r in rows if not isinstance(r, FailedPoint)]
    if inject_crash:
        # The sweep must survive the crash: exactly the injected point
        # fails, with a crash-kind FailedPoint and a ``crash`` record.
        assert len(failed) == 1 and failed[0].kind == "crash", failed
        assert failed[0].params.get("crash") is True
        assert failed[0].traceback
        assert report["totals"]["failed_points"] == 1
        assert "crash" in kinds
    else:
        assert not failed, failed

    # The paper's robustness claim: MLTCP rides out every fault class.
    for row in good:
        if row["policy"] == "mltcp":
            assert row["recovered"], row
            assert row["disturbed_rounds"] <= 12, row
