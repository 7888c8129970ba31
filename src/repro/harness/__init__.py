"""Experiment harness: figure runners, packet lab, execution layer, reports.

The pipeline, end to end:

1. :mod:`~repro.harness.experiments` — one callable per paper figure/claim.
2. :mod:`~repro.harness.packetlab` — assembles packet-level runs (jobs on a
   dumbbell with per-job congestion control) for the figures that need them.
3. :mod:`~repro.harness.sweep` — crosses an experiment with seeds and a
   parameter grid (:func:`repeat_with_seeds` / :func:`sweep`).
4. :mod:`~repro.harness.runner` — executes the resulting points: optional
   process-pool parallelism (``workers=N``), content-addressed result
   caching (:mod:`~repro.harness.cache`), per-point instrumentation
   (:mod:`~repro.harness.telemetry`, emitted as a JSON run-report), and
   failure handling — per-point timeouts, retries with backoff, crash
   isolation (:class:`~repro.harness.runner.FailedPoint`) and checkpointed
   resume (:mod:`~repro.harness.checkpoint`).
5. :mod:`~repro.harness.report` — renders rows/series as terminal text.

docs/HARNESS.md is the operator-facing guide to steps 3–4; docs/FAULTS.md
covers the fault-injection and recovery experiments.
"""

from .experiments import (
    ChaosResult,
    FaultRecoveryResult,
    Fig2Result,
    Fig4Result,
    Fig6Result,
    chaos_recovery,
    fairness_loss_response,
    fault_recovery,
    fig1_traffic_patterns,
    fig2_schedules,
    fig3_aggressiveness,
    fig4_six_jobs,
    fig5_loss_function,
    fig6_packet_two_jobs,
    noise_error_bound,
)
from .packetlab import (
    PacketLabResult,
    mltcp_config_for,
    run_packet_jobs,
    throughput_timeline,
)
from .cache import ResultCache, default_cache_dir, point_key
from .checkpoint import RunCheckpoint
from .runner import ExperimentRunner, FailedPoint, PointTimeoutError
from .sweep import SeedSummary, repeat_with_seeds, sweep
from .telemetry import (
    PointRecord,
    RECORD_KINDS,
    REPORT_SCHEMA_VERSION,
    RUN_REPORT_SCHEMA,
    RunTelemetry,
    validate_run_report,
)
from .report import format_seconds, render_series, render_table, sparkline

__all__ = [
    "fig1_traffic_patterns",
    "fig2_schedules",
    "Fig2Result",
    "fig3_aggressiveness",
    "fig4_six_jobs",
    "Fig4Result",
    "fig5_loss_function",
    "fig6_packet_two_jobs",
    "Fig6Result",
    "noise_error_bound",
    "fairness_loss_response",
    "fault_recovery",
    "FaultRecoveryResult",
    "chaos_recovery",
    "ChaosResult",
    "PacketLabResult",
    "run_packet_jobs",
    "mltcp_config_for",
    "throughput_timeline",
    "render_table",
    "render_series",
    "sparkline",
    "format_seconds",
    "SeedSummary",
    "repeat_with_seeds",
    "sweep",
    "ExperimentRunner",
    "FailedPoint",
    "PointTimeoutError",
    "RunCheckpoint",
    "ResultCache",
    "point_key",
    "default_cache_dir",
    "RunTelemetry",
    "PointRecord",
    "RUN_REPORT_SCHEMA",
    "REPORT_SCHEMA_VERSION",
    "RECORD_KINDS",
    "validate_run_report",
]
