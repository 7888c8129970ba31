"""The benchmark's workloads and the digests that check their outputs.

Each workload calls the same ``repro.harness.experiments`` functions and
``ChurnDaemon`` the CLI calls, in this one process and without the
experiment runner's result cache.  The figures and the chaos campaigns
run at the CLI's default sizes; the cross-rack fabric (8x8x2, 32 jobs)
and the serve run (400 epochs, Poisson 4 jobs/s, 48 running, queue 64)
are larger than the CLI defaults, so that the array engine and a
churning population of ~46 flows are exercised.  A *pass* runs every
operation of a workload once; an operation is one figure, one cross-rack
run, one chaos campaign or one service epoch, and it fails if it raises
or if its digest differs from the committed reference.

Seeds: ``--seed n`` selects input variant ``n % VARIANTS``; variant ``v``
adds ``v`` to every seed the CLI defaults to, so variant 0 uses the CLI's
seeds.  ``references.json`` holds the digests of every variant;
variant :data:`HELD_OUT_SEED` is held out: do not use it while developing
a change, so a claimed gain can be confirmed on it.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.harness import experiments as ex
from repro.service import ChurnDaemon, ServiceConfig, ServiceCrash, ServiceJournal
from repro.workloads import ArrivalModel, FlashCrowd
from repro.workloads.presets import gpt2_fast_job

__all__ = [
    "VARIANTS",
    "HELD_OUT_SEED",
    "WORKLOADS",
    "PassResult",
    "Workload",
    "check",
    "digest",
    "run_pass",
    "variant",
]

#: Distinct input variants; ``--seed`` is reduced modulo this.
VARIANTS = 8
#: The variant reserved for confirming claims (never used while tuning).
HELD_OUT_SEED = 7


def variant(seed: int) -> int:
    """The input variant a ``--seed`` selects."""
    return seed % VARIANTS


def digest(value: Any) -> str:
    """SHA-256 over a result tree, every float as ``float.hex``.

    Two results digest equal iff every float is bit-identical and every
    other leaf compares equal.
    """
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def _feed(h: Any, value: Any) -> None:
    if isinstance(value, dict):
        h.update(b"{")
        for key in sorted(value, key=str):
            _feed(h, str(key))
            _feed(h, value[key])
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(value, np.ndarray):
        _feed(h, value.tolist())
    elif isinstance(value, (bool, np.bool_)):
        h.update(b"T" if value else b"F")
    elif isinstance(value, (float, np.floating)):
        h.update(float(value).hex().encode() + b";")
    elif isinstance(value, (int, np.integer)):
        h.update(f"i{int(value)};".encode())
    elif value is None or isinstance(value, str):
        h.update(repr(value).encode() + b";")
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


@dataclass
class PassResult:
    """One pass over a workload's operations."""

    wall_s: float = 0.0
    #: ``perf_counter`` start and end of each operation, or of each serve
    #: epoch, in pass order.
    segments: list[tuple[float, float]] = field(default_factory=list)
    #: Checked unit -> digest; a unit missing here raised.
    digests: dict[str, str] = field(default_factory=dict)
    #: Operations attempted and failed (filled in by :func:`check`).
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Host time from one serve journal commit to the next, milliseconds.
    epoch_ms: list[float] = field(default_factory=list)
    #: Workload-specific measurements (resume time, journal bytes, ...).
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def segment_ms(self) -> list[float]:
        """Host time of each segment, milliseconds."""
        return [1000.0 * (end - begin) for begin, end in self.segments]


#: ``(name, call, summarize)``: one operation and how to digest its output.
Op = tuple[str, Callable[[], Any], Callable[[Any], dict]]


def _timed_ops(ops: list[Op]) -> PassResult:
    """Run ``(name, call, summarize)`` operations; digest each summary."""
    result = PassResult()
    started = time.perf_counter()
    for name, call, summarize in ops:
        op_started = time.perf_counter()
        try:
            output = call()
        except Exception as error:  # an operation that raises has failed
            result.errors.append(f"{name}: {type(error).__name__}: {error}")
            continue
        finally:
            result.segments.append((op_started, time.perf_counter()))
        for unit, summary in summarize(output).items():
            result.digests[f"{name}{unit}"] = digest(summary)
    result.wall_s = time.perf_counter() - started
    return result


def _one(summary: Any) -> dict:
    return {"": summary}


# ---------------------------------------------------------------------- paper


def _paper_ops(v: int) -> list[Op]:
    """fig1-fig5 and noise (scalar fluid engine), then fig6 and fairness (packets)."""
    return [
        ("fig1", lambda: ex.fig1_traffic_patterns(duration=5.0), _one),
        (
            "fig2",
            lambda: ex.fig2_schedules(iterations=60, seed=5 + v),
            lambda r: _one(
                {
                    "optimal": r.optimal_times,
                    "srpt": r.srpt_times,
                    "mltcp": r.mltcp_times,
                    "converged": r.mltcp_converged_at,
                    "mltcp_iterations": r.mltcp_result.all_iteration_times(),
                    "srpt_iterations": r.srpt_result.all_iteration_times(),
                }
            ),
        ),
        ("fig3", lambda: ex.fig3_aggressiveness(iterations=40, seed=11 + v), _one),
        (
            "fig4",
            lambda: ex.fig4_six_jobs(iterations=400, seed=5 + v),
            lambda r: _one({"reno": r.reno_times, "mltcp": r.mltcp_times}),
        ),
        ("fig5", lambda: ex.fig5_loss_function(samples=361), _one),
        ("noise", lambda: ex.noise_error_bound(iterations=4000, seed=v), _one),
        (
            "fig6",
            lambda: ex.fig6_packet_two_jobs(iterations=40, seed=2 + v),
            lambda r: _one(
                {
                    "iterations": r.iteration_times,
                    "converged": r.converged_at,
                    "final": r.final_mean,
                }
            ),
        ),
        (
            "fairness-share",
            lambda: ex.fairness_competition_share(
                loss_probs=(0.0,), horizon=0.5, seeds=(1 + v,)
            ),
            _one,
        ),
        (
            "fairness-loss",
            lambda: ex.fairness_loss_response(
                loss_probs=(0.001, 0.004), transfer_bytes=8_000_000, seed=1 + v
            ),
            _one,
        ),
    ]


# --------------------------------------------------------------------- fabric

#: ``repro chaos`` defaults: 3 campaigns of 48 iterations on 4x4x2, 2:1.
CHAOS_CAMPAIGNS = 3


def _campaigns(results: list) -> dict:
    return {
        f"[{r.campaign_index}]": {
            "slos": {p: [s.as_record() for s in r.slos[p]] for p in sorted(r.slos)},
            "series": r.series,
        }
        for r in results
    }


def _fabric_ops(v: int) -> list[Op]:
    """32-job cross-rack (array engine), then chaos on 4x4x2 (scalar engine)."""
    return [
        (
            "cross-rack",
            lambda: ex.cross_rack_interleaving(
                n_racks=8, hosts_per_rack=8, n_spines=2, iterations=40, seed=2 + v
            ),
            lambda r: _one(
                {
                    "mltcp": r.mltcp_series,
                    "fair": r.fair_series,
                    "utilization": r.link_utilization,
                }
            ),
        ),
        (
            "chaos",
            lambda: ex.chaos_recovery(campaigns=CHAOS_CAMPAIGNS, iterations=48, seed=2 + v),
            _campaigns,
        ),
    ]


# ---------------------------------------------------------------- serve-churn

SERVE_EPOCHS = 400
#: The external kill lands mid-run; the daemon then restarts with resume.
SERVE_KILL_EPOCH = SERVE_EPOCHS // 2


def serve_config(v: int) -> ServiceConfig:
    """Open-loop churn: Poisson 4 jobs/s plus a flash crowd, 48 running."""
    return ServiceConfig(
        arrival=ArrivalModel(
            rate_per_s=4.0,
            horizon_s=float(SERVE_EPOCHS),
            mean_iterations=12.0,
            flash_crowds=(FlashCrowd(time=120.0, size=32),),
        ),
        templates=(gpt2_fast_job("tpl"),),
        seed=v,
        epochs=SERVE_EPOCHS,
        max_running=48,
        queue_limit=64,
        shed_policy="defer",
        # No in-process restarts: the injected crash acts as a kill.
        max_recoveries=0,
    )


class _StampedJournal(ServiceJournal):
    """A journal that notes the host clock at every commit."""

    def __init__(self, path: Path, stamps: list[float]) -> None:
        super().__init__(path, retain=2)
        self.stamps = stamps

    def commit_epoch(self, epoch: int, state: dict) -> bool:
        persisted = super().commit_epoch(epoch, state)
        self.stamps.append(time.perf_counter())
        return persisted


def _serve_churn(result: PassResult, v: int, workdir: Path, reference: bool) -> None:
    """Append a serve run to ``result``: killed at mid-run and resumed.

    ``reference`` runs uninterrupted.  An epoch's latency is the host
    time from one journal commit to the next.
    """
    config = serve_config(v)
    journal_dir = Path(tempfile.mkdtemp(prefix="journal-", dir=workdir))
    path = journal_dir / "serve.journal"
    started = time.perf_counter()
    commits = [started]
    try:
        daemon = ChurnDaemon(
            config,
            journal=_StampedJournal(path, commits),
            crash_at_epoch=None if reference else SERVE_KILL_EPOCH,
        )
        try:
            daemon.run()
            if not reference:
                raise RuntimeError("the injected kill did not stop the daemon")
        except ServiceCrash:
            resume_started = time.perf_counter()
            daemon = ChurnDaemon(
                config, journal=_StampedJournal(path, commits), resume=True
            )
            result.extra["resume_ms"] = 1000.0 * (time.perf_counter() - resume_started)
            daemon.run()
        result.digests["per_job"] = daemon.per_job_fingerprint()
        result.extra["journal_bytes"] = float(path.stat().st_size)
    except Exception as error:  # no fingerprint: check() fails the epochs
        result.errors.append(f"serve: {type(error).__name__}: {error}")
    finally:
        result.wall_s += time.perf_counter() - started
        shutil.rmtree(journal_dir, ignore_errors=True)
    epochs = list(zip(commits, commits[1:]))
    result.epoch_ms = [1000.0 * (b - a) for a, b in epochs]
    result.segments += epochs


@dataclass(frozen=True)
class Workload:
    name: str
    #: The operations of one pass for an input variant.
    ops: Callable[[int], list[Op]]
    #: Whether a serve run follows the operations.
    serve: bool
    #: Operations one pass attempts.
    operations: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper", _paper_ops, False, 6 + 3),
        Workload("fabric-serve", _fabric_ops, True, 1 + CHAOS_CAMPAIGNS + SERVE_EPOCHS),
    )
}


def run_pass(workload: Workload, seed: int, workdir: Path, reference: bool) -> PassResult:
    """One pass over ``workload`` with the inputs of ``seed``.

    ``reference`` runs serve uninterrupted.
    """
    v = variant(seed)
    result = _timed_ops(workload.ops(v))
    if workload.serve:
        _serve_churn(result, v, workdir, reference)
    return result


#: The serve fingerprint stands for every epoch of the pass.
_UNIT_OPERATIONS = {"per_job": SERVE_EPOCHS}


def check(workload: Workload, outcome: PassResult, expected: dict[str, str]) -> None:
    """Count ``outcome``'s attempted and failed operations against ``expected``.

    A figure, the cross-rack run or a campaign fails when its digest is
    missing or differs.  Serve epochs are checked through the final
    per-job fingerprint, so a mismatch fails every epoch of the pass.
    """
    outcome.attempted = workload.operations
    if not expected:
        outcome.failed = workload.operations
        outcome.errors.append(f"no reference digests for {workload.name}")
        return
    bad = sorted(
        unit for unit in expected if outcome.digests.get(unit) != expected[unit]
    )
    bad += sorted(unit for unit in outcome.digests if unit not in expected)
    outcome.errors.extend(f"{unit}: digest differs from the reference" for unit in bad)
    outcome.failed = min(
        sum(_UNIT_OPERATIONS.get(unit, 1) for unit in bad), workload.operations
    )
