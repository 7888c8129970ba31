"""The long-lived scheduling daemon: epochs, supervision, recovery.

``repro serve`` runs one :class:`ChurnDaemon`.  Each *epoch* (a fixed
slice of simulated time) the daemon:

1. polls the pre-drawn arrival stream for jobs that arrived since the
   previous epoch and runs each through the admission controller
   (admit / defer / degrade / shed — every decision becomes an event of
   the next ``service`` record);
2. drains deferred jobs into slots freed by departures;
3. advances the live fluid engine to the epoch boundary under a
   :class:`repro.guards.StepperWatchdog` — a stall, livelock or injected
   crash triggers a supervised restart from the write-ahead journal
   (bounded by ``max_recoveries``);
4. commits the complete dynamic state to the journal (the WAL commit
   point — a crash loses at most the in-flight epoch; a commit that
   fails every retry is a hard stop, since advancing uncommitted would
   silently void that bound);
5. every ``snapshot_every`` epochs, emits a telemetry snapshot, with a
   per-operation timeout and bounded retry + exponential backoff on the
   snapshot sink (a slow or failing sink degrades telemetry, never the
   simulation).

Graceful degradation: when one epoch's churn (admissions + departures)
exceeds ``churn_limit``, the iteration-progress signal MLTCP weights by
is stale for a meaningful fraction of flows, so the engine clamps to
vanilla CC (unit weights) for ``degrade_epochs`` epochs — the fluid
analogue of the tracker fallback (docs/ROBUSTNESS.md).

Wall-clock sources (``time.monotonic`` / ``time.sleep``) are injectable
so tests fake hangs and backoff deterministically; simulated results
never depend on them.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NoReturn, Optional

from ..faults.fluid import FluidFaultState
from ..faults.schedule import FaultSchedule
from ..guards import POLICIES, GuardRail, StepperWatchdog
from ..harness.telemetry import RunTelemetry
from ..workloads.arrivals import ArrivalModel, ArrivalStream
from ..workloads.job import JobSpec
from .admission import SHED_POLICIES, AdmissionController
from .engine import ENGINE_POLICIES, LiveFluidEngine
from .journal import COUNTERS, JournalError, ServiceJournal

__all__ = ["ChurnDaemon", "ServiceConfig", "ServiceCrash", "InjectedCrash"]

#: Backoff delays are capped here no matter the attempt count.
MAX_BACKOFF_S = 2.0


class ServiceCrash(RuntimeError):
    """The stepper died mid-epoch; the supervisor may restart it."""


class InjectedCrash(ServiceCrash):
    """A deliberately injected stepper crash (tests, ``make serve-smoke``)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Everything that determines a service run's simulated results.

    The determinism-relevant fields are hashed into
    :meth:`fingerprint`; a journal stamped with a different fingerprint
    cannot be resumed (it belongs to a different run).
    """

    arrival: ArrivalModel
    templates: tuple[JobSpec, ...]
    capacity_gbps: float = 50.0
    cc: str = "mltcp"
    seed: int = 0
    quantum: float = 0.05
    epoch_s: float = 1.0
    epochs: int = 30
    max_running: int = 8
    queue_limit: int = 16
    shed_policy: str = "defer"
    slo_factor: float = 1.5
    snapshot_every: int = 5
    churn_limit: int = 4
    degrade_epochs: int = 2
    max_recoveries: int = 3
    op_timeout_s: float = 5.0
    op_attempts: int = 3
    backoff_base_s: float = 0.05
    stall_timeout_s: float = 30.0
    guard_policy: str = "record"
    faults: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        if not self.templates:
            raise ValueError("service config: need at least one job template")
        if self.cc not in ENGINE_POLICIES:
            raise ValueError(
                f"unknown cc {self.cc!r}; expected one of {ENGINE_POLICIES}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {self.shed_policy!r}; expected one of "
                f"{SHED_POLICIES}"
            )
        for name in ("epoch_s", "capacity_gbps", "quantum", "slo_factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"service config: {name} must be finite and positive, "
                    f"got {value!r}"
                )
        for name in (
            "epochs", "max_running", "snapshot_every", "op_attempts",
        ):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"service config: {name} must be >= 1, got "
                    f"{getattr(self, name)!r}"
                )
        for name in (
            "queue_limit", "churn_limit", "degrade_epochs", "max_recoveries",
        ):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"service config: {name} must be non-negative, got "
                    f"{getattr(self, name)!r}"
                )
        if self.op_timeout_s <= 0 or self.backoff_base_s < 0:
            raise ValueError(
                "service config: op_timeout_s must be positive and "
                f"backoff_base_s non-negative, got {self.op_timeout_s!r}, "
                f"{self.backoff_base_s!r}"
            )
        if self.stall_timeout_s <= 0:
            raise ValueError(
                f"service config: stall_timeout_s must be positive, got "
                f"{self.stall_timeout_s!r}"
            )
        if self.guard_policy not in POLICIES:
            raise ValueError(
                f"service config: guard_policy must be one of {POLICIES}, "
                f"got {self.guard_policy!r}"
            )

    def fingerprint(self) -> str:
        """Digest of every field that shapes simulated results."""
        payload = {
            "arrival": repr(self.arrival),
            "templates": [repr(t) for t in self.templates],
            "capacity_gbps": self.capacity_gbps,
            "cc": self.cc,
            "seed": self.seed,
            "quantum": self.quantum,
            "epoch_s": self.epoch_s,
            "epochs": self.epochs,
            "max_running": self.max_running,
            "queue_limit": self.queue_limit,
            "shed_policy": self.shed_policy,
            "slo_factor": self.slo_factor,
            "churn_limit": self.churn_limit,
            "degrade_epochs": self.degrade_epochs,
            "faults": (
                [e.describe() for e in self.faults.sorted_events()]
                if self.faults is not None
                else None
            ),
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


class ChurnDaemon:
    """Supervised epoch loop around one :class:`LiveFluidEngine`.

    Parameters
    ----------
    config:
        The run definition (simulated results depend only on this).
    journal:
        The write-ahead journal.  ``None`` keeps the run un-journaled
        (no crash recovery; the supervisor then re-raises any crash).
    telemetry:
        Optional :class:`RunTelemetry` collecting the ``service``
        snapshot records plus resilience and guard records.
    snapshot_path:
        Optional JSONL sink mirroring each snapshot as it is taken (the
        live query surface; written under retry + backoff).  With
        telemetry, each line is the ``service`` record itself.
    resume:
        Restore the latest committed epoch from ``journal`` and continue.
        Requires a matching config fingerprint.
    crash_at_epoch:
        Inject one :class:`InjectedCrash` mid-way through this epoch
        (after state has been mutated), exercising the recovery path.
    clock / sleep:
        Wall-clock injection points for the watchdog, per-op timeouts
        and backoff; default to ``time.monotonic`` / ``time.sleep``.
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        journal: Optional[ServiceJournal] = None,
        telemetry: Optional[RunTelemetry] = None,
        snapshot_path: Optional[Path | str] = None,
        resume: bool = False,
        crash_at_epoch: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config
        self.journal = journal
        self.telemetry = telemetry
        self.snapshot_path = Path(snapshot_path) if snapshot_path else None
        self._clock = clock
        self._sleep = sleep
        self._crash_epoch = crash_at_epoch
        self._crash_armed = crash_at_epoch is not None

        self.rail = GuardRail(config.guard_policy)
        self.watchdog = StepperWatchdog(
            self.rail, stall_timeout_s=config.stall_timeout_s, clock=clock
        )
        if config.faults is not None:
            # The single-bottleneck service only replays capacity-affecting
            # kinds; job-targeted events reference names that do not exist
            # yet, so FluidFaultState's eager validation rejects them here.
            self._fabric = FluidFaultState(config.faults, job_names=())
        else:
            self._fabric = None

        self.stream: ArrivalStream = config.arrival.stream(
            config.templates, seed=config.seed + 1
        )
        # The journal names running and queued jobs by stream position.
        self._positions = {
            event.spec.name: i for i, event in enumerate(self.stream.events)
        }
        self.engine = self._fresh_engine()
        self.admission = AdmissionController(
            config.max_running, config.queue_limit, config.shed_policy
        )
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._events: list[dict] = []
        self.snapshots: list[dict] = []
        self._next_arrival = 0
        self._fallback_left = 0
        self._last_factor = 1.0
        self.epoch = 0

        if self.journal is not None:
            existing = self.journal.meta()
            if resume:
                if existing is None:
                    raise ValueError(
                        f"cannot resume: {self.journal.path} has no service "
                        "meta record"
                    )
                expected = self._meta()
                for key in sorted(expected.keys() | existing.keys()):
                    ours, theirs = expected.get(key), existing.get(key)
                    if type(ours) is not type(theirs) or ours != theirs:
                        raise JournalError(
                            self.journal.path, self.journal.meta_line,
                            f"meta.{key}",
                            f"is {theirs!r}, but this config's is {ours!r}: "
                            "the journal belongs to a different config",
                        )
                latest = self.journal.latest_epoch()
                if latest is not None:
                    self._restore(latest)
                    # A resume IS a recovery: the previous process died (or
                    # was killed) somewhere past this commit point.
                    self.counters["recoveries"] += 1
                    self._event(
                        "recovery",
                        f"resumed from journal at epoch {latest} after an "
                        "external kill",
                    )
            else:
                if existing is not None or self.journal.commits:
                    raise ValueError(
                        f"journal {self.journal.path} already holds a run; "
                        "pass resume=True or start a fresh journal"
                    )
                self.journal.write_meta(self._meta())
        elif resume:
            raise ValueError("cannot resume without a journal")

    def _meta(self) -> dict:
        """The journal's meta for this run: its identity."""
        config = self.config
        return {
            "fingerprint": config.fingerprint(),
            "epochs": config.epochs,
            "epoch_s": config.epoch_s,
            "cc": config.cc,
        }

    def _fresh_engine(self) -> LiveFluidEngine:
        config = self.config
        return LiveFluidEngine(
            config.capacity_gbps,
            config.cc,
            seed=config.seed,
            quantum=config.quantum,
            slo_factor=config.slo_factor,
            faults=self._fabric,
        )

    # ------------------------------------------------------------- event log

    def _event(
        self, kind: str, detail: str, job: Optional[str] = None, at: Optional[float] = None
    ) -> None:
        """Buffer one snapshot event, stamped ``at`` (default: now)."""
        self._events.append(
            {
                "kind": kind,
                "detail": detail,
                "job": job,
                "time": float(self.engine.now if at is None else at),
            }
        )

    # ------------------------------------------------------- retries/backoff

    def _with_retry(self, op: str, fn: Callable[[], object]) -> bool:
        """Run one side-effecting operation under timeout + bounded retry.

        Returns whether the operation eventually succeeded.  Failures are
        recorded as ``retry`` records; exhausting every attempt
        records an ``error`` and returns False — the daemon sheds the side
        effect rather than the simulation (mirrors the experiment runner's
        backoff idiom).  An attempt that *returns* but blows the
        ``op_timeout_s`` budget is still a success: the side effect (a
        journal append, a snapshot line) cannot be un-done, so re-running
        it would duplicate it.  The overrun is recorded as a ``timeout``
        record for observability only.
        """
        config = self.config
        for attempt in range(1, config.op_attempts + 1):
            started = self._clock()
            try:
                fn()
                failure: Optional[str] = None
            except OSError as error:
                failure = f"{type(error).__name__}: {error}"
            elapsed = self._clock() - started
            if failure is None:
                if elapsed > config.op_timeout_s and self.telemetry is not None:
                    self.telemetry.record(
                        "timeout",
                        detail=f"{op}: attempt {attempt} took {elapsed:.3g} s "
                        f"(budget {config.op_timeout_s:.3g} s)",
                        attempt=attempt,
                    )
                return True
            if self.telemetry is not None:
                self.telemetry.record(
                    "retry",
                    detail=f"{op}: attempt {attempt} failed ({failure})",
                    attempt=attempt,
                )
            if attempt < config.op_attempts:
                delay = min(
                    MAX_BACKOFF_S,
                    config.backoff_base_s * (2 ** (attempt - 1)),
                )
                if delay > 0:
                    self._sleep(delay)
        if self.telemetry is not None:
            self.telemetry.record(
                "error", detail=f"{op}: gave up after {config.op_attempts} attempts"
            )
        return False

    # ----------------------------------------------------------- persistence

    def _dynamic_state(self) -> dict:
        """The journal's service state (``journal.STATE_FIELDS``): the
        engine's, with its specs as arrival-stream positions."""
        state = self.engine.state()
        positions = self._positions
        del state["names"], state["fallback_engaged"]
        state["jobs"] = [positions[spec.name] for spec in state.pop("specs")]
        state["pending"] = [positions[spec.name] for spec in self.admission.pending]
        state["counters"] = dict(self.counters)
        state["events"] = [dict(e) for e in self._events]
        state["next_arrival"] = self._next_arrival
        state["fallback_left"] = self._fallback_left
        state["last_factor"] = self._last_factor
        return state

    def _specs(self, epoch: int, field: str, positions: list[int]) -> list[JobSpec]:
        """The specs at arrival-stream ``positions``, or a ValueError
        naming the journal line and field."""
        events = self.stream.events
        for position in positions:
            if position >= len(events):
                self._bad_state(epoch, field, f"arrival {position}")
        return [events[i].spec for i in positions]

    def _bad_state(self, epoch: int, field: str, what: str) -> NoReturn:
        assert self.journal is not None
        raise JournalError(
            self.journal.path, self.journal.line_of(epoch), f"state.{field}",
            f"{what} is past the end of the stream "
            f"({len(self.stream.events)} arrivals)",
        )

    def _restore(self, epoch: int) -> None:
        assert self.journal is not None
        state = self.journal.epoch_state(epoch)
        specs = self._specs(epoch, "jobs", state["jobs"])
        pending = self._specs(epoch, "pending", state["pending"])
        if state["next_arrival"] > len(self.stream.events):
            self._bad_state(epoch, "next_arrival", str(state["next_arrival"]))
        self.engine = self._fresh_engine()
        self.engine.load_state(
            {
                **state,
                "names": [spec.name for spec in specs],
                "specs": specs,
                "fallback_engaged": state["fallback_left"] > 0,
            }
        )
        self.admission.load_state({"pending": pending})
        # The journaled count only reflects recoveries committed with a
        # later successful epoch; the in-process count may be ahead of it
        # (a crash loop never reaches the next commit).  Keep whichever is
        # larger, or a deterministically repeating crash would reset the
        # counter every cycle and the max_recoveries guard in run() would
        # never trip.
        prior_recoveries = self.counters["recoveries"]
        self.counters = dict(state["counters"])
        self.counters["recoveries"] = max(
            prior_recoveries, self.counters["recoveries"]
        )
        self._events = [dict(e) for e in state["events"]]
        self._next_arrival = state["next_arrival"]
        self._fallback_left = state["fallback_left"]
        self._last_factor = state["last_factor"]
        self.epoch = epoch + 1

    # ------------------------------------------------------------ the epochs

    def _admit(self, spec: JobSpec, verdict: str) -> None:
        self.engine.admit(spec)
        if verdict == "degrade":
            self.counters["degraded"] += 1
            self._event(
                "degrade",
                "admitted past capacity; telemetry coarsens while "
                "oversubscribed",
                job=spec.name,
            )
        else:
            self.counters["admitted"] += 1
            self._event("admit", "admitted into the live simulation", job=spec.name)

    def _poll_arrivals(self, horizon: float) -> int:
        """Offer every arrival with time <= ``horizon``; returns admissions."""
        admissions = 0
        for spec in self.admission.drain(self.engine.running):
            self._admit(spec, "admit")
            admissions += 1
        events = self.stream.events
        while (
            self._next_arrival < len(events)
            and events[self._next_arrival].time <= horizon
        ):
            arrival = events[self._next_arrival]
            self._next_arrival += 1
            verdict = self.admission.offer(arrival.spec, self.engine.running)
            if verdict in ("admit", "degrade"):
                self._admit(arrival.spec, verdict)
                admissions += 1
            elif verdict == "defer":
                self.counters["deferred"] += 1
                self._event(
                    "defer",
                    f"parked in the pending queue "
                    f"(depth {self.admission.queue_depth})",
                    job=arrival.spec.name,
                )
            else:
                self.counters["shed"] += 1
                self._event(
                    "shed",
                    f"load shed under the {self.admission.policy!r} policy",
                    job=arrival.spec.name,
                )
        return admissions

    def _step_supervised(self, target: float) -> list[dict]:
        """One watchdog-bracketed engine advance, with crash injection."""
        self.watchdog.begin(self.engine.now)
        departures: list[dict] = []
        try:
            if self._crash_armed and self._crash_epoch == self.epoch:
                midpoint = (self.engine.now + target) / 2.0
                departures.extend(self.engine.step(midpoint))
                self._crash_armed = False
                raise InjectedCrash(
                    f"injected stepper crash mid-epoch {self.epoch} "
                    f"at t={self.engine.now:g}s"
                )
            departures.extend(self.engine.step(target))
        except RuntimeError as error:
            if isinstance(error, ServiceCrash):
                raise
            raise ServiceCrash(f"stepper died: {error}") from error
        if self.watchdog.check(self.engine.now, target):
            raise ServiceCrash(
                f"stepper watchdog fired during epoch {self.epoch}"
            )
        return departures

    def _poll_capacity_edges(self, start: float) -> None:
        """Log every capacity-factor change from ``start`` to now.

        Walks the fault state's transitions, checking ``start`` itself too
        (a fault at t=0), so each change is logged at its own time — in its
        event, the fault log and one telemetry ``fault`` record — however
        short it was.
        """
        fabric = self._fabric
        if fabric is None:
            return
        now = self.engine.now
        edge: Optional[float] = start
        while edge is not None and edge <= now:
            factor = fabric.capacity_factor(edge)
            if factor != self._last_factor:
                detail = (
                    f"bottleneck capacity factor {self._last_factor:g} -> "
                    f"{factor:g}"
                )
                fabric.record(edge, detail)
                self._event("fault", detail, at=edge)
                if self.telemetry is not None:
                    self.telemetry.record("fault", detail=detail)
                self._last_factor = factor
            edge = fabric.next_transition_after(edge, eps=0.0)

    def _run_epoch(self) -> None:
        config = self.config
        start = self.epoch * config.epoch_s
        target = (self.epoch + 1) * config.epoch_s
        admissions = self._poll_arrivals(start)
        if self._fallback_left > 0 and not self.engine.fallback_engaged:
            self.engine.fallback_engaged = True
        departures = self._step_supervised(target)
        self._poll_capacity_edges(start)
        for record in departures:
            self.counters["departed"] += 1
            self._event(
                "depart",
                f"finished {record['iterations']} iterations "
                f"(slo_ok={record['slo_ok']})",
                job=record["name"],
            )
        churn = admissions + len(departures)
        if self._fallback_left > 0:
            self._fallback_left -= 1
            if self._fallback_left == 0:
                self.engine.fallback_engaged = False
        if churn > config.churn_limit and config.degrade_epochs > 0:
            if self._fallback_left == 0:
                detail = (
                    f"churn {churn} > limit {config.churn_limit} in epoch "
                    f"{self.epoch}; clamping to vanilla CC for "
                    f"{config.degrade_epochs} epoch(s)"
                )
                self._event("fallback", detail)
                if self.telemetry is not None:
                    self.telemetry.record(
                        "degradation",
                        detail=detail,
                        guard="service-churn",
                        subject="engine",
                        time=float(self.engine.now),
                    )
            self._fallback_left = config.degrade_epochs
            self.engine.fallback_engaged = True

    # ------------------------------------------------------------- snapshots

    def _coarse(self) -> bool:
        return (
            self.config.shed_policy == "degrade"
            and self.engine.running > self.config.max_running
        )

    def _take_snapshot(self) -> dict:
        coarse = self._coarse()
        entry = {
            "epoch": self.epoch,
            "time": float(self.engine.now),
            "running": self.engine.running,
            "queue_depth": self.admission.queue_depth,
            "admitted": self.counters["admitted"],
            "deferred": self.counters["deferred"],
            "shed": self.counters["shed"],
            "degraded": self.counters["degraded"],
            "departed": self.counters["departed"],
            "recoveries": self.counters["recoveries"],
            "slo_attainment": self.engine.slo_attainment(),
            "coarse": coarse,
            "events": [dict(e) for e in self._events],
            "jobs": None if coarse else self.engine.job_rows(),
        }
        if self.telemetry is not None:
            entry = self.telemetry.record("service", **entry)
        self.snapshots.append(entry)
        self._events = []
        path = self.snapshot_path
        if path is not None:
            line = json.dumps(entry) + "\n"

            def emit() -> None:
                with open(path, "a") as handle:
                    handle.write(line)
                    handle.flush()

            self._with_retry("snapshot emission", emit)
        return entry

    # -------------------------------------------------------------- the run

    def run(self) -> dict:
        """Drive the service to ``config.epochs`` and return the summary."""
        config = self.config
        while self.epoch < config.epochs:
            try:
                self._run_epoch()
            except ServiceCrash as crash:
                if self.journal is None:
                    raise
                if self.counters["recoveries"] >= config.max_recoveries:
                    raise ServiceCrash(
                        f"gave up after {config.max_recoveries} supervised "
                        f"restarts; last crash: {crash}"
                    ) from crash
                restored = self.journal.latest_epoch()
                self._recover_from(crash, restored)
                continue
            # Snapshot BEFORE the commit: the snapshot flushes the event
            # buffer, so the committed state never holds events an earlier
            # snapshot already published (a restore would re-emit them).
            if (self.epoch + 1) % config.snapshot_every == 0:
                self._take_snapshot()
            journal = self.journal
            if journal is not None:
                epoch, state = self.epoch, self._dynamic_state()

                def commit() -> None:
                    # put() swallows OSError into a False return; surface it
                    # so the retry wrapper can back off and try again.
                    if not journal.commit_epoch(epoch, state):
                        raise OSError("journal append did not reach disk")

                if not self._with_retry("journal commit", commit):
                    # Unlike a slow snapshot sink, a dead journal cannot be
                    # shed: advancing uncommitted would silently void the
                    # "a crash loses at most the in-flight epoch" bound.
                    detail = (
                        f"journal commit for epoch {epoch} failed after "
                        f"{config.op_attempts} attempt(s); the recovery "
                        "bound no longer holds — stopping"
                    )
                    if self.telemetry is not None:
                        self.telemetry.record(
                            "violation",
                            detail=detail,
                            guard="service-journal",
                            subject="journal",
                            time=float(self.engine.now),
                        )
                    raise ServiceCrash(detail)
            self.epoch += 1
        if not self.snapshots or self.snapshots[-1]["epoch"] != self.epoch - 1:
            self.epoch -= 1
            self._take_snapshot()
            self.epoch += 1
        return self.result()

    def _recover_from(self, crash: ServiceCrash, restored: Optional[int]) -> None:
        """Reload the last committed epoch and log the recovery."""
        if restored is not None:
            self._restore(restored)
        else:
            # Crash before the first commit: replay from scratch.
            self.engine = self._fresh_engine()
            self.admission = AdmissionController(
                self.config.max_running,
                self.config.queue_limit,
                self.config.shed_policy,
            )
            for key in self.counters:
                if key != "recoveries":
                    self.counters[key] = 0
            self._events = []
            self._next_arrival = 0
            self._fallback_left = 0
            self._last_factor = 1.0
            self.epoch = 0
        self.counters["recoveries"] += 1
        detail = (
            f"supervised restart #{self.counters['recoveries']}: {crash}; "
            f"resumed from "
            + (f"epoch {restored}" if restored is not None else "scratch")
        )
        self._event("recovery", detail)
        if self.telemetry is not None:
            self.telemetry.record("crash", detail=str(crash))
            self.telemetry.record(
                "watchdog",
                detail=detail,
                guard="service-supervisor",
                subject="stepper",
                time=float(self.engine.now),
            )

    # --------------------------------------------------------------- results

    def result(self) -> dict:
        """The run summary (final per-job telemetry + counters)."""
        return {
            "fingerprint": self.config.fingerprint(),
            "epochs_run": self.epoch,
            "final_time": float(self.engine.now),
            "counters": dict(self.counters),
            "queue_depth": self.admission.queue_depth,
            "slo_attainment": self.engine.slo_attainment(),
            "per_job": {
                "completed": [dict(r) for r in self.engine.completed],
                "running": self.engine.job_rows(),
            },
            "snapshots": len(self.snapshots),
            "arrivals_offered": self._next_arrival,
        }

    def per_job_fingerprint(self) -> str:
        """Digest of the final per-job telemetry, for bit-identity checks.

        Floats are serialized via ``repr`` round-tripping JSON, so two
        runs agree iff every per-job float is bit-identical.
        """
        blob = json.dumps(self.result()["per_job"], sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def query_journal(path: Path | str) -> dict:
    """Summarize a service journal without running anything.

    The ``repro serve --query`` surface: run identity, committed epochs,
    and the counters of the latest committed state, the only state it
    decodes.  Raises ``FileNotFoundError`` when ``path`` does not exist, so
    a mistyped path does not read as an empty run, and ``ValueError``
    naming the line and field of a journal that does not decode.
    """
    if not Path(path).exists():
        raise FileNotFoundError(
            errno.ENOENT, "no such service journal", str(path)
        )
    journal = ServiceJournal(path, retain=1)
    latest = journal.latest_epoch()
    summary: dict = {
        "path": str(journal.path),
        "meta": journal.meta(),
        "committed_epochs": journal.commits,
        "latest_epoch": latest,
        # A torn last line (a crash mid-append) is the one bad line a
        # load skips; any other raises.
        "corrupt_lines": int(journal.torn_tail),
    }
    if latest is not None:
        state = journal.epoch_state(latest)
        if "counters" not in state:
            raise JournalError(
                journal.path, journal.line_of(latest), "state",
                "holds no service state",
            )
        summary["counters"] = dict(state["counters"])
        summary["running"] = len(state["jobs"])
        summary["queue_depth"] = len(state["pending"])
        summary["time"] = float(state["now"])
    return summary
