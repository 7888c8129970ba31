"""Tests for the scheduling-as-a-service layer (docs/SERVICE.md).

Covers the open-loop arrival model, admission control and load shedding,
the write-ahead journal, watchdog-supervised crash recovery (including
kill + resume bit-identity — the PR's acceptance criterion), per-op
retry/backoff with injected clocks, churn-triggered graceful degradation,
and the schema-v6 ``service`` snapshot stream.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggressiveness import default_aggressiveness
from repro.faults import FaultEvent, FaultSchedule
from repro.fluid import FluidSimulator, NetworkFluidSimulator, PlacedJob
from repro.fluid.arrays import (
    _EPS_BITS,
    _EPS_TIME,
    PHASE_COMM,
    PHASE_COMPUTE,
    PHASE_DONE,
    PHASE_WAITING,
)
from repro.guards import GuardRail, StepperWatchdog
from repro.harness.telemetry import (
    REPORT_SCHEMA_VERSION,
    RunTelemetry,
    validate_run_report,
)
from repro.service import (
    AdmissionController,
    ChurnDaemon,
    LiveFluidEngine,
    ServiceConfig,
    ServiceCrash,
    ServiceJournal,
    query_journal,
)
from repro.service import daemon as daemon_module
from repro.workloads import ArrivalModel, ArrivalStream, FlashCrowd, JobSpec
from repro.workloads.presets import gpt2_fast_job


def _model(**overrides):
    params = dict(rate_per_s=0.8, horizon_s=12.0)
    params.update(overrides)
    return ArrivalModel(**params)


def _config(**overrides):
    params = dict(
        arrival=_model(),
        templates=(gpt2_fast_job("tpl"),),
        epochs=12,
        seed=3,
    )
    params.update(overrides)
    return ServiceConfig(**params)


class TestArrivalModel:
    def test_stream_is_deterministic(self):
        model = _model(diurnal_amplitude=0.4)
        a = model.stream((gpt2_fast_job("tpl"),), seed=7)
        b = model.stream((gpt2_fast_job("tpl"),), seed=7)
        assert [(e.time, e.spec.name) for e in a.events] == [
            (e.time, e.spec.name) for e in b.events
        ]

    def test_different_seeds_differ(self):
        model = _model()
        a = model.stream((gpt2_fast_job("tpl"),), seed=1)
        b = model.stream((gpt2_fast_job("tpl"),), seed=2)
        assert [e.time for e in a.events] != [e.time for e in b.events]

    def test_events_sorted_and_within_horizon(self):
        model = _model(flash_crowds=(FlashCrowd(time=5.0, size=4),))
        stream = model.stream((gpt2_fast_job("tpl"),), seed=0)
        times = [e.time for e in stream.events]
        assert times == sorted(times)
        assert all(0.0 <= t <= model.horizon_s for t in times)

    def test_flash_crowd_jobs_present(self):
        model = _model(rate_per_s=0.1, flash_crowds=(FlashCrowd(5.0, 6),))
        stream = model.stream((gpt2_fast_job("tpl"),), seed=0)
        flash = [e for e in stream.events if e.flash]
        assert len(flash) == 6
        assert all(e.time == 5.0 for e in flash)
        assert all("-ft-" in e.spec.name for e in flash)

    def test_names_unique(self):
        stream = _model(rate_per_s=2.0).stream((gpt2_fast_job("tpl"),), seed=0)
        names = [e.spec.name for e in stream.events]
        assert len(names) == len(set(names))

    def test_diurnal_rate_oscillates(self):
        model = _model(diurnal_amplitude=0.5, diurnal_period_s=8.0)
        assert model.rate_at(2.0) == pytest.approx(model.rate_per_s * 1.5)
        assert model.rate_at(6.0) == pytest.approx(model.rate_per_s * 0.5)

    def test_between_window(self):
        stream = _model(rate_per_s=2.0).stream((gpt2_fast_job("tpl"),), seed=0)
        window = stream.between(2.0, 6.0)
        assert all(2.0 < e.time <= 6.0 for e in window)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(rate_per_s=-1.0), "rate_per_s"),
            (dict(rate_per_s=float("nan")), "rate_per_s"),
            (dict(horizon_s=0.0), "horizon_s"),
            (dict(diurnal_amplitude=1.0), "diurnal_amplitude"),
            (dict(mean_iterations=0.5), "mean_iterations"),
            (
                dict(flash_crowds=(FlashCrowd(99.0, 2),)),
                "flash crowd",
            ),
        ],
    )
    def test_model_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            _model(**kwargs)

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
    def test_flash_crowd_rejects_bad_time(self, bad):
        with pytest.raises(ValueError, match="time"):
            FlashCrowd(time=bad, size=2)

    def test_stream_requires_templates(self):
        with pytest.raises(ValueError, match="template"):
            _model().stream((), seed=0)


class TestAdmissionController:
    def _spec(self, name):
        return gpt2_fast_job(name).with_iteration_limit(3)

    def test_admits_under_limit(self):
        ctrl = AdmissionController(2, 4, "defer")
        assert ctrl.offer(self._spec("a"), running=0) == "admit"
        assert ctrl.offer(self._spec("b"), running=1) == "admit"

    def test_defer_then_shed_when_queue_full(self):
        ctrl = AdmissionController(1, 2, "defer")
        assert ctrl.offer(self._spec("a"), running=1) == "defer"
        assert ctrl.offer(self._spec("b"), running=1) == "defer"
        assert ctrl.offer(self._spec("c"), running=1) == "shed"
        assert ctrl.queue_depth == 2

    def test_reject_policy_sheds_immediately(self):
        ctrl = AdmissionController(1, 4, "reject")
        assert ctrl.offer(self._spec("a"), running=1) == "shed"
        assert ctrl.queue_depth == 0

    def test_degrade_policy_oversubscribes_boundedly(self):
        ctrl = AdmissionController(1, 2, "degrade")
        assert ctrl.offer(self._spec("a"), running=1) == "degrade"
        assert ctrl.offer(self._spec("b"), running=2) == "degrade"
        assert ctrl.offer(self._spec("c"), running=3) == "shed"

    def test_no_queue_jumping(self):
        """A free slot goes to the queue head, not a fresh arrival."""
        ctrl = AdmissionController(2, 4, "defer")
        ctrl.offer(self._spec("a"), running=2)  # deferred
        assert ctrl.offer(self._spec("b"), running=1) == "defer"

    def test_drain_is_fifo_and_bounded(self):
        ctrl = AdmissionController(2, 4, "defer")
        for name in ("a", "b", "c"):
            ctrl.offer(self._spec(name), running=2)
        released = ctrl.drain(running=0)
        assert [s.name for s in released] == ["a", "b"]
        assert ctrl.queue_depth == 1

    def test_state_roundtrip(self):
        ctrl = AdmissionController(1, 4, "defer")
        ctrl.offer(self._spec("a"), running=1)
        other = AdmissionController(1, 4, "defer")
        other.load_state(ctrl.state())
        assert [s.name for s in other.pending] == ["a"]

    def test_validation(self):
        with pytest.raises(ValueError, match="policy"):
            AdmissionController(1, 4, "nope")
        with pytest.raises(ValueError, match="max_running"):
            AdmissionController(0, 4, "defer")


class TestStepperWatchdog:
    def _dog(self, **kwargs):
        rail = GuardRail("record")
        return rail, StepperWatchdog(rail, **kwargs)

    def test_clean_step_does_not_fire(self):
        rail, dog = self._dog()
        dog.begin(0.0)
        assert dog.check(1.0, 1.0) is False
        assert dog.fires == 0

    def test_stall_fires(self):
        rail, dog = self._dog()
        dog.begin(0.0)
        assert dog.check(0.4, 1.0) is True
        assert any(v.guard == "service-stall" for v in rail.violations)

    def test_time_regression_fires(self):
        rail, dog = self._dog()
        dog.begin(5.0)
        assert dog.check(4.0, 6.0) is True
        assert any(v.guard == "service-monotonic" for v in rail.violations)

    def test_wall_clock_budget_fires(self):
        ticks = iter([0.0, 100.0])
        rail, dog = self._dog(stall_timeout_s=30.0, clock=lambda: next(ticks))
        dog.begin(0.0)
        assert dog.check(1.0, 1.0) is True

    def test_check_without_begin_raises(self):
        _, dog = self._dog()
        with pytest.raises(RuntimeError, match="begin"):
            dog.check(1.0, 1.0)


class TestJournal:
    def test_meta_and_epoch_roundtrip(self, tmp_path):
        journal = ServiceJournal(tmp_path / "svc.journal")
        journal.write_meta({"fingerprint": "abc"})
        journal.commit_epoch(0, {"x": 1})
        journal.commit_epoch(1, {"x": 2})
        fresh = ServiceJournal(tmp_path / "svc.journal")
        assert fresh.meta() == {"fingerprint": "abc"}
        assert fresh.epochs() == [0, 1]
        assert fresh.latest_epoch() == 1
        assert fresh.epoch_state(1) == {"x": 2}

    def test_epoch_keys_sort_past_ten(self, tmp_path):
        """Zero-padding keeps lexicographic order == numeric order."""
        journal = ServiceJournal(tmp_path / "svc.journal")
        for epoch in (0, 2, 10, 9, 100):
            journal.commit_epoch(epoch, {"e": epoch})
        assert journal.epochs() == [0, 2, 9, 10, 100]
        assert journal.latest_epoch() == 100

    def test_missing_epoch_raises(self, tmp_path):
        journal = ServiceJournal(tmp_path / "svc.journal")
        with pytest.raises(KeyError):
            journal.epoch_state(3)

    def test_retain_bounds_memory_but_not_disk(self, tmp_path):
        path = tmp_path / "svc.journal"
        journal = ServiceJournal(path, retain=2)
        journal.write_meta({"fingerprint": "abc"})
        for epoch in range(5):
            journal.commit_epoch(epoch, {"e": epoch})
        assert journal.epochs() == [3, 4]
        assert journal.latest_epoch() == 4
        assert journal.meta() == {"fingerprint": "abc"}
        with pytest.raises(KeyError):
            journal.epoch_state(0)
        # The JSONL file keeps the full history: an unbounded reader
        # (what --query uses) still sees every committed epoch.
        full = ServiceJournal(path)
        assert full.epochs() == [0, 1, 2, 3, 4]
        assert full.epoch_state(0) == {"e": 0}

    def test_retain_compacts_on_load(self, tmp_path):
        path = tmp_path / "svc.journal"
        journal = ServiceJournal(path)
        for epoch in range(4):
            journal.commit_epoch(epoch, {"e": epoch})
        reopened = ServiceJournal(path, retain=1)
        assert reopened.epochs() == [3]
        assert reopened.epoch_state(3) == {"e": 3}

    def test_retain_validation(self, tmp_path):
        with pytest.raises(ValueError, match="retain"):
            ServiceJournal(tmp_path / "svc.journal", retain=0)


_PLAIN_JOB = JobSpec("J", comm_bits=1e9, demand_gbps=25.0, compute_time=0.1)


class TestCapacityValidation:
    """NaN passes `x <= 0`; the serve path and the fluid engines must
    still reject NaN and infinity, naming the field.  A bad config field
    of any kind fails at construction, not inside the daemon."""

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf")])
    def test_config_rejects_capacity(self, capacity):
        with pytest.raises(ValueError, match="capacity_gbps"):
            _config(capacity_gbps=capacity)

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf")])
    def test_engine_rejects_capacity(self, capacity):
        with pytest.raises(ValueError, match="capacity_gbps"):
            LiveFluidEngine(capacity, "mltcp")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field, build",
        [
            ("capacity_gbps", lambda v: FluidSimulator([_PLAIN_JOB], v)),
            ("quantum", lambda v: FluidSimulator([_PLAIN_JOB], 50.0, quantum=v)),
            (
                "quantum",
                lambda v: NetworkFluidSimulator(
                    [PlacedJob(_PLAIN_JOB, ("link",))], {"link": 50.0}, quantum=v
                ),
            ),
            ("quantum", lambda v: LiveFluidEngine(50.0, quantum=v)),
            ("slo_factor", lambda v: LiveFluidEngine(50.0, slo_factor=v)),
        ],
        ids=[
            "flowsim-capacity", "flowsim-quantum", "network-quantum",
            "live-quantum", "live-slo_factor",
        ],
    )
    def test_fluid_engines_reject_non_finite(self, field, build, value):
        with pytest.raises(ValueError, match=field):
            build(value)


class TestConfigFingerprint:
    """Digests recorded when ``quantum``, ``slo_factor``, ``degrade_epochs``,
    ``op_timeout_s`` and ``stall_timeout_s`` were still config fields.  The
    daemon's constants keep the three that were hashed under the same keys
    and values, so a journal written then still resumes."""

    def test_default_knobs_keep_their_digest(self):
        assert _config().fingerprint() == (
            "34b4ff19c0e2babc60cbeec35cf7c0a80ccccb72ed3330a4257274531fa804b8"
        )

    def test_fair_faulted_config_keeps_its_digest(self):
        config = _config(
            arrival=_model(
                rate_per_s=1.5, horizon_s=14.0, flash_crowds=(FlashCrowd(5.0, 6),)
            ),
            epochs=14,
            max_running=4,
            queue_limit=3,
            snapshot_every=3,
            cc="fair",
            churn_limit=1,
            faults=FaultSchedule(
                events=(FaultEvent("bandwidth", time=2.0, duration=1.5, factor=0.5),)
            ),
        )
        assert config.fingerprint() == (
            "bb80ad9efea2dcb2cff1f90322e4b62e4d6311c7c4280c8fbd8ea5e8306ae40b"
        )


class TestDaemonRuns:
    def test_uninterrupted_run(self, tmp_path):
        daemon = ChurnDaemon(_config())
        result = daemon.run()
        assert result["epochs_run"] == 12
        assert result["final_time"] == pytest.approx(12.0)
        assert result["counters"]["admitted"] > 0
        assert result["counters"]["departed"] > 0
        assert result["counters"]["recoveries"] == 0

    def test_cc_policy_changes_results(self):
        # Capacity below 2x demand so concurrent flows actually contend
        # (at 50 Gbps two 25 Gbps flows both get their demand and the
        # weights never matter).
        mltcp = ChurnDaemon(_config(cc="mltcp", capacity_gbps=25.0))
        fair = ChurnDaemon(_config(cc="fair", capacity_gbps=25.0))
        mltcp.run(), fair.run()
        assert mltcp.per_job_fingerprint() != fair.per_job_fingerprint()

    def test_same_seed_same_fingerprint(self):
        a, b = ChurnDaemon(_config()), ChurnDaemon(_config())
        a.run(), b.run()
        assert a.per_job_fingerprint() == b.per_job_fingerprint()

    def test_supervised_crash_recovers_bit_identical(self, tmp_path):
        baseline = ChurnDaemon(_config())
        baseline.run()

        journal = ServiceJournal(tmp_path / "svc.journal")
        crashed = ChurnDaemon(
            _config(), journal=journal, crash_at_epoch=6
        )
        result = crashed.run()
        assert result["counters"]["recoveries"] == 1
        assert crashed.per_job_fingerprint() == baseline.per_job_fingerprint()
        kinds = [e["kind"] for s in crashed.snapshots for e in s["events"]]
        assert "recovery" in kinds

    def test_kill_and_resume_bit_identical(self, tmp_path):
        """Acceptance criterion: a daemon killed mid-flight resumes from
        the journal to bit-identical final per-job telemetry."""
        baseline = ChurnDaemon(_config())
        baseline.run()

        # "Kill" the daemon: no supervision budget, the crash propagates
        # out exactly like a SIGKILL would end the process.
        journal_path = tmp_path / "svc.journal"
        killed = ChurnDaemon(
            _config(max_recoveries=0),
            journal=ServiceJournal(journal_path),
            crash_at_epoch=6,
        )
        with pytest.raises(ServiceCrash):
            killed.run()

        # A fresh "process": new daemon object, journal re-read from disk.
        resumed = ChurnDaemon(
            _config(max_recoveries=0),
            journal=ServiceJournal(journal_path),
            resume=True,
        )
        result = resumed.run()
        assert resumed.per_job_fingerprint() == baseline.per_job_fingerprint()
        assert result["counters"]["recoveries"] == 1

    def test_supervised_recovery_with_bounded_retention(self, tmp_path):
        """Crash recovery only needs the latest committed epoch, so it
        works unchanged on a memory-bounded (retain=N) journal."""
        baseline = ChurnDaemon(_config())
        baseline.run()
        journal = ServiceJournal(tmp_path / "svc.journal", retain=1)
        crashed = ChurnDaemon(_config(), journal=journal, crash_at_epoch=6)
        result = crashed.run()
        assert result["counters"]["recoveries"] == 1
        assert crashed.per_job_fingerprint() == baseline.per_job_fingerprint()
        assert len(journal.epochs()) == 1

    def test_repeating_crash_trips_max_recoveries(self, tmp_path):
        """A deterministically repeating crash must exhaust the recovery
        budget: the restore path may not reset the in-process recovery
        counter to the (older) journaled value, or the supervisor would
        loop forever."""
        daemon = ChurnDaemon(
            _config(max_recoveries=3),
            journal=ServiceJournal(tmp_path / "svc.journal"),
        )
        original = daemon._step_supervised
        crashes = {"n": 0}

        def crashing(target):
            if daemon.epoch >= 2:
                crashes["n"] += 1
                raise ServiceCrash("deterministic repeating crash")
            return original(target)

        daemon._step_supervised = crashing
        with pytest.raises(ServiceCrash, match="gave up after 3"):
            daemon.run()
        assert daemon.counters["recoveries"] == 3
        assert crashes["n"] == 4  # the initial crash + one per restart

    def test_dead_journal_is_a_hard_stop(self, tmp_path, monkeypatch):
        """A journal commit that fails every attempt voids the at-most-
        one-epoch recovery bound: the daemon must stop loudly, not keep
        advancing uncommitted epochs."""

        class DeadJournal(ServiceJournal):
            def commit_epoch(self, epoch, state):
                return False

        monkeypatch.setattr(daemon_module, "BACKOFF_BASE_S", 0.0)
        telemetry = RunTelemetry("test.service")
        daemon = ChurnDaemon(
            _config(),
            journal=DeadJournal(tmp_path / "svc.journal"),
            telemetry=telemetry,
        )
        with pytest.raises(ServiceCrash, match="recovery bound"):
            daemon.run()
        report = telemetry.as_report()
        assert any(
            r["guard"] == "service-journal"
            for r in report["records"]
            if r["kind"] == "violation"
        )

    def test_unjournaled_crash_propagates(self):
        daemon = ChurnDaemon(_config(), crash_at_epoch=3)
        with pytest.raises(ServiceCrash, match="injected"):
            daemon.run()

    def test_crash_before_first_commit_replays_from_scratch(self, tmp_path):
        baseline = ChurnDaemon(_config())
        baseline.run()
        crashed = ChurnDaemon(
            _config(),
            journal=ServiceJournal(tmp_path / "svc.journal"),
            crash_at_epoch=0,
        )
        result = crashed.run()
        assert result["counters"]["recoveries"] == 1
        assert crashed.per_job_fingerprint() == baseline.per_job_fingerprint()

    def test_resume_refuses_fingerprint_mismatch(self, tmp_path):
        journal_path = tmp_path / "svc.journal"
        ChurnDaemon(
            _config(), journal=ServiceJournal(journal_path)
        ).run()
        with pytest.raises(ValueError, match="fingerprint"):
            ChurnDaemon(
                _config(seed=4),
                journal=ServiceJournal(journal_path),
                resume=True,
            )

    def test_fresh_run_refuses_used_journal(self, tmp_path):
        journal_path = tmp_path / "svc.journal"
        ChurnDaemon(_config(), journal=ServiceJournal(journal_path)).run()
        with pytest.raises(ValueError, match="already holds"):
            ChurnDaemon(_config(), journal=ServiceJournal(journal_path))

    def test_resume_without_journal_raises(self):
        with pytest.raises(ValueError, match="journal"):
            ChurnDaemon(_config(), resume=True)

    def test_fault_edges_logged_at_their_own_time(self):
        """A capacity fault shorter than an epoch still shows, and every
        edge carries its own time, not the epoch end it was seen at."""
        faults = FaultSchedule(
            events=(
                FaultEvent("bandwidth", time=3.2, duration=0.4, factor=0.5),
                FaultEvent("link_down", time=6.5, duration=2.0),
            )
        )
        telemetry = RunTelemetry("test.service")
        daemon = ChurnDaemon(
            _config(snapshot_every=1, faults=faults), telemetry=telemetry
        )
        daemon.run()
        details = [
            "bottleneck capacity factor 1 -> 0.5",
            "bottleneck capacity factor 0.5 -> 1",
            "bottleneck capacity factor 1 -> 0",
            "bottleneck capacity factor 0 -> 1",
        ]
        times = [3.2, 3.2 + 0.4, 6.5, 6.5 + 2.0]
        events = [
            (e["time"], e["detail"])
            for s in daemon.snapshots
            for e in s["events"]
            if e["kind"] == "fault"
        ]
        assert events == list(zip(times, details))
        assert daemon._fabric.entries == list(zip(times, details))
        records = telemetry.as_report()["records"]
        assert [r["detail"] for r in records if r["kind"] == "fault"] == details

    def test_fault_edge_at_time_zero_is_logged(self):
        faults = FaultSchedule(
            events=(FaultEvent("bandwidth", time=0.0, duration=0.5, factor=0.5),)
        )
        daemon = ChurnDaemon(_config(snapshot_every=1, faults=faults))
        daemon.run()
        assert daemon._fabric.entries == [
            (0.0, "bottleneck capacity factor 1 -> 0.5"),
            (0.5, "bottleneck capacity factor 0.5 -> 1"),
        ]

    def test_query_journal(self, tmp_path):
        journal_path = tmp_path / "svc.journal"
        daemon = ChurnDaemon(_config(), journal=ServiceJournal(journal_path))
        result = daemon.run()
        summary = query_journal(journal_path)
        assert summary["meta"]["fingerprint"] == _config().fingerprint()
        assert summary["committed_epochs"] == 12
        assert summary["latest_epoch"] == 11
        assert summary["counters"] == result["counters"]
        assert summary["corrupt_lines"] == 0


@st.composite
def _capacity_faults(draw, horizon):
    """0-2 capacity faults, some shorter than an epoch."""
    events = []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(
            st.sampled_from(["bandwidth", "link_down", "loss_burst", "ecn_storm"])
        )
        params = dict(
            time=draw(st.floats(0.0, horizon)),
            duration=draw(st.sampled_from([0.2, 0.5, 1.5, 3.0])),
        )
        if kind == "bandwidth":
            params["factor"] = draw(st.floats(0.1, 0.9))
        elif kind == "loss_burst":
            params["loss"] = draw(st.floats(0.05, 0.5))
        events.append(FaultEvent(kind, **params))
    return FaultSchedule(events=tuple(events)) if events else None


@st.composite
def _serve_configs(draw):
    epochs = draw(st.integers(6, 10))
    flash = draw(
        st.none()
        | st.builds(
            FlashCrowd, st.floats(0.0, epochs - 1.0), st.integers(2, 12)
        )
    )
    return _config(
        arrival=_model(
            rate_per_s=draw(st.floats(0.5, 3.0)),
            horizon_s=float(epochs),
            flash_crowds=(flash,) if flash is not None else (),
        ),
        cc=draw(st.sampled_from(["mltcp", "fair"])),
        shed_policy=draw(st.sampled_from(["reject", "defer", "degrade"])),
        # Contended capacities and low churn limits, so weights and the
        # churn fallback shape the floats a resume must reproduce.
        capacity_gbps=draw(st.sampled_from([25.0, 50.0])),
        churn_limit=draw(st.integers(0, 4)),
        max_running=draw(st.integers(2, 8)),
        queue_limit=draw(st.integers(0, 6)),
        epochs=epochs,
        faults=draw(_capacity_faults(float(epochs))),
        max_recoveries=0,
    )


class TestGeneratedResume:
    """Journal replay ≡ uninterrupted run, on generated serve configs."""

    @settings(max_examples=50, deadline=None)
    @given(config=_serve_configs(), kill=st.floats(0.0, 1.0))
    def test_kill_and_resume_matches_uninterrupted(self, config, kill):
        baseline = ChurnDaemon(config)
        baseline.run()
        kill_epoch = min(int(kill * config.epochs), config.epochs - 1)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "svc.journal"
            killed = ChurnDaemon(
                config, journal=ServiceJournal(path), crash_at_epoch=kill_epoch
            )
            with pytest.raises(ServiceCrash):
                killed.run()
            resumed = ChurnDaemon(config, journal=ServiceJournal(path), resume=True)
            resumed.run()
        assert resumed.per_job_fingerprint() == baseline.per_job_fingerprint()
        counters = dict(resumed.counters)
        expected = dict(baseline.counters)
        counters.pop("recoveries"), expected.pop("recoveries")
        assert counters == expected


class TestOverloadShedding:
    def test_overload_sheds_without_raising(self):
        """Acceptance criterion: a flash crowd far past capacity degrades
        (shed/defer counters move) but never raises."""
        config = _config(
            arrival=_model(
                rate_per_s=4.0, flash_crowds=(FlashCrowd(2.0, 30),)
            ),
            max_running=3,
            queue_limit=4,
            epochs=10,
        )
        result = ChurnDaemon(config).run()
        assert result["counters"]["shed"] > 0
        assert result["counters"]["deferred"] > 0
        assert result["queue_depth"] <= config.queue_limit

    def test_reject_policy_never_queues(self):
        config = _config(
            arrival=_model(rate_per_s=4.0),
            max_running=2,
            shed_policy="reject",
        )
        result = ChurnDaemon(config).run()
        assert result["counters"]["deferred"] == 0
        assert result["counters"]["shed"] > 0

    def test_degrade_policy_coarsens_telemetry(self):
        config = _config(
            arrival=_model(
                rate_per_s=3.0, flash_crowds=(FlashCrowd(1.0, 12),)
            ),
            max_running=2,
            queue_limit=6,
            shed_policy="degrade",
            snapshot_every=1,
            epochs=8,
        )
        daemon = ChurnDaemon(config)
        result = daemon.run()
        assert result["counters"]["degraded"] > 0
        coarse = [s for s in daemon.snapshots if s["coarse"]]
        assert coarse and all(s["jobs"] is None for s in coarse)

    def test_churn_fallback_clamps_to_vanilla(self):
        config = _config(
            arrival=_model(
                rate_per_s=0.5, flash_crowds=(FlashCrowd(3.0, 6),)
            ),
            max_running=12,
            churn_limit=2,
            snapshot_every=1,
        )
        daemon = ChurnDaemon(config)
        daemon.run()
        kinds = [e["kind"] for s in daemon.snapshots for e in s["events"]]
        assert "fallback" in kinds

    def test_churn_fallback_matches_fair_weights(self):
        """While the fallback is engaged the engine's weights are unit —
        identical to the `fair` policy's."""
        engine_m = LiveFluidEngine(50.0, "mltcp", seed=0)
        engine_f = LiveFluidEngine(50.0, "fair", seed=0)
        for engine in (engine_m, engine_f):
            for i in range(3):
                engine.admit(
                    gpt2_fast_job(f"j{i}").with_iteration_limit(4)
                )
        engine_m.fallback_engaged = True
        engine_m.step(5.0)
        engine_f.step(5.0)
        assert json.dumps(engine_m.completed, sort_keys=True) == json.dumps(
            engine_f.completed, sort_keys=True
        )

    def test_mltcp_bytes_ratio_divides_by_nominal_volume(self):
        """Algorithm 1 (and FluidSimulator) normalise bytes_sent by the
        nominal TOTAL_BYTES, not by the iteration's jittered volume."""
        spec = replace(
            gpt2_fast_job("j0", jitter_sigma=0.0), volume_jitter_fraction=0.2
        ).with_iteration_limit(4)
        engine = LiveFluidEngine(50.0, "mltcp", seed=0)
        engine.admit(spec)
        engine.step(0.2)  # inside the first ~0.45 s communication phase
        active = np.flatnonzero(engine.phase == PHASE_COMM)
        assert active.tolist() == [0]
        volume = engine.remaining[0] + engine.sent[0]
        assert abs(volume - spec.comm_bits) > 0.01 * spec.comm_bits
        ratio = min(1.0, engine.sent[0] / spec.comm_bits)
        F = default_aggressiveness()
        expected = F.slope * ratio + F.intercept
        assert engine._weights(active)[0] == expected


def _oracle_sweep(self):
    """The flow-by-flow ``LiveFluidEngine._sweep`` the mask sweep replaced,
    kept verbatim as its oracle."""
    departed = False
    fired = True
    while fired:
        fired = False
        for i in range(len(self.names)):
            phase = self.phase[i]
            if phase == PHASE_WAITING and self.deadline[i] <= self.clock + _EPS_TIME:
                self._start_comm(i)
                fired = True
            elif phase == PHASE_COMM and self.remaining[i] <= _EPS_BITS:
                compute = self.specs[i].sample_compute_time(self.rng)
                self.phase[i] = PHASE_COMPUTE
                self.deadline[i] = self.clock + compute
                if compute <= _EPS_TIME:
                    fired = True  # due now: sweep again to end it
            elif phase == PHASE_COMPUTE and self.deadline[i] <= self.clock + _EPS_TIME:
                self.iter_time_sum[i] += self.clock - self.comm_start[i]
                self.iter_index[i] += 1
                if self.iter_index[i] >= self.iter_limit[i]:
                    self.phase[i] = PHASE_DONE
                    departed = True
                else:
                    self._start_comm(i)
                fired = True
    return departed


@st.composite
def _admissions(draw):
    """1-8 jobs, each admitted at one of a few step boundaries."""
    jobs = []
    for i in range(draw(st.integers(1, 8))):
        spec = JobSpec(
            name=f"job{draw(st.integers(0, 99)):02d}-{i}",
            comm_bits=draw(st.floats(1e8, 4e9)),
            demand_gbps=draw(st.floats(5.0, 60.0)),
            compute_time=draw(st.sampled_from([0.0, 0.01, 0.05, 0.3])),
            start_offset=draw(st.sampled_from([0.0, 0.07, 0.4])),
            jitter_sigma=draw(st.sampled_from([0.0, 0.002, 0.02])),
            volume_jitter_fraction=draw(st.sampled_from([0.0, 0.1])),
            iteration_limit=draw(st.integers(1, 4)),
        )
        jobs.append((draw(st.sampled_from([0.0, 0.3, 0.75, 1.2])), spec))
    return sorted(jobs, key=lambda job: job[0])


def _float_hex(value):
    return value.hex() if isinstance(value, float) else value


class TestLiveEngineSweep:
    @settings(max_examples=80, deadline=None)
    @given(
        admissions=_admissions(),
        cc=st.sampled_from(["fair", "mltcp"]),
        seed=st.integers(0, 2**16),
    )
    def test_mask_sweep_matches_flow_by_flow_oracle(self, admissions, cc, seed):
        """Same completions, clock and state arrays, bit for bit."""

        def run():
            engine = LiveFluidEngine(30.0, cc, seed=seed, quantum=0.05)
            for at, spec in admissions:
                engine.step(at)
                engine.admit(spec)
            engine.step(4.0)
            return (
                engine.clock.hex(),
                [
                    {k: _float_hex(v) for k, v in record.items()}
                    for record in engine.completed
                ],
                {
                    key: (value.dtype.str, value.tobytes())
                    for key, value in engine.state().items()
                    if isinstance(value, np.ndarray)
                },
            )

        mask = run()
        with patch.object(LiveFluidEngine, "_sweep", _oracle_sweep):
            oracle = run()
        assert mask == oracle

    def test_zero_compute_phase_cascades_within_one_sweep(self):
        """A zero-length compute phase ends at the instant its
        communication does, without idling a quantum: each iteration is
        its 0.4 s communication phase alone."""
        engine = LiveFluidEngine(50.0, "fair", quantum=0.05)
        engine.admit(
            JobSpec("J", comm_bits=10e9, demand_gbps=25.0, compute_time=0.0,
                    iteration_limit=5)
        )
        engine.step(10.0)
        (record,) = engine.completed
        assert record["iterations"] == 5
        assert record["mean_iteration_s"] == pytest.approx(0.4, rel=1e-12)


class TestRetryBackoff:
    def _daemon(self, monkeypatch, clock_values, sleeps, op_attempts=3,
                backoff_base_s=0.05):
        monkeypatch.setattr(daemon_module, "OP_ATTEMPTS", op_attempts)
        monkeypatch.setattr(daemon_module, "BACKOFF_BASE_S", backoff_base_s)
        ticks = iter(clock_values)
        telemetry = RunTelemetry("test.service")
        daemon = ChurnDaemon(
            _config(),
            telemetry=telemetry,
            clock=lambda: next(ticks),
            sleep=sleeps.append,
        )
        return daemon, telemetry

    def test_slow_success_is_not_retried(self, monkeypatch):
        # The attempt takes 10 s against a 5 s budget but *completes*:
        # the side effect (journal line, snapshot line) is already on
        # disk, so re-running it would duplicate it.  The overrun is a
        # timeout degradation for observability only.
        sleeps = []
        calls = {"n": 0}
        daemon, telemetry = self._daemon(
            monkeypatch, [0.0, 10.0], sleeps, op_attempts=3, backoff_base_s=0.05
        )

        def slow():
            calls["n"] += 1

        assert daemon._with_retry("op", slow) is True
        assert calls["n"] == 1
        assert sleeps == []
        kinds = [r["kind"] for r in telemetry.records]
        assert kinds == ["timeout"]

    def test_failing_op_gives_up_after_attempts(self, monkeypatch):
        sleeps = []
        daemon, telemetry = self._daemon(
            monkeypatch,
            [0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
            sleeps,
            op_attempts=3,
            backoff_base_s=0.05,
        )

        def dead():
            raise OSError("disk full")

        assert daemon._with_retry("op", dead) is False
        assert sleeps == [0.05, 0.1]
        kinds = [r["kind"] for r in telemetry.records]
        assert kinds == ["retry", "retry", "retry", "error"]

    def test_failing_op_retries_then_succeeds(self, monkeypatch):
        sleeps = []
        daemon, telemetry = self._daemon(
            monkeypatch, [0.0, 0.1, 0.2, 0.3], sleeps, op_attempts=3
        )
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("disk hiccup")

        assert daemon._with_retry("op", flaky) is True
        assert calls["n"] == 2
        assert sleeps == [0.05]
        assert [r["kind"] for r in telemetry.records] == ["retry"]

    def test_backoff_is_capped(self, monkeypatch):
        sleeps = []
        daemon, _ = self._daemon(
            monkeypatch,
            [float(i) for i in range(20)],
            sleeps,
            op_attempts=8,
            backoff_base_s=0.5,
        )

        def dead():
            raise OSError("nope")

        assert daemon._with_retry("op", dead) is False
        assert max(sleeps) == 2.0

    def test_snapshot_sink_failure_sheds_side_effect(self, tmp_path, monkeypatch):
        """A read-only snapshot sink degrades telemetry, not the run."""
        monkeypatch.setattr(daemon_module, "BACKOFF_BASE_S", 0.0)
        sink = tmp_path / "denied" / "snapshots.jsonl"
        telemetry = RunTelemetry("test.service")
        daemon = ChurnDaemon(
            _config(),
            telemetry=telemetry,
            snapshot_path=sink,
        )
        result = daemon.run()
        assert result["epochs_run"] == 12
        kinds = {r["kind"] for r in telemetry.records}
        assert "retry" in kinds and "error" in kinds


class TestServiceTelemetry:
    def _run(self, tmp_path, **overrides):
        telemetry = RunTelemetry("test.service")
        sink = tmp_path / "snapshots.jsonl"
        daemon = ChurnDaemon(
            _config(**overrides), telemetry=telemetry, snapshot_path=sink
        )
        daemon.run()
        return daemon, telemetry, sink

    def test_report_is_schema_valid(self, tmp_path):
        _, telemetry, _ = self._run(tmp_path)
        report = telemetry.as_report()
        assert report["schema_version"] == REPORT_SCHEMA_VERSION == 7
        assert validate_run_report(report) == []
        assert any(r["kind"] == "service" for r in report["records"])

    def test_every_decision_is_in_the_snapshot_stream(self, tmp_path):
        """Acceptance criterion: shed/defer/degrade/recovery decisions all
        appear in the validated snapshot stream."""
        telemetry = RunTelemetry("test.service")
        config = _config(
            arrival=_model(
                rate_per_s=3.0, flash_crowds=(FlashCrowd(2.0, 20),)
            ),
            max_running=2,
            queue_limit=3,
            epochs=10,
        )
        daemon = ChurnDaemon(
            config,
            telemetry=telemetry,
            journal=ServiceJournal(tmp_path / "svc.journal"),
            crash_at_epoch=5,
        )
        daemon.run()
        assert validate_run_report(telemetry.as_report()) == []
        kinds = {e["kind"] for s in daemon.snapshots for e in s["events"]}
        assert {"admit", "defer", "shed", "depart", "recovery"} <= kinds
        counters = daemon.counters
        events = [e for s in daemon.snapshots for e in s["events"]]
        for kind, counter in (
            ("defer", "deferred"),
            ("shed", "shed"),
            ("recovery", "recoveries"),
        ):
            assert (
                len([e for e in events if e["kind"] == kind])
                == counters[counter]
            )

    def test_snapshot_cadence_and_final_snapshot(self, tmp_path):
        daemon, _, _ = self._run(tmp_path, epochs=12, snapshot_every=5)
        assert [s["epoch"] for s in daemon.snapshots] == [4, 9, 11]

    def test_jsonl_sink_mirrors_snapshots(self, tmp_path):
        daemon, _, sink = self._run(tmp_path)
        lines = [
            json.loads(line)
            for line in sink.read_text().splitlines()
            if line
        ]
        assert [s["epoch"] for s in lines] == [
            s["epoch"] for s in daemon.snapshots
        ]

    def test_counters_are_cumulative(self, tmp_path):
        daemon, _, _ = self._run(tmp_path, snapshot_every=1)
        admitted = [s["admitted"] for s in daemon.snapshots]
        assert admitted == sorted(admitted)


class TestServeCli:
    def test_serve_smoke(self, tmp_path, capsys):
        from repro.cli import main

        report = tmp_path / "svc.run.json"
        code = main(
            [
                "serve",
                "--epochs", "6",
                "--rate", "0.8",
                "--seed", "3",
                "--report", str(report),
            ]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["schema_version"] == 7
        assert validate_run_report(payload) == []
        assert "serve [mltcp]" in capsys.readouterr().out

    def test_serve_crash_and_query(self, tmp_path, capsys):
        from repro.cli import main

        journal = tmp_path / "svc.journal"
        assert (
            main(
                [
                    "serve", "--epochs", "6", "--seed", "3",
                    "--journal", str(journal), "--crash-at-epoch", "3",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["serve", "--query", str(journal)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["committed_epochs"] == 6

    def test_query_missing_journal_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "does-not-exist.journal"
        assert main(["serve", "--query", str(missing)]) == 2
        err = capsys.readouterr().err
        assert f"cannot query journal {missing}" in err
        assert not missing.exists()

    def test_serve_bad_flash_spec_fails(self, capsys):
        from repro.cli import main

        assert main(["serve", "--flash", "nonsense"]) == 2
        assert "flash" in capsys.readouterr().err
