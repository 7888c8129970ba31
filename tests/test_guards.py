"""Tests for the runtime guardrail subsystem (docs/ROBUSTNESS.md).

Covers the rail itself (policies, caps), the engine's monitored event
loop, the per-substrate invariant monitors, MLTCP's graceful degradation
to vanilla CC — including the same-seed equivalence with plain Reno while
degraded — and the telemetry v3 ``guards`` section.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import MLTCPConfig
from repro.fluid.allocation import AllocationPolicy, MLTCPWeighted
from repro.fluid.flowsim import run_fluid
from repro.guards import (
    GuardRail,
    GuardViolationError,
    InvariantViolation,
    check_allocation,
    check_cwnd_bounds,
    check_link_conservation,
)
from repro.guards.watchdog import bdp_cwnd_cap
from repro.harness.packetlab import mltcp_config_for, run_packet_jobs
from repro.harness.telemetry import (
    RunTelemetry,
    validate_run_report,
)
from repro.simulator.engine import Simulator
from repro.tcp.mltcp import MLTCPReno
from repro.tcp.reno import RenoCC
from repro.workloads.job import JobSpec


REPO_ROOT = Path(__file__).resolve().parent.parent


def small_jobs(n=2, comm_bits=2e6, compute_time=0.005):
    return [
        JobSpec(
            f"Job{i + 1}", comm_bits=comm_bits, demand_gbps=1.0,
            compute_time=compute_time,
        )
        for i in range(n)
    ]


class TestGuardRail:
    def test_rejects_unknown_policy(self):
        # Checking nothing means attaching no rail, so "off" is no policy.
        for policy in ("explode", "off", "degrade"):
            with pytest.raises(ValueError, match="unknown guard policy"):
                GuardRail(policy)

    def test_record_accumulates_and_counts(self):
        rail = GuardRail("record")
        rail.violation("cwnd-bounds", "f1", 0.1, "too big")
        rail.violation("cwnd-bounds", "f2", 0.2, "too big")
        rail.violation("link-conservation", "sw_l->sw_r", 0.3, "imbalance")
        assert len(rail) == 3
        assert rail.counts_by_guard() == {
            "cwnd-bounds": 2,
            "link-conservation": 1,
        }

    def test_raise_policy_raises_after_recording(self):
        rail = GuardRail("raise")
        with pytest.raises(GuardViolationError, match="cwnd-bounds"):
            rail.violation("cwnd-bounds", "f1", 0.1, "runaway")
        # The post-mortem still sees the violation.
        assert len(rail) == 1
        assert rail.violations[0].guard == "cwnd-bounds"

    def test_fallback_engaged_never_raises(self):
        """Degrading IS the graceful path: it must not abort the run even
        under the strictest policy."""
        rail = GuardRail("raise")
        violation = rail.violation(
            "tracker-sanity", "Job1", 0.5, "degraded", fallback_engaged=True
        )
        assert violation is not None
        assert violation.fallback_engaged
        assert len(rail) == 1

    def test_max_violations_caps_and_counts_dropped(self):
        rail = GuardRail("record", max_violations=3)
        for i in range(5):
            rail.violation("cwnd-bounds", f"f{i}", float(i), "x")
        assert len(rail) == 3
        assert rail.dropped == 2

    def test_violation_render_and_dict(self):
        violation = InvariantViolation("g", "s", 0.125, "msg", fallback_engaged=True)
        assert violation.render() == "[g] t=0.125 s: msg [fallback engaged]"
        assert violation.as_dict()["fallback_engaged"] is True


class TestEngineMonitor:
    def test_zero_delay_livelock_raises_engine_stall(self):
        rail = GuardRail("raise")
        sim = Simulator(monitor=rail, stall_event_limit=50)

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(GuardViolationError) as excinfo:
            sim.run()
        assert excinfo.value.violation.guard == "engine-stall"

    def test_stall_records_once_under_record_policy(self):
        rail = GuardRail("record")
        sim = Simulator(monitor=rail, stall_event_limit=50)

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        sim.run(max_events=200)
        assert rail.counts_by_guard() == {"engine-stall": 1}

    def test_clean_monitored_run_records_nothing(self):
        rail = GuardRail("raise")
        sim = Simulator(monitor=rail, stall_event_limit=10)
        fired = []
        for i in range(30):
            sim.schedule(0.001 * (i + 1), lambda i=i: fired.append(i))
        sim.run()
        assert len(fired) == 30
        assert len(rail) == 0


class TestPacketGuards:
    def test_healthy_run_is_violation_free_under_raise(self):
        """Acceptance: with monitors in ``raise`` mode a healthy packet run
        completes without a single violation."""
        rail = GuardRail("raise")
        result = run_packet_jobs(
            small_jobs(),
            lambda job: MLTCPReno(mltcp_config_for(job)),
            max_iterations=15,
            until=0.3,
            guards=rail,
        )
        assert len(rail) == 0
        for job in result.jobs:
            assert len(result.iteration_times(job.name)) >= 5

    def test_bdp_cap_validates_inputs(self):
        with pytest.raises(ValueError, match="must be positive"):
            bdp_cwnd_cap(0.0, 1e-4, 1500, 64)

    def test_bdp_cap_covers_bdp_plus_buffer(self):
        cap = bdp_cwnd_cap(1e9, 1e-3, 1500, 64, slack=1.0)
        bdp_segments = 1e9 * 1e-3 / (8.0 * 1500)
        assert cap > bdp_segments + 64

    def test_cwnd_bounds_monitor_flags_runaway_and_collapse(self):
        rail = GuardRail("record")
        check_cwnd_bounds(rail, "f1", 1e9, now=0.1, max_cwnd=1000.0)
        check_cwnd_bounds(rail, "f2", 0.25, now=0.2, min_cwnd=1.0)
        check_cwnd_bounds(rail, "f3", 50.0, now=0.3, min_cwnd=1.0, max_cwnd=1000.0)
        assert rail.counts_by_guard() == {"cwnd-bounds": 2}

    def test_link_conservation_monitor_flags_tampered_counters(self):
        result = run_packet_jobs(
            small_jobs(n=1),
            lambda job: MLTCPReno(mltcp_config_for(job)),
            max_iterations=3,
            until=0.06,
        )
        link = result.network.links[("sw_l", "sw_r")]
        rail = GuardRail("record")
        check_link_conservation(rail, link, now=result.sim.now)
        assert len(rail) == 0  # sane after a real run
        link._packets_settled += 1  # simulate a double-counted packet
        check_link_conservation(rail, link, now=result.sim.now)
        assert rail.counts_by_guard() == {"link-conservation": 1}


class _Oversubscribe(AllocationPolicy):
    """Deliberately broken policy: hands every flow the full capacity."""

    name = "oversubscribe"

    def allocate(self, flows, capacity_bps):
        return {f.flow_id: capacity_bps for f in flows}


class TestFluidGuards:
    def test_healthy_fluid_run_is_violation_free_under_raise(self):
        rail = GuardRail("raise")
        result = run_fluid(
            small_jobs(), 1.0, policy=MLTCPWeighted(),
            max_iterations=15, seed=3, guards=rail,
        )
        assert len(rail) == 0
        assert len(result.mean_iteration_by_round()) >= 5

    def test_oversubscribing_policy_is_caught(self):
        rail = GuardRail("record")
        run_fluid(
            small_jobs(), 1.0, policy=_Oversubscribe(),
            max_iterations=4, seed=3, guards=rail,
        )
        assert "allocation-capacity" in rail.counts_by_guard()
        first = rail.violations[0]
        assert first.subject == "oversubscribe"
        assert "exceeds capacity" in first.message

    def test_oversubscription_aborts_under_raise(self):
        with pytest.raises(GuardViolationError, match="allocation-capacity"):
            run_fluid(
                small_jobs(), 1.0, policy=_Oversubscribe(),
                max_iterations=4, seed=3, guards=GuardRail("raise"),
            )

    def test_check_allocation_flags_negative_rates(self):
        rail = GuardRail("record")
        check_allocation(
            rail, {"a": -1.0, "b": 0.5e9}, 1e9, now=0.2, subject="unit"
        )
        assert rail.counts_by_guard() == {"allocation-negative": 1}
        assert rail.violations[0].subject == "a"

    def test_check_allocation_tolerates_ulp_noise(self):
        rail = GuardRail("raise")
        # A few ulps over capacity is float summation, not a violation.
        check_allocation(
            rail, {"a": 0.5e9, "b": 0.5e9 + 1.0}, 1e9, now=0.1
        )
        assert len(rail) == 0


class TestDegradation:
    """Acceptance: a corrupted tracker degrades MLTCP to vanilla CC,
    behaves exactly like Reno while degraded, and re-engages after
    ``reengage_iterations`` clean iterations."""

    def test_2x_overestimate_triggers_degraded_mode(self):
        rail = GuardRail("raise")  # degradation must never abort the run
        result = run_packet_jobs(
            small_jobs(),
            lambda job: MLTCPReno(
                mltcp_config_for(job, total_bytes=2 * job.comm_bytes)
            ),
            max_iterations=30,
            until=0.5,
            seed=1,
            guards=rail,
        )
        for job in result.jobs:
            mltcp = result.senders[job.name].cc.mltcp
            assert mltcp.degraded, job.name
            assert mltcp.tracker.unreliable_reason.startswith("drift="), job.name
            episodes = mltcp.degradation_episodes
            assert episodes and episodes[-1]["end"] is None, job.name
        # The rail saw only graceful-fallback reports, nothing fatal.
        assert len(rail) == len(result.jobs)
        assert all(v.fallback_engaged for v in rail.violations)
        assert all(v.guard == "tracker-sanity" for v in rail.violations)

    def test_degraded_flow_matches_vanilla_reno_same_seed(self):
        """While F is clamped to 1, MLTCP-Reno's window trajectory is
        bit-identical to plain Reno's (Eq. 1 with F == 1)."""

        def poisoned_factory(job):
            # Correct config, but the tracker starts distrusted and the
            # re-engage bar is unreachable: degraded for the whole run.
            cc = MLTCPReno(
                mltcp_config_for(job, reengage_iterations=10**9)
            )
            cc.mltcp.tracker.estimate_unreliable = True
            cc.mltcp.tracker.unreliable_reason = "test-poisoned"
            return cc

        jobs = small_jobs()
        degraded = run_packet_jobs(
            jobs, poisoned_factory, max_iterations=20, until=0.35, seed=7
        )
        vanilla = run_packet_jobs(
            jobs, lambda job: RenoCC(), max_iterations=20, until=0.35, seed=7
        )
        for job in jobs:
            mltcp = degraded.senders[job.name].cc.mltcp
            assert mltcp.degraded, job.name  # stayed clamped throughout
            times = degraded.iteration_times(job.name)
            assert len(times) >= 5, job.name
            np.testing.assert_array_equal(
                times, vanilla.iteration_times(job.name), err_msg=job.name
            )
            assert degraded.senders[job.name].cc.cwnd == pytest.approx(
                vanilla.senders[job.name].cc.cwnd
            ), job.name

    def test_reengages_within_k_clean_iterations(self):
        def poisoned_factory(job):
            cc = MLTCPReno(mltcp_config_for(job))  # defaults: reengage after 3
            cc.mltcp.tracker.estimate_unreliable = True
            cc.mltcp.tracker.unreliable_reason = "test-poisoned"
            return cc

        result = run_packet_jobs(
            small_jobs(), poisoned_factory,
            max_iterations=30, until=0.5, seed=2,
        )
        for job in result.jobs:
            mltcp = result.senders[job.name].cc.mltcp
            tracker = mltcp.tracker
            assert not mltcp.degraded, job.name
            assert tracker.unreliable_reason is None, job.name
            episodes = mltcp.degradation_episodes
            assert len(episodes) == 1, job.name
            assert episodes[0]["end"] is not None, job.name
            # Warmup iterations count for nothing, then K=3 clean ones
            # redeem: the episode must close within the first handful of
            # iterations, not linger to the end of the run.
            config = mltcp.config
            budget = config.drift_warmup_iterations + config.reengage_iterations
            closed_after = sum(
                1
                for record in tracker.completed_iterations
                if record.end_time <= episodes[0]["end"]
            )
            assert closed_after <= budget + 1, job.name

    def test_healthy_run_never_degrades(self):
        result = run_packet_jobs(
            small_jobs(),
            lambda job: MLTCPReno(mltcp_config_for(job)),
            max_iterations=25,
            until=0.4,
            seed=4,
        )
        for job in result.jobs:
            mltcp = result.senders[job.name].cc.mltcp
            assert not mltcp.degraded, job.name
            assert mltcp.degradation_episodes == [], job.name


class TestFaultRecoveryGuarded:
    def test_fluid_fault_recovery_is_violation_free_under_raise(self):
        """Acceptance: the fault_recovery experiment runs violation-free
        with every monitor armed in ``raise`` mode."""
        from repro.harness.experiments import fault_recovery

        rail = GuardRail("raise")
        result = fault_recovery(
            "link_down", "mltcp", "fluid", iterations=40, seed=5, guards=rail
        )
        assert result.recovered
        genuine = [v for v in rail.violations if not v.fallback_engaged]
        assert genuine == []


class TestTelemetryGuardEvents:
    def test_rejects_unknown_kind(self):
        telemetry = RunTelemetry("t")
        with pytest.raises(ValueError, match="kind: 'explosion' is not one of"):
            telemetry.record("explosion", detail="boom")

    def test_report_partitions_by_kind_and_validates(self):
        telemetry = RunTelemetry("t")
        telemetry.record(
            "violation", detail="cwnd runaway", guard="cwnd-bounds",
            subject="Job1", time=0.25,
        )
        telemetry.record(
            "degradation", detail="degraded to vanilla CC",
            guard="tracker-sanity", subject="Job2", time=0.5,
            params={"reason": "drift=0.50"},
        )
        telemetry.record("watchdog", detail="point blew its budget")
        report = telemetry.as_report()
        by_kind = {r["kind"]: r for r in report["records"]}
        assert list(by_kind) == ["violation", "degradation", "watchdog"]
        assert by_kind["violation"]["detail"] == "cwnd runaway"
        assert by_kind["degradation"]["subject"] == "Job2"
        assert by_kind["watchdog"]["detail"] == "point blew its budget"
        assert validate_run_report(report) == []
        assert "guard event(s)" in telemetry.summary_line()

    def test_reports_without_guard_events_omit_nothing_required(self):
        report = RunTelemetry("t").as_report()
        assert report["records"] == []
        assert validate_run_report(report) == []


def _raised_guards() -> set:
    """Guard names ``src/`` passes as a literal first argument of
    ``.violation(...)``, or as a literal ``guard=`` keyword of any call (a
    record written straight into telemetry, past the rail)."""
    names = set()
    for path in (REPO_ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            arguments = [k.value for k in node.keywords if k.arg == "guard"]
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "violation"
                and node.args
            ):
                arguments.append(node.args[0])
            names.update(
                a.value for a in arguments
                if isinstance(a, ast.Constant) and isinstance(a.value, str)
            )
    return names


def _catalogued_guards() -> set:
    """The guard names in the first column of docs/ROBUSTNESS.md's catalogue."""
    text = (REPO_ROOT / "docs" / "ROBUSTNESS.md").read_text()
    section = text.split("\n## Guard catalogue\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE))


class TestGuardCatalogue:
    def test_catalogue_names_exactly_the_raised_guards(self):
        raised, catalogued = _raised_guards(), _catalogued_guards()
        # The scan sees the rail's call sites and the telemetry records.
        assert {"engine-stall", "service-journal"} <= raised
        assert catalogued == raised, (
            f"raised but not catalogued: {sorted(raised - catalogued)}; "
            f"catalogued but never raised: {sorted(catalogued - raised)}"
        )
