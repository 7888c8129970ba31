"""Tests for the fault-injection subsystem (repro.faults, docs/FAULTS.md).

Covers the three layers: the declarative schedule (eager validation, JSON
round-trip), the per-substrate injectors (fluid capacity/compute mapping,
packet link/app hooks), and the recovery experiment built on top — MLTCP
re-converges after a link flap and after a job restart in *both*
simulators, and a seeded schedule replays bit-identically.
"""

import json
import math
from dataclasses import fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    FluidFaultState,
    install_packet_faults,
)
from repro.faults.fluid import ECN_STORM_CAPACITY_FACTOR
from repro.fluid import flowsim
from repro.fluid.allocation import FairShare, MLTCPWeighted
from repro.fluid.flowsim import FluidSimulator, run_fluid
from repro.harness.experiments import fault_recovery
from repro.harness.packetlab import mltcp_config_for, run_packet_jobs
from repro.tcp.dctcp import DctcpCC
from repro.tcp.mltcp import MLTCPReno
from repro.workloads.job import JobSpec
from repro.workloads.presets import three_job_scenario


def _flap(time=2.0, duration=0.5, **kw):
    return FaultSchedule(
        events=(FaultEvent(kind="link_down", time=time, duration=duration),),
        **kw,
    )


class TestScheduleValidation:
    def test_unknown_kind_lists_valid_ones(self):
        with pytest.raises(ValueError, match="unknown kind.*link_down"):
            FaultSchedule(events=(FaultEvent(kind="gremlin", time=1.0),))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time must be non-negative"):
            FaultSchedule(
                events=(FaultEvent(kind="link_down", time=-1.0, duration=1.0),)
            )

    def test_bandwidth_factor_range(self):
        for factor in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match=r"factor must be in \(0, 1\)"):
                FaultSchedule(
                    events=(
                        FaultEvent(
                            kind="bandwidth", time=0.0, duration=1.0, factor=factor
                        ),
                    )
                )

    def test_loss_range(self):
        with pytest.raises(ValueError, match=r"loss must be in \(0, 1\)"):
            FaultSchedule(
                events=(
                    FaultEvent(kind="loss_burst", time=0.0, duration=1.0, loss=1.0),
                )
            )

    def test_straggler_needs_slowdown_factor(self):
        with pytest.raises(ValueError, match="factor must exceed 1"):
            FaultSchedule(
                events=(
                    FaultEvent(
                        kind="straggler", time=0.0, duration=1.0,
                        job="J", factor=0.5,
                    ),
                )
            )

    def test_instant_link_faults_need_duration(self):
        with pytest.raises(ValueError, match="positive duration"):
            FaultSchedule(events=(FaultEvent(kind="link_down", time=1.0),))

    def test_link_and_job_targets_cannot_cross(self):
        with pytest.raises(ValueError, match="link fault cannot name a job"):
            FaultSchedule(
                events=(
                    FaultEvent(kind="link_down", time=0.0, duration=1.0, job="J"),
                )
            )
        with pytest.raises(ValueError, match="job fault cannot name a link"):
            FaultSchedule(
                events=(
                    FaultEvent(
                        kind="job_restart", time=0.0, job="J", link="a->b"
                    ),
                )
            )
        with pytest.raises(ValueError, match="must name its target job"):
            FaultSchedule(events=(FaultEvent(kind="job_restart", time=0.0),))

    def test_target_existence_checked_when_names_known(self):
        flap = FaultSchedule(
            events=(
                FaultEvent(
                    kind="link_down", time=0.0, duration=1.0, link="sw_l->sw_r"
                ),
            )
        )
        flap.validate(link_names=["sw_l->sw_r"])  # fine
        with pytest.raises(ValueError, match="does not exist.*bottleneck"):
            flap.validate(link_names=["bottleneck"])

        restart = FaultSchedule(
            events=(FaultEvent(kind="job_restart", time=0.0, job="Ghost"),)
        )
        with pytest.raises(ValueError, match="'Ghost' is not in the scenario"):
            restart.validate(job_names=["Job1", "Job2"])

    @pytest.mark.parametrize(
        "kind, name, fields",
        [
            ("link_down", "time", {"time": math.inf, "duration": 1.0}),
            ("link_down", "duration", {"time": 1.0, "duration": math.inf}),
            ("job_restart", "restart_delay",
             {"time": 1.0, "job": "J", "restart_delay": math.inf}),
            ("straggler", "factor",
             {"time": 1.0, "duration": 1.0, "job": "J", "factor": math.inf}),
            ("bandwidth", "factor",
             {"time": 1.0, "duration": 1.0, "factor": -math.inf}),
            ("link_down", "time", {"time": "1", "duration": 1.0}),
        ],
    )
    def test_non_finite_numbers_rejected(self, kind, name, fields):
        # inf passes every range check; a run then overflows converting it
        # to steps, or a straggler that never ends livelocks the fluid loop.
        # A string from a JSON file raised a TypeError naming no field.
        with pytest.raises(
            ValueError, match=rf"event #0 \('{kind}'\): {name} must be finite"
        ):
            FaultSchedule(events=(FaultEvent(kind=kind, **fields),))

    def test_error_names_the_offending_event(self):
        with pytest.raises(ValueError, match=r"event #1 \('bandwidth'\)"):
            FaultSchedule(
                events=(
                    FaultEvent(kind="link_down", time=0.0, duration=1.0),
                    FaultEvent(kind="bandwidth", time=1.0, duration=1.0, factor=2.0),
                )
            )

    def test_transition_times_include_restart_rejoin(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent(kind="link_down", time=2.0, duration=0.5),
                FaultEvent(
                    kind="job_restart", time=4.0, job="J", restart_delay=1.0
                ),
            )
        )
        assert schedule.transition_times() == (2.0, 2.5, 4.0, 5.0)

    def test_describe_mentions_kind_target_and_time(self):
        text = FaultEvent(
            kind="bandwidth", time=2.0, duration=1.0, factor=0.5
        ).describe()
        assert "bandwidth" in text and "t=2s" in text and "factor=0.5" in text


class TestScheduleJson:
    def test_roundtrip_through_file(self, tmp_path):
        schedule = FaultSchedule(
            events=(
                FaultEvent(kind="link_down", time=2.0, duration=0.5),
                FaultEvent(
                    kind="job_restart", time=4.0, job="Job2", restart_delay=1.0
                ),
            ),
            seed=7,
        )
        path = tmp_path / "faults.json"
        schedule.to_json(path)
        assert FaultSchedule.from_json(path) == schedule

    def test_roundtrip_through_string(self):
        schedule = _flap(seed=3)
        assert FaultSchedule.from_json(schedule.to_json()) == schedule

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys.*'when'"):
            FaultSchedule.from_json(
                '{"events": [{"kind": "link_down", "when": 1.0}]}'
            )

    def test_invalid_json_and_shape_rejected(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultSchedule.from_json("{nope")
        with pytest.raises(ValueError, match="'events' list"):
            FaultSchedule.from_json('{"seed": 1}')

    def test_loaded_schedules_are_validated(self):
        with pytest.raises(ValueError, match="unknown kind"):
            FaultSchedule.from_json(
                '{"events": [{"kind": "gremlin", "time": 1.0}]}'
            )


#: Valid documents the fuzzer mutates: every fault kind and every key.
_VALID_DOCUMENTS = (
    {"seed": 5, "events": [{"kind": "link_down", "time": 1.0, "duration": 0.5}]},
    {"seed": 0, "events": [
        {"kind": "bandwidth", "time": 0.5, "duration": 1.0, "factor": 0.5,
         "link": "sw_l->sw_r"},
        {"kind": "straggler", "time": 1.0, "duration": 1.0, "job": "Job1",
         "factor": 2.0},
        {"kind": "job_restart", "time": 2.0, "job": "Job2", "restart_delay": 0.1},
    ]},
    {"events": [
        {"kind": "loss_burst", "time": 0.0, "duration": 1.0, "loss": 0.05},
        {"kind": "ecn_storm", "time": 1.0, "duration": 1.0},
        {"kind": "spine_down", "time": 1.0, "duration": 1.0, "spine": "spine0"},
        {"kind": "uplink_down", "time": 1.0, "duration": 1.0,
         "link": "rack0->spine1"},
        {"kind": "rack_partition", "time": 1.0, "duration": 1.0, "rack": "rack1"},
        {"kind": "ecmp_rehash", "time": 1.0, "duration": 1.0},
    ]},
)

_EVENT_KEYS = [f.name for f in fields(FaultEvent)]
_STRING_KEYS = ("link", "job", "spine", "rack")
_DROP = object()

#: Replacement values: str, bool, list, null and numbers, negative and
#: non-finite ones included.
_JUNK = st.one_of(
    st.sampled_from(["", "x", "1", "link_down", "Job1"]),
    st.booleans(),
    st.lists(st.sampled_from(["a", 1, None]), max_size=2),
    st.none(),
    st.integers(-3, 3),
    st.sampled_from([-1.5, 0.5, 1e308, math.inf, -math.inf, math.nan]),
    st.just({}),
)

#: One mutation: (event index or -1 for the top level, key, new value or
#: _DROP to delete the key).
_MUTATION = st.tuples(
    st.integers(-1, 5),
    st.sampled_from(_EVENT_KEYS + ["seed", "events"]),
    st.one_of(st.just(_DROP), _JUNK),
)


def _mutated(document, mutations):
    document = json.loads(json.dumps(document))
    for target, key, value in mutations:
        events = document.get("events")
        if target < 0 or not isinstance(events, list) or not events:
            key = key if key in ("seed", "events") else "events"
            holder = document
        else:
            holder = events[target % len(events)]
            if not isinstance(holder, dict):
                continue
        if value is _DROP:
            holder.pop(key, None)
        else:
            holder[key] = value
    return document


def _assert_holds_document(schedule, document):
    """A loaded schedule carries the document's values, each well typed."""
    seed = document.get("seed", 0)
    assert schedule.seed == seed
    assert isinstance(seed, Integral) and not isinstance(seed, bool) and seed >= 0
    assert len(schedule.events) == len(document["events"])
    for event, raw in zip(schedule.events, document["events"]):
        for key, value in raw.items():
            assert getattr(event, key) == value
        assert isinstance(event.kind, str)
        for name in ("time", "duration", "factor", "loss", "restart_delay"):
            value = getattr(event, name)
            assert isinstance(value, Real) and not isinstance(value, bool)
            assert math.isfinite(value)
        for name in _STRING_KEYS:
            assert getattr(event, name) is None or isinstance(getattr(event, name), str)


#: Documents that escaped as another exception, or loaded silently, before
#: ``from_json`` checked every field: the shrunk failures of the fuzzer
#: below, and a top-level array that was read as a file name.  Each comes
#: with the error, naming the field, it must raise.
_BAD_SCHEDULES = Path(__file__).resolve().parent / "fixtures" / "bad_fault_schedules.json"


class TestScheduleJsonFuzz:
    """A fault-schedule document loads with exactly its values, or fails
    with a ValueError; never another exception."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        document=st.sampled_from(_VALID_DOCUMENTS),
        mutations=st.lists(_MUTATION, min_size=1, max_size=3),
    )
    def test_loads_or_raises_value_error(self, document, mutations):
        document = _mutated(document, mutations)
        text = json.dumps(document)
        try:
            schedule = FaultSchedule.from_json(text)
        except ValueError:
            return
        _assert_holds_document(schedule, document)

    @pytest.mark.parametrize(
        "case", json.loads(_BAD_SCHEDULES.read_text()),
        ids=lambda case: case["name"],
    )
    def test_shrunk_failures_name_the_field(self, case):
        with pytest.raises(ValueError, match=case["error"]):
            FaultSchedule.from_json(json.dumps(case["document"]))


class TestFluidMapping:
    JOBS = ("Job1", "Job2")

    def _state(self, *events, seed=0):
        return FluidFaultState(
            FaultSchedule(events=tuple(events), seed=seed), job_names=self.JOBS
        )

    def test_capacity_factor_per_kind(self):
        down = self._state(FaultEvent(kind="link_down", time=1.0, duration=1.0))
        assert down.capacity_factor(0.5) == 1.0
        assert down.capacity_factor(1.5) == 0.0
        assert down.capacity_factor(2.5) == 1.0

        degraded = self._state(
            FaultEvent(kind="bandwidth", time=0.0, duration=1.0, factor=0.25)
        )
        assert degraded.capacity_factor(0.5) == 0.25

        lossy = self._state(
            FaultEvent(kind="loss_burst", time=0.0, duration=1.0, loss=0.1)
        )
        assert lossy.capacity_factor(0.5) == pytest.approx(0.9)

        storm = self._state(FaultEvent(kind="ecn_storm", time=0.0, duration=1.0))
        assert storm.capacity_factor(0.5) == ECN_STORM_CAPACITY_FACTOR

    def test_concurrent_capacity_faults_compose_multiplicatively(self):
        state = self._state(
            FaultEvent(kind="bandwidth", time=0.0, duration=2.0, factor=0.5),
            FaultEvent(kind="loss_burst", time=1.0, duration=2.0, loss=0.2),
        )
        assert state.capacity_factor(1.5) == pytest.approx(0.5 * 0.8)

    def test_compute_scale_targets_one_job(self):
        state = self._state(
            FaultEvent(
                kind="straggler", time=0.0, duration=1.0, job="Job1", factor=3.0
            )
        )
        assert state.compute_scale("Job1", 0.5) == 3.0
        assert state.compute_scale("Job2", 0.5) == 1.0
        assert state.compute_scale("Job1", 1.5) == 1.0

    def test_due_restarts_fire_exactly_once(self):
        state = self._state(
            FaultEvent(kind="job_restart", time=1.0, job="Job1", restart_delay=0.5)
        )
        assert state.due_restarts(0.5) == []
        due = state.due_restarts(1.0)
        assert [e.job for e in due] == ["Job1"]
        assert state.due_restarts(2.0) == []  # not re-delivered

    def test_next_transition_after(self):
        state = self._state(FaultEvent(kind="link_down", time=2.0, duration=0.5))
        assert state.next_transition_after(0.0) == 2.0
        assert state.next_transition_after(2.0) == 2.5
        assert state.next_transition_after(2.5) is None
        assert state.last_transition == 2.5

    def test_unknown_job_rejected_at_construction(self):
        with pytest.raises(ValueError, match="not in the scenario"):
            self._state(
                FaultEvent(kind="job_restart", time=1.0, job="Nope")
            )


def _hex_iterations(result):
    """A run's iterations with every float rendered by ``float.hex``."""
    return [
        (it.job, it.index, it.comm_start.hex(), it.comm_end.hex(),
         it.iteration_end.hex())
        for it in result.iterations
    ]


class TestFluidReplay:
    def test_identical_schedule_and_seed_replays_bit_identically(self):
        def run():
            return run_fluid(
                three_job_scenario(),
                capacity_gbps=50.0,
                policy=MLTCPWeighted(),
                max_iterations=30,
                seed=11,
                faults=_flap(time=20.0, duration=3.0, seed=11),
            )

        first, second = run(), run()
        np.testing.assert_array_equal(
            first.mean_iteration_by_round(), second.mean_iteration_by_round()
        )
        assert first.fault_log == second.fault_log

    @pytest.mark.parametrize(
        "min_flows", [flowsim._VECTORIZED_MIN_FLOWS, 1], ids=["default", "array"]
    )
    def test_second_run_replays_the_schedule(self, monkeypatch, min_flows):
        """Every ``run()`` starts from a fresh fault state: the restart and
        the bandwidth dip fire again, and the log holds only that run's
        transitions.  The jobs are jitter-free because the RNG stream
        carries on from one run to the next."""
        monkeypatch.setattr(flowsim, "_VECTORIZED_MIN_FLOWS", min_flows)
        schedule = FaultSchedule(
            events=(
                FaultEvent(kind="bandwidth", time=3.0, duration=2.0, factor=0.5),
                FaultEvent(
                    kind="job_restart", time=7.3, job="Job1", restart_delay=0.4
                ),
            )
        )
        simulator = FluidSimulator(
            three_job_scenario(jitter_sigma=0.0),
            50.0,
            policy=MLTCPWeighted(),
            faults=schedule,
        )
        first = simulator.run(max_iterations=12)
        second = simulator.run(max_iterations=12)
        assert _hex_iterations(second) == _hex_iterations(first)
        assert second.end_time.hex() == first.end_time.hex()
        assert second.fault_log == first.fault_log
        assert len(first.fault_log) == 3
        assert any("job_restart on Job1" in line for line in first.fault_log)

    def test_fault_log_records_strike_and_reversion(self):
        result = run_fluid(
            three_job_scenario(),
            capacity_gbps=50.0,
            policy=MLTCPWeighted(),
            max_iterations=30,
            seed=1,
            faults=_flap(time=20.0, duration=3.0),
        )
        assert any("t=20s" in line for line in result.fault_log)
        assert any("t=23s" in line for line in result.fault_log)

    def test_link_down_actually_perturbs(self):
        kwargs = dict(
            capacity_gbps=50.0, policy=FairShare(), max_iterations=30, seed=1
        )
        clean = run_fluid(three_job_scenario(), **kwargs)
        faulted = run_fluid(
            three_job_scenario(), faults=_flap(time=20.0, duration=3.0), **kwargs
        )
        assert faulted.mean_iteration_by_round().max() > (
            clean.mean_iteration_by_round().max() + 1.0
        )


class TestRecoveryFluid:
    @pytest.mark.parametrize("fault", ["link_down", "job_restart"])
    def test_mltcp_reconverges(self, fault):
        result = fault_recovery(
            fault=fault, policy="mltcp", substrate="fluid", iterations=60, seed=5
        )
        assert result.recovered, result
        assert result.disturbed_rounds <= 10, result

    def test_job_restart_barely_disturbs_mltcp_but_derails_fair_share(self):
        mltcp = fault_recovery(
            fault="job_restart", policy="mltcp", substrate="fluid",
            iterations=60, seed=5,
        )
        reno = fault_recovery(
            fault="job_restart", policy="reno", substrate="fluid",
            iterations=60, seed=5,
        )
        assert mltcp.disturbed_rounds <= 2
        assert reno.disturbed_rounds > mltcp.disturbed_rounds

    def test_custom_schedule_json_is_replayed(self):
        schedule = FaultSchedule(
            events=(FaultEvent(kind="ecn_storm", time=30.0, duration=5.0),),
            seed=5,
        )
        result = fault_recovery(
            fault="custom", policy="mltcp", substrate="fluid",
            iterations=60, seed=5, schedule_json=schedule.to_json(),
        )
        assert result.fault == "custom"  # with a schedule, fault is a label
        assert any("t=30s" in line for line in result.fault_log)

    @pytest.mark.parametrize("substrate", ["fluid", "packet"])
    @pytest.mark.parametrize(
        "event, message",
        [
            (FaultEvent(kind="straggler", time=1.0, duration=1.0, job="ghost",
                        factor=2.0), "job 'ghost' is not in the scenario"),
            (FaultEvent(kind="link_down", time=1.0, duration=1.0,
                        link="sw_x->sw_r"), "link 'sw_x->sw_r' does not exist"),
            (FaultEvent(kind="spine_down", time=1.0, duration=1.0,
                        spine="spine0"), "fabric fault needs a multi-rack fabric"),
        ],
        ids=["job", "link", "fabric"],
    )
    def test_custom_schedule_targets_checked_before_any_run(
        self, monkeypatch, substrate, event, message
    ):
        from repro.harness import experiments

        def no_run(*args, **kwargs):
            raise AssertionError("the schedule should fail before a run")

        monkeypatch.setattr(experiments, "run_fluid", no_run)
        monkeypatch.setattr(experiments, "run_packet_jobs", no_run)
        schedule = FaultSchedule(events=(event,))
        with pytest.raises(ValueError, match=rf"event #0 .*{message}"):
            fault_recovery(substrate=substrate, schedule_json=schedule.to_json())

    @pytest.mark.parametrize("substrate", ["fluid", "packet"])
    def test_one_control_run_per_sweep_cell(self, monkeypatch, substrate):
        """Two fault classes of one (substrate, policy, seed) share the
        fault-free control run, and each result owns its series copy."""
        from repro.harness import experiments

        runs = {"control": 0, "faulted": 0}
        for name in ("run_fluid", "run_packet_jobs"):
            real = getattr(experiments, name)

            def counted(*args, real=real, **kwargs):
                runs["control" if kwargs["faults"] is None else "faulted"] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(experiments, name, counted)
        # A seed no other test uses, so no earlier call shares the cell.
        results = [
            fault_recovery(
                fault=fault, policy="mltcp", substrate=substrate,
                iterations=30, seed=7919,
            )
            for fault in ("link_down", "bandwidth")
        ]
        assert runs == {"control": 1, "faulted": 2}
        first, second = (r.baseline_series for r in results)
        assert first.tobytes() == second.tobytes()
        assert not np.shares_memory(first, second)

    def test_unknown_fault_and_policy_rejected(self):
        with pytest.raises(ValueError, match="link_down"):
            fault_recovery(fault="gremlin", substrate="fluid")
        with pytest.raises(ValueError, match="policy"):
            fault_recovery(policy="carrier-pigeon", substrate="fluid")
        with pytest.raises(ValueError, match="substrate"):
            fault_recovery(substrate="abacus")


def _packet_jobs(n=2, comm_bits=2e6, compute=0.005):
    return [
        JobSpec(
            f"Job{i + 1}", comm_bits=comm_bits, demand_gbps=1.0,
            compute_time=compute,
        )
        for i in range(n)
    ]


class TestPacketInjector:
    def test_bad_link_name_fails_before_the_clock_starts(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    kind="link_down", time=0.1, duration=0.1, link="no->where"
                ),
            )
        )
        with pytest.raises(ValueError, match="does not exist"):
            run_packet_jobs(
                _packet_jobs(), lambda job: MLTCPReno(mltcp_config_for(job)),
                max_iterations=2, faults=schedule,
            )

    def test_link_down_drops_and_recovers(self):
        schedule = _flap(time=0.03, duration=0.01)
        result = run_packet_jobs(
            _packet_jobs(),
            lambda job: MLTCPReno(mltcp_config_for(job)),
            max_iterations=20,
            until=0.5,
            faults=schedule,
        )
        bottleneck = result.network.links[("sw_l", "sw_r")]
        assert bottleneck.fault_drops > 0
        assert bottleneck.up  # reverted
        # Both jobs keep completing iterations after the flap.
        for job in result.jobs:
            assert len(result.iteration_times(job.name)) >= 10

    def test_ecn_storm_marks_dctcp_traffic(self):
        schedule = FaultSchedule(
            events=(FaultEvent(kind="ecn_storm", time=0.02, duration=0.02),)
        )
        result = run_packet_jobs(
            _packet_jobs(),
            lambda job: DctcpCC(),
            max_iterations=12,
            until=0.3,
            faults=schedule,
        )
        bottleneck = result.network.links[("sw_l", "sw_r")]
        assert bottleneck.storm_marks > 0
        assert not bottleneck.ecn_storm  # reverted

    def test_straggler_stretches_then_reverts_compute(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    kind="straggler", time=0.02, duration=0.05,
                    job="Job1", factor=4.0,
                ),
            )
        )
        result = run_packet_jobs(
            _packet_jobs(),
            lambda job: MLTCPReno(mltcp_config_for(job)),
            max_iterations=20,
            until=0.4,
            faults=schedule,
        )
        app = result.apps["Job1"]
        assert app.compute_scale == 1.0  # reverted by end of run
        # The straggler window must contain visibly stretched iterations.
        times = result.iteration_times("Job1")
        assert times.max() > 2.0 * np.median(times)

    def test_job_restart_aborts_transfer_and_resets_mltcp_progress(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    kind="job_restart", time=0.03, job="Job1",
                    restart_delay=0.01,
                ),
            )
        )
        result = run_packet_jobs(
            _packet_jobs(),
            lambda job: MLTCPReno(mltcp_config_for(job)),
            max_iterations=20,
            until=0.4,
            faults=schedule,
        )
        app = result.apps["Job1"]
        sender = result.senders["Job1"]
        assert app.restarts == 1
        assert sender.transfers_aborted == 1
        # The fresh iteration restarted Algorithm 1's progress: by the end
        # of the run bytes_sent reflects post-restart iterations only, never
        # a stale carry-over above one iteration's volume (ACKs are counted
        # in whole segments, so allow one MSS of rounding).
        tracker = sender.cc.mltcp.tracker
        assert tracker.bytes_sent <= result.jobs[0].comm_bytes + sender.mss_bytes
        assert len(result.iteration_times("Job1")) >= 8

    def test_job_restart_fully_resets_learned_tracker_state(self):
        # Regression (docs/ROBUSTNESS.md): restart used to reset only
        # bytes_sent, keeping the learned TOTAL_BYTES/COMP_TIME and the
        # completed-iteration history — so a pre-fault estimate poisoned
        # the max-window of the first post-restart iterations.  The
        # tracker must re-learn from post-restart traffic only.
        from repro.core.config import MLTCPConfig

        restart_time = 0.06
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    kind="job_restart", time=restart_time, job="Job1",
                    restart_delay=0.01,
                ),
            )
        )
        result = run_packet_jobs(
            _packet_jobs(),
            # Learning mode: TOTAL_BYTES unset, boundaries from comp_time.
            lambda job: MLTCPReno(
                MLTCPConfig(comp_time=max(1e-4, 0.3 * job.compute_time))
            ),
            max_iterations=40,
            until=0.4,
            faults=schedule,
        )
        assert result.apps["Job1"].restarts == 1
        tracker = result.senders["Job1"].cc.mltcp.tracker
        # Every surviving iteration record post-dates the restart: the
        # pre-fault history (and anything learned from it) was discarded.
        assert tracker.completed_iterations
        assert all(
            record.start_time >= restart_time
            for record in tracker.completed_iterations
        )
        # And re-learning completed from fresh traffic: the new estimate
        # matches the job's real per-iteration volume.
        comm_bytes = result.jobs[0].comm_bytes
        mss = result.senders["Job1"].mss_bytes
        assert tracker.total_bytes is not None
        assert 0.5 * comm_bytes <= tracker.total_bytes <= comm_bytes + 2 * mss

    def test_burst_loss_replays_deterministically(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    kind="loss_burst", time=0.02, duration=0.05, loss=0.05
                ),
            ),
            seed=9,
        )

        def run():
            return run_packet_jobs(
                _packet_jobs(),
                lambda job: MLTCPReno(mltcp_config_for(job)),
                max_iterations=15,
                until=0.3,
                seed=3,
                faults=schedule,
            )

        first, second = run(), run()
        for job in ("Job1", "Job2"):
            np.testing.assert_array_equal(
                first.iteration_times(job), second.iteration_times(job)
            )
        assert (
            first.network.links[("sw_l", "sw_r")].fault_drops
            == second.network.links[("sw_l", "sw_r")].fault_drops
            > 0
        )


class TestAppliedFaultLog:
    """Both substrates log the fault transitions they applied, not the
    ones the schedule listed."""

    @pytest.mark.parametrize("substrate", ["fluid", "packet"])
    def test_fault_after_the_run_is_not_logged(self, substrate):
        result = fault_recovery(
            "link_down", "mltcp", substrate, iterations=20,
            schedule_json=_flap(time=100.0, duration=1.0).to_json(),
        )
        assert result.fault_log == []

    def test_packet_strike_and_revert_are_logged_with_times(self):
        result = run_packet_jobs(
            _packet_jobs(), lambda job: MLTCPReno(mltcp_config_for(job)),
            max_iterations=10, faults=_flap(time=0.03, duration=0.01),
        )
        assert result.fault_log == [
            "t=0.03s: link_down on bottleneck at t=0.03s for 0.01s",
            "t=0.04s: link_down on sw_l->sw_r reverted",
        ]


@pytest.mark.slow
class TestRecoveryPacket:
    @pytest.mark.parametrize("fault", ["link_down", "job_restart"])
    def test_mltcp_reconverges(self, fault):
        result = fault_recovery(
            fault=fault, policy="mltcp", substrate="packet",
            iterations=40, seed=5,
        )
        assert result.recovered, result
        assert result.disturbed_rounds <= 12, result
        assert result.fault_log  # the schedule actually armed something
