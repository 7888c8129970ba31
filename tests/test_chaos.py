"""Fabric chaos engineering: failure-aware ECMP rerouting, seeded chaos
campaigns, and recovery SLOs.

Covers the shared :class:`FabricRoutingState`, the fabric fault kinds'
validation and rendering, packet-vs-fluid injector equivalence on a fat
tree, the :class:`ChaosCampaign` generator's budget guarantees, the
recovery-SLO metrics, and the end-to-end acceptance claim: after every
single-spine failure MLTCP re-reaches the §4 interleavable condition by
itself while fair share does not.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FABRIC_KINDS,
    FAULT_KINDS,
    ChaosBudget,
    ChaosCampaign,
    FabricRoutingState,
    FaultEvent,
    FaultSchedule,
    generate_campaign,
    rehashed_seed,
)
from repro.faults.schedule import _DESCRIBE_RECIPES
from repro.fluid import network
from repro.fluid.fabric import FluidFabricFaults, place_on_fabric
from repro.fluid.flowsim import IterationResult
from repro.fluid.network import NetworkFluidSimulator
from repro.metrics.recovery import (
    FaultWindow,
    fault_windows,
    goodput_deficit_bits,
    reinterleave_time,
    reroute_outage,
    recovery_slos,
)
from repro.simulator.engine import Simulator
from repro.simulator.topology import build_fat_tree
from repro.workloads import cross_rack_scenario
from repro.workloads.job import JobSpec
from repro.workloads.placement import FabricSpec, JobPlacement, place_jobs


def small_spec(**overrides) -> FabricSpec:
    params = dict(
        n_racks=4, hosts_per_rack=2, n_spines=2, oversubscription=2.0,
        ecmp_seed=2,
    )
    params.update(overrides)
    return FabricSpec(**params)


def spine_down(spine: str, time: float = 0.1, duration: float = 0.1) -> FaultEvent:
    return FaultEvent("spine_down", time=time, duration=duration, spine=spine)


class TestFabricRoutingState:
    def test_healthy_state_matches_spec_paths(self):
        spec = small_spec()
        state = FabricRoutingState(spec)
        assert state.healthy()
        for src in spec.host_names():
            for dst in spec.host_names():
                if src == dst:
                    continue
                assert state.path_nodes(src, dst) == spec.path_nodes(src, dst)

    def test_spine_down_reroutes_over_survivor_and_reverts(self):
        spec = small_spec()
        state = FabricRoutingState(spec)
        event = spine_down("spine0")
        state.apply(event)
        assert not state.healthy()
        src, dst = spec.host_name(0, 0), spec.host_name(2, 0)
        path = state.path_nodes(src, dst)
        assert path is not None and "spine1" in path and "spine0" not in path
        state.revert(event)
        assert state.healthy()
        assert state.path_nodes(src, dst) == spec.path_nodes(src, dst)

    def test_revert_without_apply_raises(self):
        state = FabricRoutingState(small_spec())
        with pytest.raises(ValueError, match="without a matching apply"):
            state.revert(spine_down("spine0"))

    def test_overlapping_identical_faults_are_reference_counted(self):
        state = FabricRoutingState(small_spec())
        first = spine_down("spine0", time=0.1)
        second = spine_down("spine0", time=0.15)
        state.apply(first)
        state.apply(second)
        state.revert(first)
        # One hold remains: the spine must stay down.
        assert not state.healthy()
        state.revert(second)
        assert state.healthy()

    def test_rack_partition_blackholes_only_that_rack(self):
        spec = small_spec()
        state = FabricRoutingState(spec)
        event = FaultEvent(
            "rack_partition", time=0.1, duration=0.1, rack="rack0"
        )
        state.apply(event)
        assert state.path_nodes(spec.host_name(0, 0), spec.host_name(1, 0)) is None
        # Intra-rack traffic of the partitioned rack never leaves the ToR.
        assert (
            state.path_nodes(spec.host_name(0, 0), spec.host_name(0, 1))
            is not None
        )
        # Unrelated racks still talk.
        assert (
            state.path_nodes(spec.host_name(1, 0), spec.host_name(2, 0))
            is not None
        )

    def test_uplink_down_severs_one_rack_spine_pair(self):
        spec = small_spec()
        state = FabricRoutingState(spec)
        state.apply(
            FaultEvent("uplink_down", time=0.1, duration=0.1, link="rack0->spine0")
        )
        assert not state.uplink_up(0, 0)
        assert state.uplink_up(0, 1)
        assert state.uplink_up(1, 0)
        assert state.surviving_spines(0, 2) == (1,)

    def test_down_links_cover_both_directions(self):
        state = FabricRoutingState(small_spec())
        state.apply(spine_down("spine1"))
        down = state.down_links()
        assert "rack0->spine1" in down and "spine1->rack0" in down
        assert not any("spine0" in link for link in down)

    def test_ecmp_rehash_reshuffles_and_restores(self):
        spec = small_spec()
        state = FabricRoutingState(spec)
        baseline = {
            (src, dst): state.path_nodes(src, dst)
            for src in spec.host_names()
            for dst in spec.host_names()
            if src != dst
        }
        event = FaultEvent("ecmp_rehash", time=0.1, duration=0.1)
        state.apply(event)
        assert state.ecmp_seed == rehashed_seed(spec.ecmp_seed, 1)
        rehashed = {
            pair: state.path_nodes(*pair) for pair in baseline
        }
        assert rehashed != baseline  # some spine choices moved
        state.revert(event)
        assert {pair: state.path_nodes(*pair) for pair in baseline} == baseline

    def test_generation_counter_tracks_every_transition(self):
        state = FabricRoutingState(small_spec())
        start = state.generation
        event = spine_down("spine0")
        state.apply(event)
        state.revert(event)
        assert state.generation == start + 2


class TestFabricValidation:
    def test_spine_existence_error_names_valid_spines(self):
        spec = small_spec()
        schedule = FaultSchedule(events=(spine_down("spine7"),))
        with pytest.raises(ValueError, match=r"valid spines.*spine0.*spine1"):
            schedule.validate(fabric=spec)

    def test_uplink_existence_error_names_valid_uplinks(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    "uplink_down", time=0.1, duration=0.1, link="rack0->spine9"
                ),
            )
        )
        with pytest.raises(ValueError, match="valid uplinks"):
            schedule.validate(fabric=small_spec())

    def test_rack_existence_error_names_valid_racks(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent("rack_partition", time=0.1, duration=0.1, rack="rack9"),
            )
        )
        with pytest.raises(ValueError, match="valid racks"):
            schedule.validate(fabric=small_spec())

    def test_network_also_accepted_as_fabric(self):
        from repro.simulator.engine import Simulator
        from repro.simulator.topology import build_fat_tree

        spec = small_spec()
        network = build_fat_tree(Simulator(), spec)
        schedule = FaultSchedule(events=(spine_down("spine0"),))
        schedule.validate(fabric=network)  # does not raise
        bad = FaultSchedule(events=(spine_down("spine9"),))
        with pytest.raises(ValueError, match="valid spines"):
            bad.validate(fabric=network)

    def test_non_fabric_kind_rejects_spine_target(self):
        with pytest.raises(ValueError, match="only fabric faults"):
            FaultSchedule(
                events=(
                    FaultEvent(
                        "link_down", time=0.1, duration=0.1, spine="spine0"
                    ),
                )
            )

    def test_fabric_kind_needs_positive_duration(self):
        with pytest.raises(ValueError, match="positive duration"):
            FaultSchedule(events=(spine_down("spine0", duration=0.0),))

    def test_ecmp_rehash_takes_no_target(self):
        with pytest.raises(ValueError, match="no target"):
            FaultSchedule(
                events=(
                    FaultEvent(
                        "ecmp_rehash", time=0.1, duration=0.1, spine="spine0"
                    ),
                )
            )

    def test_fabric_events_round_trip_through_json(self):
        schedule = FaultSchedule(
            events=(
                spine_down("spine0", time=0.2, duration=0.3),
                FaultEvent("ecmp_rehash", time=0.6, duration=0.1),
            ),
            seed=7,
        )
        restored = FaultSchedule.from_json(schedule.to_json())
        assert restored == schedule


class TestDescribeTable:
    #: A minimal valid sample of every kind, for table-driven rendering.
    SAMPLES = {
        "link_down": FaultEvent("link_down", 1.0, 2.0, link="a->b"),
        "bandwidth": FaultEvent("bandwidth", 1.0, 2.0, link="a->b", factor=0.5),
        "loss_burst": FaultEvent("loss_burst", 1.0, 2.0, link="a->b", loss=0.05),
        "ecn_storm": FaultEvent("ecn_storm", 1.0, 2.0, link="a->b"),
        "straggler": FaultEvent("straggler", 1.0, 2.0, job="Job1", factor=2.0),
        "job_restart": FaultEvent("job_restart", 1.0, job="Job1", restart_delay=0.5),
        "spine_down": FaultEvent("spine_down", 1.0, 2.0, spine="spine0"),
        "uplink_down": FaultEvent("uplink_down", 1.0, 2.0, link="rack0->spine1"),
        "rack_partition": FaultEvent("rack_partition", 1.0, 2.0, rack="rack2"),
        "ecmp_rehash": FaultEvent("ecmp_rehash", 1.0, 2.0),
    }

    def test_recipes_cover_every_kind_exactly(self):
        # A new kind cannot ship without a describe() rendering: the recipe
        # table and the kind catalogue must stay in lockstep.
        assert set(_DESCRIBE_RECIPES) == set(FAULT_KINDS)
        assert set(self.SAMPLES) == set(FAULT_KINDS)

    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    def test_every_kind_renders_its_target_and_parameters(self, kind):
        event = self.SAMPLES[kind]
        text = event.describe()
        assert text.startswith(f"{kind} on {event.target}")
        assert "t=1s" in text
        field_name, params = _DESCRIBE_RECIPES[kind]
        if field_name:
            assert getattr(event, field_name) in text
        for param, suffix in params:
            assert f"{param}={getattr(event, param):g}{suffix}" in text

    def test_untargeted_kinds_fall_back_to_substrate_default(self):
        assert FaultEvent("ecmp_rehash", 1.0, 2.0).target == "the fabric"
        assert FaultEvent("link_down", 1.0, 2.0).target == "bottleneck"


class TestChaosCampaign:
    BUDGET = ChaosBudget(
        horizon=1.0, mtbf=0.2, mean_duration=0.1, start=0.5, max_concurrent=1
    )

    def test_generation_is_bit_reproducible(self):
        spec = small_spec()
        one = generate_campaign(spec, self.BUDGET, seed=11)
        two = generate_campaign(spec, self.BUDGET, seed=11)
        assert one == two
        assert generate_campaign(spec, self.BUDGET, seed=12) != one

    def test_campaigns_are_decorrelated_but_individually_stable(self):
        campaign = ChaosCampaign(
            spec=small_spec(), budget=self.BUDGET, seed=3, n_campaigns=3
        )
        schedules = campaign.schedules()
        assert len({tuple(s.events) for s in schedules}) == 3
        assert campaign.schedule(1) == schedules[1]
        with pytest.raises(IndexError):
            campaign.campaign_seed(3)

    def test_schedules_respect_the_budget_window_and_kinds(self):
        spec = small_spec()
        for seed in range(5):
            schedule = generate_campaign(spec, self.BUDGET, seed=seed)
            assert len(schedule) >= self.BUDGET.min_events
            for event in schedule:
                assert event.kind in self.BUDGET.kinds
                assert self.BUDGET.start <= event.time
                assert event.time < self.BUDGET.start + self.BUDGET.horizon
                assert (
                    0.25 * self.BUDGET.mean_duration
                    <= event.duration
                    <= 2.0 * self.BUDGET.mean_duration
                )

    def test_max_concurrent_bounds_overlap(self):
        spec = small_spec()
        budget = ChaosBudget(
            horizon=1.0, mtbf=0.05, mean_duration=0.3, max_concurrent=2,
        )
        for seed in range(3):
            schedule = generate_campaign(spec, budget, seed=seed)
            for when in schedule.transition_times():
                active = [
                    event
                    for event in schedule
                    if event.time <= when < event.end_time
                ]
                assert len(active) <= budget.max_concurrent

    def test_blast_radius_never_disconnects_without_allow_blackhole(self):
        spec = small_spec()
        budget = ChaosBudget(
            horizon=2.0, mtbf=0.05, mean_duration=0.4, max_concurrent=4,
        )
        for seed in range(3):
            schedule = generate_campaign(spec, budget, seed=seed)
            for when in schedule.transition_times():
                state = FabricRoutingState(spec)
                for event in schedule:
                    if event.time <= when < event.end_time:
                        state.apply(event)
                for src in range(spec.n_racks):
                    for dst in range(spec.n_racks):
                        if src != dst:
                            assert state.surviving_spines(src, dst)

    def test_rack_partition_requires_allow_blackhole(self):
        with pytest.raises(ValueError, match="allow_blackhole"):
            ChaosBudget(
                horizon=1.0, mtbf=0.2, mean_duration=0.1,
                kinds=("rack_partition",),
            )
        budget = ChaosBudget(
            horizon=2.0, mtbf=0.2, mean_duration=0.1,
            kinds=("rack_partition",), allow_blackhole=True,
        )
        schedule = generate_campaign(small_spec(), budget, seed=0)
        assert all(e.kind == "rack_partition" for e in schedule)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fabric fault kinds"):
            ChaosBudget(
                horizon=1.0, mtbf=0.2, mean_duration=0.1, kinds=("link_down",)
            )

    def test_unsatisfiable_budget_raises_actionably(self):
        budget = ChaosBudget(
            horizon=1e-6, mtbf=10.0, mean_duration=0.1, min_events=3
        )
        with pytest.raises(ValueError, match="widen the horizon"):
            generate_campaign(small_spec(), budget, seed=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("horizon", float("inf")),
            ("horizon", float("nan")),
            ("mtbf", float("nan")),
            ("mtbf", float("inf")),
            ("mean_duration", float("nan")),
            ("mean_duration", float("inf")),
            ("start", float("nan")),
            ("start", float("inf")),
        ],
    )
    def test_non_finite_budget_names_its_field(self, field, value):
        # Construction only: sampling an infinite horizon never returned,
        # and NaN failed 64 passes later blaming the horizon or a duration.
        params = dict(horizon=1.0, mtbf=0.2, mean_duration=0.1, start=0.5)
        params[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be .* and finite"):
            ChaosBudget(**params)


class TestInjectorEquivalence:
    """Satellite (c): both substrates traverse identical links under the
    same seeded schedule, including a spine_down."""

    def _placements(self, spec):
        jobs = cross_rack_scenario(spec.n_hosts // 2, jitter_sigma=0.0005)
        return place_jobs(jobs, spec, policy="spread", seed=2)

    def test_mid_fault_routes_agree_between_substrates(self):
        from repro.harness.packetlab import (
            mltcp_config_for,
            run_packet_placements,
        )
        from repro.tcp.mltcp import MLTCPReno

        spec = small_spec()
        placements = self._placements(spec)
        event = spine_down("spine0", time=0.05, duration=0.4)
        schedule = FaultSchedule(events=(event,), seed=2)
        mid = 0.2

        # Independent expectation: the shared rule over surviving spines.
        expected = FabricRoutingState(spec)
        expected.apply(event)

        lab = run_packet_placements(
            placements,
            spec,
            lambda job: MLTCPReno(mltcp_config_for(job)),
            max_iterations=64,
            until=mid,
            seed=2,
            faults=schedule,
        )
        fluid_faults = FluidFabricFaults(spec, schedule)
        fluid_faults.advance_to(mid)
        placed = place_on_fabric(spec, placements)

        for placement, fluid_job in zip(placements, placed):
            packet_path = lab.network.routes[(placement.src, placement.dst)]
            assert tuple(packet_path) == expected.path_nodes(
                placement.src, placement.dst
            )
            assert fluid_faults.links_for(fluid_job) == expected.path_links(
                placement.src, placement.dst
            )
            if placement.cross_rack:
                assert "spine0" not in packet_path

    def test_whole_run_spine_down_idles_the_same_links(self):
        from repro.fluid.network import run_network_fluid
        from repro.harness.packetlab import (
            mltcp_config_for,
            run_packet_placements,
        )
        from repro.tcp.mltcp import MLTCPReno

        spec = small_spec()
        placements = self._placements(spec)
        schedule = FaultSchedule(
            events=(spine_down("spine0", time=0.0, duration=50.0),), seed=2
        )
        iterations = 10

        fluid = run_network_fluid(
            place_on_fabric(spec, placements),
            spec.capacities_gbps(),
            max_iterations=iterations,
            seed=2,
            quantum=min(0.02, placements[0].job.ideal_iteration_time / 10.0),
            fabric_faults=FluidFabricFaults(spec, schedule),
        )
        lab = run_packet_placements(
            placements,
            spec,
            lambda job: MLTCPReno(mltcp_config_for(job)),
            max_iterations=iterations,
            seed=2,
            faults=schedule,
        )
        fluid_util = fluid.link_utilization()
        packet_util = lab.network.link_utilization()
        for link in spec.fabric_links():
            used_fluid = fluid_util[link] > 0.02
            used_packet = packet_util[link] > 0.02
            assert used_fluid == used_packet, (
                f"{link}: fluid {fluid_util[link]:.3f} vs packet "
                f"{packet_util[link]:.3f}"
            )
            if "spine0" in link:
                assert not used_fluid


#: The instant at which every generated fault is active.
_ACTIVE_AT = 1.0


@st.composite
def faulted_fabrics(draw):
    """A small fabric plus fabric faults that all overlap ``_ACTIVE_AT``."""
    spec = FabricSpec(
        n_racks=draw(st.integers(2, 5)),
        hosts_per_rack=draw(st.integers(1, 3)),
        n_spines=draw(st.integers(1, 4)),
        ecmp_seed=draw(st.integers(0, 2**32 - 1)),
    )
    racks = st.integers(0, spec.n_racks - 1).map(spec.rack_name)
    spines = st.integers(0, spec.n_spines - 1).map(spec.spine_name)
    strike = st.sampled_from((0.25, 0.5, 0.75))
    event = st.one_of(
        st.builds(lambda s, t: FaultEvent("spine_down", t, 1.0, spine=s),
                  spines, strike),
        st.builds(lambda r, s, t: FaultEvent("uplink_down", t, 1.0,
                                             link=f"{r}->{s}"),
                  racks, spines, strike),
        st.builds(lambda r, t: FaultEvent("rack_partition", t, 1.0, rack=r),
                  racks, strike),
        st.builds(lambda t: FaultEvent("ecmp_rehash", t, 1.0), strike),
    )
    return spec, tuple(draw(st.lists(event, max_size=4)))


class TestGeneratedRouteAgreement:
    """Packet routes equal fluid routes on generated fabrics under any mix
    of simultaneously active fabric faults."""

    @settings(max_examples=60, deadline=None)
    @given(faulted_fabrics())
    def test_packet_and_fluid_routes_agree(self, case):
        spec, events = case
        state = FabricRoutingState(spec)
        for event in events:
            state.apply(event)
        net = build_fat_tree(Simulator(), spec)
        net.apply_routing(state)
        fluid = FluidFabricFaults(spec, FaultSchedule(events=events))
        fluid.advance_to(_ACTIVE_AT)

        job = JobSpec(name="J", comm_bits=1e6, demand_gbps=1.0,
                      compute_time=0.01)
        pairs = [(src, dst) for src in spec.host_names()
                 for dst in spec.host_names() if src != dst]
        placed = place_on_fabric(
            spec, [JobPlacement(job=job, src=src, dst=dst) for src, dst in pairs]
        )
        for (src, dst), flow in zip(pairs, placed):
            path = state.path_nodes(src, dst)
            links = fluid.links_for(flow)
            if path is None:
                assert links is None, (src, dst)
                continue
            route = net.routes[(src, dst)]
            assert route == path, (src, dst)
            assert links == tuple(f"{a}->{b}" for a, b in zip(route, route[1:]))


class TestFluidFabricReplay:
    @pytest.mark.parametrize(
        "min_flows", [network._VECTORIZED_MIN_FLOWS, 1], ids=["default", "array"]
    )
    def test_second_run_replays_the_schedule(self, monkeypatch, min_flows):
        """Every ``run()`` replays the fabric faults from the start on its
        own copy of the fault state, leaving the caller's untouched.  The
        jobs are jitter-free because the RNG stream carries on from one run
        to the next."""
        monkeypatch.setattr(network, "_VECTORIZED_MIN_FLOWS", min_flows)
        spec = small_spec()
        placements = place_jobs(
            cross_rack_scenario(spec.n_hosts // 2, jitter_sigma=0.0),
            spec,
            policy="spread",
            seed=2,
        )
        schedule = FaultSchedule(
            events=(
                spine_down("spine0", time=0.05, duration=0.3),
                FaultEvent(
                    "bandwidth", time=0.1, duration=0.15,
                    link="rack2->spine1", factor=0.5,
                ),
            ),
            seed=2,
        )
        faults = FluidFabricFaults(spec, schedule)
        simulator = NetworkFluidSimulator(
            place_on_fabric(spec, placements),
            spec.capacities_gbps(),
            quantum=min(0.02, placements[0].job.ideal_iteration_time / 10.0),
            fabric_faults=faults,
        )

        def fingerprint(result):
            return (
                [
                    (it.job, it.index, it.comm_start.hex(), it.comm_end.hex(),
                     it.iteration_end.hex())
                    for it in result.iterations
                ],
                result.end_time.hex(),
                result.fault_log,
                {link: bits.hex()
                 for link, bits in result.delivered_bits_by_link.items()},
            )

        first = fingerprint(simulator.run(max_iterations=10))
        second = fingerprint(simulator.run(max_iterations=10))
        assert second == first
        assert len(first[2]) == 4
        assert faults.entries == []


class TestRecoveryMetrics:
    def _iteration(self, job, index, start, duration):
        return IterationResult(
            job=job,
            index=index,
            comm_start=start,
            comm_end=start + 0.5 * duration,
            iteration_end=start + duration,
        )

    def _run(self, durations_by_job):
        iterations = []
        for job, durations in durations_by_job.items():
            t = 0.0
            for i, duration in enumerate(durations):
                iterations.append(self._iteration(job, i, t, duration))
                t += duration
        return iterations

    def test_fault_windows_keep_only_lasting_faults(self):
        schedule = FaultSchedule(
            events=(
                FaultEvent("job_restart", time=0.5, job="Job1"),
                spine_down("spine0", time=0.2, duration=0.3),
            )
        )
        windows = fault_windows(schedule)
        assert [w.description for w in windows] == [
            "spine_down on spine0 at t=0.2s for 0.3s"
        ]
        assert windows[0].start == 0.2 and windows[0].end == 0.5

    def test_reroute_outage_zero_when_paths_survive(self):
        spec = small_spec()
        placements = place_jobs(
            cross_rack_scenario(4), spec, policy="spread", seed=2
        )
        event = spine_down("spine0", time=0.1, duration=0.2)
        schedule = FaultSchedule(events=(event,))
        assert reroute_outage(spec, schedule, event, placements) == 0.0

    def test_reroute_outage_equals_duration_when_blackholed(self):
        spec = small_spec()
        placements = place_jobs(
            cross_rack_scenario(4), spec, policy="spread", seed=2
        )
        event = FaultEvent(
            "rack_partition", time=0.1, duration=0.2, rack="rack0"
        )
        schedule = FaultSchedule(events=(event,))
        assert reroute_outage(spec, schedule, event, placements) == 0.2

    def test_reroute_outage_accounts_for_concurrent_faults(self):
        spec = small_spec()
        placements = place_jobs(
            cross_rack_scenario(4), spec, policy="spread", seed=2
        )
        first = spine_down("spine0", time=0.1, duration=0.4)
        second = spine_down("spine1", time=0.2, duration=0.1)
        schedule = FaultSchedule(events=(first, second))
        # Alone, either spine failure reroutes instantly; together they
        # disconnect every rack pair for the second fault's lifetime.
        assert reroute_outage(spec, schedule, first, placements) == 0.0
        assert reroute_outage(spec, schedule, second, placements) == 0.1

    def test_reinterleave_time_finds_first_confirmed_round(self):
        # Two jobs; rounds cost 1.0 until the fault stretches rounds 3-4,
        # then settle back to 1.0.  Recovery at t=5.0.
        run = self._run(
            {
                "A": [1.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 1.0],
                "B": [1.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 1.0],
            }
        )
        delay = reinterleave_time(
            run,
            ["A", "B"],
            recovery_time=5.0,
            ideal_iteration_time=1.0,
            tolerance=0.1,
            window=3,
        )
        # First good round after recovery completes at t=8.0.
        assert delay == pytest.approx(3.0)

    def test_reinterleave_time_none_when_never_back_within_tolerance(self):
        run = self._run({"A": [1.3] * 10, "B": [1.3] * 10})
        assert (
            reinterleave_time(
                run,
                ["A", "B"],
                recovery_time=0.0,
                ideal_iteration_time=1.0,
                tolerance=0.1,
                window=3,
            )
            is None
        )

    def test_goodput_deficit_counts_missing_iterations(self):
        window = FaultWindow(spine_down("spine0", time=2.0, duration=2.0))
        control = self._run({"A": [1.0] * 8})
        faulted = self._run({"A": [1.0, 1.0, 2.0, 2.0, 1.0, 1.0]})
        lost = goodput_deficit_bits(
            faulted, control, window, {"A": 100.0}, margin=0.0
        )
        # Control completes rounds ending at 3.0 and 4.0 inside the window;
        # the faulted run only completes the one ending at 4.0.
        assert lost == pytest.approx(100.0)

    def test_recovery_slos_assembles_one_slo_per_window(self):
        spec = small_spec()
        placements = place_jobs(
            cross_rack_scenario(4), spec, policy="spread", seed=2
        )
        schedule = FaultSchedule(
            events=(
                spine_down("spine0", time=2.0, duration=1.0),
                FaultEvent("ecmp_rehash", time=5.0, duration=0.5),
            )
        )
        jobs = {p.job.name: [1.0] * 10 for p in placements}
        run = self._run(jobs)
        slos = recovery_slos(
            spec,
            schedule,
            placements,
            run,
            run,
            ideal_iteration_time=1.0,
            interleavable=True,
        )
        assert len(slos) == 2
        assert all(slo.time_to_reroute == 0.0 for slo in slos)
        assert all(slo.reinterleaved for slo in slos)
        assert all(slo.goodput_lost_bits == 0.0 for slo in slos)
        record = slos[0].as_record()
        assert record["fault"].startswith("spine_down on spine0")
        assert record["interleavable"] is True


#: A hand-built schedule: a windowed fault, two faults striking at one
#: time, and an instant (zero-duration) fault.
CONTEXT_SCHEDULE = FaultSchedule(
    events=(
        spine_down("spine0", time=1.0, duration=0.5),
        spine_down("spine1", time=3.0, duration=1.0),
        FaultEvent(
            "bandwidth", time=3.0, duration=0.25, link="rack0->spine0", factor=0.5
        ),
        FaultEvent("job_restart", time=6.0, job="Job1"),
    )
)


class TestFaultContext:
    """The fault transition chaos annotates a guard report with: the
    latest strike or reversion at or before the report's time."""

    @pytest.mark.parametrize(
        "time, expected",
        [
            (0.5, None),
            (1.0, "t=1s: spine_down on spine0 at t=1s for 0.5s"),
            (1.2, "t=1s: spine_down on spine0 at t=1s for 0.5s"),
            (1.5, "t=1.5s: spine_down on spine0 reverted"),
            (2.0, "t=1.5s: spine_down on spine0 reverted"),
            # Two strikes at t=3: the later-listed one applied last.
            (3.1, "t=3s: bandwidth on rack0->spine0 at t=3s for 0.25s factor=0.5"),
            (3.5, "t=3.25s: bandwidth on rack0->spine0 reverted"),
            (5.0, "t=4s: spine_down on spine1 reverted"),
            # An instant fault has no reversion: its strike stays latest.
            (7.0, "t=6s: job_restart on Job1 at t=6s restart_delay=0s"),
        ],
        ids=[
            "before-first", "at-strike", "in-window", "at-revert", "after-revert",
            "same-time-strikes", "same-time-revert", "later-revert", "instant",
        ],
    )
    def test_latest_transition(self, time, expected):
        from repro.harness.experiments import _fault_context

        assert _fault_context(CONTEXT_SCHEDULE, time) == expected


class TestChaosRecoveryAcceptance:
    """The PR's headline claim, end to end on the default fabric."""

    @pytest.fixture(scope="class")
    def results(self):
        from repro.harness import chaos_recovery

        return chaos_recovery(substrate="fluid", campaigns=3, iterations=48)

    def test_mltcp_reinterleaves_after_every_fault(self, results):
        assert len(results) == 3
        sampled_kinds = {e.kind for r in results for e in r.schedule}
        # The default budget samples across fabric kinds; a single-spine
        # failure must be among them for the headline claim to bite.
        assert "spine_down" in sampled_kinds
        for result in results:
            assert result.reinterleaved("mltcp"), (
                f"campaign {result.campaign_index}: "
                f"{[s.as_record() for s in result.slos['mltcp']]}"
            )

    def test_fair_share_never_reinterleaves(self, results):
        for result in results:
            assert not any(s.reinterleaved for s in result.slos["fair"])

    def test_single_spine_failures_reroute_instantly(self, results):
        for result in results:
            assert result.total_outage() == 0.0

    def test_placement_is_statically_interleavable(self, results):
        for result in results:
            assert all(
                s.interleavable
                for policy in ("mltcp", "fair")
                for s in result.slos[policy]
            )

    def test_campaigns_are_bit_reproducible(self, results):
        from repro.harness import chaos_recovery

        rerun = chaos_recovery(substrate="fluid", campaigns=3, iterations=48)
        for first, second in zip(results, rerun):
            assert first.schedule == second.schedule
            assert first.slos == second.slos
            for policy in ("mltcp", "fair"):
                np.testing.assert_array_equal(
                    first.series[policy], second.series[policy]
                )

    def test_recovery_section_round_trips_through_telemetry(self, results):
        from repro.harness.telemetry import (
            REPORT_SCHEMA_VERSION,
            RunTelemetry,
            validate_run_report,
        )

        telemetry = RunTelemetry("test.chaos")
        for result in results:
            for policy in ("mltcp", "fair"):
                for slo in result.slos[policy]:
                    telemetry.record(
                        "recovery",
                        **slo.as_record(),
                        policy=policy,
                        substrate=result.substrate,
                        campaign=result.campaign_index,
                    )
        report = json.loads(json.dumps(telemetry.as_report()))
        assert validate_run_report(report) == []
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        entries = [r for r in report["records"] if r["kind"] == "recovery"]
        assert entries and all(e["fault"] for e in entries)
        mltcp = [e for e in entries if e["policy"] == "mltcp"]
        fair = [e for e in entries if e["policy"] == "fair"]
        assert all(e["reinterleaved"] for e in mltcp)
        assert not any(e["reinterleaved"] for e in fair)
