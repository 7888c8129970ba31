"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.aggressiveness import LinearAggressiveness, paper_functions
from repro.core.analysis import loss, shift, signed_shift
from repro.core.config import MLTCPConfig
from repro.core.iteration import IterationTracker
from repro.fluid.allocation import FairShare, FlowView, MLTCPWeighted, SRPT, water_fill
from repro.harness.report import sparkline
from repro.metrics.stats import empirical_cdf
from repro.simulator.engine import Simulator

ratios = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


class TestAggressivenessProperties:
    @given(ratio=ratios)
    def test_paper_functions_stay_in_declared_range(self, ratio):
        for f in paper_functions().values():
            assert 0.25 - 1e-9 <= f(ratio) <= 2.0 + 1e-9

    @given(a=ratios, b=ratios)
    def test_linear_is_monotone(self, a, b):
        f = LinearAggressiveness()
        lo, hi = min(a, b), max(a, b)
        assert f(lo) <= f(hi) + 1e-12

    @given(
        ratio=st.floats(min_value=-10, max_value=10, allow_nan=False),
        slope=st.floats(min_value=0.0, max_value=10.0),
        intercept=st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_linear_always_positive(self, ratio, slope, intercept):
        f = LinearAggressiveness(slope=slope, intercept=intercept)
        assert f(ratio) > 0


class TestShiftProperties:
    @given(
        delta=st.floats(min_value=0.0, max_value=1.0),
        alpha=st.floats(min_value=0.05, max_value=0.5),
        period=st.floats(min_value=0.5, max_value=10.0),
    )
    def test_shift_non_negative_and_bounded(self, delta, alpha, period):
        d = delta * alpha * period  # map into the overlap region
        value = shift(d, alpha, period)
        assert value >= 0.0
        # The shift never moves a pair past the disjoint point in one step.
        assert d + value <= alpha * period + 1e-9

    @given(
        delta=st.floats(min_value=0.0, max_value=10.0),
        alpha=st.floats(min_value=0.05, max_value=0.5),
    )
    def test_signed_shift_antisymmetry(self, delta, alpha):
        period = 2.0
        d = delta % period
        forward = signed_shift(d, alpha, period)
        backward = signed_shift((period - d) % period, alpha, period)
        assert forward == pytest.approx(-backward, abs=1e-9)

    @given(alpha=st.floats(min_value=0.1, max_value=0.5))
    @settings(max_examples=20, deadline=None)
    def test_loss_maximal_at_full_overlap(self, alpha):
        period = 2.0
        l0 = loss(1e-6, alpha, period)
        lmid = loss(period / 2, alpha, period)
        assert lmid <= l0 + 1e-9


class TestWaterFillProperties:
    flows = st.lists(
        st.tuples(positive, positive),  # (demand, weight)
        min_size=1,
        max_size=8,
    )

    @given(flows=flows, capacity=positive)
    def test_capacity_and_caps_respected(self, flows, capacity):
        demands = {f"f{i}": d for i, (d, _w) in enumerate(flows)}
        weights = {f"f{i}": w for i, (_d, w) in enumerate(flows)}
        rates = water_fill(demands, weights, capacity)
        assert sum(rates.values()) <= capacity * (1 + 1e-6) + 1e-9
        for fid, rate in rates.items():
            assert -1e-9 <= rate <= demands[fid] * (1 + 1e-6)

    @given(flows=flows, capacity=positive)
    def test_work_conserving(self, flows, capacity):
        """Either capacity is exhausted or every flow reached its demand."""
        demands = {f"f{i}": d for i, (d, _w) in enumerate(flows)}
        weights = {f"f{i}": w for i, (_d, w) in enumerate(flows)}
        rates = water_fill(demands, weights, capacity)
        total = sum(rates.values())
        all_capped = all(
            rates[fid] >= demands[fid] * (1 - 1e-6) for fid in demands
        )
        assert total >= min(capacity, sum(demands.values())) * (1 - 1e-6) or all_capped

    @given(
        weight_hi=st.floats(min_value=1.0, max_value=10.0),
        weight_lo=st.floats(min_value=0.01, max_value=1.0),
        capacity=positive,
    )
    def test_weight_monotonicity(self, weight_hi, weight_lo, capacity):
        assume(weight_hi > weight_lo)
        demands = {"hi": 1e6, "lo": 1e6}
        rates = water_fill(demands, {"hi": weight_hi, "lo": weight_lo}, capacity)
        assert rates["hi"] >= rates["lo"] - 1e-9


def _water_fill_reference(demands, weights, capacity):
    """The pre-optimization ``water_fill`` (sorted-set version), verbatim.

    The optimized implementation in :mod:`repro.fluid.allocation` keeps one
    incrementally-filtered sorted list instead of re-sorting a set every
    round; :class:`TestWaterFillEquivalence` pins the two to the same bits.
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity!r}")
    rates = {}
    unsaturated = {fid for fid in demands}
    remaining = capacity
    for fid, weight in weights.items():
        if weight < 0:
            raise ValueError(f"{fid}: weight must be non-negative, got {weight!r}")
    while unsaturated and remaining > 1e-12:
        total_weight = sum(weights[fid] for fid in sorted(unsaturated))
        if total_weight <= 0:
            equal = remaining / len(unsaturated)
            newly_capped = {
                fid for fid in unsaturated if demands[fid] <= equal + 1e-12
            }
            if not newly_capped:
                for fid in sorted(unsaturated):
                    rates[fid] = rates.get(fid, 0.0) + equal
                return rates
            for fid in sorted(newly_capped):
                rates[fid] = demands[fid]
                remaining -= demands[fid] - rates.get(fid, 0.0)
            remaining = capacity - sum(
                rates.get(fid, 0.0) for fid in demands if fid not in unsaturated
            )
            unsaturated -= newly_capped
            continue
        progressed = False
        shares = {
            fid: remaining * weights[fid] / total_weight
            for fid in sorted(unsaturated)
        }
        capped = {
            fid
            for fid in unsaturated
            if weights[fid] > 0 and shares[fid] >= demands[fid] - 1e-12
        }
        if capped:
            for fid in sorted(capped):
                rates[fid] = demands[fid]
                remaining -= demands[fid]
            unsaturated -= capped
            progressed = True
        if not progressed:
            for fid in sorted(unsaturated):
                rates[fid] = shares[fid]
            return {fid: max(0.0, rate) for fid, rate in rates.items()}
    for fid in sorted(unsaturated):
        rates.setdefault(fid, 0.0)
    return {fid: max(0.0, rate) for fid, rate in rates.items()}


class TestWaterFillEquivalence:
    """Optimized ``water_fill`` is bit-identical to the seed algorithm."""

    flows = st.lists(
        st.tuples(
            st.floats(min_value=1e3, max_value=1e12, allow_nan=False),  # demand
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),  # weight
        ),
        min_size=1,
        max_size=12,
    )

    @given(flows=flows, capacity=st.floats(min_value=1e3, max_value=1e12))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_bit_for_bit(self, flows, capacity):
        demands = {f"f{i}": d for i, (d, _w) in enumerate(flows)}
        weights = {f"f{i}": w for i, (_d, w) in enumerate(flows)}
        got = water_fill(demands, weights, capacity)
        want = _water_fill_reference(demands, weights, capacity)
        assert set(got) == set(want)
        for fid in want:
            assert got[fid].hex() == want[fid].hex(), fid

    @given(flows=flows, capacity=st.floats(min_value=1e3, max_value=1e12))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_with_all_zero_weights(self, flows, capacity):
        demands = {f"f{i}": d for i, (d, _w) in enumerate(flows)}
        weights = {fid: 0.0 for fid in demands}
        got = water_fill(demands, weights, capacity)
        want = _water_fill_reference(demands, weights, capacity)
        assert {fid: r.hex() for fid, r in got.items()} == {
            fid: r.hex() for fid, r in want.items()
        }

    def test_validation_matches_reference(self):
        with pytest.raises(ValueError):
            water_fill({"a": 1.0}, {"a": 1.0}, 0.0)
        with pytest.raises(ValueError):
            water_fill({"a": 1.0}, {"a": -1.0}, 1.0)


class TestPolicyProperties:
    flow_lists = st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=1.0),  # remaining fraction
            st.floats(min_value=0.0, max_value=1.0),  # sent fraction
        ),
        min_size=1,
        max_size=6,
    )

    def _views(self, specs):
        return [
            FlowView(
                flow_id=f"f{i}",
                demand_bps=25e9,
                remaining_bits=r * 2e9,
                sent_bits=s * 2e9,
                total_bits=2e9,
            )
            for i, (r, s) in enumerate(specs)
        ]

    @given(specs=flow_lists)
    @settings(max_examples=50, deadline=None)
    def test_all_policies_respect_capacity(self, specs):
        flows = self._views(specs)
        for policy in (FairShare(), MLTCPWeighted(), SRPT()):
            rates = policy.allocate(flows, 50e9)
            assert sum(rates.values()) <= 50e9 * (1 + 1e-6)
            assert set(rates) == {f.flow_id for f in flows}

    @given(specs=flow_lists)
    @settings(max_examples=50, deadline=None)
    def test_mltcp_never_starves(self, specs):
        flows = self._views(specs)
        rates = MLTCPWeighted().allocate(flows, 50e9)
        for rate in rates.values():
            assert rate > 0.0


class TestIterationTrackerProperties:
    @given(
        acks=st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=60)
    )
    def test_ratio_always_valid_and_monotone_within_iteration(self, acks):
        tracker = IterationTracker(
            MLTCPConfig(total_bytes=15000, comp_time=1e9)
        )
        now, previous = 0.0, 0.0
        for acked in acks:
            now += 0.001
            ratio = tracker.on_ack(now, acked)
            assert 0.0 <= ratio <= 1.0
            assert ratio >= previous - 1e-12  # no resets: monotone
            previous = ratio

    @given(
        total=st.integers(min_value=1, max_value=10**9),
        acked=st.integers(min_value=0, max_value=10**9),
    )
    def test_single_ack_ratio_formula(self, total, acked):
        tracker = IterationTracker(MLTCPConfig(total_bytes=total, comp_time=1e9))
        ratio = tracker.on_ack(0.0, acked)
        assert ratio == pytest.approx(min(1.0, acked / total))


class TestEngineProperties:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=40))
    def test_events_always_fire_in_order(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestStatsProperties:
    samples = st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=200,
    )

    @given(values=samples)
    def test_cdf_is_monotone_and_complete(self, values):
        xs, ps = empirical_cdf(values)
        assert np.all(np.diff(xs) >= 0)
        assert np.all(np.diff(ps) > 0)
        assert ps[-1] == pytest.approx(1.0)


class TestSparklineProperties:
    @given(
        values=st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=500,
        ),
        width=st.integers(min_value=1, max_value=120),
    )
    def test_never_exceeds_width(self, values, width):
        line = sparkline(values, width=width)
        assert 1 <= len(line) <= max(width, len(values) if len(values) <= width else width)


class TestMultiResourceProperties:
    from hypothesis import strategies as _st

    task_specs = _st.lists(
        _st.tuples(
            _st.floats(min_value=1.0, max_value=32.0),   # work
            _st.floats(min_value=1.0, max_value=16.0),   # demand
            _st.floats(min_value=0.1, max_value=3.0),    # think time
        ),
        min_size=1,
        max_size=4,
    )

    @given(specs=task_specs)
    @settings(max_examples=20, deadline=None)
    def test_progress_weighted_never_beats_ideal(self, specs):
        """No schedule can finish a cycle faster than its ideal time."""
        from repro.multiresource import ProgressWeighted, run_multiresource, two_phase_task

        tasks = [
            two_phase_task(f"T{i}", "cpu", work=w, demand=d, think_time=t)
            for i, (w, d, t) in enumerate(specs)
        ]
        result = run_multiresource(
            tasks, {"cpu": 16.0}, policy=ProgressWeighted(), max_iterations=3, seed=0
        )
        for task in tasks:
            times = result.iteration_times(task.name)
            # Tasks keep cycling until *all* reach max_iterations, so faster
            # tasks may record extras.
            assert len(times) >= 3
            assert np.all(times >= task.ideal_iteration_time * (1 - 1e-6))

    @given(specs=task_specs)
    @settings(max_examples=20, deadline=None)
    def test_equal_share_also_completes(self, specs):
        from repro.multiresource import EqualShare, run_multiresource, two_phase_task

        tasks = [
            two_phase_task(f"T{i}", "cpu", work=w, demand=d, think_time=t)
            for i, (w, d, t) in enumerate(specs)
        ]
        result = run_multiresource(
            tasks, {"cpu": 16.0}, policy=EqualShare(), max_iterations=2, seed=0
        )
        for task in tasks:
            assert len(result.iteration_times(task.name)) >= 2


class TestNetworkMaxMinProperties:
    from hypothesis import strategies as _st

    flow_specs = _st.lists(
        _st.tuples(
            _st.floats(min_value=0.0, max_value=5.0),     # weight
            _st.floats(min_value=1e6, max_value=100e9),   # demand
            _st.integers(min_value=0, max_value=2),       # link subset id
        ),
        min_size=1,
        max_size=8,
    )

    @given(specs=flow_specs)
    @settings(max_examples=50, deadline=None)
    def test_capacity_and_caps_hold_network_wide(self, specs):
        from repro.fluid.network import weighted_max_min

        link_sets = [("a",), ("b",), ("a", "b")]
        flows = {
            f"f{i}": (w, d, link_sets[k]) for i, (w, d, k) in enumerate(specs)
        }
        capacities = {"a": 40e9, "b": 25e9}
        rates = weighted_max_min(flows, capacities)
        for fid, (_w, demand, _links) in flows.items():
            assert -1e-6 <= rates[fid] <= demand * (1 + 1e-6)
        for link, cap in capacities.items():
            usage = sum(
                rates[fid]
                for fid, (_w, _d, links) in flows.items()
                if link in links
            )
            assert usage <= cap * (1 + 1e-6)
