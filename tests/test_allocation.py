"""Tests for the fluid bandwidth-allocation policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggressiveness import (
    AggressivenessFunction,
    ConstantAggressiveness,
    LinearAggressiveness,
    QuadraticAggressiveness,
    ReciprocalAggressiveness,
)
from repro.core.config import MLTCPConfig
from repro.fluid.allocation import (
    FairShare,
    FlowView,
    MLTCPWeighted,
    PDQ,
    PIAS,
    SRPT,
    water_fill,
    water_fill_array,
)


def flow(fid, demand=25e9, remaining=1e9, sent=0.0, total=2e9):
    return FlowView(
        flow_id=fid,
        demand_bps=demand,
        remaining_bits=remaining,
        sent_bits=sent,
        total_bits=total,
    )


class TestFlowView:
    def test_bytes_ratio(self):
        assert flow("a", sent=1e9, total=2e9).bytes_ratio == pytest.approx(0.5)

    def test_bytes_ratio_capped(self):
        assert flow("a", sent=3e9, total=2e9).bytes_ratio == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="demand"):
            flow("a", demand=0)
        with pytest.raises(ValueError, match="total"):
            flow("a", total=0)
        with pytest.raises(ValueError, match="non-negative"):
            flow("a", remaining=-1)


class TestWaterFill:
    def test_equal_weights_equal_shares(self):
        rates = water_fill({"a": 100.0, "b": 100.0}, {"a": 1.0, "b": 1.0}, 50.0)
        assert rates["a"] == pytest.approx(25.0)
        assert rates["b"] == pytest.approx(25.0)

    def test_weights_divide_proportionally(self):
        rates = water_fill({"a": 100.0, "b": 100.0}, {"a": 3.0, "b": 1.0}, 40.0)
        assert rates["a"] == pytest.approx(30.0)
        assert rates["b"] == pytest.approx(10.0)

    def test_caps_respected_and_surplus_redistributed(self):
        rates = water_fill({"a": 10.0, "b": 100.0}, {"a": 1.0, "b": 1.0}, 50.0)
        assert rates["a"] == pytest.approx(10.0)
        assert rates["b"] == pytest.approx(40.0)

    def test_never_exceeds_capacity(self):
        rates = water_fill(
            {"a": 100.0, "b": 100.0, "c": 100.0},
            {"a": 5.0, "b": 1.0, "c": 0.5},
            60.0,
        )
        assert sum(rates.values()) <= 60.0 + 1e-9

    def test_underload_gives_everyone_demand(self):
        rates = water_fill({"a": 10.0, "b": 20.0}, {"a": 1.0, "b": 9.0}, 100.0)
        assert rates["a"] == pytest.approx(10.0)
        assert rates["b"] == pytest.approx(20.0)

    def test_all_zero_weights_split_evenly(self):
        """No flow fully starves (§5: non-zero bandwidth for all)."""
        rates = water_fill({"a": 100.0, "b": 100.0}, {"a": 0.0, "b": 0.0}, 50.0)
        assert rates["a"] == pytest.approx(25.0)
        assert rates["b"] == pytest.approx(25.0)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="weight"):
            water_fill({"a": 10.0}, {"a": -1.0}, 50.0)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            water_fill({"a": 10.0}, {"a": 1.0}, 0.0)


class TestFairShare:
    def test_empty(self):
        assert FairShare().allocate([], 50e9) == {}

    def test_splits_equally_up_to_demand(self):
        rates = FairShare().allocate([flow("a"), flow("b"), flow("c")], 50e9)
        for fid in ("a", "b", "c"):
            assert rates[fid] == pytest.approx(50e9 / 3)

    def test_two_flows_reach_demand(self):
        rates = FairShare().allocate([flow("a"), flow("b")], 50e9)
        assert rates["a"] == pytest.approx(25e9)
        assert rates["b"] == pytest.approx(25e9)


class TestMLTCPWeighted:
    def test_progress_wins_bandwidth(self):
        """The flow closer to finishing its iteration gets the larger share
        (the paper's key insight, §3.1)."""
        ahead = flow("ahead", sent=1.8e9, total=2e9)
        behind = flow("behind", sent=0.2e9, total=2e9)
        rates = MLTCPWeighted().allocate([ahead, behind], 30e9)
        assert rates["ahead"] > rates["behind"]

    def test_share_ratio_follows_f(self):
        f = LinearAggressiveness()
        ahead = flow("ahead", demand=1e12, sent=1.0e9, total=2e9)
        behind = flow("behind", demand=1e12, sent=0.0, total=2e9)
        rates = MLTCPWeighted(f).allocate([ahead, behind], 30e9)
        expected = f(0.5) / f(0.0)
        assert rates["ahead"] / rates["behind"] == pytest.approx(expected)

    def test_constant_function_reduces_to_fair_share(self):
        flows = [flow("a", sent=1.5e9), flow("b", sent=0.1e9)]
        mltcp = MLTCPWeighted(ConstantAggressiveness(1.0)).allocate(flows, 30e9)
        fair = FairShare().allocate(flows, 30e9)
        assert mltcp == pytest.approx(fair)

    def test_nobody_starves(self):
        """§5: MLTCP allocates non-zero bandwidth to all competing flows."""
        flows = [flow(f"f{i}", sent=i * 0.4e9) for i in range(5)]
        rates = MLTCPWeighted().allocate(flows, 50e9)
        assert all(rate > 0 for rate in rates.values())


@st.composite
def _views(draw):
    """1-8 flows; ``sent_bits`` runs to twice ``total_bits``, so the
    ``bytes_ratio`` clamp at 1 is hit."""
    views = []
    for i in range(draw(st.integers(1, 8))):
        total = draw(st.floats(1.0, 1e11))
        views.append(
            FlowView(f"f{i}", 25e9, 0.0, draw(st.floats(0.0, 2.0 * total)), total)
        )
    return views


_FUNCTIONS = st.one_of(
    st.sampled_from(
        [
            LinearAggressiveness(),
            ReciprocalAggressiveness(),
            QuadraticAggressiveness(),
            ConstantAggressiveness(1.0),
        ]
    ),
    st.builds(
        LinearAggressiveness, slope=st.floats(0.0, 10.0), intercept=st.floats(1e-3, 10.0)
    ),
)


class TestPolicyWeights:
    """Each policy's scalar and array weights against ``F(bytes_ratio)``."""

    @settings(max_examples=200, deadline=None)
    @given(views=_views(), function=_FUNCTIONS)
    def test_mltcp_weights_are_f_of_bytes_ratio(self, views, function):
        policy = MLTCPWeighted(function)
        sent = np.array([v.sent_bits for v in views])
        total = np.array([v.total_bits for v in views])
        expected = [function(v.bytes_ratio).hex() for v in views]
        scalar = policy.weights(views)
        assert list(scalar) == [v.flow_id for v in views]
        assert [w.hex() for w in scalar.values()] == expected
        assert [w.hex() for w in policy.weights_array(sent, total).tolist()] == expected

    @settings(max_examples=50, deadline=None)
    @given(views=_views())
    def test_fair_share_weights_are_unit(self, views):
        policy = FairShare()
        sent = np.array([v.sent_bits for v in views])
        total = np.array([v.total_bits for v in views])
        assert policy.weights(views) == {v.flow_id: 1.0 for v in views}
        assert policy.weights_array(sent, total).tolist() == [1.0] * len(views)


class TestSRPT:
    def test_shortest_flow_first(self):
        short = flow("short", remaining=0.1e9)
        long = flow("long", remaining=1.9e9)
        rates = SRPT().allocate([short, long], 25e9)
        assert rates["short"] == pytest.approx(25e9)
        assert rates["long"] == 0.0

    def test_leftover_goes_to_next(self):
        short = flow("short", remaining=0.1e9, demand=20e9)
        long = flow("long", remaining=1.9e9, demand=20e9)
        rates = SRPT().allocate([short, long], 50e9)
        assert rates["short"] == pytest.approx(20e9)
        assert rates["long"] == pytest.approx(20e9)

    def test_ties_share_fairly(self):
        """Near-equal remaining bytes split the link (packet interleaving)."""
        a = flow("a", remaining=1.00e9)
        b = flow("b", remaining=1.01e9)
        rates = SRPT(tie_fraction=0.05).allocate([a, b], 30e9)
        assert rates["a"] == pytest.approx(rates["b"])

    def test_zero_tie_fraction_is_strict(self):
        a = flow("a", remaining=1.00e9)
        b = flow("b", remaining=1.01e9)
        rates = SRPT(tie_fraction=0.0).allocate([a, b], 25e9)
        assert rates["a"] == pytest.approx(25e9)
        assert rates["b"] == 0.0

    def test_rejects_bad_tie_fraction(self):
        with pytest.raises(ValueError, match="tie_fraction"):
            SRPT(tie_fraction=1.0)


class TestPDQ:
    def test_limits_concurrent_senders(self):
        flows = [flow(f"f{i}", remaining=(i + 1) * 0.1e9, demand=5e9) for i in range(5)]
        rates = PDQ(max_senders=2).allocate(flows, 50e9)
        active = [fid for fid, rate in rates.items() if rate > 0]
        assert active == ["f0", "f1"]

    def test_paused_flows_get_zero(self):
        flows = [flow("a", remaining=0.1e9), flow("b", remaining=0.2e9)]
        rates = PDQ(max_senders=1).allocate(flows, 50e9)
        assert rates["b"] == 0.0

    def test_rejects_bad_max_senders(self):
        with pytest.raises(ValueError, match="max_senders"):
            PDQ(max_senders=0)


class TestPIAS:
    def test_fresh_flow_beats_old_flow(self):
        """Flows demote as they send (LAS approximation)."""
        fresh = flow("fresh", sent=0.0)
        old = flow("old", sent=1.5e9)
        rates = PIAS().allocate([fresh, old], 25e9)
        assert rates["fresh"] == pytest.approx(25e9)
        assert rates["old"] == 0.0

    def test_same_level_shares_fairly(self):
        a = flow("a", sent=0.0)
        b = flow("b", sent=0.0)
        rates = PIAS().allocate([a, b], 30e9)
        assert rates["a"] == pytest.approx(rates["b"])

    def test_leftover_flows_down_levels(self):
        fresh = flow("fresh", sent=0.0, demand=10e9)
        old = flow("old", sent=1.5e9, demand=10e9)
        rates = PIAS().allocate([fresh, old], 30e9)
        assert rates["fresh"] == pytest.approx(10e9)
        assert rates["old"] == pytest.approx(10e9)

    def test_explicit_thresholds(self):
        pias = PIAS(thresholds_bits=[1e9])
        below = flow("below", sent=0.5e9)
        above = flow("above", sent=1.5e9)
        rates = pias.allocate([below, above], 25e9)
        assert rates["below"] == pytest.approx(25e9)
        assert rates["above"] == 0.0

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError, match="positive"):
            PIAS(thresholds_bits=[0.0])

    def test_empty(self):
        assert PIAS().allocate([], 50e9) == {}


NAN = float("nan")
INF = float("inf")


class _Returns(AggressivenessFunction):
    """An F that evaluates to one fixed value, valid or not."""

    def __init__(self, value):
        self.value = value

    def _evaluate(self, bytes_ratio):
        return self.value


def _water_fill_array(weights, capacity=1e9):
    return water_fill_array(
        np.array([1e9, 1e9]), np.array(weights), capacity, ids=["a", "b"]
    )


#: (id, call, the error text naming the field): one NaN or infinity per
#: row, each accepted silently before the boundary checked finiteness.
NON_FINITE_CASES = [
    ("linear-slope-nan", lambda: LinearAggressiveness(slope=NAN), "slope must be finite"),
    ("linear-intercept-inf", lambda: LinearAggressiveness(intercept=INF),
     "intercept must be finite"),
    ("quadratic-coefficient-nan", lambda: QuadraticAggressiveness(coefficient=NAN),
     "coefficient must be finite"),
    ("quadratic-intercept-inf", lambda: QuadraticAggressiveness(intercept=INF),
     "intercept must be finite"),
    ("constant-nan", lambda: ConstantAggressiveness(NAN), "value must be finite"),
    ("constant-inf", lambda: ConstantAggressiveness(INF), "value must be finite"),
    ("f-returns-nan", lambda: _Returns(NAN)(0.5), "aggressiveness of nan"),
    ("f-returns-inf", lambda: _Returns(INF)(0.5), "aggressiveness of inf"),
    ("config-total-bytes-nan", lambda: MLTCPConfig(total_bytes=NAN),
     "total_bytes must be finite"),
    ("config-comp-time-nan", lambda: MLTCPConfig(comp_time=NAN),
     "comp_time must be finite"),
    ("config-gap-rtt-multiplier-inf", lambda: MLTCPConfig(gap_rtt_multiplier=INF),
     "gap_rtt_multiplier must be finite"),
    ("config-drift-threshold-nan", lambda: MLTCPConfig(drift_threshold=NAN),
     "drift_threshold must be finite"),
    ("view-demand-nan", lambda: flow("a", demand=NAN), "a: demand_bps must be finite"),
    ("view-remaining-nan", lambda: flow("a", remaining=NAN),
     "a: remaining_bits must be finite"),
    ("view-sent-inf", lambda: flow("a", sent=INF), "a: sent_bits must be finite"),
    ("view-total-inf", lambda: flow("a", total=INF), "a: total_bits must be finite"),
    ("water-fill-weight-nan",
     lambda: water_fill({"a": 1e9, "b": 1e9}, {"a": NAN, "b": 1.0}, 1e9),
     "a: weight must be finite"),
    ("water-fill-weight-inf",
     lambda: water_fill({"a": 1e9, "b": 1e9}, {"a": 1.0, "b": INF}, 1e9),
     "b: weight must be finite"),
    ("water-fill-capacity-nan",
     lambda: water_fill({"a": 1e9}, {"a": 1.0}, NAN), "capacity must be finite"),
    ("water-fill-capacity-inf",
     lambda: water_fill({"a": 1e9}, {"a": 1.0}, INF), "capacity must be finite"),
    ("water-fill-array-weight-nan", lambda: _water_fill_array([NAN, 1.0]),
     "a: weight must be finite"),
    ("water-fill-array-weight-inf", lambda: _water_fill_array([1.0, INF]),
     "b: weight must be finite"),
    ("water-fill-array-capacity-nan", lambda: _water_fill_array([1.0, 1.0], NAN),
     "capacity must be finite"),
    # Below 1e-12 bps no filling round runs, so no round's total shows
    # the bad weight: the oracle's up-front check must still refuse it.
    ("water-fill-array-weight-nan-no-round",
     lambda: _water_fill_array([NAN, 1.0], 1e-13), "a: weight must be finite, got nan"),
    ("water-fill-array-weight-inf-no-round",
     lambda: _water_fill_array([1.0, INF], 1e-13), "b: weight must be finite, got inf"),
    # A NaN or infinity before a negative weight: the oracle's one pass in
    # axis order meets it first, so the array must name it too.
    ("water-fill-array-nan-before-negative",
     lambda: _water_fill_array([NAN, -1.0]), "a: weight must be finite, got nan"),
    ("water-fill-array-inf-before-negative",
     lambda: _water_fill_array([INF, -2.0]), "a: weight must be finite, got inf"),
    ("pdq-capacity-nan", lambda: PDQ().allocate([flow("a"), flow("b")], NAN),
     "capacity_bps must be finite"),
]


class TestNonFiniteInputsFailAtTheBoundary:
    """NaN and infinity are refused where they enter, naming the field."""

    @pytest.mark.parametrize(
        "call, message",
        [case[1:] for case in NON_FINITE_CASES],
        ids=[case[0] for case in NON_FINITE_CASES],
    )
    def test_refused_naming_the_field(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


#: A weight ``water_fill`` refuses: NaN, an infinity or a negative number.
_BAD_WEIGHT = st.one_of(
    st.sampled_from([NAN, INF, -INF]),
    st.floats(max_value=-1e-300, allow_infinity=False),
)


class TestBadWeightsNameTheSameFlow:
    """``water_fill_array`` refuses a bad weight with the very message of its
    oracle ``water_fill``, whichever kinds of bad weight come in which order
    and whether or not a filling round runs."""

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.floats(0.0, 10.0), _BAD_WEIGHT), min_size=1, max_size=6
        ),
        bad=st.tuples(st.integers(0, 5), _BAD_WEIGHT),
        capacity=st.one_of(
            st.floats(1e-300, 1e-12), st.floats(1e-12, 1e12, exclude_min=True)
        ),
    )
    def test_same_error_as_oracle(self, weights, bad, capacity):
        position, weight = bad
        weights[position % len(weights)] = weight
        ids = [f"f{i}" for i in range(len(weights))]
        demands = [1e9] * len(weights)
        with pytest.raises(ValueError) as array_error:
            water_fill_array(np.array(demands), np.array(weights), capacity, ids=ids)
        with pytest.raises(ValueError) as oracle_error:
            water_fill(dict(zip(ids, demands)), dict(zip(ids, weights)), capacity)
        assert str(array_error.value) == str(oracle_error.value)
