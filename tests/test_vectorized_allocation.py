"""Bit-identity tests for the vectorized allocation core (PR 9).

The scalar implementations — ``water_fill`` and ``weighted_max_min`` —
are the oracles: every float the array twins return must equal the
scalar result *exactly* (``float.hex()`` comparison, no tolerance).
Hypothesis drives random demands/weights/capacities through both paths,
including zero demands, zero weights, exact ties and shuffled insertion
order; fixed vectors re-check the checked-in ``perf_contracts_seed.json``
fixture so the vectorized path is pinned to the pre-PR floats.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fluid.allocation import (
    water_fill,
    water_fill_array,
)
from repro.fluid.arrays import (
    PHASE_COMM,
    PHASE_WAITING,
    FlowArrays,
    link_index_matrix,
)
from repro.fluid.network import weighted_max_min, weighted_max_min_array
from repro.workloads import JobSpec

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "perf_contracts_seed.json"


def _rank_for(ids):
    """Sort position of each id, in candidate (insertion) order."""
    order = sorted(range(len(ids)), key=lambda i: ids[i])
    rank = np.empty(len(ids), dtype=np.int64)
    rank[order] = np.arange(len(ids))
    return rank


def _hex_rates(rates):
    return {fid: float(rate).hex() for fid, rate in rates.items()}


def _array_as_mapping(ids, rates):
    return {fid: float(rate) for fid, rate in zip(ids, rates)}


#: Values that exercise ties, caps and the 1e-12 tolerance boundaries.
demand_values = st.one_of(
    st.just(0.0),
    st.just(1e9),
    st.just(2e9),
    st.floats(min_value=1e6, max_value=1e10, allow_nan=False),
)
weight_values = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
)


@st.composite
def water_fill_cases(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    # Shuffled ids decouple insertion order from sorted order, covering
    # the zero-weight refill's insertion-order ``spent`` accumulation.
    ids = draw(st.permutations([f"f{i:02d}" for i in range(n)]))
    demands = {fid: draw(demand_values) for fid in ids}
    weights = {fid: draw(weight_values) for fid in ids}
    capacity = draw(st.floats(min_value=1e6, max_value=2e10, allow_nan=False))
    return demands, weights, capacity


class TestWaterFillArrayProperty:
    @settings(max_examples=200, deadline=None)
    @given(case=water_fill_cases())
    def test_bit_identical_to_scalar_oracle(self, case):
        demands, weights, capacity = case
        ids = list(demands)
        expected = water_fill(demands, weights, capacity)
        got = water_fill_array(
            np.array([demands[fid] for fid in ids]),
            np.array([weights[fid] for fid in ids]),
            capacity,
            ids=ids,
            rank=_rank_for(ids),
        )
        assert _hex_rates(expected) == _hex_rates(_array_as_mapping(ids, got))

    @settings(max_examples=50, deadline=None)
    @given(case=water_fill_cases())
    def test_sorted_axis_needs_no_rank(self, case):
        demands, weights, capacity = case
        ids = sorted(demands)
        expected = water_fill(
            {fid: demands[fid] for fid in ids},
            {fid: weights[fid] for fid in ids},
            capacity,
        )
        got = water_fill_array(
            np.array([demands[fid] for fid in ids]),
            np.array([weights[fid] for fid in ids]),
            capacity,
        )
        assert _hex_rates(expected) == _hex_rates(_array_as_mapping(ids, got))


class TestWaterFillArrayEdges:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            water_fill_array(np.array([1.0]), np.array([1.0]), 0.0)

    def test_rejects_negative_weight_naming_flow(self):
        with pytest.raises(ValueError, match="b: weight"):
            water_fill_array(
                np.array([1e9, 1e9]),
                np.array([1.0, -1.0]),
                1e9,
                ids=["a", "b"],
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="matching 1-D"):
            water_fill_array(np.array([1e9]), np.array([1.0, 2.0]), 1e9)

    def test_all_zero_weights_split_evenly(self):
        demands = {"a": 2e9, "b": 2e9, "c": 1e9}
        weights = {"a": 0.0, "b": 0.0, "c": 0.0}
        expected = water_fill(demands, weights, 3e9)
        got = water_fill_array(
            np.array([2e9, 2e9, 1e9]),
            np.zeros(3),
            3e9,
            rank=np.array([0, 1, 2]),
        )
        assert _hex_rates(expected) == _hex_rates(
            _array_as_mapping(["a", "b", "c"], got)
        )


class TestWaterFillFixtureVectors:
    """The checked-in pre-PR hex vectors must come out of the array path."""

    CASES = {
        "undersubscribed": (
            {f"f{i}": 1e8 * (i + 1) for i in range(6)},
            {f"f{i}": 1.0 for i in range(6)},
            5e9,
        ),
        "oversubscribed_weighted": (
            {f"flow{i:02d}": 1e9 / (i + 2) for i in range(12)},
            {f"flow{i:02d}": 1.0 / (3 + i) for i in range(12)},
            2.5e9,
        ),
        "mixed_caps": (
            {"a": 4e9, "b": 1e9, "c": 2e9, "d": 5e8},
            {"a": 3.0, "b": 1.0, "c": 1.0, "d": 0.5},
            5e9,
        ),
        "zero_weights": (
            {"a": 2e9, "b": 2e9, "c": 1e9},
            {"a": 0.0, "b": 0.0, "c": 0.0},
            3e9,
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_fixture_vector_unchanged(self, name):
        demands, weights, capacity = self.CASES[name]
        fixture = json.loads(FIXTURE.read_text())["water_fill"][name]
        ids = list(demands)
        got = water_fill_array(
            np.array([demands[fid] for fid in ids]),
            np.array([weights[fid] for fid in ids]),
            capacity,
            rank=_rank_for(ids),
        )
        assert _hex_rates(_array_as_mapping(ids, got)) == fixture


@st.composite
def network_cases(draw):
    n_links = draw(st.integers(min_value=1, max_value=4))
    links = [f"L{i}" for i in range(n_links)]
    n_flows = draw(st.integers(min_value=1, max_value=8))
    ids = draw(st.permutations([f"f{i:02d}" for i in range(n_flows)]))
    flows = {}
    for fid in ids:
        weight = draw(weight_values)
        demand = draw(st.floats(min_value=1e6, max_value=1e10, allow_nan=False))
        path = tuple(
            sorted(
                draw(
                    st.sets(
                        st.sampled_from(links), min_size=0, max_size=n_links
                    )
                )
            )
        )
        flows[fid] = (weight, demand, path)
    capacities = {
        link: draw(st.floats(min_value=1e6, max_value=2e10, allow_nan=False))
        for link in links
    }
    return flows, capacities


class TestWeightedMaxMinArray:
    @settings(max_examples=120, deadline=None)
    @given(case=network_cases())
    def test_bit_identical_to_scalar_oracle(self, case):
        flows, capacities = case
        expected = weighted_max_min(flows, capacities)
        ids = list(flows)
        matrix = link_index_matrix(
            list(capacities), {fid: flows[fid][2] for fid in ids}, ids
        )
        got = weighted_max_min_array(
            np.array([flows[fid][0] for fid in ids]),
            np.array([flows[fid][1] for fid in ids]),
            matrix,
            np.array([capacities[link] for link in capacities]),
            _rank_for(ids),
        )
        assert _hex_rates(expected) == _hex_rates(_array_as_mapping(ids, got))


class TestFlowArrays:
    def _specs(self):
        # Names sort differently from insertion order on purpose.
        return [
            JobSpec(name="b", comm_bits=1e9, demand_gbps=10.0, compute_time=0.1),
            JobSpec(name="a", comm_bits=2e9, demand_gbps=20.0, compute_time=0.2),
            JobSpec(
                name="c",
                comm_bits=3e9,
                demand_gbps=30.0,
                compute_time=0.3,
                start_offset=0.5,
            ),
        ]

    def test_from_specs_static_fields_and_rank(self):
        fa = FlowArrays.from_specs(self._specs())
        assert fa.names == ("b", "a", "c")
        assert fa.index == {"b": 0, "a": 1, "c": 2}
        # "b" sorts after "a": ranks replay sorted-name iteration order.
        assert fa.rank.tolist() == [1, 0, 2]
        assert fa.demand_bps.tolist() == [10e9, 20e9, 30e9]
        assert fa.total_bits.tolist() == [1e9, 2e9, 3e9]
        assert fa.start_offset.tolist() == [0.0, 0.0, 0.5]
        assert len(fa) == 3

    def test_reset_restores_initial_state(self):
        fa = FlowArrays.from_specs(self._specs())
        fa.phase[:] = PHASE_COMM
        fa.remaining_bits[:] = 5.0
        fa.sent_bits[:] = 7.0
        fa.iteration_index[:] = 3
        fa.rates[:] = 1e9
        fa.reset()
        assert (fa.phase == PHASE_WAITING).all()
        assert not fa.remaining_bits.any()
        assert not fa.sent_bits.any()
        assert not fa.iteration_index.any()
        assert not fa.rates.any()
        assert fa.deadline.tolist() == fa.start_offset.tolist()
        assert np.isnan(fa.comm_start).all()
        assert np.isnan(fa.comm_end).all()

    def test_reset_deadline_is_a_copy(self):
        fa = FlowArrays.from_specs(self._specs())
        fa.deadline += 1.0
        assert fa.start_offset.tolist() == [0.0, 0.0, 0.5]


class TestLinkIndexMatrix:
    def test_rows_follow_names_padded_with_minus_one(self):
        matrix = link_index_matrix(
            ["up", "down", "spine"],
            {"j1": ("up", "spine", "down"), "j2": ("down",)},
            ["j2", "j1"],
        )
        assert matrix.tolist() == [[1, -1, -1], [0, 2, 1]]

    def test_flow_without_links_gets_empty_row(self):
        matrix = link_index_matrix(["up"], {"j1": ("up",)}, ["j1", "j2"])
        assert matrix.tolist() == [[0], [-1]]

    def test_unknown_link_raises_keyerror(self):
        with pytest.raises(KeyError):
            link_index_matrix(["up"], {"j1": ("sideways",)}, ["j1"])
