"""Bit-identity and input tests for the vectorized allocation core.

The oracles are the scalar ``water_fill`` and a verbatim copy of the
full-scan ``weighted_max_min`` kept here (both network entry points now
share one progressive-filling core, so comparing them with each other
alone would test the core against itself).  Every float the fast paths
return must equal the oracle's *exactly* (``float.hex()`` comparison, no
tolerance).  Hypothesis drives random demands/weights/capacities through
both paths, including zero demands, zero weights, zero capacities, empty
paths, exact share ties, shuffled insertion order and an 8x8x2 fabric;
fixed vectors re-check the checked-in ``perf_contracts_seed.json``
fixture so the vectorized path is pinned to the pre-PR floats.
"""

import json
import math
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.units import bps_from_gbps
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
from repro.fluid.fabric import FluidFabric
from repro.fluid.network import weighted_max_min, weighted_max_min_array
from repro.workloads import FabricSpec, JobSpec, place_jobs
from repro.workloads.presets import cross_rack_scenario

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


def _weighted_max_min_reference(
    flows: dict[str, tuple[float, float, tuple[str, ...]]],
    capacities_bps: dict[str, float],
) -> dict[str, float]:
    """The full-scan ``weighted_max_min`` (before the shared core), verbatim.

    Every round rescans every link, real and virtual, and keeps the first
    strictly smaller share.  :class:`TestWeightedMaxMinArray` and
    :class:`TestWeightedMaxMinReference` pin both entry points to it.
    """
    residual = dict(capacities_bps)
    members: dict[str, set[str]] = {link: set() for link in residual}
    # Zero-weight flows keep a vanishing (but non-zero) share, so no flow
    # fully starves — the §5 non-starvation property.
    effective_weight: dict[str, float] = {}
    for fid, (weight, demand, links) in flows.items():
        if weight < 0:
            raise ValueError(f"{fid}: weight must be non-negative, got {weight!r}")
        if demand <= 0:
            raise ValueError(f"{fid}: demand must be positive, got {demand!r}")
        effective_weight[fid] = max(weight, 1e-9)
        virtual = f"__demand__{fid}"
        residual[virtual] = demand
        members[virtual] = {fid}
        for link in links:
            if link not in residual:
                raise KeyError(f"{fid}: unknown link {link!r}")
            members[link].add(fid)

    # Per-link member lists sorted once up front instead of re-sorted every
    # progressive-filling round; the per-round filter below preserves that
    # order, so the float sums accumulate in exactly the order the old
    # per-round ``sorted()`` produced (PYTHONHASHSEED-independent, DET004).
    ordered_members = {link: sorted(ids) for link, ids in members.items()}

    rates: dict[str, float] = {}
    unfixed = set(flows)

    while unfixed:
        best_link: Optional[str] = None
        best_share = math.inf
        for link, ordered in ordered_members.items():
            total_weight = 0.0
            any_active = False
            for fid in ordered:
                if fid in unfixed:
                    total_weight += effective_weight[fid]
                    any_active = True
            if not any_active:
                continue
            share = residual[link] / total_weight
            if share < best_share:
                best_share = share
                best_link = link
        if best_link is None:
            break
        for fid in ordered_members[best_link]:
            if fid not in unfixed:
                continue
            rate = max(0.0, best_share * effective_weight[fid])
            rates[fid] = rate
            for link in flows[fid][2]:
                residual[link] = max(0.0, residual[link] - rate)
            residual[f"__demand__{fid}"] = 0.0
            unfixed.discard(fid)
    for fid in flows:
        rates.setdefault(fid, 0.0)
    return rates


#: Link capacities: zero (a severed link), values shared by several links
#: (share ties between links) and arbitrary ones.
capacity_values = st.one_of(
    st.just(0.0),
    st.sampled_from([1e9, 2e9]),
    st.floats(min_value=1e6, max_value=2e10, allow_nan=False),
)
#: Weights whose sums depend on the order they are added in
#: ((0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1), so a link that sums its
#: members out of sorted-id order shows up in the last bit.
network_weight_values = st.one_of(
    weight_values, st.sampled_from([0.1, 0.2, 0.3, 0.7])
)
#: Demands: values that tie with the shared capacities, and arbitrary ones.
network_demand_values = st.one_of(
    st.sampled_from([5e8, 1e9]),
    st.floats(min_value=1e6, max_value=1e10, allow_nan=False),
)


@lru_cache(maxsize=None)
def _fabric_8x8x2() -> tuple[tuple[tuple[str, tuple[str, ...]], ...], dict]:
    """The 32 cross-rack flows of the 8x8x2 fat tree and its link capacities."""
    spec = FabricSpec(n_racks=8, hosts_per_rack=8, n_spines=2, oversubscription=2.0)
    fabric = FluidFabric.from_spec(spec)
    placed = fabric.place(
        place_jobs(cross_rack_scenario(spec.n_hosts // 2), spec, seed=2)
    )
    capacities = {
        link: bps_from_gbps(gbps) for link, gbps in fabric.capacities_gbps.items()
    }
    return tuple((p.job.name, p.links) for p in placed), capacities


@st.composite
def fabric_network_cases(draw):
    """16-32 flows of the 8x8x2 fabric, a few links severed to 0 bps."""
    paths, base = _fabric_8x8x2()
    chosen = draw(st.permutations(range(len(paths))))[
        : draw(st.integers(min_value=16, max_value=len(paths)))
    ]
    unit = draw(st.booleans())
    flows = {}
    for j in chosen:
        name, links = paths[j]
        weight = 1.0 if unit else draw(network_weight_values)
        flows[name] = (weight, draw(network_demand_values), links)
    capacities = dict(base)
    for link in draw(st.sets(st.sampled_from(sorted(base)), max_size=3)):
        capacities[link] = 0.0
    return flows, capacities


@st.composite
def network_cases(draw):
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        return draw(fabric_network_cases())
    n_links = draw(st.integers(min_value=1, max_value=4))
    links = [f"L{i}" for i in range(n_links)]
    n_flows = draw(st.integers(min_value=1, max_value=8))
    ids = draw(st.permutations([f"f{i:02d}" for i in range(n_flows)]))
    # Unit weights over equal capacities make exact share ties the rule.
    unit = draw(st.booleans())
    flows = {}
    for fid in ids:
        weight = 1.0 if unit else draw(network_weight_values)
        demand = draw(network_demand_values)
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
    capacities = {link: draw(capacity_values) for link in links}
    return flows, capacities


def _array_call(flows, capacities):
    ids = list(flows)
    matrix = link_index_matrix(
        list(capacities), {fid: flows[fid][2] for fid in ids}, ids
    )
    return weighted_max_min_array(
        np.array([flows[fid][0] for fid in ids]),
        np.array([flows[fid][1] for fid in ids]),
        matrix,
        np.array([capacities[link] for link in capacities]),
        _rank_for(ids),
    )


class TestWeightedMaxMinArray:
    @settings(max_examples=120, deadline=None)
    @given(case=network_cases())
    def test_bit_identical_to_scalar_oracle(self, case):
        flows, capacities = case
        expected = _weighted_max_min_reference(flows, capacities)
        got = _array_call(flows, capacities)
        assert _hex_rates(expected) == _hex_rates(
            _array_as_mapping(list(flows), got)
        )


class TestWeightedMaxMinReference:
    """The dict entry point against the full-scan reference."""

    @settings(max_examples=120, deadline=None)
    @given(case=network_cases())
    def test_dict_entry_point_bit_identical(self, case):
        flows, capacities = case
        expected = _weighted_max_min_reference(flows, capacities)
        got = weighted_max_min(flows, capacities)
        # Same floats, and the same keys in the same (fixing) order.
        assert [(fid, rate.hex()) for fid, rate in got.items()] == [
            (fid, rate.hex()) for fid, rate in expected.items()
        ]

    def test_fabric_case_ties_and_severed_links(self):
        """A fixed 8x8x2 case: 32 unit-weight flows, one severed uplink."""
        paths, base = _fabric_8x8x2()
        flows = {name: (1.0, 1e9, links) for name, links in paths}
        capacities = dict(base)
        capacities[paths[0][1][1]] = 0.0
        expected = _weighted_max_min_reference(flows, capacities)
        assert len(flows) >= 16
        assert _hex_rates(weighted_max_min(flows, capacities)) == _hex_rates(
            expected
        )
        assert _hex_rates(expected) == _hex_rates(
            _array_as_mapping(list(flows), _array_call(flows, capacities))
        )


class TestAllocatorInputValidation:
    """Both entry points reject a non-finite weight or demand, or a link
    repeated in a path, with an error naming the flow and the field.

    Unchecked, a NaN weight makes the two entry points disagree and
    breaks the heap order, a NaN demand runs as if uncapped, an infinite
    weight starves every flow on its link, and a repeated link charges
    the flow twice.
    """

    #: case -> (flows, index of the bad flow, field the error names)
    CASES = {
        "nan-weight": (
            {"a": (math.nan, 1e9, ("l",)), "b": (1.0, 1e9, ("l",))}, 0, "weight",
        ),
        "inf-weight": (
            {"a": (1.0, 1e9, ("l",)), "b": (math.inf, 1e9, ("l",))}, 1, "weight",
        ),
        "neg-inf-weight": ({"a": (-math.inf, 1e9, ("l",))}, 0, "weight"),
        "nan-demand": (
            {"a": (1.0, 1e9, ("l",)), "b": (1.0, math.nan, ("l",))}, 1, "demand",
        ),
        "inf-demand": ({"a": (1.0, math.inf, ("l",))}, 0, "demand"),
        "repeated-link": (
            {"a": (1.0, 1e9, ("l",)), "b": (1.0, 1e9, ("l", "m", "l"))}, 1, "links",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_dict_entry_names_flow_and_field(self, case):
        flows, bad, field = self.CASES[case]
        fid = list(flows)[bad]
        with pytest.raises(ValueError, match=rf"^{fid}: {field} "):
            weighted_max_min(flows, {"l": 1e9, "m": 1e9})

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_array_entry_names_flow_and_field(self, case):
        flows, bad, field = self.CASES[case]
        with pytest.raises(ValueError, match=rf"^flow\[{bad}\]: {field} "):
            _array_call(flows, {"l": 1e9, "m": 1e9})


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
