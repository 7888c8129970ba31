"""Bottleneck bandwidth-allocation policies for the fluid simulator.

A policy maps the set of flows currently in their communication phase to a
rate vector on the bottleneck.  Four families reproduce the paper's
comparison points:

* :class:`FairShare` — weighted max-min (water-filling) with unit weights;
  the steady-state behaviour of N synchronized TCP-Reno flows.
* :class:`MLTCPWeighted` — water-filling with per-flow weight
  ``F(bytes_ratio)``.  Under AIMD with synchronized multiplicative decrease,
  a flow whose additive-increase step is scaled by ``F`` claims a bandwidth
  share proportional to ``F``; this is the flow-level abstraction of Eq. 1.
* :class:`SRPT` — strict priority by least remaining bytes, the fluid model
  of pFabric's switch priorities.  :class:`PDQ` preempts all but the
  ``max_senders`` shortest flows, the fluid model of PDQ's sender pausing.
* :class:`PIAS` — multi-level feedback by bytes *sent* (information-agnostic
  LAS approximation): flows demote through priority levels as they send;
  levels are served in strict priority, fairly within a level.

Only the first two turn progress into weights (``weights`` on views,
``weights_array`` on array columns); every weighted fluid engine calls them.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Hashable, Mapping, Optional, Sequence

import numpy as np

from ..core.aggressiveness import (
    AggressivenessFunction,
    LinearAggressiveness,
    default_aggressiveness,
)

# repro-lint: hot-path-module
# (PRF002: per-flow Python loops over FlowView sequences are flagged in
# this module; the vectorized array entry points below are the hot path.)

__all__ = [
    "FlowView",
    "AllocationPolicy",
    "FairShare",
    "MLTCPWeighted",
    "SRPT",
    "PDQ",
    "PIAS",
    "water_fill",
    "water_fill_array",
    "allocation_excess",
]


def allocation_excess(rates: Mapping[str, float], capacity_bps: float) -> float:
    """How far a rate vector oversubscribes the bottleneck, in bps.

    Positive means the policy violated its ``allocate`` contract ("Sum must
    not exceed ``capacity_bps``"); zero or negative is a valid allocation.
    Summation iterates flows in sorted order so the float total is
    independent of dict insertion order (repro-lint DET004).
    """
    total = 0.0
    for flow_id in sorted(rates):
        total += rates[flow_id]
    return total - capacity_bps


class FlowView:
    """What a policy may observe about one active flow.

    ``flow_id`` identifies the job; ``demand_bps`` caps the rate the flow can
    drive; ``remaining_bits``/``sent_bits``/``total_bits`` describe progress
    through the current iteration's communication phase.

    Performance note (docs/PERFORMANCE.md): this used to be a frozen
    dataclass that the fluid simulator rebuilt — and re-validated — for
    every active flow at every allocation refresh.  It is now a mutable
    ``__slots__`` class, and the scalar engines' per-flow runtimes
    subclass it: each runtime is its view, validated once per run, whose
    progress fields the step loop advances in place.  Policies must not
    retain views across ``allocate`` calls.
    """

    __slots__ = ("flow_id", "demand_bps", "remaining_bits", "sent_bits", "total_bits")

    def __init__(
        self,
        flow_id: str,
        demand_bps: float,
        remaining_bits: float,
        sent_bits: float,
        total_bits: float,
    ) -> None:
        for name, value in (
            ("demand_bps", demand_bps),
            ("remaining_bits", remaining_bits),
            ("sent_bits", sent_bits),
            ("total_bits", total_bits),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{flow_id}: {name} must be finite, got {value!r}")
        if demand_bps <= 0:
            raise ValueError(f"{flow_id}: demand_bps must be positive")
        if total_bits <= 0:
            raise ValueError(f"{flow_id}: total_bits must be positive")
        if remaining_bits < 0 or sent_bits < 0:
            raise ValueError(f"{flow_id}: progress must be non-negative")
        self.flow_id = flow_id
        self.demand_bps = demand_bps
        self.remaining_bits = remaining_bits
        self.sent_bits = sent_bits
        self.total_bits = total_bits

    @property
    def bytes_ratio(self) -> float:
        """Algorithm 1's ``bytes_ratio`` for this flow."""
        return min(1.0, self.sent_bits / self.total_bits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowView(flow_id={self.flow_id!r}, demand_bps={self.demand_bps!r}, "
            f"remaining_bits={self.remaining_bits!r}, sent_bits={self.sent_bits!r}, "
            f"total_bits={self.total_bits!r})"
        )


class AllocationPolicy(ABC):
    """Maps active flows to bottleneck rates.  Stateless between calls."""

    name: str = "policy"

    @abstractmethod
    def allocate(
        self, flows: Sequence[FlowView], capacity_bps: float
    ) -> dict[str, float]:
        """Rates (bps) per flow id.  Sum must not exceed ``capacity_bps``."""

    def cache_key(
        self, flows: Sequence[FlowView], capacity_bps: float
    ) -> Optional[Hashable]:
        """Token identifying everything this policy's allocation depends on.

        When a policy can summarize its inputs in a small hashable value —
        e.g. :class:`FairShare`, whose rates depend only on who is active,
        their demand caps and the capacity — the fluid simulator reuses the
        previous rate vector for as long as the token is unchanged instead
        of re-running water-filling every event.  ``None`` (the default)
        disables reuse; policies whose output varies continuously with flow
        progress (:class:`MLTCPWeighted`) must keep it that way.
        """
        return None

    def _check_capacity(self, capacity_bps: float) -> None:
        if not 0.0 < capacity_bps < math.inf:  # NaN fails this test too
            raise ValueError(
                f"capacity_bps must be finite and positive, got {capacity_bps!r}"
            )


def _weight_error(fid: str, weight: float) -> ValueError:
    """The error for a flow whose weight is negative, NaN or infinite."""
    if not math.isfinite(weight):
        return ValueError(f"{fid}: weight must be finite, got {weight!r}")
    return ValueError(f"{fid}: weight must be non-negative, got {weight!r}")


def _first_weight_error(
    bad: np.ndarray, weights: np.ndarray, ids: Optional[Sequence[str]]
) -> ValueError:
    """:func:`_weight_error` for the first flow flagged in ``bad``."""
    first = int(np.argmax(bad))
    fid = ids[first] if ids is not None else f"flow[{first}]"
    return _weight_error(fid, float(weights[first]))


def water_fill(
    demands: Mapping[str, float], weights: Mapping[str, float], capacity: float
) -> dict[str, float]:
    """Weighted max-min allocation with per-flow caps.

    Flows receive capacity in proportion to their weights; a flow whose
    proportional share exceeds its demand is capped and the surplus is
    refilled among the rest.  Runs in O(n^2) worst case, fine for the job
    counts here.
    """
    inf = math.inf
    if not 0.0 < capacity < inf:  # NaN fails this test too
        raise ValueError(f"capacity must be finite and positive, got {capacity!r}")
    for fid, weight in weights.items():
        if not 0.0 <= weight < inf:
            raise _weight_error(fid, weight)
    rates: dict[str, float] = {}
    # Single up-front sort; capped flows are filtered out preserving order,
    # so every per-round accumulation below visits flows in exactly the
    # order the per-round ``sorted()`` of earlier revisions produced —
    # float summation order must not depend on PYTHONHASHSEED (repro-lint
    # DET004) and must not change as this code gets faster.
    unsaturated = sorted(demands)
    saturated: set[str] = set()
    remaining = capacity
    while unsaturated and remaining > 1e-12:
        total_weight = 0.0
        for fid in unsaturated:
            total_weight += weights[fid]
        if total_weight <= 0:
            # All remaining weights are zero: split the leftover evenly so no
            # flow fully starves (MLTCP "allocates non-zero bandwidth to all
            # competing flows", §5).
            equal = remaining / len(unsaturated)
            newly_capped = [
                fid for fid in unsaturated if demands[fid] <= equal + 1e-12
            ]
            if not newly_capped:
                for fid in unsaturated:
                    rates[fid] = rates.get(fid, 0.0) + equal
                return rates
            for fid in newly_capped:
                rates[fid] = demands[fid]
            # Recompute simply: restart with capped flows removed.  The
            # refill sums what rounds before this one granted (``saturated``
            # holds exactly the flows capped before this round), iterating
            # ``demands`` in insertion order as the original did.
            spent = 0.0
            for fid in demands:
                if fid in saturated:
                    spent += rates.get(fid, 0.0)
            remaining = capacity - spent
            saturated.update(newly_capped)
            unsaturated = [fid for fid in unsaturated if fid not in saturated]
            continue
        shares = [remaining * weights[fid] / total_weight for fid in unsaturated]
        capped = [
            fid
            for fid, share in zip(unsaturated, shares)
            if weights[fid] > 0 and share >= demands[fid] - 1e-12
        ]
        if capped:
            for fid in capped:
                rates[fid] = demands[fid]
                remaining -= demands[fid]
            saturated.update(capped)
            unsaturated = [fid for fid in unsaturated if fid not in saturated]
            continue
        for fid, share in zip(unsaturated, shares):
            rates[fid] = share
        return {fid: max(0.0, rate) for fid, rate in rates.items()}
    for fid in unsaturated:
        rates.setdefault(fid, 0.0)
    return {fid: max(0.0, rate) for fid, rate in rates.items()}


def water_fill_array(
    demands: np.ndarray,
    weights: np.ndarray,
    capacity: float,
    ids: Optional[Sequence[str]] = None,
    rank: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorized twin of :func:`water_fill` on contiguous arrays.

    The flow axis is in *candidate* order — the insertion order of the
    scalar reference's ``demands`` mapping — and ``rank``, when given,
    carries each flow's unique sort position among the flow ids so the
    scalar's single up-front ``sorted(demands)`` pass can be replayed
    without re-sorting strings per call (``rank=None`` means the axis is
    already sorted).  The returned rates align with the input axis.
    Every float the scalar version computes is reproduced bit-for-bit
    (docs/PERFORMANCE.md, "Vectorized core & scale benchmarks"):

    * per-round weight totals accumulate strictly left-to-right over the
      unsaturated flows in sorted order via ``np.add.accumulate``
      (``np.sum`` would pairwise-sum, a different rounding sequence);
    * the zero-weight refill branch replays the scalar's ``spent`` loop
      over the mapping's insertion order — the array axis — where a
      skipped flow contributes a literal ``+0.0``, an exact identity on
      a non-negative running total;
    * ``max``/``min`` clamps become sign-exact ``np.where`` selections.

    ``water_fill`` remains the property-test oracle
    (tests/test_vectorized_allocation.py).
    """
    if not 0.0 < capacity < math.inf:  # NaN fails this test too
        raise ValueError(f"capacity must be finite and positive, got {capacity!r}")
    demands = np.ascontiguousarray(demands, dtype=np.float64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    if demands.shape != weights.shape or demands.ndim != 1:
        raise ValueError(
            f"demands/weights must be matching 1-D arrays, got "
            f"{demands.shape} and {weights.shape}"
        )
    negative = weights < 0.0
    if negative.any():
        # Name the flow the oracle's one pass in axis order names: a NaN
        # or infinite weight before the first negative one comes first.
        raise _first_weight_error(negative | ~np.isfinite(weights), weights, ids)
    if not capacity > 1e-12:
        # No filling round runs, and the first round's weight total is
        # where a NaN or infinite weight shows: look for it here instead.
        nonfinite = ~np.isfinite(weights)
        if nonfinite.any():
            raise _first_weight_error(nonfinite, weights, ids)
    n = demands.shape[0]
    if rank is None:
        order = np.arange(n, dtype=np.intp)
    else:
        order = np.argsort(rank, kind="stable")
    rates = np.zeros(n)
    unsat = np.ones(n, dtype=bool)
    was_saturated = np.zeros(n, dtype=bool)
    remaining = capacity
    while True:
        # Unsaturated flows in sorted-id order, exactly the scalar's
        # order-preserving filter of its up-front ``sorted(demands)``.
        idx = order[unsat[order]]
        if idx.size == 0 or not remaining > 1e-12:
            break
        w_u = weights[idx]
        # Strictly sequential left-to-right sum: bit-identical to the
        # scalar reference's running ``total_weight`` accumulation.
        total = float(np.add.accumulate(w_u)[-1])
        if not total < math.inf:
            # The first round sums every weight, none negative, so a NaN
            # or infinite one shows here; only then is it looked for.
            nonfinite = ~np.isfinite(weights)
            if nonfinite.any():
                raise _first_weight_error(nonfinite, weights, ids)
        d_u = demands[idx]
        if total <= 0.0:
            equal = remaining / idx.size
            newly = d_u <= equal + 1e-12
            if not newly.any():
                rates[idx] = rates[idx] + equal
                return np.where(rates > 0.0, rates, 0.0)
            cap_idx = idx[newly]
            rates[cap_idx] = demands[cap_idx]
            # Refill: re-sum what rounds before this one granted.  The
            # scalar iterates the whole demands mapping in insertion
            # order (the array axis), skipping unsaturated flows; the
            # skip is a ``+0.0`` add on a non-negative total, so the
            # masked full-axis accumulation is exact.
            if n:
                spent = float(
                    np.add.accumulate(np.where(was_saturated, rates, 0.0))[-1]
                )
            else:  # pragma: no cover - n == 0 never reaches this branch
                spent = 0.0
            remaining = capacity - spent
            was_saturated[cap_idx] = True
            unsat[cap_idx] = False
            continue
        shares = (remaining * w_u) / total
        capped = (w_u > 0.0) & (shares >= d_u - 1e-12)
        if capped.any():
            cap_idx = idx[capped]
            d_cap = demands[cap_idx]
            rates[cap_idx] = d_cap
            # Sequential ``remaining -= demand`` chain, in round order.
            seq = np.empty(d_cap.size + 1)
            seq[0] = remaining
            np.negative(d_cap, out=seq[1:])
            remaining = float(np.add.accumulate(seq)[-1])
            was_saturated[cap_idx] = True
            unsat[cap_idx] = False
            continue
        rates[idx] = shares
        return np.where(rates > 0.0, rates, 0.0)
    return np.where(rates > 0.0, rates, 0.0)


class FairShare(AllocationPolicy):
    """Equal-weight max-min share: N competing TCP flows in steady state."""

    name = "tcp-fair"

    def weights(self, flows: Sequence[FlowView]) -> dict[str, float]:
        """Unit weight per flow id."""
        return {f.flow_id: 1.0 for f in flows}

    def weights_array(self, sent_bits: np.ndarray, total_bits: np.ndarray) -> np.ndarray:
        """Unit weight per flow of an array engine's columns."""
        return np.ones(sent_bits.shape[0])

    def allocate(
        self, flows: Sequence[FlowView], capacity_bps: float
    ) -> dict[str, float]:
        """Equal-weight water-filling (see :class:`AllocationPolicy`)."""
        self._check_capacity(capacity_bps)
        if not flows:
            return {}
        demands = {f.flow_id: f.demand_bps for f in flows}
        return water_fill(demands, self.weights(flows), capacity_bps)

    def cache_key(
        self, flows: Sequence[FlowView], capacity_bps: float
    ) -> Optional[Hashable]:
        """Unit weights: rates depend only on the active set, caps, capacity."""
        return (capacity_bps, tuple((f.flow_id, f.demand_bps) for f in flows))


class MLTCPWeighted(AllocationPolicy):
    """Shares proportional to ``F(bytes_ratio)`` — the fluid model of Eq. 1.

    Rationale: with additive increase scaled by ``F_i`` and synchronized
    multiplicative decrease, flow i's average window grows at ``F_i`` per RTT
    and halves on each shared loss event, so windows (hence rates) settle in
    proportion to ``F_i``.  The packet-level simulator validates this
    abstraction directly (see tests/test_integration_packet_vs_fluid.py).
    """

    name = "mltcp"

    def __init__(self, function: AggressivenessFunction | None = None) -> None:
        self.function = function if function is not None else default_aggressiveness()
        # Fast path for the paper's deployed linear F (Eq. 2): evaluating
        # ``slope * ratio + intercept`` inline is the same arithmetic as the
        # AggressivenessFunction call chain (clamp is a no-op on the already
        # clamped bytes_ratio, a positive-intercept/non-negative-slope line
        # can't go negative), so the result is bit-identical — it just skips
        # three Python calls per flow per allocation.
        if type(self.function) is LinearAggressiveness:
            self._linear: Optional[tuple[float, float]] = (
                self.function.slope,
                self.function.intercept,
            )
        else:
            self._linear = None

    def weights(self, flows: Sequence[FlowView]) -> dict[str, float]:
        """``F(bytes_ratio)`` per flow id."""
        if self._linear is None:
            return {f.flow_id: self.function(f.bytes_ratio) for f in flows}
        slope, intercept = self._linear
        weights: dict[str, float] = {}
        for f in flows:  # repro-lint: disable=PRF002
            ratio = f.sent_bits / f.total_bits
            if ratio > 1.0:
                ratio = 1.0
            weights[f.flow_id] = slope * ratio + intercept
        return weights

    def weights_array(self, sent_bits: np.ndarray, total_bits: np.ndarray) -> np.ndarray:
        """:meth:`weights`' floats on an array engine's columns."""
        quotient = sent_bits / total_bits
        ratio = np.where(quotient < 1.0, quotient, 1.0)
        if self._linear is None:
            return np.array([self.function(r) for r in ratio.tolist()])
        slope, intercept = self._linear
        return slope * ratio + intercept

    def allocate(
        self, flows: Sequence[FlowView], capacity_bps: float
    ) -> dict[str, float]:
        """F(bytes_ratio)-weighted water-filling (paper Eq. 1, fluid form)."""
        self._check_capacity(capacity_bps)
        if not flows:
            return {}
        demands = {f.flow_id: f.demand_bps for f in flows}
        return water_fill(demands, self.weights(flows), capacity_bps)

    def cache_key(
        self, flows: Sequence[FlowView], capacity_bps: float
    ) -> Optional[Hashable]:
        """Always ``None``: the weights move with every byte sent."""
        return None


class SRPT(AllocationPolicy):
    """Priority by least remaining bytes (pFabric's fluid model).

    Flows whose remaining byte counts are within ``tie_fraction`` of the
    largest flow size present are treated as equal priority and share
    fairly: at packet granularity, pFabric interleaves the packets of
    equal-priority flows rather than strictly serializing them, so
    identical jobs that start together split the link instead of being
    served one after another.
    """

    name = "srpt"

    def __init__(self, tie_fraction: float = 0.05) -> None:
        if not 0.0 <= tie_fraction < 1.0:
            raise ValueError(f"tie_fraction must be in [0, 1), got {tie_fraction!r}")
        self.tie_fraction = tie_fraction

    def allocate(
        self, flows: Sequence[FlowView], capacity_bps: float
    ) -> dict[str, float]:
        """Least-remaining-first with tie groups sharing fairly."""
        self._check_capacity(capacity_bps)
        if not flows:
            return {}
        tolerance = self.tie_fraction * max(f.total_bits for f in flows)
        ordered = sorted(flows, key=lambda f: (f.remaining_bits, f.flow_id))
        rates: dict[str, float] = {}
        remaining_capacity = capacity_bps
        group: list[FlowView] = []
        for flow in ordered:  # repro-lint: disable=PRF002
            if group and flow.remaining_bits - group[0].remaining_bits > tolerance:
                remaining_capacity -= self._serve_group(group, remaining_capacity, rates)
                group = []
            group.append(flow)
        if group:
            self._serve_group(group, remaining_capacity, rates)
        return rates

    @staticmethod
    def _serve_group(
        group: list[FlowView], capacity: float, rates: dict[str, float]
    ) -> float:
        """Fair-share ``capacity`` within one priority group; returns usage."""
        if capacity <= 1e-12:
            for flow in group:  # repro-lint: disable=PRF002
                rates[flow.flow_id] = 0.0
            return 0.0
        demands = {f.flow_id: f.demand_bps for f in group}
        weights = {f.flow_id: 1.0 for f in group}
        group_rates = water_fill(demands, weights, capacity)
        rates.update(group_rates)
        return sum(group_rates.values())


class PDQ(AllocationPolicy):
    """SRPT with explicit sender preemption: only the ``max_senders``
    shortest flows transmit at once; the rest are paused (rate 0).

    PDQ's switches grant rates to the most critical flows and pause others;
    with size-based criticality and no deadlines this reduces to bounded-
    fan-in SRPT.
    """

    name = "pdq"

    def __init__(self, max_senders: int = 2) -> None:
        if max_senders < 1:
            raise ValueError(f"max_senders must be positive, got {max_senders!r}")
        self.max_senders = max_senders

    def allocate(
        self, flows: Sequence[FlowView], capacity_bps: float
    ) -> dict[str, float]:
        """Serve only the ``max_senders`` shortest flows; pause the rest."""
        self._check_capacity(capacity_bps)
        rates = {f.flow_id: 0.0 for f in flows}
        remaining_capacity = capacity_bps
        ordered = sorted(flows, key=lambda f: (f.remaining_bits, f.flow_id))
        for flow in ordered[: self.max_senders]:  # repro-lint: disable=PRF002
            rate = min(flow.demand_bps, remaining_capacity)
            rates[flow.flow_id] = rate
            remaining_capacity -= rate
        return rates


class PIAS(AllocationPolicy):
    """Multi-level feedback by bytes sent (information-agnostic SRPT proxy).

    Flows start in the highest-priority level and demote as their sent-byte
    count crosses each threshold.  Levels are served in strict priority;
    flows within a level share fairly.  Default thresholds are placed at
    12.5% / 25% / 50% of a "typical" flow so that long DNN collectives sink
    to the lowest level mid-iteration — the head-of-line dynamic the paper
    attributes to conventional schedulers.
    """

    name = "pias"

    def __init__(self, thresholds_bits: Sequence[float] | None = None) -> None:
        if thresholds_bits is None:
            # Relative thresholds are resolved per call against the largest
            # total flow size present, keeping the policy size-agnostic.
            self._relative = (0.125, 0.25, 0.5)
            self.thresholds_bits: tuple[float, ...] | None = None
        else:
            ordered = tuple(sorted(float(t) for t in thresholds_bits))
            if any(t <= 0 for t in ordered):
                raise ValueError("PIAS thresholds must be positive")
            self.thresholds_bits = ordered
            self._relative = ()

    def _resolve_thresholds(self, flows: Sequence[FlowView]) -> tuple[float, ...]:
        if self.thresholds_bits is not None:
            return self.thresholds_bits
        largest = max(f.total_bits for f in flows)
        return tuple(r * largest for r in self._relative)

    def allocate(
        self, flows: Sequence[FlowView], capacity_bps: float
    ) -> dict[str, float]:
        """Strict priority across levels; fair share within a level."""
        self._check_capacity(capacity_bps)
        if not flows:
            return {}
        thresholds = self._resolve_thresholds(flows)
        levels: dict[int, list[FlowView]] = {}
        for flow in flows:  # repro-lint: disable=PRF002
            level = sum(1 for t in thresholds if flow.sent_bits >= t)
            levels.setdefault(level, []).append(flow)
        rates: dict[str, float] = {f.flow_id: 0.0 for f in flows}
        remaining_capacity = capacity_bps
        for level in sorted(levels):
            if remaining_capacity <= 1e-12:
                break
            group = levels[level]
            demands = {f.flow_id: f.demand_bps for f in group}
            weights = {f.flow_id: 1.0 for f in group}
            group_rates = water_fill(demands, weights, remaining_capacity)
            for fid, rate in group_rates.items():
                rates[fid] = rate
            remaining_capacity -= sum(group_rates.values())
        return rates
