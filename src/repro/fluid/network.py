"""Multi-bottleneck fluid simulator: jobs on paths over a capacitated graph.

The single-bottleneck :class:`~repro.fluid.flowsim.FluidSimulator` models the
paper's dumbbell; real clusters have many potentially-congested links
(leaf uplinks, spine ports).  Here each job's flow crosses a *set of links*
and rates are assigned by weighted max-min fairness across the whole
network (progressive filling): repeatedly find the most-constrained link,
fix the rates of the flows crossing it in proportion to their weights, and
continue with residual capacities.  Demand caps are virtual per-flow links,
so the same machinery handles them.

The weights are the run policy's: ``FairShare``'s unit weights give
classic max-min TCP sharing, the default ``MLTCPWeighted``'s
``F(bytes_ratio)`` network-wide MLTCP — each congested link independently
develops the sliding effect, which is the paper's distributed-scalability
argument ("easily deployable and scalable").

The allocator has two entry points, one per engine: :func:`weighted_max_min`
takes a dict of flows (the scalar engine) and :func:`weighted_max_min_array`
takes ``FlowArrays`` slices (the array engine).  Both map their inputs to
integer flow and link indices and call one progressive-filling core, which
keeps the links in a heap by share and, after each round, re-scores only
the links the newly fixed flows cross (docs/PERFORMANCE.md, "One weighted
max-min core").

Each job runs the same per-flow cycle as on the single link, stepped by
the phase state machine of :mod:`repro.fluid.flowsim`, and departs after
``min(iteration_limit, max_iterations)`` iterations, with the single
link's next-event passes (bounded by the quantum, then clamped at a fault
transition) and delivery clamps.  This module owns the allocator,
fabric-fault rerouting and per-link delivered-bit accounting.  The hooks
``_next_dt`` / ``_next_dt_array`` and ``_check_fabric_guards`` keep their
names: ``e2e_bench/tracing.py`` wraps them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

import numpy as np

from ..core.units import bps_from_gbps
from ..workloads.job import IterationResult, JobSpec, _IterationLog
from .allocation import FairShare, MLTCPWeighted
from .arrays import (
    _EPS_TIME,
    PHASE_COMM,
    FlowArrays,
    deliver,
    link_index_matrix,
    next_event_dt,
)
from .flowsim import (
    _ARRAY_POLICIES,
    _VECTORIZED_MIN_FLOWS,
    _deliver_scalar,
    _JobRuntime,
    _next_event_scalar,
    _sweep_arrays,
    _sweep_scalar,
)

# repro-lint: hot-path-module
# (Scopes the PRF002 per-flow-loop rule here: flow state advances via
# whole-array numpy passes; the remaining Python loops are the gated
# fault/guard sections and the allocator core, which walks integer flow
# and link indices.)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..guards.core import GuardRail
    from .fabric import FluidFabricFaults

__all__ = ["PlacedJob", "NetworkFluidResult", "NetworkFluidSimulator", "run_network_fluid"]


@dataclass(frozen=True)
class PlacedJob:
    """A periodic job plus the set of links its flow traverses.

    ``src``/``dst`` optionally carry the fabric placement the link set was
    derived from (host names on a
    :class:`~repro.workloads.placement.FabricSpec`); they are pure
    metadata — rate allocation depends only on ``links`` — so existing
    callers that build link sets by hand are unaffected.
    """

    job: JobSpec
    links: tuple[str, ...]
    src: Optional[str] = None
    dst: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError(f"{self.job.name}: need at least one link")
        if len(set(self.links)) != len(self.links):
            raise ValueError(f"{self.job.name}: duplicate links in path")
        if self.src is not None and self.src == self.dst:
            raise ValueError(f"{self.job.name}: src and dst must differ")


@dataclass
class NetworkFluidResult(_IterationLog):
    """Iterations per job from one multi-bottleneck run."""

    placements: tuple[PlacedJob, ...]
    capacities_gbps: dict[str, float]
    policy_name: str
    iterations: list[IterationResult] = field(default_factory=list)
    end_time: float = 0.0
    #: Applied fault transitions when the run had fabric faults attached
    #: (human-readable lines, mirroring ``FluidResult.fault_log``).
    fault_log: list[str] = field(default_factory=list)
    #: Measured bits per link, recorded only by faulted runs (reroutes move
    #: traffic off a flow's nominal path, so the static accounting below
    #: would charge bits to severed links).  Empty for fault-free runs.
    delivered_bits_by_link: dict[str, float] = field(default_factory=dict)
    #: The placed jobs, in placement order.
    jobs: tuple[JobSpec, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.jobs = tuple(p.job for p in self.placements)

    def link_utilization(self) -> dict[str, float]:
        """Mean utilization of every link over the run.

        Fluid flows deliver exactly their nominal per-iteration volume
        (the simulator rejects volume jitter), so the bits a link carried
        are ``comm_bits x completed iterations`` summed over the flows
        crossing it, divided by ``capacity x end_time``.  Keys are sorted
        link names, mirroring the packet side's
        :meth:`repro.simulator.topology.Network.link_utilization`.
        Faulted runs record the bits each link actually carried (reroutes
        shift traffic off nominal paths), so those use the measured
        accounting instead.
        """
        bits_by_link = {link: 0.0 for link in sorted(self.capacities_gbps)}
        if self.delivered_bits_by_link:
            for link, bits in self.delivered_bits_by_link.items():
                bits_by_link[link] = bits
        else:
            for placement in self.placements:
                bits = placement.job.comm_bits * len(
                    self.iterations_of(placement.job.name)
                )
                for link in placement.links:
                    bits_by_link[link] += bits
        if self.end_time <= 0:
            return {link: 0.0 for link in bits_by_link}
        return {
            link: bits / (bps_from_gbps(self.capacities_gbps[link]) * self.end_time)
            for link, bits in bits_by_link.items()
        }


def _flow_error(flow: str, weight: float, demand: float) -> ValueError:
    """The error for a flow whose weight or demand is out of range."""
    if not math.isfinite(weight):
        return ValueError(f"{flow}: weight must be finite, got {weight!r}")
    if weight < 0:
        return ValueError(f"{flow}: weight must be non-negative, got {weight!r}")
    if not math.isfinite(demand):
        return ValueError(f"{flow}: demand must be finite, got {demand!r}")
    return ValueError(f"{flow}: demand must be positive, got {demand!r}")


def _link_members(
    order: Iterable[int],
    paths: list[list[int]],
    repeat_error: Callable[[int, int], ValueError],
) -> dict[int, list[int]]:
    """The flows crossing each link, listed in ``order``.

    Raises ``repeat_error(flow, link)`` for a link repeated in a path.
    """
    members: dict[int, list[int]] = {}
    for i in order:
        for k in paths[i]:
            crossing = members.get(k)
            if crossing is None:
                members[k] = [i]
            elif crossing[-1] == i:
                raise repeat_error(i, k)
            else:
                crossing.append(i)
    return members


def _progressive_fill(
    eff: list[float],
    demands: list[float],
    paths: list[list[int]],
    members: dict[int, list[int]],
    residual: list[float],
) -> tuple[list[float], list[int]]:
    """Weighted max-min by progressive filling over integer indices.

    Flows are ``0..n-1``: effective weight ``eff[i]``, demand cap
    ``demands[i]`` and the links ``paths[i]`` (no repeats).  Links are
    the positions ``0..m-1`` of ``residual`` in scan order, each holding
    the link's capacity (updated in place); ``members`` maps every link
    some flow crosses to those flows, in the order their weights are
    summed.  Flow ``i``'s demand cap is a virtual link at position
    ``m + i``, after every real link.

    Each round saturates the link of smallest finite share (residual
    over the summed weights of its unfixed members) and fixes those
    members at ``share * weight``; ties go to the earlier position, as
    in a scan that keeps the first strictly smaller share.  A heap keyed
    ``(share, position, version)`` holds each link's current share.  A
    round re-scores only the links its fixed flows cross, bumping their
    versions so older entries are dropped when popped; any other link
    kept its members and residual, so re-summing it would give the same
    float.  Residuals follow the sequential ``max(0.0, r - rate)`` chain
    in fixing order.

    Returns the per-flow rates (0.0 for a flow never fixed) and the
    order in which flows were fixed.
    """
    n = len(eff)
    m = len(residual)
    inf = math.inf
    heappop = heapq.heappop
    heappush = heapq.heappush
    heap: list[tuple[float, int, int]] = []
    for k, crossing in members.items():
        total = 0.0
        for i in crossing:
            total += eff[i]
        share = residual[k] / total
        if share < inf:  # an infinite share never saturates; NaN never wins
            heap.append((share, k, 0))
    for i in range(n):
        share = demands[i] / eff[i]
        if share < inf:
            heap.append((share, m + i, 0))
    heapq.heapify(heap)
    version = [0] * m
    unfixed = [True] * n
    rates = [0.0] * n
    fixed_order: list[int] = []
    pending = n
    while pending and heap:
        share, pos, stamp = heappop(heap)
        if pos < m:
            if stamp != version[pos]:
                continue
            # A current entry's member list holds exactly its unfixed flows.
            fixing: Sequence[int] = members[pos]
        else:
            # A virtual link changes only once: when its flow is fixed.
            if not unfixed[pos - m]:
                continue
            fixing = (pos - m,)
        touched: dict[int, None] = {}
        for i in fixing:
            rate = share * eff[i]
            if not rate > 0.0:
                rate = 0.0
            rates[i] = rate
            for k in paths[i]:
                left = residual[k] - rate
                residual[k] = left if left > 0.0 else 0.0
                touched[k] = None
            unfixed[i] = False
            fixed_order.append(i)
        pending -= len(fixing)
        for k in touched:
            stamp = version[k] + 1
            version[k] = stamp
            before = members[k]
            if len(before) == 1:  # its one member was fixed this round
                members[k] = []
                continue
            crossing = []
            total = 0.0
            for i in before:
                if unfixed[i]:
                    crossing.append(i)
                    total += eff[i]
            members[k] = crossing
            if crossing:
                share = residual[k] / total
                if share < inf:
                    heappush(heap, (share, k, stamp))
    return rates, fixed_order


def weighted_max_min(
    flows: dict[str, tuple[float, float, tuple[str, ...]]],
    capacities_bps: dict[str, float],
) -> dict[str, float]:
    """Network-wide weighted max-min rates.

    ``flows`` maps flow id to ``(weight, demand_bps, links)``.  Demand caps
    become virtual per-flow links.  Progressive filling: the link with the
    smallest capacity-per-unit-weight saturates first and fixes its flows.
    Zero-weight flows keep a vanishing (but non-zero) share, so no flow
    fully starves — the §5 non-starvation property.

    Links scan in ``capacities_bps`` order and sum their members' weights
    in sorted-id order (PYTHONHASHSEED-independent, DET004); the filling
    is :func:`_progressive_fill`, shared with
    :func:`weighted_max_min_array`.  Raises ``ValueError`` naming the flow
    for a non-finite or negative weight, a non-finite or non-positive
    demand, or a link repeated in its path, and ``KeyError`` for a link
    missing from ``capacities_bps``.
    """
    inf = math.inf
    position = dict(zip(capacities_bps, range(len(capacities_bps))))
    eff: list[float] = []
    demands: list[float] = []
    paths: list[list[int]] = []
    for fid, (weight, demand, links) in flows.items():
        if not (0.0 <= weight < inf and 0.0 < demand < inf):
            raise _flow_error(fid, weight, demand)
        try:
            paths.append([position[link] for link in links])
        except KeyError as missing:
            raise KeyError(f"{fid}: unknown link {missing.args[0]!r}") from None
        eff.append(weight if weight > 1e-9 else 1e-9)
        demands.append(demand)
    fids = list(flows)
    members = _link_members(
        sorted(range(len(fids)), key=fids.__getitem__),
        paths,
        lambda i, k: ValueError(
            f"{fids[i]}: links must not repeat, got "
            f"{list(capacities_bps)[k]!r} twice"
        ),
    )
    rates, fixed_order = _progressive_fill(
        eff, demands, paths, members, list(capacities_bps.values())
    )
    out = {fids[i]: rates[i] for i in fixed_order}
    for fid in fids:
        out.setdefault(fid, 0.0)
    return out


def weighted_max_min_array(
    weights: np.ndarray,
    demands: np.ndarray,
    flow_links: np.ndarray,
    capacities: np.ndarray,
    rank: np.ndarray,
) -> np.ndarray:
    """Array entry point of :func:`weighted_max_min`, for the array engine.

    The flow axis is in *candidate* order — the insertion order of the
    dict API's ``flows`` mapping (active runtimes in placement order) —
    and ``rank`` carries each flow's unique sort position among the flow
    ids, so each link sums its members' weights in the same sorted-id
    order without sorting strings.  ``flow_links`` is ``(n, K)`` integer,
    each row the flow's link indices into ``capacities`` padded with
    ``-1``; links scan in ``capacities`` order and demand caps are
    virtual links after them.  Fabric link sets are sparse (a flow
    crosses a handful of a fat tree's thousands of links), so only the
    links some flow crosses get member lists.

    The arrays become the lists :func:`_progressive_fill` works on, the
    core the dict API uses too, so both entry points return the same
    floats by construction (docs/PERFORMANCE.md).  Raises ``ValueError``
    naming ``flow[i]`` for every input the dict API rejects.
    """
    weights = np.asarray(weights, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    n = weights.shape[0]
    if flow_links.ndim != 2 or flow_links.shape[0] != n:
        raise ValueError(
            f"flow_links must be (flows, K) = ({n}, K), got {flow_links.shape}"
        )
    if demands.shape != (n,) or len(rank) != n:
        raise ValueError(
            f"demands and rank need one entry per flow ({n}), "
            f"got shapes {demands.shape} and {np.shape(rank)}"
        )
    inf = math.inf
    eff: list[float] = []
    demand_list = demands.tolist()
    for i, (weight, demand) in enumerate(zip(weights.tolist(), demand_list)):
        if not (0.0 <= weight < inf and 0.0 < demand < inf):
            raise _flow_error(f"flow[{i}]", weight, demand)
        eff.append(weight if weight > 1e-9 else 1e-9)
    paths = [
        row if min(row, default=0) >= 0 else [k for k in row if k >= 0]
        for row in flow_links.tolist()
    ]
    members = _link_members(
        sorted(range(n), key=np.asarray(rank).tolist().__getitem__),
        paths,
        lambda i, k: ValueError(
            f"flow[{i}]: links must not repeat, got link {k} twice"
        ),
    )
    rates, _ = _progressive_fill(
        eff,
        demand_list,
        paths,
        members,
        np.asarray(capacities, dtype=np.float64).tolist(),
    )
    return np.array(rates)


class NetworkFluidSimulator:
    """Event-driven fluid simulation over a capacitated link set."""

    def __init__(
        self,
        placements: Sequence[PlacedJob],
        capacities_gbps: dict[str, float],
        policy: Optional[FairShare | MLTCPWeighted] = None,
        seed: Optional[int] = 0,
        quantum: float = 0.02,
        fabric_faults: Optional["FluidFabricFaults"] = None,
        guards: Optional["GuardRail"] = None,
    ) -> None:
        if not placements:
            raise ValueError("need at least one placed job")
        names = [p.job.name for p in placements]
        if len(set(names)) != len(names):
            raise ValueError(f"job names must be unique, got {names}")
        for placement in placements:
            for link in placement.links:
                if link not in capacities_gbps:
                    raise ValueError(
                        f"{placement.job.name}: no capacity for link {link!r}"
                    )
            if placement.job.volume_jitter_fraction > 0.0:
                # Every comm phase loads the nominal comm_bits; accepting a
                # jittered job would silently run it without jitter.
                raise ValueError(
                    f"{placement.job.name}: volume_jitter_fraction must be 0 "
                    "on the network fluid simulator, got "
                    f"{placement.job.volume_jitter_fraction!r}"
                )
        for link, capacity in capacities_gbps.items():
            if not 0.0 < capacity < math.inf:  # NaN fails this test too
                raise ValueError(
                    f"link {link!r}: capacity must be finite and positive, "
                    f"got {capacity!r} Gbps"
                )
        if not 0.0 < quantum < math.inf:  # NaN fails this test too
            raise ValueError(f"quantum must be finite and positive, got {quantum!r}")
        policy = MLTCPWeighted() if policy is None else policy
        if type(policy) not in _ARRAY_POLICIES:  # the single link's array rule
            raise ValueError(
                f"policy must be FairShare or MLTCPWeighted, got {type(policy).__name__}"
            )
        self.placements = tuple(placements)
        self.capacities_gbps = dict(capacities_gbps)
        self.policy = policy
        self.quantum = quantum
        self._rng = np.random.default_rng(seed) if seed is not None else None
        # Array-backed flow state (one struct-of-arrays, reset per run)
        # plus the static link-membership matrix for the nominal paths.
        self._arrays = FlowArrays.from_specs([p.job for p in placements])
        self._links = tuple(self.capacities_gbps)
        self._capacities_bps = {
            link: bps_from_gbps(gbps) for link, gbps in self.capacities_gbps.items()
        }
        self._capacities_arr = np.array(list(self._capacities_bps.values()))
        self._flow_links_idx = link_index_matrix(
            self._links,
            {p.job.name: p.links for p in placements},
            self._arrays.names,
        )
        #: Optional fabric-fault replay (:class:`~repro.fluid.fabric.
        #: FluidFabricFaults`).  Each run replays its schedule from the
        #: start on a fresh copy, leaving this one untouched; ``None`` keeps
        #: the fault-free path bit-identical to the pre-fault code.
        self.fabric_faults = fabric_faults
        #: Optional guardrail: when set with faults, route-liveness and
        #: down-link allocation checks run every step.
        self.guards = guards

    def run(self, max_iterations: int) -> NetworkFluidResult:
        """Simulate until every job completed ``max_iterations`` cycles.

        A job whose ``iteration_limit`` is lower departs after its limit.
        ``run`` owns the per-run set-up; each engine owns only its step
        loop.  Populations below ``_VECTORIZED_MIN_FLOWS`` run on the
        scalar engine, larger ones on the array engine; the two are
        bit-identical.  Both stay because each wins at its size
        (docs/PERFORMANCE.md, "Size dispatch"): chaos runs about twice as
        fast on the scalar one, the 1000-job scale benchmark needs the
        array one.
        """
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be positive, got {max_iterations!r}")
        # A fresh copy of the fault state: every run replays the schedule.
        ff = self.fabric_faults
        faults = None if ff is None else type(ff)(ff.spec, ff.schedule)
        result = NetworkFluidResult(
            placements=self.placements,
            capacities_gbps=self.capacities_gbps,
            policy_name=self.policy.name,
        )
        longest = max(p.job.ideal_iteration_time for p in self.placements)
        max_steps = int(
            100 * len(self.placements) * max(1.0, 5 * longest * max_iterations / self.quantum)
        )
        # Each job departs at its own limit or at max_iterations, whichever
        # comes first, so a finished job stops taking bandwidth and the run
        # ends once every job has departed.
        departure = [
            min(p.job.iteration_limit or max_iterations, max_iterations)
            for p in self.placements
        ]
        bits_by_link: dict[str, float] = {}
        small = len(self.placements) < _VECTORIZED_MIN_FLOWS
        engine = self._run_scalar if small else self._run_arrays
        now, finished = engine(result, faults, departure, max_steps, bits_by_link)
        if not finished:
            raise RuntimeError("network fluid simulation exceeded its step budget")
        result.end_time = now
        if faults is not None:
            result.fault_log = faults.descriptions()
            result.delivered_bits_by_link = bits_by_link
        return result

    def _run_arrays(
        self,
        result: NetworkFluidResult,
        faults: Optional["FluidFabricFaults"],
        departure: Sequence[Optional[int]],
        max_steps: int,
        bits_by_link: dict[str, float],
    ) -> tuple[float, bool]:
        """Array engine's step loop (see ``run``).

        Adds each faulted step's delivered bits to ``bits_by_link``.
        Returns the clock when the loop stopped and whether every job
        finished within ``max_steps``.
        """
        fa = self._arrays
        fa.reset()
        n = len(fa)
        phase = fa.phase
        remaining = fa.remaining_bits
        sent = fa.sent_bits
        rates_arr = fa.rates
        total_bits = fa.total_bits
        demand_bps = fa.demand_bps
        iterations = result.iterations
        rng = self._rng
        weights_array = self.policy.weights_array
        capacities_bps = self._capacities_bps
        now = 0.0

        # Fabric-fault state: all of it is gated on ``faults`` being
        # attached, so a fault-free run takes exactly the pre-fault path.
        guards = self.guards
        effective_capacities = capacities_bps
        capacities_arr = self._capacities_arr
        flow_links_idx = self._flow_links_idx
        has_path = np.ones(n, dtype=bool)
        flow_links: dict[str, Optional[tuple[str, ...]]] = {}
        routing_generation = -1
        last_factors: dict[str, float] = {}

        for _step in range(max_steps):
            if faults is not None:
                faults.advance_to(now)
                if faults.routing.generation != routing_generation:
                    routing_generation = faults.routing.generation
                    # Reroute every flow over the surviving spines; an
                    # in-flight flow keeps sent/remaining bits, so a reroute
                    # moves the tail of the transfer, not the whole volume.
                    flow_links = {
                        p.job.name: faults.links_for(p) for p in self.placements
                    }
                    # Partitioned flows (no surviving path) stall until a
                    # reversion restores connectivity — the fluid rendering
                    # of a blackhole — so they leave the allocatable set.
                    has_path = np.array(
                        [flow_links[name] is not None for name in fa.names]
                    )
                    flow_links_idx = link_index_matrix(
                        self._links,
                        {
                            name: flow_links[name] or ()
                            for name in fa.names
                        },
                        fa.names,
                    )
                factors = faults.capacity_factors(now)
                if factors != last_factors:
                    last_factors = factors
                    if factors:
                        effective_capacities = {
                            link: cap * factors.get(link, 1.0)
                            for link, cap in capacities_bps.items()
                        }
                        capacities_arr = np.array(
                            [effective_capacities[link] for link in self._links]
                        )
                    else:
                        effective_capacities = capacities_bps
                        capacities_arr = self._capacities_arr

            if _sweep_arrays(fa, departure, now, iterations, rng):
                return now, True
            active = phase == PHASE_COMM
            allocatable = active if faults is None else active & has_path
            a_idx = np.nonzero(allocatable)[0]
            rates_arr.fill(0.0)
            weights: Optional[np.ndarray] = None
            if a_idx.size:
                weights = weights_array(sent[a_idx], total_bits[a_idx])
                rates_arr[a_idx] = weighted_max_min_array(
                    weights,
                    demand_bps[a_idx],
                    flow_links_idx[a_idx],
                    capacities_arr,
                    fa.rank[a_idx],
                )
            if faults is not None and guards is not None:
                flow_specs: dict[str, tuple[float, float, tuple[str, ...]]] = {}
                rates_map: dict[str, float] = {}
                for j, raw in enumerate(a_idx):
                    i = int(raw)
                    name = fa.names[i]
                    links = flow_links[name]
                    assert links is not None and weights is not None
                    flow_specs[name] = (
                        float(weights[j]), float(demand_bps[i]), links
                    )
                    rates_map[name] = float(rates_arr[i])
                self._check_fabric_guards(
                    guards, flow_specs, rates_map, effective_capacities,
                    last_factors, now,
                )
            dt = self._next_dt_array(now)
            if faults is not None:
                upcoming = faults.next_transition_after(now)
                if upcoming is not None and upcoming - now > _EPS_TIME:
                    dt = min(dt, upcoming - now)
            delivered = deliver(rates_arr, dt, remaining, sent, total_bits)
            if faults is not None:
                # Measured per-link accounting stays a Python loop: the
                # scalar sums each link's dict slot in active-flow order
                # and float addition is order-sensitive.
                for raw in np.nonzero(active)[0]:
                    i = int(raw)
                    bits = float(delivered[i])
                    if bits > 0.0:
                        links = flow_links[fa.names[i]]
                        assert links is not None
                        for link in links:
                            bits_by_link[link] = (
                                bits_by_link.get(link, 0.0) + bits
                            )
            now += dt
        return now, False

    def _run_scalar(
        self,
        result: NetworkFluidResult,
        faults: Optional["FluidFabricFaults"],
        departure: Sequence[Optional[int]],
        max_steps: int,
        bits_by_link: dict[str, float],
    ) -> tuple[float, bool]:
        """Scalar engine's step loop; same contract as ``_run_arrays``."""
        runtimes = [
            _JobRuntime(spec=p.job, phase_deadline=p.job.start_offset, departure=limit)
            for p, limit in zip(self.placements, departure)
        ]
        iterations = result.iterations
        rng = self._rng
        weights_of = self.policy.weights
        capacities_bps = self._capacities_bps
        now = 0.0

        # Fabric-fault state: the capacity and reroute updates are gated on
        # ``faults`` being attached, so a fault-free run keeps the nominal
        # capacities and each placement's own links.
        guards = self.guards
        effective_capacities = capacities_bps
        flow_links: dict[str, Optional[tuple[str, ...]]] = {
            p.job.name: p.links for p in self.placements
        }
        routing_generation = -1
        last_factors: dict[str, float] = {}

        for _step in range(max_steps):
            if faults is not None:
                faults.advance_to(now)
                if faults.routing.generation != routing_generation:
                    routing_generation = faults.routing.generation
                    # Reroute every flow over the surviving spines; an
                    # in-flight flow keeps sent/remaining bits, so a reroute
                    # moves the tail of the transfer, not the whole volume.
                    flow_links = {
                        p.job.name: faults.links_for(p) for p in self.placements
                    }
                factors = faults.capacity_factors(now)
                if factors != last_factors:
                    last_factors = factors
                    effective_capacities = (
                        {
                            link: cap * factors.get(link, 1.0)
                            for link, cap in capacities_bps.items()
                        }
                        if factors
                        else capacities_bps
                    )
            active, finished = _sweep_scalar(runtimes, now, iterations, rng)
            if finished:
                return now, True
            weights = weights_of(active)
            flow_specs: dict[str, tuple[float, float, tuple[str, ...]]] = {}
            for rt in active:
                links = flow_links[rt.spec.name]
                if links is None:
                    # No surviving path (partitioned): the flow stalls
                    # until a reversion restores connectivity — the
                    # fluid rendering of a blackhole.
                    continue
                flow_specs[rt.spec.name] = (
                    weights[rt.flow_id],
                    rt.spec.demand_bps,
                    links,
                )
            rates = (
                weighted_max_min(flow_specs, effective_capacities)
                if flow_specs
                else {}
            )
            if faults is not None and guards is not None:
                self._check_fabric_guards(
                    guards, flow_specs, rates, effective_capacities,
                    last_factors, now,
                )
            dt = self._next_dt(runtimes, rates, now)
            if faults is not None:
                upcoming = faults.next_transition_after(now)
                if upcoming is not None and upcoming - now > _EPS_TIME:
                    dt = min(dt, upcoming - now)
            for rt in active:
                delivered = rates.get(rt.spec.name, 0.0) * dt
                if faults is not None and delivered > 0.0:
                    links = flow_links[rt.spec.name]
                    assert links is not None
                    for link in links:
                        bits_by_link[link] = (
                            bits_by_link.get(link, 0.0) + delivered
                        )
                _deliver_scalar(rt, delivered)
            now += dt
        return now, False

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _check_fabric_guards(
        guards: "GuardRail",
        flow_specs: dict[str, tuple[float, float, tuple[str, ...]]],
        rates: dict[str, float],
        capacities_bps: dict[str, float],
        factors: dict[str, float],
        now: float,
    ) -> None:
        """Fluid renditions of the fabric-fault guards.

        ``route-liveness``: no allocated flow's *current* path may cross a
        severed (factor-0) link — tripping means the reroute cache went
        stale.  ``reroute-conservation``: on every fault-affected link the
        allocated rates must still fit the degraded capacity.  Both only
        scan the (small) set of affected links, so armed-guard overhead
        scales with fault blast radius, not fabric size.
        """
        if not factors:
            return
        for fid in sorted(flow_specs):
            _weight, _demand, links = flow_specs[fid]
            # Identity check: severed links get a literal 0.0 factor.
            if any(
                factors.get(link, 1.0) == 0.0 for link in links  # repro-lint: disable=FLT001
            ):
                guards.violation(
                    "route-liveness",
                    fid,
                    now,
                    "flow is allocated across a severed link; the "
                    "surviving-spine reroute missed it",
                )
        for link in sorted(factors):
            capacity = capacities_bps.get(link)
            if capacity is None:
                continue
            total = 0.0
            for fid in sorted(flow_specs):
                if link in flow_specs[fid][2]:
                    total += rates.get(fid, 0.0)
            if total > capacity + 1e-6 * max(capacity, 1.0):
                guards.violation(
                    "reroute-conservation",
                    link,
                    now,
                    f"allocated {total:.6g} bps exceeds the degraded "
                    f"capacity {capacity:.6g} bps",
                )

    def _quantum_bound(self) -> float:
        """The flow-independent bound on one step: the quantum."""
        return self.quantum if self.quantum > _EPS_TIME else math.inf

    def _next_dt_array(self, now: float) -> float:
        """The array engine's per-step next-event hook."""
        return next_event_dt(self._arrays, now, self._quantum_bound())

    def _next_dt(
        self, runtimes: list[_JobRuntime], rates: dict[str, float], now: float
    ) -> float:
        """The scalar engine's per-step next-event hook."""
        return _next_event_scalar(runtimes, rates, now, self._quantum_bound())


def run_network_fluid(
    placements: Sequence[PlacedJob],
    capacities_gbps: dict[str, float],
    policy: Optional[FairShare | MLTCPWeighted] = None,
    max_iterations: int = 40,
    seed: Optional[int] = 0,
    quantum: float = 0.02,
    fabric_faults: Optional["FluidFabricFaults"] = None,
    guards: Optional["GuardRail"] = None,
) -> NetworkFluidResult:
    """One-call convenience wrapper around :class:`NetworkFluidSimulator`."""
    simulator = NetworkFluidSimulator(
        placements,
        capacities_gbps,
        policy=policy,
        seed=seed,
        quantum=quantum,
        fabric_faults=fabric_faults,
        guards=guards,
    )
    return simulator.run(max_iterations=max_iterations)
