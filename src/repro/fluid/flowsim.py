"""Event-driven flow-level ("fluid") simulator of periodic jobs on a link.

This is the paper's evaluation substrate at flow granularity: each job
alternates between a communication phase (its per-iteration collective,
elastic up to its demand rate) and a computation phase (a timed gap, with
the §4 Gaussian noise model).  The bottleneck's capacity is divided among
the jobs currently communicating by an
:class:`~repro.fluid.allocation.AllocationPolicy` — fair share for TCP,
``F(bytes_ratio)``-weighted for MLTCP, SRPT for pFabric, etc.

Rates are piecewise-constant between events; an event is a phase completion,
a job start, the expiry of a re-evaluation quantum (MLTCP weights drift
as ``bytes_ratio`` grows, so allocations are refreshed at least every
``quantum`` seconds), or a fault transition.  The simulator records every
iteration and every rate segment, which is exactly the data the paper's
figures plot.

Fault injection: pass ``faults=FaultSchedule(...)`` to replay link flaps,
bandwidth degradations, stragglers and job restarts inside the fluid model
(mapping documented in :mod:`repro.faults.fluid` and docs/FAULTS.md).  A
restarted job discards its in-flight iteration and re-enters with
``sent_bits`` zeroed — the fluid analogue of MLTCP resetting ``bytes_sent``.
Every ``run()`` replays the schedule from the start.

Both batch simulators (this one and :mod:`repro.fluid.network`) step the one
per-flow phase state machine defined here — WAITING until the start offset,
COMM until the phase's bits are delivered, COMPUTE until the sampled gap
ends, then the next COMM phase or departure — with :func:`_sweep_scalar`
over :class:`_JobRuntime` objects or :func:`_sweep_arrays` over
``FlowArrays``.  What differs between them (departure points, a straggler
compute scale) is passed in as data.  So is each step's next-event bound:
every loop calls one next-event pass and one delivery clamp per
representation (:func:`_next_event_scalar` / :func:`_deliver_scalar` here,
``arrays.next_event_dt`` / ``arrays.deliver``).  ``e2e_bench/tracing.py``
counts steps by the per-step hooks ``_next_event_dt`` and
``_next_event_dt_scalar`` and wraps ``_check_allocation``, by name.  The
array engine allocates only for ``FairShare`` and ``MLTCPWeighted``, on
their ``weights_array``; every other policy runs on the scalar engine.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from ..core.tolerances import close, is_zero
from ..core.units import bps_from_gbps, gbps_from_bps
from ..workloads.job import IterationResult, JobSpec, _IterationLog
from .allocation import (
    AllocationPolicy,
    FairShare,
    FlowView,
    MLTCPWeighted,
    water_fill_array,
)
from .arrays import (
    _EPS_BITS,
    _EPS_TIME,
    PHASE_COMM,
    PHASE_COMPUTE,
    PHASE_DONE,
    PHASE_WAITING,
    FlowArrays,
    deliver,
    next_event_dt,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.fluid import FluidFaultState
    from ..faults.schedule import FaultSchedule
    from ..guards.core import GuardRail

# repro-lint: hot-path-module
# (PRF002: flow state lives in FlowArrays and must be advanced with
# whole-array numpy passes; per-flow Python loops over view/runtime
# sequences are flagged in this module.)

__all__ = [
    "Phase",
    "IterationResult",
    "RateSegment",
    "FluidResult",
    "FluidSimulator",
    "run_fluid",
]

#: Flow count at which the array engine takes over from the scalar one.
#: numpy's fixed per-op cost dominates small populations — the measured
#: crossover is ~32 flows (docs/PERFORMANCE.md, "Vectorized core & scale
#: benchmarks") — and both engines are bit-identical, so the dispatch
#: changes wall-clock only, never a result.
_VECTORIZED_MIN_FLOWS = 32

#: The policies whose weights the array engine computes as whole arrays
#: (unit, ``F(bytes_ratio)``); any other, a subclass too, runs scalar.
_ARRAY_POLICIES = (FairShare, MLTCPWeighted)


class Phase(enum.Enum):
    """Lifecycle of a periodic job inside the simulator."""

    WAITING = "waiting"
    COMM = "comm"
    COMPUTE = "compute"
    DONE = "done"


#: The members bound once: the scalar engines test phases per flow per
#: step, and a ``Phase.X`` load goes through the Enum metaclass at several
#: times the cost of a global (docs/PERFORMANCE.md, "Enum member loads").
_WAITING, _COMM = Phase.WAITING, Phase.COMM
_COMPUTE, _DONE = Phase.COMPUTE, Phase.DONE


@dataclass(frozen=True)
class RateSegment:
    """Constant bottleneck allocation over ``[start, end)``."""

    start: float
    end: float
    rates_bps: dict[str, float]


class _JobRuntime(FlowView):
    """Per-flow state of both simulators' scalar (small-population) engines.

    A runtime is its own :class:`FlowView`: ``flow_id``, ``demand_bps``
    and ``total_bits`` are the job's name, demand and nominal volume, and
    the step loop advances ``remaining_bits``/``sent_bits`` in place, so
    the active runtimes go to the policy as they are.
    """

    __slots__ = (
        "spec", "phase", "iteration_index", "comm_start", "comm_end",
        "phase_deadline", "departure",
    )

    def __init__(
        self, spec: JobSpec, phase_deadline: float, departure: Optional[int]
    ) -> None:
        super().__init__(spec.name, spec.demand_bps, 0.0, 0.0, spec.comm_bits)
        self.spec = spec
        self.phase = _WAITING
        self.iteration_index = 0
        self.comm_start = math.nan
        self.comm_end = math.nan
        #: The start offset, then the end of each compute phase.
        self.phase_deadline = phase_deadline
        #: Iterations after which the flow departs (``None``: it never does).
        self.departure = departure


@dataclass
class FluidResult(_IterationLog):
    """Everything a fluid run produced."""

    jobs: tuple[JobSpec, ...]
    capacity_gbps: float
    policy_name: str
    iterations: list[IterationResult] = field(default_factory=list)
    segments: list[RateSegment] = field(default_factory=list)
    end_time: float = 0.0
    #: Human-readable fault transitions applied during the run (empty when
    #: no schedule was installed); feeds telemetry's ``fault`` records.
    fault_log: list[str] = field(default_factory=list)

    def all_iteration_times(self) -> np.ndarray:
        """Durations of every completed iteration of every job."""
        return np.array([it.duration for it in self.iterations])

    def mean_iteration_time(self, job: str, skip: int = 0) -> float:
        """Mean iteration duration, optionally skipping warm-up iterations."""
        times = self.iteration_times(job)[skip:]
        if len(times) == 0:
            raise ValueError(f"no completed iterations for job {job!r} after skip={skip}")
        return float(times.mean())

    def rate_timeline(
        self, job: str, dt: float = 0.01
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(times, rate_gbps)`` sampled every ``dt`` — the Figure 4/6 view."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt!r}")
        samples = int(self.end_time / dt)
        times = np.arange(samples) * dt
        rates = np.zeros(samples)
        for segment in self.segments:
            rate = gbps_from_bps(segment.rates_bps.get(job, 0.0))
            if is_zero(rate):
                continue
            lo = int(np.ceil(segment.start / dt))
            hi = min(samples, int(np.ceil(segment.end / dt)))
            rates[lo:hi] = rate
        return times, rates

    def comm_starts(self, job: str) -> np.ndarray:
        """Start times of the job's communication phases."""
        return np.array([it.comm_start for it in self.iterations_of(job)])


def _sweep_scalar(
    runtimes: list[_JobRuntime],
    now: float,
    iterations: list[IterationResult],
    rng: Optional[np.random.Generator],
    max_iterations: Optional[int] = None,
    compute_scale: Optional[Callable[[str, float], float]] = None,
) -> tuple[list[_JobRuntime], bool]:
    """Apply due phase transitions in one pass over the runtimes.

    Returns ``(active, finished)``: the flows now in their communication
    phase and whether every flow has departed or, when ``max_iterations``
    is given, completed that many iterations.  A completed iteration is
    appended to ``iterations``; ``compute_scale(job, now)``, when given,
    stretches a newly sampled compute gap (the single link's stragglers).
    Flows are visited in index order, the order the RNG draws follow.
    """
    active: list[_JobRuntime] = []
    finished = True
    for rt in runtimes:  # repro-lint: disable=PRF002
        phase = rt.phase
        if phase is _WAITING:
            if now >= rt.phase_deadline - _EPS_TIME:
                _start_comm_scalar(rt, now, rng)
                phase = _COMM
        elif phase is _COMM and rt.remaining_bits <= _EPS_BITS:
            rt.comm_end = now
            compute = rt.spec.sample_compute_time(rng)
            if compute_scale is not None:
                compute *= compute_scale(rt.flow_id, now)
            rt.phase = phase = _COMPUTE
            rt.phase_deadline = now + compute
        elif phase is _COMPUTE and now >= rt.phase_deadline - _EPS_TIME:
            iterations.append(
                IterationResult(
                    job=rt.flow_id,
                    index=rt.iteration_index,
                    comm_start=rt.comm_start,
                    comm_end=rt.comm_end,
                    iteration_end=now,
                )
            )
            rt.iteration_index += 1
            limit = rt.departure
            if limit is not None and rt.iteration_index >= limit:
                rt.phase = phase = _DONE  # training finished: departs
            else:
                _start_comm_scalar(rt, now, rng)
                phase = _COMM
        if phase is _COMM:
            active.append(rt)
        if finished and phase is not _DONE:
            if max_iterations is None or rt.iteration_index < max_iterations:
                finished = False
    return active, finished


def _start_comm_scalar(
    rt: _JobRuntime, now: float, rng: Optional[np.random.Generator]
) -> None:
    rt.phase = _COMM
    rt.remaining_bits = rt.spec.sample_comm_bits(rng)
    rt.sent_bits = 0.0
    rt.comm_start = now
    rt.comm_end = math.nan


def _next_event_scalar(
    runtimes: list[_JobRuntime], rates: dict[str, float], now: float, best: float
) -> float:
    """Scalar twin of :func:`repro.fluid.arrays.next_event_dt`: a running
    minimum from the bound ``best``, so both return the same float."""
    rates_get = rates.get
    for rt in runtimes:  # repro-lint: disable=PRF002
        phase = rt.phase
        if phase is _COMM:
            rate = rates_get(rt.flow_id, 0.0)
            if rate > 0:
                candidate = rt.remaining_bits / rate
                if _EPS_TIME < candidate < best:
                    best = candidate
        elif phase is not _DONE:
            candidate = rt.phase_deadline - now
            if _EPS_TIME < candidate < best:
                best = candidate
    return best if not math.isinf(best) else _EPS_TIME


def _deliver_scalar(rt: _JobRuntime, delivered: float) -> None:
    """Scalar twin of :func:`repro.fluid.arrays.deliver` for one flow."""
    remaining = rt.remaining_bits - delivered
    rt.remaining_bits = remaining if remaining > 0.0 else 0.0
    total = rt.total_bits
    sent = rt.sent_bits + delivered
    rt.sent_bits = sent if sent < total else total


def _sweep_arrays(
    fa: FlowArrays,
    departure: Sequence[Optional[int]],
    now: float,
    iterations: list[IterationResult],
    rng: Optional[np.random.Generator],
    max_iterations: Optional[int] = None,
    compute_scale: Optional[Callable[[str, float], float]] = None,
) -> bool:
    """Whole-array twin of :func:`_sweep_scalar`; returns ``finished``.

    Due transitions are found with whole-array masks computed from the
    pre-sweep state (one transition per flow per sweep, exactly like the
    scalar ``elif`` chain), then dispatched per flow in ascending index
    order.  ``departure[i]`` is flow ``i``'s iteration limit.
    """
    phase = fa.phase
    deadline = fa.deadline
    wait_due = (phase == PHASE_WAITING) & (now >= deadline - _EPS_TIME)
    comm_done = (phase == PHASE_COMM) & (fa.remaining_bits <= _EPS_BITS)
    compute_due = (phase == PHASE_COMPUTE) & (now >= deadline - _EPS_TIME)
    due = wait_due | comm_done | compute_due
    if due.any():
        comm_start = fa.comm_start
        comm_end = fa.comm_end
        iter_index = fa.iteration_index
        specs = fa.specs
        names = fa.names
        for i in np.nonzero(due)[0].tolist():
            if wait_due[i]:
                _start_comm(fa, i, now, rng)
            elif comm_done[i]:
                comm_end[i] = now
                compute = specs[i].sample_compute_time(rng)
                if compute_scale is not None:
                    compute *= compute_scale(names[i], now)
                phase[i] = PHASE_COMPUTE
                deadline[i] = now + compute
            else:
                iterations.append(
                    IterationResult(
                        job=names[i],
                        index=int(iter_index[i]),
                        comm_start=float(comm_start[i]),
                        comm_end=float(comm_end[i]),
                        iteration_end=now,
                    )
                )
                iter_index[i] += 1
                limit = departure[i]
                if limit is not None and iter_index[i] >= limit:
                    phase[i] = PHASE_DONE  # training finished: departs
                else:
                    _start_comm(fa, i, now, rng)
    done = phase == PHASE_DONE
    if max_iterations is None:
        return bool(done.all())
    return bool((done | (fa.iteration_index >= max_iterations)).all())


def _start_comm(
    fa: FlowArrays, i: int, now: float, rng: Optional[np.random.Generator]
) -> None:
    fa.phase[i] = PHASE_COMM
    fa.remaining_bits[i] = fa.specs[i].sample_comm_bits(rng)
    fa.sent_bits[i] = 0.0
    fa.comm_start[i] = now
    fa.comm_end[i] = math.nan


class FluidSimulator:
    """Runs a job mix on one bottleneck under a given allocation policy."""

    def __init__(
        self,
        jobs: Sequence[JobSpec],
        capacity_gbps: float,
        policy: Optional[AllocationPolicy] = None,
        seed: Optional[int] = 0,
        quantum: float = 0.02,
        faults: Optional["FaultSchedule"] = None,
        guards: Optional["GuardRail"] = None,
    ) -> None:
        if not jobs:
            raise ValueError("need at least one job")
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"job names must be unique, got {names}")
        for field_name, value in (("capacity_gbps", capacity_gbps), ("quantum", quantum)):
            if not 0.0 < value < math.inf:  # NaN fails this test too
                raise ValueError(
                    f"{field_name} must be finite and positive, got {value!r}"
                )
        self.jobs = tuple(jobs)
        self.capacity_bps = bps_from_gbps(capacity_gbps)
        self.capacity_gbps = capacity_gbps
        self.policy = policy if policy is not None else FairShare()
        self.quantum = quantum
        #: Optional guardrail; when set, every allocation is checked against
        #: the capacity/non-negativity contract and a livelocked run reports
        #: ``fluid-stall`` before raising (docs/ROBUSTNESS.md).
        self.guards = guards
        self._rng = np.random.default_rng(seed) if seed is not None else None
        #: Struct-of-arrays flow state (see repro.fluid.arrays); reset per run.
        self._arrays = FlowArrays.from_specs(self.jobs)
        #: Every run replays this schedule from its start on a fresh fault
        #: state; ``faults`` is the latest one (built here first, which
        #: rejects a bad schedule), whose log the result reports.
        self._fault_schedule = faults
        self.faults = self._fault_state()

    def run(
        self,
        end_time: Optional[float] = None,
        max_iterations: Optional[int] = None,
        record_segments: bool = True,
    ) -> FluidResult:
        """Simulate until ``end_time`` or every job finished ``max_iterations``.

        At least one stopping criterion is required.  ``run`` owns the
        per-run set-up; each engine owns only its step loop.  Populations
        of ``_VECTORIZED_MIN_FLOWS`` or more under one of
        ``_ARRAY_POLICIES`` run on the array engine, everything else on
        the scalar engine; the two are bit-identical.  Both stay because
        each wins at its size (docs/PERFORMANCE.md, "Size dispatch"):
        fig4's six jobs run about 7x faster on the scalar one, the
        10k-flow scale benchmark needs the array one.
        """
        if end_time is None and max_iterations is None:
            raise ValueError("provide end_time and/or max_iterations")
        if end_time is not None and end_time <= 0:
            raise ValueError(f"end_time must be positive, got {end_time!r}")
        if max_iterations is not None and max_iterations < 1:
            raise ValueError(f"max_iterations must be positive, got {max_iterations!r}")
        self.faults = faults = self._fault_state()
        result = FluidResult(
            jobs=self.jobs,
            capacity_gbps=self.capacity_gbps,
            policy_name=self.policy.name,
        )
        # Generous guard: a few events per quantum per job.
        horizon = end_time if end_time is not None else self._horizon(max_iterations)
        if faults is not None:
            # Faults stall progress (a downed link delivers nothing) and add
            # transitions; extend the envelope past the last one.
            horizon += faults.last_transition
        max_steps = int(50 * len(self.jobs) * max(1.0, horizon / self.quantum))
        departure = [job.iteration_limit for job in self.jobs]
        vectorized = (
            len(self.jobs) >= _VECTORIZED_MIN_FLOWS
            and type(self.policy) in _ARRAY_POLICIES
        )
        engine = self._run_arrays if vectorized else self._run_scalar
        now, finished = engine(
            result, faults, departure, max_steps, end_time, max_iterations,
            record_segments,
        )
        if not finished:
            if self.guards is not None:
                self.guards.violation(
                    "fluid-stall",
                    self.policy.name,
                    now,
                    f"exceeded {max_steps} steps without finishing; "
                    "zero-rate livelock?",
                )
            raise RuntimeError(
                f"fluid simulation exceeded {max_steps} steps without finishing; "
                "check for a zero-rate livelock"
            )
        result.end_time = now
        if faults is not None:
            result.fault_log = faults.descriptions()
        return result

    def _run_arrays(
        self,
        result: FluidResult,
        faults: Optional["FluidFaultState"],
        departure: Sequence[Optional[int]],
        max_steps: int,
        end_time: Optional[float],
        max_iterations: Optional[int],
        record_segments: bool,
    ) -> tuple[float, bool]:
        """Array engine's step loop (see ``run``).

        Returns the clock when the loop stopped and whether the run
        finished within ``max_steps``.
        """
        fa = self._arrays
        fa.reset()
        now = 0.0
        last_capacity_factor = 1.0
        # Hot-loop hoists (docs/PERFORMANCE.md): invariants and the
        # struct-of-arrays columns looked up once instead of per event.
        full_capacity = self.capacity_bps
        policy = self.policy
        guards = self.guards
        policy_name = policy.name
        iterations = result.iterations
        segments = result.segments
        rng = self._rng
        compute_scale = faults.compute_scale if faults is not None else None
        names = fa.names
        phase = fa.phase
        remaining = fa.remaining_bits
        sent = fa.sent_bits
        rates_arr = fa.rates
        demand_bps = fa.demand_bps
        total_bits = fa.total_bits
        rank = fa.rank
        assert isinstance(policy, _ARRAY_POLICIES)  # ``run`` sends only these
        weights_array = policy.weights_array
        fair = type(policy) is FairShare
        # Allocation reuse mirrors the scalar policies' cache tokens
        # bit-for-bit (AllocationPolicy.cache_key): FairShare's token is
        # (capacity, active ids + demands); ids and demands are static per
        # index, so the index set is an equivalent token.  MLTCP's is None.
        last_key: Optional[object] = None
        last_alloc = np.zeros(0)
        for _step in range(max_steps):
            if faults is not None:
                self._apply_restarts(faults, now)
            finished = _sweep_arrays(
                fa, departure, now, iterations, rng, max_iterations, compute_scale
            )
            if finished or (end_time is not None and now >= end_time - _EPS_TIME):
                return now, True

            capacity = full_capacity
            if faults is not None:
                factor = faults.capacity_factor(now)
                if not close(factor, last_capacity_factor):
                    faults.record(now, f"capacity factor -> {factor:g}")
                    last_capacity_factor = factor
                capacity *= factor
            active_idx = np.nonzero(phase == PHASE_COMM)[0]
            alloc: Optional[np.ndarray] = None
            rates_arr.fill(0.0)
            if active_idx.size and capacity > 0:
                key = (capacity, active_idx.tobytes()) if fair else None
                if key is not None and key == last_key:
                    alloc = last_alloc
                else:
                    weights = weights_array(sent[active_idx], total_bits[active_idx])
                    alloc = water_fill_array(
                        demand_bps[active_idx], weights, capacity, rank=rank[active_idx]
                    )
                    last_key = key
                    last_alloc = alloc
                    if guards is not None and alloc.size:
                        # Fresh allocations only: a cache-reused vector was
                        # already checked when it was computed.
                        rates_map = self._rates_map(names, active_idx, alloc)
                        self._check_allocation(guards, rates_map, capacity, now, policy_name)
                rates_arr[active_idx] = alloc
            dt = self._next_event_dt(faults, now, end_time)
            if dt <= 0:
                dt = _EPS_TIME
            if alloc is not None:
                if record_segments:
                    seg_rates = self._rates_map(names, active_idx, alloc)
                    segments.append(RateSegment(start=now, end=now + dt, rates_bps=seg_rates))
                deliver(rates_arr, dt, remaining, sent, total_bits)
            now += dt
        return now, False

    def _run_scalar(
        self,
        result: FluidResult,
        faults: Optional["FluidFaultState"],
        departure: Sequence[Optional[int]],
        max_steps: int,
        end_time: Optional[float],
        max_iterations: Optional[int],
        record_segments: bool,
    ) -> tuple[float, bool]:
        """Scalar engine's step loop; same contract as ``_run_arrays``."""
        runtimes = [
            _JobRuntime(spec=job, phase_deadline=job.start_offset, departure=limit)
            for job, limit in zip(self.jobs, departure)
        ]
        now = 0.0
        last_capacity_factor = 1.0
        # Hot-loop hoists (docs/PERFORMANCE.md): bound methods and invariants
        # looked up once instead of per event.
        full_capacity = self.capacity_bps
        allocate = self.policy.allocate
        policy_cache_key = self.policy.cache_key
        guards = self.guards
        policy_name = self.policy.name
        iterations = result.iterations
        segments = result.segments
        rng = self._rng
        compute_scale = faults.compute_scale if faults is not None else None
        # Allocation reuse: while the policy's cache token is unchanged the
        # previous rate vector is returned verbatim (see
        # AllocationPolicy.cache_key).  Token-less policies recompute every
        # event, exactly as before.
        last_key: Optional[object] = None
        last_rates: dict[str, float] = {}
        for _step in range(max_steps):
            if faults is not None:
                self._apply_restarts_scalar(faults, runtimes, now)
            active, finished = _sweep_scalar(
                runtimes, now, iterations, rng, max_iterations, compute_scale
            )
            if finished or (end_time is not None and now >= end_time - _EPS_TIME):
                return now, True

            capacity = full_capacity
            if faults is not None:
                factor = faults.capacity_factor(now)
                if not close(factor, last_capacity_factor):
                    faults.record(now, f"capacity factor -> {factor:g}")
                    last_capacity_factor = factor
                capacity *= factor
            if active and capacity > 0:
                key = policy_cache_key(active, capacity)
                if key is not None and key == last_key:
                    rates = last_rates
                else:
                    rates = allocate(active, capacity)
                    last_key = key
                    last_rates = rates
                    if guards is not None and rates:
                        # Fresh allocations only: a cache-reused vector was
                        # already checked when it was computed.
                        self._check_allocation(
                            guards, rates, capacity, now, policy_name
                        )
            else:
                rates = {}
            dt = self._next_event_dt_scalar(faults, runtimes, rates, now, end_time)
            if dt <= 0:
                dt = _EPS_TIME
            if record_segments and rates:
                segments.append(
                    RateSegment(start=now, end=now + dt, rates_bps=dict(rates))
                )
            rates_get = rates.get
            for rt in active:
                rate = rates_get(rt.flow_id, 0.0)
                # Identity check, not a numeric tolerance: a literal zero rate
                # delivers nothing, so skipping the writes is bit-identical.
                if rate == 0.0:  # repro-lint: disable=FLT001
                    continue
                _deliver_scalar(rt, rate * dt)
            now += dt
        return now, False

    # -- internals --------------------------------------------------------

    def _fault_state(self) -> Optional["FluidFaultState"]:
        """A fresh fault state for one run (``None`` without a schedule)."""
        if self._fault_schedule is None:
            return None
        from ..faults.fluid import FluidFaultState

        return FluidFaultState(self._fault_schedule, self._arrays.names)

    @staticmethod
    def _check_allocation(
        guards: "GuardRail",
        rates: dict[str, float],
        capacity: float,
        now: float,
        policy_name: str,
    ) -> None:
        """Enforce the ``AllocationPolicy.allocate`` contract at runtime."""
        from ..guards.monitors import check_allocation

        check_allocation(guards, rates, capacity, now=now, subject=policy_name)

    def _horizon(self, max_iterations: Optional[int]) -> float:
        assert max_iterations is not None
        longest = max(job.ideal_iteration_time for job in self.jobs)
        # Contention can stretch iterations; triple is a generous envelope.
        return 3.0 * longest * max_iterations + max(j.start_offset for j in self.jobs)

    def _apply_restarts(self, faults: "FluidFaultState", now: float) -> None:
        """Kill-and-restart every job whose restart strike time has come.

        The in-flight iteration is discarded (never recorded), the job's
        ``sent_bits`` zeroes — which resets its MLTCP ``bytes_ratio`` and
        therefore its allocation weight, the fluid analogue of the packet
        sender's ``bytes_sent`` reset — and the job waits out
        ``restart_delay`` before starting a fresh communication phase.
        """
        fa = self._arrays
        for event in faults.due_restarts(now):
            i = fa.index[event.job]
            if fa.phase[i] == PHASE_DONE:
                faults.record(now, f"job_restart on {event.job}: already done, no-op")
                continue
            fa.phase[i] = PHASE_WAITING
            fa.deadline[i] = event.time + event.restart_delay
            fa.remaining_bits[i] = 0.0
            fa.sent_bits[i] = 0.0
            fa.comm_start[i] = math.nan
            fa.comm_end[i] = math.nan
            faults.record(now, event.describe())

    @staticmethod
    def _rates_map(
        names: Sequence[str], active_idx: np.ndarray, alloc: np.ndarray
    ) -> dict[str, float]:
        """Rate dict (python floats) for guards, segments and telemetry."""
        return {
            names[i]: rate
            for i, rate in zip(active_idx.tolist(), alloc.tolist())
        }

    def _fixed_dt(
        self,
        faults: Optional["FluidFaultState"],
        now: float,
        end_time: Optional[float],
    ) -> float:
        """Time to the next flow-independent event: quantum, end or fault."""
        best = math.inf
        if self.quantum > _EPS_TIME:
            best = self.quantum
        if end_time is not None:
            candidate = end_time - now
            if _EPS_TIME < candidate < best:
                best = candidate
        if faults is not None:
            transition = faults.next_transition_after(now)
            if transition is not None:
                candidate = transition - now
                if _EPS_TIME < candidate < best:
                    best = candidate
        return best

    def _next_event_dt(
        self,
        faults: Optional["FluidFaultState"],
        now: float,
        end_time: Optional[float],
    ) -> float:
        """The array engine's per-step next-event hook (see ``_fixed_dt``)."""
        return next_event_dt(self._arrays, now, self._fixed_dt(faults, now, end_time))

    # -- scalar (small-population) engine ----------------------------------
    #
    # The per-runtime twins of the array internals above, the fast path for
    # populations under _VECTORIZED_MIN_FLOWS, where numpy's per-op cost
    # exceeds the interpreter's per-flow cost.  Every per-flow loop here is
    # the documented scalar-reference exception to PRF002.

    def _apply_restarts_scalar(
        self, faults: "FluidFaultState", runtimes: list[_JobRuntime], now: float
    ) -> None:
        """Scalar twin of ``_apply_restarts`` over runtime objects."""
        for event in faults.due_restarts(now):
            rt = next(r for r in runtimes if r.flow_id == event.job)
            if rt.phase is _DONE:
                faults.record(now, f"job_restart on {event.job}: already done, no-op")
                continue
            rt.phase = _WAITING
            rt.phase_deadline = event.time + event.restart_delay
            rt.remaining_bits = 0.0
            rt.sent_bits = 0.0
            rt.comm_start = math.nan
            rt.comm_end = math.nan
            faults.record(now, event.describe())

    def _next_event_dt_scalar(
        self,
        faults: Optional["FluidFaultState"],
        runtimes: list[_JobRuntime],
        rates: dict[str, float],
        now: float,
        end_time: Optional[float],
    ) -> float:
        """The scalar engine's per-step next-event hook (see ``_fixed_dt``)."""
        return _next_event_scalar(
            runtimes, rates, now, self._fixed_dt(faults, now, end_time)
        )


def run_fluid(
    jobs: Sequence[JobSpec],
    capacity_gbps: float,
    policy: Optional[AllocationPolicy] = None,
    end_time: Optional[float] = None,
    max_iterations: Optional[int] = None,
    seed: Optional[int] = 0,
    quantum: float = 0.02,
    record_segments: bool = True,
    faults: Optional["FaultSchedule"] = None,
    guards: Optional["GuardRail"] = None,
) -> FluidResult:
    """One-call convenience wrapper around :class:`FluidSimulator`."""
    simulator = FluidSimulator(
        jobs,
        capacity_gbps,
        policy=policy,
        seed=seed,
        quantum=quantum,
        faults=faults,
        guards=guards,
    )
    return simulator.run(
        end_time=end_time,
        max_iterations=max_iterations,
        record_segments=record_segments,
    )
