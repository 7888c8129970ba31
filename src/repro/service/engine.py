"""Live array-backed fluid engine with job churn.

The batch simulator (:mod:`repro.fluid.flowsim`) integrates a *fixed* job
set over a closed horizon.  The service daemon needs the same fluid
dynamics — two-phase periodic jobs sharing one bottleneck under
water-filling — but over an *open* population: jobs are admitted while the
clock runs, and depart when their iteration budget is spent.  This module
is that engine: the PR 9 struct-of-arrays state and the bit-exact
:func:`repro.fluid.allocation.water_fill_array` kernel, wrapped in
``admit`` / ``step`` / ``state`` instead of a one-shot ``run``.

Determinism contract (docs/SERVICE.md): every float the engine computes is
a pure function of (config, admitted specs in admission order, RNG state).
``state()`` captures the whole of that — arrays, the numpy ``Generator``,
the clock and the completion log — as one picklable dict, and
``load_state`` restores it exactly.  That is what lets the daemon's
write-ahead journal replay a killed run to bit-identical telemetry.

Transitions sweep flows in ascending admission index, matching the batch
engine's RNG draw order; the water-fill rank is recomputed per allocation
over the *active* subset, so shares do not depend on departed jobs.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from ..core.units import bps_from_gbps
from ..fluid.allocation import MLTCPWeighted, water_fill_array
from ..fluid.arrays import (
    _EPS_BITS,
    _EPS_TIME,
    PHASE_COMM,
    PHASE_COMPUTE,
    PHASE_DONE,
    PHASE_WAITING,
)
from ..workloads.job import JobSpec

__all__ = ["LiveFluidEngine", "ENGINE_POLICIES"]

#: Congestion-control modes the live engine supports.  Both ride the
#: vectorized water-fill: ``fair`` with unit weights (N synchronized Reno
#: flows), ``mltcp`` with the paper's linear ``F(bytes_ratio)`` weights.
ENGINE_POLICIES = ("fair", "mltcp")


class LiveFluidEngine:
    """One bottleneck link, a churning job population, fluid rates.

    Parameters
    ----------
    capacity_gbps:
        Bottleneck capacity (healthy; fault factors scale it per step).
    cc:
        ``"mltcp"`` or ``"fair"`` (:data:`ENGINE_POLICIES`).
    seed:
        Seeds the jitter RNG.  The RNG is part of :meth:`state`, so a
        restored engine continues the same draw sequence.
    quantum:
        Upper bound on one integration step, seconds (rate refresh cadence
        under smoothly-varying weights, as in the batch engine).
    slo_factor:
        A departed job met its SLO when its mean iteration time stayed
        within ``slo_factor`` times its isolation iteration time.
    capacity_factor:
        Optional pure function of simulated time returning the current
        fabric health factor (:meth:`repro.faults.fluid.FluidFaultState.\
        capacity_factor`).  Must be reconstructible from config — it is
        *not* journaled.
    next_transition:
        Optional pure function of time returning the next fault-state
        change, so integration never steps across a capacity edge.
    """

    def __init__(
        self,
        capacity_gbps: float,
        cc: str = "mltcp",
        *,
        seed: int = 0,
        quantum: float = 0.05,
        slo_factor: float = 1.5,
        capacity_factor: Optional[Callable[[float], float]] = None,
        next_transition: Optional[Callable[[float], Optional[float]]] = None,
    ) -> None:
        if not (math.isfinite(capacity_gbps) and capacity_gbps > 0):
            raise ValueError(
                f"capacity_gbps must be finite and positive, got {capacity_gbps!r}"
            )
        if cc not in ENGINE_POLICIES:
            raise ValueError(
                f"unknown cc {cc!r}; expected one of {ENGINE_POLICIES}"
            )
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum!r}")
        if slo_factor <= 0:
            raise ValueError(f"slo_factor must be positive, got {slo_factor!r}")
        self.capacity_bps = bps_from_gbps(capacity_gbps)
        self.cc = cc
        self.quantum = quantum
        self.slo_factor = slo_factor
        self._capacity_factor = capacity_factor
        self._next_transition = next_transition
        # The paper's deployed linear F (Eq. 2): slope/intercept lifted from
        # the same policy object the batch engine uses, so weights match.
        self._slope, self._intercept = MLTCPWeighted()._linear
        #: Clamp to vanilla CC (unit weights) while True — the fluid
        #: analogue of MLTCP's tracker fallback when churn outpaces the
        #: iteration signal (docs/ROBUSTNESS.md).
        self.fallback_engaged = False

        self.clock = 0.0
        self.rng = np.random.default_rng(seed)
        self.names: list[str] = []
        self.specs: list[JobSpec] = []
        self.completed: list[dict] = []
        self._empty()

    def _empty(self) -> None:
        self.phase = np.zeros(0, dtype=np.int8)
        self.demand_bps = np.zeros(0)
        self.remaining = np.zeros(0)
        self.sent = np.zeros(0)
        self.cur_total = np.zeros(0)
        self.deadline = np.zeros(0)
        self.comm_start = np.zeros(0)
        self.iter_index = np.zeros(0, dtype=np.int64)
        self.iter_limit = np.zeros(0, dtype=np.int64)
        self.iter_time_sum = np.zeros(0)
        self.arrival = np.zeros(0)

    # ------------------------------------------------------------------ churn

    @property
    def now(self) -> float:
        """Current simulated time, seconds.  Read-only from outside: the
        clock only advances inside :meth:`step` (the event loop owns it)."""
        return self.clock

    @property
    def running(self) -> int:
        """Jobs currently in the simulation (any phase but departed)."""
        return len(self.names)

    def admit(self, spec: JobSpec) -> None:
        """Add one job; its first iteration starts at
        ``max(now, spec.start_offset)`` (a deferred job starts on admission).
        """
        if spec.name in self.names:
            raise ValueError(f"job {spec.name!r} is already running")
        if spec.iteration_limit is None:
            raise ValueError(
                f"job {spec.name!r}: service jobs must carry an "
                "iteration_limit (open-ended jobs never depart)"
            )
        start = max(self.clock, spec.start_offset)
        self.names.append(spec.name)
        self.specs.append(spec)
        self.phase = np.append(self.phase, PHASE_WAITING)
        self.demand_bps = np.append(self.demand_bps, spec.demand_bps)
        self.remaining = np.append(self.remaining, 0.0)
        self.sent = np.append(self.sent, 0.0)
        # bytes_ratio's denominator is the nominal TOTAL_BYTES (Algorithm 1),
        # not the per-iteration volume ``_start_comm`` samples.
        self.cur_total = np.append(self.cur_total, spec.comm_bits)
        self.deadline = np.append(self.deadline, start)
        self.comm_start = np.append(self.comm_start, np.nan)
        self.iter_index = np.append(self.iter_index, 0)
        self.iter_limit = np.append(self.iter_limit, spec.iteration_limit)
        self.iter_time_sum = np.append(self.iter_time_sum, 0.0)
        self.arrival = np.append(self.arrival, start)

    def _depart(self, index: int) -> dict:
        spec = self.specs[index]
        iterations = int(self.iter_index[index])
        mean_iter = (
            float(self.iter_time_sum[index]) / iterations if iterations else None
        )
        record = {
            "name": spec.name,
            "arrival_s": float(self.arrival[index]),
            "departure_s": float(self.clock),
            "iterations": iterations,
            "mean_iteration_s": mean_iter,
            "ideal_iteration_s": spec.ideal_iteration_time,
            "slo_ok": (
                mean_iter <= self.slo_factor * spec.ideal_iteration_time
                if mean_iter is not None
                else None
            ),
        }
        self.completed.append(record)
        return record

    def _compact(self) -> list[dict]:
        """Remove departed jobs from the arrays; returns their records."""
        done = np.flatnonzero(self.phase == PHASE_DONE)
        if done.size == 0:
            return []
        records = [self._depart(int(i)) for i in done]
        keep = np.flatnonzero(self.phase != PHASE_DONE)
        self.names = [self.names[int(i)] for i in keep]
        self.specs = [self.specs[int(i)] for i in keep]
        for field in (
            "phase", "demand_bps", "remaining", "sent", "cur_total",
            "deadline", "comm_start", "iter_index", "iter_limit",
            "iter_time_sum", "arrival",
        ):
            setattr(self, field, getattr(self, field)[keep])
        return records

    # ---------------------------------------------------------------- stepping

    def _start_comm(self, i: int) -> None:
        spec = self.specs[i]
        volume = spec.sample_comm_bits(self.rng)
        self.phase[i] = PHASE_COMM
        self.remaining[i] = volume
        self.sent[i] = 0.0
        self.comm_start[i] = self.clock
        self.deadline[i] = np.nan

    def _sweep(self) -> bool:
        """Fire every due transition at ``now`` in ascending index order.

        Returns whether any job departed (the caller compacts *after* the
        sweep so indices stay stable inside it).  Loops until quiescent so
        zero-length compute phases cascade within one call, exactly like
        the batch engine's same-timestamp event chains.
        """
        departed = False
        fired = True
        while fired:
            fired = False
            for i in range(len(self.names)):
                phase = self.phase[i]
                if phase == PHASE_WAITING and self.deadline[i] <= self.clock + _EPS_TIME:
                    self._start_comm(i)
                    fired = True
                elif phase == PHASE_COMM and self.remaining[i] <= _EPS_BITS:
                    compute = self.specs[i].sample_compute_time(self.rng)
                    self.phase[i] = PHASE_COMPUTE
                    self.deadline[i] = self.clock + compute
                    if compute <= _EPS_TIME:
                        fired = True  # due now: sweep again to end it
                elif phase == PHASE_COMPUTE and self.deadline[i] <= self.clock + _EPS_TIME:
                    self.iter_time_sum[i] += self.clock - self.comm_start[i]
                    self.iter_index[i] += 1
                    if self.iter_index[i] >= self.iter_limit[i]:
                        self.phase[i] = PHASE_DONE
                        departed = True
                    else:
                        self._start_comm(i)
                    fired = True
        return departed

    def _weights(self, active: np.ndarray) -> np.ndarray:
        if self.fallback_engaged or self.cc == "fair":
            return np.ones(active.size)
        ratio = self.sent[active] / self.cur_total[active]
        ratio = np.where(ratio > 1.0, 1.0, ratio)
        return self._slope * ratio + self._intercept

    def step(self, until: float, max_steps: Optional[int] = None) -> list[dict]:
        """Advance the fluid state to ``until``; returns departure records.

        Raises ``RuntimeError`` on a livelocked integration (the step
        budget mirrors the batch engine's stall guard); the daemon's
        watchdog converts that into a supervised restart.
        """
        if until < self.clock - _EPS_TIME:
            raise ValueError(
                f"step target {until!r} precedes current time {self.clock!r}"
            )
        if max_steps is None:
            horizon = max(1.0, (until - self.clock) / self.quantum)
            max_steps = int(50 * max(1, len(self.names)) * horizon)
        departures: list[dict] = []
        steps = 0
        while self.clock < until - _EPS_TIME:
            steps += 1
            if steps > max_steps:
                raise RuntimeError(
                    f"live engine exceeded {max_steps} steps integrating "
                    f"[{self.clock:g}, {until:g}] with {len(self.names)} jobs; "
                    "livelocked?"
                )
            if self._sweep():
                departures.extend(self._compact())
            factor = (
                self._capacity_factor(self.clock)
                if self._capacity_factor is not None
                else 1.0
            )
            active = np.flatnonzero(self.phase == PHASE_COMM)
            rates = np.zeros(active.size)
            if active.size and factor > 0.0:
                names = [self.names[int(i)] for i in active]
                order = sorted(range(len(names)), key=names.__getitem__)
                rank = np.empty(len(names), dtype=np.int64)
                rank[order] = np.arange(len(names))
                rates = water_fill_array(
                    self.demand_bps[active],
                    self._weights(active),
                    self.capacity_bps * factor,
                    rank=rank,
                )
            dt = min(self.quantum, until - self.clock)
            pending = np.flatnonzero(
                (self.phase == PHASE_WAITING) | (self.phase == PHASE_COMPUTE)
            )
            if pending.size:
                next_deadline = float(np.min(self.deadline[pending]))
                if next_deadline > self.clock + _EPS_TIME:
                    dt = min(dt, next_deadline - self.clock)
            if active.size:
                moving = rates > _EPS_BITS
                if np.any(moving):
                    drain = self.remaining[active][moving] / rates[moving]
                    dt = min(dt, float(np.min(drain)))
            elif pending.size == 0:
                # Idle fabric: nothing to integrate, jump to the target.
                self.clock = until
                break
            if self._next_transition is not None:
                edge = self._next_transition(self.clock)
                if edge is not None and edge < until:
                    dt = min(dt, edge - self.clock)
            dt = max(dt, _EPS_TIME)
            if active.size:
                delivered = rates * dt
                shrunk = self.remaining[active] - delivered
                self.remaining[active] = np.where(shrunk > 0.0, shrunk, 0.0)
                grown = self.sent[active] + delivered
                total = self.cur_total[active]
                self.sent[active] = np.where(grown < total, grown, total)
            self.clock += dt
        if self._sweep():
            departures.extend(self._compact())
        return departures

    # ------------------------------------------------------------- snapshots

    def job_rows(self) -> list[dict]:
        """Per-running-job telemetry rows (the ``jobs`` of a ``service`` record)."""
        rows = []
        for i, spec in enumerate(self.specs):
            iterations = int(self.iter_index[i])
            mean_iter = (
                float(self.iter_time_sum[i]) / iterations if iterations else None
            )
            rows.append(
                {
                    "name": spec.name,
                    "iterations": iterations,
                    "mean_iteration_s": mean_iter,
                    "slo_ok": (
                        mean_iter <= self.slo_factor * spec.ideal_iteration_time
                        if mean_iter is not None
                        else None
                    ),
                }
            )
        return rows

    def slo_attainment(self) -> Optional[float]:
        """Fraction of departed jobs that met their SLO (None before any)."""
        judged = [r for r in self.completed if r["slo_ok"] is not None]
        if not judged:
            return None
        return sum(1 for r in judged if r["slo_ok"]) / len(judged)

    # ------------------------------------------------------------ persistence

    _STATE_FIELDS = (
        "phase", "demand_bps", "remaining", "sent", "cur_total", "deadline",
        "comm_start", "iter_index", "iter_limit", "iter_time_sum", "arrival",
    )

    def state(self) -> dict:
        """Picklable snapshot of the complete dynamic state."""
        payload = {
            "now": self.clock,
            # Value semantics, not a live Generator reference: the journal
            # keeps entries in memory, and an in-process rollback must not
            # see RNG draws made after the snapshot.
            "rng_state": self.rng.bit_generator.state,
            "names": list(self.names),
            "specs": list(self.specs),
            "completed": [dict(r) for r in self.completed],
            "fallback_engaged": self.fallback_engaged,
        }
        for field in self._STATE_FIELDS:
            payload[field] = getattr(self, field).copy()
        return payload

    def load_state(self, payload: dict) -> None:
        """Restore a :meth:`state` snapshot bit-identically."""
        self.clock = payload["now"]
        self.rng = np.random.default_rng()
        self.rng.bit_generator.state = payload["rng_state"]
        self.names = list(payload["names"])
        self.specs = list(payload["specs"])
        self.completed = [dict(r) for r in payload["completed"]]
        self.fallback_engaged = payload["fallback_engaged"]
        for field in self._STATE_FIELDS:
            setattr(self, field, payload[field].copy())
