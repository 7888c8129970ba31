"""Live array-backed fluid engine with job churn.

The batch simulator (:mod:`repro.fluid.flowsim`) integrates a *fixed* job
set over a closed horizon.  The service daemon needs the same fluid
dynamics — two-phase periodic jobs sharing one bottleneck under
water-filling — but over an *open* population: jobs are admitted while the
clock runs, and depart when their iteration budget is spent.  This module
is that engine: struct-of-arrays state stepped with the batch engines'
array helpers (``water_fill_array``, the sorted-name rank and the
delivery clamp ``deliver``), wrapped in ``admit`` / ``step`` / ``state``
instead of a one-shot ``run``; ``cc`` picks the policy whose
``weights_array`` gives the weights (:data:`ENGINE_POLICIES`).

Determinism contract (docs/SERVICE.md): every float the engine computes is
a pure function of (config, admitted specs in admission order, RNG state).
``state()`` captures the whole of that — arrays, the numpy ``Generator``,
the clock and the completion log — as one dict, and
``load_state`` restores it exactly.  That is what lets the daemon's
write-ahead journal replay a killed run to bit-identical telemetry.

The engine keeps its own sweep and next-event step: a deadline is due at
``deadline <= clock + eps`` and the sweep repeats until quiescent, which
gives different floats from the batch state machine.  Each sweep pass
fires due flows in ascending admission index, the batch engine's RNG draw
order.  The water-fill rank over the running jobs is recomputed on
admission, departure and restore; restricted to the active flows it
orders them as their own sorted names would.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ..core.units import bps_from_gbps
from ..fluid.allocation import FairShare, MLTCPWeighted, water_fill_array
from ..fluid.arrays import (
    _EPS_BITS,
    _EPS_TIME,
    PHASE_COMM,
    PHASE_COMPUTE,
    PHASE_DONE,
    PHASE_WAITING,
    deliver,
    name_rank,
)
from ..workloads.job import JobSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.fluid import FluidFaultState

__all__ = ["LiveFluidEngine", "ENGINE_POLICIES", "COLUMN_DTYPES"]

#: Congestion-control modes the live engine supports, and their policies.
#: Both ride the vectorized water-fill: ``fair`` with unit weights (N
#: synchronized Reno flows), ``mltcp`` with the paper's linear
#: ``F(bytes_ratio)`` weights.
ENGINE_POLICIES: dict[str, type[FairShare | MLTCPWeighted]] = {
    "fair": FairShare, "mltcp": MLTCPWeighted,
}
#: The weights while the churn fallback is engaged: vanilla CC's.
_FALLBACK = FairShare()

#: The per-flow columns, in ``state()`` order: attribute name, dtype, and
#: the value an admitted job starts with, given its spec and the time
#: ``start`` its first iteration may begin.
_COLUMNS: tuple[tuple[str, type, Callable[[JobSpec, float], object]], ...] = (
    ("phase", np.int8, lambda spec, start: PHASE_WAITING),
    ("demand_bps", np.float64, lambda spec, start: spec.demand_bps),
    ("remaining", np.float64, lambda spec, start: 0.0),
    ("sent", np.float64, lambda spec, start: 0.0),
    # bytes_ratio's denominator is the nominal TOTAL_BYTES (Algorithm 1),
    # not the per-iteration volume ``_start_comm`` samples.
    ("cur_total", np.float64, lambda spec, start: spec.comm_bits),
    ("deadline", np.float64, lambda spec, start: start),
    ("comm_start", np.float64, lambda spec, start: math.nan),
    ("iter_index", np.int64, lambda spec, start: 0),
    ("iter_limit", np.int64, lambda spec, start: spec.iteration_limit),
    ("iter_time_sum", np.float64, lambda spec, start: 0.0),
    ("arrival", np.float64, lambda spec, start: start),
)

#: Each per-flow column's dtype, in ``state()`` order.
COLUMN_DTYPES: dict[str, np.dtype] = {name: np.dtype(dtype) for name, dtype, _ in _COLUMNS}


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
    faults:
        Optional :class:`repro.faults.fluid.FluidFaultState`: its capacity
        factor scales the bottleneck each step, and integration never
        steps across one of its transitions.  It is a pure function of
        simulated time, rebuilt from config — it is *not* journaled.
    """

    # The per-flow columns of :data:`_COLUMNS`, one entry per running job.
    phase: np.ndarray
    demand_bps: np.ndarray
    remaining: np.ndarray
    sent: np.ndarray
    cur_total: np.ndarray
    deadline: np.ndarray
    comm_start: np.ndarray
    iter_index: np.ndarray
    iter_limit: np.ndarray
    iter_time_sum: np.ndarray
    arrival: np.ndarray

    def __init__(
        self,
        capacity_gbps: float,
        cc: str = "mltcp",
        *,
        seed: int = 0,
        quantum: float = 0.05,
        slo_factor: float = 1.5,
        faults: Optional["FluidFaultState"] = None,
    ) -> None:
        checks = {"capacity_gbps": capacity_gbps, "quantum": quantum, "slo_factor": slo_factor}
        for name, value in checks.items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if cc not in ENGINE_POLICIES:
            raise ValueError(
                f"unknown cc {cc!r}; expected one of {tuple(ENGINE_POLICIES)}"
            )
        self.capacity_bps = bps_from_gbps(capacity_gbps)
        self.cc = cc
        self.quantum = quantum
        self.slo_factor = slo_factor
        self._faults = faults
        # ``mltcp`` runs the paper's deployed F (Eq. 2), as the batch engines.
        self._policy = ENGINE_POLICIES[cc]()
        #: Clamp to vanilla CC (unit weights) while True — the fluid
        #: analogue of MLTCP's tracker fallback when churn outpaces the
        #: iteration signal (docs/ROBUSTNESS.md).
        self.fallback_engaged = False

        self.clock = 0.0
        self.rng = np.random.default_rng(seed)
        self.names: list[str] = []
        self.specs: list[JobSpec] = []
        self.completed: list[dict] = []
        for name, dtype, _ in _COLUMNS:
            setattr(self, name, np.zeros(0, dtype=dtype))
        self._rank = name_rank(self.names)

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
        for name, dtype, initial in _COLUMNS:
            value = np.array([initial(spec, start)], dtype=dtype)
            setattr(self, name, np.append(getattr(self, name), value))
        self._rank = name_rank(self.names)

    def _progress(self, i: int) -> tuple[int, Optional[float], Optional[bool]]:
        """Running job ``i``'s iterations, mean iteration time and SLO
        verdict (``None`` for both before its first iteration)."""
        iterations = int(self.iter_index[i])
        if not iterations:
            return 0, None, None
        mean_iter = float(self.iter_time_sum[i]) / iterations
        ideal = self.specs[i].ideal_iteration_time
        return iterations, mean_iter, mean_iter <= self.slo_factor * ideal

    def _depart(self, index: int) -> dict:
        spec = self.specs[index]
        iterations, mean_iter, slo_ok = self._progress(index)
        record = {
            "name": spec.name,
            "arrival_s": float(self.arrival[index]),
            "departure_s": float(self.clock),
            "iterations": iterations,
            "mean_iteration_s": mean_iter,
            "ideal_iteration_s": spec.ideal_iteration_time,
            "slo_ok": slo_ok,
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
        for name, _, _ in _COLUMNS:
            setattr(self, name, getattr(self, name)[keep])
        self._rank = name_rank(self.names)
        return records

    # ---------------------------------------------------------------- stepping

    def _start_comm(self, i: int) -> None:
        self.remaining[i] = self.specs[i].sample_comm_bits(self.rng)
        self.phase[i] = PHASE_COMM
        self.sent[i] = 0.0
        self.comm_start[i] = self.clock
        self.deadline[i] = np.nan

    def _sweep(self) -> bool:
        """Fire every due transition at ``now`` in ascending index order.

        Returns whether any job departed (the caller compacts *after* the
        sweep so indices stay stable inside it).  Each pass takes its due
        masks first: a flow's due test reads only its own state, so firing
        the due flows in index order fires what a flow-by-flow pass would,
        with the same RNG draws.  Passes repeat until quiescent so
        zero-length compute phases cascade within one call, exactly like
        the batch engine's same-timestamp event chains.
        """
        departed = False
        fired = True
        while fired:
            clock = self.clock
            phase = self.phase
            deadline = self.deadline
            due_by = clock + _EPS_TIME
            wait_due = (phase == PHASE_WAITING) & (deadline <= due_by)
            comm_done = (phase == PHASE_COMM) & (self.remaining <= _EPS_BITS)
            compute_due = (phase == PHASE_COMPUTE) & (deadline <= due_by)
            fired = bool(wait_due.any() or compute_due.any())
            for i in np.flatnonzero(wait_due | comm_done | compute_due).tolist():
                if wait_due[i]:
                    self._start_comm(i)
                elif comm_done[i]:
                    compute = self.specs[i].sample_compute_time(self.rng)
                    phase[i] = PHASE_COMPUTE
                    deadline[i] = clock + compute
                    if compute <= _EPS_TIME:
                        fired = True  # due now: sweep again to end it
                else:
                    self.iter_time_sum[i] += clock - self.comm_start[i]
                    self.iter_index[i] += 1
                    if self.iter_index[i] >= self.iter_limit[i]:
                        phase[i] = PHASE_DONE
                        departed = True
                    else:
                        self._start_comm(i)
        return departed

    def _weights(self, active: np.ndarray) -> np.ndarray:
        policy = _FALLBACK if self.fallback_engaged else self._policy
        return policy.weights_array(self.sent[active], self.cur_total[active])

    def step(self, until: float) -> list[dict]:
        """Advance the fluid state to ``until``; returns departure records.

        Raises ``RuntimeError`` on a livelocked integration (the step
        budget mirrors the batch engine's stall guard); the daemon's
        watchdog converts that into a supervised restart.
        """
        if until < self.clock - _EPS_TIME:
            raise ValueError(
                f"step target {until!r} precedes current time {self.clock!r}"
            )
        horizon = max(1.0, (until - self.clock) / self.quantum)
        max_steps = int(50 * max(1, len(self.names)) * horizon)
        faults = self._faults
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
            factor = faults.capacity_factor(self.clock) if faults is not None else 1.0
            active = np.flatnonzero(self.phase == PHASE_COMM)
            # Whole-array rates: idle flows stay at 0.0, which ``deliver``
            # leaves bit-identical.
            rates = np.zeros(len(self.names))
            if active.size and factor > 0.0:
                rates[active] = water_fill_array(
                    self.demand_bps[active], self._weights(active),
                    self.capacity_bps * factor, rank=self._rank[active],
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
                    drain = self.remaining[moving] / rates[moving]
                    dt = min(dt, float(np.min(drain)))
            elif pending.size == 0:
                # Idle fabric: nothing to integrate, jump to the target.
                self.clock = until
                break
            if faults is not None:
                edge = faults.next_transition_after(self.clock)
                if edge is not None and edge < until:
                    dt = min(dt, edge - self.clock)
            dt = max(dt, _EPS_TIME)
            if active.size:
                deliver(rates, dt, self.remaining, self.sent, self.cur_total)
            self.clock += dt
        if self._sweep():
            departures.extend(self._compact())
        return departures

    # ------------------------------------------------------------- snapshots

    def job_rows(self) -> list[dict]:
        """Per-running-job telemetry rows (the ``jobs`` of a ``service`` record)."""
        rows = []
        for i, spec in enumerate(self.specs):
            iterations, mean_iter, slo_ok = self._progress(i)
            rows.append(
                {
                    "name": spec.name,
                    "iterations": iterations,
                    "mean_iteration_s": mean_iter,
                    "slo_ok": slo_ok,
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

    def state(self) -> dict:
        """Snapshot of the complete dynamic state."""
        payload = {
            "now": self.clock,
            # Value semantics, not a live Generator reference: the journal
            # keeps entries in memory, and an in-process rollback must not
            # see RNG draws made after the snapshot.
            "rng_state": self.rng.bit_generator.state,
            "names": list(self.names),
            "specs": list(self.specs),
            # A completion record is never changed once logged, so the
            # snapshot shares the records and copies only the list.
            "completed": list(self.completed),
            "fallback_engaged": self.fallback_engaged,
        }
        for name, _, _ in _COLUMNS:
            payload[name] = getattr(self, name).copy()
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
        for name, _, _ in _COLUMNS:
            setattr(self, name, payload[name].copy())
        self._rank = name_rank(self.names)
