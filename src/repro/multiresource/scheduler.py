"""Multi-resource fluid simulator with MLTCP-style progress weighting (§5).

Each resource (CPU cores, network bandwidth, GPU share, ...) has a capacity;
tasks in a phase on resource R compete for R's capacity.  Under the
:class:`ProgressWeighted` policy a task's share is proportional to
``F(progress_ratio)`` where ``progress_ratio`` is the work fraction of its
*current phase* already completed — the §5 recipe of "replacing bytes_ratio
with the progress of the job".  Under :class:`EqualShare` every active task
gets an equal (capped) share, the fair-scheduler baseline.

The paper predicts the same sliding effect generalizes: tasks shift until
the high-demand phases of different tasks interleave across every resource.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..core.aggressiveness import AggressivenessFunction, default_aggressiveness
from ..fluid.allocation import water_fill
from ..workloads.job import mean_by_round
from .task import MultiResourceTask

__all__ = [
    "EqualShare",
    "ProgressWeighted",
    "TaskIteration",
    "MultiResourceResult",
    "MultiResourceSimulator",
    "run_multiresource",
]

_EPS_WORK = 1e-9
_EPS_TIME = 1e-12


class EqualShare:
    """Fair scheduler: equal capped shares within each resource."""

    name = "equal"

    def weight(self, progress_ratio: float) -> float:
        """Constant weight: every active task shares equally."""
        return 1.0


class ProgressWeighted:
    """MLTCP-style scheduler: share proportional to F(progress_ratio)."""

    name = "progress-weighted"

    def __init__(self, function: Optional[AggressivenessFunction] = None) -> None:
        self.function = function if function is not None else default_aggressiveness()

    def weight(self, progress_ratio: float) -> float:
        """F(progress): further-along tasks get the larger share."""
        return self.function(progress_ratio)


@dataclass(frozen=True)
class TaskIteration:
    """One completed cycle of one task."""

    task: str
    index: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Wall-clock length of the cycle."""
        return self.end - self.start


@dataclass
class _TaskRuntime:
    task: MultiResourceTask
    phase_index: int = 0
    remaining_work: float = 0.0
    phase_total: float = 0.0
    iteration_index: int = 0
    iteration_start: float = 0.0
    started: bool = False
    #: Jitter sleep (seconds) still to elapse before the next cycle begins.
    sleep_remaining: float = 0.0

    @property
    def current_resource(self) -> str:
        """Resource consumed by the task's current phase."""
        return self.task.phases[self.phase_index].resource

    @property
    def current_demand(self) -> float:
        """Peak units the current phase can consume in parallel."""
        return self.task.phases[self.phase_index].demand

    @property
    def progress_ratio(self) -> float:
        """Fraction of the current phase's work already done (§5's ratio)."""
        if self.phase_total <= 0:
            return 0.0
        return min(1.0, 1.0 - self.remaining_work / self.phase_total)


@dataclass
class MultiResourceResult:
    """Iterations per task from one multi-resource run."""

    tasks: tuple[MultiResourceTask, ...]
    policy_name: str
    iterations: list[TaskIteration] = field(default_factory=list)

    def iteration_times(self, task: str) -> np.ndarray:
        """Durations (s) of the task's completed cycles."""
        return np.array(
            [it.duration for it in self.iterations if it.task == task]
        )

    def mean_iteration_by_round(self) -> np.ndarray:
        """Average duration of the i-th cycle across tasks."""
        return mean_by_round([self.iteration_times(t.name) for t in self.tasks])


class MultiResourceSimulator:
    """Event-driven progressive-filling simulator over named resources."""

    def __init__(
        self,
        tasks: Sequence[MultiResourceTask],
        capacities: dict[str, float],
        policy: Optional[ProgressWeighted | EqualShare] = None,
        seed: Optional[int] = 0,
        quantum: float = 0.02,
    ) -> None:
        if not tasks:
            raise ValueError("need at least one task")
        names = [t.name for t in tasks]
        if len(set(names)) != len(names):
            raise ValueError(f"task names must be unique, got {names}")
        for task in tasks:
            for resource in task.resources():
                if resource not in capacities and not resource.endswith("-think"):
                    raise ValueError(
                        f"{task.name}: no capacity declared for resource "
                        f"{resource!r}"
                    )
        if any(c <= 0 for c in capacities.values()):
            raise ValueError("capacities must be positive")
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum!r}")
        self.tasks = tuple(tasks)
        self.capacities = dict(capacities)
        self.policy = policy if policy is not None else EqualShare()
        self.quantum = quantum
        self._rng = np.random.default_rng(seed) if seed is not None else None

    def run(self, max_iterations: int) -> MultiResourceResult:
        """Simulate until every task completed ``max_iterations`` cycles."""
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be positive, got {max_iterations!r}")
        runtimes = [_TaskRuntime(task=t) for t in self.tasks]
        result = MultiResourceResult(
            tasks=self.tasks, policy_name=self.policy.name
        )
        now = 0.0
        longest = max(t.ideal_iteration_time for t in self.tasks)
        max_steps = int(100 * len(self.tasks) * max(1.0, 5 * longest * max_iterations / self.quantum))

        for _step in range(max_steps):
            self._transitions(runtimes, now, result)
            if all(rt.iteration_index >= max_iterations for rt in runtimes):
                break
            rates = self._allocate(runtimes, now)
            dt = self._next_dt(runtimes, rates)
            for rt in runtimes:
                if not rt.started:
                    continue
                if rt.sleep_remaining > _EPS_TIME:
                    rt.sleep_remaining = max(0.0, rt.sleep_remaining - dt)
                else:
                    rt.remaining_work = max(
                        0.0, rt.remaining_work - rates.get(rt.task.name, 0.0) * dt
                    )
            now += dt
        else:
            raise RuntimeError(
                "multi-resource simulation did not finish; zero-rate livelock?"
            )
        return result

    # -- internals ----------------------------------------------------------

    def _transitions(
        self, runtimes: list[_TaskRuntime], now: float, result: MultiResourceResult
    ) -> None:
        for rt in runtimes:
            if not rt.started:
                if now >= rt.task.start_offset - _EPS_TIME:
                    rt.started = True
                    rt.iteration_start = now
                    self._enter_phase(rt, 0)
                continue
            if rt.sleep_remaining > _EPS_TIME:
                continue
            while rt.remaining_work <= _EPS_WORK and rt.sleep_remaining <= _EPS_TIME:
                next_phase = rt.phase_index + 1
                if next_phase >= len(rt.task.phases):
                    # Cycle complete: the §4 jitter delays the next cycle.
                    jitter = rt.task.sample_jitter(self._rng)
                    result.iterations.append(
                        TaskIteration(
                            task=rt.task.name,
                            index=rt.iteration_index,
                            start=rt.iteration_start,
                            end=now + jitter,
                        )
                    )
                    rt.iteration_index += 1
                    rt.iteration_start = now + jitter
                    rt.sleep_remaining = jitter
                    self._enter_phase(rt, 0)
                else:
                    self._enter_phase(rt, next_phase)

    def _enter_phase(self, rt: _TaskRuntime, index: int) -> None:
        rt.phase_index = index
        phase = rt.task.phases[index]
        rt.remaining_work = phase.work
        rt.phase_total = phase.work

    def _allocate(
        self, runtimes: list[_TaskRuntime], now: float
    ) -> dict[str, float]:
        rates: dict[str, float] = {}
        by_resource: dict[str, list[_TaskRuntime]] = {}
        for rt in runtimes:
            if (
                rt.started
                and rt.sleep_remaining <= _EPS_TIME
                and rt.remaining_work > _EPS_WORK
            ):
                by_resource.setdefault(rt.current_resource, []).append(rt)
        for resource, group in by_resource.items():
            capacity = self.capacities.get(resource)
            if capacity is None:
                # Private think resources are uncontended.
                for rt in group:
                    rates[rt.task.name] = rt.current_demand
                continue
            demands = {rt.task.name: rt.current_demand for rt in group}
            weights = {
                rt.task.name: self.policy.weight(rt.progress_ratio) for rt in group
            }
            rates.update(water_fill(demands, weights, capacity))
        return rates

    def _next_dt(
        self, runtimes: list[_TaskRuntime], rates: dict[str, float]
    ) -> float:
        candidates = [self.quantum]
        for rt in runtimes:
            if not rt.started:
                candidates.append(max(_EPS_TIME, rt.task.start_offset))
                continue
            if rt.sleep_remaining > _EPS_TIME:
                candidates.append(rt.sleep_remaining)
                continue
            rate = rates.get(rt.task.name, 0.0)
            if rate > 0 and rt.remaining_work > _EPS_WORK:
                candidates.append(rt.remaining_work / rate)
        positive = [c for c in candidates if c > _EPS_TIME]
        return min(positive) if positive else _EPS_TIME


def run_multiresource(
    tasks: Sequence[MultiResourceTask],
    capacities: dict[str, float],
    policy: Optional[ProgressWeighted | EqualShare] = None,
    max_iterations: int = 40,
    seed: Optional[int] = 0,
    quantum: float = 0.02,
) -> MultiResourceResult:
    """One-call convenience wrapper around :class:`MultiResourceSimulator`."""
    simulator = MultiResourceSimulator(
        tasks, capacities, policy=policy, seed=seed, quantum=quantum
    )
    return simulator.run(max_iterations=max_iterations)
