"""Admission control: bounded queueing and explicit load-shedding.

Overload at the service boundary must be a *measured decision*, never an
unbounded queue quietly eating memory.  The controller holds a bounded
FIFO of deferred jobs and applies one of three shedding policies once the
running population is full (:data:`SHED_POLICIES`):

``reject``
    Overflow arrivals are shed immediately; the pending queue is unused.
``defer``
    Overflow arrivals park in the bounded queue and drain oldest-first as
    running jobs depart; arrivals beyond the queue bound are shed.
``degrade``
    Overflow arrivals are admitted anyway — up to ``queue_limit`` jobs
    past ``max_running`` — and the daemon coarsens its telemetry while
    oversubscribed (snapshots drop per-job rows); beyond that they shed.

Every decision is returned as a string the daemon turns into an event of
its next ``service`` record, so a report reader can reconstruct exactly what was
shed and why.  The queue contents are part of the daemon's journaled
state — a recovered daemon resumes with the same deferred jobs.
"""

from __future__ import annotations

from collections import deque

from ..workloads.job import JobSpec

__all__ = ["AdmissionController", "SHED_POLICIES"]

#: Load-shedding policies (module docstring has the semantics).
SHED_POLICIES = ("reject", "defer", "degrade")


class AdmissionController:
    """Decides admit / defer / degrade / shed for each offered job."""

    def __init__(
        self, max_running: int, queue_limit: int, policy: str = "defer"
    ) -> None:
        if max_running < 1:
            raise ValueError(f"max_running must be positive, got {max_running!r}")
        if queue_limit < 0:
            raise ValueError(
                f"queue_limit must be non-negative, got {queue_limit!r}"
            )
        if policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {policy!r}; expected one of {SHED_POLICIES}"
            )
        self.max_running = max_running
        self.queue_limit = queue_limit
        self.policy = policy
        self.pending: deque[JobSpec] = deque()

    @property
    def queue_depth(self) -> int:
        """Jobs parked in the pending queue right now."""
        return len(self.pending)

    def offer(self, spec: JobSpec, running: int) -> str:
        """Decide one arrival's fate given the current running count.

        Returns ``"admit"`` (start it now), ``"defer"`` (parked in the
        queue), ``"degrade"`` (start it now, telemetry coarsens) or
        ``"shed"`` (dropped).  ``running`` should count jobs already in
        the engine *plus* those admitted earlier in the same poll, so a
        burst cannot overshoot the bound between steps.
        """
        if running < 0:
            raise ValueError(f"running must be non-negative, got {running!r}")
        if running < self.max_running and not self.pending:
            return "admit"
        if self.policy == "reject":
            return "shed"
        if self.policy == "defer":
            if len(self.pending) < self.queue_limit:
                self.pending.append(spec)
                return "defer"
            return "shed"
        # degrade: oversubscribe up to queue_limit extra jobs, then shed.
        if running < self.max_running + self.queue_limit:
            return "degrade"
        return "shed"

    def drain(self, running: int) -> list[JobSpec]:
        """Release deferred jobs into freed slots, oldest first."""
        if running < 0:
            raise ValueError(f"running must be non-negative, got {running!r}")
        released: list[JobSpec] = []
        while self.pending and running + len(released) < self.max_running:
            released.append(self.pending.popleft())
        return released

    # Journal integration: the queue is dynamic state the daemon must
    # carry across a crash (docs/SERVICE.md, "What is journaled").

    def state(self) -> dict:
        """Snapshot of the pending queue."""
        return {"pending": list(self.pending)}

    def load_state(self, payload: dict) -> None:
        """Restore a :meth:`state` snapshot."""
        self.pending = deque(payload["pending"])
