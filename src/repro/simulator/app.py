"""Application layer: periodic DNN training traffic over the packet network.

A :class:`TrainingApp` reproduces the paper's job behaviour on one flow:
send the iteration's collective (``TOTAL_BYTES``), wait for the transport to
acknowledge all of it, then "compute" for ``compute_time`` seconds (with the
§4 Gaussian jitter) and start the next iteration.  The flow-arrival
dependency that defines DNN traffic — the next iteration's flows start only
when the previous iteration completes — is therefore structural.

Works with both window-based senders (:class:`~repro.tcp.base.TcpSender`)
and rate-based ones (:class:`~repro.tcp.dcqcn.RateSender`); anything with
``send_bytes`` and an ``on_all_acked`` callback slot fits
:class:`SenderLike`.  Completed iterations are recorded as
:class:`~repro.workloads.job.IterationResult`, the record the fluid
simulators keep too.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

import numpy as np

from ..workloads.job import IterationResult, JobSpec
from .engine import Simulator

__all__ = [
    "SenderLike",
    "TrainingApp",
    "MultiFlowTrainingApp",
    "RequestApp",
]


class SenderLike(Protocol):
    """Transport interface a training app drives."""

    on_all_acked: Optional[Callable[[], None]]

    def send_bytes(self, nbytes: int) -> int:
        """Queue ``nbytes`` for delivery; returns segments enqueued."""
        ...


class TrainingApp:
    """Drives one job's periodic communicate/compute loop over a transport."""

    def __init__(
        self,
        sim: Simulator,
        sender: SenderLike,
        job: JobSpec,
        max_iterations: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if max_iterations is not None and max_iterations < 1:
            raise ValueError(f"max_iterations must be positive, got {max_iterations!r}")
        self.sim = sim
        self.sender = sender
        self.job = job
        self.max_iterations = max_iterations
        self._rng = rng
        self.iterations: list[IterationResult] = []
        self._index = 0
        self._comm_start: Optional[float] = None
        self._started = False
        #: Multiplier on every sampled compute time; fault injection sets it
        #: above 1.0 to model a straggling worker (GC pause, thermal
        #: throttling, a slow replacement GPU) and restores 1.0 afterwards.
        self.compute_scale = 1.0
        #: How many times :meth:`restart` killed this job mid-iteration.
        self.restarts = 0
        # Monotone generation counter; every scheduled callback captures the
        # current epoch and becomes a no-op if a restart bumped it since,
        # so a kill cleanly cancels the in-flight iteration's future.
        self._epoch = 0
        sender.on_all_acked = self._on_comm_complete

    def start(self) -> None:
        """Schedule the first iteration at the job's start offset."""
        if self._started:
            raise RuntimeError(f"{self.job.name}: app already started")
        self._started = True
        self._schedule_epoch(self.job.start_offset, self._begin_comm)

    def restart(self, delay: float = 0.0) -> None:
        """Kill the job mid-iteration and start a fresh one after ``delay``.

        The in-flight iteration is discarded — it never reaches
        :attr:`iterations` — the transport abandons its unsent/unacked data
        (:meth:`~repro.tcp.base.TcpSender.abort_transfer`, which also resets
        MLTCP's ``bytes_sent``), and after ``delay`` seconds of downtime the
        job begins a brand-new communication phase, exactly like a restarted
        training worker resuming from its last checkpoint.
        """
        if delay < 0:
            raise ValueError(f"{self.job.name}: delay must be non-negative, got {delay!r}")
        if not self._started:
            raise RuntimeError(f"{self.job.name}: cannot restart an app that never started")
        self._epoch += 1
        self.restarts += 1
        self._abort_comm()
        self._comm_start = None
        self._schedule_epoch(delay, self._begin_comm)

    @property
    def completed(self) -> int:
        """Iterations fully completed (comm + compute)."""
        return len(self.iterations)

    def iteration_times(self) -> np.ndarray:
        """Durations of completed iterations, in order."""
        return np.array([it.duration for it in self.iterations])

    def comm_times(self) -> np.ndarray:
        """Communication-phase durations of completed iterations."""
        return np.array([it.comm_duration for it in self.iterations])

    # -- internals ----------------------------------------------------------

    def _schedule_epoch(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` unless a restart invalidates it first."""
        epoch = self._epoch

        def guarded() -> None:
            if self._epoch == epoch:
                callback()

        self.sim.schedule(delay, guarded)

    def _begin_comm(self) -> None:
        self._comm_start = self.sim.now
        self.sender.send_bytes(self.job.comm_bytes)

    def _abort_comm(self) -> None:
        self.sender.abort_transfer()

    def _on_comm_complete(self) -> None:
        comm_end = self.sim.now
        compute = self.compute_scale * self.job.sample_compute_time(self._rng)
        self._schedule_epoch(compute, lambda: self._finish_iteration(comm_end))

    def _finish_iteration(self, comm_end: float) -> None:
        assert self._comm_start is not None
        self.iterations.append(
            IterationResult(
                job=self.job.name,
                index=self._index,
                comm_start=self._comm_start,
                comm_end=comm_end,
                iteration_end=self.sim.now,
            )
        )
        self._index += 1
        if self.max_iterations is not None and self._index >= self.max_iterations:
            return
        self._begin_comm()


class MultiFlowTrainingApp(TrainingApp):
    """A training job whose collective is striped over several flows.

    Real NCCL jobs open multiple TCP sockets per peer; the paper's kernel
    module keeps Algorithm 1 state *per flow*, each normalizing by its own
    per-flow share of TOTAL_BYTES.  This app splits every iteration's volume
    evenly over its senders and begins the computation phase only when every
    stripe has been acknowledged — the collective's barrier semantics.  The
    iteration bookkeeping is :class:`TrainingApp`'s; ``sender`` is the
    first stripe's.
    """

    def __init__(
        self,
        sim: Simulator,
        senders: list[SenderLike],
        job: JobSpec,
        max_iterations: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not senders:
            raise ValueError(f"{job.name}: need at least one sender")
        super().__init__(sim, senders[0], job, max_iterations, rng)
        self.senders = list(senders)
        self._pending = 0
        for sender in self.senders:
            sender.on_all_acked = self._on_stripe_complete

    @property
    def stripe_bytes(self) -> int:
        """Bytes each flow carries per iteration (last stripe rounds up)."""
        return -(-self.job.comm_bytes // len(self.senders))

    # -- internals ----------------------------------------------------------

    def _begin_comm(self) -> None:
        self._comm_start = self.sim.now
        self._pending = len(self.senders)
        for sender in self.senders:
            sender.send_bytes(self.stripe_bytes)

    def _abort_comm(self) -> None:
        for sender in self.senders:
            sender.abort_transfer()

    def _on_stripe_complete(self) -> None:
        self._pending -= 1
        if self._pending == 0:
            self._on_comm_complete()


class RequestApp:
    """Latency-sensitive request traffic: fixed-size transfers at intervals.

    Models the RPC/query traffic the paper's §5 wants to safeguard next to
    ML bulk flows.  Every ``interval`` seconds (optionally exponentially
    distributed) the app sends ``request_bytes`` and records the flow
    completion time.  Back-to-back requests are serialized: a new request
    waits until the previous one is acknowledged.
    """

    def __init__(
        self,
        sim: Simulator,
        sender: SenderLike,
        request_bytes: int,
        interval: float,
        max_requests: Optional[int] = None,
        poisson: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if request_bytes <= 0:
            raise ValueError(f"request_bytes must be positive, got {request_bytes!r}")
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        if max_requests is not None and max_requests < 1:
            raise ValueError(f"max_requests must be positive, got {max_requests!r}")
        if poisson and rng is None:
            rng = np.random.default_rng(0)
        self.sim = sim
        self.sender = sender
        self.request_bytes = request_bytes
        self.interval = interval
        self.max_requests = max_requests
        self.poisson = poisson
        self._rng = rng
        self.completion_times: list[float] = []
        self._sent = 0
        self._request_start: Optional[float] = None
        self._started = False
        sender.on_all_acked = self._on_request_complete

    def start(self) -> None:
        """Schedule the first request."""
        if self._started:
            raise RuntimeError("request app already started")
        self._started = True
        self.sim.schedule(self._next_gap(), self._issue)

    @property
    def completed(self) -> int:
        """Requests completed so far."""
        return len(self.completion_times)

    def fct(self) -> np.ndarray:
        """Flow completion times of finished requests, in order."""
        return np.array(self.completion_times)

    # -- internals ----------------------------------------------------------

    def _next_gap(self) -> float:
        if self.poisson:
            assert self._rng is not None
            return float(self._rng.exponential(self.interval))
        return self.interval

    def _issue(self) -> None:
        if self.max_requests is not None and self._sent >= self.max_requests:
            return
        if self._request_start is not None:
            # Previous request still in flight: try again shortly.
            self.sim.schedule(self.interval / 4, self._issue)
            return
        self._sent += 1
        self._request_start = self.sim.now
        self.sender.send_bytes(self.request_bytes)

    def _on_request_complete(self) -> None:
        assert self._request_start is not None
        self.completion_times.append(self.sim.now - self._request_start)
        self._request_start = None
        if self.max_requests is None or self._sent < self.max_requests:
            self.sim.schedule(self._next_gap(), self._issue)
