"""Parallel, cached, instrumented, *self-healing* execution of experiment points.

Role in the pipeline: everything between "here is a list of experiment
points" and "here are their results" funnels through
:class:`ExperimentRunner.run_points`.  The seed/grid helpers in
:mod:`repro.harness.sweep` build their point lists and delegate here; the
benchmark suite (``benchmarks/_common.runner_from_env``) and the CLI
(``python -m repro run --workers N``) construct runners directly.

Features, all opt-in:

* **Parallelism** — ``workers=N`` fans cache-miss points out to a
  ``ProcessPoolExecutor``.  Each point is an independent seeded computation,
  so parallel results are bit-identical to sequential ones; the default
  stays sequential for determinism-sensitive callers and tiny sweeps.
  Completions are harvested with :func:`concurrent.futures.wait` as they
  arrive (not in submission order), so one slow point never starves the
  collection of the others.  An experiment callable that cannot be pickled
  (a lambda, a closure) falls back to sequential execution gracefully, with
  a note in the telemetry.
* **Caching** — a :class:`repro.harness.cache.ResultCache` keyed by
  experiment name + parameters + seed + package version turns re-runs of
  unchanged points into lookups.
* **Instrumentation** — a :class:`repro.harness.telemetry.RunTelemetry`
  records per-point wall time, simulator event counts and cache hit/miss,
  emitted as a structured JSON run-report.
* **Resilience** — ``timeout=`` bounds each point's wall clock;
  ``retries=`` re-runs a failed point with exponential backoff and
  deterministic jitter; ``isolate_failures=True`` converts a point that
  still fails — including one that kills its pool worker outright — into a
  :class:`FailedPoint` result instead of aborting the sweep;
  ``checkpoint=`` journals completed points so an interrupted sweep resumes
  where it left off.  Every timeout, retry and failure lands in the
  telemetry as a ``timeout`` / ``retry`` / ``crash`` / ``error`` record.

The default (no timeout, no retries, ``isolate_failures=False``) preserves
the historical contract: the first experiment exception propagates to the
caller.  See docs/HARNESS.md for the operator-facing guide and
docs/FAULTS.md for the fault-injection side of the robustness story.
"""

from __future__ import annotations

import atexit
import pickle
import random
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from ..simulator.engine import total_events_processed
from .cache import ResultCache, point_key
from .checkpoint import RunCheckpoint
from .telemetry import RunTelemetry

__all__ = ["ExperimentRunner", "FailedPoint", "PointTimeoutError"]

#: Cap on a single retry backoff sleep, whatever the exponential says.
MAX_BACKOFF_S = 5.0


class PointTimeoutError(TimeoutError):
    """A point exceeded the runner's per-point ``timeout`` and
    ``isolate_failures`` was off, so the sweep aborts."""


@dataclass(frozen=True)
class FailedPoint:
    """Placeholder result for a point that could not be computed.

    Returned (positionally, in the point's slot) by
    :meth:`ExperimentRunner.run_points` when ``isolate_failures=True`` and
    the point exhausted its attempts.  ``kind`` classifies the terminal
    failure: ``"error"`` (the experiment raised), ``"crash"`` (the pool
    worker died — segfault, ``os._exit``, OOM-kill), or ``"timeout"`` (the
    per-point wall-clock budget ran out).  ``traceback`` carries the full
    formatted exception chain, including the remote traceback from a pool
    worker, so the failure is debuggable from the result object or the
    run-report alone.
    """

    params: dict
    kind: str
    error_type: str
    message: str
    traceback: str
    attempts: int

    def __bool__(self) -> bool:
        # ``[r for r in results if r]`` and ``filter(None, results)`` drop
        # failed slots naturally.
        return False

    def summary(self) -> str:
        """One human-readable line: what failed and how."""
        return (
            f"{self.kind} after {self.attempts} attempt(s): "
            f"{self.error_type}: {self.message}"
        )


def _measured_call(experiment: Callable, kwargs: dict) -> tuple:
    """Run one point and measure it (top-level so worker processes can
    unpickle it).  Returns ``(value, wall_time_s, events_processed)``; the
    event delta is taken in the executing process, so pool workers report
    their own simulator work back to the parent."""
    start = time.perf_counter()
    events_before = total_events_processed()
    value = experiment(**kwargs)
    return (
        value,
        time.perf_counter() - start,
        total_events_processed() - events_before,
    )


def _is_picklable(obj: object) -> bool:
    """Whether ``obj`` survives a round-trip to a pool worker."""
    try:
        pickle.dumps(obj)
    except Exception:
        return False
    return True


def _format_error(error: BaseException) -> str:
    """The full traceback text, including any remote-worker cause chain."""
    return "".join(
        traceback.format_exception(type(error), error, error.__traceback__)
    )


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even if a worker is hung or dead.

    ``shutdown(wait=True)`` alone would block forever on a hung worker and
    ``shutdown(wait=False)`` would leave it to block interpreter exit, so
    the workers are terminated first; joining dead processes is prompt.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # repro-lint: disable=GRD001 — process already gone
            pass
    pool.shutdown(wait=True, cancel_futures=True)


#: Reusable process pools, one per worker count.  Pool startup is the
#: dominant fixed cost of a small parallel sweep (fork + interpreter init
#: per worker), and ``repeat_with_seeds``/``sweep`` construct a fresh
#: runner per invocation — so healthy pools are cached at module level and
#: reused across ``run_points`` calls instead of being torn down each
#: time.  A pool that broke or stalled is retired (terminated and
#: dropped); the next run transparently starts a fresh one.  Isolated
#: re-runs keep their dedicated single-worker pools: blast-radius
#: containment beats reuse there.
_SHARED_POOLS: dict[int, ProcessPoolExecutor] = {}


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    """The reusable pool for this worker count, created on first use."""
    pool = _SHARED_POOLS.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers)
        _SHARED_POOLS[workers] = pool
    return pool


def _retire_shared_pool(pool: ProcessPoolExecutor) -> None:
    """Drop a broken/stalled pool from the cache and tear it down."""
    for workers, cached in list(_SHARED_POOLS.items()):
        if cached is pool:
            del _SHARED_POOLS[workers]
    _terminate_pool(pool)


def _shutdown_shared_pools() -> None:
    """Interpreter-exit cleanup for any still-cached pools."""
    while _SHARED_POOLS:
        _, pool = _SHARED_POOLS.popitem()
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(_shutdown_shared_pools)


class ExperimentRunner:
    """Executes experiment points with optional workers, cache, telemetry,
    and failure handling.

    Parameters
    ----------
    name:
        Logical experiment name; becomes part of every cache key and the
        ``experiment`` field of the run-report.
    workers:
        Process-pool size for cache-miss points.  ``None`` or ``1`` keeps
        execution sequential and in-process (the deterministic default).
    cache:
        A :class:`~repro.harness.cache.ResultCache`, or ``None`` to always
        recompute.
    telemetry:
        A :class:`~repro.harness.telemetry.RunTelemetry` to append to; one
        is created internally when not given (always available as
        ``runner.telemetry``).
    timeout:
        Per-point wall-clock budget in seconds.  Enforcement is preemptive
        under a pool (the hung worker is terminated); in sequential mode a
        point cannot be interrupted, so an overrun is only *recorded* as a
        degradation after the fact.  Pool enforcement is best-effort for
        sweeps with more points than workers: the clock is re-armed on
        every completion, so a slow point is caught within ``timeout`` of
        the last other completion.
    retries:
        How many times to re-run a failed point before giving up.  Backoff
        between attempts is exponential (``retry_backoff_s * 2**(n-1)``)
        with deterministic jitter derived from the runner name and point
        index, capped at :data:`MAX_BACKOFF_S`.
    retry_backoff_s:
        Base backoff delay in seconds.
    isolate_failures:
        When ``True``, a point that exhausts its attempts yields a
        :class:`FailedPoint` in its result slot (and a ``crash``,
        ``timeout`` or ``error`` record) instead of raising; a worker crash or timeout only costs the
        points that were in flight, each of which is re-run in a fresh
        single-worker pool.  When ``False`` (default), the first terminal
        failure propagates, as it always did.  Crash/timeout isolation
        needs a pool (``workers >= 2``): in-process execution cannot
        survive a hard crash of itself.
    checkpoint:
        A :class:`~repro.harness.checkpoint.RunCheckpoint` journaling
        completed points.  Points already in the journal are served from it
        (mode ``"resumed"``) without touching cache or pool; successful new
        points are appended as they finish, so an interrupted or partially
        failed sweep re-runs only what is missing.
    """

    def __init__(
        self,
        name: str = "experiment",
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        telemetry: Optional[RunTelemetry] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        retry_backoff_s: float = 0.05,
        isolate_failures: bool = False,
        checkpoint: Optional[RunCheckpoint] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be a positive integer, got {workers!r}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout!r}")
        if retries < 0:
            raise ValueError(f"retries must be non-negative, got {retries!r}")
        if retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be non-negative, got {retry_backoff_s!r}"
            )
        self.name = name
        self.workers = workers
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else RunTelemetry(name)
        self.telemetry.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.isolate_failures = isolate_failures
        self.checkpoint = checkpoint

    def run_points(
        self,
        experiment: Callable[..., object],
        points: Sequence[Mapping[str, object]],
    ) -> list:
        """Run ``experiment(**point)`` for every point, in point order.

        Results are returned positionally (``results[i]`` belongs to
        ``points[i]``) regardless of which worker finished first, so callers
        can rely on the same ordering as a plain sequential loop.  With
        ``isolate_failures=True`` a slot may hold a :class:`FailedPoint`
        (falsy, so ``filter(None, results)`` keeps only successes);
        otherwise worker exceptions propagate unless they stem from the pool
        machinery itself, in which case the remaining points are re-run
        sequentially.
        """
        points = [dict(point) for point in points]
        results: list = [None] * len(points)
        done = [False] * len(points)
        # Per-point stats buffered and recorded in point order at the end,
        # so the run-report is deterministic even under a pool.
        stats: list[Optional[tuple]] = [None] * len(points)
        keys: list[Optional[str]] = [None] * len(points)
        pending: list[int] = []

        for i, params in enumerate(points):
            if self.cache is not None or self.checkpoint is not None:
                lookup_start = time.perf_counter()
                bare = {k: v for k, v in params.items() if k != "seed"}
                key = point_key(self.name, bare, seed=params.get("seed"))
                keys[i] = key
                if self.checkpoint is not None:
                    hit, value = self.checkpoint.get(key)
                    if hit:
                        results[i] = value
                        done[i] = True
                        stats[i] = (
                            time.perf_counter() - lookup_start, 0, False, "resumed",
                        )
                        continue
                if self.cache is not None:
                    hit, value = self.cache.get(key)
                    if hit:
                        results[i] = value
                        done[i] = True
                        stats[i] = (
                            time.perf_counter() - lookup_start, 0, True, "cached",
                        )
                        if self.checkpoint is not None and keys[i] is not None:
                            self.checkpoint.put(keys[i], value)
                        continue
            pending.append(i)

        if pending:
            self._execute(experiment, points, pending, results, done, stats, keys)

        for i, params in enumerate(points):
            wall, events, cache_hit, mode = stats[i]
            self.telemetry.record_point(
                params, wall, events, cache_hit=cache_hit, mode=mode
            )
        return results

    # -- internals --------------------------------------------------------

    def _execute(
        self,
        experiment: Callable,
        points: list[dict],
        pending: list[int],
        results: list,
        done: list[bool],
        stats: list,
        keys: list,
    ) -> None:
        """Compute the cache-miss points, in a pool when possible."""
        pool_capable = self.workers is not None and self.workers > 1
        # Crash isolation and preemptive timeouts only exist under a pool,
        # so when either is requested even a single point goes to a worker.
        want_pool = pool_capable and (
            len(pending) > 1
            or (len(pending) == 1 and (self.isolate_failures or self.timeout is not None))
        )
        if want_pool and not _is_picklable(experiment):
            self.telemetry.note(
                f"experiment {getattr(experiment, '__name__', experiment)!r} is "
                "not picklable; fell back to sequential execution"
            )
            want_pool = False

        if want_pool:
            try:
                self._run_pool(experiment, points, pending, results, done, stats, keys)
                return
            except (BrokenProcessPool, pickle.PicklingError, ImportError, AttributeError, TypeError) as error:
                # Pool infrastructure failed (worker died, callable or result
                # not transferable on this platform).  Re-running the missing
                # points sequentially either completes them or re-raises the
                # experiment's own error with a clean traceback.
                self.telemetry.note(
                    f"process pool failed ({type(error).__name__}: {error}); "
                    "re-ran remaining points sequentially"
                )

        for i in pending:
            if done[i]:
                continue
            self._run_sequential_point(experiment, points, i, results, done, stats, keys)

    def _run_pool(
        self,
        experiment: Callable,
        points: list[dict],
        pending: list[int],
        results: list,
        done: list[bool],
        stats: list,
        keys: list,
    ) -> None:
        """Fan pending points out to a pool, harvesting in completion order.

        Uses ``wait(..., FIRST_COMPLETED)`` (the primitive under
        ``as_completed``) re-armed with the per-point ``timeout`` so one
        slow or hung point cannot starve collection of the others — and so
        a stall longer than ``timeout`` is detected and handled.
        """
        attempts = {i: 1 for i in pending}
        pool = _shared_pool(self.workers)
        futures = {
            pool.submit(_measured_call, experiment, points[i]): i for i in pending
        }
        try:
            while futures:
                done_set, _ = wait(
                    set(futures), timeout=self.timeout, return_when=FIRST_COMPLETED
                )
                if not done_set:
                    self._handle_pool_stall(
                        pool, futures, experiment, points, attempts,
                        results, done, stats, keys,
                    )
                    return
                for future in done_set:
                    i = futures.pop(future)
                    try:
                        value, wall, events = future.result()
                    except BrokenProcessPool:
                        raise
                    except Exception as error:
                        if attempts[i] <= self.retries:
                            self._record_retry(points[i], attempts[i], error)
                            self._backoff_sleep(i, attempts[i])
                            attempts[i] += 1
                            futures[
                                pool.submit(_measured_call, experiment, points[i])
                            ] = i
                        elif self.isolate_failures:
                            self._fail(
                                i, "error", error, attempts[i],
                                points, results, done, stats,
                            )
                        else:
                            raise
                    else:
                        self._finish(
                            i, value, wall, events, "worker",
                            results, done, stats, keys,
                        )
        except BrokenProcessPool:
            if not self.isolate_failures:
                _retire_shared_pool(pool)
                raise  # _execute re-runs the missing points sequentially
            # A worker died hard (segfault/os._exit/OOM), which poisons every
            # in-flight future of this pool.  Contain the blast radius: tear
            # the pool down and re-run each lost point in its own fresh
            # single-worker pool, where a repeat crash costs only itself.
            # (Derived from ``done``, not ``futures``: the future whose
            # result() raised was already popped.)
            leftover = sorted(i for i in attempts if not done[i])
            self.telemetry.record(
                "crash",
                detail=f"process pool broke with {len(leftover)} point(s) in flight; "
                "re-running each in an isolated single-worker pool",
            )
            _retire_shared_pool(pool)
            for i in leftover:
                self._run_isolated_point(
                    experiment, points, i, attempts.get(i, 1),
                    results, done, stats, keys,
                )
        finally:
            # The pool outlives this call (it is reused by the next
            # run_points); cancel whatever this run still has queued so a
            # propagating experiment error doesn't leave orphan points
            # computing in the background.
            for future in futures:
                future.cancel()

    def _handle_pool_stall(
        self,
        pool: ProcessPoolExecutor,
        futures: dict,
        experiment: Callable,
        points: list[dict],
        attempts: dict,
        results: list,
        done: list[bool],
        stats: list,
        keys: list,
    ) -> None:
        """No completion within ``timeout``: the running points are hung.

        Queued-but-unstarted futures are cancellable and innocent; they are
        re-run afterwards in isolated pools with a fresh budget.  The
        uncancellable ones have been executing at least since the last
        completion, i.e. past their budget — they time out.
        """
        requeue: list[int] = []
        hung: list[int] = []
        for future, i in list(futures.items()):
            (requeue if future.cancel() else hung).append(i)
        self.telemetry.record(
            "watchdog",
            detail=f"pool stall watchdog: no completion within {self.timeout}s; "
            f"{len(hung)} hung point(s), {len(requeue)} requeued",
        )
        if not self.isolate_failures:
            _retire_shared_pool(pool)
            raise PointTimeoutError(
                f"{len(hung)} point(s) exceeded the per-point timeout of "
                f"{self.timeout}s (isolate_failures=False aborts the sweep); "
                f"first stuck params: {points[sorted(hung)[0]] if hung else '?'}"
            )
        for i in sorted(hung):
            error = PointTimeoutError(
                f"point exceeded per-point timeout of {self.timeout}s"
            )
            self._fail(
                i, "timeout", error, attempts.get(i, 1),
                points, results, done, stats,
            )
        _retire_shared_pool(pool)
        for i in sorted(requeue):
            self._run_isolated_point(
                experiment, points, i, attempts.get(i, 1),
                results, done, stats, keys,
            )

    def _run_isolated_point(
        self,
        experiment: Callable,
        points: list[dict],
        i: int,
        attempt: int,
        results: list,
        done: list[bool],
        stats: list,
        keys: list,
    ) -> None:
        """Run one point in a fresh single-worker pool (blast radius: itself).

        Only reached with ``isolate_failures=True``, after a shared pool
        broke or stalled.  Honors the per-point timeout and the remaining
        retry budget; a terminal failure becomes a :class:`FailedPoint`.
        """
        while True:
            pool = ProcessPoolExecutor(max_workers=1)
            future = pool.submit(_measured_call, experiment, points[i])
            kind: Optional[str] = None
            error: Optional[BaseException] = None
            try:
                value, wall, events = future.result(timeout=self.timeout)
            except FuturesTimeout:
                _terminate_pool(pool)
                kind, error = "timeout", PointTimeoutError(
                    f"point exceeded per-point timeout of {self.timeout}s"
                )
            except BrokenProcessPool as broken:
                _terminate_pool(pool)
                kind, error = "crash", broken
            except Exception as exc:
                pool.shutdown(wait=True)
                kind, error = "error", exc
            else:
                pool.shutdown(wait=True)
                self._finish(
                    i, value, wall, events, "worker", results, done, stats, keys
                )
                return
            if attempt <= self.retries:
                self._record_retry(points[i], attempt, error)
                self._backoff_sleep(i, attempt)
                attempt += 1
                continue
            self._fail(i, kind, error, attempt, points, results, done, stats)
            return

    def _run_sequential_point(
        self,
        experiment: Callable,
        points: list[dict],
        i: int,
        results: list,
        done: list[bool],
        stats: list,
        keys: list,
    ) -> None:
        attempt = 1
        while True:
            try:
                value, wall, events = _measured_call(experiment, points[i])
            except Exception as error:
                if attempt <= self.retries:
                    self._record_retry(points[i], attempt, error)
                    self._backoff_sleep(i, attempt)
                    attempt += 1
                    continue
                if self.isolate_failures:
                    self._fail(
                        i, "error", error, attempt, points, results, done, stats
                    )
                    return
                raise
            if self.timeout is not None and wall > self.timeout:
                # In-process execution cannot be preempted; record the
                # overrun so the report shows the budget was blown.
                self.telemetry.record(
                    "timeout",
                    detail=f"point ran {wall:.2f}s, over the {self.timeout}s budget "
                    "(sequential mode cannot preempt; result kept)",
                    params=points[i],
                )
                self.telemetry.record(
                    "watchdog",
                    detail=f"wall-clock watchdog: point ran {wall:.2f}s, over the "
                    f"{self.timeout}s budget",
                    params=points[i],
                )
            self._finish(i, value, wall, events, "sequential", results, done, stats, keys)
            return

    def _record_retry(self, params: dict, attempt: int, error: BaseException) -> None:
        self.telemetry.record(
            "retry",
            detail=f"attempt {attempt} failed ({type(error).__name__}: {error}); retrying",
            params=params,
            attempt=attempt,
        )

    def _backoff_sleep(self, index: int, attempt: int) -> None:
        """Exponential backoff with deterministic jitter before a retry."""
        if self.retry_backoff_s <= 0:
            return
        jitter = random.Random(f"{self.name}|{index}|{attempt}").random()
        delay = min(
            MAX_BACKOFF_S, self.retry_backoff_s * (2 ** (attempt - 1)) * (0.5 + jitter)
        )
        time.sleep(delay)

    def _fail(
        self,
        i: int,
        kind: str,
        error: BaseException,
        attempts: int,
        points: list[dict],
        results: list,
        done: list[bool],
        stats: list,
    ) -> None:
        """Record a terminal failure as a :class:`FailedPoint` result."""
        failed = FailedPoint(
            params=dict(points[i]),
            kind=kind,
            error_type=type(error).__name__,
            message=str(error),
            traceback=_format_error(error),
            attempts=attempts,
        )
        results[i] = failed
        done[i] = True
        stats[i] = (0.0, 0, False, "failed")
        self.telemetry.record(
            kind,
            detail=f"point failed terminally after {attempts} attempt(s): "
            f"{failed.error_type}: {failed.message}",
            params=points[i],
            attempt=attempts,
        )

    def _finish(
        self,
        i: int,
        value: object,
        wall: float,
        events: int,
        mode: str,
        results: list,
        done: list[bool],
        stats: list,
        keys: list,
    ) -> None:
        results[i] = value
        done[i] = True
        stats[i] = (wall, events, False, mode)
        if self.cache is not None and keys[i] is not None:
            self.cache.put(keys[i], value)
        if self.checkpoint is not None and keys[i] is not None:
            self.checkpoint.put(keys[i], value)
