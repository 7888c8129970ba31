"""Array-backed flow state shared by the vectorized fluid simulators.

# repro-lint: hot-path-module
(The marker scopes the PRF002 per-flow-loop lint rule to this module:
state here must be updated with whole-array numpy passes, not per-flow
Python iteration.)

``FlowArrays`` is one struct-of-arrays over the job set: demands,
nominal transfer sizes, live bytes counters, rates, and scheduling
phase, all ``float64``/``int8`` contiguous arrays indexed by a stable
flow index (job insertion order).  Both ``FluidSimulator`` and
``NetworkFluidSimulator`` mutate one instance in place per run instead
of walking per-flow runtime objects, and the allocation fast paths hand
slices of it straight to :func:`repro.fluid.allocation.water_fill_array`
/ :func:`repro.fluid.network.weighted_max_min_array`.

The ``rank`` array caches each flow's unique position in the sorted
order of job names.  The scalar allocators accumulate floats over
``sorted(ids)``; carrying the precomputed rank lets ``water_fill_array``
replay that exact order with integer argsorts, and lets
``weighted_max_min_array`` list each link's flows in it, instead of
sorting strings per call (see docs/PERFORMANCE.md, "Vectorized core &
scale benchmarks", for the bit-identity contract).  Every array loop
calls the two per-step passes here: :func:`next_event_dt` and
:func:`deliver`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.units import bps_from_gbps
from repro.workloads.job import JobSpec

__all__ = ["PHASE_WAITING", "PHASE_COMM", "PHASE_COMPUTE", "PHASE_DONE",
           "FlowArrays", "deliver", "link_index_matrix", "name_rank",
           "next_event_dt"]

#: Phase codes for the int8 phase array (mirror flowsim.Phase semantics).
PHASE_WAITING = np.int8(0)
PHASE_COMM = np.int8(1)
PHASE_COMPUTE = np.int8(2)
PHASE_DONE = np.int8(3)

#: Bits below which a communication phase counts as finished.
_EPS_BITS = 1e-6
#: Seconds below which an event is "now".
_EPS_TIME = 1e-12


@dataclass
class FlowArrays:
    """Struct-of-arrays flow state for one fluid run.

    Static per-flow data (names, demands, totals, rank) is built once
    from the job specs; mutable state (phase, remaining/sent bytes,
    deadlines, rates, iteration index) is reset by :meth:`reset` and
    updated in place by the simulators.
    """

    names: tuple[str, ...]
    specs: tuple[JobSpec, ...]
    index: dict[str, int]
    demand_bps: np.ndarray
    total_bits: np.ndarray
    start_offset: np.ndarray
    rank: np.ndarray
    # Mutable per-run state.
    phase: np.ndarray = field(init=False)
    remaining_bits: np.ndarray = field(init=False)
    sent_bits: np.ndarray = field(init=False)
    deadline: np.ndarray = field(init=False)
    comm_start: np.ndarray = field(init=False)
    comm_end: np.ndarray = field(init=False)
    iteration_index: np.ndarray = field(init=False)
    rates: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.reset()

    @classmethod
    def from_specs(cls, specs: Sequence[JobSpec]) -> "FlowArrays":
        names = tuple(spec.name for spec in specs)
        return cls(
            names=names,
            specs=tuple(specs),
            index={name: i for i, name in enumerate(names)},
            demand_bps=np.array(
                [bps_from_gbps(spec.demand_gbps) for spec in specs]
            ),
            total_bits=np.array([float(spec.comm_bits) for spec in specs]),
            start_offset=np.array(
                [float(spec.start_offset) for spec in specs]
            ),
            rank=name_rank(names),
        )

    def __len__(self) -> int:
        return len(self.names)

    def reset(self) -> None:
        n = len(self.names)
        self.phase = np.full(n, PHASE_WAITING, dtype=np.int8)
        self.remaining_bits = np.zeros(n)
        self.sent_bits = np.zeros(n)
        self.deadline = self.start_offset.astype(np.float64, copy=True)
        self.comm_start = np.full(n, np.nan)
        self.comm_end = np.full(n, np.nan)
        self.iteration_index = np.zeros(n, dtype=np.int64)
        self.rates = np.zeros(n)


def name_rank(names: Sequence[str]) -> np.ndarray:
    """Each name's position in the sorted order of ``names`` (unique)."""
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int64)
    rank[order] = np.arange(len(names))
    return rank


def next_event_dt(fa: FlowArrays, now: float, bound: float) -> float:
    """Time to the next event: the earliest flow candidate or ``bound``.

    Candidates are deadline - now for a WAITING or COMPUTE flow and
    remaining/rate for a flowing COMM one; any within ``_EPS_TIME`` is
    dropped.  ``bound`` is the caller's flow-independent limit; with
    nothing finite the step is ``_EPS_TIME``.
    """
    phase = fa.phase
    candidates = np.full(len(fa), math.inf)
    timed = (phase != PHASE_DONE) & (phase != PHASE_COMM)
    np.subtract(fa.deadline, now, out=candidates, where=timed)
    flowing = (phase == PHASE_COMM) & (fa.rates > 0.0)
    np.divide(fa.remaining_bits, fa.rates, out=candidates, where=flowing)
    candidates[candidates <= _EPS_TIME] = math.inf
    best = bound
    flow_best = float(candidates.min())
    if flow_best < best:
        best = flow_best
    return best if not math.isinf(best) else _EPS_TIME


def deliver(
    rates: np.ndarray, dt: float, remaining: np.ndarray, sent: np.ndarray, total: np.ndarray
) -> np.ndarray:
    """Deliver ``rates * dt`` bits per flow; returns the delivered bits.

    Floors ``remaining`` at 0 and caps ``sent`` at the nominal ``total``,
    in place, with sign-exact ``np.where`` renderings of the scalar
    clamps.  A flow at rate 0.0 keeps its state bit for bit (``x - 0.0``
    and ``x + 0.0`` are identities on the non-negative counters).
    """
    delivered = rates * dt
    shrunk = remaining - delivered
    remaining[:] = np.where(shrunk > 0.0, shrunk, 0.0)
    grown = sent + delivered
    sent[:] = np.where(grown < total, grown, total)
    return delivered


def link_index_matrix(
    links: Sequence[str],
    flow_links: Mapping[str, Iterable[str]],
    names: Sequence[str],
) -> np.ndarray:
    """Per-flow link indices as an ``(n, K)`` int matrix padded with -1.

    Row order follows ``names`` (flow candidate order); link indices
    point into ``links`` (the capacities mapping's iteration order);
    ``K`` is the longest path.  Fabric link sets are sparse — a flow
    crosses a handful of a fat tree's thousands of links — so this stays
    tiny where a dense links x flows membership matrix would not.
    Unknown link names raise ``KeyError``, as ``weighted_max_min`` does.
    """
    link_index = {link: i for i, link in enumerate(links)}
    paths = [tuple(flow_links.get(name, ())) for name in names]
    width = max((len(path) for path in paths), default=0)
    matrix = np.full((len(names), width), -1, dtype=np.intp)
    for row, path in enumerate(paths):
        for k, link in enumerate(path):
            matrix[row, k] = link_index[link]
    return matrix
