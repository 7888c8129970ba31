"""Seeded chaos campaigns: randomized fault schedules from a declarative budget.

A :class:`ChaosBudget` says what a campaign may do to the fabric — which
fault kinds, how often (MTBF), for how long, how many at once, and whether
it may blackhole traffic — and :func:`generate_campaign` samples a concrete
:class:`~repro.faults.schedule.FaultSchedule` from it.  Everything draws
from ``np.random.default_rng(seed)``, so a campaign is bit-reproducible:
same spec + budget + seed → the identical schedule, which then replays
identically on both substrates (the schedule layer's existing guarantee).

The blast-radius guarantee: unless ``allow_blackhole`` is set, no sampled
combination of concurrent faults may disconnect any rack pair — candidates
that would are skipped, so a default campaign degrades paths but never
severs them.  ``rack_partition`` (which always blackholes its rack) is
therefore only sampled when ``allow_blackhole=True``.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..workloads.placement import FabricSpec
from .routing import FabricRoutingState
from .schedule import FABRIC_KINDS, FaultEvent, FaultSchedule

__all__ = ["ChaosBudget", "ChaosCampaign", "generate_campaign"]

#: How many salted re-samples :func:`generate_campaign` tries before
#: declaring the budget unsatisfiable (e.g. ``min_events`` too high for
#: the horizon/MTBF combination).
_MAX_SALTS = 64


def _mix(seed: int, salt: object) -> int:
    """Derive a child seed deterministically (CRC32 of a tagged string)."""
    return zlib.crc32(f"{seed}/{salt}".encode("ascii"))


@dataclass(frozen=True)
class ChaosBudget:
    """Declarative limits a sampled campaign must respect.

    Parameters
    ----------
    horizon:
        Length (s) of the window fault strikes are sampled in.
    mtbf:
        Mean time between failures (s): strike gaps are exponential.
    mean_duration:
        Mean fault duration (s); samples are exponential, clipped to
        ``[0.25, 2.0] x mean_duration`` so no fault is degenerate or
        campaign-dominating.
    start:
        Window start (s) — leave room for the workload to converge first.
    max_concurrent:
        Blast radius in time: candidates overlapping this many active
        faults are skipped.
    kinds:
        Fault kinds to sample from; a non-empty subset of
        :data:`~repro.faults.schedule.FABRIC_KINDS`.
    min_events:
        Re-sample (with a salted seed) until the campaign has at least
        this many faults, so "one tiny campaign" can't come up empty.
    allow_blackhole:
        Permit combinations that disconnect rack pairs.  Required for
        ``rack_partition``; off by default.
    """

    horizon: float
    mtbf: float
    mean_duration: float
    start: float = 0.0
    max_concurrent: int = 1
    kinds: tuple[str, ...] = ("spine_down", "uplink_down", "ecmp_rehash")
    min_events: int = 1
    allow_blackhole: bool = False

    def __post_init__(self) -> None:
        # NaN fails these tests too; an infinite horizon never stops sampling.
        for name in ("horizon", "mtbf", "mean_duration"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not 0.0 <= self.start < math.inf:
            raise ValueError(
                f"start must be non-negative and finite, got {self.start!r}"
            )
        if self.max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be at least 1, got {self.max_concurrent!r}"
            )
        if self.min_events < 0:
            raise ValueError(
                f"min_events must be non-negative, got {self.min_events!r}"
            )
        object.__setattr__(self, "kinds", tuple(self.kinds))
        if not self.kinds:
            raise ValueError("kinds must not be empty")
        unknown = set(self.kinds) - FABRIC_KINDS
        if unknown:
            raise ValueError(
                f"unknown fabric fault kinds {sorted(unknown)}; valid kinds "
                f"are {sorted(FABRIC_KINDS)}"
            )
        if "rack_partition" in self.kinds and not self.allow_blackhole:
            raise ValueError(
                "rack_partition always blackholes its rack; set "
                "allow_blackhole=True to sample it"
            )


def generate_campaign(
    spec: FabricSpec, budget: ChaosBudget, seed: int = 0
) -> FaultSchedule:
    """Sample one fault schedule within ``budget`` on ``spec``'s fabric.

    Bit-reproducible: the same ``(spec, budget, seed)`` triple always
    yields the same schedule.  Candidates violating ``max_concurrent`` or
    (without ``allow_blackhole``) disconnecting a rack pair are skipped;
    if a pass ends with fewer than ``budget.min_events`` faults, the whole
    pass re-samples with a salted seed, still deterministically.
    """
    for salt in range(_MAX_SALTS):
        pass_seed = seed if salt == 0 else _mix(seed, f"salt{salt}")
        events = _sample_pass(spec, budget, pass_seed)
        if len(events) >= budget.min_events:
            return FaultSchedule(events=events, seed=pass_seed)
    raise ValueError(
        f"could not sample {budget.min_events} events in {_MAX_SALTS} "
        "passes; widen the horizon, lower the mtbf, or relax the budget"
    )


def _sample_pass(
    spec: FabricSpec, budget: ChaosBudget, seed: int
) -> tuple[FaultEvent, ...]:
    rng = np.random.default_rng(seed)
    events: list[FaultEvent] = []
    time = budget.start + float(rng.exponential(budget.mtbf))
    window_end = budget.start + budget.horizon
    while time < window_end:
        kind = str(rng.choice(list(budget.kinds)))
        duration = float(
            np.clip(
                rng.exponential(budget.mean_duration),
                0.25 * budget.mean_duration,
                2.0 * budget.mean_duration,
            )
        )
        candidate = _target_event(spec, rng, kind, time, duration)
        overlapping = [
            e for e in events if e.time < candidate.end_time and candidate.time < e.end_time
        ]
        acceptable = len(overlapping) < budget.max_concurrent and (
            budget.allow_blackhole
            or not _blackholes(spec, [*overlapping, candidate])
        )
        if acceptable:
            events.append(candidate)
        time += float(rng.exponential(budget.mtbf))
    return tuple(events)


def _target_event(
    spec: FabricSpec,
    rng: np.random.Generator,
    kind: str,
    time: float,
    duration: float,
) -> FaultEvent:
    if kind == "spine_down":
        spine: Optional[str] = spec.spine_name(int(rng.integers(spec.n_spines)))
        return FaultEvent(kind, time, duration, spine=spine)
    if kind == "uplink_down":
        rack = spec.rack_name(int(rng.integers(spec.n_racks)))
        spine_name = spec.spine_name(int(rng.integers(spec.n_spines)))
        return FaultEvent(kind, time, duration, link=f"{rack}->{spine_name}")
    if kind == "rack_partition":
        return FaultEvent(
            kind, time, duration,
            rack=spec.rack_name(int(rng.integers(spec.n_racks))),
        )
    assert kind == "ecmp_rehash"
    return FaultEvent(kind, time, duration)


def _blackholes(spec: FabricSpec, events: list[FaultEvent]) -> bool:
    """Would this concurrent combination disconnect any rack pair?"""
    state = FabricRoutingState(spec)
    for event in events:
        state.apply(event)
    for src in range(spec.n_racks):
        for dst in range(spec.n_racks):
            if src != dst and not state.surviving_spines(src, dst):
                return True
    return False


@dataclass(frozen=True)
class ChaosCampaign:
    """N independently seeded campaigns over one fabric and budget.

    Campaign ``i`` samples under seed ``crc32(f"{seed}/campaign{i}")``, so
    campaigns are decorrelated but each remains individually reproducible
    — rerun campaign 3 alone and it regenerates bit-identically.
    """

    spec: FabricSpec
    budget: ChaosBudget
    seed: int = 0
    n_campaigns: int = 1

    def __post_init__(self) -> None:
        if self.n_campaigns < 1:
            raise ValueError(
                f"n_campaigns must be positive, got {self.n_campaigns!r}"
            )

    def campaign_seed(self, index: int) -> int:
        """The derived seed campaign ``index`` samples under."""
        if not 0 <= index < self.n_campaigns:
            raise IndexError(
                f"campaign index {index} outside [0, {self.n_campaigns})"
            )
        return _mix(self.seed, f"campaign{index}")

    def schedule(self, index: int) -> FaultSchedule:
        """Generate (deterministically) the schedule of campaign ``index``."""
        return generate_campaign(self.spec, self.budget, self.campaign_seed(index))

    def schedules(self) -> tuple[FaultSchedule, ...]:
        """Every campaign's schedule, in campaign order."""
        return tuple(self.schedule(i) for i in range(self.n_campaigns))
