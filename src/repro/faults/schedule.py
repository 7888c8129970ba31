"""Declarative fault schedules: what goes wrong, when, and for how long.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent` records.
It is pure data — no simulator state — so the *same* schedule replays in the
packet-level simulator (:func:`repro.faults.packet.install_packet_faults`)
and the fluid one (:class:`repro.faults.fluid.FluidFaultState`), and two
runs with the same schedule and seed are bit-identical.

Schedules validate eagerly: a negative time, an unknown kind, or a link
name that does not exist in the topology fails immediately with a message
naming the offending event, not minutes into a simulation.

Schedules round-trip through JSON (:meth:`FaultSchedule.to_json` /
:meth:`FaultSchedule.from_json`) so fault scenarios can be checked in next
to workload scenarios; the file format is documented in docs/FAULTS.md.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path
from typing import Iterable, Optional, Sequence

__all__ = ["FABRIC_KINDS", "FAULT_KINDS", "FaultEvent", "FaultSchedule", "InjectionLog"]

#: Every fault class the injectors understand, with a one-line meaning.
FAULT_KINDS: dict[str, str] = {
    "link_down": "link carries nothing for `duration` seconds (flap)",
    "bandwidth": "link rate multiplied by `factor` for `duration` seconds",
    "loss_burst": "extra Bernoulli loss `loss` on the link for `duration` s",
    "ecn_storm": "every ECN-capable packet is CE-marked for `duration` s",
    "straggler": "job's compute phases stretched by `factor` for `duration` s",
    "job_restart": "job killed mid-iteration; restarts after `restart_delay` s",
    "spine_down": "spine switch and all its uplinks fail for `duration` s",
    "uplink_down": "one rack<->spine uplink pair fails for `duration` s",
    "rack_partition": "every uplink of `rack` fails for `duration` s",
    "ecmp_rehash": "ECMP seed perturbed for `duration` s (paths reshuffle)",
}

#: Kinds that target a link (``event.link``) vs. a job (``event.job``).
_LINK_KINDS = frozenset({"link_down", "bandwidth", "loss_burst", "ecn_storm"})
_JOB_KINDS = frozenset({"straggler", "job_restart"})

#: Fabric-level kinds: they perturb the multi-rack routing state rather than
#: a single directed link, need a :class:`~repro.workloads.placement.FabricSpec`
#: to replay, and are handled by :class:`repro.faults.routing.FabricRoutingState`.
FABRIC_KINDS = frozenset(
    {"spine_down", "uplink_down", "rack_partition", "ecmp_rehash"}
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    time:
        Simulation time (s) the fault strikes.
    duration:
        How long it lasts; the injector reverts the fault at
        ``time + duration``.  Ignored by ``job_restart`` (instantaneous
        kill; the downtime is ``restart_delay``).
    link:
        Target link for link faults, as ``"src->dst"`` (e.g.
        ``"sw_l->sw_r"``).  ``None`` means the topology's bottleneck.
        For ``uplink_down`` this is the canonical ``"rack{r}->spine{s}"``
        name and means *both* directions of the physical uplink.
    job:
        Target job name for ``straggler`` / ``job_restart``.
    spine:
        Target spine switch for ``spine_down`` (e.g. ``"spine0"``).
    rack:
        Target rack switch for ``rack_partition`` (e.g. ``"rack2"``).
    factor:
        ``bandwidth``: remaining fraction of the rate, in (0, 1).
        ``straggler``: compute-time multiplier, > 1.
    loss:
        ``loss_burst``: extra drop probability, in (0, 1).
    restart_delay:
        ``job_restart``: seconds of downtime before the job's fresh
        iteration begins.
    """

    kind: str
    time: float
    duration: float = 0.0
    link: Optional[str] = None
    job: Optional[str] = None
    spine: Optional[str] = None
    rack: Optional[str] = None
    factor: float = 1.0
    loss: float = 0.0
    restart_delay: float = 0.0

    @property
    def end_time(self) -> float:
        """When the fault reverts (equals :attr:`time` for instant faults)."""
        return self.time + self.duration

    @property
    def target(self) -> str:
        """The name of whatever the fault hits, for logs and reports."""
        field_name, _ = _DESCRIBE_RECIPES.get(self.kind, ("", ()))
        value = getattr(self, field_name, None) if field_name else None
        if value is not None:
            return str(value)
        return "the fabric" if self.kind in FABRIC_KINDS else "bottleneck"

    def describe(self) -> str:
        """Human-readable one-liner for reports and degradation records."""
        _, params = _DESCRIBE_RECIPES.get(self.kind, ("", ()))
        extra = "".join(
            f" {name}={getattr(self, name):g}{suffix}" for name, suffix in params
        )
        return (
            f"{self.kind} on {self.target} at t={self.time:g}s"
            + (f" for {self.duration:g}s" if self.duration > 0 else "")
            + extra
        )


#: How :meth:`FaultEvent.describe` renders each kind: the attribute naming
#: the target (empty string → substrate default) and the parameter attributes
#: worth printing, each with a unit suffix.  The table must cover
#: :data:`FAULT_KINDS` exactly — a test enforces the pairing, so a new kind
#: cannot ship without a rendering.
_DESCRIBE_RECIPES: dict[str, tuple[str, tuple[tuple[str, str], ...]]] = {
    "link_down": ("link", ()),
    "bandwidth": ("link", (("factor", ""),)),
    "loss_burst": ("link", (("loss", ""),)),
    "ecn_storm": ("link", ()),
    "straggler": ("job", (("factor", ""),)),
    "job_restart": ("job", (("restart_delay", "s"),)),
    "spine_down": ("spine", ()),
    "uplink_down": ("link", ()),
    "rack_partition": ("rack", ()),
    "ecmp_rehash": ("", ()),
}


#: Every numeric field of :class:`FaultEvent`, each required to be a finite
#: number (a bool is not one).
_NUMERIC_FIELDS = ("time", "duration", "factor", "loss", "restart_delay")
#: Every target-name field of :class:`FaultEvent`: a string, or None.
_NAME_FIELDS = ("link", "job", "spine", "rack")


def _check(condition: bool, index: int, event: FaultEvent, message: str) -> None:
    if not condition:
        raise ValueError(f"fault event #{index} ({event.kind!r}): {message}")


@dataclass(frozen=True)
class FaultSchedule:
    """A validated, time-sorted collection of fault events.

    ``seed`` feeds every stochastic component of injection (currently the
    burst-loss coin flips in the packet simulator), so a schedule replays
    deterministically: same schedule + same seed → identical drops.
    """

    events: tuple[FaultEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        self.validate()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def validate(
        self,
        link_names: Optional[Iterable[str]] = None,
        job_names: Optional[Iterable[str]] = None,
        fabric: Optional[object] = None,
    ) -> None:
        """Check every event; raise ``ValueError`` naming the first bad one.

        Intrinsic checks (times, kinds, parameter ranges) always run; when
        ``link_names`` / ``job_names`` are given — the topology's links and
        the scenario's jobs — targets are checked for existence too, so a
        typo'd link name fails before the simulation starts.

        ``fabric`` accepts a :class:`repro.workloads.placement.FabricSpec`
        or an assembled :class:`repro.simulator.topology.Network` and checks
        fabric-fault targets (spines, racks, uplinks) for existence, with
        errors naming the valid targets.  It also supplies ``link_names``
        when those were not given explicitly.
        """
        links = set(link_names) if link_names is not None else None
        jobs = set(job_names) if job_names is not None else None
        spines: Optional[set[str]] = None
        racks: Optional[set[str]] = None
        if fabric is not None:
            fabric_links, spines, racks = _topology_names(fabric)
            if links is None:
                links = fabric_links
        seed = self.seed
        if not (isinstance(seed, Integral) and not isinstance(seed, bool)
                and seed >= 0):
            raise ValueError(
                f"fault schedule seed must be a non-negative integer, got {seed!r}"
            )
        for i, event in enumerate(self.events):
            _check(
                isinstance(event.kind, str) and event.kind in FAULT_KINDS, i, event,
                f"unknown kind; valid kinds are {sorted(FAULT_KINDS)}",
            )
            for name in _NUMERIC_FIELDS:
                value = getattr(event, name)
                number = isinstance(value, Real) and not isinstance(value, bool)
                _check(number and math.isfinite(value), i, event,
                       f"{name} must be finite, got {value!r}"
                       + ("" if number else ", which is not a number"))
            for name in _NAME_FIELDS:
                value = getattr(event, name)
                _check(value is None or isinstance(value, str), i, event,
                       f"{name} must be a name (a string), got {value!r}")
            _check(event.time >= 0, i, event,
                   f"time must be non-negative, got {event.time!r}")
            _check(event.duration >= 0, i, event,
                   f"duration must be non-negative, got {event.duration!r}")
            if event.kind in _LINK_KINDS:
                _check(event.job is None, i, event,
                       "a link fault cannot name a job")
                if links is not None and event.link is not None:
                    _check(
                        event.link in links, i, event,
                        f"link {event.link!r} does not exist in the "
                        f"topology; available links: {sorted(links)}",
                    )
            if event.kind in _JOB_KINDS:
                _check(event.link is None, i, event,
                       "a job fault cannot name a link")
                _check(event.job is not None, i, event,
                       "a job fault must name its target job")
                if jobs is not None:
                    _check(
                        event.job in jobs, i, event,
                        f"job {event.job!r} is not in the scenario; "
                        f"jobs: {sorted(jobs)}",
                    )
            if event.kind == "bandwidth":
                _check(0.0 < event.factor < 1.0, i, event,
                       f"factor must be in (0, 1), got {event.factor!r}")
                _check(event.duration > 0, i, event,
                       "a bandwidth degradation needs a positive duration")
            if event.kind == "straggler":
                _check(event.factor > 1.0, i, event,
                       "factor must exceed 1 (a compute slowdown), got "
                       f"{event.factor!r}")
                _check(event.duration > 0, i, event,
                       "a straggler needs a positive duration")
            if event.kind == "loss_burst":
                _check(0.0 < event.loss < 1.0, i, event,
                       f"loss must be in (0, 1), got {event.loss!r}")
                _check(event.duration > 0, i, event,
                       "a loss burst needs a positive duration")
            if event.kind in ("link_down", "ecn_storm"):
                _check(event.duration > 0, i, event,
                       f"a {event.kind} needs a positive duration")
            if event.kind == "job_restart":
                _check(event.restart_delay >= 0, i, event,
                       "restart_delay must be non-negative, got "
                       f"{event.restart_delay!r}")
            if event.kind in FABRIC_KINDS:
                _check(event.job is None, i, event,
                       "a fabric fault cannot name a job")
                _check(event.duration > 0, i, event,
                       f"a {event.kind} needs a positive duration")
            else:
                _check(event.spine is None and event.rack is None, i, event,
                       "only fabric faults may name a spine or rack")
            if event.kind == "spine_down":
                _check(event.spine is not None, i, event,
                       "a spine_down must name its spine (e.g. 'spine0')")
                _check(event.link is None and event.rack is None, i, event,
                       "a spine_down targets only a spine")
                if spines is not None:
                    _check(
                        event.spine in spines, i, event,
                        f"spine {event.spine!r} does not exist in the "
                        f"fabric; valid spines: {sorted(spines)}",
                    )
            if event.kind == "uplink_down":
                _check(
                    event.link is not None and "->" in (event.link or ""),
                    i, event,
                    "an uplink_down must name its uplink as "
                    "'rack{r}->spine{s}' (e.g. 'rack0->spine1')",
                )
                _check(event.spine is None and event.rack is None, i, event,
                       "an uplink_down targets only its rack->spine uplink")
                if spines is not None and racks is not None:
                    uplinks = {f"{r}->{s}" for r in racks for s in spines}
                    _check(
                        event.link in uplinks, i, event,
                        f"uplink {event.link!r} does not exist in the "
                        f"fabric; valid uplinks: {sorted(uplinks)}",
                    )
            if event.kind == "rack_partition":
                _check(event.rack is not None, i, event,
                       "a rack_partition must name its rack (e.g. 'rack2')")
                _check(event.link is None and event.spine is None, i, event,
                       "a rack_partition targets only a rack")
                if racks is not None:
                    _check(
                        event.rack in racks, i, event,
                        f"rack {event.rack!r} does not exist in the "
                        f"fabric; valid racks: {sorted(racks)}",
                    )
            if event.kind == "ecmp_rehash":
                _check(
                    event.link is None and event.spine is None
                    and event.rack is None,
                    i, event,
                    "an ecmp_rehash takes no target (it perturbs the whole "
                    "fabric's hash seed)",
                )

    def sorted_events(self) -> tuple[FaultEvent, ...]:
        """Events ordered by strike time (stable for equal times)."""
        return tuple(sorted(self.events, key=lambda e: e.time))

    def transition_times(self) -> tuple[float, ...]:
        """Every time the fault state changes (strikes and reversions)."""
        times: set[float] = set()
        for event in self.events:
            times.add(event.time)
            if event.duration > 0:
                times.add(event.end_time)
            if event.kind == "job_restart":
                times.add(event.time + event.restart_delay)
        return tuple(sorted(times))

    # -- persistence -------------------------------------------------------

    def to_json(self, path: Optional[Path | str] = None) -> str:
        """Serialize (and optionally write) the schedule as JSON."""
        payload = {
            "seed": self.seed,
            "events": [
                {k: v for k, v in asdict(event).items() if v is not None}
                for event in self.events
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_json(cls, source: Path | str) -> "FaultSchedule":
        """Load a schedule from a JSON file path or a JSON string.

        A :class:`~pathlib.Path` is always read as a file.  A string that
        opens a JSON object or array is the document itself; any other
        string is a path.  Every field is checked (see :meth:`validate`),
        and a bad one raises ``ValueError`` naming it.
        """
        if isinstance(source, Path):
            text = source.read_text()
        else:
            text = str(source)
            if not text.lstrip().startswith(("{", "[")):
                text = Path(text).read_text()
        try:
            payload = json.loads(text)
        except ValueError as error:
            raise ValueError(f"fault schedule is not valid JSON: {error}") from None
        if not isinstance(payload, dict) or not isinstance(payload.get("events"), list):
            raise ValueError(
                "fault schedule JSON must be an object with an 'events' list "
                "(and an optional integer 'seed')"
            )
        keys = [f.name for f in fields(FaultEvent)]
        required = [
            f.name for f in fields(FaultEvent)
            if f.default is MISSING and f.default_factory is MISSING
        ]
        events = []
        for i, raw in enumerate(payload["events"]):
            if not isinstance(raw, dict):
                raise ValueError(f"fault event #{i} must be an object, got {raw!r}")
            unknown = set(raw) - set(keys)
            if unknown:
                raise ValueError(
                    f"fault event #{i} has unknown keys {sorted(unknown)}; "
                    f"valid keys: {sorted(keys)}"
                )
            for name in required:
                if name not in raw:
                    label = f" ({raw['kind']!r})" if "kind" in raw else ""
                    raise ValueError(
                        f"fault event #{i}{label}: missing required key {name!r}"
                    )
            events.append(FaultEvent(**raw))
        # Field values, the seed's included, are checked by validate().
        return cls(events=tuple(events), seed=payload.get("seed", 0))


def _topology_names(topology: object) -> tuple[set[str], set[str], set[str]]:
    """``(links, spines, racks)`` name sets of a FabricSpec or a Network.

    Duck-typed so :mod:`repro.faults` needs no import of either class: a
    ``FabricSpec`` exposes ``capacities_gbps()`` plus ``spine_name`` /
    ``rack_name``; an assembled ``Network`` exposes ``links`` keyed by
    ``(src, dst)`` and a ``switches`` mapping whose spine/rack switches
    follow the fat-tree naming convention.
    """
    capacities = getattr(topology, "capacities_gbps", None)
    if callable(capacities):
        links = set(capacities())
        spines = {
            topology.spine_name(k) for k in range(topology.n_spines)  # type: ignore[attr-defined]
        }
        racks = {
            topology.rack_name(r) for r in range(topology.n_racks)  # type: ignore[attr-defined]
        }
        return links, spines, racks
    net_links = getattr(topology, "links", None)
    switches = getattr(topology, "switches", None)
    if isinstance(net_links, dict) and switches is not None:
        links = {f"{src}->{dst}" for (src, dst) in net_links}
        spines = {name for name in switches if name.startswith("spine")}
        racks = {name for name in switches if name.startswith("rack")}
        return links, spines, racks
    raise TypeError(
        "fabric must be a FabricSpec or an assembled Network, got "
        f"{type(topology).__name__}"
    )


@dataclass(eq=False)
class InjectionLog:
    """What an injector actually did, for telemetry's ``fault`` records.

    One entry per applied transition: ``(sim_time, description)``.  The
    packet injector fills one; the fluid fault states
    (:class:`~repro.faults.fluid.FluidFaultState`,
    :class:`~repro.fluid.fabric.FluidFabricFaults`) are one.  The harness
    copies these into the run-report so a report reader can see every
    fault that fired without reloading the schedule.
    """

    entries: list[tuple[float, str]] = field(default_factory=list)

    def record(self, time: float, description: str) -> None:
        """Append one applied transition."""
        self.entries.append((time, description))

    def descriptions(self) -> list[str]:
        """The log as human-readable lines, in application order."""
        return [f"t={time:g}s: {text}" for time, text in self.entries]
