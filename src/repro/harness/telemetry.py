"""Per-point instrumentation and structured JSON run-reports.

Role in the pipeline: a :class:`RunTelemetry` rides along with the
experiment runner (:mod:`repro.harness.runner`) and records, for every
executed point, the wall time, the number of discrete-event callbacks the
simulators processed (via :func:`repro.simulator.engine.\
total_events_processed`), whether the point was a cache hit, and how it ran
(cached / sequential / pool worker / failed).
Everything else a run wants to explain — retries and injected faults,
guardrail events, link utilization, recovery SLOs, model-checking verdicts,
service snapshots — is a typed record (:meth:`RunTelemetry.record`): a
``kind`` plus a payload whose schema :data:`RECORD_KINDS` defines.
:meth:`RunTelemetry.as_report` turns that into the JSON run-report the
benchmarks write next to their text output in ``bench_reports/``
(``<name>.run.json``); the report format is frozen by
:data:`RUN_REPORT_SCHEMA`, generated from the same table and checked into
``docs/run_report.schema.json``, and checked by :func:`validate_run_report`.
How to read a report is documented in docs/HARNESS.md.
"""

from __future__ import annotations

import copy
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

__all__ = [
    "PointRecord",
    "RunTelemetry",
    "RECORD_KINDS",
    "RUN_REPORT_SCHEMA",
    "REPORT_SCHEMA_VERSION",
    "validate_run_report",
]

#: Version stamped into every run-report; only this version validates.
#: Adding a record kind to :data:`RECORD_KINDS` does not change it.
REPORT_SCHEMA_VERSION = 7


def _payload(required: list[str], **properties: dict) -> dict:
    """A record payload's schema: an object with these fields."""
    return {"type": "object", "required": required, "properties": properties}


_STRING = {"type": "string"}
_OPTIONAL_STRING = {"type": ["string", "null"]}
_OPTIONAL_OBJECT = {"type": ["object", "null"]}
_OPTIONAL_NUMBER = {"type": ["number", "null"]}
_COUNT = {"type": "integer", "minimum": 0}
_NON_NEGATIVE = {"type": "number", "minimum": 0}
_OPTIONAL_NON_NEGATIVE = {"type": ["number", "null"], "minimum": 0}
_FLAG = {"type": "boolean"}

#: Payload of a resilience event the run survived (or was made to).
_RESILIENCE = _payload(
    ["detail"],
    detail=_STRING,
    params=_OPTIONAL_OBJECT,
    attempt={"type": ["integer", "null"], "minimum": 1},
)

#: Payload of a runtime-guardrail event (docs/ROBUSTNESS.md); ``guard``,
#: ``subject`` and ``time`` carry an :class:`repro.guards.InvariantViolation`.
_GUARD = _payload(
    ["detail"],
    detail=_STRING,
    guard=_OPTIONAL_STRING,
    subject=_OPTIONAL_STRING,
    time=_OPTIONAL_NUMBER,
    params=_OPTIONAL_OBJECT,
)

#: Every record kind and the schema of its payload — the one place a kind
#: or a field bound is written.  :meth:`RunTelemetry.record` and
#: :func:`validate_run_report` both check against it.
#:
#: * ``retry`` (a failed attempt that was retried), ``timeout`` (a point or
#:   side effect blew its wall-clock budget), ``crash`` (a pool worker died
#:   hard, or the service stepper crashed), ``error`` (a point failed
#:   terminally), ``fault`` (an injected fault fired);
#: * ``violation`` (an invariant monitor fired), ``degradation`` (an MLTCP
#:   sender fell back to vanilla CC), ``watchdog`` (a stall or wall-clock
#:   watchdog fired);
#: * ``link_utilization`` — one link's mean utilization over one run
#:   (docs/TOPOLOGIES.md); a packet-level sample may exceed 1 counting
#:   headers;
#: * ``recovery`` — one fault's recovery SLOs from a chaos campaign
#:   (:meth:`repro.metrics.recovery.RecoverySLO.as_record` plus run context);
#: * ``verification`` — one bounded-model-checking verdict from
#:   ``repro verify`` (docs/VERIFICATION.md);
#: * ``service`` — one churn-daemon snapshot (docs/SERVICE.md): cumulative
#:   counters, the decisions since the previous snapshot, and per-job rows
#:   (null under coarse telemetry).
RECORD_KINDS: dict[str, dict] = {
    **dict.fromkeys(("retry", "timeout", "crash", "error", "fault"), _RESILIENCE),
    **dict.fromkeys(("violation", "degradation", "watchdog"), _GUARD),
    "link_utilization": _payload(
        ["link", "utilization"],
        link=_STRING,
        utilization=_NON_NEGATIVE,
        capacity_gbps=_OPTIONAL_NUMBER,
        policy=_OPTIONAL_STRING,
        substrate=_OPTIONAL_STRING,
        params=_OPTIONAL_OBJECT,
    ),
    "recovery": _payload(
        [
            "fault",
            "strike_time",
            "recovery_time",
            "time_to_reroute",
            "time_to_reinterleave",
            "goodput_lost_bits",
            "interleavable",
            "reinterleaved",
        ],
        fault=_STRING,
        strike_time=_NON_NEGATIVE,
        recovery_time=_NON_NEGATIVE,
        time_to_reroute=_NON_NEGATIVE,
        time_to_reinterleave=_OPTIONAL_NON_NEGATIVE,
        goodput_lost_bits=_NON_NEGATIVE,
        interleavable=_FLAG,
        reinterleaved=_FLAG,
        policy=_OPTIONAL_STRING,
        substrate=_OPTIONAL_STRING,
        campaign={"type": ["integer", "null"], "minimum": 0},
        params=_OPTIONAL_OBJECT,
    ),
    "verification": _payload(
        ["property", "version", "verdict", "backend"],
        property=_STRING,
        version={"type": "integer", "minimum": 1},
        verdict={"enum": ["unsat", "sat", "unknown", "skipped"]},
        backend=_STRING,
        states_checked=_COUNT,
        elapsed_s=_NON_NEGATIVE,
        params=_OPTIONAL_OBJECT,
        reason=_OPTIONAL_STRING,
    ),
    "service": _payload(
        [
            "epoch",
            "time",
            "running",
            "queue_depth",
            "admitted",
            "deferred",
            "shed",
            "degraded",
            "departed",
            "recoveries",
        ],
        epoch=_COUNT,
        time=_NON_NEGATIVE,
        running=_COUNT,
        queue_depth=_COUNT,
        admitted=_COUNT,
        deferred=_COUNT,
        shed=_COUNT,
        degraded=_COUNT,
        departed=_COUNT,
        recoveries=_COUNT,
        slo_attainment={"type": ["number", "null"], "minimum": 0, "maximum": 1},
        coarse=_FLAG,
        events={
            "type": "array",
            "items": _payload(
                ["kind", "detail"],
                kind={
                    "enum": [
                        "admit",
                        "defer",
                        "shed",
                        "degrade",
                        "depart",
                        "recovery",
                        "fallback",
                        "fault",
                    ]
                },
                detail=_STRING,
                job=_OPTIONAL_STRING,
                time=_OPTIONAL_NUMBER,
            ),
        },
        jobs={
            "type": ["array", "null"],
            "items": _payload(
                ["name", "iterations"],
                name=_STRING,
                iterations=_COUNT,
                mean_iteration_s=_OPTIONAL_NON_NEGATIVE,
                slo_ok={"type": ["boolean", "null"]},
            ),
        },
    ),
}

#: One entry of ``report["records"]``: a known ``kind`` whose payload
#: schema is picked by ``if``/``then``.
_RECORD_SCHEMA: dict = {
    "type": "object",
    "required": ["kind"],
    "properties": {"kind": {"enum": list(RECORD_KINDS)}},
    "allOf": [
        {
            "if": {"required": ["kind"], "properties": {"kind": {"const": kind}}},
            "then": payload,
        }
        for kind, payload in RECORD_KINDS.items()
    ],
}


@dataclass(frozen=True)
class PointRecord:
    """Instrumentation of one executed experiment point.

    ``mode`` says where the value came from: ``"cached"`` (served from the
    result cache), ``"sequential"`` (computed in-process), ``"worker"``
    (computed in a process-pool worker) or ``"failed"`` (the point
    exhausted its attempts and its result slot holds a
    :class:`repro.harness.runner.FailedPoint`).  The schema also admits
    ``"resumed"``, which reports written by earlier versions may carry.
    ``events_processed`` counts the simulator callbacks the point triggered
    (0 for cache hits).
    """

    params: dict
    seed: Optional[int]
    wall_time_s: float
    events_processed: int
    cache_hit: bool
    mode: str

    def as_dict(self) -> dict:
        """JSON-ready form of this record (one entry of ``report["points"]``)."""
        return {
            "params": self.params,
            "seed": self.seed,
            "wall_time_s": self.wall_time_s,
            "events_processed": self.events_processed,
            "cache_hit": self.cache_hit,
            "mode": self.mode,
        }


@dataclass
class RunTelemetry:
    """Accumulates per-point instrumentation and typed records, and emits
    the JSON run-report.

    Create one per logical experiment (one benchmark file, one CLI
    invocation), pass it to the runner, then call :meth:`as_report` /
    :meth:`write` once the sweep finishes.
    """

    experiment: str
    workers: Optional[int] = None
    points: list[PointRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    _started: float = field(default_factory=time.perf_counter)

    def record_point(
        self,
        params: Mapping[str, object],
        wall_time_s: float,
        events_processed: int,
        cache_hit: bool,
        mode: str,
    ) -> None:
        """Append one point's instrumentation (called by the runner)."""
        params = dict(params)
        seed = params.pop("seed", None)
        self.points.append(
            PointRecord(
                params=params,
                seed=seed if isinstance(seed, int) else None,
                wall_time_s=float(wall_time_s),
                events_processed=int(events_processed),
                cache_hit=bool(cache_hit),
                mode=mode,
            )
        )

    def note(self, message: str) -> None:
        """Record a free-form observation (e.g. a fallback to sequential)."""
        self.notes.append(message)

    def record(self, kind: str, **payload: object) -> dict:
        """Append one typed record to the report's ``records`` array.

        ``payload`` is checked against ``RECORD_KINDS[kind]`` — the same
        bounds :func:`validate_run_report` applies — and a ``ValueError``
        names the record's index, its kind and the offending field.  The
        record is stored as a copy and returned, so a caller can mirror it
        (the service daemon appends it to its snapshot sink).
        """
        entry = copy.deepcopy({"kind": kind, **payload})
        errors: list[str] = []
        _validate_node(entry, _RECORD_SCHEMA, f"$.records[{len(self.records)}]", errors)
        if errors:
            raise ValueError("; ".join(errors))
        self.records.append(entry)
        return entry

    def _count(self, payload: dict) -> int:
        """Records whose kind carries this payload schema."""
        return sum(1 for r in self.records if RECORD_KINDS[r["kind"]] is payload)

    @property
    def cache_hits(self) -> int:
        """Points served from the result cache."""
        return sum(1 for p in self.points if p.cache_hit)

    @property
    def cache_misses(self) -> int:
        """Points that had to be computed."""
        return sum(1 for p in self.points if not p.cache_hit)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of points served from cache (0.0 with no points)."""
        if not self.points:
            return 0.0
        return self.cache_hits / len(self.points)

    @property
    def events_processed(self) -> int:
        """Simulator callbacks executed across all computed points."""
        return sum(p.events_processed for p in self.points)

    @property
    def failed_points(self) -> int:
        """Points that failed terminally (mode ``"failed"``)."""
        return sum(1 for p in self.points if p.mode == "failed")

    def as_report(self) -> dict:
        """The structured run-report (validated by ``RUN_REPORT_SCHEMA``)."""
        from .. import __version__  # deferred: avoids import cycle

        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "experiment": self.experiment,
            "repro_version": __version__,
            "workers": self.workers,
            "totals": {
                "points": len(self.points),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_hit_rate": self.cache_hit_rate,
                "failed_points": self.failed_points,
                "wall_time_s": time.perf_counter() - self._started,
                "point_wall_time_s": sum(p.wall_time_s for p in self.points),
                "events_processed": self.events_processed,
            },
            "points": [p.as_dict() for p in self.points],
            "notes": list(self.notes),
            "records": [dict(r) for r in self.records],
        }

    def write(self, path: Path | str) -> Path:
        """Write :meth:`as_report` as JSON to ``path`` and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_report(), indent=2, default=_json_default) + "\n")
        return path

    def summary_line(self) -> str:
        """One-line human summary for terminal output."""
        totals = self.as_report()["totals"]
        degradations = self._count(_RESILIENCE)
        guard_events = self._count(_GUARD)
        return (
            f"[runner] {self.experiment}: {totals['points']} points, "
            f"{totals['cache_hits']} cache hits, "
            f"{totals['events_processed']} sim events, "
            f"{totals['wall_time_s']:.2f} s"
            + (f", workers={self.workers}" if self.workers else "")
            + (
                f", {totals['failed_points']} FAILED"
                if totals["failed_points"]
                else ""
            )
            + (f", {degradations} degradation(s)" if degradations else "")
            + (f", {guard_events} guard event(s)" if guard_events else "")
        )


def _json_default(value: object) -> object:
    """Last-resort JSON encoding for parameter values (numpy scalars, ...)."""
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return value.item()
        except Exception:  # repro-lint: disable=GRD001 — fall through to repr
            pass
    return repr(value)


#: The run-report contract (a draft-07 JSON-Schema subset).  The canonical
#: on-disk copy lives at docs/run_report.schema.json; a unit test keeps the
#: two in sync so external tooling can rely on the checked-in file.
RUN_REPORT_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro experiment run-report",
    "type": "object",
    "required": [
        "schema_version",
        "experiment",
        "repro_version",
        "workers",
        "totals",
        "points",
        "notes",
        "records",
    ],
    "properties": {
        "schema_version": {"type": "integer", "enum": [REPORT_SCHEMA_VERSION]},
        "experiment": {"type": "string"},
        "repro_version": {"type": "string"},
        "workers": {"type": ["integer", "null"], "minimum": 1},
        "totals": {
            "type": "object",
            "required": [
                "points",
                "cache_hits",
                "cache_misses",
                "cache_hit_rate",
                "wall_time_s",
                "point_wall_time_s",
                "events_processed",
            ],
            "properties": {
                "points": {"type": "integer", "minimum": 0},
                "cache_hits": {"type": "integer", "minimum": 0},
                "cache_misses": {"type": "integer", "minimum": 0},
                "cache_hit_rate": {"type": "number", "minimum": 0},
                "failed_points": {"type": "integer", "minimum": 0},
                # No longer written; reports from earlier versions may carry it.
                "resumed_points": {"type": "integer", "minimum": 0},
                "wall_time_s": {"type": "number", "minimum": 0},
                "point_wall_time_s": {"type": "number", "minimum": 0},
                "events_processed": {"type": "integer", "minimum": 0},
            },
        },
        "points": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "params",
                    "seed",
                    "wall_time_s",
                    "events_processed",
                    "cache_hit",
                    "mode",
                ],
                "properties": {
                    "params": {"type": "object"},
                    "seed": {"type": ["integer", "null"]},
                    "wall_time_s": {"type": "number", "minimum": 0},
                    "events_processed": {"type": "integer", "minimum": 0},
                    "cache_hit": {"type": "boolean"},
                    "mode": {
                        "enum": [
                            "cached",
                            "sequential",
                            "worker",
                            "resumed",  # no longer written, as above
                            "failed",
                        ]
                    },
                },
            },
        },
        "notes": {"type": "array", "items": {"type": "string"}},
        "records": {"type": "array", "items": _RECORD_SCHEMA},
    },
}


def validate_run_report(report: object, schema: Optional[dict] = None) -> list[str]:
    """Check a run-report against the schema; returns human-readable errors.

    Implements the JSON-Schema subset the run-report contract actually uses
    (``type`` — scalar or union list —, ``required``, ``properties``,
    ``items``, ``enum``, ``const``, ``minimum``, ``maximum`` and
    ``allOf`` of ``if``/``then``) so validation needs no third-party
    dependency; every number must also be finite, because JSON has no NaN
    or infinity.  Every error starts with the JSON path it concerns, and an
    error inside a record names its kind: ``$.records[3](recovery).
    strike_time: ...``.  An empty list means the report conforms.  Used by
    ``python -m repro validate-report`` and ``make bench-smoke``.
    """
    if schema is None:
        schema = RUN_REPORT_SCHEMA
    errors: list[str] = []
    _validate_node(report, schema, "$", errors)
    return errors


def _validate_node(value: object, schema: dict, path: str, errors: list[str]) -> None:
    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, list) else [expected]
        if not any(_matches_type(value, t) for t in types):
            errors.append(
                f"{path}: expected type {'/'.join(types)}, got {type(value).__name__}"
            )
            return
    if isinstance(value, float) and not math.isfinite(value):
        errors.append(f"{path}: {value!r} is not a finite number")
        return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} is not one of {schema['enum']!r}")
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: {value!r} is not {schema['const']!r}")
    if isinstance(value, dict):
        for key, sub_schema in schema.get("properties", {}).items():
            if key in value:
                _validate_node(value[key], sub_schema, f"{path}.{key}", errors)
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _validate_node(item, schema["items"], f"{path}[{i}]", errors)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: {value!r} is below the minimum {schema['minimum']!r}")
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(f"{path}: {value!r} is above the maximum {schema['maximum']!r}")
    for rule in schema.get("allOf", []):
        # A record's payload schema applies when the ``if`` matches its
        # ``kind``; errors inside it name that kind.
        probe: list[str] = []
        _validate_node(value, rule["if"], path, probe)
        if not probe:
            kind = rule["if"].get("properties", {}).get("kind", {}).get("const")
            tag = f"({kind})" if kind is not None else ""
            _validate_node(value, rule["then"], f"{path}{tag}", errors)


def _matches_type(value: object, type_name: str) -> bool:
    if type_name == "object":
        return isinstance(value, dict)
    if type_name == "array":
        return isinstance(value, list)
    if type_name == "string":
        return isinstance(value, str)
    if type_name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if type_name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if type_name == "boolean":
        return isinstance(value, bool)
    if type_name == "null":
        return value is None
    return False
