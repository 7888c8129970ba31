"""The service's write-ahead journal: typed JSON lines, delta-coded.

One JSON object per line, appended, flushed and fsynced per commit:

* ``{"kind": "meta", "format": FORMAT, "meta": {...}}`` — always the
  first line.  ``meta`` is the run's identity (a config fingerprint plus
  the epoch parameters) or ``null`` when nothing stamped it; a resuming
  daemon refuses a journal whose fingerprint is not its own.
* ``{"kind": "full", "epoch": k, "state": {...}}`` — the complete
  service state at the end of epoch ``k`` (:data:`STATE_FIELDS`).
* ``{"kind": "delta", "epoch": k, "base": j, "state": {...}}`` — the
  same fields, except that the two logs (``completed``, ``events``) carry
  only ``{"keep": n, "add": [...]}``: the first ``n`` entries of epoch
  ``j``'s log, then the new ones.  ``j`` is the line just before, so a
  dropped, swapped or repeated line breaks the chain.
* ``{"kind": "plain", "epoch": k, "state": {...}}`` — any other state
  dict, written whole as plain JSON.

Every :data:`SNAPSHOT_EVERY`-th service commit is a full line, so a load
replays the last full line plus at most ``SNAPSHOT_EVERY - 1`` deltas.
The per-flow engine columns travel as dtype-tagged base64 bytes and every
other number as a JSON number, so a replay is bit-identical.  Running and
queued jobs are arrival-stream positions, not specs: the stream is a pure
function of the fingerprinted config.  Every line decodes to plain
values: a journal is data, never code.

A line missing its newline is a crash mid-append: the load skips it and
the next append cuts it off.  Any other bad line — not JSON, a wrong
type, a missing or unexpected key, an array of the wrong dtype or length,
a broken delta chain, the ``RunCheckpoint`` blobs older versions wrote —
raises a :class:`JournalError` (a ``ValueError``) naming the file, the
line and the field.

Memory: ``retain`` bounds how many committed states stay in RAM (``None``
keeps them all).  A bounded load decodes only the last full line and its
deltas, and keeps the newest ``retain`` of those states; the file keeps
the full history.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import os
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from .engine import COLUMN_DTYPES

__all__ = [
    "ServiceJournal", "JournalError", "FORMAT", "SNAPSHOT_EVERY", "COUNTERS",
    "STATE_FIELDS",
]

#: The ``format`` of a journal's first line.
FORMAT = "repro.service.journal/2"

#: Every N-th service commit is a full snapshot; the rest are deltas.
SNAPSHOT_EVERY = 32

#: The daemon's counters, in report order.
COUNTERS = ("admitted", "deferred", "shed", "degraded", "departed", "recoveries")


class JournalError(ValueError):
    """A journal that does not decode: names the file, line and field."""

    def __init__(
        self, path: os.PathLike | str, line: Optional[int], field: str, message: str
    ) -> None:
        where = f"field '{field}' " if field else ""
        #: The message without the file: ``line N: field 'F' ...``.
        self.detail = f"line {line}: {where}{message}"
        super().__init__(f"journal {path}: {self.detail}")


class _Bad(Exception):
    """One field failed its check; the caller adds the file and line."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(field, message)
        self.field = field
        self.message = message


def _count(value: Any, field: str) -> int:
    if type(value) is not int or value < 0:
        raise _Bad(field, f"must be a non-negative integer, got {value!r}")
    return value


def _real(value: Any, field: str) -> float:
    if type(value) is not float or not (math.isfinite(value) and value >= 0.0):
        raise _Bad(field, f"must be a finite non-negative float, got {value!r}")
    return value


def _text(value: Any, field: str) -> str:
    if type(value) is not str:
        raise _Bad(field, f"must be a string, got {value!r}")
    return value


def _flag(value: Any, field: str) -> bool:
    if type(value) is not bool:
        raise _Bad(field, f"must be true or false, got {value!r}")
    return value


def _optional(check: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    def optional(value: Any, field: str) -> Any:
        return None if value is None else check(value, field)

    return optional


def _keys(value: Any, field: str, expected) -> dict:
    """``value`` is an object with exactly the ``expected`` keys."""
    if type(value) is not dict:
        raise _Bad(field, f"must be an object, got {value!r}")
    if value.keys() != expected:
        missing = [k for k in expected if k not in value]
        if missing:
            raise _Bad(f"{field}.{missing[0]}", "is missing")
        extra = next(k for k in value if k not in expected)
        raise _Bad(f"{field}.{extra}", "is not a field of this object")
    return value


def _record(fields: dict[str, Callable[[Any, str], Any]]) -> Callable[[Any, str], dict]:
    """A check for an object with exactly ``fields``, each checked."""
    expected = fields.keys()

    def record(value: Any, field: str) -> dict:
        _keys(value, field, expected)
        for name, check in fields.items():
            check(value[name], f"{field}.{name}")
        return value

    return record


def _list(check: Callable[[Any, str], Any]) -> Callable[[Any, str], list]:
    def items(value: Any, field: str) -> list:
        if type(value) is not list:
            raise _Bad(field, f"must be a list, got {value!r}")
        for i, item in enumerate(value):
            check(item, f"{field}[{i}]")
        return value

    return items


def _bounded(bits: int) -> Callable[[Any, str], int]:
    def bounded(value: Any, field: str) -> int:
        if _count(value, field) >= 1 << bits:
            raise _Bad(field, f"must be below 2**{bits}, got {value!r}")
        return value

    return bounded


_PCG64 = _record(
    {
        "bit_generator": _text,
        "state": _record({"state": _bounded(128), "inc": _bounded(128)}),
        "has_uint32": _bounded(1),
        "uinteger": _bounded(32),
    }
)


def _rng(value: Any, field: str) -> dict:
    """A numpy ``PCG64`` bit-generator state."""
    _PCG64(value, field)
    if value["bit_generator"] != "PCG64":
        raise _Bad(f"{field}.bit_generator", f"must be 'PCG64', got {value['bit_generator']!r}")
    return value


def _column(dtype: np.dtype) -> Callable[[Any, str], np.ndarray]:
    def column(value: Any, field: str) -> np.ndarray:
        _keys(value, field, _ARRAY_KEYS)
        if value["dtype"] != dtype.str:
            raise _Bad(f"{field}.dtype", f"must be {dtype.str!r}, got {value['dtype']!r}")
        data = _text(value["data"], f"{field}.data")
        try:
            raw = base64.b64decode(data, validate=True)
        except binascii.Error as error:
            raise _Bad(f"{field}.data", f"is not base64 ({error})") from None
        if len(raw) % dtype.itemsize:
            raise _Bad(
                f"{field}.data",
                f"holds {len(raw)} bytes, not a whole number of {dtype.str} items",
            )
        return np.frombuffer(raw, dtype=dtype)

    return column


def _plain(value: Any, field: str) -> Any:
    """Any JSON value whose numbers are finite."""
    if type(value) is float and not math.isfinite(value):
        raise _Bad(field, f"must be finite, got {value!r}")
    if type(value) is list:
        for i, item in enumerate(value):
            _plain(item, f"{field}[{i}]")
    elif type(value) is dict:
        for key, item in value.items():
            _plain(item, f"{field}.{key}")
    return value


def _indices(value: Any, field: str) -> list:
    _list(_count)(value, field)
    if len(set(value)) != len(value):
        raise _Bad(field, "names one arrival twice")
    return value


_ARRAY_KEYS = frozenset(("dtype", "data"))
_LOG_KEYS = frozenset(("keep", "add"))

#: The service state: every field a full or delta line carries, with its
#: check.  The engine's per-flow columns are arrays of one entry per
#: running job; ``jobs`` and ``pending`` are arrival-stream positions.
STATE_FIELDS: dict[str, Callable[[Any, str], Any]] = {
    "now": _real,
    "rng_state": _rng,
    "jobs": _indices,
    "completed": _list(
        _record(
            {
                "name": _text,
                "arrival_s": _real,
                "departure_s": _real,
                "iterations": _count,
                "mean_iteration_s": _optional(_real),
                "ideal_iteration_s": _real,
                "slo_ok": _optional(_flag),
            }
        )
    ),
    **{name: _column(dtype) for name, dtype in COLUMN_DTYPES.items()},
    "pending": _indices,
    "counters": _record({name: _count for name in COUNTERS}),
    "events": _list(
        _record({"kind": _text, "detail": _text, "job": _optional(_text), "time": _real})
    ),
    "next_arrival": _count,
    "fallback_left": _count,
    "last_factor": _real,
}

_STATE_KEYS = frozenset(STATE_FIELDS)
#: Append-mostly fields a delta codes as ``{"keep", "add"}``.
_LOGS = ("completed", "events")
_LINE_KEYS = {
    "meta": frozenset(("kind", "format", "meta")),
    "full": frozenset(("kind", "epoch", "state")),
    "delta": frozenset(("kind", "epoch", "base", "state")),
    "plain": frozenset(("kind", "epoch", "state")),
}


def _encode(state: dict, base: Optional[dict]) -> dict:
    """A service state as line fields; logs as deltas of ``base``'s."""
    fields = {}
    for name in STATE_FIELDS:
        value = state[name]
        if name in COLUMN_DTYPES:
            value = {
                "dtype": value.dtype.str,
                "data": base64.b64encode(value.tobytes()).decode("ascii"),
            }
        elif base is not None and name in _LOGS:
            prior = base[name]
            keep = len(prior)
            # Identical records compare by identity first, so an
            # append-only log costs one pointer comparison per entry.
            if len(value) < keep or value[:keep] != prior:
                keep = 0
            value = {"keep": keep, "add": value[keep:]}
        fields[name] = value
    return fields


def _decode(fields: Any, base: Optional[dict]) -> dict:
    """Check a full (``base`` None) or delta line's state; returns it."""
    _keys(fields, "state", _STATE_KEYS)
    state = {}
    for name, check in STATE_FIELDS.items():
        field = f"state.{name}"
        value = fields[name]
        if base is not None and name in _LOGS:
            _keys(value, field, _LOG_KEYS)
            keep = _count(value["keep"], f"{field}.keep")
            prior = base[name]
            if keep > len(prior):
                raise _Bad(
                    f"{field}.keep",
                    f"keeps {keep} entries of a base log of {len(prior)}",
                )
            value = prior[:keep] + check(value["add"], f"{field}.add")
        else:
            value = check(value, field)
        state[name] = value
    running = len(state["jobs"])
    for name in COLUMN_DTYPES:
        if len(state[name]) != running:
            raise _Bad(
                f"state.{name}",
                f"has {len(state[name])} entries for {running} running jobs",
            )
    if set(state["jobs"]) & set(state["pending"]):
        raise _Bad("state.pending", "names a job that is also running")
    return state


class ServiceJournal:
    """The daemon's ordered epoch journal (module docstring: the format).

    ``retain`` bounds how many committed epoch *states* stay in memory
    (``None`` keeps them all — the mode for analysis of a finished
    journal).  A long-lived daemon should pass a small bound: recovery
    needs only the latest committed epoch.
    """

    def __init__(
        self, path: os.PathLike | str, *, retain: Optional[int] = None
    ) -> None:
        if retain is not None and retain < 1:
            raise ValueError(f"retain must be >= 1 or None, got {retain!r}")
        self.path = Path(path)
        self.retain = retain
        #: Epoch lines in the file, whether or not their states are held.
        self.commits = 0
        #: Whether the load skipped a last line cut short mid-append.
        self.torn_tail = False
        self._meta: Optional[dict] = None
        self._meta_line: Optional[int] = None
        self._states: dict[int, dict] = {}
        self._lines: dict[int, int] = {}
        # The last epoch line: its epoch, decoded state and kind, and the
        # service commits since the last full line (the delta cadence).
        self._last: Optional[tuple[int, dict, str]] = None
        self._deltas = 0
        self._line_count = 0
        # File bytes up to the end of the last good line; anything past
        # it (a torn append) is cut off before the next append.
        self._size = 0
        self._load()

    # ----------------------------------------------------------------- load

    def _fail(self, line: int, field: str, message: str) -> JournalError:
        return JournalError(self.path, line, field, message)

    def _load(self) -> None:
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return
        segment: list[tuple[int, dict]] = []
        previous: Optional[tuple[int, str]] = None
        with handle:
            for number, raw in enumerate(handle, start=1):
                if not raw.endswith(b"\n"):
                    self.torn_tail = True
                    break
                record = self._header(number, raw, previous)
                self._size += len(raw)
                self._line_count = number
                if record["kind"] == "meta":
                    self._meta, self._meta_line = record["meta"], number
                    continue
                previous = (record["epoch"], record["kind"])
                self.commits += 1
                if record["kind"] != "delta":
                    if self.retain is None:
                        self._replay(segment)
                    segment = []
                segment.append((number, record))
        self._replay(segment)

    def _header(
        self, number: int, raw: bytes, previous: Optional[tuple[int, str]]
    ) -> dict:
        """Parse one line and check everything but its state; ``previous``
        is the epoch and kind of the last epoch line before it."""
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as error:
            raise self._fail(
                number, "", f"is not valid JSON ({error.msg} at byte {error.pos})"
            ) from None
        except ValueError as error:  # bytes that are not text
            raise self._fail(number, "", f"is not valid JSON ({error})") from None
        if type(record) is not dict:
            raise self._fail(number, "", "is not a JSON object")
        if number == 1 and "blob" in record:
            raise self._fail(
                number, "blob",
                "holds a RunCheckpoint blob: this journal is in the old "
                f"RunCheckpoint format, and only {FORMAT!r} is read",
            )
        try:
            kind = record.get("kind")
            if type(kind) is not str or kind not in _LINE_KEYS:
                raise _Bad("kind", f"must be one of {sorted(_LINE_KEYS)}, got {kind!r}")
            if number == 1 and kind != "meta":
                raise _Bad("kind", f"is {kind!r}, but a journal's first line is its meta")
            if number > 1 and kind == "meta":
                raise _Bad("kind", "is 'meta' past the first line")
            _keys(record, "line", _LINE_KEYS[kind])
            if kind == "meta":
                if record["format"] != FORMAT:
                    raise _Bad("format", f"must be {FORMAT!r}, got {record['format']!r}")
                meta = record["meta"]
                if meta is not None and type(meta) is not dict:
                    raise _Bad("meta", f"must be an object or null, got {meta!r}")
                _plain(meta, "meta")
                return record
            _count(record["epoch"], "epoch")
            if kind == "delta":
                base = _count(record["base"], "base")
                if previous is None or previous[1] == "plain":
                    raise _Bad("base", "has no full snapshot before it")
                if base != previous[0]:
                    raise _Bad(
                        "base",
                        f"is epoch {base}, but the line before holds epoch {previous[0]}",
                    )
        except _Bad as bad:
            raise self._fail(number, bad.field, bad.message) from None
        return record

    def _replay(self, segment: list[tuple[int, dict]]) -> None:
        """Decode one full line and its deltas into retained states."""
        for number, record in segment:
            epoch, kind = record["epoch"], record["kind"]
            try:
                if kind == "plain":
                    if type(record["state"]) is not dict:
                        raise _Bad("state", f"must be an object, got {record['state']!r}")
                    state = _plain(record["state"], "state")
                else:
                    base = self._last[1] if kind == "delta" and self._last else None
                    state = _decode(record["state"], base)
            except _Bad as bad:
                raise self._fail(number, bad.field, bad.message) from None
            self._keep(epoch, state, kind, number)
        self._deltas = sum(1 for _, record in segment if record["kind"] == "delta")

    # --------------------------------------------------------------- append

    def _append(self, records: list[dict]) -> bool:
        """Append whole lines, flushed and fsynced; False on an OSError.
        The first line of a journal is always its meta line."""
        if not self._line_count and records[0]["kind"] != "meta":
            records = [{"kind": "meta", "format": FORMAT, "meta": None}, *records]
        payload = "".join(
            json.dumps(r, separators=(",", ":"), allow_nan=False) + "\n" for r in records
        ).encode("ascii")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "ab") as handle:
                if handle.tell() > self._size:
                    os.ftruncate(handle.fileno(), self._size)
                    handle.seek(self._size)
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            return False
        self._size += len(payload)
        self._line_count += len(records)
        return True

    def write_meta(self, meta: dict) -> bool:
        """Stamp the run's identity; returns whether it hit the disk.

        Only a journal with no lines yet can take it: the meta line is
        always the first.
        """
        if self._line_count:
            raise ValueError(f"journal {self.path} already has its meta line")
        meta = dict(meta)
        persisted = self._append([{"kind": "meta", "format": FORMAT, "meta": meta}])
        if persisted:
            self._meta, self._meta_line = meta, 1
        return persisted

    def meta(self) -> Optional[dict]:
        """The run identity, or None for a fresh (or unstamped) journal."""
        return dict(self._meta) if self._meta is not None else None

    @property
    def meta_line(self) -> Optional[int]:
        """The file line holding the meta, or None before it is written."""
        return self._meta_line

    def commit_epoch(self, epoch: int, state: dict) -> bool:
        """Append one completed epoch's state (the WAL commit point).

        A service state is a delta of the previous commit, or a full
        snapshot every :data:`SNAPSHOT_EVERY` commits; any other dict is
        written whole.  Returns whether the line reached the disk; a state
        that did not is not kept.
        """
        if epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {epoch!r}")
        if state.keys() != _STATE_KEYS:
            record = {"kind": "plain", "epoch": epoch, "state": state}
        elif (
            self._last is not None
            and self._last[2] != "plain"
            and self._deltas < SNAPSHOT_EVERY - 1
        ):
            record = {
                "kind": "delta",
                "epoch": epoch,
                "base": self._last[0],
                "state": _encode(state, self._last[1]),
            }
        else:
            record = {"kind": "full", "epoch": epoch, "state": _encode(state, None)}
        if not self._append([record]):
            return False
        self.commits += 1
        self._deltas = self._deltas + 1 if record["kind"] == "delta" else 0
        self._keep(epoch, state, record["kind"], self._line_count)
        return True

    def _keep(self, epoch: int, state: dict, kind: str, line: int) -> None:
        self._last = (epoch, state, kind)
        self._states[epoch] = state
        self._lines[epoch] = line
        if self.retain is not None and len(self._states) > self.retain:
            for old in sorted(self._states)[: -self.retain]:
                del self._states[old], self._lines[old]

    # ---------------------------------------------------------------- reads

    def epochs(self) -> list[int]:
        """Committed epoch numbers held in memory, ascending (all of them
        unless ``retain`` bounds them)."""
        return sorted(self._states)

    def latest_epoch(self) -> Optional[int]:
        """The highest committed epoch held, or None before the first."""
        return max(self._states) if self._states else None

    def epoch_state(self, epoch: int) -> dict:
        """The journaled state of one committed epoch."""
        if epoch not in self._states:
            raise KeyError(f"epoch {epoch} is not in the journal")
        return self._states[epoch]

    def line_of(self, epoch: int) -> int:
        """The file line that committed ``epoch`` (for error messages)."""
        return self._lines[epoch]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ServiceJournal {self.path} ({self.commits} commits)>"
