"""Checkpointed sweeps: an append-only journal of completed points.

Role in the pipeline: the experiment runner (:mod:`repro.harness.runner`)
appends every *successfully* computed point result to a
:class:`RunCheckpoint` as it finishes; a later run handed the same
checkpoint file skips those points entirely (mode ``"resumed"`` in the
run-report) and recomputes only the points that failed, timed out, or were
never reached.  That is what ``--resume`` on the CLI's ``faults`` command
does — a sweep interrupted by a crash or a ⌃C loses only its in-flight
points.

The checkpoint differs from :class:`repro.harness.cache.ResultCache` in
scope and lifetime: the cache is a long-lived, content-addressed store
shared across experiments; a checkpoint belongs to *one* logical sweep and
is deleted (or simply not passed) to start fresh.  Keys are the same
:func:`~repro.harness.cache.point_key` digests, so a checkpointed point is
resumed bit-identically.

Format: JSON Lines, one ``{"key": <digest>, "blob": <base64 pickle>}``
object per line, flushed per point.  A last line without its newline (the
crash that motivated the resume) is skipped on load and cut off by the next
:meth:`RunCheckpoint.put`; later entries for the same key win, so re-running
a point simply supersedes it.  Blobs are read by
:func:`~repro.harness.cache.load_result`, so a line naming any global but a
``repro`` dataclass or enum, a numpy array or scalar, or a builtin container
counts as corrupt instead of running.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from pathlib import Path
from typing import Optional, Tuple

from .cache import load_result

__all__ = ["RunCheckpoint"]


class RunCheckpoint:
    """Append-only journal of ``point_key -> result`` for one sweep."""

    def __init__(self, path: os.PathLike | str) -> None:
        self.path = Path(path)
        self._entries: dict[str, object] = {}
        self.corrupt_lines = 0
        # Where a last line cut short mid-append begins; the next put cuts
        # the file back to it before appending.
        self._torn_at: Optional[int] = None
        self._load()

    def _load(self) -> None:
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return
        start = 0
        with handle:
            for raw in handle:
                if not raw.endswith(b"\n"):
                    self._torn_at = start
                    self.corrupt_lines += 1
                    break
                start += len(raw)
                if not raw.strip():
                    continue
                try:
                    record = json.loads(raw)
                    value = load_result(base64.b64decode(record["blob"]))
                    self._entries[record["key"]] = value
                except Exception:
                    # A damaged or foreign line: that point is recomputed.
                    self.corrupt_lines += 1

    def get(self, key: str) -> Tuple[bool, object]:
        """Look up ``key``; returns ``(hit, value)``."""
        if key in self._entries:
            return True, self._entries[key]
        return False, None

    def put(self, key: str, value: object) -> bool:
        """Journal one completed point; returns whether it was persisted.

        Unpicklable results are kept in memory for this run but cannot be
        resumed from disk later (same silent-skip contract as the cache).
        """
        self._entries[key] = value
        try:
            blob = base64.b64encode(pickle.dumps(value)).decode("ascii")
        except Exception:
            return False
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a") as handle:
                if self._torn_at is not None:
                    os.ftruncate(handle.fileno(), self._torn_at)
                    self._torn_at = None
                handle.write(json.dumps({"key": key, "blob": blob}) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            return False
        return True

    def keys(self) -> tuple[str, ...]:
        """All journaled keys, sorted."""
        return tuple(sorted(self._entries))

    def clear(self) -> None:
        """Forget every journaled point and delete the file (fresh sweep)."""
        self._entries.clear()
        self._torn_at = None
        try:
            self.path.unlink()
        except OSError:
            pass

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RunCheckpoint {self.path} ({len(self)} points)>"
