"""Content-addressed result cache for experiment points.

Role in the pipeline: the experiment runner (:mod:`repro.harness.runner`)
asks this module for a stable key per (experiment name, parameters, seed,
package version) and stores each point's result under it, so re-running the
benchmark suite or a parameter sweep only recomputes points whose inputs
actually changed.  The packet-level simulator is 100-1000x slower than the
fluid model (docs/SIMULATORS.md), so skipping unchanged packet points is
where most wall-clock is saved.

Entries are written as ``<digest[:2]>/<digest>.pkl`` under the cache
directory: a small magic header, a SHA-256 checksum of the payload, then the
pickled result.  A corrupted or truncated entry fails the checksum (or the
unpickle) and is silently discarded and recomputed — never fatal.  The
checksum catches damage, not forgery, so entries are read by
:func:`load_result`, which admits only the globals a result can name.

The cache is also how an interrupted sweep resumes: each finished point is
written (and fsynced) as it completes and failures never are, so re-running
the same sweep recomputes only the points that failed or never ran.
Cache-key semantics and invalidation are documented in docs/HARNESS.md.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import importlib
import io
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Mapping, Optional, Tuple

__all__ = ["ResultCache", "point_key", "default_cache_dir", "load_result"]

#: Bump to invalidate every previously written entry (format change).
CACHE_FORMAT_VERSION = 1

#: File header guarding against reading arbitrary files as cache entries.
_MAGIC = b"repro-cache-v1\n"

#: Environment variable overriding the default cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """Resolve where cache entries live when no directory is given.

    Precedence: ``$REPRO_CACHE_DIR``, then ``$XDG_CACHE_HOME/repro``, then
    ``~/.cache/repro``.  The benchmark suite overrides this with a
    repository-local directory (see ``benchmarks/_common.py``).
    """
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


#: Globals a result may name besides ``repro`` dataclasses and enums:
#: numpy's array, dtype and scalar reconstructors (``numpy._core`` in numpy
#: 2, ``numpy.core`` before; ``_frombuffer`` at pickle protocol 5) and the
#: builtin types that have no pickle opcode of their own.
_RESULT_GLOBALS = frozenset({
    ("numpy", "ndarray"),
    ("numpy", "dtype"),
    ("numpy._core.multiarray", "_reconstruct"),
    ("numpy._core.multiarray", "scalar"),
    ("numpy._core.numeric", "_frombuffer"),
    ("numpy.core.multiarray", "_reconstruct"),
    ("numpy.core.multiarray", "scalar"),
    ("numpy.core.numeric", "_frombuffer"),
    ("builtins", "set"),
    ("builtins", "frozenset"),
    ("builtins", "complex"),
})


def _repro_type(module: str, name: str) -> Optional[type]:
    """The dataclass or enum ``module.name`` defined in a ``repro`` module,
    or None.  ``repro.__main__`` is never imported: importing it runs the CLI."""
    parts = module.split(".")
    if parts[0] != "repro" or "__main__" in parts:
        return None
    try:
        found: object = importlib.import_module(module)
        for attribute in name.split("."):
            found = getattr(found, attribute)
    except (ImportError, AttributeError):
        return None
    if not isinstance(found, type) or found.__module__.split(".")[0] != "repro":
        return None
    if dataclasses.is_dataclass(found) or issubclass(found, enum.Enum):
        return found
    return None


class _ResultUnpickler(pickle.Unpickler):
    """An unpickler that resolves only :data:`_RESULT_GLOBALS` and ``repro``
    dataclasses and enums, so a forged payload cannot call foreign code."""

    def find_class(self, module: str, name: str) -> object:
        if (module, name) in _RESULT_GLOBALS:
            return super().find_class(module, name)
        found = _repro_type(module, name)
        if found is None:
            raise pickle.UnpicklingError(
                f"global '{module}.{name}' is not a result type"
            )
        return found


def load_result(payload: bytes) -> object:
    """Unpickle one stored result; any other global raises
    :class:`pickle.UnpicklingError`."""
    return _ResultUnpickler(io.BytesIO(payload)).load()


def _canonical(value: object) -> object:
    """Reduce a parameter value to a JSON-stable form for hashing.

    Mappings are key-sorted, sequences become lists, numpy scalars collapse
    to their Python equivalents, and anything else falls back to ``repr``
    (stable for the dataclasses used as experiment parameters).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(k): _canonical(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    # numpy scalars expose item(); arrays expose tolist().
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "shape", None) == ():
        return _canonical(value.item())
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return _canonical(value.tolist())
    return repr(value)


def point_key(
    experiment: str,
    params: Mapping[str, object],
    seed: Optional[int] = None,
    version: Optional[str] = None,
) -> str:
    """Stable SHA-256 key of one experiment point.

    The key covers the experiment name, the (order-insensitive) parameter
    mapping, the seed, and the ``repro`` package version — so a version bump
    invalidates every cached result, and two sweeps sharing a cache directory
    never collide unless they are genuinely the same computation.
    """
    if version is None:
        from .. import __version__ as version  # deferred: avoids import cycle
    payload = json.dumps(
        {
            "cache_format": CACHE_FORMAT_VERSION,
            "experiment": experiment,
            "params": _canonical(params),
            "seed": _canonical(seed),
            "version": version,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory-backed store of pickled experiment results, keyed by hash.

    Role in the pipeline: handed to :class:`repro.harness.runner.\
ExperimentRunner` to make repeated sweeps incremental.  All operations are
    best-effort: a missing directory, unreadable entry, or unpicklable value
    degrades to a cache miss / no-op rather than an error.
    """

    def __init__(self, directory: Optional[os.PathLike | str] = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Tuple[bool, object]:
        """Look up ``key``; returns ``(hit, value)``.

        A corrupted entry (bad magic, checksum mismatch, unpicklable body, or
        a body naming a global :func:`load_result` refuses) is deleted and
        reported as a miss, so a damaged cache heals itself on the next run
        instead of poisoning results or crashing the sweep.
        """
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return False, None
        try:
            if not blob.startswith(_MAGIC):
                raise ValueError("bad magic header")
            digest_end = len(_MAGIC) + 32
            checksum, payload = blob[len(_MAGIC):digest_end], blob[digest_end:]
            if hashlib.sha256(payload).digest() != checksum:
                raise ValueError("checksum mismatch")
            return True, load_result(payload)
        except Exception:
            # Corrupt entry: discard (best-effort) and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            return False, None

    def put(self, key: str, value: object) -> bool:
        """Store ``value`` under ``key``; returns whether it was written.

        Unpicklable values (e.g. results holding open simulators) are
        skipped silently — the sweep still returns them, they just will not
        be cache hits next time.  Writes are atomic (temp file + rename)
        and the temp file is fsynced before the rename, so a crashed run or
        host never leaves a truncated entry behind.
        """
        try:
            payload = pickle.dumps(value)
        except Exception:
            return False
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(_MAGIC)
                    handle.write(hashlib.sha256(payload).digest())
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    def clear(self) -> int:
        """Delete every entry; returns how many were removed (invalidation)."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        for entry in self.directory.glob("??/*.pkl"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        """Number of entries currently stored (for tests and reports)."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("??/*.pkl"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ResultCache {self.directory} ({len(self)} entries)>"
