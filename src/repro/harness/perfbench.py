"""Performance-baseline bookkeeping for the microbenchmark suite.

The fast-path work in docs/PERFORMANCE.md is only worth keeping if it stays
kept: this module turns pytest-benchmark output into small, committable
baseline files and compares runs against them, so ``repro bench-compare``
(and ``make bench-perf`` / ``make bench-perf-smoke``) can gate regressions
with the shared :mod:`repro.cliutil` exit-code contract.

Two on-disk formats are understood by :func:`load_report`:

* the **raw** JSON pytest-benchmark writes via ``--benchmark-json`` (a
  ``"benchmarks"`` *list*, one entry per test, with a ``"stats"`` block);
* the **compact** baseline format written by :func:`write_baseline` (a
  ``"benchmarks"`` *mapping* of test name to min/mean/rounds), which is what
  gets committed under ``bench_reports/`` — raw reports embed machine info
  and per-round samples that would churn every commit.

Comparison semantics: per benchmark, ``speedup = baseline_min /
current_min`` (>1 means the current tree is faster).  A benchmark regresses
when its minimum is more than ``threshold`` slower than baseline
(``current_min > baseline_min * (1 + threshold)``); minimums are compared —
not means — because the minimum is the least noisy location statistic a
benchmark has.  Benchmarks present in the baseline but absent from the
current report are also treated as violations: a silently vanished
benchmark must not pass the gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional

__all__ = [
    "DEFAULT_REGRESSION_THRESHOLD",
    "BenchStat",
    "ComparisonRow",
    "Comparison",
    "load_report",
    "write_baseline",
    "compare",
]

#: A benchmark may be up to this much slower than baseline before the gate
#: fails (ISSUE 4: "fails on >15% regressions").
DEFAULT_REGRESSION_THRESHOLD = 0.15


@dataclass(frozen=True)
class BenchStat:
    """One benchmark's summary statistics."""

    name: str
    min_seconds: float
    mean_seconds: float
    rounds: int

    def __post_init__(self) -> None:
        if self.min_seconds <= 0 or self.mean_seconds <= 0:
            raise ValueError(
                f"{self.name}: timings must be positive, got "
                f"min={self.min_seconds!r} mean={self.mean_seconds!r}"
            )
        if self.rounds < 1:
            raise ValueError(f"{self.name}: rounds must be positive, got {self.rounds!r}")


@dataclass(frozen=True)
class ComparisonRow:
    """One benchmark's current-vs-baseline verdict."""

    name: str
    baseline_min: float
    current_min: float
    threshold: float

    @property
    def speedup(self) -> float:
        """How much faster the current tree is (>1 is an improvement)."""
        return self.baseline_min / self.current_min

    @property
    def regressed(self) -> bool:
        """Whether the current minimum breaches the regression threshold."""
        return self.current_min > self.baseline_min * (1.0 + self.threshold)


@dataclass(frozen=True)
class Comparison:
    """Everything ``repro bench-compare`` needs to report and gate."""

    rows: tuple[ComparisonRow, ...]
    #: Benchmarks in the baseline with no counterpart in the current report.
    missing: tuple[str, ...]

    @property
    def regressions(self) -> tuple[ComparisonRow, ...]:
        """Rows that breached the threshold."""
        return tuple(row for row in self.rows if row.regressed)

    @property
    def ok(self) -> bool:
        """True when nothing regressed and nothing vanished."""
        return not self.regressions and not self.missing


def load_report(path: str | Path) -> dict[str, BenchStat]:
    """Benchmark stats from ``path``, raw pytest-benchmark or compact.

    Raises ``OSError`` when the file cannot be read and ``ValueError`` when
    it parses but matches neither format.
    """
    data = json.loads(Path(path).read_text())
    benchmarks = data.get("benchmarks") if isinstance(data, dict) else None
    stats: dict[str, BenchStat] = {}
    if isinstance(benchmarks, list):  # raw pytest-benchmark --benchmark-json
        for entry in benchmarks:
            name = entry["name"]
            block = entry["stats"]
            stats[name] = BenchStat(
                name=name,
                min_seconds=float(block["min"]),
                mean_seconds=float(block["mean"]),
                rounds=int(block["rounds"]),
            )
        return stats
    if isinstance(benchmarks, dict):  # compact committed baseline
        for name, block in benchmarks.items():
            stats[name] = BenchStat(
                name=name,
                min_seconds=float(block["min_seconds"]),
                mean_seconds=float(block["mean_seconds"]),
                rounds=int(block["rounds"]),
            )
        return stats
    raise ValueError(
        f"{path}: not a benchmark report (expected a 'benchmarks' list or mapping)"
    )


def write_baseline(
    path: str | Path,
    stats: Mapping[str, BenchStat],
    note: Optional[str] = None,
) -> Path:
    """Write ``stats`` as a compact committable baseline; returns the path."""
    if not stats:
        raise ValueError("refusing to write an empty baseline")
    payload: dict[str, Any] = {
        "schema": "repro-perf-baseline/1",
        "benchmarks": {
            name: {
                "min_seconds": stat.min_seconds,
                "mean_seconds": stat.mean_seconds,
                "rounds": stat.rounds,
            }
            for name, stat in sorted(stats.items())
        },
    }
    if note:
        payload["note"] = note
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target


def compare(
    current: Mapping[str, BenchStat],
    baseline: Mapping[str, BenchStat],
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> Comparison:
    """Compare ``current`` stats against ``baseline`` (see module docstring).

    Benchmarks only present in ``current`` are ignored — adding a benchmark
    must not fail the gate against an older baseline.
    """
    if not threshold >= 0:  # also rejects NaN, which would pass every row
        raise ValueError(f"threshold must be non-negative, got {threshold!r}")
    rows = []
    missing = []
    for name, base in baseline.items():
        stat = current.get(name)
        if stat is None:
            missing.append(name)
            continue
        rows.append(
            ComparisonRow(
                name=name,
                baseline_min=base.min_seconds,
                current_min=stat.min_seconds,
                threshold=threshold,
            )
        )
    return Comparison(rows=tuple(rows), missing=tuple(missing))
