"""Plain-text rendering of experiment results (tables and series).

Final stage of the harness pipeline: benchmarks and examples print through
these helpers so every figure's regenerated rows/series look uniform in
terminal output and in the ``bench_reports/<name>.txt`` files the benchmark
suite writes (the machine-readable counterpart is the JSON run-report from
:mod:`repro.harness.telemetry`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "render_table",
    "render_series",
    "sparkline",
    "format_seconds",
    "render_guard_summary",
]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def format_seconds(value: float) -> str:
    """Human-scaled seconds (ms below 1 s)."""
    if value < 1.0:
        return f"{value * 1000:.1f} ms"
    return f"{value:.3f} s"


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width ASCII table."""
    if not headers:
        raise ValueError("need at least one header")
    string_rows = [[_cell(value) for value in row] for row in rows]
    for i, row in enumerate(string_rows):
        if len(row) != len(headers):
            raise ValueError(
                f"row {i} has {len(row)} cells, expected {len(headers)}"
            )
    widths = [
        max(len(header), *(len(row[i]) for row in string_rows)) if string_rows else len(header)
        for i, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in string_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    name: str, values: Sequence[float], width: int = 60, unit: str = ""
) -> str:
    """One labelled sparkline row with min/max annotations."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return f"{name}: (empty)"
    suffix = f" {unit}" if unit else ""
    return (
        f"{name}: {sparkline(arr, width=width)}  "
        f"[min {arr.min():.3f}, max {arr.max():.3f}{suffix}]"
    )


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Unicode sparkline, resampled to ``width`` points."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return ""
    if arr.size > width:
        # Average-pool down to the target width.
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.array([arr[a:b].mean() for a, b in zip(edges, edges[1:]) if b > a])
    lo, hi = float(arr.min()), float(arr.max())
    if hi - lo < 1e-12:
        return _SPARK_CHARS[0] * arr.size
    scaled = (arr - lo) / (hi - lo) * (len(_SPARK_CHARS) - 1)
    return "".join(_SPARK_CHARS[int(round(s))] for s in scaled)


def render_guard_summary(records: Sequence[dict]) -> str:
    """Human-readable summary of a run-report's guardrail records.

    Accepts the report's ``records`` array (see
    ``docs/run_report.schema.json``) and summarizes its ``violation``,
    ``degradation`` and ``watchdog`` records; other kinds are ignored.
    Used by ``python -m repro guards`` (docs/ROBUSTNESS.md).
    """
    by_kind: dict[str, list[dict]] = {"violation": [], "degradation": [], "watchdog": []}
    for record in records:
        if record["kind"] in by_kind:
            by_kind[record["kind"]].append(record)
    lines = [
        "guards: "
        f"{len(by_kind['violation'])} violation(s), "
        f"{len(by_kind['degradation'])} degradation episode(s), "
        f"{len(by_kind['watchdog'])} watchdog fire(s)"
    ]
    for label, events in by_kind.items():
        for event in events:
            guard = event.get("guard")
            subject = event.get("subject")
            time = event.get("time")
            prefix = f"  [{label}]"
            if guard:
                prefix += f" {guard}"
            if subject:
                prefix += f" {subject}"
            if time is not None:
                prefix += f" t={time:.6g}"
            lines.append(f"{prefix}: {event['detail']}")
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)
