"""Persistence for experiment artifacts: demand traces and iteration logs.

Downstream analysis (plotting, statistics outside this library) wants flat
files.  These helpers write/read the two artifact kinds the figures are
built from — time-series demand traces (Figure 1) and per-iteration records
(Figures 2/3/4/6) — as CSV, plus a JSON round-trip for
:class:`~repro.workloads.job.JobSpec` scenarios so a run is reproducible
from its artifacts alone.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .job import IterationResult, JobSpec, _IterationLog

__all__ = [
    "save_demand_trace",
    "load_demand_trace",
    "save_iterations",
    "load_iterations",
    "save_scenario",
    "load_scenario",
]


def save_demand_trace(
    path: str | Path, times: Sequence[float], demand_gbps: Sequence[float]
) -> None:
    """Write a (time, demand) series as two-column CSV."""
    times = np.asarray(times, dtype=float)
    demand = np.asarray(demand_gbps, dtype=float)
    if times.shape != demand.shape:
        raise ValueError(
            f"times and demand must align, got {times.shape} vs {demand.shape}"
        )
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "demand_gbps"])
        for t, d in zip(times, demand):
            writer.writerow([f"{t:.9g}", f"{d:.9g}"])


def load_demand_trace(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a demand trace written by :func:`save_demand_trace`."""
    times, demand = [], []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != ["time_s", "demand_gbps"]:
            raise ValueError(
                f"{path}: not a demand trace (header {reader.fieldnames})"
            )
        for row in reader:
            times.append(float(row["time_s"]))
            demand.append(float(row["demand_gbps"]))
    return np.array(times), np.array(demand)


def save_iterations(path: str | Path, result: _IterationLog) -> None:
    """Write a run's iteration records (fluid or packet) as CSV."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["job", "index", "comm_start_s", "comm_end_s", "iteration_end_s"]
        )
        for it in result.iterations:
            writer.writerow(
                [
                    it.job,
                    it.index,
                    f"{it.comm_start:.9g}",
                    f"{it.comm_end:.9g}",
                    f"{it.iteration_end:.9g}",
                ]
            )


def load_iterations(path: str | Path) -> list[IterationResult]:
    """Read iteration records written by :func:`save_iterations`."""
    records = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        expected = ["job", "index", "comm_start_s", "comm_end_s", "iteration_end_s"]
        if reader.fieldnames != expected:
            raise ValueError(
                f"{path}: not an iteration log (header {reader.fieldnames})"
            )
        for row in reader:
            records.append(
                IterationResult(
                    job=row["job"],
                    index=int(row["index"]),
                    comm_start=float(row["comm_start_s"]),
                    comm_end=float(row["comm_end_s"]),
                    iteration_end=float(row["iteration_end_s"]),
                )
            )
    return records


def save_scenario(path: str | Path, jobs: Sequence[JobSpec]) -> None:
    """Write a job mix as JSON (exact field round-trip)."""
    payload = {"jobs": [asdict(job) for job in jobs]}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_scenario(path: str | Path) -> list[JobSpec]:
    """Read a job mix written by :func:`save_scenario`.

    A malformed file raises ``ValueError`` naming the bad entry and field;
    an empty ``jobs`` list names ``jobs``.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or not isinstance(payload.get("jobs"), list):
        raise ValueError("not a scenario file")
    if not payload["jobs"]:
        raise ValueError("jobs: a scenario needs at least one job")
    jobs = []
    for index, entry in enumerate(payload["jobs"]):
        try:
            jobs.append(JobSpec(**entry))
        except (TypeError, ValueError) as error:  # missing, unknown or bad field
            raise ValueError(f"jobs[{index}]: {error}") from None
    return jobs
