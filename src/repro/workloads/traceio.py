"""Persistence for experiment scenarios.

A JSON round-trip for :class:`~repro.workloads.job.JobSpec` scenarios, so a
run is reproducible from its artifacts alone; ``repro compat`` reads its job
mixes through :func:`load_scenario`.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from .job import JobSpec

__all__ = [
    "save_scenario",
    "load_scenario",
]


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
