"""Multi-seed experiment repetition with summary statistics.

Single-seed simulation results can hinge on noise realizations (the §5
fairness experiments especially).  :func:`repeat_with_seeds` runs a
seed-parameterized experiment several times and reports mean, std and a
normal-approximation confidence interval; :func:`sweep` crosses that with a
parameter grid.

Both delegate point execution to
:class:`repro.harness.runner.ExperimentRunner`, so they accept the same
opt-in ``workers`` (process-pool parallelism — results stay bit-identical
to the sequential path because every point is an independent seeded
computation), ``cache`` (skip unchanged points across runs) and
``telemetry`` (per-point wall time / event counts in a JSON run-report)
arguments.  All three default to off; see docs/HARNESS.md.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .cache import ResultCache
from .runner import ExperimentRunner
from .telemetry import RunTelemetry

__all__ = ["SeedSummary", "repeat_with_seeds", "sweep"]

#: z-value for a 95% two-sided normal confidence interval.
_Z95 = 1.96


@dataclass(frozen=True)
class SeedSummary:
    """Aggregate of one scalar metric across seeds.

    This is the unit every sweep row carries: the per-seed values plus
    their mean, sample std and normal-approximation confidence interval.
    """

    values: tuple[float, ...]
    mean: float
    std: float
    ci95_halfwidth: float

    @property
    def n(self) -> int:
        """Number of seeds aggregated."""
        return len(self.values)

    @property
    def ci95(self) -> tuple[float, float]:
        """95% confidence interval for the mean (normal approximation)."""
        return (self.mean - self.ci95_halfwidth, self.mean + self.ci95_halfwidth)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.4g} ± {self.ci95_halfwidth:.2g} (n={self.n})"


class _PositionalSeedCall:
    """Adapter calling ``experiment(seed)`` positionally from point kwargs.

    Top-level (hence picklable whenever the wrapped experiment is), so
    :func:`repeat_with_seeds` keeps its documented ``experiment(seed)``
    calling convention — the seed parameter may be named anything — while
    the runner uniformly invokes points as keyword dictionaries.
    """

    def __init__(self, experiment: Callable[[int], float]) -> None:
        self.experiment = experiment

    def __call__(self, seed: int) -> float:
        return self.experiment(seed)


def _validate_seeds(seeds: Sequence[int]) -> list[int]:
    """Reject empty/invalid seed sequences with an actionable message."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError(
            "seeds must contain at least one seed (e.g. seeds=[0]); "
            "got an empty sequence"
        )
    return seeds


def _validate_grid(grid: Mapping[str, Sequence]) -> None:
    """Reject empty grids, empty value lists and scalar/string values."""
    if not grid:
        raise ValueError(
            "grid must name at least one parameter, e.g. grid={'alpha': [0.5]}"
        )
    for name, values in grid.items():
        if isinstance(values, str):
            raise ValueError(
                f"grid[{name!r}] is the string {values!r}; wrap the values in "
                "a list (a bare string would sweep over its characters)"
            )
        try:
            count = len(values)
        except TypeError:
            raise ValueError(
                f"grid[{name!r}] must be a sequence of values to sweep, got "
                f"{type(values).__name__}"
            ) from None
        if count == 0:
            raise ValueError(
                f"grid[{name!r}] is empty; every swept parameter needs at "
                "least one value"
            )


def _summarize(values: Sequence[object], seeds: Sequence[int]) -> SeedSummary:
    """Fold per-seed scalars into a :class:`SeedSummary` (NaN is an error)."""
    floats = []
    for seed, value in zip(seeds, values):
        value = float(value)  # type: ignore[arg-type]
        if math.isnan(value):
            raise ValueError(f"experiment returned NaN for seed {seed}")
        floats.append(value)
    arr = np.array(floats)
    std = float(arr.std(ddof=1)) if len(floats) > 1 else 0.0
    halfwidth = _Z95 * std / math.sqrt(len(floats)) if len(floats) > 1 else 0.0
    return SeedSummary(
        values=tuple(floats),
        mean=float(arr.mean()),
        std=std,
        ci95_halfwidth=halfwidth,
    )


def repeat_with_seeds(
    experiment: Callable[[int], float],
    seeds: Sequence[int],
    *,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[RunTelemetry] = None,
    name: Optional[str] = None,
) -> SeedSummary:
    """Run ``experiment(seed)`` per seed and summarize the scalar results.

    ``workers``, ``cache`` and ``telemetry`` are forwarded to the
    :class:`~repro.harness.runner.ExperimentRunner` executing the seeds;
    ``name`` labels cache keys and the run-report (defaults to the
    experiment's ``__name__``).
    """
    seeds = _validate_seeds(seeds)
    runner = ExperimentRunner(
        name=name or getattr(experiment, "__name__", "experiment"),
        workers=workers,
        cache=cache,
        telemetry=telemetry,
    )
    values = runner.run_points(
        _PositionalSeedCall(experiment), [{"seed": seed} for seed in seeds]
    )
    return _summarize(values, seeds)


def sweep(
    experiment: Callable[..., float],
    grid: Mapping[str, Sequence],
    seeds: Sequence[int],
    *,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[RunTelemetry] = None,
    name: Optional[str] = None,
) -> list[dict]:
    """Cross a parameter grid with seed repetition.

    ``experiment`` is called as ``experiment(seed=..., **point)`` for every
    point in the Cartesian product of ``grid``.  Returns one row per point
    (in grid order): the parameter values plus a ``summary``
    :class:`SeedSummary`.

    Both the grid and the seed list are validated up front — an empty seed
    list or an empty parameter-value list fails immediately with a message
    naming the offending argument, not midway through the sweep.

    With ``workers=N`` the seed×grid points run on a process pool; because
    each point is an independent seeded computation the rows are
    bit-identical to a sequential run.  ``cache`` makes re-runs of an
    unchanged grid incremental and ``telemetry`` records the per-point
    JSON run-report (see docs/HARNESS.md).
    """
    _validate_grid(grid)
    seeds = _validate_seeds(seeds)
    names = list(grid)
    grid_points = [
        dict(zip(names, combo))
        for combo in itertools.product(*(grid[name] for name in names))
    ]
    runner = ExperimentRunner(
        name=name or getattr(experiment, "__name__", "experiment"),
        workers=workers,
        cache=cache,
        telemetry=telemetry,
    )
    tasks = [
        {**point, "seed": seed} for point in grid_points for seed in seeds
    ]
    values = runner.run_points(experiment, tasks)
    rows: list[dict] = []
    for index, point in enumerate(grid_points):
        start = index * len(seeds)
        summary = _summarize(values[start : start + len(seeds)], seeds)
        rows.append({**point, "summary": summary})
    return rows
