"""End-to-end benchmark of the MLTCP reproduction.

Usage (from the repository root)::

    python3 e2e_bench/run.py --workload paper --seed 0 --seconds 50 --trace 0

Workloads (``e2e_bench/workloads.py``): ``paper`` and ``fabric-serve``.
One run:

1. runs whole passes until ``--seconds`` have been measured, checking
   every operation against ``references.json``;
2. between passes, times ``SETUP_PROBES`` fresh interpreters that start
   and import the package;
3. prints a human-readable report and, as its last line, one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, in host time (not
simulated time) converted to reference seconds by the host-speed probe
(``e2e_bench/hostspeed.py``): ``wall_ref_s`` (the median pass after the
first), ``setup_s`` (the median set-up) and ``peak_rss_mb``.  With
``--trace 1`` untraced and traced passes alternate; the traced ones
attribute host time to the package's layers (``e2e_bench/tracing.py``)
and the run reports the per-layer metrics (serve epoch throughput and
latency among them), a self-time breakdown that sums to the traced
wall time, and ``trace_overhead`` (traced over untraced wall time).  It
also fails unless every layer predicted to run on the workload recorded
calls and every layer predicted absent recorded none.  The traced run
reports plain host time; the probe does not run in it.

``--write-references`` regenerates ``references.json`` (every workload,
every seed variant; serve runs uninterrupted, so the committed digest is
the uninterrupted run's and the killed-and-resumed run must match it).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 7
#: Host-speed probes run right before and right after each set-up probe.
SETUP_SPEED_SAMPLES = 25
#: One BLAS/OpenMP thread: the benchmark measures the Python layers, and
#: a thread pool would contend with the single process it runs in.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _isolate(workdir: Path) -> None:
    """Pin thread pools and point the result cache at a throwaway dir."""
    for name in THREAD_ENV:
        os.environ[name] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.write_references and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _setup_probe(workload: str, speed: SpeedProbe) -> float:
    """Reference seconds of a fresh interpreter importing the benchmark's modules."""
    speed.sample_now(SETUP_SPEED_SAMPLES)
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload],
        check=True,
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
    )
    ended = time.perf_counter()
    speed.sample_now(SETUP_SPEED_SAMPLES)
    seconds = speed.normalize(started, ended)
    if seconds is None:
        raise RuntimeError("no host-speed probe rated the set-up probe")
    return seconds


def _load_references() -> dict:
    with open(REFERENCES) as handle:
        return json.load(handle)


def _expected(references: dict, workload: str, seed: int) -> dict[str, str]:
    from workloads import variant

    return references.get(workload, {}).get(str(variant(seed)), {})


def _print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def _report(workload: str, passes: list, failed: int) -> None:
    for outcome in passes:
        for error in outcome.errors:
            print(f"[{workload}] {error}", file=sys.stderr)
    print(f"{workload}: {len(passes)} pass(es), {failed} failed operation(s)")


def _run(args: argparse.Namespace, workdir: Path) -> int:
    import metrics as m
    from hostspeed import SpeedProbe
    from workloads import WORKLOADS, check

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; valid: {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    references = _load_references()
    expected = _expected(references, workload.name, args.seed)

    def one_pass():
        outcome = m.measured_pass(workload, args.seed, workdir)
        check(workload, outcome, expected)
        return outcome

    probes = 0 if args.trace else SETUP_PROBES
    speed = SpeedProbe()
    setup_times: list[float] = []
    untraced, traced = [], []
    measured = 0.0
    while True:
        # Set-up probes are spread over the window, outside its clock, so
        # their median does not hang on one phase of the host's speed.
        while len(setup_times) < probes and measured >= args.seconds * len(setup_times) / probes:
            setup_times.append(_setup_probe(workload.name, speed))
        round_started = time.perf_counter()
        if args.trace:
            untraced.append(one_pass())
            traced.append(m.traced_pass(one_pass))
        else:
            with speed:
                untraced.append(one_pass())
        took = time.perf_counter() - round_started
        measured += took
        # Stop at the round boundary nearest to the end of the window.
        if measured + took / 2 >= args.seconds:
            break
    while len(setup_times) < probes:
        setup_times.append(_setup_probe(workload.name, speed))
    checked = [*untraced, *(t.outcome for t in traced)]
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    _report(workload.name, checked, failed)

    correct = failed == 0
    if args.trace:
        metrics, problems = m.per_layer(workload.name, untraced, traced)
        for problem in problems:
            print(f"[{workload.name}] self-check: {problem}", file=sys.stderr)
        correct = correct and not problems
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # The first pass, inside the window, warms caches and lazy imports.
        timed = untraced[1:] or untraced
        metrics = m.end_to_end(timed, speed, statistics.median(setup_times), peak_rss_mb)
        m.print_end_to_end(workload.name, metrics, timed, speed)
    _print_result(correct, attempted, failed, metrics)
    return 0


def _write_references(workdir: Path) -> int:
    from workloads import VARIANTS, WORKLOADS, run_pass

    references: dict = {}
    for name, workload in WORKLOADS.items():
        references[name] = {}
        for v in range(VARIANTS):
            outcome = run_pass(workload, v, workdir, True)
            if outcome.errors:
                print(f"{name} variant {v}: {outcome.errors}", file=sys.stderr)
                return 1
            references[name][str(v)] = outcome.digests
            print(f"{name} variant {v}: {outcome.wall_s:.2f} s", flush=True)
    with open(REFERENCES, "w") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".e2e_bench-", dir=ROOT))
    try:
        _isolate(workdir)
        if args.setup_probe:
            import workloads  # noqa: F401  (the import is the set-up)

            return 0
        if args.write_references:
            return _write_references(workdir)
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
