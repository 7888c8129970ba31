"""Extension bench: the distributed-vs-centralized scalability argument.

§1/§2: centralized approaches "achieve optimal scheduling at the cost of
being computationally expensive, making it challenging to scale to a large
cluster", while MLTCP "is easily deployable and scalable".  Two measurements
make that concrete:

1. Centralized cost: wall-clock time of the offset optimizer as the job
   count grows (superlinear — it reasons about all jobs jointly).
2. MLTCP cost: convergence iterations on a *cluster* of independent
   bottlenecks (multi-bottleneck fluid simulator).  Every uplink converges
   in parallel, so the iteration count stays flat as the cluster grows.
"""

import time

from _common import emit, emit_run_report, runner_from_env
from repro.fluid.network import PlacedJob, run_network_fluid
from repro.harness.report import render_table
from repro.metrics.convergence import detect_convergence
from repro.schedulers.centralized import CentralizedScheduler
from repro.workloads.presets import gpt2_heavy_job, gpt2_job, identical_jobs

UPLINK_COUNTS = (1, 2, 4, 8)
JOBS_PER_UPLINK = 2


def _centralized_cost(total_jobs: int) -> float:
    jobs = identical_jobs(gpt2_job(jitter_sigma=0.0), total_jobs)
    scheduler = CentralizedScheduler(jobs, 50.0 * (total_jobs / 2.0))
    start = time.perf_counter()
    scheduler.optimize(exhaustive_threshold=2, restarts=2)
    return time.perf_counter() - start


def _mltcp_cluster_convergence(n_uplinks: int) -> int | None:
    placements = []
    for u in range(n_uplinks):
        for k in range(JOBS_PER_UPLINK):
            job = gpt2_heavy_job(jitter_sigma=0.005).with_name(f"U{u}J{k}")
            placements.append(PlacedJob(job=job, links=(f"up{u}",)))
    caps = {f"up{u}": 50.0 for u in range(n_uplinks)}
    result = run_network_fluid(placements, caps, max_iterations=40, seed=3)
    rounds = result.mean_iteration_by_round()
    report = detect_convergence(rounds, target=1.8, tolerance=0.05)
    return report.converged_at


def _cluster_point(n_uplinks: int):
    """One runner point: centralized cost + MLTCP convergence at one size."""
    total = n_uplinks * JOBS_PER_UPLINK
    return {
        "uplinks": n_uplinks,
        "jobs": total,
        "centralized_s": _centralized_cost(total),
        "mltcp_converged_at": _mltcp_cluster_convergence(n_uplinks),
    }


def _experiment(runner):
    return runner.run_points(
        _cluster_point, [{"n_uplinks": n} for n in UPLINK_COUNTS]
    )


def _report(rows) -> str:
    return render_table(
        ["uplinks", "jobs", "centralized optimize (s)", "MLTCP converged at iter"],
        [
            [r["uplinks"], r["jobs"], r["centralized_s"], str(r["mltcp_converged_at"])]
            for r in rows
        ],
        title="Scalability — centralized optimizer cost vs MLTCP convergence "
        "(cluster of independent 50 Gbps uplinks, 2 heavy jobs each)",
    ) + (
        "\n\nThe centralized cost grows with the cluster; MLTCP's convergence "
        "iteration count stays flat because every bottleneck descends in "
        "parallel with zero coordination."
    )


def test_extension_scalability(benchmark):
    runner = runner_from_env("extension_scalability")
    rows = benchmark.pedantic(
        lambda: _experiment(runner), rounds=1, iterations=1
    )
    emit("extension_scalability", _report(rows))
    emit_run_report("extension_scalability", runner)

    # Centralized: cost at 16 jobs clearly exceeds cost at 2 jobs.
    assert rows[-1]["centralized_s"] > 2.0 * rows[0]["centralized_s"]
    # MLTCP: converges everywhere, with no growth trend in iterations.
    iters = [r["mltcp_converged_at"] for r in rows]
    assert all(i is not None for i in iters)
    assert max(iters) <= min(iters) + 10
