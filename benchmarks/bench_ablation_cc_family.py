"""Ablation: the MLTCP augmentation across congestion-control families.

§6: "Other congestion control schemes are augmented in a similar way to
induce shifts in communication start times."  This bench runs the two-job
packet-level scenario under four window-based variants — MLTCP-Reno,
MLTCP-CUBIC, MLTCP-Swift and MLTCP-DCTCP (ECN bottleneck for the latter) —
reporting convergence for each.
"""

import numpy as np

from _common import emit
from repro.harness.packetlab import mltcp_config_for, run_packet_jobs
from repro.harness.report import render_table
from repro.metrics.convergence import detect_convergence
from repro.tcp.mltcp import MLTCPCubic, MLTCPDctcp, MLTCPReno
from repro.tcp.swift import MLTCPSwift
from repro.workloads.job import JobSpec

IDEAL_OVERHEAD = 1500 / 1460


def _jobs():
    template = JobSpec(
        name="Job",
        comm_bits=8e6,
        demand_gbps=1.0,
        compute_time=0.010,
        jitter_sigma=0.0005,
    )
    return [template.with_name("Job1"), template.with_name("Job2")]


def _run_family(name: str):
    jobs = _jobs()
    ideal = jobs[0].ideal_comm_time * IDEAL_OVERHEAD + jobs[0].compute_time
    factories = {
        "mltcp-reno": lambda j: MLTCPReno(mltcp_config_for(j)),
        "mltcp-cubic": lambda j: MLTCPCubic(mltcp_config_for(j)),
        "mltcp-swift": lambda j: MLTCPSwift(mltcp_config_for(j), target_delay=400e-6),
        "mltcp-dctcp": lambda j: MLTCPDctcp(mltcp_config_for(j)),
    }
    if name == "mltcp-dctcp":
        # DCTCP needs an ECN-marking bottleneck; run_packet_jobs uses
        # DropTail, so assemble manually for this variant.
        return _run_dctcp(jobs, ideal)
    lab = run_packet_jobs(jobs, factories[name], max_iterations=40, seed=2)
    rounds = lab.mean_iteration_by_round()
    report = detect_convergence(rounds, target=ideal, tolerance=0.08)
    return {
        "cc": name,
        "first3_ms": 1000 * float(rounds[:3].mean()),
        "final5_ms": 1000 * float(rounds[-5:].mean()),
        "ideal_ms": 1000 * ideal,
        "converged_at": report.converged_at,
    }


def _run_dctcp(jobs, ideal):
    from repro.simulator.app import TrainingApp
    from repro.simulator.engine import Simulator
    from repro.simulator.queues import EcnQueue
    from repro.simulator.topology import build_dumbbell
    from repro.tcp.base import TcpReceiver, TcpSender

    sim = Simulator()
    net = build_dumbbell(
        sim,
        2,
        bottleneck_bps=1e9,
        bottleneck_queue=EcnQueue(capacity_packets=128, mark_threshold=24),
    )
    rng = np.random.default_rng(2)
    apps = []
    for i, job in enumerate(jobs):
        cc = MLTCPDctcp(mltcp_config_for(job))
        sender = TcpSender(sim, net.hosts[f"s{i}"], job.name, f"r{i}", cc)
        TcpReceiver(sim, net.hosts[f"r{i}"], job.name, f"s{i}")
        app = TrainingApp(sim, sender, job, max_iterations=40, rng=rng)
        app.start()
        apps.append(app)
    sim.run(until=2.5)
    per_job = [a.iteration_times() for a in apps]
    n = min(len(t) for t in per_job)
    rounds = np.array([np.mean([t[i] for t in per_job]) for i in range(n)])
    report = detect_convergence(rounds, target=ideal, tolerance=0.08)
    return {
        "cc": "mltcp-dctcp",
        "first3_ms": 1000 * float(rounds[:3].mean()),
        "final5_ms": 1000 * float(rounds[-5:].mean()),
        "ideal_ms": 1000 * ideal,
        "converged_at": report.converged_at,
    }


def _sweep():
    return [
        _run_family(n)
        for n in ("mltcp-reno", "mltcp-cubic", "mltcp-swift", "mltcp-dctcp")
    ]


def _report(rows) -> str:
    return render_table(
        ["congestion control", "first 3 iters (ms)", "final 5 iters (ms)", "ideal (ms)", "converged at"],
        [
            [r["cc"], r["first3_ms"], r["final5_ms"], r["ideal_ms"], str(r["converged_at"])]
            for r in rows
        ],
        title="Ablation — MLTCP across CC families, two-job packet-level scenario",
    ) + (
        "\n\nAll four variants — loss-based (Reno, CUBIC), delay-based "
        "(Swift) and ECN-based (DCTCP) — slide the jobs into an "
        "interleaved state."
    )


def test_ablation_cc_family(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    emit("ablation_cc_family", _report(rows))

    for row in rows:
        assert row["final5_ms"] < 1.12 * row["ideal_ms"], row
        assert row["first3_ms"] > 1.2 * row["ideal_ms"], row
