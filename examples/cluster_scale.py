#!/usr/bin/env python3
"""Cluster scale: MLTCP across many bottlenecks at once.

The paper's scalability pitch is that MLTCP needs no controller: every
congested link develops the interleaving independently.  This example
builds a leaf-spine-shaped *fluid* cluster — eight 50 Gbps leaf uplinks,
two contending training jobs on each, plus one cross-cluster job that
traverses its uplink *and* a shared spine port — and shows every bottleneck
converging in a handful of iterations, with zero coordination.

Run:  python examples/cluster_scale.py
"""

import numpy as np

from repro.fluid import FairShare, MLTCPWeighted, PlacedJob, run_network_fluid
from repro.harness import render_series, render_table
from repro.workloads import gpt2_heavy_job, gpt3_job


def main() -> None:
    n_uplinks = 8
    placements = []
    for u in range(n_uplinks):
        for k in range(2):
            job = gpt2_heavy_job(jitter_sigma=0.005).with_name(f"U{u}J{k}")
            placements.append(PlacedJob(job=job, links=(f"up{u}",)))
    # A GPT-3-like job crossing uplink 0 and the shared spine port.
    cross = gpt3_job(jitter_sigma=0.005).with_name("Cross")
    placements.append(PlacedJob(job=cross, links=("up0", "spine")))

    capacities = {f"up{u}": 50.0 for u in range(n_uplinks)}
    capacities["spine"] = 50.0

    print(
        f"{len(placements)} jobs over {len(capacities)} capacitated links "
        "(fair share vs MLTCP)\n"
    )
    rows = []
    for policy in (FairShare(), MLTCPWeighted()):
        result = run_network_fluid(
            placements, capacities, policy=policy, max_iterations=40, seed=3
        )
        label = policy.name
        rounds = result.mean_iteration_by_round()
        print(render_series(f"{label:>8} cluster mean iteration", rounds, unit="s"))
        heavy_tail = np.mean(
            [result.iteration_times(p.job.name)[-5:].mean() for p in placements[:-1]]
        )
        cross_tail = result.iteration_times("Cross")[-5:].mean()
        rows.append([label, float(rounds[0]), float(heavy_tail), float(cross_tail)])

    print()
    print(
        render_table(
            [
                "policy",
                "first iter (s)",
                "uplink jobs final (s, ideal 1.8)",
                "cross job final (s, ideal 1.2)",
            ],
            rows,
        )
    )
    print(
        "\nEvery uplink interleaves its pair independently, and the "
        "cross-cluster job settles into the gaps on both links it "
        "traverses — all without a scheduler."
    )


if __name__ == "__main__":
    main()
