"""Large-scale fluid benchmarks: the 10k-flow regime, not the toy one.

ROADMAP open item 2: the PR 4 fast-path work optimized constant factors;
these benches gate the *structural* scale work (vectorized water-fill,
array-backed flow state) in the regime where MLTCP's distributed-
scheduling claim is actually interesting — CASSINI-style clusters with
hundreds of jobs across dozens of racks, and a 10k-concurrent-flow
single bottleneck.

Two suites, both part of the ``bench-compare`` perf gate
(docs/PERFORMANCE.md, "Vectorized core & scale benchmarks"):

* ``test_scale_network_fluid_1000x64`` — 1000 jobs spread over a
  64-rack 2:1-oversubscribed fat tree, MLTCP weights, per-link
  progressive filling across ~130 contended links.
* ``test_scale_single_link_10k_flows`` — 10 000 concurrent MLTCP flows
  on one bottleneck: the pure allocation/weight-update hot loop with
  no fabric bookkeeping.

Scenario builders are module-level so the acceptance test in
``tests/test_perf_contracts.py`` can pin their outputs bit-for-bit.
"""

from repro.fluid.allocation import MLTCPWeighted
from repro.fluid.fabric import place_on_fabric
from repro.fluid.flowsim import run_fluid
from repro.fluid.network import run_network_fluid
from repro.workloads.job import JobSpec
from repro.workloads.placement import FabricSpec, place_jobs

#: 1000 jobs x 64 racks: ~32 hosts per rack, 2 spines, 2:1 oversubscription.
SCALE_JOBS = 1000
SCALE_RACKS = 64
SCALE_SPEC = FabricSpec(
    n_racks=SCALE_RACKS,
    hosts_per_rack=max(2, (2 * SCALE_JOBS) // SCALE_RACKS + 1),
    n_spines=2,
    oversubscription=2.0,
)

#: 10k flows on one 400 Gbps bottleneck; staggered starts so the active
#: set churns instead of moving in lockstep.
STRESS_FLOWS = 10_000
STRESS_CAPACITY_GBPS = 400.0


def scale_fabric_jobs() -> list[JobSpec]:
    """The 1000-job mix: uniform 25 MB transfers, four start cohorts.

    Four staggered cohorts desynchronize comm completions so the run
    exercises per-event re-allocation instead of lockstep rounds, while
    keeping the scalar reference path benchmarkable (each extra cohort
    multiplies the distinct allocation events).
    """
    return [
        JobSpec(
            name=f"J{i:04d}",
            comm_bits=2e8,
            demand_gbps=10.0,
            compute_time=0.05,
            start_offset=0.002 * (i % 4),
        )
        for i in range(SCALE_JOBS)
    ]


def run_scale_network_fluid(max_iterations: int = 2):
    """One MLTCP network-fluid pass over the 64-rack fabric."""
    placements = place_jobs(scale_fabric_jobs(), SCALE_SPEC, policy="spread")
    return run_network_fluid(
        place_on_fabric(SCALE_SPEC, placements),
        SCALE_SPEC.capacities_gbps(),
        mltcp=True,
        max_iterations=max_iterations,
        seed=0,
        quantum=0.05,
    )


def stress_jobs() -> list[JobSpec]:
    """10k small flows (6.25 MB) with 40 staggered start cohorts."""
    return [
        JobSpec(
            name=f"J{i:05d}",
            comm_bits=5e7,
            demand_gbps=10.0,
            compute_time=0.05,
            start_offset=0.001 * (i % 40),
        )
        for i in range(STRESS_FLOWS)
    ]


def run_stress_single_link(max_iterations: int = 1):
    """One MLTCP fluid pass of 10k flows sharing a single bottleneck."""
    return run_fluid(
        stress_jobs(),
        STRESS_CAPACITY_GBPS,
        policy=MLTCPWeighted(),
        max_iterations=max_iterations,
        seed=3,
        quantum=0.05,
        record_segments=False,
    )


def test_scale_network_fluid_1000x64(benchmark):
    """1000 jobs x 64 racks, 2 MLTCP iterations each, per-link filling."""

    def run():
        return len(run_scale_network_fluid().iterations)

    assert benchmark(run) == 2 * SCALE_JOBS


def test_scale_single_link_10k_flows(benchmark):
    """10k concurrent MLTCP flows on one 400 Gbps bottleneck."""

    def run():
        return len(run_stress_single_link().iterations)

    assert benchmark(run) == STRESS_FLOWS
