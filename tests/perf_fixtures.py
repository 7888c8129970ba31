"""Seed-fixture fingerprints for the fast-path equivalence contract.

The perf overhaul (engine heap entries, packet pool, batched link
serialization, cached fluid allocations) must be *behaviour preserving*:
the optimized tree has to reproduce the exact floats the seed tree
produced.  This module computes JSON-serializable fingerprints of a
fluid run, a network-fluid run, a packet-level run, and a handful of
``water_fill`` vectors, with every float rendered via ``float.hex()`` so
the comparison in ``tests/test_perf_contracts.py`` is bit-exact.

The checked-in fixture (``tests/fixtures/perf_contracts_seed.json``) was
generated on the pre-optimization tree.  Regenerate it only when a PR
*intentionally* changes simulation numerics:

    PYTHONPATH=src python -m tests.perf_fixtures

Event *counts* are deliberately excluded: batched serialization changes
how many events a transfer schedules (that is the point) while leaving
every externally visible timestamp identical.

``SCALAR_CASES`` at the bottom pins the scalar fluid engine's remaining
paths the same way, in a fixture of their own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

FIXTURE_PATH = Path(__file__).resolve().parent / "fixtures" / "perf_contracts_seed.json"


def _hex(value: float) -> str:
    return float(value).hex()


def fluid_fingerprint() -> dict[str, Any]:
    """Four MLTCP-weighted jobs on one 50 Gbps link, segments included."""
    from repro.fluid import run_fluid
    from repro.fluid.allocation import MLTCPWeighted
    from repro.workloads import four_job_scenario

    result = run_fluid(
        four_job_scenario(),
        capacity_gbps=50.0,
        policy=MLTCPWeighted(),
        max_iterations=8,
        seed=7,
    )
    return {
        "iterations": [
            [
                it.job,
                it.index,
                _hex(it.comm_start),
                _hex(it.comm_end),
                _hex(it.iteration_end),
            ]
            for it in result.iterations
        ],
        "end_time": _hex(result.end_time),
        "segments": [
            {
                "start": _hex(seg.start),
                "end": _hex(seg.end),
                "rates": {job: _hex(rate) for job, rate in sorted(seg.rates_bps.items())},
            }
            for seg in result.segments
        ],
    }


def network_fluid_fingerprint() -> dict[str, Any]:
    """Two jobs sharing a core link across a three-link path set."""
    from repro.fluid.network import PlacedJob, run_network_fluid
    from repro.workloads import two_job_scenario

    jobs = two_job_scenario(jitter_sigma=0.001)
    placements = [
        PlacedJob(job=jobs[0], links=("up", "core")),
        PlacedJob(job=jobs[1], links=("core", "down")),
    ]
    result = run_network_fluid(
        placements,
        {"up": 50.0, "core": 40.0, "down": 50.0},
        max_iterations=6,
        seed=11,
    )
    return {
        "iterations": [
            [
                it.job,
                it.index,
                _hex(it.comm_start),
                _hex(it.comm_end),
                _hex(it.iteration_end),
            ]
            for it in result.iterations
        ],
        "end_time": _hex(result.end_time),
    }


def packet_fingerprint() -> dict[str, Any]:
    """Two small MLTCP-Reno jobs through the packet simulator.

    Only app-level timestamps are captured: the batched link scheduler
    changes the event *count* by design, while delivery times (and hence
    every iteration boundary) must stay bit-identical.
    """
    from repro.harness.packetlab import mltcp_config_for, run_packet_jobs
    from repro.tcp.mltcp import MLTCPReno
    from repro.workloads.job import JobSpec

    template = JobSpec(
        name="Job",
        comm_bits=8e6,
        demand_gbps=1.0,
        compute_time=0.010,
        jitter_sigma=0.0005,
    )
    jobs = [template.with_name("Job1"), template.with_name("Job2")]
    lab = run_packet_jobs(
        jobs,
        lambda job: MLTCPReno(mltcp_config_for(job)),
        bottleneck_bps=1e9,
        max_iterations=6,
        seed=3,
    )
    return {
        "apps": {
            name: [
                [
                    it.index,
                    _hex(it.comm_start),
                    _hex(it.comm_end),
                    _hex(it.iteration_end),
                ]
                for it in app.iterations
            ]
            for name, app in sorted(lab.apps.items())
        },
    }


def water_fill_fingerprint() -> dict[str, Any]:
    """Fixed demand/weight vectors through ``water_fill``, rates in hex."""
    from repro.fluid.allocation import water_fill

    cases = {
        "undersubscribed": (
            {f"f{i}": 1e8 * (i + 1) for i in range(6)},
            {f"f{i}": 1.0 for i in range(6)},
            5e9,
        ),
        "oversubscribed_weighted": (
            {f"flow{i:02d}": 1e9 / (i + 2) for i in range(12)},
            {f"flow{i:02d}": 1.0 / (3 + i) for i in range(12)},
            2.5e9,
        ),
        "mixed_caps": (
            {"a": 4e9, "b": 1e9, "c": 2e9, "d": 5e8},
            {"a": 3.0, "b": 1.0, "c": 1.0, "d": 0.5},
            5e9,
        ),
        "zero_weights": (
            {"a": 2e9, "b": 2e9, "c": 1e9},
            {"a": 0.0, "b": 0.0, "c": 0.0},
            3e9,
        ),
    }
    out: dict[str, Any] = {}
    for name, (demands, weights, capacity) in cases.items():
        rates = water_fill(demands, weights, capacity)
        out[name] = {fid: _hex(rates[fid]) for fid in sorted(rates)}
    return out


def capture_all() -> dict[str, Any]:
    return {
        "fluid": fluid_fingerprint(),
        "network_fluid": network_fluid_fingerprint(),
        "packet": packet_fingerprint(),
        "water_fill": water_fill_fingerprint(),
    }


# ---------------------------------------------------------------------------
# Scalar-engine goldens: the scalar fluid paths no seed fingerprint, e2e
# digest or engine-twin test pins on their own floats.  Re-record
# (``tests/fixtures/scalar_engine_goldens.json``) only when a change
# deliberately moves fluid numerics:
#
#     PYTHONPATH=src python -m tests.perf_fixtures scalar
# ---------------------------------------------------------------------------

SCALAR_GOLDENS_PATH = FIXTURE_PATH.parent / "scalar_engine_goldens.json"


def _single_link_record(result: Any) -> dict[str, Any]:
    """Every iteration field, every segment, the end time and the fault log."""
    return {
        "iterations": [
            [
                it.job,
                it.index,
                _hex(it.comm_start),
                _hex(it.comm_end),
                _hex(it.iteration_end),
            ]
            for it in result.iterations
        ],
        "segments": [
            [
                _hex(seg.start),
                _hex(seg.end),
                {job: _hex(rate) for job, rate in sorted(seg.rates_bps.items())},
            ]
            for seg in result.segments
        ],
        "end_time": _hex(result.end_time),
        "fault_log": list(result.fault_log),
    }


def _jittered_four_jobs() -> list[Any]:
    from repro.workloads import four_job_scenario

    return four_job_scenario(jitter_sigma=0.002)


def _single_link_policy(make_policy: Any) -> Any:
    def run() -> dict[str, Any]:
        from repro.fluid import run_fluid

        result = run_fluid(
            _jittered_four_jobs(), 50.0, policy=make_policy(),
            max_iterations=3, seed=5,
        )
        return _single_link_record(result)

    return run


def _pdq() -> Any:
    from repro.fluid import PDQ

    return PDQ()


def _pias() -> Any:
    from repro.fluid import PIAS

    return PIAS()


def _mltcp_f3() -> Any:
    from repro.core.aggressiveness import ReciprocalAggressiveness
    from repro.fluid import MLTCPWeighted

    return MLTCPWeighted(ReciprocalAggressiveness())


def _guarded_faulted_mltcp() -> dict[str, Any]:
    """Restart, straggler and link flap under MLTCP with a recording rail."""
    from repro.faults import FaultEvent, FaultSchedule
    from repro.fluid import MLTCPWeighted, run_fluid
    from repro.guards import GuardRail

    schedule = FaultSchedule(
        events=(
            FaultEvent("straggler", time=1.0, duration=2.0, job="J2", factor=2.5),
            FaultEvent("job_restart", time=2.5, job="J3", restart_delay=0.05),
            FaultEvent("link_down", time=3.5, duration=0.2),
        ),
        seed=4,
    )
    rail = GuardRail("record")
    result = run_fluid(
        _jittered_four_jobs(), 50.0, policy=MLTCPWeighted(), end_time=6.0,
        seed=6, faults=schedule, guards=rail,
    )
    record = _single_link_record(result)
    record["violations"] = [
        [v.guard, v.subject, _hex(v.time), v.message] for v in rail.violations
    ]
    return record


def _network_fair_fabric_fault() -> dict[str, Any]:
    """Fair share on a fabric under 32 jobs, a spine failing mid-run."""
    from repro.faults import FaultEvent, FaultSchedule
    from repro.fluid import FairShare
    from repro.fluid.fabric import FluidFabricFaults, place_on_fabric
    from repro.fluid.network import NetworkFluidSimulator
    from repro.workloads import cross_rack_scenario
    from repro.workloads.placement import FabricSpec, place_jobs

    spec = FabricSpec(
        n_racks=4, hosts_per_rack=2, n_spines=2, oversubscription=2.0, ecmp_seed=2
    )
    placements = place_jobs(
        cross_rack_scenario(spec.n_hosts // 2), spec, policy="spread", seed=2
    )
    placed = place_on_fabric(spec, placements)
    schedule = FaultSchedule(
        events=(
            FaultEvent("spine_down", time=0.05, duration=0.2, spine="spine1"),
        ),
        seed=2,
    )
    result = NetworkFluidSimulator(
        placed,
        spec.capacities_gbps(),
        policy=FairShare(),
        seed=3,
        quantum=min(0.02, placements[0].job.ideal_iteration_time / 10.0),
        fabric_faults=FluidFabricFaults(spec, schedule),
    ).run(max_iterations=8)
    return {
        "iterations": [
            [
                it.job,
                it.index,
                _hex(it.comm_start),
                _hex(it.comm_end),
                _hex(it.iteration_end),
            ]
            for it in result.iterations
        ],
        "end_time": _hex(result.end_time),
        "fault_log": list(result.fault_log),
        "delivered_bits_by_link": {
            link: _hex(bits)
            for link, bits in sorted(result.delivered_bits_by_link.items())
        },
    }


#: Golden name -> the run that produces it.
SCALAR_CASES: dict[str, Any] = {
    "pdq": _single_link_policy(_pdq),
    "pias": _single_link_policy(_pias),
    "mltcp_f3": _single_link_policy(_mltcp_f3),
    "mltcp_faults_guarded": _guarded_faulted_mltcp,
    "network_fair_fabric_fault": _network_fair_fabric_fault,
}


def main() -> None:
    if sys.argv[1:] == ["scalar"]:
        goldens = {name: run() for name, run in SCALAR_CASES.items()}
        SCALAR_GOLDENS_PATH.write_text(
            json.dumps(goldens, indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {SCALAR_GOLDENS_PATH}")
        return
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(capture_all(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
