"""Bit-exact goldens for the packet-substrate experiment paths.

The end-to-end benchmark drives only fig6 through the packet simulator, so
these pin the rest of the packet harness: ``cross_rack_interleaving``,
``chaos_recovery`` and ``fault_recovery`` on the packet substrate, and the
event count of one guarded, faulted ``run_packet_placements``.  Every float
is stored as ``float.hex``.  Re-record (``tests/fixtures/packet_goldens.json``)
only when a change deliberately moves packet numerics:

    PYTHONPATH=src python tests/test_packet_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

GOLDENS = Path(__file__).resolve().parent / "fixtures" / "packet_goldens.json"


def _hexed(value: Any) -> Any:
    """``value`` with every float as ``float.hex`` and dict keys sorted."""
    if isinstance(value, np.ndarray):
        return [_hexed(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _hexed(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value


def _cross_rack() -> dict:
    from repro.harness.experiments import cross_rack_interleaving

    result = cross_rack_interleaving(
        substrate="packet", n_racks=2, hosts_per_rack=2, iterations=10
    )
    return {
        "mltcp_series": result.mltcp_series,
        "fair_series": result.fair_series,
        "link_utilization": result.link_utilization,
    }


def _chaos() -> dict:
    from repro.harness.experiments import chaos_recovery

    (result,) = chaos_recovery(
        substrate="packet", campaigns=1, n_racks=2, hosts_per_rack=2, iterations=24
    )
    return {
        "slos": {p: [s.as_record() for s in slos] for p, slos in result.slos.items()},
        "series": result.series,
        "degradation_episodes": result.degradation_episodes,
        "violations": result.violations,
        "fault_log": result.fault_log,
    }


def _fault_recovery(fault: str, policy: str = "mltcp") -> Callable[[], dict]:
    def run() -> dict:
        from repro.harness.experiments import fault_recovery

        result = fault_recovery(fault, policy, "packet", iterations=40)
        return {
            "series": result.series,
            "baseline_series": result.baseline_series,
            "degradation_episodes": result.degradation_episodes,
            "target": result.target,
            "disturbed_rounds": result.disturbed_rounds,
            "reconverged_at": result.reconverged_at,
            "recovered": result.recovered,
            "final_mean": result.final_mean,
            "fault_log": result.fault_log,
        }

    return run


def _guarded_placements() -> dict:
    from repro.faults.schedule import FaultEvent, FaultSchedule
    from repro.guards.core import GuardRail
    from repro.harness.packetlab import mltcp_config_for, run_packet_placements
    from repro.tcp.mltcp import MLTCPReno
    from repro.workloads.placement import FabricSpec, place_jobs
    from repro.workloads.presets import cross_rack_scenario

    spec = FabricSpec(n_racks=2, hosts_per_rack=2, n_spines=2, ecmp_seed=2)
    placements = place_jobs(cross_rack_scenario(2), spec, policy="spread", seed=2)
    ideal = placements[0].job.ideal_iteration_time
    schedule = FaultSchedule(
        events=(
            FaultEvent("spine_down", time=4.0 * ideal, duration=2.0 * ideal,
                       spine="spine0"),
        ),
        seed=2,
    )
    lab = run_packet_placements(
        placements,
        spec,
        lambda job: MLTCPReno(mltcp_config_for(job)),
        max_iterations=10,
        seed=2,
        faults=schedule,
        guards=GuardRail("record"),
    )
    return {
        "events_processed": lab.sim.events_processed,
        "series": lab.mean_iteration_by_round(),
    }


#: Golden name -> the run that produces it.
CASES: dict[str, Callable[[], dict]] = {
    "cross_rack": _cross_rack,
    "chaos": _chaos,
    "fault_recovery[link_down]": _fault_recovery("link_down"),
    "fault_recovery[job_restart]": _fault_recovery("job_restart"),
    # The one ECN-capable congestion control among the goldens: storm CE
    # marks and DCTCP's step marking on every link, idle ones included.
    "fault_recovery[ecn_storm, mltcp-dctcp]": _fault_recovery(
        "ecn_storm", "mltcp-dctcp"
    ),
    "guarded_placements": _guarded_placements,
}


def record_goldens() -> None:
    """Re-record GOLDENS from the tree on ``PYTHONPATH``."""
    goldens = {name: _hexed(run()) for name, run in CASES.items()}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", list(CASES))
def test_matches_golden(name):
    golden = json.loads(GOLDENS.read_text())
    assert _hexed(CASES[name]()) == golden[name]


if __name__ == "__main__":
    record_goldens()
