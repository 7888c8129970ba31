"""Cross-rack fabric smoke: MLTCP vs fair share per oversubscribed uplink.

Not a paper figure — the paper's testbed is a single-bottleneck dumbbell —
but the §4 compatibility argument is per link, and this bench exercises it
where placement and ECMP decide the competitor sets: the default 4-rack,
2-spine, 2:1-oversubscribed fat tree of ``cross_rack_interleaving``
(docs/TOPOLOGIES.md), swept over placement policies on the fluid
substrate.  The run-report carries per-link utilization telemetry
(``link_utilization`` records, docs/run_report.schema.json).
"""

from _common import emit, emit_run_report, runner_from_env
from repro.harness.experiments import cross_rack_interleaving
from repro.harness.report import render_table
from repro.harness.telemetry import validate_run_report

POLICIES = ("spread", "packed")


def _run_one(placement: str):
    result = cross_rack_interleaving(substrate="fluid", placement=placement)
    contended = [e for e in result.contention if e.competitors]
    return {
        "placement": placement,
        "cross_rack_flows": result.cross_rack_flows,
        "contended_links": len(contended),
        "interleavable": all(e.interleavable for e in contended),
        "ideal_ms": 1e3 * result.ideal_iteration_time,
        "mltcp_ms": 1e3 * result.final_mean("mltcp"),
        "fair_ms": 1e3 * result.final_mean("fair"),
        "speedup": result.speedup,
        "uplink_gbps": result.spec.uplink_gbps,
        "link_utilization": result.link_utilization,
        "fabric_links": result.spec.fabric_links(),
    }


def _sweep(runner):
    return runner.run_points(_run_one, [{"placement": p} for p in POLICIES])


def _report(rows) -> str:
    return render_table(
        ["placement", "x-rack flows", "contended uplinks", "ideal (ms)",
         "mltcp (ms)", "fair (ms)", "speedup"],
        [
            [r["placement"], str(r["cross_rack_flows"]), str(r["contended_links"]),
             r["ideal_ms"], r["mltcp_ms"], r["fair_ms"], r["speedup"]]
            for r in rows
        ],
        title="Cross-rack fabric — 4 racks x 4 hosts, 2 spines, 2:1 "
        "oversubscribed (1 Gbps/uplink), fluid substrate",
    ) + (
        "\n\nSpread placement puts 2 flows on every used uplink at a "
        "combined mean load that fits (interleavable), so MLTCP converges "
        "to the ideal while fair share stays congested; the packed control "
        "never leaves a rack and both policies run at the ideal."
    )


def test_cross_rack_fabric(benchmark):
    runner = runner_from_env("cross_rack")
    rows = benchmark.pedantic(lambda: _sweep(runner), rounds=1, iterations=1)
    by_policy = {r["placement"]: r for r in rows}

    spread = by_policy["spread"]
    for policy in ("mltcp", "fair"):
        runtime = "mltcp" if policy == "mltcp" else "fair"
        for link in spread["fabric_links"]:
            runner.telemetry.record(
                "link_utilization",
                link=link,
                utilization=spread["link_utilization"][runtime][link],
                capacity_gbps=spread["uplink_gbps"],
                policy=policy,
                substrate="fluid",
                params={"placement": "spread"},
            )
    emit("cross_rack", _report(rows))
    emit_run_report("cross_rack", runner)
    assert validate_run_report(runner.telemetry.as_report()) == []

    # Spread: every flow crosses racks, every contended uplink is in the
    # interleavable-but-contended regime, and MLTCP converges to the ideal
    # while fair share pays the synchronized contention.
    assert spread["cross_rack_flows"] == 8
    assert spread["contended_links"] == 8 and spread["interleavable"]
    assert spread["mltcp_ms"] < 1.1 * spread["ideal_ms"]
    assert spread["speedup"] > 1.15

    # Packed control: no cross-rack flows, nothing to win.
    packed = by_policy["packed"]
    assert packed["cross_rack_flows"] == 0
    assert packed["speedup"] < 1.05
