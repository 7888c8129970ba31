"""Metric computation: end-to-end figures and the traced per-layer report."""

from __future__ import annotations

import json
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.simulator.engine import total_events_processed

from hostspeed import REFERENCE_PROBE_S, SpeedProbe
from tracing import SPANS, TARGETS, Tracer
from workloads import PassResult, Workload, run_pass

__all__ = [
    "METRIC_NAME",
    "END_TO_END",
    "PER_LAYER",
    "PREDICTIONS",
    "measured_pass",
    "traced_pass",
    "tail_percentile",
    "end_to_end",
    "per_layer",
    "print_end_to_end",
]

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
#: End-to-end metrics (host time; every workload reports all of them) and
#: per-layer metrics of the traced run, name -> unit, as BENCHMARK.json
#: declares them.  A layer that does not run on a workload reports 0.
END_TO_END: dict[str, str] = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER: dict[str, str] = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: Layers (span-name prefixes) predicted to run (must record calls) and
#: predicted absent (must record none) on each workload.
PREDICTIONS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "paper": (
        ("harness.experiments", "schedulers.optimize", "fluid.flowsim.run",
         "fluid.flowsim.iteration", "fluid.allocation.allocate",
         "fluid.allocation.cache_key", "fluid.allocation.water_fill",
         "harness.packetlab", "simulator.run", "simulator.link.send",
         "simulator.link.init", "tcp.ack", "tcp.data", "tcp.sender.init"),
        ("fluid.network", "fluid.fabric", "faults", "metrics.recovery",
         "metrics.contention", "guards", "service",
         "fluid.allocation.water_fill_array"),
    ),
    "fabric-serve": (
        ("harness.experiments", "fluid.network.run", "fluid.network.iteration",
         "fluid.network.wmm", "fluid.network.wmm_array",
         "fluid.fabric.capacity_factors", "faults.routing",
         "faults.chaos.schedule", "metrics.recovery", "metrics.contention",
         "guards.check", "service.daemon", "service.engine.step",
         "service.engine.admit", "service.admission.offer",
         "service.admission.drain", "service.journal.commit",
         "service.journal.load", "fluid.allocation.water_fill_array"),
        ("simulator", "tcp", "harness.packetlab", "schedulers",
         "fluid.flowsim.run", "fluid.allocation.allocate",
         "fluid.allocation.water_fill"),
    ),
}

#: A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


def tail_percentile(samples: list[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or None unless 10 samples lie beyond it."""
    if not samples:
        return None
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    beyond = sum(1 for x in ordered if x > value)
    return value if beyond >= TAIL_SAMPLES_BEYOND else None


def measured_pass(workload: Workload, seed: int, workdir: Path) -> PassResult:
    """Run one pass, noting the packet events it processed."""
    events_before = total_events_processed()
    outcome = run_pass(workload, seed, workdir, False)
    outcome.extra["events"] = float(total_events_processed() - events_before)
    return outcome


@dataclass
class TracedPass:
    """One traced pass: its outcome and what the tracer attributed."""

    outcome: PassResult
    values: dict[str, float]
    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)


def traced_pass(one_pass: Callable[[], PassResult]) -> TracedPass:
    """Run ``one_pass`` under the layer wrappers, then remove them."""
    tracer = Tracer()
    tracer.install()
    try:
        outcome = one_pass()
    finally:
        tracer.uninstall()
    return TracedPass(
        outcome,
        _layer_values(tracer, outcome),
        self_s={span: tracer.self_s.get(span, 0.0) for span in SPANS},
        calls=dict(tracer.calls),
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_values(tracer: Tracer, outcome: PassResult) -> dict[str, float]:
    calls, inclusive, self_s = tracer.calls, tracer.inclusive, tracer.self_s
    links = tracer.instances["simulator.link.init"]
    senders = tracer.instances["tcp.sender.init"]
    link_bits = sum(link.bits_sent for link in links)
    acked_bits = sum(8 * s.snd_una * s.mss_bytes for s in senders)
    flowsim_iterations = calls["fluid.flowsim.iteration"]
    network_iterations = calls["fluid.network.iteration"]
    events = outcome.extra.get("events", 0.0)
    running = tracer.samples["service.engine.step"]
    return {
        "schedulers.optimize_s": inclusive["schedulers.optimize"],
        "schedulers.optimize_calls": calls["schedulers.optimize"],
        "fluid.flowsim.run_s": inclusive["fluid.flowsim.run"],
        "fluid.flowsim.self_s": self_s["fluid.flowsim.run"],
        "fluid.flowsim.iterations": flowsim_iterations,
        "fluid.flowsim.us_per_iteration": 1e6 * _ratio(
            inclusive["fluid.flowsim.run"], flowsim_iterations
        ),
        "fluid.allocation.allocate_calls": calls["fluid.allocation.allocate"],
        "fluid.allocation.allocate_s": inclusive["fluid.allocation.allocate"],
        "fluid.allocation.cache_key_calls": calls["fluid.allocation.cache_key"],
        "fluid.allocation.reuse_ratio": (
            1.0 - _ratio(calls["fluid.allocation.allocate"], calls["fluid.allocation.cache_key"])
            if calls["fluid.allocation.cache_key"]
            else 0.0
        ),
        "fluid.allocation.water_fill_calls": calls["fluid.allocation.water_fill"],
        "fluid.allocation.water_fill_s": inclusive["fluid.allocation.water_fill"],
        "fluid.allocation.water_fill_array_calls": calls["fluid.allocation.water_fill_array"],
        "fluid.allocation.water_fill_array_s": inclusive["fluid.allocation.water_fill_array"],
        "fluid.network.run_s": inclusive["fluid.network.run"],
        "fluid.network.self_s": self_s["fluid.network.run"],
        "fluid.network.iterations": network_iterations,
        "fluid.network.us_per_iteration": 1e6 * _ratio(
            inclusive["fluid.network.run"], network_iterations
        ),
        "fluid.network.wmm_calls": calls["fluid.network.wmm"],
        "fluid.network.wmm_s": inclusive["fluid.network.wmm"],
        "fluid.network.wmm_array_calls": calls["fluid.network.wmm_array"],
        "fluid.network.wmm_array_s": inclusive["fluid.network.wmm_array"],
        "faults.routing_calls": calls["faults.routing"],
        "faults.routing_s": inclusive["faults.routing"],
        "fluid.fabric.capacity_factors_s": inclusive["fluid.fabric.capacity_factors"],
        "faults.chaos.schedule_s": inclusive["faults.chaos.schedule"],
        "metrics.recovery_s": inclusive["metrics.recovery"],
        "metrics.contention_s": inclusive["metrics.contention"],
        "guards.check_calls": calls["guards.check"],
        "guards.check_s": inclusive["guards.check"],
        "simulator.run_s": inclusive["simulator.run"],
        "simulator.events": events,
        "simulator.events_per_s": _ratio(events, inclusive["simulator.run"]),
        "simulator.link.send_calls": calls["simulator.link.send"],
        "simulator.link.send_s": inclusive["simulator.link.send"],
        "simulator.link.packets_sent": sum(link.packets_sent for link in links),
        "simulator.queue.drops": sum(link.queue.drops for link in links),
        "tcp.ack_calls": calls["tcp.ack"],
        "tcp.ack_s": inclusive["tcp.ack"],
        "tcp.data_s": inclusive["tcp.data"],
        "tcp.retransmissions": sum(s.retransmissions for s in senders),
        "tcp.timeouts": sum(s.timeouts for s in senders),
        "tcp.goodput_ratio": _ratio(acked_bits, link_bits),
        "harness.packetlab_self_s": self_s["harness.packetlab"],
        "harness.experiments_self_s": self_s["harness.experiments"],
        "service.engine.step_calls": calls["service.engine.step"],
        "service.engine.step_s": inclusive["service.engine.step"],
        "service.engine.admit_calls": calls["service.engine.admit"],
        "service.engine.running_mean": statistics.fmean(running) if running else 0.0,
        "service.admission.offer_s": inclusive["service.admission.offer"],
        "service.admission.drain_s": inclusive["service.admission.drain"],
        "service.admission.shed_ratio": _ratio(
            tracer.results["service.admission.offer"], calls["service.admission.offer"]
        ),
        "service.journal.commit_calls": calls["service.journal.commit"],
        "service.journal.commit_s": inclusive["service.journal.commit"],
        "service.journal.bytes_per_commit": _ratio(
            outcome.extra.get("journal_bytes", 0.0), calls["service.journal.commit"]
        ),
        "service.journal.load_s": inclusive["service.journal.load"],
        "service.daemon.self_s": self_s["service.daemon"],
        "unattributed_s": outcome.wall_s - sum(self_s[span] for span in SPANS),
    }


def _matches(span: str, prefix: str) -> bool:
    return span == prefix or span.startswith(prefix + ".")


def self_check(workload: str, calls: dict[str, int]) -> list[str]:
    """Predicted-present layers that recorded no call, and vice versa."""
    present, absent = PREDICTIONS[workload]
    known = {target.span for target in TARGETS}
    problems = []
    for prefix in (*present, *absent):
        if not any(_matches(span, prefix) for span in known):
            problems.append(f"prediction {prefix!r} names no traced layer")
    for prefix in present:
        if not any(calls.get(span, 0) for span in known if _matches(span, prefix)):
            problems.append(f"{prefix} was predicted to run but recorded no calls")
    for prefix in absent:
        ran = sorted(span for span in known if _matches(span, prefix) and calls.get(span, 0))
        if ran:
            problems.append(f"{prefix} was predicted absent but {ran} recorded calls")
    return problems


def serve_latency(untraced: list[PassResult]) -> dict[str, float]:
    """Epoch throughput and latency of the untraced serve passes.

    An epoch's latency is the host time from one journal commit to the
    next; the epoch after the kill also carries the restart.  The p95 is
    0 unless at least 10 samples lie beyond it.
    """
    epochs = [ms for p in untraced for ms in p.epoch_ms]
    resumes = [p.extra["resume_ms"] for p in untraced if "resume_ms" in p.extra]
    if not epochs:
        return {}
    return {
        "service.daemon.epochs_per_s": 1000.0 * len(epochs) / sum(epochs),
        "service.daemon.epoch_p50_ms": statistics.median(epochs),
        "service.daemon.epoch_p95_ms": tail_percentile(epochs, 95) or 0.0,
        "service.daemon.epoch_samples": float(len(epochs)),
        "service.daemon.resume_ms": statistics.median(resumes) if resumes else 0.0,
    }


def per_layer(
    workload: str, untraced: list[PassResult], traced: list[TracedPass]
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Median per-layer values over traced passes, the breakdown, the check."""
    values = {
        name: statistics.median(t.values[name] for t in traced)
        for name in traced[0].values
    }
    values["trace_overhead"] = _ratio(
        statistics.median(t.outcome.wall_s for t in traced),
        statistics.median(p.wall_s for p in untraced),
    )
    values.update(serve_latency(untraced))
    undeclared = sorted(set(values) - set(PER_LAYER))
    if undeclared:
        raise KeyError(f"metrics missing from BENCHMARK.json: {undeclared}")

    problems = []
    for t in traced:
        problems.extend(self_check(workload, t.calls))
    _print_breakdown(workload, traced, values["trace_overhead"])
    return {
        name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()
    }, sorted(set(problems))


def _print_breakdown(workload: str, traced: list[TracedPass], overhead: float) -> None:
    """Self time per layer of the median traced pass; rows sum to its wall."""
    ordered = sorted(traced, key=lambda t: t.outcome.wall_s)
    median_pass = ordered[(len(ordered) - 1) // 2]
    wall = median_pass.outcome.wall_s
    print(f"{workload}: traced self-time breakdown (wall_s {wall:.4f} s)")
    rows = sorted(median_pass.self_s.items(), key=lambda item: -item[1])
    for span, seconds in rows:
        if seconds:
            print(f"  {span:36s} {seconds:9.4f} s  {100 * seconds / wall:5.1f}%")
    unattributed = median_pass.values["unattributed_s"]
    print(f"  {'unattributed_s':36s} {unattributed:9.4f} s  {100 * unattributed / wall:5.1f}%")
    total = sum(seconds for _, seconds in rows) + unattributed
    print(f"  {'total':36s} {total:9.4f} s")
    print(f"  trace_overhead {overhead:.3f} (traced over untraced wall_s)")


def pass_ref_s(passes: list[PassResult], speed: SpeedProbe) -> list[float]:
    """Each complete pass in reference seconds, the sum of its segments'.

    A segment is one operation or one serve epoch; each is converted by
    the host-speed probes that ran in and around it (:mod:`hostspeed`).
    A pass whose operations did not all complete is left out.
    """
    length = max(len(p.segments) for p in passes)
    return [
        sum(speed.normalize(begin, end) or 0.0 for begin, end in p.segments)
        for p in passes
        if len(p.segments) == length
    ]


def end_to_end(
    passes: list[PassResult], speed: SpeedProbe, setup_s: float, peak_rss_mb: float
) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics over the untraced passes.

    ``wall_ref_s`` is the median pass in reference seconds; ``setup_s``
    is passed in.
    """
    values = {
        "wall_ref_s": statistics.median(pass_ref_s(passes, speed)),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: (float(values[name]), unit) for name, unit in END_TO_END.items()}


def print_end_to_end(
    workload: str,
    metrics: dict[str, tuple[float, str]],
    passes: list[PassResult],
    speed: SpeedProbe,
) -> None:
    """The end-to-end figures, then how the passes and the host spread."""
    for name, (value, unit) in metrics.items():
        print(f"  {name:12s} {value:12.4f} {unit}")
    walls = sorted(p.wall_s for p in passes)
    refs = sorted(pass_ref_s(passes, speed))
    print(
        f"  {len(passes)} passes; reference seconds: min {refs[0]:.4f} "
        f"max {refs[-1]:.4f}; plain host time: min {walls[0]:.4f} "
        f"median {statistics.median(walls):.4f} max {walls[-1]:.4f} s"
    )
    slowdowns = sorted(d / REFERENCE_PROBE_S for d in speed.durations)
    print(
        f"  host slowdown over the reference, {len(slowdowns)} probes: "
        f"median {statistics.median(slowdowns):.3f} "
        f"(p10 {slowdowns[len(slowdowns) // 10]:.3f}, "
        f"p90 {slowdowns[9 * len(slowdowns) // 10]:.3f})"
    )
    latency = serve_latency(passes)
    for name in sorted(latency):
        print(f"  {name} {latency[name]:.3f}")
