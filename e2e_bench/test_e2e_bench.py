"""Tests of the benchmark's own code (metrics, digests, wrappers)."""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import metrics
import tracing
import workloads
from repro.fluid import allocation, flowsim
from repro.fluid.allocation import FlowView, MLTCPWeighted
from repro.harness import experiments

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_metric_names_are_well_formed():
    spec = json.loads(BENCHMARK_JSON.read_text())
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in declared:
        assert metrics.METRIC_NAME.fullmatch(name), name
    assert len(set(declared)) == len(declared)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_percentile_needs_ten_samples_beyond_it():
    # 180 samples: p95 = 170.05, only 171..179 (9 samples) lie beyond it.
    assert metrics.tail_percentile(list(range(180)), 95) is None
    value = metrics.tail_percentile(list(range(200)), 95)
    assert value == pytest.approx(189.05)
    assert sum(1 for x in range(200) if x > value) == 10
    assert metrics.tail_percentile([], 95) is None


def _fig5_outcome(perturb: bool) -> workloads.PassResult:
    curves = experiments.fig5_loss_function(samples=31)
    if perturb:
        curves["loss"][7] = np.nextafter(curves["loss"][7], np.inf)
    outcome = workloads.PassResult()
    outcome.digests["fig5"] = workloads.digest(curves)
    return outcome


def test_perturbed_float_fails_the_operation():
    paper = workloads.WORKLOADS["paper"]
    expected = {"fig5": _fig5_outcome(perturb=False).digests["fig5"]}

    clean = _fig5_outcome(perturb=False)
    workloads.check(paper, clean, expected)
    assert (clean.attempted, clean.failed) == (paper.operations, 0)

    perturbed = _fig5_outcome(perturb=True)
    workloads.check(paper, perturbed, expected)
    assert perturbed.failed == 1


def test_digest_distinguishes_bits_not_values():
    assert workloads.digest({"a": 0.1 + 0.2}) != workloads.digest({"a": 0.3})
    assert workloads.digest([1.0, None]) == workloads.digest((1.0, None))
    assert workloads.digest(np.array([0.5, 2.0])) == workloads.digest([0.5, 2.0])


def _speed(*samples: tuple[float, float]) -> hostspeed.SpeedProbe:
    """A probe that recorded ``(start, slowdown)`` samples of negligible length."""
    speed = hostspeed.SpeedProbe()
    for start, slowdown in samples:
        speed.starts.append(start)
        speed.durations.append(slowdown * hostspeed.REFERENCE_PROBE_S)
    return speed


def test_normalize_rates_a_span_by_the_probes_around_it():
    ref = hostspeed.REFERENCE_PROBE_S
    slower = 2.0**hostspeed.SENSITIVITY
    speed = _speed((9.5, 2.0), (10.5, 2.0), (11.5, 2.0), (30.0, 1.0))
    # Twice the reference time per probe: the package ran ``slower``; the
    # two probes' own time inside the span is not the package's.
    assert speed.normalize(10.0, 12.0) == pytest.approx((2.0 - 2 * 2.0 * ref) / slower)
    # A span with no probe inside is rated by the nearer probe outside it.
    assert speed.normalize(29.0, 29.5) == pytest.approx(0.5 / slower)
    assert hostspeed.SpeedProbe().normalize(0.0, 1.0) is None


def test_normalize_cuts_a_span_at_every_probe():
    ref = hostspeed.REFERENCE_PROBE_S
    # Five seconds at the reference speed, then five at half of it.
    speed = _speed(*[(float(t), 1.0 if t < 5 else 2.0) for t in range(10)])
    expected = 5 * (1.0 - ref) + 5 * (1.0 - 2.0 * ref) / 2.0**hostspeed.SENSITIVITY
    assert speed.normalize(0.0, 10.0) == pytest.approx(expected)


def test_probe_samples_while_started():
    speed = hostspeed.SpeedProbe()
    with speed:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert len(speed.durations) >= 3
    assert speed.starts == sorted(speed.starts)


def test_wall_ref_s_is_the_median_pass_in_reference_seconds():
    ops = [
        ("fig5", lambda: experiments.fig5_loss_function(samples=31), workloads._one),
        ("fails", lambda: 1 / 0, workloads._one),
    ]
    outcome = workloads._timed_ops(ops)
    assert len(outcome.segment_ms) == 2
    assert sum(outcome.segment_ms) <= 1000 * outcome.wall_s
    assert set(outcome.digests) == {"fig5"} and len(outcome.errors) == 1

    # Probes just before each pass: the reference speed, then half of it.
    speed = _speed((-0.3, 1.0), (-0.2, 1.0), (-0.1, 1.0), (99.7, 2.0), (99.8, 2.0), (99.9, 2.0))
    passes = [
        workloads.PassResult(segments=[(0.0, 0.003), (0.003, 0.008)]),
        # A slower host: 10 ms of host time is fewer reference ms.
        workloads.PassResult(segments=[(100.0, 100.008), (100.008, 100.010)]),
        workloads.PassResult(segments=[(200.0, 200.0005)]),
    ]
    slow_pass = 0.010 / 2.0**hostspeed.SENSITIVITY
    # The pass cut short is left out.
    assert metrics.pass_ref_s(passes, speed) == pytest.approx([0.008, slow_pass])
    wall_ref_s, unit = metrics.end_to_end(passes, speed, 0.5, 1.0)["wall_ref_s"]
    assert (wall_ref_s, unit) == (pytest.approx((0.008 + slow_pass) / 2), "s")


def _bindings() -> dict:
    """Every repro module global and traced class attribute, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for key, value in vars(module).items():
                if callable(value):
                    seen[(name, key)] = value
    for target in tracing.TARGETS:
        owner, attr, cls = tracing._resolve(target.where)
        if cls is not None:
            seen[(target.where, attr)] = cls.__dict__[attr]
    return seen


def test_install_then_uninstall_restores_every_function():
    before = _bindings()
    original = flowsim.water_fill_array
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # Name-bound imports are rebound too, not just the defining module.
        assert flowsim.water_fill_array is not original
        assert allocation.water_fill_array is not original
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert flowsim.water_fill_array is original


def test_name_bound_import_is_traced():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        flowsim.water_fill_array(np.array([1e9, 1e9]), np.ones(2), 1e9)
    finally:
        tracer.uninstall()
    assert tracer.calls["fluid.allocation.water_fill_array"] == 1
    problems = metrics.self_check("fabric-serve", dict(tracer.calls))
    assert any("service.daemon was predicted to run" in p for p in problems)


def test_self_times_partition_the_outer_span():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        views = [FlowView(f"f{i}", 1e9, 1e8 - 1e7 * i, 1e7 * i, 1e8) for i in range(3)]
        MLTCPWeighted().allocate(views, 1e9)
    finally:
        tracer.uninstall()
    outer = tracer.inclusive["fluid.allocation.allocate"]
    parts = tracer.self_s["fluid.allocation.allocate"] + tracer.self_s["fluid.allocation.water_fill"]
    assert tracer.calls["fluid.allocation.water_fill"] == 1
    assert parts == pytest.approx(outer, rel=1e-9)
