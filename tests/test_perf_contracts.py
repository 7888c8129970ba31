"""The fast-path equivalence and regression-gate contracts.

Two halves:

* **Equivalence** — the optimized tree must reproduce, bit for bit, the
  fingerprints captured on the pre-optimization tree
  (``tests/fixtures/perf_contracts_seed.json``; see
  ``tests/perf_fixtures.py`` for what is fingerprinted and why event
  counts are excluded).  Every float is compared via its ``hex()``
  rendering, so a single-ulp drift anywhere in a run fails loudly.
* **The gate itself** — ``repro.harness.perfbench`` and the
  ``repro bench-compare`` CLI: report parsing in both formats, baseline
  round-trips, regression/missing semantics, and the shared
  ``repro.cliutil`` exit codes.

Plus the allocation-cache protocol the fluid fast path leans on:
``AllocationPolicy.cache_key`` must be stable exactly when reusing the
previous rates is sound; the size dispatch between the scalar and
array fluid engines, which must be invisible in every output; and a
static gate: no function of a hot-path module loads an Enum member.
"""

import ast
import enum
import importlib
import json
import re
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.aggressiveness import (
    LinearAggressiveness,
    QuadraticAggressiveness,
    ReciprocalAggressiveness,
)
from repro.faults import FaultEvent, FaultSchedule
from repro.fluid import (
    PDQ,
    PIAS,
    SRPT,
    FairShare,
    FluidSimulator,
    MLTCPWeighted,
    PlacedJob,
    run_fluid,
    run_network_fluid,
)
from repro.fluid import flowsim, network
from repro.fluid.allocation import FlowView
from repro.guards import GuardRail
from repro.harness.perfbench import (
    DEFAULT_REGRESSION_THRESHOLD,
    BenchStat,
    compare,
    load_report,
    write_baseline,
)
from repro.workloads import JobSpec

from .perf_fixtures import (
    FIXTURE_PATH,
    SCALAR_CASES,
    SCALAR_GOLDENS_PATH,
    fluid_fingerprint,
    network_fluid_fingerprint,
    packet_fingerprint,
    water_fill_fingerprint,
)
from .test_chaos import small_spec


@pytest.fixture(scope="module")
def seed_fixture():
    return json.loads(FIXTURE_PATH.read_text())


class TestSeedEquivalence:
    """The optimized tree reproduces the seed tree's floats exactly."""

    def test_fluid_run_is_bit_identical(self, seed_fixture):
        assert fluid_fingerprint() == seed_fixture["fluid"]

    def test_network_fluid_run_is_bit_identical(self, seed_fixture):
        assert network_fluid_fingerprint() == seed_fixture["network_fluid"]

    def test_packet_run_is_bit_identical(self, seed_fixture):
        assert packet_fingerprint() == seed_fixture["packet"]

    def test_water_fill_vectors_are_bit_identical(self, seed_fixture):
        assert water_fill_fingerprint() == seed_fixture["water_fill"]


class TestScalarEngineGoldens:
    """The scalar fluid paths the seed fixture does not reach, pinned by hex.

    PDQ and PIAS allocate through ``FlowView`` progress fields, F3 reads
    ``FlowView.bytes_ratio`` instead of the inline linear weights, the
    guarded fault run goes through ``_apply_restarts_scalar``,
    ``compute_scale`` and ``_check_allocation``, and the fabric run steps
    the network simulator's scalar engine through a reroute.
    """

    @pytest.mark.parametrize("name", list(SCALAR_CASES))
    def test_matches_golden(self, name):
        golden = json.loads(SCALAR_GOLDENS_PATH.read_text())
        assert SCALAR_CASES[name]() == golden[name]


SRC = Path(__file__).resolve().parent.parent / "src"
_HOT_PATH_MARKER = re.compile(r"^# repro-lint: hot-path-module$", re.MULTILINE)


def _hot_path_modules():
    """``repro`` modules declaring themselves hot-path, as dotted names."""
    return sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in SRC.joinpath("repro").rglob("*.py")
        if _HOT_PATH_MARKER.search(path.read_text())
    )


def _enum_member_loads(module_name):
    """``(function, line, source)`` of each Enum attribute load in a function.

    An attribute load whose base name is a module global bound to an
    ``enum.Enum`` subclass goes through the Enum metaclass on every
    execution (``EnumType.__getattr__`` on CPython 3.11), several times the
    cost of a module-global load.
    """
    module = importlib.import_module(module_name)
    enum_globals = {
        name
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, enum.Enum)
    }
    tree = ast.parse(Path(module.__file__).read_text())
    loads = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for statement in func.body:
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in enum_globals
                ):
                    loads.append((func.name, node.lineno, ast.unparse(node)))
    return loads


class TestHotPathEnumLoads:
    """No function of a hot-path module loads an Enum member.

    The fluid engines test phases once per flow per step; through the
    Enum metaclass each such load costs several times a module constant
    (docs/PERFORMANCE.md, "Enum member loads").  Bind members to module
    constants once instead.  No output shows the difference, so this
    gate is what keeps it from coming back.
    """

    def test_hot_path_modules_are_found(self):
        assert "repro.fluid.flowsim" in _hot_path_modules()

    @pytest.mark.parametrize("module_name", _hot_path_modules())
    def test_no_enum_member_load_in_a_function(self, module_name):
        assert _enum_member_loads(module_name) == []


def _closures_in_methods(module_name):
    """``(method, line)`` of each ``lambda`` or nested ``def`` inside a
    method of a class of ``module_name``."""
    tree = ast.parse(Path(importlib.import_module(module_name).__file__).read_text())
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for statement in method.body:
                for node in ast.walk(statement):
                    if isinstance(
                        node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        found.append((f"{cls.name}.{method.name}", node.lineno))
    return found


class TestNoPerPacketClosures:
    """No method of ``repro.simulator.link`` builds a closure.

    A link method runs once per packet per hop; a delivery that carried its
    packet in a closure cost an allocation when scheduled and an extra
    Python frame when it fired.  ``Simulator.schedule_call`` keeps the
    packet in the heap entry instead (docs/PERFORMANCE.md, "Packet path").
    No output shows the difference, so this gate keeps it from coming back.
    """

    def test_no_lambda_or_nested_def_in_a_link_method(self):
        assert _closures_in_methods("repro.simulator.link") == []


def _stat(name, min_s, mean_s=None, rounds=10):
    return BenchStat(
        name=name,
        min_seconds=min_s,
        mean_seconds=min_s * 1.1 if mean_s is None else mean_s,
        rounds=rounds,
    )


class TestPerfbench:
    def test_benchstat_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            _stat("t", 0.0)
        with pytest.raises(ValueError):
            _stat("t", 1.0, rounds=0)

    def test_load_raw_pytest_benchmark_report(self, tmp_path):
        raw = {
            "benchmarks": [
                {"name": "bench_a", "stats": {"min": 0.01, "mean": 0.012, "rounds": 30}},
                {"name": "bench_b", "stats": {"min": 0.5, "mean": 0.55, "rounds": 5}},
            ]
        }
        path = tmp_path / "raw.json"
        path.write_text(json.dumps(raw))
        stats = load_report(path)
        assert set(stats) == {"bench_a", "bench_b"}
        assert stats["bench_a"].min_seconds == pytest.approx(0.01)
        assert stats["bench_b"].rounds == 5

    def test_baseline_roundtrip(self, tmp_path):
        stats = {"bench_a": _stat("bench_a", 0.01), "bench_b": _stat("bench_b", 0.5)}
        path = write_baseline(tmp_path / "base.json", stats, note="test baseline")
        loaded = load_report(path)
        assert loaded == stats
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-perf-baseline/1"
        assert payload["note"] == "test baseline"
        assert list(payload["benchmarks"]) == ["bench_a", "bench_b"]  # sorted

    def test_write_baseline_refuses_empty(self, tmp_path):
        with pytest.raises(ValueError):
            write_baseline(tmp_path / "empty.json", {})

    def test_load_report_rejects_unknown_shape(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"results": []}')
        with pytest.raises(ValueError):
            load_report(path)

    def test_compare_flags_regressions_beyond_threshold(self):
        baseline = {"b": _stat("b", 0.100)}
        within = compare({"b": _stat("b", 0.114)}, baseline)
        assert within.ok and not within.rows[0].regressed
        beyond = compare({"b": _stat("b", 0.116)}, baseline)
        assert not beyond.ok
        assert [row.name for row in beyond.regressions] == ["b"]

    def test_compare_speedup_direction(self):
        cmp = compare({"b": _stat("b", 0.05)}, {"b": _stat("b", 0.10)})
        assert cmp.rows[0].speedup == pytest.approx(2.0)

    def test_missing_benchmark_is_a_violation(self):
        cmp = compare({}, {"gone": _stat("gone", 0.1)})
        assert cmp.missing == ("gone",)
        assert not cmp.ok

    def test_extra_current_benchmarks_are_ignored(self):
        cmp = compare(
            {"a": _stat("a", 0.1), "new": _stat("new", 9.0)},
            {"a": _stat("a", 0.1)},
        )
        assert cmp.ok and len(cmp.rows) == 1

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare({}, {}, threshold=-0.1)

    def test_nan_threshold_rejected(self):
        # NaN fails `threshold < 0` and every row's regression test, so it
        # used to turn the gate off.
        with pytest.raises(ValueError, match="threshold"):
            compare({}, {}, threshold=float("nan"))

    def test_default_threshold_matches_the_issue_gate(self):
        assert DEFAULT_REGRESSION_THRESHOLD == pytest.approx(0.15)


class TestBenchCompareCli:
    def _write_baseline(self, tmp_path, name, min_map):
        stats = {n: _stat(n, m) for n, m in min_map.items()}
        return write_baseline(tmp_path / name, stats)

    def test_clean_comparison_exits_zero(self, tmp_path, capsys):
        base = self._write_baseline(tmp_path, "base.json", {"b": 0.1})
        cur = self._write_baseline(tmp_path, "cur.json", {"b": 0.05})
        assert main(["bench-compare", str(cur), "--baseline", str(base)]) == 0
        out = capsys.readouterr().out
        assert "2.00x" in out

    def test_regression_exits_one(self, tmp_path, capsys):
        base = self._write_baseline(tmp_path, "base.json", {"b": 0.1})
        cur = self._write_baseline(tmp_path, "cur.json", {"b": 0.2})
        assert main(["bench-compare", str(cur), "--baseline", str(base)]) == 1
        assert "violation" in capsys.readouterr().err

    def test_missing_benchmark_exits_one(self, tmp_path, capsys):
        base = self._write_baseline(tmp_path, "base.json", {"b": 0.1, "gone": 0.1})
        cur = self._write_baseline(tmp_path, "cur.json", {"b": 0.1})
        assert main(["bench-compare", str(cur), "--baseline", str(base)]) == 1
        assert "gone" in capsys.readouterr().err

    def test_threshold_flag_loosens_the_gate(self, tmp_path, capsys):
        base = self._write_baseline(tmp_path, "base.json", {"b": 0.1})
        cur = self._write_baseline(tmp_path, "cur.json", {"b": 0.18})
        argv = ["bench-compare", str(cur), "--baseline", str(base)]
        assert main(argv + ["--threshold", "1.0"]) == 0
        capsys.readouterr()
        assert main(argv) == 1
        capsys.readouterr()

    def test_unreadable_report_exits_two(self, tmp_path, capsys):
        base = self._write_baseline(tmp_path, "base.json", {"b": 0.1})
        missing = tmp_path / "nope.json"
        assert main(["bench-compare", str(missing), "--baseline", str(base)]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_save_writes_compact_baseline(self, tmp_path, capsys):
        base = self._write_baseline(tmp_path, "base.json", {"b": 0.1})
        cur = self._write_baseline(tmp_path, "cur.json", {"b": 0.05})
        saved = tmp_path / "saved.json"
        assert main([
            "bench-compare", str(cur), "--baseline", str(base),
            "--save", str(saved), "--note", "from test",
        ]) == 0
        capsys.readouterr()
        assert load_report(saved) == load_report(cur)
        assert json.loads(saved.read_text())["note"] == "from test"

    def test_select_restricts_the_gate_to_matching_baseline_entries(
        self, tmp_path, capsys
    ):
        """`--select` lets a partial report gate only its own benchmarks."""
        base = self._write_baseline(
            tmp_path, "base.json", {"test_scale_a": 0.1, "test_other": 0.1}
        )
        cur = self._write_baseline(tmp_path, "cur.json", {"test_scale_a": 0.1})
        argv = ["bench-compare", str(cur), "--baseline", str(base)]
        # Without --select the absent test_other is a violation...
        assert main(argv) == 1
        capsys.readouterr()
        # ...with it, only the matching subset is compared.
        assert main(argv + ["--select", "test_scale_*"]) == 0
        out = capsys.readouterr().out
        assert "test_scale_a" in out and "test_other" not in out

    def test_select_matching_nothing_is_a_usage_error(self, tmp_path, capsys):
        base = self._write_baseline(tmp_path, "base.json", {"b": 0.1})
        cur = self._write_baseline(tmp_path, "cur.json", {"b": 0.1})
        argv = [
            "bench-compare", str(cur), "--baseline", str(base),
            "--select", "nope_*",
        ]
        assert main(argv) == 2
        assert "matches no benchmark" in capsys.readouterr().err

    def test_committed_scale_baseline_meets_the_3x_criterion(self, capsys):
        """The PR-9 acceptance command: vectorized tree vs the scalar seed."""
        argv = [
            "bench-compare", "bench_reports/perf_baseline.json",
            "--baseline", "bench_reports/perf_scale_seed.json",
            "--select", "test_scale_*", "--threshold", "1000",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        rows = {
            line.split()[0]: float(line.split()[-1].rstrip("x"))
            for line in out.splitlines()
            if line.startswith("test_scale_")
        }
        assert rows["test_scale_network_fluid_1000x64"] >= 3.0
        assert rows["test_scale_single_link_10k_flows"] >= 3.0

    def test_committed_baseline_shows_the_claimed_speedups(self, capsys):
        """The PR's acceptance command: optimized baseline vs the seed."""
        assert main(["bench-compare", "bench_reports/perf_baseline.json"]) == 0
        out = capsys.readouterr().out
        rows = {
            line.split()[0]: float(line.split()[-1].rstrip("x"))
            for line in out.splitlines()
            if line.startswith("test_")
        }
        assert rows["test_event_engine_throughput"] >= 2.0
        assert rows["test_fluid_four_jobs_benchmark"] >= 1.5


def _views():
    return [
        FlowView(flow_id="a", demand_bps=1e9, remaining_bits=5e8, sent_bits=5e8,
                 total_bits=1e9),
        FlowView(flow_id="b", demand_bps=2e9, remaining_bits=1e9, sent_bits=0.0,
                 total_bits=1e9),
    ]


class TestAllocationCacheKeys:
    def test_fair_share_key_stable_across_progress(self):
        policy = FairShare()
        views = _views()
        key1 = policy.cache_key(views, 1e9)
        views[0].sent_bits += 1e6  # progress alone must not invalidate
        assert policy.cache_key(views, 1e9) == key1

    def test_fair_share_key_changes_with_population_and_capacity(self):
        policy = FairShare()
        views = _views()
        key = policy.cache_key(views, 1e9)
        assert policy.cache_key(views[:1], 1e9) != key
        assert policy.cache_key(views, 2e9) != key

    def test_mltcp_default_is_exact_so_never_cached(self):
        assert MLTCPWeighted().cache_key(_views(), 1e9) is None


def _jobs(jitter_sigma=0.0, volume_jitter_fraction=0.0):
    return [
        JobSpec(
            name="gpt3",
            comm_bits=8e9,
            demand_gbps=40.0,
            compute_time=0.12,
            jitter_sigma=jitter_sigma,
            volume_jitter_fraction=volume_jitter_fraction,
        ),
        JobSpec(
            name="gpt2a",
            comm_bits=2e9,
            demand_gbps=40.0,
            compute_time=0.05,
            jitter_sigma=jitter_sigma,
            volume_jitter_fraction=volume_jitter_fraction,
        ),
        JobSpec(
            name="gpt2b",
            comm_bits=2e9,
            demand_gbps=40.0,
            compute_time=0.05,
            start_offset=0.01,
            jitter_sigma=jitter_sigma,
            iteration_limit=3,
            volume_jitter_fraction=volume_jitter_fraction,
        ),
    ]


def _fingerprint(result):
    """Hex-exact record of a run's iterations and end time."""
    return (
        [
            (
                it.job,
                it.index,
                it.comm_start.hex(),
                it.comm_end.hex(),
                it.iteration_end.hex(),
            )
            for it in result.iterations
        ],
        result.end_time.hex(),
    )


class _FairShareSubclass(FairShare):
    """A subclass keeps FairShare's weights but may override anything."""


class TestEngineDispatch:
    """The scalar and array engines behind the size dispatch are twins.

    ``FluidSimulator``/``NetworkFluidSimulator`` route populations under
    ``_VECTORIZED_MIN_FLOWS`` to the original scalar engine (numpy's
    per-op cost dominates small runs) and larger ones to the array
    engine, which on the single link takes only ``FairShare`` and
    ``MLTCPWeighted``.  Forcing the threshold down must not change a
    single bit of any output — iterations, segments, end time.
    """

    @pytest.mark.parametrize("policy_factory", [FairShare, MLTCPWeighted, SRPT])
    def test_single_link_engines_bit_identical(self, monkeypatch, policy_factory):
        jobs = _jobs(jitter_sigma=0.002, volume_jitter_fraction=0.05)
        scalar = run_fluid(
            jobs, 50.0, policy=policy_factory(), max_iterations=4, seed=3
        )
        monkeypatch.setattr("repro.fluid.flowsim._VECTORIZED_MIN_FLOWS", 1)
        array = run_fluid(
            jobs, 50.0, policy=policy_factory(), max_iterations=4, seed=3
        )
        assert _fingerprint(scalar) == _fingerprint(array)
        assert [
            (seg.start.hex(), seg.end.hex(),
             {k: v.hex() for k, v in seg.rates_bps.items()})
            for seg in scalar.segments
        ] == [
            (seg.start.hex(), seg.end.hex(),
             {k: v.hex() for k, v in seg.rates_bps.items()})
            for seg in array.segments
        ]

    @pytest.mark.parametrize(
        "policy, flows, engine",
        [
            (FairShare, flowsim._VECTORIZED_MIN_FLOWS, "_run_arrays"),
            (MLTCPWeighted, flowsim._VECTORIZED_MIN_FLOWS, "_run_arrays"),
            (SRPT, flowsim._VECTORIZED_MIN_FLOWS, "_run_scalar"),
            (PDQ, flowsim._VECTORIZED_MIN_FLOWS, "_run_scalar"),
            (PIAS, flowsim._VECTORIZED_MIN_FLOWS, "_run_scalar"),
            (_FairShareSubclass, flowsim._VECTORIZED_MIN_FLOWS, "_run_scalar"),
            (FairShare, flowsim._VECTORIZED_MIN_FLOWS - 1, "_run_scalar"),
            (MLTCPWeighted, flowsim._VECTORIZED_MIN_FLOWS - 1, "_run_scalar"),
        ],
        ids=[
            "fair-large", "mltcp-large", "srpt-large", "pdq-large",
            "pias-large", "fair-subclass-large", "fair-small", "mltcp-small",
        ],
    )
    def test_single_link_dispatch_rule(self, monkeypatch, policy, flows, engine):
        """The array engine takes only large FairShare/MLTCPWeighted runs;
        any other policy, a subclass included, runs on the scalar one."""
        taken = []
        for name in ("_run_arrays", "_run_scalar"):
            original = getattr(FluidSimulator, name)

            def spy(self, *args, _name=name, _original=original):
                taken.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(FluidSimulator, name, spy)
        jobs = [
            JobSpec(name=f"j{i:02d}", comm_bits=1e8, demand_gbps=10.0, compute_time=0.01)
            for i in range(flows)
        ]
        run_fluid(jobs, 50.0, policy=policy(), end_time=0.05)
        assert taken == [engine]

    @pytest.mark.parametrize("mltcp", [True, False])
    def test_network_engines_bit_identical(self, monkeypatch, mltcp):
        from repro.fluid import PlacedJob, run_network_fluid

        placements = [
            PlacedJob(job=job, links=("up", "spine") if i % 2 else ("up",))
            for i, job in enumerate(_jobs(jitter_sigma=0.002))
        ]
        caps = {"up": 50.0, "spine": 30.0}
        policy = MLTCPWeighted() if mltcp else FairShare()
        scalar = run_network_fluid(
            placements, caps, policy=policy, max_iterations=4, seed=3
        )
        monkeypatch.setattr("repro.fluid.network._VECTORIZED_MIN_FLOWS", 1)
        array = run_network_fluid(
            placements, caps, policy=policy, max_iterations=4, seed=3
        )
        assert _fingerprint(scalar) == _fingerprint(array)

    def test_network_fault_branch_engines_bit_identical(self, monkeypatch):
        """Reroutes, stalled flows, degraded links and guards on both engines.

        A spine failure reroutes half the cross-rack jobs, a bandwidth
        fault then squeezes a link the rerouted and native flows share,
        and a host-link outage leaves one flow allocated across a severed
        link, which the record-mode rail logs as ``route-liveness``.
        """
        from repro.faults import FaultEvent, FaultSchedule
        from repro.fluid.fabric import FluidFabricFaults, place_on_fabric
        from repro.fluid.network import run_network_fluid
        from repro.guards import GuardRail
        from repro.workloads import cross_rack_scenario
        from repro.workloads.placement import place_jobs

        spec = small_spec()
        placements = place_jobs(
            cross_rack_scenario(spec.n_hosts // 2, jitter_sigma=0.0005),
            spec,
            policy="spread",
            seed=2,
        )
        placed = place_on_fabric(spec, placements)
        schedule = FaultSchedule(
            events=(
                FaultEvent("spine_down", time=0.05, duration=0.3, spine="spine0"),
                FaultEvent(
                    "bandwidth", time=0.1, duration=0.15,
                    link="rack2->spine1", factor=0.5,
                ),
                FaultEvent(
                    "link_down", time=0.2, duration=0.1, link=placed[0].links[0]
                ),
            ),
            seed=2,
        )

        def run():
            rail = GuardRail("record")
            result = run_network_fluid(
                placed,
                spec.capacities_gbps(),
                max_iterations=10,
                seed=3,
                quantum=min(0.02, placements[0].job.ideal_iteration_time / 10.0),
                fabric_faults=FluidFabricFaults(spec, schedule),
                guards=rail,
            )
            return (
                _fingerprint(result),
                result.fault_log,
                {link: bits.hex()
                 for link, bits in result.delivered_bits_by_link.items()},
                [(v.guard, v.subject, v.time.hex(), v.message)
                 for v in rail.violations],
            )

        scalar = run()
        monkeypatch.setattr("repro.fluid.network._VECTORIZED_MIN_FLOWS", 1)
        array = run()
        assert scalar == array
        _, fault_log, delivered, guard_events = scalar
        assert len(fault_log) == 6
        assert delivered
        assert {event[0] for event in guard_events} == {"route-liveness"}


@st.composite
def _job_specs(draw, n, volume_jitter):
    """``n`` jittered periodic jobs with drawn sizes, gaps and limits."""
    jobs = []
    for i in range(n):
        jobs.append(
            JobSpec(
                name=f"job{i}",
                comm_bits=draw(st.floats(2e8, 4e9)),
                demand_gbps=draw(st.floats(5.0, 60.0)),
                compute_time=draw(st.sampled_from([0.0, 0.01, 0.05, 0.12])),
                start_offset=draw(st.floats(0.0, 0.2)),
                jitter_sigma=draw(st.sampled_from([0.0, 0.001, 0.01])),
                iteration_limit=draw(st.none() | st.integers(1, 6)),
                volume_jitter_fraction=(
                    draw(st.sampled_from([0.0, 0.05])) if volume_jitter else 0.0
                ),
            )
        )
    return jobs


@st.composite
def _single_link_faults(draw, names, end_time):
    """0–3 link flaps, bandwidth dips, stragglers and job restarts."""
    events = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(
            st.sampled_from(["link_down", "bandwidth", "straggler", "job_restart"])
        )
        time = draw(st.floats(0.0, end_time))
        duration = draw(st.floats(0.01, 0.5))
        if kind == "link_down":
            event = FaultEvent(kind, time=time, duration=duration)
        elif kind == "bandwidth":
            event = FaultEvent(
                kind, time=time, duration=duration,
                factor=draw(st.floats(0.1, 0.9)),
            )
        elif kind == "straggler":
            event = FaultEvent(
                kind, time=time, duration=duration,
                job=draw(st.sampled_from(names)),
                factor=draw(st.floats(1.5, 4.0)),
            )
        else:
            event = FaultEvent(
                kind, time=time, job=draw(st.sampled_from(names)),
                restart_delay=draw(st.floats(0.0, 0.2)),
            )
        events.append(event)
    return FaultSchedule(events=tuple(events))


@st.composite
def _single_link_scenarios(draw):
    jobs = draw(_job_specs(draw(st.integers(2, 6)), volume_jitter=True))
    end_time = draw(st.floats(0.3, 1.5))
    return dict(
        jobs=jobs,
        capacity_gbps=draw(st.floats(10.0, 100.0)),
        policy=draw(st.sampled_from([FairShare, MLTCPWeighted, SRPT, PIAS])),
        end_time=end_time,
        faults=draw(_single_link_faults([job.name for job in jobs], end_time)),
        seed=draw(st.integers(0, 2**16)),
    )


#: Both policies the network engines take, MLTCP under a linear F (the
#: paper's or a drawn one) and two of the paper's non-linear ones.
_network_policies = st.one_of(
    st.just(FairShare()),
    st.sampled_from(
        [LinearAggressiveness(), ReciprocalAggressiveness(), QuadraticAggressiveness()]
    ).map(MLTCPWeighted),
    st.builds(
        LinearAggressiveness, slope=st.floats(0.0, 4.0), intercept=st.floats(0.05, 2.0)
    ).map(MLTCPWeighted),
)


@st.composite
def _network_scenarios(draw):
    links = [f"link{k}" for k in range(draw(st.integers(1, 4)))]
    jobs = draw(_job_specs(draw(st.integers(2, 6)), volume_jitter=False))
    placements = [
        PlacedJob(
            job=job,
            links=tuple(draw(st.lists(st.sampled_from(links), min_size=1, unique=True))),
        )
        for job in jobs
    ]
    return dict(
        placements=placements,
        capacities_gbps={link: draw(st.floats(10.0, 100.0)) for link in links},
        policy=draw(_network_policies),
        max_iterations=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 2**16)),
    )


def _segments_hex(result):
    return [
        (seg.start.hex(), seg.end.hex(),
         {k: v.hex() for k, v in seg.rates_bps.items()})
        for seg in result.segments
    ]


class TestGeneratedEngineDispatch:
    """Scalar ≡ array on generated scenarios, for both simulators.

    Each scenario runs at the default threshold and with the array engine
    forced, and every output must agree bit for bit.  Single-link runs are
    bounded by ``end_time``: SRPT can starve a job forever (Figure 2(b)'s
    head-of-line blocking), so a ``max_iterations`` bound could spend the
    whole step budget.
    """

    @settings(max_examples=100, deadline=None)
    @given(_single_link_scenarios())
    def test_single_link_engines_agree(self, scenario):
        def run():
            rail = GuardRail("record")
            result = run_fluid(
                scenario["jobs"],
                scenario["capacity_gbps"],
                policy=scenario["policy"](),
                end_time=scenario["end_time"],
                seed=scenario["seed"],
                faults=scenario["faults"],
                guards=rail,
            )
            return (
                _fingerprint(result),
                _segments_hex(result),
                result.fault_log,
                [(v.guard, v.subject, v.time.hex(), v.message)
                 for v in rail.violations],
            )

        default = run()
        with patch.object(flowsim, "_VECTORIZED_MIN_FLOWS", 1):
            array = run()
        assert default == array

    @settings(max_examples=100, deadline=None)
    @given(_network_scenarios())
    def test_network_engines_agree(self, scenario):
        default = run_network_fluid(**scenario)
        with patch.object(network, "_VECTORIZED_MIN_FLOWS", 1):
            array = run_network_fluid(**scenario)
        assert _fingerprint(default) == _fingerprint(array)
