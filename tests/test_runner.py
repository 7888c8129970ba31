"""Tests for the parallel/cached/instrumented experiment runner.

Covers the three runner features (process-pool execution, the
content-addressed result cache, run-report telemetry) plus the contracts
the rest of the repo relies on: parallel results bit-identical to
sequential, cache corruption never fatal, and the JSON run-report matching
the schema checked into docs/.
"""

import json
import os
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.fluid.flowsim import Phase
from repro.harness.cache import ResultCache, default_cache_dir, load_result, point_key
from repro.harness import runner as runner_module
from repro.harness.runner import ExperimentRunner
from repro.harness.telemetry import (
    RUN_REPORT_SCHEMA,
    RunTelemetry,
    validate_run_report,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


# Experiments live at module top level so they pickle by reference into
# process-pool workers.

def _noisy_metric(seed: int, scale: float = 1.0) -> float:
    return float(np.random.default_rng(seed).normal(10.0, 1.0)) * scale


def _fluid_final_time(seed: int, jobs: int = 2) -> float:
    from repro.fluid.allocation import MLTCPWeighted
    from repro.fluid.flowsim import run_fluid
    from repro.workloads.presets import gpt2_heavy_job, identical_jobs

    result = run_fluid(
        identical_jobs(gpt2_heavy_job(), jobs),
        50.0,
        policy=MLTCPWeighted(),
        max_iterations=20,
        seed=seed,
    )
    return float(result.mean_iteration_by_round()[-5:].mean())


class _Touch:
    """Unpickles as ``Path(target).touch()``: foreign code in a payload."""

    def __init__(self, target: Path) -> None:
        self.target = target

    def __reduce__(self):
        return (Path.touch, (self.target,))


def _marking_square(value: int, marker_dir: str) -> int:
    """Square ``value``, leaving a file behind so tests can detect reruns."""
    Path(marker_dir, f"ran_{value}").write_text("x")
    return value * value


class TestRunner:
    def test_results_positional_and_ordered(self):
        runner = ExperimentRunner(name="order")
        results = runner.run_points(
            _noisy_metric, [{"seed": s} for s in (5, 1, 3)]
        )
        assert results == [_noisy_metric(5), _noisy_metric(1), _noisy_metric(3)]

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ExperimentRunner(workers=0)

    def test_parallel_identical_to_sequential(self):
        points = [{"seed": s, "scale": sc} for s in range(4) for sc in (1.0, 2.0)]
        sequential = ExperimentRunner(name="seq").run_points(_noisy_metric, points)
        runner = ExperimentRunner(name="par", workers=3)
        parallel = runner.run_points(_noisy_metric, points)
        assert parallel == sequential
        assert all(r.mode == "worker" for r in runner.telemetry.points)

    def test_experiment_errors_propagate(self):
        def boom(seed):
            raise RuntimeError("experiment failed")

        with pytest.raises(RuntimeError, match="experiment failed"):
            ExperimentRunner(name="boom").run_points(boom, [{"seed": 1}])

    def test_unpicklable_experiment_falls_back_to_sequential(self):
        runner = ExperimentRunner(name="lambda", workers=4)
        results = runner.run_points(
            lambda seed: seed * 2.0, [{"seed": s} for s in range(3)]
        )
        assert results == [0.0, 2.0, 4.0]
        assert any("not picklable" in note for note in runner.telemetry.notes)
        assert all(r.mode == "sequential" for r in runner.telemetry.points)


class TestSharedPool:
    """Worker pools are cached per worker count and reused across runs."""

    def test_pool_reused_across_run_points_calls(self):
        runner = ExperimentRunner(name="reuse", workers=2)
        runner.run_points(_noisy_metric, [{"seed": s} for s in range(3)])
        first = runner_module._SHARED_POOLS.get(2)
        assert first is not None
        runner.run_points(_noisy_metric, [{"seed": s} for s in range(3)])
        assert runner_module._SHARED_POOLS.get(2) is first

    def test_pool_shared_between_runner_instances(self):
        a = ExperimentRunner(name="first", workers=2)
        b = ExperimentRunner(name="second", workers=2)
        a.run_points(_noisy_metric, [{"seed": 0}])
        pool = runner_module._SHARED_POOLS.get(2)
        b.run_points(_noisy_metric, [{"seed": 1}])
        assert runner_module._SHARED_POOLS.get(2) is pool

    def test_retire_drops_pool_from_cache(self):
        pool = runner_module._shared_pool(2)
        assert runner_module._SHARED_POOLS.get(2) is pool
        runner_module._retire_shared_pool(pool)
        assert 2 not in runner_module._SHARED_POOLS
        # The next request transparently starts a fresh pool.
        fresh = runner_module._shared_pool(2)
        assert fresh is not pool
        assert fresh.submit(int, 3).result() == 3

    def test_reused_pool_results_match_sequential(self):
        sequential = ExperimentRunner(name="seq").run_points(
            _noisy_metric, [{"seed": s} for s in range(4)]
        )
        runner = ExperimentRunner(name="par", workers=2)
        runner.run_points(_noisy_metric, [{"seed": 9}])  # warm the pool
        parallel = runner.run_points(
            _noisy_metric, [{"seed": s} for s in range(4)]
        )
        assert [v.hex() for v in parallel] == [v.hex() for v in sequential]


class TestSweepParallel:
    """A seeded sweep of points on a pool equals the sequential run."""

    def test_sweep_workers4_identical_to_sequential(self):
        """Acceptance: seeded sweep with workers=4 == sequential, bit for bit."""
        points = [
            {"scale": scale, "seed": seed}
            for scale in (1.0, 2.0, 3.0)
            for seed in (1, 2, 3, 4)
        ]
        sequential = ExperimentRunner(name="noisy").run_points(_noisy_metric, points)
        parallel = ExperimentRunner(name="noisy", workers=4).run_points(
            _noisy_metric, points
        )
        assert len(parallel) == len(sequential) == 12
        assert parallel == sequential

    @pytest.mark.slow
    def test_fluid_experiment_parallel_identical(self):
        points = [{"jobs": 2, "seed": seed} for seed in (1, 2, 3)]
        sequential = ExperimentRunner(name="fluid").run_points(
            _fluid_final_time, points
        )
        parallel = ExperimentRunner(name="fluid", workers=4).run_points(
            _fluid_final_time, points
        )
        assert parallel == sequential
        assert float(np.mean(sequential)) == pytest.approx(1.8, rel=0.05)


class TestCache:
    def test_point_key_is_order_insensitive_and_distinct(self):
        base = point_key("exp", {"a": 1, "b": 2}, seed=3, version="1.0")
        assert base == point_key("exp", {"b": 2, "a": 1}, seed=3, version="1.0")
        assert base != point_key("other", {"a": 1, "b": 2}, seed=3, version="1.0")
        assert base != point_key("exp", {"a": 1, "b": 9}, seed=3, version="1.0")
        assert base != point_key("exp", {"a": 1, "b": 2}, seed=4, version="1.0")
        assert base != point_key("exp", {"a": 1, "b": 2}, seed=3, version="2.0")

    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key("exp", {"x": 1}, seed=0, version="1.0")
        assert cache.get(key) == (False, None)
        assert cache.put(key, {"answer": 42})
        assert cache.get(key) == (True, {"answer": 42})
        assert len(cache) == 1
        assert cache.clear() == 1
        assert cache.get(key) == (False, None)

    def test_hit_skips_recomputation(self, tmp_path):
        cache_dir = tmp_path / "cache"
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        points = [
            {"value": v, "marker_dir": str(marker_dir)} for v in (2, 3, 4)
        ]

        first = ExperimentRunner(name="sq", cache=ResultCache(cache_dir))
        assert first.run_points(_marking_square, points) == [4, 9, 16]
        assert first.telemetry.cache_misses == 3
        assert first.telemetry.cache_hits == 0
        assert len(list(marker_dir.iterdir())) == 3

        for marker in marker_dir.iterdir():
            marker.unlink()
        second = ExperimentRunner(name="sq", cache=ResultCache(cache_dir))
        assert second.run_points(_marking_square, points) == [4, 9, 16]
        assert second.telemetry.cache_hits == 3
        assert second.telemetry.cache_hit_rate >= 0.9
        assert list(marker_dir.iterdir()) == []  # nothing recomputed

    def test_corrupted_entry_discarded_not_fatal(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key("exp", {"x": 1}, seed=0, version="1.0")
        assert cache.put(key, 123)
        entry = tmp_path / key[:2] / f"{key}.pkl"
        entry.write_bytes(b"garbage that is not a cache entry")
        hit, value = cache.get(key)
        assert not hit and value is None
        assert not entry.exists()  # self-healed

        runner = ExperimentRunner(name="exp2", cache=ResultCache(tmp_path))
        runner.run_points(_noisy_metric, [{"seed": 1}])
        key2 = point_key("exp2", {}, seed=1)
        entry2 = tmp_path / key2[:2] / f"{key2}.pkl"
        entry2.write_bytes(entry2.read_bytes()[:10])  # truncate mid-header
        rerun = ExperimentRunner(name="exp2", cache=ResultCache(tmp_path))
        assert rerun.run_points(_noisy_metric, [{"seed": 1}]) == [
            _noisy_metric(1)
        ]
        assert rerun.telemetry.cache_misses == 1

    def test_result_types_round_trip(self, tmp_path):
        from repro.workloads.presets import gpt2_fast_job

        value = {
            "job": gpt2_fast_job(),
            "phase": Phase.COMPUTE,
            "times": np.linspace(0.0, 1.0, 5),
            "counts": np.arange(6, dtype=np.int32).reshape(2, 3),
            "mean": np.float64(0.25),
            "names": {"a", "b"},
            "frozen": frozenset({1}),
            "z": complex(1.0, -2.0),
        }
        cache = ResultCache(tmp_path)
        key = point_key("exp", {}, seed=0, version="1.0")
        assert cache.put(key, value)
        hit, loaded = cache.get(key)
        assert hit
        for name in ("times", "counts"):
            array = loaded.pop(name)
            assert array.dtype == value[name].dtype
            assert array.tobytes() == value.pop(name).tobytes()
        assert type(loaded["mean"]) is np.float64
        assert loaded == value

    def test_forged_entry_is_a_miss_not_run(self, tmp_path):
        """The checksum catches damage, not forgery: an entry whose valid
        checksum covers a call to foreign code is deleted unrun."""
        sentinel = tmp_path / "sentinel"
        cache = ResultCache(tmp_path / "cache")
        key = point_key("exp", {}, seed=0, version="1.0")
        assert cache.put(key, _Touch(sentinel))
        assert cache.get(key) == (False, None)
        assert not sentinel.exists()
        assert len(cache) == 0

    @pytest.mark.parametrize("module, name", [
        ("os", "system"),
        ("builtins", "eval"),
        ("repro.fluid.allocation", "FairShare"),  # a class, not a dataclass
        ("repro.__main__", "main"),  # importing it would run the CLI
        ("repro.harness.cache", "load_result"),
    ])
    def test_load_result_refuses_other_globals(self, module, name):
        payload = f"c{module}\n{name}\n.".encode("ascii")  # GLOBAL, STOP
        with pytest.raises(pickle.UnpicklingError, match=f"{module}.{name}"):
            load_result(payload)

    def test_put_fsyncs_each_entry(self, tmp_path, monkeypatch):
        """A sweep resumes from the cache, so a finished point must survive
        a host crash: every entry written is fsynced, once."""
        synced = []
        fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), fsync(fd)))
        cache = ResultCache(tmp_path)
        for x in range(3):
            assert cache.put(point_key("exp", {"x": x}, seed=0, version="1.0"), x)
        assert not cache.put(point_key("exp", {}, seed=0, version="1.0"), lambda: None)
        assert len(synced) == 3

    def test_unpicklable_result_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key("exp", {}, seed=0, version="1.0")
        assert not cache.put(key, lambda: None)
        assert len(cache) == 0

    def test_default_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert default_cache_dir() == tmp_path / "env"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"


class TestTelemetry:
    def test_run_report_validates_against_schema(self, tmp_path):
        telemetry = RunTelemetry("demo")
        runner = ExperimentRunner(
            name="demo",
            workers=2,
            cache=ResultCache(tmp_path),
            telemetry=telemetry,
        )
        points = [{"seed": s} for s in range(3)]
        runner.run_points(_noisy_metric, points)
        report = telemetry.as_report()
        assert validate_run_report(report) == []
        assert report["workers"] == 2
        assert report["totals"]["points"] == 3
        assert {p["mode"] for p in report["points"]} <= {"worker", "sequential"}

    def test_second_run_reports_hits_in_report(self, tmp_path):
        cache = ResultCache(tmp_path)
        points = [{"seed": s} for s in range(5)]
        ExperimentRunner(name="d", cache=cache).run_points(_noisy_metric, points)

        telemetry = RunTelemetry("d")
        rerun = ExperimentRunner(name="d", cache=cache, telemetry=telemetry)
        rerun.run_points(_noisy_metric, points)
        report = telemetry.as_report()
        assert report["totals"]["cache_hit_rate"] >= 0.9
        assert all(p["mode"] == "cached" for p in report["points"])
        assert all(p["events_processed"] == 0 for p in report["points"])

    def test_write_produces_valid_json(self, tmp_path):
        telemetry = RunTelemetry("w")
        ExperimentRunner(name="w", telemetry=telemetry).run_points(
            _noisy_metric, [{"seed": 0}]
        )
        path = telemetry.write(tmp_path / "sub" / "w.run.json")
        report = json.loads(path.read_text())
        assert validate_run_report(report) == []
        assert report["experiment"] == "w"

    def test_checked_in_schema_matches_builtin(self):
        on_disk = json.loads(
            (REPO_ROOT / "docs" / "run_report.schema.json").read_text()
        )
        assert on_disk == RUN_REPORT_SCHEMA

    def test_committed_run_reports_validate(self):
        """Every committed benchmark run-report is at the current schema."""
        paths = sorted((REPO_ROOT / "bench_reports").glob("*.run.json"))
        assert paths
        errors = {
            path.name: validate_run_report(json.loads(path.read_text()))
            for path in paths
        }
        assert errors == {path.name: [] for path in paths}

    def test_validator_flags_violations(self):
        telemetry = RunTelemetry("v")
        ExperimentRunner(name="v", telemetry=telemetry).run_points(
            _noisy_metric, [{"seed": 0}]
        )
        report = telemetry.as_report()

        missing = dict(report)
        del missing["totals"]
        assert any("totals" in e for e in validate_run_report(missing))

        wrong_type = json.loads(json.dumps(report, default=repr))
        wrong_type["experiment"] = 7
        assert any("experiment" in e for e in validate_run_report(wrong_type))

        bad_mode = json.loads(json.dumps(report, default=repr))
        bad_mode["points"][0]["mode"] = "telepathy"
        assert any("mode" in e for e in validate_run_report(bad_mode))

        negative = json.loads(json.dumps(report, default=repr))
        negative["totals"]["points"] = -1
        assert any("minimum" in e for e in validate_run_report(negative))

    def test_events_counted_for_packet_points(self):
        from repro.simulator.engine import Simulator

        def tiny_sim(seed: int) -> int:
            sim = Simulator()
            fired = []
            for t in range(5):
                sim.schedule(0.1 * (t + 1), lambda: fired.append(1))
            sim.run()
            return len(fired)

        telemetry = RunTelemetry("events")
        runner = ExperimentRunner(name="events", telemetry=telemetry)
        assert runner.run_points(tiny_sim, [{"seed": 0}]) == [5]
        assert telemetry.points[0].events_processed == 5
