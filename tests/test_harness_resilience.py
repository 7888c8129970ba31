"""Tests for the harness's self-healing features (docs/HARNESS.md).

Covers the three resilience knobs of
:class:`repro.harness.runner.ExperimentRunner` — per-point timeouts,
bounded retries, crash isolation — resuming a sweep from the result cache,
and the ``python -m repro faults`` CLI that wires them together.  The
overriding contract: with every knob off, behavior is exactly the
historical one (first exception propagates), and with them on, a sweep
survives crashing/hanging/flaky points, records each degradation in the
run-report, and a re-run on the same cache serves completed points
bit-identically while re-running exactly the failures.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.harness.cache import ResultCache
from repro.harness.runner import (
    ExperimentRunner,
    FailedPoint,
    PointTimeoutError,
)
from repro.harness.telemetry import RunTelemetry, validate_run_report


# Experiments live at module top level so they pickle by reference into
# process-pool workers.

def _tenfold(value: int) -> int:
    return value * 10


def _crash_on(value: int, crash_value: int, marker_dir: str) -> int:
    """Die *hard* (no exception, no cleanup) for one value — a segfault
    stand-in — leaving a marker so tests can count attempts."""
    attempt = _mark(marker_dir, value)
    if value == crash_value:
        os._exit(13)
    return value * 10


def _crash_twice(value: int, crash_value: int, marker_dir: str) -> int:
    """Die hard on the first two attempts for one value, then succeed.

    The marker files carry the attempt count across worker processes, so a
    later run with *identical parameters* (the resume scenario) sees the
    earlier attempts and heals.
    """
    attempt = _mark(marker_dir, value)
    if value == crash_value and attempt <= 2:
        os._exit(13)
    return value * 10


def _flaky(value: int, marker_dir: str, failures: int = 2) -> int:
    """Fail the first ``failures`` attempts for value 1, then succeed."""
    attempt = _mark(marker_dir, value)
    if value == 1 and attempt <= failures:
        raise RuntimeError(f"flaky failure, attempt {attempt}")
    return value + 100


def _hang_on(value: int, hang_value: int) -> int:
    if value == hang_value:
        time.sleep(60.0)
    return value * 2


def _mark(marker_dir: str, value: int) -> int:
    """Record one attempt for ``value``; return the attempt number (1-based)."""
    directory = Path(marker_dir)
    attempt = 1 + sum(1 for p in directory.iterdir() if p.name.startswith(f"v{value}_"))
    (directory / f"v{value}_{attempt}_{os.getpid()}").write_text("x")
    return attempt


def _attempts(marker_dir: Path, value: int) -> int:
    return sum(1 for p in marker_dir.iterdir() if p.name.startswith(f"v{value}_"))


class TestFailedPoint:
    def test_is_falsy_and_summarizes(self):
        failed = FailedPoint(
            params={"x": 1}, kind="crash", error_type="BrokenProcessPool",
            message="died", traceback="tb", attempts=2,
        )
        assert not failed
        assert [r for r in [1, failed, 3] if r] == [1, 3]
        assert "crash" in failed.summary() and "BrokenProcessPool" in failed.summary()


class TestCrashIsolation:
    def test_worker_crash_becomes_failed_point(self, tmp_path):
        telemetry = RunTelemetry("crash")
        runner = ExperimentRunner(
            name="crash", workers=2, telemetry=telemetry, isolate_failures=True
        )
        points = [
            {"value": v, "crash_value": 2, "marker_dir": str(tmp_path)}
            for v in range(4)
        ]
        results = runner.run_points(_crash_on, points)

        assert results[0] == 0 and results[1] == 10 and results[3] == 30
        failed = results[2]
        assert isinstance(failed, FailedPoint)
        assert failed.kind == "crash"
        assert failed.params["value"] == 2
        assert failed.traceback  # remote traceback captured

        report = telemetry.as_report()
        assert validate_run_report(report) == []
        assert report["totals"]["failed_points"] == 1
        assert any(r["kind"] == "crash" for r in report["records"])
        modes = [p["mode"] for p in report["points"]]
        assert modes.count("failed") == 1

    def test_pool_errors_propagate_without_isolation(self, tmp_path):
        # Historical contract (docs/HARNESS.md): with isolation off, a
        # genuine experiment exception propagates even under a pool.
        runner = ExperimentRunner(name="crash-raise", workers=2)
        points = [
            {"value": 1, "marker_dir": str(tmp_path), "failures": 99},
            {"value": 5, "marker_dir": str(tmp_path)},
        ]
        with pytest.raises(RuntimeError, match="flaky failure"):
            runner.run_points(_flaky, points)


class TestRetries:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_flaky_point_healed_by_retries(self, tmp_path, workers):
        telemetry = RunTelemetry("flaky")
        runner = ExperimentRunner(
            name="flaky", workers=workers, telemetry=telemetry,
            retries=3, retry_backoff_s=0.001,
        )
        points = [{"value": v, "marker_dir": str(tmp_path)} for v in range(3)]
        assert runner.run_points(_flaky, points) == [100, 101, 102]
        assert _attempts(tmp_path, 1) == 3  # two failures + one success
        retry_events = [
            r for r in telemetry.records if r["kind"] == "retry"
        ]
        assert len(retry_events) == 2
        assert telemetry.failed_points == 0

    def test_exhausted_retries_propagate_without_isolation(self, tmp_path):
        runner = ExperimentRunner(
            name="exhaust", retries=1, retry_backoff_s=0.001
        )
        with pytest.raises(RuntimeError, match="flaky failure"):
            runner.run_points(
                _flaky, [{"value": 1, "marker_dir": str(tmp_path), "failures": 99}]
            )
        assert _attempts(tmp_path, 1) == 2  # original + 1 retry

    def test_exhausted_retries_fail_point_with_isolation(self, tmp_path):
        telemetry = RunTelemetry("exhaust-iso")
        runner = ExperimentRunner(
            name="exhaust-iso", telemetry=telemetry,
            retries=1, retry_backoff_s=0.001, isolate_failures=True,
        )
        points = [
            {"value": 1, "marker_dir": str(tmp_path), "failures": 99},
            {"value": 5, "marker_dir": str(tmp_path)},
        ]
        results = runner.run_points(_flaky, points)
        assert isinstance(results[0], FailedPoint)
        assert results[0].kind == "error"
        assert results[0].attempts == 2
        assert results[1] == 105
        assert validate_run_report(telemetry.as_report()) == []


class TestTimeouts:
    def test_hung_point_times_out_under_isolation(self):
        telemetry = RunTelemetry("hang")
        runner = ExperimentRunner(
            name="hang", workers=2, telemetry=telemetry,
            timeout=1.5, isolate_failures=True,
        )
        points = [{"value": v, "hang_value": 1} for v in range(3)]
        results = runner.run_points(_hang_on, points)
        assert results[0] == 0 and results[2] == 4
        assert isinstance(results[1], FailedPoint)
        assert results[1].kind == "timeout"
        assert any(r["kind"] == "timeout" for r in telemetry.records)

    def test_hung_point_raises_without_isolation(self):
        runner = ExperimentRunner(name="hang-raise", workers=2, timeout=1.0)
        with pytest.raises(PointTimeoutError):
            runner.run_points(_hang_on, [{"value": 1, "hang_value": 1}])

    def test_validation_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="timeout"):
            ExperimentRunner(timeout=0)
        with pytest.raises(ValueError, match="retries"):
            ExperimentRunner(retries=-1)


class TestResume:
    def test_resume_skips_completed_points_bit_identically(self, tmp_path):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        cache_dir = tmp_path / "cache"
        # Identical params in both passes — the whole point of resume.  The
        # crash point dies on its first two attempts (pool + isolated re-run)
        # and would succeed on the third, which only the resumed run reaches.
        points = [
            {"value": v, "crash_value": 2, "marker_dir": str(marker_dir)}
            for v in range(4)
        ]

        first = ExperimentRunner(
            name="resume", workers=2, isolate_failures=True,
            cache=ResultCache(cache_dir),
        )
        first_results = first.run_points(_crash_twice, points)
        assert isinstance(first_results[2], FailedPoint)
        assert first_results[2].kind == "crash"
        good_first = [first_results[i] for i in (0, 1, 3)]
        before = {v: _attempts(marker_dir, v) for v in range(4)}

        # Second pass: same cache, same points.  The three successes come
        # back from the cache without re-running (the marker counts prove
        # it) and bit-identical; only the failure recomputes — and heals.
        telemetry = RunTelemetry("resume")
        second = ExperimentRunner(
            name="resume", workers=2, isolate_failures=True,
            cache=ResultCache(cache_dir), telemetry=telemetry,
        )
        second_results = second.run_points(_crash_twice, points)
        assert second_results == [0, 10, 20, 30]
        assert [second_results[i] for i in (0, 1, 3)] == good_first
        assert _attempts(marker_dir, 2) == before[2] + 1  # the failure re-ran
        for v in (0, 1, 3):
            assert _attempts(marker_dir, v) == before[v]  # the successes did not

        report = telemetry.as_report()
        assert validate_run_report(report) == []
        assert report["totals"]["cache_hits"] == 3
        modes = [p["mode"] for p in report["points"]]
        assert modes == ["cached", "cached", "worker", "cached"]

    def test_failures_never_journaled(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = ExperimentRunner(
            name="nofail", retries=0, retry_backoff_s=0.001,
            isolate_failures=True, cache=cache,
        )
        results = runner.run_points(
            _flaky, [{"value": 1, "marker_dir": str(tmp_path), "failures": 99}]
        )
        assert isinstance(results[0], FailedPoint)
        assert len(cache) == 0


class TestCliFaults:
    @pytest.fixture(autouse=True)
    def _isolated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.chdir(tmp_path)

    def test_fast_sweep_writes_valid_report(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "faults.run.json"
        assert main([
            "faults", "--fast", "--classes", "link_down",
            "--policies", "mltcp", "--substrate", "fluid",
            "--no-cache", "--report", str(report_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "link_down" in out and "mltcp" in out
        report = json.loads(report_path.read_text())
        assert validate_run_report(report) == []
        assert any(r["kind"] == "fault" for r in report["records"])

    def test_rerun_resumes_from_the_cache(self, tmp_path, capsys):
        """Re-running the same sweep is the resume: every point comes back
        from the result cache, and the working directory gains no file."""
        from repro.cli import main

        argv = [
            "faults", "--fast", "--classes", "link_down,job_restart",
            "--policies", "mltcp,reno", "--substrate", "fluid",
        ]
        modes = []
        for name in ("first.run.json", "second.run.json"):
            assert main([*argv, "--report", name]) == 0
            report = json.loads((tmp_path / name).read_text())
            assert validate_run_report(report) == []
            modes.append([p["mode"] for p in report["points"]])
        capsys.readouterr()
        assert modes == [["sequential"] * 4, ["cached"] * 4]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cache", "first.run.json", "second.run.json",
        ]

    @pytest.mark.parametrize("flag", [["--resume"], ["--checkpoint", "c.jsonl"]])
    def test_sweep_journal_flags_are_gone(self, flag, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["faults", "--fast", "--substrate", "fluid", *flag])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_class_fails_fast(self, capsys):
        from repro.cli import main

        assert main([
            "faults", "--classes", "gremlin", "--substrate", "fluid",
        ]) == 2
        # Usage errors follow the shared CLI contract (repro.cliutil):
        # `repro: error: ...` on stderr, exit 2.
        err = capsys.readouterr().err
        assert "repro: error:" in err and "gremlin" in err

    def test_custom_schedule_file(self, tmp_path, capsys):
        from repro.cli import main
        from repro.faults import FaultEvent, FaultSchedule

        schedule_path = tmp_path / "schedule.json"
        FaultSchedule(
            events=(FaultEvent(kind="link_down", time=30.0, duration=5.0),),
            seed=5,
        ).to_json(schedule_path)
        assert main([
            "faults", "--fast", "--schedule", str(schedule_path),
            "--policies", "mltcp", "--substrate", "fluid", "--no-cache",
        ]) == 0
        assert "custom" in capsys.readouterr().out

    def test_invalid_schedule_file_fails_fast(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"events": [{"kind": "gremlin", "time": 1.0}]}')
        assert main(["faults", "--schedule", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and "unknown kind" in err
