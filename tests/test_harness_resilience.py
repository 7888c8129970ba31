"""Tests for the harness's self-healing features (docs/HARNESS.md).

Covers the four resilience knobs of
:class:`repro.harness.runner.ExperimentRunner` — per-point timeouts,
bounded retries, crash isolation, checkpoint/resume — plus the
:class:`RunCheckpoint` journal itself and the ``python -m repro faults``
CLI that wires them together.  The overriding contract: with every knob
off, behavior is exactly the historical one (first exception propagates),
and with them on, a sweep survives crashing/hanging/flaky points, records
each degradation in the run-report, and a resumed run serves completed
points bit-identically while re-running exactly the failures.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.harness.checkpoint import RunCheckpoint
from repro.harness.runner import (
    ExperimentRunner,
    FailedPoint,
    PointTimeoutError,
)
from repro.harness.telemetry import RunTelemetry, validate_run_report


# Experiments live at module top level so they pickle by reference into
# process-pool workers.

class _Touch:
    """Unpickles as ``Path(target).touch()``: foreign code in a payload."""

    def __init__(self, target: Path) -> None:
        self.target = target

    def __reduce__(self):
        return (Path.touch, (self.target,))


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
    later run with *identical parameters* (the checkpoint/resume scenario)
    sees the earlier attempts and heals.
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


class TestRunCheckpoint:
    def test_roundtrip_and_persistence(self, tmp_path):
        path = tmp_path / "run.jsonl"
        checkpoint = RunCheckpoint(path)
        assert checkpoint.get("k1") == (False, None)
        assert checkpoint.put("k1", {"answer": 42})
        assert checkpoint.get("k1") == (True, {"answer": 42})

        reloaded = RunCheckpoint(path)  # fresh instance, same file
        assert len(reloaded) == 1
        assert reloaded.get("k1") == (True, {"answer": 42})
        reloaded.clear()
        assert len(RunCheckpoint(path)) == 0

    def test_corrupt_lines_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        checkpoint = RunCheckpoint(path)
        checkpoint.put("good", [1, 2, 3])
        with open(path, "a") as handle:
            handle.write("not json at all\n")
            handle.write('{"key": "half"')  # truncated write

        reloaded = RunCheckpoint(path)
        assert reloaded.get("good") == (True, [1, 2, 3])
        assert reloaded.corrupt_lines == 2

    def test_put_after_a_torn_tail_cuts_it_off(self, tmp_path):
        """The first point journaled after a crash is not glued onto the
        line the crash cut short, so the next load keeps it."""
        path = tmp_path / "run.jsonl"
        checkpoint = RunCheckpoint(path)
        checkpoint.put("a", 1)
        checkpoint.put("b", 2)
        os.truncate(path, path.stat().st_size - 10)
        reloaded = RunCheckpoint(path)
        assert (reloaded.keys(), reloaded.corrupt_lines) == (("a",), 1)

        reloaded.put("c", 3)
        final = RunCheckpoint(path)
        assert (final.keys(), final.corrupt_lines) == (("a", "c"), 0)
        assert final.get("c") == (True, 3)

    def test_foreign_global_is_corrupt_not_run(self, tmp_path):
        sentinel = tmp_path / "sentinel"
        path = tmp_path / "run.jsonl"
        RunCheckpoint(path).put("good", [1, 2, 3])
        assert RunCheckpoint(path).put("evil", _Touch(sentinel))

        reloaded = RunCheckpoint(path)
        assert not sentinel.exists()
        assert reloaded.get("evil") == (False, None)
        assert reloaded.get("good") == (True, [1, 2, 3])
        assert reloaded.corrupt_lines == 1

    def test_unpicklable_value_kept_in_memory_only(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run.jsonl")
        assert not checkpoint.put("fn", lambda: None)
        hit, _ = checkpoint.get("fn")
        assert hit  # served within this run...
        assert len(RunCheckpoint(tmp_path / "run.jsonl")) == 0  # ...not across runs


class TestResume:
    def test_resume_skips_completed_points_bit_identically(self, tmp_path):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        journal = tmp_path / "run.jsonl"
        # Identical params in both passes — the whole point of resume.  The
        # crash point dies on its first two attempts (pool + isolated re-run)
        # and would succeed on the third, which only the resumed run reaches.
        points = [
            {"value": v, "crash_value": 2, "marker_dir": str(marker_dir)}
            for v in range(4)
        ]

        first = ExperimentRunner(
            name="resume", workers=2, isolate_failures=True,
            checkpoint=RunCheckpoint(journal),
        )
        first_results = first.run_points(_crash_twice, points)
        assert isinstance(first_results[2], FailedPoint)
        assert first_results[2].kind == "crash"
        good_first = [first_results[i] for i in (0, 1, 3)]
        before = {v: _attempts(marker_dir, v) for v in range(4)}

        # Second pass: same journal, same points.  The three successes come
        # back from the journal without re-running (the marker counts prove
        # it) and bit-identical; only the failure recomputes — and heals.
        telemetry = RunTelemetry("resume")
        second = ExperimentRunner(
            name="resume", workers=2, isolate_failures=True,
            checkpoint=RunCheckpoint(journal), telemetry=telemetry,
        )
        second_results = second.run_points(_crash_twice, points)
        assert second_results == [0, 10, 20, 30]
        assert [second_results[i] for i in (0, 1, 3)] == good_first
        assert _attempts(marker_dir, 2) == before[2] + 1  # the failure re-ran
        for v in (0, 1, 3):
            assert _attempts(marker_dir, v) == before[v]  # the successes did not

        report = telemetry.as_report()
        assert validate_run_report(report) == []
        assert report["totals"]["resumed_points"] == 3
        modes = [p["mode"] for p in report["points"]]
        assert modes.count("resumed") == 3

    def test_failures_never_journaled(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        runner = ExperimentRunner(
            name="nofail", retries=0, retry_backoff_s=0.001,
            isolate_failures=True, checkpoint=RunCheckpoint(journal),
        )
        results = runner.run_points(
            _flaky, [{"value": 1, "marker_dir": str(tmp_path), "failures": 99}]
        )
        assert isinstance(results[0], FailedPoint)
        assert len(RunCheckpoint(journal)) == 0


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
