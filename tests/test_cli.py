"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import FIGURES, main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep CLI runs from touching the user's ~/.cache/repro during tests."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli_cache"))


class TestList:
    def test_list_prints_all_figures(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out

    def test_no_command_defaults_to_list(self, capsys):
        assert main([]) == 0
        assert "fig2" in capsys.readouterr().out


class TestRun:
    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_run_fig5_fast(self, capsys):
        assert main(["run", "fig5", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "minimum at delta" in out
        assert "0.900" in out

    def test_run_fig1_fast(self, capsys):
        assert main(["run", "fig1", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "J1" in out and "J4" in out

    def test_run_fig3_fast(self, capsys):
        assert main(["run", "fig3", "--fast"]) == 0
        out = capsys.readouterr().out
        for key in ("F1", "F6"):
            assert key in out

    def test_run_noise_fast(self, capsys):
        assert main(["run", "noise", "--fast"]) == 0
        assert "bound" in capsys.readouterr().out


class TestCompat:
    def test_compatible_scenario(self, tmp_path, capsys):
        from repro.workloads import four_job_scenario, save_scenario

        path = tmp_path / "scenario.json"
        save_scenario(path, four_job_scenario())
        assert main(["compat", str(path)]) == 0
        out = capsys.readouterr().out
        assert "guarantee applies" in out
        assert "1.0000" in out

    def test_incompatible_scenario(self, tmp_path, capsys):
        from repro.workloads.job import JobSpec, gbit
        from repro.workloads.traceio import save_scenario

        jobs = [
            JobSpec("A", gbit(50.0), 50.0, 0.0),
            JobSpec("B", gbit(50.0), 50.0, 0.0),
        ]
        path = tmp_path / "overload.json"
        save_scenario(path, jobs)
        assert main(["compat", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no zero-contention interleave" in out

    def test_custom_capacity(self, tmp_path, capsys):
        from repro.workloads import two_job_scenario, save_scenario

        path = tmp_path / "two.json"
        save_scenario(path, two_job_scenario())
        assert main(["compat", str(path), "--capacity", "100"]) == 0
        assert "100 Gbps" in capsys.readouterr().out


class TestRunnerFlags:
    def test_run_with_report_and_cache(self, tmp_path, monkeypatch, capsys):
        import json

        from repro.harness.telemetry import validate_run_report

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        report = tmp_path / "fig5.run.json"
        assert main(["run", "fig5", "--fast", "--report", str(report)]) == 0
        parsed = json.loads(report.read_text())
        assert validate_run_report(parsed) == []
        assert parsed["totals"]["cache_misses"] == 1

        # Second invocation of the unchanged figure is served from cache.
        report2 = tmp_path / "fig5b.run.json"
        assert main(["run", "fig5", "--fast", "--report", str(report2)]) == 0
        parsed2 = json.loads(report2.read_text())
        assert parsed2["totals"]["cache_hit_rate"] >= 0.9
        assert "minimum at delta" in capsys.readouterr().out

    def test_no_cache_forces_recompute(self, tmp_path, monkeypatch, capsys):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        for _ in range(2):
            report = tmp_path / "r.run.json"
            assert main(
                ["run", "fig1", "--fast", "--no-cache", "--report", str(report)]
            ) == 0
            assert json.loads(report.read_text())["totals"]["cache_hits"] == 0
        capsys.readouterr()

    def test_workers_flag_accepted(self, tmp_path, monkeypatch, capsys):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        report = tmp_path / "w.run.json"
        assert main(
            ["run", "fig1", "--fast", "--workers", "2", "--report", str(report)]
        ) == 0
        assert json.loads(report.read_text())["workers"] == 2
        assert "J1" in capsys.readouterr().out


class TestValidateReport:
    def _write_report(self, tmp_path, mutate=None):
        import json

        from repro.cli import _render_figure  # noqa: F401  (import sanity)
        from repro.harness.runner import ExperimentRunner
        from repro.harness.telemetry import RunTelemetry

        telemetry = RunTelemetry("vr")
        ExperimentRunner(name="vr", telemetry=telemetry).run_points(
            lambda seed: float(seed), [{"seed": 1}]
        )
        report = telemetry.as_report()
        if mutate:
            mutate(report)
        path = tmp_path / "vr.run.json"
        path.write_text(json.dumps(report, default=repr))
        return path

    def test_valid_report_passes(self, tmp_path, capsys):
        path = self._write_report(tmp_path)
        assert main(["validate-report", str(path)]) == 0
        assert "valid run-report" in capsys.readouterr().out

    def test_valid_report_against_checked_in_schema(self, tmp_path, capsys):
        from pathlib import Path

        schema = Path(__file__).resolve().parent.parent / "docs" / "run_report.schema.json"
        path = self._write_report(tmp_path)
        assert main(["validate-report", str(path), "--schema", str(schema)]) == 0
        capsys.readouterr()

    def test_invalid_report_fails(self, tmp_path, capsys):
        def strip_totals(report):
            del report["totals"]

        path = self._write_report(tmp_path, mutate=strip_totals)
        # Violations: exit 1, diagnostics on stderr (shared repro.cliutil
        # contract with `repro lint`).
        assert main(["validate-report", str(path)]) == 1
        assert "totals" in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path, capsys):
        # Unreadable input is a usage error: exit 2, `repro: error:` on
        # stderr (repro.cliutil contract).
        assert main(["validate-report", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and "cannot read" in err


class TestCrossRack:
    def test_fluid_fast_run(self, capsys):
        assert main([
            "cross-rack", "--fast", "--no-cache",
            "--racks", "2", "--hosts-per-rack", "2", "--oversub", "1.0",
            "--ecmp-seed", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "cross-rack [fluid]" in out
        assert "uplink" in out and "competitors" in out
        assert "speedup" in out

    def test_report_includes_link_utilization(self, tmp_path, capsys):
        import json

        from repro.harness.telemetry import validate_run_report

        report_path = tmp_path / "cross_rack.run.json"
        assert main([
            "cross-rack", "--fast", "--no-cache",
            "--racks", "2", "--hosts-per-rack", "2",
            "--report", str(report_path),
        ]) == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert validate_run_report(report) == []
        entries = [r for r in report["records"] if r["kind"] == "link_utilization"]
        assert entries and {e["policy"] for e in entries} == {"mltcp", "fair"}
        assert all(e["utilization"] >= 0 for e in entries)

    def test_unknown_placement_fails(self, capsys):
        assert main(["cross-rack", "--placement", "diagonal"]) == 2
        assert "placement" in capsys.readouterr().err

    def test_packed_control(self, capsys):
        assert main([
            "cross-rack", "--fast", "--no-cache", "--placement", "packed",
            "--racks", "2", "--hosts-per-rack", "2",
        ]) == 0
        assert "0/2 flows cross racks" in capsys.readouterr().out


class TestDocsCheck:
    def test_docs_tree_passes(self, capsys):
        assert main(["docs-check"]) == 0
        assert "all pass" in capsys.readouterr().out

    def test_failing_fence_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.md"
        bad.write_text("```python\nraise ValueError('rotted example')\n```\n")
        assert main(["docs-check", str(bad)]) == 1
        assert "rotted example" in capsys.readouterr().err
