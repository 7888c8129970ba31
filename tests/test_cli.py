"""Tests for the ``python -m repro`` command-line interface."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from repro.cli import FIGURES, main
from repro.faults.schedule import FABRIC_KINDS


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


class TestChaos:
    def test_guard_policy_off_builds_no_rail(self, tmp_path, capsys):
        """``--guard-policy off`` runs exactly the events of a rail-less
        campaign: no engine monitor, packet heartbeat or fabric guard."""
        import json

        from repro.harness.experiments import chaos_recovery
        from repro.simulator.engine import total_events_processed

        before = total_events_processed()
        chaos_recovery(
            substrate="packet", campaigns=1, n_racks=2, hosts_per_rack=2,
            iterations=12, seed=2, guard_policy=None,
        )
        bare_events = total_events_processed() - before

        report_path = tmp_path / "chaos.run.json"
        assert main([
            "chaos", "--substrate", "packet", "--campaigns", "1", "--no-cache",
            "--racks", "2", "--hosts-per-rack", "2", "--iterations", "12",
            "--seed", "2", "--guard-policy", "off", "--report", str(report_path),
        ]) == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert report["totals"]["events_processed"] == bare_events


class TestDocsCheck:
    def test_docs_tree_passes(self, capsys):
        assert main(["docs-check"]) == 0
        assert "all pass" in capsys.readouterr().out

    def test_failing_fence_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.md"
        bad.write_text("```python\nraise ValueError('rotted example')\n```\n")
        assert main(["docs-check", str(bad)]) == 1
        assert "rotted example" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The CLI contract: stdout, stderr and exit code of every subcommand
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parent.parent
CONTRACT = Path(__file__).resolve().parent / "fixtures" / "cli_contract.json"
_REPORT = "{repo}/tests/fixtures/fault_recovery.run.json"
_BASELINE = "{repo}/bench_reports/perf_baseline.json"
_FABRIC = ["--fast", "--racks", "2", "--hosts-per-rack", "2", "--no-cache"]
_ONE_FAULT = ["faults", "--fast", "--classes", "link_down", "--no-cache"]

#: In-process ``main(argv)`` calls pinned by CONTRACT: every subcommand at
#: a cheap size, one usage error per subcommand, then the inputs that fail
#: at the boundary (a missing or malformed scenario, an unknown policy, an
#: out-of-range number).
CONTRACT_CASES = [
    ["list"],
    ["run", "fig5", "--fast"],
    ["compat", "four.json"],
    ["compat", "six.json"],
    ["compat", "overloaded.json"],
    ["cross-rack", *_FABRIC],
    ["chaos", "--campaigns", "1", *_FABRIC],
    ["serve", "--epochs", "3"],
    [*_ONE_FAULT, "--policies", "mltcp", "--substrate", "fluid"],
    ["guards", "--run", "--substrate", "fluid", "--iterations", "10"],
    ["guards", _REPORT],
    ["validate-report", _REPORT],
    ["bench-compare", _BASELINE, "--baseline", _BASELINE],
    ["lint", "--list-rules"],
    ["verify", "--list"],
    ["docs-check", "one.md"],
    ["list", "--bogus"],
    ["run", "fig99"],
    ["compat"],
    ["faults", "--classes", "gremlin", "--substrate", "fluid"],
    ["lint", "--select", "NOPE"],
    ["verify", "no-such-property"],
    ["bench-compare", "missing.json"],
    ["guards"],
    ["cross-rack", "--placement", "diagonal"],
    ["chaos", "--placement", "diagonal"],
    ["serve", "--flash", "nonsense"],
    ["docs-check", "missing.md"],
    ["validate-report", "missing.json"],
    ["compat", "missing.json"],
    ["compat", "bad.json"],
    [*_ONE_FAULT, "--policies", "bogus", "--substrate", "fluid"],
    ["faults", "--fast", "--schedule", "ghost.json", "--substrate", "fluid",
     "--policies", "mltcp", "--no-cache"],
    ["faults", "--fast", "--schedule", "endless.json", "--substrate", "fluid",
     "--policies", "mltcp", "--no-cache"],
    ["faults", "--fast", "--schedule", "nolink.json", "--substrate", "packet",
     "--policies", "mltcp", "--no-cache"],
    ["faults", "--fast", "--schedule", "notime.json", "--substrate", "fluid",
     "--policies", "mltcp", "--no-cache"],
    ["guards", "--run", "--cc", "bogus", "--substrate", "fluid"],
    ["bench-compare", _BASELINE, "--baseline", _BASELINE, "--threshold", "nan"],
    ["run", "fig5", "--workers", "0"],
    ["serve", "--query", "garbage.journal"],
    ["serve", "--query", "old.journal"],
    ["serve", "--epochs", "3", "--resume", "--journal", "old.journal"],
]

_WALL_SECONDS = re.compile(r"(?m)^(\[runner\] .*)\b\d+\.\d\d s\b")


def contract_call(argv: list[str]) -> dict:
    """Run ``main(argv)`` in-process: its exit code, stdout and stderr.

    A ``SystemExit`` (argparse) counts as its exit code; any other
    exception is recorded by its type name.  Wall-clock seconds and the
    repository path are masked so the record is machine-independent.
    """
    argv = [arg.format(repo=REPO) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: object = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        except Exception as error:  # recorded by type, as a traceback would end
            code = type(error).__name__

    def mask(text: str) -> str:
        return _WALL_SECONDS.sub(r"\1<wall> s", text.replace(str(REPO), "<repo>"))

    return {
        "argv": [arg.replace(str(REPO), "<repo>") for arg in argv],
        "exit": code,
        "stdout": mask(out.getvalue()),
        "stderr": mask(err.getvalue()),
    }


def write_contract_inputs(directory: Path) -> None:
    """The files CONTRACT_CASES name."""
    import base64
    import json
    import pickle

    from repro.workloads import (
        JobSpec,
        four_job_scenario,
        gbit,
        save_scenario,
        six_job_scenario,
    )

    save_scenario(directory / "four.json", four_job_scenario())
    # Six jobs take coordinate descent with restarts; three that each need
    # the link half the time cannot interleave, so the exhaustive search
    # runs to the end and descent refines it.
    save_scenario(directory / "six.json", six_job_scenario())
    save_scenario(directory / "overloaded.json", [
        JobSpec(name, comm_bits=gbit(10.0), demand_gbps=50.0, compute_time=0.2)
        for name in ("A", "B", "C")
    ])
    (directory / "bad.json").write_text(json.dumps({"jobs": [{"name": 1}]}))
    (directory / "one.md").write_text("```python\nassert 1 + 1 == 2\n```\n")
    # Each schedule below is rejected before any point runs.  A straggler
    # that names no job of the scenario:
    (directory / "ghost.json").write_text(json.dumps({"seed": 5, "events": [
        {"kind": "straggler", "time": 1.0, "duration": 1.0, "job": "ghost",
         "factor": 2.0},
    ]}))
    # A link that never comes back:
    (directory / "endless.json").write_text(json.dumps({"events": [
        {"kind": "link_down", "time": 1.0, "duration": float("inf")},
    ]}))
    # A link the packet dumbbell does not have:
    (directory / "nolink.json").write_text(json.dumps({"events": [
        {"kind": "link_down", "time": 1.0, "duration": 1.0,
         "link": "sw_x->sw_r"},
    ]}))
    # An event without its strike time:
    (directory / "notime.json").write_text(json.dumps({"events": [
        {"kind": "link_down", "duration": 1.0},
    ]}))
    # Serve journals that do not decode: two lines of garbage, and one in
    # the pickled format older versions wrote.
    (directory / "garbage.journal").write_text("not a journal\nnor this\n")
    old = {
        "service:meta": {"fingerprint": "0" * 64, "epochs": 3},
        "epoch:00000000": {"epoch": 0},
    }
    (directory / "old.journal").write_text("".join(
        json.dumps({"key": key, "blob": base64.b64encode(pickle.dumps(value)).decode()})
        + "\n"
        for key, value in old.items()
    ))


@pytest.fixture
def contract_inputs(tmp_path, monkeypatch):
    """A fresh working directory holding the contract's input files."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    write_contract_inputs(tmp_path)


def record_contract() -> None:
    """Re-record CONTRACT from the tree on ``PYTHONPATH``, each call in a
    fresh directory and result cache: ``PYTHONPATH=src python
    tests/test_cli.py``."""
    import json
    import os
    import tempfile

    home = os.getcwd()
    records = []
    try:
        for case in CONTRACT_CASES:
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)
                os.environ.update(
                    COLUMNS="80", REPRO_CACHE_DIR=os.path.join(tmp, "cache")
                )
                write_contract_inputs(Path(tmp))
                records.append(contract_call(case))
                os.chdir(home)
    finally:
        os.chdir(home)
    CONTRACT.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n")


class TestContract:
    @pytest.mark.parametrize(
        "index", range(len(CONTRACT_CASES)),
        ids=[" ".join(case) for case in CONTRACT_CASES],
    )
    def test_matches_golden(self, index, contract_inputs):
        import json

        golden = json.loads(CONTRACT.read_text())
        assert len(golden) == len(CONTRACT_CASES)
        assert contract_call(CONTRACT_CASES[index]) == golden[index]


class TestTypedOptions:
    """A number outside its option's type fails before any work runs: exit
    2 through repro.cliutil, naming the option."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["guards", "--run", "--iterations", "0"],
            ["guards", "--run", "--iterations", "-3"],
            ["faults", "--retries", "-1"],
            ["faults", "--timeout", "0"],
            [*_ONE_FAULT, "--policies", "mltcp", "--substrate", "fluid",
             "--timeout", "nan"],
            ["compat", "four.json", "--capacity", "0"],
            ["compat", "four.json", "--capacity", "-5"],
            ["verify", "--list", "--timeout", "nan"],
            ["bench-compare", _BASELINE, "--baseline", _BASELINE,
             "--threshold", "nan"],
            ["serve", "--epochs", "3", "--capacity", "nan"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_is_a_usage_error(self, argv, contract_inputs):
        option = argv[-2]
        assert contract_call(argv) == {
            "argv": [arg.format(repo="<repo>") for arg in argv],
            "exit": 2,
            "stdout": "",
            "stderr": f"repro: error: argument {option}: must be "
            f"{_NOUNS[option]}, got {argv[-1]}\n",
        }


_NOUNS = {
    "--iterations": "a positive integer",
    "--retries": "a non-negative integer",
    "--timeout": "a finite positive number",
    "--capacity": "a finite positive number",
    "--threshold": "a finite non-negative number",
}


class TestBadNamesAndFiles:
    """Unknown names and unreadable inputs fail at the boundary (exit 2)."""

    def test_compat_missing_scenario(self, contract_inputs, capsys):
        assert main(["compat", "missing.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: cannot read scenario missing.json")

    def test_compat_bad_entry_names_entry_and_field(self, contract_inputs, capsys):
        assert main(["compat", "bad.json"]) == 2
        err = capsys.readouterr().err
        assert "jobs[0]" in err and "comm_bits" in err

    def test_compat_empty_scenario_names_jobs(self, contract_inputs, capsys):
        Path("empty.json").write_text('{"jobs": []}')
        assert main(["compat", "empty.json"]) == 2
        assert capsys.readouterr().err == (
            "repro: error: cannot read scenario empty.json: "
            "jobs: a scenario needs at least one job\n"
        )

    @pytest.mark.parametrize("kind", sorted(FABRIC_KINDS))
    @pytest.mark.parametrize(
        "argv",
        [
            ["faults", "--fast", "--classes", "{kind}", "--no-cache",
             "--policies", "mltcp", "--substrate", "fluid"],
            ["guards", "--run", "--fault", "{kind}", "--substrate", "fluid",
             "--iterations", "10"],
        ],
        ids=["faults", "guards"],
    )
    def test_fault_class_recovery_cannot_build(self, argv, kind, contract_inputs, capsys):
        """Fabric-only classes need a fabric; the single-link recovery
        experiment rejects them before running a point."""
        assert main([arg.format(kind=kind) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith(
            f"repro: error: unknown fault class(es) ['{kind}']; valid: "
        )

    @pytest.mark.parametrize("text", ["5", "null", "[]"])
    def test_faults_schedule_that_is_not_an_object(self, text, contract_inputs, capsys):
        # The file's content is the document, never a file name.
        Path("scalar.json").write_text(text)
        assert main(["faults", "--schedule", "scalar.json", "--substrate", "fluid"]) == 2
        assert capsys.readouterr().err == (
            "repro: error: cannot use fault schedule scalar.json: fault schedule "
            "JSON must be an object with an 'events' list (and an optional "
            "integer 'seed')\n"
        )

    def test_faults_unknown_policy(self, contract_inputs, capsys):
        assert main(["faults", "--policies", "mltcp,bogus", "--substrate", "fluid"]) == 2
        assert capsys.readouterr().err == (
            "repro: error: unknown policy(ies) ['bogus']; "
            "valid: ['dctcp', 'fair', 'mltcp', 'reno']\n"
        )

    def test_faults_policy_no_requested_substrate_runs(self, contract_inputs, capsys):
        # mltcp-dctcp exists only in the packet substrate.
        argv = ["faults", "--policies", "mltcp-dctcp", "--substrate", "fluid"]
        assert main(argv) == 2
        assert "['mltcp-dctcp']" in capsys.readouterr().err

    def test_guards_unknown_cc(self, contract_inputs, capsys):
        assert main(["guards", "--run", "--cc", "bogus"]) == 2
        assert "unknown policy(ies) ['bogus']" in capsys.readouterr().err

    def test_policy_sets_match_the_experiment(self):
        from repro.harness.experiments import RECOVERY_POLICIES, fault_recovery

        for substrate, policies in RECOVERY_POLICIES.items():
            with pytest.raises(ValueError, match=re.escape(str(list(policies)))):
                fault_recovery(policy="bogus", substrate=substrate)

    def test_fault_classes_match_the_experiment(self):
        from repro.harness.experiments import RECOVERY_FAULTS, fault_recovery

        with pytest.raises(ValueError, match=re.escape(str(sorted(RECOVERY_FAULTS)))):
            fault_recovery(fault="spine_down")


class TestSubcommandTable:
    def test_table_readme_and_help_name_the_same_subcommands(self, capsys):
        """A subcommand cannot land without its README row (and vice versa)."""
        from repro.cli import SUBCOMMANDS

        table = [command.name for command in SUBCOMMANDS]
        readme = (REPO / "README.md").read_text()
        documented = re.findall(r"^\| `repro ([a-z-]+)` \|", readme, re.M)
        assert documented == table

        with pytest.raises(SystemExit):
            main(["--help"])
        listed = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1)
        assert listed.split(",") == table


if __name__ == "__main__":
    record_contract()
