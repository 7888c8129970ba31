"""Tests for ``repro verify``: the discrete-step model of Algorithm 1,
the exhaustive/z3 solver backends, committed proof artifacts, the
counterexample→fluid-replay pipeline, and the CLI exit-code contract."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.aggressiveness import DecreasingLinearAggressiveness
from repro.fluid.allocation import MLTCPWeighted
from repro.fluid.flowsim import run_fluid
from repro.verify import (
    MODEL_CONSTANTS,
    PROPERTIES,
    ModelParams,
    Verdict,
    have_z3,
    model_fingerprint,
    property_by_name,
    share_floor,
    solve,
)
from repro.verify.certificates import (
    CERTIFICATE_DIR,
    artifact_filename,
    build_artifact,
    certified_f_max,
    certified_invariants,
    certified_share_floor,
    load_artifact,
    load_committed,
    scenario_from_witness,
    staleness_errors,
    write_artifact,
)
from repro.verify.model import (
    circle_distance,
    f_of_ratio,
    is_interleaved,
    iteration_share,
    min_overlap_share,
    pairwise_lags,
    step_lag,
    step_offsets,
)
from repro.workloads.job import JobSpec

PAPER = ModelParams()
DEGRADED = ModelParams(variant="degraded")
FAIR = ModelParams(variant="fair")
WEAK = ModelParams(variant="decreasing-f")


class TestModel:
    def test_f_matches_eq2_on_paper_constants(self):
        assert f_of_ratio(0.0, PAPER) == 0.25
        assert f_of_ratio(1.0, PAPER) == 2.0
        assert f_of_ratio(0.5, PAPER) == pytest.approx(1.125)

    def test_degraded_f_is_constant_one(self):
        for ratio in (0.0, 0.3, 1.0):
            assert f_of_ratio(ratio, DEGRADED) == 1.0

    def test_step_preserves_lag_range(self):
        # No modulo in the step map — range preservation is what makes
        # the expressions z3-encodable; check it concretely per variant.
        for params in (PAPER, DEGRADED, FAIR, WEAK):
            lag = 0.013
            for _ in range(64):
                lag = step_lag(lag, params)
                assert 0.0 <= lag <= params.period

    def test_paper_variant_converges_to_interleaving(self):
        lag = 0.02
        for _ in range(32):
            lag = step_lag(lag, PAPER)
        assert is_interleaved(lag, PAPER)

    def test_weakened_variant_never_interleaves(self):
        lag = 0.05
        for _ in range(64):
            lag = step_lag(lag, WEAK)
            assert not is_interleaved(lag, WEAK)

    def test_degraded_is_step_equivalent_to_fair(self):
        for i in range(101):
            lag = i / 100.0
            assert step_lag(lag, DEGRADED) == step_lag(lag, FAIR)
            assert min_overlap_share(lag, DEGRADED) == min_overlap_share(lag, FAIR)

    def test_degraded_shift_is_zero(self):
        for lag in (0.1, 0.25, 0.4):
            assert step_lag(lag, DEGRADED) == lag

    def test_interleaved_is_fixed_point(self):
        lag = PAPER.comm  # fully interleaved: comm phases back to back
        assert is_interleaved(lag, PAPER)
        assert step_lag(lag, PAPER) == pytest.approx(lag)

    def test_circle_distance_symmetry(self):
        assert circle_distance(0.9, 1.0) == pytest.approx(0.1)
        assert circle_distance(0.1, 1.0) == pytest.approx(0.1)

    def test_iteration_share_floor_is_half(self):
        # Work conservation: the follower gets comm/(2*comm - d) >= 1/2.
        for i in range(1, 40):
            lag = i / 100.0
            assert iteration_share(lag, PAPER) >= 0.5

    def test_instantaneous_share_floor(self):
        floor = share_floor("paper", 2)
        assert floor == pytest.approx(1.0 / 9.0)
        for i in range(101):
            lag = i / 100.0
            assert min_overlap_share(lag, PAPER) >= floor - 1e-12

    def test_three_job_pairwise_lags(self):
        lags = pairwise_lags([0.0, 0.3, 0.7], 1.0)
        assert lags == pytest.approx([0.3, 0.7, 0.4])

    def test_three_job_step_stays_on_circle(self):
        params = ModelParams(jobs=3, alpha=0.3)
        offsets = [0.0, 0.05, 0.11]
        for _ in range(48):
            offsets = step_offsets(offsets, params)
            assert all(0.0 <= o < params.period for o in offsets)

    def test_fingerprint_tracks_constants_and_extra(self):
        base = model_fingerprint()
        assert base.startswith("sha256:")
        assert model_fingerprint() == base
        assert model_fingerprint({"k": 3}) != base

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(variant="nope")
        with pytest.raises(ValueError):
            ModelParams(alpha=0.7)
        with pytest.raises(ValueError):
            ModelParams(jobs=4)

    def test_model_constants_mirror_implementation(self):
        from repro.core.aggressiveness import PAPER_INTERCEPT, PAPER_SLOPE
        from repro.core.analysis import CONVERGENCE_TOLERANCE_FRACTION
        from repro.tcp.mltcp import DEGRADED_AGGRESSIVENESS

        assert MODEL_CONSTANTS["slope"] == PAPER_SLOPE
        assert MODEL_CONSTANTS["intercept"] == PAPER_INTERCEPT
        assert MODEL_CONSTANTS["degraded_f"] == DEGRADED_AGGRESSIVENESS
        assert (
            MODEL_CONSTANTS["interleave_tolerance_fraction"]
            == CONVERGENCE_TOLERANCE_FRACTION
        )


class TestExhaustiveSolver:
    @pytest.mark.parametrize("name", sorted(PROPERTIES))
    def test_fast_grid_reaches_expected_verdict(self, name):
        prop = PROPERTIES[name]
        verdict = solve(prop, backend="exhaustive", fast=True)
        assert verdict.verdict == prop.expected, verdict.reason
        assert verdict.matches_expected
        assert verdict.backend == "exhaustive"
        assert verdict.states_checked > 0

    def test_weakened_witness_is_concrete(self):
        prop = PROPERTIES["interleaving-reachability-weakened"]
        verdict = solve(prop, backend="exhaustive", fast=True)
        assert verdict.verdict == "sat"
        assert "initial_lag" in verdict.witness
        lag = verdict.witness["initial_lag"]
        params = ModelParams(variant="decreasing-f")
        for _ in range(prop.params["k"]):
            assert not is_interleaved(lag, params)
            lag = step_lag(lag, params)

    def test_timeout_yields_unknown(self):
        prop = PROPERTIES["starvation-bound"]
        from repro.verify.solver import ExhaustiveBackend

        verdict = ExhaustiveBackend(timeout_s=1e-9).solve(
            prop, prop.resolved(fast=True)
        )
        assert verdict.verdict == "unknown"
        assert "timeout" in verdict.reason

    def test_param_overrides_reach_the_query(self):
        prop = PROPERTIES["starvation-bound"]
        verdict = solve(prop, backend="exhaustive", fast=True, grid=11)
        assert verdict.params["grid"] == 11
        assert verdict.states_checked == 11

    def test_unknown_property_name(self):
        with pytest.raises(KeyError):
            property_by_name("no-such-property")


@pytest.mark.skipif(not have_z3(), reason="z3-solver not installed ([verify] extra)")
class TestZ3Solver:
    @pytest.mark.parametrize(
        "name",
        [
            "interleaving-reachability",
            "interleaving-reachability-weakened",
            "starvation-bound",
            "degradation-safety",
            "monotone-recovery",
        ],
    )
    def test_agrees_with_exhaustive(self, name):
        prop = PROPERTIES[name]
        verdict = solve(prop, backend="z3", fast=True)
        assert verdict.verdict == prop.expected, verdict.reason

    def test_three_job_property_is_unsupported(self):
        prop = PROPERTIES["interleaving-reachability-3job"]
        verdict = solve(prop, backend="z3", fast=True)
        assert verdict.verdict == "skipped"


class TestSkipsWithoutZ3:
    @pytest.mark.skipif(have_z3(), reason="z3 installed; skip-path untestable")
    def test_requested_z3_backend_skips_with_hint(self):
        from repro.verify.solver import Z3_INSTALL_HINT

        verdict = solve(PROPERTIES["starvation-bound"], backend="z3", fast=True)
        assert verdict.verdict == "skipped"
        assert verdict.reason == Z3_INSTALL_HINT

    @pytest.mark.skipif(have_z3(), reason="z3 installed; skip-path untestable")
    def test_auto_backend_falls_back_to_exhaustive(self):
        verdict = solve(PROPERTIES["starvation-bound"], backend="auto", fast=True)
        assert verdict.backend == "exhaustive"
        assert verdict.verdict == "unsat"


class TestCommittedArtifacts:
    @pytest.mark.parametrize("name", sorted(PROPERTIES))
    def test_artifact_is_committed_and_fresh(self, name):
        """Acceptance criterion: every property ships a current artifact."""
        artifact = load_committed(name)
        assert staleness_errors(artifact) == []
        expected_kind = (
            "counterexample"
            if PROPERTIES[name].expected == "sat"
            else "invariant-certificate"
        )
        assert artifact["kind"] == expected_kind

    def test_tampered_fingerprint_is_stale(self):
        artifact = dict(load_committed("starvation-bound"))
        artifact["fingerprint"] = "sha256:" + "0" * 64
        errors = staleness_errors(artifact)
        assert any("fingerprint mismatch" in e for e in errors)

    def test_version_bump_is_stale(self):
        artifact = dict(load_committed("starvation-bound"))
        artifact["property_version"] = 99
        assert any("v99" in e for e in staleness_errors(artifact))

    def test_unknown_property_is_stale(self):
        assert staleness_errors({"property": "ghost"}) == [
            "ghost: property no longer exists"
        ]

    def test_certified_invariants_roundtrip(self):
        invariants = certified_invariants("starvation-bound")
        assert invariants["f_max"] == 2.0
        assert invariants["f_min"] == 0.25
        assert invariants["iteration_share_floor"] == 0.5

    def test_certified_f_max_and_share_floor(self):
        assert certified_f_max() == 2.0
        assert certified_share_floor() == pytest.approx(1.0 / 9.0)

    def test_guards_cap_is_certificate_derived(self):
        """Acceptance criterion: a guards bound comes from a certificate."""
        from repro.guards.watchdog import bdp_cwnd_cap, certified_cwnd_slack

        assert certified_cwnd_slack() == 2.0 * certified_f_max()
        assert bdp_cwnd_cap(1e9, 1e-3, 1500, 64) == bdp_cwnd_cap(
            1e9, 1e-3, 1500, 64, slack=4.0
        )

    def test_build_artifact_rejects_inconclusive(self):
        verdict = Verdict(
            property="starvation-bound", version=1, verdict="unknown",
            backend="exhaustive",
        )
        with pytest.raises(ValueError):
            build_artifact(verdict)

    def test_write_and_load_roundtrip(self, tmp_path):
        prop = PROPERTIES["starvation-bound"]
        verdict = solve(prop, backend="exhaustive", fast=True)
        artifact = build_artifact(verdict)
        path = write_artifact(artifact, tmp_path)
        assert path.name == artifact_filename(prop)
        assert load_artifact(path) == artifact

    def test_load_artifact_rejects_non_artifact(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError):
            load_artifact(bogus)


class TestCounterexampleReplay:
    """The SAT counterexample must predict the fluid simulator.

    The committed witness schedule, run under the weakened decreasing-F
    policy it was found against, must stay synchronized (the failing
    behaviour); the same schedule under the paper's F1 must interleave
    (the fix).  This is the model-to-simulator ground-truth link.
    """

    @staticmethod
    def _final_iteration_time(policy, scenario):
        jobs = [JobSpec(**spec) for spec in scenario["jobs"]]
        result = run_fluid(
            jobs,
            scenario["capacity_gbps"],
            policy=policy,
            max_iterations=scenario["iterations"],
            seed=0,
        )
        finals = [
            float(result.iteration_times(job.name)[-3:].mean()) for job in jobs
        ]
        return max(finals)

    def test_witness_schedule_fails_under_weakened_f_and_fixes_under_paper_f(self):
        scenario = load_committed("interleaving-reachability-weakened")["scenario"]
        assert scenario["expectation"]["interleaves"] is False
        period = scenario["period_s"]
        # Ideal (interleaved) iteration time is one period; a synchronized
        # pair pays the overlapped comm phase on top (~1.4 periods here).
        threshold = 1.15 * period
        weakened = self._final_iteration_time(
            MLTCPWeighted(DecreasingLinearAggressiveness()), scenario
        )
        fixed = self._final_iteration_time(MLTCPWeighted(), scenario)
        assert weakened > threshold, (
            f"model predicted no interleaving but the weakened run reached "
            f"{weakened:.3f} s/iteration"
        )
        assert fixed < threshold, (
            f"paper F1 should interleave from the same schedule, got "
            f"{fixed:.3f} s/iteration"
        )

    def test_scenario_from_witness_shapes(self):
        prop = PROPERTIES["interleaving-reachability-weakened"]
        scenario = scenario_from_witness(
            prop, {"initial_lag": 0.25}, prop.resolved()
        )
        assert [job["start_offset"] for job in scenario["jobs"]] == [0.0, 0.25]
        assert scenario["jobs"][0]["comm_bits"] == pytest.approx(
            0.4 * 1.0 * 10e9
        )
        with pytest.raises(ValueError):
            scenario_from_witness(prop, {}, prop.resolved())


class TestVerifyCli:
    def test_full_fast_catalog_exits_zero(self, capsys):
        assert main(["verify", "--fast", "--check"]) == 0
        out = capsys.readouterr().out
        assert "expected verdicts" in out

    def test_unknown_property_exits_two(self, capsys):
        assert main(["verify", "no-such-property"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_bad_timeout_exits_two(self, capsys):
        assert main(["verify", "--timeout", "-1"]) == 2
        capsys.readouterr()

    def test_list_properties(self, capsys):
        assert main(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        for name in PROPERTIES:
            assert name in out

    def test_missing_artifact_fails_check(self, tmp_path, capsys):
        code = main([
            "verify", "starvation-bound", "--fast", "--check",
            "--write-dir", str(tmp_path),
        ])
        assert code == 1
        assert "no committed artifact" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("property", ["starvation-bound"]),
        ("property", {"name": "starvation-bound"}),
        ("property", 5),
        ("property", None),
        ("params", "oops"),
    ])
    def test_mistyped_artifact_field_is_named(self, tmp_path, capsys, field, value):
        name = artifact_filename(PROPERTIES["starvation-bound"])
        artifact = json.loads((CERTIFICATE_DIR / name).read_text())
        artifact[field] = value
        (tmp_path / name).write_text(json.dumps(artifact))
        assert main([
            "verify", "starvation-bound", "--fast", "--backend", "exhaustive",
            "--write-dir", str(tmp_path),
        ]) == 1
        err = capsys.readouterr().err
        assert f"unreadable artifact {tmp_path / name}: " in err
        assert f"field '{field}' must be" in err

    def test_write_then_check_roundtrip(self, tmp_path, capsys):
        assert main([
            "verify", "starvation-bound", "--fast", "--write",
            "--write-dir", str(tmp_path),
        ]) == 0
        assert main([
            "verify", "starvation-bound", "--fast", "--check",
            "--write-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()

    def test_report_has_verification_section_and_validates(self, tmp_path, capsys):
        from repro.harness.telemetry import validate_run_report

        report_path = tmp_path / "verify.run.json"
        assert main([
            "verify", "starvation-bound", "degradation-safety", "--fast",
            "--report", str(report_path),
        ]) == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        validate_run_report(report)
        entries = [r for r in report["records"] if r["kind"] == "verification"]
        # Explicitly named properties run (and report) in the given order.
        assert [e["property"] for e in entries] == [
            "starvation-bound", "degradation-safety",
        ]
        assert all(e["verdict"] == "unsat" for e in entries)

    def test_committed_artifacts_match_checked_in_files(self):
        """The certificate directory holds exactly the catalog's artifacts."""
        committed = sorted(p.name for p in CERTIFICATE_DIR.glob("*.json"))
        expected = sorted(
            artifact_filename(prop) for prop in PROPERTIES.values()
        )
        assert committed == expected


class TestTelemetryVerificationSection:
    def test_record_verification_validates_verdict(self):
        from repro.harness.telemetry import RunTelemetry

        telemetry = RunTelemetry("verify")
        with pytest.raises(ValueError, match="verdict"):
            telemetry.record(
                "verification",
                property="p", version=1, verdict="maybe", backend="exhaustive",
            )
        with pytest.raises(ValueError, match="states_checked"):
            telemetry.record(
                "verification",
                property="p", version=1, verdict="unsat", backend="exhaustive",
                states_checked=-1,
            )

    def test_report_roundtrip(self):
        from repro.harness.telemetry import RunTelemetry, validate_run_report

        telemetry = RunTelemetry("verify")
        telemetry.record(
            "verification",
            property="starvation-bound", version=1, verdict="unsat",
            backend="exhaustive", states_checked=201, elapsed_s=0.01,
            params={"k": 3},
        )
        report = telemetry.as_report()
        assert validate_run_report(report) == []
        assert report["records"][0]["kind"] == "verification"
        assert report["records"][0]["states_checked"] == 201
