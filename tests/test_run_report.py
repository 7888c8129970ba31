"""Tests for the typed-record run report (``repro.harness.telemetry``).

One kind table, ``RECORD_KINDS``, defines every record payload.  These
tests check that record time and report time apply the same bounds, that
``repro guards`` fails cleanly on a report that does not validate, and
fuzz the report boundary with mutated copies of a report that holds every
kind.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.harness.report import render_guard_summary
from repro.harness.telemetry import (
    RECORD_KINDS,
    REPORT_SCHEMA_VERSION,
    RUN_REPORT_SCHEMA,
    RunTelemetry,
    validate_run_report,
)


def _service(**overrides) -> dict:
    payload = {
        "epoch": 4,
        "time": 2.0,
        "running": 2,
        "queue_depth": 1,
        "admitted": 3,
        "deferred": 1,
        "shed": 0,
        "degraded": 0,
        "departed": 1,
        "recoveries": 0,
        "slo_attainment": 1.0,
        "coarse": False,
        "events": [
            {"kind": "admit", "detail": "admitted", "job": "j0", "time": 0.5},
            {"kind": "defer", "detail": "queued", "job": "j3", "time": 1.5},
        ],
        "jobs": [
            {"name": "j0", "iterations": 7, "mean_iteration_s": 0.2, "slo_ok": True},
        ],
    }
    payload.update(overrides)
    return payload


def _recovery(**overrides) -> dict:
    payload = {
        "fault": "spine_down spine0",
        "strike_time": 1.0,
        "recovery_time": 2.0,
        "time_to_reroute": 0.0,
        "time_to_reinterleave": 0.4,
        "goodput_lost_bits": 1e6,
        "interleavable": True,
        "reinterleaved": True,
    }
    payload.update(overrides)
    return payload


def _full_telemetry() -> RunTelemetry:
    """A telemetry holding one point, one note and a record of every kind."""
    telemetry = RunTelemetry("test.records")
    telemetry.record_point({"seed": 1, "x": 2}, 0.5, 10, False, "sequential")
    telemetry.note("fell back to sequential")
    for kind in ("retry", "timeout", "crash", "error", "fault"):
        telemetry.record(kind, detail=f"{kind} happened", params={"x": 2}, attempt=1)
    telemetry.record(
        "violation", detail="cwnd runaway", guard="cwnd-bounds",
        subject="Job1", time=0.25,
    )
    telemetry.record(
        "degradation", detail="degraded to vanilla CC",
        guard="tracker-sanity", subject="Job2", time=0.5,
    )
    telemetry.record("watchdog", detail="point blew its budget")
    telemetry.record(
        "link_utilization", link="rack0->spine0", utilization=0.8,
        capacity_gbps=1.0, policy="mltcp", substrate="fluid",
    )
    telemetry.record(
        "recovery", **_recovery(), policy="mltcp", substrate="fluid", campaign=0
    )
    telemetry.record(
        "verification", property="starvation-bound", version=1,
        verdict="unsat", backend="exhaustive", states_checked=201,
        elapsed_s=0.01,
    )
    telemetry.record("service", **_service())
    return telemetry


def _report() -> dict:
    """The JSON round trip of the full telemetry's report."""
    return json.loads(json.dumps(_full_telemetry().as_report()))


def _index(kind: str) -> int:
    return list(RECORD_KINDS).index(kind)


class TestKindTable:
    def test_full_report_holds_every_kind_and_validates(self):
        report = _report()
        assert report["schema_version"] == REPORT_SCHEMA_VERSION == 7
        assert [r["kind"] for r in report["records"]] == list(RECORD_KINDS)
        assert validate_run_report(report) == []

    def test_schema_is_generated_from_the_table(self):
        properties = RUN_REPORT_SCHEMA["properties"]
        assert properties["schema_version"]["enum"] == [7]
        item = properties["records"]["items"]
        assert item["properties"]["kind"]["enum"] == list(RECORD_KINDS)
        assert [rule["then"] for rule in item["allOf"]] == list(
            RECORD_KINDS.values()
        )

    def test_record_returns_a_copy_of_the_appended_record(self):
        telemetry = RunTelemetry("t")
        params = {"placement": "spread"}
        entry = telemetry.record("fault", detail="link down", params=params)
        params["placement"] = "packed"
        assert entry == {
            "kind": "fault", "detail": "link down",
            "params": {"placement": "spread"},
        }
        assert telemetry.records == [entry]

    def test_error_names_index_kind_and_field(self):
        telemetry = RunTelemetry("t")
        telemetry.record("watchdog", detail="stall")
        with pytest.raises(ValueError) as raised:
            telemetry.record("verification", property="p", version=0,
                             verdict="unsat", backend="exhaustive")
        assert str(raised.value) == (
            "$.records[1](verification).version: 0 is below the minimum 1"
        )
        assert len(telemetry.records) == 1

    def test_unknown_kind_and_missing_field_rejected(self):
        telemetry = RunTelemetry("t")
        with pytest.raises(ValueError, match=r"\$\.records\[0\]\.kind: 'bogus'"):
            telemetry.record("bogus", detail="x")
        with pytest.raises(
            ValueError, match=r"\(link_utilization\): missing required key 'link'"
        ):
            telemetry.record("link_utilization", utilization=0.5)

    def test_summary_line_counts_resilience_and_guard_records(self):
        line = _full_telemetry().summary_line()
        assert line.endswith(", 5 degradation(s), 3 guard event(s)")


class TestRecordAndReportAgree:
    """Record time and report time apply the same bounds."""

    def test_slo_attainment_above_one(self):
        with pytest.raises(
            ValueError, match=r"slo_attainment: 1\.5 is above the maximum 1"
        ):
            RunTelemetry("t").record("service", **_service(slo_attainment=1.5))
        report = _report()
        report["records"][_index("service")]["slo_attainment"] = 1.5
        assert validate_run_report(report) == [
            f"$.records[{_index('service')}](service).slo_attainment: "
            "1.5 is above the maximum 1"
        ]

    def test_negative_recovery_times(self):
        with pytest.raises(
            ValueError, match=r"\(recovery\)\.strike_time: -1\.0 is below"
        ):
            RunTelemetry("t").record(
                "recovery", **_recovery(strike_time=-1.0, recovery_time=-2.0)
            )
        report = _report()
        i = _index("recovery")
        report["records"][i].update(strike_time=-1.0, recovery_time=-2.0)
        assert validate_run_report(report) == [
            f"$.records[{i}](recovery).strike_time: -1.0 is below the minimum 0",
            f"$.records[{i}](recovery).recovery_time: -2.0 is below the minimum 0",
        ]

    def test_non_finite_numbers(self):
        with pytest.raises(
            ValueError, match=r"\.utilization: nan is not a finite number"
        ):
            RunTelemetry("t").record(
                "link_utilization", link="l", utilization=float("nan")
            )
        with pytest.raises(ValueError, match=r"\.time: inf is not a finite"):
            RunTelemetry("t").record("watchdog", detail="x", time=float("inf"))
        # json.loads accepts bare NaN / Infinity tokens, so the validator
        # has to catch them itself.
        i = _index("link_utilization")
        text = json.dumps(_report()).replace('"utilization": 0.8', '"utilization": NaN')
        text = text.replace('"cache_hit_rate": 0.0', '"cache_hit_rate": -Infinity')
        assert validate_run_report(json.loads(text)) == [
            "$.totals.cache_hit_rate: -inf is not a finite number",
            f"$.records[{i}](link_utilization).utilization: nan is not a finite number",
        ]

    def test_bad_nested_service_event(self):
        report = _report()
        i = _index("service")
        report["records"][i]["events"][1] = {"kind": "teleport", "time": "soon"}
        assert validate_run_report(report) == [
            f"$.records[{i}](service).events[1].kind: 'teleport' is not one of "
            "['admit', 'defer', 'shed', 'degrade', 'depart', 'recovery', "
            "'fallback', 'fault']",
            f"$.records[{i}](service).events[1].time: expected type number/null, "
            "got str",
            f"$.records[{i}](service).events[1]: missing required key 'detail'",
        ]


def _run_guards(report: object) -> tuple[int, str, str]:
    """``repro guards`` on ``report`` written as JSON: (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.run.json"
        path.write_text(json.dumps(report))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["guards", str(path)])
    return code, out.getvalue(), err.getvalue()


class TestGuardsReader:
    def test_non_object_report_exits_2(self):
        code, _, err = _run_guards([1, 2])
        assert code == 2
        assert "$: expected type object, got list" in err

    def test_sectioned_report_exits_2_naming_schema_version(self):
        code, _, err = _run_guards({"schema_version": 3, "guards": []})
        assert code == 2
        assert "first: $.schema_version: 3 is not one of [7]" in err

    def test_v6_report_exits_2_naming_schema_version(self):
        report = _report()
        del report["records"]
        report["schema_version"] = 6
        report["guards"] = {
            "violations": [], "degradations": [], "watchdog_fires": [],
        }
        code, out, err = _run_guards(report)
        assert code == 2 and out == ""
        assert "first: $.schema_version: 6 is not one of [7]" in err

    def test_violations_exit_1_with_the_summary(self):
        report = _report()
        code, out, err = _run_guards(report)
        assert code == 1
        assert out == render_guard_summary(report["records"]) + "\n"
        assert "1 invariant violation(s)" in err and "cwnd runaway" in err

    def test_clean_report_exits_0(self):
        report = _report()
        report["records"] = [
            r for r in report["records"] if r["kind"] != "violation"
        ]
        code, out, _ = _run_guards(report)
        assert code == 0
        assert out.startswith("guards: 0 violation(s), 1 degradation episode(s)")

    def test_summary_text(self):
        assert render_guard_summary(_report()["records"]) == (
            "guards: 1 violation(s), 1 degradation episode(s), "
            "1 watchdog fire(s)\n"
            "  [violation] cwnd-bounds Job1 t=0.25: cwnd runaway\n"
            "  [degradation] tracker-sanity Job2 t=0.5: degraded to vanilla CC\n"
            "  [watchdog]: point blew its budget"
        )


def _paths(node, prefix=()):
    """Every JSON path (a tuple of keys/indices) inside ``node``."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _get(node, path):
    for step in path:
        node = node[step]
    return node


_BASE = _report()
_PATHS = list(_paths(_BASE))
_LIST_PATHS = [p for p in _PATHS if isinstance(_get(_BASE, p), list)]
_BAD_VALUES = st.sampled_from([
    None, True, 0, -1, -0.5, 1.5, 10**30, "", "x", [], {}, [1, 2],
    {"kind": "bogus"}, {"kind": "admit"}, {"kind": "teleport", "detail": 1},
    float("nan"), float("inf"), float("-inf"),
])
_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(_PATHS[1:])),
    st.tuples(st.just("set"), st.sampled_from(_PATHS), _BAD_VALUES),
    st.tuples(st.just("append"), st.sampled_from(_LIST_PATHS), _BAD_VALUES),
    st.tuples(
        st.just("relabel"),
        st.integers(0, len(_BASE["records"]) - 1),
        st.one_of(st.sampled_from(list(RECORD_KINDS)), st.text(max_size=12)),
    ),
)


def _mutate(report, mutation):
    op, *args = mutation
    if op == "relabel":
        index, kind = args
        records = report.get("records") if isinstance(report, dict) else None
        if isinstance(records, list) and index < len(records) and isinstance(
            records[index], dict
        ):
            records[index]["kind"] = kind
        return report
    path = args[0]
    try:
        parent = _get(report, path[:-1]) if path else None
        if op == "set" and not path:
            return args[1]
        if op == "set":
            parent[path[-1]] = args[1]
        elif op == "drop":
            del parent[path[-1]]
        elif op == "append":
            _get(report, path).append(args[1])
    except (KeyError, IndexError, TypeError, AttributeError):
        pass  # an earlier mutation removed or retyped this path
    return report


class TestReportFuzzing:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_MUTATIONS, min_size=1, max_size=3))
    def test_mutants_never_raise(self, mutations):
        report = json.loads(json.dumps(_BASE))
        for mutation in mutations:
            report = _mutate(report, mutation)
        errors = validate_run_report(report)
        assert all(isinstance(e, str) and e.startswith("$") for e in errors)
        code, _, err = _run_guards(report)
        assert code in (0, 1, 2)
        if errors:
            assert code == 2 and "is not a valid run-report" in err
