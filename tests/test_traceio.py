"""Tests for scenario persistence."""

import json

import pytest

from repro.workloads.presets import four_job_scenario, gpt2_job
from repro.workloads.traceio import load_scenario, save_scenario

#: One valid scenario entry, as save_scenario writes it.
_FIELDS = {"name": "J", "comm_bits": 1e9, "demand_gbps": 10.0, "compute_time": 0.1}


class TestScenarioRoundTrip:
    def test_round_trip(self, tmp_path):
        jobs = four_job_scenario()
        path = tmp_path / "scenario.json"
        save_scenario(path, jobs)
        loaded = load_scenario(path)
        assert loaded == jobs

    def test_iteration_limit_preserved(self, tmp_path):
        jobs = [gpt2_job().with_iteration_limit(7)]
        path = tmp_path / "scenario.json"
        save_scenario(path, jobs)
        assert load_scenario(path)[0].iteration_limit == 7

    def test_invalid_payload_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="not a scenario"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "entry, match",
        [
            ({"name": 1}, r"jobs\[1\]: .*missing .*'comm_bits'"),
            ({**_FIELDS, "name": 1}, r"jobs\[1\]: name must be a string"),
            ({**_FIELDS, "comm_bits": "x"}, r"jobs\[1\]: .*comm_bits must be"),
            ({**_FIELDS, "bogus": 1.0}, r"jobs\[1\]: .*'bogus'"),
            ({**_FIELDS, "iteration_limit": "x"}, r"jobs\[1\]: .*iteration_limit"),
            ({**_FIELDS, "demand_gbps": -1.0}, r"jobs\[1\]: .*demand_gbps"),
            (3, r"jobs\[1\]: .*mapping"),
        ],
    )
    def test_bad_entry_names_entry_and_field(self, tmp_path, entry, match):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"jobs": [_FIELDS, entry]}))
        with pytest.raises(ValueError, match=match):
            load_scenario(path)
