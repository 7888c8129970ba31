"""Tests for artifact persistence (traces, iteration logs, scenarios)."""

import json

import numpy as np
import pytest

from repro.fluid.flowsim import run_fluid
from repro.workloads.presets import four_job_scenario, gpt2_job
from repro.workloads.traceio import (
    load_demand_trace,
    load_iterations,
    load_scenario,
    save_demand_trace,
    save_iterations,
    save_scenario,
)
from repro.workloads.traffic import demand_trace


class TestDemandTraceRoundTrip:
    def test_round_trip(self, tmp_path):
        times, demand = demand_trace(gpt2_job(jitter_sigma=0.0), 4.0)
        path = tmp_path / "trace.csv"
        save_demand_trace(path, times, demand)
        t2, d2 = load_demand_trace(path)
        assert np.allclose(times, t2)
        assert np.allclose(demand, d2)

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="align"):
            save_demand_trace(tmp_path / "x.csv", [0.0, 1.0], [1.0])

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="not a demand trace"):
            load_demand_trace(path)


class TestIterationLogRoundTrip:
    def test_round_trip(self, tmp_path):
        result = run_fluid(four_job_scenario(), 50.0, max_iterations=5, seed=1)
        path = tmp_path / "iters.csv"
        save_iterations(path, result)
        records = load_iterations(path)
        assert len(records) == len(result.iterations)
        for original, loaded in zip(result.iterations, records):
            assert loaded.job == original.job
            assert loaded.index == original.index
            assert loaded.duration == pytest.approx(original.duration)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("x\n1\n")
        with pytest.raises(ValueError, match="not an iteration log"):
            load_iterations(path)


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
