"""Tests for the ``repro lint`` analyzer: per-rule fixtures, suppressions,
CLI exit codes — and the acceptance gate that the repo's own ``src/`` tree
is clean."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import ALL_RULES, lint_paths, lint_source, rule_by_code

#: Default fixture path — inside the fluid/ scope so every rule family
#: (including the scoped ones) is active.
FLUID = "src/repro/fluid/fixture.py"
#: A path outside every scope restriction but inside none of the exemptions.
NEUTRAL = "src/repro/workloads/fixture.py"


def codes(source: str, path: str = FLUID) -> list[str]:
    """Rule codes found in ``source`` when linted as ``path``."""
    return [f.code for f in lint_source(source, path, ALL_RULES)]


class TestDeterminismRules:
    def test_det001_flags_global_random_calls(self):
        src = "import random\nx = random.random()\ny = random.randint(0, 3)\n"
        assert codes(src) == ["DET001", "DET001"]

    def test_det001_allows_seeded_instances(self):
        src = (
            "import random\n"
            "rng = random.Random(42)\n"
            "x = rng.random()\n"
            "y = rng.randint(0, 3)\n"
        )
        assert codes(src) == []

    def test_det002_flags_wall_clock_in_simulation_code(self):
        src = "import time\nt0 = time.perf_counter()\nt1 = time.time()\n"
        assert codes(src, "src/repro/simulator/fixture.py") == [
            "DET002", "DET002",
        ]

    def test_det002_flags_datetime_now(self):
        src = "from datetime import datetime\nstamp = datetime.now()\n"
        assert codes(src) == ["DET002"]

    def test_det002_allows_harness_layer(self):
        src = "import time\nt0 = time.perf_counter()\n"
        assert codes(src, "src/repro/harness/telemetry.py") == []

    def test_det003_flags_legacy_numpy_global_rng(self):
        src = "import numpy as np\nnp.random.seed(1)\nx = np.random.normal()\n"
        assert codes(src) == ["DET003", "DET003"]

    def test_det003_allows_default_rng(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.normal()\n"
        )
        assert codes(src) == []

    def test_det004_flags_float_sum_over_set(self):
        # The water_fill bug shape: summation order over a set reaches the
        # allocation result.
        src = (
            "def f(weights, demands):\n"
            "    unsat = {fid for fid in demands}\n"
            "    return sum(weights[fid] for fid in unsat)\n"
        )
        assert codes(src) == ["DET004"]

    def test_det004_flags_for_loop_and_subscripted_dict_of_sets(self):
        src = (
            "def f(items):\n"
            "    members: dict[str, set[str]] = {}\n"
            "    chosen = set(items)\n"
            "    out = []\n"
            "    for x in chosen:\n"
            "        out.append(x)\n"
            "    picked = [f for f in members['k']]\n"
            "    return out, picked\n"
        )
        assert codes(src) == ["DET004", "DET004"]

    def test_det004_allows_sorted_iteration_and_set_building(self):
        src = (
            "def f(weights, demands):\n"
            "    unsat = {fid for fid in demands}\n"
            "    capped = {fid for fid in unsat if weights[fid] > 0}\n"
            "    return sum(weights[fid] for fid in sorted(unsat)), capped\n"
        )
        assert codes(src) == []

    def test_det004_out_of_scope_paths_are_ignored(self):
        src = "def f(xs):\n    s = set(xs)\n    return [x for x in s]\n"
        assert codes(src, "src/repro/harness/fixture.py") == []

    def test_det005_flags_mutable_defaults(self):
        src = (
            "def f(a, log=[]):\n    return log\n"
            "def g(*, cache={}):\n    return cache\n"
            "def h(s=set()):\n    return s\n"
        )
        assert codes(src) == ["DET005", "DET005", "DET005"]

    def test_det005_allows_none_default(self):
        src = "def f(a, log=None):\n    return log or []\n"
        assert codes(src) == []


class TestFloatRule:
    def test_flt001_flags_float_equality(self):
        src = "def f(rate):\n    return rate == 0.0\n"
        assert codes(src) == ["FLT001"]

    def test_flt001_flags_suffixed_identifiers(self):
        src = "def f(a_time, b_time):\n    return a_time != b_time\n"
        assert codes(src) == ["FLT001"]

    def test_flt001_allows_ordered_comparison_and_int_equality(self):
        src = (
            "def f(rate, seq, expected_seq):\n"
            "    return rate <= 0.0 or seq == expected_seq\n"
        )
        assert codes(src) == []

    def test_flt001_scoped_to_simulation_packages(self):
        src = "def f(rate):\n    return rate == 0.0\n"
        assert codes(src, NEUTRAL) == []


class TestUnitRules:
    def test_unt001_flags_cross_unit_assignment(self):
        src = "def f(capacity_gbps):\n    capacity_bps = capacity_gbps * 1e9\n    return capacity_bps\n"
        assert codes(src) == ["UNT001"]

    def test_unt001_flags_bits_bytes_crossing(self):
        src = "def f(payload_bytes):\n    total_bits = payload_bytes * 8\n    return total_bits\n"
        assert codes(src) == ["UNT001"]

    def test_unt001_allows_named_converter(self):
        src = (
            "from repro.core.units import bps_from_gbps\n"
            "def f(capacity_gbps):\n"
            "    capacity_bps = bps_from_gbps(capacity_gbps)\n"
            "    return capacity_bps\n"
        )
        assert codes(src) == []

    def test_unt001_allows_same_unit(self):
        src = "def f(demand_bps):\n    rate_bps = demand_bps / 2\n    return rate_bps\n"
        assert codes(src) == []

    def test_unt002_flags_cross_unit_kwarg(self):
        src = "def f(run, payload_bytes):\n    run(total_bits=payload_bytes)\n"
        assert codes(src) == ["UNT002"]

    def test_unt002_allows_converter_at_call_site(self):
        src = (
            "from repro.core.units import bits_from_bytes\n"
            "def f(run, payload_bytes):\n"
            "    run(total_bits=bits_from_bytes(payload_bytes))\n"
        )
        assert codes(src) == []


class TestHygieneRules:
    def test_sim001_flags_clock_mutation(self):
        src = (
            "def handler(self):\n"
            "    self.sim.now = 5.0\n"
            "def other(engine, dt):\n"
            "    engine.now += dt\n"
        )
        assert codes(src) == ["SIM001", "SIM001"]

    def test_sim001_exempts_the_engine_itself(self):
        src = "def _advance(self, t):\n    self.now = t\n"
        assert codes(src, "src/repro/simulator/engine.py") == []

    def test_sim002_flags_storing_popped_events(self):
        src = (
            "import heapq\n"
            "def handler(self):\n"
            "    self.last_event = heapq.heappop(self._heap)\n"
        )
        assert codes(src, "src/repro/simulator/fixture.py") == ["SIM002"]

    def test_sim002_flags_appending_popped_events(self):
        src = (
            "import heapq\n"
            "def handler(self):\n"
            "    self.history.append(heapq.heappop(self._heap))\n"
        )
        assert codes(src, "src/repro/simulator/fixture.py") == ["SIM002"]

    def test_sim002_allows_local_use(self):
        src = (
            "import heapq\n"
            "def handler(self):\n"
            "    event = heapq.heappop(self._heap)\n"
            "    event.callback()\n"
        )
        assert codes(src, "src/repro/simulator/fixture.py") == []


class TestPerfRule:
    _DATACLASS_PREFIX = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Entry:\n"
        "    t: float\n"
    )

    def test_prf001_flags_dataclass_in_event_handler(self):
        src = self._DATACLASS_PREFIX + (
            "def on_packet(self, pkt):\n"
            "    return Entry(t=0.0)\n"
        )
        assert codes(src) == ["PRF001"]

    def test_prf001_flags_dispatch_and_allocate(self):
        src = self._DATACLASS_PREFIX + (
            "def _dispatch(self):\n"
            "    e = Entry(1.0)\n"
            "    return e\n"
            "def allocate(self, flows, capacity_bps):\n"
            "    return [Entry(t=f) for f in flows]\n"
        )
        assert codes(src) == ["PRF001", "PRF001"]

    def test_prf001_flags_dataclasses_replace(self):
        src = (
            "import dataclasses\n"
            "def on_ack(self, state):\n"
            "    return dataclasses.replace(state, cwnd=1.0)\n"
        )
        assert codes(src) == ["PRF001"]

    def test_prf001_allows_construction_outside_hot_functions(self):
        src = self._DATACLASS_PREFIX + (
            "def build_schedule():\n"
            "    return Entry(t=0.0)\n"
        )
        assert codes(src) == []

    def test_prf001_allows_non_dataclass_calls_in_hot_functions(self):
        src = (
            "def allocate(self, flows, capacity_bps):\n"
            "    rates = dict()\n"
            "    return sorted(rates)\n"
        )
        assert codes(src) == []

    def test_prf001_scoped_to_simulator_and_fluid(self):
        src = self._DATACLASS_PREFIX + (
            "def on_packet(self, pkt):\n"
            "    return Entry(t=0.0)\n"
        )
        assert codes(src, NEUTRAL) == []
        assert codes(src, "src/repro/harness/fixture.py") == []

    def test_prf001_suppressible_in_place(self):
        src = self._DATACLASS_PREFIX + (
            "def on_packet(self, pkt):\n"
            "    return Entry(t=0.0)  # repro-lint: disable=PRF001\n"
        )
        assert codes(src) == []


class TestHotPathFlowLoopRule:
    _MARKER = "# repro-lint: hot-path-module\n"

    def test_prf002_flags_loop_over_annotated_flow_param(self):
        src = self._MARKER + (
            "def allocate(self, flows: 'Sequence[FlowView]', capacity_bps):\n"
            "    for f in flows:\n"
            "        f.sent_bits += 1.0\n"
        )
        assert codes(src) == ["PRF002"]

    def test_prf002_tracks_sequence_wrappers_slices_and_assignment(self):
        src = self._MARKER + (
            "def sweep(self, flows: 'list[FlowView]'):\n"
            "    ordered = sorted(flows)\n"
            "    head = ordered[:4]\n"
            "    for f in head:\n"
            "        f.remaining_bits = 0.0\n"
        )
        assert codes(src) == ["PRF002"]

    def test_prf002_seeds_from_annassign_and_comprehension(self):
        src = self._MARKER + (
            "def build(self, jobs):\n"
            "    views: list[FlowView] = []\n"
            "    for v in views:\n"
            "        v.demand_bps = 1.0\n"
            "def make(self, jobs):\n"
            "    views = [FlowView(j) for j in jobs]\n"
            "    for v in views:\n"
            "        v.demand_bps = 1.0\n"
        )
        assert codes(src) == ["PRF002", "PRF002"]

    def test_prf002_flags_loop_over_job_runtimes(self):
        src = self._MARKER + (
            "def sweep(runtimes: list[_JobRuntime], now):\n"
            "    for rt in runtimes:\n"
            "        rt.phase_deadline = now\n"
        )
        assert codes(src) == ["PRF002"]

    def test_prf002_ignores_unmarked_modules(self):
        src = (
            "def allocate(self, flows: 'Sequence[FlowView]', capacity_bps):\n"
            "    for f in flows:\n"
            "        f.sent_bits += 1.0\n"
        )
        assert codes(src) == []

    def test_prf002_mapping_annotations_iterate_keys_not_flows(self):
        src = self._MARKER + (
            "def allocate(self, flows: 'Sequence[FlowView]', capacity_bps):\n"
            "    levels: dict[int, list[FlowView]] = {}\n"
            "    for level in sorted(levels):\n"
            "        pass\n"
        )
        assert codes(src) == []

    def test_prf002_ignores_non_flow_loops_in_marked_modules(self):
        src = self._MARKER + (
            "def allocate(self, flows: 'Sequence[FlowView]', capacity_bps):\n"
            "    for i in range(3):\n"
            "        pass\n"
            "    for name in ['a', 'b']:\n"
            "        pass\n"
        )
        assert codes(src) == []

    def test_prf002_scoped_to_repro_packages(self):
        src = self._MARKER + (
            "def allocate(self, flows: 'Sequence[FlowView]', capacity_bps):\n"
            "    for f in flows:\n"
            "        f.sent_bits += 1.0\n"
        )
        assert codes(src, "scripts/fixture.py") == []

    def test_prf002_suppressible_in_place(self):
        src = self._MARKER + (
            "def allocate(self, flows: 'Sequence[FlowView]', capacity_bps):\n"
            "    for f in flows:  # repro-lint: disable=PRF002\n"
            "        f.sent_bits += 1.0\n"
        )
        assert codes(src) == []


class TestGuardRule:
    def test_grd001_flags_bare_except_without_reraise(self):
        src = (
            "try:\n"
            "    risky()\n"
            "except:\n"
            "    cleanup()\n"
        )
        assert codes(src, path=NEUTRAL) == ["GRD001"]

    def test_grd001_allows_bare_except_that_reraises(self):
        src = (
            "try:\n"
            "    risky()\n"
            "except:\n"
            "    cleanup()\n"
            "    raise\n"
        )
        assert codes(src, path=NEUTRAL) == []

    def test_grd001_flags_exception_pass(self):
        src = (
            "try:\n"
            "    risky()\n"
            "except Exception:\n"
            "    pass\n"
        )
        assert codes(src, path=NEUTRAL) == ["GRD001"]

    def test_grd001_flags_base_exception_and_tuples(self):
        src = (
            "try:\n"
            "    risky()\n"
            "except (ValueError, BaseException):\n"
            "    continue\n"
        )
        # Wrap in a loop so `continue` parses.
        src = "for _ in items:\n" + "\n".join(
            "    " + line for line in src.splitlines()
        ) + "\n"
        assert codes(src, path=NEUTRAL) == ["GRD001"]

    def test_grd001_allows_handled_catch_all(self):
        src = (
            "try:\n"
            "    risky()\n"
            "except Exception:\n"
            "    return False\n"
        )
        src = "def f():\n" + "\n".join(
            "    " + line for line in src.splitlines()
        ) + "\n"
        assert codes(src, path=NEUTRAL) == []

    def test_grd001_allows_narrow_swallow(self):
        src = (
            "try:\n"
            "    risky()\n"
            "except OSError:\n"
            "    pass\n"
        )
        assert codes(src, path=NEUTRAL) == []

    def test_grd001_suppressible_in_place(self):
        src = (
            "try:\n"
            "    risky()\n"
            "except Exception:  # repro-lint: disable=GRD001\n"
            "    pass\n"
        )
        assert codes(src, path=NEUTRAL) == []


class TestUnrecordedFaultHandlerRule:
    FAULTS = "src/repro/faults/fixture.py"

    def test_grd002_flags_narrow_swallow_in_faults_package(self):
        src = (
            "try:\n"
            "    risky()\n"
            "except OSError:\n"
            "    fallback()\n"
        )
        assert codes(src, path=self.FAULTS) == ["GRD002"]

    def test_grd002_flags_fault_named_function_anywhere(self):
        src = (
            "def apply_reroute(network):\n"
            "    try:\n"
            "        network.install()\n"
            "    except KeyError:\n"
            "        return None\n"
        )
        assert codes(src, path=NEUTRAL) == ["GRD002"]

    def test_grd002_allows_reraise(self):
        src = (
            "def arm_fault(sim):\n"
            "    try:\n"
            "        sim.schedule()\n"
            "    except ValueError:\n"
            "        raise\n"
        )
        assert codes(src, path=NEUTRAL) == []

    def test_grd002_allows_recording_call(self):
        src = (
            "def replay_chaos(rail):\n"
            "    try:\n"
            "        strike()\n"
            "    except ValueError as error:\n"
            "        rail.violation('route-liveness', 'spine0', 0.0, str(error))\n"
        )
        assert codes(src, path=NEUTRAL) == []

    def test_grd002_allows_telemetry_recorders_and_cli_fail(self):
        src = (
            "def run_faults(telemetry):\n"
            "    try:\n"
            "        strike()\n"
            "    except ValueError as error:\n"
            "        telemetry.record('fault', detail=str(error))\n"
            "    try:\n"
            "        reroute()\n"
            "    except OSError as error:\n"
            "        return fail(str(error))\n"
        )
        assert codes(src, path=NEUTRAL) == []

    def test_grd002_ignores_functions_without_fault_names(self):
        src = (
            "def load_config(path):\n"
            "    try:\n"
            "        return read(path)\n"
            "    except OSError:\n"
            "        return None\n"
        )
        assert codes(src, path=NEUTRAL) == []

    def test_grd002_default_is_not_a_fault_name(self):
        src = (
            "def json_default(value):\n"
            "    try:\n"
            "        return value.item()\n"
            "    except Exception:\n"
            "        return repr(value)\n"
        )
        assert codes(src, path=NEUTRAL) == []

    def test_grd002_suppressible_in_place(self):
        src = (
            "def clear_faults(state):\n"
            "    try:\n"
            "        state.reset()\n"
            "    except KeyError:  # repro-lint: disable=GRD002\n"
            "        return None\n"
        )
        assert codes(src, path=NEUTRAL) == []


class TestSuppressions:
    def test_line_suppression_drops_the_finding(self):
        src = "import random\nx = random.random()  # repro-lint: disable=DET001\n"
        assert codes(src) == []

    def test_line_suppression_is_code_specific(self):
        # The FLT001 directive does not hide DET001 — and, silencing
        # nothing, it is itself flagged as an unused suppression.
        src = "import random\nx = random.random()  # repro-lint: disable=FLT001\n"
        assert codes(src) == ["DET001", "SUP001"]

    def test_line_suppression_all(self):
        src = "import random\nx = random.random()  # repro-lint: disable=all\n"
        assert codes(src) == []

    def test_file_suppression(self):
        src = (
            "# repro-lint: disable-file=DET001\n"
            "import random\n"
            "x = random.random()\n"
            "y = random.uniform(0, 1)\n"
        )
        assert codes(src) == []

    def test_multiple_codes_one_comment(self):
        src = (
            "import random\n"
            "def f(rate):\n"
            "    x = random.random() == 0.0  # repro-lint: disable=DET001,FLT001\n"
            "    return x\n"
        )
        assert codes(src) == []

    def test_unused_line_suppression_is_flagged(self):
        src = "x = 1  # repro-lint: disable=DET001\n"
        findings = lint_source(src, FLUID, ALL_RULES)
        assert [f.code for f in findings] == ["SUP001"]
        assert findings[0].col == src.index("#")
        assert "unused suppression" in findings[0].message

    def test_unused_file_suppression_is_flagged(self):
        src = "# repro-lint: disable-file=DET001\nx = 1\n"
        findings = lint_source(src, FLUID, ALL_RULES)
        assert [f.code for f in findings] == ["SUP001"]
        assert "in this file" in findings[0].message

    def test_partially_used_multi_code_directive(self):
        # DET001 fires and is silenced; FLT001 never fires, so only the
        # FLT001 half of the directive is reported stale.
        src = "import random\nrandom.random()  # repro-lint: disable=DET001,FLT001\n"
        findings = lint_source(src, FLUID, ALL_RULES)
        assert [f.code for f in findings] == ["SUP001"]
        assert "FLT001" in findings[0].message

    def test_unused_disable_all_is_flagged(self):
        src = "x = 1  # repro-lint: disable=all\n"
        assert codes(src) == ["SUP001"]

    def test_used_disable_all_is_not_flagged(self):
        src = "import random\nrandom.random()  # repro-lint: disable=all\n"
        assert codes(src) == []

    def test_unselected_code_gets_benefit_of_the_doubt(self):
        # Under --select DET001, an FLT001 directive cannot prove itself
        # useful, so SUP001 stays quiet about it.
        from repro.lint.engine import SUPPRESSION_RULE

        rules = (rule_by_code("DET001"), SUPPRESSION_RULE)
        src = "x = 0.1 == 0.2  # repro-lint: disable=FLT001\n"
        assert [f.code for f in lint_source(src, FLUID, rules)] == []

    def test_file_and_line_suppressions_both_count_as_used(self):
        # A finding covered by both a file-wide and a line directive marks
        # both used — neither is reported stale.
        src = (
            "# repro-lint: disable-file=DET001\n"
            "import random\n"
            "random.random()  # repro-lint: disable=DET001\n"
        )
        assert codes(src) == []

    def test_directive_shaped_docstring_text_is_inert(self):
        # Directive syntax inside a docstring neither suppresses nor
        # counts as a (stale) suppression: directives live in comments.
        src = (
            '"""Example: ``# repro-lint: disable=DET001`` silences a line."""\n'
            "import random\n"
            "random.random()\n"
        )
        assert codes(src) == ["DET001"]

    def test_sup001_is_itself_suppressible(self):
        src = "x = 1  # repro-lint: disable=DET001,SUP001\n"
        assert codes(src) == []


class TestAliasDataflow:
    def test_from_import_of_global_random_fn(self):
        src = "from random import shuffle\nshuffle([1, 2])\n"
        assert codes(src) == ["DET001"]

    def test_from_import_with_asname(self):
        src = "from random import randint as ri\nri(0, 3)\n"
        assert codes(src) == ["DET001"]

    def test_module_alias_through_assignment(self):
        src = "import random\nr = random\nr.seed(1)\n"
        assert codes(src) == ["DET001"]

    def test_transitive_assignment_chain(self):
        src = "import random\nr = random\ns = r\ns.random()\n"
        assert codes(src) == ["DET001"]

    def test_alias_cycle_does_not_hang(self):
        src = "a = b\nb = a\na.c()\n"
        assert codes(src, NEUTRAL) == []

    def test_seeded_instance_still_allowed_through_alias(self):
        src = "import random\nr = random\ngen = r.Random(7)\ngen.random()\n"
        assert codes(src) == []

    def test_wall_clock_from_import(self):
        src = "from time import monotonic\nmonotonic()\n"
        assert codes(src) == ["DET002"]

    def test_wall_clock_alias_exempt_in_harness(self):
        src = "from time import monotonic\nmonotonic()\n"
        assert codes(src, "src/repro/harness/fixture.py") == []

    def test_numpy_alias_resolution(self):
        src = "import numpy as np\nnp.random.normal(0, 1)\n"
        assert codes(src) == ["DET003"]

    def test_numpy_random_module_from_import(self):
        src = "from numpy import random as nr\nnr.normal(0, 1)\n"
        assert codes(src) == ["DET003"]

    def test_finding_message_names_both_spellings(self):
        src = "from random import shuffle\nshuffle([1, 2])\n"
        (finding,) = lint_source(src, FLUID, ALL_RULES)
        assert "shuffle()" in finding.message
        assert "random.shuffle" in finding.message


class TestModelDriftRule:
    VERIFY = "src/repro/verify/fixture.py"

    def test_in_sync_constant_is_clean(self):
        src = "SLOPE = 1.75  # mdl: mirrors repro.core.aggressiveness.PAPER_SLOPE\n"
        assert codes(src, self.VERIFY) == []

    def test_drifted_constant_is_flagged(self):
        src = "SLOPE = 2.5  # mdl: mirrors repro.core.aggressiveness.PAPER_SLOPE\n"
        findings = lint_source(src, self.VERIFY, ALL_RULES)
        assert [f.code for f in findings] == ["MDL001"]
        assert "drift" in findings[0].message
        assert "1.75" in findings[0].message

    def test_class_attribute_target(self):
        src = (
            "DRIFT = 0.45"
            "  # mdl: mirrors repro.core.config.MLTCPConfig.drift_threshold\n"
        )
        assert codes(src, self.VERIFY) == []

    def test_unresolvable_target_is_flagged(self):
        src = "X = 1.0  # mdl: mirrors repro.core.no_such_module.NOPE\n"
        findings = lint_source(src, self.VERIFY, ALL_RULES)
        assert [f.code for f in findings] == ["MDL001"]
        assert "unresolvable" in findings[0].message

    def test_rule_is_scoped_to_verify(self):
        src = "SLOPE = 2.5  # mdl: mirrors repro.core.aggressiveness.PAPER_SLOPE\n"
        assert codes(src, NEUTRAL) == []

    def test_model_module_mirrors_are_in_sync(self):
        """Acceptance criterion: the real verify/model.py passes MDL001."""
        model = (
            Path(__file__).resolve().parent.parent
            / "src" / "repro" / "verify" / "model.py"
        )
        findings = lint_source(
            model.read_text(), str(model), (rule_by_code("MDL001"),)
        )
        assert findings == []


class TestAsynchronyRule:
    """ASY001: no blocking calls inside `async def` bodies."""

    def test_time_sleep_in_async_flagged(self):
        src = (
            "import time\n"
            "async def poll():\n"
            "    time.sleep(1.0)\n"
        )
        assert codes(src, NEUTRAL) == ["ASY001"]

    def test_aliased_sleep_resolved(self):
        src = (
            "from time import sleep\n"
            "async def poll():\n"
            "    sleep(1.0)\n"
        )
        assert codes(src, NEUTRAL) == ["ASY001"]

    def test_open_in_async_flagged(self):
        src = (
            "async def dump(path):\n"
            "    with open(path) as handle:\n"
            "        return handle.read()\n"
        )
        assert codes(src, NEUTRAL) == ["ASY001"]

    def test_path_write_text_in_async_flagged(self):
        src = (
            "async def dump(path, blob):\n"
            "    path.write_text(blob)\n"
        )
        assert codes(src, NEUTRAL) == ["ASY001"]

    def test_sleep_in_sync_function_clean(self):
        src = (
            "import time\n"
            "def backoff():\n"
            "    time.sleep(1.0)\n"
        )
        assert codes(src, NEUTRAL) == []

    def test_nested_sync_function_not_flagged(self):
        """A sync helper defined inside a coroutine runs wherever it is
        *called* — flagging its definition site would be guessing."""
        src = (
            "import time\n"
            "async def poll():\n"
            "    def blocking():\n"
            "        time.sleep(1.0)\n"
            "    return blocking\n"
        )
        assert codes(src, NEUTRAL) == []

    def test_async_sleep_clean(self):
        src = (
            "import asyncio\n"
            "async def poll():\n"
            "    await asyncio.sleep(1.0)\n"
        )
        assert codes(src, NEUTRAL) == []

    def test_deeply_nested_blocking_call_flagged(self):
        src = (
            "import time\n"
            "async def poll(items):\n"
            "    for item in items:\n"
            "        if item:\n"
            "            time.sleep(0.1)\n"
        )
        assert codes(src, NEUTRAL) == ["ASY001"]

    def test_suppression_comment(self):
        src = (
            "import time\n"
            "async def poll():\n"
            "    time.sleep(1.0)  # repro-lint: disable=ASY001 -- test shim\n"
        )
        assert codes(src, NEUTRAL) == []


class TestRuleCatalog:
    def test_codes_are_unique_and_documented(self):
        seen = [rule.code for rule in ALL_RULES]
        assert len(seen) == len(set(seen))
        for rule in ALL_RULES:
            assert rule.summary and rule.rationale

    def test_rule_by_code_roundtrip(self):
        for rule in ALL_RULES:
            assert rule_by_code(rule.code) is rule

    def test_rule_by_code_unknown(self):
        with pytest.raises(KeyError):
            rule_by_code("XYZ999")

    def test_every_rule_is_catalogued_in_docs(self):
        doc = (
            Path(__file__).resolve().parent.parent / "docs" / "LINTING.md"
        ).read_text()
        for rule in ALL_RULES:
            assert rule.code in doc, f"{rule.code} missing from docs/LINTING.md"


class TestCli:
    def _write(self, tmp_path, name, source):
        path = tmp_path / name
        path.write_text(source)
        return path

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, "ok.py", "x = 1\n")
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr()
        assert "no findings" in out.out and out.err == ""

    def test_findings_exit_one_on_stderr(self, tmp_path, capsys):
        path = self._write(
            tmp_path, "bad.py", "import random\nx = random.random()\n"
        )
        assert main(["lint", str(path)]) == 1
        err = capsys.readouterr().err
        assert "DET001" in err and "1 finding(s)" in err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.py")]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        path = self._write(tmp_path, "broken.py", "def f(:\n")
        assert main(["lint", str(path)]) == 2
        assert "repro: error: cannot parse" in capsys.readouterr().err

    def test_select_restricts_rules(self, tmp_path, capsys):
        path = self._write(
            tmp_path, "bad.py", "import random\nx = random.random()\n"
        )
        assert main(["lint", "--select", "DET005", str(path)]) == 0
        capsys.readouterr()

    def test_ignore_drops_rules(self, tmp_path, capsys):
        path = self._write(
            tmp_path, "bad.py", "import random\nx = random.random()\n"
        )
        assert main(["lint", "--ignore", "DET001", str(path)]) == 0
        capsys.readouterr()

    def test_unknown_code_exits_two(self, tmp_path, capsys):
        path = self._write(tmp_path, "ok.py", "x = 1\n")
        assert main(["lint", "--select", "NOPE", str(path)]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.code in out

    def test_json_output_findings(self, tmp_path, capsys):
        import json

        path = self._write(
            tmp_path, "bad.py", "import random\nx = random.random()\n"
        )
        assert main(["lint", "--json", str(path)]) == 1
        out = capsys.readouterr()
        payload = json.loads(out.out)
        assert out.err == ""  # machine mode: stdout only
        assert len(payload) == 1
        entry = payload[0]
        assert entry["code"] == "DET001"
        assert entry["path"] == str(path)
        assert entry["line"] == 2
        assert set(entry) == {"path", "line", "col", "code", "message"}

    def test_json_output_clean(self, tmp_path, capsys):
        import json

        path = self._write(tmp_path, "ok.py", "x = 1\n")
        assert main(["lint", "--json", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_directory_walk(self, tmp_path, capsys):
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "a.py").write_text("x = 1\n")
        (sub / "b.py").write_text("import random\ny = random.choice([1])\n")
        assert main(["lint", str(tmp_path)]) == 1
        assert "b.py" in capsys.readouterr().err


class TestRepoIsClean:
    def test_src_tree_has_no_findings(self):
        """Acceptance criterion: `repro lint src/` exits 0 on the tree."""
        src = Path(__file__).resolve().parent.parent / "src"
        assert lint_paths([str(src)]) == []
