"""The service journal's typed format at its boundary (docs/SERVICE.md).

A journal written by a short serve run is mutated the ways a crash, a
disk or a hand edit can mutate it.  Each mutated journal must either load
exactly — every retained state equal to the clean journal's, by array
bytes and ``float.hex`` — or raise a ``ValueError`` naming the line and
the field.  A last line cut short is the one damage a load skips: it
loads the previous epoch's state.
"""

import base64
import functools
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.checkpoint import RunCheckpoint
from repro.service import ChurnDaemon, JournalError, ServiceConfig, ServiceJournal
from repro.service import journal as journal_module
from repro.workloads import ArrivalModel, FlashCrowd
from repro.workloads.presets import gpt2_fast_job

#: A full line every 4 commits, so 14 epochs give fulls and deltas.
_CADENCE = 4


def _config(**overrides):
    params = dict(
        arrival=ArrivalModel(
            rate_per_s=1.5, horizon_s=14.0, flash_crowds=(FlashCrowd(5.0, 6),)
        ),
        templates=(gpt2_fast_job("tpl"),),
        epochs=14,
        seed=3,
        max_running=4,
        queue_limit=3,
        snapshot_every=3,
    )
    params.update(overrides)
    return ServiceConfig(**params)


def _canon(value):
    """``value`` with arrays as dtype + bytes and floats as ``float.hex``."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.tobytes())
    if isinstance(value, dict):
        return {key: _canon(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_canon(item) for item in value]
    if type(value) is float:
        return ("float", value.hex())
    return (type(value).__name__, value)


@functools.lru_cache(maxsize=1)
def _written():
    """The clean journal's lines and every committed state, by epoch."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(journal_module, "SNAPSHOT_EVERY", _CADENCE)
        path = Path(tmp) / "svc.journal"
        committed = {}

        class Recording(ServiceJournal):
            def commit_epoch(self, epoch, state):
                committed[epoch] = _canon(state)
                return super().commit_epoch(epoch, state)

        ChurnDaemon(_config(), journal=Recording(path)).run()
        lines = path.read_bytes().splitlines(keepends=True)
    return lines, committed


@pytest.fixture
def written():
    return _written()


class TestRoundTrip:
    def test_every_state_decodes_exactly(self, written, tmp_path):
        lines, committed = written
        path = tmp_path / "svc.journal"
        path.write_bytes(b"".join(lines))
        journal = ServiceJournal(path)
        assert journal.epochs() == sorted(committed)
        for epoch in committed:
            assert _canon(journal.epoch_state(epoch)) == committed[epoch]
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds[:6] == ["meta", "full", "delta", "delta", "delta", "full"]

    def test_bounded_load_replays_the_last_full_line(self, written, tmp_path):
        lines, committed = written
        path = tmp_path / "svc.journal"
        path.write_bytes(b"".join(lines))
        journal = ServiceJournal(path, retain=2)
        latest = max(committed)
        assert journal.epochs() == [latest - 1, latest]
        assert journal.commits == len(committed)
        assert _canon(journal.epoch_state(latest)) == committed[latest]

    def test_torn_tail_is_cut_before_the_next_append(self, written, tmp_path):
        lines, committed = written
        path = tmp_path / "svc.journal"
        path.write_bytes(b"".join(lines[:-1]) + lines[-1][:40])
        journal = ServiceJournal(path, retain=2)
        assert journal.torn_tail
        latest = journal.latest_epoch()
        journal.commit_epoch(latest + 1, journal.epoch_state(latest))
        reread = ServiceJournal(path)
        assert not reread.torn_tail
        assert _canon(reread.epoch_state(latest + 1)) == committed[latest]


class TestFlatCommits:
    def test_delta_lines_do_not_grow_with_the_run(self, tmp_path):
        """A steady population's deltas stay the same size however many
        jobs have departed: the last quarter's are at most 1.25x the
        first quarter's."""
        path = tmp_path / "svc.journal"
        config = _config(
            arrival=ArrivalModel(rate_per_s=2.0, horizon_s=120.0),
            epochs=120, max_running=6, queue_limit=4,
        )
        daemon = ChurnDaemon(config, journal=ServiceJournal(path, retain=2))
        daemon.run()
        assert daemon.counters["departed"] > 30
        deltas = [
            len(line)
            for line in path.read_bytes().splitlines()
            if line.startswith(b'{"kind":"delta"')
        ]
        quarter = len(deltas) // 4
        first, last = deltas[:quarter], deltas[-quarter:]
        assert sum(last) / len(last) <= 1.25 * sum(first) / len(first)


# ------------------------------------------------------------------- fuzzing

#: A named line and field, or a line that is not JSON at all.
_NAMED = r"line \d+: (field '[^']+' |is not valid JSON)"

_JUNK = st.sampled_from(["x", "", True, False, math.nan, -1, -0.5])
_DTYPES = st.sampled_from(["<i8", "<f4", "|i1", "<f8", "|b1", "float64", 3])


def _paths(value, prefix=()):
    """Every (path, value) below ``value``, depth first."""
    yield prefix, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, prefix + (i,))


def _holder(record, path):
    for key in path[:-1]:
        record = record[key]
    return record


def _apply(lines, mutation):
    """The journal bytes after one mutation (see :func:`_mutations`)."""
    lines = list(lines)
    kind = mutation["op"]
    i = mutation.get("line", 0)
    if kind == "truncate-last":
        lines[-1] = lines[-1][: mutation["at"]]
    elif kind == "truncate":
        lines[i] = lines[i][: mutation["at"]] + b"\n"
    elif kind == "drop":
        del lines[i]
    elif kind == "swap":
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        record = json.loads(lines[i])
        path = mutation["path"]
        holder = _holder(record, path)
        if kind == "drop-key":
            del holder[path[-1]]
        elif kind == "length":
            raw = base64.b64decode(holder[path[-1]]["data"])
            cut = mutation["bytes"]
            raw = raw[:-cut] if cut > 0 else raw + raw[:-cut]
            holder[path[-1]]["data"] = base64.b64encode(raw).decode()
        else:
            holder[path[-1]] = mutation["value"]
        lines[i] = json.dumps(record, separators=(",", ":")).encode() + b"\n"
    return b"".join(lines)


@st.composite
def _mutations(draw, lines):
    """One mutation of the journal ``lines`` as a JSON-able dict."""
    last = len(lines) - 1
    op = draw(
        st.sampled_from(
            ["truncate-last", "truncate", "drop", "swap", "duplicate",
             "value", "value", "drop-key", "dtype", "length", "fingerprint"]
        )
    )
    if op == "truncate-last":
        return {"op": op, "at": draw(st.integers(0, len(lines[-1]) - 1))}
    if op in ("dtype", "length"):
        line = draw(st.integers(1, last))  # an epoch line: it has arrays
    else:
        line = draw(st.integers(0, last if op in ("duplicate", "value", "drop-key") else last - 1))
    if op == "truncate":
        return {"op": op, "line": line, "at": draw(st.integers(0, len(lines[line]) - 2))}
    if op in ("drop", "swap", "duplicate"):
        return {"op": op, "line": line}
    if op == "fingerprint":
        return {"op": "value", "line": 0, "path": ["meta", "fingerprint"], "value": "0" * 64}
    paths = list(_paths(json.loads(lines[line])))
    if op == "value":
        numbers = [
            list(p) for p, v in paths
            if type(v) in (int, float) and "data" not in p
        ]
        return {"op": op, "line": line, "path": draw(st.sampled_from(numbers)),
                "value": draw(_JUNK)}
    if op == "drop-key":
        keys = [list(p) for p, _ in paths if p and isinstance(p[-1], str)]
        return {"op": op, "line": line, "path": draw(st.sampled_from(keys))}
    arrays = [list(p) for p, v in paths if isinstance(v, dict) and "dtype" in v]
    path = draw(st.sampled_from(arrays))
    if op == "dtype":
        return {"op": "value", "line": line, "path": path + ["dtype"],
                "value": draw(_DTYPES)}
    return {"op": "length", "line": line, "path": path,
            "bytes": draw(st.sampled_from([1, 7, 8, -1, -8]))}


def _check_loads_exactly_or_names_the_field(data, mutation, committed, tmp):
    """The fuzz property, on one mutated journal."""
    path = Path(tmp) / "svc.journal"
    path.write_bytes(data)
    latest = max(committed)
    if mutation["op"] == "truncate-last":
        latest -= 1  # the torn line's epoch is lost, the rest loads
    for retain in (None, 2):
        try:
            journal = ServiceJournal(path, retain=retain)
        except ValueError as error:
            assert isinstance(error, JournalError)
            assert str(error).startswith(f"journal {path}: ")
            assert re.match(_NAMED, error.detail), error
            continue
        assert journal.latest_epoch() == latest
        for epoch in journal.epochs():
            assert _canon(journal.epoch_state(epoch)) == committed[epoch], epoch
        try:
            daemon = ChurnDaemon(
                _config(), journal=ServiceJournal(path, retain=retain), resume=True
            )
        except ValueError as error:
            assert isinstance(error, JournalError)
            assert re.match(_NAMED, error.detail), error
            continue
        # The resume itself counts a recovery and logs it as an event.
        resumed = _canon(daemon._dynamic_state())
        expected = dict(committed[latest])
        expected["counters"] = dict(expected["counters"])
        expected["counters"]["recoveries"] = ("int", expected["counters"]["recoveries"][1] + 1)
        assert resumed.pop("events")[:-1] == expected.pop("events")
        assert resumed == expected


class TestJournalFuzz:
    """Journal boundary fuzzing: truncated, reordered, retyped or foreign
    journals load exactly or fail naming the line and the field."""

    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_loads_exactly_or_raises_naming_the_field(self, data):
        lines, committed = _written()
        mutation = data.draw(_mutations(lines))
        with tempfile.TemporaryDirectory() as tmp:
            _check_loads_exactly_or_names_the_field(
                _apply(lines, mutation), mutation, committed, tmp
            )

    @pytest.mark.parametrize(
        "case",
        json.loads(
            (Path(__file__).resolve().parent / "fixtures" / "bad_journals.json").read_text()
        ),
        ids=lambda case: case["name"],
    )
    def test_shrunk_failures_name_the_field(self, written, case, tmp_path):
        """Each mutation that once escaped, pinned with its error."""
        lines, _ = written
        path = tmp_path / "svc.journal"
        path.write_bytes(_apply(lines, case["mutation"]))
        with pytest.raises(JournalError) as caught:
            ChurnDaemon(_config(), journal=ServiceJournal(path), resume=True)
        assert re.fullmatch(case["error"], caught.value.detail)

    def test_old_pickled_format_is_refused_by_name(self, tmp_path):
        path = tmp_path / "old.journal"
        RunCheckpoint(path).put("service:meta", {"fingerprint": "abc"})
        with pytest.raises(JournalError, match="line 1: field 'blob'.*old RunCheckpoint format"):
            ServiceJournal(path)


class TestServeCliBoundary:
    def test_query_refuses_a_middle_line_cut_short(self, written, tmp_path, capsys):
        from repro.cli import main

        lines, _ = written
        path = tmp_path / "svc.journal"
        path.write_bytes(b"".join(lines[:3]) + lines[3][:25] + b"\n" + b"".join(lines[4:]))
        assert main(["serve", "--query", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: cannot query journal {path}: line 4: ")
