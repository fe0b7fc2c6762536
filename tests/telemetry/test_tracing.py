"""Span tracing: JSONL sink, torn-line tolerance, exports, aggregation."""

import json
import os
import pickle

import pytest

from repro.exceptions import ValidationError
from repro.telemetry import TRACE_FILE_NAME
from repro.telemetry.tracing import (
    Tracer,
    make_tracer,
    read_trace,
    summarize_trace,
    to_chrome_trace,
)


class TestTracerSink:
    def test_emit_read_round_trip(self, tmp_path):
        tracer = Tracer(tmp_path / "trace.jsonl")
        tracer.emit("prep", ts=10.0, dur=0.25, steps=3)
        tracer.emit("train", ts=10.25, dur=0.75)
        tracer.close()
        events = read_trace(tmp_path / "trace.jsonl")
        assert [event["name"] for event in events] == ["prep", "train"]
        assert events[0]["attrs"] == {"steps": 3}
        assert events[0]["pid"] == os.getpid()
        assert events[1]["dur"] == 0.75

    def test_no_footprint_until_first_emit(self, tmp_path):
        tracer = Tracer(tmp_path / "nested" / "trace.jsonl")
        assert not (tmp_path / "nested").exists()
        tracer.emit("x", ts=0.0, dur=0.0)
        tracer.close()
        assert (tmp_path / "nested" / "trace.jsonl").exists()

    def test_tracer_pickles_to_its_path_only(self, tmp_path):
        tracer = Tracer(tmp_path / "trace.jsonl")
        tracer.emit("x", ts=0.0, dur=0.0)  # open the descriptor
        clone = pickle.loads(pickle.dumps(tracer))
        assert clone.path == tracer.path
        clone.emit("y", ts=1.0, dur=0.0)  # reopens its own O_APPEND handle
        tracer.close()
        clone.close()
        assert [e["name"] for e in read_trace(tracer.path)] == ["x", "y"]


class TestReadTrace:
    def test_torn_and_garbled_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = json.dumps({"name": "prep", "ts": 1.0, "dur": 0.5})
        path.write_text(
            good + "\n"
            + '{"name": "train", "ts": 2.0, "du'  # torn mid-write by a kill
            + "\nnot json at all\n"
            + json.dumps({"ts": 3.0, "dur": 0.1}) + "\n"  # no name: dropped
            + json.dumps({"name": "train", "ts": 4.0, "dur": 0.2}) + "\n",
            encoding="utf-8",
        )
        events = read_trace(path)
        assert [(e["name"], e["ts"]) for e in events] == [("prep", 1.0),
                                                          ("train", 4.0)]

    def test_missing_file_raises_validation_error(self, tmp_path):
        with pytest.raises(ValidationError):
            read_trace(tmp_path / "absent.jsonl")


class TestMakeTracer:
    def test_only_trace_mode_with_a_dir_produces_a_sink(self, tmp_path):
        tracer = make_tracer("trace", tmp_path)
        assert isinstance(tracer, Tracer)
        assert tracer.path == tmp_path / TRACE_FILE_NAME

    @pytest.mark.parametrize("mode,directory", [
        ("off", "somewhere"), ("counters", "somewhere"),
        ("trace", None), (None, None),
    ])
    def test_every_other_combination_is_spans_off(self, mode, directory):
        assert make_tracer(mode, directory) is None


class TestChromeExport:
    def test_events_become_complete_x_events_in_microseconds(self):
        events = [{"name": "prep", "ts": 1.5, "dur": 0.25, "pid": 42,
                   "attrs": {"steps": 3}}]
        document = to_chrome_trace(events)
        assert document["displayTimeUnit"] == "ms"
        (entry,) = document["traceEvents"]
        assert entry["ph"] == "X"
        assert entry["ts"] == pytest.approx(1.5e6)
        assert entry["dur"] == pytest.approx(0.25e6)
        assert entry["pid"] == 42 and entry["tid"] == 42
        assert entry["args"] == {"steps": 3}
        json.dumps(document)  # must be directly serialisable


class TestSummarizeTrace:
    def _trial(self, algorithm, pick, prep, train):
        return {"name": "trial", "ts": 0.0, "dur": pick + prep + train,
                "attrs": {"algorithm": algorithm, "pick": pick,
                          "prep": prep, "train": train}}

    def test_table5_shape_per_algorithm_and_overall(self):
        events = [
            self._trial("rs", 0.1, 0.6, 0.3),
            self._trial("rs", 0.1, 0.4, 0.5),
            self._trial("pbt", 0.2, 0.5, 0.3),
            {"name": "cache_lookup", "ts": 0.0, "dur": 0.01},
        ]
        summary = summarize_trace(events)
        rs = summary["algorithms"]["rs"]
        assert rs["trials"] == 2
        assert rs["total"] == pytest.approx(2.0)
        assert rs["prep"] == pytest.approx(1.0)
        assert rs["prep_pct"] == pytest.approx(50.0)
        overall = summary["overall"]
        assert overall["trials"] == 3
        assert overall["pick_pct"] + overall["prep_pct"] \
            + overall["train_pct"] == pytest.approx(100.0)
        assert summary["spans"]["cache_lookup"] == {"count": 1, "total": 0.01}

    def test_empty_trace_summarises_without_dividing_by_zero(self):
        summary = summarize_trace([])
        assert summary["algorithms"] == {}
        assert summary["overall"]["trials"] == 0
        assert summary["overall"]["prep_pct"] == 0.0
