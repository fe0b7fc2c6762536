"""SearchSession telemetry: trial spans, heartbeat, live metrics callback.

The acceptance contract of the tracing tentpole: in ``trace`` mode every
observed trial produces a ``trial`` event whose per-phase attributes
(pick/prep/train) cover ≥95% of the trial's wall-clock, the heartbeat
file always reflects the latest completed trial, and ``on_metrics``
fires per trial with a flat snapshot.  Everything is opt-in: ``off``
mode produces no files and no callback overhead.
"""

import json

import pytest

from repro.core.context import ExecutionContext
from repro.core.problem import AutoFPProblem
from repro.datasets.synthetic import distort_features, make_classification
from repro.models.linear import LogisticRegression
from repro.search import SearchSession, make_search_algorithm
from repro.telemetry import TRACE_FILE_NAME, heartbeat_file_name
from repro.telemetry.tracing import TRIAL_PHASES, read_trace, summarize_trace


def _problem(context):
    X, y = make_classification(n_samples=130, n_features=6, n_classes=2,
                               class_sep=2.0, random_state=4)
    X = distort_features(X, random_state=4)
    return AutoFPProblem.from_arrays(
        X, y, LogisticRegression(max_iter=50), random_state=0,
        name="telemetry/lr", context=context,
    )


@pytest.fixture
def traced_run(tmp_path):
    context = ExecutionContext(telemetry_mode="trace", telemetry_dir=tmp_path)
    observed = []
    session = SearchSession(
        _problem(context), make_search_algorithm("rs", random_state=0),
        on_metrics=lambda s, snapshot: observed.append(snapshot),
    )
    result = session.run(max_trials=8)
    return session, result, observed, tmp_path


class TestTrialSpans:
    def test_one_trial_event_per_observed_trial(self, traced_run):
        _, result, _, tmp_path = traced_run
        events = read_trace(tmp_path / TRACE_FILE_NAME)
        trials = [e for e in events if e["name"] == "trial"]
        assert len(trials) == len(result) == 8
        assert all(e["attrs"]["algorithm"] == "rs" for e in trials)

    def test_phase_attrs_cover_95_percent_of_trial_wall_clock(self, traced_run):
        _, _, _, tmp_path = traced_run
        trials = [e for e in read_trace(tmp_path / TRACE_FILE_NAME)
                  if e["name"] == "trial"]
        for event in trials:
            phase_total = sum(event["attrs"].get(p, 0.0) for p in TRIAL_PHASES)
            assert phase_total >= 0.95 * event["dur"], (
                f"phases cover only {phase_total:.6f}s of "
                f"{event['dur']:.6f}s trial wall-clock"
            )

    def test_evaluator_spans_present_alongside_trials(self, traced_run):
        _, _, _, tmp_path = traced_run
        names = {e["name"] for e in read_trace(tmp_path / TRACE_FILE_NAME)}
        assert {"trial", "propose", "cache_lookup", "prep", "train"} <= names

    def test_summary_attributes_time_to_the_algorithm(self, traced_run):
        _, _, _, tmp_path = traced_run
        summary = summarize_trace(read_trace(tmp_path / TRACE_FILE_NAME))
        assert set(summary["algorithms"]) == {"rs"}
        row = summary["algorithms"]["rs"]
        assert row["trials"] == 8
        assert row["pick_pct"] + row["prep_pct"] + row["train_pct"] \
            == pytest.approx(100.0)


class TestCacheLookupSpans:
    KEY = (("standard_scaler",), 1.0)

    def test_each_lookup_emits_one_span(self, tmp_path):
        context = ExecutionContext(telemetry_mode="trace",
                                   telemetry_dir=tmp_path)
        evaluator = _problem(context).evaluator
        assert evaluator.cache_lookup(self.KEY) is None
        evaluator.cache_store(self.KEY, {"accuracy": 0.5})
        assert evaluator.cache_lookup(self.KEY) == {"accuracy": 0.5}
        spans = read_trace(tmp_path / TRACE_FILE_NAME)
        assert [span["name"] for span in spans] == ["cache_lookup"] * 2
        assert all(span["ts"] > 0.0 and span["dur"] >= 0.0
                   for span in spans)
        assert (evaluator.cache_misses, evaluator.cache_hits) == (1, 1)

    def test_untraced_lookup_reads_no_clock(self, monkeypatch):
        import repro.core.evaluation as evaluation_module

        class _NoClock:
            def __getattr__(self, name):
                raise AssertionError(f"untraced lookup read time.{name}")

        evaluator = _problem(ExecutionContext()).evaluator
        monkeypatch.setattr(evaluation_module, "time", _NoClock())
        assert evaluator.cache_lookup(self.KEY) is None
        evaluator.cache_store(self.KEY, {"accuracy": 0.5})
        assert evaluator.cache_lookup(self.KEY) == {"accuracy": 0.5}


class TestHeartbeat:
    def test_heartbeat_reflects_the_finished_run(self, traced_run):
        session, result, _, tmp_path = traced_run
        heartbeat = json.loads(
            (tmp_path / heartbeat_file_name(session.session_id))
            .read_text(encoding="utf-8")
        )
        assert heartbeat["algorithm"] == "rs"
        assert heartbeat["trials"] == len(result)
        assert heartbeat["best_accuracy"] == result.best_accuracy
        assert heartbeat["metrics"]["session.trials"] == len(result)

    def test_unwritable_heartbeat_degrades_to_a_warning(self, tmp_path,
                                                        monkeypatch):
        import repro.search.session as session_module

        def refuse(path, text):
            raise OSError("disk full")

        monkeypatch.setattr(session_module, "atomic_write_text", refuse)
        context = ExecutionContext(telemetry_mode="counters",
                                   telemetry_dir=tmp_path)
        session = SearchSession(_problem(context),
                                make_search_algorithm("rs", random_state=0))
        result = session.run(max_trials=4)  # must not raise
        assert len(result) == 4


class TestOnMetrics:
    def test_fires_per_trial_with_flat_snapshots(self, traced_run):
        session, result, observed, _ = traced_run
        assert len(observed) == len(result)
        last = observed[-1]
        assert last["session.trials"] == len(result)
        assert "evaluator.n_evaluations" in last
        assert last == session.metrics_snapshot()

    def test_works_without_any_telemetry_dir(self):
        observed = []
        session = SearchSession(
            _problem(ExecutionContext(telemetry_mode="counters")),
            make_search_algorithm("rs", random_state=0),
            on_metrics=lambda s, snapshot: observed.append(snapshot),
        )
        session.run(max_trials=4)
        assert len(observed) == 4


class TestOffMode:
    def test_off_mode_writes_nothing(self, tmp_path):
        context = ExecutionContext(telemetry_mode="off",
                                   telemetry_dir=tmp_path)
        session = SearchSession(_problem(context),
                                make_search_algorithm("rs", random_state=0))
        session.run(max_trials=4)
        assert not (tmp_path / TRACE_FILE_NAME).exists()
        heartbeat = tmp_path / heartbeat_file_name(session.session_id)
        assert not heartbeat.exists()
