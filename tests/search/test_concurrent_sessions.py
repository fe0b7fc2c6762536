"""Concurrent sessions in one process must never collide.

The multi-tenant contract behind ``repro serve``: sessions sharing one
process (and possibly one telemetry directory) keep disjoint heartbeat
files, session-scoped metrics snapshots, and bit-for-bit the same results
they would produce alone.  These are the regression tests for the
heartbeat-clobbering and metric-bleed bugs.
"""

import json
import threading

import pytest

from repro.core.budget import TimeBudget
from repro.core.context import ExecutionContext
from repro.core.problem import AutoFPProblem
from repro.datasets.synthetic import distort_features, make_classification
from repro.models.linear import LogisticRegression
from repro.search import SearchSession, make_search_algorithm
from repro.telemetry import heartbeat_file_name
from repro.telemetry.metrics import get_registry


def _problem(context, *, data_seed=4):
    X, y = make_classification(n_samples=130, n_features=6, n_classes=2,
                               class_sep=2.0, random_state=data_seed)
    X = distort_features(X, random_state=data_seed)
    return AutoFPProblem.from_arrays(
        X, y, LogisticRegression(max_iter=50), random_state=0,
        name=f"concurrent-{data_seed}/lr", context=context,
    )


def _session(context, *, session_id, algo_seed=0, data_seed=4):
    return SearchSession(
        _problem(context, data_seed=data_seed),
        make_search_algorithm("rs", random_state=algo_seed),
        session_id=session_id,
    )


class TestHeartbeatIsolation:
    def test_each_session_owns_its_heartbeat_file(self, tmp_path):
        context = ExecutionContext(telemetry_mode="counters",
                                   telemetry_dir=tmp_path)
        a = _session(context, session_id="tenant-a")
        b = _session(context, session_id="tenant-b", algo_seed=1)
        a.run(max_trials=3)
        b.run(max_trials=5)

        beat_a = json.loads((tmp_path / heartbeat_file_name("tenant-a"))
                            .read_text(encoding="utf-8"))
        beat_b = json.loads((tmp_path / heartbeat_file_name("tenant-b"))
                            .read_text(encoding="utf-8"))
        assert beat_a["session_id"] == "tenant-a"
        assert beat_a["trials"] == 3
        assert beat_b["session_id"] == "tenant-b"
        assert beat_b["trials"] == 5

    def test_resumed_session_keeps_its_heartbeat_identity(self, tmp_path):
        telemetry = tmp_path / "telemetry"
        telemetry.mkdir()
        context = ExecutionContext(telemetry_mode="counters",
                                   telemetry_dir=telemetry)
        session = SearchSession(
            _problem(context), make_search_algorithm("rs", random_state=0),
            session_id="keep-me", checkpoint_path=tmp_path / "cp.json",
            on_trial=lambda s, trial: s.stop() if len(s.result) == 3 else None,
        )
        session.run(max_trials=5)
        assert len(session.result) == 3
        session.checkpoint()

        resumed = SearchSession.resume(tmp_path / "cp.json",
                                       problem=_problem(context))
        assert resumed.session_id == "keep-me"
        resumed.run()
        beat = json.loads((telemetry / heartbeat_file_name("keep-me"))
                          .read_text(encoding="utf-8"))
        assert beat["trials"] == 5


class TestMetricsScoping:
    def test_snapshots_exclude_other_sessions_series(self):
        registry = get_registry()
        a = _session(ExecutionContext(), session_id="scope-a")
        b = _session(ExecutionContext(), session_id="scope-b")
        registry.counter("budget.refunded_trials", session="scope-a").inc(3)
        registry.counter("budget.refunded_trials", session="scope-b").inc(7)

        snap_a = a.metrics_snapshot()
        snap_b = b.metrics_snapshot()
        # The owning session reads its series under the plain name ...
        assert snap_a["budget.refunded_trials"] == 3
        assert snap_b["budget.refunded_trials"] == 7
        # ... and never sees the other tenant's series under any name.
        assert not any("scope-b" in key for key in snap_a)
        assert not any("scope-a" in key for key in snap_b)

    def test_unlabelled_series_stay_visible_to_everyone(self):
        registry = get_registry()
        registry.gauge("engine.inflight").set(2)
        session = _session(ExecutionContext(), session_id="scope-c")
        assert session.metrics_snapshot()["engine.inflight"] == 2

    def test_plain_snapshot_still_sees_every_series(self):
        registry = get_registry()
        registry.counter("budget.refunded_trials", session="x").inc(1)
        registry.counter("budget.refunded_trials", session="y").inc(2)
        reading = registry.snapshot()
        assert reading["budget.refunded_trials{session=x}"] == 1
        assert reading["budget.refunded_trials{session=y}"] == 2


class TestConcurrentDeterminism:
    def test_interleaved_sessions_match_solo_runs(self, tmp_path):
        context = ExecutionContext(telemetry_mode="counters",
                                   telemetry_dir=tmp_path)
        solo = {}
        for data_seed in (4, 5):
            result = _session(ExecutionContext(), session_id=f"solo-{data_seed}",
                              data_seed=data_seed).run(max_trials=6)
            solo[data_seed] = [t.accuracy for t in result.trials]

        sessions = {
            data_seed: _session(context, session_id=f"pair-{data_seed}",
                                data_seed=data_seed)
            for data_seed in (4, 5)
        }
        threads = [threading.Thread(target=s.run,
                                    kwargs={"max_trials": 6})
                   for s in sessions.values()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for data_seed, session in sessions.items():
            got = [t.accuracy for t in session.result.trials]
            assert got == solo[data_seed], (
                f"concurrent run for data_seed={data_seed} diverged"
            )

    def test_refund_counter_is_session_labelled(self):
        registry = get_registry()
        context = ExecutionContext()
        session = _session(context, session_id="refund-owner")
        evaluator = session.problem.evaluator
        original = evaluator.evaluate_tasks
        state = {"dropped": False}

        def drop_once(tasks, *, budget=None):
            records = original(tasks, budget=budget)
            if not state["dropped"] and records:
                # Pretend the last admitted task never came back (as a
                # time-budget expiry would): the session must refund its
                # charge under its own session label.
                state["dropped"] = True
                return records[:-1]
            return records

        evaluator.evaluate_tasks = drop_once
        session.run(max_trials=4)
        reading = registry.snapshot()
        key = "budget.refunded_trials{session=refund-owner}"
        assert reading.get(key, 0) >= 1
        assert session.metrics_snapshot()["budget.refunded_trials"] \
            == reading[key]

    @pytest.mark.parametrize("driver", ["sync", "async"])
    def test_refunds_never_reach_a_bystander_session(self, driver):
        owner = SearchSession(
            _problem(ExecutionContext(async_mode=driver == "async")),
            make_search_algorithm("pbt", random_state=0),
            session_id=f"refunder-{driver}",
        )
        bystander = _session(ExecutionContext(),
                             session_id=f"bystander-{driver}")
        now = [0.0]
        evaluator = owner.problem.evaluator
        original = evaluator._evaluate_uncached

        def ticking(pipeline, fidelity):
            now[0] += 1.0  # each evaluation "takes" one fake second
            return original(pipeline, fidelity)

        evaluator._evaluate_uncached = ticking
        # PBT admits its 8-wide initial population at once; the clock
        # expires after 4 evaluations and the rest is refunded.
        result = owner.run(TimeBudget(3.5, clock=lambda: now[0]))
        assert len(result) == 4
        assert owner.metrics_snapshot()["budget.refunded_trials"] == 4
        assert "budget.refunded_trials" not in bystander.metrics_snapshot()


@pytest.fixture(autouse=True)
def _reset_registry():
    get_registry().reset()
    yield
    get_registry().reset()
