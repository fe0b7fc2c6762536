"""SearchSession: the resumable lifecycle facade over search runs.

Covers the event callbacks, graceful interruption, checkpoint/resume
round-trips (including cross-"process" resume via the serialized document
alone), the provenance-based problem rebuild and the fingerprint guard.
The bit-for-bit interrupted-equals-uninterrupted matrix for
evolution/PNAS/TPE/ASHA lives in ``tests/engine/test_determinism.py``.
"""

import pytest

from repro.core.budget import TimeBudget, TrialBudget
from repro.core.context import ExecutionContext
from repro.core.problem import AutoFPProblem
from repro.datasets.synthetic import distort_features, make_classification
from repro.exceptions import ValidationError
from repro.search import SearchSession, make_search_algorithm


def _data():
    X, y = make_classification(n_samples=120, n_features=6, n_classes=2,
                               class_sep=2.0, random_state=3)
    return distort_features(X, random_state=3), y


def _problem(**kwargs):
    X, y = _data()
    return AutoFPProblem.from_arrays(X, y, "lr", random_state=0, **kwargs)


def _trials(result):
    return [(t.pipeline.spec(), round(t.fidelity, 6), t.accuracy, t.iteration)
            for t in result.trials]


class TestSessionBasics:
    def test_run_matches_algorithm_search(self):
        session = SearchSession(_problem(),
                                make_search_algorithm("pbt", random_state=0))
        via_session = session.run(max_trials=10)
        direct = make_search_algorithm("pbt", random_state=0).search(
            _problem(), max_trials=10)
        assert _trials(via_session) == _trials(direct)

    def test_run_without_a_budget_runs_fifty_trials(self):
        session = SearchSession(_problem(),
                                make_search_algorithm("rs", random_state=0))
        assert len(session.run()) == 50

    def test_events_fire_per_trial_and_per_batch(self):
        trials, batches = [], []
        session = SearchSession(
            _problem(), make_search_algorithm("pbt", random_state=0),
            on_trial=lambda s, record: trials.append(record.accuracy),
            on_batch=lambda s, iteration, tasks: batches.append(
                (iteration, len(tasks))),
        )
        result = session.run(max_trials=10)
        assert len(trials) == len(result) == 10
        assert sum(n for _, n in batches) == 10
        assert batches[0][0] == 0  # the initial-population batch


class TestStopAndContinue:
    @pytest.mark.parametrize("driver", ["sync", "async"])
    def test_stop_then_run_continues_to_the_identical_result(self, driver):
        def stop_at_four(session, record):
            if len(session.result) == 4:
                session.stop()

        context = ExecutionContext(async_mode=driver == "async")
        session = SearchSession(_problem(context=context),
                                make_search_algorithm("tevo_h", random_state=0),
                                on_trial=stop_at_four)
        partial = session.run(max_trials=10)
        assert session.stopped and len(partial) == 4
        session.on_trial = None
        full = session.run()
        reference = make_search_algorithm("tevo_h", random_state=0).search(
            _problem(context=context), max_trials=10)
        assert _trials(full) == _trials(reference)

    def test_stop_mid_batch_parks_pending_records(self):
        # PBT's initial population is one 8-wide batch; stopping at the
        # second observation leaves six charged-but-unobserved tasks queued.
        session = SearchSession(
            _problem(), make_search_algorithm("pbt", random_state=0),
            on_trial=lambda s, r: s.stop() if len(s.result) == 2 else None,
        )
        partial = session.run(max_trials=10)
        assert len(partial) == 2
        assert len(session._state["queue"]) == 6
        session.on_trial = None
        full = session.run()
        reference = make_search_algorithm("pbt", random_state=0).search(
            _problem(), max_trials=10)
        assert _trials(full) == _trials(reference)


class _InterruptedAfterFirstCompletion(TrialBudget):
    """A trial budget that interrupts the search at its first completion.

    The search loop asks ``interrupted()`` only after observing a completion,
    so every later evaluation still in flight is drained deterministically.
    """

    def interrupted(self) -> bool:
        return True

    def can_interrupt(self) -> bool:
        return True


class TestInterruptionDrain:
    def test_drained_completions_reach_the_session(self):
        # Two process workers: at the first completion the second
        # evaluation is already running, so it cannot be refunded and is
        # drained after the interruption.  Its trial must still reach
        # on_trial like every other trial.
        seen = []
        session = SearchSession(
            _problem(context=ExecutionContext(n_jobs=2, backend="process",
                                              async_mode=True)),
            make_search_algorithm("rs", random_state=0),
            on_trial=lambda s, record: seen.append(record),
        )
        try:
            result = session.run(budget=_InterruptedAfterFirstCompletion(20))
        finally:
            session.problem.evaluator.engine.close()
        assert len(result) == 2
        assert seen == result.trials


class TestCheckpointResume:
    def test_checkpoint_outside_a_run_and_resume(self, tmp_path):
        path = tmp_path / "run.checkpoint"
        session = SearchSession(_problem(),
                                make_search_algorithm("tpe", random_state=0),
                                on_trial=lambda s, r: s.stop()
                                if len(s.result) == 5 else None)
        session.run(max_trials=12)
        written = session.checkpoint(path)
        assert written == path and path.exists()
        resumed = SearchSession.resume(path, problem=_problem())
        full = resumed.run()
        reference = make_search_algorithm("tpe", random_state=0).search(
            _problem(), max_trials=12)
        assert _trials(full) == _trials(reference)

    def test_checkpoint_requested_from_a_callback_lands_after_the_trial(
            self, tmp_path):
        path = tmp_path / "mid.checkpoint"
        seen = []

        def hook(session, record):
            if len(session.result) == 3:
                session.checkpoint(path)

        session = SearchSession(
            _problem(), make_search_algorithm("rs", random_state=0),
            on_trial=hook,
            on_checkpoint=lambda s, p: seen.append((len(s.result), p)),
        )
        result = session.run(max_trials=8)
        assert len(result) == 8  # checkpointing does not stop the run
        assert seen == [(3, path)]
        resumed = SearchSession.resume(path, problem=_problem())
        assert len(resumed.result) == 3
        assert _trials(resumed.run()) == _trials(result)

    def test_automatic_checkpoints_every_n_trials(self, tmp_path):
        path = tmp_path / "auto.checkpoint"
        writes = []
        session = SearchSession(
            _problem(), make_search_algorithm("rs", random_state=0),
            checkpoint_path=path, checkpoint_every=3,
            on_checkpoint=lambda s, p: writes.append(len(s.result)),
        )
        result = session.run(max_trials=8)
        assert writes == [3, 6]
        # The last periodic snapshot resumes to the identical final result.
        resumed = SearchSession.resume(path, problem=_problem())
        assert _trials(resumed.run()) == _trials(result)

    def test_resume_rebuilds_registry_problems_from_provenance(self, tmp_path):
        path = tmp_path / "registry.checkpoint"
        problem = AutoFPProblem.from_registry("blood", "lr", scale=0.5,
                                              random_state=0)
        session = SearchSession(problem,
                                make_search_algorithm("rs", random_state=0),
                                on_trial=lambda s, r: s.stop()
                                if len(s.result) == 3 else None)
        session.run(max_trials=6)
        session.checkpoint(path)
        resumed = SearchSession.resume(path)  # no problem passed
        assert resumed.problem.name == "blood/lr"
        full = resumed.run()
        reference = make_search_algorithm("rs", random_state=0).search(
            AutoFPProblem.from_registry("blood", "lr", scale=0.5,
                                        random_state=0), max_trials=6)
        assert _trials(full) == _trials(reference)

    def test_resume_refuses_a_mismatched_problem(self, tmp_path):
        path = tmp_path / "guard.checkpoint"
        session = SearchSession(_problem(),
                                make_search_algorithm("rs", random_state=0),
                                on_trial=lambda s, r: s.stop())
        session.run(max_trials=4)
        session.checkpoint(path)
        X, y = _data()
        other = AutoFPProblem.from_arrays(X, y, "lr", random_state=99)
        with pytest.raises(ValidationError, match="fingerprint"):
            SearchSession.resume(path, problem=other)

    def test_array_problems_require_an_explicit_problem_on_resume(
            self, tmp_path):
        path = tmp_path / "arrays.checkpoint"
        session = SearchSession(_problem(),
                                make_search_algorithm("rs", random_state=0),
                                on_trial=lambda s, r: s.stop())
        session.run(max_trials=4)
        session.checkpoint(path)
        with pytest.raises(ValidationError, match="raw arrays"):
            SearchSession.resume(path)

    def test_checkpoint_requires_a_trial_budget(self):
        session = SearchSession(_problem(),
                                make_search_algorithm("rs", random_state=0),
                                on_trial=lambda s, r: s.stop())
        session.run(budget=TimeBudget(60.0))
        with pytest.raises(ValidationError, match="TrialBudget"):
            session.checkpoint("unused.checkpoint")

    def test_periodic_checkpoints_with_a_time_budget_fail_before_the_run(
            self, tmp_path):
        """An impossible auto-checkpoint config is rejected up front, not
        via an exception out of the search loop at the first snapshot."""
        session = SearchSession(_problem(),
                                make_search_algorithm("rs", random_state=0),
                                checkpoint_path=tmp_path / "x.checkpoint",
                                checkpoint_every=2)
        problem = session.problem
        evaluations_before = problem.evaluator.n_evaluations
        with pytest.raises(ValidationError, match="TrialBudget"):
            session.run(budget=TimeBudget(60.0))
        assert problem.evaluator.n_evaluations == evaluations_before

    def test_mid_run_checkpoint_request_with_time_budget_raises_at_the_call(
            self):
        """session.checkpoint() from a callback fails at the call site
        instead of poisoning the deferred write."""
        failures = []

        def hook(session, record):
            with pytest.raises(ValidationError, match="TrialBudget"):
                session.checkpoint("unused.checkpoint")
            failures.append(1)
            session.stop()

        session = SearchSession(_problem(),
                                make_search_algorithm("rs", random_state=0),
                                on_trial=hook)
        session.run(budget=TimeBudget(60.0))
        assert failures == [1]

    def test_checkpoint_before_any_run_is_rejected(self, tmp_path):
        session = SearchSession(_problem(),
                                make_search_algorithm("rs", random_state=0))
        with pytest.raises(ValidationError, match="not started"):
            session.checkpoint(tmp_path / "early.checkpoint")

    def test_resumed_budget_cannot_be_replaced(self, tmp_path):
        path = tmp_path / "budget.checkpoint"
        session = SearchSession(_problem(),
                                make_search_algorithm("rs", random_state=0),
                                on_trial=lambda s, r: s.stop())
        session.run(max_trials=6)
        session.checkpoint(path)
        resumed = SearchSession.resume(path, problem=_problem())
        with pytest.raises(ValidationError, match="budget"):
            resumed.run(budget=TrialBudget(99))

    def test_finished_run_resumes_to_the_same_result_without_new_trials(
            self, tmp_path):
        path = tmp_path / "done.checkpoint"
        session = SearchSession(_problem(),
                                make_search_algorithm("rs", random_state=0))
        result = session.run(max_trials=5)
        session.checkpoint(path)
        resumed = SearchSession.resume(path, problem=_problem())
        evaluations_before = resumed.problem.evaluator.n_evaluations
        again = resumed.run()
        assert _trials(again) == _trials(result)
        assert resumed.problem.evaluator.n_evaluations == evaluations_before

