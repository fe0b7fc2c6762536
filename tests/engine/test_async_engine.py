"""The engine's futures layer and the completion-driven search driver.

Covers the PR-3 acceptance criteria: ``as_completed`` on the serial
backend is identical (order and values) to ``run()``, ``close()`` cancels
in-flight work without orphaning workers, async ``TimeBudget``
interruption refunds never-dispatched tasks and stops within one
completion, and the ``bench_async_overlap`` smoke mode passes.
"""

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import Pipeline, PipelineEvaluator
from repro.core.budget import CompositeBudget, TimeBudget, TrialBudget
from repro.core.problem import AutoFPProblem
from repro.core.search_space import SearchSpace
from repro.datasets.synthetic import distort_features, make_classification
from repro.engine import BACKEND_NAMES, EvalTask, ExecutionEngine, SerialFuture
from repro.models.linear import LogisticRegression
from repro.search import AsyncSearchDriver, make_search_algorithm

BENCH_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_async_overlap.py"
)


def _make_evaluator(**kwargs):
    X, y = make_classification(n_samples=110, n_features=6, class_sep=2.0,
                               random_state=7)
    return PipelineEvaluator.from_dataset(
        X, y, LogisticRegression(max_iter=40), random_state=0, **kwargs
    )


def _sample_tasks(n=5, with_duplicate=True):
    space = SearchSpace(max_length=3)
    pipelines = space.sample_pipelines(n, np.random.default_rng(0))
    tasks = [EvalTask(pipeline) for pipeline in pipelines]
    if with_duplicate:
        tasks.append(EvalTask(pipelines[0]))
    return tasks


class TestSerialFuture:
    def test_lazy_until_result(self):
        calls = []
        future = SerialFuture(lambda item: calls.append(item) or item * 2, 21)
        assert not future.done()
        assert calls == []
        assert future.result() == 42
        assert calls == [21]
        assert future.done()

    def test_cancel_before_run_prevents_work(self):
        from concurrent.futures import CancelledError

        calls = []
        future = SerialFuture(calls.append, 1)
        assert future.cancel()
        assert future.cancelled()
        future.run()  # no-op after cancellation
        assert calls == []
        with pytest.raises(CancelledError):
            future.result()

    def test_cancel_after_run_fails(self):
        future = SerialFuture(lambda item: item, 1)
        future.run()
        assert not future.cancel()

    def test_exception_re_raised_from_result(self):
        def boom(item):
            raise RuntimeError("nope")

        future = SerialFuture(boom, 1)
        future.run()
        assert future.done()
        with pytest.raises(RuntimeError):
            future.result()


class TestAsCompleted:
    def test_serial_as_completed_identical_to_run(self):
        """Acceptance: serial as_completed == run(), order and values."""
        tasks = _sample_tasks()
        reference = ExecutionEngine("serial").run(_make_evaluator(), tasks)

        evaluator = _make_evaluator()
        engine = ExecutionEngine("serial")
        pending = engine.submit_tasks(evaluator, tasks)
        streamed = list(engine.as_completed(evaluator, pending))
        assert [index for index, _ in streamed] == list(range(len(tasks)))
        assert [record.accuracy for _, record in streamed] == \
            [record.accuracy for record in reference]
        assert [record.pipeline.spec() for _, record in streamed] == \
            [record.pipeline.spec() for record in reference]

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_every_backend_matches_run_values(self, name, live_engine):
        tasks = _sample_tasks()
        reference = ExecutionEngine("serial").run(_make_evaluator(), tasks)

        evaluator = _make_evaluator()
        engine = live_engine(name)
        records = [None] * len(tasks)
        for index, record in engine.as_completed(
                evaluator, engine.submit_tasks(evaluator, tasks)):
            records[index] = record
        engine.close()
        assert [record.accuracy for record in records] == \
            [record.accuracy for record in reference]

    def test_per_completion_cache_merge_back(self):
        """Each completion lands in the cache immediately, not at batch end."""
        tasks = _sample_tasks(with_duplicate=False)
        evaluator = _make_evaluator()
        engine = ExecutionEngine("serial")
        pending = engine.submit_tasks(evaluator, tasks)
        stream = engine.as_completed(evaluator, pending)
        index, record = next(stream)
        key = evaluator.cache_key(tasks[index].pipeline, tasks[index].fidelity)
        assert evaluator.cache_lookup(key) is not None
        list(stream)  # drain

    def test_duplicate_submission_aliases_inflight_work(self):
        evaluator = _make_evaluator()
        engine = ExecutionEngine("serial")
        pipeline = Pipeline.from_names(["standard_scaler"])
        first = engine.submit_task(evaluator, EvalTask(pipeline))
        second = engine.submit_task(evaluator, EvalTask(pipeline))
        records = [engine.resolve_task(evaluator, item)
                   for item in (first, second)]
        assert evaluator.n_evaluations == 1
        assert records[0].accuracy == records[1].accuracy
        # Counter parity with run(): the duplicate is one hit, one miss —
        # aliasing must not additionally record a lookup miss at submit.
        assert evaluator.cache_info()["misses"] == 1
        assert evaluator.cache_info()["hits"] == 1

    def test_cached_submission_resolves_without_backend(self):
        evaluator = _make_evaluator()
        pipeline = Pipeline.from_names(["minmax_scaler"])
        expected = evaluator.evaluate(pipeline)

        class ExplodingBackend(ExecutionEngine("serial").backend.__class__):
            def submit_evaluation(self, evaluator, pair):
                raise AssertionError("cached task reached the backend")

        engine = ExecutionEngine(ExplodingBackend())
        pending = engine.submit_task(evaluator, EvalTask(pipeline))
        assert pending.ready()
        record = engine.resolve_task(evaluator, pending)
        assert record.accuracy == expected.accuracy

    def test_stale_inflight_entry_from_dead_evaluator_is_purged(self):
        """An abandoned submission whose evaluator died (id possibly
        re-used) must never alias a new evaluator's work."""
        import weakref

        evaluator = _make_evaluator()
        engine = ExecutionEngine("serial")
        pipeline = Pipeline.from_names(["standard_scaler"])
        key = evaluator.cache_key(EvalTask(pipeline).pipeline, 1.0)

        class Ghost:
            pass

        ghost = Ghost()
        dead_ref = weakref.ref(ghost)
        stale = engine.submit_task(_make_evaluator(), EvalTask(pipeline))
        engine._inflight[(id(evaluator), key)] = (dead_ref, stale)
        del ghost  # the stale entry's owner is now gone

        assert engine._inflight_primary(evaluator, key) is None
        assert (id(evaluator), key) not in engine._inflight
        pending = engine.submit_task(evaluator, EvalTask(pipeline))
        assert pending._primary is None  # fresh dispatch, no aliasing
        record = engine.resolve_task(evaluator, pending)
        assert record.accuracy == evaluator.evaluate(pipeline).accuracy

    def test_disk_cache_merged_per_completion(self, tmp_path):
        evaluator = _make_evaluator(cache_dir=tmp_path)
        engine = ExecutionEngine("serial")
        pending = engine.submit_task(
            evaluator, EvalTask(Pipeline.from_names(["standard_scaler"]))
        )
        engine.resolve_task(evaluator, pending)
        assert evaluator.cache_info()["disk_writes"] == 1


class TestCloseCancelsInflight:
    def test_serial_close_cancels_unconsumed_futures(self):
        evaluator = _make_evaluator()
        engine = ExecutionEngine("serial")
        pending = engine.submit_tasks(evaluator, _sample_tasks())
        engine.close()
        assert all(item.future.cancelled() for item in pending
                   if item.future is not None)
        assert evaluator.n_evaluations == 0  # nothing ever ran

    def test_thread_close_cancels_queued_work(self):
        evaluator = _make_evaluator()
        started = []

        def slow_evaluate(pipeline, fidelity,
                          _original=evaluator._evaluate_uncached):
            started.append(1)
            time.sleep(0.05)
            return _original(pipeline, fidelity)

        evaluator._evaluate_uncached = slow_evaluate
        engine = ExecutionEngine("thread", n_workers=1)
        pending = engine.submit_tasks(evaluator, _sample_tasks(8,
                                                               with_duplicate=False))
        time.sleep(0.02)  # let the single worker start the first task
        engine.close()
        # The backlog was cancelled: far fewer evaluations started than were
        # submitted, and close() returned with the pool fully shut down.
        assert len(started) < 8
        assert engine.backend._submit_pool is None

    def test_process_close_mid_flight_leaves_no_pool(self):
        evaluator = _make_evaluator()
        engine = ExecutionEngine("process", n_workers=2)
        pending = engine.submit_tasks(evaluator, _sample_tasks(6,
                                                               with_duplicate=False))
        engine.close()  # must cancel + join workers, not hang or orphan
        assert len(engine.backend._eval_pools) == 0
        for item in pending:
            assert item.future.done() or item.future.cancelled()

    def test_close_is_idempotent_and_reusable_check(self):
        engine = ExecutionEngine("thread", n_workers=2)
        engine.close()
        engine.close()


def _ticking_problem():
    """Problem whose evaluations advance a fake clock by 1s each."""
    X, y = make_classification(n_samples=140, n_features=8, n_classes=2,
                               class_sep=2.0, random_state=2)
    X = distort_features(X, random_state=2)
    problem = AutoFPProblem.from_arrays(
        X, y, LogisticRegression(max_iter=60), space=SearchSpace(max_length=3),
        random_state=0, name="async-budget/lr",
    )
    now = [0.0]
    original = problem.evaluator._evaluate_uncached

    def ticking(pipeline, fidelity):
        now[0] += 1.0
        return original(pipeline, fidelity)

    problem.evaluator._evaluate_uncached = ticking
    return problem, now


class TestAsyncTimeBudget:
    def test_interruption_stops_within_one_completion_and_refunds(self):
        """Acceptance: no whole-batch overshoot, undispatched tasks refunded."""
        problem, now = _ticking_problem()
        time_budget = TimeBudget(3.5, clock=lambda: now[0])
        trial_budget = TrialBudget(50)
        budget = CompositeBudget(time_budget, trial_budget)
        # PBT admits its whole initial population (8) up front; the fake
        # clock expires after ~4 evaluations.
        result = make_search_algorithm("pbt", random_state=0).search(
            problem, budget=budget, driver="async"
        )
        assert 0 < len(result) < 8  # stopped mid-batch, not after it
        # Refund exactness: the trial budget charged only what actually ran
        # (cache hits tick nothing but are real observed trials).
        assert trial_budget.used == len(result)
        # Within one completion of expiry: the clock advanced at most one
        # evaluation past the limit.
        assert now[0] <= 3.5 + 1.0

    def test_async_driver_explicit_n_workers_override(self):
        problem, _ = _ticking_problem()
        driver = AsyncSearchDriver(
            make_search_algorithm("rs", random_state=0, batch_size=4),
            n_workers=2,
        )
        result = driver.search(problem, max_trials=8)
        assert len(result) == 8

    def test_fractional_crumb_spent_after_inflight_drains(self):
        """Proposals hitting a fractional budget remainder while work is in
        flight are deferred, not dropped: the crumb is spent once the
        in-flight work drains, exactly once."""
        X, y = make_classification(n_samples=110, n_features=6, class_sep=2.0,
                                   random_state=7)
        engine = ExecutionEngine("thread", n_workers=2)
        problem = AutoFPProblem.from_arrays(X, y, "lr", random_state=0)
        problem.evaluator.set_engine(engine)
        budget = TrialBudget(4)
        budget.consume(0.5)  # leave a fractional remainder: 3.5 trials
        result = make_search_algorithm("rs", random_state=0, batch_size=2).search(
            problem, budget=budget, driver="async"
        )
        engine.close()
        # 3 whole trials plus one fractional-crumb trial, never more.
        assert len(result) == 4
        assert budget.used == pytest.approx(4.0)


class TestAsyncModePlumbing:
    def test_problem_async_mode_selects_async_driver(self, monkeypatch):
        from repro.core.context import ExecutionContext

        X, y = make_classification(n_samples=110, n_features=6, class_sep=2.0,
                                   random_state=7)
        problem = AutoFPProblem.from_arrays(
            X, y, "lr", random_state=0,
            context=ExecutionContext(async_mode=True),
        )
        calls = []
        original = AsyncSearchDriver.drive

        def spying(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        # `drive` is the completion-driven loop shared by AsyncSearchDriver
        # and SearchSession; a search on an async_mode problem must route
        # through it.
        monkeypatch.setattr(AsyncSearchDriver, "drive", spying)
        make_search_algorithm("rs", random_state=0).search(problem, max_trials=4)
        assert calls == [1]

    def test_invalid_driver_rejected(self):
        from repro.exceptions import ValidationError

        X, y = make_classification(n_samples=110, n_features=6, class_sep=2.0,
                                   random_state=7)
        problem = AutoFPProblem.from_arrays(X, y, "lr", random_state=0)
        with pytest.raises(ValidationError):
            make_search_algorithm("rs").search(problem, max_trials=4,
                                               driver="turbo")


class TestBenchmarkSmokeMode:
    def test_bench_async_overlap_smoke(self):
        """The benchmark's fast smoke mode runs under tier-1 pytest."""
        spec = importlib.util.spec_from_file_location(
            "bench_async_overlap", BENCH_PATH
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        sync_serial, async_serial, async_threaded = bench.smoke_check()
        assert bench.trial_values(sync_serial) == bench.trial_values(async_serial)
        assert len(async_threaded) > 0
