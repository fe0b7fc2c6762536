"""The engine's futures layer and the search loop's completion-driven schedule.

Covers ``submit_task`` / ``wait_any`` / ``resolve_task`` resolved in
completion order (the way the search loop uses them) giving ``run()``'s values
on every backend, ``run()`` as a window over them that gives back every
in-flight slot even when an evaluation raises, ``close()`` cancelling
in-flight work without orphaning workers, async ``TimeBudget``
interruption refunding never-dispatched tasks and stopping within one
completion, the context's ``async_mode`` as the switch between barrier
waves and the completion-driven schedule, and the ``bench_async_overlap``
smoke mode.
"""

import importlib.util
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro.core import Pipeline, PipelineEvaluator
from repro.core.budget import CompositeBudget, TimeBudget, TrialBudget
from repro.core.context import ExecutionContext
from repro.core.problem import AutoFPProblem
from repro.core.search_space import SearchSpace
from repro.datasets.synthetic import distort_features, make_classification
from repro.engine import BACKEND_NAMES, EvalTask, ExecutionEngine, SerialFuture
from repro.models.linear import LogisticRegression
from repro.search import make_search_algorithm
from repro.telemetry.metrics import get_registry

BENCH_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_async_overlap.py"
)


def _make_evaluator(evaluator_class=PipelineEvaluator, **kwargs):
    X, y = make_classification(n_samples=110, n_features=6, class_sep=2.0,
                               random_state=7)
    return evaluator_class.from_dataset(
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


class RaisingEvaluator(PipelineEvaluator):
    """An evaluator whose every evaluation raises, inline or in a worker."""

    def _evaluate_uncached(self, pipeline, fidelity):
        raise RuntimeError("evaluation failed")


def _inflight_gauge():
    return get_registry().gauge("engine.inflight")


class TestFuturesLayer:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_every_backend_matches_run_values(self, name, live_engine,
                                              resolve_as_completed):
        tasks = _sample_tasks()
        reference = ExecutionEngine("serial").run(_make_evaluator(), tasks)

        evaluator = _make_evaluator()
        engine = live_engine(name)
        pending = [engine.submit_task(evaluator, task) for task in tasks]
        records = [None] * len(tasks)
        for index, record in resolve_as_completed(engine, evaluator, pending):
            records[index] = record
        engine.close()
        assert [record.accuracy for record in records] == \
            [record.accuracy for record in reference]

    def test_per_completion_cache_merge_back(self, resolve_as_completed):
        """Each completion lands in the cache as it resolves, not at batch end."""
        tasks = _sample_tasks(with_duplicate=False)
        evaluator = _make_evaluator()
        engine = ExecutionEngine("serial")
        pending = [engine.submit_task(evaluator, task) for task in tasks]
        engine.wait_any(pending)
        [first] = [item for item in pending if item.ready()]
        engine.resolve_task(evaluator, first)
        key = evaluator.cache_key(first.task.pipeline, first.task.fidelity)
        assert evaluator.cache_lookup(key) is not None
        resolve_as_completed(engine, evaluator, pending)  # drain

    def test_wait_any_returns_at_once_when_one_is_ready(self):
        evaluator = _make_evaluator()
        engine = ExecutionEngine("serial")
        ready = engine.submit_task(
            evaluator, EvalTask(Pipeline.from_names(["standard_scaler"])))
        engine.resolve_task(evaluator, ready)
        pending = engine.submit_task(
            evaluator, EvalTask(Pipeline.from_names(["minmax_scaler"])))
        engine.wait_any([ready, pending])
        # Serial waiting runs work inline: a ready item must stop it first.
        assert not pending.ready()
        assert evaluator.n_evaluations == 1

    def test_resubmitted_failure_runs_again(self):
        """A primary that raised gives back its slot: resubmitting the task
        evaluates it again instead of aliasing the failed future."""
        evaluator = _make_evaluator()
        calls = []

        def raising(pipeline, fidelity):
            calls.append(pipeline)
            raise RuntimeError("evaluation failed")

        evaluator._evaluate_uncached = raising
        engine = ExecutionEngine("serial")
        start = _inflight_gauge().value
        task = EvalTask(Pipeline.from_names(["standard_scaler"]))
        for _ in range(2):
            pending = engine.submit_task(evaluator, task)
            with pytest.raises(RuntimeError):
                engine.resolve_task(evaluator, pending)
        assert len(calls) == 2
        assert _inflight_gauge().value == start
        assert engine._inflight == {}

    @pytest.mark.parametrize("evaluator_class",
                             [PipelineEvaluator, RaisingEvaluator],
                             ids=["normal", "raising"])
    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_run_gives_back_every_inflight_slot(self, name, evaluator_class,
                                                live_engine):
        engine = live_engine(name)
        start = _inflight_gauge().value
        outcome = (pytest.raises(RuntimeError)
                   if evaluator_class is RaisingEvaluator else nullcontext())
        with outcome:
            engine.run(_make_evaluator(evaluator_class), _sample_tasks())
        assert _inflight_gauge().value == start
        assert engine._inflight == {}

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
        pending = [engine.submit_task(evaluator, task)
                   for task in _sample_tasks()]
        engine.close()
        assert all(item.future.cancelled() for item in pending
                   if item.future is not None)
        assert evaluator.n_evaluations == 0  # nothing ever ran

    def test_process_close_mid_flight_leaves_no_pool(self):
        evaluator = _make_evaluator()
        engine = ExecutionEngine("process", n_workers=2)
        pending = [engine.submit_task(evaluator, task)
                   for task in _sample_tasks(6, with_duplicate=False)]
        engine.close()  # must cancel + join workers, not hang or orphan
        assert len(engine.backend._eval_pools) == 0
        for item in pending:
            assert item.future.done() or item.future.cancelled()

    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_close_gives_back_unresolved_slots(self, name):
        engine = ExecutionEngine(name,
                                 n_workers=2 if name == "process" else None)
        start = _inflight_gauge().value
        engine.submit_task(_make_evaluator(),
                           _sample_tasks(1, with_duplicate=False)[0])
        engine.close()
        assert _inflight_gauge().value == start

    def test_close_is_idempotent_and_reusable_check(self):
        engine = ExecutionEngine("process", n_workers=2)
        engine.close()
        engine.close()


def _ticking_problem():
    """Completion-driven problem whose evaluations advance a fake clock by
    1s each."""
    X, y = make_classification(n_samples=140, n_features=8, n_classes=2,
                               class_sep=2.0, random_state=2)
    X = distort_features(X, random_state=2)
    problem = AutoFPProblem.from_arrays(
        X, y, LogisticRegression(max_iter=60), space=SearchSpace(max_length=3),
        random_state=0, name="async-budget/lr",
        context=ExecutionContext(async_mode=True),
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
            problem, budget=budget
        )
        assert 0 < len(result) < 8  # stopped mid-batch, not after it
        # Refund exactness: the trial budget charged only what actually ran
        # (cache hits tick nothing but are real observed trials).
        assert trial_budget.used == len(result)
        # Within one completion of expiry: the clock advanced at most one
        # evaluation past the limit.
        assert now[0] <= 3.5 + 1.0

    def test_async_depth_is_the_engine_worker_count(self):
        X, y = make_classification(n_samples=110, n_features=6, class_sep=2.0,
                                   random_state=7)
        engine = ExecutionEngine("process", n_workers=2)
        problem = AutoFPProblem.from_arrays(
            X, y, "lr", random_state=0,
            context=ExecutionContext(async_mode=True),
        )
        problem.evaluator.set_engine(engine)
        get_registry().reset()
        try:
            result = make_search_algorithm(
                "rs", random_state=0, batch_size=4,
            ).search(problem, max_trials=8)
        finally:
            engine.close()
        assert len(result) == 8
        assert _inflight_gauge().high_water == 2

    def test_fractional_crumb_spent_after_inflight_drains(self):
        """Proposals hitting a fractional budget remainder while work is in
        flight are deferred, not dropped: the crumb is spent once the
        in-flight work drains, exactly once."""
        X, y = make_classification(n_samples=110, n_features=6, class_sep=2.0,
                                   random_state=7)
        engine = ExecutionEngine("process", n_workers=2)
        problem = AutoFPProblem.from_arrays(
            X, y, "lr", random_state=0,
            context=ExecutionContext(async_mode=True),
        )
        problem.evaluator.set_engine(engine)
        budget = TrialBudget(4)
        budget.consume(0.5)  # leave a fractional remainder: 3.5 trials
        result = make_search_algorithm("rs", random_state=0, batch_size=2).search(
            problem, budget=budget
        )
        engine.close()
        # 3 whole trials plus one fractional-crumb trial, never more.
        assert len(result) == 4
        assert budget.used == pytest.approx(4.0)


class TestAsyncModePlumbing:
    @pytest.mark.parametrize("async_mode", [False, True])
    def test_async_mode_is_the_schedule_switch(self, async_mode,
                                               monkeypatch):
        """Barrier waves go through ``evaluate_tasks``; the
        completion-driven schedule never calls it."""
        X, y = make_classification(n_samples=110, n_features=6, class_sep=2.0,
                                   random_state=7)
        problem = AutoFPProblem.from_arrays(
            X, y, "lr", random_state=0,
            context=ExecutionContext(async_mode=async_mode),
        )
        waves = []
        original = PipelineEvaluator.evaluate_tasks

        def counting(self, tasks, **kwargs):
            waves.append(len(tasks))
            return original(self, tasks, **kwargs)

        monkeypatch.setattr(PipelineEvaluator, "evaluate_tasks", counting)
        result = make_search_algorithm("rs", random_state=0).search(
            problem, max_trials=4)
        assert len(result) == 4
        if async_mode:
            assert waves == []
        else:
            assert len(waves) > 0


class TestBenchmarkSmokeMode:
    def test_bench_async_overlap_smoke(self):
        """The benchmark's fast smoke mode runs under tier-1 pytest."""
        spec = importlib.util.spec_from_file_location(
            "bench_async_overlap", BENCH_PATH
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        sync_serial, async_serial, async_parallel = bench.smoke_check()
        assert bench.trial_values(sync_serial) == bench.trial_values(async_serial)
        assert len(async_parallel) > 0
