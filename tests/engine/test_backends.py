"""Tests for the execution backends and the engine's dispatch logic."""

import numpy as np
import pytest

from repro.core import Pipeline, PipelineEvaluator
from repro.core.search_space import SearchSpace
from repro.datasets.synthetic import distort_features, make_classification
from repro.engine import (
    BACKEND_NAMES,
    EvalTask,
    ExecutionEngine,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
    resolve_engine,
)
from repro.exceptions import UnknownComponentError, ValidationError
from repro.models.linear import LogisticRegression


def _double(x):
    return 2 * x


@pytest.fixture(scope="module")
def evaluator():
    X, y = make_classification(n_samples=120, n_features=6, class_sep=2.0,
                               random_state=3)
    X = distort_features(X, random_state=3)
    return PipelineEvaluator.from_dataset(X, y, LogisticRegression(max_iter=40),
                                          random_state=0)


@pytest.fixture(scope="module")
def space():
    return SearchSpace(max_length=3)


class TestBackendRegistry:
    def test_all_backends_registered(self):
        assert set(BACKEND_NAMES) == {"serial", "thread", "process", "remote"}

    def test_make_backend_by_name(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("thread", n_workers=2), ThreadBackend)
        assert isinstance(make_backend("process", n_workers=2), ProcessBackend)

    def test_make_backend_passes_instances_through(self):
        backend = ThreadBackend(n_workers=3)
        assert make_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(UnknownComponentError):
            make_backend("gpu")

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValidationError):
            ThreadBackend(n_workers=0)

    def test_minus_one_means_all_cores(self):
        assert ThreadBackend(n_workers=-1).n_workers >= 1


class TestBackendMap:
    # map() needs no workers even on "remote" (generic fan-out stays
    # inline there), but the coordinator's listener must be reaped, so
    # every backend is closed explicitly.
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_map_preserves_input_order(self, name):
        # serial refuses an explicit parallel worker count (see
        # TestSerialWorkerValidation); the parallel backends get two.
        backend = make_backend(name, n_workers=None if name == "serial" else 2)
        try:
            assert backend.map(_double, list(range(7))) == \
                [2 * i for i in range(7)]
        finally:
            backend.close()

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_map_empty_input(self, name):
        backend = make_backend(name, n_workers=None if name == "serial" else 2)
        try:
            assert backend.map(_double, []) == []
        finally:
            backend.close()


class TestEvalTask:
    def test_invalid_fidelity_rejected(self):
        with pytest.raises(ValidationError):
            EvalTask(Pipeline(), fidelity=0.0)
        with pytest.raises(ValidationError):
            EvalTask(Pipeline(), fidelity=1.5)

    def test_metadata_carried_into_record(self, evaluator):
        engine = ExecutionEngine("serial")
        task = EvalTask(Pipeline.from_names(["standard_scaler"]),
                        pick_time=0.125, iteration=7)
        [record] = engine.run(evaluator, [task])
        assert record.pick_time == 0.125
        assert record.iteration == 7
        assert record.fidelity == 1.0


class TestEngineDispatch:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_batch_matches_serial_evaluate(self, name, space, live_engine):
        X, y = make_classification(n_samples=100, n_features=5, class_sep=2.0,
                                   random_state=1)
        pipelines = space.sample_pipelines(5, np.random.default_rng(0))

        reference = PipelineEvaluator.from_dataset(
            X, y, LogisticRegression(max_iter=40), random_state=0)
        expected = [reference.evaluate(p) for p in pipelines]

        parallel = PipelineEvaluator.from_dataset(
            X, y, LogisticRegression(max_iter=40), random_state=0,
            engine=live_engine(name))
        records = parallel.evaluate_many(pipelines)

        assert [r.accuracy for r in records] == [r.accuracy for r in expected]
        assert [r.pipeline.spec() for r in records] == \
            [r.pipeline.spec() for r in expected]

    def test_duplicates_evaluated_once(self, space):
        X, y = make_classification(n_samples=100, n_features=5, class_sep=2.0,
                                   random_state=1)
        evaluator = PipelineEvaluator.from_dataset(
            X, y, LogisticRegression(max_iter=40), random_state=0)
        pipeline = Pipeline.from_names(["standard_scaler"])
        engine = ExecutionEngine("thread", n_workers=2)
        records = engine.run(evaluator, [EvalTask(pipeline)] * 4)
        assert evaluator.n_evaluations == 1
        assert len({r.accuracy for r in records}) == 1
        # Counter parity with the serial path: 1 miss, 3 in-batch hits.
        assert evaluator.cache_info()["misses"] == 1
        assert evaluator.cache_info()["hits"] == 3

    def test_cached_tasks_skip_the_backend(self, space):
        X, y = make_classification(n_samples=100, n_features=5, class_sep=2.0,
                                   random_state=1)
        evaluator = PipelineEvaluator.from_dataset(
            X, y, LogisticRegression(max_iter=40), random_state=0)
        pipeline = Pipeline.from_names(["minmax_scaler"])
        first = evaluator.evaluate(pipeline)

        class ExplodingBackend(SerialBackend):
            def submit_evaluation(self, evaluator, item):
                raise AssertionError("cached task reached the backend")

        engine = ExecutionEngine(ExplodingBackend())
        [record] = engine.run(evaluator, [EvalTask(pipeline)])
        assert record.accuracy == first.accuracy

    def test_cache_disabled_runs_every_task(self):
        X, y = make_classification(n_samples=100, n_features=5, class_sep=2.0,
                                   random_state=1)
        evaluator = PipelineEvaluator.from_dataset(
            X, y, LogisticRegression(max_iter=40), random_state=0, cache=False)
        pipeline = Pipeline.from_names(["standard_scaler"])
        engine = ExecutionEngine("serial")
        engine.run(evaluator, [EvalTask(pipeline)] * 3)
        assert evaluator.n_evaluations == 3


class TestLongestFirstDispatch:
    """Parallel batches dispatch longest-pipeline-first (LPT scheduling)."""

    class RecordingBackend(ThreadBackend):
        """Thread backend that records the dispatched work order."""

        def __init__(self, n_workers):
            super().__init__(n_workers=n_workers)
            self.dispatched: list[tuple] = []

        def submit_evaluation(self, evaluator, item):
            self.dispatched.append(item[0].names())
            return super().submit_evaluation(evaluator, item)

    @staticmethod
    def _pipelines():
        return [
            Pipeline.from_names(["standard_scaler"]),
            Pipeline.from_names(["minmax_scaler", "normalizer", "binarizer"]),
            Pipeline.from_names(["maxabs_scaler", "binarizer"]),
            Pipeline.from_names(["normalizer", "binarizer"]),
        ]

    def test_parallel_dispatch_sorted_longest_first_stable(self, evaluator):
        backend = self.RecordingBackend(n_workers=2)
        engine = ExecutionEngine(backend)
        pipelines = self._pipelines()
        records = engine.run(evaluator,
                             [EvalTask(p, fidelity=0.9375) for p in pipelines])
        engine.close()
        # Longest first; the two length-2 pipelines keep submission order.
        assert backend.dispatched == [
            ("minmax_scaler", "normalizer", "binarizer"),
            ("maxabs_scaler", "binarizer"),
            ("normalizer", "binarizer"),
            ("standard_scaler",),
        ]
        # Records still come back in task order with serial-identical values.
        assert [r.pipeline.names() for r in records] == \
            [p.names() for p in pipelines]
        expected = [evaluator.evaluate(p, fidelity=0.9375).accuracy
                    for p in pipelines]
        assert [r.accuracy for r in records] == expected

    def test_single_worker_keeps_submission_order(self, evaluator):
        backend = self.RecordingBackend(n_workers=1)
        engine = ExecutionEngine(backend)
        pipelines = self._pipelines()
        engine.run(evaluator, [EvalTask(p, fidelity=0.875) for p in pipelines])
        engine.close()
        # One worker cannot be tail-blocked: the deterministic reference
        # order (submission order) is preserved untouched.
        assert backend.dispatched == [p.names() for p in pipelines]


class TestResolveEngine:
    def test_serial_defaults_resolve_to_none(self):
        assert resolve_engine() is None
        assert resolve_engine(1, None) is None

    def test_n_jobs_implies_process_backend(self):
        engine = resolve_engine(2)
        assert engine.backend.name == "process"
        assert engine.n_workers == 2

    def test_explicit_backend_respected(self):
        engine = resolve_engine(3, "thread")
        assert engine.backend.name == "thread"
        assert engine.n_workers == 3

    def test_explicit_serial_is_not_upgraded(self):
        from repro.engine import resolve_backend_name

        assert resolve_backend_name(4, "serial") == "serial"
        assert resolve_backend_name(4, None) == "process"
        assert resolve_engine(4, "serial") is None  # serial = no engine

    def test_engine_context_manager_closes_backend(self):
        closed = []

        class Recording(SerialBackend):
            def close(self):
                closed.append(True)

        with ExecutionEngine(Recording()) as engine:
            assert engine.map(_double, [1]) == [2]
        assert closed == [True]

    def test_evaluator_pickles_without_engine_or_cache(self, evaluator):
        import pickle

        evaluator.set_engine(ExecutionEngine("thread", n_workers=2))
        evaluator.evaluate(Pipeline.from_names(["standard_scaler"]))
        clone = pickle.loads(pickle.dumps(evaluator))
        assert clone.engine is None
        assert clone.cache_info()["size"] == 0
        evaluator.set_engine(None)


class TestSerialWorkerValidation:
    """An explicit parallel worker count on the serial backend fails loudly.

    Regression: ``SerialBackend.__init__`` used to drop ``n_workers`` on
    the floor, so a misconfigured serial+parallel context silently ran
    everything on one worker.
    """

    def test_parallel_worker_count_rejected(self):
        with pytest.raises(ValidationError, match="serial backend"):
            SerialBackend(n_workers=2)
        with pytest.raises(ValidationError, match="serial backend"):
            make_backend("serial", n_workers=4)

    def test_one_worker_and_default_still_accepted(self):
        assert SerialBackend().n_workers == 1
        assert SerialBackend(n_workers=1).n_workers == 1
        assert SerialBackend(n_workers=None).n_workers == 1


class _FakePool:
    """Stands in for a ProcessPoolExecutor in LRU bookkeeping tests."""

    def __init__(self, *args, **kwargs):
        self.initargs = kwargs.get("initargs")
        self.shut_down = False

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


class _FakeEvaluator:
    def __init__(self, fingerprint):
        self._fingerprint = fingerprint

    def fingerprint(self):
        return self._fingerprint


class TestEvaluationPoolLRU:
    """ProcessBackend keys evaluation pools per evaluator fingerprint.

    Regression: the backend used to keep a single pool owned by the
    last-seen evaluator, so two searches alternating on one shared
    backend tore each other's warm pool down every batch.  Pool creation
    is faked out — these tests exercise only the LRU bookkeeping, without
    forking real worker processes.
    """

    @pytest.fixture
    def backend(self, monkeypatch):
        import repro.engine.backends as backends_module

        monkeypatch.setattr(backends_module, "ProcessPoolExecutor", _FakePool)
        backend = ProcessBackend(n_workers=2, max_eval_pools=2)
        yield backend
        backend.close()

    def test_same_fingerprint_reuses_the_pool(self, backend):
        evaluator = _FakeEvaluator("fp-a")
        first = backend._evaluation_pool(evaluator)
        second = backend._evaluation_pool(_FakeEvaluator("fp-a"))
        assert first is second
        assert not first.shut_down

    def test_distinct_fingerprints_get_distinct_pools(self, backend):
        pool_a = backend._evaluation_pool(_FakeEvaluator("fp-a"))
        pool_b = backend._evaluation_pool(_FakeEvaluator("fp-b"))
        assert pool_a is not pool_b
        # Alternating sessions keep both pools warm — the regression case.
        assert backend._evaluation_pool(_FakeEvaluator("fp-a")) is pool_a
        assert backend._evaluation_pool(_FakeEvaluator("fp-b")) is pool_b
        assert not pool_a.shut_down and not pool_b.shut_down

    def test_least_recently_used_pool_evicted_beyond_cap(self, backend):
        pool_a = backend._evaluation_pool(_FakeEvaluator("fp-a"))
        pool_b = backend._evaluation_pool(_FakeEvaluator("fp-b"))
        backend._evaluation_pool(_FakeEvaluator("fp-a"))  # refresh a
        pool_c = backend._evaluation_pool(_FakeEvaluator("fp-c"))
        # b was least recently used: evicted and shut down; a and c live.
        assert pool_b.shut_down
        assert not pool_a.shut_down and not pool_c.shut_down
        assert set(backend._eval_pools) == {"fp-a", "fp-c"}

    def test_close_shuts_every_pool_down(self, backend):
        pools = [backend._evaluation_pool(_FakeEvaluator(fp))
                 for fp in ("fp-a", "fp-b")]
        backend.close()
        assert all(pool.shut_down for pool in pools)
        assert not backend._eval_pools

    def test_pool_cap_validated(self):
        with pytest.raises(ValidationError):
            ProcessBackend(n_workers=2, max_eval_pools=0)


class TestSharedProcessBackendResults:
    """Two evaluators sharing one process backend stay bit-for-bit serial."""

    @pytest.mark.slow
    def test_alternating_evaluators_match_serial(self, space):
        datasets = [
            make_classification(n_samples=100, n_features=5, class_sep=2.0,
                                random_state=seed)
            for seed in (1, 2)
        ]
        pipelines = space.sample_pipelines(3, np.random.default_rng(0))
        expected = []
        for X, y in datasets:
            reference = PipelineEvaluator.from_dataset(
                X, y, LogisticRegression(max_iter=40), random_state=0)
            expected.append([reference.evaluate(p).accuracy
                             for p in pipelines])

        engine = ExecutionEngine("process", n_workers=2)
        evaluators = [
            PipelineEvaluator.from_dataset(
                X, y, LogisticRegression(max_iter=40), random_state=0,
                engine=engine)
            for X, y in datasets
        ]
        try:
            # Alternate batches between the two evaluators: each must hit
            # its own warm pool and reproduce its serial accuracies.
            for _ in range(2):
                for evaluator, accuracies in zip(evaluators, expected):
                    records = evaluator.evaluate_many(pipelines)
                    assert [r.accuracy for r in records] == accuracies
            assert len(engine.backend._eval_pools) == 2
        finally:
            engine.close()
