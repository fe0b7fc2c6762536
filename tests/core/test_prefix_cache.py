"""Prefix-transform cache: byte-budgeted LRU, short-circuits, COW discipline.

Unit tests for :mod:`repro.core.prefixcache` plus the evaluator-level
behaviour of ``PipelineEvaluator(prefix_cache_bytes=...)``: incremental
evaluation must be bit-for-bit identical to cache-off (cold) evaluation,
failed prefixes must fail all their extensions without re-running Prep, and
no registered preprocessor may mutate its input arrays (the copy-on-write
discipline the cache relies on — cached arrays are handed to later steps
as-is).

The cross-backend guarantee (cache-on == cache-off on serial/process, sync
and async) lives in ``tests/engine/test_determinism.py``.
"""

import importlib.util
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core.evaluation import PipelineEvaluator
from repro.core.pipeline import Pipeline
from repro.core.prefixcache import (
    PrefixTransformCache,
    make_prefix_cache,
)
from repro.datasets.synthetic import distort_features, make_classification
from repro.exceptions import ValidationError
from repro.models.linear import LogisticRegression
from repro.preprocessing import default_preprocessors
from repro.preprocessing.base import Preprocessor
from repro.preprocessing.extended import EXTENDED_PREPROCESSOR_NAMES
from repro.preprocessing.registry import DEFAULT_PREPROCESSOR_NAMES


def _spec(*names: str) -> tuple:
    return Pipeline.from_names(names).spec()


def _arrays(n_bytes: int):
    """A (train, valid) pair whose combined payload is ``n_bytes``."""
    n_values = n_bytes // 8 // 2
    return (np.zeros(n_values, dtype=np.float64),
            np.zeros(n_bytes // 8 - n_values, dtype=np.float64))


class TestByteBudgetLRU:
    def test_insert_and_longest_prefix_lookup(self):
        cache = PrefixTransformCache(max_bytes=1 << 20)
        spec = _spec("standard_scaler", "normalizer", "binarizer")
        cache.store(spec[:1], *_arrays(800))
        train, valid = _arrays(800)
        cache.store(spec[:2], train, valid)

        length, entry = cache.longest_prefix(spec)
        assert length == 2
        assert entry.X_train is train and entry.X_valid is valid
        assert cache.steps_reused == 2

        # An unrelated spec misses entirely.
        length, entry = cache.longest_prefix(_spec("binarizer"))
        assert (length, entry) == (0, None)
        assert cache.misses == 1

    def test_byte_budget_evicts_least_recently_used(self):
        train, valid = _arrays(400)
        cache = PrefixTransformCache(max_bytes=1000)  # room for two entries
        first = _spec("standard_scaler")
        second = _spec("normalizer")
        third = _spec("binarizer")
        cache.store(first, train, valid)
        cache.store(second, train, valid)
        assert cache.bytes_held == 800

        # Touch `first` so `second` becomes the LRU victim.
        cache.longest_prefix(first)
        cache.store(third, train, valid)
        assert cache.evictions == 1
        assert cache.bytes_held == 800
        assert cache.longest_prefix(second) == (0, None)
        assert cache.longest_prefix(first)[0] == 1
        assert cache.longest_prefix(third)[0] == 1

    def test_entry_larger_than_budget_is_not_stored(self):
        cache = PrefixTransformCache(max_bytes=100)
        train, valid = _arrays(800)
        cache.store(_spec("normalizer"), train, valid)
        assert len(cache) == 0
        assert cache.insertions == 0

    def test_failure_tombstones_cost_no_budget(self):
        cache = PrefixTransformCache(max_bytes=100)
        cache.store_failure(_spec("normalizer"))
        assert len(cache) == 1
        assert cache.bytes_held == 0
        length, entry = cache.longest_prefix(_spec("normalizer", "binarizer"))
        assert length == 1 and entry.failed
        assert cache.failed_short_circuits == 1

    def test_stored_arrays_are_read_only(self):
        cache = PrefixTransformCache(max_bytes=1 << 20)
        train, valid = _arrays(160)
        cache.store(_spec("normalizer"), train, valid)
        _, entry = cache.longest_prefix(_spec("normalizer"))
        with pytest.raises(ValueError):
            entry.X_train[0] = 1.0
        with pytest.raises(ValueError):
            valid[0] = 1.0  # freezing applies to the caller's object too

    def test_make_prefix_cache_option_handling(self):
        assert make_prefix_cache(None) is None
        assert make_prefix_cache(0) is None
        cache = make_prefix_cache(12345)
        assert isinstance(cache, PrefixTransformCache)
        assert cache.max_bytes == 12345
        with pytest.raises(ValidationError):
            PrefixTransformCache(max_bytes=0)


# --------------------------------------------------------------- evaluator
class ExplodingPreprocessor(Preprocessor):
    """Fails during fit with the numerical error the evaluator catches."""

    name = "exploding"

    def __init__(self) -> None:
        super().__init__()

    def _fit(self, X, y=None):
        raise ValueError("synthetic numerical failure")

    def _transform(self, X):  # pragma: no cover - fit always fails first
        return X


class CountingScaler(Preprocessor):
    """StandardScaler clone that counts its fit calls (class-wide)."""

    name = "counting_scaler"
    fit_calls = 0

    def __init__(self) -> None:
        super().__init__()

    def _fit(self, X, y=None):
        type(self).fit_calls += 1
        self.mean_ = X.mean(axis=0)
        self.scale_ = X.std(axis=0)
        self.scale_[self.scale_ == 0] = 1.0

    def _transform(self, X):
        return (X - self.mean_) / self.scale_


@pytest.fixture()
def data():
    X, y = make_classification(n_samples=120, n_features=6, n_classes=2,
                               class_sep=2.0, random_state=3)
    return distort_features(X, random_state=3), y


def _evaluator(data, **kwargs):
    X, y = data
    return PipelineEvaluator.from_dataset(
        X, y, LogisticRegression(max_iter=40), random_state=0, **kwargs
    )


class TestEvaluatorPrefixReuse:
    def test_extension_reuses_fitted_prefix(self, data):
        CountingScaler.fit_calls = 0
        evaluator = _evaluator(data, prefix_cache_bytes=1 << 24)
        base = Pipeline([CountingScaler()])
        extended = base.append(default_preprocessors(["normalizer"])[0])
        evaluator.evaluate(base)
        assert CountingScaler.fit_calls == 1
        evaluator.evaluate(extended)
        # The scaler prefix came from the cache: no second fit.
        assert CountingScaler.fit_calls == 1
        info = evaluator.cache_info()
        assert info["prefix_hits"] == 1
        assert info["steps_reused"] == 1
        assert info["bytes_held"] > 0

    def test_incremental_matches_cold_path_bit_for_bit(self, data):
        cold = _evaluator(data)
        warm = _evaluator(data, prefix_cache_bytes=1 << 24)
        names = ("standard_scaler", "normalizer", "binarizer",
                 "quantile_transformer")
        pipelines = [Pipeline.from_names(names[:k]) for k in range(1, 5)]
        pipelines += [Pipeline.from_names(("standard_scaler", "binarizer"))]
        for fidelity in (1.0, 0.5):
            for pipeline in pipelines:
                a = cold.evaluate(pipeline, fidelity=fidelity)
                b = warm.evaluate(pipeline, fidelity=fidelity)
                assert a.accuracy == b.accuracy

    def test_failed_prefix_short_circuits_extensions(self, data):
        evaluator = _evaluator(data, prefix_cache_bytes=1 << 24)
        failing = Pipeline([ExplodingPreprocessor()])
        record = evaluator.evaluate(failing)
        assert record.accuracy == 0.0
        CountingScaler.fit_calls = 0
        extended = failing.append(CountingScaler())
        record = evaluator.evaluate(extended)
        assert record.accuracy == 0.0
        # The extension never re-ran Prep: the tombstone answered it.
        assert CountingScaler.fit_calls == 0
        assert evaluator.cache_info()["prefix_short_circuits"] == 1

    def test_full_pipeline_prefix_hit_skips_all_prep(self, data):
        CountingScaler.fit_calls = 0
        evaluator = _evaluator(data, prefix_cache_bytes=1 << 24)
        pipeline = Pipeline([CountingScaler()])
        first = evaluator.evaluate(pipeline)
        evaluator._cache.clear()
        second = evaluator.evaluate(pipeline)
        # The memo is cleared, so the evaluation re-runs — but the
        # whole-pipeline prefix entry answers Prep without re-fitting.
        assert CountingScaler.fit_calls == 1
        assert first.accuracy == second.accuracy

    def test_process_worker_rebuilds_its_own_cache(self, data):
        evaluator = _evaluator(data, prefix_cache_bytes=1 << 20)
        evaluator.evaluate(Pipeline.from_names(("standard_scaler",)))
        assert len(evaluator.prefix_cache) == 1
        clone = pickle.loads(pickle.dumps(evaluator))
        # Fresh, private cache with the same budget — not the parent's.
        assert clone.prefix_cache is not evaluator.prefix_cache
        assert clone.prefix_cache.max_bytes == 1 << 20
        assert len(clone.prefix_cache) == 0
        record = clone.evaluate(Pipeline.from_names(("standard_scaler",)))
        assert record.accuracy == \
            evaluator.evaluate(Pipeline.from_names(("standard_scaler",))).accuracy

    def test_disabled_by_default(self, data):
        evaluator = _evaluator(data)
        assert evaluator.prefix_cache is None
        assert "prefix_hits" not in evaluator.cache_info()

    def test_cow_violation_raises_loudly_instead_of_scoring_zero(self, data):
        # A transformer that mutates its input in place works without the
        # cache (it scribbles on its own fresh copy) — with the cache it
        # would corrupt shared arrays, so the frozen array turns the write
        # into a LOUD contract error, never a silent 0.0-accuracy "failure"
        # that would diverge from the cache-off baseline.
        from repro.exceptions import CopyOnWriteViolationError

        class InPlaceCenterer(Preprocessor):
            name = "inplace_centerer"

            def __init__(self) -> None:
                super().__init__()

            def _fit(self, X, y=None):
                self.mean_ = X.mean(axis=0)

            def _transform(self, X):
                X -= self.mean_  # in-place: fine cold, forbidden cached
                return X

        pipeline = Pipeline([CountingScaler(), InPlaceCenterer()])
        cold = _evaluator(data)
        assert cold.evaluate(pipeline).accuracy > 0.0  # works without cache

        warm = _evaluator(data, prefix_cache_bytes=1 << 24)
        warm.evaluate(Pipeline([CountingScaler()]))  # cache the prefix
        with pytest.raises(CopyOnWriteViolationError):
            warm.evaluate(pipeline)

    def test_mutating_model_cannot_corrupt_the_canonical_split(self, data):
        # A zero-step pipeline hands the split straight through, and
        # _sanitize no longer copies finite input — the evaluator must
        # still shield X_train/X_valid from a model that scribbles on its
        # training matrix.
        X, y = data

        class ScribblingModel(LogisticRegression):
            def fit(self, X, y):
                X[:] = 0.0
                return super().fit(X, y)

        evaluator = PipelineEvaluator.from_dataset(
            X, y, ScribblingModel(max_iter=40), random_state=0
        )
        before_train = evaluator.X_train.copy()
        before_valid = evaluator.X_valid.copy()
        evaluator.evaluate(Pipeline())  # the baseline / no-FP evaluation
        assert np.array_equal(evaluator.X_train, before_train)
        assert np.array_equal(evaluator.X_valid, before_valid)

    def test_mutating_model_on_cached_prefix_raises_cow_error(self, data):
        from repro.exceptions import CopyOnWriteViolationError

        X, y = data

        class ScribblingModel(LogisticRegression):
            def fit(self, X, y):
                X -= X.mean(axis=0)
                return super().fit(X, y)

        evaluator = PipelineEvaluator.from_dataset(
            X, y, ScribblingModel(max_iter=40), random_state=0,
            prefix_cache_bytes=1 << 24,
        )
        # The pipeline's final transform output is registered (and frozen)
        # in the prefix cache, so the model's in-place write must surface
        # as the cache's contract error, not a bare numpy ValueError.
        with pytest.raises(CopyOnWriteViolationError):
            evaluator.evaluate(Pipeline.from_names(("standard_scaler",)))

    def test_low_fidelity_prefixes_spend_no_budget(self, data):
        # A fidelity < 1 training subset is derived from the full pipeline
        # spec, so its prefixes could only be re-hit by the exact same
        # (spec, fidelity) — which the memoization cache answers first.
        # Low-fidelity evaluations therefore bypass the prefix cache
        # entirely: no entries, no budget, not even a probe.
        evaluator = _evaluator(data, prefix_cache_bytes=1 << 24)
        evaluator.evaluate(Pipeline.from_names(("standard_scaler",)),
                           fidelity=0.5)
        evaluator.evaluate(Pipeline([ExplodingPreprocessor()]), fidelity=0.5)
        info = evaluator.cache_info()
        assert len(evaluator.prefix_cache) == 0
        assert info["bytes_held"] == 0
        assert info["prefix_hits"] == 0 and info["prefix_misses"] == 0


# ------------------------------------------------- worker counter merge-back
class TestWorkerCounterMergeBack:
    """Process-pool and remote workers' prefix-cache counters reach the parent.

    Workers evaluate against private caches; without the per-evaluation
    delta merge (``PipelineEvaluator.absorb_worker_counters``) the parent's
    ``prefix_hits``/``steps_reused`` read 0 under the process or remote
    backend even though real reuse happened in the workers.
    """

    def _pipelines(self):
        base = Pipeline.from_names(["standard_scaler", "normalizer"])
        return [
            base,
            base.append(default_preprocessors(["binarizer"])[0]),
            base.append(default_preprocessors(["maxabs_scaler"])[0]),
            base.append(default_preprocessors(["minmax_scaler"])[0]),
        ]

    def test_batch_path_merges_worker_deltas(self, data):
        from repro.engine import ExecutionEngine

        engine = ExecutionEngine("process", n_workers=1)
        evaluator = _evaluator(data, prefix_cache_bytes=1 << 24,
                               engine=engine)
        try:
            records = evaluator.evaluate_many(self._pipelines())
        finally:
            engine.close()
        info = evaluator.cache_info()
        # One worker fits the shared two-step prefix once and resumes the
        # three extensions from it.
        assert info["prefix_hits"] >= 3
        assert info["steps_reused"] >= 6
        # The delta never leaks into cached entries or records.
        assert all(record.accuracy is not None for record in records)
        for entry in evaluator._cache.values():
            assert "_metrics_delta" not in entry

    def test_futures_path_merges_worker_deltas(self, data,
                                               resolve_as_completed):
        from repro.engine import ExecutionEngine

        engine = ExecutionEngine("process", n_workers=1)
        evaluator = _evaluator(data, prefix_cache_bytes=1 << 24,
                               engine=engine)
        try:
            pending = [engine.submit_task(evaluator, pipeline)
                       for pipeline in self._pipelines()]
            resolve_as_completed(engine, evaluator, pending)
        finally:
            engine.close()
        info = evaluator.cache_info()
        assert info["prefix_hits"] >= 3
        assert info["steps_reused"] >= 6

    def test_remote_worker_deltas_merge_and_never_reach_the_caches(
            self, data, tmp_path):
        from repro.engine import ExecutionEngine
        from repro.engine.remote import start_loopback

        backend, workers = start_loopback(1)
        engine = ExecutionEngine(backend)
        cache_dir = tmp_path / "cache"
        evaluator = _evaluator(data, prefix_cache_bytes=1 << 24,
                               engine=engine, cache_dir=str(cache_dir))
        try:
            evaluator.evaluate_many(self._pipelines())
        finally:
            engine.close()
            for worker in workers:
                worker.stop()
        assert evaluator.cache_info()["prefix_hits"] >= 3
        for entry in evaluator._cache.values():
            assert "_metrics_delta" not in entry
        # The coordinator wrote the results to the shared disk cache.
        shards = [path for path in cache_dir.rglob("*") if path.is_file()]
        assert shards
        assert not any("_metrics_delta" in path.read_text(encoding="utf-8")
                       for path in shards)

    def test_concurrent_remote_deltas_add_up_to_the_worker_counters(
            self, data):
        """A remote worker's threads share one prefix cache: their deltas
        must split its increments, not overlap, so the parent's merged
        counters equal the worker cache's own."""
        from repro.core.search_space import SearchSpace
        from repro.engine import ExecutionEngine
        from repro.engine.remote import start_loopback

        backend, [worker] = start_loopback(1, cores_each=2)
        engine = ExecutionEngine(backend)
        evaluator = _evaluator(data, prefix_cache_bytes=64 << 20,
                               engine=engine)
        pipelines = SearchSpace(max_length=4).sample_pipelines(
            40, np.random.default_rng(3))
        try:
            evaluator.evaluate_many(pipelines)
        finally:
            engine.close()
            worker.stop()
        [remote] = worker._evaluators.values()
        own = remote.prefix_cache.info()
        info = evaluator.cache_info()
        assert info["prefix_hits"] + info["prefix_misses"] \
            == own["hits"] + own["misses"]
        assert info["steps_reused"] == own["steps_reused"]

    def test_parent_and_worker_counters_accumulate(self, data):
        """Serial reuse in the parent and worker deltas add up, and the
        search results stay identical to the serial run."""
        from repro.engine import ExecutionEngine
        from repro.core.problem import AutoFPProblem
        from repro.core.search_space import SearchSpace
        from repro.search import make_search_algorithm

        X, y = data

        def run(engine):
            problem = AutoFPProblem.from_arrays(
                X, y, LogisticRegression(max_iter=40),
                space=SearchSpace(max_length=3), random_state=0,
            )
            cached = PipelineEvaluator.from_dataset(
                X, y, LogisticRegression(max_iter=40), random_state=0,
                prefix_cache_bytes=1 << 24, engine=engine,
            )
            problem.evaluator = cached
            result = make_search_algorithm("pbt", random_state=0).search(
                problem, max_trials=10)
            if engine is not None:
                engine.close()
            return result, cached.cache_info()

        serial_result, serial_info = run(None)
        process_result, process_info = run(
            ExecutionEngine("process", n_workers=2))
        assert [t.accuracy for t in process_result.trials] == \
            [t.accuracy for t in serial_result.trials]
        # Worker activity reached the parent's counters (which tasks land
        # on which worker — and hence how much *reuse* each private cache
        # sees — is scheduling-dependent, but every worker evaluation
        # probes its cache, so merged misses are deterministic evidence).
        assert process_info["prefix_hits"] + process_info["prefix_misses"] > 0
        assert serial_info["prefix_hits"] > 0  # the serial reference reuses


# ------------------------------------------------- copy-on-write guards
ALL_PREPROCESSOR_NAMES = DEFAULT_PREPROCESSOR_NAMES + EXTENDED_PREPROCESSOR_NAMES


@pytest.mark.parametrize("name", ALL_PREPROCESSOR_NAMES)
def test_preprocessor_never_mutates_its_input(name, data):
    """COW discipline: cached arrays are shared, so fit/transform must not
    write to their inputs — neither on the train nor the transform side."""
    from repro.preprocessing.extended import get_extended_preprocessor_class
    from repro.preprocessing.registry import PREPROCESSOR_CLASSES

    if name in PREPROCESSOR_CLASSES:
        step = PREPROCESSOR_CLASSES[name]()
    else:
        step = get_extended_preprocessor_class(name)()
    X, _ = data
    X = np.asarray(X, dtype=np.float64)
    train, other = X[:80], X[80:]
    train_copy, other_copy = train.copy(), other.copy()
    step.fit_transform(train)
    step.transform(other)
    assert np.array_equal(train, train_copy), f"{name} mutated fit input"
    assert np.array_equal(other, other_copy), f"{name} mutated transform input"


BENCH_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_prefix_reuse.py"
)


def test_bench_prefix_reuse_smoke():
    """Exercise the benchmark harness's smoke mode under tier-1.

    The smoke mode asserts the determinism contract (identical accuracies)
    and a meaningful reused-step fraction on the evolution + PNAS workload,
    using deterministic counters so it cannot flake on machine speed.
    """
    spec = importlib.util.spec_from_file_location("bench_prefix_reuse",
                                                  BENCH_PATH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    off, on = bench.smoke_check()
    assert on["steps_reused"] > 0
    assert on["total_steps"] == off["total_steps"]


class TestSanitizeCopyElision:
    def test_finite_input_is_returned_unchanged_same_object(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert PipelineEvaluator._sanitize(X) is X

    def test_non_finite_input_still_copies_and_cleans(self):
        X = np.array([[np.nan, np.inf], [-np.inf, 1.0]])
        cleaned = PipelineEvaluator._sanitize(X)
        assert cleaned is not X
        assert np.all(np.isfinite(cleaned))
        assert cleaned[1, 1] == 1.0
