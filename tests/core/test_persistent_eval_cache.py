"""PipelineEvaluator + persistent cache: cold/warm runs, fingerprints, engines."""

import pickle

import pytest

from repro.core import Pipeline, PipelineEvaluator
from repro.engine import BACKEND_NAMES
from repro.models import LogisticRegression

PIPELINES = [
    Pipeline.from_names(["standard_scaler"]),
    Pipeline.from_names(["minmax_scaler"]),
    Pipeline.from_names(["quantile_transformer", "standard_scaler"]),
    Pipeline(),
]


def _failing_pipeline():
    from repro.preprocessing.base import Preprocessor

    class Exploding(Preprocessor):
        name = "exploding"

        def __init__(self):
            super().__init__()

        def _fit(self, X, y=None):
            raise ValueError("synthetic numerical failure")

        def _transform(self, X):  # pragma: no cover - fit always fails first
            return X

    return Pipeline([Exploding()])


def _evaluator(distorted_data, tmp_path, **kwargs):
    X, y = distorted_data
    return PipelineEvaluator.from_dataset(
        X, y, LogisticRegression(max_iter=30), random_state=0,
        cache_dir=tmp_path / "evalcache", **kwargs,
    )


class TestFingerprint:
    def test_stable_for_identical_context(self, distorted_data):
        X, y = distorted_data
        one = PipelineEvaluator.from_dataset(
            X, y, LogisticRegression(max_iter=30), random_state=0)
        two = PipelineEvaluator.from_dataset(
            X, y, LogisticRegression(max_iter=30), random_state=0)
        assert one.fingerprint() == two.fingerprint()

    def test_differs_by_seed_model_and_data(self, distorted_data,
                                            small_binary_data):
        X, y = distorted_data
        base = PipelineEvaluator.from_dataset(
            X, y, LogisticRegression(max_iter=30), random_state=0)
        other_seed = PipelineEvaluator.from_dataset(
            X, y, LogisticRegression(max_iter=30), random_state=1)
        other_model = PipelineEvaluator.from_dataset(
            X, y, LogisticRegression(max_iter=60), random_state=0)
        Xb, yb = small_binary_data
        other_data = PipelineEvaluator.from_dataset(
            Xb, yb, LogisticRegression(max_iter=30), random_state=0)
        fingerprints = {base.fingerprint(), other_seed.fingerprint(),
                        other_model.fingerprint(), other_data.fingerprint()}
        assert len(fingerprints) == 4


class TestPersistentEvaluatorCache:
    def test_cold_run_populates_disk(self, distorted_data, tmp_path):
        evaluator = _evaluator(distorted_data, tmp_path)
        for pipeline in PIPELINES:
            evaluator.evaluate(pipeline)
        info = evaluator.cache_info()
        assert info["persistent"]
        assert evaluator.n_evaluations == len(PIPELINES)
        assert info["disk_writes"] == len(PIPELINES)
        assert info["disk_hits"] == 0

    def test_warm_run_is_answered_entirely_from_disk(self, distorted_data,
                                                     tmp_path):
        cold = _evaluator(distorted_data, tmp_path)
        expected = [cold.evaluate(p) for p in PIPELINES]

        warm = _evaluator(distorted_data, tmp_path)
        records = [warm.evaluate(p) for p in PIPELINES]

        assert warm.n_evaluations == 0
        info = warm.cache_info()
        assert info["misses"] == 0
        assert info["disk_hits"] == len(PIPELINES)
        # Bit-for-bit: accuracies (and timings) come back exactly as stored.
        assert [r.accuracy for r in records] == [r.accuracy for r in expected]
        assert [r.prep_time for r in records] == [r.prep_time for r in expected]
        assert [r.train_time for r in records] == [r.train_time for r in expected]

    def test_low_fidelity_and_failures_round_trip(self, distorted_data,
                                                  tmp_path):
        cold = _evaluator(distorted_data, tmp_path)
        partial = cold.evaluate(PIPELINES[0], fidelity=0.4)
        failed = cold.evaluate(_failing_pipeline())
        assert failed.accuracy == 0.0

        warm = _evaluator(distorted_data, tmp_path)
        assert warm.evaluate(PIPELINES[0], fidelity=0.4).accuracy == \
            partial.accuracy
        assert warm.evaluate(_failing_pipeline()).accuracy == 0.0
        assert warm.n_evaluations == 0

    def test_disk_promotion_feeds_the_lru(self, distorted_data, tmp_path):
        cold = _evaluator(distorted_data, tmp_path)
        cold.evaluate(PIPELINES[0])
        warm = _evaluator(distorted_data, tmp_path)
        warm.evaluate(PIPELINES[0])  # disk hit, promoted
        warm.evaluate(PIPELINES[0])  # now a pure memory hit
        assert warm.cache_info()["disk_hits"] == 1
        assert warm.cache_info()["hits"] == 2

    def test_different_seed_does_not_reuse_entries(self, distorted_data,
                                                   tmp_path):
        X, y = distorted_data
        cold = _evaluator(distorted_data, tmp_path)
        cold.evaluate(PIPELINES[0])
        other = PipelineEvaluator.from_dataset(
            X, y, LogisticRegression(max_iter=30), random_state=7,
            cache_dir=tmp_path / "evalcache",
        )
        other.evaluate(PIPELINES[0])
        assert other.n_evaluations == 1  # nothing reused across fingerprints

    def test_no_cache_dir_means_no_disk_layer(self, distorted_data, tmp_path):
        X, y = distorted_data
        plain = PipelineEvaluator.from_dataset(
            X, y, LogisticRegression(max_iter=30), random_state=0,
            cache_dir=None)
        plain.evaluate(PIPELINES[0])
        assert plain.disk_cache is None
        info = plain.cache_info()
        assert info["persistent"] is False
        assert "disk_hits" not in info
        assert not (tmp_path / "evalcache").exists()
        persisted = _evaluator(distorted_data, tmp_path)
        assert persisted.cache_info()["persistent"] is True

    def test_pickling_drops_the_disk_handle(self, distorted_data, tmp_path):
        evaluator = _evaluator(distorted_data, tmp_path)
        evaluator.evaluate(PIPELINES[0])
        clone = pickle.loads(pickle.dumps(evaluator))
        assert clone.disk_cache is None
        assert clone.cache_info()["size"] == 0


class TestPersistentCacheWithEngine:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_warm_engine_batch_skips_every_backend(self, distorted_data,
                                                   tmp_path, backend,
                                                   live_engine):
        cold = _evaluator(distorted_data, tmp_path)
        expected = [cold.evaluate(p) for p in PIPELINES]

        warm = _evaluator(distorted_data, tmp_path,
                          engine=live_engine(backend))
        try:
            records = warm.evaluate_many(PIPELINES)
        finally:
            warm.engine.close()
        assert warm.n_evaluations == 0
        assert warm.cache_info()["misses"] == 0
        assert [r.accuracy for r in records] == [r.accuracy for r in expected]

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_engine_merge_back_persists_worker_results(self, distorted_data,
                                                       tmp_path, backend,
                                                       live_engine):
        cold = _evaluator(distorted_data, tmp_path,
                          engine=live_engine(backend))
        try:
            expected = cold.evaluate_many(PIPELINES)
        finally:
            cold.engine.close()
        assert cold.cache_info()["disk_writes"] == len(PIPELINES)

        warm = _evaluator(distorted_data, tmp_path)
        records = [warm.evaluate(p) for p in PIPELINES]
        assert warm.n_evaluations == 0
        assert [r.accuracy for r in records] == [r.accuracy for r in expected]

    def test_cache_on_off_results_identical(self, distorted_data, tmp_path):
        X, y = distorted_data
        plain = PipelineEvaluator.from_dataset(
            X, y, LogisticRegression(max_iter=30), random_state=0)
        cached_cold = _evaluator(distorted_data, tmp_path)
        cached_warm = _evaluator(distorted_data, tmp_path)
        for pipeline in PIPELINES:
            reference = plain.evaluate(pipeline)
            assert cached_cold.evaluate(pipeline).accuracy == reference.accuracy
        for pipeline in PIPELINES:
            assert cached_warm.evaluate(pipeline).accuracy == \
                plain.evaluate(pipeline).accuracy
        assert cached_warm.n_evaluations == 0
