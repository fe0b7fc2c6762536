"""Counting: the process-wide registry and the cache layers' int counters.

Covers the registry's series semantics (labels, kind stability, flat
snapshots), the prefix cache's worker→parent counter shipping
(``counters_delta`` / ``absorb``) on its own and across a real process
pool, and that a pickled evaluator starts its counters at zero.
"""

import pickle

import numpy as np
import pytest

from repro.core.prefixcache import PrefixTransformCache
from repro.exceptions import ValidationError
from repro.telemetry.metrics import MetricsRegistry, get_registry


class TestMetricsRegistry:
    def test_counter_is_get_or_create(self):
        registry = MetricsRegistry()
        counter = registry.counter("evals")
        counter.inc()
        assert registry.counter("evals") is counter
        assert registry.counter("evals").value == 1

    def test_labels_distinguish_series(self):
        registry = MetricsRegistry()
        registry.counter("evals", backend="thread").inc(2)
        registry.counter("evals", backend="process").inc(5)
        snapshot = registry.snapshot()
        assert snapshot["evals{backend=thread}"] == 2
        assert snapshot["evals{backend=process}"] == 5

    def test_kind_mismatch_is_a_programming_error(self):
        registry = MetricsRegistry()
        registry.counter("depth")
        with pytest.raises(ValidationError):
            registry.gauge("depth")

    def test_gauge_tracks_high_water(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("inflight")
        gauge.inc(3)
        gauge.dec(2)
        gauge.inc(1)
        snapshot = registry.snapshot()
        assert snapshot["inflight"] == 2
        assert snapshot["inflight.high_water"] == 3

    def test_reset_drops_every_series(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.reset()
        assert len(registry) == 0 and registry.snapshot() == {}

    def test_get_registry_is_a_process_singleton(self):
        assert get_registry() is get_registry()


class TestPrefixCounterShipping:
    """A worker cache's counter deltas, as the parent absorbs them."""

    def test_delta_reports_only_nonzero_changes(self):
        cache = PrefixTransformCache(max_bytes=200)
        assert cache.counters_delta() == {}
        cache.longest_prefix(("a",))
        assert cache.counters_delta() == {"misses": 1}
        assert cache.counters_delta() == {}
        cache.store(("a",), np.zeros((4, 2)), np.zeros((4, 2)))
        cache.longest_prefix(("a", "b", "c"))
        assert cache.counters_delta() == {"insertions": 1, "hits": 1,
                                          "steps_reused": 1}

    def test_absorbing_each_delta_reconstructs_the_later_reading(self):
        worker = PrefixTransformCache(max_bytes=200)
        parent = PrefixTransformCache(max_bytes=200)
        X = np.zeros((4, 2))  # 128 bytes an entry: two exceed the budget
        steps = [
            lambda: worker.longest_prefix(("a", "b")),     # miss
            lambda: worker.store(("a",), X, X.copy()),     # insertion
            lambda: worker.longest_prefix(("a", "b")),     # hit, 1 step
            lambda: worker.store_failure(("c",)),          # insertion
            lambda: worker.longest_prefix(("c", "d")),     # short circuit
            lambda: worker.store(("e",), X, X.copy()),     # eviction
        ]
        for step in steps:
            step()
            parent.absorb(worker.counters_delta())
            assert parent.counters() == worker.counters()
        assert all(worker.counters().values())
        # The parent's gauges stay its own: no arrays were shipped.
        assert parent.info()["entries"] == 0 and parent.bytes_held == 0


def test_a_pickled_evaluator_starts_with_zeroed_counters(distorted_data):
    from repro.core.evaluation import PipelineEvaluator
    from repro.core.pipeline import Pipeline
    from repro.models.linear import LogisticRegression

    X, y = distorted_data
    evaluator = PipelineEvaluator.from_dataset(
        X, y, LogisticRegression(max_iter=40), random_state=0)
    pipeline = Pipeline.from_names(("standard_scaler",))
    evaluator.evaluate(pipeline)
    evaluator.evaluate(pipeline)
    counted = {"cache_hits": 1, "cache_misses": 1, "n_evaluations": 1}
    assert evaluator.counters() == counted

    clone = pickle.loads(pickle.dumps(evaluator))
    assert clone.counters() == {"cache_hits": 0, "cache_misses": 0,
                                "n_evaluations": 0}
    clone.evaluate(pipeline)
    assert clone.counters() == {"cache_hits": 0, "cache_misses": 1,
                                "n_evaluations": 1}
    assert evaluator.counters() == counted  # the clone counts on its own


class TestWorkerDeltaShippingUnderProcessBackend:
    """The counters_delta/absorb protocol end to end across a process pool."""

    def _pipelines(self):
        from repro.core.pipeline import Pipeline
        from repro.preprocessing import MinMaxScaler, Normalizer, StandardScaler

        shared = [StandardScaler(), MinMaxScaler()]
        return [
            Pipeline(shared),
            Pipeline(shared + [Normalizer()]),
            Pipeline(shared + [MinMaxScaler()]),
            Pipeline(shared + [StandardScaler()]),
        ]

    def test_prefix_reuse_in_workers_lands_in_parent_reports(self, distorted_data):
        from repro.core.evaluation import PipelineEvaluator
        from repro.engine import ExecutionEngine
        from repro.models.linear import LogisticRegression

        X, y = distorted_data
        engine = ExecutionEngine("process", n_workers=1)
        evaluator = PipelineEvaluator.from_dataset(
            X, y, LogisticRegression(max_iter=40), random_state=0,
            prefix_cache_bytes=1 << 24, engine=engine,
        )
        try:
            evaluator.evaluate_many(self._pipelines())
        finally:
            engine.close()
        # The reuse happened in another address space; the shipped
        # counter deltas must still surface in the parent.
        merged = evaluator.prefix_cache.counters()
        assert merged.get("hits", 0) >= 3
        assert merged.get("steps_reused", 0) >= 6
        info = evaluator.cache_info()
        assert info["prefix_hits"] == merged["hits"]
        assert info["steps_reused"] == merged["steps_reused"]

