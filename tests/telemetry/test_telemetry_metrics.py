"""Metrics layer: MetricSet / MetricsSnapshot / MetricsRegistry.

Covers the worker→parent shipping protocol (snapshot, diff, merge), the
attribute-compatibility shim (:func:`metric_property`), pickling of a
``MetricSet`` across process boundaries, the process-wide registry's
series semantics (labels, kind stability, flat snapshots), and that the
library's counter owners keep their counters on metric sets.
"""

import pickle

import pytest

from repro.exceptions import ValidationError
from repro.telemetry.metrics import (
    MetricSet,
    MetricsRegistry,
    MetricsSnapshot,
    get_registry,
    metric_property,
)


class TestMetricsSnapshot:
    def test_diff_reports_only_nonzero_changes(self):
        before = MetricsSnapshot({"hits": 2, "misses": 5, "idle": 1})
        after = MetricsSnapshot({"hits": 7, "misses": 5, "new": 3})
        assert after.diff(before) == {"hits": 5, "new": 3, "idle": -1}

    def test_diff_against_none_is_the_snapshot_itself(self):
        after = MetricsSnapshot({"hits": 2, "zero": 0})
        assert after.diff(None) == {"hits": 2}

    def test_merge_adds_values_and_keeps_sources_intact(self):
        mine = MetricsSnapshot({"hits": 1})
        theirs = MetricsSnapshot({"hits": 2, "misses": 4})
        merged = mine.merge(theirs)
        assert merged == {"hits": 3, "misses": 4}
        assert mine == {"hits": 1} and theirs == {"hits": 2, "misses": 4}

    def test_round_trips_through_plain_dict(self):
        snapshot = MetricsSnapshot({"a": 1, "b": 2.5})
        plain = snapshot.to_dict()
        assert plain == {"a": 1, "b": 2.5} and type(plain) is dict
        assert MetricsSnapshot(plain) == snapshot

    def test_diff_then_merge_reconstructs_the_later_reading(self):
        """The shipping protocol identity: before.merge(after.diff(before)) == after."""
        before = MetricsSnapshot({"hits": 3, "misses": 1})
        after = MetricsSnapshot({"hits": 9, "misses": 1, "evictions": 2})
        assert before.merge(after.diff(before)) == after


class TestMetricSet:
    def test_declared_names_start_at_zero(self):
        metrics = MetricSet(("hits", "misses"))
        assert metrics.get("hits") == 0
        assert "misses" in metrics and len(metrics) == 2

    def test_inc_set_get(self):
        metrics = MetricSet()
        metrics.inc("hits")
        metrics.inc("hits", 4)
        metrics.set("bytes", 123)
        assert metrics.get("hits") == 5 and metrics.get("bytes") == 123
        assert metrics.get("unknown") == 0

    def test_merge_absorbs_foreign_names(self):
        metrics = MetricSet(("hits",))
        metrics.merge({"hits": 2, "prefix.steps_reused": 7})
        assert metrics.get("hits") == 2
        assert metrics.get("prefix.steps_reused") == 7

    def test_snapshot_is_a_detached_copy(self):
        metrics = MetricSet(("hits",))
        snapshot = metrics.snapshot()
        metrics.inc("hits")
        assert snapshot["hits"] == 0 and metrics.get("hits") == 1

    def test_pickle_round_trip(self):
        metrics = MetricSet(("hits",))
        metrics.inc("hits", 2)
        clone = pickle.loads(pickle.dumps(metrics))
        assert clone.snapshot() == metrics.snapshot()
        clone.inc("hits")  # the clone has its own storage
        assert metrics.get("hits") == 2


class TestMetricProperty:
    class _Cache:
        metrics: MetricSet
        hits = metric_property("hits")
        misses = metric_property("misses")

        def __init__(self):
            self.metrics = MetricSet(("hits", "misses"))

    def test_reads_and_writes_go_through_the_metric_set(self):
        cache = self._Cache()
        cache.hits += 1
        cache.hits += 1
        cache.misses = 10
        assert cache.hits == 2
        assert cache.metrics.snapshot() == {"hits": 2, "misses": 10}


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


class TestWorkerDeltaShippingUnderProcessBackend:
    """The diff/merge protocol end to end across a real process pool."""

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
        # MetricsSnapshot deltas must still surface in the parent.
        merged = evaluator.prefix_cache.counters()
        assert merged.get("hits", 0) >= 3
        assert merged.get("steps_reused", 0) >= 6
        info = evaluator.cache_info()
        assert info["prefix_hits"] == merged["hits"]
        assert info["steps_reused"] == merged["steps_reused"]


def test_library_counters_live_on_metric_sets():
    """The migrated classes expose their counters through a MetricSet."""
    from repro.core.evaluation import PipelineEvaluator
    from repro.core.prefixcache import PrefixTransformCache
    from repro.io.evalcache import PersistentEvalCache
    from repro.telemetry.metrics import MetricSet

    for owner in (PipelineEvaluator, PrefixTransformCache, PersistentEvalCache):
        names = getattr(owner, "COUNTER_NAMES")
        assert names, f"{owner.__name__} declares no counter names"
        for name in names:
            assert isinstance(getattr(owner, name), property), (
                f"{owner.__name__}.{name} is not a metric_property"
            )

    cache = PrefixTransformCache(max_bytes=1024)
    assert isinstance(cache.metrics, MetricSet)
