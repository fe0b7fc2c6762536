"""Tests for PipelineEvaluator, budgets, trial records and search results."""

import numpy as np
import pytest

from repro.core import (
    CompositeBudget,
    Pipeline,
    PipelineEvaluator,
    SearchResult,
    TimeBudget,
    TrialBudget,
    TrialRecord,
)
from repro.exceptions import BudgetExhaustedError, ValidationError
from repro.models import LogisticRegression


class TestTrialBudget:
    def test_consumption(self):
        budget = TrialBudget(3)
        assert not budget.exhausted()
        budget.consume()
        budget.consume()
        assert budget.remaining() == 1
        budget.consume()
        assert budget.exhausted()

    def test_fractional_consumption(self):
        budget = TrialBudget(2)
        budget.consume(0.5)
        budget.consume(0.5)
        assert budget.remaining() == pytest.approx(1.0)

    def test_check_raises_when_exhausted(self):
        budget = TrialBudget(1)
        budget.consume()
        with pytest.raises(BudgetExhaustedError):
            budget.check()

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValidationError):
            TrialBudget(0)


class TestTimeBudget:
    def test_exhaustion_with_fake_clock(self):
        now = [0.0]
        budget = TimeBudget(10.0, clock=lambda: now[0])
        assert not budget.exhausted()
        now[0] = 5.0
        assert budget.remaining() == pytest.approx(5.0)
        now[0] = 11.0
        assert budget.exhausted()

    def test_invalid_seconds_rejected(self):
        with pytest.raises(ValidationError):
            TimeBudget(0.0)


class TestCompositeBudget:
    def test_exhausted_when_any_member_is(self):
        trials = TrialBudget(100)
        now = [0.0]
        time_budget = TimeBudget(1.0, clock=lambda: now[0])
        combined = CompositeBudget(trials, time_budget)
        assert not combined.exhausted()
        now[0] = 2.0
        assert combined.exhausted()

    def test_consume_propagates(self):
        first, second = TrialBudget(5), TrialBudget(10)
        CompositeBudget(first, second).consume(2)
        assert first.used == 2
        assert second.used == 2


class TestPipelineEvaluator:
    def test_baseline_uses_empty_pipeline(self, lr_evaluator):
        baseline = lr_evaluator.baseline_accuracy()
        assert 0.0 <= baseline <= 1.0

    def test_evaluate_returns_trial_record(self, lr_evaluator):
        record = lr_evaluator.evaluate(Pipeline.from_names(["standard_scaler"]))
        assert isinstance(record, TrialRecord)
        assert 0.0 <= record.accuracy <= 1.0
        assert record.prep_time >= 0.0
        assert record.train_time >= 0.0
        assert record.error == pytest.approx(1.0 - record.accuracy)

    def test_preprocessing_improves_distorted_data(self, lr_evaluator):
        """A scaling pipeline beats no preprocessing on scale-distorted data."""
        baseline = lr_evaluator.baseline_accuracy()
        scaled = lr_evaluator.evaluate(
            Pipeline.from_names(["quantile_transformer"])
        ).accuracy
        assert scaled >= baseline

    def test_cache_returns_same_accuracy(self, lr_evaluator):
        pipeline = Pipeline.from_names(["minmax_scaler", "standard_scaler"])
        first = lr_evaluator.evaluate(pipeline)
        second = lr_evaluator.evaluate(pipeline)
        assert first.accuracy == second.accuracy

    def test_low_fidelity_uses_fewer_rows(self, lr_evaluator):
        record = lr_evaluator.evaluate(
            Pipeline.from_names(["standard_scaler"]), fidelity=0.3
        )
        assert record.fidelity == 0.3
        assert 0.0 <= record.accuracy <= 1.0

    def test_invalid_fidelity_rejected(self, lr_evaluator):
        with pytest.raises(ValidationError):
            lr_evaluator.evaluate(Pipeline(), fidelity=0.0)

    def test_pick_time_recorded(self, lr_evaluator):
        record = lr_evaluator.evaluate(Pipeline(), pick_time=0.25)
        assert record.pick_time == 0.25
        assert record.total_time >= 0.25

    def test_feature_count_mismatch_rejected(self, distorted_data):
        X, y = distorted_data
        with pytest.raises(ValidationError):
            PipelineEvaluator(X[:, :3], y, X[:, :4], y, LogisticRegression())

    def test_evaluate_many(self, lr_evaluator, small_space):
        pipelines = small_space.sample_pipelines(3, random_state=0)
        records = lr_evaluator.evaluate_many(pipelines)
        assert len(records) == 3


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


class TestFailureCaching:
    def _evaluator(self, distorted_data, **kwargs):
        X, y = distorted_data
        return PipelineEvaluator.from_dataset(
            X, y, LogisticRegression(max_iter=30), random_state=0, **kwargs
        )

    def test_failed_evaluation_is_cached(self, distorted_data):
        evaluator = self._evaluator(distorted_data)
        pipeline = _failing_pipeline()
        first = evaluator.evaluate(pipeline)
        assert first.accuracy == 0.0
        assert evaluator.n_evaluations == 1
        # The repeat evaluation must come from the cache: the degenerate
        # pipeline's prep cost is paid exactly once.
        second = evaluator.evaluate(pipeline)
        assert second.accuracy == 0.0
        assert evaluator.n_evaluations == 1
        assert evaluator.cache_hits == 1

    def test_failed_entry_records_prep_time(self, distorted_data):
        evaluator = self._evaluator(distorted_data)
        record = evaluator.evaluate(_failing_pipeline())
        assert record.train_time == 0.0
        assert record.prep_time >= 0.0


class TestMemoCounters:
    def _evaluator(self, distorted_data, **kwargs):
        X, y = distorted_data
        return PipelineEvaluator.from_dataset(
            X, y, LogisticRegression(max_iter=30), random_state=0, **kwargs
        )

    def test_hit_miss_counters(self, distorted_data):
        evaluator = self._evaluator(distorted_data)
        pipeline = Pipeline.from_names(["standard_scaler"])
        evaluator.evaluate(pipeline)
        evaluator.evaluate(pipeline)
        evaluator.evaluate(pipeline, fidelity=0.5)  # different key
        info = evaluator.cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 2
        assert info["size"] == 2

    def test_memo_keeps_every_entry(self, distorted_data):
        """The memo never evicts: re-evaluating every pipeline in the
        order it was first seen (the worst case for any bounded LRU)
        pays no second evaluation."""
        evaluator = self._evaluator(distorted_data)
        pipelines = [Pipeline.from_names([name]) for name in (
            "standard_scaler", "minmax_scaler", "maxabs_scaler",
            "normalizer", "binarizer")]
        first = [evaluator.evaluate(p).accuracy for p in pipelines]
        again = [evaluator.evaluate(p).accuracy for p in pipelines]
        assert again == first
        assert evaluator.n_evaluations == len(pipelines)
        info = evaluator.cache_info()
        assert info["size"] == len(pipelines)
        assert info["hits"] == len(pipelines)


class TestDeterministicSubsampling:
    def _evaluator(self, distorted_data, random_state=0):
        X, y = distorted_data
        return PipelineEvaluator.from_dataset(
            X, y, LogisticRegression(max_iter=30), random_state=random_state,
        )

    def test_low_fidelity_result_independent_of_evaluation_order(self, distorted_data):
        pipeline_a = Pipeline.from_names(["standard_scaler"])
        pipeline_b = Pipeline.from_names(["minmax_scaler"])

        forward = self._evaluator(distorted_data)
        a_first = forward.evaluate(pipeline_a, fidelity=0.4)
        b_second = forward.evaluate(pipeline_b, fidelity=0.4)

        backward = self._evaluator(distorted_data)
        b_first = backward.evaluate(pipeline_b, fidelity=0.4)
        a_second = backward.evaluate(pipeline_a, fidelity=0.4)

        assert a_first.accuracy == a_second.accuracy
        assert b_first.accuracy == b_second.accuracy

    def test_subsample_seed_differs_per_pipeline_and_fidelity(self, distorted_data):
        evaluator = self._evaluator(distorted_data)
        rng_a = evaluator._subsample_rng(Pipeline.from_names(["standard_scaler"]), 0.4)
        rng_b = evaluator._subsample_rng(Pipeline.from_names(["minmax_scaler"]), 0.4)
        rng_c = evaluator._subsample_rng(Pipeline.from_names(["standard_scaler"]), 0.5)
        draws = {tuple(rng.integers(0, 1000, size=3).tolist())
                 for rng in (rng_a, rng_b, rng_c)}
        assert len(draws) == 3

    def test_different_random_state_changes_subsample(self, distorted_data):
        pipeline = Pipeline.from_names(["standard_scaler"])
        one = self._evaluator(distorted_data, random_state=0)
        two = self._evaluator(distorted_data, random_state=1)
        rng_one = one._subsample_rng(pipeline, 0.4)
        rng_two = two._subsample_rng(pipeline, 0.4)
        assert rng_one.integers(0, 10**9) != rng_two.integers(0, 10**9)


class TestSearchResult:
    def _record(self, accuracy, fidelity=1.0, **times):
        return TrialRecord(Pipeline(), accuracy=accuracy, fidelity=fidelity, **times)

    def test_best_trial_prefers_full_fidelity(self):
        result = SearchResult(algorithm="test")
        result.add(self._record(0.99, fidelity=0.1))
        result.add(self._record(0.7, fidelity=1.0))
        assert result.best_accuracy == 0.7

    def test_best_trial_falls_back_to_partial(self):
        result = SearchResult(algorithm="test")
        result.add(self._record(0.4, fidelity=0.5))
        assert result.best_accuracy == 0.4

    def test_empty_result_raises(self):
        with pytest.raises(ValidationError):
            SearchResult(algorithm="test").best_trial()

    def test_improvement_over_baseline(self):
        result = SearchResult(algorithm="test", baseline_accuracy=0.6)
        result.add(self._record(0.75))
        assert result.improvement_over_baseline() == pytest.approx(15.0)

    def test_trajectory_is_monotone(self):
        result = SearchResult(algorithm="test")
        for accuracy in [0.5, 0.4, 0.7, 0.6, 0.9]:
            result.add(self._record(accuracy))
        trajectory = result.accuracy_trajectory()
        assert np.all(np.diff(trajectory) >= 0)
        assert trajectory[-1] == 0.9

    def test_time_breakdown_percentages_sum_to_100(self):
        result = SearchResult(algorithm="test")
        result.add(self._record(0.5, pick_time=1.0, prep_time=2.0, train_time=7.0))
        percentages = result.time_breakdown_percent()
        assert sum(percentages.values()) == pytest.approx(100.0)
        assert result.bottleneck() == "train"
