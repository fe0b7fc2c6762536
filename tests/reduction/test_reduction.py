"""Tests for the data-reduction samplers and the reduced evaluator (Section 8)."""

import numpy as np
import pytest

from repro.core import Pipeline
from repro.core.problem import AutoFPProblem
from repro.datasets import make_classification
from repro.exceptions import UnknownComponentError, ValidationError
from repro.preprocessing import StandardScaler
from repro.reduction import (
    KMeansSampler,
    RandomSampler,
    ReducedEvaluator,
    SAMPLER_CLASSES,
    StratifiedSampler,
    make_sampler,
    reduced_problem,
)
from repro.search import RandomSearch


@pytest.fixture(scope="module")
def imbalanced_data():
    X, y = make_classification(n_samples=300, n_features=5, n_classes=3,
                               weights=(0.7, 0.2, 0.1), class_sep=2.0,
                               random_state=0)
    return X, y


class TestSamplers:
    @pytest.mark.parametrize("sampler_class", [RandomSampler, StratifiedSampler,
                                               KMeansSampler])
    def test_selects_requested_number_of_unique_rows(self, sampler_class,
                                                     imbalanced_data):
        X, y = imbalanced_data
        indices = sampler_class().select(X, y, 60, random_state=0)
        assert len(indices) == 60
        assert len(np.unique(indices)) == 60
        assert indices.min() >= 0 and indices.max() < X.shape[0]

    def test_stratified_sampler_keeps_every_class(self, imbalanced_data):
        X, y = imbalanced_data
        indices = StratifiedSampler().select(X, y, 30, random_state=0)
        assert set(np.unique(y[indices])) == set(np.unique(y))

    def test_stratified_sampler_roughly_preserves_proportions(self, imbalanced_data):
        X, y = imbalanced_data
        indices = StratifiedSampler().select(X, y, 100, random_state=0)
        selected_fraction = np.mean(y[indices] == 0)
        full_fraction = np.mean(y == 0)
        assert abs(selected_fraction - full_fraction) < 0.1

    def test_kmeans_sampler_keeps_every_class(self, imbalanced_data):
        X, y = imbalanced_data
        indices = KMeansSampler().select(X, y, 45, random_state=0)
        assert set(np.unique(y[indices])) == set(np.unique(y))

    def test_target_larger_than_dataset_returns_all_rows(self, imbalanced_data):
        X, y = imbalanced_data
        indices = RandomSampler().select(X, y, 10_000, random_state=0)
        assert len(indices) == X.shape[0]

    def test_invalid_target_rejected(self, imbalanced_data):
        X, y = imbalanced_data
        with pytest.raises(ValidationError):
            RandomSampler().select(X, y, 0, random_state=0)

    def test_make_sampler_resolves_registry_names(self):
        for name in SAMPLER_CLASSES:
            assert make_sampler(name).name == name
        with pytest.raises(UnknownComponentError):
            make_sampler("coreset")


class TestReducedEvaluator:
    @pytest.fixture(scope="class")
    def full_problem(self, imbalanced_data):
        X, y = imbalanced_data
        return AutoFPProblem.from_arrays(X, y, model="lr", random_state=0,
                                         name="reduction-test/lr")

    def test_training_rows_are_reduced_but_validation_kept(self, full_problem):
        full = full_problem.evaluator
        reduced = ReducedEvaluator(full, reduction=0.25, random_state=0)
        assert reduced.X_train.shape[0] < full.X_train.shape[0]
        assert reduced.X_valid.shape[0] == full.X_valid.shape[0]

    def test_invalid_reduction_rejected(self, full_problem):
        with pytest.raises(ValidationError):
            ReducedEvaluator(full_problem.evaluator, reduction=0.0)
        with pytest.raises(ValidationError):
            ReducedEvaluator(full_problem.evaluator, reduction=1.5)

    def test_rescore_uses_full_training_data(self, full_problem):
        reduced = ReducedEvaluator(full_problem.evaluator, reduction=0.3,
                                   random_state=0)
        pipeline = Pipeline([StandardScaler()])
        [record] = reduced.rescore([pipeline])
        full_record = full_problem.evaluator.evaluate(pipeline)
        assert record.accuracy == pytest.approx(full_record.accuracy)

    def test_rescore_result_returns_best_of_top_k(self, full_problem):
        reduced = ReducedEvaluator(full_problem.evaluator, reduction=0.3,
                                   random_state=0)
        reduced_prob = AutoFPProblem(evaluator=reduced, space=full_problem.space,
                                     name="reduced")
        result = RandomSearch(random_state=0).search(reduced_prob, max_trials=10)
        best = reduced.rescore_result(result, top_k=3)
        assert 0.0 <= best.accuracy <= 1.0

    def test_reduced_problem_helper_wraps_evaluator_and_renames(self, full_problem):
        problem = reduced_problem(full_problem, reduction=0.4, random_state=0)
        assert isinstance(problem.evaluator, ReducedEvaluator)
        assert "reduced" in problem.name
        assert problem.space is full_problem.space
        assert problem.context is full_problem.context
