"""Tests for the deep recommendation models (FM, DeepFM, DCN)."""

import hashlib

import numpy as np
import pytest

from repro.datasets import make_classification
from repro.deep import (
    DEEP_MODEL_CLASSES,
    DeepCrossNetworkClassifier,
    DeepFMClassifier,
    FactorizationMachineClassifier,
)
from repro.models import make_classifier, roc_auc_score, train_test_split
from repro.models.registry import FAST_MODEL_PARAMS

MODEL_CLASSES = [
    FactorizationMachineClassifier,
    DeepFMClassifier,
    DeepCrossNetworkClassifier,
]


def _xor_interaction_data(n_samples=400, seed=0):
    """Binary labels driven purely by a pairwise interaction (XOR of two bits)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=n_samples)
    b = rng.integers(0, 2, size=n_samples)
    noise = rng.normal(scale=0.1, size=(n_samples, 2))
    X = np.column_stack([a, b, a * 0 + rng.normal(size=n_samples)]) + np.column_stack(
        [noise, np.zeros(n_samples)]
    )
    y = (a ^ b).astype(int)
    return X, y


@pytest.mark.parametrize("model_class", MODEL_CLASSES)
class TestCommonBehaviour:
    def test_fit_predict_shapes_and_labels(self, model_class):
        X, y = make_classification(n_samples=120, n_features=6, n_classes=3,
                                   random_state=0)
        model = model_class(max_iter=8, random_state=0)
        model.fit(X, y)
        predictions = model.predict(X)
        assert predictions.shape == (120,)
        assert set(np.unique(predictions)) <= set(np.unique(y))

    def test_predict_proba_rows_sum_to_one(self, model_class):
        X, y = make_classification(n_samples=90, n_features=5, n_classes=2,
                                   random_state=1)
        model = model_class(max_iter=8, random_state=0).fit(X, y)
        probabilities = model.predict_proba(X)
        assert probabilities.shape == (90, 2)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, atol=1e-9)
        assert probabilities.min() >= 0.0

    def test_learns_separable_problem_better_than_chance(self, model_class):
        X, y = make_classification(n_samples=300, n_features=6, n_classes=2,
                                   class_sep=3.0, random_state=2)
        X_train, X_valid, y_train, y_valid = train_test_split(
            X, y, test_size=0.25, random_state=0
        )
        model = model_class(max_iter=25, random_state=0).fit(X_train, y_train)
        assert model.score(X_valid, y_valid) > 0.75

    def test_clone_returns_unfitted_copy_with_same_params(self, model_class):
        model = model_class(max_iter=5, random_state=3)
        clone = model.clone()
        assert clone is not model
        assert clone.get_params() == model.get_params()
        assert not clone.is_fitted()

    def test_decision_function_matches_argmax_of_proba(self, model_class):
        X, y = make_classification(n_samples=80, n_features=4, random_state=4)
        model = model_class(max_iter=8, random_state=0).fit(X, y)
        scores = model.decision_function(X)
        probabilities = model.predict_proba(X)
        np.testing.assert_array_equal(
            np.argmax(scores, axis=1), np.argmax(probabilities, axis=1)
        )

    def test_predict_before_fit_raises(self, model_class):
        from repro.exceptions import NotFittedError

        with pytest.raises(NotFittedError):
            model_class().predict(np.zeros((3, 2)))


class TestInteractionLearning:
    def test_fm_learns_xor_interaction_that_linear_model_cannot(self):
        X, y = _xor_interaction_data(n_samples=500, seed=0)
        X_train, X_valid, y_train, y_valid = train_test_split(
            X, y, test_size=0.25, random_state=0
        )
        fm = FactorizationMachineClassifier(
            n_factors=8, max_iter=60, learning_rate=0.1, random_state=0
        ).fit(X_train, y_train)
        linear = make_classifier("lr").fit(X_train, y_train)
        assert fm.score(X_valid, y_valid) > linear.score(X_valid, y_valid) + 0.1

    def test_deepfm_and_dcn_learn_xor_interaction(self):
        X, y = _xor_interaction_data(n_samples=500, seed=1)
        X_train, X_valid, y_train, y_valid = train_test_split(
            X, y, test_size=0.25, random_state=0
        )
        for model_class in (DeepFMClassifier, DeepCrossNetworkClassifier):
            model = model_class(max_iter=60, learning_rate=0.05,
                                random_state=0).fit(X_train, y_train)
            assert model.score(X_valid, y_valid) > 0.8


class TestRegistryIntegration:
    def test_deep_models_available_through_make_classifier(self):
        for name in DEEP_MODEL_CLASSES:
            model = make_classifier(name, fast=True)
            assert isinstance(model, DEEP_MODEL_CLASSES[name])

    def test_fast_params_reduce_training_epochs(self):
        model = make_classifier("deepfm", fast=True)
        assert model.max_iter <= 20


class TestDeepCrossNetworkSpecifics:
    def test_no_hidden_layers_uses_cross_branch_only(self):
        X, y = make_classification(n_samples=100, n_features=5, random_state=0)
        model = DeepCrossNetworkClassifier(hidden_layer_sizes=(), max_iter=10,
                                           random_state=0).fit(X, y)
        assert model.deep_ is None
        assert model.predict(X).shape == (100,)

    def test_number_of_cross_layers_respected(self):
        X, y = make_classification(n_samples=80, n_features=4, random_state=0)
        model = DeepCrossNetworkClassifier(n_cross_layers=3, max_iter=5,
                                           random_state=0).fit(X, y)
        assert len(model.cross_weights_) == 3
        assert len(model.cross_biases_) == 3


class TestAUC:
    def test_auc_above_half_on_separable_binary_problem(self):
        X, y = make_classification(n_samples=250, n_features=6, class_sep=2.5,
                                   random_state=5)
        X_train, X_valid, y_train, y_valid = train_test_split(
            X, y, test_size=0.25, random_state=0
        )
        model = DeepFMClassifier(max_iter=25, random_state=0).fit(X_train, y_train)
        auc = roc_auc_score(y_valid, model.predict_proba(X_valid)[:, 1])
        assert auc > 0.7


# Digests of predict_proba on binary and 3-class held-out rows, at the
# default and at the fast parameters (plus a DCN without a deep branch and
# a batch size that leaves a short last batch); taken before the six
# Adam-trained models shared one epoch loop, which must leave them
# bit-identical.
GOLDEN_DEEP = {
    "fm": "26ae331ae4d28474c4464097a96343ea5c99db0a301e733b1234ad7804f85707",
    "deepfm": "4002cbc05e214144e93bb9cc88e6d72e8a66132cf63e653fa1542ebe90ffc76a",
    "dcn": "32b83011ade60c4058b27a588a08ec2f9bdf1396fa34e6155846b161b23ba462",
}

GOLDEN_DEEP_EXTRA_PARAMS = {
    "fm": {"batch_size": 50},
    "deepfm": {"batch_size": 50},
    "dcn": {"hidden_layer_sizes": (), "batch_size": 50},
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DEEP))
def test_golden_deep_predict_proba_digest(name):
    digest = hashlib.sha256()
    for n_classes in (2, 3):
        X, y = make_classification(n_samples=300, n_features=6,
                                   n_classes=n_classes,
                                   random_state=20241019 + n_classes)
        for params in ({}, FAST_MODEL_PARAMS[name],
                       GOLDEN_DEEP_EXTRA_PARAMS[name]):
            model = DEEP_MODEL_CLASSES[name](**params).fit(X[:220], y[:220])
            digest.update(model.predict_proba(X[220:]).tobytes())
    assert digest.hexdigest() == GOLDEN_DEEP[name]
