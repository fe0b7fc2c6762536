"""Tests for the gradient-boosting (XGB stand-in) and MLP classifiers."""

import hashlib

import numpy as np
import pytest

from repro.datasets.synthetic import make_classification
from repro.models import FAST_MODEL_PARAMS, GradientBoostingClassifier, MLPClassifier
from repro.preprocessing import StandardScaler


class TestGradientBoosting:
    def test_fits_separable_data(self, small_binary_data):
        X, y = small_binary_data
        model = GradientBoostingClassifier(n_estimators=10, max_depth=2).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_multiclass(self, small_multiclass_data):
        X, y = small_multiclass_data
        model = GradientBoostingClassifier(n_estimators=10, max_depth=2).fit(X, y)
        assert model.score(X, y) > 0.8

    def test_more_rounds_fit_training_data_better(self, distorted_data):
        X, y = distorted_data
        few = GradientBoostingClassifier(n_estimators=2, max_depth=2).fit(X, y)
        many = GradientBoostingClassifier(n_estimators=20, max_depth=2).fit(X, y)
        assert many.score(X, y) >= few.score(X, y)

    def test_probabilities_valid(self, small_binary_data):
        X, y = small_binary_data
        probs = GradientBoostingClassifier(n_estimators=5).fit(X, y).predict_proba(X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_scale_robustness(self, small_binary_data):
        """Tree ensembles give identical predictions under monotone rescaling."""
        X, y = small_binary_data
        base = GradientBoostingClassifier(n_estimators=8, random_state=0).fit(X, y)
        scaled = GradientBoostingClassifier(n_estimators=8, random_state=0).fit(
            X * 500.0 - 3.0, y
        )
        np.testing.assert_array_equal(base.predict(X), scaled.predict(X * 500.0 - 3.0))

    def test_subsample_under_one_still_learns(self, small_binary_data):
        X, y = small_binary_data
        model = GradientBoostingClassifier(n_estimators=10, subsample=0.7,
                                           random_state=0).fit(X, y)
        assert model.score(X, y) > 0.85

    def test_deterministic_given_seed(self, small_binary_data):
        X, y = small_binary_data
        a = GradientBoostingClassifier(n_estimators=4, subsample=0.8,
                                       random_state=5).fit(X, y).predict(X)
        b = GradientBoostingClassifier(n_estimators=4, subsample=0.8,
                                       random_state=5).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)


class TestMLPClassifier:
    def test_fits_separable_data(self, small_binary_data):
        X, y = small_binary_data
        model = MLPClassifier(hidden_layer_sizes=(16,), max_iter=60).fit(X, y)
        assert model.score(X, y) > 0.85

    def test_multiclass(self, small_multiclass_data):
        X, y = small_multiclass_data
        model = MLPClassifier(hidden_layer_sizes=(16,), max_iter=60).fit(X, y)
        assert model.score(X, y) > 0.75

    def test_two_hidden_layers_supported(self, small_binary_data):
        X, y = small_binary_data
        model = MLPClassifier(hidden_layer_sizes=(16, 8), max_iter=40).fit(X, y)
        assert len(model.weights_) == 3
        assert model.score(X, y) > 0.7

    def test_probabilities_valid(self, small_binary_data):
        X, y = small_binary_data
        probs = MLPClassifier(max_iter=20).fit(X, y).predict_proba(X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_scale_sensitivity(self, distorted_data):
        """MLP benefits strongly from standardisation (paper's MLP results)."""
        X, y = distorted_data
        raw = MLPClassifier(max_iter=30, random_state=0).fit(X, y).score(X, y)
        X_scaled = StandardScaler().fit_transform(X)
        scaled = MLPClassifier(max_iter=30, random_state=0).fit(X_scaled, y).score(X_scaled, y)
        assert scaled >= raw

    def test_deterministic_given_seed(self, small_binary_data):
        X, y = small_binary_data
        a = MLPClassifier(max_iter=15, random_state=2).fit(X, y).predict_proba(X)
        b = MLPClassifier(max_iter=15, random_state=2).fit(X, y).predict_proba(X)
        np.testing.assert_allclose(a, b)

    def test_clone_keeps_architecture(self):
        model = MLPClassifier(hidden_layer_sizes=(8, 4), alpha=1e-3)
        clone = model.clone()
        assert clone.hidden_layer_sizes == (8, 4)
        assert clone.alpha == 1e-3


def _golden_mlp_data(n_classes):
    X, y = make_classification(n_samples=400, n_features=8, n_classes=n_classes,
                               random_state=20241019 + n_classes)
    return X[:300], y[:300], X[300:]


# Digest of predict_proba on the binary and the 4-class data, at the
# default and at the fast parameters, taken when every softmax still
# reduced over the class axis.
GOLDEN_MLP = "2f0386b1e14752a46eedc6e6d751491f2db30bde99b2cde6d8a3736eb3c27d60"


def test_golden_mlp_predict_proba_digest():
    digest = hashlib.sha256()
    for n_classes in (2, 4):
        X, y, X_test = _golden_mlp_data(n_classes)
        for params in ({}, FAST_MODEL_PARAMS["mlp"]):
            model = MLPClassifier(**params).fit(X, y)
            digest.update(model.predict_proba(X_test).tobytes())
    assert digest.hexdigest() == GOLDEN_MLP
