"""Tests for decision trees and random forests (classification + regression)."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.models import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)


class TestDecisionTreeClassifier:
    def test_fits_separable_data(self, small_binary_data):
        X, y = small_binary_data
        model = DecisionTreeClassifier().fit(X, y)
        assert model.score(X, y) > 0.95

    def test_max_depth_limits_tree(self, small_binary_data):
        X, y = small_binary_data
        model = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert model.depth() <= 2

    def test_depth_one_is_a_stump(self, small_binary_data):
        X, y = small_binary_data
        model = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert model.n_leaves() <= 2

    def test_unrestricted_tree_memorises_training_data(self, rng):
        X = rng.normal(size=(60, 4))
        y = rng.integers(0, 2, size=60)
        model = DecisionTreeClassifier(max_depth=None, min_samples_leaf=1).fit(X, y)
        assert model.score(X, y) == pytest.approx(1.0)

    def test_min_samples_leaf_respected(self, small_binary_data):
        X, y = small_binary_data
        model = DecisionTreeClassifier(min_samples_leaf=20).fit(X, y)
        tree = model.tree_
        assert tree.n_samples[tree.feature < 0].min() >= 20

    def test_scale_invariance(self, small_binary_data):
        """Trees are invariant to monotone feature rescaling (unlike LR/MLP)."""
        X, y = small_binary_data
        base = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y).predict(X)
        scaled = DecisionTreeClassifier(max_depth=4, random_state=0).fit(
            X * 1000.0 + 5.0, y
        ).predict(X * 1000.0 + 5.0)
        np.testing.assert_array_equal(base, scaled)

    def test_multiclass_probabilities(self, small_multiclass_data):
        X, y = small_multiclass_data
        probs = DecisionTreeClassifier(max_depth=5).fit(X, y).predict_proba(X)
        assert probs.shape == (X.shape[0], 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_predict_before_fit_raises(self, small_binary_data):
        X, _ = small_binary_data
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict(X)

    def test_constant_labels_yield_single_leaf(self, rng):
        X = rng.normal(size=(30, 3))
        y = np.zeros(30, dtype=int)
        model = DecisionTreeClassifier().fit(X, y)
        assert model.n_leaves() == 1
        assert np.all(model.predict(X) == 0)


class TestDecisionTreeRegressor:
    def test_fits_piecewise_constant_function(self, rng):
        X = rng.uniform(-1, 1, size=(200, 1))
        y = np.where(X[:, 0] > 0, 2.0, -2.0)
        model = DecisionTreeRegressor(max_depth=2).fit(X, y)
        predictions = model.predict(X)
        assert np.mean((predictions - y) ** 2) < 0.1

    def test_depth_zero_like_prediction_is_mean(self, rng):
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        model = DecisionTreeRegressor(max_depth=0).fit(X, y)
        np.testing.assert_allclose(model.predict(X), y.mean())

    def test_deeper_trees_reduce_training_error(self, rng):
        X = rng.uniform(-3, 3, size=(300, 1))
        y = np.sin(X[:, 0])
        shallow = DecisionTreeRegressor(max_depth=1).fit(X, y)
        deep = DecisionTreeRegressor(max_depth=6).fit(X, y)
        err_shallow = np.mean((shallow.predict(X) - y) ** 2)
        err_deep = np.mean((deep.predict(X) - y) ** 2)
        assert err_deep < err_shallow

    def test_clone_preserves_params(self):
        model = DecisionTreeRegressor(max_depth=5, min_samples_leaf=3)
        clone = model.clone()
        assert clone.max_depth == 5
        assert clone.min_samples_leaf == 3


class TestRandomForestClassifier:
    def test_fits_separable_data(self, small_binary_data):
        X, y = small_binary_data
        model = RandomForestClassifier(n_estimators=10, max_depth=4).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_number_of_estimators(self, small_binary_data):
        X, y = small_binary_data
        model = RandomForestClassifier(n_estimators=7).fit(X, y)
        assert len(model.estimators_) == 7

    def test_probabilities_valid(self, small_multiclass_data):
        X, y = small_multiclass_data
        probs = RandomForestClassifier(n_estimators=8, max_depth=4).fit(X, y).predict_proba(X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert probs.shape[1] == 3

    def test_deterministic_given_seed(self, small_binary_data):
        X, y = small_binary_data
        a = RandomForestClassifier(n_estimators=5, random_state=3).fit(X, y).predict(X)
        b = RandomForestClassifier(n_estimators=5, random_state=3).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)


class TestRandomForestRegressor:
    def test_prediction_quality(self, rng):
        X = rng.uniform(-2, 2, size=(300, 2))
        y = X[:, 0] ** 2 + X[:, 1]
        model = RandomForestRegressor(n_estimators=15, max_depth=6, random_state=0).fit(X, y)
        residual = np.mean((model.predict(X) - y) ** 2)
        assert residual < np.var(y) * 0.3

    def test_predict_with_std_shapes(self, rng):
        X = rng.normal(size=(80, 3))
        y = X[:, 0]
        model = RandomForestRegressor(n_estimators=5, random_state=0).fit(X, y)
        mean, std = model.predict_with_std(X)
        assert mean.shape == (80,)
        assert std.shape == (80,)
        assert np.all(std >= 0)

    def test_uncertainty_higher_off_distribution(self, rng):
        X = rng.uniform(0, 1, size=(200, 1))
        y = X[:, 0]
        model = RandomForestRegressor(n_estimators=20, max_depth=4, random_state=0).fit(X, y)
        _, std_in = model.predict_with_std(np.array([[0.5]]))
        _, std_out = model.predict_with_std(np.array([[5.0]]))
        # Far outside the training range all trees agree on the boundary leaf,
        # so the spread should not explode; just check both are finite.
        assert np.isfinite(std_in[0]) and np.isfinite(std_out[0])

    def test_clone(self):
        model = RandomForestRegressor(n_estimators=3, max_depth=2)
        clone = model.clone()
        assert clone.get_params() == model.get_params()


@pytest.mark.parametrize("model", [DecisionTreeRegressor(), RandomForestRegressor(n_estimators=2)],
                         ids=["tree", "forest"])
@pytest.mark.parametrize("X, y", [
    (np.empty((0, 2)), np.empty(0)),
    (np.array([[0.0, 1.0], [np.nan, 2.0], [1.0, 0.0]]), np.array([0.0, 1.0, 2.0])),
    (np.array([[0.0], [1.0], [2.0]]), np.array([0.0, np.inf, 1.0])),
    (np.arange(12.0).reshape(6, 2), np.arange(6.0).reshape(3, 2)),
], ids=["empty", "nan-in-X", "inf-in-y", "2d-y"])
def test_regressors_reject_invalid_input(model, X, y):
    with pytest.raises(ValidationError):
        model.clone().fit(X, y)
