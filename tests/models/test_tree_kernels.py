"""Oracle tests for the vectorised tree kernels.

The split scans and the prediction descent in ``repro.models.tree`` work on
whole arrays.  The per-sample loops below are the reference they replaced:
the vectorised code must return exactly what the loops return, compared
with ``==``, and fitted models must reproduce golden digests taken from
the loop implementation.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.models import tree as tree_module
from repro.models.tree import _best_split_classification, _best_split_regression


# ----------------------------------------------------------------- oracles
def _gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts / total
    return float(1.0 - np.sum(proportions * proportions))


def loop_split_classification(X, y, n_classes, feature_indices, min_samples_leaf):
    n_samples = X.shape[0]
    parent_counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    parent_impurity = _gini(parent_counts)
    best = None
    best_gain = 1e-12

    for feature in feature_indices:
        order = np.argsort(X[:, feature], kind="mergesort")
        values = X[order, feature]
        labels = y[order]
        left_counts = np.zeros(n_classes)
        right_counts = parent_counts.copy()
        for i in range(n_samples - 1):
            label = labels[i]
            left_counts[label] += 1
            right_counts[label] -= 1
            if values[i] == values[i + 1]:
                continue
            n_left = i + 1
            n_right = n_samples - n_left
            if n_left < min_samples_leaf or n_right < min_samples_leaf:
                continue
            weighted = (n_left * _gini(left_counts)
                        + n_right * _gini(right_counts)) / n_samples
            gain = parent_impurity - weighted
            if gain > best_gain:
                best_gain = gain
                best = (feature, 0.5 * (values[i] + values[i + 1]), gain)
    return best


def loop_split_regression(X, y, feature_indices, min_samples_leaf):
    n_samples = X.shape[0]
    total_sum = y.sum()
    total_sq = float(np.sum(y * y))
    parent_sse = total_sq - total_sum * total_sum / n_samples
    best = None
    best_gain = 1e-12

    for feature in feature_indices:
        order = np.argsort(X[:, feature], kind="mergesort")
        values = X[order, feature]
        targets = y[order]
        left_sum = 0.0
        left_sq = 0.0
        for i in range(n_samples - 1):
            left_sum += targets[i]
            left_sq += targets[i] * targets[i]
            if values[i] == values[i + 1]:
                continue
            n_left = i + 1
            n_right = n_samples - n_left
            if n_left < min_samples_leaf or n_right < min_samples_leaf:
                continue
            right_sum = total_sum - left_sum
            right_sq = total_sq - left_sq
            left_sse = left_sq - left_sum * left_sum / n_left
            right_sse = right_sq - right_sum * right_sum / n_right
            gain = parent_sse - (left_sse + right_sse)
            if gain > best_gain:
                best_gain = gain
                best = (feature, 0.5 * (values[i] + values[i + 1]), gain)
    return best


def walk_predict(tree, X):
    """Descend one row at a time, recursing from the root."""

    def leaf(row, node):
        if tree.feature[node] < 0:
            return node
        if row[tree.feature[node]] <= tree.threshold[node]:
            return leaf(row, tree.left[node])
        return leaf(row, tree.right[node])

    return np.array([tree.value[leaf(row, 0)] for row in X])


# ------------------------------------------------------------------ inputs
@st.composite
def split_cases(draw):
    """Columns with ties, duplicates and constants, plus a scan setting."""
    n_samples = draw(st.integers(2, 300))
    n_features = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(n_features):
        kind = draw(st.sampled_from(["normal", "wide", "rounded", "few",
                                     "constant", "duplicate"]))
        if kind == "normal":
            column = rng.normal(size=n_samples)
        elif kind == "wide":
            column = rng.exponential(scale=1e6, size=n_samples)
        elif kind == "rounded":
            column = np.round(rng.normal(size=n_samples), 1)
        elif kind == "few":
            column = rng.integers(-2, 3, size=n_samples).astype(np.float64)
        elif kind == "constant":
            column = np.full(n_samples, rng.normal())
        else:
            column = columns[-1].copy() if columns else np.zeros(n_samples)
        columns.append(column)
    X = np.column_stack(columns)
    n_candidates = draw(st.integers(1, n_features))
    feature_indices = rng.permutation(n_features)[:n_candidates]
    min_samples_leaf = draw(st.integers(1, n_samples // 2 + 2))
    return X, feature_indices, min_samples_leaf, rng


def assert_same_split(fast, slow):
    if slow is None:
        assert fast is None
    else:
        assert fast is not None
        assert tuple(fast) == tuple(slow)


# ------------------------------------------------------------------- scans
@settings(max_examples=150, deadline=None)
@given(case=split_cases())
def test_regression_scan_matches_loop(case):
    X, feature_indices, min_samples_leaf, rng = case
    n_samples = X.shape[0]
    targets = [
        rng.normal(size=n_samples),
        # large magnitudes make the last bits of every product count
        rng.normal(loc=3e7, scale=1e8, size=n_samples),
        rng.choice([-0.5, 0.0, 0.25, 1.0], size=n_samples),
        rng.integers(-3, 4, size=n_samples).astype(np.float64),
    ]
    for y in targets:
        assert_same_split(
            _best_split_regression(X, y, feature_indices, min_samples_leaf),
            loop_split_regression(X, y, feature_indices, min_samples_leaf))


@settings(max_examples=150, deadline=None)
@given(case=split_cases(), n_classes=st.integers(2, 12))
def test_gini_scan_matches_loop(case, n_classes):
    X, feature_indices, min_samples_leaf, rng = case
    n_samples = X.shape[0]
    labels = [
        rng.integers(0, n_classes, size=n_samples),
        # skewed class sizes
        np.minimum(rng.geometric(0.4, size=n_samples) - 1, n_classes - 1),
        rng.integers(0, 2, size=n_samples) * (n_classes - 1),
    ]
    for y in labels:
        assert_same_split(
            _best_split_classification(X, y, n_classes, feature_indices,
                                       min_samples_leaf),
            loop_split_classification(X, y, n_classes, feature_indices,
                                      min_samples_leaf))


def test_scans_skip_when_no_split_is_allowed():
    X = np.arange(6, dtype=np.float64).reshape(-1, 1)
    y = np.array([0, 0, 0, 1, 1, 1])
    features = np.arange(1)
    assert _best_split_classification(X, y, 2, features, 4) is None
    assert _best_split_regression(X, y.astype(float), features, 4) is None
    assert _best_split_regression(np.ones((6, 1)), y.astype(float), features,
                                  1) is None


# --------------------------------------------------------- whole-tree fits
@settings(max_examples=25, deadline=None)
@given(case=split_cases(), n_classes=st.integers(2, 5),
       max_features=st.sampled_from([None, "sqrt", 2]))
def test_fitted_trees_match_loop_splits(case, n_classes, max_features):
    X, _, min_samples_leaf, rng = case
    labels = rng.integers(0, n_classes, size=X.shape[0])
    targets = rng.normal(size=X.shape[0])
    leaf = max(1, min_samples_leaf // 4)
    models = [
        (DecisionTreeClassifier(max_depth=6, min_samples_leaf=leaf,
                                max_features=max_features, random_state=1),
         labels),
        (DecisionTreeRegressor(max_depth=6, min_samples_leaf=leaf,
                               max_features=max_features, random_state=1),
         targets),
    ]
    for model, y in models:
        fast = model.fit(X, y).tree_
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree_module, "_best_split_classification",
                          loop_split_classification)
            patch.setattr(tree_module, "_best_split_regression",
                          loop_split_regression)
            slow = model.fit(X, y).tree_
        for name in ("feature", "threshold", "left", "right", "value",
                     "n_samples"):
            np.testing.assert_array_equal(getattr(fast, name),
                                          getattr(slow, name))


# ----------------------------------------------------------------- descent
def walk_shape(tree, node=0):
    """``(depth, n_leaves)`` of the subtree at ``node``, by recursion."""
    if tree.feature[node] < 0:
        return 0, 1
    left_depth, left_leaves = walk_shape(tree, tree.left[node])
    right_depth, right_leaves = walk_shape(tree, tree.right[node])
    return 1 + max(left_depth, right_depth), left_leaves + right_leaves


@settings(max_examples=40, deadline=None)
@given(case=split_cases(), n_classes=st.integers(2, 6))
def test_array_descent_matches_node_walk(case, n_classes):
    X, _, _, rng = case
    queries = np.vstack([X, rng.normal(size=(20, X.shape[1])) * 2.0])
    classifier = DecisionTreeClassifier(max_depth=8).fit(
        X, rng.integers(0, n_classes, size=X.shape[0]))
    regressor = DecisionTreeRegressor(max_depth=8).fit(
        X, rng.normal(size=X.shape[0]))
    for model in (classifier, regressor):
        tree = model.tree_
        assert np.array_equal(tree.value[tree.apply(queries)],
                              walk_predict(tree, queries))
        assert (tree.depth(), tree.n_leaves()) == walk_shape(tree)


def test_flat_tree_layout_is_preorder():
    X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    tree = DecisionTreeClassifier().fit(X, [0, 0, 1, 1, 0]).tree_
    # root splits at 1.5; its right child (x > 1.5) splits again at 3.5
    assert list(tree.feature) == [0, -1, 0, -1, -1]
    assert list(tree.threshold) == [1.5, 0.0, 3.5, 0.0, 0.0]
    assert list(tree.left) == [1, -1, 3, -1, -1]
    assert list(tree.right) == [2, -1, 4, -1, -1]
    assert list(tree.n_samples) == [5, 2, 3, 2, 1]
    assert tree.value.shape == (5, 2)


# ----------------------------------------------------------- golden fits
def _golden_data():
    rng = np.random.default_rng(20240611)
    X = rng.normal(size=(240, 6))
    X[:, 1] = np.round(X[:, 1], 1)
    X[:, 4] = rng.integers(0, 3, size=240)
    y = (X[:, 0] + 0.5 * X[:, 1] - X[:, 2] > 0).astype(int) + (X[:, 3] > 1)
    target = np.sin(X[:, 0]) + 0.3 * X[:, 4] + 0.1 * rng.normal(size=240)
    return X[:180], y[:180], target[:180], X[180:]


def _digest(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


# Digests of the per-sample loop implementation's predictions.
GOLDEN = {
    "gbdt": "6d7f022ed8c7d017bc01fce6aecc711ac539a9986a1771f78f0dfcd7b9b2b655",
    "rfc": "bc60e95448f12762a6725658e49ff68db522183c7b7b19dac7190d3a55143186",
    "rfr": "05f207a55aef72198a34a04389ae360eeb85eb83564ab4d8a740974eed4d163f",
}


def test_golden_prediction_digests():
    X, y, target, X_test = _golden_data()
    gbdt = GradientBoostingClassifier(n_estimators=8, max_depth=3,
                                      subsample=0.8, random_state=3).fit(X, y)
    rfc = RandomForestClassifier(n_estimators=6, max_depth=6,
                                 random_state=5).fit(X, y)
    rfr = RandomForestRegressor(n_estimators=6, max_depth=6,
                                random_state=7).fit(X, target)
    assert _digest(gbdt.predict_proba(X_test)) == GOLDEN["gbdt"]
    assert _digest(rfc.predict_proba(X_test)) == GOLDEN["rfc"]
    assert _digest(*rfr.predict_with_std(X_test)) == GOLDEN["rfr"]
