"""CART decision trees for classification and regression.

These trees are the building blocks for three parts of the reproduction:

* the decision-tree rule analysis of Table 1 (does any meta-feature rule
  predict whether FP helps?),
* the random forest used as SMAC's surrogate model and as a landmarking
  meta-feature, and
* the regression trees inside the gradient-boosting classifier that stands
  in for XGBoost.

Splits are found exhaustively on sorted values; impurity is the Gini index
for classification and variance for regression.  A node sorts its candidate
columns once (stable mergesort) and scores every split position at once
from running sums (``np.cumsum``, which adds sequentially).  The scores use
the same floating-point expressions, in the same order, as a scan that
visits one sample at a time, and the winner is the first maximum in
(candidate feature, sorted position) order, so the chosen split is bit for
bit the one such a scan picks.  Those per-sample scans, and a node-by-node
walk for prediction, live in ``tests/models/test_tree_kernels.py`` as the
oracles the vectorised code is tested against.

A fitted tree is a :class:`FlatTree`: one array per node attribute, nodes in
preorder (node 0 is the root; an internal node's left subtree follows it
directly).  For node ``i``, ``feature[i]`` is the split column, or ``-1`` for
a leaf; rows with ``X[:, feature[i]] <= threshold[i]`` go to ``left[i]`` and
the others to ``right[i]``; ``value[i]`` is the prediction (a row of class
probabilities, or the mean target); ``n_samples[i]`` counts the training
rows that reached the node.  Prediction moves all rows down together, one
tree level per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.base import Classifier
from repro.utils.random import check_random_state
from repro.utils.validation import check_X_y, check_is_fitted

#: a split must improve impurity by more than this to be taken
_MIN_GAIN = 1e-12


@dataclass(frozen=True)
class FlatTree:
    """A fitted tree as flat preorder node arrays (see the module docstring)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Index of the leaf that each row of ``X`` falls into."""
        node = np.zeros(X.shape[0], dtype=np.intp)
        active = np.flatnonzero(self.feature[node] >= 0)
        while active.size:
            current = node[active]
            go_left = X[active, self.feature[current]] <= self.threshold[current]
            node[active] = np.where(go_left, self.left[current], self.right[current])
            active = active[self.feature[node[active]] >= 0]
        return node

    def depth(self) -> int:
        """Number of edges on the longest root-to-leaf path."""
        level, depth = np.zeros(1, dtype=np.intp), 0
        while True:
            split = level[self.feature[level] >= 0]
            if not split.size:
                return depth
            level = np.concatenate([self.left[split], self.right[split]])
            depth += 1

    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))


def _split_positions(n_samples: int, min_samples_leaf: int) -> tuple[int, int]:
    """Sorted positions ``i`` (split after row ``i``) that leave both sides
    at least ``min_samples_leaf`` rows, as the half-open range ``[lo, hi)``."""
    smallest = max(min_samples_leaf, 1)
    return smallest - 1, n_samples - smallest


def _first_best(gain: np.ndarray, values: np.ndarray, lo: int, feature_indices):
    """Pick the split a sequential scan keeps from a grid of gains.

    ``gain[k, j]`` scores a split of candidate ``feature_indices[k]`` after
    sorted position ``lo + j``; ``values[k]`` is that column in sorted
    order.  A scan takes a position only if the values either side of it
    differ and its gain beats the best so far, starting from
    :data:`_MIN_GAIN`; NaN never beats anything.  It therefore ends on the
    first maximum in row-major order, which is what ``argmax`` returns
    once every position a scan would skip reads ``-inf``.
    """
    width = gain.shape[1]
    distinct = values[:, lo:lo + width] != values[:, lo + 1:lo + 1 + width]
    gain = np.where(distinct & (gain > _MIN_GAIN), gain, -np.inf)
    row, column = divmod(int(np.argmax(gain)), width)
    if gain[row, column] == -np.inf:
        return None
    i = lo + column
    threshold = 0.5 * (values[row, i] + values[row, i + 1])
    return feature_indices[row], threshold, gain[row, column]


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts / total
    return float(1.0 - np.sum(proportions * proportions))


def _best_split_classification(X, y, n_classes, feature_indices, min_samples_leaf):
    """Return ``(feature, threshold, gain)`` of the best Gini split, or None."""
    n_samples = X.shape[0]
    parent_counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    parent_impurity = _gini(parent_counts)
    lo, hi = _split_positions(n_samples, min_samples_leaf)
    if hi <= lo:
        return None
    n_left = np.arange(lo + 1, hi + 1, dtype=np.float64)
    n_right = n_samples - n_left
    one_hot = np.eye(n_classes)[y]
    values = np.empty((len(feature_indices), n_samples))
    gain = np.empty((len(feature_indices), hi - lo))
    # One feature at a time keeps the class-count prefix sums at
    # O(n_samples * n_classes) memory.
    for k, feature in enumerate(feature_indices):
        order = np.argsort(X[:, feature], kind="mergesort")
        values[k] = X[order, feature]
        left_counts = np.cumsum(one_hot[order], axis=0)[lo:hi]
        right_counts = parent_counts - left_counts
        left_p = left_counts / n_left[:, None]
        right_p = right_counts / n_right[:, None]
        left_gini = 1.0 - np.sum(left_p * left_p, axis=1)
        right_gini = 1.0 - np.sum(right_p * right_p, axis=1)
        weighted = (n_left * left_gini + n_right * right_gini) / n_samples
        gain[k] = parent_impurity - weighted
    return _first_best(gain, values, lo, feature_indices)


def _best_split_regression(X, y, feature_indices, min_samples_leaf):
    """Return ``(feature, threshold, gain)`` of the best variance-reducing split."""
    n_samples = X.shape[0]
    total_sum = y.sum()
    total_sq = float(np.sum(y * y))
    parent_sse = total_sq - total_sum * total_sum / n_samples
    lo, hi = _split_positions(n_samples, min_samples_leaf)
    if hi <= lo:
        return None
    # All candidate columns in one pass, one row per candidate.
    feature_indices = np.asarray(feature_indices)
    order = np.argsort(X[:, feature_indices].T, axis=1, kind="mergesort")
    values = X[order, feature_indices[:, None]]
    targets = y[order]
    left_sum = np.cumsum(targets, axis=1)[:, lo:hi]
    left_sq = np.cumsum(targets * targets, axis=1)[:, lo:hi]
    n_left = np.arange(lo + 1, hi + 1, dtype=np.float64)
    n_right = n_samples - n_left
    right_sum = total_sum - left_sum
    right_sq = total_sq - left_sq
    left_sse = left_sq - left_sum * left_sum / n_left
    right_sse = right_sq - right_sum * right_sum / n_right
    gain = parent_sse - (left_sse + right_sse)
    return _first_best(gain, values, lo, feature_indices)


def _all_close_to_first(targets: np.ndarray) -> bool:
    """``np.allclose(targets, targets[0])`` for finite targets, at a fifth
    of its cost: the same ``|a - b| <= atol + rtol * |b|`` test."""
    first = targets[0]
    return bool(np.all(np.abs(targets - first) <= 1e-8 + 1e-5 * abs(first)))


def _n_split_features(max_features, n_features: int) -> int:
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    return max(1, min(int(max_features), n_features))


def _grow(X, y, *, max_depth, min_samples_split, max_features, random_state,
          leaf_value, is_pure, best_split) -> FlatTree:
    """Grow a tree depth first.

    ``leaf_value(y)`` is a node's prediction, ``is_pure(y)`` stops a node
    early, and ``best_split(X, y, feature_indices)`` returns
    ``(feature, threshold, gain)`` or None.  When ``max_features`` leaves
    fewer candidates than features, each node draws its candidates from
    a generator seeded with ``random_state``, in preorder.
    """
    nodes: list[list] = []  # [feature, threshold, left, right, value, n_samples]
    n_features = X.shape[1]
    n_candidates = _n_split_features(max_features, n_features)
    rng = check_random_state(random_state) if n_candidates < n_features else None
    all_features = np.arange(n_features)

    def grow(X, y, depth) -> int:
        index = len(nodes)
        node = [-1, 0.0, -1, -1, leaf_value(y), X.shape[0]]
        nodes.append(node)
        if (
            (max_depth is not None and depth >= max_depth)
            or X.shape[0] < min_samples_split
            or is_pure(y)
        ):
            return index

        if rng is not None:
            feature_indices = rng.choice(n_features, size=n_candidates,
                                         replace=False)
        else:
            feature_indices = all_features

        split = best_split(X, y, feature_indices)
        if split is None:
            return index

        feature, threshold, _ = split
        mask = X[:, feature] <= threshold
        node[0], node[1] = int(feature), float(threshold)
        node[2] = grow(X[mask], y[mask], depth + 1)
        node[3] = grow(X[~mask], y[~mask], depth + 1)
        return index

    grow(X, y, 0)
    feature, threshold, left, right, value, n_samples = zip(*nodes)
    return FlatTree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        value=np.array(value, dtype=np.float64),
        n_samples=np.array(n_samples, dtype=np.intp),
    )


class DecisionTreeClassifier(Classifier):
    """CART classification tree using the Gini impurity.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` means nodes are split until pure.
    min_samples_split:
        Minimum number of samples required to consider splitting a node.
    min_samples_leaf:
        Minimum number of samples in each child of a split.
    max_features:
        Number of features examined per split.  ``None`` uses all features,
        ``"sqrt"`` uses ``sqrt(n_features)`` (the random-forest default).
    random_state:
        Seed for the per-split feature subsampling.
    """

    name = "decision_tree"

    def __init__(self, max_depth: int | None = None, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features=None,
                 random_state: int | None = 0) -> None:
        super().__init__(
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            random_state=random_state,
        )

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n_classes = self.n_classes_ = int(y.max()) + 1

        def class_counts(labels):
            return np.bincount(labels, minlength=n_classes).astype(np.float64)

        def leaf_value(labels):
            counts = class_counts(labels)
            return counts / counts.sum()

        self.tree_ = _grow(
            X, y, max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            max_features=self.max_features,
            random_state=self.random_state,
            leaf_value=leaf_value,
            is_pure=lambda labels: np.count_nonzero(class_counts(labels)) <= 1,
            best_split=lambda X, y, features: _best_split_classification(
                X, y, n_classes, features, self.min_samples_leaf),
        )

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "tree_")
        return self.tree_.value[self.tree_.apply(X)]

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        check_is_fitted(self, "tree_")
        return self.tree_.depth()

    def n_leaves(self) -> int:
        """Number of leaves of the fitted tree."""
        check_is_fitted(self, "tree_")
        return self.tree_.n_leaves()


class DecisionTreeRegressor:
    """CART regression tree minimising within-node variance.

    Follows the same ``fit`` / ``predict`` protocol as the classifiers but
    predicts real values.  Used by the gradient-boosting classifier and the
    random-forest regression surrogate.
    """

    name = "decision_tree_regressor"

    def __init__(self, max_depth: int | None = 3, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features=None,
                 random_state: int | None = 0) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def get_params(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "random_state": self.random_state,
        }

    def clone(self) -> "DecisionTreeRegressor":
        return DecisionTreeRegressor(**self.get_params())

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, y = check_X_y(X, y, y_numeric=True)
        self.n_features_in_ = X.shape[1]
        self.tree_ = _grow(
            X, y, max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            max_features=self.max_features,
            random_state=self.random_state,
            # sum / size is what ``targets.mean()`` computes, minus its overhead
            leaf_value=lambda targets: (float(targets.sum() / targets.size)
                                        if targets.size else 0.0),
            is_pure=_all_close_to_first,
            best_split=lambda X, y, features: _best_split_regression(
                X, y, features, self.min_samples_leaf),
        )
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "tree_")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        return self.tree_.value[self.tree_.apply(X)]
