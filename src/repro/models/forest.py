"""Random forests for classification and regression.

The regression forest doubles as SMAC's surrogate model (the paper notes
SMAC uses a random forest because it copes with the categorical,
high-dimensional pipeline encoding); the classification forest is used for
landmarking meta-features and as an HPO target.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import Classifier
from repro.models.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.utils.random import check_random_state, spawn_rng
from repro.utils.validation import check_is_fitted, check_X_y


class RandomForestClassifier(Classifier):
    """Bagged ensemble of Gini decision trees with feature subsampling.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth:
        Maximum depth of each tree.
    max_features:
        Features considered per split (default ``"sqrt"``).
    bootstrap:
        Whether each tree sees a bootstrap resample of the training data.
    random_state:
        Seed for bootstrapping and feature subsampling.
    """

    name = "random_forest"

    def __init__(self, n_estimators: int = 20, max_depth: int | None = None,
                 min_samples_leaf: int = 1, max_features="sqrt",
                 bootstrap: bool = True, random_state: int | None = 0) -> None:
        super().__init__(
            n_estimators=n_estimators,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            bootstrap=bootstrap,
            random_state=random_state,
        )

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = check_random_state(self.random_state)
        self.n_classes_ = int(y.max()) + 1
        self.estimators_ = []
        seeds = rng.integers(0, 2**31 - 1, size=int(self.n_estimators))
        for seed in seeds:
            tree_rng = np.random.default_rng(int(seed))
            if self.bootstrap:
                indices = tree_rng.integers(0, X.shape[0], size=X.shape[0])
            else:
                indices = np.arange(X.shape[0])
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(seed),
            )
            # Ensure every class is represented in the tree's output space by
            # fitting on the encoded labels and padding probabilities later.
            tree.fit(X[indices], y[indices])
            self.estimators_.append(tree)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "estimators_")
        aggregate = np.zeros((X.shape[0], self.n_classes_))
        for tree in self.estimators_:
            probabilities = tree.predict_proba(X)
            # A bootstrap sample can miss classes; align by the tree's classes_.
            aggregate[:, tree.classes_.astype(int)] += probabilities
        aggregate /= len(self.estimators_)
        # Guard rows that received no votes (cannot happen in practice).
        row_sums = aggregate.sum(axis=1, keepdims=True)
        row_sums[row_sums == 0] = 1.0
        return aggregate / row_sums


class RandomForestRegressor:
    """Bagged ensemble of variance-splitting regression trees.

    Besides ``predict`` it exposes ``predict_with_std`` which returns the
    across-tree standard deviation — the uncertainty estimate SMAC's
    expected-improvement acquisition function needs.
    """

    name = "random_forest_regressor"

    def __init__(self, n_estimators: int = 20, max_depth: int | None = 8,
                 min_samples_leaf: int = 1, max_features="sqrt",
                 bootstrap: bool = True, random_state: int | None = 0) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state

    def get_params(self) -> dict:
        return {
            "n_estimators": self.n_estimators,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "bootstrap": self.bootstrap,
            "random_state": self.random_state,
        }

    def clone(self) -> "RandomForestRegressor":
        return RandomForestRegressor(**self.get_params())

    def fit(self, X, y) -> "RandomForestRegressor":
        X, y = check_X_y(X, y, y_numeric=True)
        rng = check_random_state(self.random_state)
        rngs = spawn_rng(rng, int(self.n_estimators))
        if self.n_estimators == 1:
            rngs = [rngs]
        self.estimators_ = []
        for tree_rng in rngs:
            if self.bootstrap:
                indices = tree_rng.integers(0, X.shape[0], size=X.shape[0])
            else:
                indices = np.arange(X.shape[0])
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(tree_rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[indices], y[indices])
            self.estimators_.append(tree)
        return self

    def predict(self, X) -> np.ndarray:
        return self.predict_with_std(X)[0]

    def predict_with_std(self, X):
        """Return ``(mean, std)`` of per-tree predictions for each row of ``X``."""
        check_is_fitted(self, "estimators_")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        predictions = np.stack([tree.predict(X) for tree in self.estimators_])
        return predictions.mean(axis=0), predictions.std(axis=0)
