"""Gradient-boosted decision trees — the XGBoost stand-in ("XGB").

The classifier boosts shallow regression trees on the softmax cross-entropy
gradient (one tree per class per round), with shrinkage and optional row
subsampling.  This is the classic gradient-boosting machine; it reproduces
the property of XGBoost that matters to the Auto-FP study: tree ensembles
are far less sensitive to monotone feature rescaling than linear models or
neural networks, so feature preprocessing helps them less (visible in
Tables 11-15 of the paper where XGB improvements are small).
"""

from __future__ import annotations

import numpy as np

from repro.models.base import Classifier, one_hot, softmax
from repro.models.tree import DecisionTreeRegressor
from repro.utils.random import check_random_state
from repro.utils.validation import check_is_fitted


class GradientBoostingClassifier(Classifier):
    """Multi-class gradient boosting with softmax loss.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds.
    learning_rate:
        Shrinkage applied to each tree's contribution.
    max_depth:
        Depth of the individual regression trees.
    subsample:
        Fraction of rows sampled (without replacement) per round; 1.0
        disables subsampling.
    min_samples_leaf:
        Minimum samples per leaf in the individual trees.
    random_state:
        Seed for row subsampling.
    """

    name = "xgb"

    def __init__(self, n_estimators: int = 30, learning_rate: float = 0.3,
                 max_depth: int = 3, subsample: float = 1.0,
                 min_samples_leaf: int = 1, random_state: int | None = 0) -> None:
        super().__init__(
            n_estimators=n_estimators,
            learning_rate=learning_rate,
            max_depth=max_depth,
            subsample=subsample,
            min_samples_leaf=min_samples_leaf,
            random_state=random_state,
        )

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = check_random_state(self.random_state)
        n_samples = X.shape[0]
        self.n_classes_ = int(y.max()) + 1
        targets = one_hot(y, self.n_classes_)

        # Initial raw scores: log class priors (the usual GBM initialisation).
        priors = targets.mean(axis=0)
        priors = np.clip(priors, 1e-12, None)
        self.init_scores_ = np.log(priors)
        raw_scores = np.tile(self.init_scores_, (n_samples, 1))

        self.stages_: list[list[DecisionTreeRegressor]] = []
        for round_index in range(int(self.n_estimators)):
            probabilities = softmax(raw_scores)
            residuals = targets - probabilities

            if self.subsample < 1.0:
                size = max(2, int(round(self.subsample * n_samples)))
                sample_idx = rng.choice(n_samples, size=size, replace=False)
            else:
                sample_idx = np.arange(n_samples)

            stage: list[DecisionTreeRegressor] = []
            for class_index in range(self.n_classes_):
                tree = DecisionTreeRegressor(
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                    random_state=round_index * self.n_classes_ + class_index,
                )
                tree.fit(X[sample_idx], residuals[sample_idx, class_index])
                raw_scores[:, class_index] += self.learning_rate * tree.predict(X)
                stage.append(tree)
            self.stages_.append(stage)

    def _raw_scores(self, X: np.ndarray) -> np.ndarray:
        scores = np.tile(self.init_scores_, (X.shape[0], 1))
        for stage in self.stages_:
            for class_index, tree in enumerate(stage):
                scores[:, class_index] += self.learning_rate * tree.predict(X)
        return scores

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "stages_")
        return softmax(self._raw_scores(X))
