"""K-nearest-neighbour and Gaussian naive Bayes classifiers.

These simple classifiers are used as landmarking meta-features (Table 10 of
the paper: ``Landmark1NN``, ``LandmarkNaiveBayes``) and as additional
distance-based models whose accuracy is strongly affected by feature
scaling.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import Classifier, one_hot, softmax
from repro.utils.validation import check_is_fitted


class KNeighborsClassifier(Classifier):
    """Brute-force k-nearest-neighbour classifier with Euclidean distance.

    Parameters
    ----------
    n_neighbors:
        Number of neighbours to vote over (1 gives the ``Landmark1NN``
        meta-feature).
    """

    name = "knn"

    def __init__(self, n_neighbors: int = 5) -> None:
        super().__init__(n_neighbors=int(n_neighbors))

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.X_train_ = X
        self.y_train_ = y
        self.n_classes_ = int(y.max()) + 1

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "X_train_")
        k = min(self.n_neighbors, self.X_train_.shape[0])
        # Pairwise squared Euclidean distances, computed blockwise for memory.
        out = np.zeros((X.shape[0], self.n_classes_))
        block = 512
        train_sq = np.sum(self.X_train_ ** 2, axis=1)
        for start in range(0, X.shape[0], block):
            rows = X[start:start + block]
            distances = (
                np.sum(rows ** 2, axis=1)[:, None]
                - 2.0 * rows @ self.X_train_.T
                + train_sq[None, :]
            )
            nearest = np.argpartition(distances, kth=k - 1, axis=1)[:, :k]
            votes = self.y_train_[nearest]
            for class_index in range(self.n_classes_):
                out[start:start + block, class_index] = np.mean(
                    votes == class_index, axis=1
                )
        return out


class GaussianNB(Classifier):
    """Gaussian naive Bayes with per-class diagonal covariance."""

    name = "gaussian_nb"

    def __init__(self, var_smoothing: float = 1e-9) -> None:
        super().__init__(var_smoothing=var_smoothing)

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.n_classes_ = int(y.max()) + 1
        n_features = X.shape[1]
        self.theta_ = np.zeros((self.n_classes_, n_features))
        self.var_ = np.zeros((self.n_classes_, n_features))
        self.priors_ = np.zeros(self.n_classes_)
        global_var = X.var(axis=0).max()
        smoothing = self.var_smoothing * max(global_var, 1e-12)
        for label in range(self.n_classes_):
            members = X[y == label]
            if members.shape[0] == 0:
                self.priors_[label] = 1e-12
                self.var_[label] = 1.0
                continue
            self.priors_[label] = members.shape[0] / X.shape[0]
            self.theta_[label] = members.mean(axis=0)
            self.var_[label] = members.var(axis=0) + smoothing

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "theta_")
        log_probs = np.zeros((X.shape[0], self.n_classes_))
        for label in range(self.n_classes_):
            diff = X - self.theta_[label]
            log_likelihood = -0.5 * np.sum(
                np.log(2.0 * np.pi * self.var_[label]) + diff ** 2 / self.var_[label],
                axis=1,
            )
            log_probs[:, label] = log_likelihood + np.log(self.priors_[label] + 1e-12)
        return softmax(log_probs)


class MajorityClassClassifier(Classifier):
    """Predict the most frequent training class; the no-skill baseline.

    Used by landmarking meta-features (random-node learners degrade to this
    on uninformative features) and as a sanity baseline in tests.
    """

    name = "majority"

    def __init__(self) -> None:
        super().__init__()

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        counts = np.bincount(y)
        self.majority_ = int(np.argmax(counts))
        self.n_classes_ = counts.shape[0]

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "majority_")
        probabilities = np.zeros((X.shape[0], self.n_classes_))
        probabilities[:, self.majority_] = 1.0
        return probabilities
