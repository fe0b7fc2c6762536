"""Factorization-machine classifier.

Factorization machines (Rendle, 2010) model pairwise feature interactions
through low-rank factor vectors, which makes them the classical workhorse
for click-through-rate / recommendation data where the informative signal
lives in feature *combinations* (user x item, item x hour, ...).  DeepFM —
one of the two deep recommendation models the paper's Section 8 points at —
uses exactly this component as its "wide" half, so the classifier here is
both a standalone baseline and the building block reused by
:class:`~repro.deep.deepfm.DeepFMClassifier`.

The per-class score of a sample ``x`` is::

    score_c(x) = b_c + w_c . x + 1/2 * sum_k [ (x . V_c[:, k])^2 - (x^2 . V_c[:, k]^2) ]

and class probabilities are the softmax over the per-class scores, so the
model supports binary and multi-class targets uniformly.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import Classifier, one_hot, softmax
from repro.models.nn import train_adam
from repro.utils.random import check_random_state
from repro.utils.validation import check_is_fitted


class FactorizationMachineClassifier(Classifier):
    """Second-order factorization machine trained with Adam on cross-entropy.

    Parameters
    ----------
    n_factors:
        Rank of the pairwise-interaction factor matrices.
    learning_rate:
        Adam step size.
    max_iter:
        Number of training epochs.
    batch_size:
        Mini-batch size; clipped to the number of training samples.
    alpha:
        L2 penalty applied to the linear weights and factor matrices.
    init_scale:
        Standard deviation of the factor-matrix initialisation.
    random_state:
        Seed controlling initialisation and batch shuffling.
    """

    name = "fm"

    def __init__(self, n_factors: int = 8, learning_rate: float = 5e-2,
                 max_iter: int = 40, batch_size: int = 128, alpha: float = 1e-4,
                 init_scale: float = 0.05, random_state: int | None = 0) -> None:
        super().__init__(
            n_factors=int(n_factors),
            learning_rate=learning_rate,
            max_iter=int(max_iter),
            batch_size=int(batch_size),
            alpha=alpha,
            init_scale=init_scale,
            random_state=random_state,
        )

    # ------------------------------------------------------------- training
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = check_random_state(self.random_state)
        n_samples, n_features = X.shape
        n_classes = int(y.max()) + 1
        targets = one_hot(y, n_classes)
        train_adam(self._init_parameters(n_features, n_classes, rng),
                   lambda batch: self._gradients(X[batch], targets[batch]),
                   n_samples=n_samples, batch_size=self.batch_size,
                   epochs=self.max_iter, learning_rate=self.learning_rate,
                   rng=rng, epochs_name="max_iter")

    def _init_parameters(self, n_features: int, n_classes: int,
                         rng: np.random.Generator) -> list[np.ndarray]:
        """Initialise the FM parameters and return them in gradient order."""
        self.bias_ = np.zeros(n_classes)
        self.linear_ = np.zeros((n_features, n_classes))
        self.factors_ = rng.normal(
            scale=self.init_scale, size=(n_classes, n_features, self.n_factors)
        )
        return [self.bias_, self.linear_, self.factors_]

    def _gradients(self, X: np.ndarray, targets: np.ndarray) -> list[np.ndarray]:
        """Cross-entropy gradients for the bias, linear and factor parameters."""
        scores, interactions = self._scores(X, return_interactions=True)
        delta = (softmax(scores) - targets) / X.shape[0]  # (batch, n_classes)
        return self._fm_gradients(X, delta, interactions)

    def _fm_gradients(self, X: np.ndarray, delta: np.ndarray,
                      interactions: list[np.ndarray]) -> list[np.ndarray]:
        """Bias, linear and factor gradients given ``delta`` = dLoss/dScores."""
        grad_bias = delta.sum(axis=0)
        grad_linear = X.T @ delta + self.alpha * self.linear_

        X_squared = X ** 2
        grad_factors = np.empty_like(self.factors_)
        for c in range(self.factors_.shape[0]):
            weighted = delta[:, c][:, None]
            # d score_c / d V[i, k] = x_i * (x . V[:, k]) - V[i, k] * x_i^2
            grad_factors[c] = (
                X.T @ (weighted * interactions[c])
                - self.factors_[c] * (weighted * X_squared).sum(axis=0)[:, None]
            )
        grad_factors += self.alpha * self.factors_
        return [grad_bias, grad_linear, grad_factors]

    # ------------------------------------------------------------ inference
    def _scores(self, X: np.ndarray, *, return_interactions: bool = False):
        """Per-class FM scores; optionally also the per-class ``X @ V`` products."""
        linear_part = self.bias_ + X @ self.linear_
        X_squared = X ** 2
        n_classes = self.factors_.shape[0]
        pairwise = np.empty((X.shape[0], n_classes))
        interactions = []
        for c in range(n_classes):
            product = X @ self.factors_[c]              # (batch, n_factors)
            squared_product = X_squared @ self.factors_[c] ** 2
            pairwise[:, c] = 0.5 * (product ** 2 - squared_product).sum(axis=1)
            if return_interactions:
                interactions.append(product)
        scores = linear_part + pairwise
        if return_interactions:
            return scores, interactions
        return scores

    def _logits(self, X: np.ndarray) -> np.ndarray:
        return self._scores(X)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "factors_")
        return softmax(self._logits(X))

    def decision_function(self, X) -> np.ndarray:
        """Raw per-class logits before the softmax (useful for AUC on binary problems)."""
        check_is_fitted(self, "factors_")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        return self._logits(X)
