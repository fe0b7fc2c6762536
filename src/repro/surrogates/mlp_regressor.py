"""Small MLP regression surrogate (Progressive NAS "MLP" variants)."""

from __future__ import annotations

import numpy as np

from repro.models.nn import DenseStack, train_adam
from repro.surrogates.base import SurrogateRegressor
from repro.utils.random import check_random_state


class MLPRegressor(SurrogateRegressor):
    """One-hidden-layer ReLU network trained with Adam on squared error.

    Deliberately tiny: the paper notes that the MLP surrogate's fitting
    overhead is "approximate to RS", which is what lets PMNE/PME evaluate
    many pipelines and rank well for the MLP downstream model.

    Parameters
    ----------
    hidden_size:
        Width of the single hidden layer.
    epochs:
        Number of full passes over the training trials.
    learning_rate:
        Adam step size.
    random_state:
        Seed for weight initialisation and shuffling.
    """

    def __init__(self, hidden_size: int = 32, epochs: int = 100,
                 learning_rate: float = 1e-2, random_state: int = 0) -> None:
        self.hidden_size = int(hidden_size)
        self.epochs = int(epochs)
        self.learning_rate = float(learning_rate)
        self.random_state = random_state

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPRegressor":
        rng = check_random_state(self.random_state)
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        n_samples, n_features = X.shape
        self.network_ = DenseStack([n_features, self.hidden_size, 1], rng)

        def gradients(batch: np.ndarray) -> list[np.ndarray]:
            activations = self.network_.forward(X[batch])
            residuals = activations[-1].ravel() - y[batch]
            return self.network_.backward(activations, residuals[:, None] / len(batch))

        # Full batch: one Adam step per epoch.
        train_adam(self.network_.parameters(), gradients, n_samples=n_samples,
                   batch_size=n_samples, epochs=self.epochs,
                   learning_rate=self.learning_rate, rng=rng)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return self.network_.forward(X)[-1].ravel()
