"""Multi-layer perceptron classifier — the "MLP" downstream model.

A small feed-forward network (one or two hidden layers, ReLU activations,
softmax output) trained with mini-batch Adam on the cross-entropy loss.
Like scikit-learn's MLPClassifier it is highly sensitive to the scale of the
input features, which is why the paper's MLP results show the largest
improvements from feature preprocessing.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import Classifier, one_hot, softmax
from repro.models.nn import DenseStack, train_adam
from repro.utils.random import check_random_state
from repro.utils.validation import check_is_fitted


class MLPClassifier(Classifier):
    """Feed-forward neural-network classifier trained with Adam.

    Parameters
    ----------
    hidden_layer_sizes:
        Tuple of hidden-layer widths, e.g. ``(32,)`` or ``(64, 32)``.
    alpha:
        L2 penalty on the weights.
    learning_rate:
        Adam step size.
    max_iter:
        Number of training epochs.
    batch_size:
        Mini-batch size; clipped to the number of training samples.
    random_state:
        Seed controlling weight initialisation and batch shuffling.
    """

    name = "mlp"

    def __init__(self, hidden_layer_sizes: tuple = (32,), alpha: float = 1e-4,
                 learning_rate: float = 1e-2, max_iter: int = 60,
                 batch_size: int = 64, random_state: int | None = 0) -> None:
        super().__init__(
            hidden_layer_sizes=tuple(hidden_layer_sizes),
            alpha=alpha,
            learning_rate=learning_rate,
            max_iter=max_iter,
            batch_size=batch_size,
            random_state=random_state,
        )

    # ------------------------------------------------------------- training
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = check_random_state(self.random_state)
        n_samples, n_features = X.shape
        n_classes = int(y.max()) + 1
        targets = one_hot(y, n_classes)

        self.network_ = DenseStack([n_features, *self.hidden_layer_sizes, n_classes], rng)
        self.weights_ = self.network_.weights
        self.biases_ = self.network_.biases

        def gradients(batch: np.ndarray) -> list[np.ndarray]:
            activations = self.network_.forward(X[batch])
            delta = (softmax(activations[-1]) - targets[batch]) / len(batch)
            grads = self.network_.backward(activations, delta)
            for grad, weights in zip(grads[::2], self.weights_):
                grad += self.alpha * weights  # L2 penalty, weights only
            return grads

        train_adam(self.network_.parameters(), gradients, n_samples=n_samples,
                   batch_size=self.batch_size, epochs=self.max_iter,
                   learning_rate=self.learning_rate, rng=rng, epochs_name="max_iter")

    # ------------------------------------------------------------ inference
    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "weights_")
        return softmax(self.network_.forward(X)[-1])
