"""Deep & Cross Network (DCN) classifier.

DCN (Wang et al., ADKDD 2017) is the second deep recommendation model the
paper's Section 8 names.  It stacks explicit *cross layers* — each layer
multiplies the original input by a learned scalar projection of the current
representation — next to a conventional deep ReLU branch, and combines both
with a final linear layer:

* cross layer ``l``: ``x_{l+1} = x_0 * (x_l . w_l) + b_l + x_l``
  (element-wise product with the per-sample scalar ``x_l . w_l``),
* deep branch: a :class:`~repro.models.nn.DenseStack`,
* output: ``softmax([x_L, deep(x_0)] @ W_out + b_out)``.

As with :class:`~repro.deep.deepfm.DeepFMClassifier` the model consumes the
already-encoded feature matrix, which is exactly what the Auto-FP pipelines
transform, so the model exercises the preprocessing-sensitivity code path
the Section 8 experiment studies.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import Classifier, one_hot, softmax
from repro.models.nn import DenseStack, train_adam
from repro.utils.random import check_random_state
from repro.utils.validation import check_is_fitted


class DeepCrossNetworkClassifier(Classifier):
    """Deep & Cross Network trained with Adam on the cross-entropy loss.

    Parameters
    ----------
    n_cross_layers:
        Number of explicit cross layers.
    hidden_layer_sizes:
        Widths of the deep branch's hidden layers.
    learning_rate:
        Adam step size.
    max_iter:
        Number of training epochs.
    batch_size:
        Mini-batch size; clipped to the number of training samples.
    alpha:
        L2 penalty on the cross-layer weights and output weights.
    random_state:
        Seed controlling initialisation and batch shuffling.
    """

    name = "dcn"

    def __init__(self, n_cross_layers: int = 2, hidden_layer_sizes: tuple = (32, 16),
                 learning_rate: float = 2e-2, max_iter: int = 40,
                 batch_size: int = 128, alpha: float = 1e-4,
                 random_state: int | None = 0) -> None:
        super().__init__(
            n_cross_layers=int(n_cross_layers),
            hidden_layer_sizes=tuple(hidden_layer_sizes),
            learning_rate=learning_rate,
            max_iter=int(max_iter),
            batch_size=int(batch_size),
            alpha=alpha,
            random_state=random_state,
        )

    # ------------------------------------------------------------- training
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = check_random_state(self.random_state)
        n_samples, n_features = X.shape
        n_classes = int(y.max()) + 1
        targets = one_hot(y, n_classes)

        scale = 1.0 / np.sqrt(n_features)
        self.cross_weights_ = [
            rng.normal(scale=scale, size=n_features) for _ in range(self.n_cross_layers)
        ]
        self.cross_biases_ = [np.zeros(n_features) for _ in range(self.n_cross_layers)]
        deep_output = self.hidden_layer_sizes[-1] if self.hidden_layer_sizes else n_features
        self.deep_ = DenseStack([n_features, *self.hidden_layer_sizes], rng) \
            if self.hidden_layer_sizes else None
        combined_dim = n_features + (deep_output if self.deep_ is not None else 0)
        limit = np.sqrt(6.0 / (combined_dim + n_classes))
        self.output_weights_ = rng.uniform(-limit, limit, size=(combined_dim, n_classes))
        self.output_bias_ = np.zeros(n_classes)

        parameters = [
            *self.cross_weights_,
            *self.cross_biases_,
            self.output_weights_,
            self.output_bias_,
        ]
        if self.deep_ is not None:
            parameters.extend(self.deep_.parameters())
        train_adam(parameters, lambda batch: self._gradients(X[batch], targets[batch]),
                   n_samples=n_samples, batch_size=self.batch_size,
                   epochs=self.max_iter, learning_rate=self.learning_rate,
                   rng=rng, epochs_name="max_iter")

    def _cross_forward(self, X: np.ndarray):
        """Return the list of cross-layer representations, ``x_0`` first."""
        representations = [X]
        for weights, biases in zip(self.cross_weights_, self.cross_biases_):
            current = representations[-1]
            scalar = current @ weights                      # (batch,)
            representations.append(X * scalar[:, None] + biases + current)
        return representations

    def _gradients(self, X: np.ndarray, targets: np.ndarray) -> list[np.ndarray]:
        batch = X.shape[0]
        cross_states = self._cross_forward(X)
        cross_out = cross_states[-1]

        if self.deep_ is not None:
            deep_activations = self.deep_.forward(X)
            deep_out = np.maximum(deep_activations[-1], 0.0)
            combined = np.hstack([cross_out, deep_out])
        else:
            deep_activations = None
            deep_out = None
            combined = cross_out

        logits = combined @ self.output_weights_ + self.output_bias_
        probabilities = softmax(logits)
        delta = (probabilities - targets) / batch

        grad_output_weights = combined.T @ delta + self.alpha * self.output_weights_
        grad_output_bias = delta.sum(axis=0)
        grad_combined = delta @ self.output_weights_.T

        n_features = X.shape[1]
        grad_cross_out = grad_combined[:, :n_features]

        # Back-propagate through the cross layers (deepest first).
        grad_cross_weights = [np.zeros_like(w) for w in self.cross_weights_]
        grad_cross_biases = [np.zeros_like(b) for b in self.cross_biases_]
        grad_state = grad_cross_out
        for layer in range(self.n_cross_layers - 1, -1, -1):
            current = cross_states[layer]
            weights = self.cross_weights_[layer]
            # x_{l+1} = x_0 * (x_l . w_l) + b_l + x_l
            per_sample_scalar = (grad_state * X).sum(axis=1)        # dL/d(x_l . w_l)
            grad_cross_weights[layer] = current.T @ per_sample_scalar \
                + self.alpha * weights
            grad_cross_biases[layer] = grad_state.sum(axis=0)
            grad_state = grad_state + per_sample_scalar[:, None] * weights[None, :]

        gradients: list[np.ndarray] = [
            *grad_cross_weights,
            *grad_cross_biases,
            grad_output_weights,
            grad_output_bias,
        ]

        if self.deep_ is not None:
            grad_deep_out = grad_combined[:, n_features:] * (deep_out > 0.0)
            gradients.extend(self.deep_.backward(deep_activations, grad_deep_out))
        return gradients

    # ------------------------------------------------------------ inference
    def _logits(self, X: np.ndarray) -> np.ndarray:
        cross_out = self._cross_forward(X)[-1]
        if self.deep_ is not None:
            deep_out = np.maximum(self.deep_.forward(X)[-1], 0.0)
            combined = np.hstack([cross_out, deep_out])
        else:
            combined = cross_out
        return combined @ self.output_weights_ + self.output_bias_

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "output_weights_")
        return softmax(self._logits(X))

    def decision_function(self, X) -> np.ndarray:
        """Raw per-class logits of the combined cross + deep representation."""
        check_is_fitted(self, "output_weights_")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        return self._logits(X)
