"""One dense stack, one Adam step and one epoch loop for every Adam-trained model.

Six models train with mini-batch Adam, and all of them train through
:func:`train_adam`:

* :class:`~repro.models.mlp.MLPClassifier`, the paper's "MLP" downstream
  model, a :class:`DenseStack` with an L2 penalty on its weights;
* :class:`~repro.surrogates.mlp_regressor.MLPRegressor` and
  :class:`~repro.surrogates.lstm_regressor.LSTMRegressor`, the surrogates
  that rank candidates for Progressive NAS (PMNE, PME, PLNE, PLE);
* :class:`~repro.deep.factorization_machine.FactorizationMachineClassifier`,
  :class:`~repro.deep.deepfm.DeepFMClassifier` and
  :class:`~repro.deep.dcn.DeepCrossNetworkClassifier`, the Section 8 deep
  recommendation models; DeepFM and DCN add a :class:`DenseStack` branch
  to their structured part.

Each model only supplies its parameters and a function returning their
gradients on a batch of rows.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError


class DenseStack:
    """A ReLU feed-forward stack ``input -> hidden... -> output`` with backprop.

    Parameters
    ----------
    layer_sizes:
        Sizes of every layer including input and output, e.g.
        ``[n_features, 32, 16, n_classes]``.
    rng:
        Generator used for Glorot-uniform weight initialisation.
    """

    def __init__(self, layer_sizes: list[int], rng: np.random.Generator) -> None:
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    # ------------------------------------------------------------------ API
    def forward(self, X: np.ndarray) -> list[np.ndarray]:
        """Return all layer activations (input first, final linear output last)."""
        activations = [X]
        last = len(self.weights) - 1
        for i, (weights, biases) in enumerate(zip(self.weights, self.biases)):
            pre_activation = activations[-1] @ weights + biases
            if i < last:
                activations.append(np.maximum(pre_activation, 0.0))
            else:
                activations.append(pre_activation)
        return activations

    def backward(self, activations: list[np.ndarray],
                 output_grad: np.ndarray) -> list[np.ndarray]:
        """Backpropagate ``output_grad`` (dLoss/dOutput) through the stack.

        Returns the gradients aligned with :meth:`parameters`. The gradient
        of the stack's input is not computed: no caller trains what feeds it.
        """
        gradients: list[np.ndarray] = []
        delta = output_grad
        for i in range(len(self.weights) - 1, -1, -1):
            gradients += [delta.sum(axis=0), activations[i].T @ delta]
            if i > 0:
                delta = (delta @ self.weights[i].T) * (activations[i] > 0.0)
        return gradients[::-1]

    def parameters(self) -> list[np.ndarray]:
        """All trainable arrays, weights interleaved with biases."""
        return [param for layer in zip(self.weights, self.biases) for param in layer]


class AdamOptimizer:
    """Minimal Adam optimiser updating a flat list of parameter arrays in place."""

    def __init__(self, parameters: list[np.ndarray], learning_rate: float = 1e-2,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.parameters = parameters
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p) for p in parameters]
        self._v = [np.zeros_like(p) for p in parameters]
        self._step = 0

    def update(self, gradients: list[np.ndarray]) -> None:
        """Apply one Adam step given gradients aligned with ``parameters``."""
        self._step += 1
        for i, (param, grad) in enumerate(zip(self.parameters, gradients)):
            self._m[i] = self.beta1 * self._m[i] + (1 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1 - self.beta2) * grad ** 2
            m_hat = self._m[i] / (1 - self.beta1 ** self._step)
            v_hat = self._v[i] / (1 - self.beta2 ** self._step)
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def iterate_minibatches(n_samples: int, batch_size: int, rng: np.random.Generator):
    """Yield index arrays covering a random permutation of ``n_samples`` rows."""
    permutation = rng.permutation(n_samples)
    for start in range(0, n_samples, batch_size):
        yield permutation[start:start + batch_size]


def train_adam(parameters: list[np.ndarray], gradients, *, n_samples: int,
               batch_size: int, epochs: int, learning_rate: float,
               rng: np.random.Generator, epochs_name: str = "epochs") -> None:
    """Train ``parameters`` in place: ``epochs`` shuffled passes of Adam steps.

    Each epoch draws one ``rng.permutation(n_samples)`` and takes one Adam
    step per slice of it of at most ``batch_size`` rows; ``gradients(batch)``
    returns the loss gradients on the rows ``batch``, aligned with
    ``parameters``. A bad setting raises :class:`ValidationError` naming it,
    the epoch count under the caller's own name ``epochs_name``.
    """
    if not 1 <= batch_size < math.inf:
        raise ValidationError(
            f"batch_size must be finite and at least 1, got {batch_size!r}")
    if not 0 < learning_rate < math.inf:
        raise ValidationError(
            f"learning_rate must be finite and positive, got {learning_rate!r}")
    if not 0 <= epochs < math.inf:
        raise ValidationError(
            f"{epochs_name} must be finite and non-negative, got {epochs!r}")
    optimizer = AdamOptimizer(parameters, learning_rate=learning_rate)
    for _ in range(int(epochs)):
        for batch in iterate_minibatches(n_samples, int(batch_size), rng):
            optimizer.update(gradients(batch))
