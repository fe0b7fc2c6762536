"""Numerical gradient checks for the deep models' hand-written backpropagation.

The FM / DeepFM / DCN classifiers implement their gradients manually, so the
most valuable test is a finite-difference check: perturb every parameter,
measure the change in the cross-entropy loss, and compare against the
analytic gradient the model reports.  The checks run on tiny batches so they
stay fast.
"""

import numpy as np
import pytest

from repro.deep.dcn import DeepCrossNetworkClassifier
from repro.deep.deepfm import DeepFMClassifier
from repro.deep.factorization_machine import FactorizationMachineClassifier
from repro.models.base import one_hot, softmax
from repro.models.nn import AdamOptimizer, DenseStack, iterate_minibatches

EPSILON = 1e-5
TOLERANCE = 1e-4


def _cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    probabilities = np.clip(softmax(logits), 1e-12, 1.0)
    return float(-np.sum(targets * np.log(probabilities)) / logits.shape[0])


def _numerical_gradient(parameter: np.ndarray, loss_fn) -> np.ndarray:
    grad = np.zeros_like(parameter)
    iterator = np.nditer(parameter, flags=["multi_index"])
    while not iterator.finished:
        index = iterator.multi_index
        original = parameter[index]
        parameter[index] = original + EPSILON
        loss_plus = loss_fn()
        parameter[index] = original - EPSILON
        loss_minus = loss_fn()
        parameter[index] = original
        grad[index] = (loss_plus - loss_minus) / (2 * EPSILON)
        iterator.iternext()
    return grad


def _tiny_batch(seed: int = 0, n_samples: int = 6, n_features: int = 3,
                n_classes: int = 2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_samples, n_features))
    y = rng.integers(0, n_classes, size=n_samples)
    return X, one_hot(y, n_classes)


class TestFactorizationMachineGradients:
    def test_analytic_gradients_match_finite_differences(self):
        X, targets = _tiny_batch(seed=1)
        model = FactorizationMachineClassifier(n_factors=2, alpha=0.0,
                                               random_state=0)
        rng = np.random.default_rng(0)
        model.bias_ = rng.normal(size=2)
        model.linear_ = rng.normal(size=(3, 2))
        model.factors_ = rng.normal(size=(2, 3, 2))

        analytic = model._gradients(X, targets)

        def loss():
            return _cross_entropy(model._scores(X), targets)

        for parameter, grad in zip([model.bias_, model.linear_, model.factors_],
                                   analytic):
            numerical = _numerical_gradient(parameter, loss)
            np.testing.assert_allclose(grad, numerical, atol=TOLERANCE)


class TestDeepFMGradients:
    def test_analytic_gradients_match_finite_differences(self):
        X, targets = _tiny_batch(seed=2)
        model = DeepFMClassifier(n_factors=2, hidden_layer_sizes=(4,), alpha=0.0,
                                 random_state=0)
        rng = np.random.default_rng(1)
        model.bias_ = rng.normal(size=2)
        model.linear_ = rng.normal(size=(3, 2))
        model.factors_ = rng.normal(size=(2, 3, 2))
        model.deep_ = DenseStack([3, 4, 2], rng)

        parameters = [model.bias_, model.linear_, model.factors_,
                      *model.deep_.parameters()]
        analytic = model._gradients(X, targets)

        def loss():
            return _cross_entropy(model._logits(X), targets)

        for parameter, grad in zip(parameters, analytic):
            numerical = _numerical_gradient(parameter, loss)
            np.testing.assert_allclose(grad, numerical, atol=TOLERANCE)


class TestDeepCrossNetworkGradients:
    def test_analytic_gradients_match_finite_differences(self):
        X, targets = _tiny_batch(seed=3, n_features=4)
        model = DeepCrossNetworkClassifier(n_cross_layers=2, hidden_layer_sizes=(3,),
                                           alpha=0.0, random_state=0)
        rng = np.random.default_rng(2)
        model.cross_weights_ = [rng.normal(size=4) for _ in range(2)]
        model.cross_biases_ = [rng.normal(size=4) for _ in range(2)]
        model.deep_ = DenseStack([4, 3], rng)
        model.output_weights_ = rng.normal(size=(4 + 3, 2))
        model.output_bias_ = np.zeros(2)

        parameters = [*model.cross_weights_, *model.cross_biases_,
                      model.output_weights_, model.output_bias_,
                      *model.deep_.parameters()]
        analytic = model._gradients(X, targets)

        def loss():
            return _cross_entropy(model._logits(X), targets)

        for parameter, grad in zip(parameters, analytic):
            numerical = _numerical_gradient(parameter, loss)
            np.testing.assert_allclose(grad, numerical, atol=TOLERANCE)


class TestDenseStack:
    def test_forward_shapes(self):
        rng = np.random.default_rng(0)
        stack = DenseStack([5, 4, 3], rng)
        activations = stack.forward(rng.normal(size=(7, 5)))
        assert [a.shape for a in activations] == [(7, 5), (7, 4), (7, 3)]

    def test_backward_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        stack = DenseStack([3, 4, 2], rng)
        X = rng.normal(size=(5, 3))
        _, targets = _tiny_batch(seed=4, n_samples=5, n_features=3)

        activations = stack.forward(X)
        probabilities = softmax(activations[-1])
        delta = (probabilities - targets) / X.shape[0]
        gradients = stack.backward(activations, delta)
        grads_w, grads_b = gradients[::2], gradients[1::2]

        def loss():
            return _cross_entropy(stack.forward(X)[-1], targets)

        assert len(gradients) == len(stack.parameters())
        for parameter, grad in zip(stack.weights, grads_w):
            numerical = _numerical_gradient(parameter, loss)
            np.testing.assert_allclose(grad, numerical, atol=TOLERANCE)
        for parameter, grad in zip(stack.biases, grads_b):
            numerical = _numerical_gradient(parameter, loss)
            np.testing.assert_allclose(grad, numerical, atol=TOLERANCE)

    def test_hidden_layers_are_relu_nonnegative(self):
        rng = np.random.default_rng(1)
        stack = DenseStack([4, 6, 2], rng)
        activations = stack.forward(rng.normal(size=(10, 4)))
        assert activations[1].min() >= 0.0


class TestAdamOptimizer:
    def test_moves_parameters_toward_lower_quadratic_loss(self):
        parameter = np.array([5.0, -3.0])
        optimizer = AdamOptimizer([parameter], learning_rate=0.1)
        for _ in range(500):
            optimizer.update([2.0 * parameter])  # gradient of ||p||^2
        assert np.all(np.abs(parameter) < 0.5)

    def test_step_size_bounded_by_learning_rate(self):
        parameter = np.array([1.0])
        optimizer = AdamOptimizer([parameter], learning_rate=0.01)
        optimizer.update([np.array([1000.0])])
        assert abs(parameter[0] - 1.0) <= 0.011


class TestIterateMinibatches:
    def test_covers_every_index_exactly_once(self):
        rng = np.random.default_rng(0)
        batches = list(iterate_minibatches(10, 3, rng))
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(10))
        assert max(len(b) for b in batches) == 3
