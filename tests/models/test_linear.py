"""Tests for LogisticRegression and LinearDiscriminantAnalysis.

``LogisticRegression`` computes one softmax per gradient step, and with
2-7 classes its softmax and loss work column by column.  The loop below
recomputes the softmax at the top of every step and reduces over the
class axis, as the fit once did: fitted weights must equal the loop's bit
for bit, and fitted models must reproduce golden digests taken from the
loop.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import distort_features, make_classification
from repro.exceptions import NotFittedError, ValidationError
from repro.models import LinearDiscriminantAnalysis, LogisticRegression
from repro.models.base import one_hot
from repro.utils.random import check_random_state


# ------------------------------------------------------------------ oracle
def recompute_every_step_fit(model, X, y):
    """``(coef, intercept, rejected steps)`` of the recompute-every-step loop.

    ``y`` holds labels encoded to ``0..n_classes-1``, as ``_fit`` gets them.
    The softmax and the loss's row sum are the class-axis reductions, kept
    inline so the loop does not share the fit's column-wise code.
    """

    def softmax(logits):
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)

    def loss_at(X, targets, weights, alpha):
        probabilities = softmax(X @ weights)
        eps = 1e-12
        data_term = -np.mean(np.sum(targets * np.log(probabilities + eps), axis=1))
        reg_term = 0.5 * alpha * float(np.sum(weights * weights))
        return data_term + reg_term

    rng = check_random_state(model.random_state)
    n_samples, n_features = X.shape
    n_classes = int(y.max()) + 1
    if model.fit_intercept:
        X = np.hstack([X, np.ones((n_samples, 1))])
        n_features += 1
    targets = one_hot(y, n_classes)
    weights = rng.normal(scale=0.01, size=(n_features, n_classes))
    alpha = 1.0 / (model.C * n_samples)
    step = float(model.learning_rate)
    previous_loss = np.inf
    rejected = 0

    for _ in range(int(model.max_iter)):
        logits = X @ weights
        probabilities = softmax(logits)
        grad = X.T @ (probabilities - targets) / n_samples + alpha * weights
        max_grad = np.abs(grad).max()
        if max_grad < model.tol:
            break
        weights -= step * grad
        loss = loss_at(X, targets, weights, alpha)
        if loss > previous_loss:
            rejected += 1
            weights += step * grad
            step *= 0.5
            if step < 1e-6:
                break
        else:
            step *= 1.05
            previous_loss = loss

    if model.fit_intercept:
        return weights[:-1], weights[-1], rejected
    return weights, np.zeros(n_classes), rejected


class TestLogisticRegression:
    def test_learns_linearly_separable_data(self, small_binary_data):
        X, y = small_binary_data
        model = LogisticRegression(max_iter=200).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_multiclass_support(self, small_multiclass_data):
        X, y = small_multiclass_data
        model = LogisticRegression(max_iter=200).fit(X, y)
        assert model.score(X, y) > 0.8
        assert model.predict_proba(X).shape == (X.shape[0], 3)

    def test_probabilities_sum_to_one(self, small_multiclass_data):
        X, y = small_multiclass_data
        model = LogisticRegression(max_iter=80).fit(X, y)
        probs = model.predict_proba(X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)

    def test_predictions_use_original_label_space(self):
        X, y = make_classification(n_samples=80, n_features=4, random_state=0)
        shifted_labels = np.where(y == 0, 10, 42)
        model = LogisticRegression(max_iter=60).fit(X, shifted_labels)
        assert set(model.predict(X).tolist()).issubset({10, 42})

    def test_sensitive_to_feature_scale(self, distorted_data):
        """LR accuracy should improve when features are standardised.

        This is the core premise of the paper: linear models are sensitive to
        feature scaling.
        """
        from repro.preprocessing import StandardScaler

        X, y = distorted_data
        raw = LogisticRegression(max_iter=80).fit(X, y).score(X, y)
        scaled_X = StandardScaler().fit_transform(X)
        scaled = LogisticRegression(max_iter=80).fit(scaled_X, y).score(scaled_X, y)
        assert scaled > raw

    def test_regularisation_shrinks_weights(self, small_binary_data):
        X, y = small_binary_data
        strong = LogisticRegression(C=0.01, max_iter=200).fit(X, y)
        weak = LogisticRegression(C=100.0, max_iter=200).fit(X, y)
        assert np.linalg.norm(strong.coef_) < np.linalg.norm(weak.coef_)

    def test_predict_before_fit_raises(self, small_binary_data):
        X, _ = small_binary_data
        with pytest.raises(NotFittedError):
            LogisticRegression().predict(X)

    def test_clone_resets_fitted_state(self, small_binary_data):
        X, y = small_binary_data
        model = LogisticRegression(C=2.0).fit(X, y)
        clone = model.clone()
        assert not clone.is_fitted()
        assert clone.C == 2.0

    def test_set_params_unknown_raises(self):
        with pytest.raises(ValidationError):
            LogisticRegression().set_params(penalty="l1")

    @pytest.mark.parametrize("params", [
        {"C": 0}, {"C": -1.0}, {"C": float("nan")},
        {"learning_rate": 0.0}, {"learning_rate": -0.5},
        {"max_iter": -1},
    ])
    def test_invalid_hyperparameters_rejected(self, small_binary_data, params):
        X, y = small_binary_data
        for model in (LogisticRegression(**params),
                      LogisticRegression().set_params(**params),
                      LogisticRegression(**params).clone()):
            with pytest.raises(ValidationError, match=next(iter(params))):
                model.fit(X, y)

    def test_deterministic_given_seed(self, small_binary_data):
        X, y = small_binary_data
        a = LogisticRegression(random_state=7, max_iter=50).fit(X, y).predict_proba(X)
        b = LogisticRegression(random_state=7, max_iter=50).fit(X, y).predict_proba(X)
        np.testing.assert_allclose(a, b)


@st.composite
def lr_cases(draw):
    """Data of 1-45 features and 2-9 classes, scaled 1e-3 to 1e3.

    With up to 7 classes and 32 samples per class after the first the fit
    takes the column-wise softmax and loss; fewer samples, and 8 or 9
    classes, check that it keeps the reductions there.
    """
    n_features = draw(st.integers(1, 45))
    n_classes = draw(st.integers(2, 9))
    n_samples = draw(st.integers(n_classes, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n_samples, n_features))
    X *= 10.0 ** rng.uniform(-3, 3, size=n_features)
    y = np.concatenate([np.arange(n_classes),
                        rng.integers(0, n_classes, size=n_samples - n_classes)])
    params = {
        "C": draw(st.sampled_from([0.01, 1.0, 100.0])),
        "max_iter": draw(st.integers(0, 120)),
        "learning_rate": draw(st.sampled_from([0.5, 50.0])),
        "fit_intercept": draw(st.booleans()),
        "random_state": draw(st.integers(0, 3)),
    }
    return X, y, params


def test_one_softmax_per_step_matches_recomputing_loop():
    rejected = []

    @settings(max_examples=80, deadline=None)
    @given(case=lr_cases())
    def check(case):
        X, y, params = case
        model = LogisticRegression(**params).fit(X, y)
        coef, intercept, n_rejected = recompute_every_step_fit(model, X, y)
        assert model.coef_.tobytes() == coef.tobytes()
        assert model.intercept_.tobytes() == intercept.tobytes()
        rejected.append(n_rejected)

    check()
    # the undo path, where the kept probabilities must be dropped, ran
    assert any(rejected)


def _golden_data(n_classes):
    X, y = make_classification(n_samples=240, n_features=8, n_classes=n_classes,
                               random_state=20241017 + n_classes)
    X = distort_features(X, random_state=n_classes)
    return X[:180], y[:180], X[180:]


# Digests of predict_proba of the recompute-every-step loop's fits on the
# binary and the 4-class data, at the default and at an overshooting
# learning rate.
GOLDEN_LR = "8a8180df0c0d1e4618b605b6779890151df779e3c0e10d9f68e1403729873967"


def test_golden_predict_proba_digest():
    digest = hashlib.sha256()
    for n_classes in (2, 4):
        X, y, X_test = _golden_data(n_classes)
        for learning_rate in (0.5, 50.0):
            model = LogisticRegression(learning_rate=learning_rate).fit(X, y)
            digest.update(model.predict_proba(X_test).tobytes())
    assert digest.hexdigest() == GOLDEN_LR


class TestLDA:
    def test_fits_gaussian_classes(self, small_binary_data):
        X, y = small_binary_data
        model = LinearDiscriminantAnalysis().fit(X, y)
        assert model.score(X, y) > 0.85

    def test_multiclass(self, small_multiclass_data):
        X, y = small_multiclass_data
        model = LinearDiscriminantAnalysis().fit(X, y)
        assert model.score(X, y) > 0.7

    def test_handles_collinear_features(self, rng):
        base = rng.normal(size=(100, 2))
        X = np.hstack([base, base[:, :1]])  # duplicated column
        y = (base[:, 0] > 0).astype(int)
        model = LinearDiscriminantAnalysis().fit(X, y)
        assert model.score(X, y) > 0.8

    def test_probabilities_valid(self, small_binary_data):
        X, y = small_binary_data
        probs = LinearDiscriminantAnalysis().fit(X, y).predict_proba(X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
