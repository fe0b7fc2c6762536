"""A refused fit leaves the estimator unfitted.

``Classifier.fit`` and ``Preprocessor.fit`` set their fitted markers
(``classes_``, ``n_features_in_``) before calling ``_fit``.  When ``_fit``
raises they drop them again, so a later ``predict_proba`` or ``transform``
raises ``NotFittedError`` instead of using half-set parameters.
"""

import math

import pytest

from repro.datasets import make_classification
from repro.exceptions import NotFittedError, ValidationError
from repro.models.linear import LogisticRegression
from repro.models.mlp import MLPClassifier
from repro.preprocessing.base import Preprocessor


class RefusingScaler(Preprocessor):
    """Sets a statistic, then refuses its input."""

    name = "refusing_scaler"

    def __init__(self) -> None:
        super().__init__()

    def _fit(self, X, y=None):
        self.mean_ = X.mean(axis=0)
        raise ValidationError("synthetic refusal")

    def _transform(self, X):
        return X - self.mean_


@pytest.mark.parametrize("estimator, use", [
    (MLPClassifier(learning_rate=math.nan), "predict_proba"),
    (LogisticRegression(learning_rate=-1.0), "predict_proba"),
    (RefusingScaler(), "transform"),
], ids=["mlp", "lr", "preprocessor"])
def test_refused_fit_leaves_the_estimator_unfitted(estimator, use):
    X, y = make_classification(n_samples=40, n_features=3, n_classes=2,
                               random_state=0)
    with pytest.raises(ValidationError):
        estimator.fit(X, y)
    assert not estimator.is_fitted()
    with pytest.raises(NotFittedError):
        getattr(estimator, use)(X)
