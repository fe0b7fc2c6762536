"""Base classifier API shared by all downstream models.

The downstream models play the role scikit-learn / XGBoost play in the
paper: a pipeline's quality is the validation accuracy of a classifier
trained on the preprocessed data.  Every classifier implements
``fit`` / ``predict`` / ``predict_proba`` / ``score`` and supports
``get_params`` / ``set_params`` / ``clone`` so HPO can reconfigure it.
"""

from __future__ import annotations

import copy
import math
from typing import Any

import numpy as np

from repro.models.metrics import accuracy_score
from repro.utils.validation import check_is_fitted, check_X_y


class Classifier:
    """Abstract base class for downstream classifiers.

    Subclasses implement ``_fit(X, y_encoded)`` (labels encoded to
    ``0..n_classes-1``) and ``_predict_proba(X)``; the base class handles
    label encoding/decoding, validation and cloning.
    """

    #: registry name of the model ("lr", "xgb", "mlp", ...)
    name: str = "classifier"

    def __init__(self, **params: Any) -> None:
        for key, value in params.items():
            setattr(self, key, value)

    # ------------------------------------------------------------------ API
    def fit(self, X, y) -> "Classifier":
        """Fit the classifier on features ``X`` and labels ``y``."""
        X, y = check_X_y(X, y)
        self.classes_, y_encoded = np.unique(y, return_inverse=True)
        self.n_features_in_ = X.shape[1]
        try:
            self._fit(X, y_encoded)
        except BaseException:
            # A refused fit leaves the classifier unfitted, so predicting
            # raises NotFittedError instead of using half-set parameters.
            del self.classes_, self.n_features_in_
            raise
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Return class-membership probabilities of shape ``(n, n_classes)``."""
        check_is_fitted(self, "classes_")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        return self._predict_proba(X)

    def predict(self, X) -> np.ndarray:
        """Return predicted labels (in the original label space)."""
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def score(self, X, y) -> float:
        """Accuracy of ``predict(X)`` against ``y``."""
        return accuracy_score(y, self.predict(X))

    # ----------------------------------------------------------- parameters
    def get_params(self) -> dict:
        """Return the constructor parameters of this classifier."""
        return {
            key: value
            for key, value in vars(self).items()
            if not key.endswith("_") and not key.startswith("_")
        }

    def set_params(self, **params: Any) -> "Classifier":
        """Set constructor parameters; unknown names raise ``ValidationError``."""
        from repro.exceptions import ValidationError

        known = self.get_params()
        for key, value in params.items():
            if key not in known:
                raise ValidationError(
                    f"{type(self).__name__} has no parameter {key!r}"
                )
            setattr(self, key, value)
        return self

    def clone(self) -> "Classifier":
        """Return an unfitted copy with identical constructor parameters."""
        return type(self)(**copy.deepcopy(self.get_params()))

    def is_fitted(self) -> bool:
        """Return whether :meth:`fit` has been called."""
        return hasattr(self, "classes_")

    # ------------------------------------------------------------ internals
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        raise NotImplementedError

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({params})"


def _by_columns(values: np.ndarray) -> bool:
    """Whether :func:`softmax` and :func:`row_sum` take ``values`` by columns.

    Only 2-D float arrays of 2-7 columns can: NumPy sums fewer than 8
    values one after another, starting from +0, so adding the columns in
    order gives the bytes of ``sum(axis=-1)``; from 8 values on, its
    pairwise summation splits a row into blocks and only the reduction
    gives its bytes.  (Integer and boolean sums take other dtypes.)  And
    it pays only from 32 rows per column after the first: a reduction over
    a short last axis costs about 0.1 us per row, each column a few ufunc
    calls, and the two broke even near that ratio for 2-7 columns (2-core
    x86 host, NumPy 2.4).
    """
    if values.ndim != 2 or values.dtype.kind != "f":
        return False
    rows, width = values.shape
    return 2 <= width <= 7 and rows >= 32 * (width - 1)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis.

    Where :func:`_by_columns` allows, it takes a running maximum over the
    columns, one ``exp`` per column, adds the columns in order and divides
    each column by that sum.  The bytes equal the reduction form's: ``max``
    is exact in any order, and the sum is sequential up to 7 columns (from
    8 values on, NumPy's pairwise sum splits a row into blocks, so wider
    logits keep the reduction).  Logits holding a NaN take the reduction
    form, because NumPy's ``max`` returns its own canonical NaN for a row
    that starts with a NaN, where a running maximum keeps that NaN's sign
    and payload.  The reduction form is also the oracle in
    ``tests/models/test_softmax.py``.
    """
    if _by_columns(logits):
        columns = [logits[:, j] for j in range(logits.shape[1])]
        peak = np.maximum(columns[0], columns[1])
        for column in columns[2:]:
            peak = np.maximum(peak, column)
        if not math.isnan(np.add.reduce(peak)):
            exps = [np.exp(column - peak) for column in columns]
            total = exps[0] + exps[1]
            for exp in exps[2:]:
                total += exp
            probabilities = np.empty(logits.shape, dtype=total.dtype)
            for j, exp in enumerate(exps):
                np.divide(exp, total, out=probabilities[:, j])
            return probabilities
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def row_sum(values: np.ndarray) -> np.ndarray:
    """``values.sum(axis=-1)``, byte for byte.

    Where :func:`_by_columns` allows, the columns are added in order; the
    final ``+ 0.0`` turns a row of negative zeros into +0, as the
    reduction's +0 start does.
    """
    if not _by_columns(values):
        return values.sum(axis=-1)
    total = values[:, 0] + values[:, 1]
    for j in range(2, values.shape[1]):
        total += values[:, j]
    total += 0.0
    return total


def one_hot(y: np.ndarray, n_classes: int) -> np.ndarray:
    """One-hot encode integer labels ``y`` into ``(n, n_classes)``."""
    encoded = np.zeros((y.shape[0], n_classes), dtype=np.float64)
    encoded[np.arange(y.shape[0]), y] = 1.0
    return encoded
