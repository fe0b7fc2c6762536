"""Input validation helpers shared by preprocessors, models and searchers."""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotFittedError, ValidationError


def check_array(X, *, allow_nan: bool = False, min_rows: int = 1,
                dtype=np.float64, name: str = "X") -> np.ndarray:
    """Validate and convert ``X`` to a 2-D float array.

    Parameters
    ----------
    X:
        Array-like of shape ``(n_samples, n_features)``.
    allow_nan:
        Whether NaN values are permitted.
    min_rows:
        Minimum number of rows required.
    dtype:
        Target dtype for the returned array.
    name:
        Name used in error messages.
    """
    arr = np.asarray(X, dtype=dtype)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] < min_rows:
        raise ValidationError(
            f"{name} must have at least {min_rows} row(s), got {arr.shape[0]}"
        )
    if arr.shape[1] < 1:
        raise ValidationError(f"{name} must have at least one column")
    if not allow_nan and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    return arr


def column_or_1d(y, *, name: str = "y") -> np.ndarray:
    """Validate that ``y`` is a 1-D label vector and return it as an array."""
    arr = np.asarray(y)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr.ravel()
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional, got ndim={arr.ndim}")
    return arr


def check_X_y(X, y, *, allow_nan: bool = False, y_numeric: bool = False):
    """Validate a feature matrix and its label vector jointly.

    With ``y_numeric`` (regression targets) ``y`` is converted to float64
    and must be finite.
    """
    X = check_array(X, allow_nan=allow_nan)
    y = column_or_1d(y)
    if X.shape[0] != y.shape[0]:
        raise ValidationError(
            f"X and y have inconsistent lengths: {X.shape[0]} != {y.shape[0]}"
        )
    if y_numeric:
        y = y.astype(np.float64, copy=False)
        if not np.all(np.isfinite(y)):
            raise ValidationError("y contains NaN or infinite values")
    return X, y


def check_is_fitted(estimator, attributes) -> None:
    """Raise :class:`NotFittedError` unless all ``attributes`` exist on ``estimator``.

    Parameters
    ----------
    estimator:
        Any object following the fit/transform or fit/predict protocol.
    attributes:
        A single attribute name or an iterable of names that ``fit`` sets.
    """
    if isinstance(attributes, str):
        attributes = [attributes]
    missing = [a for a in attributes if not hasattr(estimator, a)]
    if missing:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; "
            f"missing attributes: {missing}. Call fit() first."
        )
