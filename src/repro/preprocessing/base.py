"""Base class and protocol for feature preprocessors.

A *feature preprocessor* (Definition 1 of the paper) is a mapping that takes
a dataset ``D`` of shape ``(n_samples, n_features)`` and produces a dataset
``D'`` of the same shape (or, for Binarizer-like preprocessors, the same
shape with discretised values).  All preprocessors follow the familiar
``fit`` / ``transform`` / ``fit_transform`` protocol so they compose into
pipelines.
"""

from __future__ import annotations

import copy
from typing import Any

import numpy as np

from repro.utils.validation import check_array


class Preprocessor:
    """Abstract base class for all feature preprocessors.

    Subclasses implement :meth:`_fit` and :meth:`_transform`; the public
    methods handle validation so subclasses only deal with clean float
    arrays.

    Attributes set by ``fit`` use a trailing underscore, mirroring the usual
    Python ML convention; :meth:`is_fitted` checks for their presence.
    """

    #: name used in pipeline string representations and registries
    name: str = "preprocessor"

    def __init__(self, **params: Any) -> None:
        for key, value in params.items():
            setattr(self, key, value)

    # ------------------------------------------------------------------ API
    def fit(self, X, y=None) -> "Preprocessor":
        """Learn the per-feature statistics needed to transform data."""
        X = check_array(X)
        self.n_features_in_ = X.shape[1]
        try:
            self._fit(X, y)
        except BaseException:
            # A refused fit leaves the preprocessor unfitted.
            del self.n_features_in_
            raise
        return self

    def transform(self, X) -> np.ndarray:
        """Apply the learned transformation to ``X`` and return a new array."""
        X = check_array(X)
        if not self.is_fitted():
            raise_not_fitted(self)
        if X.shape[1] != self.n_features_in_:
            from repro.exceptions import ValidationError

            raise ValidationError(
                f"{type(self).__name__} was fitted with {self.n_features_in_} "
                f"features but transform received {X.shape[1]}"
            )
        return self._transform(X)

    def fit_transform(self, X, y=None) -> np.ndarray:
        """Equivalent to ``fit(X, y).transform(X)``."""
        return self.fit(X, y).transform(X)

    def is_fitted(self) -> bool:
        """Return whether :meth:`fit` has been called."""
        return hasattr(self, "n_features_in_")

    # ----------------------------------------------------------- parameters
    def get_params(self) -> dict:
        """Return the constructor parameters of this preprocessor."""
        return {
            key: value
            for key, value in vars(self).items()
            if not key.endswith("_") and not key.startswith("_")
        }

    def set_params(self, **params: Any) -> "Preprocessor":
        """Set constructor parameters; returns ``self`` for chaining."""
        for key, value in params.items():
            if key not in self.get_params():
                from repro.exceptions import ValidationError

                raise ValidationError(
                    f"{type(self).__name__} has no parameter {key!r}"
                )
            setattr(self, key, value)
        return self

    def clone(self) -> "Preprocessor":
        """Return an unfitted copy of this preprocessor with the same parameters."""
        return type(self)(**copy.deepcopy(self.get_params()))

    # ------------------------------------------------------------ internals
    def _fit(self, X: np.ndarray, y=None) -> None:
        raise NotImplementedError

    def _transform(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -------------------------------------------------------------- dunders
    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({params})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Preprocessor):
            return NotImplemented
        return type(self) is type(other) and self.get_params() == other.get_params()

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.get_params().items()))))


def raise_not_fitted(obj) -> None:
    """Raise a :class:`repro.exceptions.NotFittedError` for ``obj``."""
    from repro.exceptions import NotFittedError

    raise NotFittedError(
        f"{type(obj).__name__} is not fitted yet. Call fit() before transform()."
    )
