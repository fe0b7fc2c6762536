"""PowerTransformer: Yeo-Johnson power transformation with automatic lambda.

The Yeo-Johnson transform (Equation 1 of the paper) maps each feature through
an exponential, monotonic transformation whose parameter ``lambda`` is chosen
per feature by maximising the profile log-likelihood of a normal model of the
transformed data — the same criterion scikit-learn uses.  The optimisation is
a bounded Brent search ported from scipy (see :func:`_minimize_bounded`), so
importing this module does not import scipy.

The search evaluates the likelihood about a dozen times per feature, so
:class:`_YeoJohnsonColumn` computes what does not depend on lambda once per
feature: the sign mask, the bases ``x + 1`` and ``1 - x``, their ``log1p``
branches (for lambda 0 and 2) and the Jacobian term
``sum(sign(x) * log1p(|x|))``, and it reuses one output buffer.  The
expressions that do depend on lambda keep the order of the per-call form
they replaced, which ``tests/preprocessing/test_power_quantile.py`` keeps as
the oracle, so lambdas and outputs are unchanged bit for bit.
"""

from __future__ import annotations

from functools import cached_property
from math import sqrt

import numpy as np

from repro.preprocessing.base import Preprocessor

_EPS = np.finfo(np.float64).eps
_LAMBDA_BOUNDS = (-4.0, 4.0)


class _YeoJohnsonColumn:
    """One feature ``x`` with its lambda-independent Yeo-Johnson terms.

    The logarithms and the Jacobian are computed on first use: transforming
    with a fitted lambda needs neither.
    """

    def __init__(self, x: np.ndarray) -> None:
        self.x = np.asarray(x, dtype=np.float64)
        self.positive = self.x >= 0
        self.negative = ~self.positive
        self.positive_base = self.x[self.positive] + 1.0
        self.negative_base = 1.0 - self.x[self.negative]
        self.buffer = np.empty_like(self.x)

    @cached_property
    def positive_log(self) -> np.ndarray:
        return np.log1p(self.x[self.positive])

    @cached_property
    def negative_log(self) -> np.ndarray:
        return -np.log1p(-self.x[self.negative])

    @cached_property
    def jacobian(self) -> np.floating:
        return np.sum(np.sign(self.x) * np.log1p(np.abs(self.x)))

    def transform(self, lmbda: float, out: np.ndarray | None = None) -> np.ndarray:
        """The transformed feature, written to ``out`` (a new array if None)."""
        if out is None:
            out = np.empty_like(self.x)
        if abs(lmbda) < _EPS:
            out[self.positive] = self.positive_log
        else:
            out[self.positive] = (np.power(self.positive_base, lmbda) - 1.0) / lmbda
        if abs(lmbda - 2.0) < _EPS:
            out[self.negative] = self.negative_log
        else:
            out[self.negative] = -(np.power(self.negative_base, 2.0 - lmbda)
                                   - 1.0) / (2.0 - lmbda)
        return out

    def log_likelihood(self, lmbda: float) -> float:
        """Profile log-likelihood of the transform with parameter ``lmbda``."""
        var = self.transform(lmbda, self.buffer).var()
        if not np.isfinite(var) or var <= 0:
            return -np.inf
        loglike = -0.5 * self.x.shape[0] * np.log(var)
        loglike += (lmbda - 1.0) * self.jacobian
        return float(loglike)

    def optimal_lambda(self, bounds: tuple[float, float] = _LAMBDA_BOUNDS) -> float:
        """The lambda in ``bounds`` maximising :meth:`log_likelihood`."""
        return _minimize_bounded(lambda lmbda: -self.log_likelihood(lmbda),
                                 bounds)


def yeo_johnson_transform(x: np.ndarray, lmbda: float) -> np.ndarray:
    """Apply the Yeo-Johnson transformation with parameter ``lmbda`` to ``x``.

    Implements Equation 1 of the paper:

    * ``x >= 0, lambda != 0``:  ``((x + 1) ** lambda - 1) / lambda``
    * ``x >= 0, lambda == 0``:  ``log(x + 1)``
    * ``x <  0, lambda != 2``:  ``-((1 - x) ** (2 - lambda) - 1) / (2 - lambda)``
    * ``x <  0, lambda == 2``:  ``-log(1 - x)``
    """
    return _YeoJohnsonColumn(x).transform(lmbda)


def yeo_johnson_log_likelihood(x: np.ndarray, lmbda: float) -> float:
    """Profile log-likelihood of the Yeo-Johnson transform for one feature."""
    return _YeoJohnsonColumn(x).log_likelihood(lmbda)


def _minimize_bounded(func, bounds: tuple[float, float]) -> float:
    """Minimise a scalar function on ``bounds`` by bounded Brent search.

    A port of ``scipy.optimize._optimize._minimize_scalar_bounded`` at its
    default tolerances, without its option checks, messages and result
    object.  The arithmetic and its order are unchanged, so the returned
    minimiser equals ``scipy.optimize.minimize_scalar(func, bounds=bounds,
    method="bounded").x``.
    """
    # Ported from SciPy: Copyright (c) 2001-2002 Enthought, Inc. 2003,
    # SciPy Developers.  All rights reserved.  Used under the BSD 3-Clause
    # licence, whose conditions and disclaimer ship with SciPy (LICENSE.txt).
    xatol, maxiter = 1e-5, 500
    sqrt_eps = sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - sqrt(5.0))
    a, b = bounds
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # Check for parabolic fit
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if ((np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf))
                    and (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:  # do a golden-section step
                golden = 1

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxiter:
            break
    return float(xf)


def optimal_lambda(x: np.ndarray,
                   bounds: tuple[float, float] = _LAMBDA_BOUNDS) -> float:
    """Find the lambda maximising the Yeo-Johnson profile log-likelihood."""
    return _YeoJohnsonColumn(x).optimal_lambda(bounds)


class PowerTransformer(Preprocessor):
    """Make feature distributions more normal-like via Yeo-Johnson.

    Each feature gets its own automatically-estimated ``lambda``.  When
    ``standardize`` is True (the scikit-learn default, and the parameter
    exposed in the paper's extended search space) the transformed features
    are additionally scaled to zero mean and unit variance.

    Parameters
    ----------
    standardize:
        Whether to apply zero-mean / unit-variance scaling after the power
        transformation.
    """

    name = "power_transformer"

    def __init__(self, standardize: bool = True) -> None:
        super().__init__(standardize=standardize)

    def _fit(self, X: np.ndarray, y=None) -> None:
        n_features = X.shape[1]
        self.lambdas_ = np.empty(n_features)
        means = np.empty(n_features)
        stds = np.empty(n_features)
        for j in range(n_features):
            col = X[:, j]
            if np.all(col == col[0]):
                # Constant feature: identity lambda and no scaling.
                self.lambdas_[j] = 1.0
                means[j] = yeo_johnson_transform(col, 1.0).mean()
                stds[j] = 1.0
                continue
            column = _YeoJohnsonColumn(col)
            self.lambdas_[j] = column.optimal_lambda()
            transformed = column.transform(self.lambdas_[j])
            means[j] = transformed.mean()
            std = transformed.std()
            stds[j] = std if std > 0 else 1.0
        self.means_ = means
        self.stds_ = stds

    def _transform(self, X: np.ndarray) -> np.ndarray:
        out = np.empty_like(X, dtype=np.float64)
        for j in range(X.shape[1]):
            out[:, j] = yeo_johnson_transform(X[:, j], self.lambdas_[j])
        if self.standardize:
            out = (out - self.means_) / self.stds_
        return out
