"""Tests for PowerTransformer (Yeo-Johnson) and QuantileTransformer.

Both fits are rewrites that must not change a bit.  The per-call
Yeo-Johnson functions below are the form the hoisted column terms in
``repro.preprocessing.power`` replaced, and ``np.quantile`` is the form
the sort-once landmarks in ``repro.preprocessing.quantile`` replaced; the
new code must return exactly what they return, compared with ``==`` or
byte for byte, and fitted transformers must reproduce golden digests
taken before the rewrite.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from repro.datasets.synthetic import distort_features, make_classification
from repro.exceptions import ValidationError
from repro.preprocessing import PowerTransformer, QuantileTransformer
from repro.preprocessing import quantile as quantile_module
from repro.preprocessing.power import (
    optimal_lambda,
    yeo_johnson_log_likelihood,
    yeo_johnson_transform,
)
from repro.preprocessing.quantile import _linear_quantiles

FIGURE1_COLUMN = np.array([-1.5, 1.0, 1.5, 2.5, 3.0, 4.0, 5.0]).reshape(-1, 1)


# ----------------------------------------------------------------- oracles
def per_call_transform(x, lmbda):
    """Yeo-Johnson as computed before its terms were hoisted per column."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    eps = np.finfo(np.float64).eps

    if abs(lmbda) < eps:
        out[pos] = np.log1p(x[pos])
    else:
        out[pos] = (np.power(x[pos] + 1.0, lmbda) - 1.0) / lmbda

    if abs(lmbda - 2.0) < eps:
        out[~pos] = -np.log1p(-x[~pos])
    else:
        out[~pos] = -(np.power(1.0 - x[~pos], 2.0 - lmbda) - 1.0) / (2.0 - lmbda)
    return out


def per_call_log_likelihood(x, lmbda):
    n = x.shape[0]
    transformed = per_call_transform(x, lmbda)
    var = transformed.var()
    if not np.isfinite(var) or var <= 0:
        return -np.inf
    loglike = -0.5 * n * np.log(var)
    loglike += (lmbda - 1.0) * np.sum(np.sign(x) * np.log1p(np.abs(x)))
    return float(loglike)


def quantile_landmarks(X, references):
    return np.quantile(X, references, axis=0)


class TestYeoJohnsonFunction:
    def test_identity_at_lambda_one(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(yeo_johnson_transform(x, 1.0), x, atol=1e-12)

    def test_lambda_zero_is_log1p_for_positive(self):
        x = np.array([0.0, 1.0, 4.0])
        np.testing.assert_allclose(yeo_johnson_transform(x, 0.0), np.log1p(x))

    def test_lambda_two_is_neg_log1p_for_negative(self):
        x = np.array([-1.0, -3.0])
        np.testing.assert_allclose(yeo_johnson_transform(x, 2.0), -np.log1p(-x))

    def test_paper_example_value(self):
        """Equation 1 example: Yeo-Johnson(-1.5) with lambda=1.22 ~= -1.34."""
        value = yeo_johnson_transform(np.array([-1.5]), 1.22)[0]
        assert value == pytest.approx(-1.34, abs=0.01)

    def test_monotonicity(self, rng):
        x = np.sort(rng.normal(size=50))
        for lmbda in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0):
            out = yeo_johnson_transform(x, lmbda)
            assert np.all(np.diff(out) >= -1e-12)

    def test_log_likelihood_finite_for_reasonable_data(self, rng):
        x = rng.normal(size=100)
        assert np.isfinite(yeo_johnson_log_likelihood(x, 0.7))

    def test_optimal_lambda_reduces_skew(self, rng):
        x = rng.exponential(size=400)  # strongly right-skewed
        lmbda = optimal_lambda(x)
        transformed = yeo_johnson_transform(x, lmbda)
        assert abs(stats.skew(transformed)) < abs(stats.skew(x))


def test_brent_port_matches_scipy_bounded_minimize_scalar():
    """The ported search returns the very lambda scipy's would.

    scipy searches the per-call likelihood, so the lambdas also match the
    fits made before the column terms were hoisted; at every lambda scipy
    visits, and at the ``log1p`` branches 0 and 2, the hoisted likelihood
    and transform must equal the per-call ones.
    """
    rng = np.random.default_rng(2024)
    columns = {
        "normal": lambda size: rng.normal(size=size),
        "exponential": lambda size: rng.exponential(scale=3.0, size=size),
        "integer": lambda size: rng.integers(-5, 20, size=size).astype(np.float64),
        "lognormal": lambda size: rng.lognormal(sigma=1.5, size=size) - 2.0,
        "signed_zeros": lambda size: rng.choice([-0.0, 0.0, -1.5, 2.0], size=size),
        "wide": lambda size: rng.normal(loc=2e6, scale=1e6, size=size),
    }

    def same(column, lmbda):
        assert yeo_johnson_transform(column, lmbda).tobytes() \
            == per_call_transform(column, lmbda).tobytes()
        expected = per_call_log_likelihood(column, lmbda)
        assert yeo_johnson_log_likelihood(column, lmbda) == expected
        return expected

    for index in range(1000):
        size = int(np.exp(rng.uniform(np.log(2), np.log(1001))))
        column = list(columns.values())[index % len(columns)](size)
        expected = optimize.minimize_scalar(
            lambda lmbda: -same(column, lmbda),
            bounds=(-4, 4), method="bounded").x
        assert optimal_lambda(column) == expected, (index, column)
        for lmbda in (0.0, 2.0):
            same(column, lmbda)


class TestPowerTransformer:
    def test_reduces_skewness_of_exponential_data(self, rng):
        X = rng.exponential(scale=2.0, size=(400, 3))
        out = PowerTransformer().fit_transform(X)
        for j in range(3):
            assert abs(stats.skew(out[:, j])) < abs(stats.skew(X[:, j]))

    def test_standardize_gives_zero_mean_unit_variance(self, rng):
        X = rng.exponential(size=(300, 2))
        out = PowerTransformer(standardize=True).fit_transform(X)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-6)

    def test_no_standardize_keeps_raw_transform(self, rng):
        X = rng.exponential(size=(100, 1)) + 5.0
        out = PowerTransformer(standardize=False).fit_transform(X)
        assert out.mean() != pytest.approx(0.0, abs=0.1)

    def test_constant_feature_handled(self):
        X = np.full((20, 2), 3.0)
        out = PowerTransformer().fit_transform(X)
        assert np.all(np.isfinite(out))

    def test_per_feature_lambdas_learned(self, rng):
        X = np.column_stack([rng.exponential(size=200), rng.normal(size=200)])
        transformer = PowerTransformer().fit(X)
        assert transformer.lambdas_.shape == (2,)
        assert transformer.lambdas_[0] != pytest.approx(transformer.lambdas_[1], abs=1e-3)

    def test_transform_is_monotone_per_feature(self, rng):
        X = rng.normal(size=(100, 1))
        transformer = PowerTransformer(standardize=False).fit(X)
        ordered = np.sort(X, axis=0)
        out = transformer.transform(ordered)
        assert np.all(np.diff(out[:, 0]) >= -1e-9)


class TestQuantileTransformer:
    def test_figure1_example(self):
        """Figure 1(g): ranks 0/6 .. 6/6 for the seven example values."""
        out = QuantileTransformer(n_quantiles=7).fit_transform(FIGURE1_COLUMN)
        expected = np.array([0, 1, 2, 3, 4, 5, 6]) / 6.0
        np.testing.assert_allclose(out.ravel(), expected, atol=1e-9)

    def test_uniform_output_range(self, rng):
        X = rng.normal(scale=40.0, size=(300, 4))
        out = QuantileTransformer(n_quantiles=100).fit_transform(X)
        assert out.min() >= 0.0
        assert out.max() <= 1.0

    def test_uniform_output_is_flat(self, rng):
        X = rng.exponential(size=(1000, 1))
        out = QuantileTransformer(n_quantiles=500).fit_transform(X)
        # Kolmogorov-Smirnov distance to uniform should be small.
        statistic, _ = stats.kstest(out.ravel(), "uniform")
        assert statistic < 0.05

    def test_normal_output_distribution(self, rng):
        X = rng.exponential(size=(800, 1))
        out = QuantileTransformer(n_quantiles=400,
                                  output_distribution="normal").fit_transform(X)
        assert abs(out.mean()) < 0.15
        assert abs(out.std() - 1.0) < 0.2

    def test_n_quantiles_clipped_to_sample_count(self, rng):
        X = rng.normal(size=(10, 2))
        transformer = QuantileTransformer(n_quantiles=1000).fit(X)
        assert transformer.n_quantiles_ == 10

    def test_monotone_per_feature(self, rng):
        X = rng.normal(size=(200, 1))
        transformer = QuantileTransformer(n_quantiles=50).fit(X)
        ordered = np.sort(X, axis=0)
        out = transformer.transform(ordered)
        assert np.all(np.diff(out[:, 0]) >= -1e-12)

    def test_invalid_output_distribution_rejected(self):
        with pytest.raises(ValidationError):
            QuantileTransformer(output_distribution="poisson")

    def test_too_few_quantiles_rejected(self):
        with pytest.raises(ValidationError):
            QuantileTransformer(n_quantiles=1)


# ------------------------------------------------------- quantile landmarks
@st.composite
def quantile_cases(draw):
    """Columns with ties, signed zeros and magnitudes 1e-300 to 1e300."""
    n_samples = draw(st.integers(1, 1300))
    n_features = draw(st.integers(1, 3))
    n_quantiles = draw(st.sampled_from([2, 10, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(n_features):
        kind = draw(st.sampled_from(["normal", "ties", "zeros", "magnitudes",
                                     "constant"]))
        if kind == "normal":
            column = rng.normal(size=n_samples)
        elif kind == "ties":
            column = rng.integers(-3, 4, size=n_samples).astype(np.float64)
        elif kind == "zeros":
            column = rng.choice([-0.0, 0.0, -1.0, 2.5], size=n_samples)
        elif kind == "magnitudes":
            column = (rng.choice([-1.0, 1.0], size=n_samples)
                      * 10.0 ** rng.uniform(-300, 300, size=n_samples))
        else:
            column = np.full(n_samples, rng.choice([-0.0, 0.0, 7.0]))
        columns.append(column)
    return np.column_stack(columns), n_quantiles, rng


@settings(max_examples=200, deadline=None)
@given(case=quantile_cases())
def test_sorted_landmarks_equal_np_quantile(case):
    X, n_quantiles, _ = case
    references = np.linspace(0.0, 1.0, min(n_quantiles, X.shape[0]))
    # By value: np.quantile's partition places -0.0 and +0.0 arbitrarily.
    assert np.array_equal(_linear_quantiles(X, references),
                          quantile_landmarks(X, references))


@settings(max_examples=100, deadline=None)
@given(case=quantile_cases())
def test_transform_bytes_equal_np_quantile_fit(case):
    X, n_quantiles, rng = case
    queries = np.vstack([
        X,
        X[rng.integers(0, X.shape[0], size=20)] * rng.choice([-2.0, 0.5, 1.0],
                                                            size=(20, 1)),
        np.zeros((1, X.shape[1])),
        np.full((1, X.shape[1]), -0.0),
    ])
    fast = QuantileTransformer(n_quantiles=n_quantiles).fit(X)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quantile_module, "_linear_quantiles", quantile_landmarks)
        slow = QuantileTransformer(n_quantiles=n_quantiles).fit(X)
    assert fast.transform(queries).tobytes() == slow.transform(queries).tobytes()


# ----------------------------------------------------------- golden fits
def _golden_data(n_classes):
    X, _ = make_classification(n_samples=240, n_features=6, n_classes=n_classes,
                               random_state=20241017 + n_classes)
    X = distort_features(X, random_state=n_classes)
    X[:, 1] = np.round(X[:, 1], 1)
    X[:40, 2] = 0.0
    return X[:180], X[180:]


def _digest(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


# Digests of the transforms fitted by np.quantile and the per-call
# Yeo-Johnson likelihood, on the binary and the 4-class data.
GOLDEN = {
    "quantile": "111494ccc1b473800c34bd37f444d91bcb69493be7bf0a28bc43ea4e8035ecf0",
    "power": "4f63e058ea03cf1a87e1e272c5418179b5071c91b5fdaeb524c7ef2f63059ffc",
}


def test_golden_transform_digests():
    quantile, power = [], []
    for n_classes in (2, 4):
        X, X_test = _golden_data(n_classes)
        for n_quantiles in (50, 1000):
            quantile.append(QuantileTransformer(n_quantiles=n_quantiles)
                            .fit(X).transform(X_test))
        for standardize in (True, False):
            power.append(PowerTransformer(standardize=standardize)
                         .fit(X).transform(X_test))
    assert _digest(*quantile) == GOLDEN["quantile"]
    assert _digest(*power) == GOLDEN["power"]
