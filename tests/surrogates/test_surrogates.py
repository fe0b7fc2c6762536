"""Tests for the surrogate models (RF regressor lives in tests/models)."""

import hashlib

import numpy as np
import pytest

from repro.core import SearchSpace
from repro.core.result import TrialRecord
from repro.surrogates import (
    CategoricalParzenEstimator,
    EnsembleRegressor,
    LSTMRegressor,
    MLPRegressor,
    TwoDensityModel,
)


def _linear_target(X, rng):
    weights = rng.normal(size=X.shape[1])
    return X @ weights * 0.1


class TestMLPRegressor:
    def test_learns_linear_function(self, rng):
        X = rng.normal(size=(120, 8))
        y = _linear_target(X, rng)
        model = MLPRegressor(hidden_size=32, epochs=200, random_state=0).fit(X, y)
        predictions = model.predict(X)
        residual = np.mean((predictions - y) ** 2)
        assert residual < np.var(y) * 0.5

    def test_prediction_shape(self, rng):
        X = rng.normal(size=(30, 5))
        y = rng.normal(size=30)
        model = MLPRegressor(epochs=10).fit(X, y)
        assert model.predict(X).shape == (30,)

    def test_deterministic_given_seed(self, rng):
        X = rng.normal(size=(40, 4))
        y = rng.normal(size=40)
        a = MLPRegressor(epochs=20, random_state=1).fit(X, y).predict(X)
        b = MLPRegressor(epochs=20, random_state=1).fit(X, y).predict(X)
        np.testing.assert_allclose(a, b)

    def test_ranks_candidates_sensibly(self, rng):
        """The surrogate should rank clearly-better points above clearly-worse ones."""
        X = rng.normal(size=(100, 3))
        y = X[:, 0]  # accuracy equals the first coordinate
        model = MLPRegressor(hidden_size=16, epochs=150, random_state=0).fit(X, y)
        low = model.predict(np.array([[-2.0, 0.0, 0.0]]))
        high = model.predict(np.array([[2.0, 0.0, 0.0]]))
        assert high[0] > low[0]


class TestLSTMRegressor:
    def _encoded_data(self, n, space, rng):
        pipelines = space.sample_pipelines(n, random_state=rng)
        X = space.encode_many(pipelines)
        # Target: longer pipelines score higher (an easily learnable signal).
        y = np.asarray([len(p) / space.max_length for p in pipelines])
        return X, y, pipelines

    def test_fit_and_predict_on_pipeline_encodings(self, rng):
        space = SearchSpace(max_length=3)
        X, y, _ = self._encoded_data(40, space, rng)
        model = LSTMRegressor(hidden_size=8, epochs=30, random_state=0)
        model.set_encoding_block(space.n_candidates + 1)
        model.fit(X, y)
        predictions = model.predict(X)
        assert predictions.shape == (40,)
        assert np.all(np.isfinite(predictions))

    def test_learns_length_signal(self, rng):
        space = SearchSpace(max_length=4)
        X, y, pipelines = self._encoded_data(60, space, rng)
        model = LSTMRegressor(hidden_size=12, epochs=60, random_state=0)
        model.set_encoding_block(space.n_candidates + 1)
        model.fit(X, y)
        predictions = model.predict(X)
        correlation = np.corrcoef(predictions, y)[0, 1]
        assert correlation > 0.3

    def test_block_inference_fallback(self, rng):
        space = SearchSpace(max_length=2)
        X, y, _ = self._encoded_data(10, space, rng)
        model = LSTMRegressor(hidden_size=4, epochs=5, random_state=0)
        model.fit(X, y)  # no explicit block size
        assert model.predict(X).shape == (10,)


class TestEnsembleRegressor:
    def test_mean_and_std_shapes(self, rng):
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        ensemble = EnsembleRegressor(
            lambda k: MLPRegressor(epochs=10, random_state=k), n_members=3
        ).fit(X, y)
        mean, std = ensemble.predict_with_std(X)
        assert mean.shape == (50,)
        assert std.shape == (50,)
        assert np.all(std >= 0)

    def test_ensemble_has_requested_members(self, rng):
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        ensemble = EnsembleRegressor(
            lambda k: MLPRegressor(epochs=5, random_state=k), n_members=4
        ).fit(X, y)
        assert len(ensemble.members_) == 4


class TestParzenEstimators:
    def test_update_shifts_probability_mass(self):
        space = SearchSpace(max_length=3)
        estimator = CategoricalParzenEstimator(space, prior_weight=0.5)
        favourite = space.single_step_pipelines()[0]
        before = estimator.log_probability(favourite)
        for _ in range(20):
            estimator.update(favourite)
        after = estimator.log_probability(favourite)
        assert after > before

    def test_sample_respects_space_bounds(self):
        space = SearchSpace(max_length=3)
        estimator = CategoricalParzenEstimator(space)
        rng = np.random.default_rng(0)
        for _ in range(30):
            pipeline = estimator.sample(rng)
            assert 1 <= len(pipeline) <= 3

    def test_two_density_model_needs_min_trials(self):
        space = SearchSpace(max_length=2)
        model = TwoDensityModel(space, min_trials=5)
        trials = [
            TrialRecord(space.sample_pipeline(random_state=i), accuracy=0.5)
            for i in range(3)
        ]
        model.refit(trials)
        assert not model.ready_

    def test_two_density_model_prefers_good_pipelines(self):
        """Candidates similar to high-accuracy trials score higher than bad ones."""
        space = SearchSpace(max_length=2)
        good = space.single_step_pipelines()[0]
        bad = space.single_step_pipelines()[1]
        trials = []
        for i in range(15):
            trials.append(TrialRecord(good, accuracy=0.9))
            trials.append(TrialRecord(bad, accuracy=0.1))
        model = TwoDensityModel(space, gamma=0.5, min_trials=5).refit(trials)
        assert model.ready_
        assert model.score(good) > model.score(bad)

    def test_suggest_returns_pipeline_in_space(self):
        space = SearchSpace(max_length=3)
        trials = [
            TrialRecord(space.sample_pipeline(random_state=i), accuracy=i / 20)
            for i in range(20)
        ]
        model = TwoDensityModel(space, min_trials=8).refit(trials)
        suggestion = model.suggest(n_candidates=10, random_state=0)
        assert 1 <= len(suggestion) <= 3


def _golden_surrogate_data(seed):
    """Encoded 3-step pipelines and a noisy length target, as PNAS sees them."""
    rng = np.random.default_rng(20241019 + seed)
    space = SearchSpace(max_length=3)
    pipelines = space.sample_pipelines(30, random_state=rng)
    X = space.encode_many(pipelines)
    y = np.asarray([len(p) / 3.0 for p in pipelines]) + rng.normal(scale=0.05,
                                                                   size=30)
    return space, X[:24], y[:24], X[24:]


# Digests of predict on held-out pipelines, seeds 0-2, at PNAS's own
# surrogate sizes and at a small one; taken before the six Adam-trained
# models shared one epoch loop, which must leave them bit-identical.
GOLDEN_MLP_REGRESSOR = (
    "3af6beb128ac2177b2ffe4cd2979c6ca06338a02843e73f73f61735e2ff86884")
GOLDEN_LSTM_REGRESSOR = (
    "984e5eb35cefd1c4a47546d92e7bf37202128845dfe1b12a71a7cddd2e0cd032")


def test_golden_mlp_regressor_predict_digest():
    digest = hashlib.sha256()
    for seed in range(3):
        _, X, y, X_test = _golden_surrogate_data(seed)
        for params in ({"hidden_size": 24, "epochs": 60}, {"hidden_size": 5,
                                                           "epochs": 7}):
            model = MLPRegressor(random_state=seed, **params).fit(X, y)
            digest.update(model.predict(X_test).tobytes())
    assert digest.hexdigest() == GOLDEN_MLP_REGRESSOR


def test_golden_lstm_regressor_predict_digest():
    digest = hashlib.sha256()
    for seed in range(3):
        space, X, y, X_test = _golden_surrogate_data(seed)
        for params in ({"hidden_size": 12, "epochs": 25}, {"hidden_size": 4,
                                                           "epochs": 3}):
            model = LSTMRegressor(random_state=seed, **params)
            model.set_encoding_block(space.n_candidates + 1)
            model.fit(X, y)
            digest.update(model.predict(X_test).tobytes())
    assert digest.hexdigest() == GOLDEN_LSTM_REGRESSOR
