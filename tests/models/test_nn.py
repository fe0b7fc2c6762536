"""The shared Adam trainer: its epoch loop and its checks of the settings."""

import math

import numpy as np
import pytest

from repro.datasets import make_classification
from repro.deep import (
    DeepCrossNetworkClassifier,
    DeepFMClassifier,
    FactorizationMachineClassifier,
)
from repro.exceptions import ValidationError
from repro.models.mlp import MLPClassifier
from repro.models.nn import train_adam
from repro.surrogates import LSTMRegressor, MLPRegressor

ADAM_CLASSIFIERS = [
    MLPClassifier,
    FactorizationMachineClassifier,
    DeepFMClassifier,
    DeepCrossNetworkClassifier,
]

#: (constructor keyword, bad value); each must be refused naming the keyword
BAD_SETTINGS = [
    ("batch_size", 0),
    ("batch_size", -3),
    ("learning_rate", math.nan),
    ("learning_rate", math.inf),
    ("learning_rate", 0.0),
    ("learning_rate", -0.01),
    ("max_iter", -1),
]


@pytest.mark.parametrize("setting,value", BAD_SETTINGS)
@pytest.mark.parametrize("model_class", ADAM_CLASSIFIERS)
def test_bad_training_setting_raises_validation_error(model_class, setting,
                                                      value):
    X, y = make_classification(n_samples=40, n_features=4, random_state=0)
    model = model_class(**{"max_iter": 2, setting: value})
    with pytest.raises(ValidationError, match=setting):
        model.fit(X, y)


@pytest.mark.parametrize("model_class", ADAM_CLASSIFIERS)
def test_zero_epochs_is_a_valid_setting(model_class):
    X, y = make_classification(n_samples=40, n_features=4, random_state=0)
    untrained = model_class(max_iter=0).fit(X, y).predict_proba(X)
    assert untrained.shape == (40, 2)
    assert np.all(np.isfinite(untrained))


@pytest.mark.parametrize("setting,value", [("epochs", -1),
                                           ("learning_rate", math.nan)])
@pytest.mark.parametrize("model_class", [MLPRegressor, LSTMRegressor])
def test_surrogates_refuse_bad_settings(model_class, setting, value):
    X = np.eye(4)
    with pytest.raises(ValidationError, match=setting):
        model_class(**{setting: value}).fit(X, np.arange(4.0))


class TestTrainAdam:
    def _batches(self, n_samples, batch_size, epochs):
        seen = []

        def gradients(batch):
            seen.append(batch.copy())
            return [np.ones(2)]

        train_adam([np.zeros(2)], gradients, n_samples=n_samples,
                   batch_size=batch_size, epochs=epochs, learning_rate=0.1,
                   rng=np.random.default_rng(0))
        return seen

    def test_one_permutation_per_epoch_in_batches_of_at_most_batch_size(self):
        seen = self._batches(n_samples=10, batch_size=4, epochs=3)
        assert [len(batch) for batch in seen] == [4, 4, 2] * 3
        rng = np.random.default_rng(0)
        for epoch in range(3):
            permutation = np.concatenate(seen[3 * epoch:3 * epoch + 3])
            np.testing.assert_array_equal(permutation, rng.permutation(10))

    def test_batch_size_above_the_row_count_is_one_full_batch(self):
        seen = self._batches(n_samples=5, batch_size=64, epochs=2)
        assert [sorted(batch.tolist()) for batch in seen] == [list(range(5))] * 2
