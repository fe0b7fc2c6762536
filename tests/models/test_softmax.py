"""``softmax`` and ``row_sum`` against the class-axis reductions they replace.

For 2-D input with 2-7 columns and 32 rows per column after the first
both work column by column; everything else, and logits holding a NaN,
takes the reductions.  Either way the bytes must equal the reduction forms
below, which are kept inline as the oracle.  ``GaussianNB``, ENAS and REINFORCE once kept their own copies of
softmax; they call the shared one now, with the bytes they had.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.models.neighbors
import repro.search.enas
import repro.search.reinforce
from repro.core.problem import AutoFPProblem
from repro.core.search_space import SearchSpace
from repro.datasets.synthetic import distort_features, make_classification
from repro.models import GaussianNB, LogisticRegression
from repro.models.base import row_sum, softmax
from repro.search import ENAS, Reinforce


def reduction_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def vector_softmax(logits):
    """The 1-D copy ENAS and REINFORCE kept."""
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


#: values planted in some inputs; ``-np.nan`` is a NaN with its sign bit set
SPECIALS = np.array([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0])


@st.composite
def arrays(draw, rows=(1, 3000), widths=(1, 12)):
    """2-D arrays with per-column scales 1e-8 to 1e8, some with specials."""
    n_rows = draw(st.integers(*rows))
    width = draw(st.integers(*widths))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(n_rows, width))
    values *= 10.0 ** rng.uniform(-8, 8, size=width)
    share = draw(st.sampled_from([0.0, 0.0, 0.01, 0.3, 0.9]))
    planted = rng.random(values.shape) < share
    values[planted] = rng.choice(SPECIALS, size=int(planted.sum()))
    return values


@settings(max_examples=300, deadline=None)
@given(logits=arrays())
def test_softmax_matches_the_reduction_form(logits):
    with np.errstate(all="ignore"):
        assert softmax(logits).tobytes() == reduction_softmax(logits).tobytes()


@settings(max_examples=300, deadline=None)
@given(values=arrays())
def test_row_sum_matches_the_reduction(values):
    with np.errstate(all="ignore"):
        assert row_sum(values).tobytes() == values.sum(axis=-1).tobytes()


@settings(max_examples=200, deadline=None)
@given(values=arrays(rows=(1, 1), widths=(1, 59)))
def test_vectors_keep_the_bytes_of_the_one_dimensional_copy(values):
    vector = values[0]
    with np.errstate(all="ignore"):
        assert softmax(vector).tobytes() == vector_softmax(vector).tobytes()


@pytest.mark.parametrize("shape", [(0, 3), (2, 3, 4)])
def test_other_shapes_take_the_reduction_form(shape):
    logits = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
    result = softmax(logits)
    assert result.shape == shape
    assert result.tobytes() == reduction_softmax(logits).tobytes()


@pytest.mark.parametrize("dtype", [np.int64, np.bool_])
def test_row_sum_of_integers_and_booleans_is_the_reduction(dtype):
    values = (np.arange(600).reshape(200, 3) % 5).astype(dtype)
    result = row_sum(values)
    expected = values.sum(axis=-1)
    assert result.dtype == expected.dtype
    assert result.tobytes() == expected.tobytes()


@pytest.mark.parametrize("width", [2, 5, 7])
def test_float32_logits_stay_float32(width):
    logits = np.random.default_rng(width).normal(size=(200, width)).astype(np.float32)
    result = softmax(logits)
    assert result.dtype == np.float32
    assert result.tobytes() == reduction_softmax(logits).tobytes()


# ------------------------------------------------------------ one softmax
def _search_problem():
    X, y = make_classification(n_samples=140, n_features=8, n_classes=2,
                               class_sep=2.0, random_state=2)
    X = distort_features(X, random_state=2)
    return AutoFPProblem.from_arrays(
        X, y, LogisticRegression(max_iter=60), space=SearchSpace(max_length=3),
        random_state=0)


# Digest of 12-trial ENAS and REINFORCE records and of GaussianNB's
# predict_proba with 2, 4 and 9 classes, taken while each kept its own
# softmax.
GOLDEN_ONE_SOFTMAX = "8f741c135893012f98e128b838a9fbd87e440376a28fb574d0543de5fb17eb10"


def test_former_copies_keep_their_bytes():
    digest = hashlib.sha256()
    for algorithm in (ENAS(random_state=0), Reinforce(random_state=0)):
        result = algorithm.search(_search_problem(), max_trials=12)
        for trial in result.trials:
            digest.update(repr((trial.pipeline.spec(), trial.fidelity,
                                trial.accuracy, trial.iteration)).encode())
    for n_classes in (2, 4, 9):
        X, y = make_classification(n_samples=300, n_features=6,
                                   n_classes=n_classes, random_state=n_classes)
        model = GaussianNB().fit(X[:150], y[:150])
        digest.update(model.predict_proba(X[150:]).tobytes())
    assert digest.hexdigest() == GOLDEN_ONE_SOFTMAX


@pytest.mark.parametrize("module, run", [
    (repro.search.enas,
     lambda: ENAS(random_state=0).search(_search_problem(), max_trials=2)),
    (repro.search.reinforce,
     lambda: Reinforce(random_state=0).search(_search_problem(), max_trials=2)),
    (repro.models.neighbors,
     lambda: GaussianNB().fit(np.eye(4), [0, 1, 0, 1]).predict_proba(np.eye(4))),
])
def test_former_copies_call_the_shared_softmax(monkeypatch, module, run):
    calls = []

    def counting(logits):
        calls.append(np.shape(logits))
        return softmax(logits)

    monkeypatch.setattr(module, "softmax", counting)
    run()
    assert calls
