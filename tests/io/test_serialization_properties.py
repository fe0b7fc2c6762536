"""Property-based round-trip tests for the result serialization layer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Pipeline, SearchResult, SearchSpace, TrialRecord
from repro.exceptions import ValidationError
from repro.io import (
    pipeline_from_dict,
    pipeline_to_dict,
    search_result_from_dict,
    search_result_to_dict,
)

_SPACE = SearchSpace(max_length=5)

pipeline_indices = st.lists(
    st.integers(0, _SPACE.n_candidates - 1), min_size=0, max_size=5
)


def _pipeline_from(indices) -> Pipeline:
    if not indices:
        return Pipeline()
    return _SPACE.pipeline_from_indices(indices)


@given(indices=pipeline_indices)
@settings(max_examples=50, deadline=None)
def test_every_default_space_pipeline_round_trips(indices):
    pipeline = _pipeline_from(indices)
    restored = pipeline_from_dict(pipeline_to_dict(pipeline))
    assert restored.spec() == pipeline.spec()
    assert restored.describe() == pipeline.describe()


@given(
    trials=st.lists(
        st.tuples(
            pipeline_indices,
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
        ),
        min_size=1,
        max_size=8,
    ),
    baseline=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0,
                                            allow_nan=False)),
)
@settings(max_examples=30, deadline=None)
def test_search_results_round_trip_preserving_best_trial(trials, baseline):
    result = SearchResult(algorithm="property", baseline_accuracy=baseline)
    for indices, accuracy, fidelity in trials:
        result.add(TrialRecord(pipeline=_pipeline_from(indices),
                               accuracy=accuracy, fidelity=fidelity))
    restored = search_result_from_dict(search_result_to_dict(result))
    assert len(restored) == len(result)
    assert restored.baseline_accuracy == result.baseline_accuracy
    assert restored.best_trial().accuracy == result.best_trial().accuracy
    assert restored.best_pipeline.spec() == result.best_pipeline.spec()


#: any JSON value, NaN and infinities included (``json.loads`` accepts them)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


def _valid_document() -> dict:
    result = SearchResult(algorithm="property", baseline_accuracy=0.5)
    result.add(TrialRecord(pipeline=_SPACE.pipeline_from_indices([0, 3, 5]),
                           accuracy=0.75, fidelity=0.5, iteration=1))
    result.add(TrialRecord(pipeline=Pipeline(), accuracy=0.0,
                           failure_kind="timeout"))
    document = search_result_to_dict(result)
    # Older documents carry per-trial phase timings; readers ignore them.
    document["trials"][0]["phase_timings"] = {"pick": 0.1, "prep": 0.2}
    return document


def _slots(node):
    """Every (container, key) slot of a JSON tree, in document order."""
    keys = (list(node) if isinstance(node, dict)
            else range(len(node)) if isinstance(node, list) else [])
    for key in keys:
        yield node, key
        yield from _slots(node[key])


@st.composite
def malformed_documents(draw):
    """A valid result document with one slot deleted or retyped."""
    document = _valid_document()
    container, key = draw(st.sampled_from(list(_slots(document))))
    if isinstance(container, dict) and draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(json_values)
    return document


@given(document=st.one_of(malformed_documents(), json_values))
@settings(max_examples=300, deadline=None)
def test_malformed_documents_load_or_raise_validation_error(document):
    try:
        result = search_result_from_dict(document)
    except ValidationError:
        return
    assert isinstance(result, SearchResult)
