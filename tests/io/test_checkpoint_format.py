"""Session-checkpoint format: one version loads, everything else refuses.

Version 4 carries one loop-state shape for both schedules, records the
schedule only in the stored context's ``async_mode`` and keeps no
migrations.  A document of any other version, or one missing (or
mistyping) a section ``SearchSession.resume`` reads, or a state blob
whose entries are not what the checkpoint wrote, must raise
:class:`~repro.exceptions.ValidationError` naming what is wrong — never a
bare ``KeyError`` deep inside resume, never a silent misread.  So must a
checkpoint of algorithm state that will not pickle.
"""

import json
import pickle
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import AutoFPProblem
from repro.datasets.synthetic import distort_features, make_classification
from repro.exceptions import ValidationError
from repro.io.serialization import (
    SESSION_CHECKPOINT_KIND,
    SESSION_CHECKPOINT_VERSION,
    decode_state_blob,
    encode_state_blob,
    load_session_checkpoint,
    save_session_checkpoint,
)
from repro.search import SearchSession, make_search_algorithm

#: every section resume reads; dotted names are nested
SECTIONS = ("algorithm", "context", "problem", "session_id", "budget",
            "budget.max_trials", "budget.used", "trials", "state_blob")


def _problem():
    X, y = make_classification(n_samples=120, n_features=6, n_classes=2,
                               class_sep=2.0, random_state=3)
    X = distort_features(X, random_state=3)
    return AutoFPProblem.from_arrays(X, y, "lr", random_state=0)


def _trials(result):
    return [(t.pipeline.spec(), round(t.fidelity, 6), t.accuracy, t.iteration)
            for t in result.trials]


@pytest.fixture
def checkpoint(tmp_path):
    """A real checkpoint of a TPE run stopped after 4 of 10 trials."""
    path = tmp_path / "run.checkpoint"
    session = SearchSession(
        _problem(), make_search_algorithm("tpe", random_state=0),
        on_trial=lambda s, r: s.stop() if len(s.result) == 4 else None,
    )
    session.run(max_trials=10)
    session.checkpoint(path)
    return path


def _rewrite(path, change):
    document = json.loads(path.read_text(encoding="utf-8"))
    change(document)
    path.write_text(json.dumps(document), encoding="utf-8")


def _wrong_type(value):
    return 7 if isinstance(value, str) else "7"


def _replace_blob_entry(path, name, value):
    """Rewrite the checkpoint at ``path`` with ``value`` as blob entry ``name``."""
    def change(document):
        blob = decode_state_blob(document["state_blob"])
        blob[name] = value
        document["state_blob"] = encode_state_blob(blob)

    _rewrite(path, change)


class TestFormatVersion:
    def test_current_checkpoint_resumes_identically(self, checkpoint):
        assert load_session_checkpoint(checkpoint)["format_version"] \
            == SESSION_CHECKPOINT_VERSION == 4
        resumed = SearchSession.resume(checkpoint, problem=_problem())
        reference = make_search_algorithm("tpe", random_state=0).search(
            _problem(), max_trials=10)
        assert _trials(resumed.run()) == _trials(reference)

    @pytest.mark.parametrize("version", [0, 1, 2, 3])
    def test_older_versions_are_refused_by_name(self, checkpoint, version):
        def downgrade(document):
            if version == 0:  # v0 predates the version stamp
                del document["format_version"]
            else:
                document["format_version"] = version

        _rewrite(checkpoint, downgrade)
        with pytest.raises(ValidationError,
                           match=f"format version {version};"):
            load_session_checkpoint(checkpoint)
        with pytest.raises(ValidationError,
                           match=f"format version {version};"):
            SearchSession.resume(checkpoint, problem=_problem())

    def test_future_version_is_refused_with_guidance(self, checkpoint):
        _rewrite(checkpoint, lambda document: document.update(
            format_version=SESSION_CHECKPOINT_VERSION + 1))
        with pytest.raises(ValidationError, match="newer release"):
            load_session_checkpoint(checkpoint)

    def test_save_stamps_the_current_version(self, tmp_path):
        path = save_session_checkpoint({"context": {}},
                                       tmp_path / "fresh.checkpoint")
        raw = json.loads(path.read_text(encoding="utf-8"))
        assert raw["format_version"] == SESSION_CHECKPOINT_VERSION
        assert raw["kind"] == SESSION_CHECKPOINT_KIND


class TestMalformedSections:
    @pytest.mark.parametrize("damage", ["missing", "retyped"])
    @pytest.mark.parametrize("section", SECTIONS)
    def test_each_section_is_checked_by_name(self, checkpoint, section,
                                             damage):
        *parents, leaf = section.split(".")

        def break_section(document):
            for part in parents:
                document = document[part]
            if damage == "missing":
                del document[leaf]
            else:
                document[leaf] = _wrong_type(document[leaf])

        _rewrite(checkpoint, break_section)
        with pytest.raises(ValidationError, match=re.escape(f"'{section}'")):
            SearchSession.resume(checkpoint, problem=_problem())

    def test_a_boolean_is_not_a_trial_count(self, checkpoint):
        _rewrite(checkpoint, lambda document: document["budget"].update(
            max_trials=True))
        with pytest.raises(ValidationError, match="'budget.max_trials'"):
            load_session_checkpoint(checkpoint)

    def test_blob_without_loop_state_is_refused(self, checkpoint):
        _rewrite(checkpoint, lambda document: document.update(
            state_blob=encode_state_blob({"algorithm": None, "rng": None})))
        with pytest.raises(ValidationError, match="loop state"):
            SearchSession.resume(checkpoint, problem=_problem())

    @pytest.mark.parametrize("name, value", [
        ("algorithm", 1),
        ("algorithm", make_search_algorithm("rs", random_state=0)),
        ("rng", "x"),
        ("rng", np.random.RandomState(0)),
        ("loop", [1, 2]),
        ("loop", {}),
        ("loop", {"iteration": "4"}),
        ("loop", {"iteration": True}),
    ], ids=["algorithm-int", "algorithm-of-another-name", "rng-str",
            "rng-RandomState", "loop-list", "loop-without-iteration",
            "loop-str-iteration", "loop-bool-iteration"])
    def test_blob_entries_of_the_wrong_type_are_refused_by_name(
            self, checkpoint, name, value):
        _replace_blob_entry(checkpoint, name, value)
        with pytest.raises(ValidationError, match=f"'{name}' entry"):
            SearchSession.resume(checkpoint, problem=_problem())

    @pytest.mark.parametrize("schedule", ["sync", "async"])
    def test_the_stored_context_sets_the_restored_schedule(self, checkpoint,
                                                          schedule):
        _rewrite(checkpoint, lambda document: document["context"].update(
            async_mode=schedule == "async"))
        resumed = SearchSession.resume(checkpoint, problem=_problem())
        assert resumed.context.async_mode is (schedule == "async")

    def test_a_removed_backend_is_refused_by_name(self, checkpoint):
        _rewrite(checkpoint, lambda document: document["context"].update(
            backend="thread", n_jobs=2))
        with pytest.raises(ValidationError, match="backend"):
            SearchSession.resume(checkpoint, problem=_problem())

    def test_malformed_trial_is_refused_by_field(self, checkpoint):
        _rewrite(checkpoint, lambda document: document["trials"].__setitem__(
            0, {}))
        with pytest.raises(ValidationError, match="'pipeline'"):
            SearchSession.resume(checkpoint, problem=_problem())


#: bound on one refused resume; the refusals below take milliseconds
REFUSAL_SECONDS = 5.0


def _refused_within_bound(path):
    started = time.perf_counter()
    with pytest.raises(ValidationError):
        SearchSession.resume(path, problem=_problem())
    assert time.perf_counter() - started < REFUSAL_SECONDS


#: marks a loop-state entry the test deletes instead of retyping
_MISSING = object()

#: JSON-able values of a type no blob entry may hold; dict keys stay under
#: 9 characters, so no dict is loop state ("iteration") or a whole blob
#: ("algorithm")
WRONG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=20),
    st.lists(st.integers(), max_size=4),
    st.dictionaries(st.text(max_size=8), st.integers(), max_size=3),
)


class TestHostileStateBlob:
    """Any damaged blob gets a ``ValidationError`` quickly, never a hang.

    Text that is not base64 or not ASCII and truncated blobs were already
    refused by ``decode_state_blob``; these tests pin that.  Wrongly typed
    entries are refused by ``SearchSession.resume``.
    """

    @staticmethod
    def _document(checkpoint):
        return json.loads(checkpoint.read_text(encoding="utf-8"))

    def test_arbitrary_text(self, checkpoint):
        document = self._document(checkpoint)

        @settings(max_examples=60, deadline=None)
        @given(text=st.text(max_size=200))
        def check(text):
            checkpoint.write_text(json.dumps({**document, "state_blob": text}),
                                  encoding="utf-8")
            _refused_within_bound(checkpoint)

        check()

    def test_truncations_of_a_real_blob(self, checkpoint):
        document = self._document(checkpoint)
        blob = document["state_blob"]

        @settings(max_examples=60, deadline=None)
        @given(length=st.integers(0, len(blob) - 1))
        def check(length):
            checkpoint.write_text(
                json.dumps({**document, "state_blob": blob[:length]}),
                encoding="utf-8")
            _refused_within_bound(checkpoint)

        check()

    def test_pickles_of_wrongly_typed_values(self, checkpoint):
        document = self._document(checkpoint)
        entries = decode_state_blob(document["state_blob"])

        @settings(max_examples=60, deadline=None)
        @given(name=st.sampled_from([None, "algorithm", "rng", "loop"]),
               value=WRONG_VALUES)
        def check(name, value):
            if name is None:  # the blob itself is not a dict
                state = value
            elif name == "loop" and value is None:
                state = {**entries, name: []}  # None is a valid loop state
            else:
                state = {**entries, name: value}
            checkpoint.write_text(json.dumps(
                {**document, "state_blob": encode_state_blob(state)}),
                encoding="utf-8")
            _refused_within_bound(checkpoint)

        check()

    @pytest.mark.parametrize("entry, value", [
        ("queue", 1),
        ("queue", [1]),
        ("queue", [("task", 1.0)]),
        ("queue", _MISSING),
        ("deferred", "x"),
        ("deferred", ([], 0.5)),
        ("deferred", ("proposals", 0.5, 3)),
        ("deferred", ([], 0.5, "3")),
        ("stalled", None),
        ("stalled", True),
        ("initial_done", "yes"),
        ("initial_done", _MISSING),
    ], ids=["queue-int", "queue-of-ints", "queue-without-tasks",
            "queue-missing", "deferred-str", "deferred-pair",
            "deferred-str-proposals", "deferred-str-iteration",
            "stalled-none", "stalled-bool", "initial_done-str",
            "initial_done-missing"])
    def test_loop_entries_of_the_wrong_type_are_refused_by_name(
            self, checkpoint, entry, value):
        loop = dict(decode_state_blob(
            self._document(checkpoint)["state_blob"])["loop"])
        if value is _MISSING:
            del loop[entry]
        else:
            loop[entry] = value
        _replace_blob_entry(checkpoint, "loop", loop)
        started = time.perf_counter()
        with pytest.raises(ValidationError,
                           match=f"'loop' entry needs '{entry}'"):
            SearchSession.resume(checkpoint, problem=_problem())
        assert time.perf_counter() - started < REFUSAL_SECONDS


# ---------------------------------------------------- state that won't pickle
MODULE_LAMBDA = lambda value: value  # noqa: E731 - a lambda will not pickle


def _closure():
    def inner(value):
        return value

    return inner


class TestUnpicklableState:
    @pytest.mark.parametrize("hook, cause", [
        (MODULE_LAMBDA, pickle.PicklingError),
        (_closure(), (pickle.PicklingError, AttributeError)),
    ], ids=["module-lambda", "local-closure"])
    def test_checkpoint_names_the_algorithm_and_keeps_the_old_file(
            self, tmp_path, hook, cause):
        path = tmp_path / "run.checkpoint"
        algorithm = make_search_algorithm("rs", random_state=0)
        session = SearchSession(_problem(), algorithm)
        session.run(max_trials=3)
        session.checkpoint(path)
        before = path.read_bytes()

        algorithm.hook = hook
        with pytest.raises(ValidationError, match="'rs' search algorithm") \
                as excinfo:
            session.checkpoint(path)
        assert isinstance(excinfo.value.__cause__, cause)
        assert path.read_bytes() == before
