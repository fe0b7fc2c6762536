"""Session-checkpoint format: one version loads, everything else refuses.

Version 3 carries one loop-state shape for both drivers and keeps no
migrations.  A document of any other version, or one missing (or
mistyping) a section ``SearchSession.resume`` reads, must raise
:class:`~repro.exceptions.ValidationError` naming what is wrong — never a
bare ``KeyError`` deep inside resume, never a silent misread.
"""

import json
import re

import pytest

from repro.core.problem import AutoFPProblem
from repro.datasets.synthetic import distort_features, make_classification
from repro.exceptions import ValidationError
from repro.io.serialization import (
    SESSION_CHECKPOINT_KIND,
    SESSION_CHECKPOINT_VERSION,
    encode_state_blob,
    load_session_checkpoint,
    save_session_checkpoint,
)
from repro.search import SearchSession, make_search_algorithm

#: every section resume reads; dotted names are nested
SECTIONS = ("context", "problem", "session_id", "driver", "budget",
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


class TestFormatVersion:
    def test_current_checkpoint_resumes_identically(self, checkpoint):
        assert load_session_checkpoint(checkpoint)["format_version"] \
            == SESSION_CHECKPOINT_VERSION == 3
        resumed = SearchSession.resume(checkpoint, problem=_problem())
        reference = make_search_algorithm("tpe", random_state=0).search(
            _problem(), max_trials=10)
        assert _trials(resumed.run()) == _trials(reference)

    @pytest.mark.parametrize("version", [0, 1, 2])
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
