"""Tests for the directory-backed result store."""

import pytest

from repro.core import Pipeline, SearchResult, TrialRecord
from repro.exceptions import ValidationError
from repro.io import ResultStore
from repro.preprocessing import MinMaxScaler, StandardScaler


def _result(algorithm: str, accuracy: float, baseline: float = 0.6) -> SearchResult:
    result = SearchResult(algorithm=algorithm, baseline_accuracy=baseline)
    result.add(TrialRecord(pipeline=Pipeline([StandardScaler()]), accuracy=accuracy))
    result.add(TrialRecord(pipeline=Pipeline([MinMaxScaler()]), accuracy=accuracy - 0.1))
    return result


class TestResultStore:
    def test_save_then_load_round_trips(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        key = store.key("heart", "lr", "pbt")
        store.save(key, _result("pbt", 0.9))
        restored = store.load(key)
        assert restored.algorithm == "pbt"
        assert restored.best_accuracy == 0.9

    def test_exists_and_len_reflect_saves(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.key("wine", "xgb", "rs")
        assert not store.exists(key)
        assert len(store) == 0
        store.save(key, _result("rs", 0.7))
        assert store.exists(key)
        assert len(store) == 1

    def test_keys_enumerates_all_saved_runs(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(store.key("heart", "lr", "pbt"), _result("pbt", 0.9))
        store.save(store.key("heart", "lr", "rs"), _result("rs", 0.85))
        store.save(store.key("wine", "mlp", "tpe", tag="seed1"), _result("tpe", 0.6))
        keys = store.keys()
        assert len(keys) == 3
        assert {k.dataset for k in keys} == {"heart", "wine"}
        assert any(k.tag == "seed1" for k in keys)

    def test_summary_rows_contain_improvement(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(store.key("heart", "lr", "pbt"), _result("pbt", 0.9, baseline=0.8))
        rows = store.summary_rows()
        assert len(rows) == 1
        assert rows[0]["best_accuracy"] == 0.9
        assert rows[0]["improvement_points"] == pytest.approx(10.0)

    def test_loading_missing_key_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValidationError):
            store.load(store.key("heart", "lr", "missing"))

    def test_invalid_key_components_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValidationError):
            store.key("heart/../../etc", "lr", "rs")
        with pytest.raises(ValidationError):
            store.key("", "lr", "rs")

    def test_tagged_and_untagged_runs_do_not_collide(self, tmp_path):
        store = ResultStore(tmp_path)
        plain = store.key("heart", "lr", "rs")
        tagged = store.key("heart", "lr", "rs", tag="rerun")
        store.save(plain, _result("rs", 0.7))
        store.save(tagged, _result("rs", 0.75))
        assert store.load(plain).best_accuracy == 0.7
        assert store.load(tagged).best_accuracy == 0.75

    def test_hyphenated_algorithm_round_trips(self, tmp_path):
        """Regression: keys() used to split the stem on the first '-', so a
        hyphenated algorithm came back as a wrong (algorithm, tag) pair."""
        store = ResultStore(tmp_path)
        store.save(store.key("heart", "lr", "random-search"),
                   _result("random-search", 0.8))
        [key] = store.keys()
        assert key.algorithm == "random-search"
        assert key.tag == ""
        assert store.load(key).algorithm == "random-search"

    def test_hyphenated_algorithm_and_tag_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        saved = store.key("heart", "lr", "random-search", tag="seed-1")
        store.save(saved, _result("random-search", 0.8))
        [key] = store.keys()
        assert key == saved
        assert key.algorithm == "random-search"
        assert key.tag == "seed-1"
        rows = store.summary_rows()
        assert rows[0]["algorithm"] == "random-search"
        assert rows[0]["tag"] == "seed-1"

    def test_double_hyphen_component_rejected(self, tmp_path):
        """'--' is the stem separator, so components may not contain it."""
        store = ResultStore(tmp_path)
        with pytest.raises(ValidationError):
            store.key("heart", "lr", "random--search")
        with pytest.raises(ValidationError):
            store.key("heart", "lr", "rs", tag="a--b")
        with pytest.raises(ValidationError):
            store.key("heart", "lr", "rs-")
        with pytest.raises(ValidationError):
            store.key("heart", "lr", "-rs")


class TestFormatMarkerAndLegacyShim:
    """The format_version marker, and stems the store never reinterprets."""

    def _write_legacy(self, root, dataset, model, stem, algorithm,
                      accuracy=0.7):
        """Write a pre-format-marker store file (no format_version key)."""
        import json

        from repro.io.serialization import search_result_to_dict

        document = search_result_to_dict(_result(algorithm, accuracy))
        del document["format_version"]
        path = root / dataset / model / f"{stem}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document), encoding="utf-8")
        return path

    def test_saved_documents_carry_format_version(self, tmp_path):
        import json

        from repro.io.serialization import RESULT_FORMAT_VERSION

        store = ResultStore(tmp_path)
        path = store.save(store.key("heart", "lr", "pbt"), _result("pbt", 0.9))
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["format_version"] == RESULT_FORMAT_VERSION

    def test_newer_format_version_is_refused(self, tmp_path):
        import json

        store = ResultStore(tmp_path)
        key = store.key("heart", "lr", "pbt")
        path = store.save(key, _result("pbt", 0.9))
        data = json.loads(path.read_text(encoding="utf-8"))
        data["format_version"] = 999
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValidationError):
            store.load(key)

    def test_legacy_hyphenated_algorithm_without_tag(self, tmp_path):
        """An unmarked random-search.json is an untagged hyphenated algorithm."""
        store = ResultStore(tmp_path)
        self._write_legacy(tmp_path, "heart", "lr", "random-search",
                           "random-search")
        [key] = store.keys()
        assert key.algorithm == "random-search"
        assert key.tag == ""
        assert store.load(key).algorithm == "random-search"

    def test_colliding_modern_file_never_shadowed_or_deleted(self, tmp_path):
        """heart/lr/tevo-h.json (modern, untagged, hyphenated algorithm)
        must not be served for — or deleted by — key ('tevo', tag='h')."""
        store = ResultStore(tmp_path)
        modern_key = store.key("heart", "lr", "tevo-h")
        modern_path = store.save(modern_key, _result("tevo-h", 0.9))
        colliding = store.key("heart", "lr", "tevo", tag="h")
        # The never-saved tagged key neither exists nor loads the modern run.
        assert not store.exists(colliding)
        with pytest.raises(ValidationError):
            store.load(colliding)
        # Saving the tagged key must not unlink the unrelated modern file.
        store.save(colliding, _result("tevo", 0.6))
        assert modern_path.exists()
        assert store.load(modern_key).best_accuracy == 0.9
        assert store.load(colliding).best_accuracy == 0.6
        assert {(k.algorithm, k.tag) for k in store.keys()} == \
            {("tevo-h", ""), ("tevo", "h")}

    def test_modern_hyphenated_stem_not_misread_as_legacy(self, tmp_path):
        """A marked document's stem is never split on single hyphens."""
        store = ResultStore(tmp_path)
        store.save(store.key("heart", "lr", "random-search"),
                   _result("random-search", 0.8))
        [key] = store.keys()
        assert key.algorithm == "random-search"
        assert key.tag == ""

    def test_unreadable_unmarked_file_falls_back_to_stem(self, tmp_path):
        path = tmp_path / "heart" / "lr" / "some-stem.json"
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        store = ResultStore(tmp_path)
        [key] = store.keys()
        assert key.algorithm == "some-stem"
        assert key.tag == ""
