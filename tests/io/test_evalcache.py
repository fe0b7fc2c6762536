"""Tests for the persistent cross-run evaluation cache (repro.io.evalcache)."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.io.evalcache import PersistentEvalCache, key_token, open_eval_cache

FP = "a" * 64  # stand-in fingerprint


def _key(name: str, fidelity: float = 1.0) -> tuple:
    return (((name, ()),), round(fidelity, 6))


def _entry(accuracy: float) -> dict:
    return {"accuracy": accuracy, "prep_time": 0.01, "train_time": 0.02,
            "failed": False}


class TestPersistentEvalCache:
    def test_put_then_get_round_trips(self, tmp_path):
        cache = PersistentEvalCache(tmp_path, fingerprint=FP)
        cache.put(_key("standard_scaler"), _entry(0.9))
        assert cache.get(_key("standard_scaler")) == _entry(0.9)
        assert cache.get(_key("minmax_scaler")) is None

    def test_entries_survive_across_instances(self, tmp_path):
        first = PersistentEvalCache(tmp_path, fingerprint=FP)
        first.put(_key("a"), _entry(0.7))
        first.put(_key("b", 0.5), _entry(0.6))
        # A brand-new instance (a later run / another process) reads them back.
        second = PersistentEvalCache(tmp_path, fingerprint=FP)
        assert second.get(_key("a")) == _entry(0.7)
        assert second.get(_key("b", 0.5)) == _entry(0.6)
        assert second.hits == 2

    def test_fidelity_is_part_of_the_key(self, tmp_path):
        cache = PersistentEvalCache(tmp_path, fingerprint=FP)
        cache.put(_key("a", 1.0), _entry(0.9))
        assert cache.get(_key("a", 0.5)) is None

    def test_fingerprints_are_isolated(self, tmp_path):
        one = PersistentEvalCache(tmp_path, fingerprint="1" * 64)
        two = PersistentEvalCache(tmp_path, fingerprint="2" * 64)
        one.put(_key("a"), _entry(0.9))
        assert two.get(_key("a")) is None

    def test_hit_miss_write_counters(self, tmp_path):
        cache = PersistentEvalCache(tmp_path, fingerprint=FP)
        assert cache.get(_key("a")) is None
        cache.put(_key("a"), _entry(0.5))
        cache.get(_key("a"))
        info = cache.info()
        assert info["misses"] == 1
        assert info["hits"] == 1
        assert info["writes"] == 1
        assert info["entries"] == 1

    def test_put_many_skips_already_stored_keys(self, tmp_path):
        cache = PersistentEvalCache(tmp_path, fingerprint=FP)
        cache.put(_key("a"), _entry(0.5))
        cache.put_many([(_key("a"), _entry(0.5)), (_key("b"), _entry(0.6))])
        assert cache.writes == 2  # the duplicate "a" was not re-appended

    def test_truncated_line_is_skipped_not_fatal(self, tmp_path):
        cache = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=1)
        cache.put(_key("a"), _entry(0.5))
        cache.put(_key("b"), _entry(0.6))
        shard = tmp_path / FP / "shard-00.jsonl"
        text = shard.read_text(encoding="utf-8")
        # Simulate a crash mid-append: cut the last line in half.
        shard.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1],
                         encoding="utf-8")
        fresh = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=1)
        assert fresh.get(_key("a")) == _entry(0.5)
        assert fresh.get(_key("b")) is None
        assert fresh.skipped_lines == 1

    def test_garbage_lines_are_skipped(self, tmp_path):
        cache = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=1)
        cache.put(_key("a"), _entry(0.5))
        shard = tmp_path / FP / "shard-00.jsonl"
        with shard.open("a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps({"unrelated": 1}) + "\n")
            handle.write(json.dumps({"k": 5, "e": {}}) + "\n")  # wrong types
        fresh = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=1)
        fresh.load_all()
        assert fresh.get(_key("a")) == _entry(0.5)
        assert fresh.skipped_lines == 3

    @pytest.mark.parametrize("garbage", [b"\xff\xfe\x00garbage",
                                         b"[" * 100_000],
                             ids=["not-utf8", "too-deep"])
    def test_a_line_that_cannot_be_parsed_is_skipped(self, tmp_path,
                                                     garbage):
        cache = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=1)
        cache.put(_key("a"), _entry(0.5))
        with (tmp_path / FP / "shard-00.jsonl").open("ab") as handle:
            handle.write(garbage + b"\n")
        fresh = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=1)
        assert fresh.get(_key("a")) == _entry(0.5)
        assert fresh.skipped_lines == 1

    def test_last_write_wins_when_log_has_duplicates(self, tmp_path):
        cache = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=1)
        cache.put(_key("a"), _entry(0.5))
        shard = tmp_path / FP / "shard-00.jsonl"
        with shard.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"k": key_token(_key("a")), "e": _entry(0.8)}) + "\n")
        fresh = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=1)
        assert fresh.get(_key("a")) == _entry(0.8)

    def test_refresh_picks_up_concurrent_writers(self, tmp_path):
        reader = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=1)
        assert reader.get(_key("a")) is None  # loads the (empty) shard
        writer = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=1)
        writer.put(_key("a"), _entry(0.5))
        assert reader.get(_key("a")) is None  # lazy load happened already
        reader.refresh()
        assert reader.get(_key("a")) == _entry(0.5)

    def test_entries_spread_over_shards(self, tmp_path):
        cache = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=4)
        for index in range(40):
            cache.put(_key(f"prep_{index}"), _entry(0.1))
        shards = sorted(p.name for p in (tmp_path / FP).glob("shard-*.jsonl"))
        assert len(shards) > 1
        assert len(cache) == 40

    def test_meta_file_written_once(self, tmp_path):
        cache = PersistentEvalCache(tmp_path, fingerprint=FP)
        cache.put(_key("a"), _entry(0.5))
        meta = json.loads((tmp_path / FP / "meta.json").read_text(encoding="utf-8"))
        assert meta["fingerprint"] == FP
        assert meta["n_shards"] == cache.n_shards

    def test_reopen_adopts_the_stored_shard_count(self, tmp_path):
        """The shard count is a layout property: a different n_shards on
        reopen would hash lookups into the wrong files."""
        writer = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=16)
        for index in range(20):
            writer.put(_key(f"prep_{index}"), _entry(0.1))
        reader = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=4)
        assert reader.n_shards == 16  # meta.json wins over the argument
        for index in range(20):
            assert reader.get(_key(f"prep_{index}")) == _entry(0.1)

    def test_newer_format_version_is_refused(self, tmp_path):
        cache = PersistentEvalCache(tmp_path, fingerprint=FP)
        cache.put(_key("a"), _entry(0.5))
        meta_path = tmp_path / FP / "meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["format_version"] = 999
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ValidationError):
            PersistentEvalCache(tmp_path, fingerprint=FP)

    @pytest.mark.parametrize("garbage", [b"not json{", b"\xff\xfe\x00{"],
                             ids=["not-json", "not-utf8"])
    def test_corrupt_meta_falls_back_to_arguments(self, tmp_path, garbage):
        (tmp_path / FP).mkdir(parents=True)
        (tmp_path / FP / "meta.json").write_bytes(garbage)
        cache = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=4)
        assert cache.n_shards == 4
        cache.put(_key("a"), _entry(0.5))  # self-heals the meta file
        assert json.loads(
            (tmp_path / FP / "meta.json").read_text(encoding="utf-8"))["n_shards"] == 4

    def test_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            PersistentEvalCache(tmp_path, fingerprint="")
        with pytest.raises(ValidationError):
            PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=0)

    def test_compact_rewrites_duplicates_and_corruption_away(self, tmp_path):
        cache = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=1)
        cache.put(_key("a"), _entry(0.5))
        cache.put(_key("b"), _entry(0.6))
        shard = tmp_path / FP / "shard-00.jsonl"
        with shard.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"k": key_token(_key("a")), "e": _entry(0.8)}) + "\n")
            handle.write('{"k": "torn line\n')

        summary = PersistentEvalCache(tmp_path, fingerprint=FP).compact()
        assert summary["entries"] == 2
        assert summary["lines_before"] == 4
        assert summary["lines_removed"] == 2

        fresh = PersistentEvalCache(tmp_path, fingerprint=FP)
        fresh.load_all()
        assert fresh.skipped_lines == 0
        assert len(fresh) == 2
        assert fresh.get(_key("a")) == _entry(0.8)  # last write still wins
        assert fresh.get(_key("b")) == _entry(0.6)

    def test_cache_stats_and_prune_root(self, tmp_path):
        from repro.io.evalcache import cache_stats, prune_cache_root

        import os
        import time

        old = PersistentEvalCache(tmp_path, fingerprint="1" * 64)
        old.put(_key("a"), _entry(0.5))
        new = PersistentEvalCache(tmp_path, fingerprint="2" * 64)
        new.put(_key("a"), _entry(0.7))
        new.put(_key("b"), _entry(0.8))
        # Make the recency ordering unambiguous regardless of fs timestamp
        # granularity: age every file of the "old" fingerprint.
        past = time.time() - 60
        for path in (tmp_path / ("1" * 64)).iterdir():
            os.utime(path, (past, past))

        rows = cache_stats(tmp_path)
        assert [row["fingerprint"] for row in rows] == ["2" * 64, "1" * 64]
        assert rows[0]["entries"] == 2 and rows[1]["entries"] == 1
        assert all(row["bytes"] > 0 for row in rows)

        summary = prune_cache_root(tmp_path, keep_fingerprints=1)
        assert summary["kept"] == ["2" * 64]
        assert summary["removed"] == ["1" * 64]
        assert not (tmp_path / ("1" * 64)).exists()
        kept = PersistentEvalCache(tmp_path, fingerprint="2" * 64)
        assert kept.get(_key("b")) == _entry(0.8)

    def test_prune_rejects_negative_keep(self, tmp_path):
        from repro.io.evalcache import prune_cache_root

        with pytest.raises(ValidationError):
            prune_cache_root(tmp_path, keep_fingerprints=-1)

    def test_open_eval_cache_none_disables(self, tmp_path):
        assert open_eval_cache(None, FP) is None
        cache = open_eval_cache(tmp_path, FP)
        assert isinstance(cache, PersistentEvalCache)


class TestBoundedIndex:
    """The in-memory index obeys ``max_index_entries`` without losing data.

    Long-lived cache roots hold far more entries than a parent process
    should index; the bound turns the index into an LRU whose evictions
    fall back to re-scanning the entry's shard file — every stored entry
    stays retrievable, only its lookup cost changes.
    """

    def test_every_entry_retrievable_despite_a_tiny_index(self, tmp_path):
        writer = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=4)
        for i in range(60):
            writer.put(_key(f"step{i}"), _entry(i / 100.0))

        reader = PersistentEvalCache(tmp_path, fingerprint=FP,
                                     max_index_entries=8)
        for i in range(60):
            assert reader.get(_key(f"step{i}")) == _entry(i / 100.0), i
        assert len(reader._entries) <= 8
        assert reader.hits == 60
        assert reader.index_evictions > 0
        assert reader.rescans > 0

    def test_bound_applies_while_writing_too(self, tmp_path):
        cache = PersistentEvalCache(tmp_path, fingerprint=FP,
                                    max_index_entries=5)
        for i in range(40):
            cache.put(_key(f"step{i}"), _entry(i / 100.0))
        assert len(cache._entries) <= 5
        # Old and new entries both answer (old ones via shard rescans).
        assert cache.get(_key("step0")) == _entry(0.0)
        assert cache.get(_key("step39")) == _entry(0.39)

    def test_unevicted_shards_answer_misses_without_rescanning(self, tmp_path):
        cache = PersistentEvalCache(tmp_path, fingerprint=FP,
                                    max_index_entries=100)
        cache.put(_key("present"), _entry(0.5))
        assert cache.get(_key("absent")) is None
        assert cache.rescans == 0  # no eviction ever happened: miss is final

    def test_rescan_finds_the_last_write_and_tolerates_garbage(self, tmp_path):
        cache = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=1,
                                    max_index_entries=2)
        cache.put(_key("target"), _entry(0.1))
        # Supersede on disk (duplicate append) and interleave torn lines.
        shard = cache._shard_path(0)
        with shard.open("a", encoding="utf-8") as handle:
            handle.write("{\"k\": \"gar\n")
            handle.write(json.dumps(
                {"k": key_token(_key("target")), "e": _entry(0.8)}) + "\n")
        # Evict "target" from the index by touching other keys.
        cache.put(_key("filler1"), _entry(0.2))
        cache.put(_key("filler2"), _entry(0.3))
        cache.put(_key("filler3"), _entry(0.4))
        assert cache.get(_key("target")) == _entry(0.8)

    def test_compact_respects_the_bound_afterwards(self, tmp_path):
        cache = PersistentEvalCache(tmp_path, fingerprint=FP,
                                    max_index_entries=4)
        for i in range(20):
            cache.put(_key(f"step{i}"), _entry(i / 100.0))
        summary = cache.compact()
        assert summary["entries"] == 20  # compaction saw every live entry
        assert len(cache._entries) <= 4  # the index re-trimmed afterwards
        fresh = PersistentEvalCache(tmp_path, fingerprint=FP)
        fresh.load_all()
        assert len(fresh) == 20  # nothing was lost on disk

    def test_validation_and_info(self, tmp_path):
        with pytest.raises(ValidationError):
            PersistentEvalCache(tmp_path, fingerprint=FP, max_index_entries=0)
        cache = open_eval_cache(tmp_path, FP, max_index_entries=7)
        info = cache.info()
        assert info["max_index_entries"] == 7
        assert info["index_evictions"] == 0 and info["rescans"] == 0

    def test_evaluator_cache_size_bounds_the_disk_index(self, tmp_path):
        """The evaluator threads its own LRU bound down to the disk index."""
        import numpy as np

        from repro.core.evaluation import PipelineEvaluator
        from repro.models.linear import LogisticRegression

        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 4))
        y = (X[:, 0] > 0).astype(int)
        evaluator = PipelineEvaluator.from_dataset(
            X, y, LogisticRegression(max_iter=25), random_state=0,
            cache_dir=tmp_path, cache_size=3,
        )
        assert evaluator.disk_cache.max_index_entries == 3
        unbounded = PipelineEvaluator.from_dataset(
            X, y, LogisticRegression(max_iter=25), random_state=0,
            cache_dir=tmp_path,
        )
        assert unbounded.disk_cache.max_index_entries is None

    def test_unknown_keys_never_pay_a_rescan_even_after_evictions(self, tmp_path):
        """The per-shard membership filter keeps the common case — probing
        a pipeline that was never cached — O(1) under a bounded index."""
        cache = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=2,
                                    max_index_entries=3)
        for i in range(30):
            cache.put(_key(f"step{i}"), _entry(i / 100.0))
        assert cache.index_evictions > 0
        before = cache.rescans
        for i in range(50):
            assert cache.get(_key(f"never-seen-{i}")) is None
        assert cache.rescans == before  # authoritative misses, no file reads
        # Evicted-but-real keys still resolve (via a rescan).
        assert cache.get(_key("step0")) == _entry(0.0)
        assert cache.rescans > before


#: what a torn append, a foreign writer or a bad disk can leave in a shard:
#: any bytes at all, up to the newline that ends them
_garbage_lines = st.lists(st.binary(max_size=24).map(lambda data: data + b"\n"),
                          max_size=3)


@given(garbage=st.lists(_garbage_lines, min_size=4, max_size=4),
       bounded=st.booleans())
@settings(max_examples=150, deadline=None)
def test_replay_keeps_every_valid_line_whatever_bytes_surround_it(garbage,
                                                                  bounded):
    """Valid entries load, and ``get`` never raises, whatever byte lines
    are inserted between and after them; a bounded index also reaches
    evicted entries through a shard rescan."""
    keys = [_key(name) for name in ("a", "b", "c", "d")]
    with tempfile.TemporaryDirectory() as root:
        writer = PersistentEvalCache(root, fingerprint=FP, n_shards=1)
        for index, key in enumerate(keys):
            writer.put(key, _entry(index / 10))
        shard = Path(root) / FP / "shard-00.jsonl"
        lines = shard.read_bytes().splitlines(keepends=True)
        shard.write_bytes(b"".join(line + b"".join(extra)
                                   for line, extra in zip(lines, garbage)))
        reader = PersistentEvalCache(root, fingerprint=FP, n_shards=1,
                                     max_index_entries=1 if bounded else None)
        for index, key in enumerate(keys):
            assert reader.get(key) == _entry(index / 10)
        assert reader.get(_key("never-written")) is None
