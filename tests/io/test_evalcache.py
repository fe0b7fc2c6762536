"""Tests for the persistent cross-run evaluation cache (repro.io.evalcache)."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.io.evalcache import PersistentEvalCache, key_token

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

    def test_entries_spread_over_shards(self, tmp_path):
        cache = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=4)
        for index in range(40):
            cache.put(_key(f"prep_{index}"), _entry(0.1))
        shards = sorted(p.name for p in (tmp_path / FP).glob("shard-*.jsonl"))
        assert len(shards) > 1
        assert len(cache) == 40

    def test_a_loaded_shard_answers_misses_without_reading_it(self, tmp_path,
                                                              monkeypatch):
        """Probing a pipeline that was never cached — the common case —
        reads no file once its shard is indexed."""
        import repro.io.evalcache as evalcache

        cache = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=2)
        cache.load_all()
        for index in range(30):
            cache.put(_key(f"step{index}"), _entry(index / 100.0))
        reads = []
        real_shard_lines = evalcache._shard_lines
        monkeypatch.setattr(evalcache, "_shard_lines",
                            lambda path: reads.append(path)
                            or real_shard_lines(path))
        for index in range(50):
            assert cache.get(_key(f"never-seen-{index}")) is None
        assert cache.get(_key("step0")) == _entry(0.0)
        assert reads == []
        assert cache.misses == 50 and cache.hits == 1

    def test_compact_writes_every_entry_to_its_own_shard(self, tmp_path):
        """Lookups read only the shard a key hashes to, so compaction must
        put each live entry back into that shard."""
        cache = PersistentEvalCache(tmp_path, fingerprint=FP, n_shards=4)
        for index in range(20):
            cache.put(_key(f"step{index}"), _entry(index / 100.0))
        token = key_token(_key("step3"))
        with cache._shard_path(cache._shard_of(token)).open(
                "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"k": token, "e": _entry(0.9)}) + "\n")
        summary = cache.compact()
        assert summary["entries"] == 20
        assert summary["lines_removed"] == 1
        for shard in range(cache.n_shards):
            for line in cache._shard_path(shard).read_text(
                    encoding="utf-8").splitlines():
                assert cache._shard_of(json.loads(line)["k"]) == shard
        fresh = PersistentEvalCache(tmp_path, fingerprint=FP)
        for index in range(20):
            expected = _entry(0.9 if index == 3 else index / 100.0)
            assert fresh.get(_key(f"step{index}")) == expected
        assert fresh.misses == 0

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

    @pytest.mark.parametrize(
        "garbage", [b"not json{", b"\xff\xfe\x00{", b"[]", b"1", b'"x"',
                    b"null"],
        ids=["not-json", "not-utf8", "list", "number", "string", "null"])
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


#: what a torn append, a foreign writer or a bad disk can leave in a shard:
#: any bytes at all, up to the newline that ends them
_garbage_lines = st.lists(st.binary(max_size=24).map(lambda data: data + b"\n"),
                          max_size=3)


@given(garbage=st.lists(_garbage_lines, min_size=4, max_size=4))
@settings(max_examples=150, deadline=None)
def test_replay_keeps_every_valid_line_whatever_bytes_surround_it(garbage):
    """Valid entries load, and ``get`` never raises, whatever byte lines
    are inserted between and after them."""
    keys = [_key(name) for name in ("a", "b", "c", "d")]
    with tempfile.TemporaryDirectory() as root:
        writer = PersistentEvalCache(root, fingerprint=FP, n_shards=1)
        for index, key in enumerate(keys):
            writer.put(key, _entry(index / 10))
        shard = Path(root) / FP / "shard-00.jsonl"
        lines = shard.read_bytes().splitlines(keepends=True)
        shard.write_bytes(b"".join(line + b"".join(extra)
                                   for line, extra in zip(lines, garbage)))
        reader = PersistentEvalCache(root, fingerprint=FP, n_shards=1)
        for index, key in enumerate(keys):
            assert reader.get(key) == _entry(index / 10)
        assert reader.get(_key("never-written")) is None
