"""Persistent cross-run evaluation cache.

The paper's experimental grid (45 datasets x 3 models x 15 algorithms x 6
time limits) re-evaluates many identical pipelines: repeated searches on the
same split, Hyperband rungs across runs, and whole experiment grids re-pay
the Prep+Train cost of every pipeline on every invocation.
:class:`PersistentEvalCache` is the disk layer below the evaluator's
in-memory LRU: a sharded JSON-lines append-log under a cache root, keyed by
the evaluator *fingerprint* (dataset split + model + subsample seed) and the
existing ``(pipeline spec, fidelity)`` memoization key, so a second run with
the same ``cache_dir`` answers every repeated evaluation from disk.

Design notes:

* **Append-log, not a database.**  Every ``put`` appends one self-contained
  JSON line; a key is never rewritten in place.  Loading replays the log
  (last write wins), which makes concurrent appenders — e.g. process-pool
  grid workers sharing one cache root — safe: appends are single
  ``write()`` calls on ``O_APPEND`` descriptors, and readers tolerate
  interleaved or torn lines.
* **Sharded by key hash.**  Entries spread over ``n_shards`` files so
  concurrent writers rarely touch the same file and loads stay small.
  Shards are read lazily, on the first lookup that hashes into them.
* **Corruption-tolerant.**  A truncated or garbled line (crash mid-write,
  torn concurrent append, bytes that are not UTF-8 or JSON) is skipped,
  never fatal; everything before and after it still loads.
* **Fingerprint-scoped.**  All files live under
  ``<root>/<fingerprint>/``, so one cache root can serve many datasets,
  models and seeds without any risk of cross-contamination — a different
  split or model hashes to a different directory.
* **Bounded in-memory index.**  Loaded shards are indexed in memory (one
  small entry of four scalars per key, but the key *tokens* — pipeline
  spec reprs — dominate).  With ``max_index_entries`` set (the evaluator
  passes its own ``cache_size``), the index is an LRU of that many
  entries, so a long-lived cache root holding millions of evaluations
  cannot grow the parent process without limit.  Eviction never loses
  data: a lookup that misses the index while its shard has suffered
  evictions falls back to re-scanning that one shard file (counted as a
  ``rescan``), and the found entry re-enters the index.  ``None``
  (default) keeps the historical unbounded behaviour.
"""

from __future__ import annotations

import json
import os
import zlib
from collections import OrderedDict
from pathlib import Path

from repro.exceptions import ValidationError
from repro.telemetry.metrics import MetricSet, metric_property

#: cache-format version; bump to invalidate old on-disk layouts
FORMAT_VERSION = 1

_META_NAME = "meta.json"


def key_token(key: tuple) -> str:
    """Canonical string form of an evaluator cache key.

    ``repr`` of the ``(pipeline spec, rounded fidelity)`` tuple is
    deterministic across processes and Python runs (no hash salting, exact
    float reprs), which is what makes it usable as an on-disk key.
    """
    return repr(key)


def _shard_lines(path: Path) -> list[bytes]:
    """The undecoded lines of one append-log file (none if unreadable)."""
    try:
        return path.read_bytes().splitlines()
    except OSError:
        return []


def _replay_shard(path: Path, into: dict) -> tuple[int, int]:
    """Replay one append-log file into ``into`` (last write wins).

    Returns ``(raw_lines, skipped_lines)``: every non-blank line counts as
    raw, and a torn or garbled line (crash mid-write, concurrent append,
    bytes that are not UTF-8, nesting too deep to parse) is skipped rather
    than fatal: each line is decoded on its own.  The single replay pass
    serves shard loading, ``cache_stats`` and
    :meth:`PersistentEvalCache.compact`, so each file is read exactly once
    per operation.
    """
    raw_lines = 0
    skipped = 0
    for line in _shard_lines(path):
        if not line.strip():
            continue
        raw_lines += 1
        try:
            record = json.loads(line.decode("utf-8"))
            token = record["k"]
            entry = record["e"]
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError,
                TypeError, KeyError):
            skipped += 1
            continue
        if not isinstance(token, str) or not isinstance(entry, dict):
            skipped += 1
            continue
        into[token] = entry
    return raw_lines, skipped


class PersistentEvalCache:
    """Disk-backed evaluation cache shared across runs and processes.

    Parameters
    ----------
    root:
        Cache root directory (created on first write).  Safe to share
        between evaluators: entries are namespaced by ``fingerprint``.
    fingerprint:
        Hex digest identifying the evaluation context (data split, model,
        subsample seed) — see ``PipelineEvaluator.fingerprint()``.
    n_shards:
        Number of append-log files the entries are spread over.
    max_index_entries:
        Optional bound on the in-memory index (LRU over entries).  An
        index miss whose shard has evicted entries re-scans that shard
        file; ``None`` keeps every loaded entry in memory.
    """

    def __init__(self, root, *, fingerprint: str, n_shards: int = 16,
                 max_index_entries: int | None = None) -> None:
        if not fingerprint:
            raise ValidationError("fingerprint must be a non-empty string")
        n_shards = int(n_shards)
        if n_shards < 1:
            raise ValidationError(f"n_shards must be at least 1, got {n_shards}")
        if max_index_entries is not None:
            max_index_entries = int(max_index_entries)
            if max_index_entries < 1:
                raise ValidationError(
                    f"max_index_entries must be at least 1, "
                    f"got {max_index_entries}"
                )
        self.root = Path(root)
        self.fingerprint = str(fingerprint)
        self.n_shards = n_shards
        self.max_index_entries = max_index_entries
        self._dir = self.root / self.fingerprint
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._loaded_shards: set[int] = set()
        #: shards that have had index entries evicted since their last full
        #: read: an index miss there is inconclusive and triggers a rescan
        self._evicted_shards: set[int] = set()
        #: per-shard Bloom-style bitsets over every token known to be on
        #: disk (bounded mode only).  A lookup missing both the index and
        #: the filter is an authoritative miss — crucial because during an
        #: active search most lookups are for never-evaluated pipelines,
        #: and paying a shard-file rescan for each would make misses
        #: O(shard size) once any eviction happened.  False positives just
        #: cost one wasted rescan.
        self._shard_filters: dict[int, bytearray] = {}
        #: monotonic counters, telemetry-backed; the classic attribute
        #: spellings (``cache.hits`` etc.) remain as properties below
        self.metrics = MetricSet(self.COUNTER_NAMES)
        self._adopt_meta()

    #: the monotonic counters this cache maintains
    COUNTER_NAMES: tuple[str, ...] = (
        "hits", "misses", "writes", "skipped_lines", "index_evictions",
        "rescans",
    )

    hits = metric_property("hits")
    misses = metric_property("misses")
    writes = metric_property("writes")
    skipped_lines = metric_property("skipped_lines")
    index_evictions = metric_property("index_evictions")
    rescans = metric_property("rescans")

    # ------------------------------------------------------------------ API
    def get(self, key: tuple) -> dict | None:
        """Return the stored entry for ``key``, or ``None``."""
        token = key_token(key)
        entry = self._lookup(token)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: tuple, entry: dict) -> None:
        """Append ``entry`` under ``key`` (write-through to disk)."""
        self.put_many([(key, entry)])

    def put_many(self, items) -> None:
        """Append ``(key, entry)`` pairs, grouped by shard.

        The pairs become one ``write()`` per touched shard rather than one
        syscall per pair.
        """
        by_shard: dict[int, list[str]] = {}
        for key, entry in items:
            token = key_token(key)
            shard = self._shard_of(token)
            self._ensure_shard(shard)
            if token in self._entries:
                continue  # deterministic evaluations: re-writing is pure noise
            # Underscore-prefixed entry keys are reserved for in-memory
            # telemetry payloads (worker metric deltas, phase timings) and
            # must never reach the append-log: a cache populated by a traced
            # run has to stay byte-identical to one from an untraced run.
            if any(name.startswith("_") for name in entry):
                entry = {name: value for name, value in entry.items()
                         if not name.startswith("_")}
            # A bounded index may have evicted this token even though the
            # entry is on disk; the resulting duplicate append is harmless
            # (last write wins, and compaction removes it).
            self._remember(token, entry)
            line = json.dumps({"k": token, "e": entry}, separators=(",", ":"))
            by_shard.setdefault(shard, []).append(line)
            self.writes += 1
        if not by_shard:
            return
        self._ensure_layout()
        for shard, lines in by_shard.items():
            payload = "".join(line + "\n" for line in lines).encode("utf-8")
            # One os.write on an O_APPEND descriptor: the kernel seeks and
            # writes atomically, so concurrent appenders from other
            # processes cannot interleave inside the payload (a buffered
            # handle would split payloads over ~8KB into several writes).
            descriptor = os.open(self._shard_path(shard),
                                 os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                os.write(descriptor, payload)
            finally:
                os.close(descriptor)

    def __contains__(self, key: tuple) -> bool:
        return self._lookup(key_token(key)) is not None

    def __len__(self) -> int:
        """Number of indexed entries (the *index* size under a bound)."""
        self.load_all()
        return len(self._entries)

    def load_all(self) -> None:
        """Eagerly read every shard (lookups normally load shards lazily)."""
        for shard in range(self.n_shards):
            self._ensure_shard(shard)

    def refresh(self) -> None:
        """Re-read every previously loaded shard, picking up other writers.

        Lazy loading reads each shard once; entries appended afterwards by
        concurrent processes become visible only after a refresh.
        """
        shards = list(self._loaded_shards)
        self._loaded_shards.clear()
        for shard in shards:
            self._ensure_shard(shard)

    def info(self) -> dict:
        """Counters for cache reports and the warm-run assertions."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "entries": len(self._entries),
            "skipped_lines": self.skipped_lines,
            "index_evictions": self.index_evictions,
            "rescans": self.rescans,
            "max_index_entries": self.max_index_entries,
            "path": str(self._dir),
        }

    def compact(self) -> dict:
        """Rewrite every shard with only its live entries; return a summary.

        The append-log only grows: concurrent writers may append the same
        key more than once, crashes leave torn lines, and superseded lines
        are never removed in place.  Compaction replays the log (the same
        last-write-wins rule lookups use) and atomically rewrites each
        shard with exactly one line per live key, dropping duplicates and
        corrupt lines.  Safe on a cache no other process is appending to;
        a concurrent appender could have its fresh lines dropped by the
        rewrite.
        """
        from repro.io.serialization import atomic_write_text

        # One replay pass per shard yields both the raw line count and the
        # live entries; the replayed state replaces the in-memory index
        # (every put() writes through to disk first, so nothing is lost).
        live: dict[str, dict] = {}
        before_lines = 0
        skipped = 0
        for shard in range(self.n_shards):
            raw, bad = _replay_shard(self._shard_path(shard), live)
            before_lines += raw
            skipped += bad
        # Compaction needs every live entry at once to rewrite the files (a
        # transient spike under a bounded index, acceptable for a
        # maintenance operation); the index is re-trimmed after the rewrite.
        self._entries = OrderedDict(live)
        self._loaded_shards = set(range(self.n_shards))
        self._evicted_shards.clear()
        if self.max_index_entries is not None:
            self._shard_filters = {}
            for token in self._entries:
                self._filter_add(self._shard_of(token), token)
        by_shard: dict[int, list[str]] = {}
        for token, entry in self._entries.items():
            line = json.dumps({"k": token, "e": entry}, separators=(",", ":"))
            by_shard.setdefault(self._shard_of(token), []).append(line)
        self._ensure_layout()
        for shard in range(self.n_shards):
            path = self._shard_path(shard)
            lines = by_shard.get(shard)
            if lines:
                atomic_write_text(path, "".join(line + "\n" for line in lines))
            elif path.exists():
                path.unlink()
        live_entries = len(self._entries)
        self._trim()
        return {
            "path": str(self._dir),
            "lines_before": before_lines,
            "entries": live_entries,
            "lines_removed": before_lines - live_entries,
            "skipped_lines": skipped,
        }

    # ------------------------------------------------------------ internals
    def _adopt_meta(self) -> None:
        """Make an existing root's meta.json authoritative on reopen.

        The shard count is a *layout* property: opening a populated root
        with a different ``n_shards`` would hash lookups into the wrong
        files and silently miss every stored entry, so the stored value
        wins.  A newer on-disk format version is refused rather than
        misread.  A missing or unreadable meta.json (pre-existing empty
        dir, torn copy) falls back to the constructor arguments.
        """
        self._meta_adopted = False
        try:
            meta = json.loads((self._dir / _META_NAME).read_text("utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return  # missing or unreadable: first write re-creates it
        self._meta_adopted = True
        version = meta.get("format_version")
        if isinstance(version, int) and version > FORMAT_VERSION:
            raise ValidationError(
                f"cache at {self._dir} uses format version {version}; "
                f"this build reads up to {FORMAT_VERSION}"
            )
        stored_shards = meta.get("n_shards")
        if isinstance(stored_shards, int) and stored_shards >= 1:
            self.n_shards = stored_shards

    def _shard_of(self, token: str) -> int:
        return zlib.crc32(token.encode("utf-8")) % self.n_shards

    def _shard_path(self, shard: int) -> Path:
        return self._dir / f"shard-{shard:02d}.jsonl"

    def _ensure_layout(self) -> None:
        if self._meta_adopted:
            return
        self._dir.mkdir(parents=True, exist_ok=True)
        from repro.io.serialization import atomic_write_text

        atomic_write_text(self._dir / _META_NAME, json.dumps({
            "format_version": FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "n_shards": self.n_shards,
        }, indent=2))
        self._meta_adopted = True

    def _ensure_shard(self, shard: int) -> None:
        if shard in self._loaded_shards:
            return
        self._loaded_shards.add(shard)
        if self.max_index_entries is None:
            _, skipped = _replay_shard(self._shard_path(shard), self._entries)
        else:
            # Replay into a scratch dict first so the membership filter can
            # see every on-disk token of this shard before the LRU bound
            # possibly evicts some of them.
            scratch: dict[str, dict] = {}
            _, skipped = _replay_shard(self._shard_path(shard), scratch)
            for token in scratch:
                self._filter_add(shard, token)
            self._entries.update(scratch)
        self.skipped_lines += skipped
        self._trim()

    # ------------------------------------------------- bounded-index plumbing
    #: bits per shard filter (2^20 bits = 128 KiB); with two hash functions
    #: this stays useful up to a few hundred thousand tokens per shard
    _FILTER_BITS = 1 << 20

    def _filter_positions(self, token: str) -> tuple[int, int]:
        data = token.encode("utf-8")
        return (zlib.crc32(data) % self._FILTER_BITS,
                zlib.crc32(data, 0x9E3779B9) % self._FILTER_BITS)

    def _filter_add(self, shard: int, token: str) -> None:
        bits = self._shard_filters.get(shard)
        if bits is None:
            bits = self._shard_filters[shard] = bytearray(self._FILTER_BITS // 8)
        for position in self._filter_positions(token):
            bits[position >> 3] |= 1 << (position & 7)

    def _filter_contains(self, shard: int, token: str) -> bool:
        bits = self._shard_filters.get(shard)
        if bits is None:
            return False
        return all(bits[position >> 3] & (1 << (position & 7))
                   for position in self._filter_positions(token))

    def _lookup(self, token: str) -> dict | None:
        """Index lookup with the shard-rescan fallback for evicted entries."""
        shard = self._shard_of(token)
        self._ensure_shard(shard)
        entry = self._entries.get(token)
        if entry is not None:
            if self.max_index_entries is not None:
                self._entries.move_to_end(token)
            return entry
        if shard not in self._evicted_shards:
            return None  # the index saw the whole shard: authoritative miss
        if not self._filter_contains(shard, token):
            return None  # never written to this shard: no rescan needed
        entry = self._probe_shard(shard, token)
        if entry is not None:
            self._remember(token, entry)
        return entry

    def _remember(self, token: str, entry: dict) -> None:
        if self.max_index_entries is not None:
            self._filter_add(self._shard_of(token), token)
        self._entries[token] = entry
        self._entries.move_to_end(token)
        self._trim()

    def _trim(self) -> None:
        if self.max_index_entries is None:
            return
        while len(self._entries) > self.max_index_entries:
            evicted_token, _ = self._entries.popitem(last=False)
            self._evicted_shards.add(self._shard_of(evicted_token))
            self.index_evictions += 1

    def _probe_shard(self, shard: int, token: str) -> dict | None:
        """Re-scan one shard file for ``token`` (last valid write wins).

        The escape hatch that makes the bounded index lossless: the entry
        is still in the append-log even after the index evicted it.  Only
        the matching line is kept, so the probe costs I/O but no memory.
        """
        self.rescans += 1
        found = None
        needle = token.encode("utf-8")
        for line in _shard_lines(self._shard_path(shard)):
            if needle not in line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
                continue
            if isinstance(record, dict) and record.get("k") == token \
                    and isinstance(record.get("e"), dict):
                found = record["e"]
        return found

    def __repr__(self) -> str:
        return (
            f"PersistentEvalCache(root={str(self.root)!r}, "
            f"fingerprint={self.fingerprint[:12]!r}..., "
            f"entries={len(self._entries)})"
        )


def open_eval_cache(cache_dir, fingerprint: str, *,
                    max_index_entries: int | None = None,
                    ) -> PersistentEvalCache | None:
    """Build a cache for ``cache_dir`` (``None`` disables persistence).

    ``max_index_entries`` bounds the in-memory index; the evaluator passes
    its own ``cache_size`` so both memory layers obey one knob.
    """
    if cache_dir is None:
        return None
    return PersistentEvalCache(cache_dir, fingerprint=fingerprint,
                               max_index_entries=max_index_entries)


# ------------------------------------------------- cache-root maintenance
def list_fingerprints(root) -> list[str]:
    """Fingerprint directories under ``root``, most recently written first.

    Recency is the newest mtime of any file in the fingerprint directory —
    an appender touches its shard files, so this orders by last actual use.
    """
    root = Path(root)
    if not root.is_dir():
        return []
    stamped = []
    for child in root.iterdir():
        if not child.is_dir() or not (child / _META_NAME).exists():
            continue
        mtimes = [entry.stat().st_mtime for entry in child.iterdir()
                  if entry.is_file()]
        stamped.append((max(mtimes, default=child.stat().st_mtime), child.name))
    stamped.sort(reverse=True)
    return [name for _, name in stamped]


def cache_stats(root) -> list[dict]:
    """Per-fingerprint statistics of a cache root (``repro evalcache stats``).

    Each row reports the fingerprint, its shard and live-entry counts, the
    raw line count of the append-log (lines > entries means duplicates or
    torn lines that compaction would remove) and the on-disk byte size.
    Rows come back most recently used first, matching what ``prune`` keeps.
    """
    rows = []
    for fingerprint in list_fingerprints(root):
        cache = PersistentEvalCache(root, fingerprint=fingerprint)
        directory = cache._dir
        live: dict[str, dict] = {}
        lines = 0
        disk_bytes = 0
        n_shard_files = 0
        for path in sorted(directory.iterdir()):
            if not path.is_file():
                continue
            disk_bytes += path.stat().st_size
            if path.suffix == ".jsonl":
                n_shard_files += 1
                raw, _ = _replay_shard(path, live)
                lines += raw
        rows.append({
            "fingerprint": fingerprint,
            "n_shards": cache.n_shards,
            "shard_files": n_shard_files,
            "entries": len(live),
            "lines": lines,
            "bytes": disk_bytes,
        })
    return rows


def prune_cache_root(root, *, keep_fingerprints: int) -> dict:
    """Keep the ``keep_fingerprints`` most recently used fingerprints.

    Older fingerprint directories are deleted outright; the kept ones are
    compacted (duplicate and torn append-log lines rewritten away, see
    :meth:`PersistentEvalCache.compact`).  This is the maintenance story
    for long-lived cache roots, whose append-logs otherwise only grow.
    Returns a summary with the kept/removed fingerprints and the number of
    log lines compaction removed.  Do not run while another process is
    appending to the same root.
    """
    import shutil

    keep_fingerprints = int(keep_fingerprints)
    if keep_fingerprints < 0:
        raise ValidationError(
            f"keep_fingerprints must be >= 0, got {keep_fingerprints}"
        )
    fingerprints = list_fingerprints(root)
    kept = fingerprints[:keep_fingerprints]
    removed = fingerprints[keep_fingerprints:]
    for fingerprint in removed:
        shutil.rmtree(Path(root) / fingerprint)
    lines_removed = 0
    for fingerprint in kept:
        summary = PersistentEvalCache(root, fingerprint=fingerprint).compact()
        lines_removed += summary["lines_removed"]
    return {
        "root": str(root),
        "kept": kept,
        "removed": removed,
        "lines_removed": lines_removed,
    }
