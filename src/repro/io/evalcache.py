"""Persistent cross-run evaluation cache.

The paper's experimental grid (45 datasets x 3 models x 15 algorithms x 6
time limits) re-evaluates many identical pipelines: repeated searches on the
same split, Hyperband rungs across runs, and whole experiment grids re-pay
the Prep+Train cost of every pipeline on every invocation.
:class:`PersistentEvalCache` is the disk layer below the evaluator's
in-memory memo: a sharded JSON-lines append-log under a cache root, keyed by
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
* **Unbounded in-memory index.**  Every entry of a loaded shard stays
  indexed for the instance's lifetime, so a hit never reads a file.
  Over 20,000 random ``SearchSpace(max_length=7)`` entries the index
  held ~0.86 KB of the process per entry (``tracemalloc``; the key token,
  a pipeline spec repr, dominates) and the append-log ~430 B per entry
  on disk.  ``repro evalcache prune --keep-fingerprints N`` bounds a
  cache root: it deletes all but the N most recently used fingerprints
  and rewrites the kept ones without duplicate or torn lines.  Nothing
  bounds the live entries of one fingerprint.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

from repro.exceptions import ValidationError

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
        Number of append-log files the entries are spread over.  A root
        that already holds a ``meta.json`` keeps its stored count.

    The first lookup or write that hashes into a shard loads all of that
    shard's entries into the index, where they stay (see the module notes
    for what that costs).
    """

    def __init__(self, root, *, fingerprint: str, n_shards: int = 16) -> None:
        if not fingerprint:
            raise ValidationError("fingerprint must be a non-empty string")
        n_shards = int(n_shards)
        if n_shards < 1:
            raise ValidationError(f"n_shards must be at least 1, got {n_shards}")
        self.root = Path(root)
        self.fingerprint = str(fingerprint)
        self.n_shards = n_shards
        self._dir = self.root / self.fingerprint
        #: the index: key token -> entry, for every loaded shard
        self._entries: dict[str, dict] = {}
        self._loaded_shards: set[int] = set()
        #: lookups hit and missed, lines appended, and torn or garbled
        #: lines skipped while loading shards
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.skipped_lines = 0
        self._adopt_meta()

    # ------------------------------------------------------------------ API
    def get(self, key: tuple) -> dict | None:
        """Return the stored entry for ``key``, or ``None``."""
        token = key_token(key)
        self._ensure_shard(self._shard_of(token))
        entry = self._entries.get(token)
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
            # telemetry payloads (worker counter deltas) and must never
            # reach the append-log: a cache populated by a traced run has
            # to stay byte-identical to one from an untraced run.
            if any(name.startswith("_") for name in entry):
                entry = {name: value for name, value in entry.items()
                         if not name.startswith("_")}
            self._entries[token] = entry
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

    def __len__(self) -> int:
        """Number of live entries (every shard is loaded first)."""
        self.load_all()
        return len(self._entries)

    def load_all(self) -> None:
        """Eagerly read every shard (lookups normally load shards lazily)."""
        for shard in range(self.n_shards):
            self._ensure_shard(shard)

    def info(self) -> dict:
        """Counters for cache reports and the warm-run assertions."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "entries": len(self._entries),
            "skipped_lines": self.skipped_lines,
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
        self._entries = live
        self._loaded_shards = set(range(self.n_shards))
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
        return {
            "path": str(self._dir),
            "lines_before": before_lines,
            "entries": len(live),
            "lines_removed": before_lines - len(live),
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
        dir, torn copy, valid JSON that is not an object) falls back to the
        constructor arguments.
        """
        self._meta_adopted = False
        try:
            meta = json.loads((self._dir / _META_NAME).read_text("utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            meta = None
        if not isinstance(meta, dict):
            return  # missing, torn or not an object: first put rewrites it
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
        _, skipped = _replay_shard(self._shard_path(shard), self._entries)
        self.skipped_lines += skipped

    def __repr__(self) -> str:
        return (
            f"PersistentEvalCache(root={str(self.root)!r}, "
            f"fingerprint={self.fingerprint[:12]!r}..., "
            f"entries={len(self._entries)})"
        )


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
