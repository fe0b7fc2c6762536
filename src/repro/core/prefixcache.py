"""Prefix-transform reuse: the cache behind the evaluator's Prep loop.

The bottleneck analysis (Section 5.3) shows Prep dominating pipeline-search
cost, yet the registry algorithms overwhelmingly propose pipelines that
share long step prefixes: evolution mutates or appends a step of an existing
member, progressive NAS grows its beam one position at a time, and bandits
refine pipelines step by step.  Re-fitting every pipeline from raw
``X_train`` therefore re-pays the cost of steps whose inputs — and hence
whose outputs — are bit-for-bit identical to work already done.

:class:`PrefixTransformCache` stores, for each evaluated pipeline *prefix*,
the transformed train and validation arrays, so evaluating a new pipeline
costs only its uncached suffix.  An entry is keyed by its prefix spec alone
(the :meth:`~repro.core.pipeline.Pipeline.spec` of the first ``k`` steps):
the evaluator consults the cache only at full fidelity, where every
evaluation fits on the same training rows.  A low-fidelity subsample is
drawn from the *full* pipeline spec (see
``PipelineEvaluator._subsample_rng``), so its prefixes could only be
re-hit by the same ``(spec, fidelity)``, which the evaluator's memo answers
first.

Correctness contract (enforced by the determinism matrix in
``tests/engine/test_determinism.py``): a cached prefix stores the exact
arrays the step loop would recompute, so every evaluation with the cache on
is bit-for-bit identical to the cache-off baseline.  That requires
copy-on-write discipline — no transformer or model may mutate a cached
array in place — which the cache *enforces* by marking every stored array
read-only (``writeable=False``): an in-place write raises instead of
silently corrupting later evaluations.

Memory is bounded by a byte budget over the stored arrays: the
least-recently-used entry is evicted once ``bytes_held`` exceeds the
budget.  Failed prefixes are stored as array-less tombstones (a prefix that
raised once raises for every extension, so extensions short-circuit without
re-running Prep); tombstones cost no budget.  All operations take an
internal lock, so one cache can be shared by a remote worker's evaluation
threads.  A process or remote worker's cache is private to it; the counter
changes it ships back with each result are added onto the parent's cache
through :meth:`PrefixTransformCache.absorb`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError

@dataclass(frozen=True)
class PrefixEntry:
    """One cached prefix: its train/valid outputs.

    ``failed=True`` marks a tombstone: the prefix raised during Prep, so
    every pipeline extending it fails too.  Tombstones carry no arrays.
    """

    X_train: np.ndarray | None
    X_valid: np.ndarray | None
    failed: bool = False
    nbytes: int = 0


def _freeze(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only so cached data cannot be mutated in place."""
    array = np.asarray(array)
    array.flags.writeable = False
    return array


class PrefixTransformCache:
    """Byte-budgeted, thread-safe LRU of fitted pipeline prefixes.

    Parameters
    ----------
    max_bytes:
        Budget over the stored transformed arrays.  Once exceeded, the
        least-recently-used entries are evicted.  An entry larger than the
        whole budget is not stored at all.
    """

    #: the monotonic counters, which a worker's cache ships to the parent
    #: (the gauges ``bytes_held`` and ``entries`` describe one address
    #: space and are not shipped)
    COUNTER_NAMES: tuple[str, ...] = (
        "hits", "misses", "insertions", "evictions", "steps_reused",
        "failed_short_circuits",
    )

    def __init__(self, max_bytes: int) -> None:
        max_bytes = int(max_bytes)
        if max_bytes < 1:
            raise ValidationError(
                f"max_bytes must be at least 1, got {max_bytes}"
            )
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, PrefixEntry]" = OrderedDict()
        self.bytes_held = 0
        #: the counters of COUNTER_NAMES
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.steps_reused = 0
        self.failed_short_circuits = 0
        #: the counters as of the last :meth:`counters_delta` call
        self._mark = self._read_counters()

    # ------------------------------------------------------------------- API
    def longest_prefix(self, spec: tuple) -> tuple[int, PrefixEntry | None]:
        """Return ``(length, entry)`` of the longest cached prefix of ``spec``.

        Probes ``spec[:n], spec[:n-1], ... spec[:1]`` and returns the first
        hit — which may be a failure tombstone (the caller short-circuits).
        ``(0, None)`` means no prefix is cached.  A hit counts every reused
        step into ``steps_reused`` and refreshes the entry's LRU position.
        """
        with self._lock:
            for length in range(len(spec), 0, -1):
                prefix_spec = spec[:length]
                entry = self._entries.get(prefix_spec)
                if entry is None:
                    continue
                self._entries.move_to_end(prefix_spec)
                self.hits += 1
                if entry.failed:
                    self.failed_short_circuits += 1
                else:
                    self.steps_reused += length
                return length, entry
            self.misses += 1
            return 0, None

    def store(self, prefix_spec: tuple, X_train, X_valid) -> None:
        """Insert a prefix's outputs (no-op if an entry already exists).

        The arrays are stored as-is but marked read-only; callers keep using
        the same objects, so any later in-place mutation raises immediately
        instead of corrupting the cache.
        """
        entry = PrefixEntry(
            X_train=_freeze(X_train),
            X_valid=_freeze(X_valid),
            nbytes=int(X_train.nbytes) + int(X_valid.nbytes),
        )
        self._insert(prefix_spec, entry)

    def store_failure(self, prefix_spec: tuple) -> None:
        """Insert a failure tombstone: every extension of this prefix fails."""
        self._insert(prefix_spec, PrefixEntry(X_train=None, X_valid=None,
                                              failed=True))

    def _read_counters(self) -> dict:
        # callers hold the lock, except __init__, before any thread has it
        return {name: getattr(self, name) for name in self.COUNTER_NAMES}

    def counters(self) -> dict:
        """The monotonic counters (one consistent read)."""
        with self._lock:
            return self._read_counters()

    def counters_delta(self) -> dict:
        """Counter change since the previous call (non-zero only).

        Workers ship it back with each result.  Reading and advancing the
        mark is one step under the lock, so the deltas of concurrent
        evaluations split the cache's increments with no overlap.
        """
        with self._lock:
            now, mark = self._read_counters(), self._mark
            self._mark = now
        return {name: now[name] - mark[name] for name in now
                if now[name] != mark[name]}

    def absorb(self, delta: dict) -> None:
        """Add a worker cache's :meth:`counters_delta` onto these counters.

        Only a parent absorbs, and a parent never ships a delta of its own,
        so absorbed increments are never shipped on again.
        """
        with self._lock:
            for name in self.COUNTER_NAMES:
                setattr(self, name, getattr(self, name) + delta.get(name, 0))

    def info(self) -> dict:
        """Counters and gauges for ``PipelineEvaluator.cache_info()``."""
        return {**self.counters(), "entries": len(self),
                "bytes_held": self.bytes_held, "max_bytes": self.max_bytes}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------- internals
    def _insert(self, key: tuple, entry: PrefixEntry) -> None:
        if entry.nbytes > self.max_bytes:
            return  # would evict everything else and then itself
        with self._lock:
            if key in self._entries:
                # Deterministic evaluations: a concurrent worker stored the
                # identical entry first; refreshing LRU position is enough.
                self._entries.move_to_end(key)
                return
            self._entries[key] = entry
            self.bytes_held += entry.nbytes
            self.insertions += 1
            while self.bytes_held > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self.bytes_held -= evicted.nbytes
                self.evictions += 1

    def __repr__(self) -> str:
        return (
            f"PrefixTransformCache(entries={len(self._entries)}, "
            f"bytes_held={self.bytes_held}, max_bytes={self.max_bytes})"
        )


def make_prefix_cache(prefix_cache_bytes) -> PrefixTransformCache | None:
    """Build a cache from an evaluator-style option (``None``/0 disables)."""
    if not prefix_cache_bytes:
        return None
    return PrefixTransformCache(max_bytes=int(prefix_cache_bytes))
