"""Pipeline evaluation: the "Prep" and "Train" steps of the unified framework.

The :class:`PipelineEvaluator` owns the train/validation split and a
downstream-model prototype.  ``evaluate(pipeline)`` transforms both splits
with the pipeline, trains a fresh model on the transformed training data and
returns the validation accuracy — the pipeline error of Equation 2 is just
``1 - accuracy``.  It also measures preprocessing and training time
separately so the bottleneck analysis (Section 5.3) can be reproduced, and
supports low-fidelity evaluations (a fraction of the training rows) for the
bandit-based algorithms.

Evaluation is deterministic and memoized:

* results (including *failed* evaluations — degenerate pipelines would
  otherwise re-pay the full preprocessing cost on every retry) are memoized
  in a plain dict keyed by ``(pipeline spec, fidelity)``, with hit/miss
  counters for the bottleneck analysis.  The memo is always on and never
  evicts: it keeps every distinct evaluation of the evaluator's lifetime;
* with ``cache_dir`` set, a persistent, process-safe disk cache
  (:class:`~repro.io.evalcache.PersistentEvalCache`) sits below the memo:
  it is keyed by the evaluator :meth:`fingerprint` — data split, model and
  subsample seed — plus the memo key, so repeated runs over the same
  problem answer every previously seen evaluation from disk.  Its
  in-memory index is unbounded too; :mod:`repro.io.evalcache` gives its
  cost per entry and how ``repro evalcache prune`` bounds a cache root;
* low-fidelity subsample seeds are derived from ``(random_state, pipeline
  spec, fidelity)`` rather than a shared RNG, so the result of a trial does
  not depend on evaluation order — the property that lets the execution
  engine (:mod:`repro.engine`) run batches on serial, process or remote
  backends with bit-for-bit identical outcomes;
* Prep is one loop (``_prep``): each step is cloned, fitted and applied
  to the training rows, then applied to the validation rows.  With
  ``prefix_cache_bytes`` set, full-fidelity evaluations also run it
  *incrementally*: a byte-budgeted
  :class:`~repro.core.prefixcache.PrefixTransformCache` keeps the
  transformed train/valid arrays of every prefix the loop produces, keyed
  by the prefix spec, so a pipeline sharing a prefix with earlier work
  resumes the loop after its longest cached prefix (and a prefix that
  already failed fails all its extensions without re-running Prep).
  Cached prefixes hold the exact arrays the loop would recompute, so
  results stay bit-for-bit identical to cache-off evaluation;
* ``evaluate_many`` / ``evaluate_tasks`` route whole batches through the
  evaluator's :class:`~repro.engine.engine.ExecutionEngine` — a serial
  one unless a parallel engine is attached.
"""

from __future__ import annotations

import hashlib
import time
import zlib

import numpy as np

from repro.core.pipeline import Pipeline
from repro.core.prefixcache import make_prefix_cache
from repro.core.result import TrialRecord
from repro.exceptions import ValidationError
from repro.models.base import Classifier
from repro.models.metrics import accuracy_score, train_test_split
from repro.telemetry.tracing import make_tracer
from repro.utils.random import check_random_state
from repro.utils.validation import check_X_y

#: reserved cache-entry key carrying a worker prefix cache's counter delta
#: back to the parent; stripped by ``PipelineEvaluator.absorb_worker_counters``
#: before the entry is stored anywhere
METRICS_DELTA_KEY = "_metrics_delta"


def _is_readonly_write(error: BaseException) -> bool:
    """Whether ``error`` is numpy's write-to-read-only-array ValueError.

    Prefix-cache arrays are frozen (``writeable=False``); numpy rejects an
    in-place write with messages like "assignment destination is read-only"
    / "output array is read-only", which must be told apart from the
    genuinely numerical ValueErrors a degenerate pipeline raises.
    """
    return isinstance(error, ValueError) and "read-only" in str(error)


def _raise_if_copy_on_write(error: BaseException, culprit: str) -> None:
    """Surface a write to a frozen cached array as the cache contract error.

    Swallowing it (or letting a bare numpy ValueError escape) would either
    silently diverge from the cache-off baseline or leave the user without
    a hint of what went wrong; no-op for ordinary numerical errors.
    """
    if _is_readonly_write(error):
        from repro.exceptions import CopyOnWriteViolationError

        raise CopyOnWriteViolationError(
            f"{culprit} mutated its input matrix in place, which the "
            "prefix cache forbids (cached arrays are shared between "
            "pipelines); copy before writing, or disable prefix_cache_bytes"
        ) from error


class PipelineEvaluator:
    """Evaluate feature-preprocessing pipelines on a fixed train/valid split.

    Parameters
    ----------
    X_train, y_train, X_valid, y_valid:
        The data split.  Use :meth:`from_dataset` to create the split with
        the paper's 80:20 proportion.
    model:
        Downstream classifier prototype; it is cloned for every evaluation.
    random_state:
        Seed controlling low-fidelity subsampling.  Each subsample is drawn
        from a generator seeded by ``(random_state, pipeline spec,
        fidelity)``, so results are identical regardless of evaluation
        order or execution backend.
    engine:
        Optional :class:`~repro.engine.engine.ExecutionEngine` used by
        :meth:`evaluate_many` / :meth:`evaluate_tasks` to run batches.
        ``None`` gives the evaluator a serial engine of its own.
    cache_dir:
        Optional directory for a persistent cross-run evaluation cache.
        Results are written through to disk (scoped by :meth:`fingerprint`)
        and read back on memo misses, so a second run over the same
        data/model/seed performs zero uncached evaluations.  Safe to share
        between concurrent processes.  The disk cache indexes every entry
        it loads, without a bound (see :mod:`repro.io.evalcache`).
    prefix_cache_bytes:
        Optional byte budget for the prefix-transform cache
        (:mod:`repro.core.prefixcache`).  When set, full-fidelity pipelines
        are fitted *incrementally*: the transformed train/valid arrays of
        every prefix are cached, so a pipeline sharing a prefix with
        earlier work only pays Prep for its uncached suffix, and a prefix
        that already failed short-circuits all its extensions.  Results are
        bit-for-bit identical to cache-off evaluation; the budget trades
        memory for Prep time (the dominant search cost).  Process workers
        each build their own, persisting across batches for the lifetime
        of the worker pool.
        ``None`` (default) disables prefix reuse.
    """

    def __init__(self, X_train, y_train, X_valid, y_valid, model: Classifier,
                 *, random_state=None, engine=None, cache_dir=None,
                 prefix_cache_bytes: int | None = None,
                 telemetry_mode: str = "off", telemetry_dir=None) -> None:
        self.X_train, self.y_train = check_X_y(X_train, y_train)
        self.X_valid, self.y_valid = check_X_y(X_valid, y_valid)
        if self.X_train.shape[1] != self.X_valid.shape[1]:
            raise ValidationError("train and valid splits have different feature counts")
        self.model = model
        #: the memo: ``(pipeline spec, fidelity)`` -> cache entry
        self._cache: dict = {}
        #: memo lookups answered and missed, and evaluations run here
        self.cache_hits = 0
        self.cache_misses = 0
        self.n_evaluations = 0
        self._rng = check_random_state(random_state)
        if isinstance(random_state, (int, np.integer)):
            self._subsample_seed = int(random_state)
        else:
            # Fix the subsample seed once so evaluation order never matters.
            self._subsample_seed = int(self._rng.integers(0, 2**32 - 1))
        self._engine = engine
        self.prefix_cache_bytes = prefix_cache_bytes
        self._prefix_cache = make_prefix_cache(prefix_cache_bytes)
        self.telemetry_mode = telemetry_mode
        self.telemetry_dir = telemetry_dir
        #: the span sink; ``None`` unless telemetry_mode == "trace" with a
        #: telemetry_dir, so untraced runs pay only a None check per phase
        self._tracer = make_tracer(telemetry_mode, telemetry_dir)
        self._fingerprint: str | None = None
        self.cache_dir = cache_dir
        if cache_dir is not None:
            # Guarded so the default (no cache_dir) path never pays the
            # fingerprint hash over the full train/valid arrays.
            from repro.io.evalcache import PersistentEvalCache

            self._disk_cache = PersistentEvalCache(
                cache_dir, fingerprint=self.fingerprint())
        else:
            self._disk_cache = None

    # ----------------------------------------------------------- factories
    @classmethod
    def from_dataset(cls, X, y, model: Classifier, *, valid_size: float = 0.2,
                     random_state=0, engine=None, cache_dir=None,
                     prefix_cache_bytes: int | None = None,
                     telemetry_mode: str = "off",
                     telemetry_dir=None) -> "PipelineEvaluator":
        """Split ``(X, y)`` 80:20 (stratified) and build an evaluator."""
        X_train, X_valid, y_train, y_valid = train_test_split(
            X, y, test_size=valid_size, random_state=random_state
        )
        return cls(X_train, y_train, X_valid, y_valid, model,
                   random_state=random_state, engine=engine,
                   cache_dir=cache_dir, prefix_cache_bytes=prefix_cache_bytes,
                   telemetry_mode=telemetry_mode, telemetry_dir=telemetry_dir)

    # ------------------------------------------------------------- engine
    @property
    def engine(self):
        """The execution engine that runs batch evaluation.

        Never ``None``: an evaluator built without an engine, detached
        with ``set_engine(None)`` or unpickled gets a serial engine of its
        own on first use.
        """
        if self._engine is None:
            from repro.engine.engine import ExecutionEngine

            self._engine = ExecutionEngine("serial")
        return self._engine

    def set_engine(self, engine) -> None:
        """Attach (or detach, with ``None``) an execution engine."""
        self._engine = engine

    @property
    def disk_cache(self):
        """The persistent cross-run cache (``None`` when ``cache_dir`` unset)."""
        return self._disk_cache

    @property
    def prefix_cache(self):
        """The prefix-transform cache (``None`` when ``prefix_cache_bytes`` unset)."""
        return self._prefix_cache

    @property
    def tracer(self):
        """The span sink (``None`` unless telemetry tracing is enabled)."""
        return self._tracer

    def __getstate__(self) -> dict:
        # Workers evaluate serially and start with a cold cache and zeroed
        # counters: shipping the parent's (potentially large) cache or its
        # engine would only inflate the pickle and risk nested worker
        # pools.  The disk-cache handle is dropped too — workers only run
        # _evaluate_uncached, and the parent merges each result back to
        # disk as it resolves.
        # The prefix cache is likewise dropped: __setstate__ rebuilds a
        # fresh one per process, and because the process backend ships the
        # evaluator once through the pool initializer, each worker's cache
        # then persists across batches for the lifetime of the pool.
        # The tracer *is* shipped: it pickles down to its path, and worker
        # spans append to the same O_APPEND sink as the parent's.
        state = self.__dict__.copy()
        state["_engine"] = None
        state["_cache"] = {}
        state["_disk_cache"] = None
        state["_prefix_cache"] = None
        state.update(cache_hits=0, cache_misses=0, n_evaluations=0)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._prefix_cache = make_prefix_cache(self.prefix_cache_bytes)

    # -------------------------------------------------------------- identity
    def fingerprint(self) -> str:
        """Hex digest identifying this evaluation context.

        Covers the exact train/valid split (bytes, shapes, dtypes), the
        downstream model (class and parameters) and the subsample seed —
        everything a cache entry's validity depends on.  Two evaluators with
        the same fingerprint produce bit-for-bit identical results for every
        ``(pipeline spec, fidelity)``, which is what makes the persistent
        cache (``cache_dir``) safe to share across runs and processes, and
        what lets a session checkpoint verify on resume that it is being
        continued against the same problem.  The digest is memoized: the
        split and model prototype never change for the evaluator's lifetime.
        """
        if self._fingerprint is not None:
            return self._fingerprint
        digest = hashlib.sha256()
        for array in (self.X_train, self.y_train, self.X_valid, self.y_valid):
            array = np.ascontiguousarray(array)
            digest.update(repr((array.shape, str(array.dtype))).encode())
            digest.update(array.tobytes())
        model_spec = (type(self.model).__name__,
                      tuple(sorted(self.model.get_params().items())))
        digest.update(repr(model_spec).encode())
        digest.update(repr(self._subsample_seed).encode())
        self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ----------------------------------------------------------- evaluation
    def baseline_accuracy(self) -> float:
        """Validation accuracy of the downstream model with no preprocessing."""
        return self.evaluate(Pipeline()).accuracy

    def evaluate(self, pipeline: Pipeline, *, fidelity: float = 1.0,
                 pick_time: float = 0.0, iteration: int = 0) -> TrialRecord:
        """Evaluate ``pipeline`` and return a :class:`TrialRecord`.

        Parameters
        ----------
        pipeline:
            The pipeline specification to evaluate.
        fidelity:
            Fraction of the training rows used (``(0, 1]``).  Low-fidelity
            evaluations are never cached as full results.
        pick_time:
            Seconds the search algorithm spent choosing this pipeline;
            stored in the record for the bottleneck analysis.
        iteration:
            Search-iteration index, stored for analysis.
        """
        if not 0.0 < fidelity <= 1.0:
            raise ValidationError(f"fidelity must be in (0, 1], got {fidelity}")

        key = self.cache_key(pipeline, fidelity)
        entry = self.cache_lookup(key)
        if entry is None:
            entry = self._evaluate_uncached(pipeline, fidelity)
            self.n_evaluations += 1
            self.cache_store(key, entry)
        return self._make_record(pipeline, entry, fidelity=fidelity,
                                 pick_time=pick_time, iteration=iteration)

    def evaluate_many(self, pipelines, *, fidelity: float = 1.0,
                      iteration: int = 0) -> list[TrialRecord]:
        """Evaluate a batch of pipelines at the same fidelity.

        The batch runs through the evaluator's execution engine (see
        :meth:`set_engine`) on its backend's workers.  The records come
        back in input order with identical contents on every backend.
        """
        from repro.engine.tasks import EvalTask

        tasks = [EvalTask(pipeline, fidelity=fidelity, iteration=iteration)
                 for pipeline in pipelines]
        return self.evaluate_tasks(tasks)

    def evaluate_tasks(self, tasks, *, budget=None) -> list[TrialRecord]:
        """Evaluate a batch of :class:`~repro.engine.tasks.EvalTask` objects.

        Records are returned in task order.

        When ``budget`` is given, dispatch is *budget-aware*: a wall-clock
        budget (:class:`~repro.core.budget.TimeBudget`) is consulted between
        chunks of ``engine.n_workers`` tasks — the granularity at which
        parallel work can stop, one task on the serial backend — and the
        batch is cut short once it expires.  The returned
        list is then a prefix of the tasks; callers account for the
        undispatched remainder (see ``SearchSession._drive``).
        Count-based budgets never interrupt a batch: their admission is
        settled up front, so results stay bit-for-bit identical across
        backends and worker counts.
        """
        tasks = list(tasks)
        engine = self.engine
        if budget is None or not budget.can_interrupt():
            # Count-only budgets settle admission up front and can never
            # interrupt: dispatch the whole batch in one engine call rather
            # than paying per-chunk barriers that could not fire anyway.
            return engine.run(self, tasks)
        records = []
        chunk = max(1, engine.n_workers)
        for start in range(0, len(tasks), chunk):
            if start and budget.interrupted():
                break
            records.extend(engine.run(self, tasks[start:start + chunk]))
        return records

    # --------------------------------------------------------------- cache
    def cache_key(self, pipeline: Pipeline, fidelity: float) -> tuple:
        """Memoization key: ``(pipeline spec, rounded fidelity)``."""
        return (pipeline.spec(), round(fidelity, 6))

    def cache_lookup(self, key: tuple) -> dict | None:
        """Return the cached entry for ``key`` or ``None``.

        Looks in the memo first, then (on a miss) in the persistent disk
        cache, and copies a disk hit into the memo.  The two stay separate
        maps so that ``disk_hits`` in :meth:`cache_info` counts only
        entries found on disk, never ones computed in this run.  Both
        layers count as ``hits``; disk traffic is additionally itemised.
        """
        tracer = self._tracer
        if tracer is not None:
            wall = time.time()
            start = time.perf_counter()
        entry = self._cache.get(key)
        if entry is None and self._disk_cache is not None:
            entry = self._disk_cache.get(key)
            if entry is not None:
                self._cache[key] = entry
        if entry is None:
            self.cache_misses += 1
        else:
            self.cache_hits += 1
        if tracer is not None:
            tracer.emit("cache_lookup", ts=wall,
                        dur=time.perf_counter() - start)
        return entry

    def cache_store(self, key: tuple, entry: dict) -> None:
        """Insert ``entry`` under ``key`` in the memo and the disk cache.

        Entries carrying a ``failure_kind`` (worker crash, deadline
        expiry — see :mod:`repro.engine.faults`) are never cached: the
        fault describes *this run's* infrastructure, not the pipeline,
        and caching one would replay the fault into warm reruns and
        break their equivalence with a no-fault run.
        """
        if entry.get("failure_kind") is not None:
            return
        self._cache[key] = entry
        if self._disk_cache is not None:
            self._disk_cache.put(key, entry)

    def evaluate_in_worker(self, pipeline: Pipeline, fidelity: float) -> dict:
        """Evaluate uncached in a worker, attaching the counter delta.

        The worker side of :meth:`absorb_worker_counters`, called by
        process-pool and remote workers.  A worker's prefix cache is
        private to its process, so its counters would otherwise never
        reach the parent (``prefix_hits`` reading 0 despite real reuse).
        After the evaluation, the cache's change since its previous
        shipment rides back on the entry under :data:`METRICS_DELTA_KEY`.
        """
        entry = self._evaluate_uncached(pipeline, fidelity)
        cache = self._prefix_cache
        if cache is None:
            return entry
        delta = cache.counters_delta()
        if delta:
            entry[METRICS_DELTA_KEY] = delta
        return entry

    def absorb_worker_counters(self, entry: dict) -> dict:
        """Strip a worker's counter delta from ``entry`` and absorb it.

        Workers count prefix reuse in *private* caches;
        :meth:`evaluate_in_worker` attaches the worker cache's
        :meth:`~repro.core.prefixcache.PrefixTransformCache.counters_delta`
        to the returned cache entry under the reserved
        :data:`METRICS_DELTA_KEY`.  The engine routes every entry through
        here before caching it, so the delta lands in this evaluator's own
        prefix-cache counters, and so in :meth:`cache_info`, but never in
        the memo or the persistent disk cache.  Idempotent: entries
        without a delta pass through untouched.
        """
        delta = entry.pop(METRICS_DELTA_KEY, None)
        if delta:
            self._prefix_cache.absorb(delta)
        return entry

    def counters(self) -> dict:
        """The memo's counters: lookups hit and missed, evaluations run."""
        return {"cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "n_evaluations": self.n_evaluations}

    def cache_info(self) -> dict:
        """Hit/miss counters and the memo's size, for bottleneck reports.

        With a persistent cache attached (``cache_dir``), the disk layer's
        own counters are itemised under ``disk_*`` keys; ``disk_hits`` > 0
        with ``misses`` == 0 is the signature of a fully warm run.

        With a prefix cache attached (``prefix_cache_bytes``), its counters
        are itemised under ``prefix_*`` keys plus ``steps_reused`` (pipeline
        steps served from cache instead of re-fitted) and ``bytes_held``
        (current budget usage).  The monotonic counters include reuse that
        happened inside process-pool and remote workers (each worker's
        private cache reports per-evaluation deltas, absorbed into this
        evaluator's cache with the results — see
        :meth:`absorb_worker_counters`); the gauges ``prefix_entries`` and
        ``bytes_held`` remain parent-process values, since worker caches
        live in other address spaces.
        """
        info = {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "size": len(self._cache),
            "persistent": self._disk_cache is not None,
        }
        if self._disk_cache is not None:
            disk = self._disk_cache.info()
            info.update({
                "disk_hits": disk["hits"],
                "disk_misses": disk["misses"],
                "disk_writes": disk["writes"],
                "disk_entries": disk["entries"],
                "disk_path": disk["path"],
            })
        if self._prefix_cache is not None:
            prefix = self._prefix_cache.info()
            info.update({
                "prefix_hits": prefix["hits"],
                "prefix_misses": prefix["misses"],
                "prefix_evictions": prefix["evictions"],
                "prefix_entries": prefix["entries"],
                "prefix_short_circuits": prefix["failed_short_circuits"],
                "steps_reused": prefix["steps_reused"],
                "bytes_held": prefix["bytes_held"],
                "prefix_max_bytes": prefix["max_bytes"],
            })
        return info

    # ------------------------------------------------------------ internals
    def _evaluate_uncached(self, pipeline: Pipeline, fidelity: float) -> dict:
        """Run one evaluation and return its cache entry.

        Pure with respect to the evaluator's *results*: reads the split and
        the model prototype and computes the same values regardless of what
        other evaluations ran before — which is what makes it safe to call
        from worker processes and concurrently from a remote worker's
        threads.  (The prefix cache, if enabled, is mutated, but it is
        internally locked and only ever changes *how fast* an entry is
        computed, never its value.)
        """
        X_train, y_train = self._training_subset(fidelity, pipeline)

        # Tracing reuses the durations this method measures anyway: phase
        # events are emitted from the wall-clock start plus the
        # perf_counter-measured duration, so untraced runs pay nothing and
        # traced runs pay only the JSONL append.
        tracer = self._tracer
        wall = time.time() if tracer is not None else 0.0
        prep_start = time.perf_counter()
        prepped = self._prep(pipeline, fidelity, X_train, y_train)
        prep_time = time.perf_counter() - prep_start
        if tracer is not None:
            tracer.emit("prep", ts=wall, dur=prep_time,
                        steps=len(pipeline), failed=prepped is None)
        if prepped is None:
            return {"accuracy": 0.0, "prep_time": prep_time,
                    "train_time": 0.0, "failed": True}
        X_train_t, X_valid_t = prepped
        # A zero-step pipeline passes the canonical split through unchanged,
        # and _sanitize no longer copies finite input — copy here so a
        # model that scribbles on its training matrix cannot corrupt the
        # split every later trial is scored against.  Transformed arrays
        # are per-evaluation scratch (or frozen cache entries) and need no
        # defensive copy.
        if X_train_t is self.X_train:
            X_train_t = X_train_t.copy()
        if X_valid_t is self.X_valid:
            X_valid_t = X_valid_t.copy()

        if tracer is not None:
            wall = time.time()
        train_start = time.perf_counter()
        model = self.model.clone()
        try:
            model.fit(self._sanitize(X_train_t), y_train)
            predictions = model.predict(self._sanitize(X_valid_t))
        except ValueError as error:
            if self._prefix_cache is not None:
                _raise_if_copy_on_write(error,
                                        f"model {type(self.model).__name__}")
            raise
        accuracy = accuracy_score(self.y_valid, predictions)
        train_time = time.perf_counter() - train_start
        if tracer is not None:
            tracer.emit("train", ts=wall, dur=train_time)

        return {"accuracy": accuracy, "prep_time": prep_time,
                "train_time": train_time, "failed": False}

    _PREP_ERRORS = (FloatingPointError, ValueError, ValidationError)

    def _prep(self, pipeline: Pipeline, fidelity: float, X_train, y_train):
        """Fit ``pipeline`` step by step; return its train/valid outputs.

        Each step is cloned, fitted and applied to the training rows, then
        applied to the validation rows.  A numerically degenerate pipeline
        returns ``None`` and scores as bad as possible; the failure is
        memoized like any result, so repeat evaluations don't re-pay Prep.

        With a prefix cache, full-fidelity evaluations resume after the
        longest cached prefix, store each new prefix's outputs and
        tombstone the prefix whose step raised, so every pipeline extending
        it fails without re-running Prep.  Low-fidelity evaluations bypass
        the cache: their training rows are drawn from the *full* pipeline
        spec, so their prefixes could only be re-hit by the same ``(spec,
        fidelity)``, which the memo answers first; probing the cache's lock
        for a certain miss would only add contention.
        """
        X_train_t, X_valid_t = X_train, self.X_valid
        start = 0
        cache = self._prefix_cache if fidelity >= 1.0 and len(pipeline) \
            else None
        if cache is not None:
            spec = pipeline.spec()
            start, hit = cache.longest_prefix(spec)
            if hit is not None and hit.failed:
                return None
            if hit is not None:
                X_train_t, X_valid_t = hit.X_train, hit.X_valid
        for end, step in enumerate(pipeline.steps[start:], start + 1):
            try:
                step = step.clone()
                X_train_t = step.fit_transform(X_train_t, y_train)
                X_valid_t = step.transform(X_valid_t)
            except self._PREP_ERRORS as error:
                if cache is not None:
                    # A write to a frozen cached array is a contract
                    # violation, not a degenerate pipeline: without the
                    # cache the step would have mutated its own fresh copy
                    # and worked, so scoring it as failed would silently
                    # diverge from the cache-off baseline.
                    _raise_if_copy_on_write(
                        error, f"a transformer in {pipeline.describe()!r}")
                    cache.store_failure(spec[:end])
                return None
            if cache is not None:
                cache.store(spec[:end], X_train_t, X_valid_t)
        return X_train_t, X_valid_t

    def _make_record(self, pipeline: Pipeline, entry: dict, *, fidelity: float,
                     pick_time: float, iteration: int) -> TrialRecord:
        return TrialRecord(
            pipeline=pipeline,
            accuracy=entry["accuracy"],
            pick_time=pick_time,
            prep_time=entry["prep_time"],
            train_time=entry["train_time"],
            fidelity=fidelity,
            iteration=iteration,
            failure_kind=entry.get("failure_kind"),
        )

    def record_from_entry(self, task, entry: dict) -> TrialRecord:
        """Build the trial record for ``task`` from a cache entry (engine API)."""
        return self._make_record(task.pipeline, entry, fidelity=task.fidelity,
                                 pick_time=task.pick_time, iteration=task.iteration)

    def _subsample_rng(self, pipeline: Pipeline | None,
                       fidelity: float) -> np.random.Generator:
        """Generator seeded by ``(random_state, pipeline spec, fidelity)``."""
        spec = () if pipeline is None else pipeline.spec()
        token = repr((spec, round(fidelity, 6))).encode("utf-8")
        seed = (self._subsample_seed * 0x9E3779B1 + zlib.crc32(token)) % 2**32
        return np.random.default_rng(seed)

    def _training_subset(self, fidelity: float, pipeline: Pipeline | None = None):
        if fidelity >= 1.0:
            return self.X_train, self.y_train
        n_samples = self.X_train.shape[0]
        size = max(int(round(fidelity * n_samples)), 10)
        size = min(size, n_samples)
        rng = self._subsample_rng(pipeline, fidelity)
        indices = rng.choice(n_samples, size=size, replace=False)
        # Make sure at least two classes survive the subsample.
        if np.unique(self.y_train[indices]).shape[0] < 2:
            return self.X_train, self.y_train
        return self.X_train[indices], self.y_train[indices]

    @staticmethod
    def _sanitize(X: np.ndarray) -> np.ndarray:
        """Replace NaN / inf produced by extreme transformations with finite values.

        Already-finite input (the common case) is returned as-is:
        ``np.nan_to_num`` always copies, and that copy of the full
        transformed training set costs more than the finiteness check.
        """
        if np.isfinite(X).all():
            return X
        return np.nan_to_num(X, nan=0.0, posinf=1e12, neginf=-1e12)

    def __repr__(self) -> str:
        return (
            f"PipelineEvaluator(model={type(self.model).__name__}, "
            f"n_train={self.X_train.shape[0]}, n_valid={self.X_valid.shape[0]}, "
            f"n_features={self.X_train.shape[1]})"
        )
