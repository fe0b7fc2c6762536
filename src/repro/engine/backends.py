"""Pluggable execution backends: serial, thread-pool and process-pool.

A backend does two things.  The batch path — ``map`` / ``run_evaluations``
— applies a function over a list of items and returns the results *in
input order*; that ordering guarantee is what lets the rest of the library
stay bit-for-bit deterministic regardless of which backend executes the
work, because the engine submits tasks in a stable order and merges
results positionally.  The futures path — ``submit`` /
``submit_evaluation`` / ``wait_any`` — hands out one future per task so
callers (the engine's ``as_completed`` and the async search driver) can
react to *each* completion instead of waiting for a whole batch barrier.

The serial backend's futures are lazy: the work runs in the calling thread
the first time a result is requested, so completions arrive strictly in
submission order (the deterministic reference) and a future that is
cancelled before consumption costs nothing — which is what lets a budget
interruption refund never-dispatched tasks exactly.

``run_evaluations`` is the evaluation-specific entry point: it receives a
:class:`~repro.core.evaluation.PipelineEvaluator` plus ``(pipeline,
fidelity)`` work items and returns the raw cache entries.  The default
implementation closes over the evaluator (fine for threads, which share
memory); :class:`ProcessBackend` overrides it to ship the evaluator to each
worker process once via the pool initializer instead of once per task.

Evaluation dispatch is *fault tolerant* (see :mod:`repro.engine.faults`):
every path runs under the backend's :class:`~repro.engine.faults.RetryPolicy`
and optional ``eval_timeout`` deadline.  The process backend survives
worker crashes — a ``BrokenProcessPool`` discards the broken
fingerprint-keyed pool, rebuilds it, and resubmits the lost in-flight
tasks; a task that keeps killing its worker is quarantined as a
``failure_kind="worker_crash"`` entry instead of killing the search, and
a hung evaluation is detected by a watchdog and recorded as
``failure_kind="timeout"``.  The serial/thread backends apply the same
policy with soft deadline checks (they cannot interrupt in-flight work).
Recovery is observable through the ``engine.worker_crashes`` /
``engine.eval_timeouts`` / ``engine.retries`` / ``engine.quarantined_tasks``
registry counters and ``engine.retry`` trace spans.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool

from repro.engine.faults import (
    FAILURE_KIND_CRASH,
    FAILURE_KIND_TIMEOUT,
    TRANSIENT_ERROR_TYPES,
    RetryPolicy,
    WorkerCrashError,
    apply_fault_in_worker,
    apply_fault_inline,
    failure_entry,
    strip_fault,
    unwrap_work_item,
)
from repro.exceptions import UnknownComponentError, ValidationError
from repro.telemetry.metrics import get_registry


def default_worker_count() -> int:
    """Number of workers used when ``n_workers`` is not given."""
    return os.cpu_count() or 1


def _validate_eval_timeout(eval_timeout):
    if eval_timeout is None:
        return None
    eval_timeout = float(eval_timeout)
    if eval_timeout <= 0:
        raise ValidationError(
            f"eval_timeout must be a positive number of seconds, "
            f"got {eval_timeout!r}"
        )
    return eval_timeout


def _trace_retry(evaluator, attempt: int, error_name: str) -> None:
    """Emit an ``engine.retry`` span when the evaluator is traced."""
    tracer = getattr(evaluator, "tracer", None)
    if tracer is not None:
        tracer.emit("engine.retry", ts=time.time(), dur=0.0,
                    attempt=attempt, error=error_name)


def _kill_pool(pool) -> None:
    """Tear down a broken or stalled process pool without joining it.

    ``shutdown`` alone would *join* the workers, and a hung worker never
    exits — so terminate the processes first.  ``_processes`` is a
    private executor attribute; when absent (already-reaped pool, test
    double) the plain shutdown still drops the queue.
    """
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


class SerialFuture:
    """Lazy future returned by :meth:`SerialBackend.submit`.

    The wrapped call runs in the consumer's thread the first time
    :meth:`run` (or :meth:`result`) is invoked, never at submission.  A
    batch of submitted-but-unconsumed serial futures therefore costs
    nothing, completes strictly in the order the consumer asks, and can be
    cancelled right up to the moment its result is first requested —
    mirroring ``concurrent.futures.Future`` closely enough that the engine
    treats all backends' futures uniformly.
    """

    _PENDING, _DONE, _ERROR, _CANCELLED = range(4)

    def __init__(self, fn, item) -> None:
        self._fn = fn
        self._item = item
        self._state = self._PENDING
        self._outcome = None

    def run(self) -> None:
        """Execute the work now unless it already ran or was cancelled."""
        if self._state != self._PENDING:
            return
        try:
            self._outcome = self._fn(self._item)
            self._state = self._DONE
        except BaseException as error:  # re-raised from result(), like a Future
            self._outcome = error
            self._state = self._ERROR

    def result(self, timeout=None):
        if timeout is not None:
            # Lazy inline execution has nothing to wait on: the work runs
            # in *this* thread, right now, when the result is requested.
            # Pretending to honor a timeout (as this method once did by
            # ignoring it) would let callers believe they were protected
            # from a hang they are actually executing themselves.
            raise ValidationError(
                "SerialFuture.result() cannot honor a timeout: the work "
                "runs lazily in the calling thread at the moment the "
                "result is requested; call result() without a timeout "
                "(use ExecutionContext.eval_timeout for deadlines)"
            )
        if self._state == self._CANCELLED:
            raise CancelledError()
        self.run()
        if self._state == self._ERROR:
            raise self._outcome
        return self._outcome

    def done(self) -> bool:
        return self._state != self._PENDING

    def cancel(self) -> bool:
        if self._state == self._PENDING:
            self._state = self._CANCELLED
        return self._state == self._CANCELLED

    def cancelled(self) -> bool:
        return self._state == self._CANCELLED

    def running(self) -> bool:
        return False


class ExecutionBackend:
    """Backend protocol: ordered ``map`` plus evaluation dispatch.

    Parameters
    ----------
    n_workers:
        Maximum number of concurrent workers.  ``None`` (or ``-1``) means
        one worker per CPU core.
    eval_timeout:
        Optional per-evaluation deadline in seconds.  The process backend
        enforces it with a watchdog (a hung worker is killed and the task
        recorded as ``failure_kind="timeout"``); the serial and thread
        backends, which cannot interrupt in-flight work, apply it as a
        soft deadline — the evaluation runs to completion but is *scored*
        as timed out, so results match what the watchdog records.
    retry_policy:
        :class:`~repro.engine.faults.RetryPolicy` governing transient
        failures (worker crashes, injected chaos errors).  Defaults to
        ``RetryPolicy()``.
    """

    #: registry name, e.g. ``"serial"`` or ``"process"``
    name: str = "base"

    #: True when submitted futures complete lazily in submission order (the
    #: serial backend): ``as_completed`` consumers then iterate futures in
    #: the order they were submitted, which is the deterministic reference
    ordered_completion: bool = False

    def __init__(self, n_workers: int | None = None, *,
                 eval_timeout: float | None = None,
                 retry_policy: RetryPolicy | None = None) -> None:
        if n_workers is None or n_workers == -1:
            n_workers = default_worker_count()
        n_workers = int(n_workers)
        if n_workers < 1:
            raise ValidationError(f"n_workers must be at least 1, got {n_workers}")
        self.n_workers = n_workers
        self.eval_timeout = _validate_eval_timeout(eval_timeout)
        self.retry_policy = RetryPolicy() if retry_policy is None else retry_policy
        #: ``{"kind", "time", "fingerprint"}`` of the most recent pool
        #: loss, or ``None``; surfaced by ``repro serve``'s ``/healthz``
        self.last_crash: dict | None = None

    # ------------------------------------------------------------------ API
    def map(self, fn, items: list) -> list:
        """Apply ``fn`` to every item; results are returned in input order."""
        raise NotImplementedError

    def run_evaluations(self, evaluator, work: list) -> list:
        """Evaluate ``(pipeline, fidelity)`` work items; return cache entries.

        Work items may also be :class:`~repro.engine.faults.FaultInjection`
        wrappers (attached by the chaos harness); every implementation
        unwraps them through the guarded envelope.
        """
        return self.map(
            lambda item: self._guarded_evaluation(evaluator, item), work
        )

    def _guarded_evaluation(self, evaluator, item) -> dict:
        """Evaluate one work item under the retry policy and soft deadline.

        Transient failures (see :data:`~repro.engine.faults.TRANSIENT_ERROR_TYPES`)
        are retried with backoff; a task that keeps failing is quarantined
        as a ``worker_crash`` failure entry.  The loop is bounded by
        ``retry_policy.max_attempts`` (every iteration either returns or
        consumes one attempt).
        """
        policy = self.retry_policy
        attempt = 1
        while True:
            pair, fault = unwrap_work_item(item)
            start = time.monotonic()
            try:
                if fault is not None:
                    apply_fault_inline(fault)
                entry = evaluator._evaluate_uncached(pair[0], pair[1])
            except TRANSIENT_ERROR_TYPES as error:
                if isinstance(error, WorkerCrashError):
                    get_registry().counter("engine.worker_crashes").inc()
                    # Crash observed without a pool involved (serial/thread
                    # or the single-item inline path): still surfaced to
                    # /healthz, same shape as a pool loss.
                    self.last_crash = {"kind": FAILURE_KIND_CRASH,
                                       "time": time.time(),
                                       "fingerprint":
                                           evaluator.fingerprint()[:12]}
                if not policy.should_retry(attempt, error):
                    get_registry().counter("engine.quarantined_tasks").inc()
                    return failure_entry(FAILURE_KIND_CRASH)
                get_registry().counter("engine.retries").inc()
                _trace_retry(evaluator, attempt, type(error).__name__)
                policy.sleep(attempt)
                attempt += 1
                item = strip_fault(item)
                continue
            if (self.eval_timeout is not None
                    and time.monotonic() - start > self.eval_timeout):
                # Soft deadline: the work already ran to completion in this
                # thread, but it is scored exactly as the process watchdog
                # would have scored it — a deterministic timeout record.
                get_registry().counter("engine.eval_timeouts").inc()
                self.last_crash = {"kind": FAILURE_KIND_TIMEOUT,
                                   "time": time.time(),
                                   "fingerprint":
                                       evaluator.fingerprint()[:12]}
                return failure_entry(FAILURE_KIND_TIMEOUT)
            return entry

    # -------------------------------------------------------------- futures
    def submit(self, fn, item):
        """Start ``fn(item)`` and return a future for its result.

        With a process backend ``fn`` must be a picklable module-level
        function (the same constraint as :meth:`map`).
        """
        raise NotImplementedError

    def submit_evaluation(self, evaluator, item):
        """Submit one ``(pipeline, fidelity)`` evaluation; return a future."""
        return self.submit(
            lambda work: self._guarded_evaluation(evaluator, work), item
        )

    def wait_any(self, futures) -> None:
        """Block until at least one of ``futures`` is done (or all are)."""
        pending = [future for future in futures if not future.done()]
        if pending:
            wait(pending, return_when=FIRST_COMPLETED)

    def close(self) -> None:
        """Release any pooled workers (no-op for poolless backends)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_workers={self.n_workers})"


class SerialBackend(ExecutionBackend):
    """Run every task inline in the calling thread (the reference backend)."""

    name = "serial"
    ordered_completion = True

    def __init__(self, n_workers: int | None = None, **options) -> None:
        if n_workers is not None and int(n_workers) != 1:
            # Historically an explicit worker count was silently ignored
            # here, so a context asking for serial+parallel quietly ran
            # everything on one worker.  Misconfiguration fails loudly now.
            raise ValidationError(
                f"the serial backend runs exactly one worker; "
                f"n_workers={n_workers!r} asks for parallelism — pick the "
                f"'thread' or 'process' backend instead"
            )
        super().__init__(n_workers=1, **options)

    def map(self, fn, items: list) -> list:
        return [fn(item) for item in items]

    def submit(self, fn, item) -> SerialFuture:
        return SerialFuture(fn, item)

    def wait_any(self, futures) -> None:
        # Lazy futures never complete on their own: "waiting" means running
        # the earliest-submitted pending one right here, which is exactly
        # the serial execution order.
        for future in futures:
            if future.done():
                return
        if futures:
            futures[0].run()


class ThreadBackend(ExecutionBackend):
    """Dispatch tasks to a thread pool.

    Threads share the evaluator's memory, so nothing is pickled.  Workers
    read shared state (the train/valid split) and the memoization-cache
    writes happen in the calling thread after the batch completes, so those
    need no locking.  The one piece of shared state workers *do* mutate is
    the evaluator's prefix-transform cache (when enabled), which carries
    its own internal lock — all workers then reuse one pool of fitted
    prefixes.  Useful when evaluations release the GIL (numpy-heavy
    preprocessing / training) or block on I/O.
    """

    name = "thread"

    def __init__(self, n_workers: int | None = None, **options) -> None:
        super().__init__(n_workers=n_workers, **options)
        self._lock = threading.Lock()
        self._submit_pool: ThreadPoolExecutor | None = None

    def map(self, fn, items: list) -> list:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=min(self.n_workers, len(items))) as pool:
            return list(pool.map(fn, items))

    def submit(self, fn, item):
        # Unlike map's per-batch pools, submissions share one long-lived
        # pool: futures of different batches must be able to run
        # concurrently, and the async driver submits continuously.  The
        # lazy creation is lock-guarded — two sessions racing on a shared
        # engine would otherwise each build a pool and leak one.
        with self._lock:
            if self._submit_pool is None:
                self._submit_pool = ThreadPoolExecutor(
                    max_workers=self.n_workers
                )
            pool = self._submit_pool
        return pool.submit(fn, item)

    def close(self) -> None:
        with self._lock:
            pool, self._submit_pool = self._submit_pool, None
        if pool is not None:
            # Joining worker threads can block; never do it under the lock.
            pool.shutdown(wait=True, cancel_futures=True)


# --------------------------------------------------------------- processes
#: per-process evaluator installed by the pool initializer (fork or spawn)
_WORKER_EVALUATOR = None


def _init_evaluation_worker(evaluator) -> None:
    global _WORKER_EVALUATOR
    _WORKER_EVALUATOR = evaluator


def _evaluate_in_worker(item):
    pair, fault = unwrap_work_item(item)
    if fault is not None:
        # Chaos faults are applied *inside* the worker: a "crash" really
        # kills this process (the parent sees BrokenProcessPool), a
        # "delay" really hangs it (the parent's watchdog fires).
        apply_fault_in_worker(fault)
    pipeline, fidelity = pair
    cache = _WORKER_EVALUATOR.prefix_cache
    if cache is None:
        return _WORKER_EVALUATOR._evaluate_uncached(pipeline, fidelity)
    # The worker's prefix cache is private to this process: its counters
    # would otherwise never reach the parent (prefix_hits reading 0 under
    # the process backend despite real reuse).  Pool workers run one task
    # at a time, so a before/after snapshot brackets exactly this
    # evaluation; the delta rides back on a copy of the entry (the
    # original may be aliased by the worker's own caches) and is stripped
    # by ``PipelineEvaluator.absorb_worker_counters`` before the entry is
    # stored anywhere.
    before = cache.counters()
    entry = dict(_WORKER_EVALUATOR._evaluate_uncached(pipeline, fidelity))
    delta = cache.counters_since(before)
    if delta:
        from repro.core.evaluation import METRICS_DELTA_KEY

        entry[METRICS_DELTA_KEY] = {
            f"prefix.{name}": value for name, value in delta.items()
        }
    return entry


class _RecoveringEvalFuture:
    """Future for one submitted evaluation that survives pool crashes.

    Wraps the real pool future and owns the task's retry/deadline state.
    :meth:`result` never raises on an *infrastructure* failure — a crashed
    or hung evaluation resolves to a ``failure_kind`` entry instead — so
    the engine's ``resolve_task`` path needs no fault-specific cases.  The
    deadline covers queue time plus run time, measured from submission.
    """

    __slots__ = ("_backend", "_evaluator", "_item", "_pool", "_inner",
                 "_attempt", "_deadline", "_entry", "_user_cancelled",
                 "__weakref__")

    def __init__(self, backend, evaluator, item) -> None:
        self._backend = backend
        self._evaluator = evaluator
        self._item = item
        self._attempt = 1
        self._entry = None
        self._user_cancelled = False
        self._pool, self._inner = backend._submit_item(evaluator, item)
        self._reset_deadline()

    def _reset_deadline(self) -> None:
        timeout = self._backend.eval_timeout
        self._deadline = (None if timeout is None
                          else time.monotonic() + timeout)

    def _remaining(self) -> float | None:
        if self._deadline is None:
            return None
        return self._deadline - time.monotonic()

    def done(self) -> bool:
        if self._entry is not None or self._inner.done():
            return True
        remaining = self._remaining()
        return remaining is not None and remaining <= 0

    def cancel(self) -> bool:
        cancelled = self._inner.cancel()
        if cancelled:
            # Remember a *caller's* cancellation: a CancelledError from a
            # pool that was torn down under us must be retried, but a
            # legitimately cancelled task must not silently re-run.
            self._user_cancelled = True
        return cancelled

    def cancelled(self) -> bool:
        return self._user_cancelled

    def running(self) -> bool:
        return self._entry is None and self._inner.running()

    def result(self, timeout=None):
        # ``timeout`` mirrors the Future interface; the evaluation deadline
        # (backend.eval_timeout) is what actually bounds this call.
        while True:
            if self._entry is not None:
                return self._entry
            remaining = self._remaining()
            # A finished evaluation read after its deadline still counts:
            # only one still running when the deadline passes has timed out.
            if remaining is not None and remaining <= 0 \
                    and not self._inner.done():
                return self._expire()
            try:
                entry = self._inner.result(timeout=remaining)
            except FuturesTimeoutError:
                return self._expire()
            except CancelledError:
                if self._user_cancelled:
                    raise
                # The pool was torn down under this future (a sibling's
                # crash or timeout discard) — a crash casualty, not a
                # caller's cancellation.
                if self._retry_or_quarantine(
                        WorkerCrashError("evaluation pool was torn down "
                                         "with this task in flight")):
                    return self._entry
            except BrokenProcessPool as error:
                self._backend._note_broken(self._evaluator, self._pool)
                if self._retry_or_quarantine(error):
                    return self._entry
            except TRANSIENT_ERROR_TYPES as error:
                # Raised *inside* the worker; the pool itself is intact.
                if self._retry_or_quarantine(error):
                    return self._entry
            else:
                self._entry = entry
                return entry

    def _expire(self) -> dict:
        """Deadline blown: kill the pool, resolve as a timeout record."""
        get_registry().counter("engine.eval_timeouts").inc()
        self._backend._discard_pool(self._evaluator, self._pool,
                                    kind=FAILURE_KIND_TIMEOUT)
        self._entry = failure_entry(FAILURE_KIND_TIMEOUT)
        return self._entry

    def _retry_or_quarantine(self, error) -> bool:
        """True when resolved (quarantined); False when resubmitted."""
        policy = self._backend.retry_policy
        if not policy.should_retry(self._attempt, error):
            get_registry().counter("engine.quarantined_tasks").inc()
            self._entry = failure_entry(FAILURE_KIND_CRASH)
            return True
        get_registry().counter("engine.retries").inc()
        _trace_retry(self._evaluator, self._attempt, type(error).__name__)
        policy.sleep(self._attempt)
        self._attempt += 1
        self._item = strip_fault(self._item)
        self._pool, self._inner = self._backend._submit_item(
            self._evaluator, self._item
        )
        self._reset_deadline()
        return False


class ProcessBackend(ExecutionBackend):
    """Dispatch tasks to a process pool (true CPU parallelism).

    The evaluator is shipped to each worker exactly once through the pool
    initializer, and pools are *reused* across batches: they are keyed by
    the evaluator's :meth:`~repro.core.evaluation.PipelineEvaluator.fingerprint`
    in a small LRU (``max_eval_pools``), so several sessions alternating
    on one shared backend each keep their warm pool instead of re-forking
    and re-pickling the training data every batch (the one-pool-latest-owner
    scheme this replaced did exactly that the moment two searches shared an
    engine).  Per-task traffic is just the ``(pipeline, fidelity)``
    pair and the returned cache entry.  The evaluator drops its engine
    reference and cache when pickled (see
    ``PipelineEvaluator.__getstate__``), so workers never recursively
    spawn pools and the snapshot stays valid for its fingerprint's
    lifetime: workers only ever receive work the parent's cache has never
    seen, and two evaluators with equal fingerprints are bit-for-bit
    interchangeable by the fingerprint contract.
    When the evaluator enables prefix-transform reuse, each worker rebuilds
    its own :class:`~repro.core.prefixcache.PrefixTransformCache` on
    unpickling; because the pool (and with it the per-process evaluator
    snapshot) persists across batches, those caches keep accumulating and
    reusing fitted prefixes for the whole search, not just one batch.

    A worker death does not kill the search: the broken pool is discarded
    and rebuilt, lost in-flight tasks are resubmitted under the retry
    policy, and a task that keeps crashing its worker is quarantined as a
    ``worker_crash`` failure entry.  Batch dispatch attributes crashes by
    running the round after a crash in one-task isolation, so only the
    poison task is ever charged — co-pending innocents always survive,
    keeping recovered runs bit-for-bit repeatable.  With ``eval_timeout`` set, a hung
    evaluation is detected (no completion within the deadline), its pool
    is killed and rebuilt, and the task resolves as a ``timeout`` entry —
    queued innocents from the same pool are resubmitted without being
    charged an attempt.
    """

    name = "process"

    #: evaluation pools kept warm at once; the least-recently-used pool
    #: beyond this is shut down (its worker processes reaped) on demand
    max_eval_pools = 4

    def __init__(self, n_workers: int | None = None, *,
                 max_eval_pools: int | None = None, **options) -> None:
        super().__init__(n_workers=n_workers, **options)
        if max_eval_pools is not None:
            max_eval_pools = int(max_eval_pools)
            if max_eval_pools < 1:
                raise ValidationError(
                    f"max_eval_pools must be at least 1, got {max_eval_pools}"
                )
            self.max_eval_pools = max_eval_pools
        self._lock = threading.Lock()
        #: fingerprint -> initializer-seeded pool, most recently used last
        self._eval_pools: "OrderedDict[str, ProcessPoolExecutor]" = OrderedDict()
        self._submit_pool: ProcessPoolExecutor | None = None

    def map(self, fn, items: list) -> list:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        with ProcessPoolExecutor(max_workers=min(self.n_workers, len(items))) as pool:
            return list(pool.map(fn, items))

    def submit(self, fn, item):
        with self._lock:
            if self._submit_pool is None:
                self._submit_pool = ProcessPoolExecutor(
                    max_workers=self.n_workers
                )
            pool = self._submit_pool
        return pool.submit(fn, item)

    def submit_evaluation(self, evaluator, item):
        # Reuse the initializer-seeded evaluation pool so the evaluator is
        # pickled once per pool, not once per submitted task; the wrapper
        # owns crash recovery and the deadline for this one task.
        return _RecoveringEvalFuture(self, evaluator, item)

    # --------------------------------------------------- pool bookkeeping
    def _evaluation_pool(self, evaluator) -> ProcessPoolExecutor:
        """The warm pool for ``evaluator``'s fingerprint (LRU, bounded)."""
        key = evaluator.fingerprint()
        evicted = None
        with self._lock:
            pool = self._eval_pools.get(key)
            if pool is not None:
                self._eval_pools.move_to_end(key)
            else:
                pool = ProcessPoolExecutor(
                    max_workers=self.n_workers,
                    initializer=_init_evaluation_worker,
                    initargs=(evaluator,),
                )
                self._eval_pools[key] = pool
                if len(self._eval_pools) > self.max_eval_pools:
                    _, evicted = self._eval_pools.popitem(last=False)
        if evicted is not None:
            # Shut the evicted pool down outside the lock: joining worker
            # processes can take a while and must not block other sessions
            # fetching their own pools.
            evicted.shutdown(wait=True, cancel_futures=True)
        return pool

    def _discard_pool(self, evaluator, pool, *, kind: str) -> bool:
        """Drop ``pool`` from the LRU (if still installed) and kill it.

        Many observers can report the same dead pool — every in-flight
        future raises ``BrokenProcessPool`` at once — so the removal is
        compare-and-delete under the lock: exactly one caller per pool
        instance gets ``True``, which is what keeps crash *events* (not
        crash observers) countable.
        """
        key = evaluator.fingerprint()
        with self._lock:
            evicted = self._eval_pools.get(key) is pool
            if evicted:
                del self._eval_pools[key]
                self.last_crash = {"kind": kind, "time": time.time(),
                                   "fingerprint": key[:12]}
        if evicted:
            _kill_pool(pool)
        return evicted

    def _note_broken(self, evaluator, pool) -> None:
        """Record one worker-crash event for a broken pool."""
        if self._discard_pool(evaluator, pool, kind=FAILURE_KIND_CRASH):
            get_registry().counter("engine.worker_crashes").inc()

    def _submit_item(self, evaluator, item):
        """Submit one item, rebuilding the fingerprint pool if it is broken.

        Returns ``(pool, future)``.  A pool that keeps breaking faster
        than it can accept work raises :class:`WorkerCrashError` — under
        ``repro serve`` that fails only the owning session.
        """
        attempt = 1
        while True:
            pool = self._evaluation_pool(evaluator)
            try:
                return pool, pool.submit(_evaluate_in_worker, item)
            except BrokenProcessPool as error:
                self._note_broken(evaluator, pool)
                if attempt >= self.retry_policy.max_attempts:
                    raise WorkerCrashError(
                        f"evaluation pool for fingerprint "
                        f"{evaluator.fingerprint()[:12]!r} kept breaking "
                        f"and could not be rebuilt"
                    ) from error
                attempt += 1

    # ----------------------------------------------------------- batch path
    def run_evaluations(self, evaluator, work: list) -> list:
        work = list(work)
        if len(work) <= 1:
            # A single evaluation is cheaper inline than one IPC round-trip
            # — still routed through the guarded envelope so chaos faults
            # and the soft deadline apply identically.
            return [self._guarded_evaluation(evaluator, item) for item in work]
        return self._run_recovering(evaluator, work)

    def _run_recovering(self, evaluator, work: list) -> list:
        """Ordered batch evaluation that survives crashes and hangs.

        Tasks are dispatched in rounds.  A clean round resolves every
        submitted future; a watchdog round resolves only the hung tasks as
        timeouts (queued innocents carry over uncharged); a *crashed*
        round — the pool broke — cannot tell which task killed the worker,
        so nobody is charged an attempt.  Instead the next round runs in
        **isolation**: one task at a time, in dispatch order, until a
        crash is attributed to the single in-flight task (which is then
        charged, retried with backoff, and eventually quarantined) or the
        round completes cleanly and parallel dispatch resumes.  Innocent
        tasks are therefore never quarantined by a co-tenant poison task,
        which keeps the surviving records of a crash-and-recover run
        identical across repeats of the same fault plan.

        The loop terminates: every round either resolves at least one
        task, or charges the isolated culprit one of its bounded
        attempts; unattributed crashes are always followed by an
        isolation round, and the shared backoff grows with the crash
        streak.
        """
        results: list = [None] * len(work)
        pending: dict[int, object] = dict(enumerate(work))
        attempts = {index: 1 for index in pending}
        policy = self.retry_policy
        isolate = False
        crash_streak = 0
        while pending:
            pool = self._evaluation_pool(evaluator)
            batch = sorted(pending.items())
            if isolate:
                batch = batch[:1]
            futures: dict = {}
            broke_at_submit = False
            try:
                for index, item in batch:
                    futures[pool.submit(_evaluate_in_worker, item)] = index
            except BrokenProcessPool:
                self._note_broken(evaluator, pool)
                broke_at_submit = True
            if not broke_at_submit:
                if self._collect_round(evaluator, pool, futures, pending,
                                       results, attempts):
                    isolate = False
                    crash_streak = 0
                    continue
            crash_streak += 1
            if isolate:
                # Exactly one task was in flight: the crash is its.
                index = batch[0][0]
                if not policy.should_retry(attempts[index]):
                    results[index] = failure_entry(FAILURE_KIND_CRASH)
                    get_registry().counter("engine.quarantined_tasks").inc()
                    del pending[index]
                    isolate = False
                else:
                    get_registry().counter("engine.retries").inc()
                    _trace_retry(evaluator, attempts[index],
                                 "BrokenProcessPool")
                    policy.sleep(attempts[index])
                    attempts[index] += 1
                    pending[index] = strip_fault(pending[index])
            else:
                # Unattributed crash: the round consumed one attempt of
                # every in-flight item (strip spent one-shot faults), but
                # nobody can fairly be charged — isolate the culprit
                # instead.  One shared backoff per crash, not per task:
                # the whole pool died at once.
                for index in sorted(pending):
                    get_registry().counter("engine.retries").inc()
                    _trace_retry(evaluator, attempts[index],
                                 "BrokenProcessPool")
                    pending[index] = strip_fault(pending[index])
                isolate = True
                policy.sleep(min(crash_streak, policy.max_attempts))
        return results

    def _collect_round(self, evaluator, pool, futures, pending, results,
                       attempts) -> bool:
        """Drain one round's futures; ``False`` means the pool broke.

        ``futures`` maps in-flight future -> work index.  With an
        ``eval_timeout``, the watchdog window restarts after every
        completion: a worker is declared hung once *nothing* finishes for
        a full deadline while it is running.
        """
        policy = self.retry_policy
        while futures:
            done, _ = wait(list(futures), timeout=self.eval_timeout,
                           return_when=FIRST_COMPLETED)
            if not done:
                victims = [future for future in futures if future.running()]
                if not victims:
                    # Nothing running and nothing finishing: the pool lost
                    # its workers without marking itself broken yet.
                    self._note_broken(evaluator, pool)
                    return False
                for future in victims:
                    index = futures.pop(future)
                    results[index] = failure_entry(FAILURE_KIND_TIMEOUT)
                    get_registry().counter("engine.eval_timeouts").inc()
                    del pending[index]
                # A hung worker cannot be cancelled — kill its pool.  Tasks
                # still queued behind it are innocent: they stay pending
                # for the next round without an attempt charge.
                self._discard_pool(evaluator, pool, kind=FAILURE_KIND_TIMEOUT)
                return True
            broken = False
            for future in done:
                index = futures.pop(future)
                try:
                    entry = future.result()
                except (BrokenProcessPool, CancelledError):
                    # The pool died under this future; leave its task
                    # pending — the caller strips spent faults and
                    # isolates the culprit before resubmitting.
                    broken = True
                except TRANSIENT_ERROR_TYPES as error:
                    # Raised inside the worker — the pool is intact, so
                    # retry (or quarantine) just this task.
                    if not policy.should_retry(attempts[index], error):
                        results[index] = failure_entry(FAILURE_KIND_CRASH)
                        get_registry().counter("engine.quarantined_tasks").inc()
                        del pending[index]
                        continue
                    get_registry().counter("engine.retries").inc()
                    _trace_retry(evaluator, attempts[index],
                                 type(error).__name__)
                    policy.sleep(attempts[index])
                    attempts[index] += 1
                    pending[index] = strip_fault(pending[index])
                    try:
                        futures[pool.submit(_evaluate_in_worker,
                                            pending[index])] = index
                    except BrokenProcessPool:
                        broken = True
                else:
                    results[index] = entry
                    del pending[index]
            if broken:
                self._note_broken(evaluator, pool)
                return False
        return True

    def wait_any(self, futures) -> None:
        # Unwrap the recovery wrappers and bound the wait by the nearest
        # evaluation deadline, so a hung worker can never block the driver:
        # when the deadline passes with nothing done, the expired wrapper
        # reports done() and resolves to its timeout entry on result().
        pending = [future for future in futures if not future.done()]
        if not pending:
            return
        timeout = None
        inner = []
        for future in pending:
            if isinstance(future, _RecoveringEvalFuture):
                remaining = future._remaining()
                if remaining is not None:
                    timeout = (remaining if timeout is None
                               else min(timeout, remaining))
                inner.append(future._inner)
            else:
                inner.append(future)
        if timeout is not None:
            timeout = max(0.0, timeout)
        wait(inner, timeout=timeout, return_when=FIRST_COMPLETED)

    def close(self) -> None:
        # cancel_futures drops queued-but-unstarted work so shutdown joins
        # the workers promptly instead of draining a dead search's backlog;
        # wait=True then reaps every worker process (no orphans), even when
        # a budget interrupted the owning search mid-flight.
        with self._lock:
            pools = list(self._eval_pools.values())
            self._eval_pools = OrderedDict()
            submit_pool, self._submit_pool = self._submit_pool, None
        for pool in pools:
            pool.shutdown(wait=True, cancel_futures=True)
        if submit_pool is not None:
            submit_pool.shutdown(wait=True, cancel_futures=True)


#: backends keyed by their registry name; "remote" lives in
#: :mod:`repro.engine.remote` and is resolved lazily by make_backend
#: (that package imports this module, so eager registration would be a
#: circular import)
BACKEND_CLASSES: dict[str, type[ExecutionBackend]] = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}

BACKEND_NAMES: tuple[str, ...] = tuple(BACKEND_CLASSES) + ("remote",)


def make_backend(backend, *, n_workers: int | None = None,
                 eval_timeout: float | None = None,
                 retry_policy: RetryPolicy | None = None,
                 remote_coordinator: str | None = None,
                 worker_timeout: float | None = None) -> ExecutionBackend:
    """Resolve a backend name (or pass through an instance).

    On an instance pass-through, ``eval_timeout`` / ``retry_policy`` are
    applied only when given explicitly, so a pre-configured backend keeps
    its settings.  ``remote_coordinator`` / ``worker_timeout`` configure
    the ``"remote"`` backend and are rejected for any other name —
    silently ignoring them would hide a misconfigured deployment.
    """
    if isinstance(backend, ExecutionBackend):
        if eval_timeout is not None:
            backend.eval_timeout = _validate_eval_timeout(eval_timeout)
        if retry_policy is not None:
            backend.retry_policy = retry_policy
        return backend
    if backend == "remote":
        from repro.engine.remote import RemoteBackend

        return RemoteBackend(n_workers=n_workers, eval_timeout=eval_timeout,
                             retry_policy=retry_policy,
                             coordinator=remote_coordinator,
                             worker_timeout=worker_timeout)
    if remote_coordinator is not None or worker_timeout is not None:
        raise ValidationError(
            f"remote_coordinator/worker_timeout only apply to the "
            f"'remote' backend, not {backend!r}"
        )
    if backend not in BACKEND_CLASSES:
        raise UnknownComponentError(
            f"Unknown execution backend {backend!r}. "
            f"Known backends: {sorted(BACKEND_NAMES)}"
        )
    return BACKEND_CLASSES[backend](n_workers=n_workers,
                                    eval_timeout=eval_timeout,
                                    retry_policy=retry_policy)
