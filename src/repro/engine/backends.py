"""Pluggable execution backends: serial, thread-pool and process-pool.

A backend does two things.  ``map`` applies a function over a list of
items and returns the results in input order (coarse fan-out such as
experiment-grid cells).  ``submit`` / ``submit_evaluation`` /
``wait_any`` hand out one future per task.  Every evaluation goes through
``submit_evaluation`` — the engine's batches and its per-completion
futures alike — so there is one dispatch path.  Results stay bit-for-bit
deterministic on every backend because the engine submits in a stable
order and merges results positionally, never by completion order.

The serial backend's futures are lazy: the work runs in the calling thread
the first time a result is requested, so completions arrive strictly in
submission order (the deterministic reference) and a future that is
cancelled before consumption costs nothing — which is what lets a budget
interruption refund never-dispatched tasks exactly.

``submit_evaluation`` takes a
:class:`~repro.core.evaluation.PipelineEvaluator` and one ``(pipeline,
fidelity)`` work item (or a chaos
:class:`~repro.engine.faults.FaultInjection` wrapper) and returns a future
for the raw cache entry.  Every evaluation runs under the backend's
:class:`~repro.engine.faults.RetryPolicy` and optional ``eval_timeout``:

* The serial and thread backends run ``_guarded_evaluation``: retries in
  process and a soft deadline.  They have no pool to lose and cannot
  interrupt in-flight work.
* The process backend, and the remote backend in
  :mod:`repro.engine.remote.backend`, wrap each evaluation in one
  :class:`_RecoveringEvalFuture`.  It talks to a three-call transport:
  submit an item (shared or alone), report it lost, expire it.

The recovering future's attribution rule:

* An error raised inside a live worker is charged to its task: one of
  ``max_attempts``.  A task out of attempts is quarantined as a
  ``failure_kind="worker_crash"`` entry.
* Losing a pool or a worker charges nobody.  The lost task is
  re-dispatched alone: in a private one-worker pool, or on a remote worker
  that holds no other lease.
* A loss while the task runs alone is charged to it.

So each task gets at most one free loss, then ``max_attempts`` charged
ones, and an innocent task is never quarantined.  The price is that a
poison task's first shared loss is free: a sticky crash on a worker
holding several leases costs one more worker, and remote workers are not
respawned.  A deadline is measured from each dispatch; an evaluation
still running when it passes has its pool killed (or its remote lease
forgotten) and resolves as ``failure_kind="timeout"``, and siblings lost
with that pool are re-dispatched uncharged.  ``wait_any`` is bounded by
the nearest deadline, so a hung worker never blocks a caller past it.

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
    BrokenExecutor,
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
    EvaluationTimeoutError,
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
    """Tear down a broken or stalled process pool and reap its workers.

    ``shutdown`` alone would wait for the workers, and a hung worker never
    exits — so terminate the processes first; the join that follows then
    returns promptly and no worker outlives the pool.  ``_processes`` is a
    private executor attribute; when absent (already-reaped pool, test
    double) the plain shutdown still drops the queue.
    """
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        process.terminate()
    pool.shutdown(wait=True, cancel_futures=True)


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
                    # Crash observed without a pool involved: still
                    # surfaced to /healthz, same shape as a pool loss.
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
        """Dispatch one ``(pipeline, fidelity)`` evaluation; return a future.

        The only way an evaluation reaches a backend.
        """
        return self.submit(
            lambda work: self._guarded_evaluation(evaluator, work), item
        )

    def wait_any(self, futures) -> None:
        """Block until one of ``futures`` is done or a deadline passes.

        Recovering futures are unwrapped to their current attempt and the
        wait is bounded by the nearest evaluation deadline: when it passes
        with nothing done, the overdue future reports ``done()`` and
        resolves to its timeout entry.
        """
        timeout = None
        inner = []
        for future in futures:
            if future.done():
                return
            if isinstance(future, _RecoveringEvalFuture):
                remaining = future._remaining()
                if remaining is not None:
                    timeout = (remaining if timeout is None
                               else min(timeout, remaining))
                future = future._inner
            inner.append(future)
        if inner:
            wait(inner, timeout=None if timeout is None else max(0.0, timeout),
                 return_when=FIRST_COMPLETED)

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


#: how a lost pool or worker surfaces on an evaluation future: the pool
#: broke or was torn down under it, or its remote worker died
_LOSS_TYPES = (CancelledError, BrokenExecutor, WorkerCrashError)


class _RecoveringEvalFuture:
    """Future for one evaluation that survives losing its pool or worker.

    Wraps the transport future of the current attempt and owns the task's
    retry, isolation and deadline state, applying the attribution rule in
    the module docstring.  :meth:`result` never raises on an
    infrastructure failure: a lost, crashed or hung evaluation resolves to
    a retried attempt or a ``failure_kind`` entry.  The transport (the
    process or remote backend) implements three calls, each taking the
    evaluator and the opaque ``token`` of one dispatch:

    * ``_dispatch(evaluator, item, alone) -> (token, future)`` submits an
      item, shared or alone;
    * ``_lose(evaluator, token)`` reports a lost item;
    * ``_expire(evaluator, token)`` expires an overdue item.
    """

    __slots__ = ("_transport", "_evaluator", "_item", "_token", "_inner",
                 "_attempt", "_alone", "_deadline", "_entry",
                 "_user_cancelled", "__weakref__")

    def __init__(self, transport, evaluator, item) -> None:
        self._transport = transport
        self._evaluator = evaluator
        self._item = item
        self._attempt = 1
        self._alone = False
        self._entry = None
        self._user_cancelled = False
        self._dispatch()

    def _dispatch(self) -> None:
        self._token, self._inner = self._transport._dispatch(
            self._evaluator, self._item, self._alone)
        timeout = self._transport.eval_timeout
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
            # pool torn down under us is a loss, but a cancelled task must
            # not silently re-run.
            self._user_cancelled = True
        return cancelled

    def cancelled(self) -> bool:
        return self._user_cancelled

    def running(self) -> bool:
        return self._entry is None and self._inner.running()

    def result(self, timeout=None):
        # ``timeout`` mirrors the Future interface; the evaluation deadline
        # (eval_timeout) is what actually bounds this call.
        while self._entry is None:
            remaining = self._remaining()
            # A finished evaluation read after its deadline still counts:
            # only one still running when the deadline passes has timed out.
            if remaining is not None and remaining <= 0 \
                    and not self._inner.done():
                self._time_out()
                continue
            try:
                self._entry = self._inner.result(timeout=remaining)
            except (FuturesTimeoutError, EvaluationTimeoutError):
                # the deadline passed here, or a remote worker reported
                # its own soft deadline blown
                self._time_out()
            except _LOSS_TYPES as error:
                if self._user_cancelled:
                    raise
                self._transport._lose(self._evaluator, self._token)
                # Shared: nobody can be blamed, so run alone from now on.
                # Alone: the loss is this task's own.
                self._retry(error, charge=self._alone)
            except TRANSIENT_ERROR_TYPES as error:
                # raised inside a live worker: the task's own failure
                self._retry(error, charge=True)
        return self._entry

    def _time_out(self) -> None:
        get_registry().counter("engine.eval_timeouts").inc()
        self._transport._expire(self._evaluator, self._token)
        self._entry = failure_entry(FAILURE_KIND_TIMEOUT)

    def _retry(self, error, *, charge: bool) -> None:
        """Re-dispatch after a failed attempt, or quarantine the task."""
        policy = self._transport.retry_policy
        if charge and not policy.should_retry(self._attempt):
            get_registry().counter("engine.quarantined_tasks").inc()
            self._entry = failure_entry(FAILURE_KIND_CRASH)
            return
        get_registry().counter("engine.retries").inc()
        _trace_retry(self._evaluator, self._attempt, type(error).__name__)
        policy.sleep(self._attempt)
        if charge:
            self._attempt += 1
        else:
            self._alone = True
        self._item = strip_fault(self._item)
        self._dispatch()


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

    Each evaluation is a :class:`_RecoveringEvalFuture` over this
    backend's transport.  A broken or overdue shared pool is dropped from
    the LRU, killed and rebuilt on the next dispatch; a task dispatched
    *alone* gets a private one-worker pool.  ``close`` reaps both kinds.
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
        #: one-shot pool -> the future of the one item it runs
        self._private_pools: dict = {}
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
        """Drop ``pool`` (shared or private, if still held) and kill it.

        Many observers can report the same dead pool — every in-flight
        future raises ``BrokenProcessPool`` at once — so the removal is
        compare-and-delete under the lock: exactly one caller per pool
        instance gets ``True``, which is what keeps crash *events* (not
        crash observers) countable.
        """
        key = evaluator.fingerprint()
        with self._lock:
            if self._eval_pools.get(key) is pool:
                del self._eval_pools[key]
                evicted = True
            else:
                evicted = self._private_pools.pop(pool, None) is not None
            if evicted:
                self.last_crash = {"kind": kind, "time": time.time(),
                                   "fingerprint": key[:12]}
        if evicted:
            _kill_pool(pool)
        return evicted

    # ---------------------------------------------------------- transport
    def _dispatch(self, evaluator, item, alone: bool):
        """Submit one item; returns ``(pool, future)``.

        Shared items go to the fingerprint's warm pool, rebuilt when it is
        broken; a pool that keeps breaking faster than it can accept work
        raises :class:`WorkerCrashError` (under ``repro serve`` that fails
        only the owning session).  An item dispatched alone gets a private
        one-worker pool, reaped by the first dispatch after its item is
        done — unless the pool broke: its owner's :meth:`_lose` kills it
        and counts the crash.
        """
        with self._lock:
            finished = [pool for pool, future in self._private_pools.items()
                        if future.done() and (future.cancelled() or not
                            isinstance(future.exception(), BrokenExecutor))]
            for pool in finished:
                del self._private_pools[pool]
        for pool in finished:
            pool.shutdown(wait=True)
        if alone:
            pool = ProcessPoolExecutor(max_workers=1,
                                       initializer=_init_evaluation_worker,
                                       initargs=(evaluator,))
            future = pool.submit(_evaluate_in_worker, item)
            with self._lock:
                self._private_pools[pool] = future
            return pool, future
        attempt = 1
        while True:
            pool = self._evaluation_pool(evaluator)
            try:
                return pool, pool.submit(_evaluate_in_worker, item)
            except BrokenProcessPool as error:
                self._lose(evaluator, pool)
                if attempt >= self.retry_policy.max_attempts:
                    raise WorkerCrashError(
                        f"evaluation pool for fingerprint "
                        f"{evaluator.fingerprint()[:12]!r} kept breaking "
                        f"and could not be rebuilt"
                    ) from error
                attempt += 1

    def _lose(self, evaluator, pool) -> None:
        """Record one worker-crash event for a broken pool."""
        if self._discard_pool(evaluator, pool, kind=FAILURE_KIND_CRASH):
            get_registry().counter("engine.worker_crashes").inc()

    def _expire(self, evaluator, pool) -> None:
        """A hung worker cannot be cancelled: kill its pool."""
        self._discard_pool(evaluator, pool, kind=FAILURE_KIND_TIMEOUT)

    def close(self) -> None:
        # cancel_futures drops queued-but-unstarted work so shutdown joins
        # the workers promptly instead of draining a dead search's backlog;
        # wait=True then reaps every worker process (no orphans), even when
        # a budget interrupted the owning search mid-flight.
        with self._lock:
            pools = [*self._eval_pools.values(), *self._private_pools]
            self._eval_pools = OrderedDict()
            self._private_pools = {}
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
