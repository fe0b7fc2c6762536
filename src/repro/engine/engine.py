"""The execution engine: batch evaluation with pluggable backends.

:class:`ExecutionEngine` sits between callers that produce batches of
independent :class:`~repro.engine.tasks.EvalTask` objects (the evaluator's
``evaluate_many``, the search framework's batched proposal loop, the
experiment runner's grid fan-out) and an
:class:`~repro.engine.backends.ExecutionBackend` that actually executes
them.  For every batch :meth:`ExecutionEngine.run`

1. answers cached tasks straight from the evaluator's memoization cache,
2. deduplicates the remaining tasks by cache key so each unique
   ``(pipeline spec, fidelity)`` is evaluated exactly once,
3. submits the unique work longest pipeline first through
   ``backend.submit_evaluation``, keeping at most ``backend.n_workers``
   evaluations in flight and refilling a slot as each one completes,
4. merges the results back into the evaluator's cache in one batch — both
   the in-memory LRU and, when the evaluator has a ``cache_dir``, the
   persistent cross-run cache (one append per shard), and
5. returns trial records in the original task order.

The futures layer (:meth:`ExecutionEngine.submit_task` /
:meth:`ExecutionEngine.as_completed`) dispatches through the same
``submit_evaluation``, so batches and the completion-driven search loop
share one dispatch path and one recovery rule (see
:mod:`repro.engine.backends`).

Determinism: results are merged in submission order, whatever order they
complete in, and the evaluator derives every low-fidelity subsample seed
from the task itself (seed, pipeline spec, fidelity) rather than from a
shared RNG, so every backend produces bit-for-bit identical results.
"""

from __future__ import annotations

import time
import weakref

from repro.core.result import TrialRecord
from repro.engine.backends import ExecutionBackend, make_backend
from repro.engine.tasks import EvalTask
from repro.telemetry.metrics import get_registry


class PendingTask:
    """One submitted evaluation task, resolving to a :class:`TrialRecord`.

    Created by :meth:`ExecutionEngine.submit_task`; comes in three shapes:

    * *resolved at submit* — the evaluator's cache already held the entry,
      so the record is available immediately and no work was dispatched;
    * *primary* — owns the backend future actually computing the entry;
    * *alias* — shares a primary's in-flight future (the completion-driven
      analogue of an in-batch duplicate under :meth:`ExecutionEngine.run`).

    ``ready()`` never blocks; :meth:`ExecutionEngine.resolve_task` blocks
    until the record is available and performs the per-completion cache
    merge-back.  ``cancel()`` succeeds only for work that never produced a
    result: aliases always cancel (they dispatched nothing of their own),
    primaries cancel iff their backend future does — which is what lets a
    budget interruption refund exactly the never-dispatched tasks.
    """

    __slots__ = ("task", "key", "future", "_primary", "_entry", "_record",
                 "_cancelled")

    def __init__(self, task: EvalTask, key, *, future=None, primary=None,
                 entry=None) -> None:
        self.task = task
        self.key = key
        self.future = future
        self._primary = primary
        self._entry = entry
        self._record: TrialRecord | None = None
        self._cancelled = False

    def ready(self) -> bool:
        """Whether resolving would return without blocking."""
        if self._record is not None or self._entry is not None:
            return True
        if self._primary is not None:
            return self._primary.ready()
        return self.future is not None and self.future.done()

    def cancel(self) -> bool:
        """Cancel work that has not produced a result yet; True on success."""
        if self._cancelled:
            return True
        if self._record is not None or self._entry is not None:
            return False
        if self._primary is not None:
            # An alias never dispatched its own work: dropping it leaves the
            # primary's future untouched and is always safe.
            self._cancelled = True
            return True
        if self.future is not None and self.future.cancel():
            self._cancelled = True
            return True
        return False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:
        state = ("cancelled" if self._cancelled
                 else "done" if self.ready() else "pending")
        return f"PendingTask({self.task.pipeline!r}, {state})"


class ExecutionEngine:
    """Dispatch batches of evaluation tasks to a pluggable backend.

    Parameters
    ----------
    backend:
        Backend name (``"serial"``, ``"thread"``, ``"process"``) or an
        :class:`~repro.engine.backends.ExecutionBackend` instance.
    n_workers:
        Worker count for named backends; ``None`` or ``-1`` uses one
        worker per CPU core.
    eval_timeout:
        Optional per-evaluation deadline in seconds (see
        :class:`~repro.engine.backends.ExecutionBackend`).
    retry_policy:
        Optional :class:`~repro.engine.faults.RetryPolicy` for transient
        worker failures.
    """

    def __init__(self, backend: str | ExecutionBackend = "serial", *,
                 n_workers: int | None = None,
                 eval_timeout: float | None = None,
                 retry_policy=None,
                 remote_coordinator: str | None = None,
                 worker_timeout: float | None = None) -> None:
        self.backend = make_backend(backend, n_workers=n_workers,
                                    eval_timeout=eval_timeout,
                                    retry_policy=retry_policy,
                                    remote_coordinator=remote_coordinator,
                                    worker_timeout=worker_timeout)
        #: primaries still computing, keyed by (evaluator id, cache key) so a
        #: duplicate submission aliases the in-flight future instead of
        #: re-dispatching the same work.  Each entry carries a weakref to
        #: its evaluator: abandoned entries whose evaluator died must never
        #: alias a later evaluator that CPython allocated at the same id.
        self._inflight: dict = {}
        #: every live backend future, for close()-time cancellation; weak so
        #: consumed futures vanish on their own
        self._futures: "weakref.WeakSet" = weakref.WeakSet()

    @property
    def n_workers(self) -> int:
        return self.backend.n_workers

    # ------------------------------------------------------------- generic
    def map(self, fn, items) -> list:
        """Map ``fn`` over ``items`` on the backend, preserving input order.

        Used for coarse-grained fan-out (e.g. whole experiment-grid cells);
        with a process backend ``fn`` must be a picklable module-level
        function.
        """
        return self.backend.map(fn, list(items))

    # ---------------------------------------------------------- evaluation
    def run(self, evaluator, tasks) -> list[TrialRecord]:
        """Evaluate a batch of tasks and return records in task order.

        Cached tasks never reach the backend; duplicate uncached tasks
        within the batch are evaluated once and fanned back out (matching
        what the evaluator's cache would have done serially).  When the
        evaluator's cache is disabled every task is executed individually,
        mirroring serial semantics.
        """
        tasks = [task if isinstance(task, EvalTask) else EvalTask(task)
                 for task in tasks]
        records: list[TrialRecord | None] = [None] * len(tasks)

        # Partition into cache hits and groups of identical pending work.
        pending: dict = {}
        for index, task in enumerate(tasks):
            key = evaluator.cache_key(task.pipeline, task.fidelity)
            if evaluator.cache_enabled and key in pending:
                # A duplicate of work already queued in this batch: it will
                # be served by that evaluation's entry, which serially would
                # have been a cache hit — count it as one.
                pending[key].append(index)
                evaluator.cache_hits += 1
                continue
            entry = evaluator.cache_lookup(key)
            if entry is not None:
                records[index] = evaluator.record_from_entry(task, entry)
            elif evaluator.cache_enabled:
                pending[key] = [index]
            else:
                # No cache: no dedup either — every task runs, like serial.
                pending[(key, index)] = [index]

        if pending:
            groups = list(pending.values())
            tracer = getattr(evaluator, "tracer", None)
            batch_wall = time.time() if tracer is not None else 0.0
            batch_start = time.perf_counter()
            inflight = get_registry().gauge("engine.inflight")
            inflight.inc(len(groups))
            # Longest-processing-time-first dispatch: parallel waves finish
            # at the speed of their slowest member, so a long pipeline
            # landing last tail-blocks the whole batch.  Pipeline length is
            # the natural cost proxy (each step adds a fit+transform pass
            # over the data); ties keep submission order, and each result
            # lands at its group's index, so every downstream consumer —
            # records, cache merge-back — is oblivious to the reordering.
            # Serial backends skip the sort: submission order IS the
            # deterministic reference order.  At most n_workers are in
            # flight (a deadline runs from submission, so nothing waits in
            # a pool queue on its own clock); a completion frees a slot.
            order = list(range(len(groups)))
            if len(order) > 1 and self.backend.n_workers > 1:
                order.sort(key=lambda i: (-len(tasks[groups[i][0]].pipeline), i))
            order.reverse()  # pop() from the end dispatches in LPT order
            entries: list = [None] * len(groups)
            futures: dict = {}
            try:
                while order or futures:
                    while order and len(futures) < self.backend.n_workers:
                        first = tasks[groups[order[-1]][0]]
                        futures[order.pop()] = self.backend.submit_evaluation(
                            evaluator, (first.pipeline, first.fidelity))
                    done = [i for i, future in futures.items() if future.done()]
                    if not done:
                        self.backend.wait_any(list(futures.values()))
                    for i in done:
                        entries[i] = evaluator.absorb_worker_counters(
                            futures.pop(i).result())
            finally:
                inflight.dec(len(groups))
            if tracer is not None:
                tracer.emit("engine.batch", ts=batch_wall,
                            dur=time.perf_counter() - batch_start,
                            tasks=len(tasks), dispatched=len(groups),
                            backend=type(self.backend).__name__)
            merged = []
            for group, entry in zip(groups, entries):
                first = tasks[group[0]]
                merged.append(
                    (evaluator.cache_key(first.pipeline, first.fidelity), entry)
                )
                evaluator.n_evaluations += 1
                for index in group:
                    records[index] = evaluator.record_from_entry(tasks[index], entry)
            # One merge-back for the whole batch: results computed by
            # thread/process workers land in the evaluator's LRU and — when
            # a cache_dir is set — in the persistent cross-run cache, one
            # append per touched shard instead of one write per task.
            evaluator.cache_store_batch(merged)

        return records

    # ------------------------------------------------------------- futures
    def submit_task(self, evaluator, task) -> PendingTask:
        """Submit one task for evaluation; returns a :class:`PendingTask`.

        Cache-aware, like :meth:`run` is for batches: a task whose entry
        the evaluator's cache already holds resolves immediately without
        touching the backend, and a task identical to one still in flight
        aliases that future instead of re-dispatching the work.
        """
        task = task if isinstance(task, EvalTask) else EvalTask(task)
        key = evaluator.cache_key(task.pipeline, task.fidelity)
        if evaluator.cache_enabled:
            # Probe in-flight work before the cache: an aliased duplicate
            # counts one hit at resolve time (like an in-batch duplicate
            # under run()) and must not also record a lookup miss here.
            primary = self._inflight_primary(evaluator, key)
            if primary is not None and not primary.cancelled:
                return PendingTask(task, key, future=primary.future,
                                   primary=primary)
            entry = evaluator.cache_lookup(key)
            if entry is not None:
                return PendingTask(task, key, entry=entry)
        future = self.backend.submit_evaluation(
            evaluator, (task.pipeline, task.fidelity)
        )
        # Only primaries count toward in-flight depth: aliases and
        # cache-resolved tasks never dispatched work of their own.
        get_registry().gauge("engine.inflight").inc()
        pending = PendingTask(task, key, future=future)
        if evaluator.cache_enabled:
            self._inflight[(id(evaluator), key)] = (weakref.ref(evaluator),
                                                    pending)
        self._futures.add(future)
        return pending

    def _inflight_primary(self, evaluator, key) -> PendingTask | None:
        """The in-flight primary for ``(evaluator, key)``, if still valid.

        A stale entry — its evaluator garbage-collected, possibly with the
        id re-used by a new evaluator — is purged instead of aliased, so an
        abandoned submission can never leak another evaluator's result.
        """
        entry = self._inflight.get((id(evaluator), key))
        if entry is None:
            return None
        owner, primary = entry
        if owner() is not evaluator:
            del self._inflight[(id(evaluator), key)]
            return None
        return primary

    def submit_tasks(self, evaluator, tasks) -> list[PendingTask]:
        """Submit a batch of tasks; returns pending handles in task order."""
        return [self.submit_task(evaluator, task) for task in tasks]

    def resolve_task(self, evaluator, pending: PendingTask) -> TrialRecord:
        """Block until ``pending`` completes and return its trial record.

        This is where the per-completion cache merge-back happens: the
        entry computed by the worker lands in the evaluator's LRU and —
        when a ``cache_dir`` is set — the persistent disk cache the moment
        it completes, not at the end of a batch.
        """
        if pending._record is not None:
            return pending._record
        if pending._entry is None:
            if pending._primary is not None:
                self.resolve_task(evaluator, pending._primary)
                pending._entry = pending._primary._entry
                # The duplicate would have been a cache hit under serial
                # execution; keep the counters comparable.
                evaluator.cache_hits += 1
            else:
                entry = evaluator.absorb_worker_counters(
                    pending.future.result()
                )
                get_registry().gauge("engine.inflight").dec()
                evaluator.n_evaluations += 1
                evaluator.cache_store(pending.key, entry)
                self._inflight.pop((id(evaluator), pending.key), None)
                pending._entry = entry
        pending._record = evaluator.record_from_entry(pending.task, pending._entry)
        return pending._record

    def cancel_task(self, evaluator, pending: PendingTask) -> bool:
        """Cancel a pending task if its work never ran; True on success."""
        if not pending.cancel():
            return False
        if pending._primary is None:
            # A cancelled primary's dispatched work will never resolve:
            # release its in-flight slot here instead.
            get_registry().gauge("engine.inflight").dec()
            if self._inflight_primary(evaluator, pending.key) is pending:
                del self._inflight[(id(evaluator), pending.key)]
        return True

    def wait_any(self, pending) -> None:
        """Block until at least one of ``pending`` is ready to resolve."""
        pending = [item for item in pending if not item.ready()]
        futures = [item.future for item in pending if item.future is not None]
        if futures:
            self.backend.wait_any(futures)

    def as_completed(self, evaluator, pending):
        """Yield ``(index, record)`` pairs as submitted tasks complete.

        ``index`` is the position in ``pending``.  On the serial backend
        completions arrive strictly in submission order with values
        identical to :meth:`run`; on thread/process backends cache-resolved
        tasks are yielded first (in submission order) and the rest as their
        futures finish, ties broken by submission order.
        """
        pending = list(pending)
        if self.backend.ordered_completion:
            for index, item in enumerate(pending):
                yield index, self.resolve_task(evaluator, item)
            return
        remaining = dict(enumerate(pending))
        while remaining:
            ready = [index for index, item in remaining.items() if item.ready()]
            if not ready:
                self.wait_any(remaining.values())
                continue
            for index in ready:
                yield index, self.resolve_task(evaluator, remaining.pop(index))

    def close(self) -> None:
        """Cancel in-flight futures and release the backend's pooled workers.

        Safe to call twice.  Futures that never started are cancelled (so a
        search cut short by a budget does not leave its backlog running) and
        pool shutdown waits for the workers, so no worker process is ever
        orphaned.  Backends also release their pools at interpreter exit, so
        calling this is only needed to free workers eagerly mid-process.
        """
        for future in list(self._futures):
            future.cancel()
        self._futures.clear()
        self._inflight.clear()
        self.backend.close()

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ExecutionEngine(backend={self.backend!r})"


def resolve_backend_name(n_jobs: int | None = None,
                         backend: str | None = None) -> str:
    """The single defaulting rule for CLI-style ``n_jobs``/``backend`` options.

    An unset backend (``None``) resolves to ``"process"`` when ``n_jobs``
    asks for parallelism, because pipeline evaluation is CPU-bound, and to
    ``"serial"`` otherwise.  An explicitly chosen backend — including
    ``"serial"`` — is returned unchanged.
    """
    if backend is not None:
        return backend
    return "process" if n_jobs not in (None, 1) else "serial"


def resolve_engine(n_jobs: int | None = None,
                   backend: str | ExecutionBackend | None = None, *,
                   eval_timeout: float | None = None,
                   retry_policy=None,
                   remote_coordinator: str | None = None,
                   worker_timeout: float | None = None
                   ) -> ExecutionEngine | None:
    """Build an engine from CLI-style ``n_jobs`` / ``backend`` options.

    Returns ``None`` (meaning: plain serial evaluation, no engine overhead)
    when the options resolve to single-worker serial execution (see
    :func:`resolve_backend_name`).  ``n_jobs=-1`` means one worker per CPU
    core.  ``eval_timeout`` / ``retry_policy`` configure the backend's
    fault tolerance (ignored on the engineless serial path, which has no
    pool to watch — use ``ExecutionContext.build_engine`` to force an
    engine when a deadline matters).  ``remote_coordinator`` /
    ``worker_timeout`` are forwarded only when the resolved backend is
    ``"remote"``: a globally exported ``REPRO_REMOTE_COORDINATOR`` must
    not break contexts that run serial or process backends.
    """
    if isinstance(backend, ExecutionBackend):
        return ExecutionEngine(backend, eval_timeout=eval_timeout,
                               retry_policy=retry_policy)
    name = resolve_backend_name(n_jobs, backend)
    if name == "serial":
        return None
    n_workers = None if n_jobs in (None, -1) else n_jobs
    if name != "remote":
        remote_coordinator = None
        worker_timeout = None
    return ExecutionEngine(name, n_workers=n_workers,
                           eval_timeout=eval_timeout,
                           retry_policy=retry_policy,
                           remote_coordinator=remote_coordinator,
                           worker_timeout=worker_timeout)
