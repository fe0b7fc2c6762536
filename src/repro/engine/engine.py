"""The execution engine: cache-aware evaluation over pluggable backends.

:class:`ExecutionEngine` sits between callers that produce
:class:`~repro.engine.tasks.EvalTask` objects and an
:class:`~repro.engine.backends.ExecutionBackend` that executes them.  Its
one scheduler is the futures layer:

1. :meth:`ExecutionEngine.submit_task` answers a task from the evaluator's
   caches, aliases it to an identical task in flight, or dispatches it
   through ``backend.submit_evaluation`` as a *primary* — the one place
   an evaluation is dispatched, and so the one place a chaos
   :class:`~repro.engine.chaos.FaultPlan` attaches its faults;
2. :meth:`ExecutionEngine.resolve_task` returns the record and merges a
   primary's entry into the evaluator's memo and, with a ``cache_dir``,
   the persistent cross-run cache (one append per primary).

The completion-driven schedule of the search loop
(:class:`~repro.search.session.SearchSession`) calls these directly.  Barrier waves call :meth:`ExecutionEngine.run`, a
bounded window over them: longest pipeline first, at most
``backend.n_workers`` primaries in flight, resolved in task order.

Determinism: a batch resolves in task order, whatever order its work
completes in, and the evaluator derives every low-fidelity subsample seed
from the task itself (seed, pipeline spec, fidelity) rather than from a
shared RNG, so every backend produces bit-for-bit identical results.
"""

from __future__ import annotations

import itertools
import time
import weakref

from repro.core.result import TrialRecord
from repro.engine.backends import ExecutionBackend, make_backend
from repro.engine.chaos import FaultPlan
from repro.engine.tasks import EvalTask
from repro.exceptions import ValidationError
from repro.telemetry.metrics import get_registry


class PendingTask:
    """One submitted evaluation task, resolving to a :class:`TrialRecord`.

    Created by :meth:`ExecutionEngine.submit_task`; comes in three shapes:

    * *resolved at submit* — the evaluator's cache already held the entry,
      so the record is available immediately and no work was dispatched;
    * *primary* — owns the backend future actually computing the entry,
      and holds an in-flight slot until it is resolved or cancelled;
    * *alias* — a duplicate that shares a primary's in-flight future.

    ``ready()`` never blocks; :meth:`ExecutionEngine.resolve_task` blocks
    until the record is available and performs the per-completion cache
    merge-back.  ``cancel()`` succeeds only for work that never produced a
    result: aliases always cancel (they dispatched nothing of their own),
    primaries cancel iff their backend future does — which is what lets a
    budget interruption refund exactly the never-dispatched tasks.
    """

    __slots__ = ("task", "key", "future", "_primary", "_entry", "_record",
                 "_cancelled", "_holds_slot")

    def __init__(self, task: EvalTask, key, *, future=None, primary=None,
                 entry=None) -> None:
        self.task = task
        self.key = key
        self.future = future
        self._primary = primary
        self._entry = entry
        self._record: TrialRecord | None = None
        self._cancelled = False
        self._holds_slot = future is not None and primary is None

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
        Backend name (``"serial"``, ``"process"``, ``"remote"``) or an
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
    chaos:
        Optional :class:`~repro.engine.chaos.FaultPlan`, or its spec
        string (``"crash@1,delay@4:30"``): deterministic fault injection
        for testing recovery paths.  Primaries are numbered from 0 in
        dispatch order, and each carries the fault the plan names for
        its number; recovery re-dispatches take no number.
    """

    def __init__(self, backend: str | ExecutionBackend = "serial", *,
                 n_workers: int | None = None,
                 eval_timeout: float | None = None,
                 retry_policy=None,
                 remote_coordinator: str | None = None,
                 worker_timeout: float | None = None,
                 chaos: FaultPlan | str | None = None) -> None:
        # Refuse a bad plan before a backend exists: a remote backend binds
        # its coordinator at construction and would be left open.
        if isinstance(chaos, str):
            chaos = FaultPlan.from_spec(chaos)
        elif chaos is not None and not isinstance(chaos, FaultPlan):
            raise ValidationError(
                f"chaos is a FaultPlan or its spec string, "
                f"got {type(chaos).__name__}"
            )
        self.backend = make_backend(backend, n_workers=n_workers,
                                    eval_timeout=eval_timeout,
                                    retry_policy=retry_policy,
                                    remote_coordinator=remote_coordinator,
                                    worker_timeout=worker_timeout)
        #: the fault plan applied at dispatch, or ``None`` for no faults
        self.chaos = chaos
        #: dispatch numbers of primaries: ``next`` on a count is one C call
        #: under the GIL, so sessions sharing this engine never share one
        self._dispatch_index = itertools.count()
        #: primaries not yet resolved, keyed by (evaluator id, cache key) so
        #: a duplicate submission aliases the in-flight future instead of
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

    # ---------------------------------------------------------- evaluation
    def run(self, evaluator, tasks) -> list[TrialRecord]:
        """Evaluate a batch of tasks and return records in task order.

        A bounded window over :meth:`submit_task`: at most
        ``backend.n_workers`` primaries are in flight, and every task
        resolves through :meth:`resolve_task` in task order, so the cache
        merge-back and the records follow task order whatever order the
        work completes in.  If the batch raises, its primaries give back
        their in-flight slots.
        """
        tasks = [task if isinstance(task, EvalTask) else EvalTask(task)
                 for task in tasks]
        tracer = getattr(evaluator, "tracer", None)
        batch_wall = time.time() if tracer is not None else 0.0
        batch_start = time.perf_counter()
        # Longest-processing-time-first dispatch: parallel waves finish at
        # the speed of their slowest member, so a long pipeline landing
        # last tail-blocks the whole batch.  Pipeline length is the natural
        # cost proxy (each step adds a fit+transform pass over the data);
        # ties keep submission order, which also makes every duplicate's
        # primary the earlier task.  Serial backends skip the sort:
        # submission order IS the deterministic reference order.
        order = list(range(len(tasks)))
        if len(order) > 1 and self.backend.n_workers > 1:
            order.sort(key=lambda i: (-len(tasks[i].pipeline), i))
        order.reverse()  # pop() from the end submits in dispatch order
        pending: list = [None] * len(tasks)
        window: list[PendingTask] = []
        dispatched = 0
        try:
            while order or window:
                # Capacity is re-read at each refill (the remote fleet is
                # elastic).  A deadline runs from dispatch, so nothing waits
                # in a pool queue on its own clock.
                if order and len(window) < self.backend.n_workers:
                    index = order.pop()
                    handle = pending[index] = self.submit_task(evaluator,
                                                               tasks[index])
                    if handle._holds_slot:
                        window.append(handle)
                        dispatched += 1
                    continue
                # Read each finished result before dispatching more: an
                # overdue attempt gets its pool killed, and a lost pool is
                # discarded, before new work could queue behind it.
                self.wait_any(window)
                for handle in [item for item in window if item.future.done()]:
                    handle.future.result()
                    window.remove(handle)
            records = [self.resolve_task(evaluator, handle)
                       for handle in pending]
        except BaseException:
            for handle in pending:
                if handle is not None:
                    self._release(evaluator, handle)
            raise
        if tracer is not None and dispatched:
            tracer.emit("engine.batch", ts=batch_wall,
                        dur=time.perf_counter() - batch_start,
                        tasks=len(tasks), dispatched=dispatched,
                        backend=type(self.backend).__name__)
        return records

    # ------------------------------------------------------------- futures
    def submit_task(self, evaluator, task) -> PendingTask:
        """Submit one task for evaluation; returns a :class:`PendingTask`.

        Cache-aware: a task whose entry the evaluator's cache already holds
        resolves immediately without touching the backend, and a task
        identical to one still in flight aliases that future instead of
        re-dispatching the work.
        """
        task = task if isinstance(task, EvalTask) else EvalTask(task)
        key = evaluator.cache_key(task.pipeline, task.fidelity)
        # Probe in-flight work before the cache: an aliased duplicate
        # counts one hit at resolve time (as a serial re-evaluation
        # would) and must not also record a lookup miss here.
        primary = self._inflight_primary(evaluator, key)
        if primary is not None and not primary.cancelled:
            return PendingTask(task, key, future=primary.future,
                               primary=primary)
        entry = evaluator.cache_lookup(key)
        if entry is not None:
            return PendingTask(task, key, entry=entry)
        item = (task.pipeline, task.fidelity)
        if self.chaos is not None:
            item = self.chaos.attach(next(self._dispatch_index), item,
                                     self.backend)
        future = self.backend.submit_evaluation(evaluator, item)
        # Only primaries count toward in-flight depth: aliases and
        # cache-resolved tasks never dispatched work of their own.
        get_registry().gauge("engine.inflight").inc()
        pending = PendingTask(task, key, future=future)
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

    def _release(self, evaluator, pending: PendingTask) -> None:
        """Give back a primary's in-flight slot; a no-op after the first call."""
        if not pending._holds_slot:
            return
        pending._holds_slot = False
        get_registry().gauge("engine.inflight").dec()
        if self._inflight_primary(evaluator, pending.key) is pending:
            del self._inflight[(id(evaluator), pending.key)]

    def resolve_task(self, evaluator, pending: PendingTask) -> TrialRecord:
        """Block until ``pending`` completes and return its trial record.

        This is where the per-completion cache merge-back happens: the
        entry computed by the worker lands in the evaluator's memo and —
        when a ``cache_dir`` is set — the persistent disk cache the moment
        it is resolved.  A primary gives back its in-flight slot here even
        when its evaluation raises, so a resubmission runs the work again.
        An alias resolves as if it had been submitted after its primary
        resolved: it shares a memoized entry, but a failure entry (one
        with a ``failure_kind``) is never memoized, so the alias runs its
        own evaluation instead.
        """
        if pending._record is not None:
            return pending._record
        if pending._entry is None:
            primary = pending._primary
            if primary is not None:
                self.resolve_task(evaluator, primary)
                if primary._entry.get("failure_kind") is None:
                    pending._entry = primary._entry
                    # The duplicate would have been a cache hit under
                    # serial execution; keep the counters comparable.
                    evaluator.cache_hits += 1
                else:
                    rerun = self.submit_task(evaluator, pending.task)
                    self.resolve_task(evaluator, rerun)
                    pending._entry = rerun._entry
            else:
                try:
                    entry = evaluator.absorb_worker_counters(
                        pending.future.result()
                    )
                finally:
                    self._release(evaluator, pending)
                evaluator.n_evaluations += 1
                evaluator.cache_store(pending.key, entry)
                pending._entry = entry
        pending._record = evaluator.record_from_entry(pending.task, pending._entry)
        return pending._record

    def cancel_task(self, evaluator, pending: PendingTask) -> bool:
        """Cancel a pending task if its work never ran; True on success."""
        if not pending.cancel():
            return False
        # A cancelled primary's dispatched work will never resolve: give
        # back its in-flight slot here instead (an alias holds none).
        self._release(evaluator, pending)
        return True

    def wait_any(self, pending) -> None:
        """Block until at least one of ``pending`` is ready to resolve.

        Returns at once when one already is.
        """
        futures = []
        for item in pending:
            if item.ready():
                return
            if item.future is not None:
                futures.append(item.future)
        if futures:
            self.backend.wait_any(futures)

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
        # Every unresolved primary is registered in _inflight: give back
        # its slot, by _release's rule, so the gauge reads true after close.
        for _, pending in self._inflight.values():
            if pending._holds_slot:
                pending._holds_slot = False
                get_registry().gauge("engine.inflight").dec()
        self._inflight.clear()
        self.backend.close()

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ExecutionEngine(backend={self.backend!r})"
