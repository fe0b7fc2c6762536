"""The ``"remote"`` execution backend: evaluations over a worker fleet.

:class:`RemoteBackend` is the fourth :class:`ExecutionBackend`.  It owns
an in-process :class:`~repro.engine.remote.coordinator.Coordinator` that
workers (``repro worker`` daemons, possibly on other machines) register
with, and dispatches every evaluation through it.  Recovery is the
process backend's, not a copy of it: each evaluation is the same
:class:`~repro.engine.backends._RecoveringEvalFuture`, applying the
attribution rule of :mod:`repro.engine.backends` over this backend's
transport.  An item dispatched *alone* is leased only to a worker holding
no other lease, and that worker takes no other lease until it is done.
A worker death fails the dead worker's leases with
:class:`WorkerCrashError` — a loss, counted once by the coordinator.  An
overdue item's lease is forgotten and a late result dropped.

Workers are not respawned by the coordinator.  A poison task's first
shared loss is free, so a sticky ``crash`` fault costs one more worker,
and enough of them exhaust the fleet; queued work then waits for a
worker to join.  Operators restart workers; elastic membership folds
them back in.

Capacity is *elastic*: ``n_workers`` is a property computed from the
live fleet (sum of advertised cores), so the engine's LPT heuristic and
in-flight window, and the async search loop's in-flight depth, track workers
joining and leaving mid-search.  With no worker connected the backend
reports capacity 1 and submitted tasks simply queue until one registers.
"""

from __future__ import annotations

import time
from concurrent.futures import Future

from repro.engine.backends import (
    ExecutionBackend,
    _RecoveringEvalFuture,
    _validate_eval_timeout,
)
from repro.engine.faults import (
    FAILURE_KIND_CRASH,
    FAILURE_KIND_TIMEOUT,
    RetryPolicy,
)
from repro.engine.remote.coordinator import Coordinator
from repro.engine.remote.protocol import format_address, parse_address
from repro.exceptions import ValidationError

#: default coordinator bind: loopback, ephemeral port
DEFAULT_COORDINATOR = "127.0.0.1:0"


class RemoteBackend(ExecutionBackend):
    """Dispatch evaluations to registered remote workers.

    Parameters
    ----------
    n_workers:
        Optional *cap* on the concurrency the backend reports.  Unlike
        the pooled backends this is not a pool size — live capacity is
        the fleet's advertised core total; the cap only bounds what the
        engine sees.  ``None``/``-1`` means uncapped.
    coordinator:
        ``"host:port"`` to bind the coordinator on (default loopback,
        ephemeral port).  Workers connect with
        ``repro worker --coordinator host:port``.
    worker_timeout:
        Seconds of heartbeat silence before a worker is declared dead.
    """

    name = "remote"

    def __init__(self, n_workers: int | None = None, *,
                 eval_timeout: float | None = None,
                 retry_policy: RetryPolicy | None = None,
                 coordinator: str | None = None,
                 worker_timeout: float | None = None) -> None:
        # No super().__init__: n_workers is a live property here, not a
        # fixed pool size.  The rest of the base contract is replicated.
        if n_workers in (None, -1):
            self._worker_cap = None
        else:
            n_workers = int(n_workers)
            if n_workers < 1:
                raise ValidationError(
                    f"n_workers must be at least 1, got {n_workers}")
            self._worker_cap = n_workers
        self.eval_timeout = _validate_eval_timeout(eval_timeout)
        self.retry_policy = (RetryPolicy() if retry_policy is None
                             else retry_policy)
        self.last_crash: dict | None = None
        bind = parse_address(coordinator or DEFAULT_COORDINATOR)
        self._coordinator = Coordinator(
            bind, worker_timeout=worker_timeout,
            on_worker_death=self._note_worker_death)

    # ------------------------------------------------------------ capacity
    @property
    def n_workers(self) -> int:
        """Live fleet capacity: total advertised cores, capped, >= 1.

        The floor of 1 keeps dispatch heuristics sane while the fleet is
        empty — tasks queue at the coordinator until a worker joins.
        """
        cores = self._coordinator.total_cores
        if self._worker_cap is not None:
            cores = min(cores, self._worker_cap)
        return max(1, cores)

    @property
    def coordinator_address(self) -> str:
        """The ``host:port`` workers should connect to."""
        return format_address(self._coordinator.address)

    @property
    def worker_count(self) -> int:
        """Number of live registered workers."""
        return self._coordinator.worker_count

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> bool:
        """Block until ``count`` workers registered; False on timeout."""
        return self._coordinator.wait_for_workers(count, timeout)

    def drop_worker(self, worker_id=None):
        """Forcibly disconnect a worker (the chaos ``drop_worker`` fault)."""
        return self._coordinator.drop_worker(worker_id)

    def _note_worker_death(self, worker_id, lost_fingerprints) -> None:
        fingerprint = lost_fingerprints[0][:12] if lost_fingerprints else None
        self.last_crash = {"kind": FAILURE_KIND_CRASH, "time": time.time(),
                           "fingerprint": fingerprint}

    # ------------------------------------------------------------- dispatch
    def submit(self, fn, item) -> Future:
        # Generic tasks run inline: only *evaluations* are distributed.
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(item))
        except BaseException as error:  # parity with Future semantics
            future.set_exception(error)
        return future

    def submit_evaluation(self, evaluator, item) -> _RecoveringEvalFuture:
        return _RecoveringEvalFuture(self, evaluator, item)

    # ---------------------------------------------------------- transport
    def _dispatch(self, evaluator, item, alone: bool):
        state = self._coordinator.submit(evaluator, item, alone=alone,
                                         eval_timeout=self.eval_timeout)
        return state, state.future

    def _lose(self, evaluator, state) -> None:
        # The coordinator's death funnel already counted the worker and
        # recorded last_crash; forget the lease in case it is still held.
        self._coordinator.discard(state)

    def _expire(self, evaluator, state) -> None:
        self._coordinator.discard(state)
        self.last_crash = {
            "kind": FAILURE_KIND_TIMEOUT, "time": time.time(),
            "fingerprint": evaluator.fingerprint()[:12]}

    def close(self) -> None:
        self._coordinator.close()

    def __repr__(self) -> str:
        return (f"RemoteBackend(coordinator={self.coordinator_address!r}, "
                f"workers={self.worker_count}, n_workers={self.n_workers})")
