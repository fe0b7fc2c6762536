"""Coordinator side of the remote backend: membership, leases, liveness.

The :class:`Coordinator` is pure transport and membership — it accepts
worker connections, ships pickled evaluator snapshots once per
(worker, fingerprint), leases work items up to each worker's advertised
core count, and resolves one :class:`concurrent.futures.Future` per
task.  It deliberately contains **no retry logic**: a dead worker's
in-flight tasks fail with :class:`WorkerCrashError`, and the
:class:`~repro.engine.remote.backend.RemoteBackend` resolves each task
through the same recovering future as the process backend.  The one
recovery hook here is the *alone* lease: such a task goes only to a
worker holding no other lease, and that worker takes no other lease
until it is done, so a death during it is the task's own.

Death detection is two-channel: a monitor thread declares any worker
dead whose last message is older than ``worker_timeout`` (missed
heartbeats), and a reader thread declares death on EOF without a
``goodbye``.  Both channels funnel into one handler that increments
``engine.worker_heartbeat_misses`` and ``engine.worker_crashes`` once
per death event, fails the worker's leased tasks, and re-pumps the
queue onto the survivors.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError

from repro.engine.faults import (
    EvaluationTimeoutError,
    TransientEvaluationError,
    WorkerCrashError,
)
from repro.engine.remote.protocol import (
    PROTOCOL_VERSION,
    RemoteProtocolError,
    dump_blob,
    load_blob,
    read_message,
    send_message,
)
from repro.exceptions import ReproError, ValidationError
from repro.telemetry.metrics import get_registry

log = logging.getLogger(__name__)

#: seconds without any message before a worker is declared dead
DEFAULT_WORKER_TIMEOUT = 10.0

#: worker-raised exception types reconstructed coordinator-side by name,
#: so the backend's retry envelope sees the same taxonomy as local pools
_ERROR_TYPES = {
    "WorkerCrashError": WorkerCrashError,
    "TransientEvaluationError": TransientEvaluationError,
    "EvaluationTimeoutError": EvaluationTimeoutError,
}


class RemoteTaskError(ReproError):
    """A non-transient evaluation failure relayed from a remote worker.

    The original exception type lives in the worker process; its name
    and message are carried in the error text.  Non-transient means the
    retry machinery must *not* touch it — it propagates to the caller
    exactly like the original exception would from a local backend.
    """


class _WorkerLink:
    """Coordinator-side state of one connected worker."""

    __slots__ = ("worker_id", "sock", "rfile", "send_lock", "cores", "pid",
                 "address", "last_seen", "leased", "fingerprints")

    def __init__(self, worker_id, sock, rfile, *, cores, pid, address):
        self.worker_id = worker_id
        self.sock = sock
        self.rfile = rfile
        # named send_lock, not _lock: it serialises socket writes only
        self.send_lock = threading.Lock()
        self.cores = cores
        self.pid = pid
        self.address = address
        self.last_seen = time.monotonic()
        self.leased: set = set()
        self.fingerprints: set = set()


class _TaskState:
    """One submitted work item: queue entry, lease owner, result future."""

    __slots__ = ("task_id", "fingerprint", "item", "future", "worker_id",
                 "eval_timeout", "alone")

    def __init__(self, task_id, fingerprint, item, future, eval_timeout,
                 alone):
        self.task_id = task_id
        self.fingerprint = fingerprint
        self.item = item
        self.future = future
        self.worker_id = None
        self.eval_timeout = eval_timeout
        self.alone = alone


class Coordinator:
    """Accepts workers, leases tasks, detects death, resolves futures.

    Parameters
    ----------
    bind:
        ``(host, port)`` to listen on; port 0 picks an ephemeral port
        (read the final address back from :attr:`address`).
    worker_timeout:
        Seconds of silence after which a worker is declared dead and its
        in-flight tasks fail with :class:`WorkerCrashError`.
    on_worker_death:
        Optional callback ``(worker_id, lost_fingerprints)`` invoked on
        every *ungraceful* death — the backend uses it for `last_crash`.
    """

    def __init__(self, bind=("127.0.0.1", 0), *, worker_timeout=None,
                 on_worker_death=None):
        timeout = (DEFAULT_WORKER_TIMEOUT if worker_timeout is None
                   else float(worker_timeout))
        if timeout <= 0:
            raise ValidationError(
                f"worker_timeout must be positive, got {worker_timeout!r}"
            )
        self.worker_timeout = timeout
        self._on_worker_death = on_worker_death
        self._lock = threading.Lock()
        self._membership = threading.Condition(self._lock)
        self._workers: dict = {}
        self._tasks: dict = {}
        self._queue: deque = deque()
        self._evaluator_blobs: dict = {}
        self._next_worker_id = 0
        self._next_task_id = 0
        self._closing = False
        self._stop = threading.Event()
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(tuple(bind))
        server.listen(64)
        self._server = server
        self._address = server.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="repro-remote-accept"
        )
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, daemon=True, name="repro-remote-monitor"
        )
        self._accept_thread.start()
        self._monitor_thread.start()

    # -- public surface -------------------------------------------------

    @property
    def address(self) -> tuple:
        """``(host, port)`` the coordinator is actually listening on."""
        return self._address

    @property
    def worker_count(self) -> int:
        """Number of live registered workers."""
        with self._lock:
            return len(self._workers)

    @property
    def total_cores(self) -> int:
        """Sum of advertised core counts over the live worker pool."""
        with self._lock:
            return sum(link.cores for link in self._workers.values())

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> bool:
        """Block until ``count`` workers are registered; False on timeout."""
        deadline = time.monotonic() + timeout
        with self._membership:
            while len(self._workers) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._membership.wait(remaining)
        return True

    def submit(self, evaluator, item, *, eval_timeout=None,
               alone=False) -> _TaskState:
        """Queue one work item; the returned state's ``.future`` resolves
        to the entry dict, or to an exception from ``_ERROR_TYPES`` /
        :class:`RemoteTaskError`.  Tasks queue while no worker is
        connected and dispatch as soon as one registers (elasticity).
        An ``alone`` task is leased to an idle worker and holds it."""
        fingerprint = evaluator.fingerprint()
        blob = None
        if fingerprint not in self._evaluator_blobs:
            # pickle outside the lock: snapshots can be large
            blob = dump_blob(evaluator)
        future: Future = Future()
        with self._lock:
            if self._closing:
                raise WorkerCrashError("coordinator is closed")
            if blob is not None and fingerprint not in self._evaluator_blobs:
                self._evaluator_blobs[fingerprint] = blob
            task_id = self._next_task_id
            self._next_task_id += 1
            state = _TaskState(task_id, fingerprint, item, future,
                               eval_timeout, alone)
            self._tasks[task_id] = state
            self._queue.append(state)
        self._pump()
        return state

    def discard(self, state: _TaskState) -> None:
        """Forget a task (deadline expiry): a late result is dropped."""
        with self._lock:
            removed = self._tasks.pop(state.task_id, None)
            if removed is None:
                return
            if state in self._queue:
                self._queue.remove(state)
            link = self._workers.get(state.worker_id)
            if link is not None:
                link.leased.discard(state.task_id)
        # the freed lease may be the idle worker a queued alone task needs
        self._pump()

    def drop_worker(self, worker_id=None):
        """Forcibly disconnect a worker (chaos ``drop_worker`` fault).

        Picks the lowest live ``worker_id`` when none is given so a
        seeded fault plan is deterministic.  The worker sees its socket
        close; the coordinator runs the full ungraceful-death path
        (crash counters, leased-task failure, re-pump).  Returns the
        dropped id, or None (with a warning) when the pool is empty.
        """
        with self._lock:
            if worker_id is None:
                worker_id = min(self._workers) if self._workers else None
            victim = self._workers.get(worker_id)
        if victim is None:
            log.warning("drop_worker: no live worker to drop")
            return None
        log.info("chaos: dropping worker %d", victim.worker_id)
        self._remove_worker(victim, graceful=False)
        return victim.worker_id

    def close(self) -> None:
        """Shut down: signal workers, fail the queue, stop all threads."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            links = list(self._workers.values())
            pending = list(self._queue)
            self._queue.clear()
        self._stop.set()
        try:
            self._server.close()
        except OSError:  # pragma: no cover - close on a dead socket
            log.debug("server socket close failed", exc_info=True)
        for link in links:
            try:
                with link.send_lock:
                    send_message(link.sock, {"type": "shutdown"})
            except OSError:
                log.debug("shutdown notice to worker %d failed",
                          link.worker_id)
        for state in pending:
            if not state.future.cancel():
                self._fail_task(state, WorkerCrashError(
                    "coordinator closed with this task queued"))
        for link in links:
            self._remove_worker(link, graceful=True)
        self._monitor_thread.join(timeout=1.0)

    # -- dispatch --------------------------------------------------------

    def _pump(self) -> None:
        """Lease queued tasks onto free capacity until neither remains."""
        while True:
            with self._lock:
                assignment = self._next_assignment_locked()
                if assignment is None:
                    return
                link, state, need_evaluator = assignment
                blob = (self._evaluator_blobs[state.fingerprint]
                        if need_evaluator else None)
            messages = []
            if blob is not None:
                messages.append({"type": "evaluator",
                                 "fingerprint": state.fingerprint,
                                 "blob": blob})
            task_message = {"type": "task", "task_id": state.task_id,
                            "fingerprint": state.fingerprint,
                            "item": dump_blob(state.item)}
            if state.eval_timeout is not None:
                task_message["eval_timeout"] = state.eval_timeout
            messages.append(task_message)
            try:
                with link.send_lock:
                    for message in messages:
                        send_message(link.sock, message)
            except OSError:
                # the dead-worker path fails this lease with a
                # WorkerCrashError, which the backend retries elsewhere
                self._remove_worker(link, graceful=False)

    def _next_assignment_locked(self):
        """Pop the next (worker, task) pair, or None when nothing fits.

        Least-loaded worker first, ties to the lowest worker_id, so
        dispatch order is a pure function of membership + queue state.
        The queue is FIFO: an alone task at its head waits for an idle
        worker, and a worker running an alone task takes nothing else.
        """
        while self._queue:
            state = self._queue[0]
            link = self._free_link_locked(state.alone)
            if link is None and not state.future.cancelled():
                return None
            self._queue.popleft()
            if not state.future.set_running_or_notify_cancel():
                # cancelled while queued (budget refund): drop silently
                self._tasks.pop(state.task_id, None)
                continue
            state.worker_id = link.worker_id
            link.leased.add(state.task_id)
            need_evaluator = state.fingerprint not in link.fingerprints
            if need_evaluator:
                link.fingerprints.add(state.fingerprint)
            return link, state, need_evaluator
        return None

    def _free_link_locked(self, alone):
        """The least-loaded worker that can take a lease, or None."""
        if alone:
            candidates = [link for link in self._workers.values()
                          if not link.leased]
        else:
            candidates = [link for link in self._workers.values()
                          if len(link.leased) < link.cores
                          and not any(self._tasks[task_id].alone
                                      for task_id in link.leased)]
        return min(candidates, default=None,
                   key=lambda link: (len(link.leased), link.worker_id))

    # -- connection handling --------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, address = self._server.accept()
            except OSError:
                return  # server socket closed: shutting down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._serve_connection, args=(sock, address),
                daemon=True, name="repro-remote-reader",
            ).start()

    def _serve_connection(self, sock, address) -> None:
        rfile = sock.makefile("rb")
        try:
            message = read_message(rfile)
        except RemoteProtocolError as error:
            log.warning("rejecting connection from %s: %s", address, error)
            message = None
        if message is None or message.get("type") != "register":
            _close_quietly(sock, rfile)
            return
        cores = max(1, int(message.get("cores", 1)))
        heartbeat_interval = max(0.05, self.worker_timeout / 3.0)
        with self._lock:
            if self._closing:
                register_ok = False
            else:
                register_ok = True
                worker_id = self._next_worker_id
                self._next_worker_id += 1
                link = _WorkerLink(worker_id, sock, rfile, cores=cores,
                                   pid=message.get("pid"), address=address)
                self._workers[worker_id] = link
                live = len(self._workers)
                self._membership.notify_all()
        if not register_ok:
            _close_quietly(sock, rfile)
            return
        get_registry().gauge("engine.remote_workers").set(live)
        log.info("worker %d registered: %d core(s), pid %s, from %s",
                 worker_id, cores, message.get("pid"), address)
        try:
            with link.send_lock:
                send_message(sock, {"type": "registered",
                                    "worker_id": worker_id,
                                    "heartbeat_interval": heartbeat_interval,
                                    "version": PROTOCOL_VERSION})
        except OSError:
            self._remove_worker(link, graceful=False)
            return
        self._pump()
        self._reader_loop(link)

    def _reader_loop(self, link: _WorkerLink) -> None:
        graceful = False
        while True:
            try:
                message = read_message(link.rfile)
            except RemoteProtocolError as error:
                log.warning("worker %d sent garbage, dropping it: %s",
                            link.worker_id, error)
                break
            if message is None:
                break  # EOF without goodbye: ungraceful
            with self._lock:
                link.last_seen = time.monotonic()
            kind = message.get("type")
            if kind == "heartbeat":
                continue
            if kind == "result":
                self._handle_result(link, message)
            elif kind == "error":
                self._handle_error(link, message)
            elif kind == "goodbye":
                graceful = True
                break
            else:
                log.warning("unknown message type %r from worker %d",
                            kind, link.worker_id)
        self._remove_worker(link, graceful=graceful)

    def _handle_result(self, link: _WorkerLink, message: dict) -> None:
        state = self._finish(link, message.get("task_id"))
        if state is None:
            return  # late result for a discarded/expired task
        try:
            entry = load_blob(message["entry"])
        except Exception as error:  # pickle layer: anything can surface
            log.warning("undecodable result from worker %d: %s",
                        link.worker_id, error)
            self._fail_task(state, TransientEvaluationError(
                f"worker {link.worker_id} returned an undecodable entry: "
                f"{error}"))
        else:
            try:
                state.future.set_result(entry)
            except InvalidStateError:
                log.debug("task %d already resolved", state.task_id)
        self._pump()

    def _handle_error(self, link: _WorkerLink, message: dict) -> None:
        state = self._finish(link, message.get("task_id"))
        if state is None:
            return
        name = str(message.get("error", "Exception"))
        text = str(message.get("message", ""))
        exc_type = _ERROR_TYPES.get(name)
        if exc_type is not None:
            error = exc_type(text or name)
        elif message.get("transient"):
            error = TransientEvaluationError(f"{name}: {text}")
        else:
            error = RemoteTaskError(
                f"evaluation failed on worker {link.worker_id}: "
                f"{name}: {text}")
        self._fail_task(state, error)
        self._pump()

    def _finish(self, link: _WorkerLink, task_id):
        """Release a lease and claim its task state; None when unknown."""
        with self._lock:
            link.leased.discard(task_id)
            return self._tasks.pop(task_id, None)

    # -- death -----------------------------------------------------------

    def _monitor_loop(self) -> None:
        interval = max(0.05, min(1.0, self.worker_timeout / 4.0))
        while not self._stop.wait(interval):
            now = time.monotonic()
            with self._lock:
                stale = [link for link in self._workers.values()
                         if now - link.last_seen > self.worker_timeout]
            for link in stale:
                log.warning("worker %d missed heartbeats for > %.1fs, "
                            "declaring it dead", link.worker_id,
                            self.worker_timeout)
                self._remove_worker(link, graceful=False)

    def _remove_worker(self, link: _WorkerLink, *, graceful: bool) -> None:
        """Single funnel for every departure: goodbye, EOF, heartbeat
        deadline, forced drop, coordinator close."""
        with self._lock:
            if self._workers.get(link.worker_id) is not link:
                return  # another thread already removed it
            del self._workers[link.worker_id]
            graceful = graceful or self._closing
            victims = [self._tasks.pop(task_id)
                       for task_id in sorted(link.leased)
                       if task_id in self._tasks]
            link.leased.clear()
            live = len(self._workers)
            self._membership.notify_all()
        get_registry().gauge("engine.remote_workers").set(live)
        if graceful:
            log.info("worker %d left (%d live)", link.worker_id, live)
        else:
            # one death event == one miss + one crash, whichever channel
            # noticed first (monitor deadline or reader EOF)
            get_registry().counter("engine.worker_heartbeat_misses").inc()
            get_registry().counter("engine.worker_crashes").inc()
            log.warning("worker %d died with %d task(s) in flight "
                        "(%d live)", link.worker_id, len(victims), live)
            callback = self._on_worker_death
            if callback is not None:
                callback(link.worker_id,
                         [state.fingerprint for state in victims])
        _close_quietly(link.sock, link.rfile)
        for state in victims:
            self._fail_task(state, WorkerCrashError(
                f"worker {link.worker_id} died with this task in flight"))
        self._pump()

    def _fail_task(self, state: _TaskState, error: Exception) -> None:
        try:
            state.future.set_exception(error)
        except InvalidStateError:
            log.debug("task %d already resolved", state.task_id)


def _close_quietly(sock, rfile=None) -> None:
    if rfile is not None:
        try:
            rfile.close()
        except OSError:
            log.debug("rfile close failed", exc_info=True)
    try:
        sock.close()
    except OSError:
        log.debug("socket close failed", exc_info=True)
