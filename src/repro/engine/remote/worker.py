"""Worker side of the remote backend: lease, evaluate, stream back.

A :class:`RemoteWorker` connects to a coordinator, registers its core
count, then serves ``task`` messages on a local thread pool while a
daemon thread emits heartbeats.  Evaluation mirrors the process
backend's worker function: unwrap chaos faults, apply them
(:func:`~repro.engine.faults.apply_fault_in_worker`), evaluate
uncached, and attach the prefix-cache counter delta under
``METRICS_DELTA_KEY`` so the coordinator-side evaluator can absorb
worker counters exactly as it does for process pools.

Two behaviours are remote-specific:

* **Shared result substrate** — the worker re-opens the evaluator's
  ``PersistentEvalCache`` (same root, same fingerprint) after
  unpickling, checks it before evaluating and publishes entries after,
  so results are deduplicated across every machine that mounts the
  cache root.
* **Crash faults** — a chaos ``crash`` fault normally calls
  ``os._exit`` like a process-pool worker; in-thread loopback workers
  (tests) set ``crash_mode="disconnect"`` and instead slam the socket
  shut without a goodbye, which the coordinator observes as the same
  ungraceful death.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.evaluation import METRICS_DELTA_KEY
from repro.engine.faults import (
    CRASH_EXIT_CODE,
    WorkerCrashError,
    apply_fault_in_worker,
    is_transient,
    unwrap_work_item,
)
from repro.engine.remote.protocol import (
    PROTOCOL_VERSION,
    RemoteProtocolError,
    dump_blob,
    load_blob,
    parse_address,
    read_message,
    send_message,
)
from repro.io.evalcache import open_eval_cache

log = logging.getLogger(__name__)


class RemoteWorker:
    """One worker daemon serving evaluations for a coordinator.

    Parameters
    ----------
    address:
        Coordinator ``"host:port"`` spec (or ``(host, port)`` pair).
    cores:
        Concurrent evaluation slots to advertise and serve (>= 1).
    connect_timeout:
        Total seconds to keep retrying the initial connection — workers
        routinely boot before their coordinator.
    crash_mode:
        ``"exit"`` (default, subprocess daemons): a chaos crash fault
        calls ``os._exit(CRASH_EXIT_CODE)``.  ``"disconnect"``
        (in-thread loopback workers): the fault abruptly closes the
        socket instead, producing the identical ungraceful-death
        observation coordinator-side without killing the test process.
    """

    def __init__(self, address, *, cores=1, connect_timeout=10.0,
                 crash_mode="exit"):
        if crash_mode not in ("exit", "disconnect"):
            raise ValueError(
                f"crash_mode must be 'exit' or 'disconnect', "
                f"got {crash_mode!r}")
        self.address = parse_address(address)
        self.cores = max(1, int(cores))
        self.connect_timeout = float(connect_timeout)
        self.crash_mode = crash_mode
        self.worker_id = None
        self._sock = None
        self._send_lock = threading.Lock()
        self._stop = threading.Event()
        self._evaluators: dict = {}
        self._disk_caches: dict = {}
        self._thread = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> threading.Thread:
        """Run :meth:`run` on a daemon thread (loopback/test workers)."""
        thread = threading.Thread(target=self.run, daemon=True,
                                  name="repro-remote-worker")
        self._thread = thread
        thread.start()
        return thread

    def stop(self, timeout: float = 5.0) -> None:
        """Ask a started worker to exit and wait for its thread."""
        self._stop.set()
        sock = self._sock
        if sock is not None:
            _close_quietly(sock)
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def run(self) -> int:
        """Serve until shutdown/EOF/stop; returns a process exit code."""
        try:
            sock = self._connect()
        except OSError as error:
            log.error("could not reach coordinator at %s:%d: %s",
                      self.address[0], self.address[1], error)
            return 1
        self._sock = sock
        rfile = sock.makefile("rb")
        graceful = False
        pool = ThreadPoolExecutor(
            max_workers=self.cores, thread_name_prefix="repro-remote-eval")
        try:
            self._send({"type": "register", "cores": self.cores,
                        "pid": os.getpid(), "version": PROTOCOL_VERSION})
            reply = read_message(rfile)
            if reply is None or reply.get("type") != "registered":
                log.error("coordinator refused registration: %r", reply)
                return 1
            self.worker_id = reply.get("worker_id")
            interval = float(reply.get("heartbeat_interval", 1.0))
            heartbeat = threading.Thread(
                target=self._heartbeat_loop, args=(interval,), daemon=True,
                name="repro-remote-heartbeat")
            heartbeat.start()
            log.info("worker %s registered with %s:%d (%d core(s))",
                     self.worker_id, self.address[0], self.address[1],
                     self.cores)
            while not self._stop.is_set():
                try:
                    message = read_message(rfile)
                except RemoteProtocolError as error:
                    log.error("coordinator sent garbage: %s", error)
                    break
                if message is None:
                    break  # coordinator gone
                kind = message.get("type")
                if kind == "evaluator":
                    self._install_evaluator(message)
                elif kind == "task":
                    pool.submit(self._run_task, message)
                elif kind == "shutdown":
                    graceful = True
                    break
                else:
                    log.warning("unknown message type %r from coordinator",
                                kind)
        except OSError as error:
            log.warning("connection to coordinator lost: %s", error)
        finally:
            self._stop.set()
            pool.shutdown(wait=True)
            if graceful:
                try:
                    self._send({"type": "goodbye"})
                except OSError:
                    log.debug("goodbye send failed", exc_info=True)
            _close_quietly(sock, rfile)
        return 0

    def _connect(self) -> socket.socket:
        """Bounded connection retry: workers may boot first."""
        host, port = self.address
        poll = 0.2
        attempts = max(1, int(self.connect_timeout / poll))
        last_error = None
        for attempt in range(attempts):
            try:
                sock = socket.create_connection((host, port), timeout=5.0)
            except OSError as error:
                last_error = error
            else:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.settimeout(None)
                return sock
            if attempt + 1 < attempts and self._stop.wait(poll):
                break
        raise OSError(
            f"coordinator at {host}:{port} unreachable after "
            f"{self.connect_timeout:.1f}s"
        ) from last_error

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                self._send({"type": "heartbeat"})
            except OSError:
                log.debug("heartbeat send failed; connection is gone")
                return

    def _send(self, payload: dict) -> None:
        with self._send_lock:
            send_message(self._sock, payload)

    # -- evaluation ------------------------------------------------------

    def _install_evaluator(self, message: dict) -> None:
        fingerprint = message["fingerprint"]
        evaluator = load_blob(message["blob"])
        disk = None
        if evaluator.cache_enabled and evaluator.cache_dir is not None:
            # attach to the shared result substrate: same root + same
            # fingerprint as every other worker and the coordinator
            disk = open_eval_cache(evaluator.cache_dir,
                                   evaluator.fingerprint(),
                                   max_index_entries=evaluator.cache_size)
        self._evaluators[fingerprint] = evaluator
        self._disk_caches[fingerprint] = disk
        log.info("installed evaluator %s (shared cache: %s)",
                 fingerprint[:12], "yes" if disk is not None else "no")

    def _run_task(self, message: dict) -> None:
        task_id = message.get("task_id")
        try:
            evaluator = self._evaluators.get(message.get("fingerprint"))
            if evaluator is None:
                raise WorkerCrashError(
                    "task arrived before its evaluator snapshot")
            item = load_blob(message["item"])
            pair, fault = unwrap_work_item(item)
            if fault is not None:
                self._apply_fault(fault)
            start = time.monotonic()
            entry = self._evaluate(evaluator, message.get("fingerprint"),
                                   pair)
            deadline = message.get("eval_timeout")
            if deadline is not None and time.monotonic() - start > deadline:
                # soft deadline, same semantics as the local backends:
                # the work completed but took too long to count
                self._send({"type": "error", "task_id": task_id,
                            "error": "EvaluationTimeoutError",
                            "message": f"evaluation exceeded soft deadline "
                                       f"of {deadline}s",
                            "transient": False})
                return
            self._send({"type": "result", "task_id": task_id,
                        "entry": dump_blob(entry)})
        except Exception as error:  # relayed, never silently dropped
            try:
                self._send({"type": "error", "task_id": task_id,
                            "error": type(error).__name__,
                            "message": str(error),
                            "transient": bool(is_transient(error))})
            except OSError:
                # socket already gone (chaos disconnect / coordinator
                # death): nothing to report to, the coordinator's
                # heartbeat machinery owns this failure now
                log.debug("error relay for task %r failed", task_id)

    def _apply_fault(self, fault) -> None:
        if fault.kind == "crash":
            if self.crash_mode == "exit":
                os._exit(CRASH_EXIT_CODE)
            log.info("chaos: worker %s dropping its connection",
                     self.worker_id)
            self._stop.set()
            _close_quietly(self._sock)
            raise WorkerCrashError("chaos: worker dropped its connection")
        apply_fault_in_worker(fault)

    def _evaluate(self, evaluator, fingerprint, pair) -> dict:
        pipeline, fidelity = pair
        disk = self._disk_caches.get(fingerprint)
        key = evaluator.cache_key(pipeline, fidelity)
        if disk is not None:
            cached = disk.get(key)
            if cached is not None:
                return cached
        cache = evaluator.prefix_cache
        if cache is None:
            entry = evaluator._evaluate_uncached(pipeline, fidelity)
            published = entry
        else:
            before = cache.counters()
            entry = dict(evaluator._evaluate_uncached(pipeline, fidelity))
            published = dict(entry)
            delta = cache.counters_since(before)
            if delta:
                entry[METRICS_DELTA_KEY] = {
                    f"prefix.{name}": value for name, value in delta.items()
                }
        if disk is not None and published.get("failure_kind") is None:
            # publish without the per-run metrics delta: the substrate
            # stores results, counters belong to whoever evaluated
            disk.put(key, published)
        return entry


def _close_quietly(sock, rfile=None) -> None:
    if rfile is not None:
        try:
            rfile.close()
        except OSError:
            log.debug("rfile close failed", exc_info=True)
    if sock is None:
        return
    try:
        # close() alone leaves the descriptor open while the reader's
        # makefile still holds it: shutdown wakes that reader and sends the
        # coordinator its EOF now, not at the next message or heartbeat.
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        log.debug("socket already shut down", exc_info=True)
    try:
        sock.close()
    except OSError:
        log.debug("socket close failed", exc_info=True)
