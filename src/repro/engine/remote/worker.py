"""Worker side of the remote backend: lease, evaluate, stream back.

A :class:`RemoteWorker` connects to a coordinator, registers its core
count, then serves ``task`` messages on a local thread pool while a
daemon thread emits heartbeats.  Each task runs the body every backend
shares, :func:`~repro.engine.faults.run_work_item` (apply the chaos
fault, evaluate, check the soft deadline), evaluating through
:meth:`~repro.core.evaluation.PipelineEvaluator.evaluate_in_worker`,
which attaches the prefix-cache counter delta the coordinator-side
evaluator absorbs exactly as it does for process pools.  A result or an
error goes back to the coordinator; a blown soft deadline travels as an
``EvaluationTimeoutError`` error, which is not transient.

Workers never open the persistent eval cache: the coordinator's engine
is its only writer, one append per evaluation as on process pools, so a
worker needs no access to the coordinator's ``cache_dir``.

A chaos ``crash`` fault normally calls ``os._exit`` like a process-pool
worker; in-thread loopback workers (tests) set
``crash_mode="disconnect"`` and instead slam the socket shut without a
goodbye, which the coordinator observes as the same ungraceful death.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.engine.faults import (
    CRASH_EXIT_CODE,
    WorkerCrashError,
    is_transient,
    run_work_item,
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
        self._evaluators[fingerprint] = load_blob(message["blob"])
        log.info("installed evaluator %s", fingerprint[:12])

    def _run_task(self, message: dict) -> None:
        task_id = message.get("task_id")
        try:
            evaluator = self._evaluators.get(message.get("fingerprint"))
            if evaluator is None:
                raise WorkerCrashError(
                    "task arrived before its evaluator snapshot")
            entry = run_work_item(load_blob(message["item"]),
                                  evaluator.evaluate_in_worker, self._crash,
                                  message.get("eval_timeout"))
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

    def _crash(self) -> None:
        """A chaos ``crash``: exit, or drop the connection in-thread."""
        if self.crash_mode == "exit":
            os._exit(CRASH_EXIT_CODE)
        log.info("chaos: worker %s dropping its connection", self.worker_id)
        self._stop.set()
        _close_quietly(self._sock)
        raise WorkerCrashError("chaos: worker dropped its connection")


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
