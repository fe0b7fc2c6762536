"""Wire protocol of the remote execution backend: JSON lines over TCP.

The coordinator (:mod:`repro.engine.remote.coordinator`) and its workers
(:mod:`repro.engine.remote.worker`) speak newline-delimited JSON objects
over a plain TCP socket — the same zero-dependency stdlib style as the
serve layer's HTTP server, chosen so a worker daemon needs nothing but
the library itself.  Every message is one JSON object with a ``type``
field; binary payloads (the pickled evaluator snapshot, work items,
result entries) travel as base64 strings inside the JSON.

Message types, worker -> coordinator::

    register   {cores, pid, version}          first message on connect
    heartbeat  {}                             liveness, every interval
    result     {task_id, entry}               entry is a blob
    error      {task_id, error, message, transient}
    goodbye    {}                             graceful departure

and coordinator -> worker::

    registered {worker_id, heartbeat_interval, version}
    evaluator  {fingerprint, blob}            cached worker-side
    task       {task_id, fingerprint, item[, eval_timeout]}
    shutdown   {}                             drain and exit

Trust model: payloads are *pickled*, so the protocol is strictly for a
trusted cluster — the coordinator binds loopback by default, and anyone
who can reach the port can execute code, exactly like a process-pool
pipe.  Never expose a coordinator to an untrusted network.
"""

from __future__ import annotations

import base64
import json
import pickle

from repro.exceptions import ReproError, ValidationError

#: bumped on incompatible message changes; both sides advertise it
PROTOCOL_VERSION = 1

#: default bind/connect host — loopback, per the trust model above
DEFAULT_HOST = "127.0.0.1"


class RemoteProtocolError(ReproError):
    """A peer sent bytes that do not parse as a protocol message."""


def parse_address(spec, *, default_host: str = DEFAULT_HOST) -> tuple[str, int]:
    """``(host, port)`` from a ``"host:port"`` spec (``":port"``/``"port"`` ok)."""
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        host, port = spec
        return str(host) or default_host, _check_port(port, spec)
    text = str(spec).strip()
    host, sep, port = text.rpartition(":")
    if not sep:
        host, port = default_host, text
    return host or default_host, _check_port(port, spec)


def _check_port(port, spec) -> int:
    try:
        port = int(port)
    except (TypeError, ValueError):
        raise ValidationError(
            f"bad coordinator address {spec!r}: expected host:port with an "
            f"integer port"
        ) from None
    if not 0 <= port <= 65535:
        raise ValidationError(
            f"bad coordinator address {spec!r}: port must be in [0, 65535]"
        )
    return port


def format_address(address: tuple[str, int]) -> str:
    """The ``"host:port"`` spelling of an address pair."""
    return f"{address[0]}:{address[1]}"


def dump_blob(obj) -> str:
    """Pickle ``obj`` and encode it for transport inside a JSON message."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def load_blob(text: str):
    """Inverse of :func:`dump_blob`."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def send_message(sock, payload: dict) -> None:
    """Write one protocol message to ``sock`` (callers hold the send lock)."""
    line = json.dumps(payload, separators=(",", ":")) + "\n"
    sock.sendall(line.encode("utf-8"))


def read_message(stream, max_bytes: int | None = None) -> dict | None:
    """Read one message from a binary line stream; ``None`` on EOF/close.

    A socket closed from another thread (worker stop, coordinator drop)
    surfaces as OSError/ValueError from ``readline`` — reported as EOF,
    because for the reader loop it means the same thing: the peer is
    gone.  Bytes that are present but unparsable raise
    :class:`RemoteProtocolError` instead — that is a bug or a stray
    client, not a death, and must be observable.  So does a line that
    reaches ``max_bytes`` (newline included) without ending: a peer that
    never sends a newline must not make the reader buffer without bound.
    """
    try:
        line = stream.readline(-1 if max_bytes is None else max_bytes)
    except (OSError, ValueError):
        return None
    if not line:
        return None
    if max_bytes is not None and len(line) >= max_bytes \
            and not line.endswith(b"\n"):
        raise RemoteProtocolError(
            f"protocol line reached {max_bytes} bytes without a newline: "
            f"{line[:120]!r}"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise RemoteProtocolError(
            f"malformed protocol line: {line[:120]!r}"
        ) from error
    if not isinstance(message, dict) or "type" not in message:
        raise RemoteProtocolError(
            f"protocol messages are JSON objects with a 'type' field, "
            f"got: {line[:120]!r}"
        )
    return message
