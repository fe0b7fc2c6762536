"""The stdlib HTTP front of :class:`~repro.serve.manager.SessionManager`.

``build_server`` wires a :class:`ThreadingHTTPServer` (one thread per
request, daemon threads so a hung long-poll never blocks shutdown) to a
manager; every route is a thin JSON translation of a manager method, so
all behaviour — admission, lifecycle, durability — is tested against the
manager directly and the handler stays dumb on purpose.

Routes::

    GET  /healthz                       liveness + per-state session counts
    GET  /metrics                       registry snapshot + session heartbeats
    GET  /sessions                      all session summaries
    POST /sessions                      submit {dataset, ...} -> {session_id}
    GET  /sessions/<id>                 one session's status
    GET  /sessions/<id>/events          ?after=N&timeout=S long-poll stream
    POST /sessions/<id>/pause           stop after the current trial
    POST /sessions/<id>/resume          continue a paused session
    POST /sessions/<id>/cancel          cancel and refund the tenant quota
    POST /sessions/<id>/checkpoint      snapshot at the next trial boundary

Errors map onto status codes the obvious way: a malformed request is 400
(:class:`~repro.exceptions.ValidationError`, or an unknown dataset or
algorithm name), an unknown session id 404,
an exhausted tenant quota 429 (:class:`~repro.serve.manager.AdmissionError`).
A request line or headers that the stdlib cannot parse get the stdlib's
4xx/5xx status.  Every response body — errors included — is a JSON object.
"""

from __future__ import annotations

import json
import math
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.exceptions import UnknownComponentError, ValidationError
from repro.serve.manager import AdmissionError, UnknownSessionError
from repro.utils.log import get_logger

log = get_logger("serve.http")

#: cap on request bodies; a submission spec is a few hundred bytes
MAX_BODY_BYTES = 1 << 20

#: cap on a single long-poll wait so handler threads always cycle
MAX_POLL_SECONDS = 60.0

#: socket read timeout: a client that stops sending mid-request loses its
#: connection instead of pinning a handler thread (long-polls wait in the
#: manager, not on the socket)
READ_TIMEOUT_SECONDS = 30.0


class ServeHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the owning server's ``manager``."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: a request line that names no version is answered as HTTP/1.1 too,
    #: with a status line and headers (an HTTP/0.9 reply has neither)
    default_request_version = "HTTP/1.1"
    #: StreamRequestHandler applies it to the socket; the stdlib's
    #: handle_one_request closes the connection on a TimeoutError
    timeout = READ_TIMEOUT_SECONDS

    # ------------------------------------------------------------- plumbing
    @property
    def manager(self):
        return self.server.manager

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # BaseHTTPRequestHandler writes to stderr by default; route through
        # the package logger so server noise obeys the repro log level.
        log.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, payload, *, status: int = 200) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":  # a HEAD reply (a 501 here) has no body
            self.wfile.write(body)

    def send_error(self, code, message=None, explain=None) -> None:
        """Answer a request the stdlib could not parse with a JSON error.

        ``BaseHTTPRequestHandler`` calls this for a bad request line or
        version, an over-long line, too many headers or a method with no
        handler, and would send an HTML page.  The rest of the request is
        unread, so the connection closes after the reply.
        """
        self.close_connection = True
        self._send_json({"error": message or self.responses[code][0]},
                        status=code)

    def _read_json(self):
        header = (self.headers.get("Content-Length") or "0").strip()
        length = int(header) if header.isascii() and header.isdigit() else -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body's extent is unknown or unread, so the connection
            # cannot carry another request.
            self.close_connection = True
            raise ValidationError(
                f"Content-Length must be an integer in 0..{MAX_BODY_BYTES}, "
                f"got {header!r}"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise ValidationError(f"request body is not JSON: {error}") \
                from error

    def _query(self) -> dict:
        from urllib.parse import parse_qs, urlparse

        parsed = urlparse(self.path)
        return {key: values[-1]
                for key, values in parse_qs(parsed.query).items()}

    def _route(self) -> list:
        from urllib.parse import urlparse

        return [part for part in urlparse(self.path).path.split("/") if part]

    def _dispatch(self, handler) -> None:
        try:
            handler()
        except UnknownSessionError as error:
            self._send_json({"error": str(error)}, status=404)
        except UnknownComponentError as error:
            # A KeyError: str() would quote the message.
            self._send_json({"error": error.args[0] if error.args else ""},
                            status=400)
        except AdmissionError as error:
            self._send_json({"error": str(error)}, status=429)
        except ValidationError as error:
            self._send_json({"error": str(error)}, status=400)

    # --------------------------------------------------------------- verbs
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler protocol
        self._dispatch(self._get)

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch(self._post)

    def _get(self) -> None:
        route = self._route()
        if route == ["healthz"]:
            self._send_json(self.manager.healthz())
        elif route == ["metrics"]:
            self._send_json(self.manager.metrics())
        elif route == ["sessions"]:
            self._send_json({"sessions": self.manager.sessions()})
        elif len(route) == 2 and route[0] == "sessions":
            self._send_json(self.manager.status(route[1]))
        elif len(route) == 3 and route[0] == "sessions" \
                and route[2] == "events":
            query = self._query()
            try:
                after = int(query.get("after", 0))
                timeout = query.get("timeout")
                timeout = None if timeout is None else float(timeout)
            except ValueError as error:
                raise ValidationError(
                    f"after/timeout must be numbers: {error}"
                ) from error
            if timeout is not None and math.isfinite(timeout):
                # A non-finite timeout goes through for the manager to refuse.
                timeout = min(timeout, MAX_POLL_SECONDS)
            self._send_json(self.manager.events(route[1], after=after,
                                                timeout=timeout))
        else:
            self._send_json({"error": f"no such route GET {self.path}"},
                            status=404)

    def _post(self) -> None:
        route = self._route()
        if route == ["sessions"]:
            payload = self._read_json()
            session_id = self.manager.submit(payload)
            self._send_json({"session_id": session_id,
                             **self.manager.status(session_id)},
                            status=201)
        elif len(route) == 3 and route[0] == "sessions":
            session_id, action = route[1], route[2]
            if action == "pause":
                self._send_json(self.manager.pause(session_id))
            elif action == "resume":
                self._send_json(self.manager.resume(session_id))
            elif action == "cancel":
                self._send_json(self.manager.cancel(session_id))
            elif action == "checkpoint":
                self._send_json(self.manager.checkpoint(session_id))
            else:
                self._send_json(
                    {"error": f"no such action {action!r}; expected "
                              f"pause, resume, cancel or checkpoint"},
                    status=404)
        else:
            self._send_json({"error": f"no such route POST {self.path}"},
                            status=404)


class ServeServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer bound to one :class:`SessionManager`."""

    #: long-polls must not keep the process alive past shutdown
    daemon_threads = True

    def __init__(self, address, manager) -> None:
        super().__init__(address, ServeHandler)
        self.manager = manager

    def handle_error(self, request, client_address) -> None:
        """Log a client that hung up; let any other error print its traceback.

        A client that closes its socket before the reply is written makes
        the handler's write raise a ``ConnectionError`` (broken pipe,
        reset, abort): that is the client's doing, so it is one debug line.
        Anything else keeps socketserver's traceback on stderr, because
        the package logger has no handler of its own and would hide a
        real server bug.
        """
        error = sys.exc_info()[1]
        if isinstance(error, ConnectionError):
            log.debug("client %s hung up: %s", client_address[0],
                      type(error).__name__)
            return
        super().handle_error(request, client_address)


def build_server(manager, *, host: str = "127.0.0.1",
                 port: int = 0) -> ServeServer:
    """Bind a server for ``manager``; ``port=0`` picks an ephemeral port.

    The caller owns the loop: ``server.serve_forever()`` to serve,
    ``server.shutdown()`` + ``manager.shutdown()`` to stop.  The bound
    port is ``server.server_address[1]``.
    """
    return ServeServer((host, int(port)), manager)
