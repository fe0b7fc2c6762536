"""The serve HTTP API end to end: real server, ephemeral port, real client.

Each fixture boots a :class:`ThreadingHTTPServer` on port 0 and drives it
through :class:`ServeClient` — the same stack ``repro serve`` /
``repro submit`` run.  The acceptance test kills the whole server
mid-search and asserts a restarted server resumes the session to a result
bit-for-bit identical to an uninterrupted run.
"""

import json
import logging
import math
import socket
import threading
import time
from urllib.parse import urlencode

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError
from repro.serve import ServeAPIError, ServeClient, SessionManager, build_server
from repro.serve.http import READ_TIMEOUT_SECONDS, ServeHandler

SPEC = {"dataset": "blood", "max_trials": 4, "seed": 3, "scale": 0.5}


class _Server:
    """One manager + HTTP server + client, torn down as a unit."""

    def __init__(self, state_dir, **manager_options):
        self.manager = SessionManager(state_dir=state_dir, **manager_options)
        self.server = build_server(self.manager)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.client = ServeClient(f"http://{host}:{port}")

    def stop(self):
        self.server.shutdown()
        self.server.server_close()
        self.manager.shutdown()
        self.thread.join(timeout=10)


@pytest.fixture
def served(tmp_path):
    server = _Server(tmp_path / "state", max_sessions=2, checkpoint_every=2)
    yield server
    server.stop()


@pytest.fixture(scope="module")
def polled(tmp_path_factory):
    """A server shared by a module's examples, with one submitted session."""
    server = _Server(tmp_path_factory.mktemp("polled") / "state")
    session_id = server.client.submit(SPEC)["session_id"]
    yield server, session_id
    server.stop()


class TestEndpoints:
    def test_healthz_and_metrics(self, served):
        health = served.client.healthz()
        assert health["status"] == "ok"
        assert health["max_sessions"] == 2
        assert "registry" in served.client.metrics()

    def test_submit_status_events_roundtrip(self, served):
        view = served.client.submit(SPEC)
        session_id = view["session_id"]
        assert view["status"] in ("queued", "running")

        final = served.client.wait(session_id)
        assert final["status"] == "done"
        assert final["trials"] == SPEC["max_trials"]

        chunk = served.client.events(session_id)
        kinds = [event["kind"] for event in chunk["events"]]
        assert kinds.count("trial") == SPEC["max_trials"]
        assert served.client.sessions()[0]["session_id"] == session_id

    def test_long_poll_blocks_until_events_arrive(self, served):
        session_id = served.client.submit({**SPEC, "max_trials": 6})[
            "session_id"]
        seen = 0
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            chunk = served.client.events(session_id, after=seen, timeout=5.0)
            seen = chunk["next"]
            if chunk["status"] not in ("queued", "running"):
                break
        assert seen >= 6

    def test_checkpoint_pause_resume_cycle(self, served):
        session_id = served.client.submit({**SPEC, "max_trials": 6})[
            "session_id"]
        served.client.wait(session_id)
        checkpoint = served.client.checkpoint(session_id)
        assert checkpoint["checkpoint"].endswith("checkpoint.json")
        # Terminal sessions cannot pause; the error carries the state.
        with pytest.raises(ServeAPIError) as info:
            served.client.pause(session_id)
        assert info.value.status == 400
        assert "done" in info.value.message

    def test_error_statuses(self, served):
        with pytest.raises(ServeAPIError) as not_found:
            served.client.status("no-such-session")
        assert not_found.value.status == 404

        with pytest.raises(ServeAPIError) as bad_request:
            served.client.submit({"dataset": "blood", "max_trials": 0})
        assert bad_request.value.status == 400

        with pytest.raises(ServeAPIError) as bad_route:
            served.client._call("GET", "/no/such/route")
        assert bad_route.value.status == 404

    def test_admission_denied_maps_to_429(self, tmp_path):
        server = _Server(tmp_path / "state", tenant_quota=5)
        try:
            server.client.submit({**SPEC, "tenant": "small"})
            with pytest.raises(ServeAPIError) as info:
                server.client.submit({**SPEC, "tenant": "small"})
            assert info.value.status == 429
            assert "quota" in info.value.message
        finally:
            server.stop()

    def test_unreachable_server_raises_repro_error(self):
        client = ServeClient("http://127.0.0.1:9", timeout=1.0)
        with pytest.raises(ReproError, match="cannot reach"):
            client.healthz()


def _raw_request(server, request: bytes, *, timeout: float = 10.0) -> bytes:
    """Send ``request`` on a raw socket; everything read until the server closes."""
    host, port = server.server.server_address[:2]
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _reply_within(server, request: bytes, seconds: float) -> tuple:
    """``(status, JSON body)`` of the reply to ``request``, sent in time."""
    host, port = server.server.server_address[:2]
    start = time.monotonic()
    chunks = []
    with socket.create_connection((host, port), timeout=seconds) as sock:
        sock.sendall(request)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # the server closed with part of the request unread
    assert time.monotonic() - start < seconds
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 "), head
    return int(head.split()[1]), json.loads(body)


def _not_a_finite_number(text: str) -> bool:
    try:
        return not math.isfinite(float(text))
    except ValueError:
        return True


#: poll parameters no long-poll may accept: NaN, infinities, numbers that
#: overflow to infinity and text that is not a number
bad_poll_values = st.sampled_from(
    ["nan", "-NaN", "inf", "-inf", "Infinity", "1e400", "-1e999", "9" * 400]
) | st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
            max_size=12).filter(_not_a_finite_number)

#: the session placeholder in a drawn poll request
SESSION = b"<session>"

poll_requests = st.builds(
    lambda after, timeout: (
        b"GET /sessions/%s/events?%s HTTP/1.1\r\nHost: test\r\n"
        b"Connection: close\r\n\r\n"
        % (SESSION, urlencode({"after": after, "timeout": timeout})
           .encode("ascii"))),
    after=bad_poll_values | st.integers(-10**30, 10**30).map(str),
    timeout=bad_poll_values,
)

#: request lines the stdlib refuses: one word, a bad or unsupported
#: version, too many words, an over-long line, a method with no handler
bad_request_lines = st.sampled_from([
    b"GET", b"POST", b"GET /healthz HTTP/9.9", b"GET /healthz HTTP/2.0",
    b"GET /healthz HTTP/1.x", b"GET /healthz HTTP/1", b"GET /healthz HTP/1.1",
    b"GET /healthz HTTP/1.1.1", b"GET /healthz HTTP/12345678901.1",
    b"GET /a b HTTP/1.1", b"POST /sessions", b"PUT /sessions HTTP/1.1",
    b"DELETE /sessions/x HTTP/1.1", b"GET /" + b"a" * 70000 + b" HTTP/1.1",
]) | st.integers(2, 10**6).map(lambda major: b"GET /healthz HTTP/%d.0" % major)

#: header blocks the stdlib refuses: a line over 64 KiB or over 100 lines
bad_headers = st.integers(65537, 80000).map(
    lambda size: b"X-Big: " + b"a" * size + b"\r\n"
) | st.integers(101, 300).map(
    lambda count: b"".join(b"X-%d: 1\r\n" % i for i in range(count)))

hostile_requests = poll_requests | bad_request_lines.map(
    lambda line: line + b"\r\nHost: test\r\n\r\n"
) | bad_headers.map(
    lambda headers: b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n")


def _handler_threads() -> set:
    return {thread for thread in threading.enumerate()
            if "process_request_thread" in thread.name}


class TestHostileRequests:
    @pytest.mark.parametrize("length", ["abc", "12abc", "1.5", "-1"])
    def test_bad_content_length_is_a_400(self, served, length):
        reply = _raw_request(served, (
            f"POST /sessions HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {length}\r\n\r\n{{}}").encode("ascii"))
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert "Content-Length" in json.loads(body)["error"]

    def test_short_body_times_out_and_frees_the_handler(self, served,
                                                        monkeypatch):
        assert ServeHandler.timeout == READ_TIMEOUT_SECONDS > 0
        monkeypatch.setattr(ServeHandler, "timeout", 0.5)
        before = _handler_threads()
        start = time.monotonic()
        reply = _raw_request(served, (
            b"POST /sessions HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 100\r\n\r\n{}"))
        assert reply == b""
        assert time.monotonic() - start < 5.0
        for thread in _handler_threads() - before:
            thread.join(timeout=5.0)
            assert not thread.is_alive()


    @pytest.mark.parametrize("body, named", [
        ({"dataset": "nope"}, "nope"),
        ({"dataset": "blood", "algorithm": "nope"}, "nope"),
        ({"dataset": "blood", "max_trials": "abc"}, "max_trials"),
        ({"dataset": "blood", "scale": [1]}, "scale"),
        ({"dataset": "blood", "context": {"prefix_cache_bytes": "abc"}},
         "prefix_cache_bytes"),
        ({"dataset": "blood", "context": {"async_mode": "false"}},
         "async_mode"),
    ])
    def test_bad_submission_is_a_400_naming_the_field(self, served, body,
                                                      named):
        payload = json.dumps(body).encode("utf-8")
        reply = _raw_request(served, (
            b"POST /sessions HTTP/1.1\r\nHost: test\r\n"
            b"Connection: close\r\n"
            b"Content-Length: %d\r\n\r\n" % len(payload)) + payload)
        head, _, raw = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert named in json.loads(raw)["error"]
        assert served.manager.sessions() == []

    def test_connection_closed_without_reply_is_a_repro_error(self):
        listener = socket.create_server(("127.0.0.1", 0))

        def hang_up():
            connection, _ = listener.accept()
            connection.recv(65536)
            connection.close()

        thread = threading.Thread(target=hang_up, daemon=True)
        thread.start()
        try:
            host, port = listener.getsockname()
            client = ServeClient(f"http://{host}:{port}", timeout=5.0)
            with pytest.raises(ReproError, match="without a reply"):
                client.healthz()
        finally:
            thread.join(timeout=5.0)
            listener.close()
        assert not thread.is_alive()

    def test_head_request_gets_a_501_without_a_body(self, served):
        reply = _raw_request(served, (
            b"HEAD /healthz HTTP/1.1\r\nHost: test\r\n\r\n"))
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501 ")
        assert b"application/json" in head
        assert body == b""

    @given(request=hostile_requests)
    @settings(max_examples=80, deadline=None)
    def test_hostile_requests_get_a_json_error_in_time(self, polled,
                                                       request):
        server, session_id = polled
        request = request.replace(SESSION, session_id.encode("ascii"))
        status, body = _reply_within(server, request, 5.0)
        assert 400 <= status < 600
        assert isinstance(body["error"], str)
        assert server.client.healthz()["status"] == "ok"


class TestHandlerErrors:
    @pytest.mark.parametrize("error", [BrokenPipeError, ConnectionResetError,
                                       ConnectionAbortedError])
    def test_client_hang_up_is_one_debug_line(self, served, capfd, caplog,
                                              error):
        # A handler writing its reply to a client that already closed the
        # socket raises a ConnectionError inside socketserver's request
        # loop, which then calls handle_error.
        with caplog.at_level(logging.DEBUG, logger="repro.serve.http"):
            try:
                raise error("the client hung up")
            except ConnectionError:
                served.server.handle_error(None, ("127.0.0.1", 40000))
        assert capfd.readouterr().err == ""
        records = [record for record in caplog.records
                   if record.name == "repro.serve.http"]
        assert [record.levelno for record in records] == [logging.DEBUG]
        assert error.__name__ in records[0].getMessage()

    def test_other_handler_errors_keep_the_traceback(self, served, capfd):
        try:
            raise KeyError("a server bug")
        except KeyError:
            served.server.handle_error(None, ("127.0.0.1", 40000))
        assert "Traceback" in capfd.readouterr().err


class TestServerRestart:
    def test_kill_and_restart_resumes_bit_for_bit(self, tmp_path):
        spec = {**SPEC, "max_trials": 8}
        reference = _Server(tmp_path / "ref", checkpoint_every=2)
        try:
            ref_id = reference.client.submit(spec)["session_id"]
            expected = reference.client.wait(ref_id)["result"]["accuracies"]
        finally:
            reference.stop()

        first = _Server(tmp_path / "state", checkpoint_every=2)
        session_id = first.client.submit(spec)["session_id"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if (first.client.status(session_id)["trials"] or 0) >= 3:
                break
            time.sleep(0.05)
        first.stop()  # kill the server mid-search

        second = _Server(tmp_path / "state", checkpoint_every=2)
        try:
            assert second.client.status(session_id)["status"] in (
                "queued", "running", "done")
            final = second.client.wait(session_id)
            assert final["status"] == "done"
            assert final["trials"] == spec["max_trials"]
            assert final["result"]["accuracies"] == expected
        finally:
            second.stop()
