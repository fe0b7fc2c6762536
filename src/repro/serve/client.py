"""A thin stdlib client for the ``repro serve`` HTTP API.

:class:`ServeClient` mirrors the server routes one method per endpoint
and returns parsed JSON; it exists so the ``repro submit|status|events``
CLI subcommands — and tests — never hand-roll ``urllib`` plumbing.
Error responses raise :class:`ServeAPIError` carrying the HTTP status
and the server's ``error`` message.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.parse
import urllib.request

from repro.exceptions import ReproError


class ServeAPIError(ReproError):
    """An HTTP error response from a ``repro serve`` server."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"server returned {status}: {message}")
        self.status = status
        self.message = message


class ServeClient:
    """JSON-over-HTTP client bound to one server base URL.

    Parameters
    ----------
    base_url:
        e.g. ``"http://127.0.0.1:8642"``; a bare ``host:port`` gets the
        scheme prepended.
    timeout:
        Socket timeout for plain calls; long-poll :meth:`events` calls
        add their poll window on top.
    """

    def __init__(self, base_url: str, *, timeout: float = 10.0) -> None:
        if "://" not in base_url:
            base_url = f"http://{base_url}"
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)

    def _call(self, method: str, path: str, *, payload=None,
              query: dict | None = None, timeout: float | None = None):
        url = f"{self.base_url}{path}"
        if query:
            url = f"{url}?{urllib.parse.urlencode(query)}"
        body = None if payload is None \
            else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            url, data=body, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(
                    request, timeout=timeout or self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            raw = error.read().decode("utf-8", errors="replace")
            try:
                message = json.loads(raw).get("error", raw)
            except ValueError:
                message = raw
            raise ServeAPIError(error.code, message) from error
        except urllib.error.URLError as error:
            raise ReproError(
                f"cannot reach serve endpoint {self.base_url}: "
                f"{error.reason}"
            ) from error
        except (http.client.HTTPException, ConnectionError) as error:
            raise ReproError(
                f"serve endpoint {self.base_url} closed the connection "
                f"without a reply: {error}"
            ) from error

    # ------------------------------------------------------------ endpoints
    def healthz(self) -> dict:
        return self._call("GET", "/healthz")

    def metrics(self) -> dict:
        return self._call("GET", "/metrics")

    def sessions(self) -> list:
        return self._call("GET", "/sessions")["sessions"]

    def submit(self, spec: dict) -> dict:
        """Submit a search; returns the created session's status view."""
        return self._call("POST", "/sessions", payload=spec)

    def status(self, session_id: str) -> dict:
        return self._call("GET", f"/sessions/{session_id}")

    def events(self, session_id: str, *, after: int = 0,
               timeout: float | None = None) -> dict:
        query: dict = {"after": int(after)}
        if timeout is not None:
            query["timeout"] = float(timeout)
        call_timeout = self.timeout + (timeout or 0.0)
        return self._call("GET", f"/sessions/{session_id}/events",
                          query=query, timeout=call_timeout)

    def pause(self, session_id: str) -> dict:
        return self._call("POST", f"/sessions/{session_id}/pause")

    def resume(self, session_id: str) -> dict:
        return self._call("POST", f"/sessions/{session_id}/resume")

    def cancel(self, session_id: str) -> dict:
        return self._call("POST", f"/sessions/{session_id}/cancel")

    def checkpoint(self, session_id: str) -> dict:
        return self._call("POST", f"/sessions/{session_id}/checkpoint")

    def wait(self, session_id: str, *, poll: float = 5.0,
             max_polls: int | None = None) -> dict:
        """Long-poll events until the session leaves its in-flight states.

        Returns the final status view.  ``max_polls`` bounds the wait for
        tests; ``None`` waits until the session is done/paused/failed/
        cancelled.
        """
        after = 0
        polls = 0
        while True:
            chunk = self.events(session_id, after=after, timeout=poll)
            after = chunk["next"]
            if chunk["status"] not in ("queued", "running"):
                return self.status(session_id)
            polls += 1
            if max_polls is not None and polls >= max_polls:
                return self.status(session_id)
