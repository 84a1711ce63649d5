"""A thin ``http.client`` client for the query service.

Shared by the tests, the serving benchmark, and the CI smoke job so they
all speak the endpoint contract through one place.  Strictly standard
library, like the server.

Connections are persistent: each calling thread keeps one
:class:`http.client.HTTPConnection` to the server and reuses it across
requests, so a request costs one round trip on an open socket instead of
a TCP handshake plus a fresh server thread.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from urllib.parse import urlsplit

from ..errors import ReproError

__all__ = ["ServeClient", "ServeError"]


class ServeError(ReproError):
    """An HTTP-level failure talking to the service.

    Attributes:
        status: HTTP status code, when a response arrived at all.
        payload: the decoded error payload, when the body was JSON.
        transient: whether retrying could plausibly succeed (connection
            reset/refused, or a 503 from the dispatcher) — what
            :class:`ServeClient`'s bounded retry keys on.
    """

    def __init__(
        self, message: str, status: "int | None" = None, payload=None,
        transient: bool = False,
    ):
        super().__init__(message)
        self.status = status
        self.payload = payload
        self.transient = transient


# How a peer that closed the socket before answering shows up
# (http.client.RemoteDisconnected is a ConnectionResetError).
_STALE_REASONS = (ConnectionResetError, ConnectionAbortedError, BrokenPipeError)
_TRANSIENT_REASONS = _STALE_REASONS + (ConnectionRefusedError,)


class ServeClient:
    """Talk JSON to a running :mod:`repro.serve` server.

    Requests that fail *transiently* — the connection was reset or
    refused (a worker restarting, the multiprocess dispatcher failing
    over), or the server answered 503 (no worker could take the
    request) — are retried up to *retries* times with exponential
    backoff.  Anything the server actually answered (400s, budget
    trips, normal payloads) is never retried; ``retries=0`` opts out
    entirely.

    Args:
        base_url: e.g. ``"http://127.0.0.1:8321"`` (no trailing slash
            needed).
        timeout: per-request socket timeout in seconds.
        retries: additional attempts after a transient failure
            (default 2; 0 disables retrying).
        backoff: first retry delay in seconds; doubles per attempt.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 2,
        backoff: float = 0.05,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        url = urlsplit(self.base_url)
        self._connection_class = (
            http.client.HTTPSConnection
            if url.scheme == "https"
            else http.client.HTTPConnection
        )
        self._netloc = url.netloc
        self._path_prefix = url.path
        # One connection per calling thread: a socket carries one
        # request/response at a time, so threads sharing a client must
        # never share a socket.
        self._local = threading.local()

    # --- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Close the calling thread's connection (idempotent; the next
        request simply opens a new one)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --- transport ------------------------------------------------------------
    def _request(self, path: str, payload: "dict | None" = None) -> dict:
        attempt = 0
        while True:
            try:
                return self._request_once(path, payload)
            except ServeError as exc:
                if attempt >= self.retries or not exc.transient:
                    raise
            time.sleep(self.backoff * (2 ** attempt))
            attempt += 1

    def _exchange(
        self, method: str, path: str, body: "bytes | None", headers: dict
    ) -> tuple[int, bytes]:
        """One request/response on the calling thread's connection.

        A *reused* socket may have been closed by the server since its
        last response (idle timeout, restart).  That shows as a peer
        reset before a single response byte arrived — the request was
        never answered, so it is sent once more on a fresh connection,
        invisibly to the caller and to the ``retries`` budget.  A fresh
        connection failing the same way, and any failure after response
        bytes were read, is raised.
        """
        url = f"{self.base_url}{path}"
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._connection_class(
                self._netloc, timeout=self.timeout
            )
        reused = connection.sock is not None
        try:
            while True:
                if connection.sock is None:
                    try:
                        connection.connect()
                    except OSError as exc:
                        raise ServeError(
                            f"cannot reach {url}: {exc}",
                            transient=isinstance(exc, _TRANSIENT_REASONS),
                        )
                try:
                    connection.request(
                        method, self._path_prefix + path, body=body,
                        headers=headers,
                    )
                    response = connection.getresponse()
                    break
                except _STALE_REASONS:
                    # RemoteDisconnected is raised only when the status
                    # line read hit EOF at its first byte.
                    connection.close()
                    if not reused:
                        raise
                    reused = False
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            # Timeouts, resets and truncated bodies alike leave the
            # connection in an unknown state: never reuse it.
            connection.close()
            raise ServeError(
                f"connection lost to {url}: {exc}",
                transient=isinstance(
                    exc, _TRANSIENT_REASONS + (http.client.IncompleteRead,)
                ),
            )

    def _request_once(self, path: str, payload: "dict | None" = None) -> dict:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        status, raw = self._exchange(
            "GET" if body is None else "POST", path, body, headers
        )
        try:
            decoded = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            if status < 400:
                raise ServeError(f"non-JSON response from {path}: {exc}")
            decoded = None
        if status >= 400:
            message = (
                decoded.get("error") if isinstance(decoded, dict) else None
            ) or f"HTTP {status} from {path}"
            raise ServeError(
                message, status=status, payload=decoded,
                transient=status == 503,
            )
        return decoded

    # --- endpoints ------------------------------------------------------------
    def health(self) -> dict:
        return self._request("/health")

    def metrics(self) -> dict:
        return self._request("/metrics")

    def load(
        self,
        dataset: str,
        program: "str | None" = None,
        facts: "str | None" = None,
        extend: bool = False,
    ) -> dict:
        return self._request(
            "/load",
            {
                "dataset": dataset,
                "program": program,
                "facts": facts,
                "extend": extend,
            },
        )

    def update(
        self,
        dataset: str,
        add: "list[str] | tuple[str, ...]" = (),
        remove: "list[str] | tuple[str, ...]" = (),
    ) -> dict:
        return self._request(
            "/update",
            {"dataset": dataset, "add": list(add), "remove": list(remove)},
        )

    def prepare(self, dataset: str, goal: str, **config) -> dict:
        return self._request(
            "/prepare", {"dataset": dataset, "goal": goal, **config}
        )

    def query(
        self,
        dataset: str,
        goal: str,
        budget: "dict | None" = None,
        **config,
    ) -> dict:
        payload = {"dataset": dataset, "goal": goal, **config}
        if budget is not None:
            payload["budget"] = budget
        return self._request("/query", payload)

    # --- conveniences ---------------------------------------------------------
    def wait_healthy(self, deadline_seconds: float = 10.0) -> dict:
        """Poll ``/health`` until it answers or the deadline passes."""
        deadline = time.monotonic() + deadline_seconds
        last_error: "ServeError | None" = None
        while time.monotonic() < deadline:
            try:
                return self.health()
            except ServeError as exc:
                last_error = exc
                time.sleep(0.05)
        raise ServeError(
            f"server at {self.base_url} not healthy after "
            f"{deadline_seconds}s: {last_error}"
        )

    def counter(self, name: str) -> int:
        """One counter from ``/metrics`` (0 when absent)."""
        return int(
            self.metrics()["metrics"]["counters"].get(name, 0)
        )
