"""A thin HTTP/1.1 client for the query service.

Shared by the tests, the serving benchmark, and the CI smoke job so they
all speak the endpoint contract through one place.  Strictly standard
library, like the server.

Connections are persistent: each calling thread keeps one socket to the
server and reuses it across requests, so a request costs one round trip
on an open socket instead of a TCP handshake plus a fresh server thread.
The framing is the subset the server speaks (:mod:`repro.serve.http11`):
a request leaves in one ``sendall`` with Nagle disabled, and a reply is
read from one buffered reader kept with the socket — ``Content-Length``
bodies, or to end of stream when a reply has no length.
"""

from __future__ import annotations

import json
import socket
import ssl
import threading
import time
from urllib.parse import urlsplit

from ..errors import ReproError
from .http11 import (
    MAX_LINE, IncompleteMessage, MessageError, ends_connection, read_headers,
)

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


# How a peer that closed the socket before answering shows up.
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
        base_url: e.g. ``"http://127.0.0.1:8321"`` or
            ``"https://[::1]:8321"`` (no trailing slash needed).
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
        self._tls = (
            ssl.create_default_context() if url.scheme == "https" else None
        )
        self._address = (
            url.hostname, url.port or (80 if self._tls is None else 443)
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
            self._local.connection = None
            sock, rfile = connection
            rfile.close()
            sock.close()

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

    def _connect(self, url: str) -> tuple:
        """Open the calling thread's connection: ``(socket, reader)``."""
        sock = None
        try:
            sock = socket.create_connection(self._address, timeout=self.timeout)
            # Without TCP_NODELAY the tail of a request longer than one
            # segment waits out the server's delayed ACK (~40 ms).
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(
                    sock, server_hostname=self._address[0]
                )
        except OSError as exc:
            if sock is not None:
                sock.close()
            raise ServeError(
                f"cannot reach {url}: {exc}",
                transient=isinstance(exc, _TRANSIENT_REASONS),
            )
        connection = self._local.connection = (sock, sock.makefile("rb"))
        return connection

    def _exchange(
        self, method: str, path: str, body: "bytes | None"
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
        head = (
            f"{method} {self._path_prefix}{path} HTTP/1.1\r\n"
            f"Host: {self._netloc}\r\nAccept: application/json\r\n"
        )
        if body is not None:
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        request = (head + "\r\n").encode("iso-8859-1") + (body or b"")
        connection = getattr(self._local, "connection", None)
        reused = connection is not None
        try:
            while True:
                if connection is None:
                    connection = self._connect(url)
                sock, rfile = connection
                try:
                    sock.sendall(request)
                    status_line = rfile.readline(MAX_LINE + 1)
                    if status_line:
                        break
                    raise ConnectionResetError(
                        "the server closed the connection without replying"
                    )
                except _STALE_REASONS:
                    self.close()
                    connection = None
                    if not reused:
                        raise
                    reused = False
            return self._read_reply(status_line, rfile)
        except (OSError, MessageError) as exc:
            # Timeouts, resets and truncated or malformed replies alike
            # leave the connection in an unknown state: never reuse it.
            self.close()
            raise ServeError(
                f"connection lost to {url}: {exc}",
                transient=isinstance(
                    exc, _TRANSIENT_REASONS + (IncompleteMessage,)
                ),
            )

    def _read_reply(self, status_line: bytes, rfile) -> tuple[int, bytes]:
        """The rest of the reply whose status line was read: headers and
        a ``Content-Length`` body, or everything up to end of stream for
        a reply without one.  Closes the connection after a reply that
        ends it."""
        version, _, rest = status_line.partition(b" ")
        code = rest[:3]
        if not (
            version.startswith(b"HTTP/") and code.isdigit()
            and rest[3:4] in (b" ", b"\r", b"\n")
            and status_line.endswith(b"\n")
        ):
            raise MessageError(f"bad status line {status_line[:80]!r}")
        headers = read_headers(rfile)
        if "transfer-encoding" in headers:
            raise MessageError(
                "Transfer-Encoding replies are not supported "
                f"({headers['transfer-encoding']!r})"
            )
        close = ends_connection(headers, version == b"HTTP/1.0")
        declared = headers.get("content-length")
        if declared is None:
            payload, close = rfile.read(), True
        elif declared.isdecimal():
            length = int(declared)
            payload = rfile.read(length)
            if len(payload) < length:
                raise IncompleteMessage(
                    f"reply body cut short ({len(payload)} of {length} bytes)"
                )
        else:
            raise MessageError(f"bad Content-Length {declared!r}")
        if close:
            self.close()
        return int(code), payload

    def _request_once(self, path: str, payload: "dict | None" = None) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        status, raw = self._exchange(
            "GET" if body is None else "POST", path, body
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
