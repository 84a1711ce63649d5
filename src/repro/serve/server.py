"""The HTTP face of the query service — standard library only.

A :class:`~http.server.ThreadingHTTPServer` (one daemon thread per
connection) wraps a :class:`~repro.serve.service.QueryService`.
JSON in, JSON out; no framework, no non-stdlib dependency, because the
service must run anywhere the engine runs.  Connections are HTTP/1.1
persistent: a keep-alive client's requests all run on its connection's
thread, each response leaves in one send with Nagle disabled, and an
idle connection is closed after ``_Handler.timeout`` seconds.

Endpoints::

    GET  /health    liveness + loaded datasets (200 as soon as booted)
    GET  /metrics   metrics snapshot + cache totals + in-flight gauge
    POST /load      {"dataset", "program"?, "facts"?, "extend"?}
    POST /update    {"dataset", "add"?: [facts], "remove"?: [facts]}
    POST /prepare   {"dataset", "goal", "strategy"?, config...}
    POST /query     {"dataset", "goal", "strategy"?, "budget"?, config...}

``/update`` is the incremental mutation path: each cached shape is
kept, patched in place or dropped by what it reads, and maintained
shapes (``"maintain": "dred"`` in ``/prepare`` or ``/query``; any
other value is a 400 naming ``"dred"``) are always patched — see
:meth:`repro.serve.service.QueryService.update`.

Error contract: malformed requests and library errors
(:class:`~repro.errors.ReproError`) are 400 with ``{"error": ...}``; a
worker pool that cannot serve a request
(:class:`~repro.serve.pool.WorkerPoolError`) is 503; unknown paths are
404; **budget trips are 200** with a sound-partial payload
(``partial: true`` — see :mod:`repro.serve.service`).

Booting installs a :class:`~repro.obs.ThreadSafeMetrics` registry as the
process-wide active registry (request threads record concurrently), and
:func:`run_server` shuts down cleanly on SIGINT/SIGTERM — the serve
smoke CI job fails on any traceback at shutdown.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import REMOVED_SETTINGS, ReproError
from ..obs import ThreadSafeMetrics, get_metrics, set_metrics
from .http11 import MessageError, ends_connection, read_headers
from .pool import WorkerPoolError
from .service import QueryService, budget_from_payload, encode_reply

__all__ = ["ReproServer", "create_server", "run_server", "DEFAULT_HOST"]

DEFAULT_HOST = "127.0.0.1"
MAX_BODY_BYTES = 64 * 1024 * 1024


class ReproServer(ThreadingHTTPServer):
    """The threading HTTP server plus the shared service state."""

    daemon_threads = True
    # Allow quick restarts in tests/CI without TIME_WAIT bind failures.
    allow_reuse_address = True
    # The stdlib default backlog of 5 drops simultaneous connects under
    # concurrent clients (connection reset); match a realistic burst.
    request_queue_size = 128

    def __init__(self, address, service: QueryService, quiet: bool = True):
        super().__init__(address, _Handler)
        self.service = service
        self.quiet = quiet
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._connections: set = set()  # open handler sockets
        self._date = (0, "")  # (second, its Date header text)

    def http_date(self) -> str:
        """The ``Date`` header value for now (an IMF-fixdate), formatted
        once per second; request threads share it."""
        now = time.time()
        second, text = self._date
        if int(now) != second:
            text = formatdate(now, usegmt=True)
            self._date = (int(now), text)
        return text

    # --- in-flight gauge ------------------------------------------------------
    def request_started(self) -> None:
        obs = get_metrics()
        with self._inflight_lock:
            self._inflight += 1
            current = self._inflight
        if obs.enabled:
            obs.incr("serve.requests")
            obs.observe("serve.inflight", current)

    def request_finished(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    @property
    def port(self) -> int:
        return self.server_address[1]

    def server_close(self):
        """Stop listening *and* hang up every open connection: a
        keep-alive client of a closed server must see a dead socket now,
        not an answer from a handler thread that outlived its server."""
        super().server_close()
        with self._inflight_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer hung up first

    def handle_error(self, request, client_address):
        # A client that vanished mid-response (killed worker, SIGTERM
        # during an in-flight query) or went silent on a persistent
        # connection is not a server error; the smoke job fails on any
        # traceback, so swallow connection aborts and socket timeouts
        # when quiet and defer to the stdlib printer otherwise.
        if self.quiet:
            import sys

            exc = sys.exc_info()[1]
            if isinstance(exc, (ConnectionError, TimeoutError)):
                return
        super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    """Request dispatch.  One instance per *connection*, on its own
    thread; HTTP/1.1 keep-alive clients send many requests through it."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # A response is a few hundred bytes: without TCP_NODELAY a
    # keep-alive client waits out the Nagle / delayed-ACK stall (~40 ms)
    # on every request.
    disable_nagle_algorithm = True
    # Buffer the response so status line, headers and body leave in one
    # send (the stdlib flushes once after each request's handler).
    wbufsize = -1
    # Socket timeout in seconds: bounds the wait for the next request on
    # an idle persistent connection (and any stalled read or write), so
    # a vanished client cannot pin this thread forever.  It never limits
    # evaluation time, which touches no socket.
    timeout = 30.0

    # A request line without a version is answered as HTTP/1.x (a JSON
    # 400), not as HTTP/0.9, whose replies have no status line.
    default_request_version = "HTTP/1.0"

    # --- plumbing -------------------------------------------------------------
    def parse_request(self):
        """Parse the request line and header block into ``command``,
        ``path``, ``request_version`` and ``headers`` (a dict keyed by
        lower-cased name, see :func:`~repro.serve.http11.read_headers`).

        The stdlib hook with the stdlib's rules — 400 for a bad request
        line, 505 for HTTP/2+, ``//`` collapsed, ``Connection`` per
        version, ``Expect: 100-continue`` — minus its MIME feed parser
        for the header block.  Two-word (HTTP/0.9) request lines are a 400, and
        a ``Transfer-Encoding`` body is a 411 before any of it is read.
        Returns False once an error reply is on its way.
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) != 3:
            self.send_error(400, f"Bad request syntax ({self.requestline!r})")
            return False
        command, path, version = words
        # Set before the version checks: a HEAD gets no body even when
        # its error reply comes from them.
        self.command = command
        number = _version_number(version)
        if number is None:
            self.send_error(400, f"Bad request version ({version!r})")
            return False
        if number >= (2, 0):
            self.send_error(505, f"Invalid HTTP version ({version[5:]})")
            return False
        self.request_version = version
        # gh-87389: clients read "//host/x" as a scheme-less absolute URI.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.headers = read_headers(self.rfile)
        except MessageError as exc:
            self.send_error(exc.status, str(exc))
            return False
        self.close_connection = ends_connection(self.headers, number < (1, 1))
        if "transfer-encoding" in self.headers:
            # Only Content-Length bodies are read; a chunked body left on
            # the connection would be parsed as the next request.
            self.send_error(411, "Content-Length required")
            return False
        if number >= (1, 1) and (
            self.headers.get("expect", "").lower() == "100-continue"
        ):
            return self.handle_expect_100()
        return True

    def send_error(self, code, message=None, explain=None):
        """A protocol-level error (bad request line, 411, 414, 431, 501,
        505) keeps the JSON error contract and gives up the connection:
        what follows on it cannot be trusted to start a request."""
        if message is None:
            message = self.responses.get(code, (f"HTTP {code}",))[0]
        self.log_error("code %d, message %s", code, message)
        self.close_connection = True
        self._send_json(code, {"error": message})

    def setup(self):
        super().setup()
        with self.server._inflight_lock:
            self.server._connections.add(self.connection)
        obs = get_metrics()
        if obs.enabled:
            obs.incr("serve.connections")

    def finish(self):
        with self.server._inflight_lock:
            self.server._connections.discard(self.connection)
        super().finish()

    def handle_expect_100(self):
        # The interim "100 Continue" must reach the client before it
        # sends the body this thread is about to read: flush it out of
        # the response buffer now.
        proceed = super().handle_expect_100()
        self.wfile.flush()
        return proceed

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        """The one reply writer: the status line and the stdlib's headers
        (``Server``, ``Date``, ``Content-Type``, ``Content-Length``, and
        ``Connection: close`` when closing) formatted as one block, then
        the :func:`~repro.serve.service.encode_reply` body — except to a
        ``HEAD``, whose reply has no content (RFC 9110 §9.3.2)."""
        body = encode_reply(payload)
        if not self.server.quiet:
            self.log_request(status)
        reason = self.responses.get(status, ("",))[0]
        close = "Connection: close\r\n" if self.close_connection else ""
        head = (
            f"{self.protocol_version} {status} {reason}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.server.http_date()}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n{close}\r\n"
        ).encode("latin-1")
        self.wfile.write(head if self.command == "HEAD" else head + body)

    def _read_json(self) -> dict:
        # Until the body is consumed, every way out must also give up
        # the connection: on a persistent one the unread bytes would be
        # parsed as the next request line.
        close_after, self.close_connection = self.close_connection, True
        declared = self.headers.get("content-length", "0")
        # Repeats were joined with commas; equal repeats are one length
        # (RFC 9112 §6.3), differing ones leave the body's end unknown.
        lengths = {value.strip() for value in declared.split(",")}
        if len(lengths) > 1:
            raise ReproError(f"conflicting Content-Length values {declared!r}")
        try:
            length = int(lengths.pop())
        except ValueError:
            length = -1
        if length < 0:
            raise ReproError(
                "Content-Length must be a non-negative integer, got "
                f"{declared!r}"
            )
        if length > MAX_BODY_BYTES:
            raise ReproError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length) if length else b""
        if len(raw) == length:
            self.close_connection = close_after
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ReproError(f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise ReproError("request body must be a JSON object")
        return payload

    def _dispatch(self, handler) -> None:
        self.server.request_started()
        try:
            status, payload = handler()
        except WorkerPoolError as exc:
            status, payload = 503, {"error": str(exc)}
        except ReproError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive
            status, payload = 500, {
                "error": f"internal error: {type(exc).__name__}: {exc}"
            }
        finally:
            self.server.request_finished()
        self._send_json(status, payload)

    # --- routes ---------------------------------------------------------------
    @property
    def route(self) -> str:
        """The request target's path: a query string routes nowhere."""
        return self.path.partition("?")[0]

    def do_GET(self):
        declared = self.headers.get("content-length", "0")
        if any(
            not value.strip().isdecimal() or int(value)
            for value in declared.split(",")
        ):
            # GET bodies are never read: do not keep the connection.
            self.close_connection = True
        route = self.route
        if route == "/health":
            self._dispatch(self._health)
        elif route == "/metrics":
            self._dispatch(self._metrics)
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self):
        routes = {
            "/load": self._load,
            "/update": self._update,
            "/prepare": self._prepare,
            "/query": self._query,
        }
        handler = routes.get(self.route)
        if handler is None:
            # The body is never read: do not keep the connection.
            self.close_connection = True
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        self._dispatch(handler)

    def _health(self):
        return 200, self.server.service.health_payload()

    def _metrics(self):
        payload = self.server.service.metrics_payload()
        payload["inflight"] = self.server.inflight
        return 200, payload

    def _load(self):
        payload = self._read_json()
        info = self.server.service.load(
            self._required(payload, "dataset"),
            program_text=self._string(payload, "program"),
            facts_text=self._string(payload, "facts"),
            extend=bool(payload.get("extend", False)),
        )
        return 200, info

    def _update(self):
        payload = self._read_json()
        name = self._required(payload, "dataset")
        add = payload.get("add") or []
        remove = payload.get("remove") or []
        for field, value in (("add", add), ("remove", remove)):
            if not isinstance(value, list) or not all(
                isinstance(item, str) for item in value
            ):
                raise ReproError(
                    f'"{field}" must be a list of fact strings, '
                    f"got {value!r}"
                )
        return 200, self.server.service.update(name, add=add, remove=remove)

    def _prepare(self):
        payload = self._read_json()
        return 200, self.server.service.prepare(
            self._required(payload, "dataset"),
            self._required(payload, "goal"),
            **self._config(payload),
        )

    def _query(self):
        payload = self._read_json()
        budget = budget_from_payload(payload.get("budget"))
        return 200, self.server.service.query(
            self._required(payload, "dataset"),
            self._required(payload, "goal"),
            budget=budget,
            **self._config(payload),
        )

    @staticmethod
    def _string(payload: dict, field: str) -> "str | None":
        """The optional string *field* (absent and ``null`` → ``None``);
        any other JSON type is rejected here, before it can surface as a
        ``TypeError``/``AttributeError`` deep inside the service."""
        value = payload.get(field)
        if value is not None and not isinstance(value, str):
            raise ReproError(f'"{field}" must be a string, got {value!r}')
        return value

    @classmethod
    def _required(cls, payload: dict, field: str) -> str:
        value = cls._string(payload, field)
        if not value:
            raise ReproError(f'request requires a "{field}" field')
        return value

    @classmethod
    def _config(cls, payload: dict) -> dict:
        config = {}
        for field, message in REMOVED_SETTINGS.items():
            if field in payload:
                raise ReproError(message)
        for field in ("strategy", "sips", "maintain"):
            value = cls._string(payload, field)
            if value is not None:
                config[field] = value
        return config


def _version_number(version: str) -> "tuple[int, int] | None":
    """``"HTTP/1.1"`` → ``(1, 1)``; None unless *version* is ``HTTP/``
    and two dot-separated integers of at most ten digits (RFC 2145 §3.1:
    each compared as an integer, leading zeros ignored)."""
    major, dot, minor = version[5:].partition(".")
    # isdecimal, not isdigit: "²" is a digit int() refuses.
    if (
        version.startswith("HTTP/") and dot
        and major.isdecimal() and minor.isdecimal()
        and len(major) <= 10 and len(minor) <= 10
    ):
        return int(major), int(minor)
    return None


def create_server(
    host: str = DEFAULT_HOST,
    port: int = 0,
    service: "QueryService | None" = None,
    quiet: bool = True,
    install_metrics: bool = True,
) -> ReproServer:
    """Bind a :class:`ReproServer` (``port=0`` → ephemeral port).

    With *install_metrics* (the default) a fresh
    :class:`~repro.obs.ThreadSafeMetrics` becomes the process-wide active
    registry, so request threads record safely; pass ``False`` when the
    caller (a test) manages the registry itself.
    """
    if install_metrics and not isinstance(get_metrics(), ThreadSafeMetrics):
        set_metrics(ThreadSafeMetrics())
    return ReproServer((host, port), service or QueryService(), quiet=quiet)


def run_server(
    server: ReproServer,
    port_file: "str | None" = None,
    handle_signals: bool = True,
) -> None:
    """Serve until SIGINT/SIGTERM, then shut down cleanly.

    Args:
        server: a :func:`create_server` result.
        port_file: optional path to write the bound port to once
            serving — how the smoke job discovers an ephemeral port.
        handle_signals: install SIGINT/SIGTERM handlers that request a
            clean shutdown (main thread only).
    """
    if port_file:
        with open(port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{server.port}\n")
    if handle_signals:
        def _shutdown(signum, frame):
            # shutdown() blocks until serve_forever exits; call it off
            # the serving thread.
            threading.Thread(target=server.shutdown, daemon=True).start()

        signal.signal(signal.SIGINT, _shutdown)
        signal.signal(signal.SIGTERM, _shutdown)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
        # Pooled services reap worker processes and unlink shared
        # memory here; the single-process close() is a no-op.
        server.service.close()
