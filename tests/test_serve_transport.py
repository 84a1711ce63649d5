"""The serving transport: persistent connections end to end.

Client side — one socket per calling thread, reused across requests,
with one transparent reconnect when a *reused* socket turns out closed
before any response byte arrived, and replies framed by
``Content-Length``, ``Connection: close`` or end of stream.  Server
side — keep-alive framing (an unread request body must never be parsed
as the next request), the served HTTP subset with a JSON error and a
hang-up for everything outside it, single-send responses with Nagle
disabled, an idle timeout, and the ``serve.connections`` counter that
makes the reuse ratio visible in ``/metrics``.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.obs import ThreadSafeMetrics, collect
from repro.serve import QueryService, ServeClient, create_server
from repro.serve import server as server_module
from repro.serve.client import ServeError

from .test_serve import chain_source, direct_rows, live_server  # noqa: F401


def start(server):
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    return thread


def stop(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


# --- the client against the real server ------------------------------------
class TestConnectionReuse:
    def test_sequential_queries_share_one_connection(self, live_server):
        _, client = live_server
        client.load("chain", chain_source())
        expected = direct_rows(chain_source(), "anc(20, X)?")
        client.query("chain", "anc(20, X)?")  # prepare the shape
        before = client.counter("serve.connections")
        started = time.monotonic()
        for _ in range(50):
            assert client.query("chain", "anc(20, X)?")["answers"]["rows"] == expected
        elapsed = time.monotonic() - started
        # The fixture's health poll opened this thread's connection; the
        # load, the 51 queries and both counter reads all rode on it.
        assert before == 1
        assert client.counter("serve.connections") == 1
        assert client.counter("serve.requests") > 50
        # 50 × the ~40 ms Nagle/delayed-ACK stall would be 2 s.
        assert elapsed < 1.0, elapsed

    def test_threads_sharing_a_client_never_share_a_socket(self, live_server):
        _, client = live_server
        client.load("chain", chain_source())
        threads, rounds = 6, 15
        goals = [f"anc({index}, X)?" for index in range(threads)]
        expected = [direct_rows(chain_source(), goal) for goal in goals]
        client.query("chain", goals[0])  # one shape serves every constant
        failures = []

        def fire(index):
            try:
                for _ in range(rounds):
                    rows = client.query("chain", goals[index])["answers"]["rows"]
                    if rows != expected[index]:
                        failures.append((index, rows))
            except Exception as exc:  # surfaced through the assertion below
                failures.append((index, exc))
            finally:
                client.close()

        workers = [threading.Thread(target=fire, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
            assert not worker.is_alive()
        assert failures == []
        # One connection per thread that ever called, never one per request.
        assert client.counter("serve.connections") == 1 + threads

    def test_close_is_idempotent_and_the_client_stays_usable(self, live_server):
        _, client = live_server
        with client:
            assert client.health()["status"] == "ok"
        client.close()
        client.close()
        assert client.health()["status"] == "ok"
        assert client.counter("serve.connections") == 2

    def test_idle_close_by_the_server_is_invisible(self, monkeypatch):
        monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
        with collect(ThreadSafeMetrics()):
            server = create_server(port=0, install_metrics=False)
            thread = start(server)
            # retries=0: the reconnect must not spend the retry budget.
            with ServeClient(
                f"http://127.0.0.1:{server.port}", retries=0
            ) as client:
                try:
                    client.load("chain", chain_source())
                    first = client.query("chain", "anc(0, X)?")["answers"]
                    time.sleep(0.6)  # the handler thread times out and closes
                    assert client.query("chain", "anc(0, X)?")["answers"] == first
                    assert client.counter("serve.connections") == 2
                finally:
                    stop(server, thread)

    def test_restarted_server_is_invisible(self, monkeypatch):
        # A stopped in-process server keeps its handler threads; the short
        # idle timeout makes them hang up the way a dead process would.
        monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
        service = QueryService()
        service.load("chain", chain_source())
        with collect(ThreadSafeMetrics()):
            old = create_server(port=0, service=service, install_metrics=False)
            port = old.port
            thread = start(old)
            with ServeClient(f"http://127.0.0.1:{port}", retries=0) as client:
                first = client.query("chain", "anc(0, X)?")["answers"]
                stop(old, thread)
                time.sleep(0.6)
                new = create_server(
                    port=port, service=service, install_metrics=False
                )
                thread = start(new)
                try:
                    assert client.query("chain", "anc(0, X)?")["answers"] == first
                finally:
                    stop(new, thread)

    def test_a_closed_server_hangs_up_its_open_connections(self):
        # Without a short idle timeout: server_close() itself must end
        # the keep-alive connection, not the 30 s handler timeout.
        with collect(ThreadSafeMetrics()):
            server = create_server(port=0, install_metrics=False)
            thread = start(server)
            with ServeClient(
                f"http://127.0.0.1:{server.port}", retries=0
            ) as client:
                client.load("chain", chain_source())
                client.query("chain", "anc(0, X)?")
                assert len(server._connections) == 1
                stop(server, thread)
                started = time.monotonic()
                with pytest.raises(ServeError) as gone:
                    client.query("chain", "anc(0, X)?")
                assert time.monotonic() - started < 1.0
                assert gone.value.transient
                assert gone.value.status is None
            deadline = time.monotonic() + 5.0
            while server._connections and time.monotonic() < deadline:
                time.sleep(0.01)  # the handler thread notices and finishes
            assert not server._connections

    def test_refused_connect_is_transient_and_never_resent(self):
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            port = placeholder.getsockname()[1]
        client = ServeClient(f"http://127.0.0.1:{port}", timeout=1.0, retries=0)
        with pytest.raises(ServeError) as refused:
            client.health()
        assert refused.value.transient
        assert refused.value.status is None
        assert "cannot reach" in str(refused.value)


# --- the client against a scripted peer ------------------------------------
class ScriptedPeer:
    """A one-connection-at-a-time TCP peer.  Each argument scripts one
    accepted connection: a list of raw replies, one per request read on
    that connection, after which the peer hangs up.  Counts the requests
    it read (``requests``; per connection in ``served``) and keeps what
    the first ``recv`` of each request returned (``first_reads``)."""

    OK = (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: 15\r\n\r\n" + b'{"status":"ok"}'
    )

    def __init__(self, *replies, host: str = "127.0.0.1"):
        self.replies = list(replies)
        self.requests = 0
        self.served: list = []
        self.first_reads: list = []
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self.listener = socket.create_server((host, 0), family=family)
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        for reply in self.replies:
            connection, _ = self.listener.accept()
            self.served.append(0)
            with connection:
                for chunk in reply:
                    if not self._read_request(connection):
                        break
                    self.requests += 1
                    self.served[-1] += 1
                    connection.sendall(chunk)

    def _read_request(self, connection) -> bool:
        """Read one request, head and ``Content-Length`` body."""
        data = connection.recv(65536)
        if data:
            self.first_reads.append(data)
        while b"\r\n\r\n" not in data:
            received = connection.recv(65536)
            if not received:
                return False
            data += received
        head, _, body = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(body) < length:
            received = connection.recv(65536)
            if not received:
                return False
            body += received
        return True

    def close(self):
        self.listener.close()
        self.thread.join(timeout=5.0)
        assert not self.thread.is_alive()


class TestReconnectRule:
    def test_reused_socket_closed_by_the_peer_reconnects_once(self):
        # Connection 1 answers one request and hangs up; connection 2
        # answers the re-sent second request.
        peer = ScriptedPeer([ScriptedPeer.OK], [ScriptedPeer.OK])
        try:
            with ServeClient(f"http://127.0.0.1:{peer.port}", retries=0) as client:
                assert client.health() == {"status": "ok"}
                time.sleep(0.1)  # let the hang-up reach this socket
                assert client.health() == {"status": "ok"}
            assert peer.requests == 2
        finally:
            peer.close()

    def test_fresh_connection_closed_without_reply_is_not_resent(self):
        peer = ScriptedPeer([b""], [ScriptedPeer.OK])
        try:
            with ServeClient(f"http://127.0.0.1:{peer.port}", retries=0) as client:
                with pytest.raises(ServeError) as lost:
                    client.health()
            assert lost.value.transient
            assert "connection lost" in str(lost.value)
            assert peer.requests == 1
        finally:
            # Unblock the peer's second accept.
            socket.create_connection(("127.0.0.1", peer.port)).close()
            peer.close()

    def test_no_resend_once_response_bytes_were_read(self):
        # Connection 1: a good reply, then (on the reused socket) half a
        # status line before the hang-up.  The second request reached the
        # peer and was being answered: it must not be sent again.
        peer = ScriptedPeer([ScriptedPeer.OK, b"HTTP/1."], [ScriptedPeer.OK])
        try:
            with ServeClient(f"http://127.0.0.1:{peer.port}", retries=0) as client:
                assert client.health() == {"status": "ok"}
                with pytest.raises(ServeError) as torn:
                    client.health()
            assert "connection lost" in str(torn.value)
            assert peer.requests == 2
        finally:
            socket.create_connection(("127.0.0.1", peer.port)).close()
            peer.close()

    def test_truncated_body_is_transient(self):
        torn = ScriptedPeer.OK[:-5]
        peer = ScriptedPeer([torn])
        try:
            with ServeClient(f"http://127.0.0.1:{peer.port}", retries=0) as client:
                with pytest.raises(ServeError) as lost:
                    client.health()
            assert lost.value.transient
            assert peer.requests == 1
        finally:
            peer.close()


class TestReplyFraming:
    OK_CLOSE = ScriptedPeer.OK.replace(
        b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n", 1
    )
    TO_EOF = (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n"
        b'{"status":"ok"}'
    )
    CHUNKED = (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
        b'f\r\n{"status":"ok"}\r\n0\r\n\r\n'
    )

    def test_connection_close_reply_is_not_reused(self):
        # Connection 1 would answer a second request too: the client must
        # not send one there, but open connection 2 — the stale-socket
        # resend never comes into it.
        peer = ScriptedPeer([self.OK_CLOSE, ScriptedPeer.OK], [ScriptedPeer.OK])
        try:
            with ServeClient(f"http://127.0.0.1:{peer.port}", retries=0) as client:
                assert client.health() == {"status": "ok"}
                assert client.health() == {"status": "ok"}
            assert peer.served == [1, 1]
        finally:
            peer.close()

    def test_reply_without_content_length_is_read_to_eof(self):
        peer = ScriptedPeer([self.TO_EOF], [ScriptedPeer.OK])
        try:
            with ServeClient(f"http://127.0.0.1:{peer.port}", retries=0) as client:
                assert client.health() == {"status": "ok"}
                assert client.health() == {"status": "ok"}
            assert peer.served == [1, 1]
        finally:
            peer.close()

    def test_chunked_reply_is_a_non_transient_error(self):
        peer = ScriptedPeer([self.CHUNKED])
        try:
            with ServeClient(f"http://127.0.0.1:{peer.port}") as client:
                with pytest.raises(ServeError) as refused:
                    client.health()
            assert not refused.value.transient
            assert refused.value.status is None
            assert "Transfer-Encoding" in str(refused.value)
            assert peer.requests == 1  # not retried
        finally:
            peer.close()

    def test_ipv6_netloc(self):
        try:
            peer = ScriptedPeer([ScriptedPeer.OK], host="::1")
        except OSError:
            pytest.skip("no IPv6 loopback")
        try:
            with ServeClient(f"http://[::1]:{peer.port}", retries=0) as client:
                assert client.health() == {"status": "ok"}
            assert f"\r\nHost: [::1]:{peer.port}\r\n".encode() in peer.first_reads[0]
        finally:
            peer.close()

    def test_each_request_is_one_segment(self):
        peer = ScriptedPeer([ScriptedPeer.OK] * 3)
        try:
            with ServeClient(f"http://127.0.0.1:{peer.port}", retries=0) as client:
                client.health()
                client.query("chain", "anc(0, X)?")
                client.load("chain", chain_source())
            assert peer.requests == 3
            for request in peer.first_reads:
                head, _, body = request.partition(b"\r\n\r\n")
                assert head.count(b"\r\n") >= 2, request  # the whole head
                declared = [
                    int(line.split(b":")[1]) for line in head.split(b"\r\n")
                    if line.lower().startswith(b"content-length:")
                ]
                assert len(body) == sum(declared), request  # and the body
            assert [r.split(b" ", 1)[0] for r in peer.first_reads] == [
                b"GET", b"POST", b"POST"
            ]
        finally:
            peer.close()


# --- keep-alive framing on the server --------------------------------------
def raw_exchange(port: int, request: bytes) -> bytes:
    """Send *request*, return everything the server writes until it
    hangs up (so the connection *must* be closed by the server)."""
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def post(path: str, body: bytes, length: "str | None" = None) -> bytes:
    length = str(len(body)) if length is None else length
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode() + body


class TestKeepAliveFraming:
    def test_unknown_post_path_gives_up_the_connection(self, live_server):
        server, _ = live_server
        # The body looks like a request line: if it were left on a kept
        # connection the server would answer it as a second request.
        body = b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n"
        reply = raw_exchange(server.port, post("/nope", body))
        assert reply.startswith(b"HTTP/1.1 404 ")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert b"connection: close" in reply.lower()

    @pytest.mark.parametrize("length", ["abc", "-5", "1e3"])
    def test_malformed_content_length_is_a_400(self, live_server, length):
        server, _ = live_server
        reply = raw_exchange(server.port, post("/query", b"{}", length=length))
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"connection: close" in head.lower()
        assert "Content-Length" in json.loads(body)["error"]

    def test_oversized_body_is_rejected_unread(self, live_server):
        server, _ = live_server
        too_large = str(server_module.MAX_BODY_BYTES + 1)
        reply = raw_exchange(server.port, post("/load", b"", length=too_large))
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"connection: close" in head.lower()
        assert "too large" in json.loads(body)["error"]

    def test_errors_after_the_body_keep_the_connection(self, live_server):
        server, client = live_server
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5.0)
        try:
            for payload in (b"{not json", b"[1, 2]", b'{"dataset": "ghost"}'):
                connection.request("POST", "/query", body=payload)
                response = connection.getresponse()
                assert response.status == 400
                assert response.getheader("Connection") is None
                json.loads(response.read())
            connection.request("GET", "/health")
            assert connection.getresponse().status == 200
        finally:
            connection.close()
        # The fixture client's connection plus the raw one above.
        assert client.counter("serve.connections") == 2

    def test_response_is_one_segment(self, live_server):
        """Status line, headers and body arrive in one read on loopback:
        they left in one send (no header/body split for Nagle to delay)."""
        server, _ = live_server
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
            first = sock.recv(65536)
        head, _, body = first.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert json.loads(body)["status"] == "ok"

    def test_expect_100_continue_is_answered_before_the_body(self, live_server):
        """curl sends ``Expect: 100-continue`` ahead of large bodies and
        waits for the interim response: it must not sit in the buffer."""
        server, _ = live_server
        body = json.dumps({"dataset": "chain", "program": chain_source()}).encode()
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
            sock.sendall(
                b"POST /load HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
            )
            assert sock.recv(65536).startswith(b"HTTP/1.1 100 ")
            sock.sendall(body)
            assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")

    def test_idle_connection_is_dropped_quietly(self, monkeypatch, capfd):
        monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
        with collect(ThreadSafeMetrics()):
            server = create_server(port=0, install_metrics=False)
            thread = start(server)
            try:
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=5.0
                ) as sock:
                    sock.sendall(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
                    assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")
                    # No second request: the server hangs up by itself.
                    assert sock.recv(65536) == b""
            finally:
                stop(server, thread)
        assert "Traceback" not in capfd.readouterr().err

    def test_conflicting_content_lengths_are_a_400(self, live_server):
        server, _ = live_server
        # With the first length the rest of the body would be read as a
        # second request on the kept connection.
        body = b'{"a":1}GET /health HTTP/1.1\r\nHost: t\r\n\r\n'
        request = post("/load", body, length="7").replace(
            b"\r\n\r\n", f"\r\nContent-Length: {len(body)}\r\n\r\n".encode(), 1
        )
        status, head, error = json_reply(raw_exchange(server.port, request))
        assert status == 400 and "conflicting Content-Length" in error
        assert b"connection: close" in head.lower()

    def test_repeated_equal_content_lengths_are_one_length(self, live_server):
        server, _ = live_server
        body = json.dumps({"dataset": "chain", "program": chain_source()}).encode()
        request = post("/load", body).replace(
            b"\r\n\r\n", f"\r\nContent-Length: {len(body)}\r\n\r\n".encode(), 1
        )
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
            sock.sendall(request)
            assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")

    def test_chunked_body_is_a_411_and_a_hang_up(self, live_server):
        server, client = live_server
        body = b'{"dataset": "chain"}'
        request = (
            b"POST /load HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n"
            b"Content-Type: application/json\r\n\r\n"
            + f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n"
        )
        reply = raw_exchange(server.port, request)
        status, head, error = json_reply(reply)
        assert status == 411 and error == "Content-Length required"
        assert reply.count(b"HTTP/1.1 ") == 1
        assert b"connection: close" in head.lower()
        assert client.health()["datasets"] == []


def json_reply(reply: bytes) -> tuple:
    """``(status, head, error)`` of a raw JSON error reply, which must
    be the only reply in *reply*."""
    head, _, body = reply.partition(b"\r\n\r\n")
    assert b"content-type: application/json" in head.lower()
    assert f"content-length: {len(body)}\r\n".encode() in head.lower() + b"\r\n"
    return int(head.split()[1]), head, json.loads(body)["error"]


def get_with(*header_lines: bytes) -> bytes:
    return b"GET /health HTTP/1.1\r\nHost: t\r\n" + b"".join(
        line + b"\r\n" for line in header_lines
    ) + b"\r\n"


class TestRequestFraming:
    def test_header_names_and_values_are_read_leniently(self, live_server):
        server, client = live_server
        body = json.dumps({"dataset": "chain", "program": chain_source()}).encode()
        reply = raw_exchange(server.port, (
            b"POST /load HTTP/1.1\r\nhOsT: t\r\nCONTENT-TYPE:application/json\r\n"
            + f"content-LENGTH: \t{len(body)}  \r\n".encode()
            + b"Connection:   Close \r\n\r\n" + body
        ))
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"connection: close" in head.lower()  # honoured, and hung up
        assert json.loads(payload)["name"] == "chain"
        assert [d["name"] for d in client.health()["datasets"]] == ["chain"]

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET /health\r\n\r\n", 400),  # HTTP/0.9: no status line to give
            (b"GET /health HTTP/1.1 extra\r\n\r\n", 400),
            (b"GET /health HTTP/one\r\n\r\n", 400),
            (b"GET /health HTTP/1.\xb2\r\n\r\n", 400),
            (b"GET /health HTTP/2.0\r\n\r\n", 505),
            (b"BREW /health HTTP/1.1\r\nHost: t\r\n\r\n", 501),
            (b"GET /" + b"a" * 65532, 414),
            (get_with(b"X-Folded: a", b"  b"), 400),
            (get_with(b"no colon here"), 400),
            (get_with(b"X-Space : a"), 400),
            (get_with(*[b"X-N: %d" % n for n in range(100)]), 431),  # +Host
            (get_with(b"X-Pad: " + b"a" * (65537 - 9)), 431),
        ],
        ids=[
            "one-word", "http09", "four-words", "bad-version", "non-ascii-digit",
            "http2", "unknown-method", "long-request-line", "obs-fold",
            "no-colon", "space-before-colon", "101-headers", "long-header-line",
        ],
    )
    def test_protocol_errors_are_json_and_hang_up(
        self, live_server, request_bytes, status
    ):
        server, client = live_server
        reply = raw_exchange(server.port, request_bytes)
        got, head, error = json_reply(reply)
        assert (got, head[:9]) == (status, b"HTTP/1.1 ")
        assert error
        assert b"connection: close" in head.lower()
        assert client.health()["status"] == "ok"

    @pytest.mark.parametrize(
        "header_lines",
        [
            [b"X-N: %d" % n for n in range(99)],  # 100 with Host
            [b"X-Pad: " + b"a" * (65536 - 9)],
        ],
        ids=["100-headers", "65536-byte-line"],
    )
    def test_header_limits_are_inclusive(self, live_server, header_lines):
        server, _ = live_server
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
            sock.sendall(get_with(*header_lines))
            assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")

    def test_http10_closes_by_default(self, live_server):
        server, _ = live_server
        reply = raw_exchange(server.port, b"GET /health HTTP/1.0\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_http10_keep_alive_stays_open(self, live_server):
        server, client = live_server
        request = b"GET /health HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
            for _ in range(2):
                sock.sendall(request)
                first = sock.recv(65536)
                assert first.startswith(b"HTTP/1.1 200 ")
                assert b"connection: close" not in first.lower()
        # The fixture client's connection plus this one.
        assert client.counter("serve.connections") == 2

    def test_http11_honours_connection_close(self, live_server):
        server, _ = live_server
        reply = raw_exchange(server.port, get_with(b"Connection: close"))
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert reply.count(b"HTTP/1.1 ") == 1
