"""Reply bytes: the one encoder, the one-block head, and the HTTP fixes
that ride on the same writer.

A call-table hit's ``answers`` JSON is rendered once per entry
(:meth:`~repro.core.prepare.CallTable.answers_json`) and spliced into
the reply by :func:`~repro.serve.service.encode_reply`; the bytes must
still be exactly ``json.dumps(payload, sort_keys=True)``.  The head is
one formatted block with the stdlib's header names, order and values.
A ``HEAD`` reply has no body, a query string does not change the route,
and a ``GET`` declaring ``Content-Length: 0`` keeps its connection.
"""

from __future__ import annotations

import json
import re
import socket
import sys
import threading
from email.utils import parsedate_to_datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import prepare as prepare_module
from repro.core.prepare import CallTable, answers_object
from repro.engine.counters import EvaluationStats
from repro.obs import ThreadSafeMetrics, collect
from repro.serve import PooledService, create_server
from repro.serve import server as server_module
from repro.serve.service import RenderedAnswers, encode_reply

from .test_serve import chain_source, direct_rows, live_server, serving  # noqa: F401
from .test_serve_transport import raw_exchange


# --- the encoder ------------------------------------------------------------
_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\\x00\x01\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=12,
)
_VALUE = st.one_of(st.integers(min_value=-(2**70), max_value=2**70), _TEXT)
_ROWS = st.lists(st.tuples(_VALUE, _VALUE), max_size=8).map(tuple)
_REST = st.dictionaries(
    st.one_of(
        st.sampled_from(["cache_hit", "goal", "stats", "a", "", "answer"]), _TEXT
    ).filter(lambda key: key != "answers"),
    st.one_of(
        st.none(), st.booleans(), st.floats(allow_nan=False), _VALUE,
        st.dictionaries(_TEXT, st.integers(), max_size=3),
    ),
    max_size=6,
)


def stored_answers(rows: tuple) -> RenderedAnswers:
    """Rows and texts through a real call-table entry, the way a hit
    gets them."""
    texts = tuple(json.dumps(list(row)) for row in rows)
    table = CallTable()
    table.put((0,), rows, texts, EvaluationStats(), {}, table.generation)
    entry = table.get((0,))
    return RenderedAnswers(rows, texts, table.answers_json(entry))


@settings(max_examples=200, deadline=None)
@given(rows=_ROWS, rest=_REST)
def test_spliced_reply_is_byte_identical_to_json_dumps(rows, rest):
    answers = stored_answers(rows)
    assert answers == answers_object(rows, tuple(answers["atoms"]))
    payload = {"answers": answers, **rest}
    assert encode_reply(payload) == json.dumps(payload, sort_keys=True).encode()


@settings(max_examples=50, deadline=None)
@given(rows=_ROWS, rest=_REST)
def test_plain_reply_is_json_dumps(rows, rest):
    payload = {"answers": answers_object(rows, ()), **rest}
    assert encode_reply(payload) == json.dumps(payload, sort_keys=True).encode()


def test_rendered_text_lives_and_dies_with_its_entry():
    table = CallTable()
    table.put((1,), ((2,),), ("p(1, 2)",), EvaluationStats(), {}, 0)
    first = table.get((1,))
    text = table.answers_json(first)
    assert table.answers_json(first) is text  # rendered once
    assert table.get((1,)) == (((2,),), ("p(1, 2)",), EvaluationStats(), {})
    table.put((1,), ((3,),), ("p(1, 3)",), EvaluationStats(), {}, 0)
    replaced = table.get((1,))
    assert replaced.answers_json is None
    assert json.loads(table.answers_json(replaced))["rows"] == [[3]]


def test_concurrent_hits_never_read_another_entrys_text():
    """Eight threads replace, invalidate and hit one key while the
    interpreter switches threads every microsecond: every text read
    must render the rows of the entry it was read from."""
    table = CallTable()
    variants = [
        (tuple((k, n) for n in range(k)), tuple(f"p({k}, {n})" for n in range(k)))
        for k in range(1, 6)
    ]
    footprint = {("e", (0,)): frozenset({(1,)})}
    failures, stop = [], threading.Event()

    def churn(index: int) -> None:
        count = 0
        while not stop.is_set() and count < 2000:
            count += 1
            rows, texts = variants[(index + count) % len(variants)]
            if index == 0 and count % 7 == 0:
                table.invalidate({"e": [(1,)]})
            table.put((0,), rows, texts, EvaluationStats(), footprint, table.generation)
            entry = table.get((0,))
            if entry is None:
                continue
            got = json.loads(table.answers_json(entry))
            if got != answers_object(entry[0], entry[1]):
                failures.append(got)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        stop.set()
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


# --- raw sockets ------------------------------------------------------------
def read_reply(sock, rfile) -> tuple:
    """``(status, head, body)`` of one reply read off a kept connection."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        line = rfile.readline()
        assert line, f"connection closed inside the head: {head!r}"
        head += line
    length = int(re.search(rb"\r\nContent-Length: (\d+)\r\n", head).group(1))
    body = rfile.read(length)
    return int(head.split()[1]), head, body


def query_request(dataset: str, goal: str, path: str = "/query") -> bytes:
    body = json.dumps({"dataset": dataset, "goal": goal}).encode()
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def exchange(port: int, requests: list) -> list:
    """Send each request in turn on one connection; ``(status, head,
    body)`` per reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        rfile = sock.makefile("rb")
        replies = []
        for request in requests:
            sock.sendall(request)
            replies.append(read_reply(sock, rfile))
        rfile.close()
    return replies


_VOLATILE = re.compile(rb'"elapsed_ms": [^,]+, |"table_hit": (true|false)')


def without_volatile(body: bytes) -> bytes:
    return _VOLATILE.sub(b"", body)


def assert_canonical(body: bytes) -> dict:
    payload = json.loads(body)
    assert body == json.dumps(payload, sort_keys=True).encode()
    return payload


@pytest.mark.parametrize("processes", [0, 2], ids=["threaded", "pooled"])
def test_hit_body_equals_the_miss_body(processes):
    service = PooledService(processes=processes) if processes else None
    try:
        with serving(service) as (server, client):
            client.load("chain", chain_source())
            # Warm the shape on every worker, then a new constant: its
            # first sends are misses on a cached shape, later ones hits.
            warm = [query_request("chain", "anc(0, X)?")] * max(2, processes)
            replies = exchange(
                server.port,
                warm + [query_request("chain", "anc(3, X)?")] * (2 * processes + 2),
            )[len(warm):]
    finally:
        if service is not None:
            service.close()
    payloads = [assert_canonical(body) for _, _, body in replies]
    assert [status for status, _, _ in replies] == [200] * len(replies)
    assert not payloads[0]["table_hit"] and payloads[-1]["table_hit"]
    assert payloads[0]["cache_hit"]
    assert payloads[0]["answers"]["rows"] == direct_rows(chain_source(), "anc(3, X)?")
    for _, _, body in replies:
        assert without_volatile(body) == without_volatile(replies[0][2])


def test_hit_bytes_follow_an_in_footprint_update(live_server):
    server, client = live_server
    client.load("chain", chain_source())
    goal = query_request("chain", "anc(20, X)?")
    before = exchange(server.port, [goal] * 3)
    assert json.loads(before[-1][2])["table_hit"]
    info = client.update("chain", remove=["edge(22, 23)."])
    assert info["table_entries_invalidated"] == 1, info
    after = exchange(server.port, [goal] * 3)
    expected = direct_rows(
        chain_source().replace("edge(22, 23).\n", ""), "anc(20, X)?"
    )
    payloads = [assert_canonical(body) for _, _, body in after]
    assert [p["table_hit"] for p in payloads] == [False, True, True]
    assert all(p["answers"]["rows"] == expected for p in payloads)
    assert without_volatile(after[0][2]) == without_volatile(after[-1][2])


def test_no_text_outlives_an_evicted_entry(monkeypatch, live_server):
    server, client = live_server
    # anc(k, X) on the chain has CHAIN_LENGTH - k rows: room for one.
    monkeypatch.setattr(prepare_module, "CALL_TABLE_MAX_ROWS", 30)
    client.load("chain", chain_source())
    old = exchange(server.port, [query_request("chain", "anc(2, X)?")] * 2)
    assert json.loads(old[-1][2])["table_hit"]  # its text is rendered
    exchange(server.port, [query_request("chain", "anc(1, X)?")])  # evicts it
    # Cut anc(2, X) short: the evicted entry's footprint saw no update.
    client.update("chain", remove=["edge(10, 11)."])
    new = exchange(server.port, [query_request("chain", "anc(2, X)?")] * 3)
    payloads = [assert_canonical(body) for _, _, body in new]
    assert [p["table_hit"] for p in payloads] == [False, True, True]
    expected = direct_rows(
        chain_source().replace("edge(10, 11).\n", ""), "anc(2, X)?"
    )
    assert len(expected) == 8
    assert all(p["answers"]["rows"] == expected for p in payloads)


# --- the head ---------------------------------------------------------------
class StdlibWriter(server_module._Handler):
    """The reply writer as the stdlib builds it, header by header."""

    def _send_json(self, status, payload):
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)


def head_fields(reply: bytes) -> tuple:
    head, _, body = reply.partition(b"\r\n\r\n")
    status, *lines = head.decode("latin-1").split("\r\n")
    return status, [tuple(line.split(": ", 1)) for line in lines], body


_IMF_FIXDATE = re.compile(
    r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d "
    r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{4} "
    r"\d\d:\d\d:\d\d GMT"
)


@pytest.mark.parametrize(
    "request_bytes, status",
    [
        (b"GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n", 200),
        (b"GET /health HTTP/1.0\r\n\r\n", 200),
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n", 404),
        (
            b"POST /load HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"0\r\n\r\n",
            411,
        ),
        (b"BREW /health HTTP/1.1\r\nHost: t\r\n\r\n", 501),
    ],
    ids=["200", "200-http10", "400", "404", "411", "501"],
)
def test_head_matches_the_stdlib_writer(request_bytes, status):
    with collect(ThreadSafeMetrics()):
        heads = []
        for handler in (server_module._Handler, StdlibWriter):
            server = create_server(port=0, install_metrics=False)
            server.RequestHandlerClass = handler
            thread = threading.Thread(
                target=server.serve_forever, kwargs={"poll_interval": 0.05},
                daemon=True,
            )
            thread.start()
            try:
                heads.append(head_fields(raw_exchange(server.port, request_bytes)))
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5.0)
    (ours, fields, body), (stdlib, reference, stdlib_body) = heads
    assert ours == stdlib and ours.startswith(f"HTTP/1.1 {status} ")
    assert [name for name, _ in fields] == [name for name, _ in reference]
    assert [name for name, _ in fields][:4] == [
        "Server", "Date", "Content-Type", "Content-Length"
    ]
    for (name, value), (_, expected) in zip(fields, reference):
        if name == "Date":
            assert _IMF_FIXDATE.fullmatch(value), value
            gap = parsedate_to_datetime(value) - parsedate_to_datetime(expected)
            assert abs(gap.total_seconds()) <= 2
        else:
            assert value == expected, name
    assert body == stdlib_body
    assert ("Connection", "close") in fields


# --- HEAD, query strings, empty GET bodies ------------------------------------
def test_head_reply_has_no_body(live_server):
    server, client = live_server
    reply = raw_exchange(server.port, b"HEAD /health HTTP/1.1\r\nHost: t\r\n\r\n")
    head, separator, body = reply.partition(b"\r\n\r\n")
    assert separator and body == b""
    assert head.startswith(b"HTTP/1.1 501 ")
    assert b"\r\nConnection: close" in head
    assert int(re.search(rb"Content-Length: (\d+)", head).group(1)) > 0
    assert client.health()["status"] == "ok"


def test_head_with_a_bad_version_has_no_body(live_server):
    server, _ = live_server
    reply = raw_exchange(server.port, b"HEAD /health HTTP/2.0\r\n\r\n")
    head, separator, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 505 ") and separator and body == b""


def test_query_string_is_ignored_for_routing(live_server):
    server, client = live_server
    client.load("chain", chain_source())
    replies = exchange(server.port, [
        b"GET /health?x=1 HTTP/1.1\r\nHost: t\r\n\r\n",
        b"GET /metrics?verbose=1&y HTTP/1.1\r\nHost: t\r\n\r\n",
        query_request("chain", "anc(5, X)?", path="/query?x=1"),
        query_request("chain", "anc(5, X)?"),
    ])
    assert [status for status, _, _ in replies] == [200] * 4
    assert json.loads(replies[0][2])["status"] == "ok"
    with_query, plain = (json.loads(body) for _, _, body in replies[2:])
    assert with_query["answers"] == plain["answers"]
    assert with_query["answers"]["rows"] == direct_rows(chain_source(), "anc(5, X)?")
    assert b"Connection: close" not in replies[2][1]
    status, _, body = exchange(server.port, [
        b"GET /nope?x=1 HTTP/1.1\r\nHost: t\r\n\r\n"
    ])[0]
    assert status == 404 and "/nope?x=1" in json.loads(body)["error"]


def test_get_with_a_zero_content_length_keeps_its_connection(live_server):
    server, client = live_server
    request = b"GET /health HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
    replies = exchange(server.port, [request, request])
    assert [status for status, _, _ in replies] == [200, 200]
    assert all(b"Connection: close" not in head for _, head, _ in replies)
    # A non-zero declared length still hangs up after the reply.
    reply = raw_exchange(
        server.port, b"GET /health HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{}"
    )
    assert reply.count(b"HTTP/1.1 200 ") == 1
    assert b"\r\nConnection: close\r\n" in reply
    assert client.health()["status"] == "ok"
