#!/usr/bin/env python3
"""CI smoke test for the query service (``repro serve``).

Boots the real server as a subprocess on an ephemeral port and walks the
serving contract end to end, in two phases.

**Threaded phase** (``repro serve``):

1. ``/health`` answers within the boot deadline;
2. ``/load`` installs a workload-sized EDB (the T1 ancestor chain);
3. the same query runs twice — the second run must be a prepared-cache
   hit, proven two ways: ``cache_hit`` in the response payload, and via
   ``/metrics`` the ``serve.prepared.hits`` counter rising while
   ``transform.rewritings`` / ``prepare.fixpoints_compiled`` /
   ``kernel.rules_compiled`` stay **flat** (the hit path did zero
   parse/adorn/transform/compile work) — and a *table* hit too:
   ``table_hit`` in the payload, ``seminaive.runs`` flat (the repeated
   goal was answered from the shape's completed calls, no fixpoint);
4. answers and ``stats`` on the hit are identical to the miss, and the
   hit's ``answers`` serialise byte-identically
   (``json.dumps(sort_keys=True)``) — a hit renders stored text, never
   the atoms the miss rendered; one more table hit read over a raw
   socket has a body that is its own ``json.dumps(sort_keys=True)``
   byte for byte (the entry's stored answers JSON is spliced in, not
   re-encoded) with the miss's ``answers``;
5. an ``/update`` adding an edge on a component the goal never probed
   patches the shape and keeps its call-table entry: the next reply is
   still a ``table_hit`` with the same ``stats`` and ``seminaive.runs``
   flat;
6. a maintained shape is prepared, then ``/update`` removes one chain
   edge inside the goal's footprint — both shapes are patched, the
   maintained one answers from cache at the new dataset version with
   exactly one answer fewer, and the transform one re-evaluates the goal
   (``cache_hit: true, table_hit: false``) to the new answers;
7. every request above travelled on one persistent connection —
   ``serve.connections`` stays below ``serve.requests`` in ``/metrics``;
8. over raw sockets, a malformed request line (400) and a chunked
   ``POST`` (411) each get a JSON ``{"error": ...}`` reply with
   ``Connection: close`` and a hang-up, ``HEAD /health`` gets its head
   only (a 501 with no body), and ``/health`` still answers afterwards;
9. SIGTERM, sent while that connection is still open and idle, stops
   the server with exit code 0 and no traceback on stderr.

**Multiprocess phase** (``repro serve --processes 2``):

1. ``/health`` reports two live worker pids;
2. two round-robin queries land on *different* workers and answer
   identically; the merged ``/metrics`` shows exactly **two**
   ``prepare.transforms`` / ``prepare.compiles`` — each worker prepared
   the shape once, for its own first request;
3. answers are identical across workers (and to the threaded phase's):
   the same goal sent 2 × workers + 1 times is a ``table_hit`` at least
   once, and every reply's ``answers`` serialise byte-identically to the
   first (miss) reply's — each worker's own call table never disagrees
   with another's; once a worker hit is mirrored the dispatcher answers
   the goal itself (``serve.dispatcher_hits`` ≥ 1), and one more repeat
   read over a raw socket is a dispatcher hit whose body carries the
   miss's ``answers`` bytes; every reply carries the same ``rows`` after
   an ``/update`` (workers re-prepare against the new snapshot);
4. a **restarted** pooled server answers its first request
   identically to the first server's first reply;
5. SIGTERM lands while queries are in flight — the server still exits
   0 with no traceback, every worker is reaped, and every
   ``/dev/shm/repro-*`` block the server created is unlinked.

Exit code 0 on success, 1 on any assertion failure, with the server's
stderr echoed for diagnosis.  Used by the ``serve-smoke`` CI job; run
locally with ``python tools/serve_smoke.py``.
"""

from __future__ import annotations

import glob
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.serve.client import ServeClient, ServeError  # noqa: E402
from repro.workloads.programs import ancestor  # noqa: E402

BOOT_DEADLINE_SECONDS = 30.0
CHAIN_LENGTH = 200

# Counters that must stay flat across a prepared-cache hit: any movement
# means the second request re-entered the parse/transform/compile
# pipeline the cache exists to skip.
FLAT_ON_HIT = (
    "transform.rewritings",
    "prepare.builds",
    "prepare.fixpoints_compiled",
    "kernel.rules_compiled",
    # ... and the repeated goal is a table hit: no fixpoint either.
    "seminaive.runs",
)


def scenario_source() -> tuple[str, str]:
    """The T1 ancestor workload as Datalog text plus its bound query."""
    scenario = ancestor(graph="chain", n=CHAIN_LENGTH)
    lines = [str(rule) for rule in scenario.program.proper_rules]
    for predicate in sorted(scenario.database.predicates()):
        for row in sorted(scenario.database.rows(predicate)):
            args = ", ".join(str(value) for value in row)
            lines.append(f"{predicate}({args}).")
    return "\n".join(lines), "anc(0, X)?"


def serialised(answers: dict) -> str:
    """A reply's ``answers`` object as canonical JSON text."""
    return json.dumps(answers, sort_keys=True)


def counters_of_interest(client: ServeClient) -> dict[str, int]:
    counters = client.metrics()["metrics"]["counters"]
    return {name: int(counters.get(name, 0)) for name in FLAT_ON_HIT + ("serve.prepared.hits",)}


class ServerProcess:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, *extra_args: str):
        self.port_file = Path(tempfile.mkdtemp(prefix="serve-smoke-")) / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--port-file", str(self.port_file),
                *extra_args,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def client(self, timeout: float = 60.0) -> ServeClient:
        deadline = time.monotonic() + BOOT_DEADLINE_SECONDS
        while not self.port_file.exists():
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise AssertionError("server never wrote its port file")
            time.sleep(0.05)
        self.port = port = int(self.port_file.read_text().strip())
        client = ServeClient(f"http://127.0.0.1:{port}", timeout=timeout)
        client.wait_healthy(BOOT_DEADLINE_SECONDS)
        return client

    def kill_for_diagnosis(self) -> str:
        self.process.kill()
        _, err = self.process.communicate(timeout=10)
        return err

    def terminate_and_check(self, label: str) -> "str | None":
        """SIGTERM; non-None return is the failure message."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            _, err = self.process.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            return f"{label}: server did not exit within 20s of SIGTERM"
        if self.process.returncode != 0:
            return (
                f"{label}: server exited {self.process.returncode}\n"
                f"--- server stderr ---\n{err}"
            )
        if "Traceback" in err:
            return (
                f"{label}: server emitted a traceback on shutdown\n"
                f"--- server stderr ---\n{err}"
            )
        return None


# Raw requests the server must refuse with a JSON error and a hang-up.
PROTOCOL_ERRORS = (
    ("malformed request line", b"NOT A REQUEST LINE\r\n\r\n", 400),
    (
        "chunked POST",
        b"POST /load HTTP/1.1\r\nHost: smoke\r\nTransfer-Encoding: chunked\r\n"
        b"Content-Type: application/json\r\n\r\n"
        b'14\r\n{"dataset": "smoke"}\r\n0\r\n\r\n',
        411,
    ),
)


def check_protocol_errors(port: int) -> None:
    """Each of :data:`PROTOCOL_ERRORS` on its own raw connection: one
    JSON error reply with ``Connection: close``, then the server hangs
    up (the ``recv`` loop ends only when it does)."""
    for label, request, status in PROTOCOL_ERRORS:
        with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
            sock.sendall(request)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status), (label, reply)
        assert b"connection: close" in head.lower(), (label, reply)
        assert b"content-type: application/json" in head.lower(), (label, reply)
        assert isinstance(json.loads(body).get("error"), str), (label, reply)


def raw_reply(port: int, request: bytes) -> tuple[bytes, bytes]:
    """``(head, body)`` of the one reply to *request*, read on a raw
    connection until the server hangs up."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return head, body


def check_raw_table_hit(port: int, goal: str, miss: dict) -> None:
    """A table hit read off the wire: its body is canonical JSON byte
    for byte, and its ``answers`` are the miss's, byte for byte."""
    body = json.dumps({"dataset": "t1", "goal": goal}).encode()
    head, reply = raw_reply(port, (
        b"POST /query HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    ))
    assert head.startswith(b"HTTP/1.1 200 "), head
    assert b"\r\nContent-Length: %d\r\n" % len(reply) in head + b"\r\n", head
    payload = json.loads(reply)
    assert payload["table_hit"] is True, payload
    assert reply == json.dumps(payload, sort_keys=True).encode(), (
        "a spliced table-hit body must equal json.dumps(sort_keys=True)"
    )
    assert reply.startswith(b'{"answers": ' + serialised(miss["answers"]).encode()), (
        "raw hit answers must be the miss's bytes"
    )


def check_head_request(port: int) -> None:
    """``HEAD`` is not served: a 501 head with no body, then a hang-up."""
    head, body = raw_reply(port, b"HEAD /health HTTP/1.1\r\nHost: smoke\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 501 "), head
    assert b"connection: close" in head.lower(), head
    assert body == b"", f"a HEAD reply carried {len(body)} body bytes"


def run_threaded_phase() -> "str | None":
    """The single-process contract; non-None return is the failure."""
    server = ServerProcess()
    try:
        client = server.client()
        print("[threaded] server healthy")

        program_text, goal = scenario_source()
        info = client.load("t1", program_text)
        print(f"[threaded] loaded t1: {info['rules']} rules, {info['facts']} facts")

        first = client.query("t1", goal)
        assert first["cache_hit"] is False, "first request cannot be a hit"
        assert first["prepared"] is True
        assert first["complete"] is True
        assert first["answers"]["count"] == CHAIN_LENGTH - 1, first["answers"]["count"]
        before = counters_of_interest(client)
        assert before["serve.prepared.hits"] == 0, before

        second = client.query("t1", goal)
        assert second["cache_hit"] is True, "second request must hit the cache"
        assert first["table_hit"] is False and second["table_hit"] is True, (
            "the repeated goal must be answered from the call table"
        )
        assert second["answers"] == first["answers"], "hit answers must match"
        assert serialised(second["answers"]) == serialised(first["answers"]), (
            "a table hit's answers must serialise byte-identically to the miss's"
        )
        assert second["stats"] == first["stats"], "hit stats must match"
        after = counters_of_interest(client)
        assert after["serve.prepared.hits"] == 1, after
        for name in FLAT_ON_HIT:
            assert after[name] == before[name], (
                f"{name} moved on the hit path: {before[name]} -> {after[name]}"
            )
        print("[threaded] prepared-cache and table hit verified; counters flat:")
        for name in FLAT_ON_HIT:
            print(f"  {name} = {after[name]}")

        check_raw_table_hit(server.port, goal, first)
        print("[threaded] raw table-hit body is canonical JSON with the miss's answers")

        cache = client.metrics()["cache"]
        assert cache["hits"] == 2 and cache["misses"] == 1, cache
        print(f"[threaded] cache totals: {cache}")

        # An /update on a component the goal never probed patches the
        # shape and keeps the goal's call-table entry.
        runs = after["seminaive.runs"]
        info = client.update(
            "t1", add=[f"par({CHAIN_LENGTH + 10}, {CHAIN_LENGTH + 11})."]
        )
        assert info["cache_entries_patched"] == 1, info
        assert info["table_entries_kept"] == 1, info
        assert info["table_entries_invalidated"] == 0, info
        kept = client.query("t1", goal)
        assert kept["cache_hit"] is True and kept["table_hit"] is True, (
            "an update outside the goal's footprint must keep its entry"
        )
        assert kept["answers"] == first["answers"], "kept answers must match"
        assert kept["stats"] == first["stats"], "kept stats must match"
        assert counters_of_interest(client)["seminaive.runs"] == runs
        print("[threaded] disjoint /update kept the call-table entry")

        # Incremental /update inside the footprint: the maintained shape
        # is patched in place and stays cache-hot at the bumped dataset
        # version; the transform shape is patched and re-evaluates.
        maintained = client.query(
            "t1", goal, strategy="seminaive", maintain="dred"
        )
        assert maintained["cache_hit"] is False
        before_count = maintained["answers"]["count"]
        info = client.update("t1", remove=[f"par({CHAIN_LENGTH - 2}, {CHAIN_LENGTH - 1})."])
        assert info["version"] == 3, info
        assert info["removed"] == 1, info
        assert info["cache_entries_patched"] == 2, info
        assert info["table_entries_invalidated"] == 1, info
        patched = client.query(
            "t1", goal, strategy="seminaive", maintain="dred"
        )
        assert patched["cache_hit"] is True, "maintained shape must stay warm"
        assert patched["version"] == 3, patched
        assert patched["answers"]["count"] == before_count - 1, (
            before_count, patched["answers"]["count"]
        )
        cut = client.query("t1", goal)
        assert cut["cache_hit"] is True and cut["table_hit"] is False, cut
        assert cut["answers"]["count"] == first["answers"]["count"] - 1, (
            cut["answers"]["count"]
        )
        print(
            f"[threaded] incremental /update verified: version {info['version']}, "
            f"{info['cache_entries_patched']} shapes patched, "
            f"{before_count} -> {patched['answers']['count']} answers"
        )

        counters = client.metrics()["metrics"]["counters"]
        connections = counters.get("serve.connections", 0)
        requests = counters.get("serve.requests", 0)
        assert 0 < connections < requests, (
            f"requests did not reuse connections: serve.connections="
            f"{connections} serve.requests={requests}"
        )
        print(
            f"[threaded] connection reuse verified: {requests} requests "
            f"over {connections} connection(s)"
        )

        check_protocol_errors(server.port)
        check_head_request(server.port)
        assert client.health()["status"] == "ok"
        print(
            "[threaded] malformed request line and chunked POST: JSON "
            "errors with Connection: close; HEAD /health: head only; "
            "/health still answers"
        )
    except (AssertionError, ServeError, OSError) as failure:
        err = server.kill_for_diagnosis()
        return f"{failure}\n--- server stderr ---\n{err}" if err else str(failure)
    # The client's persistent connection is still open and idle here: a
    # handler thread parked on it must not hold up or dirty the shutdown.
    failure = server.terminate_and_check("[threaded]")
    client.close()
    if failure is None:
        print("[threaded] clean shutdown with an idle connection open")
    return failure


def shm_blocks() -> set:
    return set(glob.glob("/dev/shm/repro-*"))


def run_multiproc_phase() -> "str | None":
    """The ``--processes 2`` contract; non-None return is the failure."""
    program_text, goal = scenario_source()
    shm_before = shm_blocks()

    server = ServerProcess("--processes", "2")
    try:
        client = server.client()
        health = client.health()
        workers = health.get("workers") or {}
        assert workers.get("processes") == 2, health
        pids = workers.get("pids") or []
        assert len(pids) == 2 and all(pids), health
        print(f"[multiproc] server healthy; worker pids {pids}")

        info = client.load("t1", program_text)
        print(f"[multiproc] loaded t1: {info['rules']} rules, {info['facts']} facts")
        assert client.health()["shared_memory"], "dataset snapshot not published"

        # Round-robin: these two requests land on different workers.
        first = client.query("t1", goal)
        second = client.query("t1", goal)
        assert first["answers"]["count"] == CHAIN_LENGTH - 1, first["answers"]
        assert second["answers"] == first["answers"], "workers must agree"
        counters = client.metrics()["metrics"]["counters"]
        transforms = counters.get("prepare.transforms", 0)
        compiles = counters.get("prepare.compiles", 0)
        assert transforms == compiles == 2, (
            f"expected one preparation per worker, saw {transforms} "
            f"transforms and {compiles} compilations"
        )
        print(
            "[multiproc] both workers agree: "
            f"prepare.transforms={transforms} prepare.compiles={compiles}"
        )

        # Call tables are per worker: 2 x workers + 1 sends of one goal
        # reach every worker at least twice.
        replies = [first, second] + [
            client.query("t1", goal) for _ in range(2 * len(pids) - 1)
        ]
        hits = sum(reply["table_hit"] for reply in replies)
        assert hits >= 1, "a repeated goal never hit a worker's call table"
        assert not first["table_hit"], "the first request cannot be a table hit"
        for reply in replies:
            assert serialised(reply["answers"]) == serialised(first["answers"]), (
                "a table hit's answers must serialise byte-identically to the "
                "miss's; per-worker call tables must not disagree"
            )
        tables = client.metrics()["workers"]["table_entries"]
        print(
            f"[multiproc] per-worker call tables agree: {hits} table hits in "
            f"{len(replies)} replies, entries per worker {tables}"
        )
        # A worker's table hit is mirrored: the dispatcher answers the
        # goal from then on, without a worker round trip.
        dispatcher_hits = client.counter("serve.dispatcher_hits")
        assert dispatcher_hits >= 1, "no repeated goal was answered by the dispatcher"
        check_raw_table_hit(server.port, goal, first)
        assert client.counter("serve.dispatcher_hits") == dispatcher_hits + 1, (
            "the raw-socket repeat must be a dispatcher hit"
        )
        print(
            f"[multiproc] serve.dispatcher_hits={dispatcher_hits + 1}; a raw "
            "dispatcher-hit body carries the miss's answers bytes"
        )

        info = client.update(
            "t1", remove=[f"par({CHAIN_LENGTH - 2}, {CHAIN_LENGTH - 1})."]
        )
        replies = [client.query("t1", goal) for _ in range(2 * len(pids) + 1)]
        for reply in replies:
            assert reply["version"] == info["version"], reply["version"]
            assert reply["answers"]["rows"] == replies[0]["answers"]["rows"], (
                "workers disagree after an update"
            )
        assert replies[0]["answers"]["count"] == CHAIN_LENGTH - 2, (
            replies[0]["answers"]["count"]
        )
        print(
            f"[multiproc] every worker agrees after /update: "
            f"{replies[0]['answers']['count']} answers at version {info['version']}"
        )
    except (AssertionError, ServeError) as failure:
        err = server.kill_for_diagnosis()
        return f"{failure}\n--- server stderr ---\n{err}" if err else str(failure)
    failure = server.terminate_and_check("[multiproc]")
    client.close()
    if failure is not None:
        return failure
    print("[multiproc] clean shutdown (exit 0, no traceback)")

    # Restart: a fresh pooled server answers like the first one did.
    server = ServerProcess("--processes", "2")
    try:
        client = server.client()
        client.load("t1", program_text)
        again = client.query("t1", goal)
        assert serialised(again["answers"]) == serialised(first["answers"]), (
            "a restarted server must answer like the first one"
        )
        print("[multiproc] restarted server answers identically")

        # SIGTERM while queries are in flight: fire requests from a
        # background thread, interrupt them mid-stream.
        stop = threading.Event()

        def hammer():
            with ServeClient(
                client.base_url, timeout=5.0, retries=0
            ) as quiet_client:
                while not stop.is_set():
                    try:
                        quiet_client.query("t1", goal)
                    except ServeError:
                        return  # the shutdown raced us: expected

        thread = threading.Thread(target=hammer, daemon=True)
        thread.start()
        time.sleep(0.3)
        worker_pids = client.health()["workers"]["pids"]
    except (AssertionError, ServeError) as failure:
        err = server.kill_for_diagnosis()
        return f"{failure}\n--- server stderr ---\n{err}" if err else str(failure)
    failure = server.terminate_and_check("[multiproc:inflight]")
    stop.set()
    thread.join(timeout=5.0)
    client.close()
    if failure is not None:
        return failure
    print("[multiproc] SIGTERM during in-flight queries: clean shutdown")

    # Every worker reaped, every shared-memory block unlinked.
    for pid in worker_pids:
        try:
            os.kill(pid, 0)
        except (ProcessLookupError, PermissionError):
            continue
        # Zombies are reaped by the dispatcher; a live pid here means a
        # leaked worker process.
        time.sleep(1.0)
        try:
            os.kill(pid, 0)
        except (ProcessLookupError, PermissionError):
            continue
        return f"[multiproc] worker {pid} survived server shutdown"
    leaked = shm_blocks() - shm_before
    if leaked:
        return f"[multiproc] shared-memory blocks leaked: {sorted(leaked)}"
    print("[multiproc] all workers reaped; no shared-memory leaks")
    return None


def main() -> int:
    for phase in (run_threaded_phase, run_multiproc_phase):
        failure = phase()
        if failure is not None:
            print(f"FAIL: {failure}", file=sys.stderr)
            return 1
    print("serve smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
