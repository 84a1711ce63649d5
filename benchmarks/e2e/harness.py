"""Running a workload the way its users meet the system.

``cold-rulebase`` calls the library in-process; the served workloads
boot the real ``repro-datalog serve`` CLI as a subprocess and drive it
through the product's own :class:`~repro.serve.client.ServeClient` with
default options, one closed-loop thread per client.  Everything the
benchmark knows about a layer it learns from outside: reply payloads,
``GET /metrics``, ``/proc/<pid>``.
"""

from __future__ import annotations

import bisect
import ctypes
import glob
import json
import multiprocessing.resource_tracker
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import Engine
from repro.serve.client import ServeClient, ServeError

import workloads

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
WORK_DIR = HERE / ".work"
RESULTS_DIR = HERE / "results"
BOOT_DEADLINE_SECONDS = 60.0
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
SLICES = 5  # the timed window is cut into slices; metrics are slice medians
MIN_BEYOND = 10  # a percentile needs this many samples beyond it
END_TO_END = ("setup_s", "op_p50_ms", "op_p90_ms", "ops_per_s", "peak_rss_mb")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# --- statistics --------------------------------------------------------------

def percentile(samples, fraction: float) -> "float | None":
    """The *fraction* quantile of *samples* (nearest rank), or ``None``
    when fewer than :data:`MIN_BEYOND` samples lie beyond it — a tail
    read off a handful of points is noise, not a percentile."""
    ordered = sorted(samples)
    if round(len(ordered) * (1.0 - fraction), 9) < MIN_BEYOND:
        return None
    return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]


def median_of_slices(values) -> "float | None":
    values = [value for value in values if value is not None]
    return statistics.median(values) if values else None


# --- machine speed -----------------------------------------------------------
#
# The recording box (a shared 2-vCPU VM) runs the same pure-Python loop
# 25% faster or slower from one minute to the next, each vCPU on its own
# schedule, which no amount of repetition inside a run averages out: raw
# medians of ten runs spread by ~10%.  So during a window one thread per
# CPU times a small fixed kernel every CAL_INTERVAL seconds, and every
# duration the benchmark reports is divided by the local slowdown
# (kernel time over its reference time).  Reported times are therefore
# milliseconds *at reference speed*; the raw ones are kept as layer
# metrics.

CAL_INTERVAL = 0.010
CAL_REFERENCE_SECONDS = 0.00052  # the kernel's usual time beside a workload, recording box
CAL_NEIGHBOURS = 6  # slowdown at t = median over this many samples each side


def calibration_kernel() -> float:
    """Seconds for a fixed dict/tuple/set loop (the engine's diet)."""
    started = time.perf_counter()
    index: dict = {}
    for i in range(2000):
        index.setdefault(i % 97, []).append((i, i * 7 % 101))
    found = set()
    for key, rows in index.items():
        for a, b in rows:
            if (a + b) % 3:
                found.add((key, b))
    return time.perf_counter() - started


def slowdown_now(repeats: int = 25) -> float:
    """The machine's slowdown right now (1.0 = reference speed)."""
    times = [calibration_kernel() for _ in range(repeats)]
    return statistics.median(times) / CAL_REFERENCE_SECONDS


class SpeedTrack:
    """Calibration samples over a window; the slowdown at any moment.

    One list of ``(moment, kernel seconds)`` per CPU the system may use
    (one, unless it is the worker pool); the slowdown is the mean over
    them of the local median (a median over the pooled samples would
    flip between the CPUs' speeds whenever they differ)."""

    def __init__(self, per_cpu):
        self.tracks = [
            ([moment for moment, _ in samples], [seconds for _, seconds in samples])
            for samples in per_cpu if samples
        ]

    def slowdown(self, moment: float) -> float:
        if not self.tracks:
            return 1.0
        local = []
        for times, durations in self.tracks:
            at = bisect.bisect_left(times, moment)
            near = durations[max(0, at - CAL_NEIGHBOURS): at + CAL_NEIGHBOURS]
            local.append(statistics.median(near))
        return statistics.fmean(local) / CAL_REFERENCE_SECONDS

    def reference_seconds(self, start: float, end: float, step: float = 0.25) -> float:
        """The interval's length had the machine run at reference speed."""
        total, moment = 0.0, start
        while moment < end:
            width = min(step, end - moment)
            total += width / self.slowdown(moment + width / 2)
            moment += width
        return total


# --- /proc -------------------------------------------------------------------

def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of *pid*, in seconds (0.0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def proc_peak_rss_kb(pid: int) -> int:
    """``VmHWM`` of *pid* in kB (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# --- leaving no process behind -----------------------------------------------
#
# ``serve --processes N`` spawns its workers with multiprocessing, whose
# resource tracker ends only when it sees its parent gone — a moment
# *after* the server the benchmark waited for.  An in-process
# ``PooledService`` (the traced run) leaves this process a tracker of its
# own that lives until interpreter exit.  So the benchmark makes itself
# the reaper of its orphaned descendants, waits for a stopped server's
# whole process group, and ends every child it still has before it exits.

_PR_SET_CHILD_SUBREAPER = 36
STOP_GRACE_SECONDS = 10.0


def become_subreaper() -> bool:
    """Have orphaned descendants re-parented to this process, not init."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False  # they go to init; all that is left is to watch /proc


def _processes():
    """``(pid, state, ppid, pgrp)`` of every process in ``/proc``."""
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue  # ended between the listing and the read
            yield int(entry), fields[0], int(fields[1]), int(fields[2])


def _end_processes(select, grace: float) -> None:
    """Wait until no live process satisfies *select* (a predicate over
    :func:`_processes` rows), reaping those that are this process's
    children; SIGKILL whatever outlives *grace* seconds."""
    deadline = time.monotonic() + grace
    while True:
        alive = []
        for row in _processes():
            if not select(row):
                continue
            pid, state, ppid, _ = row
            if ppid == os.getpid():
                try:
                    if os.waitpid(pid, os.WNOHANG)[0] == pid:
                        continue
                except ChildProcessError:
                    continue
            elif state == "Z":
                continue  # ended; its reaper is not this process
            alive.append(pid)
        if not alive:
            return
        if time.monotonic() > deadline:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


def stop_descendants(grace: float = STOP_GRACE_SECONDS) -> None:
    """End and reap every child this process has; killed children's own
    children arrive as orphans and go the same way.  Called on every
    path out of ``run.py``."""
    tracker = getattr(multiprocessing.resource_tracker, "_resource_tracker", None)
    try:
        tracker._stop()  # closes its pipe: the documented way it ends
    except (AttributeError, OSError, ChildProcessError):
        pass
    _end_processes(lambda row: row[2] == os.getpid(), grace)


def environment(seed: int, seconds: float) -> dict:
    """What a result file must carry to be comparable later."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # the driver's checkout is not a git repository
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
        "seconds": seconds,
    }


# --- the served system -------------------------------------------------------

class ServerProcess:
    """One ``repro-datalog serve`` subprocess on an ephemeral port."""

    _counter = 0

    def __init__(self, extra_args=()):
        WORK_DIR.mkdir(exist_ok=True)
        ServerProcess._counter += 1
        stem = WORK_DIR / f"server-{os.getpid()}-{ServerProcess._counter}"
        self.port_file = Path(f"{stem}.port")
        self.port_file.unlink(missing_ok=True)
        self.stderr_path = Path(f"{stem}.stderr")
        self.workers = int(extra_args[extra_args.index("--processes") + 1]) \
            if "--processes" in extra_args else 0
        self._shm_before = set(glob.glob("/dev/shm/repro-*"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        self._stderr = open(self.stderr_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--port-file", str(self.port_file), *extra_args],
            env=env, stdout=subprocess.DEVNULL, stderr=self._stderr, cwd=REPO,
            start_new_session=True,  # its own process group: workers and trackers too
        )
        self.leaked_shm: list = []

    def client(self) -> ServeClient:
        """A product-default client, once the server answers ``/health``."""
        deadline = time.monotonic() + BOOT_DEADLINE_SECONDS
        while not (self.port_file.exists() and self.port_file.read_text().strip()):
            if self.process.poll() is not None or time.monotonic() > deadline:
                said = self.stderr_path.read_text()[-2000:]
                self.stop()
                raise RuntimeError(f"server never wrote its port file: {said}")
            time.sleep(0.01)
        client = ServeClient(f"http://127.0.0.1:{self.port_file.read_text().strip()}")
        client.wait_healthy(BOOT_DEADLINE_SECONDS)
        return client

    def pids(self, client: ServeClient) -> list:
        """The server's pid first, then its worker pids (if pooled)."""
        workers = client.health().get("workers", {}).get("pids", [])
        return [self.process.pid, *(pid for pid in workers if pid)]

    def stop(self) -> None:
        """SIGTERM, wait, reap the server and everything it started;
        then look for shared memory left behind."""
        if self._stderr.closed:
            return  # already stopped
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        group = self.process.pid
        _end_processes(lambda row: row[3] == group, STOP_GRACE_SECONDS)
        self._stderr.close()
        self.leaked_shm = sorted(
            set(glob.glob("/dev/shm/repro-*")) - self._shm_before
        )
        self.port_file.unlink(missing_ok=True)
        if not self.stderr_path.read_text().count("Traceback"):
            self.stderr_path.unlink(missing_ok=True)


def rows_of(payload: dict) -> frozenset:
    return frozenset(tuple(row) for row in payload["answers"]["rows"])


# --- set-up ------------------------------------------------------------------

@dataclass
class Running:
    """A set-up system ready for timed ops."""

    inputs: workloads.Inputs
    server: "ServerProcess | None" = None
    client: "ServeClient | None" = None
    sources: dict = field(default_factory=dict)
    affinity: frozenset = frozenset()  # the process's CPUs before set-up pinned it

    def execute(self, op: workloads.Op):
        """Run *op*; returns whatever the system replied."""
        if self.server is None:
            return Engine.from_source(self.sources[op.dataset]).query(op.goal)
        if op.kind == "update":
            return self.client.update(op.dataset, add=op.add, remove=op.remove)
        return self.client.query(op.dataset, op.goal, **dict(op.options))

    def correct(self, op: workloads.Op, reply) -> bool:
        """Does *reply* carry the reference answer (and nothing partial)?"""
        if self.server is None:
            return reply.answer_rows == op.expect
        if op.kind == "update":
            return reply.get("added", 0) + reply.get("removed", 0) == 1
        return not reply.get("partial") and rows_of(reply) == op.expect

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
        os.sched_setaffinity(0, self.affinity)


def set_up(workload: str, seed: int) -> Running:
    """Generate inputs and reference answers, boot and load the system,
    and warm every shape once per worker.  This is what ``setup_s`` times."""
    return start(workloads.build(workload, seed))


def start(inputs: workloads.Inputs) -> Running:
    """Boot, load and warm the system *inputs* asks for.

    Unless the system is the worker pool (which needs every CPU), the
    benchmark and the server it spawns are pinned to one CPU: the two
    vCPUs of the recording box change speed independently, and the
    calibration kernel only tells the truth about the CPU it ran on.
    """
    affinity = frozenset(os.sched_getaffinity(0))
    pooled = inputs.server_args is not None and "--processes" in inputs.server_args
    if not pooled:
        os.sched_setaffinity(0, {max(affinity)})
    running = Running(
        inputs, sources={d.name: d.text for d in inputs.datasets}, affinity=affinity
    )
    try:
        rounds = 1
        if inputs.server_args is not None:
            running.server = ServerProcess(inputs.server_args)
            running.client = running.server.client()
            for dataset in inputs.datasets:
                running.client.load(dataset.name, program=dataset.text)
            # Round-robin dispatch: 2 passes per worker reach every worker.
            rounds = 2 * max(1, running.server.workers)
        for op in inputs.warm:
            for _ in range(rounds):
                if not running.correct(op, running.execute(op)):
                    raise RuntimeError(f"warm-up answer wrong for {op.goal}")
    except BaseException:
        running.stop()
        raise
    return running


# --- the timed window --------------------------------------------------------

@dataclass
class Sample:
    """One timed op.  Replies are not kept: a window holds thousands, and
    a growing heap makes the collector's pauses part of the measurement."""

    kind: str
    start: float
    end: float
    ok: bool
    seen: "dict | None" = None  # what ``keep`` extracted from the reply


def reply_facts(reply: dict) -> dict:
    """The reply fields the traced run reads off live traffic."""
    return {
        "elapsed_ms": reply.get("elapsed_ms"),
        "cache_hit": reply.get("cache_hit"),
        "dropped": reply.get("cache_entries_dropped"),
        "bytes": len(json.dumps(reply)),
    }


def _calibrator(cpu: int, stop: threading.Event, out: list) -> None:
    """Time the kernel on *cpu* every CAL_INTERVAL until told to stop.  A
    thread that has slept is scheduled ahead of the busy process it
    shares the CPU with, so the kernel usually runs uninterrupted."""
    os.sched_setaffinity(0, {cpu})  # this thread only
    while not stop.wait(CAL_INTERVAL):
        out.append((time.perf_counter(), calibration_kernel()))


def _client_loop(running: Running, ops, deadline: float, max_ops, keep, out: list,
                 stop: threading.Event) -> None:
    index, count = 0, len(ops)
    while index != max_ops and not stop.is_set():
        op = ops[index % count]
        start = time.perf_counter()
        if start >= deadline:
            return
        try:
            reply = running.execute(op)
            end = time.perf_counter()
            ok = running.correct(op, reply)
            seen = keep(reply) if keep and ok else None
        except ServeError:
            end = time.perf_counter()
            ok, seen = False, None
        out.append(Sample(op.kind, start, end, ok, seen))
        index += 1


@dataclass
class Window:
    """What one timed window observed."""

    samples: list
    speed: SpeedTrack
    started: float
    wall: float
    client_cpu: float
    server_cpu: float
    processes: int
    peak_rss_kb: int

    @property
    def reference_wall(self) -> float:
        """The window's length had the machine run at reference speed."""
        return self.speed.reference_seconds(self.started, self.started + self.wall)


def run_window(running: Running, seconds: float, max_ops: "int | None" = None,
               keep=None) -> Window:
    """Closed loop: each client thread sends its next op when the last
    one's reply is in, for *seconds* (or *max_ops* ops per client, if
    that comes first).  *keep* maps a correct reply to what the caller
    wants remembered of it (after the op's clock has stopped)."""
    server = running.server
    pids = server.pids(running.client) if server else []
    cpu_before = sum(proc_cpu_seconds(pid) for pid in pids)
    own_before = time.process_time()
    started = time.perf_counter()
    deadline = started + seconds
    outs = [[] for _ in running.inputs.clients]
    cpus = sorted(os.sched_getaffinity(0))  # one CPU unless the system is pooled
    calibrations = [[] for _ in cpus]
    stop = threading.Event()
    calibrators = [
        threading.Thread(target=_calibrator, args=(cpu, stop, samples))
        for cpu, samples in zip(cpus, calibrations)
    ]
    threads = [
        threading.Thread(
            target=_client_loop, args=(running, ops, deadline, max_ops, keep, out, stop)
        )
        for ops, out in zip(running.inputs.clients, outs)
    ]
    for thread in calibrators + threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    finally:  # an interrupted window (SIGTERM) must not leave threads looping
        stop.set()
        for thread in calibrators + threads:
            thread.join()
    wall = time.perf_counter() - started
    if server:
        peak = sum(proc_peak_rss_kb(pid) for pid in pids)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return Window(
        samples=sorted((s for out in outs for s in out), key=lambda s: s.end),
        speed=SpeedTrack(calibrations),
        started=started,
        wall=wall,
        client_cpu=time.process_time() - own_before,
        server_cpu=sum(proc_cpu_seconds(pid) for pid in pids) - cpu_before,
        processes=max(1, len(pids) - 1) if pids else 1,
        peak_rss_kb=peak,
    )


def latencies_ms(window: Window, samples, raw: bool = False) -> list:
    """Client-observed latencies, at reference speed unless *raw*."""
    if raw:
        return [(s.end - s.start) * 1e3 for s in samples]
    return [
        (s.end - s.start) * 1e3 / window.speed.slowdown((s.start + s.end) / 2)
        for s in samples
    ]


def end_to_end(window: Window, raw: bool = False) -> dict:
    """The window's end-to-end metrics: each is the median over
    :data:`SLICES` equal time slices, so one disturbed second moves a
    fifth of the evidence, not the result.  A window too thin for that
    (fewer than ~100 queries per slice, which p90 needs) uses fewer."""
    queries = sum(s.kind == "query" for s in window.samples)
    slices = max(1, min(SLICES, queries // (12 * MIN_BEYOND)))
    width = window.wall / slices
    p50s, p90s, rates = [], [], []
    for index in range(slices):
        low = window.started + index * width
        inside = [s for s in window.samples if low <= s.end < low + width]
        queries = latencies_ms(window, [s for s in inside if s.kind == "query"], raw)
        p50s.append(percentile(queries, 0.5))
        p90s.append(percentile(queries, 0.9))
        length = width if raw else window.speed.reference_seconds(low, low + width)
        rates.append(sum(s.ok for s in inside) / length)
    return {
        "op_p50_ms": median_of_slices(p50s),
        "op_p90_ms": median_of_slices(p90s),
        "ops_per_s": median_of_slices(rates),
        "peak_rss_mb": window.peak_rss_kb / 1024.0,
    }


def write_result(name: str, document: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
