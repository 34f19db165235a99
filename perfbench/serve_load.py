"""The ``serve-mixed`` workload: an open-loop request mix against a
``repro-scj serve`` process.

The server runs as its own process, started through the CLI.  A seeded
schedule offers requests at a ladder of fixed rates over at most ``nproc``
(here two) connections.  Each connection is one sender thread carrying one
open-loop stream: it sends each request at its due time, or as soon as its
previous reply is in, so a slow reply delays later requests and that wait
counts in their latency, which is timed from the request's due time.  The
mix per rung:

* warm probes (most): a 16-record R batch against a hot S by ``s_ref``
  handle; the hot set (twitter- and flickr-shaped, so both paper
  algorithms serve) fits the server's ``--cache-capacity``;
* re-ship probes: a hot S sent in full, which must hit the cache;
* cold probes: an S never seen before, drawn from a stream larger than
  the cache, which forces a build and, once the cache is full, evictions.

Warm probes (reads) travel on one connection, re-ship and cold probes
(writes) on the other, so writes contend with reads inside the server.

No traffic record of the server exists, so the mix, the rates and the hot
set are synthetic assumptions; the constants below say what each is
derived from.

Each rung is offered as segments of about :data:`SEGMENT_SECONDS`.  Between
segments, with no request outstanding, the benchmark times
:data:`GAP_SLICES` reference slices; a segment's latencies are scaled by
the slices of the gaps before and after it, so the load generator does no
work of its own while requests are in flight.  A backlog cannot carry over
from one segment to the next, so the ladder judges it within each segment.

Every reply's pairs are compared with an in-process
``prepare_index(s).probe_many(r)`` on the same inputs, computed before the
measured window.  While the segments run, :class:`common.IdleSpinners`
keeps the CPUs from halting, so millisecond latencies measure the program
and not a virtual CPU's wake-up delay.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep
from typing import Any

from perfbench import common, layers

BATCH = 16
#: The hot set, (relations, records each): one twitter- and one
#: flickr-shaped group, so both paper algorithms serve.  Six relations fill
#: half of CACHE_CAPACITY; the other half is the room the cold stream
#: cycles through, so cold builds evict cold entries while the hot set,
#: touched every six warm probes (75 ms at the reference rate), stays
#: resident under LRU.
HOT_TWITTER = (3, 200)
HOT_FLICKR = (3, 1000)
CACHE_CAPACITY = 12
COLD_SIZES = {"twitter": 150, "flickr": 600}
POOL_SIZES = {"twitter": 400, "flickr": 2000}
#: Share of each rung's requests by kind; the rest are warm probes.  A run
#: needs 50 re-ship and 50 cold probes for their medians: a median of n
#: samples has a distribution-free 95 % confidence interval between order
#: statistics n/2 -+ 0.98 sqrt(n), which for n = 50 is the 36th to 64th
#: percentile of the samples (for n = 11 it is the 21st to 79th).  These
#: are the smallest whole-percent shares that give 50 of each over the
#: 1,680 requests of a 20 s window; the re-ship and cold medians pool every
#: rung.  The same mix is offered at every rate.  At the reference rate
#: the writes keep the server busy about 6 % of the time, so most warm
#: probes do not meet one.
RESHIP_SHARE = 0.03
COLD_SHARE = 0.03
#: Offered rates (requests/s) and each rung's share of the window.  The
#: middle rung is the reference rate the latency metrics are read at.
#: With the server times of the traced run (warm ~1.7 ms, re-ship ~10 ms,
#: cold ~16 ms) the reference rate keeps the server's interpreter about
#: 20 % busy, so latency is measured below saturation on two shared cores;
#: the other rungs are half and one and a half times it.
RUNGS = ((40.0, 0.1), (80.0, 0.7), (120.0, 0.2))
REFERENCE_RATE = 80.0
#: A rung meets the limit when its warm p99 is at most this and its last
#: request was sent no later than this after its due time (no backlog).
LATENCY_LIMIT_MS = 100.0
#: Approximate length of one segment of a rung, and the reference slices
#: timed in each gap between segments (about 20-30 ms of work).
SEGMENT_SECONDS = 1.0
GAP_SLICES = 40
#: Server start-ups per untraced run; ``setup_s`` is their median.  One
#: is the measured server; the others start and stop before and after the
#: measured window, half each.
SETUP_REPEATS = 5
#: Interpreter switch interval while senders run, so a sender waking at a
#: due time takes the interpreter lock from a busy neighbour promptly.
SWITCH_INTERVAL_S = 0.0005


@dataclass
class Request:
    kind: str  # "warm", "reship" or "cold"
    due: float  # offset from the rung's start, seconds
    r: list[list[int]]
    hot: int = -1  # hot-set index (warm, reship)
    s: list[list[int]] | None = None  # cold S payload
    expected: list[tuple[int, int]] = field(default_factory=list)
    frame: bytes = b""
    # Filled in when its segment is offered:
    due_at: float = 0.0  # absolute due time
    picked: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    reply: dict[str, Any] | None = None
    error: str = ""


@dataclass
class Segment:
    """A stretch of one rung's schedule, offered without a pause."""

    rate: float
    requests: list[Request]
    ref_s: float = 0.0  # one ref, from the gap slices before and after


@dataclass
class Inputs:
    hot: list[Any]  # Relations
    hot_payloads: list[list[list[int]]]
    segments: list[Segment]

    def requests(self):
        return (q for segment in self.segments for q in segment.requests)


def _shape_of_hot(h: int) -> str:
    return "twitter" if h < HOT_TWITTER[0] else "flickr"


def make_inputs(seed: int, seconds: float) -> Inputs:
    """The hot set, R pools, cold stream and segment schedules, all from
    ``seed``; expected pairs are filled in by :func:`compute_expected`."""
    from repro.datagen.realworld import make_surrogate
    from repro.serve.protocol import relation_to_payload

    rng = random.Random(seed)
    base = seed * 4096
    hot = [make_surrogate("twitter", HOT_TWITTER[1], base + i) for i in range(HOT_TWITTER[0])]
    hot += [make_surrogate("flickr", HOT_FLICKR[1], base + 16 + i) for i in range(HOT_FLICKR[0])]
    pools = {
        shape: relation_to_payload(make_surrogate(shape, size, base + 32 + k))
        for k, (shape, size) in enumerate(POOL_SIZES.items())
    }
    cold_seed = base + 64
    segments: list[Segment] = []
    warm_turn = 0
    for rate, share in RUNGS:
        n = max(1, round(rate * seconds * share))
        kinds = ["cold"] * round(n * COLD_SHARE) + ["reship"] * round(n * RESHIP_SHARE)
        kinds += ["warm"] * (n - len(kinds))
        rng.shuffle(kinds)
        per_segment = -(-n // max(1, round(seconds * share / SEGMENT_SECONDS)))
        for i, kind in enumerate(kinds):
            if i % per_segment == 0:
                segments.append(Segment(rate, []))
            due = (i % per_segment + 0.5 + rng.uniform(-0.4, 0.4)) / rate
            if kind == "cold":
                shape = "twitter" if cold_seed % 2 == 0 else "flickr"
                s = relation_to_payload(make_surrogate(shape, COLD_SIZES[shape], cold_seed))
                cold_seed += 1
                request = Request(kind, due, rng.sample(pools[shape], BATCH), s=s)
            else:
                if kind == "warm":
                    h = warm_turn % len(hot)  # round-robin keeps every hot S recent
                    warm_turn += 1
                else:
                    h = rng.randrange(len(hot))
                request = Request(kind, due, rng.sample(pools[_shape_of_hot(h)], BATCH), hot=h)
            segments[-1].requests.append(request)
    return Inputs(hot, [relation_to_payload(s) for s in hot], segments)


def compute_expected(inputs: Inputs) -> None:
    """Each request's pairs from an in-process prepared index."""
    from repro import Relation, prepare_index

    hot_indexes = [prepare_index(s) for s in inputs.hot]
    for request in inputs.requests():
        r = Relation.from_sets(request.r)
        if request.kind == "cold":
            index = prepare_index(Relation.from_sets(request.s))
        else:
            index = hot_indexes[request.hot]
        request.expected = sorted(index.probe_many(r).pairs)


class Server:
    """A ``repro-scj serve`` child process and the flags it was started with."""

    def __init__(self, root: Path, connections: int) -> None:
        self.argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--cache-capacity", str(CACHE_CAPACITY),
            "--max-connections", str(connections),
        ]
        self.proc = subprocess.Popen(
            self.argv, cwd=root, env=common.child_env(root),
            stdout=subprocess.PIPE, text=True,
        )
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not line.startswith("serving on "):
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.split()[2].rsplit(":", 1)
        self.address = (host, int(port))

    def stop(self, client) -> tuple[bool, str]:
        """Shut down through the protocol; True when the process printed
        ``server stopped`` and exited 0."""
        client.shutdown()
        client.close()
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            return False, "server did not exit within 30 s of shutdown"
        ok = "server stopped" in out and self.proc.returncode == 0
        return ok, f"exit {self.proc.returncode}, output {out.strip()!r}"

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)


def _start_and_warm(root: Path, inputs: Inputs, connections: int):
    """Start a server and build the hot set through it.  Returns the
    server, a connected client, the hot handles and the seconds spent."""
    from repro.serve import JoinClient

    t0 = perf_counter()
    server = Server(root, connections)
    try:
        client = JoinClient(address=server.address)
        handles = [client.probe([p[0]], s=p)["s_key"] for p in inputs.hot_payloads]
    except BaseException:
        server.kill()
        raise
    return server, client, handles, perf_counter() - t0


def encode_frames(inputs: Inputs, handles: list[str]) -> None:
    """Encode every request frame before the window, so the sender threads
    spend it on the wire rather than holding the interpreter lock in JSON
    encoding (a re-shipped S is ~10^4 integers)."""
    from repro.serve.protocol import encode_frame

    for request_id, request in enumerate(inputs.requests(), 1):
        frame: dict[str, Any] = {
            "op": "probe", "id": request_id, "r": request.r, "algorithm": "auto",
        }
        if request.kind == "warm":
            frame["s_ref"] = handles[request.hot]
        elif request.kind == "reship":
            frame["s"] = inputs.hot_payloads[request.hot]
        else:
            frame["s"] = request.s
        request.frame = encode_frame(frame)


def _streams(schedule: list[Request], connections: int) -> list[list[Request]]:
    """Split a segment's schedule into one request stream per connection.

    With two connections the warm probes (reads) go on one and the
    re-ship and cold probes (the writes that build or re-fingerprint an
    index) on the other, so the two contend inside the server rather
    than queueing behind each other in the client.
    """
    if connections == 1:
        return [schedule]
    return [
        [q for q in schedule if q.kind == "warm"],
        [q for q in schedule if q.kind != "warm"],
    ]


def _run_segment(clients, segment: Segment) -> None:
    """Offer one segment's schedule and wait for every reply.  Each sender
    sleeps until its next request is due."""
    from repro import ReproError

    start = perf_counter() + 0.02
    for request in segment.requests:
        request.due_at = start + request.due

    def sender(client, stream: list[Request]) -> None:
        for request in stream:
            request.picked = perf_counter()
            while (wait := request.due_at - perf_counter()) > 0:
                sleep(wait)
            request.sent = perf_counter()
            try:
                request.reply = client.send_raw(request.frame)
            except (ReproError, OSError) as exc:
                request.error = f"{type(exc).__name__}: {exc}"
            request.done = perf_counter()

    threads = [
        threading.Thread(target=sender, args=(client, stream), daemon=True)
        for client, stream in zip(clients, _streams(segment.requests, len(clients)))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        if thread.is_alive():
            raise RuntimeError("a sender thread did not finish within 120 s")


def _gap_slices() -> list[float]:
    """:data:`GAP_SLICES` reference slice times, spread over every CPU this
    process may use: the server's threads run on any of them, and on a
    virtual machine one virtual CPU can be slower than another."""
    cpus = sorted(os.sched_getaffinity(0))
    slices = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            slices += [common.time_slice() for _ in range(GAP_SLICES // len(cpus))]
    finally:
        os.sched_setaffinity(0, cpus)
    return slices


def _offer(clients, segments: list[Segment]) -> list[float]:
    """Offer every segment in order, timing reference slices before the
    first and after each one; returns the slice times (seconds) in order."""
    gaps = [_gap_slices()]
    for segment in segments:
        _run_segment(clients, segment)
        gaps.append(_gap_slices())
        segment.ref_s = common.ref_seconds(gaps[-2] + gaps[-1])
    return [s for gap in gaps for s in gap]


def _check(report: common.Report, request: Request) -> None:
    from repro.serve import JoinClient

    report.attempted += 1
    label = f"{request.kind} probe due at {request.due:.3f}s"
    if request.reply is None:
        report.fail(f"{label}: {request.error}")
    elif JoinClient.pairs(request.reply) != request.expected:
        report.fail(f"{label}: pairs differ from the in-process prepared index")
    elif request.reply.get("cache_hit") != (request.kind != "cold"):
        report.fail(f"{label}: cache_hit={request.reply.get('cache_hit')}")


def _latency_ms(request: Request) -> float:
    return (request.done - request.due_at) * 1e3


def run(root: Path, seed: int, seconds: float, trace: bool) -> common.Report:
    report = common.Report(common.run_meta(root, "serve-mixed", seed, trace))
    connections = max(1, min(2, report.meta["nproc"] or 1))
    inputs = make_inputs(seed, seconds)
    compute_expected(inputs)
    return _measure(root, report, inputs, connections, trace)


def _measure(root: Path, report: common.Report, inputs: Inputs, connections: int, trace: bool):
    from repro.serve import JoinClient

    def set_up_only(repeats: int) -> None:
        for _ in range(0 if trace else repeats):
            server, client, _, elapsed = _start_and_warm(root, inputs, connections)
            setups.append(elapsed)
            try:
                ok, detail = server.stop(client)
            finally:
                server.kill()
            if not ok:
                report.fail(f"set-up server did not stop cleanly: {detail}")

    setups: list[float] = []
    set_up_only((SETUP_REPEATS - 1) // 2)
    server, client, handles, elapsed = _start_and_warm(root, inputs, connections)
    setups.append(elapsed)
    report.meta.update(
        server_argv=server.argv[2:],
        connections=connections,
        hot_set=[len(s) for s in inputs.hot],
        rungs_rps=[rate for rate, _ in RUNGS],
        reference_rps=REFERENCE_RATE,
        latency_limit_ms=LATENCY_LIMIT_MS,
        mix={"reship": RESHIP_SHARE, "cold": COLD_SHARE},
        segments=len(inputs.segments),
    )
    try:
        clients = [client] + [JoinClient(address=server.address) for _ in range(connections - 1)]
        encode_frames(inputs, handles)
        # The benchmark's own heap (inputs, expected pairs) must not stall
        # the senders: freeze it out of the collector and collect nothing
        # while the segments run.
        gc.collect()
        gc.freeze()
        gc.disable()
        previous_interval = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        try:
            with common.IdleSpinners():
                slices = _offer(clients, inputs.segments)
        finally:
            sys.setswitchinterval(previous_interval)
            gc.enable()
        stats = clients[0].stats()
        rss = common.peak_rss_mb(server.proc.pid)
        for extra in clients[1:]:
            extra.close()
        ok, detail = server.stop(clients[0])
    finally:
        server.kill()
    if not ok:
        report.fail(f"server did not stop cleanly: {detail}")
    report.note("server", detail)
    set_up_only(SETUP_REPEATS - len(setups))

    for request in inputs.requests():
        _check(report, request)

    rung_results = []
    for rate, _ in RUNGS:
        segments = [g for g in inputs.segments if g.rate == rate]
        schedule = [q for g in segments for q in g.requests]
        warm = [_latency_ms(q) for q in schedule if q.kind == "warm" and q.reply]
        p99 = common.percentile(warm, 99)
        # A growing backlog shows as late sends at the end of a segment.
        backlog_ms = max(
            q.sent - q.due_at for g in segments for q in g.requests[-max(1, len(g.requests) // 10):]
        ) * 1e3
        span = sum(max(q.done for q in g.requests) - g.requests[0].due_at for g in segments)
        passed = bool(warm) and p99 <= LATENCY_LIMIT_MS and backlog_ms <= LATENCY_LIMIT_MS
        rung_results.append((rate, passed, common.ratio(len(schedule), span)))
        report.note(
            f"rung {rate:g} req/s",
            f"{len(schedule)} requests in {len(segments)} segments, "
            f"warm p50 {common.median(warm):.3f} ms, "
            f"warm p99 {p99:.3f} ms, sends up to {backlog_ms:.3f} ms late at the end, "
            f"{'meets' if passed else 'misses'} the {LATENCY_LIMIT_MS:g} ms limit",
        )
    # The highest rate below which every rung met the limit.
    max_rate = achieved = 0.0
    for rate, passed, completed_per_s in rung_results:
        if not passed:
            break
        max_rate, achieved = rate, completed_per_s

    # Warm probes at the reference rate; re-ship and cold probes at every
    # rate, for the sample count their medians need.
    reference = [g for g in inputs.segments if g.rate == REFERENCE_RATE]
    by_kind = {
        kind: [
            q for g in inputs.segments for q in g.requests
            if q.kind == kind and q.reply and (kind != "warm" or g.rate == REFERENCE_RATE)
        ]
        for kind in ("warm", "reship", "cold")
    }
    warm_ms = [_latency_ms(q) for q in by_kind["warm"]]
    reship_ms = [_latency_ms(q) for q in by_kind["reship"]]
    cold_ms = [_latency_ms(q) for q in by_kind["cold"]]
    late_ms = [(q.sent - max(q.due_at, q.picked)) * 1e3 for q in inputs.requests()]
    report.note("warm_requests_at_reference", len(warm_ms))
    report.note("warm_ms_p50", common.median(warm_ms), "ms")
    report.note("warm_ms_p90", common.percentile(warm_ms, 90), "ms")
    report.note("warm_ms_p99", common.percentile(warm_ms, 99), "ms")
    report.note("reship_ms_p50", common.median(reship_ms), "ms")
    report.note("reship_requests", len(reship_ms))
    report.note("cold_ms_p50", common.median(cold_ms), "ms")
    report.note("cold_requests", len(cold_ms))
    report.note("max_rate_rps", max_rate, "req/s")
    report.note("achieved_rps_at_max_rate", achieved, "req/s")
    report.note("failed_frac", common.ratio(report.failed, report.attempted), "ratio")
    report.note("peak_rss_mb", rss, "MB")
    report.note("bench.gen_late_ms_p99", common.percentile(late_ms, 99), "ms")
    report.note("setup_samples_s", [round(x, 4) for x in setups])

    if trace:
        metrics = stats.get("metrics", {})
        hits = float(metrics.get("cache.hits", 0))
        misses = float(metrics.get("cache.misses", 0))

        def server_ms(kind: str) -> float:
            return common.median(q.reply["seconds"] * 1e3 for q in by_kind[kind])

        def phase_ms(q: Request, *names: str) -> float:
            return sum(q.reply.get("phases", {}).get(n, 0.0) for n in names) * 1e3

        layers.emit(report, {
            "serve.server_ms_warm": server_ms("warm"),
            "serve.server_ms_reship": server_ms("reship"),
            "serve.server_ms_cold": server_ms("cold"),
            "serve.wire_ms": common.median(
                (q.done - q.sent) * 1e3 - q.reply["seconds"] * 1e3 for q in by_kind["warm"]
            ),
            "serve.probe_ms": common.median(phase_ms(q, "probe") for q in by_kind["warm"]),
            "serve.build_ms": common.median(phase_ms(q, "build") for q in by_kind["cold"]),
            "serve.unspanned_ms": common.median(
                q.reply["seconds"] * 1e3 - phase_ms(q, "plan", "build", "probe")
                for q in by_kind["reship"]
            ),
            "serve.rejected": float(metrics.get("server.rejected", 0)),
            "serve.reship_ms_p50": common.median(reship_ms),
            "serve.cold_ms_p50": common.median(cold_ms),
            "cache.hit_ratio": common.ratio(hits, hits + misses),
            "cache.evictions": float(metrics.get("cache.evictions", 0)),
            "bench.gen_late_ms_p99": common.percentile(late_ms, 99),
        })
        return report

    # Each warm latency in refs of the gaps around its segment.
    scaled = [
        _latency_ms(q) / 1e3 / g.ref_s
        for g in reference for q in g.requests if q.kind == "warm" and q.reply
    ]
    report.note("ref_ms_p50", common.ref_seconds(slices) * 1e3, "ms")
    report.metric("latency_p50", common.median(scaled), "ref")
    report.metric("latency_tail", common.percentile(scaled, 90), "ref")
    report.metric("peak_rss_mb", rss, "MB")
    report.metric("setup_s", common.median(setups), "s")
    return report
