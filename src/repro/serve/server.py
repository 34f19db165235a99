"""The join server: a long-lived process with resident prepared indexes.

:class:`JoinServer` turns the library's build-once/probe-many API into a
service.  It listens on a TCP socket, speaks the JSONL protocol of
:mod:`repro.serve.protocol`, and serves each connection from a bounded
thread pool.  The pieces it composes are all existing subsystems:

* **Planner** — every ``probe``/``join`` request routes through
  :func:`repro.core.registry.plan` with a :class:`Workload` built from
  the request's hints, so the server makes the same explainable
  decisions as the library call.
* **Index cache** — ``probe`` requests share resident
  :class:`~repro.core.base.PreparedIndex` objects through an
  :class:`~repro.serve.cache.IndexCache` keyed by the indexed relation's
  :meth:`~repro.relations.relation.Relation.fingerprint` (plus algorithm
  and bits), so repeat probes skip the build entirely.
* **Governance** — each request runs under an ambient
  :class:`~repro.governance.policy.GovernancePolicy` composed from the
  server's default policy and the request's ``deadline_seconds`` /
  ``max_memory_bytes`` fields; breaches surface as typed wire errors.
  This leans on the *thread-local* ambient state of
  :mod:`repro.governance.policy` and :mod:`repro.obs.tracer` — request
  threads never see each other's policy or span tree.
* **Observability** — each request gets its own
  :class:`~repro.obs.tracer.Tracer` backed by the server-wide
  :class:`~repro.obs.metrics.MetricsRegistry`: per-request phase
  breakdowns travel back in the reply, cumulative counters and latency
  histograms are served by the ``stats`` op.

Admission control bounds concurrent join work: at most ``max_inflight``
``probe``/``join`` requests run at once, and request past that is
refused *before* any work starts with the 429-style ``over_capacity``
error (:class:`~repro.errors.OverCapacityError`).  ``ping`` and
``stats`` are exempt, so a saturated server stays observable.

Protocol and operational details are documented in ``docs/SERVER.md``.
"""

from __future__ import annotations

import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Mapping

from repro.analysis.concurrency import tracked_lock
from repro.core.base import JoinResult
from repro.core.registry import plan
from repro.errors import OverCapacityError, ProtocolError
from repro.governance.deadline import Deadline
from repro.governance.policy import (
    DEFAULT_POLL_INTERVAL,
    GovernancePolicy,
    govern,
)
from repro.obs.clock import perf_counter
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, use
from repro.planner.executor import execute_plan, prepare_from_plan
from repro.planner.plan import Workload
from repro.serve.cache import IndexCache, index_key
from repro.serve.protocol import (
    decode_frame,
    encode_frame,
    error_code_for,
    error_reply,
    ok_reply,
    relation_from_payload,
    validate_request,
)

__all__ = ["JoinServer"]

#: Planner hint when a ``probe`` request does not say how many batches
#: will follow: a served index is expected to be reused, so the planner
#: should amortise the build.
DEFAULT_PROBE_BATCHES = 16


class JoinServer:
    """A thread-pooled JSONL-over-TCP set-containment join service.

    Args:
        host: Bind address (default loopback).
        port: Bind port; ``0`` picks a free one (read :attr:`address`
            after :meth:`start`).
        max_connections: Thread-pool size — connections served at once;
            further connections queue unserved until a slot frees.
        max_inflight: Admission bound on concurrently *running*
            ``probe``/``join`` requests; defaults to ``max_connections``.
        cache_capacity: Resident prepared-index entries (LRU bound).
        cache_ttl_seconds: Prepared-index lifetime; ``None`` disables.
        default_policy: Server-wide governance floor.  A request's
            ``deadline_seconds``/``max_memory_bytes`` override the
            corresponding bound; the policy's cancel token and poll
            interval always apply.
        default_deadline_seconds: Per-request deadline applied when a
            request carries none; unlike an (absolute) deadline on
            ``default_policy``, each request's clock starts at its own
            admission.
        registry: Metrics sink shared by the cache, the per-request
            tracers and the server's own counters; a fresh one is
            created when omitted.
        request_hook: Test seam — called with each admitted
            ``probe``/``join`` frame *after* admission and *before* any
            join work, inside the in-flight accounting.  Fault-injection
            tests use it to hold a request slot open deterministically.

    Use as a context manager (``with JoinServer() as server:``) or call
    :meth:`start`/:meth:`stop` explicitly.  :meth:`stop` is idempotent
    and joins every serving thread, so no sockets or threads outlive it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 8,
        max_inflight: int | None = None,
        cache_capacity: int = 32,
        cache_ttl_seconds: float | None = None,
        default_policy: GovernancePolicy | None = None,
        default_deadline_seconds: float | None = None,
        registry: MetricsRegistry | None = None,
        request_hook: Callable[[Mapping[str, Any]], None] | None = None,
    ) -> None:
        if max_connections <= 0:
            raise ProtocolError(
                f"max_connections must be positive, got {max_connections}"
            )
        if max_inflight is not None and max_inflight <= 0:
            raise ProtocolError(f"max_inflight must be positive, got {max_inflight}")
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.max_inflight = max_inflight if max_inflight is not None else max_connections
        self.default_policy = default_policy
        self.default_deadline_seconds = default_deadline_seconds
        self.registry = registry if registry is not None else MetricsRegistry()
        self.cache = IndexCache(
            cache_capacity, ttl_seconds=cache_ttl_seconds, registry=self.registry
        )
        self.request_hook = request_hook
        self.address: tuple[str, int] | None = None
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._connections: set[socket.socket] = set()
        self._conn_lock = tracked_lock("server.connections", registry=self.registry)
        self._inflight = 0
        self._inflight_lock = tracked_lock("server.inflight", registry=self.registry)
        self._stopping = threading.Event()
        self._stop_requested = threading.Event()
        self._started_at = 0.0
        # Pre-create the serving instruments so stats exposes them as
        # zeros from the first snapshot (the cache does the same).
        for counter in ("server.requests", "server.rejected", "server.connections"):
            self.registry.counter(counter)
        self.registry.gauge("server.inflight").set(0)
        self.registry.histogram("server.request_seconds")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "JoinServer":
        """Bind, listen and start accepting; returns ``self``."""
        if self._listener is not None:
            raise ProtocolError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(self.max_connections * 2)
        self._listener = listener
        self.address = listener.getsockname()
        self._started_at = perf_counter()
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_connections, thread_name_prefix="repro-serve"
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close every connection, join every thread.

        Idempotent; safe to call after a remote ``shutdown`` request.
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        self._stop_requested.set()
        listener = self._listener
        if listener is not None:
            try:
                # shutdown(), not just close(): on Linux a thread blocked
                # in accept() is not woken by close() alone.
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:  # repro: noqa RPR008 a never-connected listener raises ENOTCONN; the shutdown is only a wake-up call
                pass
            try:
                listener.close()
            except OSError:  # repro: noqa RPR008 best-effort close on shutdown; the fd is gone either way
                pass
        with self._conn_lock:
            open_conns = list(self._connections)
        for conn in open_conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:  # repro: noqa RPR008 peer may already be gone; shutdown is advisory here
                pass
            try:
                conn.close()
            except OSError:  # repro: noqa RPR008 best-effort close on shutdown; the fd is gone either way
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until a ``shutdown`` request (or :meth:`stop`) arrives.

        Returns whether the stop event fired (``False`` on timeout) —
        the CLI's foreground loop is ``server.wait(); server.stop()``.
        """
        return self._stop_requested.wait(timeout)

    def __enter__(self) -> "JoinServer":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()

    @property
    def inflight(self) -> int:
        """Requests currently holding an admission slot."""
        return self._inflight

    # ------------------------------------------------------------------
    # Accepting and serving connections
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None
        pool = self._pool
        assert pool is not None
        while not self._stopping.is_set():
            try:
                conn, _addr = listener.accept()
            except OSError:
                break  # listener closed by stop()
            with self._conn_lock:
                if self._stopping.is_set():
                    conn.close()
                    break
                self._connections.add(conn)
            self.registry.counter("server.connections").inc()
            pool.submit(self._serve_connection, conn)

    def _serve_connection(self, conn: socket.socket) -> None:
        """Serve one connection: requests are processed serially, in order."""
        try:
            reader = conn.makefile("rb")
            try:
                for raw in reader:
                    reply, after_send = self._handle_line(raw)
                    try:
                        conn.sendall(encode_frame(reply))
                    except OSError:
                        break  # peer went away mid-reply
                    if after_send is not None:
                        # The shutdown ack: signal stop only once the
                        # reply bytes are queued, or a foreground owner
                        # (server.wait(); server.stop()) can close this
                        # connection before the client sees its ack.
                        after_send()
                    if self._stopping.is_set():
                        break
            finally:
                reader.close()
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:  # repro: noqa RPR008 best-effort close; connection is finished either way
                pass

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def _handle_line(
        self, raw: bytes
    ) -> tuple[dict[str, Any], Callable[[], None] | None]:
        """One request line → one reply frame plus an optional post-send
        action; errors become error frames.

        A poisoned line (bad UTF-8/JSON, schema violation) must not take
        the connection down: the typed error reply goes out and the next
        line is processed normally.
        """
        request_id: Any = None
        self.registry.counter("server.requests").inc()
        try:
            frame = decode_frame(raw)
            request_id = frame.get("id")
            op = validate_request(frame)
            self.registry.counter(f"server.requests.{op}").inc()
            return self._dispatch(op, frame, request_id)
        except Exception as exc:
            code = error_code_for(exc)
            self.registry.counter(f"server.errors.{code}").inc()
            return error_reply(request_id, code, str(exc)), None

    def _dispatch(
        self, op: str, frame: Mapping[str, Any], request_id: Any
    ) -> tuple[dict[str, Any], Callable[[], None] | None]:
        if op == "ping":
            return ok_reply(request_id, pong=True), None
        if op == "stats":
            return ok_reply(request_id, stats=self._stats_payload()), None
        if op == "shutdown":
            # The stop event is set by the connection loop *after* the
            # ack is on the wire (see _serve_connection).
            return ok_reply(request_id, stopping=True), self._stop_requested.set
        # probe / join: the expensive ops pass admission control.
        self._admit()
        try:
            if self.request_hook is not None:
                self.request_hook(frame)
            started = perf_counter()
            tracer = Tracer(name=f"serve.{op}", registry=self.registry)
            with use(tracer):
                with govern(self._request_policy(frame)):
                    if op == "probe":
                        fields = self._do_probe(frame)
                    else:
                        fields = self._do_join(frame)
            tracer.finish()
            elapsed = perf_counter() - started
            self.registry.histogram("server.request_seconds").observe(elapsed)
            self.registry.histogram(f"server.{op}_seconds").observe(elapsed)
            fields["seconds"] = elapsed
            fields["phases"] = tracer.phase_seconds()
            return ok_reply(request_id, **fields), None
        finally:
            self._release()

    def _admit(self) -> None:
        with self._inflight_lock:
            if self._inflight >= self.max_inflight:
                self.registry.counter("server.rejected").inc()
                raise OverCapacityError(
                    f"{self._inflight} request(s) in flight "
                    f"(max_inflight={self.max_inflight}); retry later"
                )
            self._inflight += 1
            self.registry.gauge("server.inflight").set(self._inflight)

    def _release(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            self.registry.gauge("server.inflight").set(self._inflight)

    def _request_policy(self, frame: Mapping[str, Any]) -> GovernancePolicy | None:
        """Request bounds merged over the server's default policy.

        The request's ``deadline_seconds`` starts its clock *here* — at
        admission, not at plan time — and overrides the server default;
        same for ``max_memory_bytes``.  The default policy's cancel
        token, sampler and poll cadence always carry over.
        """
        base = self.default_policy
        deadline_seconds = _number_or_none(frame, "deadline_seconds")
        memory_bytes = frame.get("max_memory_bytes")
        if memory_bytes is not None and not isinstance(memory_bytes, int):
            raise ProtocolError(
                f"max_memory_bytes must be an int, got {type(memory_bytes).__name__}"
            )
        if deadline_seconds is None:
            deadline_seconds = self.default_deadline_seconds
        deadline = (
            Deadline.after(deadline_seconds)
            if deadline_seconds is not None
            else (base.deadline if base is not None else None)
        )
        if memory_bytes is None and base is not None:
            memory_bytes = base.memory_budget_bytes
        cancel = base.cancel if base is not None else None
        if deadline is None and cancel is None and memory_bytes is None:
            return None
        return GovernancePolicy(
            deadline=deadline,
            cancel=cancel,
            memory_budget_bytes=memory_bytes,
            poll_interval=base.poll_interval if base is not None else DEFAULT_POLL_INTERVAL,
            memory_sampler=base.memory_sampler if base is not None else None,
        )

    def _do_probe(self, frame: Mapping[str, Any]) -> dict[str, Any]:
        """Probe through the index cache: build at most once per content key.

        A request carrying ``s_ref`` (the ``s_key`` handle from an
        earlier reply) skips shipping and fingerprinting S entirely —
        the steady-state hot path — but can only ever *hit*: a handle
        whose index was evicted or expired is a ``bad_request`` telling
        the client to resend ``s``.
        """
        s_ref = frame.get("s_ref")
        if s_ref is not None:
            r = relation_from_payload(frame.get("r"), "r")
            index = self.cache.get(s_ref)
            if index is None:
                raise ProtocolError(
                    f"unknown index handle {s_ref!r} (evicted, expired or "
                    "never built); resend the request with 's'"
                )
            return _pairs_reply(
                index.probe_many(r), _algorithm_of_key(s_ref), True, s_key=s_ref
            )
        r, s, algorithm, bits = _join_inputs(frame)
        batches = frame.get("probe_batches", DEFAULT_PROBE_BATCHES)
        if not isinstance(batches, int) or isinstance(batches, bool):
            raise ProtocolError(
                f"probe_batches must be an int, got {batches!r}"
            )
        workload = Workload(mode="probe_many", probe_batches=batches)
        kwargs = {} if bits is None else {"bits": bits}
        # The plan resolves "auto" before keying, so auto and an explicit
        # pick of the same algorithm share one resident index.
        query_plan = plan(None, s, algorithm=algorithm, workload=workload, **kwargs)
        key = index_key(s, query_plan.algorithm, bits)

        def build():  # type: ignore[no-untyped-def]
            try:
                return prepare_from_plan(query_plan, s)
            except TypeError as exc:
                # Constructor rejected an option (e.g. bits on a non-
                # signature algorithm): the caller's fault, not ours.
                raise ProtocolError(f"invalid algorithm options: {exc}") from exc

        index, hit = self.cache.get_or_build(key, build)
        return _pairs_reply(index.probe_many(r), query_plan.algorithm, hit, s_key=key)

    def _do_join(self, frame: Mapping[str, Any]) -> dict[str, Any]:
        """One-shot plan + execute; no index survives the request."""
        r, s, algorithm, bits = _join_inputs(frame)
        workload = Workload(
            deadline_seconds=_number_or_none(frame, "deadline_seconds"),
            max_memory_bytes=frame.get("max_memory_bytes"),
        )
        kwargs = {} if bits is None else {"bits": bits}
        try:
            query_plan = plan(r, s, algorithm=algorithm, workload=workload, **kwargs)
            result = execute_plan(query_plan, r, s)
        except TypeError as exc:
            raise ProtocolError(f"invalid algorithm options: {exc}") from exc
        return _pairs_reply(result, query_plan.algorithm, False)

    def _stats_payload(self) -> dict[str, Any]:
        with self._inflight_lock:
            inflight = self._inflight
        return {
            "metrics": self.registry.snapshot(),
            "cache": self.cache.describe(),
            "inflight": inflight,
            "max_inflight": self.max_inflight,
            "uptime_seconds": perf_counter() - self._started_at,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "stopped" if self._stopping.is_set() else "running"
        return f"<JoinServer {self.address} {state} inflight={self._inflight}>"


# ----------------------------------------------------------------------
# Reply and request field helpers
# ----------------------------------------------------------------------
def _pairs_reply(
    result: JoinResult, algorithm: str, cache_hit: bool, s_key: str | None = None
) -> dict[str, Any]:
    """The reply fields of a ``probe``/``join``: sorted pairs and their count."""
    reply: dict[str, Any] = {
        "pairs": sorted(result.pairs),
        "pair_count": len(result.pairs),
        "algorithm": algorithm,
        "cache_hit": cache_hit,
    }
    if s_key is not None:
        reply["s_key"] = s_key
    return reply


def _algorithm_of_key(key: str) -> str:
    """The algorithm segment of an :func:`~repro.serve.cache.index_key`."""
    parts = key.split("|")
    return parts[1] if len(parts) > 1 else "unknown"


def _number_or_none(frame: Mapping[str, Any], field: str) -> float | None:
    value = frame.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{field} must be a number, got {type(value).__name__}")
    return float(value)


def _join_inputs(frame: Mapping[str, Any]):  # type: ignore[no-untyped-def]
    """Decode the shared probe/join fields: relations, algorithm, bits."""
    algorithm = frame.get("algorithm", "auto")
    if not isinstance(algorithm, str):
        raise ProtocolError(
            f"algorithm must be a string, got {type(algorithm).__name__}"
        )
    bits = frame.get("bits")
    if bits is not None and (isinstance(bits, bool) or not isinstance(bits, int)):
        raise ProtocolError(f"bits must be an int, got {type(bits).__name__}")
    r = relation_from_payload(frame.get("r"), "r")
    s = relation_from_payload(frame.get("s"), "s")
    return r, s, algorithm, bits
