"""Multi-core partition-parallel join (paper Sec. VI future work).

"Extending the algorithms to nontrivial multi-core ... settings will be
essential when relation size goes beyond millions of tuples."

This module provides the straightforward first step on top of the
prepared-index split: the index over ``S`` is built **exactly once** in
the parent, the probe relation ``R`` is split into chunks, and the
chunks are dealt round-robin to ``workers`` slots.  The parent is slot
0 and probes its own chunks in-process; every further slot is one child
process started for this join alone.  Output equals the sequential
join's because ``R ⋈⊇ S = ⋃_i (R_i ⋈⊇ S)``.

Index sharing is zero-copy under ``fork``: a child inherits the
parent's prepared index and its chunks through copy-on-write pages.
Under ``spawn`` or ``forkserver`` they are pickled to each child once —
still one *build*, never one build per worker or per chunk.  A child
sends one reply down a one-way pipe: its chunks' pairs as two
``array('q')`` columns plus their :class:`~repro.core.base.JoinStats`,
or the exception it raised.  Nothing outlives the join: no pool, no
thread, no module state, and every child is reaped before
:meth:`ParallelJoin.join` returns or raises.

:class:`ParallelJoin` is the fail-fast executor: any worker failure
aborts the join.  :class:`repro.exec.resilient.ResilientParallelJoin`
layers per-chunk retry, timeouts and an in-process fallback on top of
the same chunking, and :class:`repro.exec.sharded.ShardedJoin`
partitions the *index side* instead of sharing it — see
``docs/EXECUTORS.md`` for the full matrix.
"""

from __future__ import annotations

import multiprocessing
from array import array
from operator import itemgetter
from typing import Any, ClassVar, Iterable, Sequence

from repro.core.base import JoinResult, JoinStats, PreparedIndex
from repro.core.options import validate_chunks, validate_start_method, validate_workers
from repro.errors import WorkerError
from repro.exec.merge import merge_stats
from repro.exec.protocol import BaseExecutor
from repro.exec.partition import partition_relation
from repro.governance.policy import GovernancePolicy, current_policy, governor, set_policy
from repro.obs.tracer import NullTracer, current_tracer, set_tracer
from repro.relations.relation import Relation

__all__ = ["ParallelJoin", "parallel_join", "record_chunk_span"]


def _columns(pairs: list[tuple[int, int]]) -> tuple[Sequence[int], Sequence[int]]:
    """Split pairs into an r-id and an s-id column for the trip home.

    Two ``array('q')`` buffers pickle as raw bytes, far cheaper than a
    list of tuples.  Ids beyond int64 travel as plain lists instead.
    """
    try:
        return array("q", map(itemgetter(0), pairs)), array("q", map(itemgetter(1), pairs))
    except OverflowError:
        return [p[0] for p in pairs], [p[1] for p in pairs]


def _probe_slot(
    index: PreparedIndex,
    chunks: list[Relation],
    policy: GovernancePolicy | None,
    conn: Any,
) -> None:
    """Child entry point (module-level so it pickles): probe, reply, exit.

    The parent's governance policy (deadline/cancel token) arrives as an
    argument, so the probe loops poll the *parent's* bounds — the
    deadline is an absolute monotonic instant (system-wide on POSIX) and
    the token can be flag-file backed, so both read identically here.
    The child traces nothing: its probe times travel home in each
    chunk's stats, and the parent records them.
    """
    set_tracer(NullTracer())
    set_policy(policy)
    try:
        outcomes = []
        for chunk in chunks:
            result = index.probe_many(chunk)
            outcomes.append((*_columns(result.pairs), result.stats))
        reply: tuple[str, Any] = ("ok", outcomes)
    except Exception as exc:  # noqa: BLE001 - re-raised in the parent
        reply = ("error", exc)
    # A reply that fails to pickle kills the child, which the parent
    # reports as a WorkerError with exit code 1.
    conn.send(reply)
    conn.close()


def record_chunk_span(tracer, chunk_stats: JoinStats) -> None:
    """Fold one worker-measured chunk probe into the parent's span tree.

    Workers run with their own (null) tracer; their probe wall time comes
    home inside the chunk's :class:`JoinStats`.  Recording it — rather
    than re-timing with a context manager — merges every chunk into one
    ``probe`` span whose ``seconds`` equals the *summed* per-chunk probe
    time (what ``stats.probe_seconds`` reports), not the smaller parallel
    wall time, so the span tree and the stats stay consistent.
    """
    if not tracer.enabled:
        return
    tracer.record(
        "probe",
        chunk_stats.probe_seconds,
        {
            "chunks": 1,
            "pairs": chunk_stats.pairs,
            "candidates": chunk_stats.candidates,
            "verifications": chunk_stats.verifications,
            "node_visits": chunk_stats.node_visits,
            "intersections": chunk_stats.intersections,
        },
    )
    tracer.observe("chunk_probe_seconds", chunk_stats.probe_seconds)


class ParallelJoin(BaseExecutor):
    """Partition-parallel set-containment join over worker processes.

    Args:
        algorithm: Registry name of the in-memory algorithm whose prepared
            index is shared by all workers.
        workers: Number of processes that probe, the parent included
            (>= 1).  The parent probes one slot's chunks itself and
            starts one child per further slot, so ``workers=1`` probes
            every chunk in-process — the index is still prepared exactly
            once.
        chunks: Number of R-chunks; defaults to ``workers``.
        start_method: Multiprocessing start method for the children
            (``"fork"``, ``"spawn"``, ``"forkserver"``); ``None`` uses the
            platform default.
        **algorithm_kwargs: Forwarded to the algorithm factory.

    Raises:
        AlgorithmError: On a non-positive worker or chunk count, or an
            unknown start method.
    """

    name: ClassVar[str] = "parallel"

    def __init__(
        self,
        algorithm: str = "ptsj",
        workers: int = 2,
        chunks: int | None = None,
        start_method: str | None = None,
        **algorithm_kwargs,
    ) -> None:
        validate_workers(workers)
        validate_chunks(chunks)
        validate_start_method(start_method)
        super().__init__(algorithm=algorithm, **algorithm_kwargs)
        self.workers = workers
        self.chunks = chunks or workers
        self.start_method = start_method

    def _describe_options(self) -> dict[str, Any]:
        return {
            "workers": self.workers,
            "chunks": self.chunks,
            "start_method": self.start_method,
        }

    def _partition(self, r: Relation, stats: JoinStats) -> list[Relation]:
        """Split ``r`` into the configured number of chunks."""
        chunk_size = max(1, -(-len(r) // self.chunks)) if len(r) else 1
        r_chunks = partition_relation(r, chunk_size)
        stats.extras["workers"] = self.workers
        stats.extras["chunks"] = len(r_chunks)
        return r_chunks

    def join(self, r: Relation, s: Relation) -> JoinResult:
        """Compute ``R ⋈⊇ S``: one index build, parallel chunk probes.

        Raises:
            WorkerError: When a child exits without replying (its exit
                code is named).  An exception a child raises is re-raised
                here as is.
        """
        stats = JoinStats(algorithm=f"parallel-{self.algorithm}")
        r_chunks = self._partition(r, stats)

        index = self.prepare(s, probe_hint=r)
        stats.build_seconds = index.build_seconds
        stats.signature_bits = index.signature_bits
        stats.index_nodes = index.index_nodes
        stats.extras["index_builds"] = 1

        slots = min(self.workers, len(r_chunks))
        owned = [range(slot, len(r_chunks), slots) for slot in range(slots)]
        outcomes: list[tuple[Iterable[tuple[int, int]], JoinStats] | None]
        outcomes = [None] * len(r_chunks)
        policy = current_policy()
        if policy is not None:
            policy = policy.worker_policy()
        context = multiprocessing.get_context(self.start_method)
        children: list[tuple[int, Any, Any]] = []
        try:
            for slot in range(1, slots):
                recv_conn, send_conn = context.Pipe(duplex=False)
                chunks = [r_chunks[i] for i in owned[slot]]
                proc = context.Process(
                    target=_probe_slot,
                    args=(index, chunks, policy, send_conn),
                    daemon=True,
                )
                children.append((slot, proc, recv_conn))
                try:
                    proc.start()
                finally:
                    # Only the child may hold the send end: once it dies,
                    # recv() then sees EOF instead of blocking forever.
                    send_conn.close()
            # Slot 0 is the parent.  Its probes run under the active
            # tracer, so probe_many opens the spans itself.
            for i in owned[0]:
                result = index.probe_many(r_chunks[i])
                outcomes[i] = (result.pairs, result.stats)
            tracer = current_tracer()
            gov = governor("probe", stats)
            for slot, proc, conn in children:
                # Receive before joining: a reply larger than the pipe
                # buffer keeps the child alive until it has been read.
                try:
                    status, payload = conn.recv()
                except EOFError:
                    proc.join()
                    raise WorkerError(
                        f"parallel worker {slot} (pid {proc.pid}) exited with code "
                        f"{proc.exitcode} before replying"
                    ) from None
                if status == "error":
                    raise payload
                for i, (r_ids, s_ids, chunk_stats) in zip(owned[slot], payload):
                    outcomes[i] = (zip(r_ids, s_ids), chunk_stats)
                    record_chunk_span(tracer, chunk_stats)
                # Fail-fast executor: the parent re-checks the bounds after
                # each child's reply, so a breach that never reaches a
                # child (e.g. cancel without a flag file) still stops the
                # join.
                if gov is not None:
                    gov.poll()
        finally:
            for _, proc, conn in children:
                conn.close()
                if proc.pid is None:  # start() itself failed
                    continue
                if proc.is_alive():
                    proc.terminate()
                proc.join()

        pairs: list[tuple[int, int]] = []
        for outcome in outcomes:
            assert outcome is not None
            chunk_pairs, chunk_stats = outcome
            pairs.extend(chunk_pairs)
            merge_stats(stats, chunk_stats)
        return JoinResult(pairs, stats)


def parallel_join(
    r: Relation,
    s: Relation,
    algorithm: str = "ptsj",
    workers: int = 2,
    **algorithm_kwargs,
) -> JoinResult:
    """One-shot helper around :class:`ParallelJoin`."""
    return ParallelJoin(algorithm=algorithm, workers=workers, **algorithm_kwargs).join(r, s)
