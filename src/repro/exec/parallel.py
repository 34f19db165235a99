"""Multi-core partition-parallel join (paper Sec. VI future work).

"Extending the algorithms to nontrivial multi-core ... settings will be
essential when relation size goes beyond millions of tuples."

This module provides the straightforward first step on top of the
prepared-index split: the index over ``S`` is built **exactly once** in
the parent, the probe relation ``R`` is split into chunks, and each
chunk becomes one task of the supervisor in
:mod:`repro.exec.supervisor`, which deals them round-robin to
``workers`` slots.  The parent is slot 0 and probes its own chunks
in-process; every further slot is one child process started for this
join alone.  Output equals the sequential join's because
``R ⋈⊇ S = ⋃_i (R_i ⋈⊇ S)``.

Index sharing is zero-copy under ``fork``: a child inherits the
parent's prepared index and its chunks through copy-on-write pages.
Under ``spawn`` or ``forkserver`` they are pickled to each child once —
still one *build*, never one build per worker or per chunk.

:class:`ParallelJoin` is the supervisor's fail-fast configuration: one
attempt per chunk, no fallback and no per-pair validation, so any worker
failure aborts the join with the chunk's own error.
:class:`repro.exec.resilient.ResilientParallelJoin` is the same join
with per-chunk retry, timeouts and an in-process fallback switched on,
and :class:`repro.exec.sharded.ShardedJoin` partitions the *index side*
instead of sharing it — see ``docs/EXECUTORS.md`` for the full matrix.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, ClassVar

from repro.core.base import JoinResult, JoinStats, PreparedIndex
from repro.core.options import validate_chunks, validate_start_method, validate_workers
from repro.errors import BudgetExceededError
from repro.exec.protocol import BaseExecutor
from repro.exec.partition import partition_relation
from repro.exec.supervisor import Outcome, RetryPolicy, Supervisor, Task, Work
from repro.obs.tracer import current_tracer
from repro.relations.relation import Relation

__all__ = ["ParallelJoin", "parallel_join", "record_chunk_span"]


def _probe(index: PreparedIndex, chunk: Relation) -> Outcome:
    """One attempt at one chunk (module-level so it pickles): probe, never build."""
    result = index.probe_many(chunk)
    return result.pairs, result.stats


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

    #: The supervisor's fail-fast configuration (the resilient executor
    #: sets these per instance).
    retry_policy: RetryPolicy = RetryPolicy(max_attempts=1)
    timeout_seconds: float | None = None
    fallback: bool = False
    validate_results: bool = False
    index_transform: Callable[[PreparedIndex], PreparedIndex] | None = None

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
        stats = JoinStats(algorithm=f"{self.name}-{self.algorithm}")
        r_chunks = self._partition(r, stats)

        # ``pristine`` is the known-good copy only the fallback probes;
        # every attempt, the parent's own slot included, probes the
        # (possibly fault-wrapped) ``index``.
        try:
            pristine = self.prepare(s, probe_hint=r)
        except BudgetExceededError as breach:
            return self._degrade(r, s, breach, stats)
        index = pristine
        if self.index_transform is not None:
            index = self.index_transform(pristine)
        stats.build_seconds = pristine.build_seconds
        stats.signature_bits = pristine.signature_bits
        stats.index_nodes = pristine.index_nodes
        stats.extras["index_builds"] = 1

        s_ids: frozenset[int] = frozenset()
        if self.validate_results:
            s_ids = frozenset(rec.rid for rec in pristine.relation)
        tasks = [Task(i, i, chunk, s_ids) for i, chunk in enumerate(r_chunks)]
        return _ChunkSupervisor(self, tasks, index, pristine).run(stats)

    def _degrade(
        self, r: Relation, s: Relation, breach: BudgetExceededError, stats: JoinStats
    ) -> JoinResult:
        """Fail fast: a build over the memory budget fails the join."""
        raise breach


class _ChunkSupervisor(Supervisor):
    """The supervisor over R-chunks probing one shared index."""

    noun = "chunk"
    verb = "probing"
    sources = "the probed chunk / indexed relation"

    def __init__(
        self,
        executor: ParallelJoin,
        tasks: list[Task],
        index: PreparedIndex,
        pristine: PreparedIndex,
    ) -> None:
        super().__init__(executor, tasks)
        self.index = index
        self.pristine = pristine

    def work(self, task: Task) -> Work:
        return partial(_probe, self.index, task.probes)

    def last_resort(self, task: Task) -> Outcome:
        """Probe the chunk in the parent, on the pristine index.

        The fallback deliberately bypasses ``index_transform``: whatever
        wrapper was shipped to the workers, the parent's untouched copy is
        the ground truth of last resort.
        """
        return _probe(self.pristine, task.probes)

    def record(self, task: Task, task_stats: JoinStats) -> None:
        record_chunk_span(current_tracer(), task_stats)


def parallel_join(
    r: Relation,
    s: Relation,
    algorithm: str = "ptsj",
    workers: int = 2,
    **algorithm_kwargs,
) -> JoinResult:
    """One-shot helper around :class:`ParallelJoin`."""
    return ParallelJoin(algorithm=algorithm, workers=workers, **algorithm_kwargs).join(r, s)
