"""Shard-partitioned scale-out join: partition the *index*, not the probes.

Every other parallel path in this package shares one prepared index and
splits the probe side.  That caps the joinable ``S`` at what one process
can hold — exactly the wall the paper's Sec. VI names when "relation size
goes beyond millions of tuples".  :class:`ShardedJoin` crosses it by
partitioning ``S`` into disjoint shards, building one *small* index per
shard inside its worker, and routing each probe record only to the shards
that could possibly contain its subsets.  Partitioning the indexed side
follows the distribution strategies surveyed in "Set Containment Join
Revisited" (Bouros et al.).

Two partition strategies:

* ``"element"`` — shard ``s`` by ``min(s.elements) % shards``.  Routing
  exploits containment: ``s ⊆ r`` implies ``min(s) ∈ r``, so probing the
  shards ``{e % shards for e in r.elements}`` reaches every subset of
  ``r``.  Probes fan out only as far as their distinct element residues —
  the *small side* (the probe record) is replicated, never the index.
  Empty sets are a special case: ``∅ ⊆ r`` for every ``r``, so empty
  ``s`` live in shard 0 and every probe also routes there while ``S``
  contains an empty set.
* ``"signature"`` — shard ``s`` by a stable hash of its elements
  (uniform placement, immune to element skew) at the price of
  *broadcasting* every probe to all shards.

Each shard is one worker task carrying everything it needs (algorithm
name, its S-partition, its routed probes), so shards survive pool
restarts without initializer state.  The tasks run under the recovery
ladder of :class:`repro.exec.supervisor.Supervisor`, the one the
resilient executor uses for chunks, which here covers **shard loss**: a
crashed or dying shard worker is retried with deterministic backoff, a
hung shard is timed out and abandoned, and a shard whose retries are
exhausted is rebuilt and probed in the parent process (the fallback of
last resort — the parent rebuilds the shard index *without* any fault
transform).  Degradation is observable via ``stats.extras``:
``retries``, ``timeouts``, ``fallback_shards``, ``pool_restarts`` and
``corrupt_shards`` are always present and zero on a clean run.

Determinism: shard membership and probe routing are pure functions of
record elements, results are merged in shard-id order with
:func:`repro.exec.merge.merge_stats`, and pair lists concatenate in
shard-id order — so pairs-sorted output and merged counters are
bit-for-bit reproducible across runs, worker counts and start methods.
With ``shards=1`` the single shard holds all of ``S`` and receives every
probe in order, so merged counters equal the inline oracle's exactly.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, ClassVar

from repro.core.base import JoinResult, JoinStats, PreparedIndex
from repro.core.options import (
    validate_shard_strategy,
    validate_shards,
    validate_start_method,
    validate_timeout_seconds,
    validate_workers,
)
from repro.exec.protocol import BaseExecutor
from repro.exec.supervisor import (
    Outcome,
    RetryPolicy,
    Supervisor,
    Task,
    recovery_extras,
    worker_policy,
)
from repro.governance.policy import GovernancePolicy, governor, set_policy
from repro.obs.tracer import current_tracer
from repro.relations.relation import Relation, SetRecord

__all__ = ["ShardedJoin", "sharded_join", "SHARD_EXTRAS"]

#: Stats extras every sharded join reports (zero on a clean run).
SHARD_EXTRAS = recovery_extras("shard")

#: What one shard task ships to its worker: shard id, algorithm name and
#: kwargs, S-partition, routed probes, fault transform, governance policy.
ShardPayload = tuple[
    int,
    str,
    dict[str, Any],
    Relation,
    Relation,
    Callable[[PreparedIndex], PreparedIndex] | None,
    GovernancePolicy | None,
]

#: Multiplier for the stable signature hash (same prime CPython's tuple
#: hash historically used; any odd multiplier works).
_HASH_MULTIPLIER = 1000003
_HASH_MASK = (1 << 61) - 1


def stable_signature_hash(elements: frozenset[int]) -> int:
    """Order-independent, process-independent hash of an element set.

    Python's ``hash(frozenset)`` is stable for ints today, but that is an
    implementation detail; shard placement must never depend on one.
    Folding the *sorted* elements keeps the value identical in every
    interpreter and start method.
    """
    h = len(elements) & _HASH_MASK
    for e in sorted(elements):
        h = (h * _HASH_MULTIPLIER + e + 1) & _HASH_MASK
    return h


def shard_of(record: SetRecord, shards: int, strategy: str) -> int:
    """The single shard a ``S``-record lives in (pure, deterministic)."""
    if shards == 1:
        return 0
    if strategy == "signature":
        return stable_signature_hash(record.elements) % shards
    if not record.elements:
        return 0
    return min(record.elements) % shards


def route_probe(
    record: SetRecord, shards: int, strategy: str, s_has_empty: bool
) -> list[int]:
    """Every shard a probe record must visit, ascending (pure, deterministic).

    Element routing is complete because ``s ⊆ r ∧ s ≠ ∅`` implies
    ``min(s) ∈ r``, hence ``min(s) % shards`` is among ``r``'s element
    residues; empty ``s`` (⊆ everything) live in shard 0, which is added
    whenever ``S`` contains one.  Signature placement has no such
    locality, so signature probes broadcast.
    """
    if shards == 1:
        return [0]
    if strategy == "signature":
        return list(range(shards))
    targets = {e % shards for e in record.elements}
    if s_has_empty or not record.elements:
        targets.add(0)
    return sorted(targets)


def _join_shard(payload: ShardPayload) -> Outcome:
    """Worker entry point (module-level so it pickles): build *and* probe.

    Unlike the chunk executors, each shard task is self-contained — it
    carries its S-partition and routed probes, builds the shard index
    locally, applies the (picklable) fault transform if any, and probes.
    The returned stats include the shard's build time, nodes and
    signature bits, so the parent's merge accounts for every build.

    The payload's last slot is the parent's governance policy (or None):
    the deadline is an absolute monotonic instant and the cancel token
    can be flag-file backed, so the worker's build/probe loops poll the
    *parent's* bounds.  An in-process call passes None and inherits the
    caller's ambient policy instead of clobbering it.
    """
    shard_id, algorithm, algorithm_kwargs, s_part, probes, transform, policy = payload
    from repro.core.registry import make_algorithm

    previous = set_policy(policy) if policy is not None else None
    try:
        index = make_algorithm(algorithm, **algorithm_kwargs).prepare(
            s_part, probe_hint=probes
        )
        if transform is not None:
            index = transform(index)
        result = index.probe_many(probes)
    finally:
        if policy is not None:
            set_policy(previous)
    stats = result.stats
    stats.build_seconds += index.build_seconds
    stats.index_nodes = max(stats.index_nodes, index.index_nodes)
    stats.signature_bits = max(stats.signature_bits, index.signature_bits)
    return result.pairs, stats


def record_shard_span(tracer, shard_id: int, shard_stats: JoinStats) -> None:
    """Fold one worker-measured shard run into the parent's span tree.

    Mirrors :func:`repro.exec.parallel.record_chunk_span`: the shard's
    build+probe wall time was measured in the worker and comes home in
    its :class:`JoinStats`; recording it keeps the ``shard`` span's total
    equal to the summed per-shard time the merged stats report.
    """
    if not tracer.enabled:
        return
    tracer.record(
        "shard",
        shard_stats.build_seconds + shard_stats.probe_seconds,
        {
            "shards": 1,
            "pairs": shard_stats.pairs,
            "candidates": shard_stats.candidates,
            "verifications": shard_stats.verifications,
            "node_visits": shard_stats.node_visits,
            "intersections": shard_stats.intersections,
        },
    )
    tracer.observe("shard_seconds", shard_stats.build_seconds + shard_stats.probe_seconds)


class ShardedJoin(BaseExecutor):
    """Scale-out set-containment join over S-index shards.

    Args:
        algorithm: Registry name of the in-memory algorithm built per
            shard.
        workers: Worker process count (>= 1).  ``workers=1`` runs the
            shard tasks in-process (retry and fallback still apply;
            ``timeout_seconds`` does not — in-process probes cannot be
            pre-empted).
        shards: Number of S-partitions; defaults to ``workers``.
        strategy: ``"element"`` (routed probes, default) or
            ``"signature"`` (uniform placement, broadcast probes).
        start_method: Multiprocessing start method for the pool.
        retry_policy: Retry schedule per shard (default: 3 attempts, no
            backoff) — the same ladder the resilient executor uses for
            chunks.
        timeout_seconds: Per-shard wall-clock budget; an over-budget shard
            is abandoned and rebuilt in the parent.  ``None`` disables.
        fallback: When True (default), a shard whose retries are
            exhausted is rebuilt and probed in the parent instead of
            raising :class:`~repro.errors.RetryExhaustedError`.
        validate_results: When True (default), shard results are checked
            for alien tuple ids; corrupt shards are retried.
        index_transform: Optional *picklable* hook applied to each shard
            index inside its worker — the seam
            :class:`repro.testing.faults.IndexFault` uses to inject shard
            loss.  (Unlike the resilient executor's transform, this one
            crosses a process boundary, so lambdas won't do.)
        **algorithm_kwargs: Forwarded to the per-shard algorithm factory.

    Raises:
        AlgorithmError: On invalid configuration.
        RetryExhaustedError: When a shard fails every attempt and
            ``fallback`` is disabled.
        JoinTimeoutError: When a shard exceeds ``timeout_seconds`` and
            ``fallback`` is disabled.
    """

    name: ClassVar[str] = "sharded"

    def __init__(
        self,
        algorithm: str = "ptsj",
        workers: int = 2,
        shards: int | None = None,
        strategy: str = "element",
        start_method: str | None = None,
        retry_policy: RetryPolicy | None = None,
        timeout_seconds: float | None = None,
        fallback: bool = True,
        validate_results: bool = True,
        index_transform: Callable[[PreparedIndex], PreparedIndex] | None = None,
        **algorithm_kwargs,
    ) -> None:
        validate_workers(workers)
        validate_shards(shards)
        validate_shard_strategy(strategy)
        validate_start_method(start_method)
        validate_timeout_seconds(timeout_seconds)
        super().__init__(algorithm=algorithm, **algorithm_kwargs)
        self.workers = workers
        self.shards = shards or workers
        self.strategy = strategy
        self.start_method = start_method
        self.retry_policy = retry_policy or RetryPolicy()
        self.timeout_seconds = timeout_seconds
        self.fallback = fallback
        self.validate_results = validate_results
        self.index_transform = index_transform

    def _describe_options(self) -> dict[str, Any]:
        return {
            "workers": self.workers,
            "shards": self.shards,
            "strategy": self.strategy,
            "start_method": self.start_method,
            "max_attempts": self.retry_policy.max_attempts,
            "timeout_seconds": self.timeout_seconds,
            "fallback": self.fallback,
            "validate_results": self.validate_results,
        }

    # ------------------------------------------------------------------
    # Partitioning and routing
    # ------------------------------------------------------------------
    def _partition_s(self, s: Relation) -> list[list[SetRecord]]:
        """Distribute ``S`` into shards, preserving record order within each."""
        parts: list[list[SetRecord]] = [[] for _ in range(self.shards)]
        gov = governor("build")
        for rec in s:
            if gov is not None:
                gov.tick()
            parts[shard_of(rec, self.shards, self.strategy)].append(rec)
        return parts

    def _route_r(self, r: Relation, s_has_empty: bool) -> list[list[SetRecord]]:
        """Replicate each probe record to its target shards, in R order."""
        routed: list[list[SetRecord]] = [[] for _ in range(self.shards)]
        gov = governor("probe")
        for rec in r:
            if gov is not None:
                gov.tick()
            for shard_id in route_probe(rec, self.shards, self.strategy, s_has_empty):
                routed[shard_id].append(rec)
        return routed

    def _supervisor(self, r: Relation, s: Relation, stats: JoinStats) -> _ShardSupervisor:
        """One task per populated shard, in shard-id order; record the routing extras."""
        s_parts = self._partition_s(s)
        s_has_empty = any(not rec.elements for rec in s)
        routed = self._route_r(r, s_has_empty)
        populated = [shard_id for shard_id in range(self.shards) if s_parts[shard_id]]
        tasks = [
            Task(
                position,
                shard_id,
                Relation(tuple(routed[shard_id]), name=f"R#{shard_id}"),
                frozenset(rec.rid for rec in s_parts[shard_id]),
            )
            for position, shard_id in enumerate(populated)
        ]
        parts = [Relation(tuple(s_parts[shard_id]), name=f"S#{shard_id}") for shard_id in populated]
        stats.extras["workers"] = self.workers
        stats.extras["shards"] = self.shards
        stats.extras["index_builds"] = len(tasks)
        stats.extras["routed_probes"] = sum(len(task.probes) for task in tasks)
        return _ShardSupervisor(self, tasks, parts)

    # ------------------------------------------------------------------
    # Join driver
    # ------------------------------------------------------------------
    def join(self, r: Relation, s: Relation) -> JoinResult:
        """Compute ``R ⋈⊇ S`` across shards with retry/timeout/fallback.

        Outcomes merge in shard-id order: tasks are ascending and the
        supervisor writes results back by position, so the fold (and the
        concatenated pair list) is deterministic regardless of
        completion order.
        """
        stats = JoinStats(algorithm=f"sharded-{self.algorithm}")
        return self._supervisor(r, s, stats).run(stats)


class _ShardSupervisor(Supervisor):
    """The recovery ladder over self-contained shard build+probe tasks."""

    noun = "shard"
    verb = "joining"
    sources = "the routed probes / shard partition"

    def __init__(self, executor: ShardedJoin, tasks: list[Task], parts: list[Relation]) -> None:
        super().__init__(executor, tasks)
        self.executor = executor
        #: Each task's S-partition, by task position.
        self.parts = parts

    def _payload(
        self,
        task: Task,
        transform: Callable[[PreparedIndex], PreparedIndex] | None,
        policy: GovernancePolicy | None,
    ) -> ShardPayload:
        return (
            task.label,
            self.executor.algorithm,
            self.executor.algorithm_kwargs,
            self.parts[task.position],
            task.probes,
            transform,
            policy,
        )

    def new_pool(self) -> ProcessPoolExecutor:
        """A pool with no initializer state: shard payloads carry their own."""
        return ProcessPoolExecutor(
            max_workers=min(self.workers, max(1, self.executor.shards)), mp_context=self.context
        )

    def send(self, pool: ProcessPoolExecutor, task: Task) -> Future[Outcome]:
        payload = self._payload(task, self.executor.index_transform, worker_policy())
        return pool.submit(_join_shard, payload)

    def attempt(self, task: Task) -> Outcome:
        return _join_shard(self._payload(task, self.executor.index_transform, None))

    def last_resort(self, task: Task) -> Outcome:
        """Rebuild and probe one lost shard in the parent process.

        Deliberately bypasses ``index_transform``: whatever fault wrapper
        the workers ran with, the parent rebuilds the shard from its own
        pristine S-partition.  The rebuild's cost lands in the shard's
        returned stats, so the merge still accounts for it.
        """
        return _join_shard(self._payload(task, None, None))

    def record(self, task: Task, task_stats: JoinStats) -> None:
        record_shard_span(current_tracer(), task.label, task_stats)


def sharded_join(
    r: Relation,
    s: Relation,
    algorithm: str = "ptsj",
    workers: int = 2,
    shards: int | None = None,
    **kwargs,
) -> JoinResult:
    """One-shot helper around :class:`ShardedJoin`."""
    return ShardedJoin(algorithm=algorithm, workers=workers, shards=shards, **kwargs).join(r, s)
