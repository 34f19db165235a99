"""Fault-tolerant partition-parallel join: retry, timeout, fallback.

:class:`~repro.exec.parallel.ParallelJoin` is fail-fast: one crashed,
hung or lying worker aborts the whole join.  Because the prepared-index
split makes chunks independent (``R ⋈⊇ S = ⋃_i (R_i ⋈⊇ S)``), every
chunk can instead be retried, timed out and — as a last resort —
probed in-process against the parent's own copy of the index, so a join
*degrades* instead of failing.  :class:`ResilientParallelJoin` implements
exactly that:

* **Retry** — a failed chunk is resubmitted up to
  :attr:`RetryPolicy.max_attempts` times with deterministic (jitter-free)
  exponential backoff, so tests can assert exact schedules.
* **Timeout** — a chunk that exceeds ``timeout_seconds`` is abandoned
  (its worker may be hung) and completed via the in-process fallback;
  the hung worker is terminated at shutdown rather than awaited.
* **Worker death** — a worker that dies hard (segfault, ``os._exit``)
  breaks the whole :class:`~concurrent.futures.ProcessPoolExecutor`; the
  pool is re-created and every in-flight chunk resubmitted.
* **Corrupt results** — each chunk result is checked against the chunk's
  own tuple ids and the indexed relation's ids; a worker returning alien
  pairs is treated as failed and retried.
* **Fallback** — a chunk whose retries are exhausted is probed
  sequentially in the parent process, which holds a known-good copy of
  the index.  Only if *that* also fails does the join raise.

Degradation is observable: ``stats.extras`` always carries ``retries``,
``timeouts``, ``fallback_chunks``, ``pool_restarts`` and
``corrupt_chunks`` (all zero on a clean run), so callers and dashboards
can alert on silent degradation.  See ``docs/ROBUSTNESS.md`` for the
full semantics and :mod:`repro.testing.faults` for the deterministic
fault-injection harness that exercises every path above.  The same
:class:`RetryPolicy` ladder also guards shard loss in
:class:`repro.exec.sharded.ShardedJoin`.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable

from dataclasses import replace

from repro.core.base import JoinResult, JoinStats, PreparedIndex
from repro.core.options import validate_timeout_seconds
from repro.obs.clock import monotonic
from repro.errors import (
    AlgorithmError,
    BudgetExceededError,
    GovernanceError,
    JoinTimeoutError,
    RetryExhaustedError,
    WorkerError,
)
from repro.exec.merge import merge_stats
from repro.exec.parallel import ParallelJoin, record_chunk_span
from repro.governance.policy import (
    GovernancePolicy,
    current_policy,
    govern,
    governor,
    set_policy,
)
from repro.obs.tracer import current_tracer
from repro.relations.relation import Relation

__all__ = ["RetryPolicy", "ResilientParallelJoin", "resilient_parallel_join"]

#: Stats extras every resilient join reports (zero on a clean run).
RESILIENCE_EXTRAS = ("retries", "timeouts", "fallback_chunks", "pool_restarts", "corrupt_chunks")

#: The prepared index shared with worker processes.  Set once per worker by
#: :func:`_init_worker` (inherited for free when the pool forks; transferred
#: by pickle exactly once per worker under ``spawn``).
_WORKER_INDEX: PreparedIndex | None = None


def _init_worker(index: PreparedIndex, policy: GovernancePolicy | None = None) -> None:
    """Pool initializer: bind the parent's prepared index in this worker.

    The parent's governance policy (deadline/cancel token) travels the
    same way, so worker probe loops poll the *parent's* bounds.
    """
    global _WORKER_INDEX
    _WORKER_INDEX = index
    set_policy(policy)


def _probe_chunk(r_chunk: Relation) -> tuple[list[tuple[int, int]], JoinStats]:
    """Worker entry point (module-level so it pickles): probe, never build."""
    assert _WORKER_INDEX is not None, "worker pool initializer did not run"
    result = _WORKER_INDEX.probe_many(r_chunk)
    return result.pairs, result.stats


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How often and how patiently a failed chunk is retried.

    The schedule is fully deterministic — exponential backoff with *no*
    jitter — so recovery tests can run without flaky timing assertions.
    Production deployments that need jitter can subclass and override
    :meth:`delay`.

    Attributes:
        max_attempts: Total attempts per chunk (first try included), >= 1.
        backoff_seconds: Delay before the first retry; 0 disables sleeping.
        backoff_multiplier: Factor applied per further retry.
        backoff_cap_seconds: Upper bound on any single delay.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.0
    backoff_multiplier: float = 2.0
    backoff_cap_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise AlgorithmError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_seconds < 0 or self.backoff_cap_seconds < 0:
            raise AlgorithmError("backoff delays must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise AlgorithmError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )

    def delay(self, retry: int) -> float:
        """Seconds to wait before retry number ``retry`` (1-based)."""
        if retry < 1 or self.backoff_seconds == 0.0:
            return 0.0
        raw = self.backoff_seconds * self.backoff_multiplier ** (retry - 1)
        return min(raw, self.backoff_cap_seconds)

    def schedule(self) -> list[float]:
        """Every retry delay this policy can produce, in order."""
        return [self.delay(i) for i in range(1, self.max_attempts)]


class _ChunkTask:
    """Book-keeping for one chunk's journey through the executor."""

    __slots__ = ("idx", "chunk", "attempts", "deadline")

    def __init__(self, idx: int, chunk: Relation) -> None:
        self.idx = idx
        self.chunk = chunk
        self.attempts = 0
        self.deadline: float | None = None


class ResilientParallelJoin(ParallelJoin):
    """Partition-parallel join that survives worker failures.

    Args:
        algorithm: Registry name of the in-memory algorithm whose prepared
            index is shared by all workers.
        workers: Worker process count (>= 1).  ``workers=1`` probes the
            chunks in-process; retry and fallback still apply, but
            ``timeout_seconds`` does not (in-process probes cannot be
            pre-empted).
        chunks: Number of R-chunks; defaults to ``workers``.
        start_method: Multiprocessing start method for the pool.
        retry_policy: Retry schedule per chunk (default: 3 attempts,
            no backoff).
        timeout_seconds: Per-chunk wall-clock budget; an over-budget chunk
            is abandoned and completed via the in-process fallback.
            ``None`` disables timeouts.
        fallback: When True (default), a chunk whose retries are exhausted
            is probed sequentially in the parent instead of raising
            :class:`~repro.errors.RetryExhaustedError`.
        validate_results: When True (default), chunk results are checked
            for alien tuple ids; corrupt results are retried.
        index_transform: Optional hook applied to the prepared index
            before it is shared with workers — the seam the
            :mod:`repro.testing.faults` harness uses to inject failures.
        **algorithm_kwargs: Forwarded to the algorithm factory.

    Raises:
        AlgorithmError: On invalid configuration.
        RetryExhaustedError: When a chunk fails every attempt and
            ``fallback`` is disabled.
        JoinTimeoutError: When a chunk exceeds ``timeout_seconds`` and
            ``fallback`` is disabled.
    """

    name = "resilient"

    def __init__(
        self,
        algorithm: str = "ptsj",
        workers: int = 2,
        chunks: int | None = None,
        start_method: str | None = None,
        retry_policy: RetryPolicy | None = None,
        timeout_seconds: float | None = None,
        fallback: bool = True,
        validate_results: bool = True,
        index_transform: Callable[[PreparedIndex], PreparedIndex] | None = None,
        **algorithm_kwargs,
    ) -> None:
        super().__init__(
            algorithm=algorithm,
            workers=workers,
            chunks=chunks,
            start_method=start_method,
            **algorithm_kwargs,
        )
        validate_timeout_seconds(timeout_seconds)
        self.retry_policy = retry_policy or RetryPolicy()
        self.timeout_seconds = timeout_seconds
        self.fallback = fallback
        self.validate_results = validate_results
        self.index_transform = index_transform

    def _describe_options(self) -> dict[str, Any]:
        options = super()._describe_options()
        options.update(
            {
                "max_attempts": self.retry_policy.max_attempts,
                "timeout_seconds": self.timeout_seconds,
                "fallback": self.fallback,
                "validate_results": self.validate_results,
            }
        )
        return options

    # ------------------------------------------------------------------
    # Join driver
    # ------------------------------------------------------------------
    def join(self, r: Relation, s: Relation) -> JoinResult:
        """Compute ``R ⋈⊇ S`` with per-chunk retry/timeout/fallback."""
        stats = JoinStats(algorithm=f"resilient-{self.algorithm}")
        r_chunks = self._partition(r, stats)

        # ``pristine`` never leaves the parent: it is the known-good copy
        # the in-process fallback probes.  Workers get the (possibly
        # fault-wrapped) ``index``.
        try:
            pristine = self.prepare(s, probe_hint=r)
        except BudgetExceededError as breach:
            # The one governance error the ladder recovers from: a build
            # that cannot fit in memory is re-planned onto a partitioned
            # executor instead of failing the join (docs/ROBUSTNESS.md).
            return self._degrade(r, s, breach, stats)
        index = pristine
        if self.index_transform is not None:
            index = self.index_transform(pristine)
        stats.build_seconds = pristine.build_seconds
        stats.signature_bits = pristine.signature_bits
        stats.index_nodes = pristine.index_nodes
        stats.extras["index_builds"] = 1
        for key in RESILIENCE_EXTRAS:
            stats.extras[key] = 0

        s_ids = frozenset(rec.rid for rec in pristine.relation)
        tasks = [_ChunkTask(i, chunk) for i, chunk in enumerate(r_chunks)]
        if self.workers == 1:
            outcomes = [
                self._run_chunk_inline(task, index, pristine, s_ids, stats) for task in tasks
            ]
        else:
            outcomes = self._run_chunks_pooled(tasks, index, pristine, s_ids, stats)

        pairs: list[tuple[int, int]] = []
        for chunk_pairs, chunk_stats in outcomes:
            pairs.extend(chunk_pairs)
            merge_stats(stats, chunk_stats)
        return JoinResult(pairs, stats)

    # ------------------------------------------------------------------
    # Memory-pressure degradation
    # ------------------------------------------------------------------
    def _degrade(
        self, r: Relation, s: Relation, breach: BudgetExceededError, stats: JoinStats
    ) -> JoinResult:
        """Re-plan a budget-breached build onto a partitioned executor.

        The breach carries partial accounting (bytes used, records
        indexed), which sizes the degraded run: with workers to spare the
        index side is sharded so each shard's build fits the budget;
        single-worker joins degrade to the disk executor with a
        ``max_tuples`` derived the same way.  The degraded run keeps the
        deadline and cancel token but drops the byte budget — its
        partitions were sized *from* the budget, and re-tripping inside a
        shard would turn recovery into a loop.
        """
        per_record = breach.used_bytes / max(breach.records_indexed, 1)
        tracer = current_tracer()
        policy = current_policy()
        with tracer.span("governance"):
            if tracer.enabled:
                tracer.count("budget_breaches")
            if self.workers > 1:
                from repro.exec.sharded import ShardedJoin

                target = "sharded"
                need = (len(s) * per_record) / max(breach.budget_bytes, 1)
                shards = max(self.workers, 2, int(need) + (1 if need > int(need) else 0))
                executor: ParallelJoin | Any = ShardedJoin(
                    algorithm=self.algorithm,
                    workers=self.workers,
                    shards=shards,
                    start_method=self.start_method,
                    retry_policy=self.retry_policy,
                    timeout_seconds=self.timeout_seconds,
                    fallback=self.fallback,
                    validate_results=self.validate_results,
                    **self.algorithm_kwargs,
                )
            else:
                from repro.exec.disk import DiskPartitionedJoin

                target = "disk"
                max_tuples = max(1, int(breach.budget_bytes / max(per_record, 1.0)))
                executor = DiskPartitionedJoin(
                    algorithm=self.algorithm,
                    max_tuples=max_tuples,
                    **self.algorithm_kwargs,
                )
            degraded_policy = (
                replace(policy, memory_budget_bytes=None) if policy is not None else None
            )
            with govern(degraded_policy):
                result = executor.join(r, s)
        merged = result.stats
        merged.extras["degraded_to"] = target
        merged.extras["budget_breach_bytes"] = breach.used_bytes
        merged.extras.setdefault("deadline_polls", 0)
        merged.extras["deadline_polls"] += stats.extras.get("deadline_polls", 0)
        return JoinResult(result.pairs, merged)

    # ------------------------------------------------------------------
    # In-process execution (workers == 1)
    # ------------------------------------------------------------------
    def _run_chunk_inline(
        self,
        task: _ChunkTask,
        index: PreparedIndex,
        pristine: PreparedIndex,
        s_ids: frozenset[int],
        stats: JoinStats,
    ) -> tuple[list[tuple[int, int]], JoinStats]:
        """Probe one chunk in-process, retrying per the policy."""
        last_error: Exception | None = None
        while task.attempts < self.retry_policy.max_attempts:
            task.attempts += 1
            if task.attempts > 1:
                stats.extras["retries"] += 1
                delay = self.retry_policy.delay(task.attempts - 1)
                current_tracer().record("retry", delay, {"retries": 1})
                time.sleep(delay)
            try:
                result = index.probe_many(task.chunk)
                self._check_result(task, result.pairs, s_ids, stats)
                return result.pairs, result.stats
            except GovernanceError:
                # Deadline/cancel/budget bounds are terminal by design:
                # retrying a chunk cannot buy back elapsed wall time.
                raise
            except Exception as exc:  # noqa: BLE001 - any worker fault is retryable
                last_error = exc
        return self._exhausted(task, pristine, stats, last_error)

    # ------------------------------------------------------------------
    # Pooled execution (workers > 1)
    # ------------------------------------------------------------------
    def _make_pool(self, index: PreparedIndex) -> ProcessPoolExecutor:
        """Create the worker pool, every worker bound to ``index``."""
        context = (
            multiprocessing.get_context(self.start_method)
            if self.start_method is not None
            else None
        )
        policy = current_policy()
        if policy is not None:
            policy = policy.worker_policy()
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(index, policy),
        )

    def _run_chunks_pooled(
        self,
        tasks: list[_ChunkTask],
        index: PreparedIndex,
        pristine: PreparedIndex,
        s_ids: frozenset[int],
        stats: JoinStats,
    ) -> list[tuple[list[tuple[int, int]], JoinStats]]:
        """Drive all chunks through a worker pool, recovering failures."""
        results: list[tuple[list[tuple[int, int]], JoinStats] | None] = [None] * len(tasks)
        pool = self._make_pool(index)
        pending: dict[Future, _ChunkTask] = {}
        abandoned = False
        completed = False
        gov = governor("probe", stats)
        try:
            for task in tasks:
                self._submit(pool, task, pending)
            while pending:
                # The parent re-checks the bounds once per scheduling round:
                # even if every worker is wedged (so no chunk ever reports a
                # governance error itself), _wait_round's bounded sleep plus
                # this poll stops the join within one poll interval.
                if gov is not None:
                    gov.poll()
                done = self._wait_round(pending)
                pool_broken = False
                for future in done:
                    task = pending.pop(future)
                    try:
                        chunk_pairs, chunk_stats = future.result()
                        self._check_result(task, chunk_pairs, s_ids, stats)
                        record_chunk_span(current_tracer(), chunk_stats)
                        results[task.idx] = (chunk_pairs, chunk_stats)
                        continue
                    except BrokenProcessPool:
                        pool_broken = True
                        retry_now = False
                    except GovernanceError:
                        # A worker hit the deadline/cancel bound: terminal,
                        # never retried, never completed via fallback.
                        raise
                    except Exception as exc:  # noqa: BLE001 - retryable worker fault
                        last_error = exc
                        retry_now = True
                    if retry_now:
                        if task.attempts < self.retry_policy.max_attempts:
                            stats.extras["retries"] += 1
                            delay = self.retry_policy.delay(task.attempts)
                            current_tracer().record("retry", delay, {"retries": 1})
                            time.sleep(delay)
                            self._submit(pool, task, pending)
                        else:
                            results[task.idx] = self._exhausted(task, pristine, stats, last_error)
                    else:
                        # Pool broke under this chunk: resubmission waits for
                        # the pool restart below.
                        pending[future] = task
                if pool_broken:
                    pool = self._restart_pool(pool, index, pristine, pending, results, stats)
                abandoned |= self._expire_overdue(pending, pristine, stats, results)
            completed = True
        except GovernanceError:
            # Record how many chunks the abort stranded before the finally
            # block force-terminates their workers.  tracer.record survives
            # the raise, so the span tree stays balanced and still shows
            # the abort.
            cancelled = sum(1 for outcome in results if outcome is None)
            stats.extras["cancelled_chunks"] = (
                stats.extras.get("cancelled_chunks", 0) + cancelled
            )
            current_tracer().record("governance", 0.0, {"cancelled_chunks": cancelled})
            raise
        finally:
            # An abnormal exit may leave hung workers behind; terminate
            # them rather than letting shutdown await a process that will
            # never finish.
            self._shutdown_pool(pool, force=abandoned or not completed)
        assert all(outcome is not None for outcome in results)
        return results  # type: ignore[return-value]

    def _submit(
        self, pool: ProcessPoolExecutor, task: _ChunkTask, pending: dict[Future, _ChunkTask]
    ) -> None:
        """Submit one attempt for ``task`` and start its timeout clock."""
        task.attempts += 1
        future = pool.submit(_probe_chunk, task.chunk)
        if self.timeout_seconds is not None:
            task.deadline = monotonic() + self.timeout_seconds
        pending[future] = task

    def _wait_round(self, pending: dict[Future, _ChunkTask]) -> set[Future]:
        """Block until a future completes or the nearest bound passes.

        The wait is additionally capped by the governance policy so the
        blocked parent wakes to poll: at the join deadline's remaining
        time, and at 50ms whenever a cancel token is armed (a token has
        no absolute instant to sleep until).
        """
        wait_timeout: float | None = None
        if self.timeout_seconds is not None:
            nearest = min(task.deadline for task in pending.values() if task.deadline)
            wait_timeout = max(0.0, nearest - monotonic())
        policy = current_policy()
        if policy is not None:
            if policy.cancel is not None:
                wait_timeout = 0.05 if wait_timeout is None else min(wait_timeout, 0.05)
            if policy.deadline is not None:
                remaining = max(0.0, policy.deadline.remaining())
                wait_timeout = (
                    remaining if wait_timeout is None else min(wait_timeout, remaining)
                )
        done, _ = wait(set(pending), timeout=wait_timeout, return_when=FIRST_COMPLETED)
        return done

    def _restart_pool(
        self,
        pool: ProcessPoolExecutor,
        index: PreparedIndex,
        pristine: PreparedIndex,
        pending: dict[Future, _ChunkTask],
        results: list,
        stats: JoinStats,
    ) -> ProcessPoolExecutor:
        """Replace a broken pool and resubmit every in-flight chunk."""
        stats.extras["pool_restarts"] += 1
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("pool_restarts")
        stranded = list(pending.values())
        pending.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        pool = self._make_pool(index)
        for task in stranded:
            if task.attempts < self.retry_policy.max_attempts:
                stats.extras["retries"] += 1
                delay = self.retry_policy.delay(task.attempts)
                tracer.record("retry", delay, {"retries": 1})
                time.sleep(delay)
                self._submit(pool, task, pending)
            else:
                results[task.idx] = self._exhausted(
                    task, pristine, stats,
                    WorkerError(f"worker died while probing chunk {task.idx}"),
                )
        return pool

    def _expire_overdue(
        self,
        pending: dict[Future, _ChunkTask],
        pristine: PreparedIndex,
        stats: JoinStats,
        results: list,
    ) -> bool:
        """Abandon chunks past their deadline; complete them in-process.

        The worker serving an overdue chunk may be hung, and
        :class:`~concurrent.futures.ProcessPoolExecutor` cannot cancel a
        *running* task — so the future is dropped (its eventual result,
        if any, is discarded) and the chunk is probed in the parent.
        Returns True when anything was abandoned, so shutdown knows to
        terminate stragglers instead of awaiting them.
        """
        if self.timeout_seconds is None:
            return False
        now = monotonic()
        overdue = [
            future
            for future, task in pending.items()
            if not future.done() and task.deadline is not None and task.deadline <= now
        ]
        abandoned = False
        for future in overdue:
            task = pending.pop(future)
            if future.cancel():
                # Never started: the pool is saturated, not hung; retry the
                # chunk in-process anyway — its budget is spent.
                pass
            else:
                abandoned = True
            stats.extras["timeouts"] += 1
            current_tracer().record("timeout", 0.0, {"timeouts": 1})
            if not self.fallback:
                raise JoinTimeoutError(
                    f"chunk {task.idx} exceeded its {self.timeout_seconds}s budget "
                    f"on attempt {task.attempts} and fallback is disabled"
                )
            results[task.idx] = self._fallback(task, pristine, stats)
        return abandoned

    # ------------------------------------------------------------------
    # Last resorts
    # ------------------------------------------------------------------
    def _exhausted(
        self,
        task: _ChunkTask,
        pristine: PreparedIndex,
        stats: JoinStats,
        last_error: Exception | None,
    ) -> tuple[list[tuple[int, int]], JoinStats]:
        """Retries used up: fall back in-process or raise."""
        if not self.fallback:
            raise RetryExhaustedError(
                f"chunk {task.idx} failed all {task.attempts} attempts: {last_error}",
                attempts=task.attempts,
            ) from last_error
        return self._fallback(task, pristine, stats)

    def _fallback(
        self, task: _ChunkTask, pristine: PreparedIndex, stats: JoinStats
    ) -> tuple[list[tuple[int, int]], JoinStats]:
        """Probe a chunk sequentially in the parent, on the pristine index.

        The fallback deliberately bypasses ``index_transform``: whatever
        wrapper was shipped to the workers, the parent's untouched copy is
        the ground truth of last resort.  The probe itself runs in-process
        under the active tracer (so it opens the ``probe`` span directly);
        a zero-duration ``fallback`` marker span carries the count without
        double-charging the probe time.
        """
        stats.extras["fallback_chunks"] += 1
        current_tracer().record("fallback", 0.0, {"fallback_chunks": 1})
        result = pristine.probe_many(task.chunk)
        return result.pairs, result.stats

    def _check_result(
        self,
        task: _ChunkTask,
        pairs: list[tuple[int, int]],
        s_ids: frozenset[int],
        stats: JoinStats,
    ) -> None:
        """Reject chunk output that references tuples the chunk never probed."""
        if not self.validate_results:
            return
        chunk_ids = frozenset(rec.rid for rec in task.chunk)
        for r_id, s_id in pairs:
            if r_id not in chunk_ids or s_id not in s_ids:
                stats.extras["corrupt_chunks"] += 1
                raise WorkerError(
                    f"chunk {task.idx} returned corrupt pair ({r_id}, {s_id}): "
                    "ids do not belong to the probed chunk / indexed relation"
                )

    @staticmethod
    def _shutdown_pool(pool: ProcessPoolExecutor, force: bool) -> None:
        """Shut the pool down; terminate workers when any were abandoned."""
        if force:
            for proc in list(getattr(pool, "_processes", {}).values()):
                proc.terminate()
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            pool.shutdown(wait=True, cancel_futures=True)


def resilient_parallel_join(
    r: Relation,
    s: Relation,
    algorithm: str = "ptsj",
    workers: int = 2,
    **kwargs,
) -> JoinResult:
    """One-shot helper around :class:`ResilientParallelJoin`."""
    return ResilientParallelJoin(algorithm=algorithm, workers=workers, **kwargs).join(r, s)
