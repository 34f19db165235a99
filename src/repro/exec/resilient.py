"""Fault-tolerant partition-parallel join: retry, timeout, fallback.

:class:`~repro.exec.parallel.ParallelJoin` is fail-fast: one crashed,
hung or lying worker aborts the whole join.  Because the prepared-index
split makes chunks independent (``R ⋈⊇ S = ⋃_i (R_i ⋈⊇ S)``), every
chunk can instead be retried, timed out and — as a last resort — probed
in-process against the parent's own copy of the index, so a join
*degrades* instead of failing.  :class:`ResilientParallelJoin` is the same
join with the recovery ladder of :class:`repro.exec.supervisor.Supervisor`
switched on; it adds only configuration, the ``index_transform`` seam
(the fallback probes the *pristine* index, never the wrapped one) and
:meth:`ResilientParallelJoin._degrade`, which re-plans a build that
breaches the memory budget onto a partitioned executor.

``stats.extras`` always carries ``retries``, ``timeouts``,
``fallback_chunks``, ``pool_restarts`` and ``corrupt_chunks`` (all zero
on a clean run).  See ``docs/ROBUSTNESS.md`` and
:mod:`repro.testing.faults`, the fault-injection harness that exercises
every path.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable

from repro.core.base import JoinResult, JoinStats, PreparedIndex
from repro.core.options import validate_timeout_seconds
from repro.errors import BudgetExceededError
from repro.exec.parallel import ParallelJoin
from repro.exec.supervisor import RetryPolicy, recovery_extras
from repro.governance.policy import current_policy, govern
from repro.obs.tracer import current_tracer
from repro.relations.relation import Relation

__all__ = ["RetryPolicy", "ResilientParallelJoin", "resilient_parallel_join"]

#: Stats extras every resilient join reports (zero on a clean run).
RESILIENCE_EXTRAS = recovery_extras("chunk")


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
        start_method: Multiprocessing start method for the children.
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
            that every attempt probes, the parent's own slot included —
            the seam the :mod:`repro.testing.faults` harness uses to
            inject failures.  The fallback probes the untouched index.
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


def resilient_parallel_join(
    r: Relation,
    s: Relation,
    algorithm: str = "ptsj",
    workers: int = 2,
    **kwargs,
) -> JoinResult:
    """One-shot helper around :class:`ResilientParallelJoin`."""
    return ResilientParallelJoin(algorithm=algorithm, workers=workers, **kwargs).join(r, s)
