"""Join executors: every way a set-containment join can run.

One package, one contract.  The :class:`~repro.exec.protocol.Executor`
protocol (``prepare`` / ``join`` / ``from_plan`` / ``describe``) is
implemented by all five executors:

==========  ============================================  =======================
name        class                                         scales by
==========  ============================================  =======================
inline      :class:`~repro.exec.inline.InlineJoin`        nothing (the baseline)
parallel    :class:`~repro.exec.parallel.ParallelJoin`    probe chunks, shared index
resilient   :class:`~repro.exec.resilient.\
ResilientParallelJoin`                                    probe chunks + recovery
disk        :class:`~repro.exec.disk.DiskPartitionedJoin` on-disk partitions
sharded     :class:`~repro.exec.sharded.ShardedJoin`      S-index shards + recovery
==========  ============================================  =======================

:func:`repro.planner.executor.execute_plan` dispatches through
:func:`executor_class` — one registry lookup, no per-class branches.
The resilient and sharded executors share one recovery ladder,
:class:`~repro.exec.supervisor.Supervisor`.  See ``docs/EXECUTORS.md``.
"""

from __future__ import annotations

from repro.errors import PlanError
from repro.exec.protocol import BaseExecutor, Executor
from repro.exec.merge import ADDITIVE_FIELDS, STRUCTURAL_FIELDS, merge_stats
from repro.exec.inline import InlineJoin
from repro.exec.parallel import ParallelJoin, parallel_join, record_chunk_span
from repro.exec.supervisor import RetryPolicy
from repro.exec.resilient import RESILIENCE_EXTRAS, ResilientParallelJoin, resilient_parallel_join
from repro.exec.disk import DiskPartitionedJoin, disk_partitioned_join
from repro.exec.sharded import SHARD_EXTRAS, ShardedJoin, sharded_join

__all__ = [
    "Executor",
    "BaseExecutor",
    "EXECUTOR_CLASSES",
    "executor_class",
    "merge_stats",
    "ADDITIVE_FIELDS",
    "STRUCTURAL_FIELDS",
    "InlineJoin",
    "ParallelJoin",
    "parallel_join",
    "record_chunk_span",
    "ResilientParallelJoin",
    "RetryPolicy",
    "resilient_parallel_join",
    "RESILIENCE_EXTRAS",
    "DiskPartitionedJoin",
    "disk_partitioned_join",
    "ShardedJoin",
    "sharded_join",
    "SHARD_EXTRAS",
]

#: Plan-facing executor name -> implementing class (the dispatch table
#: ``execute_plan`` uses; keys match ``repro.planner.plan.EXECUTORS``).
EXECUTOR_CLASSES: dict[str, type[BaseExecutor]] = {
    cls.name: cls
    for cls in (InlineJoin, ParallelJoin, ResilientParallelJoin, DiskPartitionedJoin, ShardedJoin)
}


def executor_class(name: str) -> type[BaseExecutor]:
    """Resolve a plan-facing executor name to its implementing class.

    Raises:
        PlanError: For a name no executor registers.
    """
    try:
        return EXECUTOR_CLASSES[name]
    except KeyError:
        raise PlanError(
            f"unknown executor {name!r}; available: {sorted(EXECUTOR_CLASSES)}"
        ) from None
