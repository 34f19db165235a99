"""Disk-based partitioned nested-loop join (paper Sec. III-E4).

"A straightforward implementation is to perform a nested-loop join over
partitions of the data [...] for each pair of partitions from both
relations, we load them into main memory and perform the join.  In this
case, the algorithm will have a quadratic behavior with respect to the
number of partitions."

:class:`DiskPartitionedJoin` wraps any in-memory algorithm from the
registry; the paper's observation that PTSJ's small memory footprint makes
it the best fit for this strategy is reproduced by
``benchmarks/test_ablation_disk.py``.  The paper also notes PRETTI(+) may
*gain* from partitioning (shallower per-partition tries); the stats
reported here let that be observed as well.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any, ClassVar

from repro.core.base import JoinResult, JoinStats, PairColumns
from repro.core.options import validate_max_tuples
from repro.exec.merge import merge_stats
from repro.exec.protocol import BaseExecutor
from repro.governance.policy import governor
from repro.obs.tracer import current_tracer
from repro.exec.partition import SpilledRelation
from repro.obs.clock import perf_counter
from repro.relations.relation import Relation

__all__ = ["DiskPartitionedJoin", "disk_partitioned_join"]


class DiskPartitionedJoin(BaseExecutor):
    """Block nested-loop join over on-disk partitions.

    Args:
        algorithm: Registry name of the in-memory algorithm used per
            partition pair (default ``"ptsj"``).
        max_tuples: Memory budget, expressed as the largest partition that
            "fits" in memory.
        workdir: Spill directory; a temporary directory is created (and
            removed) when omitted.
        **algorithm_kwargs: Forwarded to the per-pair algorithm factory.

    Raises:
        ExternalMemoryError: On a non-positive ``max_tuples``.
    """

    name: ClassVar[str] = "disk"

    def __init__(
        self,
        algorithm: str = "ptsj",
        max_tuples: int = 4096,
        workdir: str | Path | None = None,
        **algorithm_kwargs,
    ) -> None:
        validate_max_tuples(max_tuples)
        super().__init__(algorithm=algorithm, **algorithm_kwargs)
        self.max_tuples = max_tuples
        self.workdir = workdir

    @classmethod
    def from_plan(cls, plan, workdir: str | Path | None = None) -> "DiskPartitionedJoin":
        """Build this executor from a :class:`~repro.planner.plan.Plan`.

        The plan's ``max_tuples`` executor option (the planner derives it
        from ``Workload.memory_budget_tuples``) sizes the partitions; the
        algorithm kwargs are forwarded verbatim.
        """
        return cls(
            algorithm=plan.algorithm, workdir=workdir, **plan.options(), **plan.kwargs()
        )

    def _describe_options(self) -> dict[str, Any]:
        return {
            "max_tuples": self.max_tuples,
            "workdir": str(self.workdir) if self.workdir is not None else None,
        }

    def join(self, r: Relation, s: Relation) -> JoinResult:
        """Spill, then join every partition pair in memory.

        The returned stats aggregate the per-pair runs; ``extras`` records
        the partition counts, partition loads (I/O operations) and spill
        time so the quadratic I/O behaviour is observable.
        """
        from repro.core.registry import make_algorithm

        stats = JoinStats(algorithm=f"disk-{self.algorithm}")
        own_tmp: tempfile.TemporaryDirectory | None = None
        if self.workdir is None:
            own_tmp = tempfile.TemporaryDirectory(prefix="repro-scj-")
            workdir = Path(own_tmp.name)
        else:
            workdir = Path(self.workdir)
        tracer = current_tracer()
        r_spill: SpilledRelation | None = None
        s_spill: SpilledRelation | None = None
        try:
            with tracer.span("spill"):
                spill_start = perf_counter()
                r_named = r if r.name else Relation(r.records, name="R")
                s_named = s if s.name else Relation(s.records, name="S")
                r_spill = SpilledRelation(r_named, workdir / "r", self.max_tuples)
                s_spill = SpilledRelation(s_named, workdir / "s", self.max_tuples)
                spill_seconds = perf_counter() - spill_start
                if tracer.enabled:
                    tracer.count("spilled_partitions", len(r_spill) + len(s_spill))

            # Each per-pair join opens its own build/probe spans, which
            # merge under the current span — the trace shows the summed
            # build/probe cost exactly as the aggregated stats do, with
            # the quadratic partition-load I/O visible as ``load``.
            # Governance bounds are re-checked between partition pairs, so
            # a cancelled or over-deadline join stops after the pair in
            # flight (each per-pair join also polls internally).
            gov = governor("probe", stats)
            parts: list[PairColumns] = []
            for s_index in range(len(s_spill)):
                with tracer.span("load"):
                    s_part = s_spill.load(s_index)
                for r_index in range(len(r_spill)):
                    if gov is not None:
                        gov.poll()
                    with tracer.span("load"):
                        r_part = r_spill.load(r_index)
                    algo = make_algorithm(self.algorithm, **self.algorithm_kwargs)
                    part_result = algo.join(r_part, s_part)
                    parts.append(part_result.pairs)
                    merge_stats(stats, part_result.stats)
            stats.extras["r_partitions"] = len(r_spill)
            stats.extras["s_partitions"] = len(s_spill)
            stats.extras["partition_loads"] = r_spill.reads + s_spill.reads
            stats.extras["spill_seconds"] = spill_seconds
        finally:
            # Spill files must never outlive the join — an abort between
            # spill and merge (deadline, cancel, per-pair failure) would
            # otherwise leak partitions into a caller-owned workdir.
            if r_spill is not None:
                r_spill.cleanup()
            if s_spill is not None:
                s_spill.cleanup()
            if own_tmp is not None:
                own_tmp.cleanup()
        return JoinResult(PairColumns.concat(parts), stats)


def disk_partitioned_join(
    r: Relation,
    s: Relation,
    algorithm: str = "ptsj",
    max_tuples: int = 4096,
    **algorithm_kwargs,
) -> JoinResult:
    """One-shot helper around :class:`DiskPartitionedJoin`.

    Example:
        >>> from repro.relations import Relation
        >>> r = Relation.from_sets([{1, 2, 3}, {2, 4}])
        >>> s = Relation.from_sets([{2}, {1, 3}])
        >>> sorted(disk_partitioned_join(r, s, max_tuples=1).pairs)
        [(0, 0), (0, 1), (1, 0)]
    """
    return DiskPartitionedJoin(
        algorithm=algorithm, max_tuples=max_tuples, **algorithm_kwargs
    ).join(r, s)
