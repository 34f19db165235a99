"""Naive nested-loop set-containment join — the correctness oracle.

Compares every ``(r, s)`` pair directly with Python's frozenset ``>=``.
Quadratic and index-free, so it is never competitive, but its output is
trivially correct; every other algorithm's tests compare against it.  Its
"prepared index" is simply the materialised record list of ``S``, which
makes it the simplest illustration of the build-once/probe-many contract.

One cheap, safe refinement is applied: a pair is skipped when
``|s.set| > |r.set|`` (a larger set cannot be contained in a smaller one),
which does not change the output.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.base import JoinStats, PreparedIndex, SetContainmentJoin
from repro.governance.policy import governor
from repro.relations.relation import Relation, SetRecord

__all__ = ["NestedLoopJoin", "NestedLoopPreparedIndex", "nested_loop_join_pairs"]


def nested_loop_join_pairs(r: Relation, s: Relation) -> list[tuple[int, int]]:
    """All ``(r_id, s_id)`` with ``r.set ⊇ s.set``, by exhaustive comparison."""
    pairs: list[tuple[int, int]] = []
    s_records = list(s)
    for r_rec in r:
        r_set = r_rec.elements
        r_card = len(r_set)
        for s_rec in s_records:
            if s_rec.cardinality <= r_card and s_rec.elements <= r_set:
                pairs.append((r_rec.rid, s_rec.rid))
    return pairs


class NestedLoopPreparedIndex(PreparedIndex):
    """The oracle's 'index': the S records themselves, scanned per probe."""

    def __init__(self, records: tuple[SetRecord, ...], relation: Relation) -> None:
        super().__init__("nested-loop", relation)
        self._records = records

    def probe(self, record: SetRecord, stats: JoinStats | None = None) -> Iterator[int]:
        """Stream s-ids via one full scan, verifying every record exactly."""
        stats = self._target(stats)
        r_set = record.elements
        r_card = len(r_set)
        gov = governor("probe", stats)
        for s_rec in self._records:
            if gov is not None:
                gov.tick()
            stats.candidates += 1
            stats.verifications += 1
            if s_rec.cardinality <= r_card and s_rec.elements <= r_set:
                yield s_rec.rid

    def memory_objects(self, probe_relation: Relation | None = None) -> list[Any]:
        return [self._records]


class NestedLoopJoin(SetContainmentJoin):
    """Exhaustive nested-loop join (oracle baseline)."""

    name = "nested-loop"

    def _prepare(self, s: Relation, probe_hint: Relation | None = None) -> NestedLoopPreparedIndex:
        records: list[SetRecord] = []
        append = records.append
        build_stats = JoinStats(algorithm=self.name)
        gov = governor("build", build_stats)
        for rec in s:
            if gov is not None:
                gov.tick()
            append(rec)
        index = NestedLoopPreparedIndex(tuple(records), s)
        index.build_extras = dict(build_stats.extras)
        return index
