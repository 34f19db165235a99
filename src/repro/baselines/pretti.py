"""PRETTI — PREfix Tree based seT joIn (Jampani & Pudi; paper Sec. II-B).

The state-of-the-art IR baseline.  PRETTI builds a prefix tree over the
sorted sets of ``S`` and an inverted index over ``R``, then performs one
depth-first traversal of the trie: at every node the running candidate
list (R-tuples containing all elements on the path so far) is intersected
with the inverted list of the node's element; tuples resident at the node
are joined with the whole list (Algorithm 3).  No verification step is
needed — the candidate list is exact by construction — and results
computed high in the trie are *reused* by all descendants.

Only the prefix tree depends on ``S``: :meth:`PRETTI._prepare` builds it
once into a :class:`PrettiPreparedIndex`, and the inverted file — pure
probe-side state — is rebuilt per probe batch inside ``probe_many``.
Single-record probes skip the inverted file entirely and walk the trie
with plain set-membership tests, streaming matches as nodes are reached.

Weaknesses the paper targets with PRETTI+ (Sec. II-B): the one-element-
per-node trie explodes in memory for high set cardinality, and the trie
height equals the set cardinality, so traversal cost grows with ``c``.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.base import JoinStats, PairColumns, PreparedIndex, SetContainmentJoin, id_column
from repro.governance.policy import governor
from repro.index.inverted import InvertedIndex
from repro.obs.tracer import current_tracer
from repro.relations.relation import Relation, SetRecord
from repro.tries.set_trie import SetTrie

__all__ = ["PRETTI", "PrettiPreparedIndex"]


class PrettiPreparedIndex(PreparedIndex):
    """A prepared PRETTI prefix tree over ``S``.

    Batch probes (:meth:`probe_many`) run the paper's Algorithm 3: build
    an inverted file over the probe relation, then one DFS with a running
    candidate list.  Single-record probes walk the trie directly, pruning
    subtrees whose element is absent from the probe set.
    """

    def __init__(self, trie: SetTrie, relation: Relation) -> None:
        super().__init__("pretti", relation)
        self.trie = trie

    def probe(self, record: SetRecord, stats: JoinStats | None = None) -> Iterator[int]:
        """Stream s-ids whose set is contained in ``record``'s set.

        A subtree is entered only when its element occurs in the probe set,
        so the walk touches exactly the trie paths spelled by subsets of
        the probe — no candidate lists, no intersections.
        """
        stats = self._target(stats)
        elements = record.elements
        gov = governor("probe", stats)
        stack = [self.trie.root]
        while stack:
            if gov is not None:
                gov.tick()
            node = stack.pop()
            stats.node_visits += 1
            if node.tuples:
                yield from node.tuples
            for child in node.children.values():
                if child.label in elements:
                    stack.append(child)

    def _probe_all(self, r: Relation, stats: JoinStats) -> PairColumns:
        """One DFS over the trie (the paper's PRETTIJOIN, made iterative).

        Branches whose candidate list empties are pruned: no descendant can
        produce output because descendants only ever *shrink* the list.

        Under an active tracer the two probe-side phases — building the
        inverted file over ``R`` (``invert``) and the trie walk itself
        (``traverse``) — are reported as child spans of ``probe``.
        """
        tracer = current_tracer()
        with tracer.span("invert"):
            index = InvertedIndex(r)
            if tracer.enabled:
                tracer.count("inverted_records", len(index.all_ids))
        col = id_column(r, self.relation)
        r_col, s_col = col(), col()
        intersections_before = index.intersection_count
        visits = 0
        with tracer.span("traverse"):
            gov = governor("probe", stats)
            stack: list[tuple] = [(self.trie.root, index.all_ids)]
            while stack:
                if gov is not None:
                    gov.tick()
                node, current = stack.pop()
                visits += 1
                if node.tuples:
                    block = col(current)
                    k = len(block)
                    for s_id in node.tuples:
                        r_col += block
                        s_col += col((s_id,)) * k
                for child in node.children.values():
                    child_list = index.refine(current, child.label)
                    if child_list:
                        stack.append((child, child_list))
            if tracer.enabled:
                tracer.count("node_visits", visits)
                tracer.count(
                    "intersections", index.intersection_count - intersections_before
                )
        stats.node_visits += visits
        stats.intersections += index.intersection_count - intersections_before
        return PairColumns(r_col, s_col)

    def memory_objects(self, probe_relation: Relation | None = None) -> list[Any]:
        objs: list[Any] = [self.trie]
        if probe_relation is not None:
            objs.append(InvertedIndex(probe_relation))
        return objs


class PRETTI(SetContainmentJoin):
    """Prefix-tree set-containment join (Algorithm 3).

    Example:
        >>> from repro.relations import Relation
        >>> profiles = Relation.from_sets([{1, 3, 5, 6}, {0, 2, 7}, {0, 2, 3}])
        >>> prefs = Relation.from_sets([{1, 3}, {1, 5, 6}, {0, 2, 7}])
        >>> sorted(PRETTI().join(profiles, prefs).pairs)
        [(0, 0), (0, 1), (1, 2)]
    """

    name = "pretti"

    def __init__(self) -> None:
        self.trie: SetTrie | None = None

    def _prepare(self, s: Relation, probe_hint: Relation | None = None) -> PrettiPreparedIndex:
        trie = SetTrie()
        build_stats = JoinStats(algorithm=self.name)
        gov = governor("build", build_stats)
        for rec in s:
            if gov is not None:
                gov.tick()
            trie.insert(rec.sorted_elements(), rec.rid)
        self.trie = trie
        index = PrettiPreparedIndex(trie, s)
        index.index_nodes = trie.node_count()
        index.build_extras = dict(build_stats.extras)
        return index
