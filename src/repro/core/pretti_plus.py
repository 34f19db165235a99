"""PRETTI+ — PRETTI over an element-space Patricia trie (paper Sec. IV).

The paper's second contribution.  PRETTI+ keeps PRETTI's architecture —
trie on ``S``, inverted index on ``R``, one traversal with a running
candidate list — but stores the trie as a Patricia trie
(:class:`~repro.tries.set_patricia.SetPatriciaTrie`, built with the paper's
Algorithm 8), whose nodes hold *runs* of elements.  Two effects:

* **memory**: single-child chains collapse, so memory stops exploding with
  set cardinality (paper Fig. 6a shows ~10x less than PRETTI);
* **traversal**: one node processes several elements ("lists of tuples from
  the inverted index have to be joined several times in each node"), so far
  fewer nodes are visited.

As with PRETTI, only the trie depends on ``S``; :meth:`PRETTIPlus._prepare`
builds it once into a :class:`PrettiPlusPreparedIndex`, and the inverted
file over the probe relation is probe-batch state.  Like PRETTI, the join
is verification-free: the candidate list is exact.  The paper's verdict
(Sec. IV): "PRETTI+ is always a better choice than PRETTI", and it is the
overall winner for low-cardinality datasets (Figs. 6c–6d, 7c, 8).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.analysis.sanitizer import maybe_check_inverted_index
from repro.core.base import JoinStats, PairColumns, PreparedIndex, SetContainmentJoin, id_column
from repro.governance.policy import Governor, governor
from repro.index.inverted import InvertedIndex, bitset_ranks
from repro.obs.tracer import current_tracer
from repro.relations.relation import Relation, SetRecord
from repro.tries.set_patricia import SetPatriciaTrie

__all__ = [
    "PRETTIPlus",
    "PrettiPlusPreparedIndex",
    "SPARSE_DIVISOR",
    "build_set_patricia",
    "sparse_bound",
]

#: A batch over ``n`` R-tuples carries candidates as a sorted rank list once
#: at most ``n // SPARSE_DIVISOR`` remain, and as a rank bitset above that.
#: Below the bound a word-parallel ``&`` over all ``n`` bits costs more than
#: merging the few survivors.  Chosen by measurement (docs/ALGORITHMS.md).
SPARSE_DIVISOR = 1024


class PrettiPlusPreparedIndex(PreparedIndex):
    """A prepared PRETTI+ Patricia trie over ``S``.

    Batch probes replay PRETTI's traversal adapted to multi-element nodes;
    single-record probes descend a child only when the probe set contains
    the child's whole prefix run, streaming resident tuples on the way.
    """

    def __init__(self, trie: SetPatriciaTrie, relation: Relation) -> None:
        super().__init__("pretti+", relation)
        self.trie = trie

    def probe(self, record: SetRecord, stats: JoinStats | None = None) -> Iterator[int]:
        """Stream s-ids whose set is contained in ``record``'s set."""
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
                if all(element in elements for element in child.prefix):
                    stack.append(child)

    def _probe_all(self, r: Relation, stats: JoinStats) -> PairColumns:
        """PRETTI's traversal adapted to multi-element nodes, set-at-a-time.

        Entering a child costs one inverted-list intersection per element of
        the child's prefix run; the refinement short-circuits (and the
        subtree is pruned without being visited) as soon as the candidates
        empty, because descendants only ever shrink them further.

        Candidates are R *ranks* (positions in the ascending
        ``index.all_ids``), carried in one of two forms per stack entry:

        * dense — an int bitset over ranks.  Against a posting list longer
          than the sparse bound ``len(R) // SPARSE_DIVISOR`` a refinement
          is one word-parallel ``&`` with the element's posting bitset;
          against a shorter one it keeps the posting ranks whose bit is
          set.  A bitset whose popcount falls to the bound or below turns
          into a list.
        * sparse — an ascending rank list, refined with the kernel's
          ``intersect_sorted`` against the element's rank postings.

        Both forms hold the same candidates in the same ascending order, so
        pairs, their order and the ``node_visits``/``intersections``
        counters do not depend on the form.

        A node holding tuples emits into two id columns in blocks: its
        candidates become one column block, appended once per resident
        S id, and each S id is repeated to the block's length.  No pair
        becomes a Python object.

        Under an active tracer the probe-side phases — inverted-file
        construction (``invert``) and the traversal (``traverse``) — are
        reported as child spans of ``probe``, mirroring PRETTI.
        """
        tracer = current_tracer()
        with tracer.span("invert"):
            index = InvertedIndex(r)
            if tracer.enabled:
                tracer.count("inverted_records", len(index.all_ids))
        all_ids = index.all_ids
        ids_are_ranks = index.ids_are_ranks
        rank_lists = index.rank_lists()
        posting_bits = index.posting_bits
        intersect = index.kernel.intersect_sorted
        full = (1 << len(all_ids)) - 1
        sparse = sparse_bound(len(all_ids))
        col = id_column(r, self.relation)
        r_col, s_col = col(), col()
        intersections = 0
        visits = 0
        with tracer.span("traverse"):
            # Stack entries carry the candidates *after* the node's prefix has
            # been applied; the root's prefix is empty so it starts with all
            # of R (every R-tuple contains the empty prefix).
            gov = governor("probe", stats)
            stack: list[tuple[Any, Any]] = [(self.trie.root, full)] if full else []
            while stack:
                if gov is not None:
                    gov.tick()
                node, current = stack.pop()
                visits += 1
                if node.tuples:
                    ranks = bitset_ranks(current) if type(current) is int else current
                    block = col(ranks if ids_are_ranks else [all_ids[p] for p in ranks])
                    k = len(block)
                    for s_id in node.tuples:
                        r_col += block
                        s_col += col((s_id,)) * k
                for child in node.children.values():
                    cands = current
                    for element in child.prefix:
                        intersections += 1
                        postings = rank_lists.get(element)
                        if postings is None:
                            cands = None
                            break
                        if type(cands) is not int:
                            cands = intersect(cands, postings)
                        elif len(postings) > sparse:
                            cands &= posting_bits(element)
                            if cands.bit_count() <= sparse:
                                cands = _peel(cands)
                        elif cands == full:
                            cands = postings
                        else:
                            cands = [p for p in postings if cands >> p & 1]
                        if not cands:
                            break
                    if cands:
                        stack.append((child, cands))
            if tracer.enabled:
                tracer.count("node_visits", visits)
                tracer.count("intersections", intersections)
        maybe_check_inverted_index(index)
        stats.node_visits += visits
        stats.intersections += intersections
        return PairColumns(r_col, s_col)

    def memory_objects(self, probe_relation: Relation | None = None) -> list[Any]:
        objs: list[Any] = [self.trie]
        if probe_relation is not None:
            # The walk may build a bitset for every posting list above the
            # sparse bound; count them all, as Fig. 6a reads this.
            index = InvertedIndex(probe_relation)
            index.build_posting_bits(sparse_bound(len(index.all_ids)))
            objs.append(index)
        return objs


def sparse_bound(n: int) -> int:
    """Most candidates a PRETTI+ stack entry over ``n`` R-tuples carries as
    a sorted rank list rather than a bitset."""
    return n // SPARSE_DIVISOR


def build_set_patricia(
    records: Iterable[SetRecord], gov: Governor | None = None
) -> tuple[SetPatriciaTrie, int]:
    """PRETTI+'s Patricia trie over ``records``, and its node count.

    Records are grouped by set in first-occurrence order (Sec. III-E1's
    merge of identical sets) and each distinct set is inserted once with
    :meth:`SetPatriciaTrie.from_groups`, which gives node for node the
    tree of Algorithm 8's per-record insert loop.  ``gov`` ticks once per
    record.
    """
    groups: dict[frozenset[int], list[int]] = {}
    for rec in records:
        if gov is not None:
            gov.tick()
        ids = groups.get(rec.elements)
        if ids is None:
            groups[rec.elements] = [rec.rid]
        else:
            ids.append(rec.rid)
    return SetPatriciaTrie.from_groups(groups.items())


def _peel(bits: int) -> list[int]:
    """The ascending set-bit positions of a bitset with few bits set."""
    out: list[int] = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


class PRETTIPlus(SetContainmentJoin):
    """Patricia-trie PRETTI (the paper's PRETTI+).

    Example:
        >>> from repro.relations import Relation
        >>> profiles = Relation.from_sets([{1, 3, 5, 6}, {0, 2, 7}, {0, 2, 3}])
        >>> prefs = Relation.from_sets([{1, 3}, {1, 5, 6}, {0, 2, 7}])
        >>> sorted(PRETTIPlus().join(profiles, prefs).pairs)
        [(0, 0), (0, 1), (1, 2)]
    """

    name = "pretti+"

    def __init__(self) -> None:
        self.trie: SetPatriciaTrie | None = None

    def _prepare(self, s: Relation, probe_hint: Relation | None = None) -> PrettiPlusPreparedIndex:
        build_stats = JoinStats(algorithm=self.name)
        trie, nodes = build_set_patricia(s, governor("build", build_stats))
        self.trie = trie
        index = PrettiPlusPreparedIndex(trie, s)
        index.index_nodes = nodes
        index.build_extras = dict(build_stats.extras)
        return index

    def built_trie(self) -> SetPatriciaTrie:
        """The Patricia trie built by the last :meth:`join`/:meth:`prepare`.

        Raises:
            RuntimeError: If no index has been built yet.
        """
        if self.trie is None:
            raise RuntimeError("no index built yet; run join() or prepare() first")
        return self.trie
