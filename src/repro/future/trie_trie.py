"""Trie-trie join (paper Sec. VI future work: "trie-trie join").

The paper's conclusion proposes joining two tries directly instead of
probing one trie once per tuple of the other relation.  This module
implements that idea over binary signature tries: the indexed relation's
trie is prepared once, each batch probe builds a trie over the probe
relation, and a single simultaneous traversal finds every leaf pair
``(r_leaf, s_leaf)`` with ``s.sig ⊑ r.sig``.

The traversal expands node *pairs* level by level:

* query side (R) bit 0  — the S side must also be 0: pair (r.left, s.left);
* query side (R) bit 1  — the S side may be 0 or 1: pairs
  (r.right, s.left) and (r.right, s.right).

Shared prefixes on *both* sides are therefore processed once — the
amortisation the paper anticipates — at the cost of a worst-case
quadratic pair frontier; the ablation benchmark measures where each side
of that trade-off wins.  Single-record probes skip the R-trie and fall
back to an ordinary subset walk of the prepared S-trie.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.base import JoinStats, PreparedIndex, SetContainmentJoin
from repro.core.framework import insert_into_groups
from repro.governance.policy import governor
from repro.obs.tracer import current_tracer
from repro.relations.relation import Relation, SetRecord
from repro.relations.stats import compute_stats
from repro.signatures.hashing import ModuloScheme, SignatureScheme
from repro.signatures.length import SignatureLengthStrategy
from repro.tries.binary_trie import BinaryTrie, BinaryTrieNode

__all__ = ["TrieTrieJoin", "TrieTriePreparedIndex"]


class TrieTriePreparedIndex(PreparedIndex):
    """A prepared binary signature trie over ``S`` for trie-trie joins.

    Batch probes index the probe relation into its own trie and run the
    simultaneous traversal; the R-trie is probe-batch state and is
    discarded afterwards.
    """

    def __init__(self, scheme: SignatureScheme, s_trie: BinaryTrie, relation: Relation) -> None:
        super().__init__("trie-trie", relation)
        self.scheme = scheme
        self.s_trie = s_trie

    def _build_probe_trie(self, r: Relation) -> BinaryTrie:
        r_trie = BinaryTrie(self.scheme.bits)
        signature = self.scheme.signature
        gov = governor("probe")
        for rec in r:
            if gov is not None:
                gov.tick()
            insert_into_groups(r_trie.insert(signature(rec.elements)), rec)
        return r_trie

    def probe(self, record: SetRecord, stats: JoinStats | None = None) -> Iterator[int]:
        """Single-record fallback: a subset walk of the S-trie plus verify."""
        stats = self._target(stats)
        r_set = record.elements
        leaves = self.s_trie.subset_leaves(self.scheme.signature(r_set))
        stats.node_visits += self.s_trie.visits_last_query
        for leaf in leaves:
            for group in leaf.items:  # type: ignore[union-attr]
                stats.candidates += 1
                stats.verifications += 1
                if group.elements <= r_set:
                    yield from group.ids

    def _probe_all(self, r: Relation, stats: JoinStats) -> list[tuple[int, int]]:
        """One simultaneous traversal emits all candidate leaf pairs.

        Under an active tracer the probe-batch R-trie construction
        (``probe_trie_build``) and the simultaneous walk (``traverse``)
        are reported as child spans of ``probe``.
        """
        tracer = current_tracer()
        with tracer.span("probe_trie_build"):
            r_trie = self._build_probe_trie(r)
        stats.index_nodes = r_trie.node_count() + self.s_trie.node_count()
        pairs: list[tuple[int, int]] = []
        visits = 0
        with tracer.span("traverse"):
            gov = governor("probe", stats)
            stack: list[tuple[BinaryTrieNode, BinaryTrieNode]] = [
                (r_trie.root, self.s_trie.root)
            ]
            while stack:
                if gov is not None:
                    gov.tick()
                r_node, s_node = stack.pop()
                visits += 1
                if r_node.items is not None:
                    # Both tries have uniform depth, so s_node is a leaf too.
                    for s_group in s_node.items:  # type: ignore[union-attr]
                        for r_group in r_node.items:
                            stats.candidates += 1
                            stats.verifications += 1
                            if s_group.elements <= r_group.elements:
                                for r_id in r_group.ids:
                                    for s_id in s_group.ids:
                                        pairs.append((r_id, s_id))
                    continue
                r_left, r_right = r_node.left, r_node.right
                s_left, s_right = s_node.left, s_node.right
                if r_left is not None and s_left is not None:
                    stack.append((r_left, s_left))
                if r_right is not None:
                    if s_left is not None:
                        stack.append((r_right, s_left))
                    if s_right is not None:
                        stack.append((r_right, s_right))
            if tracer.enabled:
                tracer.count("pair_visits", visits)
        stats.node_visits += visits
        return pairs

    def memory_objects(self, probe_relation: Relation | None = None) -> list[Any]:
        objs: list[Any] = [self.s_trie]
        if probe_relation is not None:
            objs.append(self._build_probe_trie(probe_relation))
        return objs


class TrieTrieJoin(SetContainmentJoin):
    """Set-containment join by simultaneous traversal of two binary tries.

    Args:
        bits: Signature length; ``None`` applies the Sec. III-D strategy
            (with a lower default ratio — deep tries cost more here, and
            the pair frontier grows with width).
        scheme_factory: Signature hash scheme.
    """

    name = "trie-trie"

    def __init__(
        self,
        bits: int | None = None,
        scheme_factory: type[SignatureScheme] = ModuloScheme,
    ) -> None:
        self.requested_bits = bits
        self.scheme_factory = scheme_factory
        self.scheme: SignatureScheme | None = None
        self.s_trie: BinaryTrie | None = None

    def _choose_bits(self, r: Relation | None, s: Relation) -> int:
        if self.requested_bits is not None:
            return self.requested_bits
        # Quarter of PTSJ's default ratio: the pair frontier punishes depth.
        return SignatureLengthStrategy(ratio=0.125).choose_for_stats(
            compute_stats(s), None if r is None else compute_stats(r)
        )

    def _prepare(self, s: Relation, probe_hint: Relation | None = None) -> TrieTriePreparedIndex:
        bits = self._choose_bits(probe_hint, s)
        self.scheme = self.scheme_factory(bits)
        signature = self.scheme.signature
        s_trie = BinaryTrie(bits)
        gov = governor("build")
        for rec in s:
            if gov is not None:
                gov.tick()
            insert_into_groups(s_trie.insert(signature(rec.elements)), rec)
        self.s_trie = s_trie
        index = TrieTriePreparedIndex(self.scheme, s_trie, s)
        index.signature_bits = bits
        index.index_nodes = s_trie.node_count()
        return index
