"""Element-space set index: PRETTI+'s trie as a reusable query structure.

The paper's Sec. III-E reuse argument is made for PTSJ's signature trie,
but the same economics apply on the IR side: the element-space Patricia
trie PRETTI+ builds (Algorithm 8) can serve single-shot subset / superset
/ equality queries directly — and, per the paper's regime analysis, it is
the better engine when set cardinalities are small.

:class:`SetTrieIndex` packages that: build once over a relation, probe
many times.  It is the element-space sibling of
:class:`~repro.extensions.set_index.PatriciaSetIndex`; the ablation
benchmark ``benchmarks/test_ablation_index_choice.py`` measures which
sibling wins per cardinality regime, mirroring the paper's join-level
crossover at query level.

Unlike the signature index, results are exact with *no verification
step*: the trie stores the actual element runs.
"""

from __future__ import annotations

from repro.core.pretti_plus import build_set_patricia
from repro.relations.relation import Relation

__all__ = ["SetTrieIndex"]


class SetTrieIndex:
    """Patricia set-trie index over one relation (element space).

    Args:
        relation: The relation to index.

    All probes return tuple-id lists (order unspecified).
    """

    def __init__(self, relation: Relation) -> None:
        self.trie, _ = build_set_patricia(relation)
        self._sets: dict[int, frozenset[int]] = {rec.rid: rec.elements for rec in relation}

    def __len__(self) -> int:
        return len(self.trie)

    # ------------------------------------------------------------------
    # Probes (exact — element-space tries need no verification)
    # ------------------------------------------------------------------
    def subsets_of(self, query: frozenset[int]) -> list[int]:
        """Ids whose set is contained in ``query``."""
        return self.trie.subsets_of(query)

    def supersets_of(self, query: frozenset[int]) -> list[int]:
        """Ids whose set contains ``query``."""
        return self.trie.supersets_of(query)

    def equal_to(self, query: frozenset[int]) -> list[int]:
        """Ids whose set equals ``query`` (walk along the sorted run)."""
        elements = tuple(sorted(query))
        node = self.trie.root
        consumed = 0
        while True:
            prefix = node.prefix
            if tuple(elements[consumed:consumed + len(prefix)]) != prefix:
                return []
            consumed += len(prefix)
            if consumed == len(elements):
                return list(node.tuples)
            child = node.children.get(elements[consumed])
            if child is None:
                return []
            node = child

    # ------------------------------------------------------------------
    # Dynamic maintenance
    # ------------------------------------------------------------------
    def add(self, rid: int, elements: frozenset[int]) -> None:
        """Index one more tuple."""
        self.trie.insert(tuple(sorted(elements)), rid)
        self._sets[rid] = elements

    def discard(self, rid: int) -> bool:
        """Remove one tuple by id; returns ``True`` if it was indexed."""
        elements = self._sets.pop(rid, None)
        if elements is None:
            return False
        return self.trie.remove(tuple(sorted(elements)), rid)
