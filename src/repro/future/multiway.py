"""Multi-way signature trie (paper Sec. VI future work: "multi-way trie").

The paper's conclusion singles out "more advanced data structures (such as
multi-way trie)" as the natural next step.  This module explores it: a
trie over signature *nibbles* (4 bits per level, up to 16 children per
node), so the trie is 4x shallower than the binary trie and each level's
subset enumeration walks at most the children whose nibble is a submask of
the query nibble — a constant-bounded local enumeration instead of PTSJ's
two-way branch decisions.

Compared to the Patricia trie it trades path compression for fan-out:
dense levels resolve in one hop, but sparse regions pay for per-node child
dictionaries.  ``benchmarks/test_ablation_multiway.py`` measures the
trade-off against PTSJ.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.base import CandidateGroup, JoinStats
from repro.core.framework import SignatureJoinBase, insert_into_groups
from repro.errors import TrieError
from repro.governance.policy import governor
from repro.relations.relation import Relation
from repro.signatures.bitmap import validate_signature

__all__ = ["MultiwayTrie", "MWTSJ", "NIBBLE_BITS"]

#: Bits consumed per trie level.
NIBBLE_BITS = 4
_FANOUT = 1 << NIBBLE_BITS
_NIBBLE_MASK = _FANOUT - 1

#: Precomputed submasks of every nibble value (at most 16 each).
_SUBMASKS: list[tuple[int, ...]] = []
for _mask in range(_FANOUT):
    _subs = []
    _sub = _mask
    while True:
        _subs.append(_sub)
        if _sub == 0:
            break
        _sub = (_sub - 1) & _mask
    _SUBMASKS.append(tuple(_subs))


class _MultiwayNode:
    """One multi-way trie node: children keyed by nibble value."""

    __slots__ = ("children", "signature", "items")

    def __init__(self) -> None:
        self.children: dict[int, _MultiwayNode] = {}
        self.signature: int | None = None
        self.items: list[Any] | None = None


class MultiwayTrie:
    """A 16-way trie over fixed-width signatures, 4 bits per level.

    Signature widths are rounded up to a multiple of :data:`NIBBLE_BITS`
    internally; the same payload-list contract as the other tries applies.

    Args:
        bits: Signature width.

    Raises:
        TrieError: If ``bits`` is not positive.
    """

    def __init__(self, bits: int) -> None:
        if bits <= 0:
            raise TrieError(f"signature width must be positive, got {bits}")
        self.bits = bits
        self.levels = (bits + NIBBLE_BITS - 1) // NIBBLE_BITS
        self.root = _MultiwayNode()
        self.leaf_count = 0
        self.visits_last_query = 0

    def _nibbles(self, signature: int) -> Iterator[int]:
        """Yield the signature's nibbles, most significant first."""
        padded = signature << (self.levels * NIBBLE_BITS - self.bits)
        for level in range(self.levels - 1, -1, -1):
            yield (padded >> (level * NIBBLE_BITS)) & _NIBBLE_MASK

    def insert(self, signature: int) -> list[Any]:
        """Insert ``signature``; return its (possibly shared) payload list."""
        validate_signature(signature, self.bits)
        node = self.root
        for nibble in self._nibbles(signature):
            child = node.children.get(nibble)
            if child is None:
                child = _MultiwayNode()
                node.children[nibble] = child
            node = child
        if node.items is None:
            node.items = []
            node.signature = signature
            self.leaf_count += 1
        return node.items

    def subset_leaves(self, signature: int) -> list[_MultiwayNode]:
        """Leaves whose signature is ``⊑ signature``.

        Per level, only children stored under a submask of the query's
        nibble can survive; the precomputed submask tables make that a
        bounded dictionary probe per node.
        """
        validate_signature(signature, self.bits)
        frontier = [self.root]
        visits = 1
        for nibble in self._nibbles(signature):
            submasks = _SUBMASKS[nibble]
            next_frontier: list[_MultiwayNode] = []
            for node in frontier:
                children = node.children
                if len(children) <= len(submasks):
                    # Sparse node: scan actual children, test containment.
                    for value, child in children.items():
                        if value & ~nibble == 0:
                            next_frontier.append(child)
                else:
                    for sub in submasks:
                        child = children.get(sub)
                        if child is not None:
                            next_frontier.append(child)
            frontier = next_frontier
            visits += len(frontier)
            if not frontier:
                break
        self.visits_last_query = visits
        return [node for node in frontier if node.items is not None]

    def __len__(self) -> int:
        """Number of distinct signatures stored."""
        return self.leaf_count

    def node_count(self) -> int:
        """Total allocated nodes."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count


class MWTSJ(SignatureJoinBase):
    """Multi-Way Trie Signature Join — the future-work variant of PTSJ.

    Same interface and defaults as :class:`repro.core.ptsj.PTSJ`; only the
    enumeration structure differs.
    """

    name = "mwtsj"

    def __init__(self, bits: int | None = None, merge_identical: bool = True, **kwargs) -> None:
        super().__init__(bits=bits, **kwargs)
        self.merge_identical = merge_identical
        self.trie: MultiwayTrie | None = None

    def _build_index(self, s: Relation, stats: JoinStats) -> None:
        assert self.scheme is not None
        trie = MultiwayTrie(self.scheme.bits)
        signature = self.scheme.signature
        gov = governor("build", stats)
        if self.merge_identical:
            for rec in s:
                if gov is not None:
                    gov.tick()
                insert_into_groups(trie.insert(signature(rec.elements)), rec)
        else:
            for rec in s:
                if gov is not None:
                    gov.tick()
                trie.insert(signature(rec.elements)).append(
                    CandidateGroup(rec.elements, rec.rid)
                )
        self.trie = trie
        stats.index_nodes = trie.node_count()

    def _enumerate_leaves(self, signature: int, stats: JoinStats) -> list[_MultiwayNode]:
        trie = self.trie
        assert trie is not None
        leaves = trie.subset_leaves(signature)
        stats.node_visits += trie.visits_last_query
        return leaves
