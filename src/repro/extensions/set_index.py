"""A reusable Patricia signature index answering multiple query types.

Sec. III-E of the paper emphasises that PTSJ's Patricia trie is a
*general-purpose* index: the same structure built once over a relation can
answer subset (containment join), superset, set-equality and Hamming
set-similarity queries — "systems such as OLAP can benefit greatly by
reusing one index for different purposes".

:class:`PatriciaSetIndex` packages that: it owns the signature scheme, the
trie, and the merged candidate groups, and exposes one probe method per
query type.  The join wrappers in :mod:`repro.extensions` are thin loops
over these probes.  :meth:`PatriciaSetIndex.from_prepared` adopts the trie
of a PTSJ :class:`~repro.core.base.PreparedIndex` *without rebuilding it* —
the literal form of the paper's reuse argument — and
:func:`build_patricia_index` is the shared build path of the one-shot join
wrappers, routed through ``PTSJ.prepare``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.analysis.sanitizer import maybe_check_patricia_trie
from repro.core.base import CandidateGroup
from repro.core.framework import insert_into_groups
from repro.errors import AlgorithmError
from repro.relations.relation import Relation
from repro.tries.patricia import PatriciaTrie

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.framework import SignaturePreparedIndex

__all__ = ["PatriciaSetIndex", "build_patricia_index"]


class PatriciaSetIndex:
    """Patricia-trie signature index over one set-valued relation.

    The index is PTSJ's own: built by ``PTSJ(bits=bits).prepare``, the
    same path as :func:`build_patricia_index`.

    Args:
        relation: The relation to index.
        bits: Signature length; ``None`` applies the Sec. III-D strategy to
            the relation's own statistics.

    Raises:
        AlgorithmError: If the relation is empty and no explicit ``bits``
            is given (no statistics to derive a length from).
    """

    def __init__(self, relation: Relation, bits: int | None = None) -> None:
        prepared = _prepare_ptsj(relation, bits)
        self.scheme = prepared.scheme
        self.trie = prepared.trie
        self.relation = relation
        self._size = len(relation)

    @classmethod
    def from_prepared(cls, prepared: "SignaturePreparedIndex") -> "PatriciaSetIndex":
        """Adopt a PTSJ prepared index's trie — zero-copy index reuse.

        The containment index built by ``PTSJ.prepare`` (or the registry's
        ``prepare_index``) *is* a Patricia signature trie with merged
        groups; this wraps it so the superset/equality/similarity probes of
        Sec. III-E2/E3 run on the very same structure, no rebuild.

        Raises:
            AlgorithmError: If the prepared index does not carry a Patricia
                trie (e.g. it came from SHJ or PRETTI).
        """
        trie = getattr(prepared, "trie", None)
        scheme = getattr(prepared, "scheme", None)
        if not isinstance(trie, PatriciaTrie) or scheme is None:
            raise AlgorithmError(
                f"cannot reuse a {prepared.algorithm!r} index: "
                "only PTSJ prepared indexes expose a Patricia trie"
            )
        index = cls.__new__(cls)
        index.scheme = scheme
        index.trie = trie
        index.relation = prepared.relation
        index._size = len(prepared.relation)
        return index

    @property
    def bits(self) -> int:
        """The signature length in use."""
        return self.scheme.bits

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Dynamic maintenance
    # ------------------------------------------------------------------
    def add(self, rid: int, elements: frozenset[int]) -> None:
        """Index one more tuple (merging into an existing identical set)."""
        from repro.relations.relation import SetRecord

        insert_into_groups(
            self.trie.insert(self.scheme.signature(elements)),
            SetRecord(rid, elements),
        )
        self._size += 1
        maybe_check_patricia_trie(self.trie)

    def discard(self, rid: int, elements: frozenset[int]) -> bool:
        """Remove one tuple; returns ``True`` if it was indexed.

        Emptied groups are dropped and an emptied signature leaf is
        removed from the trie (restoring Patricia compression).
        """
        signature = self.scheme.signature(elements)
        leaf = self.trie.equal_leaf(signature)
        if leaf is None:
            return False
        groups = leaf.items
        assert groups is not None
        for index, group in enumerate(groups):
            if group.elements == elements:
                try:
                    group.ids.remove(rid)
                except ValueError:
                    return False
                if not group.ids:
                    del groups[index]
                if not groups:
                    self.trie.remove(signature)
                self._size -= 1
                maybe_check_patricia_trie(self.trie)
                return True
        return False

    # ------------------------------------------------------------------
    # Probes (each verifies candidates exactly before yielding)
    # ------------------------------------------------------------------
    def subsets_of(self, query: frozenset[int]) -> Iterator[CandidateGroup]:
        """Groups whose set is contained in ``query`` (Algorithm 5 + verify)."""
        sig = self.scheme.signature(query)
        for leaf in self.trie.subset_leaves(sig):
            for group in leaf.items:  # type: ignore[union-attr]
                if group.elements <= query:
                    yield group

    def supersets_of(self, query: frozenset[int]) -> Iterator[CandidateGroup]:
        """Groups whose set contains ``query`` (Algorithm 6 + verify)."""
        sig = self.scheme.signature(query)
        for leaf in self.trie.superset_leaves(sig):
            for group in leaf.items:  # type: ignore[union-attr]
                if group.elements >= query:
                    yield group

    def equal_to(self, query: frozenset[int]) -> Iterator[CandidateGroup]:
        """Groups whose set equals ``query`` (exact trie walk + verify).

        Thanks to merged identical sets (Sec. III-E1) at most a handful of
        groups share the signature leaf, and exactly one can match.
        """
        sig = self.scheme.signature(query)
        leaf = self.trie.equal_leaf(sig)
        if leaf is None:
            return
        for group in leaf.items:  # type: ignore[union-attr]
            if group.elements == query:
                yield group
                return

    def within_hamming(
        self, query: frozenset[int], threshold: int
    ) -> Iterator[tuple[CandidateGroup, int]]:
        """Groups whose *set* is within symmetric-difference ``threshold``.

        Signature Hamming distance lower-bounds the set symmetric
        difference (each differing element flips at most one signature
        bit), so Algorithm 7's trie filter is sound; candidates are then
        verified on actual sets.  Yields ``(group, |set Δ query|)``.
        """
        sig = self.scheme.signature(query)
        for leaf, _sig_dist in self.trie.hamming_leaves(sig, threshold):
            for group in leaf.items:  # type: ignore[union-attr]
                set_dist = len(group.elements ^ query)
                if set_dist <= threshold:
                    yield group, set_dist


def build_patricia_index(
    s: Relation, bits: int | None = None
) -> tuple[PatriciaSetIndex, float]:
    """Build a :class:`PatriciaSetIndex` via ``PTSJ.prepare`` and time it.

    The shared build path of the one-shot join wrappers (superset,
    equality, similarity): the containment algorithm prepares its index,
    and the extension queries adopt it through :meth:`PatriciaSetIndex.
    from_prepared`.  Returns ``(index, build_seconds)``.

    Raises:
        AlgorithmError: If the relation is empty and no explicit ``bits``
            is given (no statistics to derive a length from).
    """
    prepared = _prepare_ptsj(s, bits)
    return PatriciaSetIndex.from_prepared(prepared), prepared.build_seconds


def _prepare_ptsj(s: Relation, bits: int | None) -> "SignaturePreparedIndex":
    """``PTSJ(bits=bits).prepare(s)``, refusing to size signatures from nothing."""
    if bits is None and len(s) == 0:
        raise AlgorithmError("cannot derive a signature length from an empty relation")
    from repro.core.ptsj import PTSJ

    return PTSJ(bits=bits).prepare(s)  # type: ignore[return-value]
