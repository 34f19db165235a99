"""PTSJ — Patricia Trie-based Signature Join (paper Sec. III).

The paper's first contribution.  PTSJ keeps SHJ's signature-filter-then-
verify architecture but replaces the exponential subset enumeration with a
Patricia-trie walk (Algorithm 5) that only visits signatures *actually
present* in ``S``: enumeration cost drops from ``O(2^b)`` to ``O(|S|)``
worst-case, so signatures can grow to thousands of bits (Sec. III-D picks
``b ≈ 16c``) and filter away almost all false candidates.

Index side (Algorithm 1 lines 1–3):
    S is hashed in one kernel call and grouped by signature: tuples sharing
    a signature share a leaf, and — the merge-identical-sets extension,
    Sec. III-E1 — tuples sharing a *set value* share a
    :class:`CandidateGroup` in it, so each duplicated set costs one
    comparison.  The trie is then bulk-built from the sorted signatures.

Probe side:
    :meth:`PatriciaTrie.subset_leaves_batch` returns, for every R-tuple of a
    batch, the leaves whose signature is contained in the probe signature —
    one trie walk per block of probes rather than one per probe — and each
    group in each leaf is verified with one exact ``⊆`` check.  A single
    record probe uses the per-query :meth:`PatriciaTrie.subset_leaves`.
"""

from __future__ import annotations

from repro.core.base import JoinStats
from repro.core.framework import SignatureJoinBase, build_patricia
from repro.governance.policy import Governor, governor
from repro.relations.relation import Relation
from repro.tries.patricia import PatriciaNode, PatriciaTrie

__all__ = ["PTSJ"]


class PTSJ(SignatureJoinBase):
    """Patricia Trie-based Signature Join.

    Args:
        bits: Signature length; default per the Sec. III-D strategy
            (``b = min(d, 16 c, 8192)``).
        merge_identical: Apply the Sec. III-E1 merge-identical-sets
            extension (the paper's implementation always does; exposed here
            for the ablation benchmark).
        scheme_factory: Signature hash scheme, default ``x mod b``.
        length_strategy: Alternative Sec. III-D parameterisation.

    Example:
        >>> from repro.relations import Relation
        >>> profiles = Relation.from_sets([{1, 3, 5, 6}, {0, 2, 7}, {0, 2, 3}])
        >>> prefs = Relation.from_sets([{1, 3}, {1, 5, 6}, {0, 2, 7}])
        >>> sorted(PTSJ().join(profiles, prefs).pairs)
        [(0, 0), (0, 1), (1, 2)]
    """

    name = "ptsj"

    def __init__(self, bits: int | None = None, merge_identical: bool = True, **kwargs) -> None:
        super().__init__(bits=bits, **kwargs)
        self.merge_identical = merge_identical
        self.trie: PatriciaTrie | None = None

    def _build_index(self, s: Relation, stats: JoinStats) -> None:
        assert self.scheme is not None and self.kernel is not None
        self.trie = build_patricia(
            s,
            self.scheme.signatures([rec.elements for rec in s], self.kernel),
            self.scheme.bits,
            self.merge_identical,
            governor("build", stats),
        )
        stats.index_nodes = self.trie.node_count()

    def _enumerate_leaves(self, signature: int, stats: JoinStats) -> list[PatriciaNode]:
        """PATRICIAENUM (Algorithm 5) via the trie's subset walk."""
        trie = self.trie
        assert trie is not None
        leaves = trie.subset_leaves(signature)
        stats.node_visits += trie.visits_last_query
        return leaves

    def _enumerate_batch(
        self, signatures: list[int], stats: JoinStats, gov: Governor | None
    ) -> list[list[PatriciaNode]]:
        """Set-at-a-time PATRICIAENUM: one trie walk per block of probes."""
        trie = self.trie
        assert trie is not None and self.kernel is not None
        hits, visits = trie.subset_leaves_batch(
            signatures,
            self.kernel.transpose_signatures,
            None if gov is None else gov.tick,
        )
        stats.node_visits += visits
        return hits

    # ------------------------------------------------------------------
    # Index reuse (Sec. III-E2/E3 build on the same trie)
    # ------------------------------------------------------------------
    def built_trie(self) -> PatriciaTrie:
        """The Patricia trie built by the last :meth:`join`/:meth:`prepare`.

        The extensions of Sec. III-E (superset, equality and similarity
        joins) reuse this index rather than building their own — see
        ``PatriciaSetIndex.from_prepared`` for the prepared-index route.

        Raises:
            RuntimeError: If no index has been built yet.
        """
        if self.trie is None:
            raise RuntimeError("no index built yet; run join() or prepare() first")
        return self.trie
