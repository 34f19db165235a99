"""TSJ — signature join over a *plain* binary trie (paper Sec. III-A, Alg. 4).

The paper's intermediate design: replace SHJ's hash map with an
uncompressed binary trie so that only signatures actually present in ``S``
are enumerated.  The idea is right but the structure is wrong — single-
branch chains mean ``k (b - lg2 k) + 2k`` nodes get allocated *and walked*,
and the paper reports Algorithm 4 measuring slower than SHJ, excluding it
from the empirical study.  It is kept here as an ablation baseline
(``benchmarks/test_ablation_plain_trie.py`` reproduces the claim) and as
the stepping stone to PTSJ.
"""

from __future__ import annotations

from repro.core.base import CandidateGroup, JoinStats
from repro.core.framework import SignatureJoinBase, insert_into_groups
from repro.governance.policy import governor
from repro.relations.relation import Relation
from repro.tries.binary_trie import BinaryTrie, BinaryTrieNode

__all__ = ["TSJ"]


class TSJ(SignatureJoinBase):
    """Trie-based Signature Join over an uncompressed binary trie.

    Same interface and defaults as :class:`repro.core.ptsj.PTSJ` (including
    the Sec. III-D signature-length strategy and merge-identical-sets),
    differing only in the underlying trie — which is the entire point of
    the ablation.

    Args:
        bits: Signature length; default per Sec. III-D.
        merge_identical: Merge tuples with identical sets in the leaves.
    """

    name = "tsj"

    def __init__(self, bits: int | None = None, merge_identical: bool = True, **kwargs) -> None:
        super().__init__(bits=bits, **kwargs)
        self.merge_identical = merge_identical
        self.trie: BinaryTrie | None = None

    def _build_index(self, s: Relation, stats: JoinStats) -> None:
        assert self.scheme is not None
        trie = BinaryTrie(self.scheme.bits)
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

    def _enumerate_leaves(self, signature: int, stats: JoinStats) -> list[BinaryTrieNode]:
        """TRIEENUM (Algorithm 4): level-synchronous trie walk."""
        trie = self.trie
        assert trie is not None
        leaves = trie.subset_leaves(signature)
        stats.node_visits += trie.visits_last_query
        return leaves
