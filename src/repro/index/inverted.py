"""Inverted index over a set-valued relation (paper Sec. II-B).

PRETTI and PRETTI+ index the *probe* relation ``R`` with an inverted file:
for each element ``e``, the ascending list of ids of R-tuples whose set
contains ``e``.  During the trie traversal, the running candidate list is
intersected with one inverted list per trie element; intersections dominate
PRETTI's running time, so the intersection routes through the swappable
kernel layer (:mod:`repro.kernels`), whose pure-Python backend carries the
adaptive merge / galloping (exponential-search) strategy this module
originally implemented.

Under the build-once/probe-many split the inverted file is *probe-batch
state*, not part of the prepared index: each ``probe_many`` batch builds
one inverted file over its own probe relation, while the S-side trie is
built once and reused across batches.

PRETTI+ also reads the postings in *rank space*: the rank of a tuple is
its position in the ascending :attr:`InvertedIndex.all_ids`, so ranks are
``0..n-1`` however the ids are spaced.  A rank list is a posting list
mapped to ranks; a posting bitset is a Python int with bit ``p`` set for
every rank ``p`` in it.  Both are built on first use and kept for the
batch (:meth:`InvertedIndex.rank_lists`, :meth:`InvertedIndex.posting_bits`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.sanitizer import maybe_check_inverted_index
from repro.kernels import KernelBackend, get_backend
from repro.kernels.python_backend import (
    GALLOP_RATIO as _GALLOP_RATIO,
    gallop_intersect as _gallop_intersect,
    merge_intersect as _merge_intersect,
)
from repro.relations.relation import Relation

__all__ = ["InvertedIndex", "bitset_from_ranks", "bitset_ranks", "intersect_sorted"]


def intersect_sorted(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Intersect two ascending integer lists via the active kernel backend.

    The adaptive merge/galloping crossover (and any vectorized
    alternative) lives in :mod:`repro.kernels`; this module-level
    function dispatches to the process-default backend.  All backends
    return identical lists for the strictly-increasing inputs this
    package produces.

    >>> intersect_sorted([1, 3, 5], [2, 3, 4, 5])
    [3, 5]
    """
    return get_backend().intersect_sorted(a, b)


def bitset_from_ranks(ranks: Sequence[int]) -> int:
    """The bitset with bit ``p`` set for each ``p`` of ascending ``ranks``.

    >>> bin(bitset_from_ranks([0, 2, 9]))
    '0b1000000101'
    """
    if not ranks:
        return 0
    buf = bytearray((ranks[-1] >> 3) + 1)
    for p in ranks:
        buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


def bitset_ranks(bits: int) -> list[int]:
    """The ascending positions of the set bits of ``bits``.

    Scans the reversed binary string with ``str.find``, which skips runs
    of zeros in C.

    >>> bitset_ranks(0b1000000101)
    [0, 2, 9]
    """
    text = bin(bits)[:1:-1]
    out: list[int] = []
    find = text.find
    p = find("1")
    while p >= 0:
        out.append(p)
        p = find("1", p + 1)
    return out


class InvertedIndex:
    """Element -> ascending tuple-id list, over one relation.

    Args:
        relation: The relation to index (``R`` in PRETTI's formulation).

    The index also keeps :attr:`all_ids` — the ascending list of every
    tuple id — which seeds the running candidate list at the trie root
    (every R-tuple contains the empty prefix).  :attr:`ids_are_ranks` is
    true when the ids are exactly ``0..n-1``, so rank space and id space
    coincide and :meth:`rank_lists` is :attr:`lists` itself.
    """

    __slots__ = ("lists", "all_ids", "ids_are_ranks", "posting_bitsets",
                 "_rank_lists", "_intersections", "_kernel")

    def __init__(self, relation: Relation) -> None:
        lists: dict[int, list[int]] = {}
        all_ids: list[int] = []
        for rec in relation:
            all_ids.append(rec.rid)
            for element in rec.elements:
                bucket = lists.get(element)
                if bucket is None:
                    lists[element] = [rec.rid]
                else:
                    bucket.append(rec.rid)
        # Relation iteration order need not be ascending in rid.
        all_ids.sort()
        for bucket in lists.values():
            bucket.sort()
        self.lists = lists
        self.all_ids = all_ids
        self.ids_are_ranks = not all_ids or (all_ids[0] == 0 and all_ids[-1] == len(all_ids) - 1)
        #: element -> posting bitset, filled by :meth:`posting_bits`.
        self.posting_bitsets: dict[int, int] = {}
        self._rank_lists: dict[int, list[int]] | None = lists if self.ids_are_ranks else None
        self._intersections = 0
        # Captured once: refine() is the PRETTI hot loop, and the index is
        # probe-batch state, so the backend active at construction applies
        # to the whole batch.
        self._kernel = get_backend()
        maybe_check_inverted_index(self)

    def __len__(self) -> int:
        """Number of distinct indexed elements."""
        return len(self.lists)

    def __contains__(self, element: int) -> bool:
        return element in self.lists

    def postings(self, element: int) -> list[int]:
        """The ascending id list for ``element`` (empty if unseen)."""
        return self.lists.get(element, [])

    @property
    def kernel(self) -> KernelBackend:
        """The kernel backend captured at construction."""
        return self._kernel

    def rank_lists(self) -> dict[int, list[int]]:
        """Element -> ascending list of the ranks of its postings.

        :attr:`lists` itself when :attr:`ids_are_ranks`; otherwise mapped
        once, on first call, and kept.
        """
        ranks = self._rank_lists
        if ranks is None:
            rank_of = {rid: p for p, rid in enumerate(self.all_ids)}
            ranks = {element: [rank_of[rid] for rid in bucket]
                     for element, bucket in self.lists.items()}
            self._rank_lists = ranks
        return ranks

    def posting_bits(self, element: int) -> int:
        """The rank bitset of ``element``'s postings, built on first call."""
        bits = self.posting_bitsets.get(element)
        if bits is None:
            bits = bitset_from_ranks(self.rank_lists().get(element, ()))
            self.posting_bitsets[element] = bits
        return bits

    def build_posting_bits(self, longer_than: int) -> None:
        """Build the bitset of every posting list longer than ``longer_than``."""
        for element, ranks in self.rank_lists().items():
            if len(ranks) > longer_than:
                self.posting_bits(element)

    def refine(self, current: Sequence[int], element: int) -> list[int]:
        """One PRETTI refinement step: ``current ∩ postings(element)``.

        This is the ``child_list = current_list ∩ idx[c.label]`` of the
        paper's Algorithm 3, counted in :attr:`intersection_count`.
        """
        self._intersections += 1
        bucket = self.lists.get(element)
        if bucket is None:
            return []
        return self._kernel.intersect_sorted(current, bucket)

    def refine_many(self, current: Sequence[int], elements: Iterable[int]) -> list[int]:
        """Refine by several elements in sequence (PRETTI+ node prefixes).

        Elements are refined in ascending posting-list length, so the
        cheapest list drives the candidate set down first (and an
        element with no postings empties it immediately).
        """
        lists = self.lists
        ordered = sorted(elements, key=lambda e: len(lists.get(e, ())))
        result = list(current)
        for element in ordered:
            if not result:
                break
            result = self.refine(result, element)
        return result

    @property
    def intersection_count(self) -> int:
        """Number of :meth:`refine` calls performed so far."""
        return self._intersections

    def average_list_length(self) -> float:
        """Mean postings-list length — shrinks as domain cardinality grows,
        which is why PRETTI/PRETTI+ get *faster* with larger domains
        (paper Fig. 6b)."""
        if not self.lists:
            return 0.0
        return sum(len(v) for v in self.lists.values()) / len(self.lists)
