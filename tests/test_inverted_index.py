"""Unit tests for the inverted index and sorted-list intersection."""

from __future__ import annotations

import random

import pytest

from repro.index.inverted import (
    InvertedIndex,
    bitset_from_ranks,
    bitset_ranks,
    intersect_sorted,
)
from repro.relations.relation import Relation, SetRecord


class TestIntersectSorted:
    def test_basic(self):
        assert intersect_sorted([1, 3, 5], [2, 3, 4, 5]) == [3, 5]

    def test_disjoint(self):
        assert intersect_sorted([1, 2], [3, 4]) == []

    def test_empty_operands(self):
        assert intersect_sorted([], [1, 2]) == []
        assert intersect_sorted([1], []) == []

    def test_identical(self):
        assert intersect_sorted([1, 2, 3], [1, 2, 3]) == [1, 2, 3]

    def test_gallop_path_very_asymmetric(self):
        small = [5, 500, 995]
        large = list(range(1000))
        assert intersect_sorted(small, large) == small
        assert intersect_sorted(large, small) == small

    def test_gallop_path_misses(self):
        small = [1000, 2000]
        large = list(range(0, 999, 2))
        assert intersect_sorted(small, large) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_set_intersection(self, seed):
        rng = random.Random(seed)
        a = sorted(rng.sample(range(300), rng.randint(0, 80)))
        b = sorted(rng.sample(range(300), rng.randint(0, 250)))
        assert intersect_sorted(a, b) == sorted(set(a) & set(b))

    def test_result_is_sorted_and_unique(self):
        a = list(range(0, 100, 3))
        b = list(range(0, 100, 5))
        out = intersect_sorted(a, b)
        assert out == sorted(set(out))


class TestInvertedIndex:
    def relation(self) -> Relation:
        return Relation.from_sets([{1, 2}, {2, 3}, {3}, set()])

    def test_postings_sorted_ascending(self):
        idx = InvertedIndex(self.relation())
        assert idx.postings(2) == [0, 1]
        assert idx.postings(3) == [1, 2]

    def test_postings_for_unknown_element(self):
        idx = InvertedIndex(self.relation())
        assert idx.postings(99) == []

    def test_all_ids_includes_empty_set_tuples(self):
        idx = InvertedIndex(self.relation())
        assert idx.all_ids == [0, 1, 2, 3]

    def test_len_counts_elements(self):
        assert len(InvertedIndex(self.relation())) == 3

    def test_contains(self):
        idx = InvertedIndex(self.relation())
        assert 1 in idx and 99 not in idx

    def test_refine_intersects(self):
        idx = InvertedIndex(self.relation())
        assert idx.refine([0, 1, 2, 3], 2) == [0, 1]
        assert idx.refine([0, 1], 3) == [1]

    def test_refine_unknown_element_empties(self):
        idx = InvertedIndex(self.relation())
        assert idx.refine([0, 1], 42) == []

    def test_refine_counts_intersections(self):
        idx = InvertedIndex(self.relation())
        idx.refine([0], 1)
        idx.refine([0], 2)
        assert idx.intersection_count == 2

    def test_refine_many_short_circuits(self):
        idx = InvertedIndex(self.relation())
        before = idx.intersection_count
        out = idx.refine_many([0, 1, 2, 3], [42, 1, 2, 3])
        assert out == []
        # refine(42) empties the list; remaining elements are not probed.
        assert idx.intersection_count == before + 1

    def test_refine_many_full_chain(self):
        idx = InvertedIndex(self.relation())
        assert idx.refine_many([0, 1, 2, 3], [2, 3]) == [1]

    def test_unsorted_record_ids_are_sorted(self):
        rel = Relation([SetRecord(9, frozenset({1})), SetRecord(2, frozenset({1}))])
        idx = InvertedIndex(rel)
        assert idx.postings(1) == [2, 9]
        assert idx.all_ids == [2, 9]

    def test_average_list_length(self):
        idx = InvertedIndex(self.relation())
        # postings: 1->[0], 2->[0,1], 3->[1,2]; average (1+2+2)/3.
        assert idx.average_list_length() == pytest.approx(5 / 3)

    def test_average_list_length_empty_relation(self):
        assert InvertedIndex(Relation([])).average_list_length() == 0.0

    def test_larger_domain_means_shorter_lists(self):
        """The Fig. 6b effect: same data volume over more elements."""
        rng = random.Random(60)
        narrow = Relation.from_sets(
            [frozenset(rng.sample(range(50), 10)) for _ in range(200)]
        )
        wide = Relation.from_sets(
            [frozenset(rng.sample(range(5000), 10)) for _ in range(200)]
        )
        assert InvertedIndex(wide).average_list_length() < InvertedIndex(narrow).average_list_length()


class TestRankSpace:
    """Ranks are positions in ``all_ids``; PRETTI+ refines rank lists and
    rank bitsets."""

    def test_bitset_round_trip(self):
        for ranks in ([], [0], [0, 2, 9], list(range(0, 200, 3)), [63, 64, 1000]):
            bits = bitset_from_ranks(ranks)
            assert bits.bit_count() == len(ranks)
            assert bitset_ranks(bits) == ranks

    def test_ids_0_to_n_minus_1_are_their_own_ranks(self):
        idx = InvertedIndex(Relation.from_sets([{1, 2}, {2, 3}, {3}, set()]))
        assert idx.ids_are_ranks
        assert idx.rank_lists() is idx.lists

    def test_gapped_out_of_order_ids_map_to_ranks(self):
        rel = Relation([SetRecord(90, frozenset({1, 2})), SetRecord(5, frozenset({2})),
                        SetRecord(41, frozenset({1}))])
        idx = InvertedIndex(rel)
        assert not idx.ids_are_ranks
        assert idx.all_ids == [5, 41, 90]
        assert idx.rank_lists() == {1: [1, 2], 2: [0, 2]}
        assert idx.lists == {1: [41, 90], 2: [5, 90]}

    def test_posting_bits_built_once_per_element(self):
        rel = Relation([SetRecord(rid, frozenset({1})) for rid in (7, 3, 11)])
        idx = InvertedIndex(rel)
        assert idx.posting_bitsets == {}
        bits = idx.posting_bits(1)
        assert bits == 0b111
        assert idx.posting_bits(1) is bits
        assert idx.posting_bitsets == {1: 0b111}
        assert idx.posting_bits(99) == 0

    def test_build_posting_bits_above_a_length(self):
        idx = InvertedIndex(Relation.from_sets([{1, 2}, {2, 3}, {2}, {3}]))
        idx.build_posting_bits(longer_than=1)
        assert idx.posting_bitsets == {2: 0b111, 3: 0b1010}
