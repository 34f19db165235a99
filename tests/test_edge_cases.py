"""Adversarial and boundary inputs across all algorithms.

Failure-injection-style coverage: shapes that historically break join
implementations — degenerate widths, saturated domains, huge sparse ids,
total-order chains, aliasing of R and S — must neither crash nor corrupt
output for any registered algorithm.
"""

from __future__ import annotations

import pytest

from repro.core.registry import available_algorithms, set_containment_join
from repro.relations.relation import Relation
from tests.conftest import oracle_pairs

JOIN_ALGORITHMS = [name for name in available_algorithms() if name != "nested-loop"]


def check_all(r: Relation, s: Relation, **kwargs) -> None:
    expected = oracle_pairs(r, s)
    for name in JOIN_ALGORITHMS:
        got = set_containment_join(r, s, algorithm=name, **kwargs).pair_set()
        assert got == expected, name


class TestDegenerateShapes:
    def test_both_sides_all_empty_sets(self):
        r = Relation.from_sets([set()] * 5)
        s = Relation.from_sets([set()] * 7)
        check_all(r, s)

    def test_single_tuple_each(self):
        check_all(Relation.from_sets([{1, 2}]), Relation.from_sets([{2}]))

    def test_domain_of_one_element(self):
        r = Relation.from_sets([{0}, set(), {0}])
        s = Relation.from_sets([{0}, set()])
        check_all(r, s)

    def test_one_bit_signature(self):
        """bits=1 collapses every non-empty set to the same signature."""
        r = Relation.from_sets([{1, 5}, {2}, set()])
        s = Relation.from_sets([{5}, {7}, set()])
        for name in ("ptsj", "shj", "tsj"):
            got = set_containment_join(r, s, algorithm=name, bits=1).pair_set()
            assert got == oracle_pairs(r, s), name

    def test_huge_sparse_element_ids(self):
        """Billion-scale ids must work with explicit signature widths."""
        r = Relation.from_sets([{10 ** 9, 10 ** 12}, {5}])
        s = Relation.from_sets([{10 ** 9}, {10 ** 12}, {6}])
        for name in ("ptsj", "shj", "pretti", "pretti+", "tsj"):
            got = set_containment_join(
                r, s, algorithm=name, **({"bits": 64} if name not in ("pretti", "pretti+") else {})
            ).pair_set()
            assert got == oracle_pairs(r, s), name

    def test_total_order_chain(self):
        sets = [set(range(i)) for i in range(20)]
        r = Relation.from_sets(sets)
        s = Relation.from_sets(sets)
        check_all(r, s)

    def test_saturated_domain(self):
        """Every set nearly covers the whole (tiny) domain."""
        r = Relation.from_sets([set(range(8)) - {i} for i in range(8)])
        s = Relation.from_sets([set(range(8)) - {i, (i + 1) % 8} for i in range(8)])
        check_all(r, s)

    def test_r_and_s_are_same_object(self):
        rel = Relation.from_sets([{1}, {1, 2}, {2, 3}, set()])
        check_all(rel, rel)

    def test_many_duplicate_signatures_distinct_sets(self):
        """Force signature collisions: all sets hash identically at bits=2."""
        r = Relation.from_sets([{0, 2}, {4, 6}, {0, 4}])
        s = Relation.from_sets([{2}, {6}, {0, 2, 4}])
        for name in ("ptsj", "shj", "tsj"):
            got = set_containment_join(r, s, algorithm=name, bits=2).pair_set()
            assert got == oracle_pairs(r, s), name

    def test_wide_cardinality_spread(self):
        """One 500-element set among singletons (skew stress)."""
        sets = [{i} for i in range(30)] + [set(range(500))]
        r = Relation.from_sets(sets)
        s = Relation.from_sets(sets)
        check_all(r, s)


class TestProbeOnlyAndIndexOnlyEmpty:
    @pytest.mark.parametrize("name", JOIN_ALGORITHMS)
    def test_empty_probe(self, name):
        s = Relation.from_sets([{1}, set()])
        kwargs = {"bits": 8} if name in ("ptsj", "shj", "tsj") else {}
        assert len(set_containment_join(Relation([]), s, algorithm=name, **kwargs)) == 0

    @pytest.mark.parametrize("name", JOIN_ALGORITHMS)
    def test_empty_index(self, name):
        r = Relation.from_sets([{1}, set()])
        kwargs = {"bits": 8} if name in ("ptsj", "shj", "tsj") else {}
        assert len(set_containment_join(r, Relation([]), algorithm=name, **kwargs)) == 0


class TestDifferentialFuzz:
    """Randomised differential test: many seeds, all algorithms agree."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fuzz_round(self, seed):
        from tests.conftest import random_relation

        r = random_relation(45 + seed * 7, 3 + seed * 2, 20 + seed * 12, seed=1000 + seed)
        s = random_relation(45 + seed * 5, 2 + seed * 2, 20 + seed * 12, seed=2000 + seed)
        check_all(r, s)
