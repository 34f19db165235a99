"""Unit tests for relation statistics (Table III columns)."""

from __future__ import annotations

import dataclasses
import math
import statistics

from hypothesis import given, settings, strategies as st

from repro.relations.relation import Relation
from repro.relations.stats import RelationStats, compute_stats


class TestComputeStats:
    def test_basic_counts(self):
        rel = Relation.from_sets([{1, 2}, {3}, {1, 2, 3, 4}])
        st = compute_stats(rel)
        assert st.size == 3
        assert st.total_elements == 7
        assert st.avg_cardinality == 7 / 3
        assert st.median_cardinality == 2.0
        assert st.min_cardinality == 1
        assert st.max_cardinality == 4

    def test_domain_cardinality_counts_distinct(self):
        rel = Relation.from_sets([{1, 2}, {2, 3}])
        assert compute_stats(rel).domain_cardinality == 3

    def test_duplicate_sets_counted(self):
        rel = Relation.from_sets([{1, 2}, {1, 2}, {3}, {1, 2}])
        assert compute_stats(rel).duplicate_sets == 2

    def test_empty_relation_is_all_zero(self):
        st = compute_stats(Relation([]))
        assert st.size == 0
        assert st.avg_cardinality == 0.0
        assert st.domain_cardinality == 0

    def test_empty_sets_count_in_cardinality(self):
        rel = Relation.from_sets([set(), {1}])
        st = compute_stats(rel)
        assert st.min_cardinality == 0
        assert st.median_cardinality == 0.5

    def test_as_table_row_has_paper_columns(self):
        row = compute_stats(Relation.from_sets([{1, 2}])).as_table_row()
        assert set(row) == {"|R|", "c avg.", "c median", "d"}


def reference_scan(relation: Relation) -> RelationStats:
    """The two-pass, ``statistics``-module scan the planner used to run."""
    cards = [rec.cardinality for rec in relation]
    seen: set[frozenset[int]] = set()
    duplicates = 0
    domain: set[int] = set()
    for rec in relation:
        if rec.elements in seen:
            duplicates += 1
        else:
            seen.add(rec.elements)
        domain |= rec.elements
    if not cards:
        return RelationStats(0, 0.0, 0.0, 0, 0, 0, 0, 0)
    return RelationStats(
        size=len(cards),
        avg_cardinality=sum(cards) / len(cards),
        median_cardinality=float(statistics.median(cards)),
        min_cardinality=min(cards),
        max_cardinality=max(cards),
        domain_cardinality=len(domain),
        total_elements=sum(cards),
        duplicate_sets=duplicates,
        cardinality_stddev=statistics.pstdev(cards) if len(cards) > 1 else 0.0,
        max_element=max(domain) if domain else -1,
    )


class TestOnePassScan:
    """``compute_stats`` scans once with integer sums; every field must match
    the two-pass ``statistics`` scan (stddev to rounding)."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.frozensets(st.integers(0, 300), max_size=40), max_size=60))
    def test_matches_reference_scan(self, sets):
        rel = Relation.from_sets(sets)
        got = compute_stats(rel)
        want = reference_scan(rel)
        assert dataclasses.replace(got, cardinality_stddev=0.0) == \
            dataclasses.replace(want, cardinality_stddev=0.0)
        assert math.isclose(got.cardinality_stddev, want.cardinality_stddev,
                            rel_tol=1e-12)

    def test_stddev_of_large_cardinalities(self):
        rel = Relation.from_sets([set(range(k)) for k in (1000, 1001, 5000, 7)])
        want = statistics.pstdev([1000, 1001, 5000, 7])
        assert math.isclose(compute_stats(rel).cardinality_stddev, want, rel_tol=1e-12)
