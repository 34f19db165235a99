"""Unit tests for the Algorithm 1 framework and shared base types."""

from __future__ import annotations

from collections import namedtuple

import pytest

from repro.core.base import CandidateGroup, JoinResult, JoinStats
from repro.core.framework import SignatureJoinBase, insert_into_groups
from repro.relations.relation import Relation, SetRecord


class TestCandidateGroups:
    def test_insert_merges_identical_sets(self):
        groups: list[CandidateGroup] = []
        insert_into_groups(groups, SetRecord(1, frozenset({1, 2})))
        insert_into_groups(groups, SetRecord(2, frozenset({1, 2})))
        insert_into_groups(groups, SetRecord(3, frozenset({1, 3})))
        assert len(groups) == 2
        assert groups[0].ids == [1, 2]
        assert groups[1].ids == [3]

    def test_groups_keep_insertion_order(self):
        groups: list[CandidateGroup] = []
        for i, s in enumerate([{1}, {2}, {1}]):
            insert_into_groups(groups, SetRecord(i, frozenset(s)))
        assert [g.elements for g in groups] == [frozenset({1}), frozenset({2})]


class TestJoinStats:
    def test_total_and_fraction(self):
        stats = JoinStats(build_seconds=1.0, probe_seconds=3.0)
        assert stats.total_seconds == 4.0
        assert stats.build_fraction == 0.25

    def test_zero_time_fraction(self):
        assert JoinStats().build_fraction == 0.0

    def test_precision_no_verifications(self):
        assert JoinStats().precision == 1.0

    def test_precision_with_false_positives(self):
        stats = JoinStats(verifications=10)
        stats.pairs = 4
        assert stats.precision == 0.4


class TestJoinResult:
    def test_pairs_synced_into_stats(self):
        result = JoinResult([(1, 2), (3, 4)], JoinStats())
        assert result.stats.pairs == 2

    def test_pair_set_and_sorted(self):
        result = JoinResult([(3, 1), (1, 2)], JoinStats())
        assert result.pair_set() == {(3, 1), (1, 2)}
        assert result.sorted_pairs() == [(1, 2), (3, 1)]


_Leaf = namedtuple("_Leaf", "signature items")


class _RecordingJoin(SignatureJoinBase):
    """Minimal concrete framework instance used to test the template."""

    name = "recording"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.groups: list[CandidateGroup] = []

    def _build_index(self, s, stats):
        for rec in s:
            insert_into_groups(self.groups, rec)

    def _enumerate_leaves(self, signature, stats):
        # Degenerate enumeration: every group is a candidate, each under a
        # leaf carrying its own signature.
        for group in self.groups:
            yield _Leaf(self.scheme.signature(group.elements), [group])


class TestFrameworkTemplate:
    def test_template_produces_correct_join(self):
        r = Relation.from_sets([{1, 2, 3}, {4}])
        s = Relation.from_sets([{1, 2}, {4}, {5}])
        result = _RecordingJoin(bits=16).join(r, s)
        assert result.pair_set() == {(0, 0), (1, 1)}

    def test_verification_counts_all_candidates(self):
        r = Relation.from_sets([{1}])
        s = Relation.from_sets([{1}, {2}, {3}])
        stats = _RecordingJoin(bits=16).join(r, s).stats
        assert stats.verifications == 3
        assert stats.candidates == 3

    def test_bits_strategy_used_when_unspecified(self):
        r = Relation.from_sets([set(range(16))])
        s = Relation.from_sets([set(range(8))])
        result = _RecordingJoin().join(r, s)
        # avg c = 12 -> 16 * 12 = 192, capped by domain 16.
        assert result.stats.signature_bits == 16

    def test_explicit_bits_win(self):
        r = Relation.from_sets([{1}])
        s = Relation.from_sets([{1}])
        assert _RecordingJoin(bits=77).join(r, s).stats.signature_bits == 77

    def test_timings_recorded(self):
        r = Relation.from_sets([{1}] * 50)
        s = Relation.from_sets([{1}] * 50)
        stats = _RecordingJoin(bits=8).join(r, s).stats
        assert stats.build_seconds >= 0.0
        assert stats.probe_seconds > 0.0
