"""Unit tests for the element-space set index (PRETTI+ side)."""

from __future__ import annotations

import random

import pytest

from repro.extensions.set_trie_index import SetTrieIndex
from repro.relations.relation import Relation
from repro.tries.set_patricia import SetPatriciaTrie
from tests.conftest import random_relation


def brute(rel, query, op):
    if op == "sub":
        return sorted(r.rid for r in rel if r.elements <= query)
    if op == "sup":
        return sorted(r.rid for r in rel if r.elements >= query)
    return sorted(r.rid for r in rel if r.elements == query)


class TestProbes:
    @pytest.fixture
    def relation(self):
        return random_relation(120, 6, 40, seed=940)

    def test_subsets(self, relation):
        index = SetTrieIndex(relation)
        rng = random.Random(941)
        for _ in range(20):
            query = frozenset(rng.sample(range(40), rng.randint(0, 14)))
            assert sorted(index.subsets_of(query)) == brute(relation, query, "sub")

    def test_supersets(self, relation):
        index = SetTrieIndex(relation)
        rng = random.Random(942)
        for _ in range(20):
            query = frozenset(rng.sample(range(40), rng.randint(0, 5)))
            assert sorted(index.supersets_of(query)) == brute(relation, query, "sup")

    def test_equal(self, relation):
        index = SetTrieIndex(relation)
        for rec in list(relation)[:25]:
            assert sorted(index.equal_to(rec.elements)) == brute(relation, rec.elements, "eq")

    def test_equal_misses(self, relation):
        index = SetTrieIndex(relation)
        assert index.equal_to(frozenset({997, 998, 999})) == []

    def test_empty_set_queries(self):
        rel = Relation.from_sets([set(), {1}, {1, 2}])
        index = SetTrieIndex(rel)
        assert sorted(index.subsets_of(frozenset())) == [0]
        assert sorted(index.supersets_of(frozenset())) == [0, 1, 2]
        assert index.equal_to(frozenset()) == [0]

    def test_agrees_with_signature_index(self, relation):
        """The two index families must answer identically."""
        from repro.extensions.set_index import PatriciaSetIndex

        signature_index = PatriciaSetIndex(relation)
        trie_index = SetTrieIndex(relation)
        rng = random.Random(943)
        for _ in range(15):
            query = frozenset(rng.sample(range(40), rng.randint(0, 10)))
            sig_subs = sorted(i for g in signature_index.subsets_of(query) for i in g.ids)
            assert sorted(trie_index.subsets_of(query)) == sig_subs
            sig_sups = sorted(i for g in signature_index.supersets_of(query) for i in g.ids)
            assert sorted(trie_index.supersets_of(query)) == sig_sups

    def test_answers_match_an_insert_loop_index(self):
        # The one-pass build must answer, in the same order, exactly what
        # the per-record insert loop answered, duplicates and prefix sets
        # included.
        rng = random.Random(945)
        base = [frozenset(rng.sample(range(12), rng.randint(0, 4))) for _ in range(30)]
        rel = Relation.from_sets(base + base[:10] + [s | {12} for s in base[:10]])
        index = SetTrieIndex(rel)
        reference = SetPatriciaTrie()
        for rec in rel:
            reference.insert(rec.sorted_elements(), rec.rid)
        for _ in range(25):
            query = frozenset(rng.sample(range(13), rng.randint(0, 8)))
            assert index.subsets_of(query) == reference.subsets_of(query)
            assert index.supersets_of(query) == reference.supersets_of(query)
            assert sorted(index.subsets_of(query)) == brute(rel, query, "sub")
        for rec in rel:
            assert sorted(index.equal_to(rec.elements)) == brute(rel, rec.elements, "eq")


class TestMaintenance:
    def test_add_then_probe(self):
        index = SetTrieIndex(Relation.from_sets([{1, 2}]))
        index.add(9, frozenset({1}))
        assert sorted(index.subsets_of(frozenset({1, 2}))) == [0, 9]
        assert len(index) == 2

    def test_discard(self):
        index = SetTrieIndex(Relation.from_sets([{1, 2}, {3}]))
        assert index.discard(0)
        assert index.subsets_of(frozenset({1, 2})) == []
        assert not index.discard(0)
        index.trie.check_invariants()

    def test_churn_matches_fresh_index(self):
        rng = random.Random(944)
        sets = [frozenset(rng.sample(range(30), rng.randint(0, 5))) for _ in range(80)]
        index = SetTrieIndex(Relation.from_sets(sets[:40]))
        for i, s in enumerate(sets[40:], start=40):
            index.add(i, s)
        for i in range(0, 80, 3):
            assert index.discard(i)
        survivors = {i: s for i, s in enumerate(sets) if i % 3 != 0}
        query = frozenset(range(0, 30, 2))
        assert sorted(index.subsets_of(query)) == sorted(
            i for i, s in survivors.items() if s <= query
        )
        index.trie.check_invariants()
