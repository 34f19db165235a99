"""Unit tests for PTSJ (the paper's primary contribution)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import CandidateGroup, JoinStats
from repro.core.framework import insert_into_groups
from repro.core.ptsj import PTSJ
from repro.exec.parallel import ParallelJoin
from repro.kernels import available_backends, use_backend
from repro.relations.relation import Relation
from repro.signatures.hashing import ModuloScheme, ScrambleScheme
from repro.tries import patricia
from repro.tries.patricia import PatriciaTrie
from tests.conftest import TABLE1_EXPECTED, oracle_pairs, random_relation


class TestCorrectness:
    def test_table1_example(self, table1_profiles, table1_preferences):
        result = PTSJ().join(table1_profiles, table1_preferences)
        assert result.pair_set() == TABLE1_EXPECTED

    def test_matches_oracle_random(self, small_pair):
        r, s = small_pair
        assert PTSJ().join(r, s).pair_set() == oracle_pairs(r, s)

    def test_self_join(self):
        rel = random_relation(80, 8, 50, seed=70)
        assert PTSJ().join(rel, rel).pair_set() == oracle_pairs(rel, rel)

    def test_empty_relations(self):
        empty = Relation([])
        other = Relation.from_sets([{1}])
        assert len(PTSJ(bits=16).join(empty, other)) == 0
        assert len(PTSJ(bits=16).join(other, empty)) == 0
        assert len(PTSJ(bits=16).join(empty, empty)) == 0

    def test_empty_sets_match_everything(self):
        r = Relation.from_sets([{1}, set()])
        s = Relation.from_sets([set(), {1, 2}])
        result = PTSJ().join(r, s)
        # Every r contains the empty s-set; only nothing contains {1,2}.
        assert result.pair_set() == {(0, 0), (1, 0)}

    def test_duplicate_sets_all_reported(self):
        r = Relation.from_sets([{1, 2, 3}])
        s = Relation.from_sets([{1, 2}, {1, 2}, {1, 2}])
        result = PTSJ().join(r, s)
        assert result.pair_set() == {(0, 0), (0, 1), (0, 2)}

    @pytest.mark.parametrize("bits", [8, 64, 333, 2048])
    def test_any_signature_length_is_correct(self, bits, small_pair):
        """Signature length affects speed, never correctness."""
        r, s = small_pair
        assert PTSJ(bits=bits).join(r, s).pair_set() == oracle_pairs(r, s)

    def test_merge_identical_off_same_result(self, small_pair):
        r, s = small_pair
        merged = PTSJ(merge_identical=True).join(r, s).pair_set()
        unmerged = PTSJ(merge_identical=False).join(r, s).pair_set()
        assert merged == unmerged


class TestStatsAndExtension:
    def test_default_bits_follow_strategy(self, small_pair):
        r, s = small_pair
        result = PTSJ().join(r, s)
        cards = [rec.cardinality for rec in r] + [rec.cardinality for rec in s]
        avg_c = sum(cards) / len(cards)
        assert result.stats.signature_bits <= 16 * avg_c + 32
        assert result.stats.signature_bits >= 8

    def test_explicit_bits_respected(self, small_pair):
        r, s = small_pair
        assert PTSJ(bits=128).join(r, s).stats.signature_bits == 128

    def test_merge_identical_reduces_verifications(self):
        """Sec. III-E1: duplicates cost one comparison instead of many."""
        r = random_relation(50, 6, 12, seed=71)
        base = Relation.from_sets([{1, 2}, {1, 2}, {1, 2}, {1, 2}, {3, 4}] * 10)
        with_merge = PTSJ(merge_identical=True).join(r, base)
        without = PTSJ(merge_identical=False).join(r, base)
        assert with_merge.pair_set() == without.pair_set()
        assert with_merge.stats.verifications < without.stats.verifications

    def test_node_visits_accumulated(self, small_pair):
        r, s = small_pair
        stats = PTSJ().join(r, s).stats
        assert stats.node_visits >= len(r)  # at least the root per probe

    def test_index_nodes_bounded(self, small_pair):
        r, s = small_pair
        stats = PTSJ().join(r, s).stats
        assert 0 < stats.index_nodes <= 2 * len(s)

    def test_built_trie_reusable(self, small_pair):
        r, s = small_pair
        algo = PTSJ()
        algo.join(r, s)
        trie = algo.built_trie()
        assert trie.leaf_count > 0

    def test_built_trie_before_join_raises(self):
        with pytest.raises(RuntimeError):
            PTSJ().built_trie()

    def test_candidates_at_least_pairs(self, small_pair):
        """Every output pair's group passed verification."""
        r, s = small_pair
        stats = PTSJ().join(r, s).stats
        assert stats.verifications >= stats.candidates > 0

    def test_longer_signatures_filter_better(self):
        """More bits -> fewer false-positive candidates (Sec. III-C)."""
        r = random_relation(150, 10, 500, seed=72)
        s = random_relation(150, 6, 500, seed=73)
        short = PTSJ(bits=16).join(r, s).stats
        long = PTSJ(bits=512).join(r, s).stats
        assert long.candidates < short.candidates
        assert long.pairs == short.pairs


def per_record_join(index, r: Relation) -> tuple[list[tuple[int, int]], JoinStats]:
    """The reference for ``probe_many``: one streaming ``probe`` per record."""
    stats = JoinStats()
    pairs = [(rec.rid, s_id) for rec in r for s_id in index.probe(rec, stats)]
    return pairs, stats


class TestBatchedProbe:
    """``probe_many`` walks the trie once per probe block; ``probe`` once per
    record.  Both must emit the same pairs in the same order, with the same
    counters."""

    @pytest.mark.parametrize("backend", available_backends())
    @settings(max_examples=40, deadline=None)
    @given(
        r_sets=st.lists(st.frozensets(st.integers(0, 40), max_size=10), max_size=30),
        s_sets=st.lists(st.frozensets(st.integers(0, 40), max_size=6), max_size=30),
        bits=st.integers(1, 48),
    )
    def test_probe_many_equals_probe_loop(self, backend, r_sets, s_sets, bits):
        r = Relation.from_sets(r_sets)
        s = Relation.from_sets(s_sets, start_id=1000)
        with use_backend(backend):
            index = PTSJ(bits=bits).prepare(s)
        result = index.probe_many(r)
        pairs, stats = per_record_join(index, r)
        assert result.pairs == pairs
        assert result.stats.candidates == stats.candidates
        assert result.stats.verifications == stats.verifications
        assert result.stats.node_visits == stats.node_visits

    @pytest.mark.parametrize("backend", available_backends())
    def test_probe_many_spanning_blocks(self, backend, monkeypatch):
        monkeypatch.setattr(patricia, "SUBSET_BATCH_BLOCK", 16)
        r = random_relation(100, 10, 40, seed=75)
        s = random_relation(120, 5, 40, seed=76)
        with use_backend(backend):
            index = PTSJ().prepare(s)
        result = index.probe_many(r)
        pairs, stats = per_record_join(index, r)
        assert result.pairs == pairs
        assert set(pairs) == oracle_pairs(r, s)
        assert (result.stats.candidates, result.stats.node_visits) == \
            (stats.candidates, stats.node_visits)


def incremental_trie(s: Relation, bits: int, merge_identical: bool) -> PatriciaTrie:
    """PTSJ's index built the per-record way: one ``insert`` per S tuple."""
    trie = PatriciaTrie(bits)
    scheme = ModuloScheme(bits)
    for rec in s:
        groups = trie.insert(scheme.signature(rec.elements))
        if merge_identical:
            insert_into_groups(groups, rec)
        else:
            groups.append(CandidateGroup(rec.elements, rec.rid))
    return trie


def leaf_groups(trie: PatriciaTrie) -> list[tuple]:
    return [(leaf.signature, [(g.elements, g.ids) for g in leaf.items])
            for leaf in trie.leaves()]


class TestBulkBuild:
    """The grouped one-pass build gives the tree per-record inserts give."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("merge_identical", [True, False])
    @settings(max_examples=40, deadline=None)
    @given(
        s_sets=st.lists(st.frozensets(st.integers(0, 30), max_size=5), max_size=40),
        bits=st.integers(1, 40),
    )
    def test_same_leaves_as_insert_loop(self, backend, merge_identical, s_sets, bits):
        # Duplicated sets exercise the merge; a small domain shares leaves.
        s = Relation.from_sets(s_sets + s_sets[::3], start_id=7)
        with use_backend(backend):
            index = PTSJ(bits=bits, merge_identical=merge_identical).prepare(s)
        expected = incremental_trie(s, bits, merge_identical)
        index.trie.check_invariants()
        assert leaf_groups(index.trie) == leaf_groups(expected)
        assert index.index_nodes == index.trie.node_count() == expected.node_count()


def exact_and_probe_loop_agree(r: Relation, s: Relation, **kwargs) -> list[tuple[int, int]]:
    """Join through ``probe_many`` and through a ``probe()`` loop; check both
    against the oracle and each other (pairs, order, counters)."""
    index = PTSJ(**kwargs).prepare(s)
    result = index.probe_many(r)
    pairs, stats = per_record_join(index, r)
    assert result.pairs == pairs
    assert (result.stats.candidates, result.stats.verifications, result.stats.node_visits) == \
        (stats.candidates, stats.verifications, stats.node_visits)
    assert set(pairs) == oracle_pairs(r, s)
    return pairs


class TestExactSignatures:
    """When every element of R and S is below ``bits``, ``x mod b`` is
    injective and candidates are decided on the signature ints; any element
    at or past ``bits`` aliases, and the sets must decide."""

    @pytest.mark.parametrize("merge_identical", [True, False])
    @pytest.mark.parametrize("r_sets,s_sets", [
        ([{9}], [{1}]),             # R aliases onto S
        ([{1}], [{9}]),             # S aliases onto R
        ([{0}], [{8}]),             # max_element == bits on the S side
        ([{8}], [{0}]),             # ... and on the R side
        ([{2**64 + 3}], [{3}]),     # a huge element aliasing a small one
        ([{3}], [{2**64 + 3}]),
    ])
    def test_aliasing_gives_no_false_pair(self, merge_identical, r_sets, s_sets):
        r = Relation.from_sets(r_sets)
        s = Relation.from_sets(s_sets)
        assert exact_and_probe_loop_agree(r, s, bits=8, merge_identical=merge_identical) == []

    def test_exactness_is_read_per_side(self):
        scheme = ModuloScheme(8)
        assert scheme.is_exact_for(7) and scheme.is_exact_for(-1)
        assert not scheme.is_exact_for(8)
        assert not ScrambleScheme(1 << 20).is_exact_for(0)
        assert PTSJ(bits=8).prepare(Relation.from_sets([{1}])).exact_signatures
        assert not PTSJ(bits=8).prepare(Relation.from_sets([{9}])).exact_signatures
        assert not PTSJ(bits=8).prepare(Relation.from_sets([{8}])).exact_signatures
        assert not PTSJ(bits=64, scheme_factory=ScrambleScheme).prepare(
            Relation.from_sets([{1}])).exact_signatures

    def test_huge_element_on_both_sides_matches(self):
        r = Relation.from_sets([{2**64 + 3, 1}, {3}])
        s = Relation.from_sets([{2**64 + 3}, {1}])
        assert sorted(exact_and_probe_loop_agree(r, s, bits=8)) == [(0, 0), (0, 1)]

    @pytest.mark.parametrize("merge_identical", [True, False])
    def test_empty_sets_and_relations(self, merge_identical):
        r = Relation.from_sets([set(), {3}, {3, 5}])
        s = Relation.from_sets([set(), set(), {3}])
        assert PTSJ(bits=8).prepare(s).exact_signatures
        pairs = exact_and_probe_loop_agree(r, s, bits=8, merge_identical=merge_identical)
        assert sorted(pairs) == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
        empty = Relation([])
        assert exact_and_probe_loop_agree(empty, s, bits=8) == []
        assert exact_and_probe_loop_agree(r, empty, bits=8) == []

    @pytest.mark.parametrize("merge_identical", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(
        r_sets=st.lists(st.frozensets(st.integers(0, 12), max_size=8), max_size=25),
        s_sets=st.lists(st.frozensets(st.integers(0, 12), max_size=5), max_size=25),
        slack=st.sampled_from([0, 1, 2]),
    )
    def test_bits_around_max_element(self, merge_identical, r_sets, s_sets, slack):
        # bits = max_element is the last aliasing length (max_element and 0
        # share a bit); max_element + 1 and + 2 are exact.
        r = Relation.from_sets(r_sets)
        s = Relation.from_sets(s_sets + s_sets[::2], start_id=500)
        top = max([max(x, default=0) for x in r_sets + s_sets], default=0)
        exact_and_probe_loop_agree(r, s, bits=max(1, top + slack),
                                   merge_identical=merge_identical)

    def test_parallel_ptsj_on_exact_input(self):
        r = random_relation(60, 9, 40, seed=31)
        s = random_relation(60, 6, 40, seed=32)
        sequential = PTSJ(bits=40).join(r, s)
        assert PTSJ(bits=40).prepare(s).exact_signatures
        pooled = ParallelJoin(algorithm="ptsj", workers=2, chunks=4, bits=40).join(r, s)
        assert pooled.stats.algorithm == "parallel-ptsj"
        assert sorted(pooled.pairs) == sorted(sequential.pairs)
        assert set(pooled.pairs) == oracle_pairs(r, s)
        assert (pooled.stats.candidates, pooled.stats.verifications,
                pooled.stats.node_visits) == (sequential.stats.candidates,
                                              sequential.stats.verifications,
                                              sequential.stats.node_visits)
