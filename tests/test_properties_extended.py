"""Property-based tests for the later-added components.

Covers the in-process element-partitioned join, the Jaccard join,
the densify/relabel transforms and the dynamic Patricia index — each
against an independent formulation of its contract.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.nested_loop import nested_loop_join_pairs
from repro.core.ptsj import PTSJ
from repro.exec.sharded import ShardedJoin
from repro.extensions.set_index import PatriciaSetIndex
from repro.extensions.similarity import jaccard_join
from repro.relations.relation import Relation
from repro.relations.transforms import apply_universe, densify, relabel_by_frequency

element_sets = st.frozensets(st.integers(min_value=0, max_value=50), max_size=10)
set_lists = st.lists(element_sets, min_size=0, max_size=16)


class TestElementPartitionedProperties:
    @settings(max_examples=30, deadline=None)
    @given(r_sets=set_lists, s_sets=set_lists, shards=st.integers(1, 12))
    def test_in_process_shards_equal_oracle(self, r_sets, s_sets, shards):
        r, s = Relation.from_sets(r_sets), Relation.from_sets(s_sets)
        got = ShardedJoin(algorithm="ptsj", workers=1,
                          shards=shards).join(r, s).pair_set()
        assert got == set(nested_loop_join_pairs(r, s))


class TestJaccardProperties:
    @settings(max_examples=30, deadline=None)
    @given(r_sets=set_lists, s_sets=set_lists,
           threshold=st.floats(0.1, 1.0, allow_nan=False))
    def test_jaccard_equals_oracle(self, r_sets, s_sets, threshold):
        r, s = Relation.from_sets(r_sets), Relation.from_sets(s_sets)
        if len(s) == 0:
            return
        got = jaccard_join(r, s, threshold, bits=64).pair_set()
        expected = set()
        for rr in r:
            for ss in s:
                union = len(rr.elements | ss.elements)
                j = (len(rr.elements & ss.elements) / union) if union else 1.0
                if j >= threshold:
                    expected.add((rr.rid, ss.rid))
        assert got == expected


class TestTransformProperties:
    @settings(max_examples=40, deadline=None)
    @given(r_sets=set_lists, s_sets=set_lists)
    def test_densify_preserves_join(self, r_sets, s_sets):
        r, s = Relation.from_sets(r_sets), Relation.from_sets(s_sets)
        dense_s, uni = densify(s)
        dense_r = apply_universe(r, uni)
        got = PTSJ(bits=64).join(dense_r, dense_s).pair_set()
        assert got == set(nested_loop_join_pairs(r, s))

    @settings(max_examples=40, deadline=None)
    @given(sets=set_lists)
    def test_relabel_is_a_bijection_on_used_elements(self, sets):
        rel = Relation.from_sets(sets)
        dense, uni = relabel_by_frequency(rel)
        used = rel.domain()
        assert len(uni) == len(used)
        recovered = frozenset(
            uni.decode(e) for rec in dense for e in rec.elements
        )
        assert recovered == used


class TestDynamicIndexProperties:
    @settings(max_examples=30, deadline=None)
    @given(sets=st.lists(element_sets, min_size=1, max_size=20), data=st.data())
    def test_add_discard_matches_fresh_index(self, sets, data):
        """An index maintained by add/discard answers like one rebuilt
        from scratch on the surviving tuples."""
        index = PatriciaSetIndex(Relation.from_sets(sets), bits=48)
        removed = data.draw(st.sets(st.integers(0, len(sets) - 1)))
        for rid in removed:
            assert index.discard(rid, sets[rid])
        survivors = {i: s for i, s in enumerate(sets) if i not in removed}
        query = data.draw(element_sets)
        got = {id_ for g in index.subsets_of(query) for id_ in g.ids}
        expected = {i for i, s in survivors.items() if s <= query}
        assert got == expected
        index.trie.check_invariants()
