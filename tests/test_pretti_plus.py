"""Unit tests for PRETTI+ (the paper's second contribution)."""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.pretti import PRETTI
from repro.bench.memory import deep_sizeof
from repro.core import pretti_plus
from repro.core.pretti_plus import PRETTIPlus
from repro.datagen.realworld import make_surrogate
from repro.index.inverted import InvertedIndex
from repro.kernels import available_backends, get_backend, use_backend
from repro.relations.relation import Relation, SetRecord
from tests.conftest import TABLE1_EXPECTED, oracle_pairs, random_relation


class TestCorrectness:
    def test_table1_example(self, table1_profiles, table1_preferences):
        result = PRETTIPlus().join(table1_profiles, table1_preferences)
        assert result.pair_set() == TABLE1_EXPECTED

    def test_matches_oracle_random(self, small_pair):
        r, s = small_pair
        assert PRETTIPlus().join(r, s).pair_set() == oracle_pairs(r, s)

    def test_self_join(self):
        rel = random_relation(80, 8, 50, seed=80)
        assert PRETTIPlus().join(rel, rel).pair_set() == oracle_pairs(rel, rel)

    def test_empty_relations(self):
        empty = Relation([])
        other = Relation.from_sets([{1}])
        assert len(PRETTIPlus().join(empty, other)) == 0
        assert len(PRETTIPlus().join(other, empty)) == 0

    def test_empty_sets_in_s_match_all_r(self):
        r = Relation.from_sets([{1}, {2, 3}, set()])
        s = Relation.from_sets([set()])
        result = PRETTIPlus().join(r, s)
        assert result.pair_set() == {(0, 0), (1, 0), (2, 0)}

    def test_duplicate_sets(self):
        r = Relation.from_sets([{5, 6, 7}])
        s = Relation.from_sets([{5, 6}, {5, 6}])
        assert PRETTIPlus().join(r, s).pair_set() == {(0, 0), (0, 1)}

    def test_matches_pretti_everywhere(self):
        """PRETTI+ is an optimisation of PRETTI, never a semantic change."""
        for seed in (81, 82, 83):
            r = random_relation(70, 9, 45, seed=seed)
            s = random_relation(70, 7, 45, seed=seed + 10)
            assert (
                PRETTIPlus().join(r, s).pair_set()
                == PRETTI().join(r, s).pair_set()
            )


class TestStatsAndStructure:
    def test_no_verifications_needed(self, small_pair):
        """IR-based joins are exact by construction (Sec. IV)."""
        r, s = small_pair
        stats = PRETTIPlus().join(r, s).stats
        assert stats.verifications == 0
        assert stats.precision == 1.0

    def test_fewer_index_nodes_than_pretti(self):
        """The Patricia compression (the point of PRETTI+)."""
        r = random_relation(40, 6, 30, seed=84)
        s = random_relation(200, 20, 400, seed=85, min_cardinality=10)
        plus_nodes = PRETTIPlus().join(r, s).stats.index_nodes
        plain_nodes = PRETTI().join(r, s).stats.index_nodes
        assert plus_nodes < plain_nodes / 2

    def test_fewer_node_visits_than_pretti(self):
        r = random_relation(60, 8, 60, seed=86)
        s = random_relation(150, 15, 300, seed=87, min_cardinality=8)
        plus = PRETTIPlus().join(r, s).stats
        plain = PRETTI().join(r, s).stats
        assert plus.node_visits < plain.node_visits

    def test_intersections_counted(self, small_pair):
        r, s = small_pair
        stats = PRETTIPlus().join(r, s).stats
        assert stats.intersections > 0

    def test_no_signature_machinery(self, small_pair):
        r, s = small_pair
        assert PRETTIPlus().join(r, s).stats.signature_bits == 0

    def test_built_trie_accessible(self, small_pair):
        r, s = small_pair
        algo = PRETTIPlus()
        algo.join(r, s)
        algo.built_trie().check_invariants()

    def test_built_trie_before_join_raises(self):
        with pytest.raises(RuntimeError):
            PRETTIPlus().built_trie()


# ----------------------------------------------------------------------
# Set-at-a-time walk: rank bitsets for dense candidates, lists for sparse
# ----------------------------------------------------------------------
#: Sparse bound ``n // 1 = n``: every entry below the root is a rank list,
#: i.e. the list-only walk.
LIST_ONLY = 1
#: Sparse bound 0: candidates stay bitsets until they empty.
ALL_DENSE = 1 << 62


def walk(index, r: Relation, divisor: int):
    with mock.patch.object(pretti_plus, "SPARSE_DIVISOR", divisor):
        return index.probe_many(r)


def walk_signature(result) -> tuple:
    return result.pairs, result.stats.node_visits, result.stats.intersections


def with_rids(sets, layout: str) -> Relation:
    """``sets`` as a relation whose rids are 0..n-1, offset, gapped, or gapped
    and in no particular order."""
    n = len(sets)
    rids = {
        "dense": list(range(n)),
        "offset": [1000 + i for i in range(n)],
        "gaps": [3 + 7 * i * i for i in range(n)],
        "shuffled": [3 + 7 * i * i for i in range(n)],
    }[layout]
    if layout == "shuffled":
        random.Random(n).shuffle(rids)
    return Relation([SetRecord(rid, frozenset(e)) for rid, e in zip(rids, sets)])


class CountingKernel:
    """Forwards ``intersect_sorted`` to a real backend, counting calls."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0

    def intersect_sorted(self, a, b):
        self.calls += 1
        return self.inner.intersect_sorted(a, b)


@pytest.fixture
def spies(monkeypatch):
    """Counts list intersections, posting-bitset refinements and
    bitset-to-list switches (a bitset that empties is dropped, not
    switched)."""
    counts = {"switches": 0, "bitsets": 0}
    kernel = CountingKernel(get_backend())
    monkeypatch.setattr(InvertedIndex, "kernel", property(lambda self: kernel))
    peel, posting_bits = pretti_plus._peel, InvertedIndex.posting_bits

    def counting_peel(bits):
        ranks = peel(bits)
        counts["switches"] += bool(ranks)
        return ranks

    def counting_posting_bits(self, element):
        counts["bitsets"] += 1
        return posting_bits(self, element)

    monkeypatch.setattr(pretti_plus, "_peel", counting_peel)
    monkeypatch.setattr(InvertedIndex, "posting_bits", counting_posting_bits)
    counts["kernel"] = kernel
    return counts


@pytest.mark.parametrize("backend", available_backends())
class TestHybridWalk:
    """The hybrid walk must emit what the list-only walk emits: the same
    pairs in the same order, and the same ``node_visits`` and
    ``intersections``."""

    @settings(max_examples=60, deadline=None)
    @given(
        r_sets=st.lists(st.frozensets(st.integers(0, 30), max_size=10), max_size=60),
        s_sets=st.lists(st.frozensets(st.integers(0, 30), max_size=5), max_size=30),
        layout=st.sampled_from(["dense", "offset", "gaps", "shuffled"]),
        divisor=st.sampled_from([2, 3, 8, 64, 512, ALL_DENSE]),
    )
    def test_hybrid_equals_list_only(self, backend, r_sets, s_sets, layout, divisor):
        r = with_rids(r_sets, layout)
        s = Relation.from_sets(s_sets, start_id=500)
        with use_backend(backend):
            index = PRETTIPlus().prepare(s)
            hybrid = walk(index, r, divisor)
            lists = walk(index, r, LIST_ONLY)
        assert walk_signature(hybrid) == walk_signature(lists)
        assert set(hybrid.pairs) == oracle_pairs(r, s)

    def test_empty_r(self, backend):
        s = random_relation(30, 4, 20, seed=90)
        with use_backend(backend):
            result = PRETTIPlus().prepare(s).probe_many(Relation([]))
        assert result.pairs == []
        assert (result.stats.node_visits, result.stats.intersections) == (0, 0)

    @pytest.mark.parametrize("layout", ["dense", "offset", "gaps", "shuffled"])
    def test_rid_layouts_match_oracle(self, backend, layout):
        base = random_relation(700, 8, 40, seed=91)
        r = with_rids([rec.elements for rec in base], layout)
        s = random_relation(200, 4, 40, seed=92)
        with use_backend(backend):
            index = PRETTIPlus().prepare(s)
            hybrid = walk(index, r, 64)
            lists = walk(index, r, LIST_ONLY)
        assert walk_signature(hybrid) == walk_signature(lists)
        assert set(hybrid.pairs) == oracle_pairs(r, s)

    def test_all_dense_never_intersects_lists(self, backend, spies):
        r = random_relation(300, 10, 30, seed=93)
        s = random_relation(120, 4, 30, seed=94)
        with use_backend(backend):
            index = PRETTIPlus().prepare(s)
            lists = walk(index, r, LIST_ONLY)
            calls = spies["kernel"].calls
            dense = walk(index, r, ALL_DENSE)
        assert walk_signature(dense) == walk_signature(lists)
        assert calls > 0 and spies["kernel"].calls == calls
        assert spies["switches"] == 0 and spies["bitsets"] > 0

    def test_all_sparse_never_uses_bitsets(self, backend, spies):
        r = random_relation(300, 10, 30, seed=95)
        s = random_relation(120, 4, 30, seed=96)
        with use_backend(backend):
            result = walk(PRETTIPlus().prepare(s), r, LIST_ONLY)
        assert set(result.pairs) == oracle_pairs(r, s)
        assert spies["bitsets"] == 0 and spies["switches"] == 0
        assert spies["kernel"].calls > 0

    def test_walk_switches_from_bitset_to_list(self, backend, spies):
        # 40 R-tuples with divisor 4: the sparse bound is 10.  Entering the
        # single S node, elements 1 and 2 refine by bitset (40 and 30 bits
        # left), element 3 leaves ranks 20..29 (10 bits: peeled into a list),
        # and element 4 intersects that list with ranks 25..39.
        r = Relation.from_sets(
            [{1} | ({2} if i < 30 else set()) | ({3} if i >= 20 else set())
             | ({4} if i >= 25 else set()) for i in range(40)]
        )
        s = Relation.from_sets([{1, 2, 3, 4}])
        with use_backend(backend):
            index = PRETTIPlus().prepare(s)
            hybrid = walk(index, r, 4)
        assert hybrid.pairs == [(i, 0) for i in range(25, 30)]
        assert (hybrid.stats.node_visits, hybrid.stats.intersections) == (2, 4)
        assert spies["switches"] == 1 and spies["kernel"].calls == 1
        with use_backend(backend):
            assert walk_signature(walk(index, r, LIST_ONLY)) == walk_signature(hybrid)

    def test_default_bound_on_a_flickr_batch(self, backend):
        r = make_surrogate("flickr", 1500, seed=97)
        s = make_surrogate("flickr", 1500, seed=98)
        with use_backend(backend):
            index = PRETTIPlus().prepare(s)
            hybrid = index.probe_many(r)
            lists = walk(index, r, LIST_ONLY)
        assert walk_signature(hybrid) == walk_signature(lists)
        assert hybrid.pairs

    @pytest.mark.parametrize("layout", ["dense", "beyond-int64"])
    def test_sixteen_record_batches_match_per_record_probes(self, backend, layout):
        """The serve path: 16-record R batches, where the sparse bound is 0
        and candidates stay bitsets until they empty."""
        s = random_relation(300, 4, 30, seed=99)
        base = random_relation(160, 9, 30, seed=100)
        shift = 2**70 if layout == "beyond-int64" else 0
        r = Relation([SetRecord(rec.rid + shift, rec.elements) for rec in base])
        assert pretti_plus.sparse_bound(16) == 0
        with use_backend(backend):
            index = PRETTIPlus().prepare(s)
            for lo in range(0, len(r), 16):
                batch = Relation(r.records[lo:lo + 16])
                pairs = list(index.probe_many(batch).pairs)
                assert by_probe_record(pairs, batch) == per_record_pairs(index, batch)
                assert set(pairs) == oracle_pairs(batch, s)


def by_probe_record(pairs, r: Relation) -> list[tuple[int, int]]:
    """``pairs`` stably regrouped by their R record's position in ``r``."""
    position = {rec.rid: i for i, rec in enumerate(r)}
    return sorted(pairs, key=lambda pair: position[pair[0]])


def per_record_pairs(index, r: Relation) -> list[tuple[int, int]]:
    """The pairs one streaming ``probe()`` per R record emits, in order.

    The batch walk and each per-record walk visit children in the same
    order, so regrouping the batch's pairs by R record must give these.
    """
    return [(rec.rid, s_id) for rec in r for s_id in index.probe(rec)]


class TestMemoryObjects:
    def test_counts_every_bitset_the_walk_can_build(self):
        r = make_surrogate("flickr", 2048, seed=99)
        s = make_surrogate("flickr", 512, seed=100)
        prepared = PRETTIPlus().prepare(s)
        trie, inverted = prepared.memory_objects(r)
        assert trie is prepared.trie
        bound = pretti_plus.sparse_bound(len(r))
        dense = {e for e, ids in inverted.lists.items() if len(ids) > bound}
        assert dense and set(inverted.posting_bitsets) == dense
        assert deep_sizeof(inverted) > deep_sizeof(InvertedIndex(r))

    def test_walk_builds_no_bitset_beyond_the_counted_ones(self, spies):
        r = make_surrogate("flickr", 2048, seed=99)
        s = make_surrogate("flickr", 512, seed=100)
        prepared = PRETTIPlus().prepare(s)
        counted = set(prepared.memory_objects(r)[1].posting_bitsets)
        built: set[int] = set()
        posting_bits = InvertedIndex.posting_bits

        def recording(self, element):
            built.add(element)
            return posting_bits(self, element)

        with mock.patch.object(InvertedIndex, "posting_bits", recording):
            prepared.probe_many(r)
        assert built and built <= counted
