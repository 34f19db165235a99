"""Tests for the build-once/probe-many prepared-index layer.

Covers the contract of :class:`repro.core.base.PreparedIndex` across every
registered algorithm: probe results and operation counters match the
one-shot ``join``, a prepared index serves many batches without rebuilding,
streaming probes stop verification work early, and cumulative statistics
count the build exactly once.
"""

from __future__ import annotations

import pytest

from repro.core.base import JoinStats, PreparedIndex
from repro.core.registry import (
    ALGORITHMS,
    make_algorithm,
    plan,
    prepare_index,
)
from repro.errors import AlgorithmError
from repro.relations.relation import Relation, SetRecord
from tests.conftest import oracle_pairs, random_relation

ALL_NAMES = tuple(ALGORITHMS)

#: Algorithms whose constructor accepts an explicit signature length.
SIGNATURE_NAMES = ("ptsj", "shj", "tsj")

COUNTERS = ("candidates", "verifications", "node_visits", "intersections")


def pinned_kwargs(name: str) -> dict:
    """Kwargs that make index parameters independent of any probe hint."""
    return {"bits": 64} if name in SIGNATURE_NAMES else {}


@pytest.fixture
def batches() -> tuple[Relation, Relation, Relation]:
    """(s, r1, r2) with disjoint probe ids so batches can be unioned."""
    s = random_relation(50, 5, 36, seed=81)
    r1 = random_relation(30, 8, 36, seed=82)
    r2 = random_relation(30, 8, 36, seed=83, start_id=30)
    return s, r1, r2


class TestParityWithJoin:
    """prepare + probe_many reproduces join() bit for bit."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_pairs_and_counters_match_hinted_prepare(self, name, small_pair):
        r, s = small_pair
        legacy = make_algorithm(name).join(r, s)
        index = make_algorithm(name).prepare(s, probe_hint=r)
        result = index.probe_many(r)
        assert result.pair_set() == legacy.pair_set()
        assert result.stats.signature_bits == legacy.stats.signature_bits
        assert result.stats.index_nodes == legacy.stats.index_nodes
        for counter in COUNTERS:
            assert getattr(result.stats, counter) == getattr(legacy.stats, counter), counter

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_pairs_and_counters_match_unhinted_prepare(self, name, small_pair):
        """With pinned parameters, a hint-free prepare is also identical."""
        r, s = small_pair
        kwargs = pinned_kwargs(name)
        legacy = make_algorithm(name, **kwargs).join(r, s)
        result = make_algorithm(name, **kwargs).prepare(s).probe_many(r)
        assert result.pair_set() == legacy.pair_set()
        for counter in COUNTERS:
            assert getattr(result.stats, counter) == getattr(legacy.stats, counter), counter

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_matches_oracle(self, name, small_pair):
        r, s = small_pair
        index = make_algorithm(name, **pinned_kwargs(name)).prepare(s)
        assert index.probe_many(r).pair_set() == oracle_pairs(r, s)


class TestIndexReuse:
    """One build serves any number of probe batches."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_two_batches_equal_combined_join(self, name, batches):
        s, r1, r2 = batches
        kwargs = pinned_kwargs(name)
        index = make_algorithm(name, **kwargs).prepare(s)
        got = index.probe_many(r1).pair_set() | index.probe_many(r2).pair_set()
        combined = Relation(list(r1) + list(r2))
        want = make_algorithm(name, **kwargs).join(combined, s).pair_set()
        assert got == want

    def test_second_probe_performs_no_build(self, batches):
        s, r1, r2 = batches
        index = prepare_index(s, algorithm="ptsj")
        first = index.probe_many(r1)
        second = index.probe_many(r2)
        assert first.stats.build_seconds == 0.0
        assert second.stats.build_seconds == 0.0
        assert first.stats.extras["probe_calls"] == 1
        assert first.stats.extras["reused_index"] == 0
        assert second.stats.extras["probe_calls"] == 2
        assert second.stats.extras["reused_index"] == 1

    def test_join_sets_build_time_probe_many_does_not(self, batches):
        s, r1, _ = batches
        joined = make_algorithm("ptsj").join(r1, s)
        assert joined.stats.build_seconds > 0.0
        index = prepare_index(s, algorithm="ptsj")
        assert index.build_seconds > 0.0
        assert index.probe_many(r1).stats.build_seconds == 0.0

    def test_index_survives_later_prepare_on_same_instance(self, batches):
        """A prepared index is a snapshot; rebuilding cannot corrupt it."""
        s, r1, _ = batches
        algorithm = make_algorithm("ptsj", bits=64)
        index = algorithm.prepare(s)
        want = index.probe_many(r1).pair_set()
        algorithm.prepare(random_relation(20, 3, 36, seed=99))
        assert index.probe_many(r1).pair_set() == want

    def test_probe_calls_property(self, batches):
        s, r1, r2 = batches
        index = prepare_index(s, algorithm="pretti")
        assert index.probe_calls == 0
        index.probe_many(r1)
        index.probe_many(r2)
        assert index.probe_calls == 2
        assert len(index) == len(s)


class TestStreamingProbe:
    """probe() is a lazy generator: early exit skips remaining work."""

    def test_single_record_probe_matches_oracle(self, small_pair):
        r, s = small_pair
        index = prepare_index(s, algorithm="ptsj", bits=64)
        for rec in r:
            got = set(index.probe(rec, JoinStats()))
            want = {ss.rid for ss in s if rec.elements >= ss.elements}
            assert got == want

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_streaming_matches_probe_many(self, name, small_pair):
        r, s = small_pair
        index = make_algorithm(name, **pinned_kwargs(name)).prepare(s)
        want = index.probe_many(r).pair_set()
        got = {
            (rec.rid, s_id)
            for rec in r
            for s_id in index.probe(rec, JoinStats())
        }
        assert got == want

    def test_early_exit_skips_verifications(self):
        """Consuming one match runs only the verifications needed for it."""
        s = Relation.from_sets([{i} for i in range(50)])
        index = prepare_index(s, algorithm="ptsj", bits=64)
        record = SetRecord(0, frozenset(range(50)))

        full = JoinStats()
        assert sum(1 for _ in index.probe(record, full)) == 50
        assert full.verifications == 50

        partial = JoinStats()
        gen = index.probe(record, partial)
        next(gen)
        gen.close()
        assert partial.verifications < full.verifications

    def test_probe_without_stats_accumulates_on_index(self, small_pair):
        r, s = small_pair
        index = prepare_index(s, algorithm="ptsj", bits=64)
        record = next(iter(r))
        list(index.probe(record))
        assert index.join_stats().extras["probe_records"] == 1


class TestCumulativeStats:
    def test_join_stats_counts_build_once(self, batches):
        s, r1, r2 = batches
        index = prepare_index(s, algorithm="ptsj", bits=64)
        a = index.probe_many(r1)
        b = index.probe_many(r2)
        total = index.join_stats()
        assert total.build_seconds == index.build_seconds
        assert total.probe_seconds == pytest.approx(
            a.stats.probe_seconds + b.stats.probe_seconds
        )
        for counter in COUNTERS:
            assert getattr(total, counter) == (
                getattr(a.stats, counter) + getattr(b.stats, counter)
            ), counter
        assert total.pairs == a.stats.pairs + b.stats.pairs
        assert total.extras["probe_calls"] == 2
        assert total.extras["reused_index"] == 1
        assert total.extras["probe_records"] == len(r1) + len(r2)

    def test_build_extras_copied_into_probe_stats(self, batches):
        s, r1, _ = batches
        index = prepare_index(s, algorithm="shj")
        result = index.probe_many(r1)
        assert result.stats.extras["partial_bits"] == index.build_extras["partial_bits"]


class TestPrepareIndexRegistry:
    def test_auto_follows_regime_rule(self, batches):
        s, _, _ = batches
        index = prepare_index(s)
        assert index.algorithm == plan(None, s).algorithm

    def test_explicit_algorithm_and_alias(self, batches):
        s, _, _ = batches
        assert prepare_index(s, algorithm="nested_loop").algorithm == "nested-loop"
        assert isinstance(prepare_index(s, algorithm="PTSJ"), PreparedIndex)

    def test_unknown_algorithm_raises(self, batches):
        s, _, _ = batches
        with pytest.raises(AlgorithmError):
            prepare_index(s, algorithm="nope")

    def test_probe_hint_matches_join_parameterisation(self, small_pair):
        r, s = small_pair
        hinted = prepare_index(s, algorithm="ptsj", probe_hint=r)
        joined = make_algorithm("ptsj").join(r, s)
        assert hinted.signature_bits == joined.stats.signature_bits


class TestExtensionReuse:
    def test_patricia_set_index_adopts_prepared_trie(self, small_pair):
        from repro.extensions import PatriciaSetIndex

        r, s = small_pair
        index = prepare_index(s, algorithm="ptsj", bits=64)
        patricia = PatriciaSetIndex.from_prepared(index)
        assert patricia.trie is index.trie
        for rec in r:
            got = {rid for g in patricia.subsets_of(rec.elements) for rid in g.ids}
            assert got == set(index.probe(rec, JoinStats()))

    def test_from_prepared_rejects_non_patricia_indexes(self, small_pair):
        from repro.extensions import PatriciaSetIndex

        _, s = small_pair
        with pytest.raises(AlgorithmError):
            PatriciaSetIndex.from_prepared(prepare_index(s, algorithm="pretti"))

    def test_build_patricia_index_empty_relation_raises(self):
        from repro.extensions import build_patricia_index

        with pytest.raises(AlgorithmError):
            build_patricia_index(Relation([]))
