"""Unit tests for the algorithm registry and top-level API."""

from __future__ import annotations

import pytest

from repro.core.base import JoinResult
from repro.core.registry import (
    available_algorithms,
    make_algorithm,
    set_containment_join,
)
from repro.errors import AlgorithmError
from repro.relations.relation import Relation
from tests.conftest import TABLE1_EXPECTED


class TestRegistry:
    def test_available_algorithms(self):
        names = available_algorithms()
        assert set(names) >= {"ptsj", "pretti+", "shj", "pretti", "tsj", "nested-loop"}

    @pytest.mark.parametrize("name", ["ptsj", "pretti+", "shj", "pretti", "tsj", "nested-loop"])
    def test_make_each_algorithm(self, name):
        algo = make_algorithm(name)
        assert algo.name == name

    @pytest.mark.parametrize(
        "alias,canonical",
        [("PTSJ", "ptsj"), ("PrettiPlus", "pretti+"), ("pretti_plus", "pretti+"),
         ("NL", "nested-loop"), ("nested_loop", "nested-loop")],
    )
    def test_aliases(self, alias, canonical):
        assert make_algorithm(alias).name == canonical

    def test_unknown_name_raises(self):
        with pytest.raises(AlgorithmError, match="unknown algorithm"):
            make_algorithm("quantum-join")

    def test_kwargs_forwarded(self):
        algo = make_algorithm("ptsj", bits=99)
        assert algo.requested_bits == 99


class TestTopLevelJoin:
    def test_table1_with_every_algorithm(self, table1_profiles, table1_preferences):
        for name in available_algorithms():
            result = set_containment_join(table1_profiles, table1_preferences, algorithm=name)
            assert isinstance(result, JoinResult)
            assert result.pair_set() == TABLE1_EXPECTED, name

    def test_auto_picks_pretti_plus_for_small_sets(self):
        s = Relation.from_sets([{1, 2}] * 10)
        r = Relation.from_sets([{1, 2, 3}])
        result = set_containment_join(r, s, algorithm="auto")
        assert result.stats.algorithm == "pretti+"

    def test_auto_picks_ptsj_for_big_sets(self):
        s = Relation.from_sets([set(range(100))] * 10)
        r = Relation.from_sets([set(range(120))])
        result = set_containment_join(r, s, algorithm="auto")
        assert result.stats.algorithm == "ptsj"

    def test_unknown_algorithm_raises(self, table1_profiles, table1_preferences):
        with pytest.raises(AlgorithmError):
            set_containment_join(table1_profiles, table1_preferences, algorithm="nope")


class TestJoinResultAPI:
    def test_iteration_and_len(self, table1_profiles, table1_preferences):
        result = set_containment_join(table1_profiles, table1_preferences, algorithm="ptsj")
        assert len(result) == 3
        assert set(iter(result)) == TABLE1_EXPECTED

    def test_sorted_pairs(self, table1_profiles, table1_preferences):
        result = set_containment_join(table1_profiles, table1_preferences, algorithm="ptsj")
        assert result.sorted_pairs() == sorted(TABLE1_EXPECTED)

    def test_stats_pairs_synced(self, table1_profiles, table1_preferences):
        result = set_containment_join(table1_profiles, table1_preferences, algorithm="shj")
        assert result.stats.pairs == len(result)

    def test_total_seconds_and_build_fraction(self, table1_profiles, table1_preferences):
        stats = set_containment_join(table1_profiles, table1_preferences, algorithm="pretti").stats
        assert stats.total_seconds >= stats.build_seconds
        assert 0.0 <= stats.build_fraction <= 1.0
