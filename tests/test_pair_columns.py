"""PairColumns: join output as two id columns behind a sequence of pairs.

Every producer returns :class:`~repro.core.base.PairColumns`; these tests
pin the sequence contract callers rely on (equality with lists in both
directions, indexing, slicing, pickling, the empty case) and the int64
fallback to plain list columns.
"""

from __future__ import annotations

import pickle
from array import array

import pytest

from repro.core.base import JoinResult, JoinStats, PairColumns, id_column
from repro.relations.relation import Relation, SetRecord

PAIRS = [(0, 5), (0, 7), (2, 5), (3, 1)]
BIG = 2**70


def test_from_pairs_holds_int64_columns():
    cols = PairColumns.from_pairs(PAIRS)
    assert type(cols.r_ids) is array and cols.r_ids.typecode == "q"
    assert type(cols.s_ids) is array and cols.s_ids.typecode == "q"
    assert list(cols.r_ids) == [0, 0, 2, 3]
    assert list(cols.s_ids) == [5, 7, 5, 1]


def test_from_pairs_accepts_any_iterable_and_passes_columns_through():
    cols = PairColumns.from_pairs(iter(PAIRS))
    assert cols == PAIRS
    assert PairColumns.from_pairs(cols) is cols


def test_equality_with_lists_in_both_directions():
    cols = PairColumns.from_pairs(PAIRS)
    assert cols == PAIRS
    assert PAIRS == cols
    assert cols == tuple(PAIRS)
    assert tuple(PAIRS) == cols
    assert cols != PAIRS[::-1]
    assert PAIRS[::-1] != cols
    assert cols != PAIRS[:-1]
    assert cols != [list(p) for p in PAIRS]  # a list pair is not a tuple pair
    assert cols != set(PAIRS)
    assert cols != None  # noqa: E711 - the comparison itself is under test


def test_two_column_objects_compare_by_content():
    assert PairColumns.from_pairs(PAIRS) == PairColumns.from_pairs(list(PAIRS))
    assert PairColumns.from_pairs(PAIRS) != PairColumns.from_pairs(PAIRS[1:])
    # An array-backed and a list-backed view of the same pairs are equal.
    wide = PairColumns([p[0] for p in PAIRS], [p[1] for p in PAIRS])
    assert wide == PairColumns.from_pairs(PAIRS)
    assert PairColumns.from_pairs(PAIRS) == wide


def test_len_iteration_and_indexing():
    cols = PairColumns.from_pairs(PAIRS)
    assert len(cols) == 4
    assert list(cols) == PAIRS
    assert list(reversed(cols)) == PAIRS[::-1]
    assert cols[0] == (0, 5)
    assert cols[-1] == (3, 1)
    assert all(type(pair) is tuple for pair in cols)
    with pytest.raises(IndexError):
        cols[4]
    assert (2, 5) in cols and (5, 2) not in cols
    assert cols.index((2, 5)) == 2
    assert cols.count((0, 7)) == 1


def test_slicing_returns_columns():
    cols = PairColumns.from_pairs(PAIRS)
    for part in (slice(1, 3), slice(None, None, -1), slice(2, None), slice(5, 9)):
        sliced = cols[part]
        assert isinstance(sliced, PairColumns)
        assert sliced == PAIRS[part]


def test_read_only_and_unhashable():
    cols = PairColumns.from_pairs(PAIRS)
    assert not hasattr(cols, "append") and not hasattr(cols, "extend")
    # No materialised list is cached anywhere on the object.
    assert not hasattr(cols, "__dict__")
    with pytest.raises(TypeError):
        hash(cols)


@pytest.mark.parametrize("pairs", [PAIRS, [(BIG, -BIG), (-1, 3)], []])
def test_pickle_round_trip(pairs):
    cols = PairColumns.from_pairs(pairs)
    back = pickle.loads(pickle.dumps(cols))
    assert back == cols == pairs
    assert type(back.r_ids) is type(cols.r_ids)


def test_empty_case():
    cols = PairColumns.from_pairs([])
    assert len(cols) == 0 and not cols
    assert cols == [] and [] == cols
    assert list(cols) == []
    assert cols[0:3] == []
    assert PairColumns.concat([]) == []


@pytest.mark.parametrize(
    "pairs",
    [[(-3, 1), (BIG, 2)], [(1, -BIG)], [(2**63, 0)], [(0, -(2**63) - 1)]],
)
def test_ids_beyond_int64_fall_back_to_lists(pairs):
    cols = PairColumns.from_pairs(pairs)
    assert type(cols.r_ids) is list and type(cols.s_ids) is list
    assert cols == pairs and list(cols) == pairs


def test_int64_edges_and_negative_ids_stay_arrays():
    pairs = [(-(2**63), 2**63 - 1), (-1, -7)]
    cols = PairColumns.from_pairs(pairs)
    assert type(cols.r_ids) is array
    assert cols == pairs


def test_concat_keeps_order_and_widens_once():
    narrow = PairColumns.from_pairs(PAIRS)
    wide = PairColumns.from_pairs([(BIG, -BIG)])
    joined = PairColumns.concat([narrow, wide, narrow])
    assert joined == PAIRS + [(BIG, -BIG)] + PAIRS
    assert type(joined.r_ids) is list
    both_narrow = PairColumns.concat([narrow, narrow])
    assert type(both_narrow.r_ids) is array and both_narrow == PAIRS * 2


def test_join_result_converts_a_list_of_pairs():
    stats = JoinStats(algorithm="test")
    result = JoinResult(PAIRS, stats)
    assert isinstance(result.pairs, PairColumns)
    assert result.pairs == PAIRS and stats.pairs == 4
    assert result.sorted_pairs() == sorted(PAIRS)
    assert result.pair_set() == frozenset(PAIRS)
    assert list(result) == PAIRS and len(result) == 4


def test_id_column_chooses_once_per_join():
    small = Relation([SetRecord(-5, frozenset({1})), SetRecord(2**63 - 1, frozenset())])
    big = Relation([SetRecord(BIG, frozenset({1}))])
    assert small.ids_fit_int64() and not big.ids_fit_int64()
    assert Relation([]).ids_fit_int64()
    col = id_column(small, small)
    assert type(col()) is array and col((3,)) * 2 == array("q", [3, 3])
    assert id_column(small, big) is list
    assert id_column(big, small) is list
