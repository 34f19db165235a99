"""Unit tests for the element-space Patricia trie (PRETTI+, Algorithm 8)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TrieError
from repro.tries.set_patricia import SetPatriciaTrie
from repro.tries.set_trie import SetTrie


def build(sets: list[tuple[int, ...]]) -> SetPatriciaTrie:
    trie = SetPatriciaTrie()
    for i, s in enumerate(sets):
        trie.insert(s, rid=i)
    return trie


class TestInsertCases:
    def test_single_set_one_node(self):
        """A lone set collapses to one node below the root."""
        trie = build([(1, 3, 5)])
        assert trie.node_count() == 2
        assert trie.root.children[1].prefix == (1, 3, 5)

    def test_case1_set_ends_at_existing_node(self):
        trie = build([(1, 2, 3), (1, 2, 3)])
        node = trie.root.children[1]
        assert node.tuples == [0, 1]
        assert len(trie) == 2

    def test_case2_descend_into_child(self):
        trie = build([(1, 2), (1, 2, 3, 4)])
        parent = trie.root.children[1]
        assert parent.prefix == (1, 2)
        assert parent.children[3].prefix == (3, 4)
        assert parent.children[3].tuples == [1]

    def test_case3_split_new_parent_holds_tuple(self):
        """Inserting a strict prefix of an existing run splits the node and
        the new common node holds the new tuple."""
        trie = build([(1, 2, 3, 4), (1, 2)])
        common = trie.root.children[1]
        assert common.prefix == (1, 2)
        assert common.tuples == [1]
        assert common.children[3].prefix == (3, 4)
        assert common.children[3].tuples == [0]

    def test_case4_split_with_sibling(self):
        """Diverging mid-run creates a common parent plus a sibling leaf."""
        trie = build([(1, 2, 3), (1, 2, 5)])
        common = trie.root.children[1]
        assert common.prefix == (1, 2)
        assert common.tuples == []
        assert common.children[3].prefix == (3,)
        assert common.children[5].prefix == (5,)

    def test_paper_figure4(self):
        """Fig. 4: inserting {b,d}, {b,f,g}, {a,c,h} gives nodes
        [ach], [b] -> [d], [fg]."""
        # a..h -> 0..7; p1={b,d}=(1,3), p2={b,f,g}=(1,5,6), p3={a,c,h}=(0,2,7)
        trie = build([(1, 3), (1, 5, 6), (0, 2, 7)])
        assert trie.root.children[0].prefix == (0, 2, 7)   # ach
        b_node = trie.root.children[1]
        assert b_node.prefix == (1,)
        assert b_node.children[3].prefix == (3,)           # d
        assert b_node.children[5].prefix == (5, 6)         # fg
        assert trie.node_count() == 5                       # root + 4

    def test_empty_set_at_root(self):
        trie = build([()])
        assert trie.root.tuples == [0]

    def test_non_ascending_rejected(self):
        with pytest.raises(TrieError):
            SetPatriciaTrie().insert((2, 1), rid=0)
        with pytest.raises(TrieError):
            SetPatriciaTrie().insert((1, 1), rid=0)


class TestCompression:
    def test_fewer_nodes_than_plain_trie(self):
        """The whole point of PRETTI+: collapsed chains (Fig. 6a memory)."""
        rng = random.Random(50)
        sets = [tuple(sorted(rng.sample(range(1000), 20))) for _ in range(100)]
        patricia = build(sets)
        plain = SetTrie()
        for i, s in enumerate(sets):
            plain.insert(s, rid=i)
        assert patricia.node_count() < plain.node_count() / 3

    def test_node_count_bounded(self):
        """A Patricia trie over k sets has at most 2k + 1 nodes."""
        rng = random.Random(51)
        sets = [tuple(sorted(rng.sample(range(200), rng.randint(0, 12)))) for _ in range(300)]
        trie = build(sets)
        assert trie.node_count() <= 2 * len(sets) + 1

    def test_invariants_random(self):
        rng = random.Random(52)
        sets = [tuple(sorted(rng.sample(range(60), rng.randint(0, 10)))) for _ in range(400)]
        trie = build(sets)
        trie.check_invariants()

    def test_stored_sets_roundtrip(self):
        rng = random.Random(53)
        sets = [tuple(sorted(rng.sample(range(80), rng.randint(0, 8)))) for _ in range(200)]
        trie = build(sets)
        trie.check_invariants()
        recovered: dict[tuple[int, ...], list[int]] = {}
        for elements, rids in trie.stored_sets():
            recovered[elements] = sorted(rids)
        expected: dict[tuple[int, ...], list[int]] = {}
        for i, s in enumerate(sets):
            expected.setdefault(s, []).append(i)
        assert recovered == expected

    def test_height_bounded_by_set_trie_height(self):
        rng = random.Random(54)
        sets = [tuple(sorted(rng.sample(range(100), 15))) for _ in range(50)]
        patricia = build(sets)
        plain = SetTrie()
        for i, s in enumerate(sets):
            plain.insert(s, rid=i)
        assert patricia.height() <= plain.height()

    def test_walk_reconstructs_full_paths(self):
        trie = build([(1, 2, 3), (1, 2, 5), (1, 2)])
        paths = {path for node, path in trie.walk() if node.tuples}
        assert paths == {(1, 2, 3), (1, 2, 5), (1, 2)}


# ----------------------------------------------------------------------
# One-pass grouped build
# ----------------------------------------------------------------------
def node_fields(trie: SetPatriciaTrie) -> list[tuple]:
    """Every node's run, resident ids and child keys (in dict order), pre-order."""
    out = []
    stack = [trie.root]
    while stack:
        node = stack.pop()
        out.append((node.prefix, list(node.tuples), list(node.children)))
        stack.extend(node.children.values())
    return out


def grouped(sets: list[frozenset[int]]) -> tuple[SetPatriciaTrie, int]:
    """The bulk-built twin of :func:`build`: one group per distinct set,
    in first-occurrence order."""
    groups: dict[frozenset[int], list[int]] = {}
    for i, s in enumerate(sets):
        groups.setdefault(s, []).append(i)
    return SetPatriciaTrie.from_groups(groups.items())


#: Small domains make empty sets, repeats and sets that are prefixes of
#: others (Algorithm 8's split cases 3 and 4) common.
SETS = st.lists(st.frozensets(st.integers(0, 9), max_size=6), max_size=40)


class TestFromGroups:
    @settings(max_examples=300, deadline=None)
    @given(sets=SETS)
    def test_matches_insert_loop_node_for_node(self, sets):
        incremental = build([tuple(sorted(s)) for s in sets])
        trie, nodes = grouped(sets)
        trie.check_invariants()
        assert node_fields(trie) == node_fields(incremental)
        assert nodes == trie.node_count() == incremental.node_count()
        assert len(trie) == len(incremental) == len(sets)

    @pytest.mark.parametrize("sets", [
        [(1, 2, 3, 4), (1, 2)],           # case 3: the new common node ends the set
        [(1, 2, 3), (1, 2, 5)],           # case 4: split with a new sibling
        [(1, 2), (1, 2, 3, 4), (1, 2)],   # case 2 descent, then case 1 repeat
        [(), (1,), ()],                   # the empty set ends at the root
        [],
    ])
    def test_split_cases(self, sets):
        trie, nodes = grouped([frozenset(s) for s in sets])
        incremental = build(sets)
        assert node_fields(trie) == node_fields(incremental)
        assert nodes == incremental.node_count()

    def test_hands_over_the_id_lists(self):
        ids = [4, 9]
        trie, _ = SetPatriciaTrie.from_groups([(frozenset({3, 1}), ids)])
        assert trie.root.children[1].tuples is ids
        assert len(trie) == 2

    def test_repeated_group_rejected(self):
        with pytest.raises(TrieError):
            SetPatriciaTrie.from_groups([(frozenset({1, 2}), [0]), (frozenset({1, 2}), [1])])
        with pytest.raises(TrieError):
            SetPatriciaTrie.from_groups([(frozenset(), [0]), (frozenset(), [1])])

    @settings(max_examples=100, deadline=None)
    @given(sets=SETS, ops=st.lists(
        st.tuples(st.booleans(), st.frozensets(st.integers(0, 9), max_size=6)), max_size=30))
    def test_maintains_like_incremental(self, sets, ops):
        # insert/remove on a bulk-built trie behave exactly as on one the
        # insert loop built (SetTrieIndex.add/discard rely on this).
        incremental = build([tuple(sorted(s)) for s in sets])
        trie, _ = grouped(sets)
        for step, (is_insert, s) in enumerate(ops):
            key = tuple(sorted(s))
            rid = len(sets) + step
            if is_insert:
                trie.insert(key, rid)
                incremental.insert(key, rid)
            else:
                victim = next((i for i, other in enumerate(sets) if other == s), rid)
                assert trie.remove(key, victim) == incremental.remove(key, victim)
            trie.check_invariants()
            assert node_fields(trie) == node_fields(incremental)
            assert len(trie) == len(incremental)
