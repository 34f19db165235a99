"""Unit tests for the signature-space Patricia trie (Algorithms 5/6/7)."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SignatureError, TrieError
from repro.kernels import available_backends, get_backend
from repro.signatures.bitmap import bits_to_sig
from repro.tries import patricia
from repro.tries.patricia import PatriciaTrie


def build(bits: int, signatures: list[int]) -> PatriciaTrie:
    trie = PatriciaTrie(bits)
    for i, sig in enumerate(signatures):
        trie.insert(sig).append(i)
    return trie


def brute_subsets(signatures: list[int], query: int) -> set[int]:
    return {sig for sig in signatures if sig & ~query == 0}


def brute_supersets(signatures: list[int], query: int) -> set[int]:
    return {sig for sig in signatures if query & ~sig == 0}


def random_signatures(count: int, bits: int, density: float, seed: int) -> list[int]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        sig = 0
        for pos in range(bits):
            if rng.random() < density:
                sig |= 1 << pos
        out.append(sig)
    return out


class TestConstruction:
    def test_invalid_width(self):
        with pytest.raises(TrieError):
            PatriciaTrie(0)

    def test_empty_trie(self):
        trie = PatriciaTrie(8)
        assert len(trie) == 0
        assert trie.node_count() == 0
        assert trie.subset_leaves(0xFF) == []
        assert trie.superset_leaves(0) == []
        assert trie.equal_leaf(0) is None

    def test_single_insert(self):
        trie = PatriciaTrie(8)
        items = trie.insert(0b10100000)
        items.append("payload")
        assert len(trie) == 1
        assert trie.node_count() == 1

    def test_duplicate_signature_shares_leaf(self):
        trie = PatriciaTrie(8)
        a = trie.insert(0b1)
        b = trie.insert(0b1)
        assert a is b
        assert len(trie) == 1

    def test_signature_too_wide_rejected(self):
        trie = PatriciaTrie(4)
        with pytest.raises(SignatureError):
            trie.insert(0b10000)

    def test_paper_figure3_structure(self):
        """Fig. 3: inserting 0101, 0110, 1011 yields 5 nodes (2 internal)."""
        sigs = [bits_to_sig(s) for s in ("0101", "0110", "1011")]
        trie = build(4, sigs)
        assert len(trie) == 3
        # 3 leaves + split at position 0 + split at position 2 = 5 nodes
        assert trie.node_count() == 5
        trie.check_invariants()

    def test_node_count_bounded_by_2k_minus_1(self):
        sigs = random_signatures(200, 64, 0.3, seed=1)
        trie = build(64, sigs)
        assert trie.node_count() <= 2 * len(trie) - 1

    def test_invariants_catch_a_stale_leaf_count(self):
        # node_count() is derived from leaf_count, so the walk in
        # check_invariants is what catches a count that drifted.
        trie = build(8, [1, 2, 3])
        trie.leaf_count += 1
        with pytest.raises(TrieError, match="leaf_count"):
            trie.check_invariants()

    def test_all_ones_and_zero(self):
        trie = PatriciaTrie(16)
        trie.insert(0).append("zero")
        trie.insert((1 << 16) - 1).append("ones")
        trie.check_invariants()
        assert len(trie) == 2

    def test_invariants_on_random_inserts(self):
        sigs = random_signatures(300, 48, 0.4, seed=2)
        trie = build(48, sigs)
        trie.check_invariants()
        assert len(trie) == len(set(sigs))

    def test_leaves_iterate_all_signatures(self):
        sigs = random_signatures(100, 32, 0.5, seed=3)
        trie = build(32, sigs)
        assert {leaf.signature for leaf in trie.leaves()} == set(sigs)

    def test_height_bounded_by_bits_plus_one(self):
        sigs = random_signatures(100, 24, 0.5, seed=4)
        trie = build(24, sigs)
        assert trie.height() <= 24 + 1


class TestSubsetEnumeration:
    def test_paper_example_query(self):
        """Querying u1 = 0111 on Fig. 3 returns p1 (0101) and p2 (0110)."""
        sigs = {"p1": bits_to_sig("0101"), "p2": bits_to_sig("0110"),
                "p3": bits_to_sig("1011")}
        trie = PatriciaTrie(4)
        for name, sig in sigs.items():
            trie.insert(sig).append(name)
        found = {item for leaf in trie.subset_leaves(bits_to_sig("0111"))
                 for item in leaf.items}
        assert found == {"p1", "p2"}

    def test_paper_visit_count(self):
        """Sec. III-B: the Fig. 3 query traverses 3 content nodes (vs 6 in
        the plain trie).  This implementation materialises the branch point
        at position 0 as an (empty-prefix) root node and counts it too,
        hence 4 = the paper's 3 + the synthetic root."""
        sigs = [bits_to_sig(s) for s in ("0101", "0110", "1011")]
        trie = build(4, sigs)
        trie.subset_leaves(bits_to_sig("0111"))
        assert trie.visits_last_query == 4

    @pytest.mark.parametrize("density", [0.1, 0.3, 0.6])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_matches_brute_force(self, density, seed):
        bits = 40
        sigs = random_signatures(150, bits, density, seed=seed)
        trie = build(bits, sigs)
        queries = random_signatures(50, bits, density, seed=seed + 100)
        for query in queries:
            found = {leaf.signature for leaf in trie.subset_leaves(query)}
            assert found == brute_subsets(sigs, query)

    def test_all_ones_query_returns_everything(self):
        sigs = random_signatures(80, 24, 0.4, seed=7)
        trie = build(24, sigs)
        found = {leaf.signature for leaf in trie.subset_leaves((1 << 24) - 1)}
        assert found == set(sigs)

    def test_zero_query_returns_only_zero(self):
        sigs = random_signatures(80, 24, 0.4, seed=8) + [0]
        trie = build(24, sigs)
        found = {leaf.signature for leaf in trie.subset_leaves(0)}
        assert found == {0}

    def test_visits_bounded_by_node_count(self):
        sigs = random_signatures(100, 32, 0.5, seed=9)
        trie = build(32, sigs)
        trie.subset_leaves((1 << 32) - 1)
        assert trie.visits_last_query <= trie.node_count()


class TestSupersetEnumeration:
    @pytest.mark.parametrize("density", [0.2, 0.5])
    def test_matches_brute_force(self, density):
        bits = 36
        sigs = random_signatures(120, bits, density, seed=10)
        trie = build(bits, sigs)
        for query in random_signatures(40, bits, density / 2, seed=11):
            found = {leaf.signature for leaf in trie.superset_leaves(query)}
            assert found == brute_supersets(sigs, query)

    def test_zero_query_returns_everything(self):
        sigs = random_signatures(50, 16, 0.4, seed=12)
        trie = build(16, sigs)
        found = {leaf.signature for leaf in trie.superset_leaves(0)}
        assert found == set(sigs)

    def test_duality_with_subset(self):
        """sig in supersets(q) iff q in subsets(sig)."""
        bits = 20
        sigs = random_signatures(60, bits, 0.4, seed=13)
        trie = build(bits, sigs)
        query = sigs[0]
        sups = {leaf.signature for leaf in trie.superset_leaves(query)}
        for sig in set(sigs):
            assert (sig in sups) == (query & ~sig == 0)


class TestEqualLookup:
    def test_finds_exact(self):
        sigs = random_signatures(100, 32, 0.5, seed=14)
        trie = build(32, sigs)
        for sig in sigs[:20]:
            leaf = trie.equal_leaf(sig)
            assert leaf is not None and leaf.signature == sig

    def test_misses_absent(self):
        sigs = [s | 1 for s in random_signatures(50, 32, 0.5, seed=15)]
        trie = build(32, sigs)
        absent = [s & ~1 for s in sigs if s & ~1 not in set(sigs)]
        for sig in absent[:10]:
            assert trie.equal_leaf(sig) is None


class TestHammingEnumeration:
    def test_negative_threshold_rejected(self):
        trie = build(8, [0b1])
        with pytest.raises(TrieError):
            trie.hamming_leaves(0, -1)

    def test_zero_threshold_is_equality(self):
        sigs = random_signatures(60, 24, 0.4, seed=16)
        trie = build(24, sigs)
        for query in sigs[:10]:
            found = {leaf.signature for leaf, _ in trie.hamming_leaves(query, 0)}
            assert found == {query}

    @pytest.mark.parametrize("threshold", [1, 3, 6])
    def test_matches_brute_force(self, threshold):
        bits = 24
        sigs = random_signatures(120, bits, 0.5, seed=17)
        trie = build(bits, sigs)
        for query in random_signatures(25, bits, 0.5, seed=18):
            expected = {s for s in sigs if (s ^ query).bit_count() <= threshold}
            found = {leaf.signature for leaf, _ in trie.hamming_leaves(query, threshold)}
            assert found == expected

    def test_distances_reported_correctly(self):
        sigs = random_signatures(60, 20, 0.5, seed=19)
        trie = build(20, sigs)
        query = sigs[0]
        for leaf, dist in trie.hamming_leaves(query, 5):
            assert dist == (leaf.signature ^ query).bit_count()

    def test_wide_threshold_returns_everything(self):
        sigs = random_signatures(40, 16, 0.5, seed=20)
        trie = build(16, sigs)
        found = {leaf.signature for leaf, _ in trie.hamming_leaves(0, 16)}
        assert found == set(sigs)


class TestLargeSignatures:
    def test_thousands_of_bits(self):
        """Sec. III-D: PTSJ signatures can reach thousands of bits."""
        bits = 4096
        rng = random.Random(21)
        sigs = []
        for _ in range(50):
            sig = 0
            for _ in range(64):
                sig |= 1 << rng.randrange(bits)
            sigs.append(sig)
        trie = build(bits, sigs)
        trie.check_invariants()
        query = sigs[0] | sigs[1]
        found = {leaf.signature for leaf in trie.subset_leaves(query)}
        assert found == brute_subsets(sigs, query)


# ----------------------------------------------------------------------
# Set-at-a-time PATRICIAENUM
# ----------------------------------------------------------------------
BATCH_BITS = 12
batch_signatures = st.integers(min_value=0, max_value=(1 << BATCH_BITS) - 1)
#: All-zero and all-one signatures are drawn often: they are the edge
#: cases of the column bitsets (empty and full columns).
edge_signatures = st.one_of(
    st.sampled_from([0, (1 << BATCH_BITS) - 1]), batch_signatures
)


def per_query(trie: PatriciaTrie, queries: list[int]) -> tuple[list[list], int]:
    leaves = []
    visits = 0
    for query in queries:
        leaves.append(trie.subset_leaves(query))
        visits += trie.visits_last_query
    return leaves, visits


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("block", [1, 3, patricia.SUBSET_BATCH_BLOCK])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stored=st.lists(edge_signatures, max_size=30),
       queries=st.lists(edge_signatures, max_size=20))
def test_subset_leaves_batch_matches_per_query(monkeypatch, backend, block,
                                               stored, queries):
    # Small blocks make most drawn batches span several blocks.
    monkeypatch.setattr(patricia, "SUBSET_BATCH_BLOCK", block)
    trie = build(BATCH_BITS, stored)
    expected, expected_visits = per_query(trie, queries)
    leaves, visits = trie.subset_leaves_batch(
        queries, get_backend(backend).transpose_signatures
    )
    assert leaves == expected  # same leaves, same order, per query
    assert visits == expected_visits == trie.visits_last_query


@pytest.mark.parametrize("backend", available_backends())
def test_subset_leaves_batch_larger_than_one_block(backend):
    bits = 40
    stored = random_signatures(300, bits, 0.3, seed=31)
    queries = random_signatures(patricia.SUBSET_BATCH_BLOCK + 37, bits, 0.6, seed=32)
    queries[:3] = [0, (1 << bits) - 1, stored[0]]
    trie = build(bits, stored)
    expected, expected_visits = per_query(trie, queries)
    leaves, visits = trie.subset_leaves_batch(
        queries, get_backend(backend).transpose_signatures
    )
    assert leaves == expected
    assert visits == expected_visits
    assert any(leaves[patricia.SUBSET_BATCH_BLOCK:])  # second block found hits


def test_subset_leaves_batch_empty_inputs():
    transpose = get_backend("python").transpose_signatures
    assert PatriciaTrie(8).subset_leaves_batch([0, 0xFF], transpose) == ([[], []], 0)
    trie = build(8, [0b1010, 0b0110])
    assert trie.subset_leaves_batch([], transpose) == ([], 0)
    assert trie.visits_last_query == 0


def test_subset_leaves_batch_validates_every_signature():
    trie = build(8, [0b1010])
    transpose = get_backend("python").transpose_signatures
    with pytest.raises(SignatureError):
        trie.subset_leaves_batch([0b1, 1 << 8], transpose)


def test_subset_leaves_batch_ticks_per_popped_node():
    trie = build(16, random_signatures(50, 16, 0.4, seed=33))
    ticks = []
    trie.subset_leaves_batch(
        [(1 << 16) - 1], get_backend("python").transpose_signatures,
        lambda: ticks.append(1),
    )
    # An all-ones query survives every node, so the walk pops them all.
    assert len(ticks) == trie.node_count()


# ----------------------------------------------------------------------
# One-pass bulk build
# ----------------------------------------------------------------------
def node_fields(trie: PatriciaTrie) -> list[tuple]:
    """Every node's fields in pre-order, left before right."""
    out = []
    stack = [trie.root] if trie.root is not None else []
    while stack:
        node = stack.pop()
        items = None if node.items is None else list(node.items)
        out.append((node.start, node.stop, node.prefix, node.shift, node.mask,
                    node.signature, items))
        if node.items is None:
            stack.append(node.right)
            stack.append(node.left)
    return out


def bulk(bits: int, signatures: list[int]) -> PatriciaTrie:
    """The bulk-built twin of :func:`build`: same leaves, same payload order."""
    payloads: dict[int, list] = {}
    for i, sig in enumerate(signatures):
        payloads.setdefault(sig, []).append(i)
    keys = sorted(payloads)
    return PatriciaTrie.from_sorted(bits, keys, [payloads[k] for k in keys])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), bits=st.sampled_from([1, 2, 3, 8, 12, 64, 65, 130]))
def test_from_sorted_matches_insert_loop(data, bits):
    sig = st.one_of(st.sampled_from([0, (1 << bits) - 1]),
                    st.integers(0, (1 << bits) - 1))
    signatures = data.draw(st.lists(sig, max_size=40))
    incremental = build(bits, signatures)
    trie = bulk(bits, signatures)
    trie.check_invariants()
    assert node_fields(trie) == node_fields(incremental)
    assert trie.node_count() == incremental.node_count()
    assert len(trie) == len(incremental) == len(set(signatures))


def test_from_sorted_reuses_payload_lists():
    payloads = [["a"], ["b"]]
    trie = PatriciaTrie.from_sorted(8, [3, 200], payloads)
    assert trie.insert(3) is payloads[0]
    assert trie.insert(200) is payloads[1]
    assert len(trie) == 2


def test_from_sorted_empty_and_single():
    assert PatriciaTrie.from_sorted(8, [], []).root is None
    trie = PatriciaTrie.from_sorted(8, [0b1010], [[0]])
    trie.check_invariants()
    assert node_fields(trie) == node_fields(build(8, [0b1010]))


@pytest.mark.parametrize("signatures", [[5, 3], [4, 4], [1, 2, 2]])
def test_from_sorted_rejects_unsorted_or_repeated(signatures):
    with pytest.raises(TrieError):
        PatriciaTrie.from_sorted(8, signatures, [[] for _ in signatures])


def test_from_sorted_rejects_bad_input():
    with pytest.raises(TrieError):
        PatriciaTrie.from_sorted(8, [1, 2], [[]])
    with pytest.raises(SignatureError):
        PatriciaTrie.from_sorted(4, [1, 0b10000], [[], []])
    with pytest.raises(SignatureError):
        PatriciaTrie.from_sorted(4, [-1, 2], [[], []])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_bulk_built_trie_maintains_like_incremental(data):
    # insert/remove on a bulk-built trie behave exactly as on an
    # incrementally built one (the dynamic Sec. III-E3 index).
    sig = st.integers(0, (1 << BATCH_BITS) - 1)
    signatures = data.draw(st.lists(sig, max_size=30))
    ops = data.draw(st.lists(st.tuples(st.booleans(), sig), max_size=30))
    incremental = build(BATCH_BITS, signatures)
    trie = bulk(BATCH_BITS, signatures)
    for step, (is_insert, value) in enumerate(ops):
        if is_insert:
            trie.insert(value).append(("op", step))
            incremental.insert(value).append(("op", step))
        else:
            assert trie.remove(value) == incremental.remove(value)
        trie.check_invariants()
        assert node_fields(trie) == node_fields(incremental)
        assert len(trie) == len(incremental)
