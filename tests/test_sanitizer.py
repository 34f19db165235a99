"""Tests for the runtime invariant sanitizer (``REPRO_SANITIZE=1``).

Each structural check is exercised both ways: a freshly-built structure
passes, and an injected corruption raises :class:`SanitizerError` naming
the violating node path.  The env-gated ``maybe_check_*`` hooks are
verified to be inert with the variable unset and active with it set, and
every registry algorithm is smoke-joined under sanitize mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro import (
    Relation,
    SanitizerError,
    available_algorithms,
    plan,
    prepare_index,
)
from repro.analysis import sanitizer
from repro.datagen import SyntheticConfig, generate_relation
from repro.index.inverted import InvertedIndex
from repro.obs import Tracer


@pytest.fixture
def sanitize_on(monkeypatch):
    monkeypatch.setenv(sanitizer.ENV_VAR, "1")


@pytest.fixture
def sanitize_off(monkeypatch):
    monkeypatch.delenv(sanitizer.ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def relations():
    r = generate_relation(
        SyntheticConfig(size=80, domain=40, avg_cardinality=4, seed=11)
    )
    s = generate_relation(
        SyntheticConfig(size=120, domain=40, avg_cardinality=6, seed=12)
    )
    return r, s


def _first_leaf(trie):
    node, path = trie.root, "root"
    while not node.is_leaf:
        node, path = node.left, f"{path}.left"
    return node, path


# ----------------------------------------------------------------------
# Enablement
# ----------------------------------------------------------------------
def test_disabled_by_default(sanitize_off):
    assert not sanitizer.enabled()


@pytest.mark.parametrize("value", ["0", "false", "no", "off", "", "  "])
def test_falsy_values_disable(monkeypatch, value):
    monkeypatch.setenv(sanitizer.ENV_VAR, value)
    assert not sanitizer.enabled()


@pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
def test_truthy_values_enable(monkeypatch, value):
    monkeypatch.setenv(sanitizer.ENV_VAR, value)
    assert sanitizer.enabled()


def test_maybe_hooks_inert_when_disabled(sanitize_off, relations):
    r, s = relations
    idx = prepare_index(s, "ptsj")
    leaf, _ = _first_leaf(idx.trie)
    leaf.signature ^= 1
    # Corrupted, but the gate is off: nothing raises.
    sanitizer.maybe_check_patricia_trie(idx.trie)
    sanitizer.maybe_check_prepared_index(idx)


# ----------------------------------------------------------------------
# Signature checks
# ----------------------------------------------------------------------
def test_check_signature_accepts_fitting_int():
    sanitizer.check_signature(0b1011, 4)


@pytest.mark.parametrize(
    "bad, bits",
    [(True, 8), ("0b1", 8), (-1, 8), (1 << 9, 8)],
)
def test_check_signature_rejects(bad, bits):
    with pytest.raises(SanitizerError):
        sanitizer.check_signature(bad, bits)


# ----------------------------------------------------------------------
# Patricia trie
# ----------------------------------------------------------------------
def test_fresh_patricia_trie_passes(relations):
    _, s = relations
    idx = prepare_index(s, "ptsj")
    sanitizer.check_patricia_trie(idx.trie)


def test_corrupt_leaf_signature_names_the_path(relations):
    _, s = relations
    idx = prepare_index(s, "ptsj")
    leaf, path = _first_leaf(idx.trie)
    leaf.signature ^= 1
    with pytest.raises(SanitizerError) as exc:
        sanitizer.check_patricia_trie(idx.trie)
    assert exc.value.path == path
    assert path.startswith("root")
    assert f"(at {path})" in str(exc.value)


def test_corrupt_leaf_count_detected(relations):
    _, s = relations
    idx = prepare_index(s, "ptsj")
    idx.trie.leaf_count += 1
    with pytest.raises(SanitizerError, match="leaf_count"):
        sanitizer.check_patricia_trie(idx.trie)


def test_corrupt_cached_mask_detected(relations):
    _, s = relations
    idx = prepare_index(s, "ptsj")
    idx.trie.root.mask ^= 1
    with pytest.raises(SanitizerError, match="mask") as exc:
        sanitizer.check_patricia_trie(idx.trie)
    assert exc.value.path == "root"


def test_single_child_internal_node_detected(relations):
    _, s = relations
    idx = prepare_index(s, "ptsj")
    node = idx.trie.root
    assert not node.is_leaf, "fixture relation must split the root"
    node.right = None
    with pytest.raises(SanitizerError, match="single child"):
        sanitizer.check_patricia_trie(idx.trie)


def test_prepared_index_accounting_detects_lost_tuples(relations):
    _, s = relations
    idx = prepare_index(s, "ptsj")
    leaf, _ = _first_leaf(idx.trie)
    leaf.items.pop()
    with pytest.raises(SanitizerError, match="tuple ids"):
        sanitizer.check_prepared_index(idx)


# ----------------------------------------------------------------------
# Element-space tries and the binary trie
# ----------------------------------------------------------------------
def test_binary_trie_corruption_detected(relations):
    _, s = relations
    idx = prepare_index(s, "tsj")
    sanitizer.check_binary_trie(idx.trie)
    idx.trie.leaf_count += 1
    with pytest.raises(SanitizerError, match="leaf_count"):
        sanitizer.check_binary_trie(idx.trie)


def test_set_trie_corruption_detected(relations):
    _, s = relations
    idx = prepare_index(s, "pretti")
    sanitizer.check_set_trie(idx.trie)
    idx.trie.size += 1
    with pytest.raises(SanitizerError, match="size"):
        sanitizer.check_set_trie(idx.trie)


def test_set_trie_mislabeled_child_detected(relations):
    _, s = relations
    idx = prepare_index(s, "pretti")
    label, child = next(iter(idx.trie.root.children.items()))
    child.label = label + 1
    with pytest.raises(SanitizerError, match="keyed"):
        sanitizer.check_set_trie(idx.trie)


def test_set_patricia_trie_corruption_detected(relations):
    _, s = relations
    idx = prepare_index(s, "pretti+")
    sanitizer.check_set_patricia_trie(idx.trie)
    _, child = next(iter(idx.trie.root.children.items()))
    child.prefix = ()
    with pytest.raises(SanitizerError, match="prefix"):
        sanitizer.check_set_patricia_trie(idx.trie)


# ----------------------------------------------------------------------
# Inverted index
# ----------------------------------------------------------------------
def test_inverted_index_checks(relations):
    _, s = relations
    inv = InvertedIndex(s)
    sanitizer.check_inverted_index(inv)
    inv.lists[next(iter(inv.lists))].append(10**9)
    with pytest.raises(SanitizerError, match="unknown tuple id"):
        sanitizer.check_inverted_index(inv)


def test_inverted_index_unsorted_ids(relations):
    _, s = relations
    inv = InvertedIndex(s)
    inv.all_ids.reverse()
    with pytest.raises(SanitizerError, match="ascending"):
        sanitizer.check_inverted_index(inv)


def test_inverted_index_hook_fires_on_construction(sanitize_on, relations):
    _, s = relations
    InvertedIndex(s)  # must not raise on a fresh build


def test_inverted_index_checks_posting_bitsets(relations):
    _, s = relations
    inv = InvertedIndex(s)
    element = max(inv.lists, key=lambda e: len(inv.lists[e]))
    bits = inv.posting_bits(element)
    sanitizer.check_inverted_index(inv)
    inv.posting_bitsets[element] = bits | 1 << len(inv.all_ids)  # one bit too many
    with pytest.raises(SanitizerError, match="has .* bits for"):
        sanitizer.check_inverted_index(inv)
    lowest = bits & -bits
    inv.posting_bitsets[element] = bits ^ lowest | 1 << len(inv.all_ids)  # one bit moved
    with pytest.raises(SanitizerError, match="misses tuple id"):
        sanitizer.check_inverted_index(inv)


def test_pretti_plus_walk_checks_the_bitsets_it_built(sanitize_on, monkeypatch):
    from repro.index import inverted

    r = generate_relation(SyntheticConfig(size=600, avg_cardinality=6, domain=40, seed=5))
    s = generate_relation(SyntheticConfig(size=100, avg_cardinality=3, domain=40, seed=6))
    index = prepare_index(s, "pretti+")
    index.probe_many(r)  # consistent bitsets pass
    build = inverted.bitset_from_ranks
    monkeypatch.setattr(inverted, "bitset_from_ranks", lambda ranks: build(ranks[1:]))
    with pytest.raises(SanitizerError, match="posting bitset"):
        index.probe_many(r)


# ----------------------------------------------------------------------
# Probe accounting
# ----------------------------------------------------------------------
def test_probe_accounting_monotone(sanitize_on, relations):
    r, s = relations
    idx = prepare_index(s, "ptsj")
    idx.probe_many(r)
    idx.probe_many(r)
    idx._probe_calls -= 2
    with pytest.raises(SanitizerError, match="probe_calls"):
        idx.probe_many(r)


def test_probe_accounting_clean_over_many_batches(sanitize_on, relations):
    r, s = relations
    idx = prepare_index(s, "ptsj")
    baseline = sorted(idx.probe_many(r).pairs)
    for _ in range(3):
        assert sorted(idx.probe_many(r).pairs) == baseline


# ----------------------------------------------------------------------
# Exact-signature verdicts
# ----------------------------------------------------------------------
def _corrupt_exact_candidate():
    """An exact PTSJ index whose first probe candidate lies about its set.

    Every element is below ``bits``, so candidates are decided on the
    signature ints; the corrupted group keeps its leaf (and signature) but
    gains an element the probe lacks, so only the set verdict rejects it.
    """
    from repro.core.ptsj import PTSJ

    r = Relation.from_sets([{1, 2, 3}])
    s = Relation.from_sets([{1, 2}, {5}])
    index = PTSJ(bits=8).prepare(s)
    assert index.exact_signatures
    group = index.trie.subset_leaves(index.scheme.signature({1, 2, 3}))[0].items[0]
    group.elements = frozenset({1, 2, 7})
    return r, index


def test_exact_verdict_disagreement_fires_in_batch_and_stream(sanitize_on):
    r, index = _corrupt_exact_candidate()
    with pytest.raises(SanitizerError, match="bitmap verdict"):
        index.probe_many(r)
    with pytest.raises(SanitizerError, match="bitmap verdict"):
        list(index.probe(r.records[0]))


def test_exact_verdicts_unchecked_when_off(sanitize_off):
    # The bitmap alone decides: the corrupted group still matches.
    r, index = _corrupt_exact_candidate()
    assert index.probe_many(r).pairs == [(0, 0)]
    assert list(index.probe(r.records[0])) == [0]


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
def test_real_plan_passes(relations):
    r, s = relations
    sanitizer.check_plan(plan(r, s))


def test_non_dataclass_plan_rejected():
    class FakePlan:
        algorithm_kwargs = ()
        executor_options = ()
        decisions = ()

    with pytest.raises(SanitizerError, match="frozen"):
        sanitizer.check_plan(FakePlan())


def test_mutable_plan_field_rejected():
    @dataclass(frozen=True)
    class LeakyPlan:
        algorithm_kwargs: tuple = ()
        executor_options: tuple = ()
        decisions: list = field(default_factory=list)

    with pytest.raises(SanitizerError, match="decisions"):
        sanitizer.check_plan(LeakyPlan())


# ----------------------------------------------------------------------
# Tracer balance
# ----------------------------------------------------------------------
def test_unbalanced_tracer_detected(sanitize_on):
    tracer = Tracer()
    handle = tracer.span("build")
    handle.__enter__()
    with pytest.raises(SanitizerError) as exc:
        tracer.finish()
    assert exc.value.path == "build"


def test_unbalanced_tracer_tolerated_when_off(sanitize_off):
    tracer = Tracer()
    handle = tracer.span("probe")
    handle.__enter__()
    tracer.finish()  # legacy behaviour: no check without the env var


# ----------------------------------------------------------------------
# Whole-registry smoke under sanitize mode
# ----------------------------------------------------------------------
def test_every_algorithm_joins_clean_under_sanitize(sanitize_on, relations):
    r, s = relations
    expected = None
    for name in available_algorithms():
        idx = prepare_index(s, name)
        pairs = sorted(idx.probe_many(r).pairs)
        if expected is None:
            expected = pairs
        assert pairs == expected, name
