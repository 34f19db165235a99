"""Unit tests for the swappable kernel backend layer (docs/KERNELS.md).

Covers the registry (registration, selection order, the ``REPRO_KERNEL``
override, error paths), the ABI parity contract between the ``python``
and ``numpy`` backends, the concrete ``transpose_signatures`` and
``modulo_signatures`` defaults, pickling-by-name, prepared indexes
keeping their build-time backend, and the posting-list-ordered
``refine_many``.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.registry import make_algorithm
from repro.errors import ReproError
from repro.index.inverted import InvertedIndex, intersect_sorted
from repro.kernels import (
    KernelBackend,
    KernelUnavailableError,
    available_backends,
    get_backend,
    register_backend,
    registered_backends,
    set_default_backend,
    use_backend,
)
from repro.kernels.python_backend import (
    GALLOP_RATIO,
    PythonKernel,
    gallop_intersect,
    merge_intersect,
)
from repro.relations.relation import Relation, SetRecord
from repro.signatures.hashing import ModuloScheme

BACKENDS = available_backends()
HAS_NUMPY = "numpy" in BACKENDS


def random_signatures(count: int, bits: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    sigs = [rng.getrandbits(bits) for _ in range(count)]
    # Edge rows the filters must get right: all-zero, all-one, one bit
    # at each word boundary of the packed uint64 layout.
    sigs += [0, (1 << bits) - 1]
    for shift in (0, 1, 63, 64, 65, bits - 1):
        if 0 <= shift < bits:
            sigs.append(1 << shift)
    return sigs[: count + 8]


# ----------------------------------------------------------------------
# Registry behaviour
# ----------------------------------------------------------------------
def test_python_backend_always_available():
    assert "python" in BACKENDS
    assert isinstance(get_backend("python"), PythonKernel)


def test_registered_superset_of_available():
    assert set(BACKENDS) <= set(registered_backends())
    # AUTO_ORDER names come first in both listings.
    assert registered_backends()[: len(kernels.AUTO_ORDER)] == tuple(
        n for n in kernels.AUTO_ORDER if n in registered_backends()
    )


def test_unknown_backend_raises_repro_error():
    with pytest.raises(KernelUnavailableError, match="unknown kernel backend"):
        get_backend("no-such-backend")
    # KernelUnavailableError is a ReproError: the CLI exits 2 cleanly.
    assert issubclass(KernelUnavailableError, ReproError)


def test_get_backend_returns_cached_singleton():
    assert get_backend("python") is get_backend("python")


def test_set_default_backend_round_trip():
    original = kernels.active_backend_name()
    previous = set_default_backend("python")
    try:
        assert previous == original
        assert kernels.active_backend_name() == "python"
        assert kernels.backend_source() == "explicit"
        assert get_backend().name == "python"
    finally:
        set_default_backend(original)


def test_use_backend_restores_default_and_source():
    before_name = kernels.active_backend_name()
    before_source = kernels.backend_source()
    with use_backend("python") as backend:
        assert backend.name == "python"
        assert kernels.active_backend_name() == "python"
        assert kernels.backend_source() == "explicit"
    assert kernels.active_backend_name() == before_name
    assert kernels.backend_source() == before_source


def test_env_override_selects_backend(monkeypatch):
    monkeypatch.setattr(kernels, "_active", None)
    monkeypatch.setattr(kernels, "_source", "auto")
    monkeypatch.setenv(kernels.ENV_VAR, "python")
    assert kernels.active_backend_name() == "python"
    assert kernels.backend_source() == "env"


def test_env_override_fails_loudly_for_bad_backend(monkeypatch):
    """Forcing an unavailable backend must not silently fall back."""
    monkeypatch.setattr(kernels, "_active", None)
    monkeypatch.setenv(kernels.ENV_VAR, "no-such-backend")
    with pytest.raises(KernelUnavailableError):
        get_backend()


def test_register_backend_replacement_and_unavailability(monkeypatch):
    # Shield the real registry from the throwaway registration.
    monkeypatch.setattr(kernels, "_factories", dict(kernels._factories))
    monkeypatch.setattr(kernels, "_instances", dict(kernels._instances))

    def broken() -> KernelBackend:
        raise KernelUnavailableError("no accelerator on this host")

    register_backend("accel", broken)
    assert "accel" in registered_backends()
    assert "accel" not in available_backends()
    with pytest.raises(KernelUnavailableError, match="not available"):
        get_backend("accel")
    register_backend("accel", PythonKernel)
    assert isinstance(get_backend("accel"), PythonKernel)


def test_backend_pickles_by_name():
    for name in BACKENDS:
        backend = get_backend(name)
        clone = pickle.loads(pickle.dumps(backend))
        assert clone is backend  # singleton reconnect, not a copy


# ----------------------------------------------------------------------
# ABI parity: python vs numpy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bits", [1, 7, 64, 65, 128, 200, 512])
def test_pack_and_filter_parity(bits):
    sigs = random_signatures(40, bits, seed=bits)
    rng = random.Random(1000 + bits)
    probes = [rng.getrandbits(bits) for _ in range(12)] + [0, (1 << bits) - 1]
    reference = get_backend("python")
    ref_pack = reference.pack_signatures(sigs, bits)
    assert len(ref_pack) == len(sigs)
    for name in BACKENDS:
        backend = get_backend(name)
        pack = backend.pack_signatures(sigs, bits)
        assert len(pack) == len(sigs)
        assert pack.bits == bits
        for probe in probes:
            assert backend.filter_subset_batch(pack, probe) == \
                reference.filter_subset_batch(ref_pack, probe)


def test_empty_pack():
    for name in BACKENDS:
        backend = get_backend(name)
        pack = backend.pack_signatures([], 64)
        assert len(pack) == 0
        assert backend.filter_subset_batch(pack, 0) == []


def test_filter_semantics_are_positional():
    """Filters return *row indices* into the pack, in ascending order."""
    bits = 8
    sigs = [0b0001, 0b0011, 0b0111, 0b1000, 0b0011]
    for name in BACKENDS:
        backend = get_backend(name)
        pack = backend.pack_signatures(sigs, bits)
        # Rows whose signature is covered by probe 0b0011.
        assert backend.filter_subset_batch(pack, 0b0011) == [0, 1, 4]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), bits=st.sampled_from([1, 7, 8, 9, 63, 64, 65, 120, 300]))
def test_transpose_signatures_parity(data, bits):
    sig = st.one_of(st.sampled_from([0, (1 << bits) - 1]),
                    st.integers(0, (1 << bits) - 1))
    sigs = data.draw(st.lists(sig, max_size=70))
    reference = get_backend("python").transpose_signatures(sigs, bits)
    assert len(reference) == bits
    for j, column in enumerate(reference):
        assert column == sum(
            1 << p for p, s in enumerate(sigs) if (s >> (bits - 1 - j)) & 1
        )
    for name in BACKENDS:
        assert get_backend(name).transpose_signatures(sigs, bits) == reference


#: Element draws for ``modulo_signatures``: small values (many collide
#: mod ``bits``), values at and past ``bits``, and values past int64.
hash_elements = st.one_of(
    st.integers(0, 400),
    st.integers(0, 2 ** 40),
    st.integers(2 ** 63 - 2, 2 ** 63 + 2),
    st.sampled_from([2 ** 64 + 3, 2 ** 100]),
)


@settings(max_examples=120, deadline=None)
@given(sets=st.lists(st.frozensets(hash_elements, max_size=12), max_size=25),
       bits=st.sampled_from([1, 2, 7, 8, 9, 63, 64, 65, 120, 300, 7472]))
def test_modulo_signatures_parity(sets, bits):
    # Empty relations, empty sets, bits of 1 and not a multiple of 8,
    # elements >= bits and >= 2**63 all come out as per-set
    # ModuloScheme.signature ints on every backend.
    expected = [ModuloScheme(bits).signature(s) for s in sets]
    for name in BACKENDS:
        assert get_backend(name).modulo_signatures(sets, bits) == expected


@pytest.mark.parametrize("name", BACKENDS)
def test_modulo_signatures_in_small_blocks(monkeypatch, name):
    # A tiny block budget makes each row its own block (and rows bigger
    # than the budget still hash); one huge element falls back only its
    # own block to the reference fold.
    if name == "numpy":
        from repro.kernels import numpy_backend

        monkeypatch.setattr(numpy_backend, "_HASH_BLOCK_BYTES", 64)
    rng = random.Random(17)
    sets = [frozenset(rng.randrange(5000) for _ in range(rng.randrange(40)))
            for _ in range(60)]
    sets[30] = frozenset({2 ** 64 + 3, 7})
    for bits in (1, 9, 120, 1000):
        expected = [ModuloScheme(bits).signature(s) for s in sets]
        assert get_backend(name).modulo_signatures(sets, bits) == expected


def test_huge_elements_join_like_the_parent():
    # SetRecord accepts any non-negative int; hashing must not overflow.
    s = Relation([SetRecord(0, frozenset({2 ** 64 + 3}))])
    r = Relation([SetRecord(0, frozenset({2 ** 64 + 3, 1}))])
    for name in BACKENDS:
        with use_backend(name):
            assert make_algorithm("ptsj").join(r, s).pairs == [(0, 0)]


class _AbstractOnlyKernel(KernelBackend):
    """A backend implementing only the abstract operations of the ABI."""

    name = "abstract-only"

    def __init__(self) -> None:
        self.inner = PythonKernel()

    def pack_signatures(self, signatures, bits):
        return self.inner.pack_signatures(signatures, bits)

    def filter_subset_batch(self, pack, probe):
        return self.inner.filter_subset_batch(pack, probe)

    def intersect_sorted(self, a, b):
        return self.inner.intersect_sorted(a, b)


def test_abstract_only_backend_still_runs_joins(monkeypatch):
    # transpose_signatures and modulo_signatures are concrete on the base
    # class, so a backend without them constructs and runs the batched PTSJ probe unchanged.
    monkeypatch.setattr(kernels, "_factories", dict(kernels._factories))
    monkeypatch.setattr(kernels, "_instances", dict(kernels._instances))
    register_backend("abstract-only", _AbstractOnlyKernel)
    s = small_relation()
    r = small_relation(start_id=100)
    with use_backend("python"):
        expected = make_algorithm("ptsj").join(r, s)
    with use_backend("abstract-only"):
        result = make_algorithm("ptsj").join(r, s)
    assert result.stats.extras["kernel_backend"] == "abstract-only"
    assert result.pairs == expected.pairs
    assert result.stats.node_visits == expected.stats.node_visits


@pytest.mark.parametrize("sizes", [(0, 0), (0, 5), (5, 0), (3, 200), (200, 3),
                                   (50, 50), (1, 1)])
def test_intersect_sorted_parity(sizes):
    rng = random.Random(sum(sizes) * 7 + 1)
    a = sorted(rng.sample(range(1000), sizes[0]))
    b = sorted(rng.sample(range(1000), sizes[1]))
    expected = sorted(set(a) & set(b))
    for name in BACKENDS:
        assert get_backend(name).intersect_sorted(a, b) == expected
        assert get_backend(name).intersect_sorted(b, a) == expected


def test_gallop_and_merge_agree():
    rng = random.Random(99)
    small = sorted(rng.sample(range(10_000), 20))
    large = sorted(rng.sample(range(10_000), 20 * GALLOP_RATIO + 50))
    expected = sorted(set(small) & set(large))
    assert gallop_intersect(small, large) == expected
    assert merge_intersect(small, large) == expected
    assert merge_intersect(large, small) == expected


def test_module_level_intersect_uses_active_backend():
    assert intersect_sorted([1, 3, 5, 9], [3, 4, 5, 10]) == [3, 5]


# ----------------------------------------------------------------------
# Prepared-index integration
# ----------------------------------------------------------------------
def small_relation(start_id: int = 0) -> Relation:
    sets = [
        frozenset(),
        frozenset({1}),
        frozenset({1, 2}),
        frozenset({1, 2, 3}),
        frozenset({4, 5}),
        frozenset({2, 3, 4, 5, 6}),
    ]
    return Relation(
        [SetRecord(start_id + i, elements) for i, elements in enumerate(sets)]
    )


class _CountingKernel(PythonKernel):
    """The python kernels, counting the probe-path calls that reach them."""

    name = "counting"

    def __init__(self) -> None:
        self.calls = 0

    def modulo_signatures(self, sets, bits):
        self.calls += 1
        return super().modulo_signatures(sets, bits)

    def transpose_signatures(self, signatures, bits):
        self.calls += 1
        return super().transpose_signatures(signatures, bits)


def test_prepared_index_keeps_build_backend(monkeypatch):
    """An index built under one backend keeps probing on it even after the
    process default changes (internal consistency for resident indexes)."""
    monkeypatch.setattr(kernels, "_factories", dict(kernels._factories))
    monkeypatch.setattr(kernels, "_instances", dict(kernels._instances))
    counting = _CountingKernel()
    register_backend("counting", lambda: counting)
    s = small_relation()
    r = small_relation(start_id=100)
    with use_backend("python"):
        index = make_algorithm("ptsj").prepare(s)
        expected = index.probe_many(r)
    with use_backend("counting"):
        result = index.probe_many(r)
    assert index.kernel.name == "python"
    assert counting.calls == 0
    assert result.pairs == expected.pairs
    # Control: an index built on the counting backend does reach it.
    with use_backend("counting"):
        make_algorithm("ptsj").prepare(s).probe_many(r)
    assert counting.calls > 0


# ----------------------------------------------------------------------
# refine_many ordering
# ----------------------------------------------------------------------
def test_refine_many_orders_by_posting_length():
    relation = Relation(
        [
            SetRecord(0, frozenset({1, 2, 3})),
            SetRecord(1, frozenset({1, 2})),
            SetRecord(2, frozenset({1})),
        ]
    )
    index = InvertedIndex(relation)
    # Element 7 has no postings; sorted-by-length refinement hits it
    # first, empties the candidate list, and stops after ONE refine even
    # though the caller listed the expensive elements first.
    before = index.intersection_count
    assert index.refine_many(index.all_ids, [1, 2, 7]) == []
    assert index.intersection_count == before + 1
    # Order of the surviving refinement is invisible in the result.
    assert index.refine_many(index.all_ids, [2, 1]) == [0, 1]
    assert index.refine_many(index.all_ids, [3, 1]) == [0]
