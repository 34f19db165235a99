"""Bench gate: PTSJ's one-pass Patricia build must beat per-record inserts.

PTSJ groups S by signature and builds its trie once with
``PatriciaTrie.from_sorted`` (via ``core.framework.build_patricia``)
instead of one ``PatriciaTrie.insert`` walk per S tuple.  A Patricia trie
is canonical, so both builds must give the same tree; this gate checks
that node for node on the paper's Fig. 8 twitter and flickr shapes at
the repo benchmark's sizes, then times both from the same precomputed
signatures (the bulk side including its grouping and sort) and fails if
the one-pass build is less than 2x faster.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro.core.framework import build_patricia, insert_into_groups
from repro.core.ptsj import PTSJ
from repro.datagen.realworld import make_surrogate
from repro.signatures.hashing import ModuloScheme
from repro.tries.patricia import PatriciaTrie

REPEATS = 15

#: Required bulk/insert advantage.  Measured 3.5x on twitter 500 and
#: 3.2x on flickr 3000 (2-vCPU x86-64, CPython 3.11); 2x leaves headroom
#: for loaded CI machines.
MIN_SPEEDUP = 2.0


def insert_loop(s, signatures: list[int], bits: int) -> PatriciaTrie:
    trie = PatriciaTrie(bits)
    for rec, sig in zip(s, signatures):
        insert_into_groups(trie.insert(sig), rec)
    return trie


def nodes(trie: PatriciaTrie) -> list[tuple]:
    """Every node's fields and leaf groups, in pre-order."""
    out = []
    stack = [trie.root]
    while stack:
        node = stack.pop()
        groups = None if node.items is None else [(g.elements, g.ids) for g in node.items]
        out.append((node.start, node.stop, node.prefix, node.shift, node.mask,
                    node.signature, groups))
        if node.items is None:
            stack += [node.right, node.left]
    return out


@pytest.mark.parametrize("dataset,size", [("twitter", 500), ("flickr", 3000)])
def test_bulk_build_at_least_2x_insert_loop(dataset, size):
    s = make_surrogate(dataset, size, seed=802)
    bits = PTSJ()._choose_bits(None, s)
    signatures = [ModuloScheme(bits).signature(rec.elements) for rec in s]

    bulk = build_patricia(s, signatures, bits)
    incremental = insert_loop(s, signatures, bits)
    bulk.check_invariants()
    assert nodes(bulk) == nodes(incremental), "bulk build changed the tree"
    assert bulk.node_count() == incremental.node_count()

    # Best of REPEATS, the two builds alternating so a burst of load on
    # the host slows both.
    bulk_seconds = insert_seconds = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        build_patricia(s, signatures, bits)
        middle = perf_counter()
        insert_loop(s, signatures, bits)
        bulk_seconds = min(bulk_seconds, middle - start)
        insert_seconds = min(insert_seconds, perf_counter() - middle)
    speedup = insert_seconds / bulk_seconds
    print(f"\nptsj bulk-build gate ({dataset} {size}, {bits} bits, "
          f"{len(bulk)} leaves): insert={insert_seconds * 1e3:.2f}ms "
          f"bulk={bulk_seconds * 1e3:.2f}ms speedup={speedup:.1f}x "
          f"(gate >= {MIN_SPEEDUP}x)")
    assert speedup >= MIN_SPEEDUP, (
        f"one-pass build only {speedup:.2f}x faster than the insert loop "
        f"({bulk_seconds:.4f}s vs {insert_seconds:.4f}s) on {dataset} {size}"
    )
