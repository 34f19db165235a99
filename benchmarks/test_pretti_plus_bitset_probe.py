"""Bench gate: PRETTI+'s rank-bitset walk must beat its list-only walk.

``PrettiPlusPreparedIndex.probe_many`` carries dense candidates as R-rank
bitsets, refined by one word-parallel ``&`` per prefix element, and drops
to sorted rank lists only when few candidates remain.  This gate times the
default walk against the list-only walk (every candidate set a sorted
list, refined by ``intersect_sorted``: ``SPARSE_DIVISOR = 1``) on the
paper's Fig. 8 flickr shape — the regime where the planner picks PRETTI+
— end to end (inverted file, walk and pair emission), and fails if the
default is less than 1.5x faster: a walk that fell back to lists, or
bitset construction that stopped being cheap.

Parity comes first: both walks must emit the same pairs in the same order
with identical ``node_visits`` and ``intersections`` before any timing
counts.  Runs under whichever backend is active (``REPRO_KERNEL`` pins
one); the list-only walk's intersections go through that backend.
"""

from __future__ import annotations

from time import perf_counter
from unittest import mock

from repro.core import pretti_plus
from repro.core.pretti_plus import PRETTIPlus
from repro.datagen.realworld import make_surrogate

#: Fig. 8 flickr surrogate at the repo benchmark's join-flickr size.
SIZE = 3000
REPEATS = 5

#: Required default/list-only advantage.  Measured at 1.7-2.5x with either
#: backend (2-vCPU x86-64).  Both walks build the same ~110k pair tuples,
#: about half of the default walk's time, which caps the ratio.
MIN_SPEEDUP = 1.5


def test_bitset_walk_at_least_1_5x_list_walk():
    r = make_surrogate("flickr", SIZE, seed=803)
    s = make_surrogate("flickr", SIZE, seed=804)
    index = PRETTIPlus().prepare(s, probe_hint=r)

    def list_only():
        with mock.patch.object(pretti_plus, "SPARSE_DIVISOR", 1):
            return index.probe_many(r)

    hybrid = index.probe_many(r)
    lists = list_only()
    assert hybrid.pairs == lists.pairs, "bitset walk changed the pairs or their order"
    assert (hybrid.stats.node_visits, hybrid.stats.intersections) == \
        (lists.stats.node_visits, lists.stats.intersections), \
        "bitset walk changed the JoinStats counters"
    assert hybrid.pairs, "degenerate workload: no pairs"

    def best(run) -> float:
        fastest = float("inf")
        for _ in range(REPEATS):
            start = perf_counter()
            run()
            fastest = min(fastest, perf_counter() - start)
        return fastest

    hybrid_seconds = best(lambda: index.probe_many(r))
    list_seconds = best(list_only)
    speedup = list_seconds / hybrid_seconds
    print(f"\npretti+ bitset gate: list-only={list_seconds * 1e3:.1f}ms "
          f"bitset={hybrid_seconds * 1e3:.1f}ms speedup={speedup:.1f}x "
          f"(gate >= {MIN_SPEEDUP}x; |R|=|S|={SIZE}, sparse bound "
          f"{pretti_plus.sparse_bound(SIZE)}, backend "
          f"{hybrid.stats.extras['kernel_backend']})")
    assert speedup >= MIN_SPEEDUP, (
        f"bitset probe_many only {speedup:.2f}x faster than the list-only "
        f"walk ({hybrid_seconds:.4f}s vs {list_seconds:.4f}s); the rank "
        "bitsets are not paying for themselves"
    )
