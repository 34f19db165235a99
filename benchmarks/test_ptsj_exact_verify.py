"""Bench gate: PTSJ's exact-bitmap verification must beat set comparisons.

On the paper's Fig. 8 twitter shape every element of R and S lies below
the Sec. III-D signature length (``b = d = 120``), so ``x mod b`` is
injective, each signature is an exact bitmap of its set, and
``probe_many`` decides every candidate with one int test on its leaf's
signature instead of ``frozenset.__le__``.  This gate first checks that
the default ``probe_many`` gives the pairs (in order) and counters of a
frozenset-verified reference written here over the same
``_enumerate_batch`` output, then times both whole probes and fails if
the default is less than 1.4x faster (1.2x on the pure-Python kernel,
whose hashing and transposition, shared by both probes, take about twice
as long).
"""

from __future__ import annotations

from time import perf_counter

from repro.core.base import JoinStats
from repro.core.ptsj import PTSJ
from repro.datagen.realworld import make_surrogate
from repro.kernels import get_backend
from repro.relations.stats import compute_stats

REPEATS = 15

#: Required advantage of the default probe over the set-verified one, per
#: kernel backend.  Measured on the whole probe (2-vCPU x86-64, CPython
#: 3.11): 1.6-1.7x with numpy, where the trie walk both sides share is
#: most of the default's time, and 1.33-1.42x on the pure-Python kernel,
#: where hashing and transposition add about 6 ms to both sides.
MIN_SPEEDUP = {"numpy": 1.4, "python": 1.2}


def set_verified_probe(index, r) -> tuple[list[tuple[int, int]], JoinStats]:
    """Algorithm 1's probe with every candidate checked on its frozenset."""
    stats = JoinStats()
    signatures = index.scheme.signatures([rec.elements for rec in r], index.kernel)
    hits = index._algorithm._enumerate_batch(signatures, stats, None)
    pairs: list[tuple[int, int]] = []
    append = pairs.append
    candidates = 0
    for rec, leaves in zip(r, hits):
        r_set = rec.elements
        r_id = rec.rid
        for leaf in leaves:
            candidates += len(leaf.items)
            for group in leaf.items:
                if group.elements <= r_set:
                    for s_id in group.ids:
                        append((r_id, s_id))
    stats.candidates += candidates
    stats.verifications += candidates
    return pairs, stats


def test_exact_verify_at_least_1_4x_set_verify():
    r = make_surrogate("twitter", 500, seed=802)
    s = make_surrogate("twitter", 500, seed=803)
    bits = PTSJ()._choose_bits(r, s)
    index = PTSJ(bits=bits).prepare(s)
    assert index.exact_signatures, "S must hash injectively at b = d"
    assert compute_stats(r).max_element < bits, "R must hash injectively at b = d"

    result = index.probe_many(r)
    pairs, stats = set_verified_probe(index, r)
    assert result.pairs == pairs, "exact verification changed the pairs or their order"
    assert (result.stats.candidates, result.stats.verifications, result.stats.node_visits) == \
        (stats.candidates, stats.verifications, stats.node_visits)

    # Best of REPEATS, the two probes alternating so a burst of load on
    # the host slows both.
    exact_seconds = set_seconds = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        index.probe_many(r)
        middle = perf_counter()
        set_verified_probe(index, r)
        exact_seconds = min(exact_seconds, middle - start)
        set_seconds = min(set_seconds, perf_counter() - middle)
    speedup = set_seconds / exact_seconds
    bound = MIN_SPEEDUP[get_backend().name]
    print(f"\nptsj exact-verify gate (twitter 500, {bits} bits, "
          f"{stats.candidates} candidates): sets={set_seconds * 1e3:.2f}ms "
          f"exact={exact_seconds * 1e3:.2f}ms speedup={speedup:.2f}x "
          f"(gate >= {bound}x on the {get_backend().name} kernel)")
    assert speedup >= bound, (
        f"exact-bitmap probe only {speedup:.2f}x faster than the set-verified "
        f"probe ({exact_seconds:.4f}s vs {set_seconds:.4f}s) on twitter 500"
    )
