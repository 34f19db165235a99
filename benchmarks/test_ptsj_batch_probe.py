"""Bench gate: batched PTSJ ``probe_many`` must beat per-record ``probe``.

``SignaturePreparedIndex.probe_many`` runs PATRICIAENUM set-at-a-time: it
hashes the probe block, transposes it into per-bit column bitsets
(``KernelBackend.transpose_signatures``) and walks the Patricia trie once
per block, where ``probe()`` walks it once per record.  This gate times
both, end to end (hashing, enumeration and verification), on the paper's
Fig. 8 twitter shape — the regime where the planner picks PTSJ and the
walk dominates the join — and fails if the batched path is less than
1.5x faster: a regression to per-record walks, a transposition that
stopped being cheap, or a verify phase that re-does the filter's work.

Parity comes first: both paths must emit the same pairs in the same order
with identical ``candidates``, ``verifications`` and ``node_visits``
before any timing counts.  Runs under whichever backend is active
(``REPRO_KERNEL`` pins one).
"""

from __future__ import annotations

from time import perf_counter

from repro.core.base import JoinStats
from repro.core.ptsj import PTSJ
from repro.datagen.realworld import make_surrogate

#: Fig. 8 twitter surrogate at the repo benchmark's join-twitter size.
SIZE = 500
REPEATS = 5

#: Required batched/per-record advantage.  Measured around 2.5x with
#: numpy and 2x with the pure-Python transposition (2-vCPU x86-64);
#: 1.5x leaves headroom for loaded CI machines.
MIN_SPEEDUP = 1.5


def test_batched_ptsj_probe_at_least_1_5x_per_record():
    r = make_surrogate("twitter", SIZE, seed=801)
    s = make_surrogate("twitter", SIZE, seed=802)
    index = PTSJ().prepare(s, probe_hint=r)

    def per_record() -> tuple[list[tuple[int, int]], JoinStats]:
        stats = JoinStats()
        pairs = [(rec.rid, s_id) for rec in r for s_id in index.probe(rec, stats)]
        return pairs, stats

    batched = index.probe_many(r)
    pairs, stats = per_record()
    assert batched.pairs == pairs, "batched probe changed the pairs or their order"
    assert (batched.stats.candidates, batched.stats.verifications,
            batched.stats.node_visits) == \
        (stats.candidates, stats.verifications, stats.node_visits), \
        "batched probe changed the JoinStats counters"
    assert pairs, "degenerate workload: no pairs"

    def best(run) -> float:
        fastest = float("inf")
        for _ in range(REPEATS):
            start = perf_counter()
            run()
            fastest = min(fastest, perf_counter() - start)
        return fastest

    batched_seconds = best(lambda: index.probe_many(r))
    per_record_seconds = best(per_record)
    speedup = per_record_seconds / batched_seconds
    print(f"\nptsj batch gate: per-record={per_record_seconds * 1e3:.1f}ms "
          f"batched={batched_seconds * 1e3:.1f}ms speedup={speedup:.1f}x "
          f"(gate >= {MIN_SPEEDUP}x; |R|=|S|={SIZE}, "
          f"{index.signature_bits} bits, backend "
          f"{batched.stats.extras['kernel_backend']})")
    assert speedup >= MIN_SPEEDUP, (
        f"batched probe_many only {speedup:.2f}x faster than the per-record "
        f"probe loop ({batched_seconds:.4f}s vs {per_record_seconds:.4f}s); "
        "the set-at-a-time walk is not paying for itself"
    )
