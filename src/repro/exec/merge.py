"""The one way partial :class:`~repro.core.base.JoinStats` are merged.

Every partitioned executor decomposes a join into independent pieces —
probe chunks (parallel/resilient), partition pairs (disk), S-shards
(sharded) — and each piece comes home with its own stats.  Historically
the fold lived twice, in the parallel executor and in the disk join, with
subtly different field coverage.  :func:`merge_stats` is now the single
definition, used by all four partitioned paths and property-tested for
the algebra the decomposition relies on:

* the **additive** fields (``build_seconds``, ``probe_seconds``,
  ``candidates``, ``verifications``, ``node_visits``,
  ``intersections``) are summed — work done is work done, wherever it
  ran;
* the **structural** fields (``index_nodes``, ``signature_bits``) are
  maxed — they describe the largest index a piece probed, not an amount
  of work, so summing them would double-count one structure per piece.

Sum and max are associative and commutative, so folding pieces in *any*
order — or merging pre-merged sub-aggregates — yields identical totals
(``tests/test_merge_stats.py`` proves this with hypothesis).  That is
what makes the merged stats of a pooled run deterministic even though
piece *completion* order is not.

Probe-chunk merging stays exact under this unified fold: chunk stats
report zero build time (they come from ``probe_many`` on an
already-prepared index) and carry the shared index's own
``signature_bits``, so the added fields are no-ops on that path.
"""

from __future__ import annotations

from repro.core.base import JoinStats

__all__ = [
    "merge_stats",
    "ADDITIVE_FIELDS",
    "STRUCTURAL_FIELDS",
    "ADDITIVE_EXTRAS",
    "MARKER_EXTRAS",
]

#: JoinStats fields summed by :func:`merge_stats` (work accumulates).
ADDITIVE_FIELDS = (
    "build_seconds",
    "probe_seconds",
    "candidates",
    "verifications",
    "node_visits",
    "intersections",
)

#: JoinStats fields maxed by :func:`merge_stats` (structure, not work).
STRUCTURAL_FIELDS = ("index_nodes", "signature_bits")

#: Governance ``extras`` summed across pieces when present: bound checks
#: performed and chunks stranded by an abort accumulate like work.
ADDITIVE_EXTRAS = ("deadline_polls", "cancelled_chunks")

#: ``extras`` combined by ``max`` when present: a degradation marker
#: names the executor a piece was re-planned onto, and the kernel-backend
#: marker names the backend the pieces' shared index was packed with
#: (identical across pieces of one join).  Lexicographic max is
#: associative and commutative, so a partial (cancelled) shard set
#: merges to the same marker in any fold order.
MARKER_EXTRAS = ("degraded_to", "kernel_backend")


def merge_stats(total: JoinStats, part: JoinStats) -> JoinStats:
    """Fold one piece's stats into the join-level aggregate, in place.

    Args:
        total: The aggregate being built; mutated and returned (so the
            fold composes: ``reduce(merge_stats, parts, total)``).
        part: One independent piece's stats — a probe chunk, a disk
            partition pair, or an S-shard.  Never mutated.

    Returns:
        ``total``, for reduce-style chaining.

    ``pairs`` is deliberately not merged here: it is derived from the
    concatenated pair list by :class:`~repro.core.base.JoinResult`, which
    keeps the counter impossible to desynchronise from the output.
    ``extras`` are piece-shape-specific (chunk vs partition vs shard) and
    are maintained by each executor — with one exception: the governance
    extras (:data:`ADDITIVE_EXTRAS`, :data:`MARKER_EXTRAS`) mean the same
    thing on every path, so pieces that carry them merge here (summed and
    maxed respectively, both associative and commutative).
    """
    total.build_seconds += part.build_seconds
    total.probe_seconds += part.probe_seconds
    total.candidates += part.candidates
    total.verifications += part.verifications
    total.node_visits += part.node_visits
    total.intersections += part.intersections
    total.index_nodes = max(total.index_nodes, part.index_nodes)
    total.signature_bits = max(total.signature_bits, part.signature_bits)
    for key in ADDITIVE_EXTRAS:
        if key in part.extras:
            total.extras[key] = total.extras.get(key, 0) + part.extras[key]
    for key in MARKER_EXTRAS:
        if key in part.extras:
            seen = total.extras.get(key)
            value = part.extras[key]
            total.extras[key] = value if seen is None else max(seen, value)
    return total
