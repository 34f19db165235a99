#!/usr/bin/env python3
"""Photo recommendation by tag containment (the paper's flickr scenario).

Each photo carries a set of tags.  Photo B is *recommendable from* photo A
when A's tags contain all of B's tags (whoever liked the richly-tagged A
should also like the more general B).  That is exactly the containment
relation the paper computes over the Flickr-3.5M dataset (Table III,
low-cardinality regime), where it reports PRETTI+ as the clear winner.

This example builds a flickr-shaped surrogate, lets the auto-selector pick
the algorithm (it picks PRETTI+ for this shape), and prints the top
recommendation hubs plus the algorithm comparison on the same data.

Run:  python examples/photo_tag_recommendation.py
"""

from __future__ import annotations

from collections import Counter

from repro import plan, set_containment_join
from repro.bench.reporting import fmt_seconds, format_table
from repro.datagen.realworld import flickr_surrogate
from repro.relations import compute_stats

SIZE = 1200


def main() -> None:
    photos = flickr_surrogate(size=SIZE, seed=42)
    stats = compute_stats(photos)
    print(f"photo collection: {stats.as_table_row()}")
    print(f"planner picks: {plan(photos, photos).algorithm}")

    # Self-join: photo A recommends photo B when tags(A) >= tags(B).
    result = set_containment_join(photos, photos, algorithm="auto")
    print(f"\n{result.stats.algorithm}: {len(result)} containment pairs "
          f"in {fmt_seconds(result.stats.total_seconds)}")

    # The most-contained photos are generic hubs (few, popular tags):
    # good candidates to recommend broadly.
    contained_counts = Counter(s_id for _, s_id in result.pairs)
    print("\ntop recommendation hubs (photo id, #containing photos, #tags):")
    for photo_id, count in contained_counts.most_common(5):
        cardinality = photos.get(photo_id).cardinality
        print(f"  photo {photo_id:5d}  contained in {count:5d} photos, "
              f"{cardinality} tags")

    # Cross-check the regime rule: compare all four algorithms here.
    rows = []
    for name in ("pretti+", "pretti", "ptsj", "shj"):
        run = set_containment_join(photos, photos, algorithm=name)
        rows.append([name, len(run), fmt_seconds(run.stats.total_seconds)])
        assert run.pair_set() == result.pair_set(), name
    print()
    print(format_table(["algorithm", "pairs", "time"], rows,
                       title="all algorithms, same data (low-cardinality regime)"))


if __name__ == "__main__":
    main()
