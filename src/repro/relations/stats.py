"""Relation statistics.

Computes the dataset statistics that the paper reports in Table III and uses
throughout: relation size ``|R|``, average and median set cardinality ``c``,
and domain cardinality ``d``.  The statistics drive the signature-length
selection strategy (Sec. III-D) and the cost-based query planner
(:mod:`repro.planner`), which also makes the choice between PTSJ and
PRETTI+ (Sec. V-C3: PRETTI+ below a median ``c`` of 2^5, PTSJ above).

Two layers of memoization keep repeated consultation cheap:

* :func:`compute_stats` caches its result *on the relation object* — the
  planner and reporting code can all ask for statistics
  without ever rescanning the records twice;
* derived quantities on :class:`RelationStats` (skew, density, duplicate
  fraction, ...) are ``functools.cached_property`` values computed once on
  first access from the stored Table III fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.relations.relation import Relation

__all__ = ["RelationStats", "compute_stats"]


@dataclass(frozen=True)
class RelationStats:
    """Shape statistics of a set-valued relation (paper Table III columns).

    Frozen but deliberately *not* ``slots=True``: the derived quantities
    below are :func:`functools.cached_property` values, which memoize into
    the instance ``__dict__`` so the planner can consult them repeatedly
    for free.

    Attributes:
        size: Number of tuples (``|R|``).
        avg_cardinality: Mean set cardinality (``avg. c``).
        median_cardinality: Median set cardinality (``median c``).
        min_cardinality: Smallest set cardinality.
        max_cardinality: Largest set cardinality.
        domain_cardinality: Number of distinct elements used (``d``).
        total_elements: Sum of set cardinalities (the data volume).
        duplicate_sets: Number of tuples whose set value equals an earlier
            tuple's set value — the quantity exploited by PTSJ's
            merge-identical-sets extension (Sec. III-E1).
        cardinality_stddev: Population standard deviation of the set
            cardinalities (0 for relations of fewer than two tuples).
        max_element: Largest element value appearing in the relation
            (``-1`` when every set is empty) — the quantity the signature
            algorithms size their hash domain from.
    """

    size: int
    avg_cardinality: float
    median_cardinality: float
    min_cardinality: int
    max_cardinality: int
    domain_cardinality: int
    total_elements: int
    duplicate_sets: int
    cardinality_stddev: float = 0.0
    max_element: int = -1

    def as_table_row(self) -> dict[str, float]:
        """The Table III columns for this relation."""
        return {
            "|R|": self.size,
            "c avg.": round(self.avg_cardinality, 2),
            "c median": self.median_cardinality,
            "d": self.domain_cardinality,
        }

    # ------------------------------------------------------------------
    # Derived quantities (computed once, cached on the instance)
    # ------------------------------------------------------------------
    @cached_property
    def distinct_sets(self) -> int:
        """Number of distinct set values (``|R| -`` duplicates)."""
        return self.size - self.duplicate_sets

    @cached_property
    def duplicate_fraction(self) -> float:
        """Share of tuples that repeat an earlier set value."""
        return self.duplicate_sets / self.size if self.size else 0.0

    @cached_property
    def density(self) -> float:
        """Average fraction of the active domain each set covers."""
        if self.size == 0 or self.domain_cardinality == 0:
            return 0.0
        return self.avg_cardinality / self.domain_cardinality

    @cached_property
    def avg_list_length(self) -> float:
        """Expected inverted-list length (``|R| * c / d``).

        The quantity PRETTI-family cost estimates revolve around: every
        element's posting list holds on average this many tuple ids.
        """
        if self.domain_cardinality == 0:
            return 0.0
        return self.total_elements / self.domain_cardinality

    @cached_property
    def cardinality_skew(self) -> float:
        """How far the mean cardinality sits above the median (ratio).

        1.0 means symmetric; values well above 1 flag the heavy-tailed
        distributions for which Sec. V-C5 says the median — not the mean —
        must drive algorithm choice.
        """
        if self.median_cardinality <= 0:
            return 1.0 if self.avg_cardinality <= 0 else float("inf")
        return self.avg_cardinality / self.median_cardinality

    @cached_property
    def cardinality_cv(self) -> float:
        """Coefficient of variation of the set cardinalities."""
        if self.avg_cardinality <= 0:
            return 0.0
        return self.cardinality_stddev / self.avg_cardinality

    @cached_property
    def signature_domain(self) -> int:
        """Hash-domain size the signature schemes would use (max element + 1)."""
        return max(self.max_element + 1, 1)

    @cached_property
    def log2_size(self) -> float:
        """``log2 |R|`` (0 for empty relations) — trie-height ballpark."""
        return math.log2(self.size) if self.size > 0 else 0.0


def compute_stats(relation: Relation) -> RelationStats:
    """Compute :class:`RelationStats` for ``relation``, memoized per relation.

    The first call scans the records once; the result is cached on the
    relation object (relations are immutable), so the planner and
    reporting code can consult statistics repeatedly without rescanning.

    Empty relations are reported with zero cardinalities rather than raising,
    so reporting code can run on degenerate inputs.
    """
    cached = getattr(relation, "_stats", None)
    if cached is not None:
        return cached
    stats = _scan(relation)
    try:
        relation._stats = stats
    except AttributeError:  # pragma: no cover - relation-like duck types  # repro: noqa RPR008 best-effort memoization; slotted relation-likes just skip the cache
        pass
    return stats


def _scan(relation: Relation) -> RelationStats:
    """One pass over ``relation`` computing every stored statistic.

    The standard deviation comes from the integer sums ``Σx`` and ``Σx²``:
    ``n²·var = n·Σx² - (Σx)²`` is exact, so only the final square root
    rounds (``statistics.pstdev`` gets the same value through exact
    ``Fraction`` arithmetic, several times slower).
    """
    cards: list[int] = []
    total = 0
    squares = 0
    seen: set[frozenset[int]] = set()
    domain: set[int] = set()
    for rec in relation:
        elements = rec.elements
        card = len(elements)
        cards.append(card)
        total += card
        squares += card * card
        seen.add(elements)
        domain.update(elements)
    size = len(cards)
    if not size:
        return RelationStats(0, 0.0, 0.0, 0, 0, 0, 0, 0)
    cards.sort()
    mid = size // 2
    median = cards[mid] if size % 2 else (cards[mid - 1] + cards[mid]) / 2
    return RelationStats(
        size=size,
        avg_cardinality=total / size,
        median_cardinality=float(median),
        min_cardinality=cards[0],
        max_cardinality=cards[-1],
        domain_cardinality=len(domain),
        total_elements=total,
        duplicate_sets=size - len(seen),
        cardinality_stddev=math.sqrt(size * squares - total * total) / size,
        max_element=max(domain) if domain else -1,
    )
