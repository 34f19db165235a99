"""Per-algorithm cost profiles: the planner's view of the registry.

Each registry algorithm gets a :class:`CostProfile`: family metadata, its
eligibility for automatic selection, and an estimator that maps
``(RelationStats, RelationStats, bits)`` to a :class:`~repro.planner.plan.
CostEstimate` in *model units* (expected elementary operations, the
currency of the paper's Sec. III-C analysis).

The PTSJ estimator is exactly :func:`repro.signatures.cost_model.
estimate_ptsj_cost` — the paper's closed-form ``C_create + C_query +
C_compare`` decomposition.  The other estimators extend the same framing
to the rest of the registry:

* **TSJ** shares PTSJ's filter-and-verify shape but walks an uncompressed
  binary trie, so its per-query node visits scale with the signature
  length rather than the Patricia height (Sec. III-B vs. Algorithm 4).
* **SHJ** enumerates the subset space of each probe signature —
  exponential in the effective signature population (Sec. II), which is
  why the paper caps it at tiny ``b``.
* **PRETTI / PRETTI+** pay inverted-list intersections: per probe tuple,
  one list per element with expected length ``|S|·c/d``; the Patricia
  variant shares prefixes, discounting repeated intersection work
  (Terrovitis et al., the PRETTI build-vs-probe framing).
* **Nested loop** is the oracle: no build, ``|R|·|S|`` exact checks.

Model units are directly comparable within one algorithm (that is how the
signature-length sweet spot is found) and *calibrated* across families:
the PTSJ/PRETTI+ decision boundary itself follows the paper's empirically
validated regime rule (Sec. V-C3/V-C5), with the model costs recorded so
disagreement between model and regime rule is visible in ``explain``
output rather than silently resolved.  See ``docs/PLANNER.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.planner.plan import CostEstimate
from repro.relations.stats import RelationStats
from repro.signatures.cost_model import (
    estimate_ptsj_cost,
    expected_candidates,
    expected_trie_height,
)

__all__ = [
    "CostProfile",
    "COST_PROFILES",
    "cost_profile",
    "estimate_cost",
]

#: Exponent cap: beyond this the estimate is "infeasible", kept finite so
#: comparisons and serialization stay well-behaved.
_MAX_COST = 1e30

def _clamp(value: float) -> float:
    return min(value, _MAX_COST)


def _sizes(r: RelationStats, s: RelationStats) -> tuple[int, int, float, float]:
    """Degeneracy-guarded sizes and cardinalities for the estimators."""
    return (
        max(r.size, 1),
        max(s.size, 1),
        max(r.avg_cardinality, 1.0),
        max(s.avg_cardinality, 1.0),
    )


def _ptsj(r: RelationStats, s: RelationStats, bits: int) -> CostEstimate:
    r_size, s_size, _, c = _sizes(r, s)
    est = estimate_ptsj_cost(r_size, s_size, c, bits)
    return CostEstimate(build=est.create_cost, probe=est.query_cost + est.compare_cost)


def _tsj(r: RelationStats, s: RelationStats, bits: int) -> CostEstimate:
    r_size, s_size, _, c = _sizes(r, s)
    est = estimate_ptsj_cost(r_size, s_size, c, bits)
    # No path compression: the walk descends bit-by-bit instead of
    # Patricia-height-by-height, inflating visits by ~ b / H.
    height = max(expected_trie_height(s_size), 1.0)
    inflation = max(bits / height, 1.0)
    return CostEstimate(
        build=est.create_cost,
        probe=_clamp(est.query_cost * inflation + est.compare_cost),
    )


def _shj(r: RelationStats, s: RelationStats, bits: int) -> CostEstimate:
    r_size, s_size, c_r, c_s = _sizes(r, s)
    # Subset enumeration over each probe signature: ~2^(set bits).  The
    # effective population is min(c_r, b); the paper's Sec. II point is
    # that this explodes long before b reaches PTSJ's thousands of bits.
    population = min(c_r, float(bits), 64.0)
    enumeration = r_size * _clamp(2.0 ** population)
    candidates = expected_candidates(s_size, c_s, c_r, bits)
    return CostEstimate(
        build=float(s_size) * bits,
        probe=_clamp(enumeration + candidates * c_s * r_size),
    )


def _pretti(r: RelationStats, s: RelationStats, bits: int) -> CostEstimate:
    r_size, _, c_r, _ = _sizes(r, s)
    list_length = max(s.avg_list_length, 0.0)
    # Per probe tuple: intersect one posting list per element.
    return CostEstimate(
        build=float(max(s.total_elements, 1)),
        probe=_clamp(r_size * c_r * max(list_length, 1.0)),
    )


def _pretti_plus(r: RelationStats, s: RelationStats, bits: int) -> CostEstimate:
    base = _pretti(r, s, bits)
    # The Patricia trie over S's sorted sets shares prefixes: common
    # prefixes are intersected once instead of once per tuple, and
    # duplicate sets collapse entirely (Sec. IV).  The discount grows
    # with the duplicate fraction; 0.6 is the prefix-sharing baseline.
    discount = 0.6 * (1.0 - s.duplicate_fraction) + 0.1 * s.duplicate_fraction
    return CostEstimate(
        build=base.build + 2.0 * max(s.size, 1),
        probe=_clamp(base.probe * discount),
    )


def _nested_loop(r: RelationStats, s: RelationStats, bits: int) -> CostEstimate:
    r_size, s_size, _, c_s = _sizes(r, s)
    return CostEstimate(build=0.0, probe=_clamp(float(r_size) * s_size * c_s))


@dataclass(frozen=True)
class CostProfile:
    """Planner-facing metadata for one registry algorithm.

    Attributes:
        name: Registry name.
        auto_eligible: Whether the planner may choose it automatically.
            Only the paper's two production algorithms are; everything
            else is still *estimated* (so it shows up, costed, among the
            rejected alternatives) but never auto-chosen.
        reject_reason: Stock justification when not auto-eligible.
        uses_signature: Whether the ``bits`` parameter is meaningful.
        estimator: ``(r_stats, s_stats, bits) -> CostEstimate``.
    """

    name: str
    auto_eligible: bool
    reject_reason: str
    uses_signature: bool
    estimator: Callable[[RelationStats, RelationStats, int], CostEstimate]

    def estimate(self, r: RelationStats, s: RelationStats, bits: int) -> CostEstimate:
        """Evaluate this algorithm's model at one configuration."""
        return self.estimator(r, s, bits)

    def estimate_sharded(
        self,
        r: RelationStats,
        s: RelationStats,
        bits: int,
        shards: int,
        workers: int,
    ) -> CostEstimate:
        """Cost this algorithm run by the sharded executor.

        The model starts from the single-process estimate and applies the
        sharding geometry:

        * **fanout** — how many shards each probe record visits.  Element
          routing sends a probe with ``c_r`` elements to its distinct
          residues: expected ``n·(1 − (1 − 1/n)^c_r)`` of ``n`` shards
          (coupon-collector form).
        * **probe scaling** — each visited shard holds ~``1/n`` of the
          index, so total probe work scales by ``fanout / n``: element
          routing *skips* index fractions no subset can live in.
        * **skew penalty** — element placement keys on ``min(s)``, so a
          skewed element distribution piles sets onto few shards; the
          indexed side's cardinality skew is the proxy, capped at 2x.
        * **parallelism** — builds and probes proceed concurrently on
          ``min(workers, shards)`` processes.

        The planner feeds this into the executor decision and surfaces
        the inputs in ``plan.explain()``.
        """
        base = self.estimate(r, s, bits)
        shards = max(shards, 1)
        parallelism = max(min(workers, shards), 1)
        c_r = max(r.avg_cardinality, 1.0)
        fanout = shards * (1.0 - (1.0 - 1.0 / shards) ** c_r) if shards > 1 else 1.0
        skew = s.cardinality_skew
        skew_penalty = 2.0 if skew == float("inf") else min(2.0, max(1.0, skew))
        return CostEstimate(
            build=_clamp(base.build / parallelism),
            probe=_clamp(base.probe * (fanout / shards) * skew_penalty / parallelism),
        )


#: One profile per registry algorithm (kept in sync by tests).
COST_PROFILES: dict[str, CostProfile] = {
    "ptsj": CostProfile(
        "ptsj", True, "", True, _ptsj,
    ),
    "pretti+": CostProfile(
        "pretti+", True, "", False, _pretti_plus,
    ),
    "pretti": CostProfile(
        "pretti", False,
        "superseded by pretti+ (Patricia trie halves its memory, Sec. IV)",
        False, _pretti,
    ),
    "shj": CostProfile(
        "shj", False,
        "exponential subset enumeration caps its signature length (Sec. II)",
        True, _shj,
    ),
    "tsj": CostProfile(
        "tsj", False,
        "uncompressed trie: dominated by ptsj at every b (Sec. III-B)",
        True, _tsj,
    ),
    "nested-loop": CostProfile(
        "nested-loop", False,
        "exhaustive oracle, kept for verification only",
        False, _nested_loop,
    ),
}


def cost_profile(name: str) -> CostProfile:
    """The :class:`CostProfile` registered for ``name``.

    Raises:
        KeyError: For a name without a profile.
    """
    return COST_PROFILES[name]


def estimate_cost(
    name: str, r: RelationStats, s: RelationStats, bits: int
) -> CostEstimate:
    """Shortcut: evaluate ``name``'s cost model at one configuration."""
    return COST_PROFILES[name].estimate(r, s, bits)
