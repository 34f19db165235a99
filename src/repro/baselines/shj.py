"""SHJ — Signature Hash Join (Helmer & Moerkotte; paper Sec. II-A, Alg. 2).

The state-of-the-art signature baseline.  SHJ hashes every S-tuple into a
hash map keyed by its signature, then, per probe tuple, *enumerates all
subset signatures* of the probe signature and looks each one up (Alg. 2).

The enumeration is exponential in the number of set bits, so — as the
paper stresses (Sec. III) — "only part of the signature is used for
enumeration purposes (and for creating hash map entries)" and "this partial
signature length cannot even reach 20 bits".  This implementation follows
that real-cases design:

* the hash map is keyed by the first ``partial_bits`` bits of the
  signature (``partial_bits <= 20``);
* probing enumerates every submask of the probe's partial signature with
  the classic ``sub = (sub - 1) & mask`` loop;
* bucket entries keep the *full* signature for a second-stage ``⊑`` filter
  before the exact set comparison.

The full signature length defaults to the optimum of Helmer & Moerkotte's
analysis, ``b ≈ c / ln 2`` bits (signature weight ~50%), clamped to a sane
range; the partial length defaults to ``min(partial_cap, log2 |S| + 2)`` so
buckets stay near-singleton as the relation grows — the growth that caps
SHJ's scalability in the paper's Figs. 6d–f.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.core.base import CandidateGroup, JoinStats
from repro.core.framework import SignatureJoinBase
from repro.errors import AlgorithmError
from repro.governance.policy import governor
from repro.kernels import SignaturePack
from repro.relations.relation import Relation
from repro.signatures.bitmap import bit_segment

__all__ = ["SHJ", "optimal_shj_bits", "iter_submasks"]

#: Hard cap on the enumerated partial signature (paper: "cannot even reach 20").
MAX_PARTIAL_BITS = 20


def optimal_shj_bits(avg_cardinality: float, minimum: int = 16, maximum: int = 4096) -> int:
    """Helmer & Moerkotte's optimal signature length, ``b = c / ln 2``.

    At this length a signature's expected weight (fraction of 1-bits) is
    about 50%, which minimises false-drop probability per bit spent.
    """
    if avg_cardinality <= 0:
        raise AlgorithmError(f"average cardinality must be positive, got {avg_cardinality}")
    return max(minimum, min(maximum, math.ceil(avg_cardinality / math.log(2))))


def iter_submasks(mask: int) -> Iterator[int]:
    """Enumerate every submask of ``mask``, including ``mask`` and 0.

    The standard descending enumeration: ``sub = (sub - 1) & mask``.
    Yields ``2 ** popcount(mask)`` values.

    >>> sorted(iter_submasks(0b101))
    [0, 1, 4, 5]
    """
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class _Entry:
    """One hash-map entry: an S-tuple's full signature plus its group.

    SHJ as published does not merge identical sets, so every entry holds a
    singleton :class:`CandidateGroup`; :attr:`items` presents it as a leaf
    so the shared Algorithm 1 verify loop applies unchanged.
    """

    __slots__ = ("signature", "group")

    def __init__(self, signature: int, group: CandidateGroup) -> None:
        self.signature = signature
        self.group = group

    @property
    def items(self) -> list[CandidateGroup]:
        """The entry's group, as a one-group leaf payload."""
        return [self.group]


class SHJ(SignatureJoinBase):
    """Signature Hash Join with partial-signature subset enumeration.

    Args:
        bits: Full signature length; default ``optimal_shj_bits(c)``.
        partial_bits: Enumerated/hashed prefix length; default grows as
            ``log2 |S| + 2`` up to ``partial_cap``.
        partial_cap: Upper bound on ``partial_bits`` (default 16, hard
            maximum 20 per the paper's observation).

    Raises:
        AlgorithmError: If ``partial_bits``/``partial_cap`` exceed 20 or
            are not positive.
    """

    name = "shj"

    def __init__(
        self,
        bits: int | None = None,
        partial_bits: int | None = None,
        partial_cap: int = 16,
        **kwargs,
    ) -> None:
        super().__init__(bits=bits, **kwargs)
        if partial_cap <= 0 or partial_cap > MAX_PARTIAL_BITS:
            raise AlgorithmError(f"partial_cap must be in [1, {MAX_PARTIAL_BITS}]")
        if partial_bits is not None and not 0 < partial_bits <= MAX_PARTIAL_BITS:
            raise AlgorithmError(f"partial_bits must be in [1, {MAX_PARTIAL_BITS}]")
        self.requested_partial = partial_bits
        self.partial_cap = partial_cap
        self.partial_bits = 0
        self.buckets: dict[int, list[_Entry]] = {}
        self.bucket_packs: dict[int, SignaturePack] = {}

    def _choose_bits(self, r: Relation | None, s: Relation) -> int:
        if self.requested_bits is not None:
            return self.requested_bits
        cards = [rec.cardinality for rec in s]
        if r is not None:
            cards += [rec.cardinality for rec in r]
        avg_c = max(sum(cards) / len(cards), 1.0) if cards else 1.0
        return optimal_shj_bits(avg_c)

    def _resolve_partial(self, s_size: int, bits: int) -> int:
        if self.requested_partial is not None:
            return min(self.requested_partial, bits)
        grown = int(math.log2(s_size)) + 2 if s_size > 0 else 1
        return max(1, min(self.partial_cap, grown, bits))

    def _build_index(self, s: Relation, stats: JoinStats) -> None:
        assert self.scheme is not None
        bits = self.scheme.bits
        self.partial_bits = self._resolve_partial(len(s), bits)
        stats.extras["partial_bits"] = self.partial_bits
        buckets: dict[int, list[_Entry]] = {}
        signature = self.scheme.signature
        gov = governor("build", stats)
        for rec in s:
            if gov is not None:
                gov.tick()
            sig = signature(rec.elements)
            key = bit_segment(sig, 0, self.partial_bits, bits)
            entry = _Entry(sig, CandidateGroup(rec.elements, rec.rid))
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [entry]
            else:
                bucket.append(entry)
        self.buckets = buckets
        # Pack each bucket's full signatures once: probing then filters a
        # whole bucket with one kernel call instead of a per-entry loop.
        kernel = self.kernel
        assert kernel is not None
        self.bucket_packs = {
            key: kernel.pack_signatures([e.signature for e in bucket], bits)
            for key, bucket in buckets.items()
        }
        stats.index_nodes = len(buckets)

    def _enumerate_leaves(self, signature: int, stats: JoinStats) -> Iterator[_Entry]:
        """SHJENUM (Algorithm 2): submask enumeration + bucket filtering.

        Every submask of the probe's partial signature is looked up; each
        hit bucket's packed full signatures then pass the batched ``⊑``
        kernel filter (one call per bucket, not one check per entry)
        before the shared verify loop checks each candidate.  Counters and
        yield order are bit-identical to the historical per-entry loop:
        ``bucket_entries_scanned`` counts every entry of every hit bucket
        and survivors come out in entry order.
        """
        bits = self.scheme.bits  # type: ignore[union-attr]
        mask = bit_segment(signature, 0, self.partial_bits, bits)
        buckets = self.buckets
        packs = self.bucket_packs
        kernel = self.kernel
        assert kernel is not None
        filter_batch = kernel.filter_subset_batch
        enumerations = 0
        filtered = 0
        for sub in iter_submasks(mask):
            enumerations += 1
            bucket = buckets.get(sub)
            if bucket is None:
                continue
            filtered += len(bucket)
            for idx in filter_batch(packs[sub], signature):
                yield bucket[idx]
        stats.extras["submask_enumerations"] = stats.extras.get("submask_enumerations", 0) + enumerations
        stats.extras["bucket_entries_scanned"] = stats.extras.get("bucket_entries_scanned", 0) + filtered
