"""The generic signature-join framework (paper Algorithm 1).

The paper factors SHJ into a reusable skeleton — hash every S-tuple into an
index, then for each R-tuple enumerate index entries whose signature is
contained in the probe signature and verify the surviving candidates with
an exact set comparison — and instantiates it with three different
enumeration structures (hash map for SHJ, plain trie for TSJ/Algorithm 4,
Patricia trie for PTSJ/Algorithm 5).

:class:`SignatureJoinBase` is that skeleton.  Subclasses provide the index
(:meth:`_build_index`) and the subset enumeration
(:meth:`_enumerate_leaves`, plus an optional set-at-a-time
:meth:`_enumerate_batch`), which yields *leaves*: index entries with a
``signature`` int and an ``items`` list of the :class:`CandidateGroup` s
stored under it.  The shared :class:`SignaturePreparedIndex`
implements lines 4–8 of Algorithm 1 — a streaming per-record
:meth:`~SignaturePreparedIndex.probe` and a batch filter-then-verify
``probe_many`` — including the merge-identical-sets output expansion
(Sec. III-E1).
"""

from __future__ import annotations

import copy
from abc import abstractmethod
from typing import Any, Iterable, Iterator

from repro.analysis.sanitizer import check_exact_verdicts
from repro.analysis.sanitizer import enabled as sanitizer_enabled
from repro.core.base import (
    CandidateGroup,
    JoinStats,
    PreparedIndex,
    SetContainmentJoin,
)
from repro.governance.policy import Governor, governor
from repro.kernels import KernelBackend, get_backend
from repro.obs.tracer import current_tracer
from repro.obs.clock import perf_counter
from repro.relations.relation import Relation, SetRecord
from repro.relations.stats import compute_stats
from repro.signatures.hashing import ModuloScheme, SignatureScheme
from repro.signatures.length import SignatureLengthStrategy
from repro.tries.patricia import PatriciaTrie

__all__ = [
    "SignatureJoinBase",
    "SignaturePreparedIndex",
    "build_patricia",
    "insert_into_groups",
]


def insert_into_groups(groups: list[CandidateGroup], record: SetRecord) -> None:
    """Add ``record`` to a leaf's group list, merging identical sets.

    Signature-sharing tuples are rare per leaf, and identical *sets* even
    rarer, so the linear scan is cheap; it implements the Sec. III-E1
    merge-identical-sets extension ("maintaining a mapping list of tuples
    that have the same set elements").
    """
    for group in groups:
        if group.elements == record.elements:
            group.ids.append(record.rid)
            return
    groups.append(CandidateGroup(record.elements, record.rid))


def build_patricia(
    records: Iterable[SetRecord],
    signatures: Iterable[int],
    bits: int,
    merge_identical: bool = True,
    gov: Governor | None = None,
) -> PatriciaTrie:
    """The static Patricia index over ``records`` hashed to ``signatures``.

    Records are grouped by signature in input order — merged into
    :class:`CandidateGroup` s of identical sets when ``merge_identical``
    (Sec. III-E1), one group each otherwise — and the trie is bulk-built
    from the sorted distinct signatures.  ``gov`` ticks once per record.
    """
    leaves: dict[int, list[CandidateGroup]] = {}
    for rec, sig in zip(records, signatures):
        if gov is not None:
            gov.tick()
        groups = leaves.get(sig)
        if groups is None:
            leaves[sig] = [CandidateGroup(rec.elements, rec.rid)]
        elif merge_identical:
            insert_into_groups(groups, rec)
        else:
            groups.append(CandidateGroup(rec.elements, rec.rid))
    keys = sorted(leaves)
    return PatriciaTrie.from_sorted(bits, keys, [leaves[k] for k in keys])


class SignaturePreparedIndex(PreparedIndex):
    """A prepared signature index: Algorithm 1's probe loop.

    Holds a snapshot of the algorithm instance taken right after the build,
    so the index stays valid even if the originating algorithm object later
    prepares another index (each build rebinds fresh structures).

    Attributes:
        exact_signatures: Whether the scheme hashes the indexed relation
            injectively (:meth:`~repro.signatures.SignatureScheme.is_exact_for`
            its largest element), making S's signatures exact bitmaps.
            Probes whose elements hash injectively too are then verified
            on the signature ints.
    """

    def __init__(self, algorithm: "SignatureJoinBase", relation: Relation) -> None:
        super().__init__(algorithm.name, relation)
        self._algorithm = algorithm
        assert algorithm.scheme is not None
        self.exact_signatures = algorithm.scheme.is_exact_for(compute_stats(relation).max_element)

    @property
    def scheme(self) -> SignatureScheme:
        """The signature hash scheme the index was built with."""
        assert self._algorithm.scheme is not None
        return self._algorithm.scheme

    @property
    def trie(self):
        """The trie structure behind the index (``None`` for SHJ)."""
        return getattr(self._algorithm, "trie", None)

    def probe(self, record: SetRecord, stats: JoinStats | None = None) -> Iterator[int]:
        """Algorithm 1 lines 4–8 for one probe tuple, yielding matches lazily.

        Candidates are verified one group at a time, so consuming only the
        first ``k`` matches runs only the verifications needed to reach
        them.  The verdict rule is :meth:`_probe_all`'s, with the probe's
        exactness tested on this record alone.
        """
        stats = self._target(stats)
        r_set = record.elements
        r_sig = self.scheme.signature(r_set)
        exact = self.exact_signatures and self.scheme.is_exact_for(max(r_set, default=-1))
        sanitize = exact and sanitizer_enabled()
        missing = ~r_sig  # the positions the probe lacks
        for leaf in self._algorithm._enumerate_leaves(r_sig, stats):
            if sanitize:
                check_exact_verdicts(leaf, r_sig, r_set)
            fits = exact and not leaf.signature & missing
            for group in leaf.items:
                stats.candidates += 1
                stats.verifications += 1
                if fits if exact else group.elements <= r_set:
                    yield from group.ids

    def _probe_all(self, r: Relation, stats: JoinStats) -> list[tuple[int, int]]:
        """Algorithm 1 lines 4–8 for a whole relation: filter, then verify.

        The filter phase hashes the whole relation in one
        :meth:`~repro.signatures.SignatureScheme.signatures` call (one
        kernel call for the ``x mod b`` scheme; a governed run still polls
        once per record first) and hands all the signatures to the
        algorithm's batch enumeration (PTSJ walks its Patricia trie once
        per block of probes); the verify phase then
        compares each probe's candidate groups in R order.  Pairs come
        out in the order per-record :meth:`probe` calls would emit them,
        with identical counters.

        Each candidate gets one exact containment check.  When the scheme
        is injective on S and on R (Sec. III-D's ``b = d``: every element
        below ``b`` under ``x mod b``), signatures are exact bitmaps and
        the check is ``leaf.signature & ~r_sig == 0`` on the signature of
        the leaf the group was enumerated from, shared by all its groups;
        otherwise it is ``group.elements <= r_set``.

        The paper's Sec. III-C cost model separates these two costs
        (``V·|R|`` node visits vs. ``N·|R|`` set comparisons); under an
        active tracer the phases are reported as the ``signature_filter``
        and ``verify`` child spans of ``probe``.
        """
        algorithm = self._algorithm
        gov = governor("probe", stats)
        visits_before = stats.node_visits
        t0 = perf_counter()
        if gov is not None:
            for _ in r:
                gov.tick()
        signatures = self.scheme.signatures([rec.elements for rec in r], self.kernel)
        hits = algorithm._enumerate_batch(signatures, stats, gov)
        t1 = perf_counter()
        exact = self.exact_signatures and self.scheme.is_exact_for(compute_stats(r).max_element)
        if exact and sanitizer_enabled():
            for rec, r_sig, leaves in zip(r, signatures, hits):
                for leaf in leaves:
                    check_exact_verdicts(leaf, r_sig, rec.elements)
        pairs: list[tuple[int, int]] = []
        append = pairs.append
        candidates = 0
        for rec, r_sig, leaves in zip(r, signatures, hits):
            if gov is not None:
                gov.tick()
            r_set = rec.elements
            r_id = rec.rid
            missing = ~r_sig  # the positions r lacks
            for leaf in leaves:
                groups = leaf.items
                candidates += len(groups)
                fits = exact and not leaf.signature & missing
                for group in groups:
                    if fits if exact else group.elements <= r_set:
                        for s_id in group.ids:
                            append((r_id, s_id))
        stats.candidates += candidates
        stats.verifications += candidates
        t2 = perf_counter()
        tracer = current_tracer()
        if tracer.enabled:
            leaf_hits = sum(len(leaves) for leaves in hits)
            # mirror=False: the enclosing probe span already counts these
            # quantities into the registry; these records only attribute
            # the per-phase breakdown inside the span tree.
            tracer.record(
                "signature_filter",
                t1 - t0,
                {"node_visits": stats.node_visits - visits_before, "leaf_hits": leaf_hits},
                calls=len(r),
                mirror=False,
            )
            tracer.record(
                "verify",
                t2 - t1,
                {"candidates": candidates, "pairs": len(pairs)},
                calls=len(r),
                mirror=False,
            )
            if tracer.registry is not None:
                # leaf_hits has no other registry source.
                tracer.registry.counter("leaf_hits").inc(leaf_hits)
        return pairs

    @property
    def kernel(self) -> KernelBackend:
        """The kernel backend captured when this index was built."""
        assert self._algorithm.kernel is not None
        return self._algorithm.kernel

    def memory_objects(self, probe_relation: Relation | None = None) -> list[Any]:
        objs: list[Any] = []
        for attr in ("trie", "buckets"):
            value = getattr(self._algorithm, attr, None)
            if value is not None:
                objs.append(value)
        if not objs:
            objs.append(self._algorithm)
        return objs


class SignatureJoinBase(SetContainmentJoin):
    """Algorithm 1 with pluggable index and subset enumeration.

    Args:
        bits: Signature length; ``None`` selects it per dataset via
            ``length_strategy`` (Sec. III-D).  The one-shot :meth:`join`
            path applies the strategy to the *combined* statistics of R and
            S; ``prepare`` without a probe hint uses S's statistics alone.
        scheme_factory: Signature hash scheme constructor, default the
            paper's ``x mod b`` scheme.
        length_strategy: Used only when ``bits`` is ``None``.
    """

    def __init__(
        self,
        bits: int | None = None,
        scheme_factory: type[SignatureScheme] = ModuloScheme,
        length_strategy: SignatureLengthStrategy | None = None,
    ) -> None:
        self.requested_bits = bits
        self.scheme_factory = scheme_factory
        self.length_strategy = length_strategy or SignatureLengthStrategy()
        self.scheme: SignatureScheme | None = None
        self.kernel: KernelBackend | None = None

    # ------------------------------------------------------------------
    # Parameter selection
    # ------------------------------------------------------------------
    def _choose_bits(self, r: Relation | None, s: Relation) -> int:
        """Resolve the signature length for this index.

        Explicit ``bits`` wins; otherwise apply the Sec. III-D strategy to
        the average cardinality and active-domain size of the relations at
        hand — both sides when a probe hint is available (the paper's
        global-statistics rule), the indexed side alone otherwise.
        """
        if self.requested_bits is not None:
            return self.requested_bits
        return self.length_strategy.choose_for_stats(
            compute_stats(s), None if r is None else compute_stats(r)
        )

    # ------------------------------------------------------------------
    # Template hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _build_index(self, s: Relation, stats: JoinStats) -> None:
        """Index every tuple of ``s`` under its signature (Alg. 1 lines 1–3)."""

    @abstractmethod
    def _enumerate_leaves(self, signature: int, stats: JoinStats) -> Iterable[Any]:
        """Yield the index entries with ``entry.signature ⊑ signature``.

        This is the pluggable "subset enumeration algorithm" of Algorithm 1
        line 5 — SHJENUM, TRIEENUM or PATRICIAENUM.  Each entry is a leaf:
        its ``signature`` int and the ``items`` list of the
        :class:`CandidateGroup` s hashed to it.
        """

    def _enumerate_batch(
        self, signatures: list[int], stats: JoinStats, gov: Governor | None
    ) -> list[list[Any]]:
        """:meth:`_enumerate_leaves` for many probes: the leaves per probe.

        The default enumerates one probe at a time; an index with a
        set-at-a-time enumeration (PTSJ) overrides it.  Counters and the
        order of each probe's leaves must equal the per-probe calls.
        """
        enumerate_leaves = self._enumerate_leaves
        out: list[list[Any]] = []
        for sig in signatures:
            if gov is not None:
                gov.tick()
            out.append(list(enumerate_leaves(sig, stats)))
        return out

    # ------------------------------------------------------------------
    # Template body
    # ------------------------------------------------------------------
    def _prepare(self, s: Relation, probe_hint: Relation | None = None) -> PreparedIndex:
        bits = self._choose_bits(probe_hint, s)
        self.scheme = self.scheme_factory(bits)
        # Captured per build so a resident index keeps the backend it was
        # built with even if the process default changes later.
        self.kernel = get_backend()
        build_stats = JoinStats(algorithm=self.name)
        self._build_index(s, build_stats)
        # Snapshot the instance so later prepare() calls (which rebind fresh
        # structures) cannot invalidate this index.
        index = SignaturePreparedIndex(copy.copy(self), s)
        index.signature_bits = bits
        index.index_nodes = build_stats.index_nodes
        index.build_extras = dict(build_stats.extras)
        return index
