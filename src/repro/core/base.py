"""Join algorithm base classes, prepared indexes, result and statistics types.

Every join algorithm in this package — the paper's contributions (PTSJ,
PRETTI+) and the baselines (SHJ, PRETTI, TSJ, nested loop) — implements the
same two-phase contract: *build* an index on the indexed relation ``S``,
then *probe* it once per tuple of ``R``, emitting the pairs of

    R ⋈⊇ S = {(r, s) | r ∈ R, s ∈ S, r.set ⊇ s.set}

Since the two phases are independent, the index is a first-class object:
:meth:`SetContainmentJoin.prepare` builds a :class:`PreparedIndex` over
``S`` once, and the index then serves any number of probes —
:meth:`PreparedIndex.probe` streams the matches of a single record and
:meth:`PreparedIndex.probe_many` joins a whole probe relation.  The classic
one-shot :meth:`SetContainmentJoin.join` is exactly ``prepare`` followed by
one ``probe_many``; a server answering "which indexed sets does this query
contain?" keeps the :class:`PreparedIndex` alive instead and amortises the
build over millions of probes (the serving scenario the paper's Sec. III-E
index-reuse discussion anticipates).

:class:`JoinStats` carries the counters the paper's evaluation discusses
(candidate verifications, trie node visits, index-build share of runtime —
Sec. V-A3).  ``build_seconds`` is paid once per :meth:`prepare`;
``probe_seconds`` accumulates per probe, and the ``probe_calls`` /
``reused_index`` extras let benchmarks tell amortised runs from cold ones.

Both phases are observable: ``prepare`` runs under a ``build`` span and
``probe_many`` under a ``probe`` span of the current
:mod:`repro.obs` tracer, so activating a :class:`~repro.obs.Tracer`
around any join yields the paper's per-phase breakdown (with
algorithm-specific sub-phases such as ``signature_filter``/``verify``
nested inside ``probe``).  The default :class:`~repro.obs.NullTracer`
makes every span a no-op, keeping the un-traced path unchanged.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.analysis.concurrency import tracked_lock
from repro.analysis.sanitizer import (
    maybe_check_prepared_index,
    maybe_check_probe_accounting,
)
from repro.governance.memory import traced_build
from repro.governance.policy import current_policy, governor
from repro.kernels import active_backend_name
from repro.obs.clock import perf_counter
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import current_tracer
from repro.relations.relation import Relation, SetRecord

__all__ = [
    "CandidateGroup",
    "JoinStats",
    "JoinResult",
    "PreparedIndex",
    "SetContainmentJoin",
]


class CandidateGroup:
    """A group of indexed tuples sharing one set value.

    The merge-identical-sets extension (paper Sec. III-E1) stores, per
    distinct set value, the list of tuple ids carrying it; one set
    comparison then settles every id at once.  Algorithms that do not merge
    simply use singleton groups.

    Attributes:
        elements: The shared set value.
        ids: Tuple ids carrying that set value.
    """

    __slots__ = ("elements", "ids")

    def __init__(self, elements: frozenset[int], first_id: int) -> None:
        self.elements = elements
        self.ids = [first_id]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CandidateGroup |set|={len(self.elements)} ids={self.ids}>"


@dataclass(slots=True)
class JoinStats:
    """Operation counters and timings for one join execution.

    Attributes:
        algorithm: Registry name of the algorithm that produced the result.
        build_seconds: Index-construction wall time.  Zero whenever the
            result was served from an already-prepared index.
        probe_seconds: Probe/traversal wall time (includes verification).
        pairs: Number of output pairs.
        candidates: Candidate *groups* that reached exact set verification
            (signature algorithms) — the paper's ``N * |R|``.  IR-based
            algorithms have no verification step, so this stays 0.
        verifications: Exact set-containment checks executed.  Equals
            ``candidates`` for signature algorithms; 0 for PRETTI/PRETTI+.
            When the signature scheme is injective on both relations
            (every element below ``b`` under ``x mod b``), each check runs
            on the exact signature bitmaps instead of the sets.
        node_visits: Trie nodes dequeued across all probes (the paper's
            ``V * |R|``), or nodes traversed for IR-based algorithms.
        intersections: Inverted-list intersections (PRETTI/PRETTI+ only).
        index_nodes: Node count of the built index structure.
        signature_bits: Signature length used (0 for IR-based algorithms).
        extras: Algorithm-specific counters (e.g. SHJ submask enumerations).
            Prepared-index probes also record ``probe_calls`` (how many
            batches this index has served, including the current one) and
            ``reused_index`` (1 when the index existed before this call).
            The parallel and resilient executors always report their
            recovery counters here — ``retries``, ``timeouts``,
            ``fallback_chunks``, ``pool_restarts`` (worker children
            replaced after a hard death) and ``corrupt_chunks``, all zero
            on a clean run — so a join that survived worker failures is
            distinguishable from one that never saw any (see
            ``docs/ROBUSTNESS.md``); the sharded executor reports the
            shard-shaped equivalents.
    """

    algorithm: str = ""
    build_seconds: float = 0.0
    probe_seconds: float = 0.0
    pairs: int = 0
    candidates: int = 0
    verifications: int = 0
    node_visits: int = 0
    intersections: int = 0
    index_nodes: int = 0
    signature_bits: int = 0
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """End-to-end join time (build + probe), the paper's reported metric."""
        return self.build_seconds + self.probe_seconds

    @property
    def build_fraction(self) -> float:
        """Index-build share of the total runtime (paper Sec. V-A3)."""
        total = self.total_seconds
        return self.build_seconds / total if total > 0 else 0.0

    @property
    def precision(self) -> float:
        """Fraction of verified candidates that produced output groups.

        1.0 means the filter admitted no false positives (always the case
        for IR-based algorithms, which are verification-free).
        """
        if self.verifications == 0:
            return 1.0
        return min(1.0, self.pairs / self.verifications)

    def snapshot_registry(
        self, registry: MetricsRegistry, prefix: str = "metric."
    ) -> None:
        """Copy a metrics-registry snapshot into :attr:`extras`.

        The registry is the general mechanism (any component can register
        counters/gauges/histograms); this snapshot makes one run's view of
        it travel with the stats, so the named counters above are just the
        built-in instances of the same machinery.
        """
        registry.snapshot_into(self.extras, prefix=prefix)


class JoinResult:
    """The output pairs of one join plus its :class:`JoinStats`.

    Pairs are ``(r_id, s_id)`` with ``r.set ⊇ s.set``.  Order is
    algorithm-dependent; use :meth:`sorted_pairs` or :meth:`pair_set` to
    compare results across algorithms.
    """

    __slots__ = ("pairs", "stats")

    def __init__(self, pairs: list[tuple[int, int]], stats: JoinStats) -> None:
        self.pairs = pairs
        self.stats = stats
        stats.pairs = len(pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def pair_set(self) -> frozenset[tuple[int, int]]:
        """The pairs as a set (for cross-algorithm equality checks)."""
        return frozenset(self.pairs)

    def sorted_pairs(self) -> list[tuple[int, int]]:
        """The pairs in ascending ``(r_id, s_id)`` order."""
        return sorted(self.pairs)

    def __repr__(self) -> str:
        return f"<JoinResult {self.stats.algorithm} pairs={len(self.pairs)}>"


class PreparedIndex(ABC):
    """An index over one relation ``S``, built once and probed many times.

    Obtained from :meth:`SetContainmentJoin.prepare` (or the registry's
    ``prepare_index``).  The index is self-contained: it survives further
    ``prepare`` calls on the algorithm that created it, can be shipped to
    worker processes (fork-shared or pickled), and keeps cumulative
    statistics across every probe it serves.

    Subclasses implement :meth:`probe` (stream one record's matches) and
    may override :meth:`_probe_all` when batch probing has better-than-
    per-record structure (PRETTI's single trie traversal with an inverted
    file over the whole probe relation).

    Attributes:
        algorithm: Registry name of the algorithm that built the index.
        relation: The indexed relation ``S``.
        build_seconds: One-time construction wall time (set by ``prepare``).
        index_nodes: Node count of the index structure.
        signature_bits: Signature length (0 for IR-based indexes).
        build_extras: Static build-time descriptors (e.g. SHJ's
            ``partial_bits``), copied into every probe's stats.
    """

    def __init__(self, algorithm: str, relation: Relation) -> None:
        self.algorithm = algorithm
        self.relation = relation
        self.build_seconds = 0.0
        self.index_nodes = 0
        self.signature_bits = 0
        self.build_extras: dict[str, float] = {}
        self._probe_calls = 0
        self._probe_records = 0
        self._cumulative = JoinStats(algorithm=algorithm)
        # Guards the cumulative accounting (probe_calls/probe_records and
        # the cumulative stats) so a cache-resident index served to many
        # concurrent request threads never drops a batch.  Probing itself
        # is read-only over the index structures and runs unlocked.
        self._accounting_lock = tracked_lock("core.accounting")

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    @abstractmethod
    def probe(self, record: SetRecord, stats: JoinStats | None = None) -> Iterator[int]:
        """Stream the ids of indexed tuples whose set is ⊆ ``record``'s set.

        A generator: matches are yielded as they are found, and abandoning
        the iterator early skips the remaining enumeration/verification
        work, so huge outputs can be consumed incrementally.  Counters go
        to ``stats`` when given, else to this index's cumulative stats.
        """

    def probe_many(self, r: Relation) -> JoinResult:
        """Join a whole probe relation against this index.

        Performs *no* index construction: the returned stats always report
        ``build_seconds == 0.0``, with ``extras["probe_calls"]`` counting
        the batches served so far and ``extras["reused_index"]`` set to 1
        from the second batch on.
        """
        stats = self._new_probe_stats()
        tracer = current_tracer()
        with tracer.span("probe"):
            start = perf_counter()
            pairs = self._probe_all(r, stats)
            stats.probe_seconds = perf_counter() - start
            if tracer.enabled:
                tracer.count("probe_batches")
                tracer.count("probe_records", len(r))
                tracer.count("pairs", len(pairs))
                tracer.count("candidates", stats.candidates)
                tracer.count("verifications", stats.verifications)
                tracer.count("node_visits", stats.node_visits)
                tracer.count("intersections", stats.intersections)
                tracer.observe("probe_seconds", stats.probe_seconds)
        with self._accounting_lock:
            self._probe_calls += 1
            self._probe_records += len(r)
            stats.extras["probe_calls"] = self._probe_calls
            stats.extras["reused_index"] = 0 if self._probe_calls == 1 else 1
            result = JoinResult(pairs, stats)
            self._accumulate(stats)
            # Inside the lock so the sanitizer's batch-vs-cumulative
            # comparison sees one batch's accounting, not a torn view.
            maybe_check_probe_accounting(self, stats, len(r))
        return result

    def _probe_all(self, r: Relation, stats: JoinStats) -> list[tuple[int, int]]:
        """Default batch probe: one streaming :meth:`probe` per record."""
        pairs: list[tuple[int, int]] = []
        append = pairs.append
        gov = governor("probe", stats)
        for rec in r:
            if gov is not None:
                gov.tick()
            r_id = rec.rid
            for s_id in self.probe(rec, stats):
                append((r_id, s_id))
        return pairs

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def _new_probe_stats(self) -> JoinStats:
        stats = JoinStats(
            algorithm=self.algorithm,
            index_nodes=self.index_nodes,
            signature_bits=self.signature_bits,
        )
        stats.extras.update(self.build_extras)
        return stats

    def _target(self, stats: JoinStats | None) -> JoinStats:
        """Resolve the stats object a raw :meth:`probe` should write to."""
        if stats is None:
            # _probe_records is accounting shared with probe_many's
            # locked batch bookkeeping; a raw probe must take the same
            # lock or concurrent batches can drop its increment (RPR011).
            with self._accounting_lock:
                self._probe_records += 1
            return self._cumulative
        return stats

    def _accumulate(self, stats: JoinStats) -> None:
        cum = self._cumulative
        cum.probe_seconds += stats.probe_seconds
        cum.pairs += stats.pairs
        cum.candidates += stats.candidates
        cum.verifications += stats.verifications
        cum.node_visits += stats.node_visits
        cum.intersections += stats.intersections
        for key, value in stats.extras.items():
            if key in ("probe_calls", "reused_index") or key in self.build_extras:
                continue
            cum.extras[key] = cum.extras.get(key, 0) + value

    def join_stats(self) -> JoinStats:
        """Cumulative statistics over the index's whole lifetime.

        ``build_seconds`` appears exactly once however many probes ran;
        ``probe_seconds`` and all counters are summed across probes.
        """
        cum = self._cumulative
        snap = JoinStats(
            algorithm=self.algorithm,
            build_seconds=self.build_seconds,
            probe_seconds=cum.probe_seconds,
            candidates=cum.candidates,
            verifications=cum.verifications,
            node_visits=cum.node_visits,
            intersections=cum.intersections,
            index_nodes=self.index_nodes,
            signature_bits=self.signature_bits,
        )
        snap.pairs = cum.pairs
        snap.extras.update(self.build_extras)
        snap.extras.update(cum.extras)
        snap.extras["probe_calls"] = self._probe_calls
        snap.extras["probe_records"] = self._probe_records
        snap.extras["reused_index"] = 1 if self._probe_calls > 1 else 0
        return snap

    @property
    def probe_calls(self) -> int:
        """Number of :meth:`probe_many` batches served so far."""
        return self._probe_calls

    def __len__(self) -> int:
        """Number of indexed tuples."""
        return len(self.relation)

    # ------------------------------------------------------------------
    # Pickling (indexes are shipped to pool workers under spawn)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        del state["_accounting_lock"]  # locks do not pickle; worker gets its own
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._accounting_lock = tracked_lock("core.accounting")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def memory_objects(self, probe_relation: Relation | None = None) -> list[Any]:
        """The objects constituting this index, for memory measurement.

        Algorithms that also need probe-side structures (PRETTI's inverted
        file) include them when ``probe_relation`` is given, matching the
        paper's Fig. 6a accounting.
        """
        return [self]

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.algorithm} |S|={len(self.relation)} "
            f"probes={self._probe_calls}>"
        )


class SetContainmentJoin(ABC):
    """Template for set-containment join algorithms.

    Subclasses implement :meth:`_prepare` (index the relation ``S`` and
    return a :class:`PreparedIndex`); :meth:`prepare` wires in wall-clock
    timing and :meth:`join` composes ``prepare`` with one batch probe.

    A single instance may be reused: each :meth:`prepare`/:meth:`join` call
    builds a fresh, independent index.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    def prepare(self, s: Relation, probe_hint: Relation | None = None) -> PreparedIndex:
        """Build a reusable index over ``s`` (the contained side).

        Args:
            s: The relation to index.
            probe_hint: Optional probe relation used for *parameter
                selection only* (e.g. deriving the signature length from
                global dataset statistics, Sec. III-D); the index never
                depends on the probe side's content.  :meth:`join` passes
                its ``r`` here so the one-shot path keeps the paper's exact
                parameterisation.
        """
        tracer = current_tracer()
        with tracer.span("build"), traced_build(current_policy()):
            # Boundary governor: its memory base is sampled *before* the
            # build, and the poll after `_prepare` returns checks every
            # bound once at the build boundary — so a build smaller than
            # the poll cadence still has its budget and deadline honored.
            gov = governor("build")
            start = perf_counter()
            index = self._prepare(s, probe_hint)
            if gov is not None:
                gov.poll()
            # Every probe batch this index serves reports which kernel
            # backend was live at build time (build_extras are copied
            # into each batch's stats and excluded from accumulation).
            index.build_extras.setdefault("kernel_backend", active_backend_name())
            index.build_seconds = perf_counter() - start
            if tracer.enabled:
                tracer.count("index_builds")
                tracer.count("indexed_records", len(s))
                tracer.count("index_nodes", index.index_nodes)
                tracer.observe("build_seconds", index.build_seconds)
        maybe_check_prepared_index(index)
        return index

    def join(self, r: Relation, s: Relation) -> JoinResult:
        """Compute ``R ⋈⊇ S`` and return pairs plus statistics.

        Exactly ``prepare(s)`` followed by one ``probe_many(r)``; the
        returned stats carry the build time of the freshly-built index.
        """
        index = self.prepare(s, probe_hint=r)
        result = index.probe_many(r)
        result.stats.build_seconds = index.build_seconds
        return result

    @abstractmethod
    def _prepare(self, s: Relation, probe_hint: Relation | None) -> PreparedIndex:
        """Build the index over ``s`` and return it.

        ``probe_hint`` is available for parameter selection only; the index
        must not depend on the probe relation's content.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} ({self.name})>"
