"""Set-valued relations.

The paper's data model is a relation with a set-valued attribute: each tuple
``t`` has a unique id and a set ``t.set`` of elements drawn from an integer
domain.  :class:`SetRecord` is one such tuple and :class:`Relation` is an
ordered collection of them.

Element values are non-negative integers.  String-valued domains (tags,
community names, ...) are encoded to integers with
:class:`repro.relations.universe.Universe` before being stored here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import RelationError

__all__ = ["SetRecord", "Relation"]


@dataclass(frozen=True, slots=True)
class SetRecord:
    """One tuple of a set-valued relation.

    Attributes:
        rid: The tuple id, unique within its relation.
        elements: The set value, as a ``frozenset`` of non-negative ints.
    """

    rid: int
    elements: frozenset[int]

    def __post_init__(self) -> None:
        if not isinstance(self.elements, frozenset):
            object.__setattr__(self, "elements", frozenset(self.elements))  # repro: noqa RPR003 frozen SetRecord normalizing its own field in __post_init__, same escape hatch planner/plan.py uses
        if any((not isinstance(e, int)) or e < 0 for e in self.elements):
            raise RelationError(
                f"record {self.rid}: elements must be non-negative ints, "
                f"got {sorted(self.elements)[:5]!r}..."
            )

    @property
    def cardinality(self) -> int:
        """Number of elements in the set value (``c`` in the paper)."""
        return len(self.elements)

    def sorted_elements(self) -> tuple[int, ...]:
        """The set value as an ascending tuple (the trie insertion order)."""
        return tuple(sorted(self.elements))

    def contains(self, other: "SetRecord") -> bool:
        """True iff this record's set is a superset of ``other``'s set."""
        return self.elements >= other.elements


class Relation:
    """An ordered collection of :class:`SetRecord` with unique ids.

    A :class:`Relation` is immutable once constructed: all join algorithms
    treat it as read-only input.  Records keep their insertion order, and ids
    must be unique (they are the join output currency).

    Args:
        records: The records of the relation.
        name: Optional human-readable name used in reports.

    Raises:
        RelationError: If two records share an id.
    """

    __slots__ = ("_records", "_by_id", "name", "_stats", "_fingerprint", "_ids_fit_int64")

    def __init__(self, records: Iterable[SetRecord], name: str = "") -> None:
        self._records: tuple[SetRecord, ...] = tuple(records)
        self._by_id: dict[int, SetRecord] = {}
        self.name = name
        # Memoized RelationStats; records are immutable, so the first
        # compute_stats() call fills this and later calls never rescan.
        self._stats = None
        # Memoized content hash; see fingerprint().
        self._fingerprint: str | None = None
        # Memoized; see ids_fit_int64().
        self._ids_fit_int64: bool | None = None
        for rec in self._records:
            if rec.rid in self._by_id:
                raise RelationError(f"duplicate record id {rec.rid} in relation {name!r}")
            self._by_id[rec.rid] = rec

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_sets(
        cls,
        sets: Iterable[Iterable[int]],
        name: str = "",
        start_id: int = 0,
    ) -> "Relation":
        """Build a relation from an iterable of element iterables.

        Ids are assigned sequentially from ``start_id``.

        >>> rel = Relation.from_sets([{1, 2}, {3}])
        >>> [rec.rid for rec in rel]
        [0, 1]
        """
        return cls(
            (SetRecord(start_id + i, frozenset(s)) for i, s in enumerate(sets)),
            name=name,
        )

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, Iterable[int]], name: str = "") -> "Relation":
        """Build a relation from a ``{rid: elements}`` mapping."""
        return cls(
            (SetRecord(rid, frozenset(elems)) for rid, elems in mapping.items()),
            name=name,
        )

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[SetRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> SetRecord:
        return self._records[index]

    def __contains__(self, rid: object) -> bool:
        return rid in self._by_id

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._records == other._records

    def __hash__(self) -> int:  # pragma: no cover - relations rarely hashed
        return hash(self._records)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Relation{label} |R|={len(self)}>"

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def records(self) -> Sequence[SetRecord]:
        """The records in insertion order."""
        return self._records

    def get(self, rid: int) -> SetRecord:
        """Return the record with id ``rid``.

        Raises:
            KeyError: If no record has that id.
        """
        return self._by_id[rid]

    def ids(self) -> tuple[int, ...]:
        """All record ids in insertion order."""
        return tuple(rec.rid for rec in self._records)

    def ids_fit_int64(self) -> bool:
        """Whether every record id fits a signed 64-bit int.

        Join output then travels as ``array('q')`` id columns
        (:class:`~repro.core.base.PairColumns`).  Memoized.
        """
        fits = self._ids_fit_int64
        if fits is None:
            ids = self._by_id
            fits = not ids or (-(1 << 63) <= min(ids) and max(ids) < 1 << 63)
            self._ids_fit_int64 = fits
        return fits

    def domain(self) -> frozenset[int]:
        """The union of all set values (the *active* domain)."""
        out: set[int] = set()
        for rec in self._records:
            out |= rec.elements
        return frozenset(out)

    def max_element(self) -> int:
        """Largest element appearing in the relation, or ``-1`` if all empty."""
        best = -1
        for rec in self._records:
            if rec.elements:
                m = max(rec.elements)
                if m > best:
                    best = m
        return best

    def fingerprint(self) -> str:
        """A stable content hash of this relation — the index-cache key.

        SHA-256 over the canonical encoding of every ``(rid, elements)``
        pair, records visited in ascending rid order and elements in
        ascending value order.  Two relations holding the same records
        therefore fingerprint identically *regardless of insertion
        order*, while any content change — an element added, removed or
        altered, or a record re-identified — changes the hash.  The
        ``name`` attribute is presentation metadata and is deliberately
        excluded.

        The join server's :class:`~repro.serve.cache.IndexCache` keys
        resident :class:`~repro.core.base.PreparedIndex` objects by this
        value (see ``docs/SERVER.md``), so equal payloads sent by
        different clients share one index build.

        The hash is memoized: records are immutable, so the first call
        pays one scan and later calls are a field read.

        >>> a = Relation.from_mapping({0: {1, 2}, 1: {3}})
        >>> b = Relation.from_mapping({1: {3}, 0: {2, 1}})
        >>> a.fingerprint() == b.fingerprint()
        True
        """
        if self._fingerprint is None:
            import hashlib

            digest = hashlib.sha256()
            update = digest.update
            for rec in sorted(self._records, key=lambda record: record.rid):
                update(b"r%d:" % rec.rid)
                for element in sorted(rec.elements):
                    update(b"%d," % element)
            self._fingerprint = "rf1:" + digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Derivations
    # ------------------------------------------------------------------
    def filter_cardinality(self, minimum: int = 0, maximum: int | None = None) -> "Relation":
        """Keep records with ``minimum <= |set| <= maximum``.

        The paper prunes real datasets this way (e.g. orkut ``c >= 10``,
        webbase ``c > 200``).
        """
        hi = float("inf") if maximum is None else maximum
        return Relation(
            (rec for rec in self._records if minimum <= rec.cardinality <= hi),
            name=self.name,
        )

    def sample(self, count: int, *, seed: int = 0) -> "Relation":
        """Uniform random sample of ``count`` records (without replacement)."""
        import random  # repro: noqa RPR006 Random(seed) below: sampling is deterministic for a caller-supplied seed

        if count >= len(self._records):
            return self
        rng = random.Random(seed)
        picked = rng.sample(range(len(self._records)), count)
        picked.sort()
        return Relation((self._records[i] for i in picked), name=self.name)
