"""The kernel ABI: what a probe-kernel backend must provide.

Every layer above the probe loop — prepared indexes, the executor stack,
the planner, the join server's warm path — ultimately funnels into two
tight inner operations: the signature containment filter
(``sub & ~sup == 0`` per candidate) and sorted posting-list
intersection.  A :class:`KernelBackend` packages *batch* forms of both
so one call can filter every candidate of a bucket for a probe record
instead of a per-candidate Python loop.

The ABI is deliberately small:

``pack_signatures(signatures, bits)``
    Pre-process a bucket's signatures once into whatever layout the
    backend filters fastest — a plain tuple for the pure-Python
    backend, a packed ``uint64`` matrix for the numpy backend.  The
    resulting :class:`SignaturePack` is cached by its owner (an SHJ
    bucket) and reused by every probe.

``filter_subset_batch(pack, probe)``
    Return the *indices* (ascending) of packed signatures that pass the
    containment filter against one probe signature.  Index order equals
    packing order, so callers translate rows back to entries/records
    without the backend knowing about either.

``intersect_sorted(a, b)``
    Intersection of two strictly-increasing integer sequences — the
    PRETTI-family refinement step.  The adaptive gallop/merge crossover
    policy ("Fast Set Intersection in Memory") lives behind this call.

``transpose_signatures(signatures, bits)``
    Turn a block of probe signatures into one bitset per logical bit
    position — the input of PTSJ's set-at-a-time Patricia walk.  Unlike
    the three operations above it is a *concrete* method whose body is
    the pure-Python reference, so a backend that implements only the
    three abstract operations (a timing proxy, a third-party
    registration) keeps working unchanged; backends override it only to
    go faster.

``modulo_signatures(sets, bits)``
    Hash a whole relation with the paper's ``x mod b`` scheme in one
    call: PTSJ's build and every signature join's batch probe hash
    through it.  Also concrete, with the pure-Python fold as its
    reference body.

Parity contract
---------------
Backends must be *bit-for-bit interchangeable*: for any valid inputs,
every method returns exactly the same Python values on every backend
(same ids, same order).  Differential and golden tests run the full
join suite under each available backend and require identical pairs
and identical ``JoinStats`` counters; ``docs/KERNELS.md`` spells out
the contract.

``intersect_sorted`` inputs are **strictly increasing** sequences (the
inverted index and all candidate lists guarantee this); behaviour on
inputs with duplicates is backend-defined.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Collection, Sequence

from repro.errors import ReproError

__all__ = ["KernelBackend", "KernelUnavailableError", "SignaturePack"]


class KernelUnavailableError(ReproError):
    """A requested kernel backend cannot be constructed on this host."""


class SignaturePack:
    """Backend-opaque packed form of a list of signatures.

    Built once by :meth:`KernelBackend.pack_signatures` and handed back
    to the same backend's batch filters.  Subclasses add the actual
    storage; this base records what every consumer needs to reason
    about a pack without unpacking it.

    Attributes:
        backend: Name of the backend that built (and can consume) it.
        bits: Signature width the pack was built for.
    """

    __slots__ = ("backend", "bits", "_count")

    def __init__(self, backend: str, bits: int, count: int) -> None:
        self.backend = backend
        self.bits = bits
        self._count = count

    def __len__(self) -> int:
        """Number of packed signatures (rows)."""
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} backend={self.backend} "
            f"n={self._count} bits={self.bits}>"
        )


class KernelBackend(ABC):
    """One implementation of the batch probe kernels.

    Backends are stateless singletons resolved through the registry in
    :mod:`repro.kernels`; they pickle by name (see ``__reduce__``), so
    prepared indexes that captured a backend at build time can be
    shipped to worker processes and reconnect to the worker's instance.
    """

    #: Registry name ("python", "numpy", ...); subclasses override.
    name: str = "abstract"

    # ------------------------------------------------------------------
    # Signature batch kernels
    # ------------------------------------------------------------------
    @abstractmethod
    def pack_signatures(self, signatures: Sequence[int], bits: int) -> SignaturePack:
        """Pack ``signatures`` (each a ``bits``-wide int) for batch filtering."""

    @abstractmethod
    def filter_subset_batch(self, pack: SignaturePack, probe: int) -> list[int]:
        """Rows ``i`` (ascending) with ``pack[i] ⊑ probe``.

        The signature filter of every containment join: a packed
        signature survives iff every set bit appears in ``probe``.
        """

    # ------------------------------------------------------------------
    # Posting-list kernel
    # ------------------------------------------------------------------
    @abstractmethod
    def intersect_sorted(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Intersect two strictly-increasing integer sequences."""

    # ------------------------------------------------------------------
    # Probe-block kernel
    # ------------------------------------------------------------------
    def transpose_signatures(self, signatures: Sequence[int], bits: int) -> list[int]:
        """Column bitsets of a block of ``bits``-wide signatures.

        Returns ``bits`` ints; bit ``p`` of ``columns[j]`` is set iff
        signature ``p`` has logical (MSB-first) position ``j`` set, i.e.
        int bit ``bits - 1 - j``.  Every signature must already fit in
        ``bits`` (callers validate).  This body is the reference every
        override must match bit-for-bit.
        """
        columns = [0] * bits
        for p, sig in enumerate(signatures):
            probe_bit = 1 << p
            while sig:
                low = sig & -sig
                columns[bits - low.bit_length()] |= probe_bit
                sig ^= low
        return columns

    # ------------------------------------------------------------------
    # Hashing kernel
    # ------------------------------------------------------------------
    def modulo_signatures(self, sets: Sequence[Collection[int]], bits: int) -> list[int]:
        """The paper's ``x mod b`` signature of every set, in order.

        Element ``x`` sets logical position ``x mod bits``, i.e. int bit
        ``bits - 1 - (x mod bits)``; an empty set hashes to 0.  Elements
        may be any ints (Python's ``%`` semantics).  This body is the
        reference every override must match bit-for-bit, and equals
        :meth:`repro.signatures.ModuloScheme.signature` per set.
        """
        top = bits - 1
        out: list[int] = []
        for elements in sets:
            sig = 0
            for x in elements:
                sig |= 1 << (top - x % bits)
            out.append(sig)
        return out

    # ------------------------------------------------------------------
    # Identity / pickling
    # ------------------------------------------------------------------
    def __reduce__(self):
        from repro.kernels import get_backend

        return (get_backend, (self.name,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelBackend {self.name}>"
