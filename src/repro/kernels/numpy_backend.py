"""The numpy kernel backend: packed ``uint64`` signature matrices.

Signatures are packed MSB-first into ``ceil(bits / 64)`` 64-bit words
per row, so an ``[n, words]`` ``uint64`` matrix holds a whole bucket
and one vectorized ``&``/``== 0`` pass answers the
containment filter for every row at once — the batch form of
``sub & ~sup == 0``.

numpy is an *optional* dependency of this module alone (lint rule
RPR010 keeps it from leaking anywhere else outside ``repro/kernels/``
and the data-generation layer).  When numpy is missing, constructing
:class:`NumpyKernel` raises :class:`KernelUnavailableError` and the
registry's auto-selection falls back to the pure-Python backend.

Parity: all outputs are plain Python ints in the same order the
``python`` backend produces, which the backend-parametrized
differential and golden suites verify bit-for-bit.
"""

from __future__ import annotations

from itertools import chain
from typing import Collection, Sequence

from repro.kernels.base import KernelBackend, KernelUnavailableError, SignaturePack
from repro.kernels.python_backend import GALLOP_RATIO, gallop_intersect, merge_intersect

try:  # pragma: no cover - exercised implicitly by backend availability
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less hosts
    _np = None  # type: ignore[assignment]

__all__ = ["NumpyKernel", "NumpySignaturePack"]

#: When the shorter list is below this size the numpy call overhead loses
#: to the pure merge, so ``intersect_sorted`` runs the python kernel's
#: merge or gallop itself.
#: Purely a performance crossover: both paths return identical lists.
_SMALL_INTERSECT = 64

#: Transient bytes one block of :meth:`NumpyKernel.modulo_signatures`
#: may allocate.  A row costs its byte-padded flag row plus the packed
#: row, and each element 8 bytes of value/flat index plus its row offset,
#: so the row count per block shrinks as ``bits`` and set sizes grow:
#: 500 twitter rows at 120 bits are one block, 2000 webbase rows at 7472
#: bits about twenty.
_HASH_BLOCK_BYTES = 1 << 20


def _to_matrix(signatures: Sequence[int], bits: int, np) -> "tuple":
    """Pack ints into an ``[n, words]`` native-endian uint64 matrix."""
    words = max(1, (bits + 63) // 64)
    if not signatures:
        return np.empty((0, words), dtype=np.uint64), words
    buf = b"".join(sig.to_bytes(words * 8, "big") for sig in signatures)
    matrix = (
        np.frombuffer(buf, dtype=">u8")
        .reshape(len(signatures), words)
        .astype(np.uint64)
    )
    return matrix, words


class NumpySignaturePack(SignaturePack):
    """Packed signatures as a ``[n, words]`` ``uint64`` matrix."""

    __slots__ = ("matrix", "words")

    def __init__(self, signatures: Sequence[int], bits: int, np) -> None:
        super().__init__("numpy", bits, len(signatures))
        self.matrix, self.words = _to_matrix(signatures, bits, np)


class NumpyKernel(KernelBackend):
    """Vectorized batch kernels over packed uint64 signature matrices.

    Raises:
        KernelUnavailableError: If numpy is not importable on this host.
    """

    name = "numpy"

    def __init__(self) -> None:
        if _np is None:
            raise KernelUnavailableError(
                "numpy is not installed; use the 'python' kernel backend"
            )
        self._np = _np

    def pack_signatures(self, signatures: Sequence[int], bits: int) -> NumpySignaturePack:
        return NumpySignaturePack(signatures, bits, self._np)

    def filter_subset_batch(self, pack: SignaturePack, probe: int) -> list[int]:
        # A row is admitted when every word of ``row & ~probe`` is zero;
        # ``any`` on the masked uint64 words tests that directly, without
        # a full-size ``== 0`` boolean intermediate.
        assert isinstance(pack, NumpySignaturePack)
        if len(pack) == 0:
            return []
        np = self._np
        probe_words = np.frombuffer(probe.to_bytes(pack.words * 8, "big"), dtype=">u8")
        mask = ~probe_words.astype(np.uint64)
        conflicts = (pack.matrix & mask).any(axis=1)
        return np.flatnonzero(~conflicts).tolist()

    def transpose_signatures(self, signatures: Sequence[int], bits: int) -> list[int]:
        # One byte row per signature -> one bit column per logical
        # position (unpackbits is MSB-first, matching the logical order),
        # then each column packed little-endian so probe ``p`` is int bit
        # ``p`` of ``int.from_bytes``.
        if not signatures:
            return [0] * bits
        np = self._np
        nbytes = (bits + 7) // 8
        buf = b"".join(sig.to_bytes(nbytes, "big") for sig in signatures)
        rows = np.frombuffer(buf, dtype=np.uint8).reshape(len(signatures), nbytes)
        flags = np.unpackbits(rows, axis=1)[:, nbytes * 8 - bits:]
        packed = np.packbits(flags.T, axis=1, bitorder="little")
        width = packed.shape[1]
        raw = packed.tobytes()
        from_bytes = int.from_bytes
        return [from_bytes(raw[j * width:(j + 1) * width], "little") for j in range(bits)]

    def modulo_signatures(self, sets: Sequence[Collection[int]], bits: int) -> list[int]:
        # Per block: flatten the elements, turn each into the flat index
        # ``row * width + pad + x % bits`` of a byte-padded bool matrix
        # (logical position 0 is the row's first unpadded column), set
        # those flags, and packbits the rows MSB-first, so each row read
        # big-endian is the signature.
        n = len(sets)
        if n == 0:
            return []
        np = self._np
        width = (bits + 7) // 8 * 8
        nbytes = width // 8
        pad = width - bits
        lengths = np.fromiter(map(len, sets), dtype=np.int64, count=n)
        cost = np.cumsum(lengths * 12 + (width + nbytes))
        cuts = np.searchsorted(
            cost, np.arange(_HASH_BLOCK_BYTES, int(cost[-1]), _HASH_BLOCK_BYTES), "right"
        ).tolist()
        bounds = [0, *cuts, n]
        out: list[int] = []
        from_bytes = int.from_bytes
        for start, stop in zip(bounds, bounds[1:]):
            if stop == start:
                continue
            block = sets[start:stop]
            block_lengths = lengths[start:stop]
            try:
                flat = np.fromiter(
                    chain.from_iterable(block), dtype=np.int64, count=int(block_lengths.sum())
                )
            except OverflowError:
                # An element beyond int64: the reference fold gives the
                # same ints for this block.
                out += KernelBackend.modulo_signatures(self, block, bits)
                continue
            rows = stop - start
            flat %= bits
            offsets = np.arange(pad, rows * width, width,
                                dtype=np.min_scalar_type(rows * width))
            flat += np.repeat(offsets, block_lengths)
            flags = np.zeros(rows * width, dtype=np.bool_)
            flags[flat] = True
            raw = np.packbits(flags).tobytes()
            out += [from_bytes(raw[i:i + nbytes], "big") for i in range(0, rows * nbytes, nbytes)]
        return out

    def intersect_sorted(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        if not a or not b:
            return []
        if len(a) > len(b):
            a, b = b, a
        if len(a) < _SMALL_INTERSECT:
            # The python kernel's rule, run here: most calls on the
            # PRETTI+ walk are this short, so a second dispatch would show.
            if len(b) > GALLOP_RATIO * len(a):
                return gallop_intersect(a, b)
            return merge_intersect(a, b)
        np = self._np
        out = np.intersect1d(
            np.asarray(a, dtype=np.int64),
            np.asarray(b, dtype=np.int64),
            assume_unique=True,
        )
        return out.tolist()

