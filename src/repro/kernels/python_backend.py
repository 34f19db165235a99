"""The pure-stdlib kernel backend — the reference semantics.

This backend *is* the behaviour every other backend must reproduce
bit-for-bit: arbitrary-precision-int signature filtering
(``sub & ~sup == 0``) and the adaptive merge/galloping sorted-list
intersection that previously lived in :mod:`repro.index.inverted`.
It has no dependencies beyond the standard library, so it is always
available and serves as the auto-selection fallback.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from repro.kernels.base import KernelBackend, SignaturePack

__all__ = [
    "GALLOP_RATIO",
    "PythonKernel",
    "PythonSignaturePack",
    "gallop_intersect",
    "merge_intersect",
]

#: Below this length ratio the plain linear merge wins over galloping
#: ("Fast Set Intersection in Memory": galloping pays off only when one
#: list is much shorter than the other).
GALLOP_RATIO = 8


def gallop_intersect(small: Sequence[int], large: Sequence[int]) -> list[int]:
    """Intersect two ascending lists where ``small`` is much shorter.

    For each item of ``small``, binary-search ``large`` within a window
    that only moves forward — O(|small| * log |large|).
    """
    out: list[int] = []
    lo = 0
    hi = len(large)
    for value in small:
        lo = bisect_left(large, value, lo, hi)
        if lo == hi:
            break
        if large[lo] == value:
            out.append(value)
            lo += 1
    return out


def merge_intersect(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Classic two-pointer merge intersection of ascending lists."""
    out: list[int] = []
    i = j = 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        x, y = a[i], b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return out


class PythonSignaturePack(SignaturePack):
    """Packed form for the pure backend: just the signature tuple."""

    __slots__ = ("signatures",)

    def __init__(self, signatures: Sequence[int], bits: int) -> None:
        super().__init__("python", bits, len(signatures))
        self.signatures = tuple(signatures)


class PythonKernel(KernelBackend):
    """Pure-Python kernels; always available, defines the parity contract."""

    name = "python"

    def pack_signatures(self, signatures: Sequence[int], bits: int) -> PythonSignaturePack:
        return PythonSignaturePack(signatures, bits)

    def filter_subset_batch(self, pack: SignaturePack, probe: int) -> list[int]:
        assert isinstance(pack, PythonSignaturePack)
        mask = ~probe
        return [i for i, sig in enumerate(pack.signatures) if sig & mask == 0]

    def intersect_sorted(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Adaptive strategy: lists within a factor ``GALLOP_RATIO`` of
        each other in length take the linear merge; otherwise galloping
        on the longer list wins."""
        if not a or not b:
            return []
        if len(a) > len(b):
            a, b = b, a
        if len(b) > GALLOP_RATIO * len(a):
            return gallop_intersect(a, b)
        return merge_intersect(a, b)
