"""Signature hash functions: set values -> fixed-length bitmaps.

Sec. II-A defines a signature hash ``h`` as any function with the soundness
property ``t1.set ⊆ t2.set  ⇒  h(t1.set) ⊑ h(t2.set)``.  The paper's
"straightforward implementation" sets, for every element ``x`` of the set,
bit ``x mod b`` of a ``b``-bit string.  Any *per-element* hash keeps the
soundness property, so this module also offers a scrambled variant that
decorrelates adjacent domain values (useful when the domain is clustered).

All functions honour the MSB-first bit convention of
:mod:`repro.signatures.bitmap`: element ``x`` sets *logical* position
``x mod b``, i.e. int bit ``b - 1 - (x mod b)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.errors import SignatureError

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.kernels.base import KernelBackend

__all__ = [
    "SignatureScheme",
    "ModuloScheme",
    "ScrambleScheme",
    "signature_of",
]

# splitmix64 constants; the scrambled scheme uses the full finalizer —
# a single multiply-xor-shift leaves low bits of consecutive inputs
# correlated, which is fatal when ``bits`` is a power of two.
_SCRAMBLE_INCREMENT = 0x9E3779B97F4A7C15
_SCRAMBLE_MULT_1 = 0xBF58476D1CE4E5B9
_SCRAMBLE_MULT_2 = 0x94D049BB133111EB
_SCRAMBLE_MASK = (1 << 64) - 1


class SignatureScheme:
    """Base class for signature hash functions.

    A scheme fixes the signature length ``bits`` and maps each element to one
    bit position via :meth:`bit_of`.  Subclasses override :meth:`bit_of`
    only; :meth:`signature` implements the shared fold.

    Args:
        bits: Signature length ``b`` in bits (positive).

    Raises:
        SignatureError: If ``bits`` is not positive.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: int) -> None:
        if bits <= 0:
            raise SignatureError(f"signature length must be positive, got {bits}")
        self.bits = bits

    def bit_of(self, element: int) -> int:
        """Logical bit position (0-based, MSB-first) for ``element``."""
        raise NotImplementedError

    def signature(self, elements: Iterable[int]) -> int:
        """Fold a set of elements into one signature int.

        The empty set maps to signature 0, which is ``⊑`` every signature —
        consistent with the empty set being a subset of every set.
        """
        bits = self.bits
        sig = 0
        for x in elements:
            sig |= 1 << (bits - 1 - self.bit_of(x))
        return sig

    def signatures(self, sets: Sequence[Iterable[int]], kernel: "KernelBackend") -> list[int]:
        """:meth:`signature` of every set, in order.

        The base scheme folds one set at a time; a scheme with a kernel
        form (:class:`ModuloScheme`) hashes the whole batch in one
        ``kernel`` call.  Either way the ints equal per-set
        :meth:`signature` calls.
        """
        signature = self.signature
        return [signature(elements) for elements in sets]

    def is_exact_for(self, max_element: int) -> bool:
        """True when sets of elements ``<= max_element`` hash injectively.

        Every such element then owns its bit, so a signature is an exact
        bitmap of its set and ``sig(a) ⊑ sig(b)`` iff ``a ⊆ b`` — the
        ``b = d`` endpoint of Sec. III-D.  The base scheme promises no
        injectivity and answers ``False``.
        """
        return False

    def __repr__(self) -> str:
        return f"<{type(self).__name__} b={self.bits}>"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.bits == other.bits  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.bits))


class ModuloScheme(SignatureScheme):
    """The paper's scheme: element ``x`` sets bit ``x mod b``."""

    __slots__ = ()

    def bit_of(self, element: int) -> int:
        return element % self.bits

    def signature(self, elements: Iterable[int]) -> int:
        # The base fold with ``bit_of`` inlined: every join hashes each
        # record once, and the method call per element was about a third
        # of the fold's cost (1.4x faster on the Fig. 8 twitter sets).
        bits = self.bits
        top = bits - 1
        sig = 0
        for x in elements:
            sig |= 1 << (top - x % bits)
        return sig

    def signatures(self, sets: Sequence[Iterable[int]], kernel: "KernelBackend") -> list[int]:
        return kernel.modulo_signatures(sets, self.bits)

    def is_exact_for(self, max_element: int) -> bool:
        # Elements are non-negative, so below ``bits`` ``x mod b`` is ``x``.
        return max_element < self.bits


class ScrambleScheme(SignatureScheme):
    """Multiplicative scrambling before the modulo.

    Elements that are numerically adjacent (common after dictionary
    encoding) land on decorrelated bits, which reduces signature collisions
    on clustered domains.  Still a per-element hash, so the soundness
    property of Sec. II-A holds.  Scrambling promises no injectivity, so
    :meth:`is_exact_for` keeps the base answer, ``False``.
    """

    __slots__ = ()

    def bit_of(self, element: int) -> int:
        z = (element + _SCRAMBLE_INCREMENT) & _SCRAMBLE_MASK
        z = ((z ^ (z >> 30)) * _SCRAMBLE_MULT_1) & _SCRAMBLE_MASK
        z = ((z ^ (z >> 27)) * _SCRAMBLE_MULT_2) & _SCRAMBLE_MASK
        z ^= z >> 31
        return z % self.bits


def signature_of(
    elements: Iterable[int],
    bits: int,
    scheme: Callable[[int], SignatureScheme] = ModuloScheme,
) -> int:
    """One-shot helper: build a scheme and hash ``elements``.

    Prefer constructing a :class:`SignatureScheme` once when hashing many
    sets; this helper exists for examples and tests.
    """
    return scheme(bits).signature(elements)
