"""Fixed-length signature bitmaps backed by Python ints.

A *signature* (Sec. II-A of the paper) is a ``b``-bit string.  We store it in
an arbitrary-precision Python int, which gives the same bit-parallel AND/NOT
kernels the paper gets from arrays of Java ints.

Bit-order convention (used by every trie in this package):
    Logical bit position ``i`` (``0 <= i < b``), where position 0 is the
    *first* bit examined at the trie root, lives at int shift ``b - 1 - i``.
    In other words signatures read MSB-first, so integer comparison order
    equals root-to-leaf trie order and slicing a bit segment is a single
    shift-and-mask.

The containment relation between signatures (paper notation ``sig1 ⊑ sig2``)
is ``sig1 & ~sig2 == 0``: every set bit of ``sig1`` is set in ``sig2``.

Scalar ops live here; their *batch* forms (filter a whole packed array
of signatures against one probe in a single call) are kernel operations
(:mod:`repro.kernels`), so a vectorized backend can serve them.
"""

from __future__ import annotations

from repro.errors import SignatureError

__all__ = [
    "is_subset_sig",
    "is_superset_sig",
    "popcount",
    "hamming",
    "get_bit",
    "bit_segment",
    "set_bit",
    "sig_to_bits",
    "bits_to_sig",
    "full_mask",
    "validate_signature",
]


def validate_signature(sig: int, bits: int) -> None:
    """Check that ``sig`` is a valid ``bits``-wide signature.

    Raises:
        SignatureError: If ``bits`` is not positive, ``sig`` is negative, or
            ``sig`` has bits set beyond position ``bits - 1``.
    """
    if bits <= 0:
        raise SignatureError(f"signature length must be positive, got {bits}")
    if sig < 0:
        raise SignatureError(f"signature must be non-negative, got {sig}")
    if sig >> bits:
        raise SignatureError(f"signature 0x{sig:x} does not fit in {bits} bits")


def full_mask(bits: int) -> int:
    """The all-ones signature of width ``bits``."""
    if bits <= 0:
        raise SignatureError(f"signature length must be positive, got {bits}")
    return (1 << bits) - 1


def is_subset_sig(sub: int, sup: int) -> bool:
    """The paper's ``sub ⊑ sup``: every 1-bit of ``sub`` is set in ``sup``.

    This is the signature filter used by every signature-based join: if
    ``t1.set ⊆ t2.set`` then ``sig(t1) ⊑ sig(t2)`` (but not conversely).
    """
    return sub & ~sup == 0


def is_superset_sig(sup: int, sub: int) -> bool:
    """True iff ``sup`` covers ``sub`` (alias with operands swapped)."""
    return sub & ~sup == 0


def popcount(sig: int) -> int:
    """Number of set bits (Python 3.8+: constant-time C implementation)."""
    return sig.bit_count()


def hamming(a: int, b: int) -> int:
    """Hamming distance between two equal-width signatures."""
    return (a ^ b).bit_count()


def get_bit(sig: int, position: int, bits: int) -> int:
    """Logical bit ``position`` of ``sig`` under the MSB-first convention.

    ``position`` 0 is the bit the trie root branches on.
    """
    return (sig >> (bits - 1 - position)) & 1


def set_bit(sig: int, position: int, bits: int) -> int:
    """Return ``sig`` with logical bit ``position`` set to 1."""
    if not 0 <= position < bits:
        raise SignatureError(f"bit position {position} outside [0, {bits})")
    return sig | (1 << (bits - 1 - position))


def bit_segment(sig: int, start: int, stop: int, bits: int) -> int:
    """Extract logical bits ``[start, stop)`` of ``sig`` as an int.

    The returned value has ``stop - start`` significant bits, MSB-first —
    the representation Patricia-trie nodes store their merged prefix in.

    >>> bit_segment(0b0111, 1, 3, 4)   # bits '11' of '0111'
    3
    """
    if not 0 <= start <= stop <= bits:
        raise SignatureError(f"segment [{start}, {stop}) outside [0, {bits}]")
    width = stop - start
    if width == 0:
        return 0
    return (sig >> (bits - stop)) & ((1 << width) - 1)


def sig_to_bits(sig: int, bits: int) -> str:
    """Render ``sig`` as a ``bits``-character binary string (MSB first).

    Matches the paper's figures, e.g. signature 0111 for tuple ``u1``.
    """
    validate_signature(sig, bits)
    return format(sig, f"0{bits}b")


def bits_to_sig(text: str) -> int:
    """Parse a binary string (as printed in the paper's figures) to an int.

    Raises:
        SignatureError: If ``text`` is empty or has non-binary characters.
    """
    if not text or any(ch not in "01" for ch in text):
        raise SignatureError(f"not a binary string: {text!r}")
    return int(text, 2)
