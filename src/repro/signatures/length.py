"""Signature-length selection (paper Sec. III-D).

PTSJ accepts signatures of thousands of bits because its Patricia trie never
enumerates the exponential subset space.  The paper derives three constraints
on the length ``b``:

* **Upper bound** ``b <= d`` (domain cardinality): at ``b = d`` the signature
  *is* an exact bitmap of the set, so longer signatures add nothing.
* **Lower bound** ``b >= c`` (set cardinality): below ``c`` most signatures
  saturate to all-ones and filter nothing.
* **Sweet spot** ``c/2 * Int <= b <= c * Int`` where ``Int`` is the machine
  word size in bits (32 in the paper's Java implementation), i.e. a ratio
  ``b/c`` between 16 and 32 — validated by the paper's Fig. 5 and by this
  repository's ``benchmarks/test_fig5_signature_length.py``.
* **Cap** ``b <= 256 * Int`` to bound memory.

The final strategy is ``b = min(d, (c/2) * Int, 256 * Int)`` using the lower
end of the sweet spot, clamped below by ``c``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.errors import SignatureError

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.relations.stats import RelationStats

__all__ = ["SignatureLengthStrategy", "choose_signature_length"]

#: Word size the paper's analysis assumes (Java ``int``).
DEFAULT_INT_BITS = 32

#: The paper caps signatures at 256 machine words.
DEFAULT_MAX_WORDS = 256


class SignatureLengthStrategy:
    """The Sec. III-D signature-length rule, as a reusable object.

    Args:
        int_bits: Machine word size ``Int`` in bits.  The paper uses 32.
        max_words: Hard cap expressed in words (paper: 256).
        ratio: Target ``b/c`` ratio divided by ``int_bits``; the paper uses
            the lower bound of the sweet spot, i.e. ``ratio = 0.5`` giving
            ``b = (c/2) * Int`` (ratio ``b/c = 16`` when ``Int = 32``).

    Raises:
        SignatureError: On non-positive parameters.
    """

    __slots__ = ("int_bits", "max_words", "ratio")

    def __init__(
        self,
        int_bits: int = DEFAULT_INT_BITS,
        max_words: int = DEFAULT_MAX_WORDS,
        ratio: float = 0.5,
    ) -> None:
        if int_bits <= 0 or max_words <= 0 or ratio <= 0:
            raise SignatureError("int_bits, max_words and ratio must be positive")
        self.int_bits = int_bits
        self.max_words = max_words
        self.ratio = ratio

    def choose(self, set_cardinality: float, domain_cardinality: int) -> int:
        """Pick ``b`` for a dataset with average cardinality ``c`` and domain ``d``.

        Implements ``b = min(d, ratio * c * Int, max_words * Int)`` and then
        clamps to ``b >= max(c, 1)`` (the paper's lower bound) and ``b >= 8``
        so degenerate datasets still get a usable signature.

        Args:
            set_cardinality: Average set cardinality ``c`` (may be fractional).
            domain_cardinality: Domain size ``d``.

        Raises:
            SignatureError: If either argument is non-positive.
        """
        if set_cardinality <= 0:
            raise SignatureError(f"set cardinality must be positive, got {set_cardinality}")
        if domain_cardinality <= 0:
            raise SignatureError(f"domain cardinality must be positive, got {domain_cardinality}")
        target = int(math.ceil(self.ratio * set_cardinality * self.int_bits))
        lower = max(int(math.ceil(set_cardinality)), 8)
        cap = self.max_words * self.int_bits
        # Respect the b >= c lower bound first, then let the hard caps win:
        # the 256-word cap bounds memory absolutely, and b = d is an exact
        # bitmap (no false positives), so exceeding d is never useful.
        return min(max(target, lower), cap, domain_cardinality)

    def choose_for_stats(self, s: "RelationStats", r: "RelationStats | None" = None) -> int:
        """Pick ``b`` for indexing ``S`` (probed by ``R`` when known) from statistics.

        The one place the Sec. III-D inputs are derived from relation
        statistics: ``c`` is the average cardinality over both relations
        (``S`` alone without ``R``), at least 1, and ``d`` is the hash
        domain ``max_element + 1``, at least 1, so empty relations still
        get a usable length.  Reads only ``total_elements``, ``size`` and
        ``max_element`` — the memoized :func:`~repro.relations.compute_stats`
        fields, so a join the planner already sized pays no rescan.
        """
        total = s.total_elements
        count = s.size
        max_element = s.max_element
        if r is not None:
            total += r.total_elements
            count += r.size
            max_element = max(max_element, r.max_element)
        avg_c = max(total / count, 1.0) if count else 1.0
        return self.choose(avg_c, max(max_element + 1, 1))

    def __repr__(self) -> str:
        return (
            f"<SignatureLengthStrategy Int={self.int_bits} "
            f"cap={self.max_words} words ratio={self.ratio}>"
        )


def choose_signature_length(
    set_cardinality: float,
    domain_cardinality: int,
    int_bits: int = DEFAULT_INT_BITS,
    max_words: int = DEFAULT_MAX_WORDS,
) -> int:
    """Functional shortcut for :class:`SignatureLengthStrategy` with defaults.

    >>> choose_signature_length(16, 2 ** 14)   # (c/2) * 32 = 256 bits
    256
    >>> choose_signature_length(16, 100)       # capped by the domain
    100
    """
    return SignatureLengthStrategy(int_bits=int_bits, max_words=max_words).choose(
        set_cardinality, domain_cardinality
    )
