"""Unit tests for signature hash schemes."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SignatureError
from repro.signatures.bitmap import is_subset_sig, sig_to_bits
from repro.signatures.hashing import (
    ModuloScheme,
    ScrambleScheme,
    SignatureScheme,
    signature_of,
)


class TestModuloScheme:
    def test_paper_table1_signatures(self):
        """Table I shows 4-bit signatures; with 1-based letters the paper
        gets u1={b,d,f,g} -> 0111.  Our 0-based encoding shifts by one but
        the containment structure is identical."""
        scheme = ModuloScheme(4)
        # b,d,f,g -> 1,3,5,6 (0-based); bits {1%4,3%4,5%4,6%4} = {1,3,1,2}
        sig = scheme.signature({1, 3, 5, 6})
        assert sig_to_bits(sig, 4) == "0111"

    def test_empty_set_is_zero(self):
        assert ModuloScheme(8).signature(frozenset()) == 0

    @given(elements=st.frozensets(st.integers(0, 10_000), max_size=80),
           bits=st.integers(1, 600))
    def test_inlined_fold_equals_generic_fold(self, elements, bits):
        scheme = ModuloScheme(bits)
        assert scheme.signature(elements) == SignatureScheme.signature(scheme, elements)

    def test_signature_fits_width(self):
        scheme = ModuloScheme(16)
        sig = scheme.signature(range(1000))
        assert sig >> 16 == 0

    def test_bit_of_is_modulo(self):
        scheme = ModuloScheme(8)
        assert scheme.bit_of(0) == 0
        assert scheme.bit_of(8) == 0
        assert scheme.bit_of(13) == 5

    def test_same_bits_for_colliding_elements(self):
        scheme = ModuloScheme(4)
        assert scheme.signature({1}) == scheme.signature({5})

    def test_invalid_width_rejected(self):
        with pytest.raises(SignatureError):
            ModuloScheme(0)
        with pytest.raises(SignatureError):
            ModuloScheme(-3)

    def test_soundness_property(self):
        """t1.set <= t2.set implies sig(t1) contained in sig(t2)."""
        scheme = ModuloScheme(13)
        small = frozenset({2, 30, 77})
        big = small | {5, 9, 100}
        assert is_subset_sig(scheme.signature(small), scheme.signature(big))

    def test_equality_and_hash(self):
        assert ModuloScheme(8) == ModuloScheme(8)
        assert ModuloScheme(8) != ModuloScheme(9)
        assert ModuloScheme(8) != ScrambleScheme(8)
        assert hash(ModuloScheme(8)) == hash(ModuloScheme(8))


class TestScrambleScheme:
    def test_soundness_property(self):
        scheme = ScrambleScheme(64)
        small = frozenset({10, 20})
        big = small | {30}
        assert is_subset_sig(scheme.signature(small), scheme.signature(big))

    def test_deterministic(self):
        a = ScrambleScheme(32).signature({1, 2, 3})
        b = ScrambleScheme(32).signature({1, 2, 3})
        assert a == b

    def test_decorrelates_adjacent_elements(self):
        """Adjacent ints should not land on adjacent bits (unlike modulo)."""
        scheme = ScrambleScheme(256)
        positions = [scheme.bit_of(x) for x in range(16)]
        diffs = {abs(a - b) for a, b in zip(positions, positions[1:])}
        assert diffs != {1}

    def test_bit_in_range(self):
        scheme = ScrambleScheme(37)
        assert all(0 <= scheme.bit_of(x) < 37 for x in range(500))


class TestSignatureOf:
    def test_one_shot_matches_scheme(self):
        assert signature_of({1, 2}, 8) == ModuloScheme(8).signature({1, 2})

    def test_scheme_override(self):
        assert signature_of({1, 2}, 8, ScrambleScheme) == ScrambleScheme(8).signature({1, 2})


class TestScrambleUniformity:
    """Regression: a single multiply-xor-shift mix left the low bits of
    consecutive inputs correlated, collapsing power-of-two moduli onto a
    single value.  The full splitmix64 finalizer must spread them."""

    def test_power_of_two_width_spreads(self):
        scheme = ScrambleScheme(256)
        positions = {scheme.bit_of(e) for e in range(256)}
        assert len(positions) > 150

    def test_low_bits_not_constant(self):
        scheme = ScrambleScheme(8)
        assert len({scheme.bit_of(e) for e in range(64)}) == 8
