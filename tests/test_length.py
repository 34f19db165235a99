"""Unit tests for the Sec. III-D signature-length strategy."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SignatureError
from repro.relations.relation import Relation
from repro.relations.stats import compute_stats
from repro.signatures.length import SignatureLengthStrategy, choose_signature_length


class TestChooseSignatureLength:
    def test_sweet_spot_ratio_16(self):
        """Default strategy gives b = (c/2) * 32 = 16c."""
        assert choose_signature_length(16, 2 ** 14) == 256
        assert choose_signature_length(64, 2 ** 20) == 1024

    def test_domain_upper_bound(self):
        """b <= d: at b = d the signature is an exact bitmap."""
        assert choose_signature_length(16, 100) == 100

    def test_word_cap(self):
        """b <= 256 * Int = 8192 bits."""
        assert choose_signature_length(10_000, 10 ** 9) == 8192

    def test_lower_bound_c(self):
        """b >= c (below c signatures saturate)."""
        strategy = SignatureLengthStrategy(ratio=0.001)
        b = strategy.choose(64, 2 ** 20)
        assert b >= 64

    def test_tiny_domain_wins_over_lower_bound(self):
        """If d < c the exact bitmap b = d is still the right answer."""
        assert choose_signature_length(50, 10) == 10

    def test_minimum_floor(self):
        assert choose_signature_length(1, 2 ** 20) >= 8

    def test_fractional_cardinality_accepted(self):
        assert choose_signature_length(5.36, 10 ** 6) > 0

    def test_invalid_inputs(self):
        with pytest.raises(SignatureError):
            choose_signature_length(0, 100)
        with pytest.raises(SignatureError):
            choose_signature_length(10, 0)

    def test_custom_word_size(self):
        """Int = 64 doubles the target length."""
        assert choose_signature_length(16, 2 ** 20, int_bits=64) == 512


class TestStrategyObject:
    def test_invalid_construction(self):
        with pytest.raises(SignatureError):
            SignatureLengthStrategy(int_bits=0)
        with pytest.raises(SignatureError):
            SignatureLengthStrategy(max_words=0)
        with pytest.raises(SignatureError):
            SignatureLengthStrategy(ratio=0)

    def test_ratio_parameterises_sweet_spot(self):
        low = SignatureLengthStrategy(ratio=0.5).choose(16, 2 ** 20)
        high = SignatureLengthStrategy(ratio=1.0).choose(16, 2 ** 20)
        assert high == 2 * low

    def test_monotone_in_cardinality(self):
        strategy = SignatureLengthStrategy()
        lengths = [strategy.choose(c, 2 ** 20) for c in (4, 8, 16, 32, 64)]
        assert lengths == sorted(lengths)

    def test_repr(self):
        assert "Int=32" in repr(SignatureLengthStrategy())


def per_record_bits(
    strategy: SignatureLengthStrategy, r: Relation | None, s: Relation
) -> int:
    """The per-record formula the signature joins used before the stats helper."""
    cards = [rec.cardinality for rec in s]
    max_elem = s.max_element()
    if r is not None:
        cards += [rec.cardinality for rec in r]
        max_elem = max(max_elem, r.max_element())
    avg_c = max(sum(cards) / len(cards), 1.0) if cards else 1.0
    return strategy.choose(avg_c, max(max_elem + 1, 1))


relations = st.lists(
    st.frozensets(st.integers(0, 20_000), max_size=40), max_size=12
).map(Relation.from_sets)


@settings(max_examples=150, deadline=None)
@given(s=relations, r=st.one_of(st.none(), relations),
       ratio=st.sampled_from([0.125, 0.5, 1.0]))
def test_choose_for_stats_matches_per_record_formula(s, r, ratio):
    # Empty relations and R = None included.
    strategy = SignatureLengthStrategy(ratio=ratio)
    expected = per_record_bits(strategy, r, s)
    r_stats = None if r is None else compute_stats(r)
    assert strategy.choose_for_stats(compute_stats(s), r_stats) == expected
