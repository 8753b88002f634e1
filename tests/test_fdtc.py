"""FDTC interval bounds against the exact rational fixtures."""

from fractions import Fraction

import pytest

from bandforge.factors import enumerate_factors, factor_to_word
from bandforge.fdtc import FdtcInterval
from bandforge.positivity import braid_report
from bandforge.words import parse_word

from conftest import random_braid_word, w4

# Exact FDTC values of two-factor products in B_4 (train-track computations;
# fixtures only, the library just brackets them).
#
# (a2a1)(a3) carries 1/4: a2 a1 a3 is a cyclic permutation of a3 a2 a1 =
# delta, hence conjugate to it, and the FDTC is a conjugacy invariant with
# value 1/n on delta.
TWO_FACTOR_FDTC = [
    ("a2a1", "a2", "0"), ("a1", "a2", "0"), ("a2a1", "a1", "0"),
    ("a1", "b2", "0"), ("b1", "a1", "0"), ("a2a1", "b1", "0"),
    ("a1a3", "a1", "0"), ("a2a1", "b2", "1/4"), ("a1a3", "b2", "1/4"),
    ("b1", "a1a3", "1/4"), ("a1a3", "a4", "1/4"), ("delta", "a1", "1/3"),
    ("a2a1", "a3", "1/4"), ("a2a1", "a1a3", "1/3"), ("a1a3", "a1a4", "1/3"),
    ("delta", "b2", "3/8"), ("a2a1", "a3a2", "3/8"), ("b1", "b2", "1/2"),
    ("a1a3", "a2a4", "1/2"), ("delta", "a2a4", "1/2"), ("delta", "a2a1", "1/2"),
]

WORDS = {
    "e": "", "a1": "a1", "a2": "a2", "a3": "a3", "a4": "a4", "b1": "b1",
    "b2": "b2", "a2a1": "a2 a1", "a3a2": "a3 a2", "a4a3": "a4 a3",
    "a1a4": "a1 a4", "a1a3": "a1 a3", "a2a4": "a2 a4", "delta": "d",
}


class TestFixtures:
    @pytest.mark.parametrize("left,right,value", TWO_FACTOR_FDTC)
    def test_two_factor_products(self, left, right, value):
        w = w4(f"{WORDS[left]} {WORDS[right]}")
        interval = braid_report(w).fdtc
        assert interval.contains(Fraction(value)), (left, right, interval)

    def test_delta_pinched(self):
        assert braid_report(w4("d")).fdtc.pinched == Fraction(1, 4)

    def test_full_twist_pinched(self):
        assert braid_report(w4("d^4")).fdtc.pinched == 1
        assert braid_report(parse_word("d^3", 3)).fdtc.pinched == 1

    def test_nontrivial_factors_bracket_zero(self):
        for f in enumerate_factors(4):
            if f.is_identity or f.is_delta:
                continue
            interval = braid_report(factor_to_word(f)).fdtc
            assert interval.lower == 0 and interval.upper == Fraction(1, 4)

    def test_identity_interval(self):
        interval = braid_report(w4("")).fdtc
        assert interval.pinched == 0

    def test_delta_times_a1_bounds(self):
        interval = braid_report(w4("d a1")).fdtc
        assert interval.lower == Fraction(1, 4) and interval.upper == Fraction(1, 2)

    def test_generic_word_not_pinched(self):
        assert braid_report(w4("b1 b2")).fdtc.pinched is None


class TestProperties:
    def test_conjugation_invariance(self, rng):
        for _ in range(40):
            w = random_braid_word(4, rng.randint(1, 6), rng, neg=0.3)
            v = random_braid_word(4, rng.randint(0, 3), rng, neg=0.5)
            assert braid_report(w).fdtc == braid_report(w.conjugated_by(v)).fdtc

    def test_central_powers_scale(self):
        for k in (1, 2, 3):
            interval = braid_report(w4(f"d^{4 * k}")).fdtc
            assert interval.pinched == k

    def test_denominators_divide_n(self, rng):
        for _ in range(30):
            n = rng.randint(2, 5)
            w = random_braid_word(n, rng.randint(0, 6), rng, neg=0.4)
            interval = braid_report(w).fdtc
            assert n % interval.lower.denominator == 0
            assert n % interval.upper.denominator == 0

    def test_interval_ordering_enforced(self):
        with pytest.raises(ValueError):
            FdtcInterval(Fraction(1), Fraction(0))

    def test_json_rendering(self):
        payload = braid_report(w4("d a1")).fdtc.to_json()
        assert payload == {"lower": "1/4", "upper": "1/2", "exact": None}
