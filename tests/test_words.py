"""Word layer: parsing, rendering, Artin conversion, permutation, writhe."""

import pytest

from bandforge.factors import _factor_letters, enumerate_factors
from bandforge.normal_form import lcf
from bandforge.words import (
    MAX_WORD_LETTERS,
    BandLetter,
    BraidWord,
    ParseError,
    artin_to_band,
    delta_word,
    parse_word,
    permutation,
    writhe,
)

from conftest import random_braid_word
from oracle import relation_neighbors


class TestParse:
    def test_delta_word(self):
        w = parse_word("a(3,4) a(2,3) a(1,2)", 4)
        assert w.letters == delta_word(4).letters

    def test_empty_is_identity(self):
        assert parse_word("", 4) == BraidWord(4)
        assert parse_word("   ", 4).letters == ()

    def test_power_expansion(self):
        w = parse_word("b(1,3)^-1 a(1,2)^2", 4)
        assert w.letters == (
            BandLetter(3, 1, -1),
            BandLetter(2, 1, 1),
            BandLetter(2, 1, 1),
        )

    def test_zero_power(self):
        assert parse_word("a(1,2)^0", 4).letters == ()

    def test_uppercase_negative_power_cancels_sign(self):
        assert parse_word("A(1,2)^-2", 4) == parse_word("a1^2", 4)

    def test_delta_token(self):
        assert parse_word("d", 4).letters == delta_word(4).letters
        assert parse_word("D", 4).letters == delta_word(4).inverse().letters
        assert parse_word("d^-2", 4).letters == (delta_word(4).inverse() ** 2).letters

    def test_artin_tokens(self):
        assert parse_word("s1 S2", 4).letters == (BandLetter(2, 1, 1), BandLetter(3, 2, -1))

    def test_aliases_only_for_n4(self):
        assert parse_word("b2", 4).letters == (BandLetter(4, 2, 1),)
        with pytest.raises(ParseError):
            parse_word("b2", 5)

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError, match="token 2"):
            parse_word("a(1,2) nonsense", 4)

    def test_range_error_names_token(self):
        with pytest.raises(ParseError, match=r"a\(5,2\)"):
            parse_word("a(5,2)", 4)
        with pytest.raises(ParseError, match="token 1"):
            parse_word("a(2,2)", 4)
        with pytest.raises(ParseError):
            parse_word("s4", 4)

    def test_letter_limit(self):
        # Powers are counted before they are expanded; the limit itself parses.
        assert len(parse_word(f"a1^{MAX_WORD_LETTERS}", 4)) == MAX_WORD_LETTERS
        assert len(parse_word(f"D^{(MAX_WORD_LETTERS - 1) // 3} A2", 4)) == MAX_WORD_LETTERS
        over = (f"a1^{MAX_WORD_LETTERS} a2", f"d^{MAX_WORD_LETTERS // 3 + 1}", "S1^-100000000")
        for text in over:
            with pytest.raises(ParseError, match=f"more than {MAX_WORD_LETTERS} letters"):
                parse_word(text, 4)

    def test_round_trip_random(self, rng):
        for _ in range(300):
            n = rng.randint(2, 7)
            w = random_braid_word(n, rng.randint(0, 12), rng, neg=0.4)
            assert parse_word(w.render(), n) == w


class TestArtin:
    def test_adjacent_bands(self):
        assert artin_to_band([1, 2], 3).letters == (BandLetter(2, 1, 1), BandLetter(3, 2, 1))

    def test_seven_two_word(self):
        w = artin_to_band([1, 1, 1, 2, -1, 2, 3, -2, 3], 4)
        assert w == parse_word("a1 a1 a1 a2 A1 a2 a3 A2 a3", 4)

    def test_empty(self):
        assert artin_to_band([], 4) == BraidWord(4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            artin_to_band([3], 3)


class TestPermutation:
    def test_delta_is_long_cycle(self):
        # Letters act left to right, so delta sends 1->2->3->4->1.
        assert permutation(delta_word(4)) == (2, 3, 4, 1)

    def test_empty_word(self):
        assert permutation(BraidWord(5)) == (1, 2, 3, 4, 5)

    def test_word_times_inverse(self, rng):
        for _ in range(50):
            w = random_braid_word(4, rng.randint(0, 10), rng, neg=0.3)
            assert permutation(w * w.inverse()) == (1, 2, 3, 4)

    def test_invariant_under_relations(self, rng):
        for _ in range(200):
            w = random_braid_word(5, rng.randint(2, 9), rng)
            chords = tuple(l.chord for l in w.letters)
            for nb in relation_neighbors(chords):
                v = BraidWord(5, tuple(BandLetter(t, s, 1) for t, s in nb))
                assert permutation(v) == permutation(w)


class TestWrithe:
    def test_delta(self):
        assert writhe(delta_word(4)) == 3

    def test_mixed_example(self):
        w = parse_word("d^-2 a(4,3) a(3,2) a(4,1) a(4,3) a(4,1) a(3,1) a(4,2)", 4)
        assert writhe(w) == -6 + 7

    def test_empty(self):
        assert writhe(BraidWord(4)) == 0

    def test_additive(self, rng):
        for _ in range(50):
            u = random_braid_word(4, rng.randint(0, 8), rng, neg=0.5)
            v = random_braid_word(4, rng.randint(0, 8), rng, neg=0.5)
            assert writhe(u * v) == writhe(u) + writhe(v)

    def test_invariant_under_rewrites_and_cancellation(self, rng):
        from conftest import insert_cancellation, insert_relator

        for _ in range(100):
            w = random_braid_word(4, rng.randint(1, 8), rng, neg=0.4)
            assert writhe(insert_relator(w, rng)) == writhe(w)
            assert writhe(insert_cancellation(w, rng)) == writhe(w)


class TestWordAlgebra:
    def test_mismatched_n_raises(self):
        with pytest.raises(ValueError):
            BraidWord(4) * BraidWord(5)

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            BraidWord(3, (BandLetter(4, 1, 1),))

    @pytest.mark.parametrize("sign", [0, 2, -2, 5])
    def test_letter_sign_must_be_unit(self, sign):
        with pytest.raises(ValueError, match=f"has sign {sign}"):
            BraidWord(4, (BandLetter(2, 1, 1), BandLetter(3, 1, sign)))

    def test_library_words_have_unit_signs(self, rng):
        # Each of these builds a BraidWord, which rejects any other sign.
        for f in enumerate_factors(5):
            for sign in (1, -1):
                BraidWord(5, _factor_letters(f, sign))
        w = parse_word("a(3,1)^2 A(4,2) s2^-3 d D^2 B1", 4)
        for word in (w, w.inverse(), w**3, w**-2, random_braid_word(6, 30, rng, neg=0.5)):
            assert {l.sign for l in word.letters} <= {1, -1}

    def test_inverse_reverses_and_flips(self):
        w = parse_word("a1 B2", 4)
        assert w.inverse() == parse_word("b2 A1", 4)

    def test_power(self):
        w = parse_word("a1 a2", 4)
        assert w**2 == parse_word("a1 a2 a1 a2", 4)
        assert w**-1 == w.inverse()
        assert w**0 == BraidWord(4)

    @pytest.mark.parametrize(
        "text, reduced",
        [
            ("a1 A1", ""),
            ("a1 a2 A2 A1 a3", "a3"),
            ("b1 a(3,1) A(3,1) B1 A2", "A2"),
            ("a1 A2 a1", "a1 A2 a1"),
            ("A1 a1 a1", "a1"),
            ("a(4,3) A(4,2)", "a(4,3) A(4,2)"),
        ],
    )
    def test_freely_reduced(self, text, reduced):
        assert parse_word(text, 4).freely_reduced() == parse_word(reduced, 4)

    def test_freely_reduced_keeps_the_braid(self, rng):
        for _ in range(50):
            w = random_braid_word(5, rng.randint(0, 12), rng, neg=0.5)
            u = random_braid_word(5, rng.randint(0, 4), rng, neg=0.5)
            padded = w * u * u.inverse()
            reduced = padded.freely_reduced()
            assert reduced.freely_reduced() == reduced
            assert len(reduced) <= len(w)
            assert lcf(reduced) == lcf(w)
            assert all(a != b.inverse() for a, b in zip(reduced.letters, reduced.letters[1:]))
