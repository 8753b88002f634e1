"""The left canonical form engine and its invariants."""

import pytest

from bandforge.factors import delta_factor, enumerate_factors, factor_to_word, gen_factor
from bandforge.normal_form import (
    LeftCanonicalForm,
    lcf,
    lcf_to_word,
    left_weight_pair,
    signed_word,
)
from bandforge.words import BraidWord, delta_word, parse_word, permutation, writhe

from conftest import (
    append_letter,
    assert_same_braid,
    b4,
    insert_cancellation,
    insert_relator,
    random_braid_word,
    w4,
)
from transfer_reference import normalize_random_order, right_set, starting_set


class TestLeftWeightPair:
    def test_two_edges(self):
        assert left_weight_pair(b4("a1"), b4("a4")) == (b4("a1a4"), b4("e"))

    def test_full_transfer_to_delta(self):
        assert left_weight_pair(b4("b1"), b4("a2a4")) == (b4("delta"), b4("e"))

    def test_already_weighted(self):
        assert left_weight_pair(b4("a1"), b4("a2")) == (b4("a1"), b4("a2"))

    def test_delta_on_right_rotates(self):
        for f in enumerate_factors(4):
            if f.is_delta:
                continue
            from bandforge.factors import tau

            assert left_weight_pair(f, delta_factor(4)) == (delta_factor(4), tau(f))

    def test_preserves_product(self):
        factors = enumerate_factors(4)
        for a in factors:
            for b in factors:
                wa, wb = left_weight_pair(a, b)
                assert not right_set(wa) & starting_set(wb)
                assert_same_braid(
                    factor_to_word(a) * factor_to_word(b),
                    factor_to_word(wa) * factor_to_word(wb),
                )

    def test_preserves_product_five_strands(self, rng):
        factors = enumerate_factors(5)
        for _ in range(250):
            a, b = rng.choice(factors), rng.choice(factors)
            wa, wb = left_weight_pair(a, b)
            assert not right_set(wa) & starting_set(wb)
            assert wa.word_length + wb.word_length == a.word_length + b.word_length
            assert_same_braid(
                factor_to_word(a) * factor_to_word(b),
                factor_to_word(wa) * factor_to_word(wb),
            )


DELTA_TRIANGLE_WORD = "b2 a1 b1 a4 a2"
KNOT_7_2_WORD = "a1 a1 a1 a2 A1 a2 a3 A2 a3"   # closure is the knot 7_2
TWO_BAND_WORD = "a3 A1 A2 b2 b1 a1 b2 b1 a3"       # inf -1 but two negative bands needed


class TestLcfExamples:
    def test_short_mixed_product(self):
        form = lcf(w4(DELTA_TRIANGLE_WORD))
        assert form.power == 1
        assert [f.text() for f in form.factors] == ["{1,2,3}"]

    def test_knot72_word(self):
        form = lcf(w4(KNOT_7_2_WORD))
        flat = BraidWord(4)
        for f in form.factors:
            flat = flat * factor_to_word(f)
        assert form.power == -1
        assert flat.letters == w4("a4 a4 a4 a1 b2 a2 a3 a3").letters
        assert_same_braid(lcf_to_word(form), w4(KNOT_7_2_WORD))

    def test_two_negative_band_word(self):
        form = lcf(w4(TWO_BAND_WORD))
        flat = BraidWord(4)
        for f in form.factors:
            flat = flat * factor_to_word(f)
        assert form.power == -1
        assert flat.letters == w4("a2 a3 b2 b1 a1 b2 b1 a3").letters

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_delta_powers(self, k):
        form = lcf(delta_word(4) ** k)
        assert (form.power, form.factors) == (k, ())

    def test_identity(self):
        assert lcf(BraidWord(4)) == LeftCanonicalForm(4, 0, ())

    def test_single_negative_letter(self):
        form = lcf(w4("A1"))
        assert (form.inf, form.sup) == (-1, 0)

    def test_n1_and_n2(self):
        assert lcf(BraidWord(1)) == LeftCanonicalForm(1, 0, ())
        form = lcf(parse_word("a(2,1) a(2,1) A(2,1)", 2))
        assert (form.power, form.factors) == (1, ())


class TestInfSupLen:
    def test_knot72(self):
        form = lcf(w4(KNOT_7_2_WORD))
        assert (form.inf, form.sup, form.canonical_length) == (-1, 7, 8)

    def test_delta_power(self):
        form = lcf(w4("d^3"))
        assert (form.inf, form.sup, form.canonical_length) == (3, 3, 0)

    def test_single_factor(self):
        form = lcf(w4("b1"))
        assert (form.inf, form.sup, form.canonical_length) == (0, 1, 1)


class TestLcfToWord:
    def test_delta_then_triangle(self):
        form = LeftCanonicalForm(4, 1, (b4("a2a1"),))
        assert lcf_to_word(form).render() == "a(4,3) a(3,2) a(2,1) a(3,2) a(2,1)"

    def test_empty(self):
        assert lcf_to_word(LeftCanonicalForm(4, 0, ())) == BraidWord(4)

    def test_round_trip_random(self, rng):
        for _ in range(1000):
            n = rng.randint(2, 5)
            w = random_braid_word(n, rng.randint(0, 10), rng, neg=0.4)
            form = lcf(w)
            assert lcf(lcf_to_word(form)) == form

    def test_mixed_strand_counts_rejected(self):
        # A factor on fewer strands is an error, never an implicit embedding.
        with pytest.raises(ValueError, match="entry on 3 strands in a B_5 word"):
            signed_word(5, 0, [(gen_factor(3, 2, 1), 1)])
        with pytest.raises(ValueError, match="entry on 3 strands in a B_6 word"):
            lcf_to_word(LeftCanonicalForm(6, 1, (gen_factor(3, 2, 1),)))


class TestSoundness:
    def test_equals_input_braid(self, rng):
        # Oracle closures grow fast with positive length; keep words short
        # and sparse in negatives, the relator tests below cover longer
        # inputs without closures.
        from conftest import assert_lcf_sound, random_sparse_word

        for _ in range(150):
            w = random_sparse_word(4, rng.randint(0, 4), rng, max_negs=1)
            assert_lcf_sound(w)
        assert_lcf_sound(w4(DELTA_TRIANGLE_WORD))
        assert_lcf_sound(w4("A1 b2 a3 a2"))

    def test_relator_insertion_invariance(self, rng):
        for _ in range(150):
            w = random_braid_word(4, rng.randint(0, 8), rng, neg=0.3)
            assert lcf(insert_relator(w, rng)) == lcf(w)

    def test_cancellation_insertion_invariance(self, rng):
        for _ in range(150):
            w = random_braid_word(4, rng.randint(0, 8), rng, neg=0.3)
            assert lcf(insert_cancellation(w, rng)) == lcf(w)

    def test_writhe_conservation(self, rng):
        for _ in range(200):
            n = rng.randint(2, 6)
            w = random_braid_word(n, rng.randint(0, 10), rng, neg=0.4)
            form = lcf(w)
            total = sum(f.word_length for f in form.factors)
            assert (n - 1) * form.power + total == writhe(w)

    def test_permutation_conservation(self, rng):
        for _ in range(200):
            n = rng.randint(2, 6)
            w = random_braid_word(n, rng.randint(0, 10), rng, neg=0.4)
            assert permutation(lcf_to_word(lcf(w))) == permutation(w)

    def test_validator_on_outputs(self, rng):
        for _ in range(300):
            n = rng.randint(2, 6)
            w = random_braid_word(n, rng.randint(0, 12), rng, neg=0.4)
            lcf(w).validate()

    def test_delta_prefix_shifts_inf(self, rng):
        for _ in range(100):
            w = random_braid_word(4, rng.randint(0, 8), rng, neg=0.4)
            assert lcf(delta_word(4) * w).power == lcf(w).power + 1
            assert len(lcf(delta_word(4) * w).factors) == len(lcf(w).factors)


class TestDeterminism:
    def test_random_processing_orders(self, rng):
        from bandforge.factors import complement, gen_factor, tau

        for _ in range(60):
            w = random_braid_word(4, rng.randint(1, 9), rng, neg=0.4)
            expected = lcf(w)
            # The word as a raw factor sequence behind delta^-negs: each c^-1 is
            # complement(c) delta^-1, and every delta^-1 moves to the front,
            # rotating the factors it passes by tau^-1.
            negs = sum(1 for l in w.letters if l.sign < 0)
            seq, seen = [], 0
            for letter in w.letters:
                g = gen_factor(4, letter.t, letter.s)
                if letter.sign > 0:
                    seq.append(tau(g, -(negs - seen)))
                else:
                    seen += 1
                    seq.append(tau(complement(g), -(negs - seen + 1)))
            for _ in range(10):
                got = normalize_random_order(4, -negs, seq, rng)
                assert got == expected

    def test_append_letter_matches_batch(self, rng):
        for _ in range(100):
            w = random_braid_word(4, rng.randint(0, 9), rng, neg=0.4)
            form = LeftCanonicalForm(4, 0, ())
            for letter in w.letters:
                form = append_letter(form, letter.t, letter.s, letter.sign)
            assert form == lcf(w)


class TestValidation:
    def test_validator_rejects_bad_pair(self):
        bad = LeftCanonicalForm(4, 0, (b4("a1"), b4("b1")))
        with pytest.raises(AssertionError):
            bad.validate()

    def test_validator_rejects_delta_factor(self):
        bad = LeftCanonicalForm(4, 0, (delta_factor(4),))
        with pytest.raises(AssertionError):
            bad.validate()

    def test_json_shape(self):
        payload = lcf(w4(DELTA_TRIANGLE_WORD)).to_json()
        assert payload["delta_power"] == 1 == payload["inf"]
        assert payload["sup"] == 2 and payload["len"] == 1
        assert payload["factors"] == [[[1, 2, 3], [4]]]
