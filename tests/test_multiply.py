"""Multiplying a normal form by one factor: one domino pass each way.

The invariant tests count the left-weighting steps that leave their pair
unchanged: a pass stops at the first such pair, so each multiplication makes
at most one, and lcf() at most one per letter.  The properties compare both
multiplications with the randomized transfer-loop reference and check the
group laws lcf(u v) = lcf(word(lcf(u)) v) and lcf(w w^-1) = e.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandforge import normal_form
from bandforge.factors import enumerate_factors, tau
from bandforge.normal_form import (
    LeftCanonicalForm,
    lcf,
    lcf_to_word,
    left_multiply,
    left_weight_pair,
    right_multiply,
)
from bandforge.words import BandLetter, BraidWord

from conftest import all_chords, random_braid_word, sparse_words
from transfer_reference import normalize_random_order

PROPERTY_SETTINGS = settings(max_examples=300)


class PairCounter:
    """Counts the left_weight_pair calls in normal_form that change nothing."""

    def __init__(self, monkeypatch):
        self.unchanged = 0
        inner = normal_form.left_weight_pair

        def counted(a, b):
            out = inner(a, b)
            self.unchanged += out == (a, b)
            return out

        monkeypatch.setattr(normal_form, "left_weight_pair", counted)


class TestOnePass:
    @pytest.mark.parametrize("n", [3, 4, 6, 12])
    def test_lcf_one_unchanged_pair_per_letter(self, n, rng, monkeypatch):
        pairs = PairCounter(monkeypatch)
        for _ in range(50):
            w = random_braid_word(n, rng.randint(5, 40), rng, neg=0.3)
            pairs.unchanged = 0
            lcf(w)
            assert pairs.unchanged <= len(w), w.render()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_each_multiplication_one_unchanged_pair(self, n, rng, monkeypatch):
        forms = [lcf(random_braid_word(n, rng.randint(0, 12), rng, neg=0.4)) for _ in range(8)]
        pairs = PairCounter(monkeypatch)
        for form in forms:
            for g in enumerate_factors(n):
                pairs.unchanged = 0
                left_multiply(g, form)
                assert pairs.unchanged <= 1
                pairs.unchanged = 0
                right_multiply(form, g)
                assert pairs.unchanged <= 1

    @pytest.mark.parametrize("n", [3, 4, 6, 12])
    def test_lcf_one_tau_per_letter(self, n, rng, monkeypatch):
        calls = 0
        inner = normal_form.tau

        def counted(a, k=1):
            nonlocal calls
            calls += 1
            return inner(a, k)

        monkeypatch.setattr(normal_form, "tau", counted)
        for _ in range(50):
            w = random_braid_word(n, rng.randint(5, 40), rng, neg=0.3)
            calls = 0
            lcf(w)
            assert calls == len(w), w.render()

    @pytest.mark.parametrize("n", range(2, 8))
    def test_delta_passes_every_factor(self, n):
        # (A, delta) -> (delta, tau(A)): the right pass carries a delta to the front.
        delta = enumerate_factors(n)[-1]
        for a in enumerate_factors(n)[1:]:
            assert left_weight_pair(a, delta) == (delta, tau(a)), a.text()

    @pytest.mark.parametrize("n", [4, 5])
    def test_delta_formed_mid_form(self, n, monkeypatch):
        # A delta that forms at A_j, 1 < j < k, has A_1 ... A_{j-1} left to
        # carry and B_j ... B_k behind it.
        inner = normal_form.left_weight_pair
        calls = []

        def recorded(a, b):
            calls.append(b.is_delta)
            return inner(a, b)

        monkeypatch.setattr(normal_form, "left_weight_pair", recorded)
        rng = random.Random(7411 * n)
        found = 0
        for _ in range(40):
            form = lcf(random_braid_word(n, rng.randint(6, 16), rng, neg=0.3))
            if form.canonical_length < 3:
                continue
            for f in enumerate_factors(n):
                calls.clear()
                product = right_multiply(form, f)
                carried = sum(calls)
                if carried and len(calls) - carried >= 2:
                    found += 1
                    # Once formed, the delta is carried all the way to the front.
                    k = form.canonical_length
                    assert calls == [False] * (k - carried) + [True] * carried
                    r, fs = form.power, form.factors
                    assert product == normalize_random_order(n, r, fs + (f,), rng)
                    assert product.power == r + 1
        assert found >= 10

    def test_strand_count_mismatch(self):
        form = lcf(random_braid_word(4, 5, random.Random(1)))
        g = enumerate_factors(3)[1]
        with pytest.raises(ValueError):
            left_multiply(g, form)
        with pytest.raises(ValueError):
            right_multiply(form, g)


def words(n: int, max_size: int = 8):
    letters = st.tuples(st.sampled_from(all_chords(n)), st.sampled_from((1, -1)))
    return st.lists(letters, max_size=max_size).map(
        lambda ls: BraidWord(n, tuple(BandLetter(t, s, sign) for (t, s), sign in ls))
    )


class TestProperties:
    @PROPERTY_SETTINGS
    @given(st.data())
    def test_multiplications_match_reference(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        form = lcf(data.draw(words(n), label="word"))
        factors = enumerate_factors(n)
        drawn = data.draw(st.sampled_from(factors), label="factor")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        r = form.power
        for g in (drawn, factors[0], factors[-1]):
            left = normalize_random_order(n, r, (tau(g, r),) + form.factors, rng)
            assert left_multiply(g, form) == left
            right = normalize_random_order(n, r, form.factors + (g,), rng)
            assert right_multiply(form, g) == right

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_lcf_of_product(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        u = data.draw(words(n), label="u")
        v = data.draw(words(n), label="v")
        assert lcf(u * v) == lcf(lcf_to_word(lcf(u)) * v)

    @given(st.data())
    def test_word_times_inverse_is_identity(self, data):
        n = data.draw(st.sampled_from((3, 4)), label="n")
        w = data.draw(sparse_words(n), label="word")
        assert lcf(w * w.inverse()) == LeftCanonicalForm(n, 0, ())

    def test_empty_form(self):
        for n in (2, 3, 4):
            e, *middle, delta = enumerate_factors(n)
            empty = LeftCanonicalForm(n, 0, ())
            for g in middle:
                single = LeftCanonicalForm(n, 0, (g,))
                assert left_multiply(g, empty) == right_multiply(empty, g) == single
            assert left_multiply(e, empty) == right_multiply(empty, e) == empty
            delta_form = LeftCanonicalForm(n, 1, ())
            assert left_multiply(delta, empty) == right_multiply(empty, delta) == delta_form
