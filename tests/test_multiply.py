"""Multiplying a normal form by one factor: one domino pass each way.

The invariant tests count the left-weighting steps that leave their pair
unchanged: a pass stops at the first such pair, so each multiplication makes
at most one, and lcf() at most one per letter, since it makes one pass per
run of letters.  The properties compare both multiplications with the
randomized transfer-loop reference, lcf() with the letter-by-letter fold it
replaced, and check the group laws lcf(u v) = lcf(word(lcf(u)) v) and
lcf(w w^-1) = e.
"""

import importlib.util
import random
from collections import Counter
from pathlib import Path

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
from bandforge.words import BandLetter, BraidWord, delta_word, parse_word

from conftest import all_chords, counted, random_braid_word, sparse_words
from lcf_reference import lcf_by_letters
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
        # Each pass is one left pass with one tau, and it multiplies in a
        # run of one or more letters.
        calls = Counter()
        for name in ("tau", "_left_pass"):
            monkeypatch.setattr(normal_form, name, counted(calls, name, getattr(normal_form, name)))
        for _ in range(50):
            w = random_braid_word(n, rng.randint(5, 40), rng, neg=0.3)
            calls.clear()
            lcf(w)
            assert 0 < calls["tau"] == calls["_left_pass"] <= len(w), w.render()

    def test_lcf_wide_corpus_fewer_passes_than_letters(self, monkeypatch):
        # The first round of the benchmark's lcf_wide workload, seed 1.
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        queries = workloads.inputs("lcf_wide", 1, 0)
        corpus = [parse_word(q["word"], workloads.LCF_N) for q in queries]
        calls = Counter()
        monkeypatch.setattr(
            normal_form, "_left_pass", counted(calls, "passes", normal_form._left_pass)
        )
        for w in corpus:
            lcf(w)
        assert len(corpus) <= calls["passes"] < sum(map(len, corpus))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_delta_passes_every_factor(self, n):
        # (A, delta) -> (delta, tau(A)): A delta = delta tau(A), the rule of the right pass's carry.
        delta = enumerate_factors(n)[-1]
        for a in enumerate_factors(n)[1:]:
            assert left_weight_pair(a, delta) == (delta, tau(a)), a.text()

    @pytest.mark.parametrize("n", [4, 5])
    def test_delta_formed_mid_form(self, n, monkeypatch):
        # A delta that forms in the right pass at A_(j+1), 0 < j < k - 1, has
        # A_1 ... A_j in front of it and B_(j+2) ... B_k behind it.  The pass
        # stops there: it steps no pair with delta and leaves A_1 ... A_j as
        # they are, and right_multiply rotates them, as X delta = delta tau(X).
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
            k = form.canonical_length
            if k < 3:
                continue
            for f in enumerate_factors(n):
                calls.clear()
                fs = list(form.factors)
                j = normal_form._right_pass(fs, f)
                if j is None or j == 0 or len(calls) < 2:
                    continue
                found += 1
                assert calls == [False] * (k - j)
                assert fs[:j] == list(form.factors[:j])
                r = form.power
                product = right_multiply(form, f)
                rotated = tuple(map(tau, fs[:j])) + tuple(fs[j:])
                assert product == LeftCanonicalForm(n, r + 1, rotated)
                assert product == normalize_random_order(n, r, form.factors + (f,), rng)
        assert found >= 10

    def test_pair_memo_is_bounded(self):
        # A long-lived process keeps at most maxsize pairs, however many words it reads.
        info = left_weight_pair.cache_info
        maxsize, misses = info().maxsize, info().misses
        assert maxsize is not None
        rng = random.Random(4099)
        for _ in range(300):
            lcf(random_braid_word(12, 100, rng, neg=0.3))
            assert info().currsize <= maxsize
        # The words met more pairs than the memo holds.
        assert info().misses - misses > maxsize

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


@st.composite
def run_words(draw, n: int) -> BraidWord:
    """Words of pieces that make long runs: letters of one sign, a repeated
    letter, commuting chords, and delta^k; sometimes every letter negative."""
    chords = all_chords(n)
    # Chords side by side, or nested: in either family any two commute.
    half = range(1, n // 2 + 1)
    families = ([(2 * i, 2 * i - 1) for i in half], [(n + 1 - i, i) for i in half])
    kinds = st.sampled_from(("run", "repeat", "commuting", "delta"))
    word = BraidWord(n)
    for kind in draw(st.lists(kinds, min_size=1, max_size=5)):
        sign = draw(st.sampled_from((1, -1)))
        if kind == "run":
            piece = draw(st.lists(st.sampled_from(chords), min_size=1, max_size=12))
        elif kind == "repeat":
            piece = [draw(st.sampled_from(chords))] * draw(st.integers(2, 6))
        elif kind == "commuting":
            piece = draw(st.permutations(draw(st.sampled_from(families))))
        else:
            word = word * delta_word(n) ** draw(st.integers(-2, 2))
            continue
        word = word * BraidWord(n, tuple(BandLetter(t, s, sign) for t, s in piece))
    if draw(st.booleans()):
        word = BraidWord(n, tuple(BandLetter(l.t, l.s, -1) for l in word.letters))
    return word


class TestProperties:
    @PROPERTY_SETTINGS
    @given(st.data())
    def test_lcf_matches_letter_by_letter(self, data):
        n = data.draw(st.integers(2, 16), label="n")
        w = data.draw(run_words(n), label="word")
        assert lcf(w) == lcf_by_letters(w), w.render()

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
