"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is exact (these are all integer or
exact-rational computations); each criterion also enforces its wall-clock
budget, which holds with wide margin on ordinary hardware.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from bandforge.conjugacy import are_conjugate, sss_representative
from bandforge.factors import enumerate_factors, tau
from bandforge.normal_form import (
    LeftCanonicalForm,
    lcf,
    lcf_to_word,
    left_weight_pair,
)
from bandforge.positivity import ReducedWord, braid_report, count_negative_bands, reduce
from bandforge.words import BandLetter, BraidWord

from conftest import (
    append_letter,
    b4,
    catalan,
    insert_cancellation,
    insert_relator,
    random_braid_word,
    random_sparse_word,
    w4,
)
from oracle import _ball_key, delta_factorizations, element_key
from reduction_reference import reduce_once
from test_fdtc import TWO_FACTOR_FDTC, WORDS
from test_oracle import DELTA_WORDS_LISTED
from test_tables import INCREASABLE_ROWS, NON_INCREASING_ROWS, rotation_classes
from transfer_reference import normalize_random_order, right_set, starting_set

DELTA_TRIANGLE_WORD = "b2 a1 b1 a4 a2"
KNOT_7_2_WORD = "a1 a1 a1 a2 A1 a2 a3 A2 a3"
KNOT_7_2_POSITIVE = "a1 a1 b2 b1 a3"
TWO_BAND_WORD = "a3 A1 A2 b2 b1 a1 b2 b1 a3"
REDUCTION_INPUT = "d^-2 a(4,3) a(3,2) a(4,1) a(4,3) a(4,1) a(3,1) a(4,2)"


class _Clock:
    def __init__(self, budget: float):
        self.budget = budget
        self.start = time.perf_counter()

    def done(self, number: int, message: str) -> None:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, f"criterion {number} took {elapsed:.1f}s > {self.budget}s"
        print(f"[PASS] criterion {number:2d} ({elapsed:6.2f}s / {self.budget:g}s): {message}")


def test_criterion_01_catalan_counts():
    clock = _Clock(1.0)
    counts = [len(enumerate_factors(n)) for n in range(1, 7)]
    assert counts == [1, 2, 5, 14, 42, 132]
    assert all(c == catalan(n) for n, c in enumerate(counts, start=1))
    clock.done(1, f"|CnFct(B_n)| = {counts} for n = 1..6")


def test_criterion_02_delta_factorizations():
    clock = _Clock(1.0)
    ball = delta_factorizations(4)
    listed = [tuple(l.chord for l in w4(t).letters) for t in DELTA_WORDS_LISTED]
    for word in listed:
        assert word in ball
    # The twelve quoted factorizations are exactly the letter-multiset
    # classes; as ordered words the commuting disjoint letters double four
    # of them, giving 16 = 4^2 maximal chains.
    assert {tuple(sorted(w)) for w in ball} == {tuple(sorted(w)) for w in listed}
    assert len({tuple(sorted(w)) for w in ball}) == 12
    assert len(ball) == 16
    clock.done(2, "12 delta factorization classes reproduced verbatim (16 ordered words)")


def test_criterion_03_pair_tables():
    clock = _Clock(1.0)
    table = rotation_classes()
    for row in INCREASABLE_ROWS:
        a, b, wa, wb = (b4(name) for name in row)
        assert right_set(a) & starting_set(b)
        assert left_weight_pair(a, b) == (wa, wb)
    for row in NON_INCREASING_ROWS:
        a, b = b4(row[0]), b4(row[1])
        assert not right_set(a) & starting_set(b)
    pairs = 0
    for a in enumerate_factors(4):
        for b in enumerate_factors(4):
            pairs += 1
            increasable = bool(right_set(a) & starting_set(b))
            if a.is_delta or b.is_identity:
                assert not increasable
            elif a.is_identity or b.is_delta:
                assert increasable
            elif a == b:
                assert not increasable
            else:
                row, k = table[a, b]
                assert increasable == (len(row) == 4)
                if increasable:
                    expected = (tau(b4(row[2]), k), tau(b4(row[3]), k))
                    assert left_weight_pair(a, b) == expected
    assert pairs == 196
    clock.done(3, "all 196 pairs classified; 19 + 17 transcribed rows reproduced")


def test_criterion_04_lcf_worked_examples():
    clock = _Clock(3.0)

    def flat_word(form: LeftCanonicalForm) -> BraidWord:
        out = BraidWord(form.n)
        from bandforge.factors import factor_to_word

        for f in form.factors:
            out = out * factor_to_word(f)
        return out

    short = lcf(w4(DELTA_TRIANGLE_WORD))
    assert short.power == 1
    assert [f.text() for f in short.factors] == ["{1,2,3}"]
    assert flat_word(short).letters == w4("a2 a1").letters

    knot = lcf(w4(KNOT_7_2_WORD))
    assert knot.power == -1
    assert flat_word(knot).letters == w4("a4 a4 a4 a1 b2 a2 a3 a3").letters

    nb2 = lcf(w4(TWO_BAND_WORD))
    assert nb2.power == -1
    assert flat_word(nb2).letters == w4("a2 a3 b2 b1 a1 b2 b1 a3").letters

    from conftest import assert_lcf_sound

    for text in (DELTA_TRIANGLE_WORD, KNOT_7_2_WORD, TWO_BAND_WORD):
        assert_lcf_sound(w4(text))
    clock.done(4, "three worked normal forms exact at the word level, oracle-confirmed")


def test_criterion_05_reduction_worked_example():
    clock = _Clock(1.0)
    form = lcf(w4(REDUCTION_INPUT))
    red = reduce(form)
    assert count_negative_bands(red) == 2
    assert red.to_word().letters == w4("A2 A2 a4 b1 b2").letters
    clock.done(5, "reduction example: 2 negative bands, exact terminal word")


def test_criterion_06_conjugacy_examples():
    clock = _Clock(10.0)
    result = are_conjugate(w4(KNOT_7_2_WORD), w4(KNOT_7_2_POSITIVE))
    assert result.conjugate
    assert lcf(w4(KNOT_7_2_WORD).conjugated_by(result.witness)) == lcf(w4(KNOT_7_2_POSITIVE))
    assert sss_representative(w4(KNOT_7_2_WORD)).inf_conj == 0

    data = sss_representative(w4(TWO_BAND_WORD))
    assert data.inf_conj == -1
    report = braid_report(w4(TWO_BAND_WORD)).nb_class
    assert report.nb_lower == 1 and report.nb_upper == 2
    assert report.nb_lower <= 2 <= report.nb_upper  # the proved value lies inside
    clock.done(
        6,
        f"knot 7_2 class conjugate to its positive form (SSS size {result.sss_size_a}); "
        "two-negative-band class pinned to [1, 2]",
    )


def test_criterion_07_classification_theorems():
    clock = _Clock(60.0)
    rng = random.Random(7_000)
    for _ in range(10_000):
        w = random_braid_word(4, rng.randint(1, 14), rng)
        assert lcf(w).power >= 0
    for _ in range(10_000):
        base = random_braid_word(4, rng.randint(1, 10), rng)
        inflated = insert_cancellation(base, rng) if rng.random() < 0.5 else insert_relator(base, rng)
        form = lcf(inflated)
        assert form.power >= 0
        assert lcf_to_word(form).is_positive()
    for _ in range(10_000):
        letters = list(random_braid_word(4, rng.randint(1, 12), rng).letters)
        i = rng.randrange(len(letters))
        letters[i] = letters[i].inverse()
        assert lcf(BraidWord(4, tuple(letters))).power >= -1
    clock.done(7, "3 x 10^4 random words: positive => inf >= 0, inf >= 0 => positive, one band => inf >= -1")


def test_criterion_08_three_braid_nb_formula():
    clock = _Clock(300.0)
    letters = [BandLetter(t, s, sign) for t, s in ((2, 1), (3, 2), (3, 1)) for sign in (1, -1)]
    min_negatives: dict = {}
    forms: dict = {}
    words = 0
    for length in range(6):
        for combo in itertools.product(letters, repeat=length):
            words += 1
            w = BraidWord(3, combo)
            key = element_key(w, bound=18)
            negs = sum(1 for l in combo if l.sign < 0)
            if key not in min_negatives or negs < min_negatives[key]:
                min_negatives[key] = negs
            forms.setdefault(key, lcf(w))
    assert words == 9331
    checked = 0
    for key, form in forms.items():
        if form.power >= 0:
            continue
        checked += 1
        red_count = count_negative_bands(reduce(form))
        formula = -form.power - min(0, form.sup)
        assert red_count == formula == min_negatives[key], key
    assert checked > 100
    clock.done(
        8,
        f"all 9331 B_3 words (<= 5 letters), {checked} elements with inf < 0: "
        "reduction count = closed formula = brute-force minimum",
    )


def test_criterion_09_oracle_agreement():
    clock = _Clock(300.0)
    # Exhaustive: all positive B_4 words of length <= 5; the partition by
    # normal form must equal the partition by rewriting class.
    chords = [(t, s) for t in range(2, 5) for s in range(1, t)]
    by_oracle: dict = {}
    by_lcf: dict = {}
    words = 0
    for length in range(6):
        for combo in itertools.product(chords, repeat=length):
            words += 1
            okey = (length, _ball_key(combo, 4)) if combo else (0, ())
            w = BraidWord(4, tuple(BandLetter(t, s, 1) for t, s in combo))
            fkey = lcf(w)
            by_oracle.setdefault(okey, set()).add(fkey)
            by_lcf.setdefault(fkey, set()).add(okey)
    assert words == 9331
    assert all(len(v) == 1 for v in by_oracle.values())
    assert all(len(v) == 1 for v in by_lcf.values())

    # Random mixed pairs, compared after delta normalization: constructed
    # equal pairs first (insertion of cancellations or relators), then
    # unconstrained sparse pairs.
    from oracle import oracle_equal

    rng = random.Random(9_000)
    for _ in range(5_000):
        base = random_braid_word(4, rng.randint(1, 3), rng)
        if rng.random() < 0.5:
            other = insert_cancellation(base, rng)
        else:
            other = insert_relator(base, rng)
        assert oracle_equal(base, other, bound=14)
        assert lcf(base) == lcf(other)
    agreements = 0
    for _ in range(5_000):
        u = random_sparse_word(4, rng.randint(0, 5), rng, max_negs=1)
        v = random_sparse_word(4, rng.randint(0, 5), rng, max_negs=1)
        same = oracle_equal(u, v, bound=14)
        assert same == (lcf(u) == lcf(v))
        agreements += same
    clock.done(
        9,
        f"exhaustive positive agreement on 9331 words; 10^4 mixed checks "
        f"({agreements} coincidences among random pairs)",
    )


def test_criterion_10_fdtc_fixtures():
    clock = _Clock(10.0)
    from bandforge.factors import factor_to_word

    for left, right, value in TWO_FACTOR_FDTC:
        w = w4(f"{WORDS[left]} {WORDS[right]}")
        assert braid_report(w).fdtc.contains(Fraction(value)), (left, right)
    assert braid_report(w4("d")).fdtc.pinched == Fraction(1, 4)
    assert braid_report(w4("d^4")).fdtc.pinched == 1
    for f in enumerate_factors(4):
        interval = braid_report(factor_to_word(f)).fdtc
        assert interval.contains(Fraction(0)) or f.is_delta
        if not (f.is_identity or f.is_delta):
            assert (interval.lower, interval.upper) == (0, Fraction(1, 4))
    clock.done(10, "21 two-factor fixtures inside their intervals; delta and full twist pinched")


def test_criterion_11_determinism():
    clock = _Clock(120.0)
    rng = random.Random(11_000)

    # (a) normal form under randomized pair processing orders.
    from bandforge.factors import complement, gen_factor
    from bandforge.factors import tau as tau_f

    corpus = [random_braid_word(4, rng.randint(1, 10), rng, neg=0.4) for _ in range(97)]
    corpus += [w4(DELTA_TRIANGLE_WORD), w4(KNOT_7_2_WORD), w4(TWO_BAND_WORD)]
    for w in corpus:
        expected = lcf(w)
        # The word as a raw factor sequence behind delta^-negs: each c^-1 is
        # complement(c) delta^-1, and every delta^-1 moves to the front,
        # rotating the factors it passes by tau^-1.
        negs = sum(1 for l in w.letters if l.sign < 0)
        seq, seen = [], 0
        for letter in w.letters:
            g = gen_factor(4, letter.t, letter.s)
            if letter.sign > 0:
                seq.append(tau_f(g, -(negs - seen)))
            else:
                seen += 1
                seq.append(tau_f(complement(g), -(negs - seen + 1)))
        for _ in range(100):
            assert normalize_random_order(4, -negs, seq, rng) == expected

    # (b) reduction count under every tie-break choice, for every braid
    # element reachable from a word of length <= 6.
    memo: dict = {}

    def branch_counts(rw: ReducedWord) -> frozenset:
        if rw in memo:
            return memo[rw]
        if rw.is_terminal:
            result = frozenset({count_negative_bands(rw)})
        else:
            lengths = [f.word_length if s > 0 else -1 for f, s in rw.entries]
            best = max(lengths)
            result = frozenset()
            for k, length in enumerate(lengths):
                if length == best:
                    result |= branch_counts(reduce_once(rw, choose=lambda _c, _k=k: _k))
        memo[rw] = result
        return result

    alphabet = [(t, s, sign) for t in range(2, 5) for s in range(1, t) for sign in (1, -1)]
    level = {LeftCanonicalForm(4, 0, ())}
    seen_states = set(level)
    examined = 0
    for _depth in range(6):
        nxt = set()
        for state in level:
            for t, s, sign in alphabet:
                nxt.add(append_letter(state, t, s, sign))
        level = nxt - seen_states
        seen_states |= level
        for state in level:
            if state.power < 0:
                start = ReducedWord(4, state.power, tuple((f, 1) for f in state.factors))
                counts = branch_counts(start)
                assert len(counts) == 1, state.text()
                examined += 1
    clock.done(
        11,
        f"100 orders x 100 words identical; reduction count invariant over "
        f"all tie-breaks for {examined} elements (words of length <= 6)",
    )
