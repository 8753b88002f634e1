"""SQP/ASQP detection, reduction, and negative band number bounds."""

import functools
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandforge import conjugacy, positivity
from bandforge.conjugacy import sss_enumerate, sss_representative
from bandforge.factors import _from_labels, _nc_labels, enumerate_factors, gen_factor
from bandforge.normal_form import LeftCanonicalForm, lcf, lcf_to_word
from bandforge.positivity import ReducedWord, braid_report, count_negative_bands, reduce
from bandforge.words import BraidWord, parse_word

from conftest import (
    b4,
    counted,
    insert_cancellation,
    insert_relator,
    random_braid_word,
    random_letters,
    sparse_words,
    w4,
)
from reduction_reference import reduce_once, reduce_stepwise
from sss_reference import strictly_asqp_by_all

KNOT_7_2_WORD = "a1 a1 a1 a2 A1 a2 a3 A2 a3"
KNOT_7_2_POSITIVE = "a1 a1 b2 b1 a3"
TWO_BAND_WORD = "a3 A1 A2 b2 b1 a1 b2 b1 a3"
REDUCTION_INPUT = "d^-2 a(4,3) a(3,2) a(4,1) a(4,3) a(4,1) a(3,1) a(4,2)"


class TestSqp:
    def test_positive_words(self, rng):
        for _ in range(50):
            assert braid_report(random_braid_word(4, rng.randint(0, 10), rng)).sqp

    def test_knot72_word_not_sqp(self):
        assert not braid_report(w4(KNOT_7_2_WORD)).sqp

    def test_single_negative_band(self):
        assert not braid_report(w4("A1")).sqp

    def test_conjugacy_level(self):
        assert braid_report(w4(KNOT_7_2_WORD)).conj_sqp
        assert braid_report(w4(KNOT_7_2_POSITIVE)).conj_sqp
        assert not braid_report(w4("D")).conj_sqp


class TestAsqpNecessary:
    def test_nb2_word_passes_despite_nb2(self):
        # inf = -1 holds, yet two negative bands are required: the
        # condition is necessary, not sufficient.
        report = braid_report(w4(TWO_BAND_WORD))
        assert report.asqp_necessary
        assert report.nb.nb_exact == 2

    def test_positive_words(self, rng):
        for _ in range(30):
            assert braid_report(random_braid_word(4, rng.randint(0, 8), rng)).asqp_necessary

    def test_inf_minus_two_fails(self):
        deep = lcf_to_word(LeftCanonicalForm(4, -2, ()))
        assert not braid_report(deep * w4("a1 A1")).asqp_necessary


class TestReduce:
    def test_worked_example(self):
        form = lcf(w4(REDUCTION_INPUT))
        assert form.power == -2 and form.canonical_length == 5
        red = reduce(form)
        assert red.is_terminal and red.power == 0
        assert count_negative_bands(red) == 2
        assert red.to_word().letters == w4("A2 A2 a4 b1 b2").letters

    def test_nonnegative_power_unchanged(self):
        form = lcf(w4("a1 b2 a3"))
        red = reduce(form)
        assert red.power == form.power
        assert [f for f, _ in red.entries] == list(form.factors)

    def test_single_generator_with_delta_inverse(self):
        form = LeftCanonicalForm(4, -1, (gen_factor(4, 2, 1),))
        red = reduce(form)
        assert count_negative_bands(red) == 2  # complement of a 2-gon has n-2 letters

    def test_all_entries_negative_terminal(self):
        form = LeftCanonicalForm(3, -3, (gen_factor(3, 2, 1),))
        red = reduce(form)
        assert red.is_terminal
        assert red.power < 0 or all(s < 0 for _, s in red.entries)

    def test_reduce_once_is_identity_on_terminal(self):
        rw = ReducedWord(4, 1, ((b4("a1"), 1),))
        assert reduce_once(rw) == rw

    def test_rejects_illegal_entries(self):
        from bandforge.factors import delta_factor

        with pytest.raises(ValueError):
            ReducedWord(4, 0, ((delta_factor(4), 1),))

    def test_count_closed_form(self, rng):
        # For inf < 0 the reduction trades min(-inf, k) entries.  tau keeps
        # word length and the complement turns length L into n-1-L, so the
        # count is -inf(n-1) minus the largest traded lengths, whichever
        # longest entry each step picks.
        for n in range(2, 9):
            for _ in range(30):
                factors = lcf(random_braid_word(n, rng.randint(0, 12), rng, neg=0.3)).factors
                lengths = sorted((f.word_length for f in factors), reverse=True)
                for inf in range(-len(factors) - 2, 0):
                    form = LeftCanonicalForm(n, inf, factors)
                    expected = -inf * (n - 1) - sum(lengths[: min(-inf, len(factors))])
                    assert count_negative_bands(reduce(form)) == expected, form.text()
                    rightmost = reduce_stepwise(form, lambda candidates: candidates[-1])
                    assert count_negative_bands(rightmost) == expected, form.text()

    def test_preserves_braid(self, rng):
        for _ in range(60):
            w = random_braid_word(4, rng.randint(0, 8), rng, neg=0.4)
            form = lcf(w)
            red = reduce(form)
            assert lcf(red.to_word()) == form
            # Minimality also at the band count: never more negatives than
            # the representative we started from.
            assert count_negative_bands(red) <= count_negative_bands(w)

    def test_word_length_minimized(self, rng):
        # The reduced word is never longer than any representative tried.
        for _ in range(60):
            w = random_braid_word(4, rng.randint(0, 8), rng, neg=0.4)
            red_len = len(reduce(lcf(w)).to_word())
            assert red_len <= len(w)
            inflated = insert_relator(insert_cancellation(w, rng), rng)
            assert red_len <= len(inflated)
            assert len(reduce(lcf(inflated)).to_word()) == red_len

    def test_tie_break_count_invariance(self, rng):
        # Any maximal-length entry may be chosen; the negative band count
        # of the terminal form cannot depend on the choice.
        def all_counts(form):
            results = set()

            def walk(rw):
                if rw.is_terminal:
                    results.add(count_negative_bands(rw))
                    return
                lengths = [f.word_length if s > 0 else -1 for f, s in rw.entries]
                best = max(lengths)
                for k, length in enumerate(lengths):
                    if length == best:
                        walk(reduce_once(rw, choose=lambda _c, _k=k: _k))

            walk(ReducedWord(form.n, form.power, tuple((f, 1) for f in form.factors)))
            return results

        for _ in range(40):
            w = random_braid_word(4, rng.randint(1, 7), rng, neg=0.5)
            counts = all_counts(lcf(w))
            assert len(counts) == 1


class TestCounts:
    def test_word_count(self):
        assert count_negative_bands(w4("a1 A2 B1 a3")) == 2

    def test_positive_word(self):
        assert count_negative_bands(w4("a1 a2")) == 0

    def test_delta_inverse_alone(self):
        form = lcf(w4("D"))
        assert count_negative_bands(reduce(form)) == 3

    def test_matches_expanded_word(self, rng):
        for _ in range(60):
            w = random_braid_word(4, rng.randint(0, 8), rng, neg=0.5)
            red = reduce(lcf(w))
            assert count_negative_bands(red) == count_negative_bands(red.to_word())


class TestNbReport:
    def test_nb2_word(self):
        rep = braid_report(w4(TWO_BAND_WORD)).nb
        assert (rep.nb_lower, rep.nb_upper, rep.nb_exact) == (1, 2, 2)

    def test_positive_word(self):
        rep = braid_report(w4("a1 b2")).nb
        assert (rep.nb_lower, rep.nb_upper, rep.nb_exact) == (0, 0, 0)

    def test_single_negative(self):
        rep = braid_report(w4("A1")).nb
        assert (rep.nb_lower, rep.nb_upper, rep.nb_exact) == (1, 1, 1)

    def test_lower_bound_inequality(self, rng):
        for _ in range(80):
            w = random_braid_word(4, rng.randint(1, 8), rng, neg=0.5)
            form = lcf(w)
            if form.inf >= 0:
                continue
            rep = braid_report(w).nb
            assert rep.nb_lower == -form.inf <= rep.negative_band_count_of_reduced

    def test_three_strand_formula_exhaustive_short(self):
        # All B_3 words of length <= 4: reduction count equals the closed
        # formula |inf| - min(0, sup).
        letters = [f"a({t},{s})" for t, s in ((2, 1), (3, 2), (3, 1))]
        alphabet = letters + [x.replace("a", "A") for x in letters]
        for length in range(5):
            for combo in itertools.product(alphabet, repeat=length):
                w = parse_word(" ".join(combo), 3)
                form = lcf(w)
                if form.inf >= 0:
                    continue
                rep = braid_report(w).nb
                assert rep.nb_exact == -form.inf - min(0, form.sup)

    def test_three_strand_formula_mismatch_raises(self):
        # No normal form trips the check, so it is fed a form with an
        # identity factor: the count reads 2, the formula 1.
        bad = LeftCanonicalForm(3, -1, (enumerate_factors(3)[0],))
        with pytest.raises(RuntimeError, match="3-braid formula"):
            positivity._nb_from_form(bad)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_count_read_off_the_lengths(self, n):
        # The count from the factor lengths is the negative letters of
        # reduce(form), and the bound (n-2)|inf| - min(0, sup) is never smaller.
        rng = random.Random(4099 * n)
        negative = 0
        for _ in range(60):
            form = lcf(random_braid_word(n, rng.randint(1, 24), rng, neg=rng.random()))
            report = positivity._nb_from_form(form)
            if form.inf >= 0:
                continue
            negative += 1
            count = count_negative_bands(reduce(form))
            assert report.nb_upper == report.negative_band_count_of_reduced == count
            assert (n - 2) * -form.inf - min(0, form.sup) >= count, form.text()
        assert negative >= 20

    def test_strict_inequality_witness(self):
        # nb = 2 > |inf| = 1 for the two-negative-band word.
        rep = braid_report(w4(TWO_BAND_WORD)).nb
        assert rep.nb_exact > -lcf(w4(TWO_BAND_WORD)).inf


class TestNbConjugacyReport:
    def test_sqp_class(self):
        rep = braid_report(w4(KNOT_7_2_WORD)).nb_class
        assert (rep.nb_lower, rep.nb_upper, rep.nb_exact) == (0, 0, 0)

    def test_nb2_class(self):
        rep = braid_report(w4(TWO_BAND_WORD)).nb_class
        assert rep.nb_lower == 1 and rep.nb_upper == 2 and rep.nb_exact == 2

    def test_three_strand_class_formula(self, rng):
        from bandforge.conjugacy import sss_representative

        for _ in range(40):
            w = random_braid_word(3, rng.randint(1, 6), rng, neg=0.5)
            data = sss_representative(w)
            if data.inf_conj >= 0:
                continue
            rep = braid_report(w).nb_class
            assert rep.nb_exact == -data.inf_conj - min(0, data.sup_conj)

    def test_three_strand_class_brute_force(self):
        # sigma1^-1 sigma2 sigma1^-1 sigma2: the class value must equal the
        # minimum of the exact word-level numbers over nearby conjugates.
        from bandforge.conjugacy import sss_representative
        from bandforge.words import BandLetter

        w = parse_word("S1 s2 S1 s2", 3)
        data = sss_representative(w)
        assert data.inf_conj < 0
        rep = braid_report(w).nb_class
        assert rep.nb_exact == -data.inf_conj - min(0, data.sup_conj)
        letters = [
            BandLetter(t, s, sign) for t, s in ((2, 1), (3, 2), (3, 1)) for sign in (1, -1)
        ]
        best = braid_report(w).nb.nb_exact
        for length in range(3):
            for combo in itertools.product(letters, repeat=length):
                conj = w.conjugated_by(BraidWord(3, combo))
                best = min(best, braid_report(conj).nb.nb_exact)
        assert best == rep.nb_exact

    def test_class_invariant_under_conjugation(self, rng):
        for _ in range(25):
            w = random_braid_word(4, rng.randint(1, 6), rng, neg=0.4)
            v = random_braid_word(4, rng.randint(0, 3), rng, neg=0.5)
            assert braid_report(w).nb_class == braid_report(w.conjugated_by(v)).nb_class

    def test_class_bound_never_exceeds_word_bound(self, rng):
        for _ in range(40):
            w = random_braid_word(4, rng.randint(1, 7), rng, neg=0.4)
            report = braid_report(w)
            assert report.nb_class.nb_upper <= report.nb.nb_upper


class TestHigherStrandCounts:
    def test_nb_exact_withheld_beyond_four(self):
        rep = braid_report(parse_word("A(2,1)", 5)).nb
        assert rep.nb_exact is None
        # The bounds still pinch here: the reduction recovers the single
        # negative band the word started with.
        assert (rep.nb_lower, rep.nb_upper) == (1, 1)

    def test_delta_inverse_times_generator_form(self):
        # delta^-1 g reduces to complement(g)^-1: n - 2 negative letters.
        form = LeftCanonicalForm(5, -1, (gen_factor(5, 2, 1),))
        assert count_negative_bands(reduce(form)) == 3

    def test_bounds_still_sound(self, rng):
        for _ in range(30):
            w = random_braid_word(5, rng.randint(1, 6), rng, neg=0.4)
            rep = braid_report(w).nb
            assert rep.nb_lower <= rep.nb_upper
            assert rep.nb_exact is None or lcf(w).inf >= 0


class TestStrictlyAsqp:
    def test_single_negative_generator_b3(self):
        verdict = braid_report(parse_word("A(2,1)", 3)).strictly_asqp
        assert verdict.holds and verdict.definitive

    def test_nb2_word_fails(self):
        verdict = braid_report(w4(TWO_BAND_WORD)).strictly_asqp
        assert not verdict.holds and verdict.definitive

    def test_sqp_class_fails(self):
        verdict = braid_report(w4(KNOT_7_2_POSITIVE)).strictly_asqp
        assert not verdict.holds and verdict.definitive

    def test_single_negative_generator_b4(self):
        assert braid_report(w4("A1")).strictly_asqp.holds

    def test_high_strand_sufficient_only(self):
        verdict = braid_report(parse_word("A(2,1)", 5)).strictly_asqp
        # Criterion holds, and holding makes the verdict definitive even
        # beyond four strands.
        assert verdict.holds and verdict.definitive

    @pytest.mark.parametrize("text,holds", [("A(2,1)", True), ("A(2,1)^2", False), ("a(2,1)", False)])
    def test_two_strands(self, text, holds):
        # At n = 2 the qualifying element is delta^-1 = a(2,1)^-1 itself,
        # which has no factor at all.
        w = parse_word(text, 2)
        verdict = braid_report(w).strictly_asqp
        assert (verdict.holds, verdict.definitive) == (holds, True)
        if holds:
            certificate = verdict.certificate
            assert len(certificate.word) == 1 and count_negative_bands(certificate.word) == 1
            assert lcf(w.conjugated_by(certificate.conjugator)) == lcf(certificate.word)

    def test_constructed_strict_asqp_words(self, rng):
        # positive word * one negative generator, checked not SQP first.
        found = 0
        for _ in range(40):
            w = random_braid_word(4, rng.randint(0, 4), rng)
            neg = random_braid_word(4, 1, rng, neg=1.0)
            candidate = w * neg
            report = braid_report(candidate)
            if report.conj_sqp:
                continue
            found += 1
            assert report.strictly_asqp.holds
        assert found >= 5


class TestBraidReport:
    FIELDS = ("sqp", "conj_sqp", "asqp_necessary", "nb", "nb_class", "fdtc", "strictly_asqp")

    @staticmethod
    def count_searches(monkeypatch) -> Counter:
        calls = Counter()
        for module in (positivity, conjugacy):
            monkeypatch.setattr(module, "lcf", counted(calls, "lcf", module.lcf))
        search = counted(calls, "sss_representative", positivity.sss_representative)
        monkeypatch.setattr(positivity, "sss_representative", search)
        return calls

    @pytest.mark.parametrize("text", [TWO_BAND_WORD, "A1", KNOT_7_2_WORD, "D", ""])
    def test_one_form_and_one_summit(self, text, monkeypatch):
        calls = self.count_searches(monkeypatch)
        report = braid_report(w4(text))
        answers = [getattr(report, name) for name in self.FIELDS]
        # A second read returns the kept answer.
        assert all(getattr(report, name) is a for name, a in zip(self.FIELDS, answers))
        assert calls == {"lcf": 1, "sss_representative": 1}

    def test_word_level_fields_run_no_summit(self, monkeypatch):
        calls = self.count_searches(monkeypatch)
        report = braid_report(w4(TWO_BAND_WORD))
        assert (report.sqp, report.asqp_necessary, report.nb.nb_exact) == (False, True, 2)
        assert calls == {"lcf": 1}

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_checked_at_once(self, budget):
        # Also for a positive word, whose answers never read the budget.
        with pytest.raises(ValueError, match="budget must be at least 1"):
            braid_report(w4("a1"), budget)


class TestStrictlyAsqpAgainstAllRule:
    """The first-qualifying-element walk against the every-element rule it replaced.

    Seeded words of 6-12 letters with 1-2 negative letters, kept when
    inf_s = -1 (SAMPLES of them at each n).  For n <= 4 the verdicts must be
    equal; for n >= 5 a True of the reference must stay True, and at n = 5-6
    the walk certifies words that the reference cannot.  Every certificate
    is re-checked: its conjugator takes the word to lcf of its one-band
    word, which has exactly one negative letter and is a super summit element.
    """

    SAMPLES = {3: 40, 4: 60, 5: 30, 6: 15}

    @classmethod
    def corpus(cls):
        rng = random.Random(20261019)
        for n, count in cls.SAMPLES.items():
            kept = 0
            while kept < count:
                letters = list(random_letters(n, rng.randint(6, 12), rng))
                for i in rng.sample(range(len(letters)), rng.randint(1, 2)):
                    letters[i] = letters[i].inverse()
                w = BraidWord(n, tuple(letters))
                if sss_representative(w).inf_conj == -1:
                    kept += 1
                    yield w

    def test_seeded_corpus(self):
        gains = Counter()
        for w in self.corpus():
            verdict = braid_report(w).strictly_asqp
            data = sss_representative(w)
            reference = strictly_asqp_by_all(data)
            if w.n <= 4:
                assert (verdict.holds, verdict.definitive) == (
                    reference.holds,
                    reference.definitive,
                ), w.render()
            else:
                assert verdict.holds or not reference.holds, w.render()
                assert verdict.definitive == verdict.holds, w.render()
                gains[w.n] += verdict.holds and not reference.holds
            if verdict.holds:
                certificate = verdict.certificate
                x = lcf(certificate.word)
                assert lcf(w.conjugated_by(certificate.conjugator)) == x, w.render()
                assert certificate.conjugator.freely_reduced() == certificate.conjugator
                assert count_negative_bands(certificate.word) == 1, w.render()
                assert x in sss_enumerate(data), w.render()
            else:
                assert verdict.certificate is None
        assert gains[5] > 0 and gains[6] > 0

    def test_criterion_not_necessary_at_six(self):
        # One negative letter and inf_s = -1, so the class is strictly ASQP,
        # but no super summit element has count 1.  Below ENUMERATION_BOUND
        # the verdict reads the class alone, so it stays False, inconclusive.
        w = parse_word("A(6,3) a(5,3) a(4,3) a(5,2) a(5,4) a(4,1) a(4,1) a(6,3) a(4,1)", 6)
        report = braid_report(w)
        assert count_negative_bands(w) == 1 and report.summit.inf_conj == -1
        assert report.nb.nb_upper == 1
        elements = sss_enumerate(report.summit)
        assert len(elements) == 48
        assert {positivity._nb_from_form(x).nb_upper for x in elements} == {2}
        assert (report.strictly_asqp.holds, report.strictly_asqp.definitive) == (False, False)


@functools.cache
def factors_through_nine(n):
    """enumerate_factors(n), extended past ENUMERATION_BOUND to n = 9."""
    return sorted(map(_from_labels, _nc_labels(n)), key=lambda f: (f.word_length, f.blocks))


class TestReduceAgainstStepwise:
    @settings(max_examples=300)
    @given(st.data())
    def test_one_pass_equals_the_loop(self, data):
        # Any factors strictly between e and delta, each with its own sign:
        # the entries of a mixed form need not be left weighted.  At n = 2
        # there is no such factor.
        n = data.draw(st.integers(2, 9), label="n")
        middle = factors_through_nine(n)[1:-1]
        entry = st.tuples(st.sampled_from(middle), st.sampled_from((1, -1)))
        entries = tuple(data.draw(st.lists(entry, max_size=12), label="entries") if middle else ())
        power = data.draw(st.integers(-len(entries) - 2, 1), label="power")
        rw = ReducedWord(n, power, entries)
        assert reduce(rw) == reduce_stepwise(rw), rw.text()


class TestNbProperties:
    @given(st.data())
    def test_bounds_hold(self, data):
        n = data.draw(st.sampled_from((3, 4)), label="n")
        w = data.draw(sparse_words(n), label="word")
        report = braid_report(w)
        word, summit = report.nb, report.nb_class
        for report in (word, summit):
            assert report.nb_lower <= report.nb_exact <= report.nb_upper
        assert word.nb_exact <= sum(l.sign < 0 for l in w.letters)
        assert summit.nb_exact <= word.nb_exact
