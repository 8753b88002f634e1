"""Cycling, decycling, summit representatives, SSS enumeration, conjugacy."""

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandforge import conjugacy, factors, normal_form
from bandforge.conjugacy import (
    BudgetExceededError,
    ConjugacyResult,
    are_conjugate,
    cycling,
    decycling,
    sss_enumerate,
    sss_representative,
)
from bandforge.factors import enumerate_factors, factor_to_word, precedes, tau
from bandforge.normal_form import (
    LeftCanonicalForm,
    _right_pass,
    lcf,
    lcf_to_word,
    left_divide,
    right_multiply,
    signed_word,
)
from bandforge.words import BraidWord, parse_word, permutation, writhe

from conftest import catalan, counted, random_braid_word, random_letters, sparse_words, w4
from oracle import conjugate_ball_search
from pass_reference import cycling_step, decycling_step
from sss_reference import (
    conjugators_tried,
    sss_enumerate_by_words,
    sss_enumerate_per_element,
    sss_representative_by_orbit,
)

KNOT_7_2_WORD = "a1 a1 a1 a2 A1 a2 a3 A2 a3"
KNOT_7_2_POSITIVE = "a1 a1 b2 b1 a3"
TWO_BAND_WORD = "a3 A1 A2 b2 b1 a1 b2 b1 a3"


def cycle_type(perm):
    seen, lengths = set(), []
    for start in perm:
        if start in seen:
            continue
        k, x = 0, start
        while x not in seen:
            seen.add(x)
            x = perm[x - 1]
            k += 1
        lengths.append(k)
    return tuple(sorted(lengths))


class TestCyclingDecycling:
    def test_zero_length_fixed(self):
        form = lcf(w4("d^2"))
        assert cycling(form) == form
        assert decycling(form) == form

    def test_single_factor_power_zero(self):
        form = lcf(w4("b1"))
        assert cycling(form) == form
        assert decycling(form) == form

    def test_conjugate_via_witness(self, rng):
        for _ in range(120):
            w = random_braid_word(4, rng.randint(1, 9), rng, neg=0.4)
            form = lcf(w)
            if not form.factors:
                continue
            q = signed_word(4, 0, (cycling_step(form),))
            assert lcf(w.conjugated_by(q)) == cycling(form)
            q = signed_word(4, 0, (decycling_step(form),))
            assert lcf(w.conjugated_by(q)) == decycling(form)

    def test_preserves_writhe_and_cycle_type(self, rng):
        for _ in range(1000):
            w = random_braid_word(4, rng.randint(0, 10), rng, neg=0.4)
            form = lcf(w)
            for image in (cycling(form), decycling(form)):
                u = lcf_to_word(image)
                assert writhe(u) == writhe(w)
                assert cycle_type(permutation(u)) == cycle_type(permutation(w))

    def test_monotone_inf_sup(self, rng):
        for _ in range(200):
            w = random_braid_word(4, rng.randint(1, 9), rng, neg=0.4)
            form = lcf(w)
            for image in (cycling(form), decycling(form)):
                assert image.power >= form.power
                assert image.sup <= form.sup

    def test_nb2_word_stays_summit(self):
        # This length-8 form sits in its own super summit set: both
        # operations keep canonical length 8 and inf -1.
        form = lcf(w4(TWO_BAND_WORD))
        for image in (cycling(form), decycling(form)):
            assert image.power == -1
            assert image.canonical_length == 8


class TestSummitRepresentative:
    def test_knot72_reaches_inf_zero(self):
        data = sss_representative(w4(KNOT_7_2_WORD))
        assert data.inf_conj == 0
        assert lcf(w4(KNOT_7_2_WORD).conjugated_by(data.witness)) == data.representative

    def test_delta_power_fixed(self):
        data = sss_representative(w4("d^3"))
        assert (data.inf_conj, data.sup_conj) == (3, 3)
        assert data.representative == lcf(w4("d^3"))

    def test_nb2_word(self):
        data = sss_representative(w4(TWO_BAND_WORD))
        assert data.inf_conj == -1

    # v^-1 delta^m v, whose summit delta^m is reached only after cycling
    # runs of n - 3 steps that leave inf, each ended by a step that raises
    # it: a search that stops after n - 3 idle steps misses those gains.
    # Found by a seeded search over random v (6 in 1.2 million at n = 6);
    # random words at n = 4-6 almost never idle that long before a gain.
    LONG_IDLE_CONJUGATES = [
        (4, 1, "A(4,1) a(2,1) A(4,3) A(3,2) a(4,2)"),
        (4, 3, "A(4,1) A(3,1) A(3,1) A(3,2) A(4,2) A(3,1)"),
        (5, 2, "A(3,1) a(3,2) a(3,1) a(5,1) a(2,1) A(3,1) a(3,2)"),
        (5, 4, "a(5,4) a(4,1) a(4,1) a(4,3) A(2,1) a(5,3) a(3,2)"),
        (6, 1, "A(5,4) A(5,4) A(4,2) a(6,1) A(3,2) A(3,2)"),
        (6, 5, "A(3,2) A(2,1) A(6,1) A(6,4) a(5,4) A(4,3)"),
    ]

    @staticmethod
    def stops_after(form, idle_bound):
        """(inf, sup) of the summit search that stops each phase after idle_bound idle steps."""
        idle = 0
        while form.factors and idle < idle_bound:
            inf = form.power
            form = cycling(form)
            idle = idle + 1 if form.power == inf else 0
        idle = 0
        while form.factors and idle < idle_bound:
            sup = form.sup
            form = decycling(form)
            idle = idle + 1 if form.sup == sup else 0
        return form.inf, form.sup

    @pytest.mark.parametrize("n, m, v", LONG_IDLE_CONJUGATES)
    def test_gain_after_longest_idle_run(self, n, m, v):
        w = parse_word(f"d^{m}", n).conjugated_by(parse_word(v, n))
        assert self.stops_after(lcf(w), n - 3) != (m, m)
        data = sss_representative(w)
        assert data.representative == LeftCanonicalForm(n, m, ())
        assert lcf(w.conjugated_by(data.witness)) == data.representative

    def test_bounds_versus_word_form(self, rng):
        for _ in range(80):
            w = random_braid_word(4, rng.randint(0, 8), rng, neg=0.4)
            form = lcf(w)
            data = sss_representative(w)
            assert data.inf_conj >= form.inf
            assert data.sup_conj <= form.sup
            assert lcf(w.conjugated_by(data.witness)) == data.representative

    def test_never_beaten_by_bounded_search(self, rng):
        # inf[b] and sup[b] are the optima over the whole conjugacy class,
        # so no conjugator found by exhaustive small search may improve on
        # the representative.  Catches premature stagnation detection.
        import itertools

        from bandforge.words import BandLetter

        for n, samples in ((3, 12), (4, 10)):
            alphabet = [
                BandLetter(t, s, sign)
                for t in range(2, n + 1)
                for s in range(1, t)
                for sign in (1, -1)
            ]
            for _ in range(samples):
                w = random_braid_word(n, rng.randint(1, 6), rng, neg=0.4)
                data = sss_representative(w)
                for length in range(4):
                    for combo in itertools.product(alphabet, repeat=length):
                        rival = lcf(w.conjugated_by(BraidWord(n, combo)))
                        assert rival.power <= data.inf_conj
                        assert rival.sup >= data.sup_conj

    @settings(max_examples=150)
    @given(st.data())
    def test_witness_read_from_steps(self, data):
        n = data.draw(st.integers(3, 5), label="n")
        w = data.draw(sparse_words(n, max_size=10, max_negatives=3), label="word")
        summit = sss_representative(w)
        witness = summit.witness
        assert lcf(w.conjugated_by(witness)) == summit.representative
        assert summit.witness == witness
        from_form = sss_representative(lcf(w))
        assert from_form.representative == summit.representative
        assert from_form.witness.render() == witness.render()


class TestSummitAgainstOrbitSearch:
    """The bounded summit search against the orbit-repeat search it replaced.

    A corpus of 1,020 seeded words, 170 at each n = 3-8, of 8-16 letters with
    1-3 of them negative.  The orbit-repeat search needs no bound on how long
    a gain can take, so it checks the n - 1 idle steps the library stops
    after.  (inf, sup) equal to the class's and a witness conjugating the
    word to the representative make it a super summit element at every n;
    for the first words at each n <= 6 (ENUMERATED of them) the reference's
    set is also enumerated and must contain it.
    """

    ENUMERATED = {3: 170, 4: 170, 5: 60, 6: 10}

    @staticmethod
    def corpus():
        rng = random.Random(20261018)
        for n in range(3, 9):
            for index in range(170):
                letters = list(random_letters(n, rng.randint(8, 16), rng))
                for i in rng.sample(range(len(letters)), rng.randint(1, 3)):
                    letters[i] = letters[i].inverse()
                yield index, BraidWord(n, tuple(letters))

    def test_seeded_corpus(self):
        for index, w in self.corpus():
            data = sss_representative(w)
            reference = sss_representative_by_orbit(w)
            assert (data.inf_conj, data.sup_conj) == (
                reference.inf_conj,
                reference.sup_conj,
            ), w.render()
            assert lcf(w.conjugated_by(data.witness)) == data.representative, w.render()
            if index < self.ENUMERATED.get(w.n, 0):
                assert data.representative in sss_enumerate(reference), w.render()


class TestSssEnumeration:
    def test_central_power_is_singleton(self):
        data = sss_representative(w4("d^4"))
        assert sss_enumerate(data).keys() == frozenset({lcf(w4("d^4"))})

    def test_delta_itself_is_singleton(self):
        # Not central, but the only element with inf = sup = 1.
        data = sss_representative(w4("d"))
        assert sss_enumerate(data).keys() == frozenset({lcf(w4("d"))})

    def test_generators_form_one_class(self):
        data = sss_representative(w4("a1"))
        elems = sss_enumerate(data)
        texts = sorted(e.factors[0].text() for e in elems)
        assert texts == ["{1,2}", "{1,3}", "{1,4}", "{2,3}", "{2,4}", "{3,4}"]
        # Cross-check: short conjugator searches find the same elements.
        for target in ("a2", "b1", "b2"):
            assert conjugate_ball_search(w4("a1"), w4(target), max_len=2) is not None

    def test_closure_independent_of_start(self):
        first = sss_representative(w4(KNOT_7_2_WORD))
        second = sss_representative(w4(KNOT_7_2_POSITIVE))
        assert sss_enumerate(first).keys() == sss_enumerate(second).keys()

    def test_nb2_class_inf(self):
        data = sss_representative(w4(TWO_BAND_WORD))
        elems = sss_enumerate(data)
        assert all(e.power == -1 for e in elems)

    def test_summit_criterion_on_elements(self):
        # Elements of canonical length >= 3 satisfy l = l(c(W)) = l(d(W)).
        data = sss_representative(w4(KNOT_7_2_WORD))
        for e in sss_enumerate(data):
            if e.canonical_length >= 3:
                assert cycling(e).canonical_length == e.canonical_length
                assert decycling(e).canonical_length == e.canonical_length

    def test_witnesses_reach_elements(self):
        data = sss_representative(w4(KNOT_7_2_WORD))
        base = lcf_to_word(data.representative)
        for element, path in sss_enumerate(data).items():
            assert lcf(base.conjugated_by(signed_word(base.n, 0, path))) == element

    def test_closure_builds_no_words(self, monkeypatch):
        # The closure stores signed-factor steps; no conjugator is spelled
        # out as letters while the set is enumerated.
        data = sss_representative(w4(KNOT_7_2_WORD))
        calls = Counter()
        for module, name in (
            (conjugacy, "BraidWord"),
            (conjugacy, "signed_word"),
            (normal_form, "BraidWord"),
            (normal_form, "_factor_letters"),
            (factors, "_factor_letters"),
        ):
            inner = getattr(module, name)
            monkeypatch.setattr(module, name, counted(calls, name, inner))
        elements = sss_enumerate(data)
        monkeypatch.undo()
        assert calls == {} and len(elements) > 1

    def test_representative_comes_first(self):
        data = sss_representative(w4(KNOT_7_2_WORD))
        elements = sss_enumerate(data)
        assert len(elements) > 1
        assert next(iter(elements.items())) == (data.representative, ())

    def test_nothing_kept_on_the_summit(self):
        w = w4(TWO_BAND_WORD)
        data = sss_representative(w)
        first = sss_enumerate(data)
        assert sss_enumerate(data) == first
        assert data == sss_representative(w)

    def test_summit_data_is_frozen(self):
        data = sss_representative(w4(KNOT_7_2_WORD))
        assert [f.name for f in dataclasses.fields(data)] == ["representative", "witness_steps"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.witness_steps = ()

    def test_budget_guard(self):
        data = sss_representative(w4(KNOT_7_2_WORD))
        with pytest.raises(BudgetExceededError) as info:
            sss_enumerate(data, budget=3)
        assert info.value.partial_count == 3

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        data = sss_representative(w4(KNOT_7_2_WORD))
        with pytest.raises(ValueError, match="at least 1"):
            sss_enumerate(data, budget=budget)


class TestFactorSpaceConjugation:
    """f^-1 W f = left_divide(f, right_multiply(W, f)), as sss_enumerate uses it."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_word_conjugation(self, n, rng):
        bases = [()] + [
            lcf(random_braid_word(n, rng.randint(1, 7), rng)).factors for _ in range(3)
        ]
        forms = [LeftCanonicalForm(n, r, fs) for fs in bases for r in (-2, -1, 0, 1, 3)]
        assert any(f.is_identity for f in enumerate_factors(n))
        assert any(f.is_delta for f in enumerate_factors(n))
        for form in forms:
            word = lcf_to_word(form)
            for f in enumerate_factors(n):
                by_factors = left_divide(f, right_multiply(form, f))
                assert by_factors == lcf(word.conjugated_by(factor_to_word(f)))


class TestSssAgainstWordClosure:
    """The library closure against the word-based one it replaced."""

    @staticmethod
    def assert_same_closure(w):
        data = sss_representative(w)
        elements = sss_enumerate(data)
        assert elements.keys() == sss_enumerate_by_words(sss_representative(w))
        # Witnesses are not unique, so each is checked, not compared.
        base = lcf_to_word(data.representative)
        for element, path in elements.items():
            assert lcf(base.conjugated_by(signed_word(base.n, 0, path))) == element

    @pytest.mark.parametrize("n, samples, max_len", [(3, 12, 8), (4, 12, 8), (5, 4, 6)])
    def test_seeded_words(self, n, samples, max_len, rng):
        for _ in range(samples):
            self.assert_same_closure(random_braid_word(n, rng.randint(0, max_len), rng, neg=0.4))

    @pytest.mark.parametrize("text", [KNOT_7_2_WORD, KNOT_7_2_POSITIVE, TWO_BAND_WORD])
    def test_worked_examples(self, text):
        self.assert_same_closure(w4(text))


class TestSssAgainstPerElementClosure:
    """The orbit closure against the factor-space one that expands every element."""

    # Seeded 10-letter B_6 words with one negative letter; SSS sizes 186, 228, 252.
    @pytest.mark.parametrize(
        "text",
        [
            "a(4,1) a(3,2) A(5,4) a(5,4) a(2,1) a(5,2) a(4,1) a(6,2) a(6,4) a(5,1)",
            "A(4,1) a(6,2) a(3,2) a(2,1) a(6,5) a(6,3) a(5,3) a(4,2) a(6,4) a(4,1)",
            "a(4,1) a(6,2) a(6,5) A(2,1) a(6,3) a(6,4) a(4,3) a(4,3) a(4,3) a(4,2)",
        ],
    )
    def test_six_strand_words(self, text):
        w = parse_word(text, 6)
        assert sss_enumerate(sss_representative(w)).keys() == sss_enumerate_per_element(
            sss_representative(w)
        )


class TestMinimalConjugators:
    """The closure tries no delta and no factor above a keeper, and loses no element."""

    @staticmethod
    def corpus(n, count, max_len=12):
        rng = random.Random(7919 * n)
        return [random_braid_word(n, rng.randint(6, max_len), rng, neg=0.3) for _ in range(count)]

    @staticmethod
    def enumerate_recording(data, monkeypatch):
        """sss_enumerate(data), with the factors tried at each expanded node, in order.

        Every trial starts with one right pass on a copy of the node's
        factors, so the node is read off the list that pass receives.
        """
        trials: dict[LeftCanonicalForm, list] = {}
        n, p = data.representative.n, data.inf_conj
        inner = conjugacy._right_pass

        def recording(fs, f):
            trials.setdefault(LeftCanonicalForm(n, p, tuple(fs)), []).append(f)
            return inner(fs, f)

        monkeypatch.setattr(conjugacy, "_right_pass", recording)
        try:
            sss_enumerate(data)
        finally:
            monkeypatch.undo()
        return trials

    # SSS sizes up to 590 at n = 5 and 1,080 at n = 6.
    @pytest.mark.parametrize("n, count, max_len", [(5, 30, 12), (6, 8, 10)])
    def test_closure_matches_per_element(self, n, count, max_len):
        for w in self.corpus(n, count, max_len):
            data = sss_representative(w)
            expected = sss_enumerate_per_element(sss_representative(w))
            elements = sss_enumerate(data)
            assert elements.keys() == expected, w.render()
            base = lcf_to_word(data.representative)
            for element, path in elements.items():
                assert lcf(base.conjugated_by(signed_word(n, 0, path))) == element

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_delta_never_tried(self, n, monkeypatch):
        for w in self.corpus(n, 6):
            trials = self.enumerate_recording(sss_representative(w), monkeypatch)
            tried = [f for fs in trials.values() for f in fs]
            assert tried and not any(f.is_delta for f in tried), w.render()

    @pytest.mark.parametrize("n, count", [(3, 20), (4, 20), (5, 8), (6, 2)])
    def test_tries_exactly_the_unblocked_factors(self, n, count, monkeypatch):
        for w in self.corpus(n, count):
            data = sss_representative(w)
            trials = self.enumerate_recording(data, monkeypatch)
            target = (data.inf_conj, data.sup_conj)
            for node, tried in trials.items():
                assert tried == conjugators_tried(node, target), (w.render(), node.text())


class TestClosureInvariants:
    """The two facts the closure rests on, and the work they save."""

    @settings(max_examples=200)
    @given(st.data())
    def test_inf_decided_after_right_pass(self, data):
        n = data.draw(st.integers(3, 5), label="n")
        p = data.draw(st.integers(-3, 5), label="power")
        form = LeftCanonicalForm(n, p, lcf(data.draw(sparse_words(n), label="word")).factors)
        for f in enumerate_factors(n):
            fs = list(form.factors)
            carried = _right_pass(fs, f)
            shifted = tau(f, p)
            head_rule = precedes(shifted, fs[0]) if fs else shifted.is_identity
            candidate = left_divide(f, right_multiply(form, f))
            assert (carried is not None or head_rule) == (candidate.power >= p)

    @pytest.mark.parametrize("n, samples, max_len", [(3, 10, 8), (4, 10, 10), (5, 6, 8)])
    def test_sss_is_tau_closed(self, n, samples, max_len, rng):
        for _ in range(samples):
            w = random_braid_word(n, rng.randint(0, max_len), rng, neg=0.4)
            elements = sss_enumerate(sss_representative(w))
            rotated = {
                LeftCanonicalForm(n, e.power, tuple(tau(a) for a in e.factors))
                for e in elements
            }
            assert rotated == elements.keys()

    @pytest.mark.parametrize("n, samples, max_len", [(3, 10, 8), (4, 10, 10), (5, 6, 8)])
    def test_one_expansion_per_orbit(self, n, samples, max_len, rng, monkeypatch):
        calls = 0
        inner = conjugacy._right_pass

        def counted(fs, f):
            nonlocal calls
            calls += 1
            return inner(fs, f)

        for _ in range(samples):
            w = random_braid_word(n, rng.randint(0, max_len), rng, neg=0.4)
            data = sss_representative(w)
            monkeypatch.setattr(conjugacy, "_right_pass", counted)
            calls = 0
            elements = sss_enumerate(data)
            monkeypatch.undo()
            orbits = {
                frozenset(
                    LeftCanonicalForm(n, e.power, tuple(tau(a, k) for a in e.factors))
                    for k in range(n)
                )
                for e in elements
            }
            assert calls <= (catalan(n) - 1) * len(orbits), w.render()


class TestAreConjugate:
    def test_knot72_pair(self):
        res = are_conjugate(w4(KNOT_7_2_WORD), w4(KNOT_7_2_POSITIVE))
        assert res.conjugate
        assert res.sss_size_a == res.sss_size_b
        assert lcf(w4(KNOT_7_2_WORD).conjugated_by(res.witness)) == lcf(w4(KNOT_7_2_POSITIVE))

    def test_delta_vs_identity(self):
        res = are_conjugate(w4("d"), w4(""))
        assert not res.conjugate and res.witness is None

    def test_constructed_conjugates(self, rng):
        for _ in range(25):
            w = random_braid_word(4, rng.randint(1, 6), rng, neg=0.3)
            v = random_braid_word(4, rng.randint(0, 3), rng, neg=0.5)
            res = are_conjugate(w, w.conjugated_by(v))
            assert res.conjugate
            assert lcf(w.conjugated_by(res.witness)) == lcf(w.conjugated_by(v))

    def test_symmetry_and_transitivity_spot(self, rng):
        words = [random_braid_word(4, rng.randint(1, 5), rng, neg=0.3) for _ in range(8)]
        verdicts = {}
        for i, u in enumerate(words):
            for j, v in enumerate(words):
                verdicts[i, j] = are_conjugate(u, v).conjugate
        for i in range(len(words)):
            assert verdicts[i, i]
            for j in range(len(words)):
                assert verdicts[i, j] == verdicts[j, i]
                for k in range(len(words)):
                    if verdicts[i, j] and verdicts[j, k]:
                        assert verdicts[i, k]

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            are_conjugate(w4("a1"), parse_word("a(2,1)", 5))

    def test_witnesses_are_freely_reduced(self, rng):
        shortened = 0
        for _ in range(30):
            w = random_braid_word(4, rng.randint(1, 8), rng, neg=0.3)
            v = random_braid_word(4, rng.randint(0, 3), rng, neg=0.5)
            summit = sss_representative(w)
            res = are_conjugate(w, w.conjugated_by(v))
            assert lcf(w.conjugated_by(summit.witness)) == summit.representative
            assert lcf(w.conjugated_by(res.witness)) == lcf(w.conjugated_by(v))
            for witness in (summit.witness, res.witness):
                assert all(a != b.inverse() for a, b in zip(witness.letters, witness.letters[1:]))
            shortened += len(summit.witness) < len(signed_word(4, 0, summit.witness_steps))
        assert shortened > 0

    def test_non_conjugate_same_writhe(self):
        # a1 a1 and a1 a3 have equal writhe but different permutation types.
        res = are_conjugate(w4("a1 a1"), w4("a1 a3"))
        assert not res.conjugate

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_invariant_mismatch_reports_both_sizes(self, n):
        # No invariant is compared up front: a pair whose writhe or
        # (inf_s, sup_s) differ fails the lookup and reports both set sizes.
        rng = random.Random(3001 * n)
        kinds = Counter()
        while min(kinds["writhe"], kinds["summit"]) < 3:
            w1, w2 = (random_braid_word(n, rng.randint(3, 7), rng, neg=0.3) for _ in range(2))
            s1, s2 = sss_representative(w1), sss_representative(w2)
            if writhe(w1) != writhe(w2):
                kinds["writhe"] += 1
            elif (s1.inf_conj, s1.sup_conj) != (s2.inf_conj, s2.sup_conj):
                kinds["summit"] += 1
            else:
                continue
            sizes = len(sss_enumerate(s1)), len(sss_enumerate(s2))
            assert are_conjugate(w1, w2) == ConjugacyResult(False, None, *sizes), (
                w1.render(),
                w2.render(),
            )
