"""The rewriting oracle itself: closures, equality, delta normalization."""

import pytest

from bandforge.words import BandLetter, BraidWord, delta_word, parse_word

from conftest import random_braid_word, w4
from oracle import (
    OracleBoundError,
    conjugate_ball_search,
    delta_factorizations,
    element_key,
    normalize_via_delta,
    oracle_equal,
    positive_equal,
    rewrite_ball,
)

# The twelve delta factorizations as listed (up to reordering commuting
# letters these are all of them; as ordered words the ball holds 16).
DELTA_WORDS_LISTED = [
    "a3 a2 a1", "a4 a3 a2", "a1 a4 a3", "a2 a1 a4",
    "b1 a2 a4", "a1 b1 a4", "a3 b1 a2", "a1 a3 b1",
    "b2 a1 a3", "a2 b2 a1", "a4 b2 a3", "a2 a4 b2",
]


def chords(text, n=4):
    return tuple(l.chord for l in parse_word(text, n).letters)


class TestRewriteBall:
    def test_delta_ball_contains_listed_words(self):
        ball = delta_factorizations(4)
        for text in DELTA_WORDS_LISTED:
            assert chords(text) in ball, text

    def test_delta_ball_counts(self):
        ball = delta_factorizations(4)
        assert len(ball) == 16
        # Counted as letter multisets the sixteen collapse to the twelve.
        assert len({tuple(sorted(w)) for w in ball}) == 12
        listed = {tuple(sorted(chords(t))) for t in DELTA_WORDS_LISTED}
        assert {tuple(sorted(w)) for w in ball} == listed

    def test_delta_ball_sizes_other_n(self):
        # Chains in the noncrossing partition lattice: n^(n-2) words.
        assert len(delta_factorizations(3)) == 3
        assert len(delta_factorizations(5)) == 125

    def test_ball_closed_under_neighbors(self):
        from oracle import relation_neighbors

        ball = rewrite_ball(chords("a1 a2 a1"))
        for w in ball:
            for nb in relation_neighbors(w):
                assert nb in ball

    def test_max_size_guard(self):
        with pytest.raises(OracleBoundError):
            rewrite_ball(chords("a3 a2 a1"), max_size=3)


class TestPositiveEqual:
    def test_delta_expressions(self):
        assert positive_equal(w4("a3 a2 a1"), w4("b1 a2 a4"))

    def test_non_equal_pair(self):
        assert not positive_equal(w4("a1 a2"), w4("a2 a1"))

    def test_reflexive(self):
        assert positive_equal(w4("a1 b2 a3"), w4("a1 b2 a3"))

    def test_nested_commutation(self):
        # a2 and a4 are nested chords; disjointedness makes them commute.
        assert positive_equal(w4("a2 a4"), w4("a4 a2"))

    def test_length_mismatch_is_false(self):
        assert not positive_equal(w4("a1"), w4("a1 a1"))

    def test_bound(self):
        long = w4("a1^13")
        with pytest.raises(OracleBoundError):
            positive_equal(long, long, bound=12)

    def test_rejects_negative_letters(self):
        with pytest.raises(ValueError):
            positive_equal(w4("A1"), w4("A1"))

    def test_early_stop_agrees_with_whole_ball(self, rng):
        # positive_equal stops walking once it meets the other word and
        # answers from cached labels when it can; the verdict must be ball
        # membership with the cache cold, holding either ball, or both.
        from oracle import _ball_key, clear_caches, relation_neighbors

        for _ in range(40):
            u = random_braid_word(4, rng.randint(2, 6), rng)
            v_chords = tuple(l.chord for l in u.letters)
            if rng.random() < 0.5:
                for _ in range(rng.randint(1, 4)):
                    v_chords = rng.choice(list(relation_neighbors(v_chords)) or [v_chords])
            else:
                v_chords = tuple(rng.sample(v_chords, len(v_chords)))
            v = BraidWord(4, tuple(BandLetter(t, s, 1) for t, s in v_chords))
            expected = v_chords in rewrite_ball(tuple(l.chord for l in u.letters))
            for warm in ((), (u,), (v,), (u, v)):
                clear_caches()
                for word in warm:
                    _ball_key(tuple(l.chord for l in word.letters), 4)
                assert positive_equal(u, v) == expected
                assert positive_equal(v, u) == expected
        clear_caches()

    @pytest.mark.parametrize("n", [4, 5])
    def test_permutation_precheck_is_sound(self, n):
        # positive_equal answers False without a walk when the permutations
        # differ; no pair that shares a rewrite ball may be cut off that way.
        import random

        from oracle import _same_ball, relation_neighbors
        from bandforge.words import permutation

        rng = random.Random(4099 * n)
        cut = equal = 0
        for _ in range(2000):
            u = random_braid_word(n, rng.randint(1, 6), rng)
            a = tuple(l.chord for l in u.letters)
            if rng.random() < 0.5:
                b = a
                for _ in range(rng.randint(1, 4)):
                    b = rng.choice(list(relation_neighbors(b)) or [b])
            else:
                b = tuple(l.chord for l in random_braid_word(n, len(a), rng).letters)
            v = BraidWord(n, tuple(BandLetter(t, s, 1) for t, s in b))
            same = _same_ball(a, b, n)
            assert positive_equal(u, v) == same, (a, b)
            if permutation(u) != permutation(v):
                cut += 1
                assert not same, (a, b)
            equal += same
        # Both outcomes must be exercised.
        assert cut >= 600 and equal >= 600


class TestNormalizeViaDelta:
    def test_single_negative(self):
        r, p = normalize_via_delta(w4("A1"))
        assert r == -1 and len(p) == 2
        rebuilt = delta_word(4).inverse() * BraidWord(
            4, tuple(parse_word(" ".join(f"a({t},{s})" for t, s in p), 4).letters)
        )
        assert oracle_equal(rebuilt, w4("A1"))

    def test_positive_passthrough(self):
        r, p = normalize_via_delta(w4("a1 b2"))
        assert r == 0 and p == chords("a1 b2")

    def test_r_counts_negatives(self, rng):
        from bandforge.normal_form import lcf

        for _ in range(100):
            w = random_braid_word(4, rng.randint(0, 8), rng, neg=0.5)
            r, p = normalize_via_delta(w)
            negs = sum(1 for l in w.letters if l.sign < 0)
            assert r == -negs
            assert len(p) == len(w.letters) + negs  # each V has n-2 = 2 letters
            assert lcf(w).power >= r  # the raw power only underestimates inf


class TestOracleEqual:
    def test_cancellation(self):
        assert oracle_equal(w4("a1 A1"), w4(""))
        assert oracle_equal(w4("B2 b2"), w4(""))

    def test_commuted_past_delta(self):
        # a1 delta = delta a2, so conjugating delta by a1 twists by tau.
        assert oracle_equal(w4("A1 d a1"), w4("d A2 a1"), bound=16)

    def test_central_power_three_strands(self):
        # delta^3 generates the center of B_3 (small enough to close over).
        lhs = parse_word("A(2,1) d^3 a(2,1)", 3)
        assert oracle_equal(lhs, parse_word("d^3", 3), bound=16)

    def test_distinguishes(self):
        assert not oracle_equal(w4("d"), w4(""))
        assert not oracle_equal(w4("a1"), w4("a2"))

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            oracle_equal(w4("a1"), parse_word("a(2,1)", 5))


class TestElementKey:
    def test_cancellation_same_key(self):
        assert element_key(w4("a1 A1")) == element_key(w4(""))

    def test_key_strips_delta(self):
        assert element_key(w4("a3 a2 a1")) == element_key(w4("d"))

    def test_key_separates(self):
        assert element_key(w4("a1")) != element_key(w4("b1"))

    def test_key_power_is_max_delta_divisor(self):
        r, p = element_key(w4("d a1"))
        assert r == 1 and len(p) == 1

    def test_agrees_with_oracle_equal(self, rng):
        from conftest import random_sparse_word

        words = [random_sparse_word(4, rng.randint(0, 4), rng, max_negs=1) for _ in range(20)]
        for u in words:
            for v in words:
                assert (element_key(u) == element_key(v)) == oracle_equal(u, v, bound=16)


class TestAgreementWithNormalForm:
    def test_exhaustive_length_six(self):
        # Equality by rewriting closure and by normal form must induce the
        # same partition of all positive B_4 words of length <= 6.
        import itertools

        from conftest import all_chords
        from bandforge.normal_form import lcf
        from oracle import _ball_key
        from bandforge.words import BandLetter

        by_oracle, by_lcf = {}, {}
        for length in range(7):
            for combo in itertools.product(all_chords(4), repeat=length):
                okey = (length, _ball_key(combo, 4)) if combo else (0, ())
                fkey = lcf(BraidWord(4, tuple(BandLetter(t, s, 1) for t, s in combo)))
                by_oracle.setdefault(okey, set()).add(fkey)
                by_lcf.setdefault(fkey, set()).add(okey)
        assert all(len(v) == 1 for v in by_oracle.values())
        assert all(len(v) == 1 for v in by_lcf.values())

    def test_random_longer_positive_samples(self, rng):
        from bandforge.normal_form import lcf

        for _ in range(10_000):
            u = random_braid_word(4, rng.randint(7, 9), rng)
            if rng.random() < 0.5:
                # A relation-rewritten variant: equal by construction.
                from oracle import relation_neighbors

                chords_u = tuple(l.chord for l in u.letters)
                neighbors = list(relation_neighbors(chords_u))
                if not neighbors:
                    continue
                v = BraidWord(
                    4,
                    tuple(
                        parse_word(" ".join(f"a({t},{s})" for t, s in rng.choice(neighbors)), 4).letters
                    ),
                )
            else:
                v = random_braid_word(4, len(u.letters), rng)
            assert positive_equal(u, v, bound=12) == (lcf(u) == lcf(v))


class TestConjugateBallSearch:
    def test_finds_generator_conjugacy(self):
        witness = conjugate_ball_search(w4("a1"), w4("a2"), max_len=2)
        assert witness is not None
        from bandforge.normal_form import lcf

        assert lcf(w4("a1").conjugated_by(witness)) == lcf(w4("a2"))

    def test_identity_witness(self):
        w = w4("a1 b2")
        assert conjugate_ball_search(w, w, max_len=0) == BraidWord(4)

    def test_absent_for_distinct_writhe(self):
        assert conjugate_ball_search(w4("d"), w4(""), max_len=2) is None
