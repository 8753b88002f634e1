"""Shared helpers: factor aliases for B_4, chords, word surgery, oracle equality."""

from __future__ import annotations

import random
from math import comb

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from bandforge.factors import (
    CanonicalFactor,
    complement,
    delta_factor,
    factor,
    gen_factor,
    identity_factor,
    tau,
)
from bandforge.normal_form import LeftCanonicalForm, right_multiply
from bandforge.words import BandLetter, BraidWord, parse_word

from oracle import oracle_equal


def catalan(n: int) -> int:
    """The number of canonical factors of B_n."""
    return comb(2 * n, n) // (n + 1)


#: Generator chord (t, s) with t > s; the positive band a_{t,s}.
Chord = tuple[int, int]

# Every property runs the same examples on every run, with no example
# database and no per-example deadline.
settings.register_profile("bandforge", derandomize=True, database=None, deadline=None)
settings.load_profile("bandforge")


def b4(name: str) -> CanonicalFactor:
    """The B_4 canonical factor named in the Kang-Ko-Lee shorthand."""
    table = {
        "e": identity_factor(4),
        "a1": factor(4, [(1, 2)]),
        "a2": factor(4, [(2, 3)]),
        "a3": factor(4, [(3, 4)]),
        "a4": factor(4, [(1, 4)]),
        "b1": factor(4, [(1, 3)]),
        "b2": factor(4, [(2, 4)]),
        "a2a1": factor(4, [(1, 2, 3)]),
        "a3a2": factor(4, [(2, 3, 4)]),
        "a4a3": factor(4, [(1, 3, 4)]),
        "a1a4": factor(4, [(1, 2, 4)]),
        "a1a3": factor(4, [(1, 2), (3, 4)]),
        "a2a4": factor(4, [(2, 3), (1, 4)]),
        "delta": delta_factor(4),
    }
    return table[name]


def all_chords(n: int) -> tuple[Chord, ...]:
    """All n(n-1)/2 positive generators, sorted."""
    return tuple((t, s) for t in range(2, n + 1) for s in range(1, t))


def append_letter(form: LeftCanonicalForm, t: int, s: int, sign: int) -> LeftCanonicalForm:
    """The normal form of form * a_{t,s}^sign; used for incremental sweeps."""
    n = form.n
    g = gen_factor(n, t, s)
    if sign > 0:
        return right_multiply(form, g)
    # delta^r X * c^-1 = delta^(r-1) tau^-1(X) tau^-1(complement(c))
    shifted = LeftCanonicalForm(n, form.power - 1, tuple([tau(f, -1) for f in form.factors]))
    return right_multiply(shifted, tau(complement(g), -1))


@st.composite
def sparse_words(draw, n: int, max_size: int = 8, max_negatives: int = 3) -> BraidWord:
    """Words of at most max_size letters, at most max_negatives of them negative."""
    chords = draw(st.lists(st.sampled_from(all_chords(n)), max_size=max_size))
    flips = draw(st.sets(st.integers(0, len(chords) - 1), max_size=max_negatives)) if chords else ()
    letters = (BandLetter(t, s, -1 if i in flips else 1) for i, (t, s) in enumerate(chords))
    return BraidWord(n, tuple(letters))


def w4(text: str) -> BraidWord:
    return parse_word(text, 4)


def assert_same_braid(w1: BraidWord, w2: BraidWord, bound: int = 40) -> None:
    assert oracle_equal(w1, w2, bound=bound), f"{w1.render()} != {w2.render()}"


def assert_lcf_sound(w: BraidWord, bound: int = 24) -> None:
    """Oracle check that lcf(w) represents w, via positive lifts.

    Comparing delta^m * w against the positive factor concatenation (with
    m = max(0, -inf)) keeps the closure lengths small; feeding the expanded
    normal-form word back to the oracle would re-inflate every delta^-1.
    """
    from bandforge.factors import factor_to_word
    from bandforge.normal_form import lcf
    from bandforge.words import delta_word

    form = lcf(w)
    m = max(0, -form.power)
    lifted = delta_word(w.n) ** (form.power + m)
    for f in form.factors:
        lifted = lifted * factor_to_word(f)
    assert oracle_equal(delta_word(w.n) ** m * w, lifted, bound=bound), w.render()


def random_letters(n: int, length: int, rng: random.Random, neg: float = 0.0):
    pairs = [(t, s) for t in range(2, n + 1) for s in range(1, t)]
    out = []
    for _ in range(length):
        t, s = rng.choice(pairs)
        out.append(BandLetter(t, s, -1 if rng.random() < neg else 1))
    return tuple(out)


def random_braid_word(n: int, length: int, rng: random.Random, neg: float = 0.0) -> BraidWord:
    return BraidWord(n, random_letters(n, length, rng, neg))


def random_sparse_word(
    n: int, length: int, rng: random.Random, max_negs: int = 1
) -> BraidWord:
    """A random word with a bounded number of negative letters.

    Oracle closures grow with writhe + 6 * (#negatives); tests that compare
    against the oracle use this to stay within cheap closure sizes.
    """
    letters = list(random_letters(n, length, rng))
    flips = rng.sample(range(length), min(rng.randint(0, max_negs), length)) if length else []
    for i in flips:
        letters[i] = letters[i].inverse()
    return BraidWord(n, tuple(letters))


def relation_instances(n: int):
    """All two-letter equalities from the defining relations, as word pairs."""
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                x = ((k, j), (j, i))
                y = ((j, i), (k, i))
                z = ((k, i), (k, j))
                out += [(x, y), (y, z), (x, z)]
    chords = [(t, s) for t in range(2, n + 1) for s in range(1, t)]
    for a in chords:
        for b in chords:
            shared = set(a) & set(b)
            crossing = (a[1] < b[1] < a[0] < b[0]) or (b[1] < a[1] < b[0] < a[0])
            if a < b and not shared and not crossing:
                out.append(((a, b), (b, a)))
    return out


def insert_relator(w: BraidWord, rng: random.Random) -> BraidWord:
    """Insert u * v^-1 for a random relation u = v at a random position."""
    u, v = rng.choice(relation_instances(w.n))
    if rng.random() < 0.5:
        u, v = v, u
    chunk = tuple(BandLetter(t, s, 1) for t, s in u) + tuple(
        BandLetter(t, s, -1) for t, s in reversed(v)
    )
    pos = rng.randrange(len(w.letters) + 1)
    return BraidWord(w.n, w.letters[:pos] + chunk + w.letters[pos:])


def insert_cancellation(w: BraidWord, rng: random.Random) -> BraidWord:
    """Insert c * c^-1 (or c^-1 * c) at a random position."""
    (letter,) = random_letters(w.n, 1, rng, neg=0.5)
    chunk = (letter, letter.inverse())
    pos = rng.randrange(len(w.letters) + 1)
    return BraidWord(w.n, w.letters[:pos] + chunk + w.letters[pos:])


def counted(calls, name, fn):
    """fn, counting each call under name in calls."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xBAD5EED)
