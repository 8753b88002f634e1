"""
Left canonical form for band-generator braid words.

Every braid has a unique expression delta^r A_1 ... A_k with each A_i a
canonical factor other than e or delta and every adjacent pair maximally
left weighted (no nontrivial prefix of A_{i+1} can move into A_i, i.e.
complement(A_i) ^ A_{i+1} = e).  The exponent r is inf, r + k is sup, and k
is the canonical length.

A pair (A, B) is left-weighted in one step: with C = complement(A) ^ B it
becomes (A*C, C^-1 * B).  A normal form is multiplied by one factor in one
pass of such steps (the domino rule of Garside theory), which stops at the
first pair that does not change:

- g * delta^r A_1 ... A_k = delta^r tau^r(g) A_1 ... A_k; the pass runs to
  the right, (g, A_i) -> (D_i, g'), and each D_i is final.  A delta can
  only form at the front, where it joins the power.
- delta^r A_1 ... A_k * f runs to the left, (A_i, f) -> (f', B_i).  A delta
  that forms is carried to the front by the pass itself, as
  (A, delta) -> (delta, tau(A)) is X delta = delta tau(X); it joins the power.

lcf() reads the word from its last letter to its first and multiplies it in
on the left by runs: a positive letter g joins the pending factor h while
g*h is a factor (h <= complement(g)), and a negative letter c joins a
pending negative run h while h*c is one (c <= complement(h)), since
c^-1 h^-1 = (h c)^-1.  Each run is one left_multiply(h, form), or one
left_divide(h, form), as h^-1 = delta^-1 tau^-1(complement(h)).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .factors import (
    CanonicalFactor,
    _factor_letters,
    _left_weight,
    complement,
    diamond,
    gen_factor,
    meet,
    tau,
)
from .words import BraidWord, check_strand_count, delta_word

# Most pairs of a long word are met once, so the pair memo keeps a bounded
# number of recent ones; n = 5's 1,764 pairs still fit.  Each entry keeps up
# to four factors in the intern table.
_PAIR_MEMO_SIZE = 1 << 11


class LeftCanonicalForm(NamedTuple):
    """delta^power A_1 ... A_k with pairwise maximal left weighting.

    A named tuple (n, power, factors), equal to that plain tuple; len(form) is 3.
    """

    n: int
    power: int
    factors: tuple[CanonicalFactor, ...]

    @property
    def inf(self) -> int:
        return self.power

    @property
    def sup(self) -> int:
        return self.power + len(self.factors)

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    def validate(self) -> None:
        """Assert the structural invariants; used by tests, not hot paths."""
        for f in self.factors:
            if f.n != self.n:
                raise AssertionError("factor strand count mismatch")
            if f.is_identity or f.is_delta:
                raise AssertionError(f"illegal factor {f.text()} in normal form")
        for a, b in zip(self.factors, self.factors[1:]):
            if not meet(complement(a), b).is_identity:
                raise AssertionError(
                    f"pair {a.text()} | {b.text()} is not maximally left weighted"
                )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "inf": self.inf,
            "sup": self.sup,
            "len": self.canonical_length,
            "delta_power": self.power,
            "factors": [f.json_blocks() for f in self.factors],
            "word": lcf_to_word(self).render(),
        }

    def text(self) -> str:
        parts = [f"d^{self.power}"] if self.power else []
        parts += [f.text() for f in self.factors]
        return " · ".join(parts) if parts else "e"

    def __str__(self) -> str:
        return self.text()


@lru_cache(maxsize=_PAIR_MEMO_SIZE)
def left_weight_pair(
    a: CanonicalFactor, b: CanonicalFactor
) -> tuple[CanonicalFactor, CanonicalFactor]:
    """The left-weighted factorization A'B' of the product AB.

    C = complement(A) ^ B is the largest prefix of B that A can absorb, so
    the pair becomes (A*C, C^-1 * B); C = e means AB is already weighted.
    """
    if a.n != b.n:
        raise ValueError(f"mismatched strand counts {a.n} and {b.n}")
    return _left_weight(a, b)


def left_multiply(g: CanonicalFactor, form: LeftCanonicalForm) -> LeftCanonicalForm:
    """The normal form of g * form: one pass to the right, (g, A_i) -> (D_i, g)."""
    if g.n != form.n:
        raise ValueError(f"factor on {g.n} strands in a B_{form.n} normal form")
    return _left_pass(tau(g, form.power), form)


def _left_pass(g: CanonicalFactor, form: LeftCanonicalForm) -> LeftCanonicalForm:
    """The normal form of delta^r g A_1 ... A_k, for form = delta^r A_1 ... A_k.

    That is tau^-r(g) * form: left_multiply rotates its factor first, and a
    caller that holds the rotated factor already passes it here.
    """
    n = form.n
    fs = form.factors
    out: list[CanonicalFactor] = []
    i = 0
    while i < len(fs) and not g.is_identity:
        d, b = left_weight_pair(g, fs[i])
        if d is g:  # a weighted pair: nothing to its right changes
            break
        out.append(d)
        g = b
        i += 1
    if not g.is_identity:
        out.append(g)
    out += fs[i:]
    # g <= delta, so inf(g * form) <= inf(form) + 1: at most one delta, at the front.
    if out and out[0].is_delta:
        return LeftCanonicalForm(n, form.power + 1, tuple(out[1:]))
    return LeftCanonicalForm(n, form.power, tuple(out))


def left_divide(c: CanonicalFactor, form: LeftCanonicalForm) -> LeftCanonicalForm:
    """c^-1 * form, as c^-1 delta^r X = delta^(r-1) tau^(r-1)(complement(c)) X."""
    return left_multiply(complement(c), LeftCanonicalForm(form.n, form.power - 1, form.factors))


def right_multiply(form: LeftCanonicalForm, f: CanonicalFactor) -> LeftCanonicalForm:
    """The normal form of form * f: one pass to the left, (A_i, f) -> (f, B_i)."""
    n = form.n
    if f.n != n:
        raise ValueError(f"factor on {f.n} strands in a B_{n} normal form")
    if f.is_identity:
        return form
    fs = form.factors
    i = len(fs)
    tail: list[CanonicalFactor] = []
    while i:
        a, b = left_weight_pair(fs[i - 1], f)
        if a is fs[i - 1]:  # a weighted pair: nothing to its left changes
            break
        if not b.is_identity:
            tail.append(b)
        f = a
        i -= 1
    tail.reverse()
    if f.is_delta:  # carried to the front: i = 0
        return LeftCanonicalForm(n, form.power + 1, tuple(tail))
    return LeftCanonicalForm(n, form.power, fs[:i] + (f, *tail))


def _runs(w: BraidWord) -> Iterator[SignedFactor]:
    """The letters, last first, gathered into maximal runs of one sign whose product is a factor.

    A positive run g_1 ... g_m is the factor g_1 ... g_m; a negative run
    c_m^-1 ... c_1^-1 is (c_1 ... c_m)^-1, given as the factor c_1 ... c_m.
    """
    h, sign = None, 0
    for letter in reversed(w.letters):
        g = gen_factor(w.n, letter.t, letter.s)
        if letter.sign == sign:
            joined = diamond(g, h) if sign > 0 else diamond(h, g)
            if joined is not None:
                h = joined
                continue
        if sign:
            yield h, sign
        h, sign = g, letter.sign
    if sign:
        yield h, sign


def lcf(w: BraidWord) -> LeftCanonicalForm:
    """The left canonical form of the braid represented by the word."""
    check_strand_count(w.n)
    form = LeftCanonicalForm(w.n, 0, ())
    for h, sign in _runs(w):
        form = left_multiply(h, form) if sign > 0 else left_divide(h, form)
    return form


#: A factor (sign +1) or its inverse (sign -1); the factor itself is always positive.
SignedFactor = tuple[CanonicalFactor, int]


def signed_word(n: int, power: int, entries: Iterable[SignedFactor]) -> BraidWord:
    """The word delta^power E_1 ... E_m: each entry's factor letters, or their inverse."""
    letters = list((delta_word(n) ** power).letters) if power else []
    for f, sign in entries:
        if f.n != n:
            raise ValueError(f"entry on {f.n} strands in a B_{n} word")
        letters += _factor_letters(f, sign)
    return BraidWord(n, tuple(letters))


def lcf_to_word(form: LeftCanonicalForm) -> BraidWord:
    """A word for the normal form: delta^r expanded, then the factor words."""
    return signed_word(form.n, form.power, ((f, 1) for f in form.factors))
