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
first pair that does not change.  The two passes are step functions on a
mutable list (or deque) of factors, changed in place, so a pass that stops
after i pairs costs O(i) whatever the length of the form:

- g * delta^r A_1 ... A_k = delta^r tau^r(g) A_1 ... A_k; _left_pass runs
  from the front, (g, A_i) -> (D_i, g'), and each D_i is final.  A delta
  can only form at the front, where it joins the power.
- delta^r A_1 ... A_k * f: _right_pass runs from the back,
  (A_i, f) -> (f', B_i).  Once f' is delta the pass stops: as
  X delta = delta tau(X), the delta joins the power and every factor in
  front of it turns into its tau, which the caller applies now
  (right_multiply, the closure's trial) or in a frame (the summit search
  in conjugacy).

lcf() reads the word from its last letter to its first and multiplies it in
on the left by runs: a positive letter g joins the pending factor h while
g*h is a factor (h <= complement(g)), and a negative letter c joins a
pending negative run h while h*c is one (c <= complement(h)), since
c^-1 h^-1 = (h c)^-1.  Each run is one left pass on a deque, of tau^r(h),
or of tau^(r-1)(complement(h)) with the power lowered by one for a negative
run, as h^-1 = delta^-1 tau^-1(complement(h)); the form is frozen once, at
the end.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Iterable, Iterator, MutableSequence, NamedTuple, Optional

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


def _left_pass(fs: MutableSequence[CanonicalFactor], g: CanonicalFactor) -> bool:
    """Multiply the factors fs of a normal form by g on the left, in place.

    The pass runs from the front, (g, A_i) -> (D_i, g), and stops at the
    first pair that does not change, so a pass that stops after i pairs
    reads and writes fs[:i + 1] only, and on a deque costs O(i).  g <= delta, so at most one delta
    forms, at the front: it is removed and True returned, and the caller
    raises the power by one.
    """
    i, k = 0, len(fs)
    while i < k and not g.is_identity:
        d, b = left_weight_pair(g, fs[i])
        if d is g:  # a weighted pair: nothing to its right changes
            break
        fs[i] = d
        g = b
        i += 1
    if not g.is_identity:
        fs.insert(i, g)
    if fs and fs[0].is_delta:
        del fs[0]
        return True
    return False


def _right_pass(fs: MutableSequence[CanonicalFactor], f: CanonicalFactor) -> Optional[int]:
    """Multiply the factors fs of a normal form by f on the right, in place.

    The pass runs from the back, (A_i, f) -> (f, B_i), and stops at the
    first pair that does not change, or where a delta forms.  Then
    A_1 ... A_j delta B = delta tau(A_1) ... tau(A_j) B, as X delta =
    delta tau(X): the delta is not stored and j is returned, and the caller
    raises the power and rotates fs[:j], directly or through a frame (see
    conjugacy.sss_representative).  Otherwise the result is None.
    """
    i = len(fs)
    while i and not f.is_delta:
        a = fs[i - 1]
        d, b = left_weight_pair(a, f)
        if d is a:  # a weighted pair: nothing to its left changes
            break
        i -= 1
        if b.is_identity:
            del fs[i]
        else:
            fs[i] = b
        f = d
    if f.is_delta:
        return i
    if not f.is_identity:
        fs.insert(i, f)
    return None


def left_multiply(g: CanonicalFactor, form: LeftCanonicalForm) -> LeftCanonicalForm:
    """The normal form of g * form = delta^r tau^r(g) A_1 ... A_k: one left pass."""
    if g.n != form.n:
        raise ValueError(f"factor on {g.n} strands in a B_{form.n} normal form")
    fs = list(form.factors)
    power = form.power + _left_pass(fs, tau(g, form.power))
    return LeftCanonicalForm(form.n, power, tuple(fs))


def left_divide(c: CanonicalFactor, form: LeftCanonicalForm) -> LeftCanonicalForm:
    """c^-1 * form, as c^-1 delta^r X = delta^(r-1) tau^(r-1)(complement(c)) X."""
    return left_multiply(complement(c), LeftCanonicalForm(form.n, form.power - 1, form.factors))


def right_multiply(form: LeftCanonicalForm, f: CanonicalFactor) -> LeftCanonicalForm:
    """The normal form of form * f: one right pass, and the factors in front of a delta rotated."""
    n = form.n
    if f.n != n:
        raise ValueError(f"factor on {f.n} strands in a B_{n} normal form")
    fs = list(form.factors)
    j = _right_pass(fs, f)
    if j is None:
        return LeftCanonicalForm(n, form.power, tuple(fs))
    fs[:j] = [tau(a) for a in fs[:j]]
    return LeftCanonicalForm(n, form.power + 1, tuple(fs))


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
    """The left canonical form of the braid represented by the word.

    The form grows at the front, in a deque, so a left pass that stops
    after i pairs costs O(i) whatever the length of the form.
    """
    check_strand_count(w.n)
    fs: deque[CanonicalFactor] = deque()
    power = 0
    for h, sign in _runs(w):
        if sign < 0:  # h^-1 delta^r = delta^(r-1) tau^(r-1)(complement(h))
            h = complement(h)
            power -= 1
        power += _left_pass(fs, tau(h, power))
    return LeftCanonicalForm(w.n, power, tuple(fs))


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
