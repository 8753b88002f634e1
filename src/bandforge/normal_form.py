"""
Left canonical form for band-generator braid words.

Every braid has a unique expression delta^r A_1 ... A_k with each A_i a
canonical factor other than e or delta and every adjacent pair maximally
left weighted (no nontrivial prefix of A_{i+1} can move into A_i, i.e.
complement(A_i) ^ A_{i+1} = e).  The exponent r is inf, r + k is sup, and k
is the canonical length.

The computation is the classical one:

1. each negative letter c^-1 becomes complement(c) * delta^-1, and the
   delta^-1 commutes to the front, rotating everything it passes by tau^-1;
2. identity factors are dropped, delta factors are absorbed into the power
   (rotating the factors to their left by tau);
3. adjacent pairs (A, B) are left-weighted until every pair is weighted:
   with C = complement(A) ^ B, the pair becomes (A*C, C^-1 * B).

Step 3 runs a worklist to a fixed point; by uniqueness of the normal form
the processing order cannot matter, which the test suite also checks by
re-running with randomized orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .factors import (
    CanonicalFactor,
    _left_quotient,
    complement,
    diamond,
    factor_to_word,
    gen_factor,
    meet,
    tau,
)
from .words import BraidWord, delta_word


@dataclass(frozen=True)
class LeftCanonicalForm:
    """delta^power A_1 ... A_k with pairwise maximal left weighting."""

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


@lru_cache(maxsize=None)
def left_weight_pair(
    a: CanonicalFactor, b: CanonicalFactor
) -> tuple[CanonicalFactor, CanonicalFactor]:
    """The left-weighted factorization A'B' of the product AB.

    C = complement(A) ^ B is the largest prefix of B that A can absorb, so
    the pair becomes (A*C, C^-1 * B); C = e means AB is already weighted.
    """
    if a.n != b.n:
        raise ValueError(f"mismatched strand counts {a.n} and {b.n}")
    c = meet(complement(a), b)
    if c.is_identity:
        return a, b
    return diamond(a, c), _left_quotient(c, b)


def _normalize(n: int, power: int, factors: Iterable[CanonicalFactor]) -> LeftCanonicalForm:
    """Fixed-point pass: drop e, absorb delta into power, left-weight pairs."""
    fs: list[CanonicalFactor] = []
    r = power
    for f in factors:
        if f.n != n:
            raise ValueError(f"factor on {f.n} strands in a B_{n} normal form")
        if f.is_identity:
            continue
        if f.is_delta:
            r += 1
            fs = [tau(g) for g in fs]
            continue
        fs.append(f)

    i = 0
    steps = 0
    limit = 200 * (len(fs) + 2) ** 2
    while i < len(fs) - 1:
        steps += 1
        if steps > limit:
            raise RuntimeError("left-weighting failed to stabilize (bug)")
        a, b = left_weight_pair(fs[i], fs[i + 1])
        if a == fs[i]:
            i += 1
            continue
        if b.is_identity:
            fs[i : i + 2] = [a]
        else:
            fs[i], fs[i + 1] = a, b
        if a.is_delta:
            r += 1
            for j in range(i):
                fs[j] = tau(fs[j])
            del fs[i]
        i = max(i - 1, 0)
    return LeftCanonicalForm(n, r, tuple(fs))


def lcf(w: BraidWord) -> LeftCanonicalForm:
    """The left canonical form of the braid represented by the word."""
    n = w.n
    negs = 0
    rev: list[CanonicalFactor] = []
    # Scan right to left; a factor is rotated once by tau^-1 for every
    # delta^-1 born at or to the right of it (X delta^-1 = delta^-1 tau^-1(X)).
    for letter in reversed(w.letters):
        g = gen_factor(n, letter.t, letter.s)
        if letter.sign > 0:
            rev.append(tau(g, -negs))
        else:
            negs += 1
            rev.append(tau(complement(g), -negs))
    return _normalize(n, -negs, reversed(rev))


def lcf_of_factors(
    n: int, power: int, factors: Sequence[CanonicalFactor]
) -> LeftCanonicalForm:
    """Normalize an arbitrary delta^power A_1 ... A_m factor sequence."""
    return _normalize(n, power, factors)


def append_letter(form: LeftCanonicalForm, t: int, s: int, sign: int) -> LeftCanonicalForm:
    """The normal form of form * a_{t,s}^sign; used for incremental sweeps."""
    n = form.n
    g = gen_factor(n, t, s)
    if sign > 0:
        return _normalize(n, form.power, form.factors + (g,))
    shifted = tuple(tau(f, -1) for f in form.factors) + (tau(complement(g), -1),)
    return _normalize(n, form.power - 1, shifted)


def lcf_to_word(form: LeftCanonicalForm) -> BraidWord:
    """A word for the normal form: delta^r expanded, then the factor words."""
    letters = list((delta_word(form.n) ** form.power).letters)
    for f in form.factors:
        letters += factor_to_word(f).letters
    return BraidWord(form.n, tuple(letters))


def inf_sup_len(form: LeftCanonicalForm) -> tuple[int, int, int]:
    """(inf, sup, canonical length) = (r, r + k, k)."""
    return form.inf, form.sup, form.canonical_length
