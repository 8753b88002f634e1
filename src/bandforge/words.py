"""
Braid words over band generators.

A band generator a_{t,s} (with 1 <= s < t <= n) is the braid swapping strands
s and t in front of all other strands.  Words are plain letter sequences: no
normalization happens at this level beyond ordering each letter's indices as
t > s.  The group-theoretic content (relations, normal forms) lives in the
factor and normal-form modules.

Conventions fixed here and used everywhere else:

- A letter is rendered "a(t,s)" with t > s; an inverse letter is "A(t,s)".
  Rendering is independent of the index order given at construction.
- The permutation of a word applies letters left to right: the first letter
  of the word acts first.  Composition order is a convention, not a theorem;
  only invariance under the defining relations is mathematical content, so
  the order is fixed here once and documented.
- Words carry their strand count n.  Mixing words with different n is an
  error, never an implicit embedding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple


class ParseError(ValueError):
    """Raised for malformed word text; message carries the token position."""


class BandLetter(NamedTuple):
    """A signed band generator a_{t,s}^{sign} with t > s and sign in {+1, -1}."""

    t: int
    s: int
    sign: int

    def inverse(self) -> "BandLetter":
        return BandLetter(self.t, self.s, -self.sign)

    @property
    def chord(self) -> tuple[int, int]:
        """The unsigned generator (t, s)."""
        return (self.t, self.s)

    def render(self) -> str:
        return f"{'a' if self.sign > 0 else 'A'}({self.t},{self.s})"


@dataclass(frozen=True)
class BraidWord:
    """A strand count n plus a finite sequence of band letters.

    The empty sequence is the identity braid.  Multiplication is free
    concatenation; equality of the underlying braid elements is decided by
    the normal form (or, in tests, by the rewriting oracle).
    """

    n: int
    letters: tuple[BandLetter, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"strand count must be >= 1, got {self.n}")
        for letter in self.letters:
            if not 1 <= letter.s < letter.t <= self.n:
                raise ValueError(f"letter {letter.render()} out of range for n={self.n}")
            if letter.sign not in (1, -1):
                raise ValueError(f"letter {tuple(letter)} has sign {letter.sign}, not +1 or -1")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"cannot concatenate words with n={self.n} and n={other.n}")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.n, tuple(l.inverse() for l in reversed(self.letters)))

    def __pow__(self, exp: int) -> "BraidWord":
        base = self if exp >= 0 else self.inverse()
        return BraidWord(self.n, base.letters * abs(exp))

    def conjugated_by(self, v: "BraidWord") -> "BraidWord":
        """The word v^-1 * self * v."""
        return v.inverse() * self * v

    def freely_reduced(self) -> "BraidWord":
        """The word with every adjacent letter and its inverse removed, repeatedly."""
        out: list[BandLetter] = []
        for letter in self.letters:
            if out and out[-1] == letter.inverse():
                out.pop()
            else:
                out.append(letter)
        return BraidWord(self.n, tuple(out))

    def is_positive(self) -> bool:
        return all(l.sign > 0 for l in self.letters)

    def render(self) -> str:
        return " ".join(l.render() for l in self.letters)

    def __str__(self) -> str:
        return self.render() or "e"


def delta_word(n: int) -> BraidWord:
    """The fundamental element as the descending word a_{n,n-1} ... a_{2,1}."""
    return BraidWord(n, tuple(BandLetter(k, k - 1, 1) for k in range(n, 1, -1)))


# Token grammar.  Whitespace-separated tokens; lowercase positive, uppercase
# inverse; "d"/"D" expand to the descending word for delta / its inverse.
# Digits are ASCII only: int() would also read other Unicode digits.
_BAND_RE = re.compile(r"([aAbB])\(([0-9]+),([0-9]+)\)(?:\^(-?[0-9]+))?")
_ARTIN_RE = re.compile(r"([sS])([0-9]+)(?:\^(-?[0-9]+))?")
_DELTA_RE = re.compile(r"([dD])(?:\^(-?[0-9]+))?")
_ALIAS_RE = re.compile(r"([aAbB])([0-9])(?:\^(-?[0-9]+))?")

_SIGN = {"a": 1, "b": 1, "s": 1, "A": -1, "B": -1, "S": -1}

# Kang-Ko-Lee style shorthand for the six B_4 generators.
_B4_ALIASES = {
    ("a", 1): (2, 1),
    ("a", 2): (3, 2),
    ("a", 3): (4, 3),
    ("a", 4): (4, 1),
    ("b", 1): (3, 1),
    ("b", 2): (4, 2),
}


#: Most letters a parsed word may expand to; powers are counted before they
#: are expanded, so an oversized word fails at once instead of filling memory.
MAX_WORD_LETTERS = 100_000

#: Most strands a factor can have: it holds two byte arrays of n + 1 entries,
#: and a byte holds 0..255.
MAX_STRANDS = 255


def check_strand_count(n: int) -> None:
    """Raise ValueError unless 1 <= n <= MAX_STRANDS."""
    if not 1 <= n <= MAX_STRANDS:
        raise ValueError(f"strand count must be in 1..{MAX_STRANDS}, got {n}")


def _too_long(pos: int, token: str) -> ParseError:
    return ParseError(
        f"token {pos} {token!r}: the word would have more than {MAX_WORD_LETTERS} letters"
    )


def _token_letters(token: str, pos: int, n: int) -> tuple[BandLetter, ...]:
    """The letters one token expands to, power applied; ParseError if it is malformed.

    The letter count is checked against MAX_WORD_LETTERS before expanding.
    """
    if m := _BAND_RE.fullmatch(token):
        kind, i, j, power = m.groups()
        i, j = int(i), int(j)
        if i == j or not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(
                f"token {pos} {token!r}: strand indices must be distinct and in 1..{n}"
            )
        unit = (BandLetter(i, j, _SIGN[kind]) if i > j else BandLetter(j, i, _SIGN[kind]),)
    elif m := _ARTIN_RE.fullmatch(token):
        kind, i, power = m.groups()
        i = int(i)
        if not 1 <= i <= n - 1:
            raise ParseError(f"token {pos} {token!r}: Artin index must be in 1..{n - 1}")
        unit = (BandLetter(i + 1, i, _SIGN[kind]),)
    elif m := _DELTA_RE.fullmatch(token):
        kind, power = m.groups()
        unit = delta_word(n).letters if kind == "d" else delta_word(n).inverse().letters
    elif (m := _ALIAS_RE.fullmatch(token)) and n == 4:
        kind, idx, power = m.groups()
        if (chord := _B4_ALIASES.get((kind.lower(), int(idx)))) is None:
            raise ParseError(f"token {pos} {token!r}: unknown B4 generator alias")
        unit = (BandLetter(*chord, _SIGN[kind]),)
    else:
        raise ParseError(f"token {pos} {token!r}: not a valid word token")
    if power is None:
        return unit
    power = int(power)
    if len(unit) * abs(power) > MAX_WORD_LETTERS:
        raise _too_long(pos, token)
    if power < 0:
        unit = tuple(l.inverse() for l in reversed(unit))
    return unit * abs(power)


def parse_word(text: str, n: int) -> BraidWord:
    """Parse word text into a BraidWord on n strands.

    Grammar (whitespace separated): a(i,j) band letters, s<i> Artin letters,
    d for delta, each with an optional ^k power; uppercase means inverse.
    Indices and powers are ASCII digits.  The B_4 aliases a1..a4, b1, b2 are
    accepted when n == 4.  A word that expands to more than MAX_WORD_LETTERS
    letters is rejected.  Each distinct token text is matched and expanded
    once per call, and its letters are reused wherever it repeats.
    """
    letters: list[BandLetter] = []
    expansions: dict[str, tuple[BandLetter, ...]] = {}
    room = MAX_WORD_LETTERS
    for pos, token in enumerate(text.split(), start=1):
        if (expansion := expansions.get(token)) is None:
            expansion = expansions[token] = _token_letters(token, pos, n)
        if (room := room - len(expansion)) < 0:
            raise _too_long(pos, token)
        letters += expansion
    return BraidWord(n, tuple(letters))


def artin_to_band(artin_word: Iterable[int], n: int) -> BraidWord:
    """Convert a signed Artin word (+-i for sigma_i^{+-1}) to band letters.

    Adjacent-transposition bands coincide with Artin generators, so
    sigma_i^{+-1} maps to a_{i+1,i}^{+-1}.
    """
    letters = []
    for k in artin_word:
        i = abs(k)
        if not 1 <= i <= n - 1:
            raise ValueError(f"Artin index {i} out of range 1..{n - 1}")
        letters.append(BandLetter(i + 1, i, 1 if k > 0 else -1))
    return BraidWord(n, tuple(letters))


def permutation(w: BraidWord) -> tuple[int, ...]:
    """Image of the word in the symmetric group; entry k-1 is the image of strand k.

    Letters apply left to right (the first letter acts first); signs are
    irrelevant since each letter maps to the transposition (s t).
    """
    img = list(range(1, w.n + 1))
    for letter in w.letters:
        for k in range(w.n):
            if img[k] == letter.s:
                img[k] = letter.t
            elif img[k] == letter.t:
                img[k] = letter.s
    return tuple(img)


def writhe(w: BraidWord) -> int:
    """Exponent sum: positive letters minus negative letters."""
    return sum(l.sign for l in w.letters)

