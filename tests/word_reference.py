"""The token-by-token parser and the block-sorting factor word, kept as references.

parse_word matches each distinct token text once per call and reuses its
letters; parse_word_by_tokens is the parser it replaced, which matches,
range-checks and expands every token anew.  The one intended difference is
kept out of the comparison: both read ASCII digits only (the replaced
parser's \\d also matched other Unicode digits, which int() reads).

factor_to_word reads a factor's letters off its permutation;
factor_to_word_by_blocks sorts the blocks by their maximum, as it did
before.  Both must give the same words, letters and errors alike.
"""

from __future__ import annotations

import re

from bandforge.factors import CanonicalFactor
from bandforge.words import (
    MAX_WORD_LETTERS,
    BandLetter,
    BraidWord,
    ParseError,
    delta_word,
)

_BAND_RE = re.compile(r"^([aAbB])\(([0-9]+),([0-9]+)\)(?:\^(-?[0-9]+))?$")
_ARTIN_RE = re.compile(r"^([sS])([0-9]+)(?:\^(-?[0-9]+))?$")
_DELTA_RE = re.compile(r"^([dD])(?:\^(-?[0-9]+))?$")
_ALIAS_RE = re.compile(r"^([aAbB])([0-9])(?:\^(-?[0-9]+))?$")

_B4_ALIASES = {
    ("a", 1): (2, 1),
    ("a", 2): (3, 2),
    ("a", 3): (4, 3),
    ("a", 4): (4, 1),
    ("b", 1): (3, 1),
    ("b", 2): (4, 2),
}


def parse_word_by_tokens(text: str, n: int) -> BraidWord:
    """Word text to a BraidWord, every token matched and expanded where it stands."""
    letters: list[BandLetter] = []
    for pos, token in enumerate(text.split(), start=1):
        if m := _BAND_RE.match(token):
            kind, i, j = m.group(1), int(m.group(2)), int(m.group(3))
            if i == j or not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(
                    f"token {pos} {token!r}: strand indices must be distinct and in 1..{n}"
                )
            sign = 1 if kind.islower() else -1
            power = 1 if m.group(4) is None else int(m.group(4))
            unit = (BandLetter(max(i, j), min(i, j), sign),)
        elif m := _ARTIN_RE.match(token):
            kind, i = m.group(1), int(m.group(2))
            if not 1 <= i <= n - 1:
                raise ParseError(f"token {pos} {token!r}: Artin index must be in 1..{n - 1}")
            sign = 1 if kind.islower() else -1
            power = 1 if m.group(3) is None else int(m.group(3))
            unit = (BandLetter(i + 1, i, sign),)
        elif m := _DELTA_RE.match(token):
            sign = 1 if m.group(1).islower() else -1
            power = sign * (1 if m.group(2) is None else int(m.group(2)))
            unit = delta_word(n).letters
        elif (m := _ALIAS_RE.match(token)) and n == 4:
            kind, idx = m.group(1), int(m.group(2))
            key = (kind.lower(), idx)
            if key not in _B4_ALIASES:
                raise ParseError(f"token {pos} {token!r}: unknown B4 generator alias")
            t, s = _B4_ALIASES[key]
            sign = 1 if kind.islower() else -1
            power = 1 if m.group(3) is None else int(m.group(3))
            unit = (BandLetter(t, s, sign),)
        else:
            raise ParseError(f"token {pos} {token!r}: not a valid word token")
        if len(letters) + len(unit) * abs(power) > MAX_WORD_LETTERS:
            raise ParseError(
                f"token {pos} {token!r}: the word would have more than "
                f"{MAX_WORD_LETTERS} letters"
            )
        if power < 0:
            unit = tuple(l.inverse() for l in reversed(unit))
        letters += unit * abs(power)
    return BraidWord(n, tuple(letters))


def factor_to_word_by_blocks(a: CanonicalFactor) -> BraidWord:
    """The factor's word, blocks sorted by descending maximum, each a_{tk,tk-1} ... a_{t2,t1}."""
    letters = []
    for block in sorted(a.blocks, key=max, reverse=True):
        for hi, lo in zip(block[::-1], block[-2::-1]):
            letters.append(BandLetter(hi, lo, 1))
    return BraidWord(a.n, tuple(letters))
