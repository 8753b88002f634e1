"""
Brute-force ground truth for the test suite.  Not part of the public API.

Positive band words of equal length represent the same braid exactly when
they are connected by single applications of the defining relations; the
relations are homogeneous, so the closure of a word under single rewrites
(its "rewrite ball") is finite and membership decides equality in the
positive monoid, hence in the group.  Everything else here (delta-power
normalization of mixed words, canonical element keys, a tiny conjugacy
search) is layered on that closure, deliberately avoiding the normal-form
engine so that the engine can be tested against it.

The relations used:

- triple relations a_{jk} a_{ij} = a_{ij} a_{ik} = a_{ik} a_{jk} for
  i < j < k (the three clockwise readings of a triangle);
- commutation a_{ts} a_{rq} = a_{rq} a_{ts} whenever the chords {s,t} and
  {q,r} share no endpoint and do not interleave.  This covers nested chords
  as well as side-by-side ones: disjoint non-crossing bands commute (the
  two-word factorizations of the disjoint-edge factors force it).

Everything is exponential; length bounds guard the entry points.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterator, Optional

from bandforge.words import BandLetter, BraidWord, permutation

Chord = tuple[int, int]
Word = tuple[Chord, ...]


class OracleBoundError(ValueError):
    """A word exceeded the configured closure length bound."""


DEFAULT_LENGTH_BOUND = 12


def _chords_cross(a: Chord, b: Chord) -> bool:
    (t1, s1), (t2, s2) = a, b
    return (s1 < s2 < t1 < t2) or (s2 < s1 < t2 < t1)


@lru_cache(maxsize=None)
def _pair_rewrites(u: Chord, v: Chord) -> tuple[Word, ...]:
    """All single-relation replacements for the two-letter word u v."""
    su, sv = set(u), set(v)
    shared = su & sv
    if not shared and not _chords_cross(u, v):
        return ((v, u),)
    if len(shared) == 1:
        i, j, k = sorted(su | sv)
        x = ((k, j), (j, i))  # a_{jk} a_{ij}
        y = ((j, i), (k, i))  # a_{ij} a_{ik}
        z = ((k, i), (k, j))  # a_{ik} a_{jk}
        if (u, v) == x:
            return (y, z)
        if (u, v) == y:
            return (x, z)
        if (u, v) == z:
            return (x, y)
    return ()


def relation_neighbors(word: Word) -> Iterator[Word]:
    """Words reachable from this one by a single relation application."""
    for p in range(len(word) - 1):
        for pair in _pair_rewrites(word[p], word[p + 1]):
            yield word[:p] + pair + word[p + 2 :]


def _walk(word: Word, seen: set[Word], max_size: Optional[int] = None) -> Iterator[Word]:
    """The members of the word's rewrite ball, breadth first, each added to seen when yielded."""
    seen.add(word)
    frontier = [word]
    yield word
    while frontier:
        nxt = []
        for w in frontier:
            for nb in relation_neighbors(w):
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
                    if max_size is not None and len(seen) > max_size:
                        raise OracleBoundError(f"rewrite ball exceeded {max_size} words")
                    yield nb
        frontier = nxt


def rewrite_ball(word: Word, max_size: Optional[int] = None) -> frozenset[Word]:
    """The closure of the word under single rewrites (equal-length, finite)."""
    return frozenset(_walk(word, set(), max_size))


class _Ball:
    """A rewrite ball, walked breadth first only as far as the questions about it need.

    Every member met so far maps to its ball in _BALLS, so a later question
    about any of them resumes this walk instead of starting another.
    """

    def __init__(self, word: Word, n: int):
        self.n = n
        self.members: set[Word] = set()
        self._walk = _walk(word, self.members)

    def reaches(self, word: Optional[Word]) -> bool:
        """Whether word is a member, walking on until it turns up or the ball is complete."""
        if word in self.members:
            return True
        for member in self._walk:
            _BALLS[(self.n, member)] = self
            if member == word:
                return True
        return False

    @cached_property
    def label(self) -> Word:
        """The least member; a canonical class label."""
        self.reaches(None)
        return min(self.members)


_BALLS: dict[tuple[int, Word], _Ball] = {}


def _ball_key(word: Word, n: int) -> Word:
    """Least member of the word's rewrite ball; a canonical class label."""
    return (_BALLS.get((n, word)) or _Ball(word, n)).label


def _same_ball(a: Word, b: Word, n: int) -> bool:
    """Whether a and b have the same rewrite ball.

    Walks out from one word only until it meets the other; the answer is
    False only once that walk has covered the whole ball.  A ball already
    (partly) walked is reused.
    """
    if (n, a) not in _BALLS and (n, b) in _BALLS:
        a, b = b, a
    return (_BALLS.get((n, a)) or _Ball(a, n)).reaches(b)


def _as_chords(w: BraidWord) -> Word:
    if not w.is_positive():
        raise ValueError("positive word expected")
    return tuple(l.chord for l in w.letters)


def positive_equal(w1: BraidWord, w2: BraidWord, bound: int = DEFAULT_LENGTH_BOUND) -> bool:
    """Whether two positive words represent the same braid."""
    if w1.n != w2.n:
        raise ValueError(f"mismatched strand counts {w1.n} and {w2.n}")
    a, b = _as_chords(w1), _as_chords(w2)
    if len(a) != len(b):
        return False
    if len(a) > bound:
        raise OracleBoundError(f"length {len(a)} exceeds oracle bound {bound}")
    if a == b:
        return True
    # Each letter maps to a transposition and every relation holds in S_n,
    # so words with different permutations cannot share a rewrite ball.
    if permutation(w1) != permutation(w2):
        return False
    return _same_ball(a, b, w1.n)


def _delta_chords(n: int) -> Word:
    return tuple((k, k - 1) for k in range(n, 1, -1))


@lru_cache(maxsize=None)
def delta_factorizations(n: int) -> frozenset[Word]:
    """All positive (n-1)-letter words equal to delta."""
    return rewrite_ball(_delta_chords(n))


@lru_cache(maxsize=None)
def _letter_delta_tail(n: int, chord: Chord) -> Word:
    """The positive word V with chord * V = delta, read off the delta ball."""
    for fact in sorted(delta_factorizations(n)):
        if fact[0] == chord:
            return fact[1:]
    raise ValueError(f"no delta factorization starts with {chord} in B_{n}")


def _shift_chord(c: Chord, k: int, n: int) -> Chord:
    t, s = (c[0] + k - 1) % n + 1, (c[1] + k - 1) % n + 1
    return (max(t, s), min(t, s))


def normalize_via_delta(w: BraidWord) -> tuple[int, Word]:
    """Rewrite the word as delta^r P with P positive and r = -(#negative letters).

    Each negative letter c^-1 becomes V delta^-1 where c V = delta; every
    delta^-1 then commutes to the front, rotating whatever it passes.
    """
    n = w.n
    negs = 0
    rev: list[Chord] = []
    for letter in reversed(w.letters):
        if letter.sign > 0:
            rev.append(_shift_chord(letter.chord, -negs, n))
        else:
            negs += 1
            rev.extend(
                _shift_chord(c, -negs, n) for c in reversed(_letter_delta_tail(n, letter.chord))
            )
    return -negs, tuple(reversed(rev))


def oracle_equal(w1: BraidWord, w2: BraidWord, bound: int = DEFAULT_LENGTH_BOUND) -> bool:
    """Equality of arbitrary words, by delta-normalizing then comparing."""
    if w1.n != w2.n:
        raise ValueError(f"mismatched strand counts {w1.n} and {w2.n}")
    n = w1.n
    (r1, p1), (r2, p2) = normalize_via_delta(w1), normalize_via_delta(w2)
    # Pad the deeper power with explicit deltas: delta^r1 P1 = delta^r2 P2
    # iff delta^(r1-r2) P1 = P2 (r1 >= r2 wlog).
    if r1 < r2:
        (r1, p1), (r2, p2) = (r2, p2), (r1, p1)
    padded = _delta_chords(n) * (r1 - r2) + p1
    if len(padded) != len(p2):
        return False
    if max(len(padded), len(p2)) > bound:
        raise OracleBoundError(f"padded length {len(padded)} exceeds oracle bound {bound}")
    return padded == p2 or _same_ball(padded, p2, n)


def element_key(w: BraidWord, bound: int = DEFAULT_LENGTH_BOUND) -> tuple[int, Word]:
    """A canonical (delta power, positive part) label for the braid element.

    Strips every delta that left-divides the positive part, so words with
    free cancellation get the same key; the resulting power is the largest r
    with delta^r dividing the element.
    """
    n = w.n
    r, p = normalize_via_delta(w)
    if len(p) > bound:
        raise OracleBoundError(f"length {len(p)} exceeds oracle bound {bound}")
    changed = True
    while changed and len(p) >= n - 1 and n >= 2:
        changed = False
        for member in rewrite_ball(p):
            if member[: n - 1] in delta_factorizations(n):
                p = member[n - 1 :]
                r += 1
                changed = True
                break
    return r, _ball_key(p, n) if p else ()


def conjugate_ball_search(
    w1: BraidWord, w2: BraidWord, max_len: int = 3
) -> Optional[BraidWord]:
    """Search all conjugators of length <= max_len; None is not a disproof."""
    if w1.n != w2.n:
        raise ValueError(f"mismatched strand counts {w1.n} and {w2.n}")
    from bandforge.normal_form import lcf

    n = w1.n
    target = lcf(w2)
    alphabet = [
        BandLetter(t, s, sign) for t in range(2, n + 1) for s in range(1, t) for sign in (1, -1)
    ]
    frontier: list[BraidWord] = [BraidWord(n)]
    for _ in range(max_len + 1):
        nxt = []
        for v in frontier:
            if lcf(w1.conjugated_by(v)) == target:
                return v
            nxt.extend(BraidWord(n, v.letters + (l,)) for l in alphabet)
        frontier = nxt
    return None


def clear_caches() -> None:
    _BALLS.clear()
    delta_factorizations.cache_clear()
    _letter_delta_tail.cache_clear()
