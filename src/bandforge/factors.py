"""
Canonical factors of the band-generator (dual Garside) structure on B_n,
represented as non-crossing partitions of {1..n}.

A canonical factor is a braid W with e <= W <= delta; these are in bijection
with non-crossing partitions, a block of size k corresponding to a k-gon in
the punctured-disk diagram and contributing a positive word of length k-1.
The identity e is the all-singletons partition, the fundamental element
delta the one-block partition.

The prefix order is refinement, so the greatest common prefix A ^ B (meet)
is the common refinement.  As a permutation a factor sends each k to the
previous element of its block, cyclically; products and left quotients of
factors, when they are factors again, are products of these permutations,
their cycles being the blocks.

Everything here is a pure function of immutable values.  Factors are
interned per (n, blocks); complements and rotations are cached in
module-level memo tables.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, cos, pi, sin
from typing import Iterable, Iterator, Optional, Sequence

from .words import BandLetter, BraidWord

#: Generator chord (t, s) with t > s; the positive band a_{t,s}.
Chord = tuple[int, int]

#: Largest n for which enumerate_factors will tabulate all Catalan(n) factors.
ENUMERATION_BOUND = 8


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _blocks_cross(x: Sequence[int], y: Sequence[int]) -> bool:
    """Whether sorted disjoint blocks x, y interleave (a<b<c<d alternating)."""
    merged = sorted([(v, 0) for v in x] + [(v, 1) for v in y])
    switches = sum(1 for a, b in zip(merged, merged[1:]) if a[1] != b[1])
    return switches >= 3


@dataclass(frozen=True)
class CanonicalFactor:
    """A non-crossing partition of {1..n}; blocks sorted, singletons included.

    Construct through :func:`factor` (or the e/delta/generator helpers), which
    normalizes and validates; two factors are equal iff their block sets are.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # Hashed once: factors key every memo table, set and normal form.
        object.__setattr__(self, "_hash", hash((self.n, self.blocks)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.blocks == other.blocks

    @property
    def word_length(self) -> int:
        """Length of any positive band word for this factor: n - #blocks."""
        return self.n - len(self.blocks)

    @property
    def is_identity(self) -> bool:
        return len(self.blocks) == self.n

    @property
    def is_delta(self) -> bool:
        return len(self.blocks) == 1 and self.n >= 2

    @cached_property
    def block_of(self) -> dict[int, tuple[int, ...]]:
        return {x: b for b in self.blocks for x in b}

    def non_singleton_blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(b for b in self.blocks if len(b) > 1)

    def text(self) -> str:
        """Partition text form, singleton blocks omitted; "e" for the identity."""
        blocks = self.non_singleton_blocks()
        if not blocks:
            return "e"
        return "".join("{" + ",".join(map(str, b)) + "}" for b in blocks)

    def json_blocks(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    def __str__(self) -> str:
        return self.text()


_INTERN: dict[tuple[int, tuple[tuple[int, ...], ...]], CanonicalFactor] = {}


def factor(n: int, blocks: Iterable[Iterable[int]]) -> CanonicalFactor:
    """Build the canonical factor with the given blocks (singletons optional).

    Raises ValueError if the blocks do not form a non-crossing partition of a
    subset of {1..n} (missing elements become singletons).
    """
    if n < 1:
        raise ValueError(f"strand count must be >= 1, got {n}")
    seen: set[int] = set()
    norm: list[tuple[int, ...]] = []
    for raw in blocks:
        block = tuple(sorted(set(raw)))
        if not block:
            continue
        if not (1 <= block[0] and block[-1] <= n):
            raise ValueError(f"block {block} out of range 1..{n}")
        if seen & set(block):
            raise ValueError(f"blocks are not disjoint at {sorted(seen & set(block))}")
        seen |= set(block)
        norm.append(block)
    norm += [(x,) for x in range(1, n + 1) if x not in seen]
    norm.sort(key=lambda b: b[0])
    key = (n, tuple(norm))
    if key in _INTERN:
        return _INTERN[key]
    big = [b for b in norm if len(b) > 1]
    for i, x in enumerate(big):
        for y in big[i + 1 :]:
            if _blocks_cross(x, y):
                raise ValueError(f"blocks {x} and {y} cross")
    return _INTERN.setdefault(key, CanonicalFactor(*key))


def identity_factor(n: int) -> CanonicalFactor:
    return factor(n, ())


def delta_factor(n: int) -> CanonicalFactor:
    return factor(n, (tuple(range(1, n + 1)),))


def gen_factor(n: int, t: int, s: int) -> CanonicalFactor:
    """The 2-gon of the band generator a_{t,s}."""
    if not 1 <= min(s, t) < max(s, t) <= n:
        raise ValueError(f"generator ({t},{s}) out of range for n={n}")
    return factor(n, ((t, s),))


def all_chords(n: int) -> tuple[Chord, ...]:
    """All n(n-1)/2 positive generators, sorted."""
    return tuple((t, s) for t in range(2, n + 1) for s in range(1, t))


@lru_cache(maxsize=None)
def enumerate_factors(n: int, bound: int = ENUMERATION_BOUND) -> tuple[CanonicalFactor, ...]:
    """All canonical factors of B_n, Catalan(n) of them, in a fixed order.

    Tabulation is limited to n <= bound (default 8); other operations in this
    module work for any n.
    """
    if not 1 <= n <= bound:
        raise ValueError(f"enumeration supports 1 <= n <= {bound}, got {n}")

    def nc_partitions(seq: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if not seq:
            yield ()
            return
        first, rest = seq[0], seq[1:]

        def grow(block: tuple[int, ...], remaining: tuple[int, ...]):
            for p in nc_partitions(remaining):
                yield (block,) + p
            for i in range(len(remaining)):
                for gap in nc_partitions(remaining[:i]):
                    for tail in grow(block + (remaining[i],), remaining[i + 1 :]):
                        yield gap + tail

        yield from grow((first,), rest)

    factors = sorted(
        (factor(n, blocks) for blocks in nc_partitions(tuple(range(1, n + 1)))),
        key=lambda f: (f.word_length, f.blocks),
    )
    assert len(factors) == catalan(n)
    return tuple(factors)


def factor_to_word(a: CanonicalFactor) -> BraidWord:
    """A positive word for the factor, length n - #blocks.

    Each block {t1<...<tk} contributes a_{tk,tk-1} ... a_{t2,t1}; blocks are
    emitted in descending order of their maximum.  Any emission order gives
    the same braid since distinct blocks commute.
    """
    letters = []
    for block in sorted(a.blocks, key=max, reverse=True):
        for hi, lo in zip(block[::-1], block[-2::-1]):
            letters.append(BandLetter(hi, lo, 1))
    return BraidWord(a.n, tuple(letters))


@lru_cache(maxsize=None)
def complement(a: CanonicalFactor) -> CanonicalFactor:
    """The unique factor B with A*B = delta (a Kreweras-type complement).

    Construction: interleave a ghost point k-hat immediately clockwise before
    each puncture k; the complement blocks are the maximal ghost groups not
    separated by any block of A.  Ghosts at circular position 2(k-1), plain
    points at 2k-1, counterclockwise.
    """
    n = a.n
    big = [tuple(2 * x - 1 for x in b) for b in a.blocks if len(b) > 1]

    def signature(k: int) -> tuple[int, ...]:
        q = 2 * (k - 1)
        # Gap 0 (before the block's span) and the gap after it are the same
        # circular region, hence the modulus.
        return tuple(bisect_left(p, q) % len(p) for p in big)

    groups: dict[tuple[int, ...], list[int]] = {}
    for k in range(1, n + 1):
        groups.setdefault(signature(k), []).append(k)
    return factor(n, tuple(tuple(g) for g in groups.values()))


def precedes(a: CanonicalFactor, b: CanonicalFactor) -> bool:
    """The prefix order A < B: every block of A lies inside a block of B."""
    if a.n != b.n:
        raise ValueError(f"mismatched strand counts {a.n} and {b.n}")
    lookup = b.block_of
    return all(all(lookup[x] is lookup[block[0]] for x in block) for block in a.blocks)


def meet(a: CanonicalFactor, b: CanonicalFactor) -> CanonicalFactor:
    """The greatest common prefix A ^ B: blocks are the non-empty intersections of blocks."""
    if a.n != b.n:
        raise ValueError(f"mismatched strand counts {a.n} and {b.n}")
    la, lb = a.block_of, b.block_of
    groups: dict[tuple[int, int], list[int]] = {}
    for k in range(1, a.n + 1):
        groups.setdefault((la[k][0], lb[k][0]), []).append(k)
    return factor(a.n, groups.values())


@lru_cache(maxsize=None)
def _tau_shift(a: CanonicalFactor, shift: int) -> CanonicalFactor:
    return factor(a.n, tuple(tuple((x + shift - 1) % a.n + 1 for x in b) for b in a.blocks))


def tau(a: CanonicalFactor, k: int = 1) -> CanonicalFactor:
    """Conjugation by delta^k: rotates every label by +k (mod n, into 1..n)."""
    shift = k % a.n
    return a if shift == 0 else _tau_shift(a, shift)


def tau_word(w: BraidWord, k: int = 1) -> BraidWord:
    """The same rotation applied letterwise to a word."""
    n = w.n
    shift = k % n
    if shift == 0:
        return w
    return BraidWord(
        n,
        tuple(
            BandLetter.make((l.t + shift - 1) % n + 1, (l.s + shift - 1) % n + 1, l.sign)
            for l in w.letters
        ),
    )


def _perm(a: CanonicalFactor) -> list[int]:
    """The factor's permutation: k -> the previous element of k's block, cyclically.

    Entry k is the image of k; entry 0 is unused (and fixed).
    """
    p = list(range(a.n + 1))
    for block in a.blocks:
        for i, x in enumerate(block):
            p[x] = block[i - 1]
    return p


def _from_perm(n: int, p: Sequence[int]) -> CanonicalFactor:
    """The factor whose blocks are the cycles of the permutation p (entry 0 unused)."""
    seen = [False] * (n + 1)
    blocks = []
    for start in range(1, n + 1):
        block, k = [], start
        while not seen[k]:
            seen[k] = True
            block.append(k)
            k = p[k]
        blocks.append(block)
    return factor(n, blocks)


def diamond(a: CanonicalFactor, b: CanonicalFactor) -> Optional[CanonicalFactor]:
    """The product A*B when it is again a canonical factor, else None.

    A*B is a factor exactly when B is a prefix of complement(A); its
    permutation is then k -> pa[pb[k]].
    """
    if not precedes(b, complement(a)):
        return None
    pa = _perm(a)
    return _from_perm(a.n, [pa[x] for x in _perm(b)])


def _left_quotient(c: CanonicalFactor, b: CanonicalFactor) -> CanonicalFactor:
    """The factor C^-1 * B for a prefix C of B: k -> pc^-1[pb[k]]."""
    pc_inv = [0] * (c.n + 1)
    for k, x in enumerate(_perm(c)):
        pc_inv[x] = k
    return _from_perm(c.n, [pc_inv[x] for x in _perm(b)])


def star(a: CanonicalFactor, b: CanonicalFactor) -> Optional[CanonicalFactor]:
    """Join two disjoint single polygons X, Y into one block, when facing.

    Requires each argument to consist of exactly one non-singleton block.
    Returns None when the blocks interleave (no facing pair exists);
    otherwise the merged factor, which as a braid is A*B*C for the joining
    edge generator C.  star is commutative.
    """
    if a.n != b.n:
        raise ValueError(f"mismatched strand counts {a.n} and {b.n}")
    xs, ys = a.non_singleton_blocks(), b.non_singleton_blocks()
    if len(xs) != 1 or len(ys) != 1:
        raise ValueError("star needs factors that are single polygons")
    x, y = xs[0], ys[0]
    if set(x) & set(y):
        raise ValueError(f"polygon vertex sets overlap at {sorted(set(x) & set(y))}")
    if _blocks_cross(x, y):
        return None
    return factor(a.n, (x + y,))


_PARTITION_RE = re.compile(r"^(\{\d+(,\d+)*\})+$")


def parse_partition_text(text: str, n: int) -> CanonicalFactor:
    """Parse "{1,2,3}{4}" (singletons optional; "e" allowed) into a factor."""
    stripped = re.sub(r"\s", "", text)
    if stripped in ("e", ""):
        return identity_factor(n)
    if not _PARTITION_RE.match(stripped):
        raise ValueError(f"malformed partition text {text!r}")
    blocks = [
        [int(v) for v in body.split(",")] for body in re.findall(r"\{([\d,]+)\}", stripped)
    ]
    return factor(n, blocks)


@dataclass(frozen=True)
class DiskLayout:
    """Puncture placement for diagrams: point k at radius 1/2, angle theta_k.

    theta_k = (2k - 1 - n) * pi / n puts the punctures counterclockwise with
    P_1 and P_n separated by the half-line at angle pi.
    """

    n: int

    def angle(self, k: int) -> float:
        return (2 * k - 1 - self.n) * pi / self.n

    def position(self, k: int) -> tuple[float, float]:
        return 0.5 * cos(self.angle(k)), 0.5 * sin(self.angle(k))
