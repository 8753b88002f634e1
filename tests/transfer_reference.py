"""Reference left weighting by single-generator transfers, kept for testing.

The library left-weights a pair of factors with one lattice step,
C = complement(A) ^ B.  This module keeps the older, independent route:
chord sets S(A) (generators left-dividing A) and R(A) (generators c with
A*c still a factor), and a loop that moves one generator of R(A) & S(B) at
a time from B into A.  It also keeps diamond as "normalize the product and
look at its shape", and a normal-form pass that processes pairs in random
order.  The differential tests compare the library against these.

It also keeps the block-based kernel that the label/permutation arrays
replaced: complement from ghost-point signatures, meet and precedes through
an element -> block map, and tau by rebuilding the rotated blocks through
factor().
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Optional, Sequence

from bandforge.factors import (
    CanonicalFactor,
    complement,
    delta_factor,
    factor,
    factor_to_word,
    identity_factor,
    tau,
)
from bandforge.normal_form import LeftCanonicalForm, lcf

from conftest import Chord


def block_of(a: CanonicalFactor) -> dict[int, tuple[int, ...]]:
    """Each element's block."""
    return {x: b for b in a.blocks for x in b}


def reference_complement(a: CanonicalFactor) -> CanonicalFactor:
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


def reference_precedes(a: CanonicalFactor, b: CanonicalFactor) -> bool:
    """The prefix order A < B: every block of A lies inside a block of B."""
    lookup = block_of(b)
    return all(all(lookup[x] is lookup[block[0]] for x in block) for block in a.blocks)


def reference_meet(a: CanonicalFactor, b: CanonicalFactor) -> CanonicalFactor:
    """The greatest common prefix A ^ B: blocks are the non-empty intersections of blocks."""
    la, lb = block_of(a), block_of(b)
    groups: dict[tuple[int, int], list[int]] = {}
    for k in range(1, a.n + 1):
        groups.setdefault((la[k][0], lb[k][0]), []).append(k)
    return factor(a.n, groups.values())


def reference_tau(a: CanonicalFactor, shift: int) -> CanonicalFactor:
    """Every label rotated by +shift (mod n, into 1..n)."""
    return factor(a.n, tuple(tuple((x + shift - 1) % a.n + 1 for x in b) for b in a.blocks))


@lru_cache(maxsize=None)
def starting_set(a: CanonicalFactor) -> frozenset[Chord]:
    """Positive generators left-dividing the factor: same-block pairs."""
    return frozenset(
        (t, s) for block in a.blocks for i, s in enumerate(block) for t in block[i + 1 :]
    )


@lru_cache(maxsize=None)
def right_set(a: CanonicalFactor) -> frozenset[Chord]:
    """Generators c with A*c still a canonical factor: S(complement(A))."""
    return starting_set(complement(a))


@lru_cache(maxsize=None)
def merge(a: CanonicalFactor, c: Chord) -> CanonicalFactor:
    """The factor A*c for c in R(A): union the blocks containing c's strands."""
    if c not in right_set(a):
        raise ValueError(f"generator {c} is not in the right set of {a.text()}")
    t, s = c
    blocks = block_of(a)
    bs, bt = blocks[s], blocks[t]
    rest = [b for b in a.blocks if b is not bs and b is not bt]
    return factor(a.n, rest + [bs + bt])


@lru_cache(maxsize=None)
def split_left(b: CanonicalFactor, c: Chord) -> CanonicalFactor:
    """The factor B' with c * B' = B, for c in S(B).

    The block V containing both strands of c splits into
    V1 = {x in V : s < x <= t} and V2 = V minus V1.
    """
    if c not in starting_set(b):
        raise ValueError(f"generator {c} is not in the starting set of {b.text()}")
    t, s = c
    v = block_of(b)[s]
    v1 = tuple(x for x in v if s < x <= t)
    v2 = tuple(x for x in v if not s < x <= t)
    rest = [blk for blk in b.blocks if blk is not v]
    return factor(b.n, rest + [v1, v2])


def transfer_left_weight_pair(
    a: CanonicalFactor, b: CanonicalFactor
) -> tuple[CanonicalFactor, CanonicalFactor]:
    """Transfer generators from the head of B into A until R(A') & S(B') = 0.

    The smallest chord is taken each time; at most n-1 transfers happen
    since each grows A by one letter.
    """
    while common := right_set(a) & starting_set(b):
        c = min(common)
        a = merge(a, c)
        b = split_left(b, c)
    return a, b


def lcf_diamond(a: CanonicalFactor, b: CanonicalFactor) -> Optional[CanonicalFactor]:
    """A*B when it is a factor, read off the shape of lcf(word(A)word(B))."""
    form = lcf(factor_to_word(a) * factor_to_word(b))
    shape = (form.power, len(form.factors))
    if shape == (0, 0):
        return identity_factor(a.n)
    if shape == (1, 0):
        return delta_factor(a.n)
    if shape == (0, 1):
        return form.factors[0]
    return None


def normalize_random_order(
    n: int, power: int, factors: Sequence[CanonicalFactor], rng
) -> LeftCanonicalForm:
    """Fixed point of randomized pair processing; must agree with lcf()."""
    fs: list[CanonicalFactor] = []
    r = power
    for f in factors:
        if f.is_identity:
            continue
        if f.is_delta:
            r += 1
            fs = [tau(g) for g in fs]
        else:
            fs.append(f)
    while True:
        violations = [
            i for i in range(len(fs) - 1) if right_set(fs[i]) & starting_set(fs[i + 1])
        ]
        if not violations:
            break
        i = rng.choice(violations)
        c = rng.choice(sorted(right_set(fs[i]) & starting_set(fs[i + 1])))
        a, b = merge(fs[i], c), split_left(fs[i + 1], c)
        if b.is_identity:
            fs[i : i + 2] = [a]
        else:
            fs[i], fs[i + 1] = a, b
        if a.is_delta:
            r += 1
            for j in range(i):
                fs[j] = tau(fs[j])
            del fs[i]
    return LeftCanonicalForm(n, r, tuple(fs))
