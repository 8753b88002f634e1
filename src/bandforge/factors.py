"""
Canonical factors of the band-generator (dual Garside) structure on B_n,
represented as non-crossing partitions of {1..n}.

A canonical factor is a braid W with e <= W <= delta; these are in bijection
with non-crossing partitions, a block of size k corresponding to a k-gon in
the punctured-disk diagram and contributing a positive word of length k-1.
The identity e is the all-singletons partition, the fundamental element
delta the one-block partition.

A factor is two byte arrays of length n + 1 (entry 0 is 0), so n <= 255:

- the labels: label[k] is the least element of k's block;
- the permutation: k -> the previous element of k's block, cyclically.

It also keeps its tails, the elements that are not the least of their
block, in increasing order.  Its word length (the number of tails) and
flags are counted when it is built; its sorted blocks are grouped by label
only when first read (text, JSON, SVG); a factor's word is read off its
permutation.

The prefix order is refinement, so the greatest common prefix A ^ B (meet)
is the common refinement.  One pass over the tails of B gives its
permutation: an element whose labels are x and y lies in the intersection
of those two blocks, whose least element is x or y when that lies in both,
and otherwise the first such element seen.  Both meet and the step of left
weighting, which needs only the meet's permutation, are that pass.  The
step reads only the labels of complement(A), and reads them off the
complement's permutation when that complement is not interned yet.
Products and left quotients of factors, when they are factors again, are
products of the permutations, their cycles being the blocks; the complement
A^-1 * delta is k -> pa^-1[k - 1], cyclically, and tau conjugates the
permutation by the rotation.  Every product, inverse and rotation is a
bytes.translate through a table of bytes.maketrans or of a permutation
padded to 256 entries, one pass in C.

Factors are interned by their permutation bytes, one object per permutation,
so two factors are equal exactly when they are the same object, and they
hash by identity.  A product that is already interned costs one translate
and one lookup; the labels and tails of a new one are read off its
permutation in one pass, since k > p[k] unless k is the least element of
its block, and the new object is filled through its slot setters rather
than the frozen dataclass __init__ (equal values, fewer calls).  Only
factor(), the constructor for partitions from outside, scans its label array
for crossing blocks; every other result is non-crossing by construction.

Everything here is a pure function of immutable values, and concurrent
readers are safe: the intern keys are immutable bytes, whose hash is cached,
and dict.setdefault makes the first factor stored for a permutation the one
every thread gets.  _blocks and _complement are the only fields set after
construction, and every thread that sets one stores an equal tuple or the
same interned factor.  No module memo keeps a factor alive: a factor keeps
its own complement, and a rotation is two translates through tables cached
per (n, shift).

The intern table forgets.  An intern miss that leaves it with more than
_sweep_above entries sweeps it, dropping every entry that only the table
holds; _sweep_above starts at _SWEEP_FLOOR, and each sweep sets it to
max(_SWEEP_FLOOR, twice the entries left).  The invariant is that
every factor a caller can reach is the table's entry for its permutation,
so identity stays equality: a dropped factor is unreachable, and building
it again stores the only live object for that permutation.  The sweep
counts and pops in one chain of C calls (getrefcount, compress, dict.pop)
that runs no bytecode, so under the GIL no other thread can take a
reference between the count and the pop.  A free-threaded build
(sys._is_gil_enabled() false) has no such guarantee and never sweeps.
"""

from __future__ import annotations

import re
import sys
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress, repeat
from typing import Iterable, Iterator, Optional, Sequence

from .words import BandLetter, BraidWord, check_strand_count

#: Largest n for which enumerate_factors will tabulate all Catalan(n) factors.
ENUMERATION_BOUND = 8


def _crossing(label: Sequence[int]) -> Optional[tuple[int, int]]:
    """The labels of two interleaving blocks, or None when the partition is non-crossing.

    label[k] is the least element of k's block (entry 0 unused).  One scan
    over 1..n keeps a stack of the blocks opened so far; meeting an element
    of block l closes every block opened after l, since a later element of
    one of those would interleave with l (a<b<c<d alternating).
    """
    stack = [0]
    for k in range(1, len(label)):
        l = label[k]
        if l == k:
            stack.append(k)
            continue
        while stack[-1] > l:
            stack.pop()
        if stack[-1] != l:
            # l was closed by an element between l and k of an earlier block.
            return next(label[e] for e in range(l + 1, k) if label[e] < l), l
    return None


@dataclass(frozen=True, slots=True, eq=False)
class CanonicalFactor:
    """A non-crossing partition of {1..n}, held as its label and permutation bytes.

    Construct through :func:`factor` (or the e/delta/generator helpers), which
    validates and interns; equality is identity, which is exact because the
    intern table holds one factor per permutation.
    """

    n: int
    _label: bytes
    _perm: bytes
    # Every k that is not the least element of its block, in increasing order.
    _tails: bytes = field(repr=False)
    # Counted once by _from_perm: each multiplication step reads the flags.
    word_length: int = field(repr=False)
    is_identity: bool = field(repr=False)
    is_delta: bool = field(repr=False)
    _blocks: Optional[tuple[tuple[int, ...], ...]] = field(default=None, init=False, repr=False)
    # Set by complement() on first use; the sweep clears it (see _sweep).
    _complement: Optional[CanonicalFactor] = field(default=None, init=False, repr=False)

    def __reduce__(self):
        # Equality is identity, so a copy or an unpickled factor is the interned one.
        return _from_perm, (self._perm,)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks in order of least element, singletons included; built on first use."""
        if self._blocks is None:
            groups: dict[int, list[int]] = {}
            for k in range(1, self.n + 1):
                groups.setdefault(self._label[k], []).append(k)
            # Every thread that gets here stores an equal tuple.
            object.__setattr__(self, "_blocks", tuple(map(tuple, groups.values())))
        return self._blocks

    def text(self) -> str:
        """Partition text form, singleton blocks omitted; "e" for the identity."""
        if self.is_identity:
            return "e"
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks if len(b) > 1)

    def json_blocks(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    def __str__(self) -> str:
        return self.text()


@lru_cache(maxsize=None)
def _tables(n: int) -> tuple[bytes, bytes]:
    """The identity 0..n and delta's permutation, k -> k - 1 (1 -> n).

    A permutation or label array of 0..n padded by ljust(256) is a
    bytes.translate table; translating bytes of 0..n never reads the padding.
    """
    return bytes(range(n + 1)), bytes((0, n, *range(1, n)))


#: Every factor that may still be reachable, keyed by its own permutation.
_INTERN: dict[bytes, CanonicalFactor] = {}

# The slot setters, in field order: an intern miss fills a bare object through
# them, bypassing the frozen dataclass __init__ and its object.__setattr__ calls.
_SETTERS = tuple(getattr(CanonicalFactor, name).__set__ for name in CanonicalFactor.__slots__)
_SET_COMPLEMENT = CanonicalFactor._complement.__set__
_PERM_OF = CanonicalFactor._perm.__get__

#: The fewest entries above which an intern miss sweeps the table.
_SWEEP_FLOOR = 1 << 14
# An intern miss sweeps once the table holds more than this: _SWEEP_FLOOR at
# first, then max(_SWEEP_FLOOR, twice the entries left after the last sweep).
# A free-threaded build never sweeps (see _sweep).
_sweep_above = _SWEEP_FLOOR if getattr(sys, "_is_gil_enabled", lambda: True)() else float("inf")


def _only_table_refcount() -> int:
    """What getrefcount reads, in the sweep's own chain, for a value that only its table holds."""
    table = {b"": object()}
    return next(map(sys.getrefcount, list(table.values())))


_ONLY_TABLE = _only_table_refcount()


def _sweep() -> None:
    """Drop every factor that only the intern table holds (see the module docstring).

    A popped factor is still held by the values list, so nothing is freed,
    and no bytecode runs, between a count and its pop.  The keys are read
    off the factors, not off a second snapshot of the table, which other
    threads may grow meanwhile; a factor that another thread's sweep holds
    in its list counts one more and stays.  Complement links are cleared
    first: repeated complements return to the start after at most 2n steps,
    and such a cycle would keep its members counted forever.
    """
    global _sweep_above
    values = list(_INTERN.values())
    deque(map(_SET_COMPLEMENT, values, repeat(None)), 0)
    keys = list(map(_PERM_OF, values))
    only = map(_ONLY_TABLE.__eq__, map(sys.getrefcount, values))
    deque(map(_INTERN.pop, compress(keys, only)), 0)
    _sweep_above = max(_SWEEP_FLOOR, 2 * len(_INTERN))


def _from_perm(p: bytes) -> CanonicalFactor:
    """The interned factor with permutation p: k -> the previous element of k's block.

    Entry 0 is 0.  The cycles of p must be the blocks of a non-crossing
    partition, each in increasing cyclic order; nothing here checks it.
    """
    f = _INTERN.get(p)
    if f is None:
        n = len(p) - 1
        # Only a block's least element k has p[k] >= k; any other k follows a
        # smaller element of its block, whose label is already known.
        label = bytearray(_tables(n)[0])
        tails = bytearray()
        add_tail = tails.append
        for k, q in enumerate(p):
            if q < k:
                label[k] = label[q]
                add_tail(k)
        f = object.__new__(CanonicalFactor)
        (set_n, set_label, set_perm, set_tails,
         set_length, set_identity, set_delta, set_blocks, set_complement) = _SETTERS
        set_n(f, n)
        set_label(f, bytes(label))
        set_perm(f, p)
        set_tails(f, bytes(tails))
        set_length(f, len(tails))
        set_identity(f, not tails)
        set_delta(f, len(tails) == n - 1 and n >= 2)
        set_blocks(f, None)
        set_complement(f, None)
        f = _INTERN.setdefault(p, f)
        # f is held here, so the sweep keeps it.
        if len(_INTERN) > _sweep_above:
            _sweep()
    return f


def _from_labels(label: Sequence[int]) -> CanonicalFactor:
    """The interned factor with these labels: label[k] is the least element of k's block.

    Entry 0 is unused.  The partition must be non-crossing; nothing here
    checks it.
    """
    # Until the scan ends, a block's least element maps to its last element so far.
    perm = bytearray(range(len(label)))
    for k in range(1, len(label)):
        if (l := label[k]) != k:
            perm[k], perm[l] = perm[l], k
    return _from_perm(bytes(perm))


def factor(n: int, blocks: Iterable[Iterable[int]]) -> CanonicalFactor:
    """Build the canonical factor with the given blocks (singletons optional).

    Raises ValueError if n is outside 1..MAX_STRANDS, or if the blocks do not
    form a non-crossing partition of a subset of {1..n} (missing elements
    become singletons).
    """
    check_strand_count(n)
    seen: set[int] = set()
    label = list(range(n + 1))
    for raw in blocks:
        block = tuple(sorted(set(raw)))
        if not block:
            continue
        if not (1 <= block[0] and block[-1] <= n):
            raise ValueError(f"block {block} out of range 1..{n}")
        if seen & set(block):
            raise ValueError(f"blocks are not disjoint at {sorted(seen & set(block))}")
        seen |= set(block)
        for x in block:
            label[x] = block[0]
    if crossed := _crossing(label):
        x, y = (tuple(k for k in range(1, n + 1) if label[k] == l) for l in crossed)
        raise ValueError(f"blocks {x} and {y} cross")
    return _from_labels(label)


def identity_factor(n: int) -> CanonicalFactor:
    """The identity e, the all-singletons partition."""
    check_strand_count(n)
    return _from_perm(_tables(n)[0])


def delta_factor(n: int) -> CanonicalFactor:
    """The fundamental element delta, the one-block partition."""
    check_strand_count(n)
    return _from_perm(_tables(n)[1])


@lru_cache(maxsize=None)
def gen_factor(n: int, t: int, s: int) -> CanonicalFactor:
    """The 2-gon of the band generator a_{t,s}; lcf caches at most n(n-1)/2 per n."""
    check_strand_count(n)
    if not 1 <= min(s, t) < max(s, t) <= n:
        raise ValueError(f"generator ({t},{s}) out of range for n={n}")
    label = list(range(n + 1))
    label[max(s, t)] = min(s, t)
    return _from_labels(label)


def _nc_labels(n: int) -> Iterator[tuple[int, ...]]:
    """Every non-crossing label array of {1..n}, by the stack rule _crossing checks.

    Element k either opens a block or joins a block that is still open,
    which closes every block opened after that one.
    """
    label = [0] * (n + 1)

    def extend(k: int, stack: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if k > n:
            yield tuple(label)
            return
        label[k] = k
        yield from extend(k + 1, stack + (k,))
        for i, l in enumerate(stack):
            label[k] = l
            yield from extend(k + 1, stack[: i + 1])

    return extend(1, ())


@lru_cache(maxsize=None)
def enumerate_factors(n: int) -> tuple[CanonicalFactor, ...]:
    """All canonical factors of B_n, Catalan(n) of them, by (word_length, blocks).

    Tabulation is limited to n <= ENUMERATION_BOUND; other operations in
    this module work for any n.
    """
    if not 1 <= n <= ENUMERATION_BOUND:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUMERATION_BOUND}, got {n}")
    return tuple(
        sorted(map(_from_labels, _nc_labels(n)), key=lambda f: (f.word_length, f.blocks))
    )


def _factor_letters(a: CanonicalFactor, sign: int = 1) -> tuple[BandLetter, ...]:
    """The letters of factor_to_word(a) (sign 1), or of its inverse (sign -1).

    Read off the permutation, k -> the previous element of k's block: a tail
    k is the largest element of its block exactly when the block's least
    element maps to it, and walking down from there by k -> p[k] meets the
    block in decreasing order until p[k] > k.  The inverse is the same
    letters reversed, each with the sign flipped.
    """
    p, label = a._perm, a._label
    letters = []
    for top in reversed(a._tails):
        if p[label[top]] == top:
            k = top
            while (lower := p[k]) < k:
                letters.append(BandLetter(k, lower, sign))
                k = lower
    if sign < 0:
        letters.reverse()
    return tuple(letters)


def factor_to_word(a: CanonicalFactor) -> BraidWord:
    """A positive word for the factor, length n - #blocks.

    Each block {t1<...<tk} contributes a_{tk,tk-1} ... a_{t2,t1}; blocks are
    emitted in descending order of their maximum.  Any emission order gives
    the same braid since distinct blocks commute.
    """
    return BraidWord(a.n, _factor_letters(a))


def complement(a: CanonicalFactor) -> CanonicalFactor:
    """The unique factor B with A*B = delta (a Kreweras-type complement).

    B = A^-1 * delta; delta's permutation is k -> k - 1 (1 -> n), so B's is
    k -> pa^-1[k - 1].  A keeps B in a slot, so B lives as long as A does,
    or until a sweep clears the link.
    """
    if (c := a._complement) is None:
        c = _from_perm(_complement_perm(a))
        _SET_COMPLEMENT(a, c)
    return c


def _complement_perm(a: CanonicalFactor) -> bytes:
    ident, delta = _tables(a.n)
    return delta.translate(bytes.maketrans(a._perm, ident))


def _complement_label(a: CanonicalFactor) -> bytes | bytearray:
    """complement(A)'s labels, read off its permutation when it is not interned.

    The factor that travels through a pass of left weighting is mostly new,
    and so is its complement, whose labels are all the step reads: building
    and interning it would cost more, and feed the sweep.
    """
    if (c := a._complement) is None:
        q = _complement_perm(a)
        if (c := _INTERN.get(q)) is None:
            label = bytearray(_tables(a.n)[0])
            for k, x in enumerate(q):
                if x < k:
                    label[k] = label[x]
            return label
        _SET_COMPLEMENT(a, c)
    return c._label


def precedes(a: CanonicalFactor, b: CanonicalFactor) -> bool:
    """The prefix order A < B: every block of A lies inside a block of B.

    k and its label la[k] share a block of A, so A < B exactly when
    lb[la[k]] = lb[k] for every k: one pass of lb over A's labels.
    """
    if a.n != b.n:
        raise ValueError(f"mismatched strand counts {a.n} and {b.n}")
    lb = b._label
    return a._label.translate(lb.ljust(256)) == lb


def _meet_perm(la: bytes, lb: bytes, tails: bytes) -> Optional[bytes]:
    """The permutation of the common refinement of two partitions, or None when it is e.

    la and lb are their labels, and tails lists the elements that are not
    the least of their block in the second partition, in increasing order.
    A block of the refinement is an intersection I of a block with least
    element x and one with least element y.  The least element of I is x
    when x lies in I, y when y does, and otherwise the first element of I,
    which is then the least of neither block.  So one walk over the tails
    meets every element of I but its least, in increasing order, and builds
    the permutation as _from_labels does.
    """
    first: dict[tuple[int, int], int] = {}
    perm = None
    for k in tails:
        if (x := la[k]) == k:
            continue
        y = lb[k]
        if lb[x] == y:
            l = x
        elif la[y] == x:
            l = y
        elif (l := first.setdefault((x, y), k)) == k:
            continue
        if perm is None:
            perm = bytearray(range(len(la)))
        perm[k], perm[l] = perm[l], k
    return None if perm is None else bytes(perm)


def meet(a: CanonicalFactor, b: CanonicalFactor) -> CanonicalFactor:
    """The greatest common prefix A ^ B: blocks are the non-empty intersections of blocks."""
    if a.n != b.n:
        raise ValueError(f"mismatched strand counts {a.n} and {b.n}")
    return _from_perm(_meet_perm(a._label, b._label, b._tails) or _tables(a.n)[0])


@lru_cache(maxsize=None)
def _rotation(n: int, shift: int) -> tuple[bytes, bytes]:
    """r^-1 and the translate table of r, for the rotation r: x -> x + shift (mod n, into 1..n)."""
    ident = _tables(n)[0]
    r = b"\0" + ident[shift + 1 :] + ident[1 : shift + 1]
    r_inv = b"\0" + ident[n - shift + 1 :] + ident[1 : n - shift + 1]
    return r_inv, r.ljust(256)


def tau(a: CanonicalFactor, k: int = 1) -> CanonicalFactor:
    """Conjugation by delta^k: rotates every label by +k (mod n, into 1..n).

    The rotation r by k maps the permutation p to r p r^-1.
    """
    shift = k % a.n
    if shift == 0:
        return a
    r_inv, r = _rotation(a.n, shift)
    return _from_perm(r_inv.translate(a._perm.ljust(256)).translate(r))


def diamond(a: CanonicalFactor, b: CanonicalFactor) -> Optional[CanonicalFactor]:
    """The product A*B when it is again a canonical factor, else None.

    A*B is a factor exactly when B is a prefix of complement(A); its
    permutation is then k -> pa[pb[k]].
    """
    if not precedes(b, complement(a)):
        return None
    return _from_perm(b._perm.translate(a._perm.ljust(256)))


def _left_weight(a: CanonicalFactor, b: CanonicalFactor) -> tuple[CanonicalFactor, CanonicalFactor]:
    """The pair (A*C, C^-1 * B) for C = complement(A) ^ B, the step of left weighting.

    C = e exactly when the meet pass joins no two elements; then the pair
    is returned as it is.  Otherwise C's permutation gives A*C as k -> pa[pc[k]]
    and C^-1 * B as k -> pc^-1[pb[k]]; C itself is not interned.  C precedes
    complement(A) (it is their meet), so A*C needs no diamond test.
    """
    pc = _meet_perm(_complement_label(a), b._label, b._tails)
    if pc is None:
        return a, b
    return (
        _from_perm(pc.translate(a._perm.ljust(256))),
        _from_perm(b._perm.translate(bytes.maketrans(pc, _tables(a.n)[0]))),
    )


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
