"""
Conjugacy machinery: cycling, decycling, super summit sets.

For W = delta^r A_1 ... A_k in left canonical form:

    cycling    c(W) = delta^r A_2 ... A_k tau^-r(A_1)
    decycling  d(W) = delta^r tau^r(A_k) A_1 ... A_{k-1}

Both are conjugations (by tau^-r(A_1) and A_k^-1 respectively) and both
leave inf non-decreasing and sup non-increasing.  How long to iterate them
is fixed by the cycling theorem (Birman-Ko-Lee, Adv. Math. 139 (1998), for
the band generators; for any Garside group in Birman-Gebhardt-
Gonzalez-Meneses, Conjugacy in Garside groups I, Groups Geom. Dyn. 1
(2007)).  With inf_s and sup_s the largest inf and the smallest sup over
the conjugacy class, and ||delta|| = n - 1 the letter length of delta:

    if inf(W) < inf_s, then inf(c^||delta||(W)) > inf(W);
    if sup(W) > sup_s, then sup(d^||delta||(W)) < sup(W).

So n - 1 cyclings in a row that leave inf unchanged end at inf_s, and then
n - 1 decyclings in a row that leave sup unchanged end at sup_s; decycling
never lowers inf, so the result attains both, and one pass of each suffices.

The super summit set SSS is the set of conjugates of minimal canonical
length; every element of it attains inf and sup of the class
simultaneously, and the whole set is reachable from any one element by
conjugating with single canonical factors and keeping the results that stay
in the set (the standard convexity fact; imported here without reproof).

The closure conjugates in factor space, never through words: f^-1 W f is
two multiplications of a normal form by one factor each,

    f^-1 W f = left_divide(f, right_multiply(W, f)),

run as the two passes of normal_form on one copy of W's factors, and a
form is built only for a candidate that is in the set.  W f has inf p or
p + 1 for inf(W) = p, so the left division is one pass of tau^(p-1) or
tau^p of complement(f); both rotations, and tau^p(f), are kept in a table
per (n, p mod n).

Cycling and decycling are one multiplication each, of the normal form
delta^r A_2 ... A_k by tau^-r(A_1) on the right, and of delta^r A_1 ... A_{k-1}
by A_k on the left.  The summit search runs both on one deque, so a step
costs its pass, not the length of the form (see sss_representative).

Three exact facts keep the closure small:

- tau-orbits.  tau(X)^tau(f) = tau(X^f), and the SSS is closed under tau
  (conjugation by delta).  So a new element's whole orbit tau^k(Y),
  k = 0 ... n-1, joins the set at once, and only Y itself is expanded: the
  conjugates of tau^k(Y) are the tau^k-images of those of Y.
- Early inf rejection.  Every SSS element has the same inf p.  For
  W = delta^p A_1 ... A_k,
      delta^p < f^-1 W f  <=>  f delta^p < W f  <=>  tau^p(f) < A_1 ... A_k f,
  and a factor is a prefix of a positive braid iff it is a prefix of the
  braid's first canonical factor.  So inf(f^-1 W f) >= p exactly when a
  delta formed in the right pass of W f or tau^p(f) precedes the head that
  pass leaves; any other f is rejected before the left pass.
- Minimal conjugators.  Call f a keeper of X when X^f is in the SSS.
  Delta is never tried: X^delta = tau(X) is in the orbit that joined with X.
  The other factors are tried shortest first (enumerate_factors order), and
  f is skipped when a keeper g of X found before it satisfies g < f.  No
  element is lost: h = g^-1 f is a simple element shorter than f, and
  X^f = (X^g)^h, so h keeps X^g, which is in the set; by induction on word
  length, with the tau-orbit rule for the elements not expanded, X^f is
  reached through X^g.  Atoms have no factor below them and are always
  tried.  This is the exact part of the minimal simple conjugators of
  Franco and Gonzalez-Meneses (J. Algebra 266 (2003)); no join is computed.

Conjugation convention: conjugate(w, v) = v^-1 w v.  Every conjugator is
held as signed-factor steps that compose left to right along the search
path: (f, 1) for f and (f, -1) for f^-1.  The summit search records one step
per cycling or decycling step (SummitData.witness_steps); the closure
records (f, 1) per conjugating factor and (delta, 1) per tau-shift, and
sss_enumerate returns the set as one mapping from each element to those
steps.  No word is built until a witness is read; then
normal_form.signed_word spells the steps out as letters and the word is
freely reduced.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Union

from .factors import (
    CanonicalFactor,
    complement,
    delta_factor,
    enumerate_factors,
    precedes,
    tau,
)
from .normal_form import (
    LeftCanonicalForm,
    SignedFactor,
    _left_pass,
    _right_pass,
    lcf,
    left_multiply,
    right_multiply,
    signed_word,
)
from .words import BraidWord

DEFAULT_SSS_BUDGET = 100_000


class BudgetExceededError(RuntimeError):
    """SSS enumeration outgrew its element budget; carries the partial count."""

    def __init__(self, partial_count: int, budget: int):
        super().__init__(f"super summit set exceeded budget {budget} (saw {partial_count})")
        self.partial_count = partial_count
        self.budget = budget


def resolve_budget(budget: Optional[int]) -> int:
    """budget, else DEFAULT_SSS_BUDGET; below 1 is a ValueError."""
    if budget is None:
        return DEFAULT_SSS_BUDGET
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    return budget


def cycling(form: LeftCanonicalForm) -> LeftCanonicalForm:
    """Move the first factor to the back (rotated past delta^r); identity if k=0."""
    if not form.factors:
        return form
    rest = LeftCanonicalForm(form.n, form.power, form.factors[1:])
    return right_multiply(rest, tau(form.factors[0], -form.power))


def decycling(form: LeftCanonicalForm) -> LeftCanonicalForm:
    """Move the last factor to the front (rotated past delta^r); identity if k=0."""
    if not form.factors:
        return form
    rest = LeftCanonicalForm(form.n, form.power, form.factors[:-1])
    return left_multiply(form.factors[-1], rest)


@dataclass(frozen=True)
class SummitData:
    """A super summit representative and the conjugator that reaches it.

    witness_steps is the conjugator from the original word to the
    representative, one (factor, sign) step per cycling or decycling step.
    Steps become a word only through signed_word, as the witness property
    does on each read; inf_conj and sup_conj are read off the
    representative.  The set itself is sss_enumerate's return value.
    """

    representative: LeftCanonicalForm
    witness_steps: tuple[SignedFactor, ...]

    @property
    def inf_conj(self) -> int:
        return self.representative.inf

    @property
    def sup_conj(self) -> int:
        return self.representative.sup

    @property
    def witness(self) -> BraidWord:
        """v with lcf(v^-1 w v) = representative for the original word w, freely reduced."""
        return signed_word(self.representative.n, 0, self.witness_steps).freely_reduced()


def sss_representative(w: Union[BraidWord, LeftCanonicalForm]) -> SummitData:
    """A conjugate attaining inf and sup of the conjugacy class simultaneously.

    Cycles until inf has not risen for n - 1 steps in a row, then decycles
    until sup has not fallen for n - 1 steps in a row: by the cycling theorem
    (module docstring) the first phase ends at inf_s and the second at sup_s,
    and decycling keeps inf.  Accepts the word or its normal form, so a
    caller that already holds lcf(w) does not recompute it.

    The form delta^power A_1 ... A_k is held as a deque fs in a frame:
    A_i = tau^shift(fs[i]).  tau is an automorphism, so a pass runs on the
    stored factors with its factor rotated by tau^-shift.  A delta that
    cycling forms raises the power by one and turns every factor in front
    of it into its tau (X delta = delta tau(X)); raising the shift by one
    does that without touching them, and the factors behind the delta,
    which that pass wrote, are rotated back by one.  So each step costs its
    pass, not the length of the form.
    """
    form = w if isinstance(w, LeftCanonicalForm) else lcf(w)
    n, power, shift = form.n, form.power, 0
    fs = deque(form.factors)
    steps: list[SignedFactor] = []
    idle = 0
    while fs and idle < n - 1:
        # c(W) = delta^r A_2 ... A_k tau^-r(A_1), conjugated by tau^-r(A_1).
        first = fs.popleft()
        steps.append((tau(first, shift - power), 1))
        j = _right_pass(fs, tau(first, -power))
        if j is None:
            idle += 1
            continue
        power, shift, idle = power + 1, shift + 1, 0
        for i in range(j, len(fs)):
            fs[i] = tau(fs[i], -1)
    idle = 0
    while fs and idle < n - 1:
        # d(W) = delta^r tau^r(A_k) A_1 ... A_(k-1), conjugated by A_k^-1.
        sup = power + len(fs)
        last = fs.pop()
        steps.append((tau(last, shift), -1))
        power += _left_pass(fs, tau(last, power))
        idle = idle + 1 if power + len(fs) == sup else 0
    factors = tuple([tau(a, shift) for a in fs])
    return SummitData(LeftCanonicalForm(n, power, factors), tuple(steps))


def _sss_walk(
    data: SummitData, budget: Optional[int]
) -> Iterator[tuple[LeftCanonicalForm, tuple[SignedFactor, ...]]]:
    """Yield each super summit element, with its steps from the representative, as it joins.

    The representative comes first, before any conjugation, so a caller that
    stops there does no closure work.  Each new element Y joins with its
    tau-orbit, tau^k(Y) with the steps of Y followed by k steps (delta, 1),
    and only Y is expanded.  The next member of an orbit is the current one
    with each factor rotated, read from a dict kept for the walk that maps
    each factor met to its tau, filled on first use: nothing is tabulated
    before the representative is yielded, so a caller that stops there also
    works above ENUMERATION_BOUND.

    A trial of f runs the right pass of W f on a copy of W's factors, then
    the left pass of the division by f on the same list, and builds a form
    only for a candidate that is in the set.  f is rejected on inf after the
    right pass alone: f^-1 W f keeps inf p iff a delta formed or tau^p(f)
    precedes the head the pass leaves (see the module docstring for the
    derivation); the factors in front of a delta are rotated from the walk's
    dict.  The left pass then settles inf and, with the length of the list,
    sup.  Delta is not tried, and a factor above a keeper of the node found
    earlier is skipped (the minimal-conjugator rule in the module
    docstring); the factors above a keeper are listed on its first keep and
    kept for later walks, as is the table of conjugators for (n, p mod n).
    The budget is checked before the first element.
    """
    limit = resolve_budget(budget)
    n = data.representative.n
    p = data.inf_conj
    sup = data.sup_conj
    delta = (delta_factor(n), 1)
    seen: dict[LeftCanonicalForm, tuple[SignedFactor, ...]] = {}
    rotated: dict[CanonicalFactor, CanonicalFactor] = {}

    def rotate(a: CanonicalFactor) -> CanonicalFactor:
        return rotated.get(a) or rotated.setdefault(a, tau(a))

    def join_orbit(y: LeftCanonicalForm, path: tuple[SignedFactor, ...]):
        x = y
        while True:
            if len(seen) >= limit:
                raise BudgetExceededError(len(seen), limit)
            seen[x] = path
            yield x, path
            # tuple() of a list is allocated at its size; tuple(map()) guesses
            # 10 and shrinks, and such tuples, once freed, overfill the free
            # list of their final size.
            x = LeftCanonicalForm(n, p, tuple([rotate(a) for a in x.factors]))
            if x == y:
                return
            path += (delta,)

    yield from join_orbit(data.representative, ())
    conjugators = _conjugators(n, p % n)
    queue = [data.representative]
    while queue:
        current = queue.pop()
        base_path = seen[current]
        # The conjugators above a keeper of current: each is skipped.
        blocked: set[CanonicalFactor] = set()
        for f, f_shifted, c_kept, c_carried in conjugators:
            if f in blocked:
                continue
            fs = list(current.factors)
            j = _right_pass(fs, f)
            if j is None:
                if not precedes(f_shifted, fs[0]):
                    continue
                power, c = p - 1, c_kept
            else:
                fs[:j] = [rotate(a) for a in fs[:j]]
                power, c = p, c_carried
            power += _left_pass(fs, c)
            if power != p or power + len(fs) != sup:
                continue
            blocked.update(_conjugators_above(f))
            candidate = LeftCanonicalForm(n, p, tuple(fs))
            if candidate in seen:
                continue
            yield from join_orbit(candidate, base_path + ((f, 1),))
            queue.append(candidate)


@lru_cache(maxsize=None)
def _conjugators(n: int, shift: int) -> tuple[tuple[CanonicalFactor, ...], ...]:
    """The closure's conjugators for inf p = shift (mod n): rows (f, tau^p(f), c_kept, c_carried).

    f runs over the factors other than e and delta, shortest first
    (enumerate_factors order), so every factor below f comes before it.
    c_kept and c_carried are tau^(r-1)(complement(f)) for inf(W f) = r = p
    and r = p + 1, the factor of the division's left pass.  Kept for every
    walk with that n and p mod n.
    """
    return tuple(
        (f, tau(f, shift), tau(c, shift - 1), tau(c, shift))
        for f in enumerate_factors(n)
        if not (f.is_identity or f.is_delta)
        for c in (complement(f),)
    )


@lru_cache(maxsize=None)
def _conjugators_above(f: CanonicalFactor) -> tuple[CanonicalFactor, ...]:
    """The factors other than e and delta that f precedes, f included.

    Kept per factor across walks, and built when f first keeps a node, so a
    walk that stops at its representative tabulates nothing.
    """
    return tuple(
        h
        for h in enumerate_factors(f.n)
        if not (h.is_identity or h.is_delta) and precedes(f, h)
    )


def sss_enumerate(
    data: SummitData, budget: Optional[int] = None
) -> dict[LeftCanonicalForm, tuple[SignedFactor, ...]]:
    """The super summit set, each element mapped to its steps from the representative.

    The keys are the closure of the representative under canonical-factor
    conjugation, in walk order with the representative first (steps ()).
    Steps are not unique: an element reached through the tau-orbit of
    another has a conjugator that ends in delta^k.  Nothing is kept on data.
    """
    return dict(_sss_walk(data, budget))


@dataclass(frozen=True)
class ConjugacyResult:
    conjugate: bool
    witness: Optional[BraidWord]
    sss_size_a: int
    sss_size_b: int


def are_conjugate(
    w1: BraidWord, w2: BraidWord, budget: Optional[int] = None
) -> ConjugacyResult:
    """Decide conjugacy by looking up w2's summit representative in SSS(w1); with witness.

    The witness v, freely reduced, satisfies lcf(v^-1 w1 v) = lcf(w2).  A
    differing class invariant (writhe, inf_s, sup_s) fails the lookup too.
    """
    if w1.n != w2.n:
        raise ValueError(f"mismatched strand counts {w1.n} and {w2.n}")
    rep1 = sss_representative(w1)
    rep2 = sss_representative(w2)
    sss1 = sss_enumerate(rep1, budget)
    path = sss1.get(rep2.representative)
    if path is None:
        return ConjugacyResult(False, None, len(sss1), len(sss_enumerate(rep2, budget)))
    back = tuple((f, -sign) for f, sign in reversed(rep2.witness_steps))
    witness = signed_word(w1.n, 0, rep1.witness_steps + path + back).freely_reduced()
    return ConjugacyResult(True, witness, len(sss1), len(sss1))
