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

    f^-1 W f = left_divide(f, right_multiply(W, f)).

W f has inf p or p + 1 for inf(W) = p, so the left division is one pass
of tau^(p-1) or tau^p of complement(f); the walk rotates every
conjugator's complement both ways once, when its closure starts.

Cycling and decycling are one multiplication each, of the normal form
delta^r A_2 ... A_k by tau^-r(A_1) on the right, and of delta^r A_1 ... A_{k-1}
by A_k on the left.

Three exact facts keep the closure small:

- tau-orbits.  tau(X)^tau(f) = tau(X^f), and the SSS is closed under tau
  (conjugation by delta).  So a new element's whole orbit tau^k(Y),
  k = 0 ... n-1, joins the set at once, and only Y itself is expanded: the
  conjugates of tau^k(Y) are the tau^k-images of those of Y.
- Early inf rejection.  Every SSS element has the same inf p.  For
  W = delta^p A_1 ... A_k,
      delta^p < f^-1 W f  <=>  f delta^p < W f  <=>  tau^p(f) < A_1 ... A_k f,
  and a factor is a prefix of a positive braid iff it is a prefix of the
  braid's first canonical factor.  So with right = right_multiply(W, f),
  inf(f^-1 W f) >= p exactly when a delta formed (right.power > p) or
  tau^p(f) precedes right's first factor; any other f is rejected before
  the left multiplication.
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


def _cycling_step(form: LeftCanonicalForm) -> SignedFactor:
    """The conjugator of cycling a form with k >= 1: the rotated first factor."""
    return tau(form.factors[0], -form.power), 1


def _decycling_step(form: LeftCanonicalForm) -> SignedFactor:
    """The conjugator of decycling a form with k >= 1: the inverse of the last factor."""
    return form.factors[-1], -1


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
    """
    form = w if isinstance(w, LeftCanonicalForm) else lcf(w)
    steps: list[SignedFactor] = []
    idle = 0
    while form.factors and idle < form.n - 1:
        inf = form.power
        steps.append(_cycling_step(form))
        form = cycling(form)
        idle = idle + 1 if form.power == inf else 0
    idle = 0
    while form.factors and idle < form.n - 1:
        sup = form.sup
        steps.append(_decycling_step(form))
        form = decycling(form)
        idle = idle + 1 if form.sup == sup else 0
    return SummitData(form, tuple(steps))


def _keeps_inf(right: LeftCanonicalForm, shifted: CanonicalFactor, p: int) -> bool:
    """Whether inf(f^-1 W f) >= p, from right = W f and shifted = tau^p(f), inf(W) = p."""
    if right.power > p:
        return True
    return precedes(shifted, right.factors[0]) if right.factors else shifted.is_identity


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
    works above ENUMERATION_BOUND.  A conjugator f is rejected on inf after
    right_multiply(W, f) alone: f^-1 W f keeps inf p iff a delta formed or
    tau^p(f) precedes the first factor of W f (see the module docstring for
    the derivation).  Delta is not tried, and a factor above a keeper of
    the node found earlier is skipped (the minimal-conjugator rule in the
    module docstring); the factors above a keeper are listed on its first
    keep and kept for later walks.  The budget is checked before the first
    element.
    """
    limit = resolve_budget(budget)
    n = data.representative.n
    p = data.inf_conj
    target = (p, data.sup_conj)
    delta = (delta_factor(n), 1)
    seen: dict[LeftCanonicalForm, tuple[SignedFactor, ...]] = {}
    rotated: dict[CanonicalFactor, CanonicalFactor] = {}

    def join_orbit(y: LeftCanonicalForm, path: tuple[SignedFactor, ...]):
        x = y
        while True:
            if len(seen) >= limit:
                raise BudgetExceededError(len(seen), limit)
            seen[x] = path
            yield x, path
            fs = [rotated.get(a) or rotated.setdefault(a, tau(a)) for a in x.factors]
            x = LeftCanonicalForm(n, p, tuple(fs))
            if x == y:
                return
            path += (delta,)

    yield from join_orbit(data.representative, ())
    # Shortest first (enumerate_factors order), so every factor below f comes
    # before it; c_shifted[r - p] is tau^(r-1)(complement(f)) for inf(W f) = r.
    conjugators = []
    for f in enumerate_factors(n):
        if not (f.is_identity or f.is_delta):
            c = complement(f)
            conjugators.append((f, tau(f, p), (tau(c, p - 1), tau(c, p))))
    queue = [data.representative]
    while queue:
        current = queue.pop()
        base_path = seen[current]
        # The conjugators above a keeper of current: each is skipped.
        blocked: set[CanonicalFactor] = set()
        for f, f_shifted, c_shifted in conjugators:
            if f in blocked:
                continue
            right = right_multiply(current, f)
            if not _keeps_inf(right, f_shifted, p):
                continue
            r = right.power
            candidate = _left_pass(c_shifted[r - p], LeftCanonicalForm(n, r - 1, right.factors))
            if (candidate.power, candidate.sup) != target:
                continue
            blocked.update(_conjugators_above(f))
            if candidate in seen:
                continue
            yield from join_orbit(candidate, base_path + ((f, 1),))
            queue.append(candidate)


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
