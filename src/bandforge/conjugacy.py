"""
Conjugacy machinery: cycling, decycling, super summit sets.

For W = delta^r A_1 ... A_k in left canonical form:

    cycling    c(W) = delta^r A_2 ... A_k tau^-r(A_1)
    decycling  d(W) = delta^r tau^r(A_k) A_1 ... A_{k-1}

Both are conjugations (by tau^-r(A_1) and A_k^-1 respectively) and both
leave inf non-decreasing and sup non-increasing.  Iterating cycling until
the orbit repeats without improvement maximizes inf over the conjugacy
class; decycling minimizes sup.  The super summit set SSS is the set of
conjugates of minimal canonical length; every element of it attains inf and
sup of the class simultaneously, and the whole set is reachable from any
one element by conjugating with single canonical factors and keeping the
results that stay in the set (the standard convexity fact; imported here
without reproof).

The closure conjugates in factor space, never through words.  For a
factor f with complement(f) = f^-1 delta, f^-1 = delta^-1 tau^-1(complement(f)),
so f^-1 W f is two multiplications of a normal form by one factor each:

    f^-1 W f = delta^-1 * left_multiply(tau^-1(complement(f)), right_multiply(W, f)).

Cycling and decycling are one multiplication each, of the normal form
delta^r A_2 ... A_k by tau^-r(A_1) on the right, and of delta^r A_1 ... A_{k-1}
by A_k on the left.

Conjugation convention: conjugate(w, v) = v^-1 w v.  Witness words compose
left to right along the search path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .factors import complement, enumerate_factors, factor_to_word, tau
from .normal_form import LeftCanonicalForm, lcf, left_multiply, right_multiply
from .words import BandLetter, BraidWord, writhe

DEFAULT_SSS_BUDGET = 100_000
BUDGET_ENV_VAR = "BANDFORGE_BUDGET"


class BudgetExceededError(RuntimeError):
    """SSS enumeration outgrew its element budget; carries the partial count."""

    def __init__(self, partial_count: int, budget: int):
        super().__init__(f"super summit set exceeded budget {budget} (saw {partial_count})")
        self.partial_count = partial_count
        self.budget = budget


def default_budget() -> int:
    """The budget from BANDFORGE_BUDGET when set, else DEFAULT_SSS_BUDGET."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if not raw:
        return DEFAULT_SSS_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None


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


def cycling_conjugator(form: LeftCanonicalForm) -> BraidWord:
    """v with cycling(W) = lcf(v^-1 W v): the rotated first factor."""
    if not form.factors:
        return BraidWord(form.n)
    return factor_to_word(tau(form.factors[0], -form.power))


def decycling_conjugator(form: LeftCanonicalForm) -> BraidWord:
    """v with decycling(W) = lcf(v^-1 W v): the inverse of the last factor."""
    if not form.factors:
        return BraidWord(form.n)
    return factor_to_word(form.factors[-1]).inverse()


@dataclass
class SummitData:
    """A super summit representative plus (optionally) the enumerated set.

    witness conjugates the original word to the representative; sss_witnesses
    maps each enumerated element to a conjugator from the representative.
    """

    representative: LeftCanonicalForm
    inf_conj: int
    sup_conj: int
    witness: BraidWord
    sss: Optional[frozenset[LeftCanonicalForm]] = None
    sss_witnesses: dict[LeftCanonicalForm, BraidWord] = field(default_factory=dict)

    @property
    def sss_size(self) -> Optional[int]:
        return len(self.sss) if self.sss is not None else None


def _improvement_phase(
    form: LeftCanonicalForm,
    witness: list[BandLetter],
    step: Callable[[LeftCanonicalForm], LeftCanonicalForm],
    conjugator: Callable[[LeftCanonicalForm], BraidWord],
) -> LeftCanonicalForm:
    """Iterate one operation until the orbit revisits a form with no gain.

    Each step's conjugator letters are appended to witness.  A repeat without
    an (inf, sup) improvement means further iteration loops forever, and by
    the summit theorems the current value is then optimal for this operation.
    """
    seen: set[LeftCanonicalForm] = set()
    while form.factors:
        if form in seen:
            break
        seen.add(form)
        before = (form.power, form.sup)
        witness += conjugator(form).letters
        form = step(form)
        if (form.power, form.sup) != before:
            seen.clear()
    return form


def sss_representative(w: Union[BraidWord, LeftCanonicalForm]) -> SummitData:
    """A conjugate attaining inf and sup of the conjugacy class simultaneously.

    Accepts the word or its normal form, so a caller that already holds
    lcf(w) does not recompute it.
    """
    form = w if isinstance(w, LeftCanonicalForm) else lcf(w)
    witness: list[BandLetter] = []
    while True:
        before = (form.power, form.sup)
        form = _improvement_phase(form, witness, cycling, cycling_conjugator)
        form = _improvement_phase(form, witness, decycling, decycling_conjugator)
        if (form.power, form.sup) == before:
            break
    return SummitData(form, form.inf, form.sup, BraidWord(w.n, tuple(witness)))


def sss_enumerate(
    data: SummitData, budget: Optional[int] = None
) -> frozenset[LeftCanonicalForm]:
    """Close the representative under canonical-factor conjugation.

    Keeps exactly the conjugates with (inf, sup) = (inf_conj, sup_conj); the
    closure is the full super summit set, independent of the representative.
    """
    if data.sss is not None:
        return data.sss
    limit = default_budget() if budget is None else budget
    if limit < 1:
        source = BUDGET_ENV_VAR if budget is None else "budget"
        raise ValueError(f"{source} must be at least 1, got {limit}")
    n = data.representative.n
    target = (data.inf_conj, data.sup_conj)
    conjugators = [
        (f, complement(f), factor_to_word(f))
        for f in enumerate_factors(n)
        if not f.is_identity
    ]
    witnesses: dict[LeftCanonicalForm, BraidWord] = {data.representative: BraidWord(n)}
    queue = [data.representative]
    while queue:
        current = queue.pop()
        base_witness = witnesses[current]
        for f, f_complement, fw in conjugators:
            # delta^-1 tau^-1(complement(f)) delta^p X = delta^(p-1) tau^(p-1)(complement(f)) X
            right = right_multiply(current, f)
            candidate = left_multiply(
                f_complement, LeftCanonicalForm(n, right.power - 1, right.factors)
            )
            if (candidate.power, candidate.sup) != target or candidate in witnesses:
                continue
            if len(witnesses) >= limit:
                raise BudgetExceededError(len(witnesses), limit)
            witnesses[candidate] = base_witness * fw
            queue.append(candidate)
    data.sss = frozenset(witnesses)
    data.sss_witnesses = witnesses
    return data.sss


@dataclass(frozen=True)
class ConjugacyResult:
    conjugate: bool
    witness: Optional[BraidWord]
    sss_size_a: int
    sss_size_b: int


def are_conjugate(
    w1: BraidWord, w2: BraidWord, budget: Optional[int] = None
) -> ConjugacyResult:
    """Decide conjugacy by intersecting super summit sets; with witness.

    The witness v satisfies lcf(v^-1 w1 v) = lcf(w2).
    """
    if w1.n != w2.n:
        raise ValueError(f"mismatched strand counts {w1.n} and {w2.n}")
    rep1 = sss_representative(w1)
    rep2 = sss_representative(w2)
    if writhe(w1) != writhe(w2) or (rep1.inf_conj, rep1.sup_conj) != (
        rep2.inf_conj,
        rep2.sup_conj,
    ):
        size1 = len(sss_enumerate(rep1, budget))
        size2 = len(sss_enumerate(rep2, budget))
        return ConjugacyResult(False, None, size1, size2)
    sss1 = sss_enumerate(rep1, budget)
    if rep2.representative in sss1:
        path = rep1.sss_witnesses[rep2.representative]
        witness = rep1.witness * path * rep2.witness.inverse()
        return ConjugacyResult(True, witness, len(sss1), len(sss1))
    size2 = len(sss_enumerate(rep2, budget))
    return ConjugacyResult(False, None, len(sss1), size2)
