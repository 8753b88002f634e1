"""Summit searches and super summit closures kept as differential references.

The library's summit search stops each phase after n - 1 steps without a
gain, by the cycling theorem.  The search it replaced stays here:

- sss_representative_by_orbit iterates cycling, then decycling, until the
  orbit revisits a form with no (inf, sup) gain, and repeats both phases
  until a round gains nothing.  It needs no bound on how long a gain can
  take, so it checks the bound the library relies on.

The library closes the super summit set in factor space, one element per
tau-orbit, and rejects a conjugator on inf after the right multiplication.
Two closures it replaced stay here:

- sss_enumerate_by_words expands every element back into a word, conjugates
  that word by each factor's word and re-runs lcf;
- sss_enumerate_per_element conjugates in factor space but expands every
  element and builds every candidate with both multiplications.

All three must agree on the set.  Witnesses are not unique, so the
references keep none, and tests re-check the library's by lcf.

The library also tries only minimal conjugators at each node: never delta,
and no factor above a keeper of the node (a factor f with X^f in the set).
The rule is checked node by node against an exhaustive count:

- conjugators_tried conjugates X by every factor other than e and delta,
  collects all the keepers, and returns the factors that no keeper lies
  strictly below, by block containment.  A keeper below f that the library
  skipped has a tried keeper below it in turn, so these are exactly the
  factors the library tries, in enumerate_factors order.

The library's strictly-ASQP test stops at the first super summit element
with a factor of word length n - 2.  The rule it replaced stays here:

- strictly_asqp_by_all enumerates the whole set and holds only when every
  element qualifies.  For n <= 4 the two rules must agree; for n >= 5 a
  True of this rule must stay True.
"""

from __future__ import annotations

from bandforge.conjugacy import (
    BudgetExceededError,
    SummitData,
    cycling,
    decycling,
    sss_enumerate,
)
from bandforge.factors import CanonicalFactor, complement, enumerate_factors, factor_to_word
from bandforge.normal_form import (
    LeftCanonicalForm,
    lcf,
    lcf_to_word,
    left_multiply,
    right_multiply,
)
from bandforge.positivity import StrictAsqpVerdict
from bandforge.words import BraidWord

from pass_reference import cycling_step, decycling_step
from transfer_reference import reference_precedes


def _orbit_phase(form, steps, operation, conjugating_step) -> LeftCanonicalForm:
    """Iterate one operation until the orbit revisits a form with no gain.

    seen is keyed on the factor tuple alone, which is exact: it is cleared
    whenever (power, sup) changes, so every form in it has the same n and
    power, and two such forms are equal exactly when their factors are.
    """
    seen = set()
    while form.factors:
        if form.factors in seen:
            break
        seen.add(form.factors)
        before = (form.power, form.sup)
        steps.append(conjugating_step(form))
        form = operation(form)
        if (form.power, form.sup) != before:
            seen.clear()
    return form


def sss_representative_by_orbit(w: BraidWord) -> SummitData:
    """A super summit element by the orbit-repeat search, with its witness steps."""
    form = lcf(w)
    steps = []
    while True:
        before = (form.power, form.sup)
        form = _orbit_phase(form, steps, cycling, cycling_step)
        form = _orbit_phase(form, steps, decycling, decycling_step)
        if (form.power, form.sup) == before:
            break
    return SummitData(form, tuple(steps))


def sss_enumerate_by_words(data: SummitData, limit: int = 100_000) -> frozenset[LeftCanonicalForm]:
    """The super summit set, each candidate by lcf of a conjugated word; data is not modified."""
    n = data.representative.n
    target = (data.inf_conj, data.sup_conj)
    conjugators = [factor_to_word(f) for f in enumerate_factors(n) if not f.is_identity]
    seen = {data.representative}
    queue = [data.representative]
    while queue:
        base = lcf_to_word(queue.pop())
        for aw in conjugators:
            candidate = lcf(base.conjugated_by(aw))
            if (candidate.power, candidate.sup) != target or candidate in seen:
                continue
            if len(seen) >= limit:
                raise BudgetExceededError(len(seen), limit)
            seen.add(candidate)
            queue.append(candidate)
    return frozenset(seen)


def sss_enumerate_per_element(data: SummitData) -> frozenset[LeftCanonicalForm]:
    """The super summit set, each candidate f^-1 W f built by both multiplications."""
    n = data.representative.n
    target = (data.inf_conj, data.sup_conj)
    conjugators = [(f, complement(f)) for f in enumerate_factors(n) if not f.is_identity]
    seen = {data.representative}
    queue = [data.representative]
    while queue:
        current = queue.pop()
        for f, f_complement in conjugators:
            right = right_multiply(current, f)
            candidate = left_multiply(
                f_complement, LeftCanonicalForm(n, right.power - 1, right.factors)
            )
            if (candidate.power, candidate.sup) == target and candidate not in seen:
                seen.add(candidate)
                queue.append(candidate)
    return frozenset(seen)


def conjugators_tried(form: LeftCanonicalForm, target: tuple[int, int]) -> list[CanonicalFactor]:
    """The factors a node tries under the minimal-conjugator rule, from all its keepers."""
    n = form.n
    keepers = []
    factors = [f for f in enumerate_factors(n) if not (f.is_identity or f.is_delta)]
    for f in factors:
        right = right_multiply(form, f)
        candidate = left_multiply(complement(f), LeftCanonicalForm(n, right.power - 1, right.factors))
        if (candidate.power, candidate.sup) == target:
            keepers.append(f)
    return [f for f in factors if not any(g is not f and reference_precedes(g, f) for g in keepers)]


def strictly_asqp_by_all(data: SummitData) -> StrictAsqpVerdict:
    """The summit criterion over the whole set: every element has inf = -1 and a factor of length n - 2."""
    n = data.representative.n
    if data.inf_conj != -1:
        return StrictAsqpVerdict(False, n <= 4)
    holds = all(
        any(f.word_length == n - 2 for f in element.factors) for element in sss_enumerate(data)
    )
    return StrictAsqpVerdict(holds, n <= 4 or holds)
