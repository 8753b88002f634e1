"""The word-based super summit closure, kept as a differential reference.

The library closes the super summit set in factor space; this is the
closure it replaced, which expands every element back into a word,
conjugates that word by each factor's word and re-runs lcf.  Both visit
the conjugators in the same order from a LIFO queue, so they must agree on
the set, on the witnesses and on the order the witnesses were found in.
"""

from __future__ import annotations

from bandforge.conjugacy import BudgetExceededError, SummitData
from bandforge.factors import enumerate_factors, factor_to_word
from bandforge.normal_form import LeftCanonicalForm, lcf, lcf_to_word
from bandforge.words import BraidWord


def sss_enumerate_by_words(
    data: SummitData, limit: int = 100_000
) -> tuple[frozenset[LeftCanonicalForm], dict[LeftCanonicalForm, BraidWord]]:
    """(super summit set, witnesses from the representative); data is not modified."""
    n = data.representative.n
    target = (data.inf_conj, data.sup_conj)
    conjugators = [factor_to_word(f) for f in enumerate_factors(n) if not f.is_identity]
    witnesses: dict[LeftCanonicalForm, BraidWord] = {data.representative: BraidWord(n)}
    queue = [data.representative]
    while queue:
        current = queue.pop()
        base = lcf_to_word(current)
        base_witness = witnesses[current]
        for aw in conjugators:
            candidate = lcf(base.conjugated_by(aw))
            if (candidate.power, candidate.sup) != target or candidate in witnesses:
                continue
            if len(witnesses) >= limit:
                raise BudgetExceededError(len(witnesses), limit)
            witnesses[candidate] = base_witness * aw
            queue.append(candidate)
    return frozenset(witnesses), witnesses
