"""Super summit closures kept as differential references.

The library closes the super summit set in factor space, one element per
tau-orbit, and rejects a conjugator on inf after the right multiplication.
Two closures it replaced stay here:

- sss_enumerate_by_words expands every element back into a word, conjugates
  that word by each factor's word and re-runs lcf;
- sss_enumerate_per_element conjugates in factor space but expands every
  element and builds every candidate with both multiplications.

All three must agree on the set.  Witnesses are not unique, so the
references keep none, and tests re-check the library's by lcf.
"""

from __future__ import annotations

from bandforge.conjugacy import BudgetExceededError, SummitData
from bandforge.factors import complement, enumerate_factors, factor_to_word
from bandforge.normal_form import (
    LeftCanonicalForm,
    lcf,
    lcf_to_word,
    left_multiply,
    right_multiply,
)


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
