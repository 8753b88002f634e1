"""The stepwise negative-band reduction, kept as a reference for positivity.reduce.

reduce_once trades one leading delta^-1 against a longest positive entry,
chosen among the equally long ones by a tie-break; reduce_stepwise repeats
it until the form is terminal.  With the leftmost tie-break this is the
loop that positivity.reduce replaces by its one-pass rule, and the other
tie-breaks let the tests check that the negative-band count does not
depend on the choice.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

from bandforge.factors import complement, tau
from bandforge.normal_form import LeftCanonicalForm
from bandforge.positivity import ReducedWord


def leftmost_choice(candidates: Sequence[int]) -> int:
    """Default tie-break among maximal-length entries: smallest position."""
    return candidates[0]


def reduce_once(
    rw: ReducedWord, choose: Callable[[Sequence[int]], int] = leftmost_choice
) -> ReducedWord:
    """One reduction step: trade a delta^-1 against a longest positive entry.

    The chosen entry W_k (maximal word length among positive entries) is
    replaced by complement(W_k)^-1; entries to its left rotate by tau and
    the power rises by one.  Terminal forms are returned unchanged.
    """
    if rw.is_terminal:
        return rw
    lengths = [f.word_length if sign > 0 else -1 for f, sign in rw.entries]
    best = max(lengths)
    k = choose([i for i, length in enumerate(lengths) if length == best])
    head = tuple((tau(f), sign) for f, sign in rw.entries[:k])
    swapped = (complement(rw.entries[k][0]), -1)
    return ReducedWord(rw.n, rw.power + 1, head + (swapped,) + rw.entries[k + 1 :])


def reduce_stepwise(
    source: Union[LeftCanonicalForm, ReducedWord],
    choose: Callable[[Sequence[int]], int] = leftmost_choice,
) -> ReducedWord:
    """Iterate reduce_once until terminal (at most |power| steps)."""
    if isinstance(source, LeftCanonicalForm):
        rw = ReducedWord(source.n, source.power, tuple((f, 1) for f in source.factors))
    else:
        rw = source
    while not rw.is_terminal:
        rw = reduce_once(rw, choose)
    return rw
