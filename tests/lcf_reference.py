"""The letter-by-letter normal form, kept as a reference for lcf.

lcf gathers the word into runs of one sign whose product is a factor and
multiplies each run in with one pass.  This is the fold it replaced: every
letter, last first, is its own left_multiply, or its own left_divide for a
negative letter.  The two must give the same normal form on every word.
"""

from __future__ import annotations

from bandforge.factors import gen_factor
from bandforge.normal_form import LeftCanonicalForm, left_divide, left_multiply
from bandforge.words import BraidWord


def lcf_by_letters(w: BraidWord) -> LeftCanonicalForm:
    """The normal form of w, one multiplication per letter."""
    n = w.n
    form = LeftCanonicalForm(n, 0, ())
    for letter in reversed(w.letters):
        g = gen_factor(n, letter.t, letter.s)
        form = left_multiply(g, form) if letter.sign > 0 else left_divide(g, form)
    return form
