"""The in-place passes against the tuple-copying ones they replaced (tests/pass_reference.py).

Every comparison is exact: forms, summit representatives with their witness
steps, and super summit sets with their steps in walk order.  The words are
seeded, and half of them are v^-1 w v with a long, mostly positive v, whose
summit search raises inf step after step, each time by a delta formed at
the back.
"""

import random

import pytest

import pass_reference as ref
from bandforge.conjugacy import cycling, decycling, sss_enumerate, sss_representative
from bandforge.factors import enumerate_factors
from bandforge.normal_form import (
    LeftCanonicalForm,
    _right_pass,
    lcf,
    left_divide,
    left_multiply,
    right_multiply,
)

from conftest import random_braid_word


def seeded_words(n, count, max_len, seed):
    """count words at n: even ones random, odd ones conjugated by a 20-80 letter v."""
    rng = random.Random(seed)
    words = []
    for i in range(count):
        w = random_braid_word(n, rng.randint(0, max_len), rng, neg=0.4)
        if i % 2:
            w = w.conjugated_by(random_braid_word(n, rng.randint(20, 80), rng, neg=0.1))
        words.append(w)
    return words


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 12])
def test_forms_and_summits(n):
    for w in seeded_words(n, 40, 30, 6101 * n):
        form = lcf(w)
        assert form == ref.lcf(w), w.render()
        assert sss_representative(w) == ref.sss_representative(w), w.render()
        assert cycling(form) == ref.cycling(form)
        assert decycling(form) == ref.decycling(form)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_every_factor_both_ways(n):
    rng = random.Random(6151 * n)
    forms = [lcf(w) for w in seeded_words(n, 10, 12, 6151 * n)]
    forms += [LeftCanonicalForm(n, rng.randint(-3, 3), f.factors) for f in forms]
    for form in forms:
        for f in enumerate_factors(n):
            assert right_multiply(form, f) == ref.right_multiply(form, f)
            assert left_multiply(f, form) == ref.left_multiply(f, form)
            assert left_divide(f, form) == ref.left_divide(f, form)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_delta_formed_mid_pass(n):
    # A delta that forms in the right pass with factors on both sides of it:
    # those in front are rotated, not stepped through.
    found = 0
    for w in seeded_words(n, 40, 16, 6203 * n):
        form = lcf(w)
        for f in enumerate_factors(n):
            fs = list(form.factors)
            j = _right_pass(fs, f)
            if j is not None and 0 < j < len(fs):
                found += 1
                assert right_multiply(form, f) == ref.right_multiply(form, f)
    assert found >= 10


@pytest.mark.parametrize("n, count, max_len", [(3, 30, 10), (4, 30, 10), (5, 12, 8), (6, 4, 8)])
def test_closure_elements_steps_and_order(n, count, max_len):
    for w in seeded_words(n, count, max_len, 6257 * n):
        data = sss_representative(w)
        elements = sss_enumerate(data)
        expected = ref.sss_enumerate(data)
        assert list(elements.items()) == list(expected.items()), w.render()
