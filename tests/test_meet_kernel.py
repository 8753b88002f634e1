"""The meet kernel against the single-generator transfer reference.

left_weight_pair and diamond are computed from the partition meet and
factor permutations; transfer_reference keeps the chord-set transfer loop
and the lcf-based diamond they replaced.  The pair kernel is called through
__wrapped__ so that its memo table cannot answer in its place.  meet and the
pair kernel share one pass over the label pairs, which is checked against
the block intersections directly.
"""

import random

import pytest

from bandforge.factors import _meet_perm, complement, diamond, enumerate_factors, meet
from bandforge.normal_form import lcf, left_weight_pair

from conftest import random_braid_word
from transfer_reference import (
    lcf_diamond,
    reference_meet,
    right_set,
    starting_set,
    transfer_left_weight_pair,
)

kernel = left_weight_pair.__wrapped__


def _assert_agrees(a, b):
    assert kernel(a, b) == transfer_left_weight_pair(a, b), (a.text(), b.text())
    increasable = bool(right_set(a) & starting_set(b))
    assert (not meet(complement(a), b).is_identity) == increasable, (a.text(), b.text())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_meet_pass_all_pairs(n):
    # The pass gives the permutation of the common refinement, or None for e.
    factors = enumerate_factors(n)
    for a in factors:
        for b in factors:
            expected = reference_meet(a, b)
            assert meet(a, b) is expected, (a.text(), b.text())
            perm = _meet_perm(a._label, b._label, b._tails)
            assert perm == (None if expected.is_identity else expected._perm), (a.text(), b.text())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_left_weight_pair_all_pairs(n):
    factors = enumerate_factors(n)
    for a in factors:
        for b in factors:
            _assert_agrees(a, b)
            # The kernel's first factor skips diamond's prefix test; it must agree.
            c = meet(complement(a), b)
            if not c.is_identity:
                assert kernel(a, b)[0] == diamond(a, c), (a.text(), b.text())


@pytest.mark.parametrize("n", [12, 16])
def test_left_weight_pair_sampled_lcf_factors(n):
    rng = random.Random(7919 * n)
    pool = sorted(
        {f for _ in range(8) for f in lcf(random_braid_word(n, 30, rng, neg=0.3)).factors},
        key=lambda f: f.blocks,
    )
    increasable = 0
    for _ in range(400):
        a, b = rng.choice(pool), rng.choice(pool)
        _assert_agrees(a, b)
        increasable += not meet(complement(a), b).is_identity
    # The sample must exercise the transfer, not only already weighted pairs.
    assert 40 <= increasable <= 360


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_diamond_matches_lcf_shape(n):
    factors = enumerate_factors(n)
    for a in factors:
        for b in factors:
            assert diamond(a, b) == lcf_diamond(a, b), (a.text(), b.text())
