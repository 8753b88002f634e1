"""The label/permutation array kernel against the block-based reference kernel.

complement, meet, precedes and tau read each factor's label and permutation
arrays; transfer_reference keeps the block-based versions they replaced.
Every result must be the very same interned object, and every factor's
arrays must agree with its blocks.  complement is computed afresh, its slot
on the factor cleared first, so that a kept result cannot answer in its
place; tau and precedes keep no memo.

The arrays are the factor: its blocks are grouped by label only when first
read, and lcf() never reads them.

Only factor() scans for crossing blocks, so every other kernel result must
be non-crossing by construction: each is checked to be, and to be the factor
that factor() builds from its blocks.

A Hypothesis property draws factors of lcf words at n = 8..64, and their
complements, and checks the kernel and left_weight_pair against the
references; one seeded word checks the largest strand count, n = 255.

The intern table forgets what only it holds: memory stays flat over a long
run, and concurrent readers agree while the table is swept under them.
"""

import copy
import pickle
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bandforge import factors
from bandforge.factors import (
    _INTERN,
    _crossing,
    complement,
    enumerate_factors,
    factor,
    gen_factor,
    meet,
    precedes,
    tau,
)
from bandforge.normal_form import lcf, lcf_to_word, left_weight_pair
from bandforge.words import MAX_STRANDS, BandLetter, BraidWord, permutation, writhe

from conftest import all_chords, random_braid_word
from transfer_reference import (
    reference_complement,
    reference_meet,
    reference_precedes,
    reference_tau,
    transfer_left_weight_pair,
)


def fresh_complement(a):
    """complement(a) computed anew, not read from the factor's slot."""
    object.__setattr__(a, "_complement", None)
    return complement(a)


def _assert_arrays(f):
    """label[k] = least element of k's block; perm[k] = its predecessor, cyclically.

    The tails are the other elements, in increasing order.  All three are
    bytes, and the factor is interned under its permutation.  The blocks
    are sorted, in order of least element, and share out 1..n by label; the
    flags agree with them.
    """
    label, perm = [0] * (f.n + 1), [0] * (f.n + 1)
    for block in f.blocks:
        for i, x in enumerate(block):
            label[x] = min(block)
            perm[x] = block[i - 1]
    assert f._label == bytes(label) and f._perm == bytes(perm), f.text()
    assert f._tails == bytes(sorted(x for b in f.blocks for x in b[1:])), f.text()
    assert _INTERN[f._perm] is f, f.text()
    assert sorted(x for b in f.blocks for x in b) == list(range(1, f.n + 1)), f.text()
    assert all(list(b) == sorted(b) for b in f.blocks), f.text()
    assert [b[0] for b in f.blocks] == sorted(set(f._label[1:])), f.text()
    count = len(f.blocks)
    assert f.word_length == f.n - count, f.text()
    assert f.is_identity == (count == f.n), f.text()
    assert f.is_delta == (count == 1 and f.n >= 2), f.text()


def _assert_single(a):
    _assert_arrays(a)
    c = fresh_complement(a)
    assert c is reference_complement(a), a.text()
    _assert_arrays(c)
    for shift in range(1, a.n):
        t = tau(a, shift)
        assert t is reference_tau(a, shift), (a.text(), shift)
        _assert_arrays(t)


def _assert_pair(a, b):
    m = meet(a, b)
    assert m is reference_meet(a, b), (a.text(), b.text())
    _assert_arrays(m)
    assert precedes(a, b) is reference_precedes(a, b), (a.text(), b.text())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_all_factors_and_pairs(n):
    factors = enumerate_factors(n)
    for a in factors:
        _assert_single(a)
        for b in factors:
            _assert_pair(a, b)


def test_precedes_mismatched_strand_counts():
    with pytest.raises(ValueError, match="mismatched strand counts 3 and 4"):
        precedes(enumerate_factors(3)[1], enumerate_factors(4)[1])


@pytest.mark.parametrize("n", [12, 16])
def test_sampled_lcf_factors(n):
    rng = random.Random(6151 * n)
    pool = sorted(
        {f for _ in range(8) for f in lcf(random_braid_word(n, 30, rng, neg=0.3)).factors},
        key=lambda f: f.blocks,
    )
    for a in pool:
        _assert_single(a)
    related = 0
    for _ in range(400):
        a, b = rng.choice(pool), rng.choice(pool)
        _assert_pair(a, b)
        _assert_pair(a, fresh_complement(b))
        related += not meet(a, b).is_identity
    # The sample must hold pairs with a nontrivial meet, not only e.
    assert related >= 40


fresh_left_weight_pair = left_weight_pair.__wrapped__


def _assert_non_crossing(results):
    for f in results:
        assert _crossing(f._label) is None, f._label
        assert factor(f.n, f.blocks) is f, f.text()


def _kernel_results(a, others):
    """a's complement and rotations, and its meet and left weighting with each of others."""
    results = {fresh_complement(a), *(tau(a, shift) for shift in range(1, a.n))}
    for b in others:
        results.add(meet(a, b))
        results.update(fresh_left_weight_pair(a, b))
    return results


def test_kernel_results_non_crossing_all_pairs():
    factors = enumerate_factors(7)
    results = set().union(*(_kernel_results(a, factors) for a in factors))
    _assert_non_crossing(results)
    assert results == set(factors)


@given(st.data())
def test_kernel_results_non_crossing_lcf_factors(data):
    n = data.draw(st.integers(8, 16), label="n")
    letters = st.tuples(st.sampled_from(all_chords(n)), st.sampled_from((1, -1)))
    drawn = data.draw(st.lists(letters, min_size=1, max_size=30), label="letters")
    w = BraidWord(n, tuple(BandLetter(t, s, sign) for (t, s), sign in drawn))
    fs = lcf(w).factors
    _assert_non_crossing(fs)
    others = fs + tuple(map(complement, fs))
    for a in fs:
        _assert_non_crossing(_kernel_results(a, others))


@settings(max_examples=60)
@given(st.data())
def test_kernel_matches_reference_on_lcf_factors(data):
    n = data.draw(st.integers(8, 64), label="n")
    letters = st.tuples(st.sampled_from(all_chords(n)), st.sampled_from((1, -1)))
    drawn = data.draw(st.lists(letters, min_size=1, max_size=30), label="letters")
    fs = lcf(BraidWord(n, tuple(BandLetter(t, s, sign) for (t, s), sign in drawn))).factors
    assume(fs)
    pool = st.sampled_from(fs + tuple(map(complement, fs)))
    for a, b in data.draw(st.lists(st.tuples(pool, pool), min_size=1, max_size=6), label="pairs"):
        assert fresh_left_weight_pair(a, b) == transfer_left_weight_pair(a, b), (a.text(), b.text())
        assert fresh_complement(a) is reference_complement(a), a.text()
        assert meet(a, b) is reference_meet(a, b), (a.text(), b.text())
        assert precedes(a, b) is reference_precedes(a, b), (a.text(), b.text())
        shift = data.draw(st.integers(1, n - 1), label="shift")
        assert tau(a, shift) is reference_tau(a, shift), (a.text(), shift)


def test_largest_strand_count():
    # A byte holds every label and permutation entry up to n = 255.
    n = MAX_STRANDS
    w = random_braid_word(n, 60, random.Random(255), neg=0.3)
    form = lcf(w)
    form.validate()
    assert form.factors and form.power < 0
    word = lcf_to_word(form)
    assert permutation(word) == permutation(w) and writhe(word) == writhe(w)
    f = max(form.factors, key=lambda f: f.word_length)
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f


def test_strand_count_above_a_byte():
    message = f"strand count must be in 1..{MAX_STRANDS}, got {MAX_STRANDS + 1}"
    with pytest.raises(ValueError, match=message):
        lcf(BraidWord(MAX_STRANDS + 1, (BandLetter(2, 1, 1),)))
    with pytest.raises(ValueError, match=message):
        factor(MAX_STRANDS + 1, ())
    with pytest.raises(ValueError, match=message):
        gen_factor(MAX_STRANDS + 1, 2, 1)


def test_empty_word_above_a_byte():
    # The bound is checked before the first letter, so an empty word is no exception.
    message = f"strand count must be in 1..{MAX_STRANDS}, got {MAX_STRANDS + 1}"
    with pytest.raises(ValueError, match=message):
        lcf(BraidWord(MAX_STRANDS + 1, ()))


def _words(seed, count):
    rng = random.Random(seed)
    return [random_braid_word(12, 40, rng, neg=0.3) for _ in range(count)]


def test_lcf_builds_no_blocks():
    before = set(_INTERN)
    forms = [lcf(w) for w in _words(8807, 20)]
    new = [f for label, f in _INTERN.items() if label not in before]
    assert new
    assert all(f._blocks is None for f in new)
    for form in forms:
        form.text()
        assert all(f._blocks is not None for f in form.factors)


def test_factors_are_frozen():
    f = factor(5, [(1, 3, 4)])
    for name, value in (("n", 4), ("_label", f._label), ("is_delta", True), ("_blocks", ())):
        with pytest.raises(FrozenInstanceError):
            setattr(f, name, value)
    assert f.text() == "{1,3,4}" and f.word_length == 2 and not f.is_delta


def test_concurrent_readers_agree(monkeypatch):
    words = _words(9311, 30)
    sweep, sizes = factors._sweep, []

    def sweep_often():
        # However much the table keeps, sweep again after 64 more entries.
        sweep()
        sizes.append(len(_INTERN))
        factors._sweep_above = len(_INTERN) + 64

    # Start from a swept table and an empty pair memo, so that the threads
    # build their factors afresh under the trigger, whatever earlier tests
    # left interned: the first sweep comes after 64 misses, not after most
    # of the words are done.
    left_weight_pair.cache_clear()
    sweep()
    monkeypatch.setattr(factors, "_SWEEP_FLOOR", 0)
    monkeypatch.setattr(factors, "_sweep_above", len(_INTERN) + 64)
    monkeypatch.setattr(factors, "_sweep", sweep_often)

    def read(w):
        form = lcf(w)
        return form.power, form.factors, form.text()

    # Switch threads often, so that they meet inside interning, sweeps and first block reads.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = [pool.submit(lambda: [read(w) for w in words]) for _ in range(4)]
            results = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert len(sizes) >= 10, sizes
    for result in results:
        for _, fs, _ in result:
            assert all(_INTERN[f._perm] is f for f in fs)
    single = [read(w) for w in words]
    assert all(result == single for result in results)


def test_sweep_frees_complement_cycles():
    # Repeated complements return to the start after 2n steps, so their links
    # form a cycle; the sweep clears the links, and the cycle goes with them.
    f = start = factor(40, [(3, 17, 29), (30, 38)])
    perms = []
    for _ in range(80):
        f = complement(f)
        perms.append(f._perm)
    assert f is start and len(set(perms)) == 80
    del f, start
    factors._sweep()
    assert not any(p in _INTERN for p in perms)


def _long_word(rng):
    """A word on 12 strands of 100 letters, exactly 30 of them negative."""
    letters = list(random_braid_word(12, 100, rng).letters)
    for i in rng.sample(range(100), 30):
        letters[i] = letters[i].inverse()
    return BraidWord(12, tuple(letters))


def test_memory_stays_flat():
    # A long-lived process: once warm, more words do not grow the heap.  The
    # intern table fills and is swept in turn, so the heap after the warm-up
    # is held against the highest it reached during it.
    rng = random.Random(4421)
    words = [_long_word(rng) for _ in range(400)]
    tracemalloc.start()
    try:
        for w in words[:100]:
            lcf(w)
        warm, warm_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for w in words[100:]:
            lcf(w)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - warm < 2 << 20, (warm, after)
    assert peak - warm_peak < 2 << 20, (warm_peak, peak)
