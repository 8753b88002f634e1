"""Long words end in time linear in their length.

lcf grows its form at the front of a deque, so a pass that stops after i
pairs costs O(i), and the summit search raises the power in O(1) when a
delta forms at the back.  The budgets are wall-clock limits with a wide
margin: on a 2-vCPU machine with Python 3.11, lcf at n = 4, L = 10^5 takes
about 0.16 s and the 60,002-letter classify about 0.3 s, where the
tuple-copying passes took about 11 s and 200 s.
"""

import io
import json
import random
import sys
import time

from bandforge import normal_form
from bandforge.cli import run
from bandforge.conjugacy import sss_representative
from bandforge.normal_form import lcf
from bandforge.words import permutation, writhe

from conftest import random_braid_word

LCF_BUDGET_S = 4.0
CLASSIFY_BUDGET_S = 10.0

#: a(3,1)^-30000 s1 s3 a(3,1)^30000, spelled out letter by letter.
LONG_WORD = " ".join(["A(3,1)"] * 30000 + ["s1", "s3"] + ["a(3,1)"] * 30000)


def test_lcf_of_100000_letters():
    w = random_braid_word(4, 100_000, random.Random(100_000), neg=0.3)
    start = time.perf_counter()
    form = lcf(w)
    elapsed = time.perf_counter() - start
    assert elapsed < LCF_BUDGET_S, elapsed
    form.validate()
    assert form.power * 3 + sum(f.word_length for f in form.factors) == writhe(w)
    assert permutation(normal_form.lcf_to_word(form)) == permutation(w)


def test_classify_60002_letters_from_stdin(monkeypatch):
    # Spelled out, the word is 420 KB, past the 128 KiB one argv string may
    # hold on Linux; "-" reads it from standard input.
    monkeypatch.setattr(sys, "stdin", io.StringIO(LONG_WORD + "\n"))
    out = io.StringIO()
    start = time.perf_counter()
    code = run(["classify", "-n", "4", "-", "--json"], out)
    elapsed = time.perf_counter() - start
    assert code == 0 and elapsed < CLASSIFY_BUDGET_S, (code, elapsed)
    payload = json.loads(out.getvalue())
    # A conjugate of the positive braid s1 s3.
    assert payload["conj_sqp"] is True
    assert payload["nb_class"]["exact"] == 0
    nb = payload["nb"]
    assert nb["lower"] <= nb["exact"] <= nb["upper"]
    powers = io.StringIO()
    assert run(["classify", "-n", "4", "a(3,1)^-30000 s1 s3 a(3,1)^30000", "--json"], powers) == 0
    assert powers.getvalue() == out.getvalue()


class PairSteps:
    """Counts the left_weight_pair calls made in normal_form, up to a cap.

    A pass that went quadratic would make billions of calls on these words,
    so a count past its cap fails at once instead.
    """

    def __init__(self, monkeypatch):
        self.count, self.cap = 0, float("inf")
        inner = normal_form.left_weight_pair

        def counted(a, b):
            self.count += 1
            if self.count > self.cap:
                raise AssertionError(f"more than {self.cap} left-weighting steps")
            return inner(a, b)

        monkeypatch.setattr(normal_form, "left_weight_pair", counted)

    def per_letter(self, run, arg, letters: int) -> float:
        self.count, self.cap = 0, 20 * letters
        try:
            run(arg)
        finally:
            self.cap = float("inf")
        return self.count / letters


def test_pair_steps_per_letter_stay_flat(monkeypatch):
    # Per letter of w for lcf(w), and per letter of v for the summit search of
    # v^-1 beta v, whose inf rises by one every few steps.
    steps = PairSteps(monkeypatch)
    per_letter = {}
    for length in (1_000, 10_000, 100_000):
        rng = random.Random(length)
        w = random_braid_word(4, length, rng, neg=0.3)
        v = random_braid_word(4, length // 2, rng)
        form = lcf(random_braid_word(4, 6, rng, neg=0.3).conjugated_by(v))
        per_letter[length] = (
            steps.per_letter(lcf, w, length),
            steps.per_letter(sss_representative, form, len(v)),
        )
    lcf_small, summit_small = per_letter[1_000]
    for lcf_steps, summit_steps in per_letter.values():
        assert lcf_steps <= 1.5 * lcf_small and summit_steps <= 1.5 * summit_small, per_letter
