"""Class answers are class invariants: beta and each conjugate of it agree.

Seeded words beta, 25 each at n = 3-5 and 12 at n = 6 (whose summit sets
run to thousands of elements), each of 4-10 letters with 1-3 negative ones,
are paired with v^-1 beta v, for a short v (1-3 letters) or a long one
(15-25 letters), and with delta^-1 beta delta.  Every answer about the
conjugacy class must be the same for both members of a pair.  nb_class is
compared only for n <= 4: for n >= 5 it is the count at whichever summit
element the search lands on, which differs between conjugates.
"""

import random
from functools import cache

import pytest

from bandforge import FdtcInterval, are_conjugate, braid_report, lcf, sss_enumerate
from bandforge.words import BraidWord, delta_word

from conftest import random_letters

WORDS_PER_N = {3: 25, 4: 25, 5: 25, 6: 12}


def _word(n: int, rng: random.Random) -> BraidWord:
    letters = list(random_letters(n, rng.randint(4, 10), rng))
    for i in rng.sample(range(len(letters)), rng.randint(1, 3)):
        letters[i] = letters[i].inverse()
    return BraidWord(n, tuple(letters))


@pytest.fixture(scope="module", params=range(3, 7), ids=lambda n: f"n{n}")
def pairs(request):
    """(beta, conjugate, report of beta, report of the conjugate), two pairs per beta."""
    n = request.param
    rng = random.Random(2700 + n)
    out = []
    for i in range(WORDS_PER_N[n]):
        beta = _word(n, rng)
        report = braid_report(beta)
        length = rng.randint(15, 25) if i % 2 else rng.randint(1, 3)
        v = BraidWord(n, random_letters(n, length, rng, neg=0.5))
        for gamma in (beta.conjugated_by(v), beta.conjugated_by(delta_word(n))):
            out.append((beta, gamma, report, braid_report(gamma)))
    return out


def test_class_answers_agree(pairs):
    summit_set = cache(lambda report: frozenset(sss_enumerate(report.summit)))
    for beta, gamma, a, b in pairs:
        where = f"{beta.render()} ~ {gamma.render()}"
        assert a.conj_sqp == b.conj_sqp, where
        assert a.fdtc == b.fdtc, where
        assert a.strictly_asqp.holds == b.strictly_asqp.holds, where
        assert a.summit.inf_conj == b.summit.inf_conj, where
        assert a.summit.sup_conj == b.summit.sup_conj, where
        assert summit_set(a) == summit_set(b), where
        if beta.n <= 4:
            assert a.nb_class == b.nb_class, where


def test_conjugate_both_ways_with_checked_witness(pairs):
    for beta, gamma, _, _ in pairs:
        for x, y in ((beta, gamma), (gamma, beta)):
            result = are_conjugate(x, y)
            assert result.conjugate, f"{x.render()} ~ {y.render()}"
            assert lcf(x.conjugated_by(result.witness)) == lcf(y), f"{x.render()} ~ {y.render()}"


def test_inverse_negates_fdtc(pairs):
    for beta, _, a, _ in pairs[::2]:
        negated = FdtcInterval(-a.fdtc.upper, -a.fdtc.lower)
        assert braid_report(beta.inverse()).fdtc == negated, beta.render()


def test_certificates_recheck(pairs):
    checked = 0
    for beta, gamma, a, b in pairs:
        for w, report in ((beta, a), (gamma, b)):
            verdict = report.strictly_asqp
            if not verdict.holds:
                continue
            certificate = verdict.certificate
            assert lcf(w.conjugated_by(certificate.conjugator)) == lcf(certificate.word), w.render()
            assert sum(l.sign < 0 for l in certificate.word.letters) == 1, w.render()
            checked += 1
    assert checked
