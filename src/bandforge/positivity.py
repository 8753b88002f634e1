"""
Quasipositivity classification and negative-band counting.

A braid is strongly quasipositive (SQP) when some band word for it has no
negative letters; that happens exactly when inf >= 0.  Almost strongly
quasipositive (ASQP) allows one negative band and forces inf >= -1, with
inf = -1 in the strict case; the converse needs the super summit criterion
below.  braid_report(w) holds every answer about w, each computed when
first read.

That criterion asks for one super summit element x = delta^-1 A_1 ... A_k
whose closed-form negative-band count (below) is 1.  For n >= 3 that is a
factor A_j of word length n-2: its complement is a single band b, and
delta^-1 A_1 ... A_j = tau(A_1 ... A_{j-1}) b^-1, so
x = tau(A_1 ... A_{j-1}) b^-1 A_{j+1} ... A_k has exactly one negative band;
at n = 2, x = delta^-1 itself.  A qualifying element certifies the class at
every n.  The test walks the set from the summit representative and stops
at the first element that qualifies, which is usually the representative
itself.  Above ENUMERATION_BOUND the walk stops after the representative,
since listing the conjugators tabulates every factor, and the word's own
normal form is then tested, which qualifies it with no conjugator.  Only
there: at n <= 8 the verdict stays a function of the class.  For n <= 4 the
criterion is also necessary, so a False verdict is definitive there; for
n >= 5 it is inconclusive, and at n = 6 it is not necessary:
A(6,3) a(5,3) a(4,3) a(5,2) a(5,4) a(4,1)^2 a(6,3) a(4,1) has inf_s = -1
and one negative band, but all 48 elements of its super summit set count 2.

nb(beta) is the minimal number of negative bands over all band words.  The
reduction trades each leading delta^-1 against a longest positive entry,
which becomes the inverse of its complement; reduce() reads the terminal
mixed word off in one pass.  That word is a shortest word for the braid, so
its negative-letter count *is* nb for n <= 4 (where the underlying
shortest-word theorem is proved) and an upper bound otherwise.  The count is
read off delta^r A_1 ... A_k, r < 0: -r(n-1) minus the sum of the min(-r, k)
largest factor lengths, as each trade saves its factor's length.  With
|inf| <= nb this pins nb between computable bounds; as every factor has
length >= 1, the count is at most (n-2)|inf| - min(0, sup), equal (checked) at n = 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Optional, Union

from .conjugacy import SummitData, _sss_walk, resolve_budget, sss_representative
from .factors import ENUMERATION_BOUND, complement, tau
from .fdtc import FdtcInterval
from .normal_form import (
    LeftCanonicalForm,
    SignedFactor,
    lcf,
    signed_word,
)
from .words import BraidWord


@dataclass(frozen=True)
class ReducedWord:
    """A mixed form delta^power E_1 ... E_m of signed canonical factors.

    Terminal means power >= 0 or every entry is negative; reduce() always
    returns a terminal form.
    """

    n: int
    power: int
    entries: tuple[SignedFactor, ...]

    def __post_init__(self):
        for f, sign in self.entries:
            if f.n != self.n:
                raise ValueError("entry strand count mismatch")
            if f.is_identity or f.is_delta:
                raise ValueError(f"entry {f.text()} must lie strictly between e and delta")
            if sign not in (1, -1):
                raise ValueError(f"entry sign must be +-1, got {sign}")

    @property
    def is_terminal(self) -> bool:
        return self.power >= 0 or all(sign < 0 for _, sign in self.entries)

    def to_word(self) -> BraidWord:
        return signed_word(self.n, self.power, self.entries)

    def text(self) -> str:
        parts = [f"d^{self.power}"] if self.power else []
        parts += [f.text() + ("" if sign > 0 else "^-1") for f, sign in self.entries]
        return " · ".join(parts) if parts else "e"


def reduce(source: Union[LeftCanonicalForm, ReducedWord]) -> ReducedWord:
    """The terminal form of delta^power E_1 ... E_m, read off in one pass.

    A trade turns a leading delta^-1 and a longest positive entry E into
    complement(E)^-1, rotates the entries to its left by tau and raises the
    power by one; trades go on until the form is terminal.  As a trade
    rotates only entries to its left, tau keeps word length and a traded
    entry turns negative, the picks are fixed in advance: the
    min(-power, #positive) longest positive entries, leftmost first among
    equals.  An entry with r picks to its right is rotated r times, so, as
    complement commutes with tau, it ends as tau^r(E), or as
    tau^r(complement(E))^-1 if picked.
    """
    is_form = isinstance(source, LeftCanonicalForm)
    entries = tuple((f, 1) for f in source.factors) if is_form else source.entries
    positive = [i for i, (_, sign) in enumerate(entries) if sign > 0]
    trades = max(0, min(-source.power, len(positive)))
    # sorted is stable: among equal lengths the leftmost entry comes first.
    traded = set(sorted(positive, key=lambda i: -entries[i][0].word_length)[:trades])
    out: list[SignedFactor] = []
    r = 0  # picks to the right of entry i
    for i in reversed(range(len(entries))):
        f, sign = entries[i]
        out.append((tau(complement(f), r), -1) if i in traded else (tau(f, r), sign))
        r += i in traded
    return ReducedWord(source.n, source.power + trades, tuple(reversed(out)))


def count_negative_bands(x: Union[BraidWord, ReducedWord]) -> int:
    """Negative letters of a word, or of the expansion of a reduced form.

    For a terminal form with power < 0 every entry is negative and each
    delta^-1 contributes n-1 letters: count = |power|(n-1) + sum of entry
    lengths.
    """
    if isinstance(x, BraidWord):
        return sum(1 for l in x.letters if l.sign < 0)
    delta_part = (-x.power) * (x.n - 1) if x.power < 0 else 0
    return delta_part + sum(f.word_length for f, sign in x.entries if sign < 0)


@dataclass(frozen=True)
class NbReport:
    """Bounds (and, for n <= 4, the exact value) of the negative band number."""

    nb_lower: int
    nb_upper: int
    nb_exact: Optional[int]
    negative_band_count_of_reduced: int

    def __post_init__(self):
        if self.nb_exact is not None and not self.nb_lower <= self.nb_exact <= self.nb_upper:
            raise ValueError(f"inconsistent bounds {self}")

    def to_json(self) -> dict:
        return {
            "lower": self.nb_lower,
            "upper": self.nb_upper,
            "exact": self.nb_exact,
            "reduced_negative_bands": self.negative_band_count_of_reduced,
        }


def _nb_from_form(form: LeftCanonicalForm) -> NbReport:
    n, inf = form.n, form.inf
    if inf >= 0:
        return NbReport(0, 0, 0, 0)
    # The negative letters of reduce(form): see the module docstring.
    lengths = sorted((f.word_length for f in form.factors), reverse=True)
    reduced_count = -inf * (n - 1) - sum(lengths[:-inf])
    if n == 3 and reduced_count != (formula := -inf - min(0, form.sup)):
        raise RuntimeError(
            f"reduction count {reduced_count} disagrees with the 3-braid formula {formula}"
        )
    exact = reduced_count if n <= 4 else None
    return NbReport(-inf, reduced_count, exact, reduced_count)


@dataclass(frozen=True)
class AsqpCertificate:
    """Proof that a braid beta is conjugate to a braid with one negative band.

    conjugator_steps spell v, and form spells a word x with exactly one
    negative letter, such that lcf(v^-1 beta v) = lcf(x).  Both stay signed
    factors until read: conjugator and word spell them through signed_word,
    and the conjugator's letters are then freely reduced.
    """

    conjugator_steps: tuple[SignedFactor, ...]
    form: ReducedWord

    @property
    def conjugator(self) -> BraidWord:
        return signed_word(self.form.n, 0, self.conjugator_steps).freely_reduced()

    @property
    def word(self) -> BraidWord:
        return self.form.to_word()


@dataclass(frozen=True)
class StrictAsqpVerdict:
    """Outcome of the strictly-ASQP conjugacy test.

    holds: some super summit element (above ENUMERATION_BOUND: the summit
    representative or the word's own normal form) has closed-form
    negative-band count 1 (module docstring), so it spells a word with one
    negative band; holding is definitive at every n and comes with the
    certificate.  For n <= 4 the criterion is also necessary, so False is
    definitive too; for n >= 5 a False verdict is inconclusive.
    """

    holds: bool
    definitive: bool
    certificate: Optional[AsqpCertificate] = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class BraidReport:
    """Every answer about one braid, from its normal form and one summit search.

    Build it with braid_report().  Each answer is computed on first read and
    then kept: sqp, asqp_necessary and nb read only form; conj_sqp, nb_class
    and fdtc read summit; strictly_asqp alone walks the super summit set,
    within budget elements.
    """

    form: LeftCanonicalForm
    budget: int

    @cached_property
    def summit(self) -> SummitData:
        return sss_representative(self.form)

    @cached_property
    def sqp(self) -> bool:
        """Strongly quasipositive: inf >= 0."""
        return self.form.inf >= 0

    @cached_property
    def conj_sqp(self) -> bool:
        """Conjugate to an SQP braid: inf over the conjugacy class >= 0."""
        return self.summit.inf_conj >= 0

    @cached_property
    def asqp_necessary(self) -> bool:
        """The necessary ASQP condition inf >= -1.

        One negative band contributes at most one delta^-1, so every ASQP braid
        passes; the converse fails in general (nb can exceed 1 at inf = -1).
        """
        return self.form.inf >= -1

    @cached_property
    def nb(self) -> NbReport:
        """Negative-band bounds for the braid itself."""
        return _nb_from_form(self.form)

    @cached_property
    def nb_class(self) -> NbReport:
        """Negative-band bounds for the conjugacy class, from the summit representative.

        Exact for n = 3 (closed formula in inf and sup of the class) and n = 4
        (reduction of a summit representative gives a shortest conjugate word).
        """
        return _nb_from_form(self.summit.representative)

    @cached_property
    def fdtc(self) -> FdtcInterval:
        """The interval [inf[beta]/n, sup[beta]/n] around the FDTC."""
        n, data = self.form.n, self.summit
        return FdtcInterval(Fraction(data.inf_conj, n), Fraction(data.sup_conj, n))

    @cached_property
    def strictly_asqp(self) -> StrictAsqpVerdict:
        """Conjugacy to a braid with exactly one negative band.

        Walks the super summit set from the representative and stops at the
        first element whose closed-form negative-band count is 1.  Above
        ENUMERATION_BOUND it tests the representative, then the word's own
        normal form.
        """
        data = self.summit
        if data.inf_conj == -1:
            past_bound = self.form.n > ENUMERATION_BOUND
            walk = _sss_walk(data, self.budget)
            for element, steps in islice(walk, 1) if past_bound else walk:
                if _nb_from_form(element).nb_upper == 1:
                    # reduce makes the one trade, at the leftmost longest factor.
                    certificate = AsqpCertificate(data.witness_steps + steps, reduce(element))
                    return StrictAsqpVerdict(True, True, certificate)
            if past_bound and _nb_from_form(self.form).nb_upper == 1:
                return StrictAsqpVerdict(True, True, AsqpCertificate((), reduce(self.form)))
        return StrictAsqpVerdict(False, self.form.n <= 4)


def braid_report(w: BraidWord, budget: Optional[int] = None) -> BraidReport:
    """The report on w: lcf(w) and the checked budget now, each answer when first read."""
    return BraidReport(lcf(w), resolve_budget(budget))
