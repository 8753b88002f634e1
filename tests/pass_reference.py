"""The tuple-copying multiplication passes, kept as a differential reference.

The library multiplies a normal form by a factor in place, on a mutable
factor list: a left pass from the front, a right pass from the back that
stops where a delta forms, lcf on a deque, and the summit search on a deque
whose factors are held in a frame rotated by the count of deltas carried.
This is the path it replaced, in which every pass copies the whole factor
tuple and a delta formed at the back is carried to the front through every
factor, one left-weighting step per factor.  Both must give the same forms,
summit representatives and witness steps on every input, and the closure
below, which builds both multiplications' forms for every trial, must give
the same elements, steps and order as the library's.
"""

from __future__ import annotations

from bandforge.conjugacy import SummitData, _conjugators_above
from bandforge.factors import (
    CanonicalFactor,
    complement,
    delta_factor,
    enumerate_factors,
    precedes,
    tau,
)
from bandforge.normal_form import LeftCanonicalForm, SignedFactor, _runs, left_weight_pair
from bandforge.words import BraidWord, check_strand_count


def left_pass(g: CanonicalFactor, form: LeftCanonicalForm) -> LeftCanonicalForm:
    """The normal form of delta^r g A_1 ... A_k, for form = delta^r A_1 ... A_k."""
    n = form.n
    fs = form.factors
    out: list[CanonicalFactor] = []
    i = 0
    while i < len(fs) and not g.is_identity:
        d, b = left_weight_pair(g, fs[i])
        if d is g:  # a weighted pair: nothing to its right changes
            break
        out.append(d)
        g = b
        i += 1
    if not g.is_identity:
        out.append(g)
    out += fs[i:]
    # g <= delta, so inf(g * form) <= inf(form) + 1: at most one delta, at the front.
    if out and out[0].is_delta:
        return LeftCanonicalForm(n, form.power + 1, tuple(out[1:]))
    return LeftCanonicalForm(n, form.power, tuple(out))


def left_multiply(g: CanonicalFactor, form: LeftCanonicalForm) -> LeftCanonicalForm:
    """The normal form of g * form: one pass to the right, (g, A_i) -> (D_i, g)."""
    return left_pass(tau(g, form.power), form)


def left_divide(c: CanonicalFactor, form: LeftCanonicalForm) -> LeftCanonicalForm:
    """c^-1 * form, as c^-1 delta^r X = delta^(r-1) tau^(r-1)(complement(c)) X."""
    return left_multiply(complement(c), LeftCanonicalForm(form.n, form.power - 1, form.factors))


def right_multiply(form: LeftCanonicalForm, f: CanonicalFactor) -> LeftCanonicalForm:
    """The normal form of form * f: one pass to the left, (A_i, f) -> (f, B_i).

    A delta that forms is carried to the front by the pass itself, as
    (A, delta) -> (delta, tau(A)).
    """
    n = form.n
    if f.is_identity:
        return form
    fs = form.factors
    i = len(fs)
    tail: list[CanonicalFactor] = []
    while i:
        a, b = left_weight_pair(fs[i - 1], f)
        if a is fs[i - 1]:  # a weighted pair: nothing to its left changes
            break
        if not b.is_identity:
            tail.append(b)
        f = a
        i -= 1
    tail.reverse()
    if f.is_delta:  # carried to the front: i = 0
        return LeftCanonicalForm(n, form.power + 1, tuple(tail))
    return LeftCanonicalForm(n, form.power, fs[:i] + (f, *tail))


def lcf(w: BraidWord) -> LeftCanonicalForm:
    """The left canonical form, one tuple-copying pass per run of letters."""
    check_strand_count(w.n)
    form = LeftCanonicalForm(w.n, 0, ())
    for h, sign in _runs(w):
        form = left_multiply(h, form) if sign > 0 else left_divide(h, form)
    return form


def cycling(form: LeftCanonicalForm) -> LeftCanonicalForm:
    """Move the first factor to the back (rotated past delta^r); identity if k=0."""
    if not form.factors:
        return form
    rest = LeftCanonicalForm(form.n, form.power, form.factors[1:])
    return right_multiply(rest, tau(form.factors[0], -form.power))


def decycling(form: LeftCanonicalForm) -> LeftCanonicalForm:
    """Move the last factor to the front (rotated past delta^r); identity if k=0."""
    if not form.factors:
        return form
    rest = LeftCanonicalForm(form.n, form.power, form.factors[:-1])
    return left_multiply(form.factors[-1], rest)


def cycling_step(form: LeftCanonicalForm) -> SignedFactor:
    """The conjugator of cycling a form with k >= 1: the rotated first factor."""
    return tau(form.factors[0], -form.power), 1


def decycling_step(form: LeftCanonicalForm) -> SignedFactor:
    """The conjugator of decycling a form with k >= 1: the inverse of the last factor."""
    return form.factors[-1], -1


def sss_representative(w) -> SummitData:
    """The summit search on tuples: n - 1 idle cyclings, then n - 1 idle decyclings."""
    form = w if isinstance(w, LeftCanonicalForm) else lcf(w)
    steps: list[SignedFactor] = []
    idle = 0
    while form.factors and idle < form.n - 1:
        inf = form.power
        steps.append(cycling_step(form))
        form = cycling(form)
        idle = idle + 1 if form.power == inf else 0
    idle = 0
    while form.factors and idle < form.n - 1:
        sup = form.sup
        steps.append(decycling_step(form))
        form = decycling(form)
        idle = idle + 1 if form.sup == sup else 0
    return SummitData(form, tuple(steps))


def keeps_inf(right: LeftCanonicalForm, shifted: CanonicalFactor, p: int) -> bool:
    """Whether inf(f^-1 W f) >= p, from right = W f and shifted = tau^p(f), inf(W) = p."""
    if right.power > p:
        return True
    return precedes(shifted, right.factors[0]) if right.factors else shifted.is_identity


def sss_enumerate(data: SummitData) -> dict[LeftCanonicalForm, tuple[SignedFactor, ...]]:
    """The super summit set in walk order, each element with its steps, trial by trial on tuples.

    The closure of conjugacy._sss_walk, with no budget: each trial builds
    right_multiply(W, f), and the left pass of the division for every f
    kept on inf; the conjugator list is rotated anew for every walk.
    """
    n = data.representative.n
    p = data.inf_conj
    target = (p, data.sup_conj)
    delta = (delta_factor(n), 1)
    seen: dict[LeftCanonicalForm, tuple[SignedFactor, ...]] = {}

    def join_orbit(y: LeftCanonicalForm, path: tuple[SignedFactor, ...]) -> None:
        x = y
        while True:
            seen[x] = path
            x = LeftCanonicalForm(n, p, tuple(tau(a) for a in x.factors))
            if x == y:
                return
            path += (delta,)

    join_orbit(data.representative, ())
    conjugators = []
    for f in enumerate_factors(n):
        if not (f.is_identity or f.is_delta):
            c = complement(f)
            conjugators.append((f, tau(f, p), (tau(c, p - 1), tau(c, p))))
    queue = [data.representative]
    while queue:
        current = queue.pop()
        base_path = seen[current]
        blocked: set[CanonicalFactor] = set()
        for f, f_shifted, c_shifted in conjugators:
            if f in blocked:
                continue
            right = right_multiply(current, f)
            if not keeps_inf(right, f_shifted, p):
                continue
            r = right.power
            candidate = left_pass(c_shifted[r - p], LeftCanonicalForm(n, r - 1, right.factors))
            if (candidate.power, candidate.sup) != target:
                continue
            blocked.update(_conjugators_above(f))
            if candidate in seen:
                continue
            join_orbit(candidate, base_path + ((f, 1),))
            queue.append(candidate)
    return seen
