"""Canonical factors: enumeration, words, sets, complement, order, meet, diamond, star."""

import ast
import copy
import itertools
import pickle
import re

import pytest

from bandforge.factors import (
    _crossing,
    _nc_labels,
    complement,
    delta_factor,
    diamond,
    enumerate_factors,
    factor,
    factor_to_word,
    gen_factor,
    identity_factor,
    meet,
    parse_partition_text,
    precedes,
    star,
    tau,
)
from bandforge.normal_form import LeftCanonicalForm, lcf
from bandforge.render import DiskLayout
from bandforge.words import delta_word, parse_word

from conftest import all_chords, assert_same_braid, b4, catalan
from oracle import positive_equal
from transfer_reference import block_of, merge, right_set, split_left, starting_set


# Independent oracles --------------------------------------------------------


def all_set_partitions(elements):
    """Every set partition, by recursive insertion (Bell-number many)."""
    elements = list(elements)
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for sub in all_set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def is_noncrossing(blocks) -> bool:
    """Direct a<b<c<d interleaving test over all block pairs and element pairs."""
    for x, y in itertools.combinations(blocks, 2):
        for a, c in itertools.combinations(sorted(x), 2):
            for b, d in itertools.combinations(sorted(y), 2):
                if a < b < c < d or b < a < d < c:
                    return False
    return True


def brute_force_noncrossing(n):
    return [p for p in all_set_partitions(range(1, n + 1)) if is_noncrossing(p)]


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 14), (5, 42), (6, 132), (7, 429), (8, 1430)])
    def test_catalan_counts(self, n, count):
        factors = enumerate_factors(n)
        assert len(factors) == count == catalan(n)
        assert len(set(factors)) == count

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_brute_force_in_order(self, n):
        # Shortest first, then by blocks in order of least element.
        expected = sorted(
            (n - len(p), tuple(sorted(tuple(sorted(b)) for b in p)))
            for p in brute_force_noncrossing(n)
        )
        assert [(f.word_length, f.blocks) for f in enumerate_factors(n)] == expected

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            enumerate_factors(9)
        labels = set(_nc_labels(9))
        assert len(labels) == 4862 and not any(map(_crossing, labels))

    def test_b4_inventory(self):
        # e, six edges, four triangles, two disjoint pairs, delta.
        by_len = {}
        for f in enumerate_factors(4):
            by_len.setdefault(f.word_length, []).append(f)
        assert [len(by_len[k]) for k in sorted(by_len)] == [1, 6, 6, 1]


class TestConstruction:
    def test_crossing_rejected(self):
        with pytest.raises(ValueError, match="cross"):
            factor(4, [(1, 3), (2, 4)])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            factor(4, [(1, 2), (2, 3)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            factor(3, [(1, 4)])

    def test_singletons_implicit(self):
        assert factor(4, [(1, 2)]) == factor(4, [(1, 2), (3,), (4,)])

    def test_degenerate_n1(self):
        f = identity_factor(1)
        assert f == delta_factor(1) and f.is_identity and not f.is_delta

    @pytest.mark.parametrize("n", range(1, 8))
    def test_crossing_check_matches_brute_force(self, n):
        # Every set partition of {1..n} (877 at n = 7), blocks given in
        # reverse order with reversed elements.
        for partition in all_set_partitions(range(1, n + 1)):
            given = [block[::-1] for block in partition[::-1]]
            if is_noncrossing(partition):
                f = factor(n, given)
                assert sorted(f.blocks) == sorted(tuple(sorted(b)) for b in partition)
                continue
            with pytest.raises(ValueError, match="cross") as info:
                factor(n, given)
            m = re.fullmatch(r"blocks (\(.*?\)) and (\(.*?\)) cross", str(info.value))
            assert m, str(info.value)
            x, y = ast.literal_eval(m.group(1)), ast.literal_eval(m.group(2))
            blocks = {tuple(sorted(b)) for b in partition}
            assert x in blocks and y in blocks and not is_noncrossing([x, y]), str(info.value)


class TestHashEquality:
    ALL = [f for n in range(1, 6) for f in enumerate_factors(n)]

    def test_equality(self):
        for f, g in itertools.product(self.ALL, repeat=2):
            assert (f == g) is (f is g)
            assert (f != g) is (f is not g)

    def test_copies_are_the_interned_factor(self):
        for f in self.ALL:
            assert copy.copy(f) is f and copy.deepcopy(f) is f
            assert pickle.loads(pickle.dumps(f)) is f

    def test_foreign_type_not_implemented(self):
        for f in self.ALL:
            assert f.__eq__("x") is NotImplemented
            assert f.__eq__((f.n, f.blocks)) is NotImplemented
            assert f != "x"

    def test_normal_form_hash_unchanged(self):
        for n in range(2, 6):
            for text in ("", "a(2,1)", "A(2,1) d^2 a(2,1) a(2,1)"):
                form = lcf(parse_word(text, n))
                assert hash(form) == hash((form.n, form.power, form.factors))

    def test_normal_form_hash_kept(self):
        # Forms built apart, and copies of one, are equal and hash equal, and
        # a copy holds the interned factors themselves.
        form = lcf(parse_word("A(2,1) d^2 a(2,1) a(3,1)", 4))
        equal = LeftCanonicalForm(form.n, form.power, form.factors)
        assert equal == form and hash(equal) == hash(form)
        for other in (copy.copy(form), copy.deepcopy(form), pickle.loads(pickle.dumps(form))):
            assert type(other) is LeftCanonicalForm
            assert other == form and hash(other) == hash(form)
            assert all(a is b for a, b in zip(other.factors, form.factors))
        assert repr(form) == f"LeftCanonicalForm(n=4, power={form.power}, factors={form.factors!r})"
        # The README's promise: a form is the plain tuple (n, power, factors).
        n, power, factors = form
        assert form == (n, power, factors) and len(form) == 3


class TestFactorWord:
    def test_delta_word(self):
        assert factor_to_word(delta_factor(4)).render() == "a(4,3) a(3,2) a(2,1)"

    def test_triangle_134(self):
        w = factor_to_word(b4("a4a3"))
        assert w.render() == "a(4,3) a(3,1)"
        assert_same_braid(w, parse_word("a4 a3", 4))

    def test_identity_empty(self):
        assert factor_to_word(identity_factor(4)).letters == ()

    def test_length_and_braid_equality(self):
        for n in (3, 4, 5):
            for f in enumerate_factors(n):
                w = factor_to_word(f)
                assert len(w) == f.word_length
                assert w.is_positive()


class TestStartingSet:
    def test_triangle(self):
        assert starting_set(b4("a2a1")) == {(2, 1), (3, 2), (3, 1)}

    def test_delta_has_all(self):
        assert starting_set(delta_factor(4)) == frozenset(all_chords(4))

    def test_identity_empty(self):
        assert starting_set(identity_factor(4)) == frozenset()

    def test_left_divisibility(self):
        # c in S(A) iff the split-off remainder satisfies c * A' = A.
        for f in enumerate_factors(4):
            for c in starting_set(f):
                rest = split_left(f, c)
                w = parse_word(f"a({c[0]},{c[1]})", 4) * factor_to_word(rest)
                assert_same_braid(w, factor_to_word(f))


class TestComplement:
    def test_a1(self):
        assert complement(b4("a1")) == b4("a4a3")

    def test_b1(self):
        assert complement(b4("b1")) == b4("a2a4")

    def test_identity_and_delta(self):
        assert complement(identity_factor(4)) == delta_factor(4)
        assert complement(delta_factor(4)) == identity_factor(4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_product_is_delta(self, n):
        for f in enumerate_factors(n):
            w = factor_to_word(f) * factor_to_word(complement(f))
            assert positive_equal(w, delta_word(n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_double_complement_is_tau(self, n):
        for f in enumerate_factors(n):
            assert complement(complement(f)) == tau(f)


class TestRightSet:
    def test_a1(self):
        assert right_set(b4("a1")) == {(3, 1), (4, 3), (4, 1)}

    def test_b1(self):
        assert right_set(b4("b1")) == {(4, 1), (3, 2)}

    def test_disjoint_edges(self):
        assert right_set(b4("a1a3")) == {(3, 1)}

    def test_identity_has_all(self):
        assert right_set(identity_factor(4)) == frozenset(all_chords(4))

    def test_exactly_the_extendable_generators(self):
        # c in R(A) iff A * c is still a canonical factor (diamond defined).
        for a in enumerate_factors(4):
            for c in all_chords(4):
                extended = diamond(a, gen_factor(4, *c))
                assert (extended is not None) == (c in right_set(a)), (a.text(), c)


class TestMergeSplit:
    def test_merge_examples(self):
        assert merge(b4("a1"), (3, 1)) == b4("a2a1")
        assert merge(b4("a1a3"), (3, 1)) == delta_factor(4)
        assert merge(identity_factor(4), (4, 2)) == b4("b2")

    def test_merge_precondition(self):
        with pytest.raises(ValueError, match="right set"):
            merge(b4("a1"), (3, 2))

    def test_split_examples(self):
        assert split_left(delta_factor(4), (3, 1)) == b4("a2a4")
        assert split_left(delta_factor(4), (2, 1)) == b4("a4a3")
        assert split_left(b4("b2"), (4, 2)) == identity_factor(4)

    def test_split_precondition(self):
        with pytest.raises(ValueError, match="starting set"):
            split_left(b4("a1"), (3, 1))

    def test_merge_is_right_multiplication(self):
        for a in enumerate_factors(4):
            for c in right_set(a):
                w = factor_to_word(a) * parse_word(f"a({c[0]},{c[1]})", 4)
                assert_same_braid(factor_to_word(merge(a, c)), w)
                assert merge(a, c).word_length == a.word_length + 1

    def test_split_inverts_merge_length(self):
        for a in enumerate_factors(4):
            for c in starting_set(a):
                assert split_left(a, c).word_length == a.word_length - 1

    def test_merge_split_oracle_five_strands(self):
        for a in enumerate_factors(5):
            for c in right_set(a):
                w = factor_to_word(a) * parse_word(f"a({c[0]},{c[1]})", 5)
                assert_same_braid(factor_to_word(merge(a, c)), w)
            for c in starting_set(a):
                w = parse_word(f"a({c[0]},{c[1]})", 5) * factor_to_word(split_left(a, c))
                assert_same_braid(w, factor_to_word(a))


class TestPrecedes:
    def test_examples(self):
        assert precedes(b4("a1"), delta_factor(4))
        assert not precedes(b4("a1"), b4("a2"))
        assert precedes(identity_factor(4), b4("b2"))

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            precedes(identity_factor(3), identity_factor(4))

    def test_agrees_with_existential_definition(self):
        # A < B iff A*Q = B for some canonical factor Q (oracle-checked).
        factors = enumerate_factors(4)
        for a in factors:
            for b in factors:
                exists = any(
                    len(factor_to_word(a)) + len(factor_to_word(q)) == len(factor_to_word(b))
                    and positive_equal(factor_to_word(a) * factor_to_word(q), factor_to_word(b))
                    for q in factors
                )
                assert precedes(a, b) == exists, (a.text(), b.text())

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_partial_order_axioms(self, n):
        factors = enumerate_factors(n)
        for a in factors:
            assert precedes(a, a)
        for a in factors:
            for b in factors:
                if precedes(a, b) and precedes(b, a):
                    assert a == b
        for a in factors:
            for b in factors:
                if not precedes(a, b):
                    continue
                for c in factors:
                    if precedes(b, c):
                        assert precedes(a, c)

    def test_hasse_levels_n4(self):
        levels = {}
        for f in enumerate_factors(4):
            levels.setdefault(f.word_length, 0)
            levels[f.word_length] += 1
        assert levels == {0: 1, 1: 6, 2: 6, 3: 1}


class TestTau:
    def test_rotates_generators(self):
        assert tau(b4("a1")) == b4("a2")
        assert tau(b4("b2")) == b4("b1")
        assert tau(b4("a4")) == b4("a1")

    def test_order_n(self):
        for n in (3, 4, 5):
            for f in enumerate_factors(n):
                assert tau(f, n) == f
                assert tau(tau(f, 2), -2) == f

    def test_is_conjugation_by_delta(self):
        for f in enumerate_factors(4):
            lhs = delta_word(4) * factor_to_word(tau(f))
            rhs = factor_to_word(f) * delta_word(4)
            assert positive_equal(lhs, rhs)

    def test_order_automorphism(self):
        factors = enumerate_factors(4)
        for a in factors:
            for b in factors:
                assert precedes(a, b) == precedes(tau(a), tau(b))


class TestMeet:
    def test_examples(self):
        assert meet(b4("a2a1"), b4("a1a3")) == b4("a1")
        assert meet(delta_factor(4), b4("b1")) == b4("b1")
        assert meet(b4("a1"), b4("a3")) == identity_factor(4)

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            meet(identity_factor(3), identity_factor(4))

    def test_greatest_lower_bound(self):
        factors = enumerate_factors(4)
        for a in factors:
            for b in factors:
                m = meet(a, b)
                assert precedes(m, a) and precedes(m, b)
                lower = [f for f in factors if precedes(f, a) and precedes(f, b)]
                assert all(precedes(f, m) for f in lower), (a.text(), b.text())


class TestDiamond:
    def test_examples(self):
        assert diamond(b4("a4"), b4("a3")) == b4("a4a3")
        assert diamond(b4("a1"), b4("a2")) is None

    def test_complement_gives_delta(self):
        for f in enumerate_factors(4):
            assert diamond(f, complement(f)) == delta_factor(4)

    def test_monotone_and_minimal(self):
        factors = enumerate_factors(4)
        for a in factors:
            for b in factors:
                d = diamond(a, b)
                if d is None:
                    continue
                assert precedes(a, d) and precedes(b, d)
                # d is the minimum of the common upper bounds of a and b.
                upper = [f for f in factors if precedes(a, f) and precedes(b, f)]
                assert all(precedes(d, f) for f in upper)

    def test_blocks_are_join(self):
        # When defined, the result's blocks are the mutual coarsening.
        factors = enumerate_factors(4)
        for a in factors:
            for b in factors:
                d = diamond(a, b)
                if d is None:
                    continue
                blocks = block_of(d)
                for block in a.blocks + b.blocks:
                    target = blocks[block[0]]
                    assert all(blocks[x] is target for x in block)

    def test_five_strand_consistency(self):
        factors = enumerate_factors(5)
        defined = 0
        for a in factors:
            for b in factors:
                d = diamond(a, b)
                if d is None:
                    continue
                defined += 1
                assert precedes(a, d) and precedes(b, d)
                assert d.word_length == a.word_length + b.word_length
        # Every (A, complement(A)) pair is defined, so at least 42 hits.
        assert defined >= len(factors)


class TestStar:
    def test_two_edges_make_delta(self):
        assert star(factor(4, [(1, 2)]), factor(4, [(3, 4)])) == delta_factor(4)

    def test_nested_edges(self):
        assert star(b4("a4"), b4("a2")) == delta_factor(4)

    def test_polygon_sizes_add(self):
        a = factor(7, [(1, 2, 3, 4)])
        b = factor(7, [(5, 6, 7)])
        joined = star(a, b)
        assert joined == factor(7, [(1, 2, 3, 4, 5, 6, 7)])

    def test_commutative(self):
        a, b = factor(6, [(1, 2)]), factor(6, [(4, 5, 6)])
        assert star(a, b) == star(b, a)

    def test_crossing_blocks_undefined(self):
        assert star(factor(4, [(1, 3)]), factor(4, [(2, 4)])) is None

    def test_preconditions(self):
        with pytest.raises(ValueError, match="single polygon"):
            star(b4("a1a3"), b4("a2"))
        with pytest.raises(ValueError, match="overlap"):
            star(factor(4, [(1, 2)]), factor(4, [(2, 3)]))

    def test_braid_identity_with_joining_edge(self):
        # A * B equals the braid A B C for some single generator C.
        cases = [
            (factor(4, [(1, 2)]), factor(4, [(3, 4)])),
            (b4("a4"), b4("a2")),
            (factor(5, [(1, 2)]), factor(5, [(3, 4, 5)])),
            (factor(6, [(2, 3)]), factor(6, [(5, 6)])),
        ]
        for a, b in cases:
            joined = star(a, b)
            assert joined is not None
            n = a.n
            base = factor_to_word(a) * factor_to_word(b)
            witnesses = [
                c
                for c in all_chords(n)
                if positive_equal(base * parse_word(f"a({c[0]},{c[1]})", n), factor_to_word(joined))
            ]
            assert witnesses, (a.text(), b.text())


class TestTextForms:
    def test_partition_text_round_trip(self):
        for f in enumerate_factors(4):
            assert parse_partition_text(f.text(), 4) == f

    def test_singletons_accepted(self):
        assert parse_partition_text("{1,2,3}{4}", 4) == b4("a2a1")

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_partition_text("{1,2", 4)
        with pytest.raises(ValueError):
            parse_partition_text("1,2", 4)

    def test_json_blocks(self):
        assert b4("a1a3").json_blocks() == [[1, 2], [3, 4]]


class TestDiskLayout:
    def test_b4_angles(self):
        import math

        layout = DiskLayout(4)
        expected = [-3 * math.pi / 4, -math.pi / 4, math.pi / 4, 3 * math.pi / 4]
        for k, angle in enumerate(expected, start=1):
            assert layout.angle(k) == pytest.approx(angle)
            x, y = layout.position(k)
            assert math.hypot(x, y) == pytest.approx(0.5)
