"""Full classification of ordered factor pairs in B_4.

The reference rows below are the hand-transcribed classification of pairs
(A, B) of canonical factors up to simultaneous rotation, excluding the
trivial cases (either side e, either side delta, or A = B).  Together with
those trivial cases they must cover all 14 x 14 ordered pairs: 132
nontrivial pairs in 36 rotation classes (30 free orbits of size 4 plus 6
orbits of size 2 through the rotation-symmetric factors).

collapse_rows, which visits each rotation orbit of pairs once, is checked
for n = 1..6 against the text-keyed collapse of pair_rows kept below.
"""

import pytest

from bandforge.cli import collapse_rows, pair_rows
from bandforge.factors import delta_factor, enumerate_factors, identity_factor, tau
from bandforge.normal_form import left_weight_pair

from conftest import b4, catalan
from transfer_reference import right_set, starting_set

# Pairs whose product becomes more left weighted, with the terminal
# left-weighted pair ("e" right component omitted in the source notation).
INCREASABLE_ROWS = [
    ("a1", "a4", "a1a4", "e"),
    ("a1", "b1", "a2a1", "e"),
    ("b1", "a2", "a2a1", "e"),
    ("a1", "a3", "a1a3", "e"),
    ("b1", "a2a4", "delta", "e"),
    ("a1", "a1a3", "a1a3", "a1"),
    ("a1", "a2a4", "a1a4", "a2"),
    ("a1", "a1a4", "a1a4", "b2"),
    ("a1", "a2a1", "a2a1", "a2"),
    ("b1", "a2a1", "a2a1", "a1"),
    ("a1", "a4a3", "delta", "e"),
    ("b1", "a1a4", "a4a3", "b2"),
    ("a1", "a3a2", "a1a3", "a2"),
    ("a1a3", "b1", "delta", "e"),
    ("a1a3", "a2a1", "delta", "a2"),
    ("a2a1", "a4", "delta", "e"),
    ("a2a1", "a2a4", "delta", "a2"),
    ("a2a1", "a4a3", "delta", "a3"),
    ("a2a1", "a1a4", "delta", "b2"),
]

# Maximally left weighted pairs (R(A) and S(B) disjoint).
NON_INCREASING_ROWS = [
    ("a1", "a2"),
    ("a1", "b2"),
    ("b1", "a1"),
    ("b1", "b2"),
    ("b1", "a1a3"),
    ("a1a3", "a4"),
    ("a1a3", "b2"),
    ("a1a3", "a1"),
    ("a1a3", "a2a4"),
    ("a1a3", "a1a4"),
    ("a2a1", "a2"),
    ("a2a1", "a1"),
    ("a2a1", "a3"),
    ("a2a1", "b1"),
    ("a2a1", "b2"),
    ("a2a1", "a1a3"),
    ("a2a1", "a3a2"),
]


def rotation_classes():
    """Map each nontrivial ordered pair to its transcribed row and rotation."""
    table = {}
    for row in INCREASABLE_ROWS:
        a, b = b4(row[0]), b4(row[1])
        for k in range(4):
            table[tau(a, k), tau(b, k)] = (row, k)
    for row in NON_INCREASING_ROWS:
        a, b = b4(row[0]), b4(row[1])
        for k in range(4):
            table[tau(a, k), tau(b, k)] = (row, k)
    return table


class TestTranscribedRows:
    @pytest.mark.parametrize("row", INCREASABLE_ROWS, ids=lambda r: f"{r[0]}|{r[1]}")
    def test_increasable_row(self, row):
        a, b, wa, wb = (b4(name) for name in row)
        assert right_set(a) & starting_set(b), row
        assert left_weight_pair(a, b) == (wa, wb), row

    @pytest.mark.parametrize("row", NON_INCREASING_ROWS, ids=lambda r: f"{r[0]}|{r[1]}")
    def test_non_increasing_row(self, row):
        a, b = b4(row[0]), b4(row[1])
        assert not right_set(a) & starting_set(b), row
        assert left_weight_pair(a, b) == (a, b)


class TestFullCoverage:
    def test_every_pair_classified(self):
        e, d = identity_factor(4), delta_factor(4)
        table = rotation_classes()
        checked = 0
        for a in enumerate_factors(4):
            for b in enumerate_factors(4):
                increasable = bool(right_set(a) & starting_set(b))
                if a == d:
                    assert not increasable  # nothing extends delta
                elif b == e:
                    assert not increasable  # nothing starts the identity
                elif a == e:
                    assert increasable
                    assert left_weight_pair(a, b) == (b, e)
                elif b == d:
                    # X delta rewrites to delta tau(X).
                    assert increasable
                    assert left_weight_pair(a, b) == (d, tau(a))
                elif a == b:
                    assert not increasable
                else:
                    (row, k) = table[a, b]
                    checked += 1
                    assert increasable == (len(row) == 4), (a.text(), b.text())
                    if increasable:
                        expected = (tau(b4(row[2]), k), tau(b4(row[3]), k))
                        assert left_weight_pair(a, b) == expected
        assert checked == 132

    def test_rotation_class_counts(self):
        table = rotation_classes()
        assert len(table) == 132
        assert len(INCREASABLE_ROWS) == 19
        assert len(NON_INCREASING_ROWS) == 17
        # 30 size-4 orbits plus 6 size-2 orbits through the pi-symmetric factors.
        orbit_sizes = {}
        for (a, b), (row, _k) in table.items():
            orbit_sizes[id(row), row[0], row[1]] = orbit_sizes.get((id(row), row[0], row[1]), 0) + 1
        assert sorted(orbit_sizes.values()).count(2) == 6
        assert sorted(orbit_sizes.values()).count(4) == 30


def _rotation_class_key(n, a, b):
    return min((tau(a, k).text(), tau(b, k).text()) for k in range(n))


def reference_collapse_rows(n):
    """The text-keyed collapse: every row of pair_rows, mapped back to factors and rotated."""
    classes = {}
    factors = enumerate_factors(n)
    by_text = {f.text(): f for f in factors}
    for row in pair_rows(n):
        a, b = by_text[row["left"]], by_text[row["right"]]
        key = _rotation_class_key(n, a, b)
        entry = classes.setdefault(
            key, {"left": key[0], "right": key[1], "increasable": row["increasable"], "orbit": 0}
        )
        entry["orbit"] += 1
        if (row["left"], row["right"]) == key:
            entry["weighted"] = row["weighted"]
    return [classes[k] for k in sorted(classes)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_collapsed_rows_match_text_keyed_reference(n):
    rows = collapse_rows(n)
    assert rows == reference_collapse_rows(n)
    assert sum(row["orbit"] for row in rows) == catalan(n) ** 2
