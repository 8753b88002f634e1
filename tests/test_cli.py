"""Command-line interface: outputs, golden files, exit codes."""

import io
import json
import pathlib
import random
import sys
import time
from collections import Counter

import pytest

import bandforge.cli
import bandforge.conjugacy
import bandforge.factors
import bandforge.normal_form
import bandforge.positivity
from bandforge.cli import run
from bandforge.normal_form import lcf
from bandforge.positivity import braid_report
from bandforge.words import MAX_STRANDS, MAX_WORD_LETTERS, parse_word

import summit_corpus
from conftest import counted, random_braid_word, w4

GOLDEN = pathlib.Path(__file__).parent / "golden"
KNOT_7_2_WORD = "a1 a1 a1 a2 A1 a2 a3 A2 a3"
KNOT_7_2_POSITIVE = "a1 a1 b2 b1 a3"
TWO_BAND_WORD = "a3 A1 A2 b2 b1 a1 b2 b1 a3"


def capture(argv, expect_code=0):
    buf = io.StringIO()
    code = run(argv, out=buf)
    assert code == expect_code, (argv, code, buf.getvalue())
    return buf.getvalue()


class TestLcfCommand:
    def test_human_output(self):
        out = capture(["lcf", "-n", "4", "b2 a1 b1 a4 a2"])
        assert out.splitlines()[0] == "d^1 · {1,2,3}"
        assert out.splitlines()[1].startswith("word: a(4,3) a(3,2) a(2,1)")

    def test_json_output(self):
        out = json.loads(capture(["lcf", "-n", "4", "b2 a1 b1 a4 a2", "--json"]))
        assert out["inf"] == 1 and out["sup"] == 2
        assert out["factors"] == [[[1, 2, 3], [4]]]

    def test_largest_strand_count(self):
        word = "a(255,1) A(128,2) a(255,254) a(3,1)"
        out = json.loads(capture(["lcf", "-n", str(MAX_STRANDS), word, "--json"]))
        assert out == lcf(parse_word(word, MAX_STRANDS)).to_json()
        assert (out["n"], out["inf"], out["sup"]) == (255, -1, 2)

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("lcf_short_product.json", ["lcf", "-n", "4", "b2 a1 b1 a4 a2", "--json"]),
            (
                "lcf_knot72.json",
                ["lcf", "-n", "4", "a1 a1 a1 a2 A1 a2 a3 A2 a3", "--json"],
            ),
            (
                "lcf_nb2.json",
                ["lcf", "-n", "4", "a3 A1 A2 b2 b1 a1 b2 b1 a3", "--json"],
            ),
            # The summit commands, witnesses included.
            ("sss_knot72.json", ["sss", "-n", "4", KNOT_7_2_WORD, "--json"]),
            ("sss_nb2.json", ["sss", "-n", "4", TWO_BAND_WORD, "--json"]),
            (
                "sss_enumerate_knot72.json",
                ["sss", "-n", "4", KNOT_7_2_WORD, "--enumerate", "--json"],
            ),
            (
                "conjugate_knot72.json",
                ["conjugate", "-n", "4", KNOT_7_2_WORD, KNOT_7_2_POSITIVE, "--json"],
            ),
            ("classify_nb2.json", ["classify", "-n", "4", TWO_BAND_WORD, "--json"]),
        ],
    )
    def test_golden_stability(self, name, argv):
        assert capture(argv) == (GOLDEN / name).read_text()


class TestCatalog:
    def test_count(self):
        assert capture(["catalog", "-n", "4", "--count"]).strip() == "14"

    def test_structure(self):
        data = json.loads(capture(["catalog", "-n", "4", "--json"]))
        assert data["count"] == 14
        assert len(data["factors"]) == 14
        ids = {row["id"] for row in data["factors"]}
        for lo, hi in data["hasse_edges"]:
            assert lo in ids and hi in ids
        # Cover relations of the 14-element lattice: rank steps only.
        by_id = {row["id"]: row for row in data["factors"]}
        for lo, hi in data["hasse_edges"]:
            assert by_id[hi]["word_length"] == by_id[lo]["word_length"] + 1


class TestTables:
    def test_full_row_count(self):
        data = json.loads(capture(["tables", "-n", "4", "--json"]))
        assert len(data["rows"]) == 14 * 14
        assert data["increasable_count"] + data["non_increasing_count"] == 196

    def test_collapsed_row_count(self):
        data = json.loads(capture(["tables", "-n", "4", "--collapse", "--json"]))
        # Burnside: (196 + 4 + 36 + 4) / 4 rotation classes in total;
        # 19 transcribed increasable classes + 9 involving e or delta.
        assert len(data["rows"]) == 60
        assert data["increasable_count"] == 28

    def test_golden_stability(self):
        assert capture(["tables", "-n", "4", "--json"]) == (GOLDEN / "tables_n4.json").read_text()
        assert (
            capture(["tables", "-n", "4", "--collapse", "--json"])
            == (GOLDEN / "tables_n4_collapsed.json").read_text()
        )


class TestAnalysisCommands:
    def test_classify(self):
        data = json.loads(
            capture(["classify", "-n", "4", "a3 A1 A2 b2 b1 a1 b2 b1 a3", "--json"])
        )
        assert data["sqp"] is False
        assert data["conj_sqp"] is False
        assert data["asqp_necessary"] is True
        assert data["conj_strictly_asqp"] is False
        assert data["conj_strictly_asqp_definitive"] is True
        assert data["nb"] == {
            "lower": 1,
            "upper": 2,
            "exact": 2,
            "reduced_negative_bands": 2,
        }

    def test_nb(self):
        data = json.loads(capture(["nb", "-n", "4", "A1", "--json"]))
        assert data["word_level"]["exact"] == 1

    @pytest.mark.parametrize("command", ["classify", "nb"])
    def test_one_normal_form_and_one_summit(self, command, monkeypatch):
        # A positive word: its summit has inf >= 0, so no enumeration runs
        # and every normal form computed is one the command asked for.
        calls = Counter()
        for module in (bandforge.cli, bandforge.conjugacy, bandforge.positivity):
            monkeypatch.setattr(module, "lcf", counted(calls, "lcf", module.lcf))
        monkeypatch.setattr(
            bandforge.positivity,
            "sss_representative",
            counted(calls, "sss_representative", bandforge.positivity.sss_representative),
        )
        capture([command, "-n", "4", "a1 a2 b1", "--json"])
        assert calls == {"lcf": 1, "sss_representative": 1}

    @pytest.mark.parametrize("command", ["classify", "nb", "fdtc"])
    def test_summit_search_builds_no_words(self, command, monkeypatch):
        # The 7_2 word reaches its summit (inf 0, so no enumeration) in
        # several cycling steps; none of them may expand a factor to letters.
        # Every word of a factor is spelled by _factor_letters, through
        # factor_to_word or signed_word; both bindings are counted.
        calls = Counter()
        for module, name in (
            (bandforge.conjugacy, "signed_word"),
            (bandforge.normal_form, "_factor_letters"),
            (bandforge.factors, "_factor_letters"),
        ):
            monkeypatch.setattr(module, name, counted(calls, name, getattr(module, name)))
        summits = []

        def recorded(search):
            def wrapper(w):
                summits.append(search(w))
                return summits[-1]

            return wrapper

        search = bandforge.positivity.sss_representative
        monkeypatch.setattr(bandforge.positivity, "sss_representative", recorded(search))
        capture([command, "-n", "4", KNOT_7_2_WORD, "--json"])
        assert calls == {} and len(summits) == 1
        monkeypatch.undo()
        summit = summits[0]
        assert len(summit.witness_steps) >= 3
        w = parse_word(KNOT_7_2_WORD, 4)
        assert lcf(w.conjugated_by(summit.witness)) == summit.representative

    def test_qualifying_representative_builds_no_closure(self, monkeypatch):
        # A1's summit representative has a factor of length n - 2, which
        # settles conj_strictly_asqp; its super summit set has more
        # elements, and none may be conjugated into.
        # Every closure trial runs the two passes bound in conjugacy; the
        # summit search runs them too, so they are counted after it.
        calls = Counter()
        search = bandforge.positivity.sss_representative

        def count_passes():
            for name in ("_right_pass", "_left_pass"):
                counter = counted(calls, name, getattr(bandforge.conjugacy, name))
                monkeypatch.setattr(bandforge.conjugacy, name, counter)

        def search_then_count(w):
            data = search(w)
            count_passes()
            return data

        monkeypatch.setattr(bandforge.positivity, "sss_representative", search_then_count)
        data = json.loads(capture(["classify", "-n", "4", "A1", "--json"]))
        assert data["conj_strictly_asqp"] is True
        assert calls == {}
        monkeypatch.undo()
        # The same count sees a closure that does run.
        summit = search(w4("A1"))
        count_passes()
        assert len(bandforge.conjugacy.sss_enumerate(summit)) > 1
        assert calls["_right_pass"] > 0 and calls["_left_pass"] > 0

    @pytest.mark.parametrize("command", ["nb", "fdtc"])
    def test_nb_and_fdtc_walk_no_summit_set(self, command, monkeypatch):
        # inf_s = -1, so classify walks the super summit set; nb and fdtc
        # must not start that walk at all.
        w = w4(TWO_BAND_WORD)
        assert bandforge.positivity.sss_representative(w).inf_conj == -1
        calls = Counter()
        walk = bandforge.positivity._sss_walk
        monkeypatch.setattr(bandforge.positivity, "_sss_walk", counted(calls, "_sss_walk", walk))
        capture(["classify", "-n", "4", TWO_BAND_WORD, "--json"])
        assert calls == {"_sss_walk": 1}
        calls.clear()
        capture([command, "-n", "4", TWO_BAND_WORD, "--json"])
        capture([command, "-n", "4", TWO_BAND_WORD])
        assert calls == {}

    def test_fdtc(self):
        data = json.loads(capture(["fdtc", "-n", "4", "d a1", "--json"]))
        assert data == {"lower": "1/4", "upper": "1/2", "exact": None}

    def test_sss(self):
        data = json.loads(capture(["sss", "-n", "4", "a1", "--enumerate", "--json"]))
        assert data["size"] == 6

    def test_conjugate(self):
        data = json.loads(
            capture(
                ["conjugate", "-n", "4", "a1 a1 a1 a2 A1 a2 a3 A2 a3", "a1 a1 b2 b1 a3", "--json"]
            )
        )
        assert data["conjugate"] is True
        assert data["sss_size_a"] == data["sss_size_b"] > 0
        assert data["witness"]


class TestSummitCorpus:
    @pytest.mark.parametrize("index", range(len(summit_corpus.CASES)))
    def test_output_digests(self, index):
        # Every byte of sss, classify, nb, fdtc and conjugate output on a
        # seeded corpus, witnesses included, as recorded by summit_corpus.py.
        record = json.loads(summit_corpus.DIGESTS.read_text())[index]
        assert (record["n"], record["word"], record["v"]) == summit_corpus.CASES[index]
        assert summit_corpus.digests(index) == record["digests"]


class TestRender:
    def test_factor_svg(self):
        svg = capture(["render", "-n", "4", "{1,2,3,4}"])
        assert svg.startswith("<svg")
        assert svg.count("<polygon") == 1  # the square through the punctures
        assert svg.count("<circle") == 1 + 4  # boundary plus four punctures

    def test_identity_dots_only(self):
        svg = capture(["render", "-n", "4", "e"])
        assert "<polygon" not in svg and "<line" not in svg

    def test_single_chord(self):
        svg = capture(["render", "-n", "4", "{1,3}"])
        assert svg.count("<line") == 1

    def test_word_renders_strip(self):
        svg = capture(["render", "-n", "4", "b2 a1 b1 a4 a2"])
        assert "d^1" in svg

    def test_deterministic(self):
        first = capture(["render", "-n", "4", "{1,2}{3,4}"])
        second = capture(["render", "-n", "4", "{1,2}{3,4}"])
        assert first == second


class TestStdinWord:
    """A word argument "-" is read from standard input, at most one per command."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["lcf", "-n", "4", "WORD"],
            ["lcf", "-n", "4", "WORD", "--json"],
            ["classify", "-n", "4", "WORD", "--json"],
            ["sss", "-n", "4", "WORD", "--enumerate", "--json"],
            ["conjugate", "-n", "4", "WORD", KNOT_7_2_POSITIVE, "--json"],
            ["conjugate", "-n", "4", KNOT_7_2_POSITIVE, "WORD", "--json"],
        ],
    )
    def test_same_output_as_argv(self, argv, monkeypatch):
        expected = capture([KNOT_7_2_WORD if a == "WORD" else a for a in argv])
        monkeypatch.setattr(sys, "stdin", io.StringIO(KNOT_7_2_WORD + "\n"))
        assert capture(["-" if a == "WORD" else a for a in argv]) == expected

    def test_two_dashes_rejected(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(KNOT_7_2_WORD))
        capture(["conjugate", "-n", "4", "-", "-"], expect_code=1)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "'-'" in err[0]
        # Nothing was read: the check comes first.
        assert sys.stdin.read() == KNOT_7_2_WORD

    def test_parse_error_from_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("a1 a(9,1)"))
        capture(["lcf", "-n", "4", "-"], expect_code=1)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: token 2")


class TestExitCodes:
    def test_parse_error(self):
        capture(["lcf", "-n", "4", "a(9,1)"], expect_code=1)

    @pytest.mark.parametrize("word", ["a1^100000000", "d^100000000", "A(3,1)^-100000000"])
    def test_huge_power_fails_fast(self, word, capsys):
        start = time.perf_counter()
        capture(["lcf", "-n", "4", word], expect_code=1)
        assert time.perf_counter() - start < 1.0
        assert f"more than {MAX_WORD_LETTERS} letters" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["1000000000", "1025", str(MAX_STRANDS + 1), "0", "-3"])
    @pytest.mark.parametrize("command", ["lcf", "classify"])
    def test_strand_count_out_of_range(self, command, n, capsys):
        # Checked before any factor is built: n + 1 label entries per factor
        # would otherwise fill memory at n = 10^9.
        start = time.perf_counter()
        capture([command, "-n", n, "a(2,1)"], expect_code=1)
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err == f"error: strand count must be in 1..{MAX_STRANDS}, got {n}\n"

    def test_budget_exceeded(self):
        capture(["sss", "-n", "4", "a1", "--enumerate", "--budget", "2"], expect_code=2)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sss", "-n", "4", "a1", "--enumerate"],
            ["conjugate", "-n", "4", "a1", "a2"],
            ["classify", "-n", "4", "A1"],
            # inf_s = 0: no summit walk, but the budget is still checked.
            ["classify", "-n", "4", "a1"],
            # Checked before the summit search, also when nothing is enumerated.
            ["sss", "-n", "4", "a1"],
        ],
    )
    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one(self, argv, budget, capsys):
        capture(argv + ["--budget", budget], expect_code=1)
        assert f"budget must be at least 1, got {budget}" in capsys.readouterr().err

    def test_budget_one_when_representative_qualifies(self):
        # The representative is the first element the walk yields, so a
        # budget of one settles a class whose representative qualifies.
        out = capture(["classify", "-n", "4", "A1", "--budget", "1", "--json"])
        assert json.loads(out)["conj_strictly_asqp"] is True

    def test_qualifying_representative_past_enumeration_bound(self):
        # enumerate_factors stops at n = 8, so at n = 9 only a walk that
        # settles on the representative before tabulating factors answers.
        w = random_braid_word(9, 12, random.Random(125), neg=0.1)
        data = bandforge.positivity.sss_representative(w)
        assert data.inf_conj == -1
        assert bandforge.positivity._nb_from_form(data.representative).nb_upper == 1
        assert braid_report(w).strictly_asqp.holds is True
        out = capture(["classify", "-n", "9", w.render(), "--budget", "1", "--json"])
        assert json.loads(out)["conj_strictly_asqp"] is True

    @pytest.mark.parametrize("command", ["nb", "fdtc"])
    def test_budget_not_offered(self, command, capsys):
        # Neither command enumerates a summit set, so neither reads a budget.
        capture([command, "-n", "4", "A1", "--budget", "5"], expect_code=1)
        assert "unrecognized arguments: --budget" in capsys.readouterr().err

    def test_out_of_memory_is_an_error_line(self, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(bandforge.cli, "braid_report", exhausted)
        capture(["nb", "-n", "4", "A1"], expect_code=2)
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_output_file(self, tmp_path):
        target = tmp_path / "out.json"
        capture(["lcf", "-n", "4", "a1", "--json", "-o", str(target)])
        assert json.loads(target.read_text())["sup"] == 1

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_output_file(self, where, tmp_path, capsys):
        target = tmp_path if where == "directory" else tmp_path / "absent" / "out.txt"
        capture(["lcf", "-n", "4", "a1", "-o", str(target)], expect_code=1)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
