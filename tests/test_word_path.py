"""Words in and out: parse_word and the factor words against their references.

parse_word keeps one table per call from token text to letters, and
factor_to_word reads the letters off the permutation; tests/word_reference.py
keeps the token-by-token parser and the block-sorting factor word they
replaced.  Seeded differential runs check equal words, and equal exception
types and messages, over every token kind and error path; signed_word and
lcf_to_word are checked against the reference factor words.
"""

import io
import random
from contextlib import redirect_stderr

import pytest

from bandforge.cli import run
from bandforge.factors import _factor_letters, enumerate_factors, factor_to_word
from bandforge.normal_form import lcf, lcf_to_word, signed_word
from bandforge.words import MAX_WORD_LETTERS, ParseError, delta_word, parse_word

from conftest import random_braid_word
from word_reference import factor_to_word_by_blocks, parse_word_by_tokens

# Arabic-Indic three and one, fullwidth zero and nine: Unicode digits that int() reads.
OTHER_DIGITS = "٣١０９"


def _number(rng: random.Random, lo: int, hi: int) -> str:
    digits = str(rng.randint(lo, hi))
    if rng.random() < 0.05:
        k = rng.randrange(len(digits))
        digits = digits[:k] + rng.choice(OTHER_DIGITS) + digits[k + 1 :]
    return digits


def _power(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.45:
        return ""
    if r < 0.8:
        return f"^{rng.randint(-4, 4)}"
    return "^" + rng.choice(
        [
            str(MAX_WORD_LETTERS),
            str(MAX_WORD_LETTERS + 1),
            str(MAX_WORD_LETTERS // 2),
            f"-{MAX_WORD_LETTERS // 3}",
            "-100000000",
            "-0",
            "007",
            "",
            "-",
            "+1",
            "x",
            _number(rng, 0, 9),
        ]
    )


def _token(rng: random.Random, n: int) -> str:
    kind = rng.randrange(6)
    if kind == 0:
        i, j = _number(rng, 0, n + 1), _number(rng, 0, n + 1)
        return f"{rng.choice('aAbB')}({i},{j}){_power(rng)}"
    if kind == 1:
        return f"{rng.choice('sS')}{_number(rng, 0, n)}{_power(rng)}"
    if kind == 2:
        return f"{rng.choice('dD')}{_power(rng)}"
    if kind == 3:
        return f"{rng.choice('aAbB')}{_number(rng, 0, 9)}{_power(rng)}"
    if kind == 4:
        # Malformed text: stray characters, half-built band tokens, other digits.
        return "".join(rng.choice("aAbBsSdDe()^,-0123x" + OTHER_DIGITS) for _ in range(rng.randint(1, 7)))
    return rng.choice(["a(1,2)", "A(2,1)", "s1", "d", "a1", "b2^-1"])


def _text(rng: random.Random, n: int) -> str:
    """Up to 8 tokens, often repeated, with mixed whitespace between them."""
    pool = [_token(rng, n) for _ in range(rng.randint(1, 5))]
    tokens = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
    return "".join(t + rng.choice([" ", "  ", "\t", "\n"]) for t in tokens)


def _outcome(parse, text: str, n: int):
    try:
        return parse(text, n)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


class TestParseAgainstReference:
    def test_random_token_strings(self):
        rng = random.Random(0x5EED_0B5E)
        errors = set()
        for _ in range(4000):
            n = rng.randint(1, 6)
            text = _text(rng, n)
            expected = _outcome(parse_word_by_tokens, text, n)
            assert _outcome(parse_word, text, n) == expected, (text, n)
            if isinstance(expected, tuple):
                errors.add(expected[1].split(": ", 1)[1])
        # Every error path was met, the letter limit included.
        assert {
            "not a valid word token",
            "unknown B4 generator alias",
            f"the word would have more than {MAX_WORD_LETTERS} letters",
        } <= errors
        assert any(e.startswith("strand indices") for e in errors)
        assert any(e.startswith("Artin index") for e in errors)

    @pytest.mark.parametrize(
        "text, n",
        [
            (f"a1^{MAX_WORD_LETTERS // 2} a1^{MAX_WORD_LETTERS // 2} a1", 4),
            (f"d^{MAX_WORD_LETTERS // 6} s1 d^{MAX_WORD_LETTERS // 6} s1 d", 4),
            (f"D^{(MAX_WORD_LETTERS - 1) // 3} A2 A2", 4),
            ("a(1,2) a(9,9) a(1,2)", 4),
            ("a(1,2) a(1,2) s7 a(1,2)", 5),
            ("b3 a1 b3", 4),
            ("a1 a1", 5),
            ("d d^0 D^-1 d^2", 1),
            ("s1^-3 s1^-3 S1", 3),
        ],
    )
    def test_repeated_tokens_and_limits(self, text, n):
        assert _outcome(parse_word, text, n) == _outcome(parse_word_by_tokens, text, n)

    @pytest.mark.parametrize("token", ["a(٣,1)", "s١", "a(3,1)^٢", "d^２"])
    def test_other_digits_rejected(self, token):
        with pytest.raises(ParseError) as info:
            parse_word(token, 4)
        assert str(info.value) == f"token 1 '{token}': not a valid word token"

    @pytest.mark.parametrize("token", ["a(٣,1)", "s١"])
    def test_other_digits_exit_1(self, token):
        err = io.StringIO()
        with redirect_stderr(err):
            assert run(["lcf", "-n", "4", token], out=io.StringIO()) == 1
        assert err.getvalue() == f"error: token 1 '{token}': not a valid word token\n"


def _lcf_factors(n: int, count: int, seed: int):
    rng = random.Random(seed)
    return {f for _ in range(count) for f in lcf(random_braid_word(n, 60, rng, neg=0.3)).factors}


class TestFactorWords:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_factor(self, n):
        for f in enumerate_factors(n):
            assert factor_to_word(f) == factor_to_word_by_blocks(f), f.text()

    @pytest.mark.parametrize("n, seed", [(12, 4201), (32, 4202)])
    def test_lcf_factors(self, n, seed):
        fs = _lcf_factors(n, 20, seed)
        assert len(fs) > 50
        for f in fs:
            # Spelling reads the permutation: the blocks stay unbuilt.
            object.__setattr__(f, "_blocks", None)
            word = factor_to_word(f)
            assert f._blocks is None
            assert word == factor_to_word_by_blocks(f), f.text()

    def test_inverse_letters(self):
        for f in enumerate_factors(5):
            assert _factor_letters(f, -1) == factor_to_word_by_blocks(f).inverse().letters


def _reference_signed_word(n, power, entries):
    word = delta_word(n) ** power
    for f, sign in entries:
        spelled = factor_to_word_by_blocks(f)
        word = word * (spelled if sign > 0 else spelled.inverse())
    return word


class TestSignedWords:
    @pytest.mark.parametrize("n", [3, 4, 6, 12])
    def test_signed_word(self, n):
        rng = random.Random(9157 * n)
        pool = sorted(_lcf_factors(n, 10, n), key=lambda f: f._perm)
        for _ in range(100):
            power = rng.randint(-3, 3)
            entries = [(rng.choice(pool), rng.choice((1, -1))) for _ in range(rng.randint(0, 6))]
            expected = _reference_signed_word(n, power, entries)
            assert signed_word(n, power, entries) == expected

    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    def test_lcf_to_word_with_negative_powers(self, n):
        rng = random.Random(7717 * n)
        negative = 0
        for _ in range(60):
            form = lcf(random_braid_word(n, rng.randint(0, 30), rng, neg=0.6))
            negative += form.power < 0
            expected = _reference_signed_word(n, form.power, [(f, 1) for f in form.factors])
            assert lcf_to_word(form) == expected
        assert negative >= 30
