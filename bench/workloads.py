"""The three benchmark workloads: seeded inputs, the query, and its checks.

Inputs are generated here with the standard library only, as word text, so
the program under test sees nothing but the words.  A round's inputs depend
on (workload, seed, round index) alone.

Every check uses facts that do not come from the normal form itself: the
symmetric-group image and the exponent sum of the input word, how a pair was
built, and the inequalities the reports promise.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from fractions import Fraction

Letter = tuple[int, int, int]  # (t, s, sign) with t > s

# Words carry an exact number of negative letters at random places: the
# count moves inf, and with it the cost of a query, more than anything else,
# so fixing it keeps runs with different seeds comparable.
#
# lcf_wide: one long word per query on many strands; the factor tables are
# large, so the memo tables miss most of the time.  30 % negative letters.
LCF_N, LCF_LEN, LCF_NEG = 12, 100, 30
# conjugacy_b4: pairs of 12-letter words with 1 negative letter; half are
# conjugate by construction, through a 4-letter conjugator with 1.  More
# negative letters make query costs spread wider for the same mean cost.
CONJ_N, CONJ_LEN, CONJ_NEG, CONJUGATOR_LEN, CONJUGATOR_NEG = 4, 12, 1, 4, 1
# cli_classify_b4: 20-letter words with 1-3 negative letters, through the CLI.
CLI_N, CLI_LEN, CLI_NEGATIVES = 4, 20, (1, 2, 3)
CLI_COMMANDS = ("classify", "nb", "fdtc", "lcf")

#: Queries per round.  Each round runs in a fresh interpreter, so this is
#: also how long the memo tables may grow before they are dropped.
ROUND_QUERIES = {"lcf_wide": 100, "conjugacy_b4": 60, "cli_classify_b4": 400}
WORKLOADS = tuple(ROUND_QUERIES)


def _chords(n: int) -> list[tuple[int, int]]:
    return [(t, s) for t in range(2, n + 1) for s in range(1, t)]


def random_letters(rng: random.Random, n: int, length: int, negatives: int) -> list[Letter]:
    """Uniform random chords; exactly `negatives` letters, at random places, are inverted."""
    chords = _chords(n)
    negative = set(rng.sample(range(length), negatives))
    return [(*rng.choice(chords), -1 if i in negative else 1) for i in range(length)]


def inverse(letters: list[Letter]) -> list[Letter]:
    return [(t, s, -sign) for t, s, sign in reversed(letters)]


def text(letters: list[Letter]) -> str:
    return " ".join(f"{'a' if sign > 0 else 'A'}({t},{s})" for t, s, sign in letters)


def letters_of(word_text: str) -> list[Letter]:
    """Inverse of text(); also reads the a(t,s)/A(t,s) words the CLI prints."""
    letters = []
    for token in word_text.split():
        t, s = (int(x) for x in token[2:-1].split(","))
        letters.append((max(t, s), min(t, s), 1 if token[0] == "a" else -1))
    return letters


def permutation(n: int, letters) -> tuple[int, ...]:
    """Image in the symmetric group, letters applied left to right."""
    img = list(range(1, n + 1))
    for t, s, _ in letters:
        img = [t if x == s else s if x == t else x for x in img]
    return tuple(img)


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen, lengths = set(), []
    for start in range(1, len(perm) + 1):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = perm[x - 1]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def writhe(letters) -> int:
    return sum(sign for _, _, sign in letters)


def inputs(workload: str, seed: int, round_index: int) -> list[dict]:
    """The round's queries, as plain data; the same arguments give the same list."""
    # String seeds are hashed with SHA-512, so this ignores PYTHONHASHSEED.
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    count = ROUND_QUERIES[workload]
    if workload == "lcf_wide":
        return [{"word": text(random_letters(rng, LCF_N, LCF_LEN, LCF_NEG))} for _ in range(count)]
    if workload == "conjugacy_b4":
        return [_conjugacy_pair(rng, i % 2 == 0) for i in range(count)]
    if workload == "cli_classify_b4":
        # Commands and negative-letter counts cycle so that every round holds
        # each (command, count) combination equally often.
        return [
            _cli_query(rng, CLI_COMMANDS[i % 4], CLI_NEGATIVES[i // 4 % 3]) for i in range(count)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _conjugacy_pair(rng: random.Random, conjugate: bool) -> dict:
    w1 = random_letters(rng, CONJ_N, CONJ_LEN, CONJ_NEG)
    if conjugate:
        v = random_letters(rng, CONJ_N, CONJUGATOR_LEN, CONJUGATOR_NEG)
        w2 = inverse(v) + w1 + v
    else:
        # Same writhe, different cycle type of the permutation: conjugate
        # braids have conjugate permutations, so this pair is not conjugate.
        target = cycle_type(permutation(CONJ_N, w1))
        while True:
            w2 = random_letters(rng, CONJ_N, CONJ_LEN, CONJ_NEG)
            if cycle_type(permutation(CONJ_N, w2)) != target:
                break
    return {"w1": text(w1), "w2": text(w2), "conjugate": conjugate}


def _cli_query(rng: random.Random, command: str, negatives: int) -> dict:
    word = text(random_letters(rng, CLI_N, CLI_LEN, negatives))
    return {"argv": [command, "-n", str(CLI_N), word, "--json"], "word": word, "negatives": negatives}


class Workload:
    """Parse a round's inputs, run one query, and check and canonicalise answers.

    ``bf`` is the imported ``bandforge`` package; queries look their entry
    points up on it at call time, so traced bindings are the ones called.
    """

    def __init__(self, name: str, bf, specs: list[dict]):
        self.name, self.bf, self.specs = name, bf, specs
        if name == "lcf_wide":
            self.args = [bf.parse_word(q["word"], LCF_N) for q in specs]
        elif name == "conjugacy_b4":
            self.args = [(bf.parse_word(q["w1"], CONJ_N), bf.parse_word(q["w2"], CONJ_N)) for q in specs]
        else:
            # Set-up parses the corpus in every workload; the CLI then parses
            # its word argument again inside each query.
            for q in specs:
                bf.parse_word(q["word"], CLI_N)
            self.args = [q["argv"] for q in specs]

    def query(self, i: int):
        bf, arg = self.bf, self.args[i]
        if self.name == "lcf_wide":
            return bf.lcf(arg)
        if self.name == "conjugacy_b4":
            return bf.are_conjugate(*arg)
        out = io.StringIO()
        return bf.cli.run(arg, out), out.getvalue()

    def canonical(self, answer) -> str:
        """A text that equals for equal answers, for the round digest."""
        if self.name == "lcf_wide":
            return answer.text()
        if self.name == "conjugacy_b4":
            # The witness is not unique, so it stays out of the digest.
            return f"{answer.conjugate}|{answer.sss_size_a}|{answer.sss_size_b}"
        return f"{answer[0]}|{answer[1]}"

    def check(self, i: int, answer) -> list[str]:
        """Problems with the answer to query i; empty when it is correct."""
        spec = self.specs[i]
        if self.name == "lcf_wide":
            return _check_form(self.bf, answer, spec["word"])
        if self.name == "conjugacy_b4":
            return _check_conjugacy(self.bf, answer, spec, self.args[i])
        return _check_cli(answer, spec)


def _check_form(bf, form, word_text: str) -> list[str]:
    problems = []
    try:
        form.validate()
    except AssertionError as exc:
        problems.append(f"validate: {exc}")
    given = letters_of(word_text)
    back = [(l.t, l.s, l.sign) for l in bf.lcf_to_word(form).letters]
    if permutation(form.n, back) != permutation(form.n, given):
        problems.append("permutation of lcf_to_word(form) differs from the input's")
    if form.power * (form.n - 1) + sum(f.word_length for f in form.factors) != writhe(given):
        problems.append("writhe differs from power*(n-1) + sum of factor lengths")
    return problems


def _check_conjugacy(bf, result, spec: dict, words) -> list[str]:
    if result.conjugate != spec["conjugate"]:
        return [f"verdict {result.conjugate}, built as conjugate={spec['conjugate']}"]
    if result.conjugate:
        w1, w2 = words
        if result.witness is None:
            return ["conjugate without a witness"]
        if bf.lcf(w1.conjugated_by(result.witness)) != bf.lcf(w2):
            return ["lcf(v^-1 w1 v) != lcf(w2) for the witness v"]
    return []


def _check_nb(report: dict, negatives: int, scope: str) -> list[str]:
    lower, upper, exact = report["lower"], report["upper"], report["exact"]
    problems = []
    if exact is None or not lower <= exact <= upper:
        problems.append(f"{scope}: not lower <= exact <= upper in {report}")
    elif exact > negatives:
        problems.append(f"{scope}: exact {exact} above the {negatives} negative letters")
    return problems


def _check_cli(answer, spec: dict) -> list[str]:
    code, out = answer
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    command, negatives = spec["argv"][0], spec["negatives"]
    if command == "classify":
        problems = _check_nb(payload["nb"], negatives, "nb") + _check_nb(payload["nb_class"], negatives, "nb_class")
        if payload["sqp"] and not payload["conj_sqp"]:
            problems.append("sqp but not conj_sqp")
        return problems
    if command == "nb":
        return _check_nb(payload["word_level"], negatives, "word_level") + _check_nb(
            payload["class_level"], negatives, "class_level"
        )
    if command == "fdtc":
        if Fraction(payload["lower"]) > Fraction(payload["upper"]):
            return [f"fdtc lower {payload['lower']} above upper {payload['upper']}"]
        return []
    given, back = letters_of(spec["word"]), letters_of(payload["word"])
    problems = []
    if permutation(CLI_N, back) != permutation(CLI_N, given):
        problems.append("permutation of the printed word differs from the input's")
    lengths = sum(CLI_N - len(blocks) for blocks in payload["factors"])
    if payload["delta_power"] * (CLI_N - 1) + lengths != writhe(given):
        problems.append("writhe differs from delta_power*(n-1) + sum of factor lengths")
    return problems


def digest(canonical_answers: list[str]) -> str:
    h = hashlib.sha256()
    for answer in canonical_answers:
        h.update(answer.encode())
        h.update(b"\n")
    return h.hexdigest()
