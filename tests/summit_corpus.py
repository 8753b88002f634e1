"""A seeded corpus of summit queries, and the digests of their CLI output.

Twenty words at n = 3-5, 4-10 letters with 1-3 negative letters, drawn once
from random.Random(20261018) and kept here as text so that the corpus does
not move with any helper.  Each case runs the summit commands in process:
sss (text, --json, --enumerate --json), classify, nb and fdtc on the word,
and conjugate (text and --json) against a partner.  The partner is
v^-1 w v for the case's 3-letter word v, except every fourth case, where it
is v itself, which is not conjugate to w.

tests/golden/summit_corpus.json records the SHA-256 of every output, so a
change on the summit path shows any byte of output it moves, witnesses
included.  After a change that is meant to move output, regenerate it with

    PYTHONPATH=src python tests/summit_corpus.py

which prints each (case, label) whose digest moved, one a line.
"""

from __future__ import annotations

import hashlib
import io
import json
import pathlib

from bandforge.cli import run
from bandforge.words import parse_word

DIGESTS = pathlib.Path(__file__).parent / "golden" / "summit_corpus.json"

#: (n, word, v) for each case.
CASES = (
    (3, "a(3,1) a(2,1) a(3,1) a(3,2) A(3,2) a(2,1) a(2,1) a(2,1) a(3,2) a(3,1)", "a(3,2) a(2,1) A(3,2)"),
    (4, "a(3,1) a(3,1) a(4,3) A(2,1) a(2,1) a(4,2) a(3,1) a(4,2)", "a(4,2) a(4,2) A(2,1)"),
    (5, "A(5,2) a(2,1) A(3,1) A(5,3)", "a(3,1) a(5,4) A(2,1)"),
    (3, "a(3,1) a(3,2) a(3,2) a(2,1) a(3,1) a(2,1) a(3,2) A(2,1) a(2,1) a(3,2)", "a(3,2) A(2,1) a(3,2)"),
    (4, "a(4,1) A(4,2) a(3,1) a(2,1) A(4,3) A(4,3) a(4,1)", "A(3,1) a(4,3) a(2,1)"),
    (5, "a(4,2) a(5,1) a(4,1) A(2,1) a(2,1) a(4,3) a(4,3) a(5,2)", "a(3,1) a(5,4) A(3,1)"),
    (3, "a(2,1) a(3,2) A(3,2) a(2,1) a(3,2)", "a(3,2) A(3,2) a(2,1)"),
    (4, "a(3,1) a(4,2) a(4,1) A(4,1) a(3,1) a(4,2) A(3,2) a(4,3)", "A(3,2) a(2,1) a(2,1)"),
    (5, "a(5,3) a(5,4) A(5,3) a(4,3) a(3,2)", "a(5,1) a(2,1) A(5,2)"),
    (3, "a(3,1) A(3,1) a(3,2) A(2,1) a(3,1) A(2,1) a(3,2)", "A(2,1) a(2,1) a(3,1)"),
    (4, "a(4,2) a(2,1) a(4,2) A(2,1) a(4,2)", "a(3,1) a(3,2) A(4,2)"),
    (5, "A(5,4) a(5,1) a(4,2) A(5,1) a(4,3) a(5,3) a(5,4) a(5,1)", "a(5,4) a(3,2) A(5,4)"),
    (3, "a(3,2) a(3,1) a(2,1) a(3,2) a(3,2) A(3,1) a(3,2) A(2,1)", "A(2,1) a(2,1) a(2,1)"),
    (4, "a(4,3) a(4,2) a(3,2) A(4,3) A(4,1) A(2,1) a(3,1) a(3,2) a(3,2)", "a(2,1) a(3,2) A(4,2)"),
    (5, "A(3,2) a(5,3) a(5,4) a(2,1)", "a(5,4) a(3,1) A(2,1)"),
    (3, "a(3,2) a(3,2) A(3,1) a(3,2) a(3,1) a(2,1) A(2,1) a(3,1) A(3,2) a(3,1)", "a(2,1) a(3,2) A(3,1)"),
    (4, "a(4,2) a(4,3) a(4,3) a(3,1) a(4,2) a(3,1) a(4,3) A(4,2) a(4,3) a(2,1)", "A(2,1) a(4,3) a(4,1)"),
    (5, "a(5,3) a(3,2) A(3,1) A(4,3)", "a(4,1) A(3,1) a(5,3)"),
    (3, "A(3,1) A(3,1) A(2,1) a(3,1)", "A(3,1) a(2,1) a(3,2)"),
    (4, "A(4,3) a(4,2) a(2,1) A(3,1) a(3,1) a(2,1)", "A(4,2) a(4,3) a(4,3)"),
)


def commands(index: int) -> dict[str, list[str]]:
    """The CLI argument lists of one case, by label."""
    n, word, v = CASES[index]
    ns = str(n)
    if index % 4 == 3:
        partner = v
    else:
        partner = parse_word(word, n).conjugated_by(parse_word(v, n)).render()
    return {
        "sss": ["sss", "-n", ns, word],
        "sss --json": ["sss", "-n", ns, word, "--json"],
        "sss --enumerate --json": ["sss", "-n", ns, word, "--enumerate", "--json"],
        "classify --json": ["classify", "-n", ns, word, "--json"],
        "nb --json": ["nb", "-n", ns, word, "--json"],
        "fdtc --json": ["fdtc", "-n", ns, word, "--json"],
        "conjugate": ["conjugate", "-n", ns, word, partner],
        "conjugate --json": ["conjugate", "-n", ns, word, partner, "--json"],
    }


def digests(index: int) -> dict[str, str]:
    """The SHA-256 of each command's output for one case; every command must exit 0."""
    result = {}
    for label, argv in commands(index).items():
        buf = io.StringIO()
        code = run(argv, out=buf)
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}")
        result[label] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return result


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else []
    records = [
        {"n": n, "word": word, "v": v, "digests": digests(i)}
        for i, (n, word, v) in enumerate(CASES)
    ]
    for i, record in enumerate(records):
        before = old[i]["digests"] if i < len(old) else {}
        for label, digest in record["digests"].items():
            if before.get(label) != digest:
                print(f"{i}\t{label}")
    DIGESTS.write_text(json.dumps(records, indent=2) + "\n")
