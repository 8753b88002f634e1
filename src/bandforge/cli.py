"""
Command-line front end.

JSON (via --json) is the machine interface; the default human output is a
thin formatter over the same data.  Exit codes: 0 success, 1 user/parse
error, 2 enumeration budget exceeded or out of memory.

A word argument "-" is read from standard input, for words longer than one
argv string may hold (128 KiB on Linux); at most one per command.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import nullcontext
from typing import Optional

from .conjugacy import (
    BudgetExceededError,
    are_conjugate,
    resolve_budget,
    sss_enumerate,
    sss_representative,
)
from .factors import (
    CanonicalFactor,
    enumerate_factors,
    factor_to_word,
    parse_partition_text,
    precedes,
    tau,
)
from .normal_form import lcf, lcf_to_word, left_weight_pair
from .positivity import braid_report
from .render import render_svg
from .words import check_strand_count, parse_word


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandforge",
        description="Band-generator braid calculus: normal forms, conjugacy, "
        "positivity, twist bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler, words: int = 0) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("-n", type=int, required=True, help="strand count")
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
        p.add_argument("-o", metavar="FILE", help="write output to FILE")
        if words == 1:
            p.add_argument("word")
        elif words == 2:
            p.add_argument("word1")
            p.add_argument("word2")
        return p

    add("lcf", "left canonical form of a word", _cmd_lcf, words=1)

    p = add("sss", "super summit representative (and optionally the full set)", _cmd_sss, words=1)
    p.add_argument("--enumerate", action="store_true", help="enumerate the whole set")
    p.add_argument("--budget", type=int, help="element budget for enumeration")

    p = add("conjugate", "decide conjugacy of two words", _cmd_conjugate, words=2)
    p.add_argument("--budget", type=int)

    p = add("classify", "positivity classification report", _cmd_classify, words=1)
    p.add_argument("--budget", type=int)

    add("nb", "negative band number bounds", _cmd_nb, words=1)
    add("fdtc", "fractional Dehn twist coefficient interval", _cmd_fdtc, words=1)

    p = add("catalog", "list the canonical factors with their order structure", _cmd_catalog)
    p.add_argument("--count", action="store_true", help="print only the count")

    p = add("tables", "classify all ordered factor pairs by left-weightedness", _cmd_tables)
    p.add_argument("--collapse", action="store_true", help="one row per rotation class")

    p = add("render", "SVG of a factor (partition text) or of a word's normal form", _cmd_render)
    p.add_argument("target", help='partition like "{1,2,3}" or a braid word')
    return parser


#: The positional arguments that hold a braid word.
_WORD_ARGS = ("word", "word1", "word2")


def _read_stdin_word(args) -> None:
    """Replace the one word argument "-" by the text of standard input."""
    dashes = [name for name in _WORD_ARGS if getattr(args, name, None) == "-"]
    if len(dashes) > 1:
        raise ValueError("at most one word argument may be '-' (standard input)")
    if dashes:
        setattr(args, dashes[0], sys.stdin.read())


def _word(args, attr: str = "word"):
    return parse_word(getattr(args, attr), args.n)


def _cmd_lcf(args) -> tuple[dict, str]:
    form = lcf(_word(args))
    payload = form.to_json()
    human = f"{form.text()}\nword: {payload['word'] or 'e'}"
    return payload, human


def _cmd_sss(args) -> tuple[dict, str]:
    w = _word(args)
    budget = resolve_budget(args.budget)
    data = sss_representative(w)
    payload = {
        "representative": data.representative.to_json(),
        "inf_conj": data.inf_conj,
        "sup_conj": data.sup_conj,
        "witness": data.witness.render(),
    }
    lines = [
        f"representative: {data.representative.text()}",
        f"inf[b]={data.inf_conj} sup[b]={data.sup_conj}",
    ]
    if args.enumerate:
        elements = sss_enumerate(data, budget)
        payload["size"] = len(elements)
        payload["elements"] = sorted(lcf_to_word(e).render() for e in elements)
        lines.append(f"size: {len(elements)}")
    return payload, "\n".join(lines)


def _cmd_conjugate(args) -> tuple[dict, str]:
    result = are_conjugate(_word(args, "word1"), _word(args, "word2"), args.budget)
    payload = {
        "conjugate": result.conjugate,
        "witness": result.witness.render() if result.witness is not None else None,
        "sss_size_a": result.sss_size_a,
        "sss_size_b": result.sss_size_b,
    }
    human = "conjugate" if result.conjugate else "not conjugate"
    if result.witness is not None:
        human += f"\nwitness: {result.witness.render() or 'e'}"
    return payload, human


def _cmd_classify(args) -> tuple[dict, str]:
    report = braid_report(_word(args), args.budget)
    verdict = report.strictly_asqp
    payload = {
        "sqp": report.sqp,
        "conj_sqp": report.conj_sqp,
        "asqp_necessary": report.asqp_necessary,
        "conj_strictly_asqp": verdict.holds,
        "conj_strictly_asqp_definitive": verdict.definitive,
        "nb": report.nb.to_json(),
        "nb_class": report.nb_class.to_json(),
    }
    human = "\n".join(f"{k}: {v}" for k, v in payload.items())
    return payload, human


def _cmd_nb(args) -> tuple[dict, str]:
    report = braid_report(_word(args))
    payload = {"word_level": report.nb.to_json(), "class_level": report.nb_class.to_json()}
    human = "\n".join(
        f"{scope}: lower={rep['lower']} upper={rep['upper']} exact={rep['exact']}"
        for scope, rep in payload.items()
    )
    return payload, human


def _cmd_fdtc(args) -> tuple[dict, str]:
    payload = braid_report(_word(args)).fdtc.to_json()
    human = f"c(b) in [{payload['lower']}, {payload['upper']}]"
    if payload["exact"] is not None:
        human += f" (exact: {payload['exact']})"
    return payload, human


def _cmd_catalog(args) -> tuple[dict, str]:
    factors = enumerate_factors(args.n)
    if args.count:
        return {"count": len(factors)}, str(len(factors))
    index = {f: i for i, f in enumerate(factors)}
    hasse = [
        [index[a], index[b]]
        for a in factors
        for b in factors
        if b.word_length == a.word_length + 1 and precedes(a, b)
    ]
    payload = {
        "n": args.n,
        "count": len(factors),
        "factors": [
            {
                "id": i,
                "partition": f.text(),
                "blocks": f.json_blocks(),
                "word": factor_to_word(f).render(),
                "word_length": f.word_length,
            }
            for i, f in enumerate(factors)
        ],
        "hasse_edges": hasse,
    }
    lines = [f"{row['id']:3d}  {row['partition']:<24} {row['word']}" for row in payload["factors"]]
    lines.append(f"count: {len(factors)}; cover relations: {len(hasse)}")
    return payload, "\n".join(lines)


def _pair_row(text: dict[CanonicalFactor, str], a: CanonicalFactor, b: CanonicalFactor) -> dict:
    # The pair comes back unchanged exactly when complement(a) ^ b = e.
    wa, wb = left_weight_pair(a, b)
    return {
        "left": text[a],
        "right": text[b],
        "increasable": wa is not a,
        "weighted": [text[wa], text[wb]],
    }


def pair_rows(n: int) -> list[dict]:
    """Left-weighting classification of every ordered factor pair."""
    text = {f: f.text() for f in enumerate_factors(n)}
    return [_pair_row(text, a, b) for a in text for b in text]


def collapse_rows(n: int) -> list[dict]:
    """One row per rotation class of ordered pairs, with the orbit size.

    Visiting pairs in (text, text) order meets each tau-orbit first at its
    least pair, whose row speaks for the orbit (tau keeps increasability).
    """
    text = dict(sorted(((f, f.text()) for f in enumerate_factors(n)), key=lambda p: p[1]))
    seen: set[tuple[CanonicalFactor, CanonicalFactor]] = set()
    rows = []
    for a in text:
        for b in text:
            if (a, b) in seen:
                continue
            orbit = {(tau(a, k), tau(b, k)) for k in range(n)}
            seen |= orbit
            row = _pair_row(text, a, b)
            row["orbit"] = len(orbit)
            rows.append(row)
    return rows


def _cmd_tables(args) -> tuple[dict, str]:
    rows = collapse_rows(args.n) if args.collapse else pair_rows(args.n)
    increasable = sum(r["increasable"] for r in rows)
    payload = {
        "n": args.n,
        "collapsed": bool(args.collapse),
        "rows": rows,
        "increasable_count": increasable,
        "non_increasing_count": len(rows) - increasable,
    }
    lines = []
    for r in rows:
        mark = "=>" if r["increasable"] else "||"
        target = f" {mark} ({r['weighted'][0]})({r['weighted'][1]})" if r["increasable"] else f" {mark}"
        orbit = f"  x{r['orbit']}" if "orbit" in r else ""
        lines.append(f"({r['left']})({r['right']}){target}{orbit}")
    lines.append(
        f"increasable: {payload['increasable_count']}; "
        f"non-increasing: {payload['non_increasing_count']}"
    )
    return payload, "\n".join(lines)


def _cmd_render(args) -> tuple[Optional[dict], str]:
    target = args.target.strip()
    if target.startswith("{") or target == "e":
        svg = render_svg(parse_partition_text(target, args.n))
    else:
        svg = render_svg(lcf(parse_word(target, args.n)))
    return None, svg


def run(argv: list[str], out=None) -> int:
    out = sys.stdout if out is None else out
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        check_strand_count(args.n)
        _read_stdin_word(args)
        payload, human = args.handler(args)
        use_json = payload is not None and getattr(args, "json", False)
        text = json.dumps(payload, indent=2, sort_keys=True) if use_json else human
        with open(args.o, "w", encoding="utf-8") if args.o else nullcontext(out) as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        return 0
    except (BudgetExceededError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
