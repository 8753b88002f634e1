"""One benchmark round in a fresh interpreter; prints one JSON object.

Usage: python3 bench/worker.py WORKLOAD SEED ROUND TRACE SPANS_PATH

The round imports bandforge from the checkout's src/ directory, parses the
round's inputs (together: the set-up time), then runs its queries one after
another, each timed alone.  Checks run after the last query, so they neither
count in the timings nor warm the memo tables between queries.  With TRACE
set to 1 the tracer wraps the layers before the first query and the spans
are written to SPANS_PATH after the last one.
"""

import json
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    name, seed, round_index, trace, spans_path = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1", argv[4]
    specs = workloads.inputs(name, seed, round_index)
    src = ROOT / "src"
    sys.path.insert(0, str(src))

    setup_start = time.perf_counter()
    import bandforge
    import bandforge.cli

    work = workloads.Workload(name, bandforge, specs)
    setup_s = time.perf_counter() - setup_start
    if not Path(bandforge.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported bandforge from {bandforge.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(bandforge)
    latencies, answers = [], []
    for i in range(len(specs)):
        if tracer is not None:
            tracer.query = i
        start = time.perf_counter()
        try:
            answer = work.query(i)
        except Exception as exc:  # a failed query is counted, not fatal
            answer = exc
        latencies.append(time.perf_counter() - start)
        answers.append(answer)
    if tracer is not None:
        tracer.uninstall()

    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = layer_counts(tracer, bandforge, len(specs))
        tracing.write_spans(tracer, spans_path)

    canonical, failures = [], []
    for i, answer in enumerate(answers):
        if isinstance(answer, Exception):
            canonical.append(f"error:{type(answer).__name__}")
            problems = [f"raised {type(answer).__name__}: {answer}"]
        else:
            canonical.append(work.canonical(answer))
            problems = work.check(i, answer)
        if problems:
            failures.append({"query": i, "input": specs[i], "problems": problems})
    result["raised"] = sum(1 for a in answers if isinstance(a, Exception))
    result["failures"] = failures
    result["digest"] = workloads.digest(canonical)
    print(json.dumps(result))
    return 0


def _memo(functions) -> tuple[int, int, int]:
    """(entries, hits, misses) summed over the functions that keep a cache."""
    infos = [f.cache_info() for f in functions if hasattr(f, "cache_info")]
    return (
        sum(i.currsize for i in infos),
        sum(i.hits for i in infos),
        sum(i.misses for i in infos),
    )


def layer_counts(tracer: tracing.Tracer, bandforge, queries: int) -> dict:
    """The round's per-layer sums; the caller divides by queries over all rounds."""
    factors = bandforge.factors
    public = [v for k, v in vars(factors).items() if not k.startswith("_")]
    entries, hits, misses = _memo(f for f in public if getattr(f, "__module__", None) == factors.__name__)
    lwp = getattr(bandforge.normal_form, "left_weight_pair", None)
    _, lwp_hits, lwp_misses = _memo([lwp])
    return {
        "queries": queries,
        "layers": tracing.layer_totals(tracer),
        "factors_memo": [entries, hits, misses],
        "lwp_memo": [lwp_hits, lwp_misses],
        "sss_elements": tracer.sss_elements,
        "sss_enumerations": tracing.count_spans(tracer, tracing.SSS_ENUMERATE),
        # Candidate conjugates normalised inside the closure.
        "closure_candidates": sum(
            tracing.count_spans(tracer, f"normal_form.{fn}", parent=tracing.SSS_ENUMERATE)
            for fn in ("lcf", "lcf_of_factors")
        ),
        "summit_calls": tracing.count_spans(tracer, "conjugacy.sss_representative"),
        "cli_runs": tracing.count_spans(tracer, "cli.run"),
        "spans": len(tracer),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
