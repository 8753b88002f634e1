"""bandforge benchmark: end-to-end metrics per workload, or per-layer metrics traced.

Usage:
    python3 bench/run.py --workload lcf_wide --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

Run from the repository root, or anywhere: the program is imported from the
src/ directory next to this one.  A run is a closed loop with one caller.
It runs rounds of a fixed number of queries, each round in a fresh
interpreter (bench/worker.py), one at a time: DIGEST_ROUNDS rounds, then
more for as long as --seconds allow.  A fresh interpreter per round keeps
the process-global memo tables of one round from warming the next and from
adding to its memory.

With --trace 0 it prints the end-to-end metrics.  With --trace 1 every round
runs twice on the same inputs, untraced and traced, in alternating order; it
prints the per-layer metrics from the traced rounds and the tracing
overhead, and requires both runs of a round to give the same answers.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record (every round, the failures,
Python version, nproc and commit) goes to bench/results/, and with --trace 1
the spans of each traced round go to bench/results/spans/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKER = BENCH / "worker.py"

#: Every run completes at least these rounds, and the answer digest covers
#: exactly them, so it does not depend on how many rounds fit in the time.
DIGEST_ROUNDS = 2
#: The longest --seconds accepted; every round ends by TIME_LIMIT.
MAX_SECONDS, TIME_LIMIT = 120.0, 170.0


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; refused unless at least 10 samples lie above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    if len(ordered) - rank < 10:
        raise BenchError(f"p{pct:g} of {len(ordered)} samples has fewer than 10 samples above it")
    return ordered[rank - 1]


def run_round(workload: str, seed: int, index: int, traced: bool, started: float) -> dict:
    spans = RESULTS / "spans" / f"{workload}-r{index}.bin"
    argv = [sys.executable, str(WORKER), workload, str(seed), str(index), "1" if traced else "0", str(spans)]
    # A fixed hash seed keeps set and dict layouts, and so timings, the same
    # from one interpreter to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = TIME_LIMIT - (time.monotonic() - started)
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"round {index} of {workload} did not end within {TIME_LIMIT:g} s of the run") from None
    if proc.returncode != 0:
        raise BenchError(f"round {index} of {workload} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Plain and traced rounds: DIGEST_ROUNDS of them, then more while time is left.

    A further round starts only if it is expected to end less than half a
    round after the time is up, so a run lasts about --seconds on average.
    """
    if trace:
        shutil.rmtree(RESULTS / "spans", ignore_errors=True)
        (RESULTS / "spans").mkdir(parents=True)
    plain, traced = [], []
    started = time.monotonic()
    index, last = 0, 0.0
    while index < DIGEST_ROUNDS or time.monotonic() - started + last / 2 < seconds:
        round_started = time.monotonic()
        order = ((False, True) if index % 2 == 0 else (True, False)) if trace else (False,)
        for is_traced in order:
            result = run_round(workload, seed, index, is_traced, started)
            result["round"] = index
            (traced if is_traced else plain).append(result)
        last = time.monotonic() - round_started
        index += 1
    return plain, traced


def throughput(rounds: list[dict]) -> float:
    """Completed queries divided by the time spent in queries."""
    spent = sum(sum(r["latencies"]) for r in rounds)
    attempted = sum(len(r["latencies"]) for r in rounds)
    return (attempted - sum(r["raised"] for r in rounds)) / spent


def end_to_end(rounds: list[dict]) -> dict:
    latencies = [x for r in rounds for x in r["latencies"]]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "throughput_qps": (throughput(rounds), "queries/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in rounds) / 1024, "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    counts = [r["layers"] for r in traced]
    queries = sum(c["queries"] for c in counts)

    def total(key: str) -> float:
        return sum(c[key] for c in counts)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (sum(c["layers"][layer]["self_s"] for c in counts) / queries, "s/query")
        metrics[f"{layer}.calls"] = (sum(c["layers"][layer]["calls"] for c in counts) / queries, "calls/query")
    memo = [sum(c["factors_memo"][i] for c in counts) for i in range(3)]
    lwp_hits, lwp_misses = (sum(c["lwp_memo"][i] for c in counts) for i in range(2))
    new_elements = total("sss_elements") - total("sss_enumerations")
    untraced_qps, traced_qps = throughput(plain), throughput(traced)
    metrics.update(
        {
            "factors.memo_entries": (statistics.median(c["factors_memo"][0] for c in counts), "count"),
            "factors.memo_hit_ratio": (ratio(memo[1], memo[1] + memo[2]), "ratio"),
            "normal_form.lwp_hit_ratio": (ratio(lwp_hits, lwp_hits + lwp_misses), "ratio"),
            "conjugacy.sss_elements": (total("sss_elements") / queries, "count/query"),
            "conjugacy.closure_yield": (ratio(new_elements, total("closure_candidates")), "ratio"),
            "cli.summit_calls_per_query": (ratio(total("summit_calls"), total("cli_runs")), "calls/query"),
            "trace.spans_per_query": (total("spans") / queries, "count/query"),
            "trace.untraced_qps": (untraced_qps, "queries/s"),
            "trace.traced_qps": (traced_qps, "queries/s"),
            "trace.overhead_qps": (untraced_qps - traced_qps, "queries/s"),
        }
    )
    return metrics


def environment() -> dict:
    """Python version, usable CPUs and the code measured."""
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)), "commit": commit}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    plain, traced = run_rounds(workload, seed, seconds, trace)
    rounds = plain + traced
    attempted = sum(len(r["latencies"]) for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    mismatched = [
        p["round"] for p, t in zip(plain, traced) if p["digest"] != t["digest"]
    ]
    digest = workloads.digest([r["digest"] for r in plain[:DIGEST_ROUNDS]])
    metrics = per_layer(plain, traced) if trace else end_to_end(plain)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        **env,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "digest": digest,
        "traced_digest_mismatches": mismatched,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": [dict(f, round=r["round"]) for r in rounds for f in r["failures"]][:20],
        "rounds": [
            {
                "round": r["round"],
                "traced": "layers" in r,
                "queries": len(r["latencies"]),
                "query_s": sum(r["latencies"]),
                "setup_s": r["setup_s"],
                "rss_kb": r["rss_kb"],
                "digest": r["digest"],
            }
            for r in rounds
        ],
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(
        f"{workload}: seed {seed}, {len(plain)} rounds, {sum(len(r['latencies']) for r in plain)} timed queries; "
        f"python {env['python']}, nproc {env['nproc']}, commit {env['commit'] or 'unknown'}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(f"  {'failed_ratio':<28} {failed / attempted:>14.6g} fraction ({failed} of {attempted})")
    print(f"  answers sha256 {digest} over rounds 0..{DIGEST_ROUNDS - 1}")
    for failure in record["failures"][:3]:
        print(f"  failed: {json.dumps(failure)}")
    if mismatched:
        print(f"  traced answers differ from untraced ones in rounds {mismatched}")
    print(f"  record: {path.relative_to(ROOT)}")
    return {
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS:g}]")
    if not (ROOT / "src" / "bandforge" / "__init__.py").is_file():
        print(f"error: no bandforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), env) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = results[args.workload]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
