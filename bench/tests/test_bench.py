"""Tests of the benchmark's own code.  Run: python3 -m pytest bench/tests -q"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_p90_needs_ten_samples_above_it():
    values = [float(i) for i in range(1, 101)]
    assert run.percentile(values, 90) == 90.0
    assert run.percentile(values, 50) == 50.0
    with pytest.raises(run.BenchError):
        run.percentile(values[:99], 90)
    assert run.percentile(list(reversed(values[:20])), 50) == 10.0


def _spans(rows):
    starts, ends, parents = zip(*rows)
    return tracing.self_times(starts, ends, parents)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping: union 4) and
    # [8, 12] (clipped to 2); the first child has a grandchild [1.5, 2.5].
    rows = [(0.0, 10.0, -1), (1.0, 3.0, 0), (1.5, 2.5, 1), (2.0, 5.0, 0), (8.0, 12.0, 0)]
    assert _spans(rows) == pytest.approx([4.0, 1.0, 1.0, 3.0, 4.0])


def test_self_times_of_a_tree_sum_to_the_root_duration():
    rows = [(0.0, 6.0, -1), (1.0, 2.0, 0), (2.0, 4.0, 0), (2.5, 3.0, 2)]
    selfs = _spans(rows)
    assert selfs == pytest.approx([3.0, 1.0, 1.5, 0.5])
    assert sum(selfs) == pytest.approx(6.0)


def test_tracer_nests_spans_and_restores_every_binding(tmp_path):
    import bandforge
    import bandforge.cli
    import bandforge.normal_form

    originals = (bandforge.lcf, bandforge.normal_form.lcf, bandforge.cli.lcf, bandforge.factors.complement)
    word = bandforge.parse_word("A(3,1) a(2,1) a(3,2)", 3)
    tracer = tracing.Tracer()
    tracer.install(bandforge)
    try:
        assert bandforge.lcf is bandforge.normal_form.lcf is bandforge.cli.lcf
        assert bandforge.lcf is not originals[0]
        tracer.query = 7
        form = bandforge.lcf(word)
    finally:
        tracer.uninstall()
    assert (bandforge.lcf, bandforge.normal_form.lcf, bandforge.cli.lcf, bandforge.factors.complement) == originals
    assert form == bandforge.lcf(word)

    path = tmp_path / "spans.bin"
    tracing.write_spans(tracer, path)
    spans = tracing.read_spans(path)
    assert len(spans) == len(tracer) > 1
    root = spans[0]
    assert root[0] == "normal_form.lcf" and root[3] == -1 and root[4] == 7
    assert all(parent >= 0 for _, _, _, parent, _ in spans[1:])
    totals = tracing.layer_totals(tracer)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(root[2] - root[1])
    assert totals["normal_form"]["calls"] >= 1 and totals["factors"]["calls"] >= 1


def test_inputs_are_deterministic_and_built_as_stated():
    assert workloads.inputs("conjugacy_b4", 4, 2) == workloads.inputs("conjugacy_b4", 4, 2)
    assert workloads.inputs("conjugacy_b4", 4, 2) != workloads.inputs("conjugacy_b4", 5, 2)
    for pair in workloads.inputs("conjugacy_b4", 4, 2):
        w1, w2 = workloads.letters_of(pair["w1"]), workloads.letters_of(pair["w2"])
        assert workloads.writhe(w1) == workloads.writhe(w2)
        if not pair["conjugate"]:
            types = {workloads.cycle_type(workloads.permutation(4, w)) for w in (w1, w2)}
            assert len(types) == 2
    queries = workloads.inputs("cli_classify_b4", 4, 0)
    assert {(q["argv"][0], q["negatives"]) for q in queries[:12]} == {
        (c, k) for c in workloads.CLI_COMMANDS for k in workloads.CLI_NEGATIVES
    }
    word = workloads.letters_of(workloads.inputs("lcf_wide", 4, 0)[0]["word"])
    assert len(word) == workloads.LCF_LEN
    assert sum(1 for _, _, sign in word if sign < 0) == workloads.LCF_NEG


def _bench(seconds: str, *args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli_classify_b4", "--seconds", seconds, *args],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    digest = next(line.split()[2] for line in proc.stdout.splitlines() if "answers sha256" in line)
    return {"digest": digest, **last}


def test_digest_covers_a_fixed_prefix_of_rounds_and_tracing_changes_no_answer():
    per_round = workloads.ROUND_QUERIES["cli_classify_b4"]
    # A tiny --seconds runs exactly DIGEST_ROUNDS rounds; a longer one runs more.
    short = _bench("0.1", "--seed", "21")
    assert short["attempted"] == run.DIGEST_ROUNDS * per_round
    assert set(short["metrics"]) == {"setup_s", "throughput_qps", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb"}
    longer = _bench("35", "--seed", "21")
    assert longer["attempted"] > short["attempted"]
    assert longer["digest"] == short["digest"]
    # A trace run runs each round twice, untraced and traced.
    traced = _bench("0.1", "--seed", "21", "--trace", "1")
    assert traced["attempted"] == 2 * run.DIGEST_ROUNDS * per_round
    assert traced["digest"] == short["digest"]
    assert traced["metrics"]["cli.summit_calls_per_query"]["value"] > 0
