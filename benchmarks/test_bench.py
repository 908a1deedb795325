"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from metrics import quartile_spread, r99, tail_percentile, tts99  # noqa: E402
from reference import NOMINAL_S, SAMPLE_INTERVAL_S, Sampler, reference_seconds, scale  # noqa: E402
from tracing import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(trace: int) -> list[tuple[list[str], dict]]:
    """(human lines, JSON result) for each workload of one smoke run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--seed", "3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    blocks, lines = [], []
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            blocks.append((lines, json.loads(line)))
            lines = []
        else:
            lines.append(line)
    return blocks


@pytest.fixture(scope="module")
def smoke_untraced():
    return smoke(0)


@pytest.fixture(scope="module")
def smoke_traced():
    return smoke(1)


def test_declared_workloads_are_the_runners():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


def test_untraced_metric_names_equal_declared_end_to_end(smoke_untraced):
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert len(smoke_untraced) == len(run.WORKLOADS)
    for lines, result in smoke_untraced:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        printed = {line.split()[0] for line in lines if line.strip()}
        assert set(declared) | {"solved_frac", "failed_frac", "ground_frac", "tts99_s"} <= printed


def test_traced_metric_names_equal_declared_per_layer(smoke_traced):
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    for lines, result in smoke_traced:
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        printed = {line.split()[0] for line in lines if line.strip()}
        assert set(declared) <= printed


def test_smoke_runs_one_operation_per_workload(smoke_untraced, smoke_traced):
    for _, result in smoke_untraced:
        assert result["attempted"] == 1
        assert result["correct"] and result["failed"] == 0
    for _, result in smoke_traced:  # one untraced and one traced pass
        assert result["attempted"] == 2
        assert result["correct"] and result["failed"] == 0


def test_tts99_unbounded_when_an_instance_never_reaches_ground():
    assert math.isinf(r99(0.0))
    assert math.isinf(tts99([(0.5, 100, 0.2), (1.0, 100, 0.0)]))
    assert run.fmt(math.inf) == "unbounded"


def test_r99_is_one_read_at_high_success():
    assert r99(0.99) == 1.0
    assert r99(1.0) == 1.0
    assert tts99([(2.0, 100, 1.0)]) == pytest.approx(0.02)
    assert r99(0.5) == pytest.approx(math.log(0.01) / math.log(0.5))


def test_tts99_is_geometric_mean_over_instances():
    a, b = (1.0, 100, 0.5), (4.0, 100, 0.5)
    expected = math.sqrt(0.01 * 0.04) * r99(0.5)
    assert tts99([a, b]) == pytest.approx(expected)


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 34))  # 33 samples
    pct, value, n, beyond = tail_percentile(values)
    assert (n, beyond) == (33, 10)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 23 / 33)


def test_tail_percentile_falls_back_to_median_below_eleven_samples():
    assert tail_percentile([3, 1, 2])[:3] == (50.0, 2, 3)
    pct, value, n, beyond = tail_percentile(range(11))
    assert (value, beyond) == (0, 10)


def test_quartile_spread_matches_statistics_quantiles():
    assert quartile_spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


def test_reference_scale_maps_the_bracketing_loop_to_nominal():
    assert scale([NOMINAL_S, NOMINAL_S]) == pytest.approx(1.0)
    assert scale([NOMINAL_S, 3 * NOMINAL_S]) == pytest.approx(0.5)
    assert reference_seconds() > 0


def test_sampler_reads_the_reference_during_a_long_operation():
    sampler = Sampler()
    with sampler.active():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * SAMPLE_INTERVAL_S:
            pass
    assert len(sampler.readings) >= 2 and sampler.spent > 0
    readings = len(sampler.readings)
    time.sleep(2 * SAMPLE_INTERVAL_S)
    assert len(sampler.readings) == readings  # the timer stopped with the block


def test_tracer_scales_self_times_per_op():
    tracer = Tracer()
    tracer.spans = [["cli.main", "cli.self", 0.0, 2.0, None, 0],
                    ["solver.anneal", "solver.anneal", 0.5, 1.5, 0, 0],
                    ["cli.main", "cli.self", 3.0, 4.0, None, 1]]
    assert tracer.self_times({0: 0.5, 1: 2.0}) == {"cli.self": 0.5 + 2.0, "solver.anneal": 0.5}
    assert tracer.self_times() == {"cli.self": 2.0, "solver.anneal": 1.0}


def test_pass_seconds_sums_per_operation_medians():
    a, b = run.Op("build", "turyn", 8), run.Op("build", "williamson", 7)
    passes = [run.Pass(False, [a, b], [1.0, 10.0], [1.0, 10.0], []),
              run.Pass(False, [b, a], [30.0, 2.0], [30.0, 2.0], []),
              run.Pass(False, [a, b], [9.0, 20.0], [9.0, 20.0], [])]
    assert run.pass_seconds(passes) == 2.0 + 20.0


def test_tracer_records_nested_spans_and_restores_functions(tmp_path):
    import hadsearch.cli as cli
    import hadsearch.hadamard as hm

    original = cli.main, hm.verify
    tracer = Tracer()
    with tracer.installed():
        assert cli.main is not original[0]
        rc = cli.main(["search", "--method", "williamson", "--k", "3", "--out", str(tmp_path)])
    assert rc == 0
    assert (cli.main, hm.verify) == original
    roots = [s for s in tracer.spans if s[4] is None]
    assert [s[0] for s in roots] == ["cli.main"]
    assert tracer.calls()["hadamard.verify"] == 3
    total = sum(tracer.self_times().values())
    assert total == pytest.approx(roots[0][3] - roots[0][2])


def test_search_check_rejects_a_corrupted_matrix(tmp_path):
    import hadsearch.cli as cli

    op = run.Op("search", "williamson", 3)
    assert cli.main(op.argv(str(tmp_path))) == 0
    assert checks.check_search(op, tmp_path, 0).status == "solved"
    path = tmp_path / "matrix.txt"
    text = path.read_text()
    path.write_text(("-" if text[0] == "+" else "+") + text[1:])
    outcome = checks.check_search(op, tmp_path, 0)
    assert outcome.status == "failed" and "HᵀH" in outcome.reason


def test_search_check_rejects_a_false_ground_read(tmp_path):
    import hadsearch.cli as cli
    from hadsearch.constructions import williamson_energy

    op = run.Op("search", "williamson", 3)
    assert cli.main(op.argv(str(tmp_path))) == 0
    terms = williamson_energy(3).terms
    assert checks.check_search(op, tmp_path, 0, terms).status == "solved"
    (tmp_path / "samples.txt").write_text("0 1 ++++++++\n")
    assert checks.check_search(op, tmp_path, 0, terms).status == "failed"


def test_build_check_holds_the_defining_constants(tmp_path):
    import hadsearch.cli as cli

    op = run.Op("build", "williamson", 7)
    assert cli.main(op.argv(str(tmp_path))) == 0
    assert checks.check_build(op, tmp_path, 0).status == "solved"
    (tmp_path / "manifest.txt").write_text(
        (tmp_path / "manifest.txt").read_text().replace("delta=3355968", "delta=1"))
    assert checks.check_build(op, tmp_path, 0).status == "failed"


def test_exit_codes_two_and_three_count_as_failed(tmp_path):
    op = run.Op("search", "williamson", 3)
    assert checks.check_search(op, tmp_path, 2).status == "failed"
    assert checks.check_build(run.Op("build", "williamson", 7), tmp_path, 3).status == "failed"
