"""The benchmark's own tests: output schema, tail rule, attribution.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (this directory, put on the path above)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_output_schema(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--smoke",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {
        name: (entry["unit"], isinstance(entry["value"], (int, float)))
        for name, entry in result["metrics"].items()
    } == {m["name"]: (m["unit"], True) for m in declared}
    for metric in BENCHMARK["end_to_end"]:
        assert any(line.startswith(f"{metric['name']} = ") for line in lines)
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_metric_tables_match_benchmark_json():
    assert run.E2E_UNITS == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert run.LAYER_UNITS == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }


def test_without_program_exits_nonzero_and_prints_no_result():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run(bare, "--workload", WORKLOADS[0], "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("n, pct, rank", [
    (1, 100, 1), (10, 100, 10), (11, 9, 1), (20, 50, 10), (30, 66, 20),
    (100, 90, 90), (1000, 99, 990),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct, rank):
    samples = [float(i) for i in range(1, n + 1)]
    got_pct, value = run.tail(list(reversed(samples)))
    assert (got_pct, value) == (pct, float(rank))
    if n > 10:
        assert sum(s > value for s in samples) >= 10


def test_host_factors_follow_the_local_probe_median():
    nominal = run.PROBE_NOMINAL_S
    steady = run.host_factors([nominal] * 4)
    assert steady == [1.0] * 4
    # The host halves its speed after op 4; one probe is an outlier.
    probes = [nominal] * 5 + [2 * nominal] * 5
    probes[1] = 10 * nominal
    factors = run.host_factors(probes)
    assert factors[:3] == [1.0] * 3
    assert factors[-3:] == [0.5] * 3


def _traced_layers(prepared, delays):
    from layer_trace import LayerTracer

    tracer = LayerTracer(delays)
    for op in range(2):
        tracer.install()
        root = tracer.begin_op(op)
        try:
            prepared.op()
        finally:
            tracer.end_op(root)
            tracer.uninstall()
    summary = tracer.summary()
    calls = sum(1 for meta in tracer.meta if meta[1] == "join_arrays")
    return summary["self_s"], calls


def test_injected_delay_lands_in_its_layer_only():
    run.import_program()
    from repro import Session, triangle_query, zipf_database
    from repro.planner.statistics import DataStatistics

    from workloads import Prepared

    q = triangle_query()
    db = zipf_database(q, m=2_000, n=2_000, skew=1.0, seed=3)
    stats = DataStatistics.from_database(q, db, 16)
    session = Session(p=16, seed=0)
    prepared = Prepared(
        session, lambda variant: [session.run(q, db, stats=stats)],
        [[(q, db)]],
    )
    try:
        prepared.op()  # warm-up
        base, _ = _traced_layers(prepared, {})
        delay = 0.005
        slowed, calls = _traced_layers(prepared, {"join_arrays": delay})
    finally:
        prepared.close()
    injected = calls * delay
    assert calls > 0
    grown = slowed["join"] - base["join"]
    assert injected * 0.9 < grown < injected * 1.5 + 0.02
    for layer in set(base) | set(slowed):
        if layer != "join":
            change = abs(slowed.get(layer, 0.0) - base.get(layer, 0.0))
            assert change < 0.1 * injected + 0.02, (layer, change)
