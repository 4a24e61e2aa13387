"""Multi-round executor scaling on the columnar engine.

Runs the two-round bushy plan for the chain query ``L_4`` on
permutation databases (``m = n``, so every intermediate view stays at
``m`` tuples and the work is dominated by routing + joining, not by
answer blowup) across input sizes, checking that every run has the
plan's rounds and the expected answer count.

``python benchmarks/bench_multiround_scaling.py`` sweeps up to
``n = 10^6`` and prints a timing table.  CI runs the latency benchmark
with ``--benchmark-json`` and uploads the artifact next to
``bench_planner.json``.
"""

from __future__ import annotations

import time

from repro.data.generators import matching_database
from repro.multiround.executor import run_plan
from repro.multiround.plans import chain_plan

P = 16
SEED = 42
PLAN = chain_plan(4, eps=0.0)  # two rounds: binary joins, then the root


def permutation_database(n: int):
    return matching_database(PLAN.query, m=n, n=n, seed=SEED, backend="numpy")


def timed_run(n: int) -> dict:
    """One timed run: seconds, answer count, total bits communicated."""
    db = permutation_database(n)
    start = time.perf_counter()
    result = run_plan(PLAN, db, P, seed=SEED)
    count = len(result.answers_array())
    elapsed = time.perf_counter() - start
    assert result.rounds == PLAN.depth
    return {
        "n": n,
        "seconds": elapsed,
        "answers": count,
        "total_bits": result.report.total_bits,
    }


def format_rows(rows: list[dict]) -> list[str]:
    lines = [
        f"{'n':>10} {'run [s]':>9} {'answers':>9} {'total bits':>12}"
        f"   (L4 bushy plan, {PLAN.depth} rounds, p={P})"
    ]
    for r in rows:
        lines.append(
            f"{r['n']:>10,} {r['seconds']:>9.3f} {r['answers']:>9,} "
            f"{r['total_bits']:>12,.0f}"
        )
    return lines


def test_multiround_scaling_small(report_table):
    rows = [timed_run(n) for n in (10_000, 50_000)]
    report_table("Multi-round scaling (L4 bushy plan)", format_rows(rows))


def test_multiround_numpy_latency(benchmark):
    """Columnar run_plan wall-clock -- the number to track over PRs."""
    db = permutation_database(20_000)
    result = benchmark(run_plan, PLAN, db, P, SEED)
    assert result.rounds == PLAN.depth


if __name__ == "__main__":
    results = []
    for size in (10_000, 100_000, 1_000_000):
        print(f"running n = {size:,} ...", flush=True)
        results.append(timed_run(size))
    print()
    print("\n".join(format_rows(results)))
