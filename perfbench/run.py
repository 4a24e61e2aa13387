"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload triangle-zipf --seed 3 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; their
times are scaled to a nominal host speed by a probe loop timed after
every op (see :data:`PROBE_LOOPS`), and are also printed unscaled.
``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics of the traced ones, the tracing overhead, and the
coverage and reconciliation checks.  ``--smoke`` runs a single op (one
per mode) for schema checks.

Every op's answers are checked against the sequential
``repro.join.evaluate`` oracle, and every op's loads against the first
op's.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
1 when any check failed.  Without ``src/repro`` next to this directory
the script exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import multiprocessing
import os
import pathlib
import resource
import statistics
import sys
import tempfile
import time
from multiprocessing import resource_tracker

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (spill files, span dumps) stays under here.
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(SRC))

#: Setup repetitions in an untraced run; setup_s is their median.
SETUP_REPS = 3
#: Minimum share of op wall time the named layers must cover.
MIN_COVERAGE = 0.90
#: Largest relative gap allowed between a traced phase total and the
#: program's own ``RunRecord.phase_seconds`` for the same phase.
PHASE_TOLERANCE = 0.05
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
#: An untraced run measures at least this many ops, even past
#: ``--seconds``, so that ``op_tail_s`` always has a percentile with
#: :data:`TAIL_BEYOND` samples beyond it.  (A run that straddled ten
#: ops would switch between the maximum and the second-fastest op.)
MIN_OPS = TAIL_BEYOND + 1
#: Iterations of the host-speed probe, a fixed pure-Python loop timed
#: after every set-up and every op.  The shared host this benchmark was
#: built on runs the same code up to ~40% slower for minutes at a time
#: (other tenants); the probe slows with it, so each time metric is
#: scaled to the speed at which the probe takes ``PROBE_NOMINAL_S``
#: (see :func:`host_factors`).
PROBE_LOOPS = 300_000
#: The probe's median time on that host (2-core Xeon at 2.1 GHz,
#: CPython 3.11), over four minutes interleaved with ops: the speed the
#: scaled seconds refer to.
PROBE_NOMINAL_S = 0.0193

E2E_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "max_load_bits": "bits",
    "total_bits": "bits",
    "rounds": "count",
}

LAYER_UNITS = {
    "planner.statistics_s": "s",
    "planner.statistics_calls": "count",
    "planner.rank_s": "s",
    "planner.prediction_ratio": "ratio",
    "hashing.hash_array_s": "s",
    "hashing.values_hashed": "count",
    "route.s": "s",
    "route.rows_in": "count",
    "route.rows_out": "count",
    "route.replication": "ratio",
    "arrays.row_order_s": "s",
    "arrays.rows_sorted": "count",
    "join.s": "s",
    "join.rows_in": "count",
    "join.intermediate_rows": "count",
    "join.rows_out": "count",
    "join.answers_per_intermediate_row": "ratio",
    "mpc.deliver_s": "s",
    "mpc.batches": "count",
    "mpc.bits_delivered": "bits",
    "storage.write_s": "s",
    "storage.read_s": "s",
    "storage.bytes_written": "B",
    "storage.bytes_read": "B",
    "storage.files_created": "count",
    "storage.peak_live_bytes": "B",
    "pool.worker_busy_s": "s",
    "pool.overhead_s": "s",
    "pool.utilization": "ratio",
    "session.self_s": "s",
    "session.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: Span self-time layer behind each per-layer seconds metric.
LAYER_SECONDS = {
    "planner.statistics_s": "planner.statistics",
    "planner.rank_s": "planner.rank",
    "hashing.hash_array_s": "hashing",
    "route.s": "route",
    "arrays.row_order_s": "arrays",
    "join.s": "join",
    "mpc.deliver_s": "mpc",
    "storage.write_s": "storage.write",
    "storage.read_s": "storage.read",
    "session.self_s": "session",
}

#: Per-op span counters reported as they are summed.
LAYER_COUNTS = (
    "planner.statistics_calls",
    "hashing.values_hashed",
    "route.rows_in",
    "route.rows_out",
    "arrays.rows_sorted",
    "join.rows_in",
    "join.intermediate_rows",
    "join.rows_out",
    "mpc.batches",
    "mpc.bits_delivered",
)

SPILL_KEYS = ("bytes_written", "files_created", "bytes_read", "reads")


# ----------------------------------------------------------------- ops


def answer_digest(rows) -> str:
    """A digest of an answer set, independent of row order."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return "empty"
    rows = rows.reshape(len(rows), -1)
    rows = rows[np.lexsort(rows.T[::-1])]
    return f"{rows.shape}:" + hashlib.blake2b(rows.tobytes()).hexdigest()


def oracle_digest(answers: set) -> str:
    if not answers:
        return "empty"
    return answer_digest(np.array(sorted(answers), dtype=np.int64))


def load_fingerprint(report) -> tuple:
    """Everything about a run's loads that must repeat exactly."""
    return (
        report.max_load_bits,
        report.total_bits,
        tuple(tuple(sorted(r.bits.items())) for r in report.rounds),
    )


class Op:
    """What one op left behind for the checks and metrics."""

    def __init__(self, wall: float, traced: bool, variant: int):
        self.wall = wall
        self.traced = traced
        self.variant = variant
        self.error: str | None = None
        self.digests: list[str] = []
        self.loads: list[tuple] = []
        self.jobs = 0
        self.rounds = 0
        self.prediction_ratios: list[float] = []
        self.phase_seconds: dict[str, float] = {}
        self.spill: list[dict] = []
        self.io_delta: dict[str, int] | None = None
        #: Worker-reported seconds (RunRecord.wall_seconds) of its jobs.
        self.busy = 0.0

    def absorb(self, results) -> None:
        self.jobs = len(results)
        for result in results:
            report = result.load_report
            self.digests.append(answer_digest(result.answers_array()))
            self.loads.append(load_fingerprint(report))
            self.rounds += report.num_rounds
            ratio = report.prediction_ratio()
            if ratio is not None:
                self.prediction_ratios.append(ratio)
            for phase, seconds in report.phase_seconds.items():
                self.phase_seconds[phase] = (
                    self.phase_seconds.get(phase, 0.0) + seconds
                )
            if report.spill_stats is not None:
                self.spill.append(report.spill_stats)


def run_op(prepared, variant: int, tracer=None, index: int = 0) -> Op:
    """Run op ``index`` on ``variant``, timed; traced given a tracer."""
    session = prepared.session
    records = len(session.history)
    storage = session.storage
    before = storage.io_counters() if storage is not None else None
    if tracer is not None:
        tracer.install()
    root = tracer.begin_op(index) if tracer is not None else None
    started = time.perf_counter()
    try:
        results = prepared.op(variant)
        error = None
    except Exception as exc:  # a failed op is counted, not fatal
        results, error = [], f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.end_op(root)
        tracer.uninstall()
    op = Op(wall, tracer is not None, variant % len(prepared.variants))
    op.error = error
    if error is None:
        op.absorb(results)
    op.busy = sum(record.wall_seconds for record in session.history[records:])
    storage = session.storage
    if storage is not None:
        after = storage.io_counters()
        before = before or dict.fromkeys(after, 0)
        op.io_delta = {key: after[key] - before[key] for key in SPILL_KEYS}
        op.io_delta["peak_live_bytes"] = after["peak_live_bytes"]
    return op


# ------------------------------------------------------------- metrics


def probe() -> float:
    """Seconds the host takes for the fixed probe loop."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - started


def host_factors(probes: list[float]) -> list[float]:
    """Per probe, ``PROBE_NOMINAL_S`` over the median of it and its two
    neighbours on each side: the factor that scales the wall time of the
    op just before probe ``i`` to the nominal host speed.  The local
    median follows the host's swings within a run and damps the noise
    of a single probe.
    """
    return [
        PROBE_NOMINAL_S / statistics.median(probes[max(0, i - 2):i + 3])
        for i in range(len(probes))
    ]


def tail(samples: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest whole percentile with at
    least :data:`TAIL_BEYOND` samples above its nearest-rank sample.

    With too few samples for any such percentile, the maximum (p100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(pct / 100 * n))
    return float(pct), ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of each live pool child."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            status = pathlib.Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                kib += int(line.split()[1])
    return kib / 1024.0


def end_to_end(
    ops: list[Op], walls: list[float], setup_s: float, rss: float
) -> tuple[dict, float]:
    """The end-to-end metrics and the percentile ``op_tail_s`` is.

    ``walls`` are the ops' times, scaled to the nominal host speed or
    not, and ``setup_s`` the set-up time scaled alike.
    """
    pct, tail_value = tail(walls)
    done = [op for op in ops if op.error is None]
    # The first good op of each variant; the loads are the mean over
    # variants, and within a batch op L is the mean over its jobs.
    references = list(first_by_variant(done).values())

    def per_variant(value) -> float:
        return (
            statistics.fmean(value(op) for op in references)
            if references else 0.0
        )

    metrics = {
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_value,
        "jobs_per_s": sum(op.jobs for op in done) / sum(walls),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "max_load_bits": per_variant(
            lambda op: statistics.fmean(load[0] for load in op.loads)
        ),
        "total_bits": per_variant(
            lambda op: sum(load[1] for load in op.loads)
        ),
        "rounds": per_variant(lambda op: op.rounds),
    }
    return metrics, pct


def per_layer(ops: list[Op], tracer, workers: int) -> dict:
    traced = [op for op in ops if op.traced and op.error is None]
    untraced = [op for op in ops if not op.traced]
    n = max(1, len(traced))
    summary = tracer.summary()
    self_s = summary["self_s"]
    counts = summary["counts"]
    metrics = {
        name: self_s.get(layer, 0.0) / n
        for name, layer in LAYER_SECONDS.items()
    }
    for name in LAYER_COUNTS:
        metrics[name] = counts.get(name, 0) / n
    ratios = [r for op in traced for r in op.prediction_ratios]
    metrics["planner.prediction_ratio"] = (
        statistics.fmean(ratios) if ratios else 0.0
    )
    metrics["route.replication"] = _ratio(
        metrics["route.rows_out"], metrics["route.rows_in"]
    )
    metrics["join.answers_per_intermediate_row"] = _ratio(
        metrics["join.rows_out"], metrics["join.intermediate_rows"]
    )
    for key in ("bytes_written", "bytes_read", "files_created"):
        metrics[f"storage.{key}"] = sum(
            op.io_delta[key] for op in traced if op.io_delta
        ) / n
    metrics["storage.peak_live_bytes"] = max(
        (op.io_delta["peak_live_bytes"] for op in traced if op.io_delta),
        default=0,
    )
    busy = sum(op.busy for op in traced) / n
    wall = sum(op.wall for op in traced) / n
    if workers > 1:
        metrics["pool.worker_busy_s"] = busy
        metrics["pool.overhead_s"] = workers * wall - busy
        metrics["pool.utilization"] = busy / (workers * wall)
    else:
        metrics["pool.worker_busy_s"] = 0.0
        metrics["pool.overhead_s"] = 0.0
        metrics["pool.utilization"] = 0.0
    metrics["session.coverage"] = 1.0 - _ratio(
        self_s.get("session", 0.0), summary["op_s"]
    )
    metrics["trace.overhead"] = _ratio(
        statistics.median(op.wall for op in traced) if traced else 0.0,
        statistics.median(op.wall for op in untraced) if untraced else 0.0,
    )
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -------------------------------------------------------------- checks


def first_by_variant(ops: list[Op]) -> dict[int, Op]:
    first: dict[int, Op] = {}
    for op in ops:
        first.setdefault(op.variant, op)
    return first


def check_ops(
    ops: list[Op], expected: list[list[str]], spills: bool
) -> tuple[int, list[str]]:
    """Count failed ops: exceptions, wrong answers, differing loads.

    ``spills``: the workload exists to spill, so every op must have.
    """
    problems = []
    if spills and not all(
        op.spill and all(spill["files_created"] for spill in op.spill)
        for op in ops if op.error is None
    ):
        problems.append("an op of a spilling workload wrote no spill file")
    references = first_by_variant([op for op in ops if op.error is None])
    failed = 0
    for index, op in enumerate(ops):
        if op.error is not None:
            reason = op.error
        elif op.digests != expected[op.variant]:
            reason = "answers differ from the oracle"
        elif op.loads != references[op.variant].loads:
            reason = "loads differ from the first op on the same input"
        else:
            continue
        failed += 1
        if len(problems) < 5:
            problems.append(f"op {index}: {reason}")
    return failed, problems


def check_trace(
    ops: list[Op], tracer, layers: dict, serial: bool
) -> list[str]:
    """Coverage and reconciliation of the traced ops (empty: all pass).

    ``serial``: every layer runs on this thread, so the spans can cover
    the op and account for every delivered bit.
    """
    traced = [op for op in ops if op.traced and op.error is None]
    problems = []
    if serial:
        coverage = layers["session.coverage"]
        if coverage < MIN_COVERAGE:
            problems.append(
                f"layers cover {coverage:.3f} of op time (< {MIN_COVERAGE})"
            )
        delivered = tracer.summary()["counts"].get("mpc.bits_delivered", 0.0)
        total = sum(load[1] for op in traced for load in op.loads)
        if delivered != total:
            problems.append(
                f"mpc.bits_delivered {delivered} != total_bits {total}"
            )
        # The program's phase timer is exclusive: "ship" (deliveries) is
        # carved out of "route", and "merge" (result hand-off) out of
        # "join"; the spans include both.
        for label, spans, phases in (
            ("route", tracer.inclusive_s("route_over_pool"),
             ("route", "ship")),
            ("join", tracer.inclusive_s("join_over_pool"), ("join", "merge")),
        ):
            program = sum(
                op.phase_seconds.get(phase, 0.0)
                for op in traced for phase in phases
            )
            gap = _ratio(abs(spans - program), program)
            print(f"# reconcile {label}: spans {spans:.4f} s, "
                  f"phase_seconds {program:.4f} s, gap {gap:.3f}")
            if gap > PHASE_TOLERANCE:
                problems.append(
                    f"traced {label} {spans:.4f} s vs phase_seconds "
                    f"{program:.4f} s (gap {gap:.3f} > {PHASE_TOLERANCE})"
                )
    for op in traced:
        for spill in op.spill:
            delta = {key: op.io_delta[key] for key in SPILL_KEYS}
            if delta != {key: spill[key] for key in SPILL_KEYS}:
                problems.append(f"storage deltas {delta} != spill {spill}")
    return problems


# ---------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one op per mode, one setup")
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src`` or exit with 1."""
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {SRC}: {exc}")
    if SRC not in pathlib.Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: repro imported from {repro.__file__}, "
                 f"not from {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from layer_trace import LayerTracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r} "
                 f"(one of {', '.join(WORKLOADS)})")
    OUT.mkdir(exist_ok=True)
    scratch = OUT / "tmp"
    scratch.mkdir(exist_ok=True)
    # Spill directories and pool children's temp files stay in the
    # checkout.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)

    setup = WORKLOADS[args.workload]
    reps = 1 if (args.smoke or args.trace) else SETUP_REPS
    setup_times: list[float] = []
    setup_probes: list[float] = []
    op_probes: list[float] = []
    prepared = None
    for _ in range(reps):
        if prepared is not None:
            prepared.close()
        gc.collect()
        started = time.perf_counter()
        prepared = setup(args.seed)
        prepared.op()  # warm-up
        setup_times.append(time.perf_counter() - started)
        setup_probes.append(probe())

    tracer = LayerTracer() if args.trace else None
    ops: list[Op] = []
    started = time.perf_counter()
    while True:
        # A traced run takes each input twice in a row, untraced first.
        index = len(ops)
        traced = bool(args.trace) and index % 2 == 1
        variant = index // 2 if args.trace else index
        gc.collect()
        ops.append(
            run_op(prepared, variant, tracer if traced else None, index)
        )
        op_probes.append(probe())
        if args.smoke and len(ops) >= (2 if args.trace else 1):
            break
        if not args.smoke and time.perf_counter() - started >= args.seconds:
            if len(ops) >= (2 if args.trace else MIN_OPS):
                break
    rss = peak_rss_mb()
    prepared.close()
    # Pool workers are joined by now; multiprocessing's resource-tracker
    # helper would otherwise outlive this process by a moment.
    resource_tracker._resource_tracker._stop()
    expected = [
        [oracle_digest(answers) for answers in jobs]
        for jobs in prepared.oracle()
    ]

    failed, problems = check_ops(ops, expected, prepared.spills)
    factors = host_factors(op_probes)
    untraced = [op for op in ops if not op.traced]
    scaled = [op.wall * f for op, f in zip(ops, factors) if not op.traced]
    setup_s = statistics.median(setup_times)
    setup_factor = PROBE_NOMINAL_S / statistics.median(setup_probes)
    e2e, pct = end_to_end(untraced, scaled, setup_s * setup_factor, rss)
    wall, _ = end_to_end(
        untraced, [op.wall for op in untraced], setup_s, rss
    )
    print(f"# workload {args.workload}: {prepared.description}; "
          f"seed {args.seed}; {len(ops)} op(s), closed loop, 1 client")
    print(f"# host probe: median {statistics.median(op_probes):.5f} s "
          f"(nominal {PROBE_NOMINAL_S} s); op times scaled by "
          f"{min(factors):.3f}..{max(factors):.3f}, set-up by "
          f"{setup_factor:.3f}")
    for name in ("op_p50_s", "op_tail_s", "jobs_per_s", "setup_s"):
        print(f"# unscaled {name} = {wall[name]} {E2E_UNITS[name]}")
    if args.trace:
        metrics = per_layer(ops, tracer, prepared.workers)
        problems += check_trace(
            ops, tracer, metrics, serial=prepared.workers == 1
        )
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        print(f"# {tracer.size} spans written to {spans_path}")
        units = LAYER_UNITS
    else:
        metrics = e2e
        units = E2E_UNITS
    for name, value in e2e.items():
        print(f"{name} = {value} {E2E_UNITS[name]}")
    print(f"op_tail_s is p{pct:g} of {len(untraced)} samples")
    print(f"error_rate = {failed / len(ops)} (failed/attempted)")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name} = {value} {units[name]}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
