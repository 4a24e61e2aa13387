"""The benchmark's four closed-loop workloads over the public Session API.

Every input is generated from the benchmark's seed.  One *op* is one
``Session.run`` call (one ``Session.run_many`` call for ``zipf-batch``).
Each entry of :data:`WORKLOADS` builds the inputs and an open session
for a seed, and :meth:`Prepared.op` runs one op and returns its results
in job order.  A workload may hold several inputs (*variants*) that
successive ops take in turn.  The oracle answers come from the sequential
``repro.join.evaluate`` and are computed only on request, outside every
timed region.

Why each workload exists is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from repro import (
    Job,
    Session,
    chain_query,
    matching_database,
    triangle_query,
    zipf_database,
)
from repro.join import evaluate
from repro.parallel.pool import get_pool, shutdown_pools
from repro.planner.statistics import DataStatistics

#: Servers in every workload but the chain.
P = 64
#: The cluster's routing seed.  The benchmark seed varies the inputs
#: only: with heavy hitters, which servers the hash sends them to moves
#: the maximum load by ~25% (interquartile range over ten routing seeds
#: on triangle-zipf), which would drown any change a program makes.
CLUSTER_SEED = 0

#: Input sizes (tuples per relation).  They are a quarter to an eighth
#: of the sizes named when the workloads were proposed, so that one op
#: takes ~0.6 s and a 20 s run measures ~30 of them on a 2-core host;
#: the README records how each scaled-down workload keeps the property
#: it was chosen for.
TRIANGLE_MATCHING_M = 50_000
TRIANGLE_ZIPF_M = 10_000
#: Zipf inputs triangle-zipf takes in turn.  The maximum load and the
#: join's work hinge on a few heavy-hitter degrees, so one input's L
#: moves by ~15% (interquartile range over ten seeds); cycling through
#: four inputs measures their mix.
TRIANGLE_ZIPF_VARIANTS = 4
CHAIN_M = 40_000
CHAIN_LENGTH = 8
#: The chain's servers.  With 16, every server's ~2500-row share of a
#: relation exceeds the storage manager's 1024-row chunk and spills,
#: at an input small enough for ~20 ops per run.
CHAIN_P = 16
#: Spill budget for the chain: small enough that the session opens a
#: storage manager (whose chunks are then 1024 rows).
CHAIN_BUDGET_BYTES = 2_000_000
BATCH_JOBS = 8
BATCH_M = 2_500
BATCH_WORKERS = min(2, os.cpu_count() or 1)


@dataclass
class Prepared:
    """An open session with its inputs: what one measured run drives."""

    session: Session
    #: Runs one op on the given variant; returns its results.
    run: Callable[[int], list]
    #: Per variant, ``(query, database)`` per job (for the oracle).
    variants: list[list[tuple]]
    workers: int = 1
    #: Whether every op must spill (the workload exists to do so).
    spills: bool = False
    description: str = ""
    close_hooks: list[Callable[[], None]] = field(default_factory=list)

    def op(self, variant: int = 0) -> list:
        """Run one op on ``variant`` (taken modulo the variant count)."""
        return self.run(variant % len(self.variants))

    def oracle(self) -> list[list[set]]:
        """Per variant, every job's answers from the sequential evaluator."""
        return [
            [evaluate(query, database) for query, database in jobs]
            for jobs in self.variants
        ]

    def close(self) -> None:
        self.session.close()
        for hook in self.close_hooks:
            hook()


def _triangle_matching(seed: int) -> Prepared:
    q = triangle_query()
    db = matching_database(
        q, m=TRIANGLE_MATCHING_M, n=4 * TRIANGLE_MATCHING_M, seed=seed
    )
    session = Session(p=P, seed=CLUSTER_SEED)
    return Prepared(
        session,
        # The default call: planner-routed, fresh statistics every op.
        lambda variant: [session.run(q, db)],
        [[(q, db)]],
        description=f"C3, matching m={TRIANGLE_MATCHING_M}, p={P}",
    )


def _triangle_zipf(seed: int) -> Prepared:
    q = triangle_query()
    dbs = [
        zipf_database(
            q, m=TRIANGLE_ZIPF_M, n=TRIANGLE_ZIPF_M, skew=1.0,
            seed=seed * TRIANGLE_ZIPF_VARIANTS + index,
        )
        for index in range(TRIANGLE_ZIPF_VARIANTS)
    ]
    stats = [DataStatistics.from_database(q, db, P) for db in dbs]
    session = Session(p=P, seed=CLUSTER_SEED)
    return Prepared(
        session,
        lambda variant: [session.run(q, dbs[variant], stats=stats[variant])],
        [[(q, db)] for db in dbs],
        description=(
            f"C3, zipf(1.0) m={TRIANGLE_ZIPF_M}, p={P}, "
            f"{TRIANGLE_ZIPF_VARIANTS} inputs in turn"
        ),
    )


def _chain_outofcore(seed: int) -> Prepared:
    q = chain_query(CHAIN_LENGTH)
    db = matching_database(q, m=CHAIN_M, n=4 * CHAIN_M, seed=seed)
    # Sampled statistics: what the engine itself collects under a
    # storage manager, supplied once so no op rescans the input.
    stats = DataStatistics.from_sample(q, db, CHAIN_P, seed=seed)
    session = Session(
        p=CHAIN_P, seed=CLUSTER_SEED, memory_budget_bytes=CHAIN_BUDGET_BYTES
    )
    return Prepared(
        session,
        lambda variant: [session.run(q, db, stats=stats)],
        [[(q, db)]],
        spills=True,
        description=(
            f"L{CHAIN_LENGTH}, matching m={CHAIN_M}, p={CHAIN_P}, "
            f"budget {CHAIN_BUDGET_BYTES} B"
        ),
    )


def _zipf_batch(seed: int) -> Prepared:
    q = triangle_query()
    jobs = []
    for index in range(BATCH_JOBS):
        db = zipf_database(
            q, m=BATCH_M, n=BATCH_M, skew=1.0, seed=seed * BATCH_JOBS + index
        )
        jobs.append(Job(q, db, stats=DataStatistics.from_database(q, db, P)))
    session = Session(p=P, seed=CLUSTER_SEED)
    # A fresh pool per setup, so setup_s always includes the spawn.
    shutdown_pools()
    get_pool("process", BATCH_WORKERS)

    def run(variant):
        return session.run_many(
            jobs, max_workers=BATCH_WORKERS, pool="process"
        )

    return Prepared(
        session,
        run,
        [[(job.query, job.database) for job in jobs]],
        workers=BATCH_WORKERS,
        description=(
            f"{BATCH_JOBS} x C3, zipf(1.0) m={BATCH_M}, p={P}, "
            f"process pool x{BATCH_WORKERS}"
        ),
        close_hooks=[shutdown_pools],
    )


#: Workload name -> setup function (inputs, session, op).
WORKLOADS: dict[str, Callable[[int], Prepared]] = {
    "triangle-matching": _triangle_matching,
    "triangle-zipf": _triangle_zipf,
    "chain-outofcore": _chain_outofcore,
    "zipf-batch": _zipf_batch,
}
