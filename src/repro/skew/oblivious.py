"""Skew-oblivious HyperCube (Section 4.1).

When nothing is known about the data beyond cardinalities, the best the
HyperCube algorithm can do against adversarial skew is choose shares by
LP (18), which optimizes the Corollary 4.3 worst case
``max_j M_j / min_{i in S_j} p_i``.  This module is a thin driver
wiring those shares into the standard HyperCube execution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Literal

from repro.core.query import ConjunctiveQuery
from repro.core.shares import skew_oblivious_share_exponents
from repro.data.database import Database
from repro.hypercube.algorithm import HyperCubeResult, run_hypercube

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.config import MachineSpec, PoolKind
    from repro.storage.manager import StorageManager


def run_skew_oblivious_hypercube(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    seed: int = 0,
    capacity_bits: float | None = None,
    on_overflow: Literal["fail", "drop"] = "fail",
    hash_method: str = "splitmix64",
    storage: "StorageManager | None" = None,
    chunk_rows: int | None = None,
    pool: "PoolKind | None" = None,
    max_workers: int | None = None,
    machines: "MachineSpec | None" = None,
) -> HyperCubeResult:
    """HyperCube with the LP (18) skew-resistant shares.

    For the simple join this balances all three variables at share
    ``p^{1/3}`` (worst-case load ``M/p^{1/3}`` instead of the vanilla
    hash join's ``Theta(M)`` under a single heavy hitter).  All
    execution knobs (``capacity_bits``, ``storage``, ``pool``, ...)
    forward unchanged to :func:`run_hypercube`.
    """
    stats = database.statistics(query)
    solution = skew_oblivious_share_exponents(query, stats, p)
    result = run_hypercube(
        query,
        database,
        p,
        exponents=solution.exponents,
        seed=seed,
        capacity_bits=capacity_bits,
        on_overflow=on_overflow,
        hash_method=hash_method,
        storage=storage,
        chunk_rows=chunk_rows,
        pool=pool,
        max_workers=max_workers,
        machines=machines,
    )
    result.strategy = "skew-oblivious"
    return result
