"""One-round HyperCube execution on the MPC simulator.

The driver: compute optimal share exponents via LP (10) (unless shares
are given), integerize them, route every base tuple to its destination
subcube (Eq. 9), run the local multiway join on each server, and return
the union of local answers together with the full load report.

The correctness argument is the paper's: for every potential answer
tuple ``(a_1, ..., a_k)`` the server ``(h_1(a_1), ..., h_k(a_k))``
receives every base tuple consistent with it, so the union of local
join results is exactly ``q(I)``.

Communication is columnar: whole relations are routed as ``(n, arity)``
arrays (all destination coordinates per column in one vectorized hash,
replication axes expanded by broadcasting, grouping by server via
``argsort``), and each server joins its fragments with the vectorized
local join.  ``tests/hypercube/test_backends.py`` checks answers and
per-server loads against a scalar tuple-at-a-time oracle.

Execution also streams: with ``chunk_rows`` (or a
:class:`~repro.storage.manager.StorageManager` via ``storage=``)
relations are routed chunk-by-chunk through the same vectorized router,
per-server fragments accumulate in disk-spilling spools, and each
server's fragment is materialized only for its own local join -- so
``n`` is bounded by disk, not RAM, while answers, per-server loads and
even capacity truncation stay bit-identical
(``tests/storage/test_streaming_execution.py`` enforces that).
"""

from __future__ import annotations

from typing import Iterator, Literal, Mapping, Sequence

import numpy as np

from repro.config import ExecutionSettings, MachineSpec
from repro.core.query import ConjunctiveQuery
from repro.core.shares import integerize_shares, share_exponents
from repro.core.stats import Statistics
from repro.data.arrays import repeated_binding_filter
from repro.data.database import Database
from repro.hashing.family import (
    GridPartitioner,
    HashFamily,
    HashMethod,
    grid_dimension_weights,
)
from repro.join.multiway import evaluate_on_fragments
from repro.join.vectorized import UnsupportedVectorizedQuery, evaluate_arrays
from repro.mpc.report import LoadReport
from repro.mpc.simulator import MPCSimulation
from repro.mpc.timing import PhaseTimer
from repro.parallel.pool import PoolKind, WorkerPool, get_pool
from repro.parallel.tasks import (
    RouteTask,
    iter_array_sources,
    join_over_pool,
    route_over_pool,
)
from repro.storage.manager import StorageManager


class HyperCubeResult:
    """Everything produced by one HyperCube run.

    ``answers`` materializes the Python answer set lazily from the
    simulation's outputs (converting millions of array-backed answers
    into tuples is the single most expensive step of a columnar run, so
    it only happens when somebody asks).  ``answers_array`` exposes the
    columnar form directly.

    Satisfies the :class:`repro.session.RunResult` protocol (as do the
    skew, multi-round and planner results), so callers can treat any
    execution outcome uniformly.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        answers: set[tuple[int, ...]] | None,
        shares: dict[str, int],
        report: LoadReport,
        simulation: MPCSimulation,
        strategy: str = "hypercube",
    ):
        self.query = query
        self.shares = shares
        self.report = report
        self.simulation = simulation
        self.strategy = strategy
        self._answers = answers

    @property
    def answers(self) -> set[tuple[int, ...]]:
        if self._answers is None:
            self._answers = self.simulation.outputs()
        return self._answers

    def answers_array(self) -> np.ndarray:
        """The distinct answers as a canonical ``(n, k)`` int64 array."""
        return self.simulation.outputs_array(self.query.num_variables)

    @property
    def load_report(self) -> LoadReport:
        """The :class:`RunResult` name for :attr:`report`."""
        return self.report

    @property
    def rounds(self) -> int:
        return self.report.num_rounds

    @property
    def predicted_bits(self) -> float | None:
        """The cost model's load prediction (None unless attached)."""
        return self.report.predicted_load_bits

    @property
    def max_load_bits(self) -> float:
        return self.report.max_load_bits

    @property
    def max_load_tuples(self) -> int:
        return self.report.max_load_tuples

    def replication_rate(self, stats: Statistics) -> float:
        return self.report.replication_rate(stats.total_bits)

    def __repr__(self) -> str:
        return (
            f"HyperCubeResult(query={self.query.name or 'q'!r}, "
            f"shares={self.shares}, L={self.report.max_load_bits:.0f} bits)"
        )


def resolve_shares(
    query: ConjunctiveQuery,
    stats: Statistics,
    p: int,
    shares: Mapping[str, int] | None = None,
    exponents: Mapping[str, float] | None = None,
) -> dict[str, int]:
    """Determine integer shares: explicit > exponents > LP (10)."""
    if shares is not None:
        out = {v: int(shares.get(v, 1)) for v in query.variables}
        if any(s < 1 for s in out.values()):
            raise ValueError("shares must be >= 1")
        product = 1
        for s in out.values():
            product *= s
        if product > p:
            raise ValueError(
                f"share product {product} exceeds the number of servers {p}"
            )
        return out
    if exponents is None:
        exponents = share_exponents(query, stats, p).exponents
    full = {v: float(exponents.get(v, 0.0)) for v in query.variables}
    return integerize_shares(full, p)


def route_relation(
    partitioner: GridPartitioner,
    dimension_variables: Sequence[str],
    atom_variables: Sequence[str],
    tuples,
):
    """Yield ``(server, tuple)`` pairs for one relation's tuples.

    ``dimension_variables`` fixes the grid axes (the query variables in
    head order); a tuple binds the axes named by ``atom_variables`` and
    is replicated along all others (Eq. 9's destination subcube).
    Tuples that bind a repeated variable inconsistently (e.g. ``S(x, x)``
    with tuple ``(1, 2)``) can match no answer and are dropped before
    routing, so they contribute zero bits to every server's load.
    """
    axis_of = {v: i for i, v in enumerate(dimension_variables)}
    for t in tuples:
        coordinates: list[int | None] = [None] * len(dimension_variables)
        consistent = True
        for variable, value in zip(atom_variables, t):
            axis = axis_of[variable]
            if coordinates[axis] is None:
                coordinates[axis] = value
            elif coordinates[axis] != value:
                consistent = False
                break
        if not consistent:
            continue
        for cell in partitioner.destinations(coordinates):
            yield partitioner.linear_index(cell), t


def route_relation_arrays(
    partitioner: GridPartitioner,
    dimension_variables: Sequence[str],
    atom_variables: Sequence[str],
    rows: np.ndarray,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(server, row_batch)`` pairs for one relation, vectorized.

    The columnar counterpart of :func:`route_relation`: destination
    coordinates are computed per *column* with one vectorized hash per
    bound axis, replication along unbound axes is expanded by
    broadcasting the subcube's linear-offset vector, and rows are
    grouped by destination server with one ``argsort``.  Row batches
    preserve the (deterministic) input row order within each server.
    """
    axis_of = {v: i for i, v in enumerate(dimension_variables)}
    strides = partitioner.strides
    shares = partitioner.shares

    first_position, mask = repeated_binding_filter(atom_variables, rows)
    if mask is not None:
        rows = rows[mask]
    if len(rows) == 0:
        return
    first_of_axis = {axis_of[v]: pos for v, pos in first_position.items()}

    base = np.zeros(len(rows), dtype=np.int64)
    offsets = np.zeros(1, dtype=np.int64)
    for axis in range(len(dimension_variables)):
        if axis in first_of_axis:
            coords = partitioner.functions[axis].hash_array(
                rows[:, first_of_axis[axis]]
            )
            base += coords * strides[axis]
        else:
            axis_offsets = np.arange(shares[axis], dtype=np.int64) * strides[axis]
            offsets = (offsets[:, None] + axis_offsets[None, :]).reshape(-1)

    servers = (base[:, None] + offsets[None, :]).reshape(-1)
    row_ids = np.repeat(np.arange(len(rows)), len(offsets))
    order = np.argsort(servers, kind="stable")
    servers = servers[order]
    row_ids = row_ids[order]
    boundaries = np.flatnonzero(np.diff(servers)) + 1
    for group in np.split(np.arange(len(servers)), boundaries):
        yield int(servers[group[0]]), rows[row_ids[group]]


def run_hypercube(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    shares: Mapping[str, int] | None = None,
    exponents: Mapping[str, float] | None = None,
    seed: int = 0,
    capacity_bits: float | None = None,
    on_overflow: Literal["fail", "drop"] = "fail",
    skip_local_join: bool = False,
    hash_method: HashMethod = "splitmix64",
    storage: StorageManager | None = None,
    chunk_rows: int | None = None,
    pool: PoolKind | None = None,
    max_workers: int | None = None,
    machines: "MachineSpec | None" = None,
) -> HyperCubeResult:
    """Run the one-round HyperCube algorithm on ``p`` servers.

    Parameters mirror the paper's knobs: ``shares``/``exponents``
    override the LP-optimal share allocation; ``capacity_bits`` imposes
    the hard load cap ``L`` (with ``on_overflow="drop"`` implementing
    the load-limited algorithms of the Theorem 3.5 experiments);
    ``skip_local_join`` skips the computation phase when only the
    communication loads are of interest.

    ``hash_method`` selects the routing PRF.

    ``storage`` switches to out-of-core mode:
    relations stream through the router chunk-by-chunk, received
    fragments spill to the manager's chunked spools, answers spill to
    output spools, and each server's fragment is freed right after its
    local join -- bit-identical results at a resident set bounded by a
    few chunks plus one server's fragment.  ``chunk_rows`` controls the
    routing granularity alone (defaults to the manager's; chunked
    routing without a manager keeps fragments in memory).  Lazy result
    accessors (``answers``, ``answers_array()``) read the spooled
    outputs, so materialize them *before* closing the manager.

    ``pool`` fans the columnar routing and per-server joins out over a
    worker pool (``"serial"``/``"thread"``/``"process"``; ``None``
    follows :func:`repro.config.default_pool`), with ``max_workers``
    workers.  Results are merged deterministically, so answers and
    per-server per-round loads are bit-identical at any pool kind and
    worker count.

    ``machines`` describes a heterogeneous cluster
    (:class:`repro.config.MachineSpec`): non-uniform speeds weight the
    grid's hash ranges so fast servers receive proportionally more
    tuples, per-machine capacities tighten the cap server-by-server,
    and the report gains speed-normalized (makespan) metrics.  ``None``
    follows :func:`repro.config.default_machines` (the homogeneous
    cluster unless ``REPRO_DEFAULT_MACHINES`` is set).

    This is a thin delegating wrapper: the actual execution flows
    through the shared run path of :mod:`repro.session`, which resolves
    the storage/chunk-size/pool/machines defaults once for every
    executor.
    """
    from repro.session import dispatch_run

    return dispatch_run(
        "hypercube",
        query,
        database,
        p,
        seed=seed,
        storage=storage,
        settings=ExecutionSettings(
            capacity_bits=capacity_bits,
            on_overflow=on_overflow,
            hash_method=hash_method,
            chunk_rows=chunk_rows,
            pool=pool,
            max_workers=max_workers,
            machines=machines,
        ),
        shares=shares,
        exponents=exponents,
        skip_local_join=skip_local_join,
    )


def _hypercube_impl(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    *,
    seed: int,
    settings: ExecutionSettings,
    storage: StorageManager | None,
    shares: Mapping[str, int] | None = None,
    exponents: Mapping[str, float] | None = None,
    skip_local_join: bool = False,
) -> HyperCubeResult:
    """The HyperCube core; ``settings`` arrives already resolved."""
    chunk_rows = settings.chunk_rows
    timer = PhaseTimer()
    pool = get_pool(settings.pool, settings.max_workers)
    with timer.phase("generate"):
        database.validate_for(query)
        stats = database.statistics(query)
        resolved = resolve_shares(query, stats, p, shares, exponents)
        dimension_variables = query.variables
        # Heterogeneous clusters weight each dimension's hash ranges by
        # the marginal speed mass of its slices, so fast servers own
        # proportionally larger ranges; None (the uniform cluster)
        # keeps the exact unweighted modulo routing.
        grid_weights = grid_dimension_weights(
            [resolved[v] for v in dimension_variables], settings.machines
        )
        partitioner = GridPartitioner(
            [resolved[v] for v in dimension_variables],
            HashFamily(seed, method=settings.hash_method),
            weights=grid_weights,
        )

    sim = MPCSimulation(
        p,
        value_bits=stats.value_bits,
        capacity_bits=settings.capacity_bits,
        on_overflow=settings.on_overflow,
        storage=storage,
        timer=timer,
        machines=settings.machines,
    )
    _communicate_arrays(
        query,
        database,
        dimension_variables,
        tuple(resolved[v] for v in dimension_variables),
        seed,
        settings.hash_method,
        sim,
        chunk_rows,
        pool,
        timer,
        weights=grid_weights,
    )
    if not skip_local_join:
        _local_joins_arrays(query, partitioner, sim, pool, timer)
    timer.attach(sim.report)
    return HyperCubeResult(query, None, resolved, sim.report, sim)


def _communicate_arrays(
    query: ConjunctiveQuery,
    database: Database,
    dimension_variables: Sequence[str],
    shares: tuple[int, ...],
    seed: int,
    hash_method: str,
    sim: MPCSimulation,
    chunk_rows: int | None,
    pool: WorkerPool,
    timer: PhaseTimer,
    weights: tuple[tuple[float, ...] | None, ...] | None = None,
) -> None:
    """The communication phase, relations as arrays (chunk-streamed).

    One :class:`RouteTask` per ``(atom, chunk)`` fans out over the
    pool; results come back in task order and are delivered in that
    order, so every server receives the identical row sequence as the
    serial loop (hence identical loads and capacity truncation) at any
    pool kind and worker count.  With ``chunk_rows=None`` and in-memory
    relations this is the one-chunk-per-relation monolith route;
    chunked relations ship spilled chunks to process workers by path.
    ``weights`` carries the heterogeneous grid's per-dimension bucket
    weights into each task, so workers rebuild the identical weighted
    partitioner.
    """

    def tasks():
        for atom in query.atoms:
            for source in iter_array_sources(
                database[atom.relation], chunk_rows
            ):
                yield RouteTask(
                    tag=atom.relation,
                    source=source,
                    dimension_variables=tuple(dimension_variables),
                    atom_variables=tuple(atom.variables),
                    shares=shares,
                    family_seed=seed,
                    hash_method=hash_method,
                    weights=weights,
                )

    sim.begin_round()
    with timer.phase("route"):
        route_over_pool(pool, sim, tasks(), timer)
    sim.end_round()


def local_join_fragments(
    query: ConjunctiveQuery, fragments: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Vectorized multiway join over array fragments, with tuple fallback.

    Returns the distinct local answers as a ``(n, k)`` int64 array in
    the query's head order.  Queries the vectorized evaluator cannot
    handle fall back to the backtracking tuple join and are converted
    back to array form.  Shared by every columnar computation phase
    (HyperCube, the skew-aware algorithms' light parts, and the
    multi-round executor's per-operator joins).
    """
    try:
        return evaluate_arrays(query, fragments)
    except UnsupportedVectorizedQuery:
        tuple_fragments = {
            tag: set(map(tuple, rows.tolist()))
            for tag, rows in fragments.items()
        }
        fallback = evaluate_on_fragments(query, tuple_fragments)
        width = query.num_variables
        if not fallback:
            return np.empty((0, width), dtype=np.int64)
        return np.array(sorted(fallback), dtype=np.int64).reshape(
            len(fallback), width
        )


def local_join_arrays(
    query: ConjunctiveQuery, sim: MPCSimulation, server: int
) -> None:
    """Join one server's array fragments, recording outputs (if any)."""
    fragments = sim.array_state(server)
    if not fragments:
        return
    local = local_join_fragments(query, fragments)
    if len(local):
        sim.output_array(server, local)


def _local_joins_arrays(
    query: ConjunctiveQuery,
    partitioner: GridPartitioner,
    sim: MPCSimulation,
    pool: WorkerPool,
    timer: PhaseTimer,
) -> None:
    """The computation phase on array fragments, with tuple fallback.

    Per-server joins fan out over the pool; outputs are recorded in
    server order regardless of completion order.  In out-of-core mode
    each server's spooled fragments are freed the moment its result is
    merged, so at most one server's data is resident on the parent at a
    time (workers hold at most one fragment each).
    """
    with timer.phase("join"):
        join_over_pool(
            pool,
            sim,
            query,
            range(partitioner.num_bins),
            timer=timer,
            clear=sim.storage is not None,
        )
