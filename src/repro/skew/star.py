"""The skew-aware star-query algorithm (paper Section 4.2.1).

For ``q = S_1(z, x_1), ..., S_l(z, x_l)`` with known z-statistics:

* *light* tuples (no heavy-hitter ``z``) run the vanilla HyperCube with
  all shares on ``z`` (load ``O(max_j M_j / p)`` w.h.p.);
* each heavy hitter ``h`` spawns a *residual query* -- the Cartesian
  product ``S'_1(x_1) x ... x S'_l(x_l)`` of ``h``'s tuples -- computed
  on its own block of ``p_h`` servers, where ``p_h`` aggregates the
  paper's per-packing allocations
  ``p_{h,u} = ceil(p * prod_j M_j(h)^{u_j} / sum_{h'} prod_j M_j(h')^{u_j})``
  over the vertices ``u in pk(q_z) = {0,1}^l \\ 0``.

Total servers used: ``Theta(p)`` (the paper's ``(l+1) |pk(q_z)| p``
ceiling); the whole computation is a single communication round.  The
achieved load matches Eq. (20):

.. math::
    O\\Big(\\max_{I \\subseteq [l]}
    \\Big(\\sum_{h} \\prod_{j \\in I} M_j(h) / p\\Big)^{1/|I|}\\Big)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.config import ExecutionSettings, MachineSpec
from repro.core.query import Atom, ConjunctiveQuery
from repro.core.shares import integerize_shares, share_exponents
from repro.core.stats import Statistics
from repro.data.database import Database
from repro.hashing.family import (
    GridPartitioner,
    HashFamily,
    grid_dimension_weights,
)
from repro.hypercube.algorithm import route_relation
from repro.join.multiway import evaluate_on_fragments
from repro.mpc.report import LoadReport
from repro.mpc.simulator import MPCSimulation
from repro.mpc.timing import PhaseTimer
from repro.parallel.pool import PoolKind, get_pool
from repro.parallel.tasks import (
    RouteTask,
    iter_array_sources,
    join_over_pool,
    route_over_pool,
)
from repro.skew.heavy_hitters import HitterStatistics
from repro.storage.manager import StorageManager


@dataclass
class StarSkewResult:
    """Output of one skew-aware star-query run.

    Satisfies the :class:`repro.session.RunResult` protocol, so star
    runs interchange with every other executor's result.
    """

    query: ConjunctiveQuery
    answers: set[tuple[int, ...]]
    report: LoadReport
    simulation: MPCSimulation
    servers_used: int
    heavy_hitters: tuple[int, ...]
    predicted_load_bits: float
    strategy: str = "skew-star"

    @property
    def max_load_bits(self) -> float:
        return self.report.max_load_bits

    def answers_array(self) -> np.ndarray:
        """The distinct answers as a canonical ``(n, k)`` int64 array."""
        return self.simulation.outputs_array(self.query.num_variables)

    @property
    def load_report(self) -> LoadReport:
        return self.report

    @property
    def rounds(self) -> int:
        return self.report.num_rounds

    @property
    def predicted_bits(self) -> float | None:
        return self.predicted_load_bits


def _star_center(query: ConjunctiveQuery) -> str:
    """The variable shared by all atoms of a binary star query."""
    if query.num_atoms < 1:
        raise ValueError("star query needs at least one atom")
    shared = set(query.atoms[0].variable_set)
    for atom in query.atoms:
        if atom.arity != 2:
            raise ValueError("star algorithm expects binary atoms S_j(z, x_j)")
        shared &= atom.variable_set
    if len(shared) == 2 and query.num_atoms == 1:
        # A single binary atom: any variable may serve as the center;
        # use the first by the paper's S_j(z, x_j) convention.
        center = query.atoms[0].variables[0]
    elif len(shared) == 1:
        center = next(iter(shared))
    else:
        raise ValueError(
            "star algorithm expects exactly one variable shared by all atoms"
        )
    others = [v for a in query.atoms for v in a.variable_set if v != center]
    if len(set(others)) != len(others):
        raise ValueError("star legs must use distinct variables")
    return center


def star_center(query: ConjunctiveQuery) -> str:
    """The center variable of a binary star query.

    Raises ``ValueError`` when the query is not a star (used by the
    planner to decide whether the Section 4.2.1 algorithm applies).
    """
    return _star_center(query)


def _heavy_allocation(
    relations: tuple[str, ...],
    bits_per_hitter: dict[int, dict[str, float]],
    p: int,
) -> dict[int, int]:
    """Servers per heavy hitter, summed over the packing vertices.

    ``bits_per_hitter[h][rel]`` is ``M_rel(h)``; only hitters with all
    residual relations non-empty appear (others produce no output).
    """
    allocation = {h: 0 for h in bits_per_hitter}
    ell = len(relations)
    for size in range(1, ell + 1):
        for subset in itertools.combinations(relations, size):
            denominator = sum(
                math.prod(bits_per_hitter[h][r] for r in subset)
                for h in bits_per_hitter
            )
            if denominator <= 0:
                continue
            for h in bits_per_hitter:
                numerator = math.prod(bits_per_hitter[h][r] for r in subset)
                allocation[h] += math.ceil(p * numerator / denominator)
    return allocation


def run_star_skew(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    seed: int = 0,
    hitters: HitterStatistics | None = None,
    *,
    capacity_bits: float | None = None,
    on_overflow: Literal["fail", "drop"] = "fail",
    hash_method: str = "splitmix64",
    storage: StorageManager | None = None,
    chunk_rows: int | None = None,
    pool: PoolKind | None = None,
    max_workers: int | None = None,
    machines: MachineSpec | None = None,
) -> StarSkewResult:
    """Run the Section 4.2.1 algorithm in one MPC round.

    Heavy hitters are detected exactly with the per-relation threshold
    ``m_j / p`` (the model assumes this information is available to
    every server).  Correctness is unconditional; the load bound is
    Eq. (20) plus the light-part ``O(max_j M_j / p)``.

    ``hitters`` accepts center-variable statistics a caller has already
    collected with the same ``m_j / p`` threshold (the planner's engine
    does), skipping the detection scan here; the result is identical to
    detecting in-place.

    The *light* part routes columnar (whole relations as arrays
    through :func:`~repro.hypercube.algorithm.route_relation_arrays`,
    vectorized local joins on the light servers); the per-hitter
    residual blocks are small by construction and route one tuple at a
    time.

    ``capacity_bits`` imposes the same hard per-server per-round cap
    ``L`` that :func:`~repro.hypercube.algorithm.run_hypercube`
    supports, across the light grid *and* every per-hitter block.
    Every part routes in canonical (sorted) order, so a binding cap
    with ``on_overflow="drop"`` truncates a deterministic per-server
    prefix.

    ``storage`` streams the light part chunk-by-chunk and spills the
    light servers' fragments and outputs to the manager's chunked
    spools -- bit-identical loads and answers; the per-hitter heavy
    blocks are ``O(p)``-sized by construction and stay in memory.
    ``chunk_rows`` sets the routing granularity alone.

    ``pool``/``max_workers`` fan the light part's columnar routing and
    per-server joins out over a worker pool (the heavy blocks are small
    by construction and stay serial); results merge deterministically,
    so answers and loads are bit-identical at any worker count.

    ``machines`` (a heterogeneous :class:`~repro.config.MachineSpec`)
    weights the light grid's center axis speed-proportionally -- the
    light part is one-dimensional on ``z``, so the weighting is exact --
    and applies per-server capacities across light and heavy servers
    (block servers take the spec's modular extension).  A uniform spec
    is bit-identical to ``machines=None``.

    A thin delegating wrapper over the shared run path of
    :mod:`repro.session`.
    """
    from repro.session import dispatch_run

    return dispatch_run(
        "skew-star",
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
        hitters=hitters,
    )


def _star_impl(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    *,
    seed: int,
    settings: ExecutionSettings,
    storage: StorageManager | None,
    hitters: HitterStatistics | None = None,
) -> StarSkewResult:
    """The star-algorithm core; ``settings`` arrives already resolved."""
    chunk_rows = settings.chunk_rows
    timer = PhaseTimer()
    pool = get_pool(settings.pool, settings.max_workers)
    if p < 2:
        raise ValueError("star algorithm needs p >= 2")
    with timer.phase("generate"):
        database.validate_for(query)
        center = _star_center(query)
        stats = database.statistics(query)
        if hitters is None:
            hitters = HitterStatistics.from_database(
                query, database, center, 1.0, p
            )
        elif hitters.variable != center:
            raise ValueError(
                f"hitter statistics describe {hitters.variable!r}, "
                f"not the star center {center!r}"
            )
        heavy_values = set(hitters.hitters)

        leg_of = {
            atom.relation: next(v for v in atom.variables if v != center)
            for atom in query.atoms
        }
        center_pos = {
            atom.relation: atom.variables.index(center)
            for atom in query.atoms
        }

        # Residual bit sizes M_j(h) (arity-1 projections of h's tuples).
        bits_per_hitter: dict[int, dict[str, float]] = {}
        for h in heavy_values:
            per_rel = {}
            for atom in query.atoms:
                freq = database[atom.relation].degree(
                    (center_pos[atom.relation],), (h,)
                )
                per_rel[atom.relation] = freq * stats.value_bits
            if all(v > 0 for v in per_rel.values()):
                bits_per_hitter[h] = per_rel
        allocation = _heavy_allocation(
            query.relation_names, bits_per_hitter, p
        )

    total_servers = p + sum(allocation.values())
    sim = MPCSimulation(
        total_servers,
        value_bits=stats.value_bits,
        capacity_bits=settings.capacity_bits,
        on_overflow=settings.on_overflow,
        storage=storage,
        timer=timer,
        machines=settings.machines,
    )
    sim.begin_round()

    # ---- Light part: vanilla HyperCube with all shares on z. ----------
    dims = query.variables  # (z, x_1, ..., x_l) in head order
    light_shares = [p if v == center else 1 for v in dims]
    # The light grid is 1-D on the center axis, so speed-proportional
    # weighting is exact there.  The per-hitter heavy blocks below stay
    # unweighted: their servers are the modular extension past p, with
    # no per-block speed structure to exploit.
    light_weights = grid_dimension_weights(light_shares, settings.machines)
    heavy_sorted = tuple(int(h) for h in sorted(heavy_values))
    # Filter-then-route per chunk (one task per chunk, fanned out
    # over the pool): filtering commutes with chunking, and results
    # merge in task order, so the light rows reach every server in
    # the same order as the monolithic serial route.
    def light_tasks():
        for atom in query.atoms:
            zpos = center_pos[atom.relation]
            for source in iter_array_sources(
                database[atom.relation], chunk_rows
            ):
                yield RouteTask(
                    tag=atom.relation,
                    source=source,
                    dimension_variables=tuple(dims),
                    atom_variables=tuple(atom.variables),
                    shares=tuple(light_shares),
                    family_seed=seed,
                    hash_method=settings.hash_method,
                    exclude=((zpos, heavy_sorted),),
                    weights=light_weights,
                )

    with timer.phase("route"):
        route_over_pool(pool, sim, light_tasks(), timer)

    # ---- Heavy part: one block and one residual query per hitter. -----
    residual_atoms = tuple(
        Atom(atom.relation, (leg_of[atom.relation],)) for atom in query.atoms
    )
    residual_query = ConjunctiveQuery(residual_atoms, name="residual")
    blocks: list[tuple[int, int, GridPartitioner]] = []  # (hitter, base, grid)
    base = p
    with timer.phase("route"):
        for h in sorted(bits_per_hitter):
            p_h = allocation[h]
            residual_fragments = {}
            residual_sizes = {}
            for atom in query.atoms:
                zpos = center_pos[atom.relation]
                values = {
                    (t[1 - zpos],)
                    for t in database[atom.relation]
                    if t[zpos] == h
                }
                residual_fragments[atom.relation] = values
                residual_sizes[atom.relation] = len(values)
            if p_h >= 2:
                residual_stats = Statistics(
                    residual_query, residual_sizes, database.domain_size
                )
                exponents = share_exponents(
                    residual_query, residual_stats, p_h
                ).exponents
                shares = integerize_shares(exponents, p_h)
            else:
                shares = {v: 1 for v in residual_query.variables}
            grid = GridPartitioner(
                [shares[v] for v in residual_query.variables],
                HashFamily(seed * 7919 + h + 1, method=settings.hash_method),
            )
            for atom in residual_atoms:
                batches = {}
                # Sorted for deterministic capacity truncation (set
                # iteration order must not decide which tuples drop).
                for server, t in route_relation(
                    grid,
                    residual_query.variables,
                    atom.variables,
                    sorted(residual_fragments[atom.relation]),
                ):
                    batches.setdefault(server, []).append(t)
                for server, batch in batches.items():
                    sim.send(base + server, atom.relation, batch)
            blocks.append((h, base, grid))
            base += p_h

    sim.end_round()

    # ---- Computation phase. -------------------------------------------
    head = query.variables
    leg_order = [leg_of[a.relation] for a in query.atoms]
    # Light servers fan out over the pool; outputs merge in server
    # order, matching the serial loop.
    with timer.phase("join"):
        join_over_pool(
            pool,
            sim,
            query,
            range(p),
            timer=timer,
            clear=storage is not None,
        )
    with timer.phase("join"):
        for h, block_base, grid in blocks:
            for offset in range(grid.num_bins):
                local = evaluate_on_fragments(
                    residual_query, sim.state(block_base + offset)
                )
                if not local:
                    continue
                # Residual head order is (x_1, ..., x_l); rebuild the
                # star head.
                value_of = dict(zip(leg_order, [None] * len(leg_order)))
                outputs = []
                for t in local:
                    value_of = dict(zip(residual_query.variables, t))
                    value_of[center] = h
                    outputs.append(tuple(value_of[v] for v in head))
                sim.output(block_base + offset, outputs)

    timer.attach(sim.report)
    predicted = star_skew_load_bound(query, database, p)
    return StarSkewResult(
        query=query,
        answers=sim.outputs(),
        report=sim.report,
        simulation=sim,
        servers_used=total_servers,
        heavy_hitters=tuple(sorted(heavy_values)),
        predicted_load_bits=predicted,
    )


def star_skew_load_bound(
    query: ConjunctiveQuery, database: Database, p: int
) -> float:
    """Eq. (20) plus the light term, in bits.

    ``max(max_j M_j/p, max_I (sum_h prod_{j in I} M_j(h) / p)^{1/|I|})``
    where ``h`` ranges over the detected heavy hitters.
    """
    center = _star_center(query)
    stats = database.statistics(query)
    hitters = HitterStatistics.from_database(query, database, center, 1.0, p)
    return star_skew_load_bound_from_stats(query, stats, hitters, p)


def star_skew_load_bound_from_stats(
    query: ConjunctiveQuery,
    stats: Statistics,
    hitters: HitterStatistics,
    p: int,
) -> float:
    """Eq. (20) evaluated from statistics alone (no database access).

    Needs only the cardinalities ``M_j`` and the center-variable
    frequency vectors ``M_j(h)`` of :class:`HitterStatistics` --
    exactly the information the paper assumes every server knows in
    advance.  The planner's estimator
    (:func:`repro.planner.cost.star_cost`) prices the same terms under
    its sum-form server convention, so the two deliberately differ in
    per-term constants; this max-form bound matches the paper's
    statement verbatim.
    """
    bound = max(stats.bits(r) / p for r in query.relation_names)
    relations = query.relation_names
    heavy = hitters.hitters
    for size in range(1, len(relations) + 1):
        for subset in itertools.combinations(relations, size):
            total = 0.0
            for h in heavy:
                product = 1.0
                for r in subset:
                    product *= hitters.frequency(r, h) * 2 * stats.value_bits
                total += product
            if total > 0:
                bound = max(bound, (total / p) ** (1.0 / size))
    return bound
