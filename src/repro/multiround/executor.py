"""Round-by-round execution of query plans on the MPC simulator.

All plan nodes of depth ``d`` execute in communication round ``d``: the
inputs of each operator (base relations from the input servers, or view
fragments from the servers that produced them in an earlier round) are
HyperCube-routed onto the full ``p``-server grid for that operator, and
every server then joins its fragments locally.  Intermediate results
stay where they are produced; only the routing of the *next* round
moves them, exactly as in the tuple-based MPC model (servers forward
join tuples whose destinations depend only on the tuple).

Nodes sharing a round share the ``p`` servers, so per-round loads add
across the (constantly many) parallel operators -- the constant-factor
regime of Proposition 5.1.  Each send is tagged
``"<node name>/<input name>"``: fragments belong to the *consuming*
operator, never to the bare relation, so two same-round operators
reading the same base relation or view keep their differently-routed
fragments apart on every server.

Execution is columnar: every intermediate view stays one
``(n, arity)`` int64 array per server between rounds, base relations
and view fragments are routed with
:func:`~repro.hypercube.algorithm.route_relation_arrays`, array
payloads travel through :meth:`MPCSimulation.send_array`, and each
server's fragments are joined with the vectorized evaluator.
``tests/multiround/test_executor_backends.py`` checks answers,
per-server loads and every view fragment against a scalar
tuple-at-a-time oracle.

``capacity_bits`` imposes the same hard per-server per-round cap ``L``
that :func:`~repro.hypercube.algorithm.run_hypercube` supports: every
round of the plan enforces it, and because every relation and view is
routed in canonical row order (chunked or not), a binding cap with
``on_overflow="drop"`` truncates a deterministic per-server prefix --
dropped tuples then propagate identically through later rounds.

``storage`` switches to out-of-core mode: base relations and view
fragments stream through the router chunk-by-chunk, delivered
fragments spill to per-server chunked spools, and the inter-round
views themselves are kept as
:class:`~repro.storage.chunked.ChunkedRelation` spools -- so an
intermediate blow-up spills to disk instead of pinning RAM, and views
past their last consumer delete their spill files eagerly.
"""

from __future__ import annotations

import hashlib
from typing import Literal

import numpy as np

from repro.config import ExecutionSettings, MachineSpec
from repro.core.query import Atom, ConjunctiveQuery
from repro.data.arrays import unique_rows
from repro.core.shares import integerize_shares, share_exponents
from repro.core.stats import Statistics
from repro.data.database import Database
from repro.hashing.family import (
    GridPartitioner,
    HashFamily,
    derive_seed,
    grid_dimension_weights,
)
from repro.join.binary import reorder
from repro.mpc.report import LoadReport
from repro.mpc.simulator import MPCSimulation
from repro.mpc.timing import PhaseTimer
from repro.multiround.plans import Plan
from repro.parallel.pool import PoolKind, get_pool
from repro.parallel.tasks import (
    RouteTask,
    iter_array_sources,
    join_over_pool,
    route_over_pool,
)
from repro.storage.chunked import ChunkedRelation
from repro.storage.manager import StorageManager


class MultiRoundResult:
    """Answers plus per-round load accounting for a plan execution.

    ``answers`` materializes the Python answer set lazily from the
    simulation's outputs (converting millions of array-backed answers
    into tuples dominates a columnar run, so it only happens when asked);
    ``answers_array`` exposes the columnar form directly.

    ``view_fragments`` maps plan-node names to their per-server result
    fragments in node-schema order (``(n, arity)`` arrays, or chunked
    spools in out-of-core mode).  By default only the root's fragments
    are retained -- holding every intermediate view of a large run
    alive would pin all of its memory to the result object;
    ``run_plan(..., keep_view_fragments=True)`` keeps them all (tests
    use this to pin down per-operator routing).

    Satisfies the :class:`repro.session.RunResult` protocol, so plan
    executions interchange with every other executor's result.
    """

    def __init__(
        self,
        plan: Plan,
        schema: tuple[str, ...],
        report: LoadReport,
        simulation: MPCSimulation,
        rounds: int,
        view_fragments: dict[str, list],
        strategy: str = "multiround",
    ):
        self.plan = plan
        self.schema = schema
        self.report = report
        self.simulation = simulation
        self.rounds = rounds
        self.view_fragments = view_fragments
        self.strategy = strategy
        self._answers: set[tuple[int, ...]] | None = None

    @property
    def answers(self) -> set[tuple[int, ...]]:
        """The distinct answers, reordered to the plan query's head."""
        if self._answers is None:
            self._answers = reorder(
                self.simulation.outputs(), self.schema, self.plan.query.variables
            )
        return self._answers

    def answers_array(self) -> np.ndarray:
        """The distinct answers as a canonical ``(n, k)`` int64 array."""
        rows = self.simulation.outputs_array(len(self.schema))
        head = self.plan.query.variables
        permuted = rows[:, [self.schema.index(v) for v in head]]
        return unique_rows(permuted)

    @property
    def max_load_bits(self) -> float:
        return self.report.max_load_bits

    @property
    def load_report(self) -> LoadReport:
        return self.report

    @property
    def predicted_bits(self) -> float | None:
        """The cost model's load prediction (None unless attached)."""
        return self.report.predicted_load_bits

    def __repr__(self) -> str:
        return (
            f"MultiRoundResult(query={self.plan.query.name or 'q'!r}, "
            f"rounds={self.rounds}, L={self.report.max_load_bits:.0f} bits)"
        )


def run_plan(
    plan: Plan,
    database: Database,
    p: int,
    seed: int = 0,
    keep_view_fragments: bool = False,
    capacity_bits: float | None = None,
    on_overflow: Literal["fail", "drop"] = "fail",
    *,
    hash_method: str = "splitmix64",
    storage: StorageManager | None = None,
    chunk_rows: int | None = None,
    pool: PoolKind | None = None,
    max_workers: int | None = None,
    machines: MachineSpec | None = None,
) -> MultiRoundResult:
    """Execute ``plan`` in ``plan.depth`` rounds on ``p`` servers.

    The final answers are reordered to the plan query's head order, so
    results compare directly against the sequential evaluator.
    ``keep_view_fragments`` retains every intermediate view's
    per-server fragments on the result (default: root only).

    ``capacity_bits`` applies :class:`MPCSimulation`'s per-server
    per-round cap ``L`` to every round of the plan --
    ``on_overflow="fail"`` raises
    :class:`~repro.mpc.simulator.LoadExceededError`, ``"drop"``
    truncates the same canonical per-server prefix.  ``storage``
    spools delivered fragments and inter-round views to disk-backed
    chunks; ``chunk_rows`` sets the routing granularity (defaults to
    the manager's).  Lazy result
    accessors (``answers``, ``answers_array()``) read the spooled
    outputs, so materialize them *before* closing the manager.

    ``pool``/``max_workers`` fan each round's columnar routing and
    per-server operator joins out over a worker pool; results merge
    deterministically, so answers and per-round loads are bit-identical
    at any worker count.

    ``machines`` (a heterogeneous :class:`~repro.config.MachineSpec`)
    weights every round's per-operator grids speed-proportionally
    (marginals over each operator's share cube) and applies per-server
    capacities to every round's cap enforcement.  A uniform spec is
    bit-identical to ``machines=None``.

    A thin delegating wrapper over the shared run path of
    :mod:`repro.session`.
    """
    from repro.session import dispatch_run

    return dispatch_run(
        "multiround",
        plan.query,
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
        plan=plan,
        keep_view_fragments=keep_view_fragments,
    )


def _multiround_impl(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    *,
    seed: int,
    settings: ExecutionSettings,
    storage: StorageManager | None,
    plan: Plan,
    keep_view_fragments: bool = False,
) -> MultiRoundResult:
    """The plan-execution core; ``settings`` arrives already resolved."""
    chunk_rows = settings.chunk_rows
    timer = PhaseTimer()
    pool = get_pool(settings.pool, settings.max_workers)
    if p < 2:
        raise ValueError("plan execution needs p >= 2")
    if query != plan.query:
        raise ValueError(
            f"plan answers {plan.query.name or plan.query!r}, "
            f"not {query.name or query!r}"
        )
    with timer.phase("generate"):
        database.validate_for(plan.query)
        stats = database.statistics(plan.query)
    sim = MPCSimulation(
        p,
        value_bits=stats.value_bits,
        capacity_bits=settings.capacity_bits,
        on_overflow=settings.on_overflow,
        storage=storage,
        timer=timer,
        machines=settings.machines,
    )

    by_depth = plan.root.nodes_by_depth()
    # Fragments are tagged "<node>/<input>"; a "/" inside a node name
    # (or a reused name) would let one operator absorb another's
    # differently-routed fragments -- exactly the mixing the
    # namespacing prevents.
    seen_names: set[str] = set()
    last_consumed: dict[str, int] = {}  # view name -> last consuming round
    for node_depth, nodes in by_depth.items():
        for node in nodes:
            if "/" in node.name:
                raise ValueError(
                    f"plan node name {node.name!r} must not contain '/'"
                )
            if node.name in seen_names:
                raise ValueError(f"duplicate plan node name {node.name!r}")
            seen_names.add(node.name)
            for child in node.children:
                if not isinstance(child, Atom):
                    last_consumed[child.name] = max(
                        last_consumed.get(child.name, 0), node_depth
                    )
    # view name -> per-server fragments ((n, arity) arrays or spools)
    produced: dict[str, list] = {}
    schema_of: dict[str, tuple[str, ...]] = {}

    for depth in sorted(by_depth):
        nodes = by_depth[depth]
        grids: dict[str, GridPartitioner] = {}
        with timer.phase("generate"):
            # Grids first (no simulator effects), so the routing below
            # can fan out over the pool in one stream per round.
            for node in nodes:
                operator = node.operator
                sizes = {}
                for child in node.children:
                    if isinstance(child, Atom):
                        sizes[child.relation] = len(database[child.relation])
                    else:
                        sizes[child.name] = sum(
                            len(chunk) for chunk in produced[child.name]
                        )
                op_stats = Statistics(operator, sizes, database.domain_size)
                exponents = share_exponents(operator, op_stats, p).exponents
                shares = integerize_shares(exponents, p)
                share_list = [shares[v] for v in operator.variables]
                grids[node.name] = GridPartitioner(
                    share_list,
                    HashFamily(derive_seed(seed, _stable_salt(node.name)),
                               method=settings.hash_method),
                    weights=grid_dimension_weights(
                        share_list, settings.machines
                    ),
                )
        sim.begin_round()
        # One task per (node, child, fragment, chunk), in the exact
        # nested order of the serial loop; results merge in task
        # order, so every send replays the serial sequence.  Tags
        # are namespaced by the consuming node: two same-round
        # operators reading the same input route it under different
        # grids and must not share server state.
        def round_tasks(nodes=nodes):
            for node in nodes:
                operator = node.operator
                grid = grids[node.name]
                for child in node.children:
                    if isinstance(child, Atom):
                        name = child.relation
                        child_schema = child.variables
                        sources = [database[child.relation]]
                    else:
                        name = child.name
                        child_schema = schema_of[child.name]
                        sources = produced[child.name]
                    for fragment in sources:
                        for source in iter_array_sources(
                            fragment, chunk_rows
                        ):
                            yield RouteTask(
                                tag=f"{node.name}/{name}",
                                source=source,
                                dimension_variables=tuple(
                                    operator.variables
                                ),
                                atom_variables=tuple(child_schema),
                                shares=tuple(grid.shares),
                                family_seed=derive_seed(
                                    seed, _stable_salt(node.name)
                                ),
                                hash_method=settings.hash_method,
                                weights=grid.weights,
                            )

        with timer.phase("route"):
            route_over_pool(pool, sim, round_tasks(), timer)
        sim.end_round()

        # Computation phase: evaluate each operator on every server of
        # its grid (servers beyond ``num_bins`` receive nothing and
        # produce nothing -- they are padded with empty fragments).
        for node in nodes:
            operator = node.operator
            width = len(operator.variables)
            prefix = f"{node.name}/"
            fragments: list = []
            # Per-server joins fan out over the pool; fragments are
            # collected (and spooled) in server order on the parent.
            # No per-server clear: same-round operators share
            # servers, so delivered fragments are freed only after
            # every node's joins (sim.clear_all below).
            def collect(server: int, local, node=node, width=width,
                        fragments=fragments):
                if local is None:
                    local = np.empty((0, width), dtype=np.int64)
                if storage is not None:
                    # Inter-round views spill too: an intermediate
                    # blow-up lands on disk, not in RAM.
                    spool = storage.spool(
                        f"{node.name}-s{server}", width
                    )
                    spool.append(local)
                    fragments.append(spool)
                else:
                    fragments.append(local)

            with timer.phase("join"):
                join_over_pool(
                    pool,
                    sim,
                    operator,
                    range(grids[node.name].num_bins),
                    prefix=prefix,
                    timer=timer,
                    on_result=collect,
                )
            empty = np.empty((0, width), dtype=np.int64)
            fragments += [empty] * (p - len(fragments))
            produced[node.name] = fragments
            schema_of[node.name] = operator.variables
        # Free delivered fragments: the next round re-routes views anyway.
        sim.clear_all()
        # Free views past their last consumer, so a deep columnar run
        # holds at most the live generations, not every intermediate.
        if not keep_view_fragments:
            for name, last in last_consumed.items():
                if last == depth and name != plan.root.name:
                    stale = produced.pop(name, None)
                    if stale is not None and storage is not None:
                        for fragment in stale:
                            if isinstance(fragment, ChunkedRelation):
                                fragment.drop()

    root = plan.root
    for server, chunk in enumerate(produced[root.name]):
        if len(chunk) == 0:
            continue
        if isinstance(chunk, ChunkedRelation):
            # The root view already lives in manager-owned spools;
            # adopting them avoids re-spilling the whole result.
            sim.adopt_output_spool(server, chunk)
        else:
            sim.output_array(server, chunk)
    retained = (
        produced if keep_view_fragments else {root.name: produced[root.name]}
    )
    timer.attach(sim.report)
    return MultiRoundResult(
        plan=plan,
        schema=schema_of[root.name],
        report=sim.report,
        simulation=sim,
        rounds=sim.rounds_executed,
        view_fragments=retained,
    )


def _stable_salt(name: str) -> int:
    """A full-width 64-bit salt for a node name.

    Feeds :func:`~repro.hashing.family.derive_seed`; a small residue
    space here (the old ``mod 1_000_003`` rolling hash) would bottleneck
    the 64-bit seed mixing and let distinct node names share a hash
    family at birthday-collision rates.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")
