"""A scalar reference model of the execution engine, for tests only.

The engine routes whole relations as arrays (one vectorized hash per
column, ``argsort`` grouping) and joins them with the vectorized
evaluator.  This module computes the same runs the slow, obvious way,
so the suites can check the engine against an independent model:

* every tuple is routed on its own, with the scalar
  :meth:`GridPartitioner.destinations` / :meth:`~GridPartitioner.linear_index`
  (the vectorized ``hash_array`` is never on this path);
* every delivered tuple costs ``arity * value_bits`` bits, counted one
  tuple at a time against its server's cap, in canonical order (atoms
  in query order, tuples sorted), so a binding ``on_overflow="drop"``
  cap keeps the same per-server prefix the model prescribes;
* local answers come from the sequential
  :func:`repro.join.multiway.evaluate_on_fragments`.

The oracle shares the specification with the engine -- share LP,
hash family, seed derivation, heavy-hitter thresholds -- but none of
its routing, delivery or join code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Mapping, Sequence

from repro.config import MachineSpec, resolve_machines
from repro.core.query import Atom, ConjunctiveQuery
from repro.core.shares import integerize_shares, share_exponents
from repro.core.stats import Statistics
from repro.data.database import Database
from repro.hashing.family import (
    GridPartitioner,
    HashFamily,
    derive_seed,
    grid_dimension_weights,
)
from repro.join.multiway import evaluate_on_fragments
from repro.multiround.executor import _stable_salt
from repro.multiround.plans import Plan
from repro.skew.heavy_hitters import HitterStatistics, variable_frequencies
from repro.skew.star import star_center


class OracleOverflow(RuntimeError):
    """A server's cap was exceeded under ``on_overflow="fail"``."""


@dataclass
class OracleRound:
    """Accepted bits, accepted tuples and dropped bits per server."""

    bits: dict[int, float] = field(default_factory=dict)
    tuples: dict[int, int] = field(default_factory=dict)
    dropped_bits: dict[int, float] = field(default_factory=dict)


@dataclass
class OracleRun:
    """What the model says one run receives and answers."""

    rounds: list[OracleRound]
    answers: set[tuple[int, ...]]
    shares: dict[str, int] | None = None
    #: Multi-round only: node name -> per-server fragments (length p).
    view_fragments: dict[str, list[set[tuple[int, ...]]]] = field(
        default_factory=dict
    )

    @property
    def total_bits(self) -> float:
        return sum(sum(r.bits.values()) for r in self.rounds)

    @property
    def dropped_bits(self) -> float:
        return sum(sum(r.dropped_bits.values()) for r in self.rounds)

    @property
    def max_load_bits(self) -> float:
        return max(
            (max(r.bits.values(), default=0.0) for r in self.rounds),
            default=0.0,
        )


class ScalarCluster:
    """``p`` servers receiving one tuple at a time."""

    def __init__(
        self,
        p: int,
        value_bits: int,
        capacity_bits: float | None = None,
        on_overflow: Literal["fail", "drop"] = "fail",
        machines: MachineSpec | None = None,
    ):
        self.value_bits = value_bits
        self.on_overflow = on_overflow
        self.caps: list[float | None] = []
        for server in range(p):
            own = machines.capacity(server) if machines is not None else None
            caps = [c for c in (capacity_bits, own) if c is not None]
            self.caps.append(min(caps) if caps else None)
        self.rounds: list[OracleRound] = []
        self.fragments: list[dict[str, set[tuple[int, ...]]]] = [
            {} for _ in range(p)
        ]

    def begin_round(self) -> None:
        self.rounds.append(OracleRound())
        self._received = [0.0] * len(self.caps)

    def receive(self, server: int, tag: str, t: tuple[int, ...]) -> None:
        current = self.rounds[-1]
        cost = float(len(t) * self.value_bits)
        cap = self.caps[server]
        if cap is not None and self._received[server] + cost > cap:
            if self.on_overflow == "fail":
                raise OracleOverflow(f"server {server} over {cap} bits")
            current.dropped_bits[server] = (
                current.dropped_bits.get(server, 0.0) + cost
            )
            return
        self._received[server] += cost
        current.bits[server] = current.bits.get(server, 0.0) + cost
        current.tuples[server] = current.tuples.get(server, 0) + 1
        self.fragments[server].setdefault(tag, set()).add(t)

    def route(
        self,
        grid: GridPartitioner,
        dimension_variables: Sequence[str],
        atom_variables: Sequence[str],
        tag: str,
        tuples,
        base: int = 0,
    ) -> None:
        """Send each tuple to every cell of its destination subcube."""
        for t in tuples:
            coordinates: list[int | None] = [None] * len(dimension_variables)
            consistent = True
            for variable, value in zip(atom_variables, t):
                axis = dimension_variables.index(variable)
                if coordinates[axis] is None:
                    coordinates[axis] = value
                elif coordinates[axis] != value:
                    consistent = False
            if not consistent:
                continue
            for cell in grid.destinations(coordinates):
                self.receive(base + grid.linear_index(cell), tag, t)

    def answers(self, query: ConjunctiveQuery, servers) -> set[tuple[int, ...]]:
        out: set[tuple[int, ...]] = set()
        for server in servers:
            out |= evaluate_on_fragments(query, self.fragments[server])
        return out


def _grid(shares, seed, hash_method, machines) -> GridPartitioner:
    return GridPartitioner(
        shares,
        HashFamily(seed, method=hash_method),
        weights=grid_dimension_weights(shares, machines),
    )


def hypercube(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    *,
    seed: int = 0,
    shares: Mapping[str, int] | None = None,
    exponents: Mapping[str, float] | None = None,
    hash_method: str = "splitmix64",
    capacity_bits: float | None = None,
    on_overflow: Literal["fail", "drop"] = "fail",
    machines: MachineSpec | None = None,
) -> OracleRun:
    """One HyperCube round: LP (10) shares unless given, Eq. (9) routing."""
    machines = resolve_machines(machines, p)
    stats = database.statistics(query)
    if shares is not None:
        resolved = {v: int(shares.get(v, 1)) for v in query.variables}
    else:
        if exponents is None:
            exponents = share_exponents(query, stats, p).exponents
        resolved = integerize_shares(
            {v: float(exponents.get(v, 0.0)) for v in query.variables}, p
        )
    dims = query.variables
    grid = _grid([resolved[v] for v in dims], seed, hash_method, machines)
    cluster = ScalarCluster(
        p, stats.value_bits, capacity_bits, on_overflow, machines
    )
    cluster.begin_round()
    for atom in query.atoms:
        cluster.route(
            grid, dims, atom.variables, atom.relation,
            database[atom.relation].sorted_tuples(),
        )
    return OracleRun(
        cluster.rounds, cluster.answers(query, range(p)), shares=resolved
    )


def _light_block(query, database, p, shares, is_light, seed, hash_method,
                 capacity_bits, on_overflow, machines) -> OracleRun:
    """HyperCube on servers ``[0, p)`` over the light tuples only."""
    machines = resolve_machines(machines, p)
    stats = database.statistics(query)
    dims = query.variables
    grid = _grid([shares[v] for v in dims], seed, hash_method, machines)
    cluster = ScalarCluster(
        p, stats.value_bits, capacity_bits, on_overflow, machines
    )
    cluster.begin_round()
    for atom in query.atoms:
        light = [
            t for t in database[atom.relation].sorted_tuples()
            if is_light(atom, t)
        ]
        cluster.route(grid, dims, atom.variables, atom.relation, light)
    return OracleRun(cluster.rounds, cluster.answers(query, range(p)))


def star_light(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    *,
    seed: int = 0,
    hash_method: str = "splitmix64",
    capacity_bits: float | None = None,
    on_overflow: Literal["fail", "drop"] = "fail",
    machines: MachineSpec | None = None,
) -> OracleRun:
    """The star algorithm's light block: all ``p`` shares on the center,
    tuples whose center value is a heavy hitter (``m_j(h) >= m_j/p``)
    left out."""
    center = star_center(query)
    heavy = set(
        HitterStatistics.from_database(query, database, center, 1.0, p).hitters
    )
    shares = {v: p if v == center else 1 for v in query.variables}

    def is_light(atom: Atom, t) -> bool:
        return t[atom.variables.index(center)] not in heavy

    return _light_block(query, database, p, shares, is_light, seed,
                        hash_method, capacity_bits, on_overflow, machines)


def triangle_light(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    *,
    seed: int = 0,
    hash_method: str = "splitmix64",
    capacity_bits: float | None = None,
    on_overflow: Literal["fail", "drop"] = "fail",
    machines: MachineSpec | None = None,
) -> OracleRun:
    """The triangle algorithm's light block: shares ``p^{1/3}`` per
    variable, tuples with a value of frequency ``>= m / p^{1/3}`` left
    out."""
    m = max(len(database[r]) for r in query.relation_names)
    threshold = max(1.0, m / p ** (1.0 / 3.0))
    freq = {v: variable_frequencies(query, database, v) for v in query.variables}
    shares = integerize_shares({v: 1.0 / 3.0 for v in query.variables}, p)

    def is_light(atom: Atom, t) -> bool:
        return all(
            freq[v].get(value, 0) < threshold
            for v, value in zip(atom.variables, t)
        )

    return _light_block(query, database, p, shares, is_light, seed,
                        hash_method, capacity_bits, on_overflow, machines)


def plan(
    query_plan: Plan,
    database: Database,
    p: int,
    *,
    seed: int = 0,
    hash_method: str = "splitmix64",
    capacity_bits: float | None = None,
    on_overflow: Literal["fail", "drop"] = "fail",
    machines: MachineSpec | None = None,
) -> OracleRun:
    """A query plan, one round per depth (Section 5).

    Each operator gets LP shares for its input sizes and a grid seeded
    per node name; inputs travel under ``"<node>/<input>"`` tags, base
    relations sorted and views sorted per producing server, in server
    order.  View fragments of every node are kept, padded to ``p``.
    """
    query = query_plan.query
    machines = resolve_machines(machines, p)
    stats = database.statistics(query)
    cluster = ScalarCluster(
        p, stats.value_bits, capacity_bits, on_overflow, machines
    )
    produced: dict[str, list[set[tuple[int, ...]]]] = {}
    schema_of: dict[str, tuple[str, ...]] = {}
    by_depth = query_plan.root.nodes_by_depth()
    for depth in sorted(by_depth):
        nodes = by_depth[depth]
        grids = {}
        for node in nodes:
            operator = node.operator
            sizes = {}
            for child in node.children:
                if isinstance(child, Atom):
                    sizes[child.relation] = len(database[child.relation])
                else:
                    sizes[child.name] = sum(len(f) for f in produced[child.name])
            op_stats = Statistics(operator, sizes, database.domain_size)
            shares = integerize_shares(
                share_exponents(operator, op_stats, p).exponents, p
            )
            grids[node.name] = _grid(
                [shares[v] for v in operator.variables],
                derive_seed(seed, _stable_salt(node.name)),
                hash_method,
                machines,
            )
        cluster.begin_round()
        for node in nodes:
            for child in node.children:
                if isinstance(child, Atom):
                    name, schema = child.relation, child.variables
                    sources = [database[child.relation].sorted_tuples()]
                else:
                    name, schema = child.name, schema_of[child.name]
                    sources = [sorted(f) for f in produced[child.name]]
                for source in sources:
                    cluster.route(
                        grids[node.name], node.operator.variables, schema,
                        f"{node.name}/{name}", source,
                    )
        for node in nodes:
            prefix = f"{node.name}/"
            fragments = []
            for server in range(grids[node.name].num_bins):
                inputs = {
                    tag[len(prefix):]: tuples
                    for tag, tuples in cluster.fragments[server].items()
                    if tag.startswith(prefix)
                }
                fragments.append(evaluate_on_fragments(node.operator, inputs))
            produced[node.name] = fragments + [set()] * (p - len(fragments))
            schema_of[node.name] = node.operator.variables
        for held in cluster.fragments:
            held.clear()
    root = query_plan.root
    head = query.variables
    order = [schema_of[root.name].index(v) for v in head]
    answers = {
        tuple(t[i] for i in order) for f in produced[root.name] for t in f
    }
    return OracleRun(cluster.rounds, answers, view_fragments=produced)


def hypercube_volume(
    query: ConjunctiveQuery, database: Database, shares: Mapping[str, int]
) -> float:
    """Closed-form total bits of one uncapped HyperCube round.

    ``sum_j |R_j| * arity_j * value_bits * prod_{v not in vars(S_j)} share_v``:
    each tuple reaches every cell of its destination subcube.  Exact
    when no tuple binds a repeated variable inconsistently.
    """
    value_bits = database.statistics(query).value_bits
    total = 0.0
    for atom in query.atoms:
        replication = math.prod(
            shares[v] for v in query.variables if v not in atom.variable_set
        )
        total += (
            len(database[atom.relation]) * atom.arity * value_bits * replication
        )
    return total


def assert_report_matches(report, run: OracleRun, servers: int | None = None):
    """The engine's report equals the model's, round by round.

    ``servers`` restricts the comparison to servers ``[0, servers)``
    (the light block of the skew algorithms); otherwise the whole
    report is compared, totals included.
    """
    assert report.num_rounds == len(run.rounds)
    for got, want in zip(report.rounds, run.rounds):
        if servers is None:
            assert got.bits == want.bits
            assert got.tuples == want.tuples
            assert got.dropped_bits == want.dropped_bits
        else:
            for name in ("bits", "tuples", "dropped_bits"):
                light = {
                    s: v for s, v in getattr(got, name).items() if s < servers
                }
                assert light == getattr(want, name), name
    if servers is None:
        assert report.total_bits == run.total_bits
        assert report.max_load_bits == run.max_load_bits
        assert report.dropped_bits == run.dropped_bits
