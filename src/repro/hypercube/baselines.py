"""Baseline one-round algorithms the paper compares against.

* :func:`run_single_server` -- the degenerate ``L = M`` algorithm
  (Section 2.1: "if we allowed a load L = M, any problem can be solved
  trivially in one round").
* :func:`run_parallel_hash_join` -- the standard parallel hash join of
  Example 4.1: all ``p`` shares on the join variable(s).  Optimal
  without skew, load ``Theta(M)`` when a single heavy hitter carries
  the relation.
* :func:`run_broadcast_join` -- partition one relation, broadcast the
  rest; matches the HC optimum when the broadcast relations are small
  (Lemma 3.18's regime ``M_j < M/p``).
"""

from __future__ import annotations

from typing import Literal, Sequence

from repro.core.query import ConjunctiveQuery
from repro.data.database import Database
from repro.hypercube.algorithm import HyperCubeResult, run_hypercube
from repro.join.multiway import evaluate_on_fragments
from repro.mpc.simulator import MPCSimulation


def run_single_server(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    capacity_bits: float | None = None,
    on_overflow: Literal["fail", "drop"] = "fail",
) -> HyperCubeResult:
    """Ship the entire input to server 0 and join there (load = |I|)."""
    database.validate_for(query)
    stats = database.statistics(query)
    sim = MPCSimulation(
        p,
        value_bits=stats.value_bits,
        capacity_bits=capacity_bits,
        on_overflow=on_overflow,
    )
    sim.begin_round()
    for atom in query.atoms:
        # Sorted, so a binding capacity cap truncates a deterministic
        # prefix rather than whatever the set iteration order yields.
        sim.send(0, atom.relation, database[atom.relation].sorted_tuples())
    sim.end_round()
    answers = evaluate_on_fragments(query, sim.state(0))
    sim.output(0, answers)
    shares = {v: 1 for v in query.variables}
    return HyperCubeResult(
        query, sim.outputs(), shares, sim.report, sim,
        strategy="single-server",
    )


def run_parallel_hash_join(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    join_variables: Sequence[str] | None = None,
    seed: int = 0,
    capacity_bits: float | None = None,
    on_overflow: Literal["fail", "drop"] = "fail",
    hash_method: str = "splitmix64",
) -> HyperCubeResult:
    """Hash-partition every relation on shared join variable(s).

    Defaults to the variables occurring in *all* atoms (the natural
    join key); for the simple join ``S1(x,z), S2(y,z)`` that is ``z``
    and the algorithm is the textbook parallel hash join with
    ``p_z = p``.
    """
    if join_variables is None:
        join_variables = [
            v
            for v in query.variables
            if all(v in a.variable_set for a in query.atoms)
        ]
    join_variables = list(join_variables)
    if not join_variables:
        raise ValueError(
            "query has no variable common to all atoms; "
            "pass join_variables explicitly"
        )
    # Spread p as evenly as possible over the join variables.
    exponents = {v: 1.0 / len(join_variables) for v in join_variables}
    result = run_hypercube(
        query, database, p, exponents=exponents, seed=seed,
        capacity_bits=capacity_bits, on_overflow=on_overflow,
        hash_method=hash_method,
    )
    result.strategy = "hash-join"
    return result


def run_broadcast_join(
    query: ConjunctiveQuery,
    database: Database,
    p: int,
    partition_relation: str | None = None,
    seed: int = 0,
    capacity_bits: float | None = None,
    on_overflow: Literal["fail", "drop"] = "fail",
) -> HyperCubeResult:
    """Partition one relation evenly; broadcast all the others.

    ``partition_relation`` defaults to the largest relation.  Correct
    for any query because each server sees the full content of every
    non-partitioned relation.
    """
    database.validate_for(query)
    stats = database.statistics(query)
    if partition_relation is None:
        partition_relation = max(
            query.relation_names, key=lambda r: stats.bits(r)
        )
    if partition_relation not in set(query.relation_names):
        raise KeyError(f"unknown relation {partition_relation!r}")
    sim = MPCSimulation(
        p,
        value_bits=stats.value_bits,
        capacity_bits=capacity_bits,
        on_overflow=on_overflow,
    )
    sim.begin_round()
    for atom in query.atoms:
        relation = database[atom.relation]
        if atom.relation == partition_relation:
            ordered = relation.sorted_tuples()
            for index, t in enumerate(ordered):
                sim.send((index * 1_000_003 + seed) % p, atom.relation, [t])
        else:
            sim.broadcast(atom.relation, relation.sorted_tuples())
    sim.end_round()
    for server in range(p):
        local = evaluate_on_fragments(query, sim.state(server))
        if local:
            sim.output(server, local)
    shares = {v: 1 for v in query.variables}
    return HyperCubeResult(
        query, sim.outputs(), shares, sim.report, sim, strategy="broadcast"
    )
