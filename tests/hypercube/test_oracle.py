"""Checks on the scalar oracle itself, without going through the engine.

The oracle is only useful as a reference if it is right on its own
terms, so it is held to the closed-form HyperCube volume -- every tuple
reaches ``prod_{v not in vars(S_j)} p_v`` servers at ``arity_j *
value_bits`` bits each -- and to one instance small enough to route by
hand.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MachineSpec
from repro.core.query import Atom, ConjunctiveQuery
from repro.data.database import Database
from repro.data.generators import uniform_database
from repro.data.relation import Relation
from repro.hashing.family import HashFamily
from repro.hypercube.algorithm import run_hypercube
from repro.join.multiway import evaluate

from tests import oracle
from tests.conftest import random_queries


def consistent_only(query: ConjunctiveQuery, db: Database) -> Database:
    """Drop tuples that bind a repeated variable to two values."""
    relations = []
    for atom in query.atoms:
        kept = [
            t for t in db[atom.relation]
            if all(
                t[i] == t[atom.variables.index(v)]
                for i, v in enumerate(atom.variables)
            )
        ]
        relations.append(Relation(atom.relation, atom.arity, kept))
    return Database(relations, db.domain_size)


class TestClosedFormVolume:
    @given(query=random_queries(), seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=30, deadline=None)
    def test_total_bits_equal_hypercube_volume(self, query, seed):
        n = 8
        sizes = {a.relation: min(25, n**a.arity) for a in query.atoms}
        db = consistent_only(query, uniform_database(query, m=sizes, n=n, seed=seed))
        model = oracle.hypercube(query, db, 8, seed=seed)
        volume = oracle.hypercube_volume(query, db, model.shares)
        assert model.total_bits == volume
        assert run_hypercube(query, db, 8, seed=seed).report.total_bits == volume


class TestHandRoutedInstance:
    """``R(x, y), S(y, z)`` on p = 4 servers with shares (2, 1, 2).

    The grid is ``server = 2 * h_x(x) + h_z(z)``; ``y`` has share 1.
    The cluster is pinned uniform, so the hashes stay unweighted.
    Domain 16 gives 4-bit values, so every binary tuple costs 8 bits.
    With seed 0: ``h_x(0) = 1``, ``h_x(1) = h_x(2) = 0``,
    ``h_z(0) = 0``, ``h_z(3) = 1``.

    * ``R(0, 1)`` -> row 1, replicated over z: servers 2, 3
    * ``R(1, 1)``, ``R(2, 3)`` -> row 0: servers 0, 1
    * ``S(1, 0)`` -> column 0, replicated over x: servers 0, 2
    * ``S(3, 3)`` -> column 1: servers 1, 3
    """

    query = ConjunctiveQuery(
        (Atom("R", ("x", "y")), Atom("S", ("y", "z"))), name="J"
    )
    db = Database(
        [
            Relation("R", 2, [(0, 1), (1, 1), (2, 3)]),
            Relation("S", 2, [(1, 0), (3, 3)]),
        ],
        16,
    )
    shares = {"x": 2, "y": 1, "z": 2}
    bits = {0: 24.0, 1: 24.0, 2: 16.0, 3: 16.0}
    tuples = {0: 3, 1: 3, 2: 2, 3: 2}

    def test_hash_coordinates(self):
        family = HashFamily(0)
        h_x, h_z = family.function(0, 2), family.function(2, 2)
        assert [h_x(v) for v in (0, 1, 2)] == [1, 0, 0]
        assert [h_z(v) for v in (0, 3)] == [0, 1]

    def test_oracle_and_engine_per_server_bits(self):
        knobs = {"shares": self.shares, "machines": MachineSpec.uniform(4)}
        model = oracle.hypercube(self.query, self.db, 4, **knobs)
        result = run_hypercube(self.query, self.db, 4, **knobs)
        for report in (model, result.report):
            assert report.rounds[0].bits == self.bits
            assert report.rounds[0].tuples == self.tuples
        assert model.total_bits == 80.0 == oracle.hypercube_volume(
            self.query, self.db, self.shares
        )
        expected = {(0, 1, 0), (1, 1, 0), (2, 3, 3)}
        assert model.answers == result.answers == expected
        assert evaluate(self.query, self.db) == expected
