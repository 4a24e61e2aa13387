"""The columnar HyperCube engine against the scalar oracle.

For randomized queries and databases under a fixed seed,
``run_hypercube`` must produce exactly the answers, shares, per-server
loads (bits and tuples) and :class:`LoadReport` totals of
:func:`tests.oracle.hypercube`, which routes one tuple at a time with
the scalar hash and joins with the sequential evaluator.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.families import chain_query, star_query, triangle_query
from repro.core.query import Atom, ConjunctiveQuery
from repro.data.database import Database
from repro.data.generators import (
    matching_database,
    planted_heavy_hitter_database,
    uniform_database,
    zipf_database,
)
from repro.data.relation import Relation
from repro.hypercube.algorithm import run_hypercube
from repro.join.multiway import evaluate

from tests import oracle
from tests.conftest import random_queries


def assert_matches_oracle(query, db, p, seed=0, **knobs):
    result = run_hypercube(query, db, p, seed=seed, **knobs)
    model = oracle.hypercube(query, db, p, seed=seed, **knobs)
    assert result.answers == model.answers
    assert result.shares == model.shares
    oracle.assert_report_matches(result.report, model)
    return result


class TestPropertyEquivalence:
    @given(query=random_queries(), seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=30, deadline=None)
    def test_randomized_queries_and_databases(self, query, seed):
        n = 8
        sizes = {a.relation: min(25, n**a.arity) for a in query.atoms}
        db = uniform_database(query, m=sizes, n=n, seed=seed)
        result = assert_matches_oracle(query, db, p=8, seed=seed)
        assert result.answers == evaluate(query, db)

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=10, deadline=None)
    def test_triangle_uniform(self, seed):
        query = triangle_query()
        db = uniform_database(query, m=60, n=25, seed=seed)
        result = assert_matches_oracle(query, db, p=8, seed=seed)
        assert result.answers == evaluate(query, db)


class TestKnownWorkloads:
    @pytest.mark.parametrize("p", [4, 8, 27])
    def test_matching_chain(self, p):
        query = chain_query(3)
        db = matching_database(query, m=40, n=200, seed=11)
        assert_matches_oracle(query, db, p, seed=5)

    def test_star_zipf(self):
        query = star_query(3)
        db = zipf_database(query, m=80, n=50, skew=1.2, seed=3)
        assert_matches_oracle(query, db, p=16, seed=3)

    def test_planted_skew(self):
        query = ConjunctiveQuery(
            (Atom("S1", ("x", "z")), Atom("S2", ("y", "z"))), name="J"
        )
        db = planted_heavy_hitter_database(query, 50, 500, "z", 1.0, 3, seed=7)
        assert_matches_oracle(query, db, p=8, seed=1)

    def test_capacity_drop_identical_truncation(self):
        # Routing in canonical order, a binding capacity cap with
        # on_overflow="drop" discards exactly the tuples the model
        # discards: not just equal loads, equal *answers*.
        query = ConjunctiveQuery(
            (Atom("S1", ("x", "z")), Atom("S2", ("y", "z"))), name="J"
        )
        db = planted_heavy_hitter_database(query, 200, 2000, "z", 1.0, 5, seed=1)
        result = assert_matches_oracle(
            query, db, p=16, exponents={"z": 1.0}, seed=3,
            capacity_bits=333.3, on_overflow="drop",
        )
        assert result.report.dropped_bits > 0

    def test_blake2b_flag_cross_check(self):
        # The legacy hash stays available behind the flag and the
        # engine matches the oracle under it too.
        query = triangle_query()
        db = uniform_database(query, m=50, n=20, seed=9)
        assert_matches_oracle(query, db, p=8, seed=9, hash_method="blake2b")

    def test_hash_methods_place_differently(self):
        # Sanity: the two PRFs are genuinely different functions.
        query = triangle_query()
        db = uniform_database(query, m=60, n=30, seed=2)
        split = run_hypercube(query, db, p=8, seed=2, hash_method="splitmix64")
        blake = run_hypercube(query, db, p=8, seed=2, hash_method="blake2b")
        assert split.answers == blake.answers == evaluate(query, db)
        assert split.report.rounds[0].bits != blake.report.rounds[0].bits

    def test_repeated_variable_atom(self):
        query = ConjunctiveQuery(
            (Atom("R", ("x", "x")), Atom("S", ("x", "y"))), name="loop"
        )
        db = Database(
            [
                Relation("R", 2, [(1, 1), (1, 2), (3, 3), (4, 5)]),
                Relation("S", 2, [(1, 5), (3, 7), (2, 9)]),
            ],
            10,
        )
        result = assert_matches_oracle(query, db, p=6, seed=0)
        assert result.answers == evaluate(query, db) == {(1, 5), (3, 7)}


class TestColumnarPlumbing:
    def test_relation_array_roundtrip(self):
        rel = Relation("R", 3, [(2, 1, 0), (0, 1, 2), (2, 1, 0)])
        arr = rel.to_array()
        assert arr.shape == (2, 3)
        assert arr.tolist() == [[0, 1, 2], [2, 1, 0]]
        assert rel.to_array() is arr  # cached
        assert not arr.flags.writeable
        back = Relation.from_array("R", arr)
        assert back == rel

    def test_from_array_deduplicates(self):
        rel = Relation.from_array("R", np.array([[1, 2], [1, 2], [3, 4]]))
        assert len(rel) == 2

    def test_database_arrays(self):
        query = triangle_query()
        db = matching_database(query, m=10, n=50, seed=0)
        arrays = db.arrays(query)
        assert set(arrays) == set(query.relation_names)
        rebuilt = Database.from_arrays(arrays, db.domain_size)
        for name in arrays:
            assert rebuilt[name] == db[name]

    def test_skip_local_join_numpy(self):
        query = triangle_query()
        db = matching_database(query, m=50, n=200, seed=2)
        result = run_hypercube(query, db, p=8, skip_local_join=True)
        assert result.answers == set()
        assert result.max_load_bits > 0
