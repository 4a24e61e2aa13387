"""``repro.session``: the unified front door must change nothing.

The acceptance property: ``Session.run`` pinned to a strategy is
bit-identical -- answers, per-server per-round loads, capacity
truncation -- to the corresponding legacy free function with the same
knobs, across strategies x storage modes -- and matches the scalar
oracle of :mod:`tests.oracle`; and every result class satisfies the
:class:`RunResult` protocol.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.families import star_query, triangle_query
from repro.data.generators import (
    matching_database,
    uniform_database,
    zipf_database,
)
from repro.hypercube.algorithm import run_hypercube
from repro.hypercube.baselines import run_broadcast_join
from repro.join.multiway import evaluate
from repro.multiround.executor import run_plan
from repro.multiround.plans import chain_plan
from repro.planner import execute as planner_execute
from repro.session import ClusterConfig, RunResult, Session
from repro.skew.star import run_star_skew
from repro.skew.triangle import run_triangle_skew
from repro.storage import StorageManager

from tests import oracle
from tests.conftest import random_queries

#: A 1-byte budget: every database's assumed footprint exceeds it, so
#: the session always engages its shared out-of-core manager.
TINY_BUDGET = 1


def assert_identical(a: RunResult, b: RunResult) -> None:
    """Bit-identity over the RunResult protocol surface."""
    assert a.answers == b.answers
    report_a, report_b = a.load_report, b.load_report
    assert report_a.num_rounds == report_b.num_rounds
    for round_a, round_b in zip(report_a.rounds, report_b.rounds):
        assert round_a.bits == round_b.bits
        assert round_a.tuples == round_b.tuples
        assert round_a.dropped_bits == round_b.dropped_bits
    assert a.rounds == b.rounds


def check_reference(reference, mine, with_budget, legacy_run, oracle_run,
                    servers=None):
    """Hold a session run to its legacy twin or to the oracle.

    ``legacy_run(storage)`` repeats the run through the free function
    (under its own budget-sized manager when the session had one);
    ``oracle_run()`` computes the scalar model's report, compared over
    ``servers`` (all of them when None).
    """
    if reference == "numpy":
        if with_budget:
            with StorageManager.from_budget(TINY_BUDGET) as storage:
                assert_identical(mine, legacy_run(storage))
        else:
            assert_identical(mine, legacy_run(None))
        return
    model = oracle_run()
    oracle.assert_report_matches(mine.load_report, model, servers=servers)
    if servers is None:
        assert mine.answers == model.answers


def star_case(seed):
    q = star_query(2)
    return q, zipf_database(q, m=250, n=100, skew=1.0, seed=seed)


def triangle_case(seed):
    q = triangle_query()
    return q, zipf_database(q, m=220, n=60, skew=1.1, seed=seed)


def matching_triangle_case(seed):
    q = triangle_query()
    return q, matching_database(q, m=150, n=600, seed=seed)


class TestBitIdentityToLegacy:
    """session.run(strategy=...) == the legacy free function == the oracle.

    ``reference`` picks what the session run is held to: ``"numpy"``
    is the legacy columnar free function with the same knobs (and the
    same storage mode), ``"tuples"`` the scalar tuple-at-a-time oracle
    of :mod:`tests.oracle` -- the whole report for HyperCube and plans,
    the light block (servers ``[0, p)``) for the skew algorithms.
    """

    @pytest.mark.parametrize("reference", ["tuples", "numpy"])
    @pytest.mark.parametrize("with_budget", [False, True])
    @pytest.mark.parametrize("seed", range(2))
    def test_hypercube(self, reference, with_budget, seed):
        q, db = matching_triangle_case(seed)
        budget = TINY_BUDGET if with_budget else None
        with Session(p=16, seed=seed,
                     memory_budget_bytes=budget) as session:
            mine = session.run(q, db, strategy="hypercube")
            assert mine.answers == evaluate(q, db)
            check_reference(
                reference, mine, with_budget,
                lambda storage: run_hypercube(
                    q, db, 16, seed=seed, storage=storage
                ),
                lambda: oracle.hypercube(q, db, 16, seed=seed),
            )

    @pytest.mark.parametrize("reference", ["tuples", "numpy"])
    @pytest.mark.parametrize("with_budget", [False, True])
    @pytest.mark.parametrize("seed", range(2))
    def test_skew_star(self, reference, with_budget, seed):
        q, db = star_case(seed)
        budget = TINY_BUDGET if with_budget else None
        with Session(p=8, seed=seed,
                     memory_budget_bytes=budget) as session:
            mine = session.run(q, db, strategy="skew-star")
            check_reference(
                reference, mine, with_budget,
                lambda storage: run_star_skew(
                    q, db, 8, seed=seed, storage=storage
                ),
                lambda: oracle.star_light(q, db, 8, seed=seed),
                servers=8,
            )

    @pytest.mark.parametrize("reference", ["tuples", "numpy"])
    @pytest.mark.parametrize("with_budget", [False, True])
    @pytest.mark.parametrize("seed", range(2))
    def test_skew_triangle(self, reference, with_budget, seed):
        q, db = triangle_case(seed)
        budget = TINY_BUDGET if with_budget else None
        with Session(p=8, seed=seed,
                     memory_budget_bytes=budget) as session:
            mine = session.run(q, db, strategy="skew-triangle")
            check_reference(
                reference, mine, with_budget,
                lambda storage: run_triangle_skew(
                    db, 8, seed=seed, storage=storage
                ),
                lambda: oracle.triangle_light(q, db, 8, seed=seed),
                servers=8,
            )

    @pytest.mark.parametrize("reference", ["tuples", "numpy"])
    @pytest.mark.parametrize("with_budget", [False, True])
    def test_multiround(self, reference, with_budget):
        plan = chain_plan(4, 0.0)
        db = matching_database(plan.query, m=60, n=60, seed=0)
        budget = TINY_BUDGET if with_budget else None
        with Session(p=8, seed=2,
                     memory_budget_bytes=budget) as session:
            mine = session.run(
                plan.query, db, strategy="multiround", plan=plan
            )
            check_reference(
                reference, mine, with_budget,
                lambda storage: run_plan(
                    plan, db, 8, seed=2, storage=storage
                ),
                lambda: oracle.plan(plan, db, 8, seed=2),
            )

    @pytest.mark.parametrize("seed", range(2))
    def test_planner_default_route(self, seed):
        q, db = triangle_case(seed)
        with Session(p=8, seed=seed) as session:
            mine = session.run(q, db)
        legacy = planner_execute(q, db, 8, seed=seed)
        assert mine.strategy == legacy.strategy
        assert_identical(mine, legacy)

    @given(query=random_queries(),
           seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=15, deadline=None)
    def test_property_random_queries(self, query, seed):
        n = 8
        sizes = {a.relation: min(20, n**a.arity) for a in query.atoms}
        db = uniform_database(query, m=sizes, n=n, seed=seed)
        legacy = run_hypercube(query, db, 8, seed=seed)
        with Session(p=8, seed=seed) as session:
            mine = session.run(query, db, strategy="hypercube")
        assert_identical(mine, legacy)


class TestCapacityThreading:
    """A session capacity cap truncates exactly like the legacy knob
    (``"numpy"``) and like the oracle (``"tuples"``)."""

    @pytest.mark.parametrize("reference", ["tuples", "numpy"])
    def test_hypercube_drop(self, reference):
        q, db = triangle_case(seed=4)
        knobs = {"seed": 1, "capacity_bits": 900.0, "on_overflow": "drop"}
        with Session(p=8, **knobs) as session:
            mine = session.run(q, db, strategy="hypercube")
            assert mine.load_report.dropped_bits > 0
            check_reference(
                reference, mine, False,
                lambda storage: run_hypercube(q, db, 8, **knobs),
                lambda: oracle.hypercube(q, db, 8, **knobs),
            )

    @pytest.mark.parametrize("reference", ["tuples", "numpy"])
    def test_star_drop(self, reference):
        q, db = star_case(seed=5)
        knobs = {"seed": 1, "capacity_bits": 700.0, "on_overflow": "drop"}
        with Session(p=8, **knobs) as session:
            mine = session.run(q, db, strategy="skew-star")
            assert mine.load_report.dropped_bits > 0
            check_reference(
                reference, mine, False,
                lambda storage: run_star_skew(q, db, 8, **knobs),
                lambda: oracle.star_light(q, db, 8, **knobs),
                servers=8,
            )


class TestRunResultProtocol:
    """All five result classes satisfy RunResult structurally."""

    def test_all_result_types_conform(self):
        q, db = matching_triangle_case(seed=0)
        sq, sdb = star_case(seed=0)
        plan = chain_plan(4, 0.0)
        pdb = matching_database(plan.query, m=40, n=40, seed=0)
        results = [
            run_hypercube(q, db, 8, seed=0),
            run_star_skew(sq, sdb, 8, seed=0),
            run_triangle_skew(db, 8, seed=0),
            run_plan(plan, pdb, 8, seed=0),
            planner_execute(q, db, 8, seed=0),
        ]
        expected_strategies = [
            "hypercube", "skew-star", "skew-triangle", "multiround",
        ]
        for result, expected in zip(results, expected_strategies):
            assert isinstance(result, RunResult)
            assert result.strategy == expected
            assert result.rounds == result.load_report.num_rounds
            array = result.answers_array()
            assert len(array) == len(result.answers)
        planned = results[-1]
        assert isinstance(planned, RunResult)
        assert planned.predicted_bits is not None
        assert len(planned.answers_array()) == len(planned.answers)

    def test_baselines_conform_and_are_labeled(self):
        from repro.hypercube.baselines import (
            run_parallel_hash_join,
            run_single_server,
        )
        from repro.core.families import simple_join_query

        q = simple_join_query()
        db = matching_database(q, m=60, n=240, seed=1)
        assert run_single_server(q, db, 4).strategy == "single-server"
        assert run_parallel_hash_join(q, db, 4).strategy == "hash-join"
        assert run_broadcast_join(q, db, 4).strategy == "broadcast"
        for result in (run_single_server(q, db, 4),):
            assert isinstance(result, RunResult)


class TestSessionSemantics:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="server"):
            ClusterConfig(p=0)
        with pytest.raises(TypeError, match="backend"):
            ClusterConfig(p=4, backend="tuples")
        with pytest.raises(ValueError, match="on_overflow"):
            ClusterConfig(p=4, on_overflow="explode")
        with pytest.raises(ValueError, match="hash_method"):
            ClusterConfig(p=4, hash_method="md5")
        with pytest.raises(ValueError, match="chunk_rows"):
            ClusterConfig(p=4, chunk_rows=0)
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            ClusterConfig(p=4, memory_budget_bytes=0)

    def test_config_or_knobs_not_both(self):
        with pytest.raises(TypeError, match="not both"):
            Session(ClusterConfig(p=4), p=8)

    def test_closed_session_rejects_runs(self):
        q, db = matching_triangle_case(seed=0)
        session = Session(p=4)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.run(q, db)

    def test_owned_storage_lifecycle(self):
        q, db = matching_triangle_case(seed=1)
        with Session(p=8, memory_budget_bytes=TINY_BUDGET) as session:
            result = session.run(q, db, strategy="hypercube")
            assert session.storage is not None
            root = session.storage.root
            assert root.exists()
            # Materialize before close: outputs live in the spill dir.
            _ = result.answers
        assert session.storage is None
        assert not root.exists()

    def test_no_storage_under_generous_budget(self):
        q, db = matching_triangle_case(seed=1)
        with Session(p=8, memory_budget_bytes=2**34) as session:
            session.run(q, db, strategy="hypercube")
            assert session.storage is None

    def test_nonstreaming_winner_with_budget_not_enforced(self):
        # The engine's storage_optional contract: a non-streaming
        # winner runs in memory instead of raising.
        q, db = matching_triangle_case(seed=2)
        with Session(p=8, memory_budget_bytes=TINY_BUDGET) as session:
            mine = session.run(q, db, strategy="broadcast")
            legacy = run_broadcast_join(q, db, 8, seed=0)
            assert_identical(mine, legacy)
            assert mine.budget_outcome == "not-enforced"

    def test_unsupported_override_rejected(self):
        q, db = star_case(seed=0)
        with Session(p=8) as session:
            with pytest.raises(ValueError, match="does not accept"):
                session.run(q, db, strategy="skew-star",
                            shares={"x0": 2})

    def test_hitters_override_accepted_by_skew_strategies(self):
        from repro.planner import DataStatistics
        from repro.skew.star import star_center

        sq, sdb = star_case(seed=1)
        star_stats = DataStatistics.from_database(sq, sdb, 8)
        tq, tdb = triangle_case(seed=1)
        tri_stats = DataStatistics.from_database(tq, tdb, 8)
        with Session(p=8, seed=1) as session:
            star_pre = session.run(
                sq, sdb, strategy="skew-star",
                hitters=star_stats.hitters[star_center(sq)],
            )
            star_scan = session.run(sq, sdb, strategy="skew-star")
            assert_identical(star_pre, star_scan)
            tri_pre = session.run(
                tq, tdb, strategy="skew-triangle",
                hitters=tri_stats.hitters,
            )
            tri_scan = session.run(tq, tdb, strategy="skew-triangle")
            assert_identical(tri_pre, tri_scan)

    def test_mismatched_plan_override_rejected(self):
        # A plan built for a different query must not run silently
        # under the pinned query's name.
        from repro.multiround.plans import chain_plan

        q, db = matching_triangle_case(seed=0)
        wrong_plan = chain_plan(4, 0.0)
        with Session(p=8) as session:
            with pytest.raises(ValueError, match="plan answers"):
                session.run(q, db, strategy="multiround", plan=wrong_plan)

    def test_removed_twin_strategies_are_unknown(self):
        q, db = matching_triangle_case(seed=3)
        with Session(p=16, seed=1) as session:
            for name in ("hypercube-tuples", "multiround-numpy"):
                with pytest.raises(KeyError, match="hypercube"):
                    session.run(q, db, strategy=name)

    def test_history_and_explain(self):
        q, db = matching_triangle_case(seed=0)
        with Session(p=8, seed=0) as session:
            assert session.history == []
            session.run(q, db, strategy="hypercube", label="first")
            session.run(q, db)
            table = session.plan(q, db).table()
        assert "hypercube" in table
        assert len(session.history) == 2
        first, second = session.history
        assert first.label == "first"
        assert second.label == "run-1"
        assert first.strategy == "hypercube"
        assert first.max_load_bits > 0
        assert first.percentiles["max"] == first.max_load_bits
        summary = session.workload_summary()
        assert "first" in summary and "per-run L percentiles" in summary
        pct = session.workload_percentiles()
        assert pct["max"] >= pct["p50"] >= 0

    def test_seed_override_matches_config_seed(self):
        q, db = matching_triangle_case(seed=0)
        with Session(p=8, seed=7) as session:
            by_config = session.run(q, db, strategy="hypercube")
        with Session(p=8, seed=0) as session:
            by_override = session.run(q, db, strategy="hypercube", seed=7)
        assert_identical(by_config, by_override)
