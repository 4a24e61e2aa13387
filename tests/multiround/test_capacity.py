"""``capacity_bits`` threading into ``run_plan`` (per-round cap L).

The multi-round executor enforces the same per-server per-round
capacity that ``run_hypercube`` already supports: ``fail`` aborts with
:class:`LoadExceededError`, ``drop`` truncates -- and because each
relation and view is routed in canonical row order, the truncated
per-server prefixes (and therefore all downstream rounds and the final
answers) are exactly those of the scalar oracle
(:func:`tests.oracle.plan`).
"""

from __future__ import annotations

import pytest

from repro.data.generators import matching_database, zipf_database
from repro.mpc.simulator import LoadExceededError
from repro.multiround.executor import run_plan
from repro.multiround.plans import chain_plan

from tests import oracle


class TestCapacityThreading:
    def test_uncapped_runs_unchanged(self):
        plan = chain_plan(4, 0.0)
        db = matching_database(plan.query, m=60, n=60, seed=0)
        free = run_plan(plan, db, p=8, seed=0)
        capped = run_plan(plan, db, p=8, seed=0, capacity_bits=10**9)
        assert capped.answers == free.answers
        assert capped.report.total_bits == free.report.total_bits
        assert capped.report.dropped_bits == 0

    def test_fail_mode_raises(self):
        plan = chain_plan(4, 0.0)
        db = matching_database(plan.query, m=80, n=80, seed=1)
        with pytest.raises(LoadExceededError):
            run_plan(plan, db, p=8, seed=0, capacity_bits=50.0)
        with pytest.raises(oracle.OracleOverflow):
            oracle.plan(plan, db, p=8, seed=0, capacity_bits=50.0)

    def test_rejects_bad_mode(self):
        plan = chain_plan(4, 0.0)
        db = matching_database(plan.query, m=10, n=10, seed=2)
        with pytest.raises(ValueError, match="on_overflow"):
            run_plan(plan, db, p=8, on_overflow="explode")

    @pytest.mark.parametrize("capacity", [800.0, 2000.0])
    def test_overcapacity_rounds_truncate_identically(self, capacity):
        # An over-capacity round truncates exactly the tuples the
        # model truncates -- same per-round per-server bits, same
        # dropped bits, same final answers.
        plan = chain_plan(4, 0.0)
        db = zipf_database(plan.query, m=150, n=60, skew=1.0, seed=5)
        knobs = {"seed": 2, "capacity_bits": capacity, "on_overflow": "drop"}
        result = run_plan(plan, db, p=8, **knobs)
        model = oracle.plan(plan, db, 8, **knobs)
        assert model.dropped_bits > 0
        oracle.assert_report_matches(result.report, model)
        assert result.answers == model.answers

    def test_drop_in_round_one_shrinks_later_views(self):
        # Dropped base tuples must propagate: the capped run's later
        # rounds ship no more than the uncapped run's.
        plan = chain_plan(4, 0.0)
        db = matching_database(plan.query, m=100, n=100, seed=3)
        free = run_plan(plan, db, p=8, seed=1)
        capacity = 0.6 * free.report.rounds[0].max_bits
        capped = run_plan(
            plan, db, p=8, seed=1, capacity_bits=capacity, on_overflow="drop"
        )
        assert capped.report.dropped_bits > 0
        assert capped.report.total_bits < free.report.total_bits
        assert capped.answers.issubset(free.answers)

    def test_capacity_is_per_round_not_cumulative(self):
        # A cap binding in no single round must not fire even though
        # the summed traffic across rounds exceeds it.
        plan = chain_plan(4, 0.0)
        db = matching_database(plan.query, m=40, n=40, seed=4)
        free = run_plan(plan, db, p=8, seed=0)
        per_round_max = max(r.max_bits for r in free.report.rounds)
        assert free.report.total_bits > per_round_max
        capped = run_plan(
            plan, db, p=8, seed=0, capacity_bits=per_round_max + 1.0
        )
        assert capped.answers == free.answers
        assert capped.report.dropped_bits == 0
