"""``capacity_bits`` threading into the skew-aware executors.

The star and triangle algorithms enforce the same per-server per-round
cap ``L`` that ``run_hypercube`` and ``run_plan`` already support:
``fail`` aborts with :class:`LoadExceededError`, ``drop`` truncates --
and because every part (light grids, per-hitter blocks, case-1/case-2
blocks) routes in canonical sorted order, the light block's truncated
per-server prefixes are exactly those of the scalar oracle
(:func:`tests.oracle.star_light` / :func:`tests.oracle.triangle_light`).
"""

from __future__ import annotations

import pytest

from repro.core.families import star_query, triangle_query
from repro.data.generators import matching_database, zipf_database
from repro.mpc.simulator import LoadExceededError
from repro.skew.star import run_star_skew
from repro.skew.triangle import run_triangle_skew

from tests import oracle


class TestStarCapacity:
    def query_db(self, seed=0):
        q = star_query(2)
        db = zipf_database(q, m=300, n=120, skew=1.0, seed=seed)
        return q, db

    def test_uncapped_runs_unchanged(self):
        q, db = self.query_db()
        free = run_star_skew(q, db, p=8, seed=0)
        capped = run_star_skew(q, db, p=8, seed=0, capacity_bits=10**9)
        assert capped.answers == free.answers
        assert capped.report.total_bits == free.report.total_bits
        assert capped.report.dropped_bits == 0

    def test_fail_mode_raises(self):
        q, db = self.query_db(seed=1)
        with pytest.raises(LoadExceededError):
            run_star_skew(q, db, p=8, seed=0, capacity_bits=60.0)

    def test_rejects_bad_mode(self):
        q, db = self.query_db(seed=2)
        with pytest.raises(ValueError, match="on_overflow"):
            run_star_skew(q, db, p=8, on_overflow="explode")

    @pytest.mark.parametrize("capacity", [400.0, 1500.0])
    def test_truncation_identical_across_backends(self, capacity):
        # The multiround test_capacity pattern: a binding cap drops
        # the tuples the model drops on the light servers -- same
        # per-server bits, tuples and dropped bits.
        q, db = self.query_db(seed=3)
        knobs = {"seed": 1, "capacity_bits": capacity, "on_overflow": "drop"}
        result = run_star_skew(q, db, p=8, **knobs)
        model = oracle.star_light(q, db, 8, **knobs)
        assert result.report.dropped_bits > 0
        oracle.assert_report_matches(result.report, model, servers=8)

    def test_dropped_tuples_shrink_answers(self):
        q, db = self.query_db(seed=4)
        free = run_star_skew(q, db, p=8, seed=0)
        capacity = 0.5 * free.report.max_load_bits
        capped = run_star_skew(
            q, db, p=8, seed=0, capacity_bits=capacity, on_overflow="drop"
        )
        assert capped.report.dropped_bits > 0
        assert capped.answers.issubset(free.answers)


class TestTriangleCapacity:
    def db(self, seed=0):
        return zipf_database(
            triangle_query(), m=250, n=60, skew=1.1, seed=seed
        )

    def test_uncapped_runs_unchanged(self):
        db = self.db()
        free = run_triangle_skew(db, p=8, seed=0)
        capped = run_triangle_skew(db, p=8, seed=0, capacity_bits=10**9)
        assert capped.answers == free.answers
        assert capped.report.total_bits == free.report.total_bits
        assert capped.report.dropped_bits == 0

    def test_fail_mode_raises(self):
        db = self.db(seed=1)
        with pytest.raises(LoadExceededError):
            run_triangle_skew(db, p=8, seed=0, capacity_bits=60.0)

    def test_rejects_bad_mode(self):
        db = self.db(seed=2)
        with pytest.raises(ValueError, match="on_overflow"):
            run_triangle_skew(db, p=8, on_overflow="explode")

    @pytest.mark.parametrize("capacity", [600.0, 2500.0])
    def test_truncation_identical_across_backends(self, capacity):
        db = self.db(seed=3)
        knobs = {"seed": 1, "capacity_bits": capacity, "on_overflow": "drop"}
        result = run_triangle_skew(db, p=8, **knobs)
        model = oracle.triangle_light(triangle_query(), db, 8, **knobs)
        assert result.report.dropped_bits > 0
        oracle.assert_report_matches(result.report, model, servers=8)

    def test_matching_data_uncapped_equals_capped_loosely(self):
        # A skew-free instance under a generous cap must not truncate.
        db = matching_database(triangle_query(), m=120, n=480, seed=5)
        free = run_triangle_skew(db, p=8, seed=0)
        capped = run_triangle_skew(
            db, p=8, seed=0,
            capacity_bits=free.report.max_load_bits + 1.0,
            on_overflow="drop",
        )
        assert capped.report.dropped_bits == 0
        assert capped.answers == free.answers
