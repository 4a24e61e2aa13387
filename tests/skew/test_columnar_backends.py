"""The skew-aware executors' columnar light-part routing.

The contract mirrors the HyperCube suite: the light block (servers
``[0, p)``) receives exactly the per-server bits and tuples of the
scalar oracle, and answers equal the sequential evaluator's, on
skew-free, zipf and planted-hitter inputs.
"""

from __future__ import annotations

import pytest

from repro.core.families import star_query, triangle_query
from repro.data.generators import (
    matching_database,
    planted_heavy_hitter_database,
    zipf_database,
)
from repro.join.multiway import evaluate
from repro.skew.star import run_star_skew
from repro.skew.triangle import run_triangle_skew

from tests import oracle


class TestStarBackends:
    @pytest.mark.parametrize(
        "k,m,n,skew,seed",
        [
            (2, 600, 3000, 0.6, 0),
            (2, 600, 3000, 1.1, 1),
            (3, 300, 1500, 0.8, 2),
        ],
    )
    def test_zipf_bit_identical(self, k, m, n, skew, seed):
        q = star_query(k)
        db = zipf_database(q, m=m, n=n, skew=skew, seed=seed)
        result = run_star_skew(q, db, 16, seed=7)
        model = oracle.star_light(q, db, 16, seed=7)
        oracle.assert_report_matches(result.report, model, servers=16)
        assert result.answers == evaluate(q, db)

    def test_matching_bit_identical(self):
        q = star_query(2)
        db = matching_database(q, m=500, n=4096, seed=3)
        result = run_star_skew(q, db, 8, seed=0)
        model = oracle.star_light(q, db, 8, seed=0)
        oracle.assert_report_matches(result.report, model, servers=8)
        assert result.answers == model.answers == evaluate(q, db)

    def test_planted_hitter_bit_identical(self):
        q = star_query(2)
        db = planted_heavy_hitter_database(
            q, m=800, n=4096, variable="z", hitter_fraction=0.4, seed=5
        )
        result = run_star_skew(q, db, 16, seed=1)
        model = oracle.star_light(q, db, 16, seed=1)
        oracle.assert_report_matches(result.report, model, servers=16)
        assert result.answers == evaluate(q, db)

    def test_rejects_unknown_backend(self):
        # The engine has no backend option left to pass.
        q = star_query(2)
        db = matching_database(q, m=50, n=256, seed=0)
        with pytest.raises(TypeError, match="backend"):
            run_star_skew(q, db, 4, backend="numpy")


class TestTriangleBackends:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda q: zipf_database(q, m=600, n=600, skew=0.8, seed=3),
            lambda q: planted_heavy_hitter_database(
                q, m=500, n=5000, variable="x1", hitter_fraction=0.3, seed=4
            ),
            lambda q: matching_database(q, m=500, n=2000, seed=5),
        ],
        ids=["zipf", "planted", "matching"],
    )
    def test_bit_identical(self, maker):
        q = triangle_query()
        db = maker(q)
        result = run_triangle_skew(db, 8, seed=2)
        model = oracle.triangle_light(q, db, 8, seed=2)
        oracle.assert_report_matches(result.report, model, servers=8)
        assert result.answers == evaluate(q, db)

    def test_rejects_unknown_backend(self):
        # The engine has no backend option left to pass.
        q = triangle_query()
        db = matching_database(q, m=50, n=256, seed=0)
        with pytest.raises(TypeError, match="backend"):
            run_triangle_skew(db, 4, backend="numpy")
