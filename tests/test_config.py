"""``repro.config``: the generator-stream switch and the one engine.

The execution engine is not switchable: there is no backend default to
set and no ``backend=`` knob on any executor or settings object.
Generators keep their two streams, chosen per call.
"""

from __future__ import annotations

import pytest

import repro
from repro.config import (
    DEFAULT_GENERATOR_BACKEND,
    ExecutionSettings,
    resolve_generator_backend,
    use_pool,
)
from repro.core.families import triangle_query
from repro.data.generators import matching_database
from repro.hypercube.algorithm import run_hypercube
from repro.multiround.executor import run_plan
from repro.multiround.plans import generic_plan
from repro.session import ClusterConfig


class TestSwitch:
    def test_ships_with_numpy_default(self):
        assert DEFAULT_GENERATOR_BACKEND == "numpy"
        assert resolve_generator_backend(None) == "numpy"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown generator backend"):
            resolve_generator_backend("tuples")

    def test_resolution(self):
        assert resolve_generator_backend(None) == "numpy"
        assert resolve_generator_backend("python") == "python"
        assert resolve_generator_backend("numpy") == "numpy"

    def test_generators_invariant_under_execution_switch(self):
        # Switching how runs execute must never change the data a
        # seed produces.
        q = triangle_query()
        a = matching_database(q, m=20, n=100, seed=7)
        with use_pool("thread"):
            b = matching_database(q, m=20, n=100, seed=7)
        assert all(a[r] == b[r] for r in q.relation_names)

    def test_exported_at_package_level(self):
        assert repro.use_pool is use_pool
        for name in ("default_backend", "set_default_backend", "use_backend"):
            assert not hasattr(repro, name)
            assert name not in repro.__all__


class TestNoBackendKnob:
    def test_executors_reject_backend(self):
        q = triangle_query()
        db = matching_database(q, m=20, n=100, seed=0)
        with pytest.raises(TypeError, match="backend"):
            run_hypercube(q, db, 4, backend="numpy")
        with pytest.raises(TypeError, match="backend"):
            run_plan(generic_plan(q), db, 4, backend="numpy")

    def test_settings_reject_backend(self):
        with pytest.raises(TypeError, match="backend"):
            ExecutionSettings(backend="numpy")
        with pytest.raises(TypeError, match="backend"):
            ClusterConfig(p=4, backend="tuples")
