"""System-wide execution defaults and the per-run settings object.

The package has one execution engine: columnar routing of whole
relations as arrays, array payloads in the simulator and vectorized
local joins.  What a run can still choose -- the worker pool, the
machine model, the capacity cap and its overflow policy, the routing
PRF and the streaming granularity -- is collected in
:class:`ExecutionSettings` and resolved in one place
(:meth:`ExecutionSettings.resolve`).  The pool and machine defaults are
system-wide switches (:func:`set_default_pool` / :func:`use_pool`,
:func:`set_default_machines` / :func:`use_machines`), seeded from the
``REPRO_DEFAULT_POOL`` / ``REPRO_DEFAULT_MACHINES`` environment
variables.

Generators keep two streams (``"python"`` / ``"numpy"``), which draw
different -- equally distributed -- instances for the same seed.  They
default to the vectorized ``"numpy"`` stream
(:data:`DEFAULT_GENERATOR_BACKEND`) and take an explicit ``backend=``
per call (:func:`resolve_generator_backend`).

This module is a leaf: it imports nothing from :mod:`repro`, so any
submodule may consult it without import cycles.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Literal

GeneratorBackend = Literal["python", "numpy"]
PoolKind = Literal["serial", "thread", "process"]

#: The generator-stream default: vectorized draws.
DEFAULT_GENERATOR_BACKEND: GeneratorBackend = "numpy"

_GENERATOR_BACKENDS = ("python", "numpy")

_POOL_KINDS = ("serial", "thread", "process")

#: The worker-pool default when neither a run nor the environment picks
#: one: the engines stay serial (zero overhead, the historical
#: behavior); callers opt into thread/process fan-out per run, per
#: session, or system-wide (``REPRO_DEFAULT_POOL``).
DEFAULT_POOL: PoolKind = "serial"


def _pool_from_env() -> PoolKind:
    value = os.environ.get("REPRO_DEFAULT_POOL")
    if value is None:
        return DEFAULT_POOL
    if value not in _POOL_KINDS:
        raise ValueError(
            f"REPRO_DEFAULT_POOL={value!r} is not one of {_POOL_KINDS}"
        )
    return value  # type: ignore[return-value]


_default_pool: PoolKind = _pool_from_env()


def default_pool() -> PoolKind:
    """The currently active system-wide worker-pool kind."""
    return _default_pool


def set_default_pool(pool: str) -> PoolKind:
    """Set the system-wide default pool kind; returns the previous one.

    Affects every executor and :meth:`repro.session.Session.run_many`
    batch running with ``pool=None``.  The environment variable
    ``REPRO_DEFAULT_POOL`` seeds this default at import time (the knob
    CI uses to run the whole suite through the process pool).
    """
    global _default_pool
    if pool not in _POOL_KINDS:
        raise ValueError(
            f"unknown pool kind {pool!r} (expected one of {_POOL_KINDS})"
        )
    previous = _default_pool
    _default_pool = pool  # type: ignore[assignment]
    return previous


@contextmanager
def use_pool(pool: str) -> Iterator[PoolKind]:
    """Temporarily override the system-wide default pool kind.

    The exception-safe scoped form of :func:`set_default_pool`.
    """
    previous = set_default_pool(pool)
    try:
        yield _default_pool
    finally:
        set_default_pool(previous)


def resolve_pool(pool: str | None) -> PoolKind:
    """An explicit pool kind, or the system-wide default."""
    if pool is None:
        return _default_pool
    if pool not in _POOL_KINDS:
        raise ValueError(
            f"unknown pool kind {pool!r} (expected one of {_POOL_KINDS})"
        )
    return pool  # type: ignore[return-value]


@dataclass(frozen=True)
class MachineSpec:
    """Per-server relative speeds (and optional capacities) of a cluster.

    The paper's MPC model assumes ``p`` identical servers; real clusters
    mix machine generations.  A :class:`MachineSpec` describes one
    heterogeneous cluster: ``speeds[s]`` is server ``s``'s relative
    processing speed (any positive unit -- only ratios matter), and
    ``capacities[s]``, when given, is that server's own per-round
    receive cap in bits (tightening any global ``capacity_bits``).

    The uniform spec (:meth:`uniform`, or ``machines=None`` everywhere)
    is the degenerate default and is bit-identical to the homogeneous
    code paths: equal speeds route through the unweighted ``% buckets``
    hash and absent capacities leave the global cap comparisons
    untouched.

    Skew executors allocate *block* servers beyond ``p`` (the star
    algorithm's heavy blocks, the triangle algorithm's case-1/case-2
    grids); those logical servers live on the same physical machines,
    so :meth:`speed` and :meth:`capacity` extend modularly
    (``speeds[s % p]``).
    """

    speeds: tuple[float, ...]
    capacities: tuple[float | None, ...] | None = None

    def __post_init__(self) -> None:
        if not self.speeds:
            raise ValueError("MachineSpec needs at least one server")
        object.__setattr__(self, "speeds", tuple(float(v) for v in self.speeds))
        for v in self.speeds:
            if not (v > 0.0) or v != v or v == float("inf"):
                raise ValueError(f"machine speeds must be positive finite, got {v!r}")
        if self.capacities is not None:
            caps = tuple(
                None if c is None else float(c) for c in self.capacities
            )
            object.__setattr__(self, "capacities", caps)
            if len(caps) != len(self.speeds):
                raise ValueError(
                    f"capacities has {len(caps)} entries for "
                    f"{len(self.speeds)} servers"
                )
            for c in caps:
                if c is not None and c <= 0.0:
                    raise ValueError("machine capacities must be positive")

    @classmethod
    def uniform(cls, p: int, speed: float = 1.0) -> "MachineSpec":
        """The degenerate homogeneous cluster: ``p`` servers at ``speed``."""
        if p < 1:
            raise ValueError("p must be >= 1")
        return cls(speeds=(float(speed),) * p)

    @classmethod
    def parse(cls, text: str) -> "MachineSpec":
        """Parse a CLI spec like ``"4x1,4x2"`` (four 1x plus four 2x).

        Groups separated by ``,`` or ``+``; each group is
        ``COUNTxSPEED`` or a bare ``SPEED`` (count 1).  The inverse of
        :meth:`describe`, whose ``"4x1+4x2"`` form parses back exactly.
        """
        speeds: list[float] = []
        for group in text.replace("+", ",").split(","):
            group = group.strip()
            if not group:
                raise ValueError(f"empty group in machine spec {text!r}")
            if "x" in group:
                count_text, _, speed_text = group.partition("x")
                try:
                    count = int(count_text)
                    speed = float(speed_text)
                except ValueError:
                    raise ValueError(
                        f"bad machine group {group!r} (expected COUNTxSPEED)"
                    ) from None
                if count < 1:
                    raise ValueError(f"machine group {group!r} has count < 1")
            else:
                count, speed = 1, float(group)
            speeds.extend([speed] * count)
        return cls(speeds=tuple(speeds))

    def cycle_to(self, p: int) -> "MachineSpec":
        """This spec's speed pattern repeated/truncated to ``p`` servers.

        How the ``REPRO_DEFAULT_MACHINES`` pattern (e.g. ``"1,4"``)
        applies to runs of any ``p``: server ``s`` gets the pattern's
        ``s % len`` entry.
        """
        if p < 1:
            raise ValueError("p must be >= 1")
        n = len(self.speeds)
        speeds = tuple(self.speeds[s % n] for s in range(p))
        caps = None
        if self.capacities is not None:
            caps = tuple(self.capacities[s % n] for s in range(p))
        return MachineSpec(speeds=speeds, capacities=caps)

    @property
    def p(self) -> int:
        return len(self.speeds)

    @property
    def is_uniform(self) -> bool:
        """All speeds equal: routing degenerates to the unweighted hash."""
        return min(self.speeds) == max(self.speeds)

    @property
    def total_speed(self) -> float:
        return sum(self.speeds)

    @property
    def min_speed(self) -> float:
        return min(self.speeds)

    @property
    def max_speed(self) -> float:
        return max(self.speeds)

    def speed(self, server: int) -> float:
        """Server ``server``'s speed, extended modularly past ``p``."""
        return self.speeds[server % len(self.speeds)]

    def capacity(self, server: int) -> float | None:
        """Server ``server``'s own capacity cap (None: no per-machine cap)."""
        if self.capacities is None:
            return None
        return self.capacities[server % len(self.speeds)]

    def weights(self, count: int | None = None) -> tuple[float, ...]:
        """Speed-proportional routing weights over ``count`` servers.

        Normalized to sum 1; servers beyond ``p`` take the modular
        extension's speed.
        """
        if count is None:
            count = len(self.speeds)
        raw = [self.speed(s) for s in range(count)]
        total = sum(raw)
        return tuple(v / total for v in raw)

    def speed_classes(self) -> dict[float, tuple[int, ...]]:
        """Speed value -> the servers running at it (ascending speeds)."""
        classes: dict[float, list[int]] = {}
        for s, v in enumerate(self.speeds):
            classes.setdefault(v, []).append(s)
        return {v: tuple(classes[v]) for v in sorted(classes)}

    def describe(self) -> str:
        """The compact run-length form, e.g. ``"4x1+4x2"``."""

        def fmt(v: float) -> str:
            return f"{v:g}"

        groups: list[tuple[float, int]] = []
        for v in self.speeds:
            if groups and groups[-1][0] == v:
                groups[-1] = (v, groups[-1][1] + 1)
            else:
                groups.append((v, 1))
        return "+".join(
            fmt(v) if n == 1 else f"{n}x{fmt(v)}" for v, n in groups
        )


#: The machines default when neither a run nor the environment supplies
#: one: ``None`` -- the homogeneous cluster, exactly the historical
#: behavior.
_default_machines: "MachineSpec | None" = None


def _machines_from_env() -> "MachineSpec | None":
    value = os.environ.get("REPRO_DEFAULT_MACHINES")
    if value is None:
        return None
    return MachineSpec.parse(value)


_default_machines = _machines_from_env()


def default_machines() -> "MachineSpec | None":
    """The system-wide default machine *pattern* (None: homogeneous)."""
    return _default_machines


def set_default_machines(machines: "MachineSpec | str | None") -> "MachineSpec | None":
    """Set the system-wide machine pattern; returns the previous one.

    The pattern is cycled to each run's ``p``
    (:meth:`MachineSpec.cycle_to`), so ``"1,4"`` alternates slow/fast
    servers at any cluster size.  The environment variable
    ``REPRO_DEFAULT_MACHINES`` seeds this default at import time (the
    knob CI uses to rerun whole suites on a heterogeneous cluster).
    """
    global _default_machines
    if isinstance(machines, str):
        machines = MachineSpec.parse(machines)
    if machines is not None and not isinstance(machines, MachineSpec):
        raise TypeError(f"expected MachineSpec, spec string or None, got {machines!r}")
    previous = _default_machines
    _default_machines = machines
    return previous


@contextmanager
def use_machines(machines: "MachineSpec | str | None") -> Iterator["MachineSpec | None"]:
    """Temporarily override the system-wide machine pattern.

    The exception-safe scoped form of :func:`set_default_machines`,
    exactly like :func:`use_pool` for the worker pool.
    """
    previous = set_default_machines(machines)
    try:
        yield _default_machines
    finally:
        set_default_machines(previous)


def resolve_machines(
    machines: "MachineSpec | None", p: int | None
) -> "MachineSpec | None":
    """An explicit spec, or the system-wide pattern cycled to ``p``.

    An explicit spec must match ``p`` exactly when ``p`` is known; the
    default *pattern* adapts to any ``p``.  Returns None for the
    homogeneous cluster.
    """
    if machines is not None:
        if p is not None and machines.p != p:
            raise ValueError(
                f"MachineSpec describes {machines.p} servers but p={p}"
            )
        return machines
    if _default_machines is not None and p is not None:
        return _default_machines.cycle_to(p)
    return _default_machines


_HASH_METHODS = ("splitmix64", "blake2b")
_OVERFLOW_MODES = ("fail", "drop")


@dataclass(frozen=True)
class ExecutionSettings:
    """The per-run execution knobs every executor shares.

    One value object carries the settings that used to be copy-pasted
    (and to drift) across every executor signature: the per-server
    per-round capacity cap and its overflow policy, the routing PRF,
    the streaming granularity, the worker pool and the machine model.
    :meth:`resolve` is the single place their defaults are decided;
    the executor cores receive an already-resolved instance and never
    re-derive it.
    """

    capacity_bits: float | None = None
    on_overflow: Literal["fail", "drop"] = "fail"
    hash_method: str = "splitmix64"
    chunk_rows: int | None = None
    pool: PoolKind | None = None
    max_workers: int | None = None
    machines: MachineSpec | None = None

    def __post_init__(self) -> None:
        if self.machines is not None and not isinstance(self.machines, MachineSpec):
            raise TypeError(
                f"machines must be a MachineSpec or None, got {self.machines!r}"
            )
        if self.on_overflow not in _OVERFLOW_MODES:
            raise ValueError("on_overflow must be 'fail' or 'drop'")
        if self.hash_method not in _HASH_METHODS:
            raise ValueError(
                f"unknown hash_method {self.hash_method!r} "
                f"(expected one of {_HASH_METHODS})"
            )
        if self.chunk_rows is not None and self.chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        if self.pool is not None and self.pool not in _POOL_KINDS:
            raise ValueError(
                f"unknown pool kind {self.pool!r} "
                f"(expected one of {_POOL_KINDS})"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")

    def resolve(
        self, storage: object | None = None, p: int | None = None
    ) -> "ExecutionSettings":
        """A copy with chunk granularity, pool and machines pinned.

        An attached storage manager supplies its own ``chunk_rows``
        when the caller gave none.  ``pool=None`` resolves to the
        system-wide default (:func:`default_pool`).  ``machines=None``
        resolves to the system-wide pattern cycled to ``p``
        (:func:`resolve_machines`); an explicit spec must match ``p``.
        This is the one shared resolution step behind
        ``run_hypercube``/``run_star_skew``/``run_triangle_skew``/
        ``run_plan`` and :meth:`repro.session.Session.run`.
        """
        chunk_rows = self.chunk_rows
        if chunk_rows is None and storage is not None:
            chunk_rows = storage.chunk_rows  # type: ignore[attr-defined]
        return replace(
            self,
            chunk_rows=chunk_rows,
            pool=resolve_pool(self.pool),
            machines=resolve_machines(self.machines, p),
        )


def resolve_generator_backend(backend: str | None) -> GeneratorBackend:
    """An explicit generator stream, or :data:`DEFAULT_GENERATOR_BACKEND`."""
    if backend is None:
        return DEFAULT_GENERATOR_BACKEND
    if backend not in _GENERATOR_BACKENDS:
        raise ValueError(
            f"unknown generator backend {backend!r} "
            f"(expected one of {_GENERATOR_BACKENDS})"
        )
    return backend  # type: ignore[return-value]
