"""Layer spans recorded from outside the program.

The benchmark times each layer by wrapping that layer's public functions
at every module attribute or class that binds them, for the duration of
one traced op, and restoring the originals afterwards.  ``src/`` is not
modified: a span is opened around each call into a layer, and every
span records its parent span and the op it belongs to.

A layer's *self time* is the time its spans cover minus the time their
direct child spans cover, so the self times of all layers plus the op's
own uncovered time (``session.self_s``) add up to the op's wall time.

Spans are recorded only on the thread that opened the op.  Calls from
other threads run unwrapped; the benchmark's workloads run every layer
on the main thread, except ``zipf-batch``, whose jobs run in worker
processes and are seen as ``pool`` spans.

Spans are kept in flat columns of numbers and strings rather than one
object each: a traced op records up to ~10^5 spans, and that many
container objects would make the garbage collector, not the program,
the dominant tracing overhead.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

#: Module-level layer functions, wrapped at every ``repro.*`` module
#: attribute that binds them: ``(layer, defining module, name)``.  The
#: row-ordering helpers are imported by name into seven modules, and
#: the routing/join entry points into each executor.
FUNCTIONS = (
    ("arrays", "repro.data.arrays", "unique_rows"),
    ("arrays", "repro.data.arrays", "unique_rows_with_counts"),
    ("arrays", "repro.data.arrays", "encode_rows"),
    ("route", "repro.hypercube.algorithm", "route_relation_arrays"),
    ("route", "repro.parallel.tasks", "route_over_pool"),
    ("join", "repro.hypercube.algorithm", "local_join_fragments"),
    ("join", "repro.join.vectorized", "join_arrays"),
    ("join", "repro.parallel.tasks", "join_over_pool"),
    ("planner.rank", "repro.planner.optimizer", "plan"),
)

#: Methods wrapped once on their class: ``(layer, module, class, name)``.
METHODS = (
    ("planner.statistics", "repro.planner.statistics", "DataStatistics",
     "from_database"),
    ("planner.statistics", "repro.planner.statistics", "DataStatistics",
     "from_sample"),
    ("hashing", "repro.hashing.family", "HashFunction", "hash_array"),
    ("mpc", "repro.mpc.simulator", "MPCSimulation", "send_array"),
    ("storage.write", "repro.storage.chunked", "ChunkedRelation", "append"),
    ("storage.read", "repro.storage.chunked", "ChunkedRelation", "chunks"),
    ("storage.read", "repro.storage.chunked", "ChunkedRelation",
     "chunk_handles"),
    ("storage.read", "repro.storage.chunked", "ChunkedRelation", "to_array"),
    ("storage.read", "repro.parallel.tasks", "ArraySource", "load"),
    ("pool", "repro.parallel.pool", "ProcessPool", "imap"),
)

#: Wrapped callables that return a generator; each step is one span.
LAZY = ("chunks", "imap")


class LayerTracer:
    """Wraps the layer functions and collects spans in memory.

    ``delays`` maps a wrapped function's name to seconds slept inside
    its span on every call -- the attribution self-test injects a known
    cost into one layer and checks that only that layer's self time
    grows by it.
    """

    def __init__(self, delays: dict[str, float] | None = None):
        self.delays = dict(delays or {})
        # Span i is meta[i] = (layer, name, op, parent) with parent -1
        # for an op's root span, start[i] and end[i]; child_s and counts
        # hold entries only for spans that have them.
        self.meta: list[tuple[str, str, int, int]] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.child_s: dict[int, float] = {}
        self.counts: dict[int, tuple] = {}
        self._stack: list[int] = []
        self._current_op: int | None = None
        self._thread: int | None = None
        self._restore: list[tuple[object, str, object, bool]] = []

    @property
    def size(self) -> int:
        """Spans recorded so far."""
        return len(self.start)

    # ---------------------------------------------------------- spans

    def _open(self, layer: str, name: str) -> int:
        index = len(self.start)
        stack = self._stack
        self.meta.append(
            (layer, name, self._current_op, stack[-1] if stack else -1)
        )
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        end = self.end[index] = time.perf_counter()
        self._stack.pop()
        parent = self.meta[index][3]
        if parent >= 0:
            child_s = self.child_s
            child_s[parent] = (
                child_s.get(parent, 0.0) + end - self.start[index]
            )

    def begin_op(self, op: int) -> int:
        """Open the root span of op ``op``; returns its index."""
        self._current_op = op
        self._thread = threading.get_ident()
        return self._open("op", "op")

    def end_op(self, index: int) -> None:
        self._close(index)
        self._current_op = None

    def _tracing(self) -> bool:
        return (
            self._current_op is not None
            and threading.get_ident() == self._thread
        )

    # -------------------------------------------------------- wrapping

    def _wrap(self, layer, name, fn):
        """A wrapper that runs ``fn`` inside a span while an op is open."""
        if name in LAZY:
            return self._wrap_steps(layer, name, fn)
        if name == "route_relation_arrays":
            # A generator whose one caller drains it at once: drain it
            # inside the span so the span covers the routing work.
            return self._wrap_call(layer, name, _drained(fn))
        return self._wrap_call(layer, name, fn)

    def _wrap_call(self, layer, name, fn):
        count = COUNTS.get(name)
        skip = SKIP.get(name)
        delay = self.delays.get(name)
        tracing, span_open, span_close = self._tracing, self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracing() or (skip is not None and skip(args)):
                return fn(*args, **kwargs)
            index = span_open(layer, name)
            try:
                result = fn(*args, **kwargs)
                if delay:
                    time.sleep(delay)
            finally:
                span_close(index)
            if count is not None:
                self.counts[index] = count(args, kwargs, result)
            return result

        return wrapper

    def _wrap_steps(self, layer, name, fn):
        """Each step of the returned generator is one span; the body of
        a method that returns a generator runs in the first step."""
        first = self._wrap_call(layer, name, _first_step)
        step = self._wrap_call(layer, name, next)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            done = object()
            iterator, item = first(fn, args, kwargs, done)
            while item is not done:
                yield item
                item = step(iterator, done)

        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        owned = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), owned))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer binding; :meth:`uninstall` restores them."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer, module, name in FUNCTIONS:
            original = getattr(sys.modules[module], name)
            wrapper = self._wrap(layer, name, original)
            for owner in _modules_binding(original):
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, attr, wrapper)
        for layer, module, cls_name, name in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            raw = vars(cls).get(name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, name, raw.__func__))
            else:
                wrapped = self._wrap(layer, name, getattr(cls, name))
            self._patch(cls, name, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped binding, newest first."""
        while self._restore:
            owner, attr, original, owned = self._restore.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # --------------------------------------------------------- output

    def self_s(self, index: int) -> float:
        return (
            self.end[index] - self.start[index]
            - self.child_s.get(index, 0.0)
        )

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (layer, name, op, parent) in enumerate(self.meta):
                handle.write(json.dumps({
                    "id": i,
                    "op": op,
                    "parent": parent if parent >= 0 else None,
                    "layer": layer,
                    "name": name,
                    "start": self.start[i],
                    "end": self.end[i],
                    "self_s": self.self_s(i),
                    "counts": dict(_pairs(self.counts.get(i))),
                }) + "\n")

    def summary(self) -> dict:
        """Per-layer self seconds and summed counters over all ops.

        The op root spans' self time is reported as layer ``session``.
        """
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        op_s = 0.0
        for i, (layer, *_) in enumerate(self.meta):
            if layer == "op":
                op_s += self.end[i] - self.start[i]
                layer = "session"
            self_s[layer] += self.self_s(i)
        for pairs in self.counts.values():
            for key, value in _pairs(pairs):
                counts[key] += value
        return {"op_s": op_s, "self_s": dict(self_s), "counts": dict(counts)}

    def inclusive_s(self, name: str) -> float:
        """Seconds inside spans of the (never self-nesting) ``name``."""
        return sum(
            self.end[i] - self.start[i]
            for i, meta in enumerate(self.meta)
            if meta[1] == name
        )


def _drained(generator_function):
    @functools.wraps(generator_function)
    def drained(*args, **kwargs):
        return list(generator_function(*args, **kwargs))

    return drained


def _first_step(fn, args, kwargs, done):
    """Call ``fn`` and take the first item: ``(iterator, item)``."""
    iterator = iter(fn(*args, **kwargs))
    return iterator, next(iterator, done)


def _modules_binding(original):
    """Every loaded ``repro`` module that binds ``original``."""
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and any(
            value is original for value in vars(module).values()
        ):
            yield module


def _pairs(counts):
    return zip(counts[::2], counts[1::2]) if counts else ()


# ------------------------------------------------------------- counters
#
# Each returns a flat ``(key, value, key, value, ...)`` tuple.


def _count_statistics(args, kwargs, result):
    return ("planner.statistics_calls", 1)


def _count_rows_sorted(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    return ("arrays.rows_sorted", len(rows))


def _count_hashed(args, kwargs, result):
    values = args[1] if len(args) > 1 else kwargs["values"]
    return ("hashing.values_hashed", len(values))


def _count_route(args, kwargs, result):
    rows = args[3] if len(args) > 3 else kwargs["rows"]
    return (
        "route.rows_in", len(rows),
        "route.rows_out", sum(len(batch) for _, batch in result),
    )


def _count_local_join(args, kwargs, result):
    fragments = args[1] if len(args) > 1 else kwargs["fragments"]
    return (
        "join.rows_in", sum(len(rows) for rows in fragments.values()),
        "join.rows_out", len(result),
    )


def _count_join_arrays(args, kwargs, result):
    return ("join.intermediate_rows", len(result[0]))


def _count_send(args, kwargs, result):
    # Every accepted row costs bits_per_tuple; the benchmark's workloads
    # set no capacity cap, so every row of a batch is accepted.
    sim = args[0]
    rows = args[3] if len(args) > 3 else kwargs["rows"]
    bits_per_tuple = args[4] if len(args) > 4 else kwargs.get("bits_per_tuple")
    if bits_per_tuple is None:
        bits_per_tuple = (rows.shape[1] if len(rows) else 0) * sim.value_bits
    return (
        "mpc.batches", 1,
        "mpc.bits_delivered", len(rows) * float(bits_per_tuple),
    )


#: Counters recorded at the span of each wrapped function.
COUNTS = {
    "from_database": _count_statistics,
    "from_sample": _count_statistics,
    "unique_rows": _count_rows_sorted,
    "unique_rows_with_counts": _count_rows_sorted,
    "encode_rows": _count_rows_sorted,
    "hash_array": _count_hashed,
    "route_relation_arrays": _count_route,
    "local_join_fragments": _count_local_join,
    "join_arrays": _count_join_arrays,
    "send_array": _count_send,
}

#: Calls that run unwrapped: an in-memory ``ArraySource`` reads no
#: storage.
SKIP = {
    "load": lambda args: args[0].path is None,
}
