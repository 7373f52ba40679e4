"""Span tracing of the program from the benchmark's own files.

The program under test has no tracing of its own. For a traced run the
benchmark replaces the public entry point of each ``src/repro`` layer
with a wrapper that records a span (name, start, end, parent span,
operation id) and restores the original afterwards, so untraced runs
execute unmodified code.

A wrapper has to sit on the name the caller looks up: ``parse`` and
``bind`` are called through ``repro.systems.sql_over_nosql`` (which
imported them by name), ``execute_node`` through
``repro.parallel.engine``. :data:`TARGETS` lists every wrapped name, and
the benchmark's tests check that each one records calls on the
workloads that exercise it.

A layer's *self time* is its span's duration minus the time covered by
its child spans. Spans are kept in memory and written out after the
run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (span name, module, attribute path, kind) of every wrapped entry
#: point. ``kind`` is "call" for a plain function or method, "gen" for a
#: generator function (one span per resumption, so only the time spent
#: inside the generator is counted, not the consumer's time between
#: items).
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sql.parse", "repro.systems.sql_over_nosql", "parse", "call"),
    ("sql.bind", "repro.systems.sql_over_nosql", "bind", "call"),
    ("core.plan", "repro.core.middleware", "Zidian.plan", "call"),
    ("parallel.engine", "repro.parallel.engine",
     "ZidianEngine.execute", "call"),
    ("parallel.meter", "repro.kba.blockset", "BlockSet.size_bytes", "call"),
    ("parallel.meter", "repro.parallel.engine", "blockset_skew", "call"),
    ("kba.operator", "repro.parallel.engine", "execute_node", "call"),
    ("baav.fetch", "repro.baav.store", "KVInstance.get", "call"),
    ("baav.fetch", "repro.baav.store", "KVInstance.multi_get", "call"),
    ("baav.fetch", "repro.baav.store", "KVInstance.get_stats", "call"),
    ("baav.fetch", "repro.baav.store", "KVInstance.scan", "gen"),
    ("taav.fetch", "repro.kv.taav", "TaaVRelation.get", "call"),
    ("taav.fetch", "repro.kv.taav", "TaaVRelation.multi_get", "call"),
    ("taav.fetch", "repro.kv.taav", "TaaVRelation.scan", "gen"),
    ("cache.lookup", "repro.baav.store", "read_through", "call"),
    ("cache.lookup", "repro.baav.store", "read_through_many", "call"),
    ("cache.lookup", "repro.kv.taav", "read_through", "call"),
    ("cache.lookup", "repro.kv.taav", "read_through_many", "call"),
    ("cache.lookup", "repro.index.indexes", "read_through_many", "call"),
    ("codec.decode", "repro.kv.codec", "decode_entries", "call"),
    ("cluster.get", "repro.kv.cluster", "KVCluster.get", "call"),
    ("cluster.multi_get", "repro.kv.cluster", "KVCluster.multi_get", "call"),
    ("cluster.scan", "repro.kv.cluster", "KVCluster.scan", "gen"),
    ("cluster.charge", "repro.kv.cluster",
     "KVCluster.charge_values_read", "call"),
    ("cluster.write", "repro.kv.cluster", "KVCluster.put", "call"),
    ("cluster.write", "repro.kv.cluster", "KVCluster.multi_put", "call"),
    ("cluster.write", "repro.kv.cluster", "KVCluster.delete", "call"),
    ("cluster.peek", "repro.kv.cluster", "KVCluster.peek", "call"),
    ("index.probe", "repro.index.manager", "IndexManager.lookup_eq", "call"),
    ("index.probe", "repro.index.manager",
     "IndexManager.lookup_range", "call"),
    ("index.maintain", "repro.index.manager",
     "IndexManager.apply_updates", "call"),
    ("mvcc.commit", "repro.mvcc.txn",
     "TransactionManager.commit_statements", "call"),
    ("maint.apply", "repro.baav.maintenance", "Maintainer.insert", "call"),
    ("maint.apply", "repro.baav.maintenance", "Maintainer.delete", "call"),
    ("rpc", "repro.kv.remote", "NodeClient.request", "call"),
)

#: entry points whose result says how many BaaV blocks they returned
#: (``baav.blocks_per_read``). Scans are not counted: with a batch size
#: above 1 (the system default) a scan fetches through ``multi_get``.
BLOCK_COUNTS: Dict[str, Callable[[object], int]] = {
    "KVInstance.get": lambda block: block is not None,
    "KVInstance.multi_get": lambda blocks: sum(
        b is not None for b in blocks.values()
    ),
}

#: (span id, parent span id, name, op id, start ns, end ns)
Span = Tuple[int, int, str, int, int, int]


def _resolve(module: str, path: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans for operations opened with :meth:`op`.

    A wrapper records only while its thread is inside an operation, so
    work outside the measured operations (set-up, checks, other
    threads) leaves no spans.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved: List[Tuple[object, str, object]] = []
        #: span name -> units counted from results (see BLOCK_COUNTS)
        self.units: Dict[str, int] = defaultdict(int)

    # -- operation roots ----------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    @contextmanager
    def op(self, name: str, op_id: int) -> Iterator[None]:
        """Open the root span of one read or write on this thread.

        ``name`` is ``op.read`` or ``op.write``. The root's self time is
        what the wrapped layers leave over: admission, snapshot pinning,
        result assembly.
        """
        local = self._local
        span_id = next(self._ids)
        local.stack = [span_id]
        local.op_id = op_id
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            local.stack = None
            self.spans.append((span_id, 0, name, op_id, start, end))

    # -- wrappers -----------------------------------------------------------

    def _wrap_call(
        self, name: str, fn: Callable,
        count: Optional[Callable[[object], int]] = None,
    ) -> Callable:
        local = self._local
        spans = self.spans
        ids = self._ids
        units = self.units
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if not stack:
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, local.op_id, start, end))
            if count is not None:
                units[name] += count(result)
            return result

        return traced

    def _wrap_gen(self, name: str, fn: Callable) -> Callable:
        sentinel = object()
        step = self._wrap_call(name, next)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                item = step(inner, sentinel)
                if item is sentinel:
                    return
                yield item

        return traced

    def install(self) -> None:
        """Replace every entry point in :data:`TARGETS` with a wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, module, path, kind in TARGETS:
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr]
            if kind == "gen":
                wrapper = self._wrap_gen(name, original)
            else:
                wrapper = self._wrap_call(
                    name, original, BLOCK_COUNTS.get(path)
                )
            setattr(owner, attr, wrapper)
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original entry point back (reverse order)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write(self, path: str, header: dict) -> None:
        """Write the spans as gzipped JSON lines after a header line."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


@dataclass
class LayerTimes:
    """Self time and call count per (op kind, span name)."""

    self_ns: Dict[Tuple[str, str], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    calls: Dict[Tuple[str, str], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    #: op kind -> number of traced operations
    ops: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: op kind -> summed root span durations (the traced wall time)
    wall_ns: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def self_ms(self, kind: str, names: Tuple[str, ...]) -> float:
        """Mean self time per op of ``kind`` in the named spans, in ms."""
        ops = self.ops.get(kind, 0)
        if not ops:
            return 0.0
        total = sum(self.self_ns.get((kind, n), 0) for n in names)
        return total / ops / 1e6

    def calls_per_op(self, kind: str, names: Tuple[str, ...]) -> float:
        ops = self.ops.get(kind, 0)
        if not ops:
            return 0.0
        return sum(self.calls.get((kind, n), 0) for n in names) / ops

    def total_self_ns(self, kind: Optional[str] = None) -> int:
        return sum(
            value for (k, _), value in self.self_ns.items()
            if kind is None or k == kind
        )


def layer_times(spans: List[Span]) -> LayerTimes:
    """Self time per span name, grouped by the kind of the root op.

    A span's self time is its duration minus the summed durations of
    its direct children. Children of one parent run on the parent's
    thread one after another, so their intervals do not overlap and the
    sum is the part of the parent they cover.
    """
    child_ns: Dict[int, int] = defaultdict(int)
    root_kind: Dict[int, str] = {}
    for span_id, parent, name, op_id, start, end in spans:
        if parent:
            child_ns[parent] += end - start
        else:
            root_kind[op_id] = name.split(".", 1)[1]
    out = LayerTimes()
    for span_id, parent, name, op_id, start, end in spans:
        kind = root_kind.get(op_id)
        if kind is None:
            continue  # the op's root was not recorded
        key = (kind, name)
        out.self_ns[key] += (end - start) - child_ns.get(span_id, 0)
        out.calls[key] += 1
        if not parent:
            out.ops[kind] += 1
            out.wall_ns[kind] += end - start
    return out


def check_nesting(spans: List[Span]) -> List[str]:
    """Problems that would make self times double count (empty if none).

    Every child must lie inside its parent's interval and belong to the
    parent's op, and the children of one parent must not overlap.
    """
    by_id = {span[0]: span for span in spans}
    children: Dict[int, List[Span]] = defaultdict(list)
    problems: List[str] = []
    for span in spans:
        span_id, parent, name, op_id, start, end = span
        if end < start:
            problems.append(f"span {span_id} ({name}) ends before it starts")
        if not parent:
            continue
        outer = by_id.get(parent)
        if outer is None:
            problems.append(f"span {span_id} ({name}) has no parent")
            continue
        if outer[3] != op_id:
            problems.append(f"span {span_id} ({name}) crosses ops")
        if start < outer[4] or end > outer[5]:
            problems.append(
                f"span {span_id} ({name}) leaves parent {outer[2]}"
            )
        children[parent].append(span)
    for parent, kids in children.items():
        kids.sort(key=lambda s: s[4])
        for before, after in zip(kids, kids[1:]):
            if after[4] < before[5]:
                problems.append(
                    f"children {before[2]} and {after[2]} of span "
                    f"{parent} overlap"
                )
    return problems
