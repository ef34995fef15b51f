"""Spans at the engine's layer boundaries, recorded from outside ``src/``.

:class:`Tracer` wraps public functions of each layer (the binder, the
optimizer, the planner, the executor, the engine facade, the simulator loop,
storage, the adaptive runtime, tenancy and distribution) for the duration of
a traced run and restores them afterwards.  Each span records a name, start,
end and parent; spans of one benchmark operation share its id.  Spans stay
in memory and are written out once, at the end.

Only the main thread records spans.  The tenancy and scatter-gather drivers
run sessions on baton threads that hand control back and forth mid-call, so
a span opened there would also cover other sessions' work.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.server.executor as executor_module
from repro.adaptive.observer import RuntimeObserver
from repro.adaptive.store import StatisticsStore
from repro.core.optimizer import Optimizer
from repro.distribution import DistributedDatabase
from repro.network.simulator import Simulator
from repro.server.engine import Database
from repro.server.executor import Executor
from repro.sql.binder import Binder
from repro.storage.engine import StorageEngine
from repro.storage.index import BTreeIndex, HashIndex
from repro.storage.metadata import MetadataManager
from repro.tenancy import MultiTenantEngine


class NullTracer:
    """What the untraced run passes where a tracer is expected: does nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def wrap_udf(self, function: Callable) -> Callable:
        return function

    def begin_op(self) -> int:
        return 0


def _index_kind(args: Tuple, kwargs: Dict) -> str:
    kind = kwargs.get("kind", args[4] if len(args) > 4 else "btree")
    return f"storage.create_index.{kind}"


#: (owner, attribute, span name) of every wrapped layer entry point.  A span
#: name may be a function of the call's arguments.
BOUNDARIES: List[Tuple[Any, str, Any]] = [
    (Binder, "bind_sql", "sql.bind"),
    (Optimizer, "optimize", "optimizer.optimize"),
    (executor_module, "build_plan", "planner.build_plan"),
    (Executor, "execute_plan", "executor.execute_plan"),
    (Database, "execute", "engine.execute"),
    (Simulator, "run", "network.simulator_run"),
    (RuntimeObserver, "observe", "adaptive.observe"),
    (StatisticsStore, "save", "adaptive.stats_save"),
    (StorageEngine, "create_index", _index_kind),
    (StorageEngine, "flush", "storage.flush"),
    (MetadataManager, "refresh", "storage.stats_refresh"),
    (BTreeIndex, "search_eq", "storage.index_probe"),
    (BTreeIndex, "search_range", "storage.index_probe"),
    (HashIndex, "search_eq", "storage.index_probe"),
    (DistributedDatabase, "execute", "distribution.execute"),
    (MultiTenantEngine, "run", "tenancy.run"),
]


class Tracer:
    """Records spans while installed; every wrapper is removed by :meth:`uninstall`."""

    def __init__(self) -> None:
        #: (op id, span id, parent span id, name, start, end); parent 0 = none.
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.op_id = 0
        #: Simulators created, with the operation that created them.
        self.simulators: List[Tuple[int, Simulator]] = []
        #: Optimizer decisions, with the operation that made them.
        self.decisions: List[Tuple[int, Any]] = []
        self._stack: List[int] = []
        self._next_span = 0
        self._main = threading.get_ident()
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- operations and spans -------------------------------------------------------

    def begin_op(self) -> int:
        self.op_id += 1
        return self.op_id

    def _open(self) -> Tuple[int, int, float]:
        self._next_span += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(self._next_span)
        return self._next_span, parent, time.perf_counter()

    def _close(self, name: str, opened: Tuple[int, int, float]) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, start = opened
        self.spans.append((self.op_id, span_id, parent, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, opened)

    def _wrap(self, function: Callable, name: Any, on_result: Optional[Callable] = None):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                return function(*args, **kwargs)
            opened = tracer._open()
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(name(args, kwargs) if callable(name) else name, opened)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_udf(self, function: Callable) -> Callable:
        return self._wrap(function, "client.udf")

    # -- installation ---------------------------------------------------------------

    def install(self) -> None:
        for owner, attribute, name in BOUNDARIES:
            on_result = self._record_decision if attribute == "optimize" else None
            self._patch(owner, attribute, self._wrap(getattr(owner, attribute), name, on_result))
        original_init = Simulator.__init__
        tracer = self

        @functools.wraps(original_init)
        def init(simulator, *args, **kwargs):
            original_init(simulator, *args, **kwargs)
            tracer.simulators.append((tracer.op_id, simulator))

        self._patch(Simulator, "__init__", init)

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _record_decision(self, decision: Any) -> None:
        self.decisions.append((self.op_id, decision))

    # -- aggregation ----------------------------------------------------------------

    def per_op(self) -> Dict[int, Dict[str, List[float]]]:
        """op id -> span name -> [total seconds, self seconds, calls]."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, span_id, parent, _, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        totals: Dict[int, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0.0, 0])
        )
        for op, span_id, _, name, start, end in self.spans:
            entry = totals[op][name]
            entry[0] += end - start
            entry[1] += end - start - child_time[span_id]
            entry[2] += 1
        return totals

    def events_per_op(self) -> Dict[int, int]:
        events: Dict[int, int] = defaultdict(int)
        for op, simulator in self.simulators:
            events[op] += simulator.events_processed
        return events

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["op", "span", "parent", "name", "start", "end"],
                    "spans": self.spans,
                },
                handle,
            )
