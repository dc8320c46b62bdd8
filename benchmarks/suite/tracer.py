"""Outside-in layer tracing for the benchmark suite.

The suite never edits the program to time it.  For the length of one
traced operation, :class:`Tracer` replaces the public callables of each
``repro`` layer with thin wrappers and afterwards puts every original
back; untraced operations run the program untouched.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, id]``
rows.  ``parent`` is the row index of the innermost open span when the
span started (``-1`` for a root), so a layer's *self* time is its span
time minus the spans it directly caused.  ``id`` ties the spans of one
unit of work together: engine spans carry the replay (or pass) index,
service spans the WAL key ``group:decision_seq`` when one exists and
the logical slot otherwise.

A wrapper entered while a span of the same layer is already innermost
does not open a second span, so delegation inside a layer (a
``FallbackRouter`` forwarding to its ``StaticEcmpRouter``, a
``FatTree.__init__`` calling ``Topology.__init__``) counts once.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict, deque
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

#: Layer whose subtree the self-time accounting is checked against.
RUN_LAYER = "simulation.run"


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


def layer_targets() -> tuple[list[tuple[type, str, str]], list[tuple[object, str]]]:
    """Every public callable the tracer wraps, by layer.

    Returns ``(methods, functions)``: ``(class, attribute, layer)``
    triples patched on the class that defines them, and
    ``(function, layer)`` pairs patched wherever a ``repro`` module
    binds them (``engine`` imports ``allocate_dense`` by name, the
    runner resolves payload workers by module attribute).
    """
    # Importing a package's module runs the package's __init__, which
    # defines every Topology and Router subclass before the scan below.
    from repro.core.controller import ShareBackupController
    from repro.experiments import affected, availability, slowdown
    from repro.routing.router import Router
    from repro.runner.executor import SweepRunner
    from repro.service.wal import DecisionWAL
    from repro.simulation import columnar, fairshare
    from repro.simulation.engine import FluidSimulation
    from repro.topology.base import Topology
    from repro.workload import coflow_trace

    methods = [
        (cls, "__init__", "topology.build")
        for cls in _subclasses(Topology)
        if "__init__" in vars(cls)
    ]
    for cls in _subclasses(Router):
        for attr in ("initial_path", "repath", "on_topology_change"):
            if attr in vars(cls):
                methods.append((cls, attr, f"routing.{attr}"))
    methods += [
        (coflow_trace.CoflowTraceGenerator, "generate", "workload.trace"),
        (FluidSimulation, "run", RUN_LAYER),
        (columnar.FlowTable, "append", "simulation.flow_table"),
        (columnar.FlowTable, "discard", "simulation.flow_table"),
        (columnar.FlowTable, "rebuild", "simulation.flow_table"),
        (SweepRunner, "run", "runner.run"),
        (
            ShareBackupController,
            "handle_node_failure",
            "controller.handle_node_failure",
        ),
        (DecisionWAL, "append_intent", "wal.append_intent"),
        (DecisionWAL, "append_commit", "wal.append_commit"),
    ]
    functions = [
        (coflow_trace.materialize_hosts, "workload.trace"),
        (fairshare.allocate_dense, "simulation.allocate_dense"),
        (columnar.waterfill, "simulation.waterfill"),
        (affected.evaluate_affected_payload, "experiments.evaluate"),
        (slowdown.evaluate_slowdown_payload, "experiments.evaluate"),
        (availability.evaluate_availability_payload, "experiments.evaluate"),
    ]
    return methods, functions


def snapshot() -> dict[tuple[int, str, str], object]:
    """Identity of every wrappable callable, wherever it is bound."""
    methods, functions = layer_targets()
    state: dict[tuple[int, str, str], object] = {}
    for cls, attr, _ in methods:
        state[(id(cls), cls.__qualname__, attr)] = vars(cls)[attr]
    wanted = {id(fn) for fn, _ in functions}
    for module in _repro_modules():
        for name, value in vars(module).items():
            if id(value) in wanted:
                state[(id(module), module.__name__, name)] = value
    return state


def _repro_modules() -> list[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id: object = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        #: Pending WAL keys per failure group, oldest first: the resolver
        #: logs a group's intents before committing them in order.
        self._wal_keys: dict[str, deque[str]] = defaultdict(deque)

    # ------------------------------------------------------------------
    # installing and removing wrappers
    # ------------------------------------------------------------------

    @contextmanager
    def active(self, op_id: object) -> Iterator[Tracer]:
        """Trace one operation: fresh spans, wrappers in, then out."""
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()
        self._wal_keys.clear()
        self.op_id = op_id
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self) -> None:
        methods, functions = layer_targets()
        for cls, attr, layer in methods:
            self._set(cls, attr, self._wrap(layer, vars(cls)[attr]))
        for fn, layer in functions:
            wrapper = self._wrap(layer, fn)
            for module in _repro_modules():
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, name, wrapper)

    def _set(self, owner: object, attr: str, value: object) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        before, after, ident = self._hooks(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            row = [
                layer,
                0,
                0,
                stack[-1] if stack else -1,
                self.op_id if ident is None else ident(args),
            ]
            stack.append(len(spans))
            spans.append(row)
            row[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _hooks(self, layer: str) -> tuple:
        """``(before, after, ident)`` extras for layers that need them."""
        counters = self.counters
        if layer == "simulation.waterfill":

            def rows(args: tuple) -> None:
                counters["simulation.waterfill.rows"] += args[0].shape[0]

            return rows, None, None
        if layer == RUN_LAYER:

            def result_counts(_args: tuple, result) -> None:
                counters["simulation.reallocations"] += result.reallocations
                counters["simulation.events"] += result.events_processed

            return None, result_counts, None
        if layer == "wal.append_intent":

            def push_key(args: tuple) -> None:
                self._wal_keys[args[1]].append(f"{args[1]}:{args[2]}")

            return push_key, None, lambda args: f"{args[1]}:{args[2]}"
        if layer == "wal.append_commit":

            def pop_key(args: tuple, _result) -> None:
                pending = self._wal_keys.get(args[1])
                if pending:
                    pending.popleft()

            return None, pop_key, lambda args: f"{args[1]}:{args[2]}"
        if layer == "controller.handle_node_failure":
            return None, None, self._decision_id
        return None, None, None

    def _decision_id(self, args: tuple) -> str:
        """The WAL key of the decision being committed, else the slot."""
        logical = args[1]
        if self._wal_keys:
            group = args[0].net.group_of(logical).group_id
            pending = self._wal_keys.get(group)
            if pending:
                return pending[0]
        return logical

    # ------------------------------------------------------------------
    # the report queue: queue wait per failure report
    # ------------------------------------------------------------------

    def watch_queue(self, queue: object) -> None:
        """Record offer→dequeue waits on one ``ProbeQueue`` instance as
        ``ingest.report_wait`` spans (roots: a wait is not on the stack).

        Patched on the instance, not the class: the heartbeat queue
        shares the class and takes over a million offers per run.
        """
        offered: dict[int, int] = {}
        spans = self.spans
        offer, get, get_nowait = queue.offer, queue.get, queue.get_nowait

        def dequeued(item: object) -> None:
            start = offered.pop(id(item), None)
            if start is not None:
                end = perf_counter_ns()
                spans.append(["ingest.report_wait", start, end, -1, item.logical])

        def traced_offer(item: object) -> bool:
            offered[id(item)] = perf_counter_ns()
            return offer(item)

        async def traced_get() -> object:
            item = await get()
            dequeued(item)
            return item

        def traced_get_nowait() -> object:
            item = get_nowait()
            if item is not None:
                dequeued(item)
            return item

        self._set(queue, "offer", traced_offer)
        self._set(queue, "get", traced_get)
        self._set(queue, "get_nowait", traced_get_nowait)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-layer busy seconds, self seconds and call counts.

        Also ``run_self_s``: the self time of every span inside a
        ``simulation.run`` subtree, which telescopes to the run spans'
        own total when the nesting is consistent.
        """
        spans = self.spans
        children = [0] * len(spans)
        for row in spans:
            if row[3] >= 0:
                children[row[3]] += row[2] - row[1]
        inside = [False] * len(spans)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, float] = defaultdict(float)
        run_self = 0.0
        for index, row in enumerate(spans):
            duration = row[2] - row[1]
            own = (duration - children[index]) / 1e9
            busy[row[0]] += duration / 1e9
            self_s[row[0]] += own
            calls[row[0]] += 1
            parent = row[3]
            inside[index] = row[0] == RUN_LAYER or (parent >= 0 and inside[parent])
            if inside[index]:
                run_self += own
        return {
            "busy": dict(busy),
            "self": dict(self_s),
            "calls": dict(calls),
            "counters": dict(self.counters),
            "run_self_s": run_self,
        }

    def dump_jsonl(self, path: Path) -> None:
        """Write the spans of the last traced operation, one per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, ident in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "id": ident,
                        }
                    )
                    + "\n"
                )
