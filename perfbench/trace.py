"""Span tracing from outside the program, for the traced (``--trace 1``) run.

The benchmark adds no instrumentation to ``src/``.  Instead a
:class:`Tracer` replaces public functions and methods of the program's
modules with wrappers that record one span per call -- name, start,
end, parent span, pid, thread -- and restores the originals afterwards.
Spans stay in memory and are written out once, at the end of the run.

Processes the program starts are covered too:

* forked pool workers inherit the wrappers; each worker task returns
  its spans to the parent inside the task result (an :class:`_Envelope`
  that the wrapped ``WorkerPool.map`` unpacks before the program sees
  the value);
* the ``repro serve`` subprocess starts through
  ``perfbench/launch_server.py``, which installs the server-side
  wrappers and writes that process's spans to a file when it stops.

All timestamps are ``time.perf_counter()``, which on Linux reads the
system-wide monotonic clock, so spans from every process share one
time axis.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

# A span: (id, parent id, name, start, end, pid, tid, attributes).
# Ids are (pid, n) pairs, unique across processes.
Span = Tuple[Any, Any, str, float, float, int, int, Dict[str, Any]]

ACTIVE: Optional["Tracer"] = None
"""The installed tracer (module-level so forked workers inherit it)."""


class Tracer:
    """Records spans around wrapped program calls."""

    def __init__(self):
        self.spans: List[Span] = []
        self.phases: Dict[str, List[Tuple[float, float]]] = {}
        self.lane_names: Dict[Tuple[int, int], str] = {}
        self.active = False
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._connections: "weakref.WeakKeyDictionary[Any, int]" = \
            weakref.WeakKeyDictionary()
        self._connection_ids = itertools.count(1)

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[Any]:
        if os.getpid() != self._pid:
            # First call in a forked child: drop the parent's spans.
            self._pid = os.getpid()
            self.spans = []
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable[..., Any], args: tuple,
             kwargs: dict,
             annotate: Optional[Callable[..., Any]] = None) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = (self._pid, next(self._ids))
        parent = stack[-1] if stack else None
        finish = annotate(*args, **kwargs) if annotate else None
        stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            attrs = finish(result) if finish else {}
            self.spans.append((span_id, parent, name, start, end,
                               self._pid, threading.get_ident(), attrs))

    def phase(self, name: str, start: float, end: float) -> None:
        """Mark a benchmark phase window (setup, untraced, measure)."""
        self.phases.setdefault(name, []).append((start, end))

    def name_lane(self, label: str) -> None:
        """Label the calling thread's lane in the exported trace."""
        self.lane_names[(os.getpid(), threading.get_ident())] = label

    def connection_id(self, transport: Any) -> int:
        """A stable 1-based index per TCP transport, in connect order."""
        if transport not in self._connections:
            self._connections[transport] = next(self._connection_ids)
        return self._connections[transport]

    # -- patching -------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_method(self, cls: type, attr: str, name: str,
                    annotate: Optional[Callable[..., Any]] = None) -> None:
        """Trace ``cls.attr`` (plain, static or class method)."""
        raw = inspect.getattr_static(cls, attr)
        is_static = isinstance(raw, staticmethod)
        original = raw.__func__ if is_static else raw
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, annotate)

        self._patch(cls, attr, staticmethod(wrapper) if is_static
                    else wrapper)

    def wrap_function(self, module: Any, attr: str, name: str,
                      annotate: Optional[Callable[..., Any]] = None
                      ) -> None:
        """Trace a module function everywhere it was imported by name."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, annotate)

        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and loaded.__dict__.get(attr) is original):
                self._patch(loaded, attr, wrapper)

    def install(self, plan: Callable[["Tracer"], None]) -> None:
        """Apply a wrapping plan and start recording."""
        global ACTIVE
        plan(self)
        ACTIVE = self
        self.active = True

    def uninstall(self) -> None:
        """Stop recording and restore every original."""
        global ACTIVE
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        ACTIVE = None

    # -- output ---------------------------------------------------------

    def export(self, path: str, extra: Optional[Dict[str, Any]] = None
               ) -> None:
        """Write every span once, as Chrome trace lanes per pid/tid."""
        origin = min((span[3] for span in self.spans), default=0.0)
        events: List[Dict[str, Any]] = []
        for (pid, tid), label in sorted(self.lane_names.items()):
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": label}})
        for span_id, parent, name, start, end, pid, tid, attrs in \
                sorted(self.spans, key=lambda span: span[3]):
            args = dict(attrs)
            args["id"] = f"{span_id[0]}.{span_id[1]}"
            if parent is not None:
                args["parent"] = f"{parent[0]}.{parent[1]}"
            events.append({"ph": "X", "name": name,
                           "cat": name.split(".")[0], "pid": pid,
                           "tid": tid, "ts": (start - origin) * 1e6,
                           "dur": (end - start) * 1e6, "args": args})
        payload = {"traceEvents": events, "displayTimeUnit": "ms",
                   "phases": self.phases}
        if extra:
            payload.update(extra)
        with open(path, "w") as handle:
            json.dump(payload, handle, default=str)


def load_spans(raw: List[list]) -> List[Span]:
    """Spans read back from JSON (ids become tuples again)."""
    return [(tuple(s[0]), tuple(s[1]) if s[1] else None, s[2], s[3], s[4],
             s[5], s[6], s[7]) for s in raw]


# ----------------------------------------------------------------------
# Wrapping plans
# ----------------------------------------------------------------------

@dataclass
class _Envelope:
    """A pool task's value plus the spans its worker recorded."""

    value: Any
    spans: List[Span]


def _pool_task(original: Callable[..., Any]) -> Callable[..., Any]:
    """Worker side of ``WorkerPool``: ship the task's spans home."""

    @functools.wraps(original)
    def task(fn, payload, with_telemetry):
        tracer = ACTIVE
        if tracer is None or not tracer.active:
            return original(fn, payload, with_telemetry)
        tracer._stack()
        mark = len(tracer.spans)
        value, wall, pid, snapshot = tracer.call(
            "parallel.task", original, (fn, payload, with_telemetry), {})
        spans = tracer.spans[mark:]
        del tracer.spans[mark:]
        return _Envelope(value, spans), wall, pid, snapshot

    return task


def _pool_map(tracer: Tracer, original: Callable[..., Any]
              ) -> Callable[..., Any]:
    """Parent side of ``WorkerPool``: unpack worker spans."""

    @functools.wraps(original)
    def pool_map(pool, fn, payloads):
        def run():
            outcomes = original(pool, fn, payloads)
            map_id = tracer._stack()[-1]
            for outcome in outcomes:
                if isinstance(outcome.value, _Envelope):
                    for span in outcome.value.spans:
                        parent = span[1] if span[1] is not None else map_id
                        tracer.spans.append(span[:1] + (parent,) + span[2:])
                    outcome.value = outcome.value.value
            return outcomes
        return tracer.call("parallel.map", run, (), {},
                           lambda: lambda result: {
                               "workers": pool.workers,
                               "tasks": len(result or ())})

    return pool_map


def _traced(tracer: Tracer, name: str, fn: Callable[..., Any]
            ) -> Callable[..., Any]:
    def run(*args):
        return tracer.call(name, fn, args, {})
    return run


def _model_gates(model, *_args, **_kwargs):
    before = model.evaluated_gates
    return lambda _result: {"gates": model.evaluated_gates - before}


def _controller_events(*_args, **_kwargs):
    return lambda stats: {"events": getattr(stats, "events", 0)}


def _tcp_frame(tracer: Tracer, kind: str):
    def annotate(transport, *args, **_kwargs):
        method = args[1] if kind == "call" and len(args) > 1 else "batch"
        attrs = {"conn": tracer.connection_id(transport),
                 "method": method}
        return lambda _result: attrs
    return annotate


def _tcp_connect(tracer: Tracer):
    def annotate(transport, *_args, **_kwargs):
        attrs = {"conn": tracer.connection_id(transport),
                 "port": transport.port}
        return lambda _result: attrs
    return annotate


def _dispatch_attrs(server, request, *_args, **_kwargs):
    attrs = {"session": server.host_name,
             "method": getattr(request, "method", "batch")}
    return lambda _result: attrs


def _import_program() -> None:
    """Load every module a plan wraps, so by-name imports are patched."""
    import repro.bench.scenarios  # noqa: F401
    import repro.compiled  # noqa: F401
    import repro.core.controller  # noqa: F401
    import repro.ip.provider  # noqa: F401
    import repro.parallel  # noqa: F401
    import repro.parallel.remote  # noqa: F401
    import repro.server  # noqa: F401
    import repro.server.farm  # noqa: F401


def _common_plan(tracer: Tracer, dispatch_name: str) -> None:
    """Wrappers shared by the benchmark process and the server."""
    _import_program()
    from repro.compiled import compiler, ppsfp
    from repro.faults import faultlist
    from repro.gates import corpus, simulator
    from repro.ip import provider
    from repro.parallel import merge, remote
    from repro.power import toggle
    from repro.rmi import protocol, server

    tracer.wrap_function(corpus, "load_bench", "gates.load_bench")
    tracer.wrap_method(simulator.EventDrivenState, "__init__",
                       "gates.event_state_init")
    tracer.wrap_method(simulator.EventDrivenState, "apply",
                       "gates.event_apply")
    tracer.wrap_function(faultlist, "build_fault_list",
                         "faults.build_fault_list")
    tracer.wrap_function(compiler, "clear_kernel_cache",
                         "compiled.clear_cache")
    original_init = compiler.CompiledKernel.__init__

    def kernel_init(kernel, *args, **kwargs):
        # Kernels are immutable and cached, so their generated run_good
        # and run_fault functions are wrapped once, at compile time.
        tracer.call("compiled.compile", original_init,
                    (kernel,) + args, kwargs)
        for attr in ("run_good", "run_fault"):
            setattr(kernel, attr, _traced(tracer, f"compiled.{attr}",
                                          getattr(kernel, attr)))

    tracer._patch(compiler.CompiledKernel, "__init__",
                  functools.wraps(original_init)(kernel_init))
    tracer.wrap_method(ppsfp.CompiledFaultSimulator, "run", "compiled.run")
    tracer.wrap_function(merge, "merge_reports", "parallel.merge")
    tracer.wrap_method(remote.FaultFarmServant, "collect_report",
                       "parallel.remote.collect_report")
    tracer.wrap_method(provider.IPProvider, "publish_multiplier",
                       "ip.publish")
    for method in provider.PowerServant.REMOTE_METHODS:
        tracer.wrap_method(provider.PowerServant, method,
                           "ip.power_servant")
    tracer.wrap_method(toggle.ToggleCountModel, "power_of_pattern",
                       "power.toggle", _model_gates)
    for cls in (protocol.CallRequest, protocol.CallReply,
                protocol.BatchRequest, protocol.BatchReply):
        tracer.wrap_method(cls, "encode", "rmi.marshal")
        tracer.wrap_method(cls, "decode", "rmi.marshal")
    for method in ("dispatch", "dispatch_batch"):
        tracer.wrap_method(server.JavaCADServer, method, dispatch_name,
                           _dispatch_attrs)


def client_plan(tracer: Tracer) -> None:
    """Wrappers for the benchmark process and its forked pool workers."""
    _common_plan(tracer, "rmi.dispatch")
    from repro.bench import scenarios
    from repro.core import controller, design
    from repro.parallel import faultsim, pool, remote
    from repro.rmi import transport

    tracer.wrap_function(faultsim, "parallel_fault_simulate",
                         "parallel.fault_simulate")
    tracer._patch(pool.WorkerPool, "map",
                  _pool_map(tracer, pool.WorkerPool.map))
    tracer._patch(pool, "_execute_task", _pool_task(pool._execute_task))
    tracer.wrap_function(remote, "remote_fault_simulate",
                         "parallel.remote.fault_simulate")
    tracer.wrap_method(remote.RemoteWorkerPool, "map",
                       "parallel.remote.map")
    tracer.wrap_method(controller.SimulationController, "start",
                       "core.start", _controller_events)
    tracer.wrap_method(design.Design, "build", "core.build")
    tracer.wrap_function(scenarios, "run_scenario", "bench.run_scenario")
    for method in ("invoke", "invoke_batch"):
        tracer.wrap_method(transport.InProcessTransport, method,
                           "rmi.invoke")
    tracer.wrap_method(transport.TcpTransport, "invoke", "rmi.tcp_invoke",
                       _tcp_frame(tracer, "call"))
    tracer.wrap_method(transport.TcpTransport, "invoke_batch",
                       "rmi.tcp_invoke", _tcp_frame(tracer, "batch"))
    tracer.wrap_method(transport.TcpTransport, "connect", "rmi.tcp_connect",
                       _tcp_connect(tracer))


def server_plan(tracer: Tracer) -> None:
    """Wrappers for the ``repro serve`` process."""
    _common_plan(tracer, "server.dispatch")
