"""Per-layer metrics from the traced run's spans.

Every layer is a top-level package of the program (``gates``,
``compiled``, ``rmi`` ...); a span's layer is the part of its name
before the first dot.  A span's *self time* is its duration minus the
durations of its children on the same thread.

``trace.unattributed_s`` is measured on its own: for each of the
benchmark's lanes (its threads that run for the whole measured
windows), the part of the windows that no top-level span of that lane
covers.  When every span is recorded once and nests inside its parent,

    sum of <layer>.self_s + trace.unattributed_s == trace.wall_s

and the remainder is benchmark code between program calls, or a load
generator waiting for its next due time.  A span counted twice, or a
child that outlasts its parent, breaks the identity.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .common import Result, median
from .trace import Span

LAYERS = ("bench", "gates", "faults", "compiled", "parallel", "core",
          "rmi", "ip", "power", "server")
"""Program packages that own traced spans (``bench`` is repro.bench)."""

Window = Tuple[float, float]
Lane = Tuple[int, int]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanIndex:
    """Spans plus the parent/child structure the metrics need."""

    def __init__(self, spans: Sequence[Span]):
        self.spans = list(spans)
        self.by_id = {span[0]: span for span in self.spans}
        self.child_time: Dict[object, float] = defaultdict(float)
        for span in self.spans:
            parent = self.by_id.get(span[1])
            if parent is not None and parent[5:7] == span[5:7]:
                self.child_time[parent[0]] += span[4] - span[3]

    def self_time(self, span: Span) -> float:
        return (span[4] - span[3]) - self.child_time.get(span[0], 0.0)

    def within(self, windows: Sequence[Window],
               lanes: Optional[Set[Lane]] = None) -> List[Span]:
        """Spans that lie wholly inside one of ``windows``."""
        return [span for span in self.spans
                if any(low <= span[3] and span[4] <= high
                       for low, high in windows)
                and (lanes is None or (span[5], span[6]) in lanes)]

    def top_level(self, spans: Iterable[Span]) -> List[Span]:
        """Spans whose parent is not on their own lane."""
        return [span for span in spans
                if self.by_id.get(span[1]) is None
                or self.by_id[span[1]][5:7] != span[5:7]]

    def outermost(self, spans: Iterable[Span], name: str) -> List[Span]:
        """Spans named ``name`` with no same-named ancestor."""
        chosen = []
        for span in spans:
            if span[2] != name:
                continue
            parent = self.by_id.get(span[1])
            while parent is not None and parent[2] != name:
                parent = self.by_id.get(parent[1])
            if parent is None:
                chosen.append(span)
        return chosen

    def total(self, spans: Iterable[Span], name: str) -> Tuple[float, int]:
        """(seconds, calls) of the outermost ``name`` spans."""
        picked = self.outermost(spans, name)
        return sum(span[4] - span[3] for span in picked), len(picked)

    def attr_sum(self, spans: Iterable[Span], name: str, key: str) -> float:
        return sum(span[7].get(key, 0) for span in spans
                   if span[2] == name)


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def add_layer_metrics(result: Result, index: SpanIndex,
                      measures: Sequence[Window], setups: Sequence[Window],
                      bench_lanes: Set[Lane]) -> None:
    """Every workload-independent per-layer metric of one traced run."""
    for name, metric in (("gates.load_bench", "gates.load_bench_s"),
                         ("faults.build_fault_list",
                          "faults.build_fault_list_s"),
                         ("ip.publish", "ip.publish_s")):
        per_setup = [index.total(index.within([window]), name)[0]
                     for window in setups]
        result.add(metric, median(per_setup) if per_setup else 0.0, "s")

    spans = index.within(measures)
    for name in ("compiled.compile", "compiled.run_fault",
                 "compiled.run_good", "core.start", "rmi.invoke",
                 "rmi.marshal", "ip.power_servant", "power.toggle",
                 "gates.event_state_init", "gates.event_apply",
                 "parallel.map", "parallel.merge", "parallel.remote.map",
                 "parallel.remote.collect_report"):
        result.add(f"{name}_s", index.total(spans, name)[0], "s")
    counts = {"compiled.compiles": "compiled.compile",
              "compiled.run_fault_calls": "compiled.run_fault",
              "compiled.run_good_calls": "compiled.run_good",
              "parallel.tasks": "parallel.task",
              "rmi.invokes": "rmi.invoke",
              "rmi.marshal_calls": "rmi.marshal",
              "power.patterns": "power.toggle",
              "parallel.remote.shards": "parallel.remote.collect_report"}
    for metric, name in counts.items():
        result.add(metric, index.total(spans, name)[1], "count")
    result.add("compiled.run_self_s",
               sum(index.self_time(span) for span in
                   index.outermost(spans, "compiled.run")), "s")
    result.add("core.events", index.attr_sum(spans, "core.start", "events"),
               "count")
    result.add("gates.evaluated_gates",
               index.attr_sum(spans, "power.toggle", "gates"), "count")

    busy = index.total(spans, "parallel.task")[0]
    capacity = sum(min(span[7].get("workers", 1), span[7].get("tasks", 1))
                   * (span[4] - span[3])
                   for span in index.outermost(spans, "parallel.map")
                   if span[7].get("workers", 1) > 1
                   and span[7].get("tasks", 1) > 1)
    result.add("parallel.task_busy_s", busy, "s")
    result.add("parallel.worker_idle_share",
               1.0 - busy / capacity if capacity else 0.0, "share")

    self_by_layer: Dict[str, float] = defaultdict(float)
    lane_spans = index.within(measures, bench_lanes)
    for span in lane_spans:
        self_by_layer[layer_of(span[2])] += index.self_time(span)
    wall = sum(high - low for low, high in measures) * len(bench_lanes)
    lanes_busy = sum(covered((span[3], span[4])
                             for span in index.top_level(lane_spans)
                             if span[5:7] == lane)
                     for lane in bench_lanes)
    for layer in LAYERS:
        result.add(f"{layer}.self_s", self_by_layer.get(layer, 0.0), "s")
    result.add("trace.wall_s", wall, "s")
    result.add("trace.unattributed_s", wall - lanes_busy, "s")
    result.info["self_by_layer"] = dict(self_by_layer)


def lane_report(index: SpanIndex, labels: Dict[Lane, str]
                ) -> List[Dict[str, object]]:
    """Per pid/tid lane: spans, busy time, and unattributed (idle) time."""
    lanes: Dict[Lane, List[Span]] = defaultdict(list)
    for span in index.spans:
        lanes[(span[5], span[6])].append(span)
    report = []
    for lane, spans in sorted(lanes.items()):
        busy = covered((span[3], span[4])
                       for span in index.top_level(spans))
        active = max(span[4] for span in spans) - min(span[3]
                                                      for span in spans)
        report.append({"pid": lane[0], "tid": lane[1],
                       "label": labels.get(lane, f"pid {lane[0]}"),
                       "spans": len(spans), "busy_s": busy,
                       "active_s": active,
                       "unattributed_s": active - busy})
    return report
