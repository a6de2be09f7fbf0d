"""Host-speed probe: scale a run's host times to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-65 % for minutes at a time, which is longer than one run, and whose
second core is at times half as fast as the first.  A median over one
run cannot average that away.  Instead the ``campaign`` and ``cosim``
runs time a fixed task between their operations: ``probe()``, a small
event-driven gate simulation that lives here, in pure Python like the
program's hot paths, with garbage collection off so that its time does
not depend on how many objects the program keeps alive.  Work that runs
on several processes at once (the campaign's pool) is matched by as
many copies of the probe, run at once in forked children.

Each phase's host times (set-up, measured operations) are multiplied by

    REFERENCE_PROBE_S / (mean probe time during that phase)

so they read as they would on a host running the probe in
``REFERENCE_PROBE_S``.  The probe never calls the program, so a change
to the program moves the operations and leaves the scale alone.
"""

from __future__ import annotations

import gc
import heapq
import os
import random
import time
from typing import Dict, List, Sequence, Tuple

from .common import Result, median, quantile

REFERENCE_PROBE_S = 0.034
"""The probe's typical time on the reference machine (2 cores, Python
3.11; see README.md), so scaled times stay close to that machine's."""

PROBE_EVENTS = 30000
PROBE_GATES = 400
PROBES_PER_SETUP = 5

Gate = Tuple[int, int, int, int]
"""(kind, first input, second input, output net)."""


def _probe_netlist() -> Dict[int, List[Gate]]:
    """Fan-out lists of a fixed random two-input gate network."""
    rng = random.Random(7)
    fanout: Dict[int, List[Gate]] = {}
    for out in range(PROBE_GATES):
        gate = (rng.randrange(3), rng.randrange(PROBE_GATES),
                rng.randrange(PROBE_GATES), out)
        for net in gate[1:3]:
            fanout.setdefault(net, []).append(gate)
    return fanout


FANOUT = _probe_netlist()


def _simulate(events: int) -> int:
    values = [0] * PROBE_GATES
    queue = [(0, net) for net in range(0, PROBE_GATES, 7)]
    heapq.heapify(queue)
    done = 0
    while queue and done < events:
        now, net = heapq.heappop(queue)
        values[net] ^= 1
        done += 1
        for kind, first, second, out in FANOUT.get(net, ()):
            a, b = values[first], values[second]
            value = a & b if kind == 0 else a | b if kind == 1 else a ^ b
            if value != values[out]:
                heapq.heappush(queue, (now + 1 + (out & 3), out))
    return done


def probe() -> float:
    """Seconds the fixed probe task takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        begin = time.perf_counter()
        done = _simulate(PROBE_EVENTS)
        elapsed = time.perf_counter() - begin
    finally:
        if enabled:
            gc.enable()
    if done != PROBE_EVENTS:
        raise RuntimeError(f"speed probe ran {done} of {PROBE_EVENTS} "
                           "events")
    return elapsed


def probe_at_once(copies: int) -> float:
    """Mean seconds of ``copies`` probes run at once in forked children
    (one probe in this process when ``copies`` is 1)."""
    if copies <= 1:
        return probe()
    children = []
    for _ in range(copies):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read)
                os.write(write, repr(probe()).encode())
            finally:
                os._exit(0)
        os.close(write)
        children.append((pid, read))
    times = []
    try:
        for _pid, read in children:
            with os.fdopen(read) as handle:
                times.append(float(handle.read()))
    finally:
        for pid, _read in children:
            os.waitpid(pid, 0)
    return sum(times) / len(times)


class HostSpeed:
    """The probe times taken during one phase of a run."""

    def __init__(self, copies: int = 1) -> None:
        self.copies = copies
        self.times: List[float] = []

    def sample(self, count: int = 1) -> None:
        self.times.extend(probe_at_once(self.copies) for _ in range(count))

    def scale(self) -> float:
        """Factor that turns this phase's host times into reference ones.

        The mean, not the median: probes are spread evenly over the
        phase, so their mean weighs a slow stretch as the operations'
        times do.
        """
        return REFERENCE_PROBE_S / (sum(self.times) / len(self.times))


def add_host_times(result: Result, times: Sequence[float], speed: HostSpeed,
                   setups: Sequence[float], setup_speed: HostSpeed,
                   work: float) -> None:
    """The run's host-time metrics, scaled to the reference speed:
    ``op_p50_ms`` and ``op_p99_ms`` per operation, ``work_per_s`` (``work``
    units per operation, over the whole run) and ``setup_s`` (median).
    The unscaled values go to ``result.info``."""
    factor, setup_factor = speed.scale(), setup_speed.scale()
    unscaled = {"op_p50_ms": median(times) * 1e3,
                "op_p99_ms": quantile(times, 0.99) * 1e3,
                "work_per_s": work * len(times) / sum(times),
                "setup_s": median(setups)}
    result.add("op_p50_ms", unscaled["op_p50_ms"] * factor, "ms")
    result.add("op_p99_ms", unscaled["op_p99_ms"] * factor, "ms")
    result.add("work_per_s", unscaled["work_per_s"] / factor, "1/s")
    result.add("setup_s", unscaled["setup_s"] * setup_factor, "s")
    result.info["host_speed"] = {
        "scale": factor, "setup_scale": setup_factor,
        "copies": speed.copies, "probe_s": speed.times,
        "setup_probe_s": setup_speed.times, "unscaled": unscaled}
