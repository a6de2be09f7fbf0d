"""Workload ``cosim``: the paper's Table 2 on the event-engine provider.

Seven rows (AL; ER and MR over localhost, LAN and WAN) run through the
program's ``run_scenario`` over the in-process transport and the
virtual clock, in ``run_table2`` order.  This exercises the ``core``
backplane, ``rmi`` marshalling, the ``ip`` servants and the provider's
``power``/``gates`` toggle model, and none of ``compiled``,
``parallel`` or ``server``: a kernel or server change must leave it
unmoved.  Provider characterization (``shared_provider``) is set-up.

``run_scenario`` takes no stimulus seed, so the benchmark seed selects
the stimulus length (``cosim_min_patterns`` plus ``seed`` modulo
``cosim_lengths``) of the program's own seeded random stream.  Events,
remote calls and powers of every row for each length are committed in
``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from typing import Dict, List, Optional

from .common import (Result, Size, machine_signature, median, peak_rss_mb,
                     repeat_setup)
from . import layers
from .speed import PROBES_PER_SETUP, HostSpeed, add_host_times
from .trace import Tracer, client_plan


def stimulus_lengths(size: Size) -> List[int]:
    return [size.cosim_min_patterns + offset
            for offset in range(size.cosim_lengths)]


def reference_key(size: Size, length: int) -> str:
    return f"{size.cosim_width}/{length}"


def set_up(size: Size) -> None:
    """Characterize the provider afresh (what a first Table 2 pays)."""
    from repro.bench import scenarios

    scenarios.shared_provider.cache_clear()
    scenarios.shared_provider(size.cosim_width, True)


def table2_rows():
    """(scenario, network) of the seven Table 2 rows, in paper order."""
    from repro.net.model import LAN, LOCALHOST, WAN

    return [("AL", LOCALHOST)] + [(mode, network)
                                  for network in (LOCALHOST, LAN, WAN)
                                  for mode in ("ER", "MR")]


def run_row(size: Size, length: int, mode: str, network):
    from repro.bench import scenarios

    return scenarios.run_scenario(mode, network, size.cosim_width, length,
                                  collect_powers=True)


def run_rows(size: Size, length: int):
    """The seven Table 2 rows, in paper order."""
    return [run_row(size, length, mode, network)
            for mode, network in table2_rows()]


def row_outputs(rows) -> List[Dict[str, object]]:
    """What the gate compares: events, remote calls, power digest."""
    outputs = []
    for row in rows:
        powers = json.dumps([repr(power) for power in row.powers or []])
        outputs.append({"row": f"{row.scenario}/{row.host}",
                        "events": row.events,
                        "remote_calls": row.remote_calls,
                        "powers": hashlib.sha256(
                            powers.encode()).hexdigest()})
    return outputs


def _passes(size: Size, length: int, seconds: float, expected,
            result: Result, speed: Optional[HostSpeed] = None):
    """Table 2 passes until ``seconds`` have passed, with the host-speed
    probe before each row when ``speed`` is given; returns the host
    seconds of every pass and of every row, and the first pass's rows."""
    times: List[float] = []
    row_times: List[float] = []
    first = None
    begin = time.perf_counter()
    while not times or time.perf_counter() - begin < seconds:
        rows = []
        for mode, network in table2_rows():
            if speed is not None:
                speed.sample()
            start = time.perf_counter()
            rows.append(run_row(size, length, mode, network))
            row_times.append(time.perf_counter() - start)
        elapsed = sum(row_times[-len(rows):])
        outputs = row_outputs(rows)
        for got, want in zip(outputs, expected or outputs):
            result.check(got == want,
                         f"cosim row {got['row']} differs from the "
                         f"reference: {got} != {want}")
        first = first or rows
        times.append(elapsed)
    return times, row_times, first


def run(size: Size, seed: int, seconds: float, traced: bool,
        reference: dict) -> Result:
    result = Result("cosim", seed, traced)
    length = stimulus_lengths(size)[seed % size.cosim_lengths]
    result.info["signature"] = machine_signature(1)
    result.info["patterns"] = length
    expected = reference.get("cosim", {}).get(reference_key(size, length))
    if expected is None:
        result.check(False, f"no committed reference for "
                            f"{reference_key(size, length)}")
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install(client_plan)
        tracer.name_lane("benchmark main")

    speed, setup_speed = HostSpeed(), HostSpeed()
    setups, _ = repeat_setup(
        size, lambda: set_up(size), tracer,
        after=None if tracer else
        lambda: setup_speed.sample(PROBES_PER_SETUP))

    if not tracer:
        times, row_times, first = _passes(size, length, seconds, expected,
                                          result, speed)
        events = sum(row.events for row in first)
        add_host_times(result, times, speed, setups, setup_speed, events)
        result.add("peak_rss_mb", peak_rss_mb(), "MB")
        result.info["pass_times_s"] = times
        result.info["row_times_s"] = row_times
        return result

    # Untraced and traced passes in turn, so tracing overhead compares
    # two medians taken over the same stretch.
    tracer.uninstall()
    untraced: List[float] = []
    times: List[float] = []
    start = time.perf_counter()
    while len(times) < 2 or time.perf_counter() - start < seconds:
        untraced += _passes(size, length, 0.0, expected, result)[0]
        tracer.install(client_plan)
        begin = time.perf_counter()
        traced_times, _, first = _passes(size, length, 0.0, expected,
                                         result)
        end = time.perf_counter()
        tracer.uninstall()
        tracer.phase("measure", begin, end)
        times += traced_times

    index = layers.SpanIndex(tracer.spans)
    layers.add_layer_metrics(result, index, tracer.phases["measure"],
                             tracer.phases["setup"],
                             {(os.getpid(), threading.get_ident())})
    # Simulated real time is deterministic per stimulus length: a
    # host-speed-only change leaves it identical.
    result.add("cosim.virtual_real_s", sum(row.real for row in first), "s")
    result.add("rmi.round_trips", sum(row.round_trips for row in first),
               "count")
    result.add("rmi.wire_bytes", sum(row.remote_bytes for row in first),
               "bytes")
    result.add("trace.untraced_unit_s", median(untraced), "s")
    result.add("trace.traced_unit_s", median(times), "s")
    result.add("trace.overhead_s", median(times) - median(untraced), "s")
    result.info["pass_times_s"] = times
    result.info["untraced_pass_times_s"] = untraced
    result.info["lanes"] = layers.lane_report(index, tracer.lane_names)
    result.info["tracer"] = tracer
    return result
