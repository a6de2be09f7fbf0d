"""Workload ``campaign``: a local compiled stuck-at campaign on mult16.

``parallel_fault_simulate(engine="compiled")`` runs at the CLI default
of one worker per core, and the kernel cache is cleared before every
campaign because a CLI user compiles on every run.  The kernel's
``run_fault`` dominates this workload and every forked worker compiles
the kernel again, so it is where the fault-cone and compile-before-fork
work shows.  It never touches ``rmi``, ``server`` or ``core``.

The seed selects one of ``campaign_pattern_sets`` seeded pattern sets;
each set's report digest from the event-engine serial oracle is
committed in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from typing import List, Optional, Tuple

from .common import (Result, Size, machine_signature, median, peak_rss_mb,
                     repeat_setup, usable_cores)
from . import layers
from .speed import PROBES_PER_SETUP, HostSpeed, add_host_times
from .trace import Tracer, client_plan

PROBES_PER_CAMPAIGN = 5


def reference_key(size: Size, pattern_set: int) -> str:
    return f"{size.campaign_bench}/{size.campaign_patterns}/{pattern_set}"


def build_inputs(size: Size, pattern_set: int):
    """(netlist, fault list, patterns): the campaign's set-up work."""
    from repro.core.signal import Logic
    from repro.faults import faultlist
    from repro.gates import corpus

    netlist = corpus.load_bench(size.campaign_bench)
    fault_list = faultlist.build_fault_list(netlist)
    rng = random.Random(pattern_set)
    patterns = [{net: Logic(rng.getrandbits(1)) for net in netlist.inputs}
                for _ in range(size.campaign_patterns)]
    return netlist, fault_list, patterns


def report_digest(report) -> str:
    """A digest of what makes two reports identical: fault count,
    detected faults with their first detecting pattern, and the
    per-pattern history (``repro.parallel.merge.diff_reports``)."""
    body = [report.total_faults, sorted(report.detected.items()),
            [sorted(newly) for newly in report.per_pattern]]
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()


def oracle_digest(size: Size, pattern_set: int) -> str:
    """The event-engine serial oracle's digest (slow on mult16)."""
    from repro.faults.serial import SerialFaultSimulator

    netlist, fault_list, patterns = build_inputs(size, pattern_set)
    report = SerialFaultSimulator(netlist, fault_list).run(patterns)
    return report_digest(report)


def _campaign(inputs, workers: Optional[int]):
    """One campaign as a CLI user runs it: compile, fan out, merge."""
    from repro import compiled
    from repro.parallel import faultsim

    netlist, fault_list, patterns = inputs
    compiled.clear_kernel_cache()
    begin = time.perf_counter()
    report = faultsim.parallel_fault_simulate(
        netlist, patterns, fault_list=fault_list, workers=workers,
        engine="compiled")
    return time.perf_counter() - begin, report


def _campaigns(inputs, seconds: float, expected: str, result: Result,
               speed: Optional[HostSpeed] = None) -> List[float]:
    """Campaigns back to back until ``seconds`` have passed, with the
    host-speed probe before each one when ``speed`` is given."""
    times: List[float] = []
    begin = time.perf_counter()
    while not times or time.perf_counter() - begin < seconds:
        if speed is not None:
            speed.sample(PROBES_PER_CAMPAIGN)
        elapsed, report = _campaign(inputs, None)
        result.check(report_digest(report) == expected,
                     "campaign report digest differs from the oracle")
        times.append(elapsed)
    return times


def fanout_efficiency(untraced_1: float, untraced_n: float,
                      workers: int) -> Tuple[Optional[float], List[str]]:
    """1-worker time / (workers x N-worker time), or skipped reasons.

    The bar cannot bind with one usable core (a cpuset or affinity mask
    of one), even when the pool forks one worker per core of the host.
    """
    if usable_cores() <= 1:
        return None, ["parallel.fanout_efficiency: one usable core"]
    if workers <= 1:
        return None, ["parallel.fanout_efficiency: one worker"]
    return untraced_1 / (workers * untraced_n), []


def run(size: Size, seed: int, seconds: float, traced: bool,
        reference: dict) -> Result:
    from repro.parallel import resolve_workers

    result = Result("campaign", seed, traced)
    pattern_set = seed % size.campaign_pattern_sets
    workers = resolve_workers(None)
    result.info["signature"] = machine_signature(workers)
    result.info["pattern_set"] = pattern_set
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install(client_plan)
        tracer.name_lane("benchmark main")

    # The pool runs ``workers`` processes at once; so does the probe.
    speed, setup_speed = HostSpeed(workers), HostSpeed()
    setups, inputs = repeat_setup(
        size, lambda: build_inputs(size, pattern_set), tracer,
        after=None if tracer else
        lambda: setup_speed.sample(PROBES_PER_SETUP))
    key = reference_key(size, pattern_set)
    expected = reference.get("campaign", {}).get(key)
    if expected is None:
        result.check(False, f"no committed reference for {key}")

    if not tracer:
        times = _campaigns(inputs, seconds, expected, result, speed)
        faults, patterns = len(inputs[1]), len(inputs[2])
        add_host_times(result, times, speed, setups, setup_speed,
                       faults * patterns)
        result.add("peak_rss_mb", peak_rss_mb(), "MB")
        result.info["campaign_times_s"] = times
        return result

    # Traced run: a one-worker campaign for the fan-out efficiency,
    # then untraced and traced N-worker campaigns in turn, so tracing
    # overhead compares two medians taken over the same stretch.
    tracer.uninstall()
    untraced_1, report = _campaign(inputs, 1)
    result.check(report_digest(report) == expected,
                 "one-worker campaign report digest differs")
    untraced: List[float] = []
    times: List[float] = []
    start = time.perf_counter()
    while len(times) < 2 or time.perf_counter() - start < seconds:
        untraced += _campaigns(inputs, 0.0, expected, result)
        tracer.install(client_plan)
        begin = time.perf_counter()
        times += _campaigns(inputs, 0.0, expected, result)
        end = time.perf_counter()
        tracer.uninstall()
        tracer.phase("measure", begin, end)

    index = layers.SpanIndex(tracer.spans)
    layers.add_layer_metrics(
        result, index, tracer.phases["measure"], tracer.phases["setup"],
        {(os.getpid(), threading.get_ident())})
    efficiency, skipped = fanout_efficiency(untraced_1, median(untraced),
                                            workers)
    result.add("parallel.fanout_efficiency", efficiency or 0.0, "ratio")
    result.add("trace.untraced_unit_s", median(untraced), "s")
    result.add("trace.traced_unit_s", median(times), "s")
    result.add("trace.overhead_s", median(times) - median(untraced), "s")
    result.info["skipped"] = skipped
    result.info["campaign_times_s"] = times
    result.info["untraced_campaign_s"] = {"workers_n": untraced,
                                          "workers_1": untraced_1}
    result.info["lanes"] = layers.lane_report(index, tracer.lane_names)
    result.info["tracer"] = tracer
    return result
