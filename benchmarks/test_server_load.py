"""Concurrent-load benchmark for the async multi-tenant server.

Opens ``REPRO_SERVER_SESSIONS`` (default 32) concurrent authenticated
sessions against :class:`repro.server.AsyncRMIServer`, has every
session issue a burst of RMI calls, and records p50/p99 latency plus
aggregate throughput into ``BENCH_server_load.json``.  The same load
is replayed against the legacy blocking thread-per-connection server
as a baseline, so the report shows what the async front end buys (or
costs) under fan-in.

The servant is deliberately tiny: the benchmark measures the serving
stacks -- framing, queueing, dispatch hand-off -- not gate simulation.
"""

import json
import os
import random
import threading
import time

from repro.bench import write_bench_report
from repro.core.signal import Logic
from repro.parallel.remote import (remote_fault_simulate, report_to_wire,
                                   resolve_bench)
from repro.rmi import TcpTransport
from repro.rmi.server import JavaCADServer
from repro.server import DISPATCH_TIERS, AsyncRMIServer
from repro.server.farm import fault_farm_session_factory

SESSIONS = int(os.environ.get("REPRO_SERVER_SESSIONS", "32"))
CALLS_PER_SESSION = int(os.environ.get("REPRO_SERVER_CALLS", "25"))
TENANTS = int(os.environ.get("REPRO_SERVER_TENANTS", "4"))
TENANT_BENCH = os.environ.get("REPRO_SERVER_TENANT_BENCH", "alu8")
TENANT_PATTERNS = int(os.environ.get("REPRO_SERVER_TENANT_PATTERNS",
                                     "24"))
TOKEN = "bench-load"
PROCESS_SPEEDUP_FLOOR = 2.0


class Probe:
    """Constant-work servant so latency reflects the serving stack."""

    def ping(self, value):
        return value + 1


def probe_session():
    session = JavaCADServer("bench.load.session")
    session.bind("probe", Probe(), ["ping"])
    return session


def percentile(sorted_values, fraction):
    index = round(fraction * (len(sorted_values) - 1))
    return sorted_values[index]


def drive_load(host, port, *, token=None):
    """Fan SESSIONS concurrent clients in; return latencies + wall."""
    latencies = []
    failures = []
    lock = threading.Lock()
    barrier = threading.Barrier(SESSIONS + 1)

    def client(index):
        try:
            # Wide connect timeout: SESSIONS client threads contend
            # for the GIL in this one process, so the fail-fast
            # default would misfire on a healthy loopback server.
            transport = TcpTransport(host, port, token=token,
                                     connect_timeout=30.0)
            transport.connect()
            barrier.wait(timeout=30)
            mine = []
            for call in range(CALLS_PER_SESSION):
                begin = time.perf_counter()
                result = transport.invoke("probe", "ping", (call,), {})
                mine.append(time.perf_counter() - begin)
                assert result == call + 1
            transport.close()
            with lock:
                latencies.extend(mine)
        except Exception as exc:
            with lock:
                failures.append((index, exc))
            try:
                barrier.abort()
            except Exception:
                pass

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(SESSIONS)]
    for thread in threads:
        thread.start()
    try:
        barrier.wait(timeout=30)  # all sessions connect before timing
    except threading.BrokenBarrierError:
        pass  # a client failed; surface it via `failures` below
    begin = time.perf_counter()
    for thread in threads:
        thread.join(timeout=120)
    wall = time.perf_counter() - begin
    assert not failures, failures[:3]
    assert len(latencies) == SESSIONS * CALLS_PER_SESSION
    return sorted(latencies), wall


def stack_summary(latencies, wall):
    calls = len(latencies)
    return {
        "calls": calls,
        "throughput_calls_per_second": round(calls / wall, 1),
        "wall_seconds": round(wall, 4),
        "p50_ms": round(percentile(latencies, 0.50) * 1e3, 3),
        "p99_ms": round(percentile(latencies, 0.99) * 1e3, 3),
        "max_ms": round(latencies[-1] * 1e3, 3),
    }


def test_server_load(benchmark):
    server = AsyncRMIServer(session_factory=probe_session,
                            auth_token=TOKEN,
                            max_connections=SESSIONS + 8)
    host, port = server.start()
    try:
        latencies, wall = benchmark.pedantic(
            drive_load, args=(host, port), kwargs={"token": TOKEN},
            rounds=1, iterations=1)
        stats = server.stats.snapshot()
    finally:
        server.stop()

    assert stats["connections_peak"] >= SESSIONS
    assert stats["sessions_started"] == SESSIONS
    assert stats["auth_failures"] == 0
    assert stats["calls_served"] == SESSIONS * CALLS_PER_SESSION

    blocking = JavaCADServer("bench.load.blocking")
    blocking.bind("probe", Probe(), ["ping"])
    bhost, bport = blocking.serve_tcp("127.0.0.1", 0)
    try:
        blocking_latencies, blocking_wall = drive_load(bhost, bport)
    finally:
        blocking.stop_tcp()

    async_summary = stack_summary(latencies, wall)
    blocking_summary = stack_summary(blocking_latencies, blocking_wall)
    print()
    print(f"{SESSIONS} concurrent sessions x {CALLS_PER_SESSION} calls")
    for name, summary in (("async+auth", async_summary),
                          ("blocking", blocking_summary)):
        print(f"{name}: p50 {summary['p50_ms']}ms "
              f"p99 {summary['p99_ms']}ms "
              f"{summary['throughput_calls_per_second']} calls/s")

    path = _write_merged_report({
        "sessions": SESSIONS,
        "calls_per_session": CALLS_PER_SESSION,
        "auth": True,
        "async_server": async_summary,
        "async_server_stats": stats,
        "blocking_server": blocking_summary,
    })
    print(f"wrote {path}")


def _write_merged_report(payload):
    """Merge into BENCH_server_load.json instead of clobbering it.

    The fan-in test and the dispatch-scaling test each contribute rows
    to the same report; whichever runs second must keep the other's.
    """
    directory = os.environ.get("REPRO_BENCH_DIR", ".")
    path = os.path.join(directory, "BENCH_server_load.json")
    merged = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                merged = json.load(handle)
        except (OSError, ValueError):
            merged = {}
    merged.update(payload)
    return write_bench_report("server_load", merged)


def tenant_campaign(seed):
    netlist = resolve_bench(TENANT_BENCH)
    rng = random.Random(seed)
    return [{net: Logic(rng.getrandbits(1)) for net in netlist.inputs}
            for _ in range(TENANT_PATTERNS)]


def drive_tenants(tier):
    """TENANTS concurrent CPU-bound farm campaigns; return wall time.

    Each tenant runs its own single-shard fault campaign -- pure
    servant CPU on the server side -- so aggregate wall time measures
    how much simulation the tier can overlap, not framing overhead.
    """
    server = AsyncRMIServer(
        session_factory=fault_farm_session_factory(),
        dispatch=tier, dispatch_workers=TENANTS,
        max_connections=TENANTS + 4)
    host, port = server.start()
    reports = {}
    failures = []
    barrier = threading.Barrier(TENANTS + 1)

    def tenant(index):
        try:
            patterns = tenant_campaign(index)
            barrier.wait(timeout=60)
            reports[index] = report_to_wire(remote_fault_simulate(
                TENANT_BENCH, patterns, [f"{host}:{port}"],
                workers=1))
        except Exception as exc:
            failures.append((index, exc))
            try:
                barrier.abort()
            except Exception:
                pass

    threads = [threading.Thread(target=tenant, args=(index,))
               for index in range(TENANTS)]
    for thread in threads:
        thread.start()
    try:
        barrier.wait(timeout=60)
    except threading.BrokenBarrierError:
        pass
    begin = time.perf_counter()
    for thread in threads:
        thread.join(timeout=600)
    wall = time.perf_counter() - begin
    server.stop()
    assert not failures, failures[:3]
    assert len(reports) == TENANTS
    return reports, wall


def test_dispatch_tier_scaling():
    """Thread vs process tier for CPU-bound multi-tenant load.

    The thread tier shares the GIL; the process tier should approach
    TENANTS-way overlap on enough cores.  The >=2x acceptance bar is a
    true parallelism claim, so (like the parallel speedup benchmark) it
    only binds on >= 4 cores, and the JSON says when it was skipped;
    the byte-identity claim binds everywhere.
    """
    cores = os.cpu_count() or 1
    walls = {}
    reports = {}
    for tier in DISPATCH_TIERS:
        reports[tier], walls[tier] = drive_tenants(tier)

    # Both tiers must produce identical per-tenant reports (the thread
    # tier is byte-identical to fresh-process serial runs by the
    # differential suite, so equality here chains to serial).
    assert reports["process"] == reports["thread"]

    throughput = {tier: round(TENANTS / wall, 3)
                  for tier, wall in walls.items()}
    speedup = {tier: round(walls["thread"] / wall, 3) if wall else 0.0
               for tier, wall in walls.items()}
    bar = (f">= {PROCESS_SPEEDUP_FLOOR}x" if cores >= 4
           else f"skipped: {cores} cores < 4")
    print()
    print(f"{TENANTS} CPU-bound tenants x {TENANT_PATTERNS} "
          f"{TENANT_BENCH} patterns on {cores} cores")
    for tier in DISPATCH_TIERS:
        print(f"{tier}: {walls[tier]:.2f}s "
              f"({throughput[tier]} campaigns/s, "
              f"{speedup[tier]:.2f}x vs thread)")
    print(f"process speedup bar: {bar}")

    path = _write_merged_report({
        "dispatch_scaling": {
            "tenants": TENANTS,
            "bench": TENANT_BENCH,
            "patterns_per_tenant": TENANT_PATTERNS,
            "cores": cores,
            "wall_seconds": {tier: round(wall, 4)
                             for tier, wall in walls.items()},
            "campaigns_per_second": throughput,
            "speedup_vs_thread": speedup,
            "process_speedup_bar": bar,
            "reports_identical": True,
        },
    })
    print(f"wrote {path}")

    if cores >= 4:
        assert speedup["process"] >= PROCESS_SPEEDUP_FLOOR, (
            f"expected >= {PROCESS_SPEEDUP_FLOOR}x over the thread tier "
            f"on {cores} cores, measured {speedup['process']}x")
