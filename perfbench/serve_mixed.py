"""Workload ``serve_mixed``: interactive and batch tenants on one server.

``repro serve --width 8 --engine compiled --auth-token ...`` runs in a
subprocess at the default dispatch tier.  One load-generator process
drives it over two connections at once:

* an **open-loop interactive stream** of ER-shaped
  ``MultFastLowPower.power.power_buffer`` calls, each carrying
  ``PAIRS`` pattern pairs (the paper's buffer).  It steps through
  a fixed ladder of rates; each call is timed from when it was *due*,
  so a stall also delays the calls queued behind it;
* a **closed-loop batch tenant** running
  ``remote_fault_simulate(FARM_BENCH, serve_patterns, engine=
  "compiled")`` campaigns back to back on the same server.

The interactive tail beside the batch tenant is what serializing
dispatch across tenants costs; interactive traffic alone would not show
it.  This is also the only workload that crosses a real socket, the
async server and the remote farm.

Correctness: every farm report must equal the local event-engine serial
report, and every ``power_buffer`` reply (and the powers it buffered)
must match an in-process ``PowerServant`` fed the same calls.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from .common import (OUT_DIR, ROOT, Result, Size, machine_signature,
                     median, peak_rss_mb, quantile, repeat_setup)
from . import layers
from .speed import PROBES_PER_SETUP, HostSpeed
from .trace import Tracer, client_plan, load_spans

TOKEN = "perfbench-serve-token"
POWER_OBJECT = "MultFastLowPower.power"
WIDTH = 8
"""Operand width of the served multiplier."""
PAIRS = 5
"""Pattern pairs per interactive ``power_buffer`` call."""
FARM_BENCH = "alu8"
"""The batch tenant's fault-farm netlist."""
P99_LIMIT_MS = 60.0
"""Interactive p99 limit of ``load.interactive_max_rps``: met at the
lowest rung and missed at the top rung by the program this benchmark
was first measured on."""
LAUNCHER = os.path.join(ROOT, "perfbench", "launch_server.py")
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


class Server:
    """One ``repro serve`` subprocess started through the launcher."""

    def __init__(self, traced: bool, tag: str):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.out = os.path.join(OUT_DIR, f"server-{tag}.json")
        command = [sys.executable, LAUNCHER, "--out", self.out]
        if traced:
            command.append("--trace")
        command += ["--", "serve", "--width", str(WIDTH),
                    "--engine", "compiled", "--auth-token", TOKEN,
                    "--port", "0"]
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT)
        self.host, self.port = self._await_ready()

    def _await_ready(self) -> Tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT
        stream = self.process.stdout.fileno()
        output = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select(
                [stream], [], [], max(0.0, deadline - time.monotonic()))
            chunk = os.read(stream, 4096) if ready else b""
            if not chunk:
                break
            output += chunk
            match = re.search(rb"serving .* on ([\d.]+):(\d+)", output)
            if match:
                return match.group(1).decode(), int(match.group(2))
        self.kill()
        raise RuntimeError("repro serve did not start: "
                           + output.decode(errors="replace"))

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self) -> Dict[str, Any]:
        """SIGINT, wait, and return the launcher's stats and spans."""
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        with open(self.out) as handle:
            payload = json.load(handle)
        os.remove(self.out)
        payload["spans"] = load_spans(payload["spans"])
        return payload

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()


def start_server(traced: bool, tag: str) -> Server:
    """Start a server and wait until it accepts an authenticated client."""
    from repro.rmi.transport import TcpTransport

    server = Server(traced, tag)
    try:
        probe = TcpTransport(server.host, server.port, token=TOKEN)
        probe.connect()
        probe.close()
    except BaseException:
        server.kill()
        raise
    return server


# ----------------------------------------------------------------------
# Tenants
# ----------------------------------------------------------------------

@dataclass
class Call:
    rung: int
    session: str
    pairs: List[List[int]]
    due: float
    done: float
    late: float
    reply: Any = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class Rung:
    rate: float
    start: float
    end: float
    calls: List[Call] = field(default_factory=list)
    unsent_waits: List[float] = field(default_factory=list)

    def latencies(self) -> List[float]:
        """Per due request: latency from due time; unsent ones count
        the wait they had at the rung's end; failed ones never meet a
        limit."""
        values = [math.inf if call.error else call.latency
                  for call in self.calls]
        return values + self.unsent_waits


def rung_schedule(size: Size, begin: float, seconds: float) -> List[Rung]:
    """The rate ladder: a long base rung, then equal higher rungs."""
    base = seconds * size.serve_base_share
    rest = (seconds - base) / max(1, len(size.serve_rates) - 1)
    rungs, start = [], begin
    for index, rate in enumerate(size.serve_rates):
        length = base if index == 0 else rest
        rungs.append(Rung(rate, start, start + length))
        start += length
    return rungs


def interactive(server: Server, seed: int, rungs: List[Rung],
                tracer: Optional[Tracer],
                connection: List[Any]) -> None:
    """Open-loop power_buffer stream over one connection."""
    from repro.core.errors import RemoteError
    from repro.rmi.transport import TcpTransport

    if tracer:
        tracer.name_lane("interactive tenant")
    rng = random.Random(seed)
    transport = TcpTransport(server.host, server.port, token=TOKEN)
    transport.connect()
    connection.append(transport)
    for index, rung in enumerate(rungs):
        session = f"perfbench.{seed}.{index}"
        previous_done = rung.start
        sent = 0
        while True:
            due = rung.start + sent / rung.rate
            if due >= rung.end:
                break
            now = time.perf_counter()
            if now >= rung.end:
                rung.unsent_waits = [
                    rung.end - (rung.start + k / rung.rate)
                    for k in range(sent, math.ceil(
                        (rung.end - rung.start) * rung.rate))]
                break
            if now < due:
                time.sleep(due - now)
            pairs = [[rng.getrandbits(WIDTH), rng.getrandbits(WIDTH)]
                     for _ in range(PAIRS)]
            begin = time.perf_counter()
            call = Call(index, session, pairs, due, 0.0,
                        max(0.0, begin - max(due, previous_done)))
            try:
                call.reply = transport.invoke(POWER_OBJECT, "power_buffer",
                                              (session, pairs))
            except RemoteError as exc:
                call.error = str(exc)
            call.done = previous_done = time.perf_counter()
            rung.calls.append(call)
            sent += 1


def batch(server: Server, patterns, stop: threading.Event,
          tracer: Optional[Tracer], campaigns: List[Tuple]) -> None:
    """Closed-loop farm campaigns until ``stop`` is set."""
    from repro.parallel import remote

    from .campaign import report_digest

    if tracer:
        tracer.name_lane("batch tenant")
    while not stop.is_set():
        begin = time.perf_counter()
        try:
            report = remote.remote_fault_simulate(
                FARM_BENCH, patterns, [server.endpoint],
                engine="compiled", token=TOKEN)
            digest, error = report_digest(report), None
        except Exception as exc:  # noqa: BLE001 - counted as failed
            digest, error = None, f"{type(exc).__name__}: {exc}"
        campaigns.append((begin, time.perf_counter(), digest, error))


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def check_interactive(rungs: List[Rung], transport,
                      result: Result) -> None:
    """Replay every call on an in-process PowerServant and compare."""
    from repro.ip.provider import IPProvider

    provider = IPProvider("perfbench.reference")
    provider.publish_multiplier(WIDTH, engine="event")
    servant = provider.server.registry.lookup(POWER_OBJECT).servant
    for rung in rungs:
        if not rung.calls:
            continue
        session = rung.calls[0].session
        replies = [servant.power_buffer(session, call.pairs)
                   for call in rung.calls]
        expected = servant.fetch_results(session)
        served = transport.invoke(POWER_OBJECT, "fetch_results", (session,))
        for call, reply in zip(rung.calls, replies):
            if call.error:
                result.check(False, f"power_buffer failed: {call.error}")
                continue
            low = reply - len(call.pairs)
            result.check(call.reply == reply
                         and served[low:reply] == expected[low:reply],
                         f"power_buffer reply {call.reply!r} or its powers "
                         f"differ from the in-process servant")


def check_campaigns(campaigns, expected: str, result: Result) -> None:
    for _, _, digest, error in campaigns:
        result.check(digest == expected,
                     f"farm report differs from the local serial report "
                     f"({error or 'digest mismatch'})")


def serial_digest(patterns) -> str:
    """The local event-engine serial report digest of the farm work."""
    from repro.faults.faultlist import build_fault_list
    from repro.faults.serial import SerialFaultSimulator
    from repro.parallel.remote import resolve_bench

    from .campaign import report_digest

    netlist = resolve_bench(FARM_BENCH)
    report = SerialFaultSimulator(netlist,
                                  build_fault_list(netlist)).run(patterns)
    return report_digest(report)


def farm_patterns(size: Size, seed: int):
    from repro.core.signal import Logic
    from repro.gates import corpus

    netlist = corpus.load_bench(FARM_BENCH)
    rng = random.Random(seed)
    return [{net: Logic(rng.getrandbits(1)) for net in netlist.inputs}
            for _ in range(size.serve_patterns)]


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------

def _measure(server: Server, size: Size, seed: int, seconds: float,
             patterns, tracer: Optional[Tracer]):
    """Both tenants for ``seconds``; returns (rungs, campaigns, window,
    interactive transport)."""
    begin = time.perf_counter() + 0.05
    rungs = rung_schedule(size, begin, seconds)
    campaigns: List[Tuple] = []
    connection: List[Any] = []
    stop = threading.Event()
    threads = [
        threading.Thread(target=interactive, args=(
            server, seed, rungs, tracer, connection)),
        threading.Thread(target=batch, args=(
            server, patterns, stop, tracer, campaigns))]
    window_start = time.perf_counter()
    for thread in threads:
        thread.start()
    threads[0].join()
    stop.set()
    threads[1].join()
    window = (window_start, time.perf_counter())
    lanes = {(os.getpid(), thread.ident) for thread in threads}
    return rungs, campaigns, window, connection[0], lanes


def _ms(seconds: float) -> float:
    return seconds * 1e3 if math.isfinite(seconds) else 1e6


def _base_latencies(rungs: List[Rung]) -> Tuple[float, float]:
    base = rungs[0].latencies()
    return quantile(base, 0.5), quantile(base, 0.99)


def _max_rate(rungs: List[Rung], limit_ms: float) -> float:
    """Completed calls per second at the highest rung within the limit."""
    best = 0.0
    for rung in rungs:
        latencies = rung.latencies()
        oldest = max(rung.unsent_waits, default=0.0)
        if (latencies and _ms(quantile(latencies, 0.99)) <= limit_ms
                and _ms(oldest) <= limit_ms):
            best = len(rung.calls) / (rung.end - rung.start)
    return best


def run(size: Size, seed: int, seconds: float, traced: bool,
        reference: dict) -> Result:
    result = Result("serve_mixed", seed, traced)
    result.info["signature"] = machine_signature(1)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install(client_plan)
        tracer.name_lane("benchmark main")
    server_spans: List = []
    tags = itertools.count()

    def set_up() -> Tuple[Server, Any]:
        return (start_server(traced, f"{seed}-{next(tags)}"),
                farm_patterns(size, seed))

    setup_speed = HostSpeed()
    setups, (server, patterns) = repeat_setup(
        size, set_up, tracer,
        lambda earlier: server_spans.extend(earlier[0].stop()["spans"]),
        after=None if tracer else
        lambda: setup_speed.sample(PROBES_PER_SETUP))
    try:
        expected = serial_digest(patterns)

        rungs, campaigns, window, transport, lanes = _measure(
            server, size, seed, seconds, patterns, tracer)
        if tracer:
            tracer.phase("measure", *window)
            tracer.uninstall()
        check_interactive(rungs, transport, result)
        transport.close()
        check_campaigns(campaigns, expected, result)
        port = server.port
        stopped = server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()
    server_spans += stopped["spans"]
    result.info["server_stats"] = stopped["stats"]
    farm_window = (max(end for _, end, _, _ in campaigns) - window[0]
                   if campaigns else window[1] - window[0])
    p50, p99 = _base_latencies(rungs)
    result.info["rungs"] = [
        {"rate": rung.rate, "seconds": rung.end - rung.start,
         "completed": len(rung.calls), "unsent": len(rung.unsent_waits),
         "p50_ms": _ms(quantile(rung.latencies(), 0.5)),
         "p99_ms": _ms(quantile(rung.latencies(), 0.99))}
        for rung in rungs]
    result.info["campaigns"] = len(campaigns)
    result.info["interactive_max_rps"] = _max_rate(
        rungs, P99_LIMIT_MS)
    if not tracer:
        result.add("op_p50_ms", _ms(p50), "ms")
        result.add("op_p99_ms", _ms(p99), "ms")
        result.add("work_per_s", len(campaigns) / farm_window, "1/s")
        # Set-up is scaled to the reference host speed as in the other
        # workloads; the served load is not, as it leaves no quiet gap
        # to probe in.
        result.add("setup_s", median(setups) * setup_speed.scale(), "s")
        result.add("peak_rss_mb", peak_rss_mb(), "MB")
        result.info["host_speed"] = {
            "setup_scale": setup_speed.scale(),
            "setup_probe_s": setup_speed.times,
            "unscaled": {"setup_s": median(setups)}}
        return result

    _traced_metrics(result, tracer, server_spans, stopped, port, rungs,
                    window, lanes, transport, size, seed, seconds, patterns,
                    expected, p50)
    return result


def _traced_metrics(result: Result, tracer: Tracer, server_spans,
                    stopped, port: int, rungs, window, lanes, transport,
                    size: Size, seed: int, seconds: float, patterns,
                    expected: str, traced_p50: float) -> None:
    tracer.spans.extend(server_spans)
    index = layers.SpanIndex(tracer.spans)
    layers.add_layer_metrics(result, index, [window],
                             tracer.phases["setup"], lanes)
    spans = index.within([window])
    interactive_conn = tracer.connection_id(transport)
    frames = index.outermost(spans, "rmi.tcp_invoke")
    for kind, chosen in (
            ("interactive", [s for s in frames
                             if s[7]["conn"] == interactive_conn]),
            ("batch", [s for s in frames
                       if s[7]["conn"] != interactive_conn])):
        durations = [s[4] - s[3] for s in chosen]
        result.add(f"rmi.tcp_invoke_{kind}_p50_ms",
                   _ms(quantile(durations, 0.5)), "ms")
        result.add(f"rmi.tcp_invoke_{kind}_p99_ms",
                   _ms(quantile(durations, 0.99)), "ms")
    dispatches = index.outermost(spans, "server.dispatch")
    durations = [s[4] - s[3] for s in dispatches]
    result.add("server.dispatch_p50_ms", _ms(quantile(durations, 0.5)), "ms")
    result.add("server.dispatch_p99_ms", _ms(quantile(durations, 0.99)),
               "ms")
    result.add("server.dispatch_calls", len(dispatches), "count")
    pairs, report = correlate(index, stopped["pid"], port)
    outside = [(c[4] - c[3]) - (s[4] - s[3]) for c, s in pairs]
    result.add("server.outside_dispatch_p50_ms",
               _ms(quantile(outside, 0.5)), "ms")
    result.add("server.outside_dispatch_p99_ms",
               _ms(quantile(outside, 0.99)), "ms")
    result.info["correlation"] = report
    result.add("server.correlated_calls", len(pairs), "count")
    result.add("server.uncorrelated_calls",
               report["client_frames"] + report["server_dispatches"]
               - 2 * len(pairs), "count")
    result.add("load.interactive_max_rps",
               _max_rate(rungs, P99_LIMIT_MS), "1/s")
    for key, value in (stopped["stats"] or {}).items():
        result.add(f"server.stats.{key}", float(value), "count")
    lates = [call.late for rung in rungs for call in rung.calls]
    result.add("load.late_p99_ms", _ms(quantile(lates, 0.99)), "ms")

    # Overhead: the interactive p50 of a base rung of the same length,
    # with the batch tenant running, against an untraced server.
    server = start_server(False, f"{seed}-untraced")
    try:
        rungs_u, campaigns_u, _, transport_u, _ = _measure(
            server, _base_only(size), seed,
            seconds * size.serve_base_share, patterns, None)
        check_interactive(rungs_u, transport_u, result)
        transport_u.close()
        check_campaigns(campaigns_u, expected, result)
    finally:
        server.stop()
    untraced_p50 = _base_latencies(rungs_u)[0]
    result.add("trace.untraced_unit_s", untraced_p50, "s")
    result.add("trace.traced_unit_s", traced_p50, "s")
    result.add("trace.overhead_s", traced_p50 - untraced_p50, "s")
    labels = dict(tracer.lane_names)
    for span in server_spans:
        labels.setdefault((span[5], span[6]), f"server pid {span[5]}")
    result.info["lanes"] = layers.lane_report(index, labels)
    result.info["tracer"] = tracer


def _base_only(size: Size) -> Size:
    return replace(size, serve_rates=size.serve_rates[:1],
                   serve_base_share=1.0)


def correlate(index, server_pid: int, port: int):
    """Join client frames to the server dispatches that served them.

    Connections map to server sessions by connect order (session ids
    are handed out in accept order); within a connection, replies come
    back in submission order, so the i-th client frame pairs with the
    i-th outermost dispatch of that session.
    """
    conns = [s[7]["conn"] for s in sorted(
        (s for s in index.spans
         if s[2] == "rmi.tcp_connect" and s[7]["port"] == port),
        key=lambda s: s[3])]
    client: Dict[int, List] = {}
    for span in index.outermost(index.spans, "rmi.tcp_invoke"):
        client.setdefault(span[7]["conn"], []).append(span)
    server: Dict[str, List] = {}
    for span in index.outermost(index.spans, "server.dispatch"):
        if span[5] == server_pid:
            server.setdefault(span[7]["session"], []).append(span)
    pairs, mismatched, unmatched_client = [], 0, 0
    matched_sessions = set()
    for rank, conn in enumerate(conns, start=1):
        session = next((name for name in server
                        if name.rsplit(".", 1)[-1] == str(rank)), None)
        frames = sorted(client.get(conn, []), key=lambda s: s[3])
        served = sorted(server.get(session, []), key=lambda s: s[3])
        if session is not None:
            matched_sessions.add(session)
        for frame, dispatch in zip(frames, served):
            if (frame[7]["method"] != dispatch[7]["method"]
                    or not frame[3] <= dispatch[3] <= dispatch[4]
                    <= frame[4]):
                mismatched += 1
                continue
            pairs.append((frame, dispatch))
        unmatched_client += max(0, len(frames) - len(served))
    report = {"pairs": len(pairs), "mismatched": mismatched,
              "unmatched_client_frames": unmatched_client,
              "client_frames": sum(len(v) for v in client.values()),
              "server_dispatches": sum(len(v) for v in server.values()),
              "unmatched_server_sessions": sorted(
                  set(server) - matched_sessions)}
    return pairs, report
