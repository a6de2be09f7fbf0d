"""Command-line interface: regenerate the paper's experiments.

Usage (also available as the ``repro-bench`` console script)::

    python -m repro.cli table1              # Table 1 estimator comparison
    python -m repro.cli table2              # Table 2 AL/ER/MR timings
    python -m repro.cli figure3             # Figure 3 buffer-size sweep
    python -m repro.cli figure4             # Figure 4/5 worked example
    python -m repro.cli faultsim FILE.bench # fault-simulate a netlist
    python -m repro.cli lint                # static design/servant lint
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import List, Optional

from .bench.reporting import ascii_plot, format_table

from .gates.corpus import corpus_names

BUILTIN_BENCHES = corpus_names()
"""Bench names the fault-simulation commands accept besides files
(the builtin corpus; see ``docs/corpus.md``)."""

SEQUENTIAL_BENCHES = corpus_names(kind="sequential")
"""The s-series subset of the corpus."""


def _load_bench(spec: str, validate: bool = True):
    """Load a ``.bench`` file or builtin corpus bench (either kind).

    Returns a :class:`~repro.gates.netlist.Netlist`, a
    :class:`~repro.gates.io.SequentialBench`, or ``None`` after
    printing an error.
    """
    from .core.errors import DesignError
    from .gates.corpus import load_bench

    try:
        return load_bench(spec, validate=validate)
    except DesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _load_netlist(spec: str, validate: bool = True,
                  context: str = "this command"):
    """Load a bench spec where only combinational input is legal."""
    from .gates.io import SequentialBench

    bench = _load_bench(spec, validate=validate)
    if isinstance(bench, SequentialBench):
        print(f"error: {spec!r} is a sequential bench "
              f"({bench.ff_count()} flip-flops); {context} simulates "
              f"combinational netlists only -- load sequential designs "
              f"with repro.gates.io.read_sequential_bench and run them "
              f"through repro.faults.sequential", file=sys.stderr)
        return None
    return bench


def _cmd_table1(args: argparse.Namespace) -> int:
    from .bench.table1 import run_table1

    rows = run_table1(width=args.width, eval_patterns=args.patterns)
    print("Table 1 -- power estimators for MULT "
          f"({args.width}-bit, {args.patterns} patterns):")
    print(format_table(
        ["Estimator", "Avg err %", "RMS err %", "cents/pattern",
         "CPU s/pattern"],
        [row.cells() for row in rows]))
    print("* remote estimator: network time is additionally "
          "unpredictable")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .parallel import resolve_workers, run_table2_parallel

    workers = resolve_workers(getattr(args, "workers", 0) or None)
    engine = getattr(args, "engine", "event")
    bench = getattr(args, "bench", None)
    if bench is not None:
        from .bench.scenarios import run_corpus_table2
        from .core.errors import DesignError

        try:
            rows = run_corpus_table2(bench, patterns=args.patterns,
                                     buffer_size=args.buffer,
                                     engine=engine)
        except DesignError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"Table 2 over bench {bench!r} -- {args.patterns} "
              f"patterns, buffer of {args.buffer}:")
        print(format_table(
            ["Design", "Host", "CPU time (s)", "Real time (s)"],
            [[row.scenario, row.host, f"{row.cpu:.0f}",
              f"{row.real:.0f}"] for row in rows]))
        return 0
    if workers > 1:
        rows = run_table2_parallel(width=args.width,
                                   patterns=args.patterns,
                                   buffer_size=args.buffer,
                                   workers=workers, engine=engine)
    else:
        from .bench.scenarios import run_table2

        rows = run_table2(width=args.width, patterns=args.patterns,
                          buffer_size=args.buffer, engine=engine)
    print(f"Table 2 -- {args.patterns} patterns, buffer of "
          f"{args.buffer}:")
    print(format_table(
        ["Design", "Host", "CPU time (s)", "Real time (s)"],
        [[row.scenario, row.host, f"{row.cpu:.0f}", f"{row.real:.0f}"]
         for row in rows]))
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    from .bench.scenarios import run_buffer_sweep

    percents = [1, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    series = run_buffer_sweep(percents, width=args.width,
                              patterns=args.patterns)
    print("Figure 3 -- real and CPU time vs pattern buffer size "
          "(ER over WAN, accurate-simulator call disabled):")
    print(format_table(["Buffer %", "Real (s)", "CPU (s)"],
                       [[pct, f"{real:.1f}", f"{cpu:.1f}"]
                        for pct, real, cpu in series]))
    print()
    print(ascii_plot([(pct, real) for pct, real, _ in series],
                     label="wall clock time"))
    return 0


def _cmd_figure4(_args: argparse.Namespace) -> int:
    from .bench.faultbench import build_figure4
    from .core.signal import Logic

    setup = build_figure4(collapse="none")
    table = setup.servant.detection_table([Logic.ONE, Logic.ZERO],
                                          setup.fault_list.names())
    print("Figure 4 -- IP1 detection table for (IIP1, IIP2) = (1, 0):")
    print(format_table(
        ["Faulty output (OIP1, OIP2)", "Fault list"],
        [["".join(str(int(b)) for b in pattern),
          ", ".join(sorted(n for n in names if "->" not in n))]
         for pattern, names in sorted(
             table.rows.items(),
             key=lambda item: tuple(int(b) for b in item[0]))]))
    report = setup.simulator.run([{"A": 1, "B": 1, "C": 0, "D": 0}])
    print(f"\npattern ABCD=1100 detects I3sa0: "
          f"{'IP1:I3sa0' in report.detected}")
    fresh = build_figure4(collapse="none")
    report = fresh.simulator.run([{"A": 1, "B": 1, "C": 0, "D": 1}])
    print(f"pattern ABCD=1101 detects I3sa0: "
          f"{'IP1:I3sa0' in report.detected} "
          f"(and I4sa1: {'IP1:I4sa1' in report.detected})")
    return 0


def _cmd_faultsim_sequential(args: argparse.Namespace, bench) -> int:
    """Fault-simulate a sequential bench (one pattern per clock cycle).

    Runs the event-driven sequential serial simulator over the whole
    combinational core; the compiled PPSFP kernel, worker sharding and
    the remote farm are combinational-only, so those flags are rejected
    with a pointer at the sequential entry point.
    """
    from .core.signal import Logic
    from .faults.faultlist import build_fault_list
    from .faults.sequential import (SequentialSerialFaultSimulator,
                                    design_from_bench)

    rejected = []
    if args.engine != "event":
        rejected.append(f"--engine {args.engine}")
    if getattr(args, "remote", None):
        rejected.append("--remote")
    if getattr(args, "workers", 0):
        rejected.append("--workers")
    if rejected:
        flags = ', '.join(rejected)
        verb = "requires" if len(rejected) == 1 else "require"
        print(f"error: {args.netlist!r} is a sequential bench "
              f"({bench.ff_count()} flip-flops): {flags} "
              f"{verb} a combinational netlist; sequential campaigns "
              f"run serially through repro.faults.sequential "
              f"(read_sequential_bench -> design_from_bench -> "
              f"SequentialSerialFaultSimulator)", file=sys.stderr)
        return 2
    design = design_from_bench(bench)
    fault_list = build_fault_list(bench.core, collapse=args.collapse)
    rng = random.Random(args.seed)
    patterns = [{net: Logic(rng.getrandbits(1))
                 for net in design.primary_inputs}
                for _ in range(args.patterns)]
    simulator = SequentialSerialFaultSimulator(design, bench.core,
                                               fault_list)
    report = simulator.run(patterns)
    print(f"{args.netlist}: {bench.gate_count()} gates, "
          f"{bench.ff_count()} flip-flops, "
          f"{len(bench.primary_inputs)} inputs, "
          f"{len(bench.primary_outputs)} outputs")
    print(f"fault list over the core ({args.collapse}): "
          f"{len(fault_list)} faults, sequential event engine")
    print(f"{args.patterns} clock cycles -> "
          f"{report.detected_count}/{report.total_faults} detected "
          f"({report.coverage:.1%} coverage)")
    if args.history:
        history = report.coverage_history()
        print(ascii_plot(list(enumerate(history)),
                         label="coverage vs cycle"))
    if args.report_out:
        payload = {
            "netlist": args.netlist,
            "gates": bench.gate_count(),
            "flip_flops": bench.ff_count(),
            "collapse": args.collapse,
            "patterns": args.patterns,
            "seed": args.seed,
            "engine": "sequential-event",
            "workers": 1,
            "total_faults": report.total_faults,
            "detected": report.detected,
            "coverage": report.coverage,
            "undetected": sorted(report.undetected(fault_list.names())),
            "coverage_history": report.coverage_history(),
        }
        with open(args.report_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.report_out}")
    return 0


def _cmd_faultsim(args: argparse.Namespace) -> int:
    from .compiled import fault_simulator_for
    from .core.signal import Logic
    from .faults.faultlist import build_fault_list
    from .gates.io import SequentialBench
    from .parallel import parallel_fault_simulate, resolve_workers

    netlist = _load_bench(args.netlist)
    if netlist is None:
        return 2
    if isinstance(netlist, SequentialBench):
        return _cmd_faultsim_sequential(args, netlist)
    fault_list = build_fault_list(netlist, collapse=args.collapse)
    rng = random.Random(args.seed)
    patterns = [{net: Logic(rng.getrandbits(1))
                 for net in netlist.inputs}
                for _ in range(args.patterns)]
    remotes = getattr(args, "remote", None) or []
    workers = resolve_workers(getattr(args, "workers", 0) or None)
    if remotes and len(fault_list) > 1:
        from .parallel.remote import remote_fault_simulate

        report = remote_fault_simulate(
            args.netlist, patterns, remotes, collapse=args.collapse,
            netlist=netlist, fault_list=fault_list,
            workers=getattr(args, "workers", 0) or None,
            engine=args.engine,
            token=getattr(args, "remote_token", None),
            tls_ca=getattr(args, "remote_ca", None))
        workers = len(remotes)
    elif workers > 1 and len(fault_list) > 1:
        report = parallel_fault_simulate(netlist, patterns,
                                         fault_list=fault_list,
                                         workers=workers,
                                         engine=args.engine)
    else:
        workers = 1
        report = fault_simulator_for(args.engine, netlist,
                                     fault_list).run(patterns)
    print(f"{args.netlist}: {netlist.gate_count()} gates, "
          f"{len(netlist.inputs)} inputs, {len(netlist.outputs)} outputs")
    print(f"fault list ({args.collapse}): {len(fault_list)} faults, "
          f"{args.engine} engine")
    if remotes:
        print(f"farmed across {len(remotes)} remote endpoint(s): "
              f"{', '.join(remotes)}")
    elif workers > 1:
        print(f"sharded across {workers} workers")
    print(f"{args.patterns} random patterns -> "
          f"{report.detected_count}/{report.total_faults} detected "
          f"({report.coverage:.1%} coverage)")
    if args.history:
        history = report.coverage_history()
        print(ascii_plot(list(enumerate(history)),
                         label="coverage vs pattern"))
    if args.report_out:
        payload = {
            "netlist": args.netlist,
            "gates": netlist.gate_count(),
            "collapse": args.collapse,
            "patterns": args.patterns,
            "seed": args.seed,
            "engine": args.engine,
            "workers": workers,
            "total_faults": report.total_faults,
            "detected": report.detected,
            "coverage": report.coverage,
            "undetected": sorted(report.undetected(fault_list.names())),
            "coverage_history": report.coverage_history(),
        }
        with open(args.report_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.report_out}")
    return 0


def _serve_until_interrupted(serve_seconds: Optional[float]) -> None:
    import threading
    import time as _time

    if serve_seconds is not None:
        threading.Event().wait(serve_seconds)
    else:
        while True:
            _time.sleep(3600)


def _build_server_ssl(args: argparse.Namespace):
    """Build the server SSLContext from --tls-cert/--tls-key (or None).

    Returns ``(ok, context)``: flag misuse prints an error and reports
    ``ok=False``.
    """
    cert = getattr(args, "tls_cert", None)
    key = getattr(args, "tls_key", None)
    if cert is None and key is None:
        return True, None
    if not (cert and key):
        print("error: --tls-cert and --tls-key must be given together",
              file=sys.stderr)
        return False, None
    from .rmi.tlsconfig import server_ssl_context

    return True, server_ssl_context(cert, key)


def _cmd_faultworker(args: argparse.Namespace) -> int:
    """Serve fault-simulation shards to remote `faultsim --remote` runs."""
    if args.use_async or args.tls_cert or args.tls_key \
            or args.auth_token is not None or args.dispatch != "thread":
        return _cmd_faultworker_async(args)
    from .parallel.remote import register_fault_farm
    from .rmi.server import JavaCADServer

    server = JavaCADServer(f"faultfarm@{args.host}:{args.port}")
    register_fault_farm(server)
    host, port = server.serve_tcp(args.host, args.port)
    # The exact line CI and scripts wait for before dispatching work.
    print(f"fault farm worker serving on {host}:{port}", flush=True)
    try:
        _serve_until_interrupted(args.serve_seconds)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop_tcp()
        print("fault farm worker stopped", flush=True)
    return 0


def _cmd_faultworker_async(args: argparse.Namespace) -> int:
    """The faultworker on the asyncio multi-tenant front end.

    Selected by ``--async`` (or implicitly by any TLS/auth flag or a
    non-default ``--dispatch`` tier, which only this front end
    supports).  Every connection gets its own farm servant, so
    concurrent ``faultsim --remote`` clients cannot mix task state.
    """
    from .server import AsyncRMIServer
    from .server.farm import fault_farm_session_factory

    ok, ssl_context = _build_server_ssl(args)
    if not ok:
        return 2
    server = AsyncRMIServer(
        session_factory=fault_farm_session_factory(),
        host=args.host, port=args.port,
        max_connections=args.max_connections,
        auth_token=args.auth_token,
        ssl_context=ssl_context,
        idle_timeout=args.idle_timeout,
        dispatch=args.dispatch,
        name=f"faultfarm@{args.host}:{args.port}")
    host, port = server.start()
    # Same readiness line as the blocking worker, so scripts and CI
    # wait on one pattern regardless of front end.
    print(f"fault farm worker serving on {host}:{port}", flush=True)
    try:
        _serve_until_interrupted(args.serve_seconds)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        print(server.stats.summary_line(), flush=True)
        print("fault farm worker stopped", flush=True)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Host a full IP provider on the async multi-tenant server.

    Publishes the Figure 2 multiplier's estimator/timing/test servants
    once (they are read-only and shared across tenants) and gives every
    connection a private fault-farm servant plus its own id space --
    the paper's multi-client JavaCAD server.
    """
    from .ip.provider import IPProvider
    from .server import AsyncRMIServer
    from .server.farm import fault_farm_session_factory

    ok, ssl_context = _build_server_ssl(args)
    if not ok:
        return 2
    provider = IPProvider(f"serve@{args.host}:{args.port}")
    component = provider.publish_multiplier(args.width,
                                            engine=args.engine)
    server = AsyncRMIServer(
        session_factory=fault_farm_session_factory(
            shared=provider.server),
        host=args.host, port=args.port,
        max_connections=args.max_connections,
        auth_token=args.auth_token,
        ssl_context=ssl_context,
        idle_timeout=args.idle_timeout,
        dispatch=args.dispatch,
        name=f"serve@{args.host}:{args.port}")
    host, port = server.start()
    security = []
    if ssl_context is not None:
        security.append("tls")
    if args.auth_token is not None:
        security.append("token-auth")
    suffix = f" ({', '.join(security)})" if security else ""
    print(f"repro server serving {component!r} + fault farm on "
          f"{host}:{port}{suffix}", flush=True)
    try:
        _serve_until_interrupted(args.serve_seconds)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        print(server.stats.summary_line(), flush=True)
        print("repro server stopped", flush=True)
    return 0


def _cmd_atpg(args: argparse.Namespace) -> int:
    from .faults.faultlist import build_fault_list
    from .gates.io import SequentialBench
    from .gates.scoap import ScoapAnalysis
    from .parallel import parallel_generate_test_set, resolve_workers

    netlist = _load_bench(args.netlist)
    if netlist is None:
        return 2
    if isinstance(netlist, SequentialBench):
        # Full-scan assumption: with every flip-flop on a scan chain
        # the ATPG problem is combinational over the core (register
        # state is directly controllable and observable).
        print(f"{args.netlist}: sequential bench "
              f"({netlist.ff_count()} flip-flops) -- generating "
              f"full-scan tests over the combinational core")
        netlist = netlist.core
    fault_list = build_fault_list(netlist, collapse=args.collapse)
    workers = resolve_workers(getattr(args, "workers", 0) or None)
    if workers > 1 and len(fault_list) > 1:
        test_set = parallel_generate_test_set(
            netlist, fault_list, workers=workers,
            random_patterns=args.random_patterns, seed=args.seed,
            max_backtracks=args.max_backtracks, engine=args.engine)
    else:
        from .faults.atpg import generate_test_set

        test_set = generate_test_set(
            netlist, fault_list, random_patterns=args.random_patterns,
            seed=args.seed, max_backtracks=args.max_backtracks,
            engine=args.engine)
    print(f"{args.netlist}: {netlist.gate_count()} gates, "
          f"{len(fault_list)} target faults ({args.collapse})")
    print(f"test set: {len(test_set.patterns)} patterns, "
          f"coverage {test_set.coverage:.1%} "
          f"(testable coverage {test_set.testable_coverage:.1%})")
    if test_set.untestable:
        print(f"untestable (redundant) faults: "
              f"{', '.join(test_set.untestable)}")
    if test_set.aborted:
        print(f"aborted (backtrack limit): {len(test_set.aborted)}")
    analysis = ScoapAnalysis(netlist)
    hardest_net, effort = analysis.hardest_fault()
    print(f"SCOAP hardest site: {hardest_net} (effort {effort})")
    if args.show_patterns:
        inputs = netlist.inputs
        print("patterns (" + " ".join(inputs) + "):")
        for pattern in test_set.patterns:
            print("  " + " ".join(str(int(pattern[net]))
                                  for net in inputs))
    return 0


def _cmd_scoap(args: argparse.Namespace) -> int:
    from .gates.analysis import critical_path, netlist_stats
    from .gates.io import read_bench
    from .gates.scoap import ScoapAnalysis

    with open(args.netlist) as handle:
        netlist = read_bench(handle.read(), name=args.netlist)
    print(netlist_stats(netlist))
    print("critical path:", " -> ".join(critical_path(netlist)))
    analysis = ScoapAnalysis(netlist)
    rows = []
    for net in netlist.nets():
        numbers = analysis.numbers(net)
        rows.append([net, numbers.cc0, numbers.cc1,
                     numbers.co if numbers.co < 10 ** 9 else "inf",
                     max(numbers.testability_0, numbers.testability_1)])
    rows.sort(key=lambda row: (row[4] if isinstance(row[4], int)
                               else 10 ** 9), reverse=True)
    print()
    print(format_table(["Net", "CC0", "CC1", "CO", "worst effort"],
                       rows[:args.top]))
    return 0


def _cmd_wirebench(args: argparse.Namespace) -> int:
    """A deliberately chatty remote workload: the wire layer's showcase.

    Phase 1 is the chattiest Figure 2 configuration -- ER with a buffer
    of one, so every pattern is its own non-blocking push (batching
    fodder).  Phase 2 repeats pure calls (data-sheet reads, gate-level
    timing) on one connection (caching fodder).  Run it with
    ``--rmi-batch --rmi-cache --metrics-out`` to see the saved round
    trips; without the flags it shows the plain-wire baseline.
    """
    from .bench.scenarios import run_scenario, shared_provider
    from .ip.component import ProviderConnection
    from .ip.provider import TimingServant
    from .net.model import WAN

    scenario = run_scenario("ER", WAN, width=args.width,
                            patterns=args.patterns, buffer_size=1,
                            nonblocking=True)

    provider = shared_provider(args.width, True)
    connection = ProviderConnection(provider, WAN)
    timing = connection.stub("MultFastLowPower.timing",
                             TimingServant.REMOTE_METHODS)
    for _ in range(args.repeats):
        connection.describe("MultFastLowPower")
        timing.output_timing()
    connection.flush()
    pure_calls = connection.transport.stats.calls

    print(f"Wire benchmark -- ER/WAN, {args.patterns} patterns, "
          f"buffer of 1; {args.repeats} pure-call repeats:")
    print(format_table(
        ["Phase", "Logical calls", "Round trips"],
        [["chatty ER (oneway pushes)", scenario.remote_calls,
          scenario.round_trips],
         ["pure repeats (describe+timing)", pure_calls,
          connection.round_trips]]))
    total_calls = scenario.remote_calls + pure_calls
    total_trips = scenario.round_trips + connection.round_trips
    print(f"total: {total_calls} calls in {total_trips} round trips "
          f"({total_calls - total_trips} saved)")
    return 0


def _resolve_servant_spec(spec: str) -> Optional[str]:
    """A --servants spec: a path, or an importable module/package name."""
    if os.path.exists(spec):
        return spec
    import importlib.util

    try:
        found = importlib.util.find_spec(spec)
    except (ImportError, ValueError):
        found = None
    if found is not None and found.origin is not None:
        if found.submodule_search_locations:
            return os.path.dirname(found.origin)
        return found.origin
    print(f"error: {spec!r} is neither a path nor an importable "
          f"module", file=sys.stderr)
    return None


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static design lint + servant code analysis (no execution)."""
    from .core.errors import DesignError
    from .lint import (Severity, format_findings, lint_concurrency,
                       lint_netlist, lint_sources)
    from .lint.registry import check_codes, filter_suppressed
    from .lint.runner import record_lint_run

    suppress = args.suppress or []
    try:
        check_codes(suppress)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    concurrency_only = args.concurrency
    design_specs = [] if concurrency_only else (args.design or [])
    servant_specs = args.servants or []
    default_sweep = not design_specs and not servant_specs
    if default_sweep:
        # Default sweep: every builtin bench plus the installed
        # package's own sources (servant + concurrency rules).
        if not concurrency_only:
            design_specs = list(BUILTIN_BENCHES)
        servant_specs = [os.path.dirname(os.path.abspath(__file__))]

    findings = []
    from .gates.io import SequentialBench

    for spec in design_specs:
        try:
            netlist = _load_bench(spec, validate=False)
        except DesignError as exc:
            print(f"error: cannot load {spec!r}: {exc}", file=sys.stderr)
            return 2
        if netlist is None:
            return 2
        if isinstance(netlist, SequentialBench):
            # Sequential benches lint their combinational core; the
            # flip-flop boundary carries no lintable structure.
            netlist = netlist.core
        findings.extend(lint_netlist(netlist))
    sources = []
    for spec in servant_specs:
        resolved = _resolve_servant_spec(spec)
        if resolved is None:
            return 2
        sources.append(resolved)
    if sources:
        try:
            if not concurrency_only:
                findings.extend(lint_sources(sources))
            if concurrency_only or default_sweep:
                # The concurrency rules see all sources as one unit --
                # reachability only makes sense across module
                # boundaries.
                findings.extend(lint_concurrency(sources))
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    kept, dropped = filter_suppressed(findings, suppress)
    record_lint_run(kept, dropped)
    print(format_findings(kept, fmt=args.format))
    threshold = Severity.parse(args.fail_on)
    failing = any(item.severity >= threshold for item in kept)
    return 1 if failing else 0


def _cmd_all(args: argparse.Namespace) -> int:
    """A reduced-scale pass over every experiment, one screen each."""
    quick = args.quick
    print("=" * 66)
    print("Table 1 -- power estimators")
    print("=" * 66)
    _cmd_table1(argparse.Namespace(width=6 if quick else 8,
                                   patterns=80 if quick else 150))
    print()
    print("=" * 66)
    print("Table 2 -- AL / ER / MR scenarios")
    print("=" * 66)
    _cmd_table2(argparse.Namespace(width=8 if quick else 16,
                                   patterns=40 if quick else 100,
                                   buffer=5,
                                   workers=getattr(args, "workers", 0)))
    print()
    print("=" * 66)
    print("Figure 3 -- buffer-size sweep")
    print("=" * 66)
    from .bench.scenarios import run_buffer_sweep
    percents = [1, 5, 10, 25, 50, 100] if quick else \
        [1, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    series = run_buffer_sweep(percents, width=8 if quick else 16,
                              patterns=40 if quick else 100)
    print(format_table(["Buffer %", "Real (s)", "CPU (s)"],
                       [[pct, f"{real:.1f}", f"{cpu:.1f}"]
                        for pct, real, cpu in series]))
    print()
    print("=" * 66)
    print("Figures 4-5 -- virtual fault simulation")
    print("=" * 66)
    _cmd_figure4(argparse.Namespace())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the JavaCAD paper's experiments.")
    # Telemetry options shared by every subcommand (after the command):
    # repro-bench table2 --trace-out trace.json --metrics-out metrics.json
    telemetry = argparse.ArgumentParser(add_help=False)
    telemetry.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write a Chrome about:tracing trace of the run to FILE")
    telemetry.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write a JSON metrics snapshot of the run to FILE")
    telemetry.add_argument(
        "--rmi-batch", action="store_true", default=False,
        help="coalesce buffered oneway RMI calls into BATCH frames")
    telemetry.add_argument(
        "--rmi-cache", action="store_true", default=False,
        help="memoize pure remote calls in a client response cache")
    telemetry.add_argument(
        "--rmi-max-batch", type=int, metavar="N", default=None,
        help="auto-flush the batch queue at N queued calls")
    telemetry.add_argument(
        "--rmi-timeout", type=float, metavar="SECONDS", default=None,
        help="socket timeout for TCP RMI transports (default 5.0)")
    telemetry.add_argument(
        "--rmi-connect-timeout", type=float, metavar="SECONDS",
        default=None,
        help="timeout for the initial TCP connect and TLS/AUTH "
             "handshake (default 1.0; dead hosts fail this fast)")
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       parser_class=lambda **kw:
                                       argparse.ArgumentParser(
                                           parents=[telemetry], **kw))

    table1 = subparsers.add_parser(
        "table1", help="power-estimator comparison (Table 1)")
    table1.add_argument("--width", type=int, default=8)
    table1.add_argument("--patterns", type=int, default=150)
    table1.set_defaults(fn=_cmd_table1)

    table2 = subparsers.add_parser(
        "table2", help="AL/ER/MR timing scenarios (Table 2)")
    table2.add_argument("--width", type=int, default=16)
    table2.add_argument("--bench", default=None, metavar="BENCH",
                        help="run the scenarios over a corpus bench or "
                             ".bench file instead of the Figure 2 "
                             "multiplier (sequential benches thread "
                             "their register state client-side)")
    table2.add_argument("--patterns", type=int, default=100)
    table2.add_argument("--buffer", type=int, default=5)
    table2.add_argument("--engine", default="event",
                        choices=["event", "compiled"],
                        help="provider-side gate-simulation engine "
                             "(toggle power model, detection tables)")
    table2.add_argument("--workers", type=int, default=0, metavar="N",
                        help="run scenarios concurrently on N worker "
                             "processes (0 = one per CPU core)")
    table2.set_defaults(fn=_cmd_table2)

    figure3 = subparsers.add_parser(
        "figure3", help="buffer-size sweep (Figure 3)")
    figure3.add_argument("--width", type=int, default=16)
    figure3.add_argument("--patterns", type=int, default=100)
    figure3.set_defaults(fn=_cmd_figure3)

    figure4 = subparsers.add_parser(
        "figure4", help="half-adder fault-simulation example "
                        "(Figures 4-5)")
    figure4.set_defaults(fn=_cmd_figure4)

    faultsim = subparsers.add_parser(
        "faultsim", help="fault simulation of a .bench netlist "
                         "(serial or sharded across workers)")
    faultsim.add_argument("netlist",
                          help="ISCAS .bench file or builtin bench "
                               f"({', '.join(BUILTIN_BENCHES)})")
    faultsim.add_argument("--patterns", type=int, default=64)
    faultsim.add_argument("--seed", type=int, default=0)
    faultsim.add_argument("--collapse", default="equivalence",
                          choices=["none", "equivalence", "dominance"])
    faultsim.add_argument("--history", action="store_true",
                          help="plot incremental coverage")
    faultsim.add_argument("--workers", type=int, default=0, metavar="N",
                          help="shard the fault list across N worker "
                               "processes (0 = one per CPU core); with "
                               "--remote, scales the shard count instead")
    faultsim.add_argument("--remote", metavar="HOST:PORT",
                          action="append", default=None,
                          help="farm shards out to a remote fault-farm "
                               "worker (repeatable; start workers with "
                               "the faultworker subcommand)")
    faultsim.add_argument("--remote-token", metavar="TOKEN", default=None,
                          help="bearer token sent to --remote endpoints "
                               "as the connection's first frame (match "
                               "the worker's --auth-token)")
    faultsim.add_argument("--remote-ca", metavar="PEM", default=None,
                          help="CA bundle for TLS to --remote endpoints "
                               "(enables TLS; match the worker's "
                               "--tls-cert)")
    faultsim.add_argument("--engine", default="event",
                          choices=["event", "compiled"],
                          help="gate-simulation engine: the interpreted "
                               "event-driven path or the compiled "
                               "pattern-packed (PPSFP) kernel; reports "
                               "are identical either way")
    faultsim.add_argument("--report-out", metavar="FILE", default=None,
                          help="write the full report (detected map, "
                               "coverage, undetected) as JSON to FILE")
    faultsim.set_defaults(fn=_cmd_faultsim)

    faultworker = subparsers.add_parser(
        "faultworker", help="serve fault-simulation shards to remote "
                            "faultsim --remote clients")
    faultworker.add_argument("--host", default="127.0.0.1")
    faultworker.add_argument("--port", type=int, default=0,
                             help="TCP port to listen on (0 = pick a "
                                  "free port and print it)")
    faultworker.add_argument("--serve-seconds", type=float, default=None,
                             metavar="S",
                             help="exit after S seconds (default: serve "
                                  "until interrupted)")
    faultworker.add_argument("--async", dest="use_async",
                             action="store_true", default=False,
                             help="serve on the asyncio multi-tenant "
                                  "front end (per-connection sessions; "
                                  "implied by the TLS/auth flags)")
    faultworker.add_argument("--tls-cert", metavar="PEM", default=None,
                             help="serve TLS with this certificate "
                                  "chain (requires --tls-key)")
    faultworker.add_argument("--tls-key", metavar="PEM", default=None,
                             help="private key for --tls-cert")
    faultworker.add_argument("--auth-token", metavar="TOKEN",
                             default=None,
                             help="require this bearer token as every "
                                  "connection's first frame")
    faultworker.add_argument("--max-connections", type=int, default=64,
                             metavar="N",
                             help="refuse connections beyond N "
                                  "concurrent tenants (async front end; "
                                  "default 64)")
    faultworker.add_argument("--idle-timeout", type=float, default=None,
                             metavar="S",
                             help="drop connections idle for S seconds "
                                  "(async front end; default: never)")
    faultworker.add_argument("--dispatch", default="thread",
                             choices=["thread", "process"],
                             help="session dispatch tier: thread "
                                  "(shared thread pool, each session's "
                                  "calls in arrival order), process "
                                  "(forked workers, multi-core; implies "
                                  "--async)")
    faultworker.set_defaults(fn=_cmd_faultworker)

    serve = subparsers.add_parser(
        "serve", help="host the multiplier IP provider + fault farm on "
                      "the asyncio multi-tenant server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port to listen on (0 = pick a free "
                            "port and print it)")
    serve.add_argument("--width", type=int, default=8,
                       help="bit width of the published multiplier IP")
    serve.add_argument("--engine", default="event",
                       choices=["event", "compiled"],
                       help="provider-side gate-simulation engine")
    serve.add_argument("--serve-seconds", type=float, default=None,
                       metavar="S",
                       help="exit after S seconds (default: serve "
                            "until interrupted)")
    serve.add_argument("--tls-cert", metavar="PEM", default=None,
                       help="serve TLS with this certificate chain "
                            "(requires --tls-key)")
    serve.add_argument("--tls-key", metavar="PEM", default=None,
                       help="private key for --tls-cert")
    serve.add_argument("--auth-token", metavar="TOKEN", default=None,
                       help="require this bearer token as every "
                            "connection's first frame")
    serve.add_argument("--max-connections", type=int, default=64,
                       metavar="N",
                       help="refuse connections beyond N concurrent "
                            "tenants (default 64)")
    serve.add_argument("--idle-timeout", type=float, default=None,
                       metavar="S",
                       help="drop connections idle for S seconds "
                            "(default: never)")
    serve.add_argument("--dispatch", default="thread",
                       choices=["thread", "process"],
                       help="session dispatch tier: thread (shared "
                            "thread pool, each session's calls in "
                            "arrival order), process (forked workers, "
                            "multi-core)")
    serve.set_defaults(fn=_cmd_serve)

    atpg = subparsers.add_parser(
        "atpg", help="generate a stuck-at test set for a .bench netlist")
    atpg.add_argument("netlist",
                      help="ISCAS .bench file or builtin bench "
                           f"({', '.join(BUILTIN_BENCHES)})")
    atpg.add_argument("--random-patterns", type=int, default=32)
    atpg.add_argument("--seed", type=int, default=0)
    atpg.add_argument("--max-backtracks", type=int, default=20_000,
                      metavar="N",
                      help="PODEM backtrack budget per fault; faults "
                           "over budget are reported as aborted "
                           "(default 20000)")
    atpg.add_argument("--collapse", default="equivalence",
                      choices=["none", "equivalence", "dominance"])
    atpg.add_argument("--show-patterns", action="store_true")
    atpg.add_argument("--workers", type=int, default=0, metavar="N",
                      help="shard target faults across N worker "
                           "processes (0 = one per CPU core)")
    atpg.add_argument("--engine", default="event",
                      choices=["event", "compiled"],
                      help="fault-simulation engine for the random "
                           "phase and per-pattern dropping")
    atpg.set_defaults(fn=_cmd_atpg)

    scoap = subparsers.add_parser(
        "scoap", help="SCOAP testability report for a .bench netlist")
    scoap.add_argument("netlist", help="ISCAS .bench file")
    scoap.add_argument("--top", type=int, default=20,
                       help="show the N hardest nets")
    scoap.set_defaults(fn=_cmd_scoap)

    wirebench = subparsers.add_parser(
        "wirebench", help="chatty remote workload showcasing "
                          "--rmi-batch / --rmi-cache savings")
    wirebench.add_argument("--width", type=int, default=16)
    wirebench.add_argument("--patterns", type=int, default=120)
    wirebench.add_argument("--repeats", type=int, default=20)
    wirebench.set_defaults(fn=_cmd_wirebench)

    lint = subparsers.add_parser(
        "lint", help="static design lint + RMI servant code analysis "
                     "(runs nothing, reports JCD0xx findings)")
    lint.add_argument("--design", metavar="BENCH", action="append",
                      default=None,
                      help="ISCAS .bench file or builtin bench to lint "
                           f"({', '.join(BUILTIN_BENCHES)}; repeatable; "
                           "defective files are loaded unvalidated so "
                           "every finding is reported)")
    lint.add_argument("--servants", metavar="PATH", action="append",
                      default=None,
                      help="source file, directory or importable module "
                           "of servant classes to analyze (repeatable)")
    lint.add_argument("--concurrency", action="store_true",
                      help="run only the concurrency rules "
                           "(JCD014-JCD018: races, fork hazards, "
                           "nondeterminism) over the --servants paths, "
                           "or over the installed package by default")
    lint.add_argument("--format", choices=["text", "json"],
                      default="text", help="output format")
    lint.add_argument("--fail-on", choices=["warning", "error"],
                      default="error", dest="fail_on",
                      help="exit nonzero when a finding of this "
                           "severity (or worse) survives suppression")
    lint.add_argument("--suppress", metavar="CODE", action="append",
                      default=None,
                      help="drop findings of a rule code for this run "
                           "(repeatable, e.g. --suppress JCD002)")
    lint.set_defaults(fn=_cmd_lint)

    everything = subparsers.add_parser(
        "all", help="run every paper experiment (use --quick for a "
                    "reduced-scale pass)")
    everything.add_argument("--quick", action="store_true")
    everything.add_argument("--workers", type=int, default=0,
                            metavar="N",
                            help="run independent scenarios on N "
                                 "worker processes (0 = one per core)")
    everything.set_defaults(fn=_cmd_all)
    return parser


def _check_output_paths(parser: argparse.ArgumentParser,
                        args: argparse.Namespace) -> None:
    """Reject unwritable output destinations before any work runs.

    A --report-out (or trace/metrics) path whose directory does not
    exist used to surface only *after* a potentially long run, throwing
    the completed results away; every output flag is validated up
    front instead.
    """
    for attribute in ("trace_out", "metrics_out", "report_out"):
        path = getattr(args, attribute, None)
        if not path:
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            option = "--" + attribute.replace("_", "-")
            parser.error(f"{option}: directory {parent!r} does not exist")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_output_paths(parser, args)
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    from contextlib import ExitStack

    from .rmi.wire import wire_session

    with ExitStack() as stack:
        stack.enter_context(wire_session(
            batching=getattr(args, "rmi_batch", False) or None,
            caching=getattr(args, "rmi_cache", False) or None,
            max_batch=getattr(args, "rmi_max_batch", None),
            rmi_timeout=getattr(args, "rmi_timeout", None),
            connect_timeout=getattr(args, "rmi_connect_timeout", None)))
        if trace_out is None and metrics_out is None:
            return args.fn(args)

        from .telemetry import telemetry_session

        # Open the output files before running so a bad path fails
        # fast instead of discarding a completed run.
        try:
            trace_file = stack.enter_context(open(trace_out, "w")) \
                if trace_out else None
            metrics_file = stack.enter_context(open(metrics_out, "w")) \
                if metrics_out else None
        except OSError as exc:
            parser.error(f"cannot write telemetry output: {exc}")
        with telemetry_session(trace_out=trace_file,
                               metrics_out=metrics_file):
            code = args.fn(args)
    if trace_out:
        print(f"trace written to {trace_out} "
              f"(load it in chrome://tracing or ui.perfetto.dev)")
    if metrics_out:
        print(f"metrics written to {metrics_out}")
    return code


if __name__ == "__main__":  # pragma: no cover - direct invocation
    sys.exit(main())
