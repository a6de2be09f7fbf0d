"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {campaign,cosim,serve_mixed}
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run measures the end-to-end metrics with no
tracing; with ``--trace 1`` a separate traced run reports the per-layer
metrics and writes its spans, as Chrome trace lanes per pid/tid, to
``.perfbench_out/trace-<workload>-seed<N>.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any
correctness check failed or the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("campaign", "cosim", "serve_mixed")


def declared_metrics(traced: bool):
    """Metric names and units BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if traced else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="input sizes (tiny: the benchmark's tests)")
    args = parser.parse_args(argv)

    sys.path.insert(0, ROOT)
    from perfbench.common import SIZES, BenchmarkError, add_source_path
    try:
        add_source_path()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from perfbench import campaign, cosim, serve_mixed
    from perfbench.reference import load_reference

    module = {"campaign": campaign, "cosim": cosim,
              "serve_mixed": serve_mixed}[args.workload]
    traced = bool(args.trace)
    result = module.run(SIZES[args.size], args.seed, args.seconds, traced,
                        load_reference())
    tracer = result.info.pop("tracer", None)
    declared = declared_metrics(traced)
    for name, unit in declared.items():
        # A layer this workload never calls reads zero.
        result.metrics.setdefault(name, (0.0, unit))
    extra = sorted(set(result.metrics) - set(declared))
    result.info["unlisted_metrics"] = {
        name: result.metrics.pop(name) for name in extra}
    if tracer is not None:
        from perfbench.common import OUT_DIR
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.export(os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
            {"lanes": result.info.get("lanes")})
    result.emit()
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
