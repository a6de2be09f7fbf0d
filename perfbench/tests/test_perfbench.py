"""The benchmark's own tests, at the tiny input size.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import campaign, cosim, layers, run, serve_mixed  # noqa: E402
from perfbench.common import SIZES, Result  # noqa: E402
from perfbench.reference import load_reference  # noqa: E402

TINY = SIZES["tiny"]
WORKLOADS = ("campaign", "cosim", "serve_mixed")


def _assert_self_time_identity(metrics):
    """Layer self times plus the separately measured unattributed time
    make up the traced wall time, and nothing is attributed twice."""
    attributed = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert metrics["trace.unattributed_s"] >= 0
    assert attributed + metrics["trace.unattributed_s"] == \
        pytest.approx(metrics["trace.wall_s"], abs=1e-6)


def bench(workload: str, seed: int, trace: int, root: str = ROOT,
          seconds: float = 2.0, preexec_fn=None):
    completed = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
        preexec_fn=preexec_fn)
    lines = completed.stdout.strip().splitlines()
    return completed.returncode, lines


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_printed_metrics_match_benchmark_json(workload, trace):
    code, lines = bench(workload, 0, trace)
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = run.declared_metrics(bool(trace))
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        _assert_self_time_identity(metrics)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_runs_clean(workload):
    code, lines = bench(workload, 7, 0)
    assert code == 0, "\n".join(lines)
    assert json.loads(lines[-1])["correct"]


def _ignore_sigint():
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def test_serve_runs_with_sigint_ignored_as_in_a_background_job():
    code, lines = bench("serve_mixed", 0, 0, preexec_fn=_ignore_sigint)
    assert code == 0, "\n".join(lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("campaign", 0, 0, root=str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


# -- each correctness gate rejects a perturbed output ----------------------

def _drop_one_detection(report):
    name = next(iter(report.detected))
    first = report.detected.pop(name)
    report.per_pattern[first].discard(name)
    return report


def test_campaign_gate_rejects_a_wrong_report(monkeypatch):
    from repro.parallel import faultsim

    original = faultsim.parallel_fault_simulate
    monkeypatch.setattr(faultsim, "parallel_fault_simulate",
                        lambda *a, **k: _drop_one_detection(
                            original(*a, **k)))
    result = campaign.run(TINY, 0, 0.0, False, load_reference())
    assert result.failed == result.attempted >= 1
    assert not result.correct


def test_cosim_gate_rejects_a_wrong_power(monkeypatch):
    from repro.bench import scenarios

    original = scenarios.run_scenario

    def perturbed(*args, **kwargs):
        row = original(*args, **kwargs)
        if row.powers:
            row.powers[-1] += 1e-12
        return row

    monkeypatch.setattr(scenarios, "run_scenario", perturbed)
    result = cosim.run(TINY, 0, 0.0, False, load_reference())
    assert result.failed == 6 and not result.correct


def test_cosim_run_exits_nonzero_on_a_wrong_output(monkeypatch, capsys):
    from repro.bench import scenarios

    original = scenarios.run_scenario

    def perturbed(*args, **kwargs):
        row = original(*args, **kwargs)
        row.events += 1
        return row

    monkeypatch.setattr(scenarios, "run_scenario", perturbed)
    code = run.main(["--workload", "cosim", "--seed", "0", "--seconds",
                     "0.1", "--trace", "0", "--size", "tiny"])
    assert code == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False


def test_serve_gate_rejects_a_wrong_farm_report():
    from perfbench.common import Result

    patterns = serve_mixed.farm_patterns(TINY, 0)
    expected = serve_mixed.serial_digest(patterns)
    result = Result("serve_mixed", 0, False)
    serve_mixed.check_campaigns(
        [(0.0, 1.0, expected, None), (1.0, 2.0, "0" * 64, None),
         (2.0, 3.0, None, "RemoteError: refused")], expected, result)
    assert (result.attempted, result.failed) == (3, 2)


class _FakeTransport:
    """Replays what a server would have answered, with one power off."""

    def __init__(self, served):
        self.served = served

    def invoke(self, _object, _method, args):
        return self.served[args[0]]


def test_serve_gate_rejects_a_wrong_power():
    from repro.ip.provider import IPProvider

    from perfbench.common import Result

    provider = IPProvider("test.provider")
    provider.publish_multiplier(serve_mixed.WIDTH, engine="compiled")
    servant = provider.server.registry.lookup(
        serve_mixed.POWER_OBJECT).servant
    rung = serve_mixed.Rung(20.0, 0.0, 1.0)
    session = "s"
    for index in range(3):
        pairs = [[index, 3], [5, index], [7, 7]]
        reply = servant.power_buffer(session, pairs)
        rung.calls.append(serve_mixed.Call(0, session, pairs, 0.0, 0.001,
                                           0.0, reply))
    served = servant.fetch_results(session)

    clean = Result("serve_mixed", 0, False)
    serve_mixed.check_interactive([rung], _FakeTransport({session: served}),
                                  clean)
    assert clean.correct and clean.attempted == 3

    served[4] += 1e-9
    wrong = Result("serve_mixed", 0, False)
    serve_mixed.check_interactive([rung], _FakeTransport({session: served}),
                                  wrong)
    assert (wrong.attempted, wrong.failed) == (3, 1)


# -- self-time accounting --------------------------------------------------

def _layer_metrics(spans, windows, lanes):
    result = Result("test", 0, True)
    layers.add_layer_metrics(result, layers.SpanIndex(spans), windows, [],
                             lanes)
    return {name: value for name, (value, _unit) in result.metrics.items()}


def _span(n, parent, name, start, end, tid=1):
    return ((1, n), (1, parent) if parent else None, name, start, end, 1,
            tid, {})


def test_unattributed_time_is_the_uncovered_part_of_each_lane():
    spans = [_span(1, None, "bench.run_scenario", 1.0, 4.0),
             _span(2, 1, "core.start", 1.5, 3.5),
             _span(3, 2, "rmi.invoke", 2.0, 2.5),
             _span(4, None, "compiled.compile", 6.0, 7.0, tid=2)]
    metrics = _layer_metrics(spans, [(0.0, 5.0), (5.0, 10.0)],
                             {(1, 1), (1, 2)})
    assert metrics["trace.wall_s"] == 20.0
    assert metrics["trace.unattributed_s"] == pytest.approx(16.0)
    assert (metrics["bench.self_s"], metrics["core.self_s"],
            metrics["rmi.self_s"], metrics["compiled.self_s"]) == \
        pytest.approx((1.0, 1.5, 0.5, 1.0))
    _assert_self_time_identity(metrics)


def test_a_span_recorded_twice_breaks_the_identity():
    span = _span(1, None, "core.start", 1.0, 3.0)
    twice = [span, _span(2, None, "core.start", 1.0, 3.0)]
    metrics = _layer_metrics(twice, [(0.0, 5.0)], {(1, 1)})
    assert metrics["trace.unattributed_s"] == pytest.approx(3.0)
    with pytest.raises(AssertionError):
        _assert_self_time_identity(metrics)


# -- skipped bars ----------------------------------------------------------

def test_fanout_efficiency_is_skipped_with_one_usable_core(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0})
    value, skipped = campaign.fanout_efficiency(8.0, 5.0, workers=4)
    assert value is None and skipped

    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1})
    assert campaign.fanout_efficiency(8.0, 5.0, workers=2) == (0.8, [])
    assert campaign.fanout_efficiency(8.0, 8.0, workers=1)[0] is None


# -- host-speed scaling ----------------------------------------------------

def test_host_times_scale_with_the_probe():
    from perfbench import speed

    times, setups = [2.0, 4.0, 3.0], [1.0, 1.2, 0.8]
    metrics = {}
    for slowdown in (1.0, 2.0):
        gauge = speed.HostSpeed()
        gauge.times = [speed.REFERENCE_PROBE_S * slowdown] * 4
        result = Result("test", 0, False)
        speed.add_host_times(result, [t * slowdown for t in times], gauge,
                             [t * slowdown for t in setups], gauge,
                             work=90.0)
        metrics[slowdown] = {name: value for name, (value, _unit)
                             in result.metrics.items()}
    assert metrics[2.0] == pytest.approx(metrics[1.0])
    assert metrics[1.0] == pytest.approx({
        "op_p50_ms": 3000.0, "op_p99_ms": 3980.0, "work_per_s": 30.0,
        "setup_s": 1.0})


def test_speed_probe_runs_its_fixed_task_at_once():
    from perfbench import speed

    assert speed.probe() > 0  # it raises when the task stops short
    assert speed.probe_at_once(2) > 0
