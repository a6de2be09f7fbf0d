"""Shared pieces of the benchmark: sizes, statistics, machine, results."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    TypeVar)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def add_source_path() -> None:
    """Make the program's package importable from the checkout."""
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        raise BenchmarkError(f"no program source under {SOURCE}")
    if SOURCE not in sys.path:
        sys.path.insert(0, SOURCE)


@dataclass(frozen=True)
class Size:
    """Input sizes of every workload (the benchmark's and the tests').

    Set-up runs at least ``setup_repeats`` times and until
    ``setup_seconds`` have passed; ``setup_s`` is the median.
    """

    setup_repeats: int
    setup_seconds: float
    campaign_bench: str
    campaign_patterns: int
    campaign_pattern_sets: int
    cosim_width: int
    cosim_min_patterns: int
    cosim_lengths: int
    serve_patterns: int
    serve_rates: Tuple[float, ...]
    serve_base_share: float


SIZES: Dict[str, Size] = {
    "full": Size(
        setup_repeats=3, setup_seconds=5.0,
        campaign_bench="mult16", campaign_patterns=256,
        campaign_pattern_sets=8,
        cosim_width=16, cosim_min_patterns=200, cosim_lengths=4,
        serve_patterns=64, serve_rates=(25.0, 35.0, 50.0, 70.0),
        serve_base_share=0.6),
    "tiny": Size(
        setup_repeats=1, setup_seconds=0.0,
        campaign_bench="alu8", campaign_patterns=32,
        campaign_pattern_sets=2,
        cosim_width=4, cosim_min_patterns=8, cosim_lengths=2,
        serve_patterns=16, serve_rates=(20.0, 40.0),
        serve_base_share=0.5),
}


T = TypeVar("T")


def repeat_setup(size: Size, step: Callable[[], T], tracer: Any = None,
                 release: Optional[Callable[[T], None]] = None,
                 after: Optional[Callable[[], None]] = None
                 ) -> Tuple[List[float], T]:
    """Time ``step`` repeatedly; returns every time and the last value.

    ``release`` disposes of an earlier repeat's value and ``after``
    runs after every repeat, both untimed.  Each repeat is marked as a
    ``setup`` phase on ``tracer``.
    """
    times: List[float] = []
    value = None
    first = time.perf_counter()
    while (len(times) < size.setup_repeats
           or time.perf_counter() - first < size.setup_seconds):
        if times and release is not None:
            release(value)
        begin = time.perf_counter()
        value = step()
        end = time.perf_counter()
        times.append(end - begin)
        if tracer is not None:
            tracer.phase("setup", begin, end)
        if after is not None:
            after()
    return times, value


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] (0.0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


# ----------------------------------------------------------------------
# Machine
# ----------------------------------------------------------------------

def git_sha() -> Optional[str]:
    """The checkout's commit, read from ``.git`` (None outside git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def usable_cores() -> int:
    """Cores this process may run on (affinity mask, cpuset)."""
    return len(os.sched_getaffinity(0))


def machine_signature(workers: int) -> Dict[str, object]:
    """Core count, interpreter and library versions, commit, workers."""
    import numpy
    return {
        "cores": os.cpu_count(),
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "workers": workers,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

@dataclass
class Result:
    """One run's metrics, operation counts and correctness findings."""

    workload: str
    seed: int
    traced: bool
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, message: str) -> bool:
        """Count one checked operation; a failed check fails the run."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }

    def emit(self) -> None:
        """Print readable lines, store the full result, print the JSON."""
        share = self.failed / self.attempted if self.attempted else 1.0
        print(f"workload {self.workload} seed {self.seed} "
              f"trace {int(self.traced)}")
        for name, (value, unit) in sorted(self.metrics.items()):
            print(f"  {name} = {value:.6g} {unit}")
        print(f"  failed_share = {share:.6g} share "
              f"({self.failed} of {self.attempted})")
        for error in self.errors:
            print(f"  FAILED: {error}")
        print("signature " + json.dumps(self.info.get("signature"),
                                        sort_keys=True))
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, f"{self.workload}-seed{self.seed}"
                     f"-trace{int(self.traced)}.json")
        with open(path, "w") as handle:
            json.dump({"summary": self.summary(), "errors": self.errors,
                       "info": self.info}, handle, indent=1,
                      sort_keys=True, default=str)
        print(json.dumps(self.summary()), flush=True)
