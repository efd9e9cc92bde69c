"""Shared pieces of the workloads: op timing with probes, set-up, stats."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import layers
from probe import adjust, probe_gap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_RUNS = 5

#: Minimum samples of an op kind before its p90 is read: ten beyond it.
P90_MIN_SAMPLES = 100


def child_env() -> Dict[str, str]:
    """The environment for every process the benchmark starts.

    Settings that would change what the program does (worker pools,
    caches, stores, validation) are removed, so the inputs the benchmark
    generates are all the program receives.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def scrub_environment() -> None:
    """Apply :func:`child_env`'s rules to this process too."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


@dataclass
class Op:
    kind: str
    raw_s: float
    probe_ms: float

    @property
    def adjusted_s(self) -> float:
        return adjust(self.raw_s, self.probe_ms)


@dataclass
class OpLog:
    """Times ops with a host probe on each side of every one.

    The probe an op is adjusted by is the mean of the gaps before and
    after it, so a change of host speed during the op is split evenly.
    ``gc.collect()`` runs before each op, outside the timer.
    """

    probe_reps: int
    ops: List[Op] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._last = self._probe()

    def _probe(self) -> float:
        value = probe_gap(self.probe_reps)
        self.probes.append(value)
        return value

    def run(self, kind: str, fn: Callable[[], object]) -> object:
        gc.collect()
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        after = self._probe()
        self.ops.append(Op(kind, raw, (self._last + after) / 2))
        self._last = after
        return out

    def of(self, kind: str) -> List[Op]:
        return [op for op in self.ops if op.kind == kind]

    def count(self, kind: str) -> int:
        return len(self.of(kind))

    def adjusted_ms(self, kind: str) -> List[float]:
        return [op.adjusted_s * 1e3 for op in self.of(kind)]

    def audit(self) -> Dict[str, object]:
        """Raw timings and probe readings, enough to redo the adjustment."""
        return {
            "ops": [
                [op.kind, round(op.raw_s * 1e3, 3), round(op.probe_ms, 3)]
                for op in self.ops
            ],
            "probe_median_ms": statistics.median(self.probes),
            "probe_spread": spread(self.probes),
        }


def latency_metrics(cold: List[float], warm: List[float]) -> Dict[str, float]:
    """p50 and p90 of the cold and of the warm latencies, in ms."""
    out: Dict[str, float] = {}
    for kind, values in (("cold", cold), ("warm", warm)):
        out[f"{kind}_p50_ms"] = statistics.median(values)
        out[f"{kind}_p90_ms"] = percentile(values, 0.9)
    return out


def traced_halves(
    phase: Callable[[float], OpLog], seconds: float, overhead_kind: str,
    prelude: Callable[[], object] = lambda: None,
) -> Tuple[OpLog, OpLog, Dict[str, float]]:
    """Run ``phase`` untraced, then traced; returns both logs and the layers.

    ``prelude`` runs traced before the traced ops (set-up work whose
    layers should be attributed, such as stencil builds).
    """
    plain = phase(seconds / 2)
    recorder = layers.Recorder()
    before = layers.counters()
    uninstall = layers.install(recorder)
    try:
        prelude()
        traced = phase(seconds / 2)
    finally:
        uninstall()
    ops = len(traced.ops)
    per_layer = {
        **layers.span_metrics(recorder.totals(), ops),
        **layers.counter_metrics(before, layers.counters(), ops),
        "bench.trace_overhead_pct": overhead_pct(
            plain.adjusted_ms(overhead_kind), traced.adjusted_ms(overhead_kind)
        ),
        "bench.host_probe_ms": statistics.median(plain.probes + traced.probes),
    }
    return plain, traced, per_layer


def overhead_pct(plain: List[float], traced: List[float]) -> float:
    """Traced minus untraced median, as a percentage of untraced."""
    base = statistics.median(plain)
    return (statistics.median(traced) - base) / base * 100.0


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def read_until(proc: subprocess.Popen, prefix: str, timeout_s: float) -> str:
    """Next stdout line of ``proc`` starting with ``prefix``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"child exited (code {proc.wait()}) before printing {prefix!r}"
            )
        if line.startswith(prefix):
            return line
    raise RuntimeError(f"child did not print {prefix!r} in {timeout_s:g}s")


def time_child_setup(
    argv: List[str], ready: str
) -> Tuple[float, float, subprocess.Popen, str]:
    """Start ``argv``; returns (seconds until ``ready``, probe, process, line).

    The child prints a line starting with ``ready`` once set up and then
    ``PROBE <ms>`` from its own interpreter, which is the host speed its
    set-up ran at.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = read_until(proc, ready, 120.0)
        raw = time.perf_counter() - t0
        probe = float(read_until(proc, "PROBE ", 60.0).split()[1])
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return raw, probe, proc, line


def setup_metric(samples: List[Tuple[float, float]]) -> Dict[str, object]:
    """``setup_s`` as the median adjusted set-up, plus the audit."""
    adjusted = [adjust(raw, probe) for raw, probe in samples]
    return {
        "value": statistics.median(adjusted),
        "audit": [[round(raw, 4), round(probe, 3)] for raw, probe in samples],
    }


def measure_setups(workload: str, seed: int) -> Dict[str, object]:
    """Time :data:`SETUP_RUNS` fresh ``setup_child.py`` interpreters."""
    argv = [sys.executable, os.path.join(HERE, "setup_child.py"), workload, str(seed)]
    samples = []
    for _ in range(SETUP_RUNS):
        raw, probe, proc, _ = time_child_setup(argv, "READY")
        proc.communicate(timeout=60)
        samples.append((raw, probe))
    return setup_metric(samples)


def git_revision() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout carries no history
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int, probes: List[float]) -> Dict[str, object]:
    """The per-run environment block printed before the result."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "probe_median_ms": statistics.median(probes),
        "probe_spread": spread(probes),
        "seed": seed,
        "git_revision": git_revision(),
    }


def emit(prefix: str, doc: Dict[str, object]) -> None:
    print(f"{prefix} {json.dumps(doc, sort_keys=True)}", flush=True)


def workdir(workload: str) -> str:
    path = os.path.join(ROOT, ".perfbench-work", f"{workload}-{os.getpid()}")
    os.makedirs(path)
    return path


def deadline_loop(seconds: float, done: Callable[[], bool]):
    """Yield op indices until ``seconds`` pass and ``done()`` holds.

    ``done`` lets a run extend past ``seconds`` until every op kind has
    the samples its percentiles need, up to twice ``seconds``.
    """
    start = time.monotonic()
    cap = start + 2 * seconds
    i = 0
    while True:
        now = time.monotonic()
        if now >= cap or (now - start >= seconds and done()):
            return
        yield i
        i += 1
