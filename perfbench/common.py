"""Helpers shared by the benchmark workloads: statistics, process facts,
run metadata and the set-up timing probe.

Nothing here imports :mod:`repro` at module level, so ``run.py`` can check
that the package source is present before anything tries to load it.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Iterable

#: Offset between a run's workload seed and the seed held out for
#: confirming a claimed gain on inputs not used while writing the change.
HELD_OUT_OFFSET = 1_000_003

#: Fresh interpreters that time ``import repro`` + backend resolution;
#: ``setup_s`` reports their median.  Half run before the measured window
#: and half after it, so a drift in the host's speed during a run moves
#: both halves and not the median alone.
SETUP_REPEATS = 12

_SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import repro, repro.kernels\n"
    "repro.kernels.active_backend_name()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def median(values: Iterable[float]) -> float:
    data = list(values)
    return statistics.median(data) if data else 0.0


def percentile(values: Iterable[float], p: int) -> float:
    """The ``p``-th percentile (1..99) by linear interpolation between
    order statistics (``statistics.quantiles(..., method="inclusive")``)."""
    data = list(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return data[0]
    return statistics.quantiles(data, n=100, method="inclusive")[p - 1]


#: One ``ref`` is the time of SLICES_PER_REF reference slices of
#: SLICE_ITERATIONS iterations each (4-8 ms in total on one core of a
#: shared two-vCPU Xeon virtual machine).
SLICE_ITERATIONS = 2000
SLICES_PER_REF = 10


def reference_slice() -> int:
    """A fixed slice of pure-Python work: tuple, dict and set operations,
    the kinds the joins and the server spend their time in.

    It is timed alongside the measured operations, and the end-to-end
    latencies are reported in ``ref`` units (see :data:`SLICES_PER_REF`).
    On a shared virtual machine the host's load moves raw times by 20-40 %
    within minutes; the ratio cancels that drift, while a change to the
    program under test moves only the numerator.
    """
    table: dict[tuple[int, int], int] = {}
    seen: set[int] = set()
    for i in range(SLICE_ITERATIONS):
        table[(i, i * 7 % 1000)] = i
        seen.add(i * 13 % 5000)
    return len(table) + len(seen)


def time_slice() -> float:
    """Seconds one :func:`reference_slice` takes now."""
    t0 = perf_counter()
    reference_slice()
    return perf_counter() - t0


def ref_seconds(slice_seconds: Iterable[float]) -> float:
    """One ``ref`` in seconds, from recent slice timings (their median)."""
    return median(slice_seconds) * SLICES_PER_REF


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when the denominator is zero (layer idle)."""
    return num / den if den else 0.0


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def child_env(root: Path) -> dict[str, str]:
    """Environment for child interpreters that import ``repro`` from
    ``root/src``: the checkout's source first, governance and kernel
    overrides removed so every workload runs on the auto-resolved
    backend with no budgets."""
    env = dict(os.environ)
    env.pop("REPRO_KERNEL", None)
    env.pop("REPRO_SANITIZE", None)
    env.pop("REPRO_RACEDETECT", None)
    existing = env.get("PYTHONPATH")
    src = str(root / "src")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


def measure_import_setup(root: Path, repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds a fresh interpreter spends importing ``repro`` and
    resolving the kernel backend, once per repeat."""
    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE],
            cwd=root,
            env=child_env(root),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


_SPINNER = (
    "import os, sys, time\n"
    "cpu, parent, until = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3])\n"
    "os.sched_setaffinity(0, {cpu})\n"
    "try:\n"
    "    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "except (AttributeError, OSError):\n"
    "    os.nice(19)\n"
    "while os.getppid() == parent and time.monotonic() < until:\n"
    "    for _ in range(100000):\n"
    "        pass\n"
)


class IdleSpinners:
    """Keep every CPU this process may run on from going idle.

    On a virtual machine an idle virtual CPU halts, and waking it for the
    next reply or due time costs the hypervisor's scheduling delay, which
    can reach milliseconds when the host is busy.  One spinner per CPU at
    the idle scheduling class (only run when nothing else wants the CPU)
    keeps that delay out of latencies measured in microseconds to
    milliseconds.  A spinner exits when this process dies or after
    ``max_seconds``.
    """

    def __init__(self, max_seconds: float = 170.0) -> None:
        self.max_seconds = max_seconds
        self.procs: list[subprocess.Popen] = []

    def __enter__(self) -> "IdleSpinners":
        import time

        until = time.monotonic() + self.max_seconds
        for cpu in sorted(os.sched_getaffinity(0)):
            self.procs.append(
                subprocess.Popen(
                    [sys.executable, "-c", _SPINNER, str(cpu), str(os.getpid()), repr(until)]
                )
            )
        # A spinner starts at normal priority; return once each has
        # dropped to the idle class (or to nice 19), so its start-up does
        # not compete with what is measured next.
        deadline = time.monotonic() + 10.0
        for proc in self.procs:
            while not self._demoted(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.005)
        return self

    @staticmethod
    def _demoted(pid: int) -> bool:
        try:
            if os.sched_getscheduler(pid) == os.SCHED_IDLE:
                return True
            return os.getpriority(os.PRIO_PROCESS, pid) == 19
        except (AttributeError, OSError):
            return True

    def __exit__(self, *exc: object) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait(timeout=30)


def git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def run_meta(root: Path, workload: str, seed: int, trace: bool) -> dict[str, Any]:
    """Facts every result records: code version, host and configuration."""
    import numpy

    import repro
    from repro import kernels
    from repro.governance import current_policy

    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": seed + HELD_OUT_OFFSET,
        "trace": trace,
        "git_sha": git_sha(root),
        "repro_version": repro.__version__,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.active_backend_name(),
        "kernel_backend_source": kernels.backend_source(),
        "governance": "off" if current_policy() is None else "on",
    }


class Report:
    """What one run prints: metadata and human-readable lines first, then
    the one-line JSON result the contract asks for, last."""

    def __init__(self, meta: dict[str, Any]) -> None:
        self.meta = meta
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, dict[str, Any]] = {}
        self.notes: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def note(self, name: str, value: Any, unit: str = "") -> None:
        """A figure printed for people, not part of the result line."""
        if isinstance(value, float):
            value = f"{value:.6g}"
        self.notes.append(f"{name} = {value} {unit}".rstrip())

    def emit(self) -> None:
        if self.attempted == 0:
            self.fail("no operation was attempted")
        print("meta " + json.dumps(self.meta, sort_keys=True))
        for line in self.notes:
            print("  " + line)
        for name, entry in self.metrics.items():
            print(f"  metric {name} = {entry['value']:.6g} {entry['unit']}")
        for problem in self.problems:
            print("  FAILED: " + problem)
        attempted = max(self.attempted, 1)
        failed = min(self.failed, attempted)
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": self.metrics,
                },
            ),
            flush=True,
        )
