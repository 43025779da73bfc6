"""Shared helpers: percentiles, host record, run outcome, scratch space."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

# Percentiles a tail may be reported at; the tail is the highest one with
# at least TAIL_BEYOND samples above it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10


def percentile(samples: List[float], q: float) -> float:
    """Linear-interpolated percentile *q* (0..100) of *samples*."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(samples: List[float]) -> float:
    return percentile(samples, 50.0)


def tail(samples: List[float]) -> Tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    TAIL_BEYOND samples beyond it.  Needs 2 * TAIL_BEYOND samples."""
    n = len(samples)
    chosen = None
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= TAIL_BEYOND:
            chosen = q
    if chosen is None:
        raise ValueError(
            f"{n} samples: a tail needs at least {2 * TAIL_BEYOND}"
        )
    return chosen, percentile(samples, chosen)


# The host-speed reference: a fixed pure-Python loop.  On a shared
# virtual host the CPU speed drifts by ±20% over tens of seconds, which
# moves every timing with it; timing the loop next to each operation
# measures that drift, and each operation's time is scaled to the speed
# at which the loop takes REFERENCE_S.  Raw wall times are printed too.
REFERENCE_S = 0.025
_REFERENCE_ITERATIONS = 250_000


def _reference_loop() -> int:
    total = 0
    for i in range(_REFERENCE_ITERATIONS):
        total += i * i % 7
    return total


def pin_to_one_cpu() -> int:
    """Run this process, and what it starts later, on the first CPU it
    may use; returns that CPU.  The speed probe then times the CPU the
    measured work runs on, and ``serve-mixed`` keeps its server there
    too (see ``serve_mixed.py``)."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed:
    """Samples how much slower than the reference speed the host runs."""

    def probe(self) -> float:
        """Time the reference loop once; returns the slowdown factor
        (measured / REFERENCE_S, above 1 when the host runs slow)."""
        begin = time.perf_counter()
        _reference_loop()
        return (time.perf_counter() - begin) / REFERENCE_S

    def around(self, before: float) -> Tuple[float, float]:
        """Probe again; returns (slowdown over the interval since the
        *before* probe, the new probe)."""
        after = self.probe()
        return (before + after) / 2.0, after


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size of this process (and waited-for children)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def _source_digest() -> str:
    """SHA-256 over the program's source tree (the checkout may not be a
    git repository, so this identifies the code measured)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record() -> Dict[str, Any]:
    """Where a result was measured.  Results from different hosts are
    never compared."""
    try:
        sha: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_sha": sha,
        "src_sha256": _source_digest(),
    }


@dataclass
class Outcome:
    """What one measured pass produced."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        """Record one output check; a failed check fails its operation."""
        if not ok:
            self.failures.append(message)
        return ok

    def operation(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


@dataclass
class Timed:
    """One timed operation."""

    seconds: float  # wall time
    units: float  # work done: pairs classified, rows carried, requests
    slowdown: float = 1.0  # host slowdown around it (see HostSpeed)


def repeat(
    items: int,
    step: Callable[[int, int], Optional[Timed]],
    *,
    seconds: Optional[float] = None,
    speed: Optional[HostSpeed] = None,
) -> List[Timed]:
    """Call ``step(index, item)`` over the items in turn: for *seconds*,
    or once each if None.  ``step`` returns None for a failed operation.
    With *speed*, the host is probed between operations and each one is
    stamped with the slowdown around it."""
    ops: List[Timed] = []
    before = speed.probe() if speed is not None else 1.0
    started = time.perf_counter()
    index = 0
    while True:
        if seconds is None:
            if index == items:
                break
        elif index and time.perf_counter() - started >= seconds:
            break
        op = step(index, index % items)
        if speed is not None:
            slowdown, before = speed.around(before)
            if op is not None:
                op.slowdown = slowdown
        if op is not None:
            ops.append(op)
        index += 1
    return ops


def batch_figures(ops: List[Timed]) -> Dict[str, Any]:
    """Throughput and latency of timed operations at the reference speed,
    with the raw wall-clock figures beside them."""
    latencies = [1000.0 * op.seconds / op.slowdown for op in ops]
    q, value = tail(latencies)
    return {
        "throughput_per_s": median([op.units / op.seconds * op.slowdown for op in ops]),
        "latency_p50_ms": median(latencies),
        "latency_tail": (q, value, len(latencies)),
        "raw_throughput_per_s": median([op.units / op.seconds for op in ops]),
        "raw_latency_p50_ms": median([1000.0 * op.seconds for op in ops]),
        "host_slowdown": median([op.slowdown for op in ops]),
    }


class Scratch:
    """A private directory inside the checkout, removed when closed."""

    def __init__(self) -> None:
        base = ROOT / ".perfbench_tmp"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=base))

    def file(self, name: str) -> str:
        return str(self.path / name)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def output_dir() -> Path:
    """Where traced runs leave their layer tables and spans."""
    path = ROOT / ".perfbench_out"
    path.mkdir(exist_ok=True)
    return path
