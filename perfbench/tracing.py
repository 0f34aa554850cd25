"""Measurement helpers for the benchmark: spans, GC time, memory peak and
provenance. Everything here wraps calls from the outside; nothing reaches
into linforest itself."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterator, Optional


@dataclass(frozen=True)
class Span:
    """One timed call. Spans of one operation share ``op``; ``parent`` is the
    id of the enclosing span, or -1 for the operation's root span."""

    id: int
    parent: int
    op: int
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory. A span opened with no span open starts a new
    operation; spans are written out only when ``write`` is called."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self._stack:
            self._op += 1
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(sid, parent, self._op, name, start, end)

    def closed(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus the time its
        direct children cover (children never overlap, calls are nested)."""
        spans = self.closed()
        child_time = [0.0] * len(self.spans)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.duration
        totals: dict[str, float] = {}
        for s in spans:
            totals[s.name] = totals.get(s.name, 0.0) + s.duration - child_time[s.id]
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.closed()]) + "\n")


class NullTracer:
    """Stand-in for untraced passes: spans cost one attribute lookup."""

    def span(self, name: str):
        return nullcontext()


NO_TRACE = NullTracer()


class GcMeter:
    """Collector time and collection count per labelled region, read from
    ``gc.callbacks`` while installed."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0
        self.by_label: dict[str, tuple[float, int]] = {}

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = perf_counter()
        else:
            self.seconds += perf_counter() - self._start
            self.collections += 1

    @contextmanager
    def installed(self) -> Iterator["GcMeter"]:
        gc.callbacks.append(self._callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._callback)

    @contextmanager
    def region(self, label: str) -> Iterator[None]:
        s0, c0 = self.seconds, self.collections
        try:
            yield
        finally:
            s, c = self.by_label.get(label, (0.0, 0))
            self.by_label[label] = (s + self.seconds - s0, c + self.collections - c0)


def own_peak_mib() -> float:
    """Peak resident set of this process so far (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def provenance(root: Path) -> dict:
    """Machine and source identity recorded beside every result."""
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    llc = "unknown"
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        best = -1
        for index in sorted(cache_dir.glob("index*")):
            level = int((index / "level").read_text())
            if level > best:
                best, llc = level, f"L{level} {(index / 'size').read_text().strip()}"
    except (OSError, ValueError):
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    # the source digest identifies the code even in a checkout without git
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "cpu_model": cpu_model,
        "last_level_cache": llc,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }
