"""Helpers shared by the benchmark workloads: machine fingerprint, span
recording, timing wrappers and the result row.

Nothing here sets a thread count or an environment variable: the program
runs with its defaults, and the fingerprint only reads what is in effect.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

clock = time.perf_counter


# -- fingerprint ------------------------------------------------------------

def _git_rev(root: Path) -> str:
    """HEAD of the repository rooted exactly at ``root`` (a checkout that is
    not a git repository, or sits inside another one, reports so)."""
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "not a git checkout"
    if len(out) != 2 or Path(out[0]).resolve() != root.resolve():
        return "not a git checkout"
    return out[1]


def _source_digest(root: Path) -> str:
    """SHA-256 over the program's source tree (names and bytes), so rows from
    checkouts without git history still identify the code they measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_get_num_threads() -> Optional[Callable[[], int]]:
    """``get_num_threads`` of the OpenBLAS this process loaded (read only)."""
    try:
        maps = Path(f"/proc/{os.getpid()}/maps").read_text()
    except OSError:
        return None
    paths = sorted({
        line.split()[-1]
        for line in maps.splitlines()
        if "openblas" in line.rsplit("/", 1)[-1].lower()
    })
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", "_", ""):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if getter is not None:
                    getter.argtypes = []
                    getter.restype = ctypes.c_int
                    return getter
    return None


def _blas_info(np) -> Dict[str, object]:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # noqa: BLE001 - numpy build metadata is best effort
        return {"name": "unknown", "version": "unknown"}


def fingerprint(root: Path) -> Dict[str, object]:
    """Machine and code identity carried by every result row."""
    import numpy as np  # after the program's import path is set up

    getter = _openblas_get_num_threads()
    return {
        "git_rev": _git_rev(root),
        "src_sha256": _source_digest(root),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(np),
        "blas_threads": int(getter()) if getter is not None else None,
        "env": {
            name: value
            for name, value in sorted(os.environ.items())
            if name.startswith("REPRO_") or name.endswith("_NUM_THREADS")
        },
    }


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


# -- spans ------------------------------------------------------------------

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; a span's parent is the innermost span open on
    the same thread.  Written out once, when the benchmark ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, clock(), 0.0, parent, request))
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index].end = clock()

    def add(self, name: str, start: float, end: float, request: Optional[str] = None) -> None:
        """Record a span measured elsewhere (e.g. across threads)."""
        with self._lock:
            self.spans.append(Span(name, start, end, None, request))

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def to_json(self) -> List[list]:
        return [[s.name, s.start, s.end, s.parent, s.request] for s in self.spans]


@contextmanager
def wrapped(owner: object, attr: str, make_wrapper: Callable) -> Iterator[None]:
    """Replace ``owner.attr`` with ``make_wrapper(original)`` for the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def timed_calls(record: List[Tuple[float, float, object]]):
    """Wrapper factory appending ``(start, end, result)`` per call."""
    def make(original):
        def wrapper(*args, **kwargs):
            start = clock()
            result = original(*args, **kwargs)
            record.append((start, clock(), result))
            return result
        return wrapper
    return make


# -- statistics and the result row -------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


@dataclass
class Outcome:
    """Everything one run reports: metrics with units, the attempted/failed
    counts and the extra detail written to the result row."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    detail: Dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def write_row(root: Path, name: str, row: Dict[str, object]) -> Path:
    """Write one result row under ``.bench_out`` in the checkout."""
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / name
    path.write_text(json.dumps(row, indent=1, default=str))
    return path


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
