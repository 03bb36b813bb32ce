"""Shared helpers for the speedup benchmarks' JSON result banks.

Every ``bench_*_speedup.py`` records machine-readable timings under
``benchmarks/out/`` for cross-PR perf tracking (CI uploads the directory
as an artifact).  The read-merge-write cycle lives here so the banks all
share one schema convention: one entry per measured configuration plus a
``meta`` block carrying the benchmark's scale parameters, whether the
native kernel was available, and a timestamp.  Writes go through
:func:`repro.core.atomicio.atomic_write_json`, so a benchmark killed
mid-write (CI timeout, OOM) never truncates the accumulated bank.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.cache._native import (available_cpus, native_available,
                                 resolve_threads)
from repro.core.atomicio import atomic_write_json

#: Directory the benchmark JSON banks land in (gitignored; uploaded by CI).
OUT_DIR = Path(__file__).parent / "out"


def bench_json_path(filename: str, env_var: str) -> Path:
    """The bank's path: ``benchmarks/out/<filename>``, overridable via
    the benchmark's environment variable."""
    return Path(os.environ.get(env_var, OUT_DIR / filename))


def write_bench_json(path: Path, key: str, payload: dict,
                     meta: dict | None = None) -> None:
    """Merge one measurement into the JSON bank at ``path``.

    Existing entries under other keys are preserved (so parametrized
    benchmarks accumulate into one file); ``meta`` is refreshed with the
    native-kernel flag, the host's core count (``cpu_count``), the CPUs
    this process can use (``cpus``: the affinity mask capped by the cgroup
    CPU quota), the resolved thread width (``REPRO_THREADS``-aware), and a
    timestamp on every write.
    """
    path = Path(path)
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
    data[key] = payload
    data["meta"] = {**(meta or {}), "native": native_available(),
                    "cpu_count": os.cpu_count() or 1,
                    "cpus": available_cpus(),
                    "threads": resolve_threads(),
                    "timestamp": time.time()}
    atomic_write_json(path, data)
