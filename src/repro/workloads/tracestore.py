"""An in-memory, content-addressed memo of traces.

A :class:`TraceStore` generates each profile trace once per ``(profile,
length, seed)`` and hands the same :class:`~repro.workloads.access.Trace`
to every later request, so a caller running several multi-mix sweeps
over the same mixes and seeds (:func:`repro.sim.mixsweep.run_mix_sweep`
with ``trace_store=``) generates each per-core trace only once.  Raw
address arrays enter through :meth:`TraceStore.put`, keyed by a digest of
their bytes.

Traces stay in this process's memory.  The drivers fan out over threads,
and supervised workers regenerate their traces from identities
(:mod:`repro.jobs.payloads`), so no trace crosses a process boundary.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .access import Trace

__all__ = ["TraceStore"]


class TraceStore:
    """Generate each trace once; return the same :class:`Trace` after.

    ``backing`` names where the traces live; "memory" is the only one.
    The store is a context manager: :meth:`close` (or leaving the
    ``with`` block) drops every trace, and a closed store raises on use.
    """

    def __init__(self, backing: str = "memory"):
        if backing != "memory":
            raise ValueError(f"unknown backing {backing!r}; a TraceStore "
                             f"keeps its traces in memory ('memory')")
        self.backing = backing
        self._traces: dict[str, Trace] = {}
        self._closed = False

    def __len__(self) -> int:
        return len(self._traces)

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def get(self, profile, n_accesses: int, seed: int) -> Trace:
        """The profile's trace, generated on the first request of its
        ``(profile.name, n_accesses, seed)`` key."""
        self._check_open()
        key = f"{profile.name}|{int(n_accesses)}|{int(seed)}"
        trace = self._traces.get(key)
        if trace is None:
            # Mixes on a thread pool share the store: setdefault is one
            # atomic dict operation, so two threads that both missed
            # still return the one trace stored first.
            trace = self._traces.setdefault(
                key, profile.trace(n_accesses=n_accesses, seed=seed))
        return trace

    def put(self, trace: Trace | np.ndarray, name: str = "trace",
            instructions: int = 0) -> Trace:
        """Store an existing trace (or raw address array), deduplicated
        by a digest of its addresses."""
        self._check_open()
        if isinstance(trace, Trace):
            addrs = np.ascontiguousarray(trace.addresses, dtype=np.int64)
            name = trace.name
            instructions = trace.instructions
        else:
            addrs = np.ascontiguousarray(np.asarray(trace, dtype=np.int64))
        if addrs.ndim != 1:
            raise ValueError("trace must be one-dimensional")
        key = f"{name}|{hashlib.sha256(addrs.tobytes()).hexdigest()[:24]}"
        stored = self._traces.get(key)
        if stored is None:
            stored = self._traces.setdefault(
                key, Trace(addrs, max(1, int(instructions)), name=name))
        return stored

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("TraceStore is closed")

    def close(self) -> None:
        """Drop every trace; later ``get``/``put`` calls raise
        (idempotent)."""
        self._closed = True
        self._traces = {}

    def __repr__(self) -> str:
        return (f"TraceStore(backing={self.backing!r}, "
                f"traces={len(self._traces)})")
