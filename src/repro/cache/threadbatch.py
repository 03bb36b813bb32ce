"""Thread-parallel batched replay over the native kernels.

The native replay kernels (:mod:`repro.cache._native`) release the GIL for
the duration of each call and keep *all* state in caller-owned arrays, so
N independent config replays are embarrassingly parallel: no two tasks
share a byte of mutable state.  This module is the Python side of the
``batch_run_threaded`` dispatcher in ``_sweepkernel.c``:

* a :class:`ReplayTask` packages one cache's replay of one trace — either
  as a flat ``BatchTask`` argument record for the native dispatcher, or as
  a fallback closure through the cache's serial entry point when it has
  no batched kernel path (an object-model cache, an empty trace, or a
  kernel built without the threaded dispatcher);
* :func:`run_tasks` packs all native tasks into one ctypes array, makes a
  *single* ``batch_run_threaded`` call (one GIL release, C worker threads
  inside), then commits each task's statistics exactly as the serial entry
  points would.

Because the per-config replay code is untouched — a task is just a
flattened call into the same kernel the serial path uses — results are
**bit-identical to serial execution at any thread count**: the kernels
never read another task's state, and each task's misses land in its own
``result``/``miss_out`` slots.  ``REPRO_THREADS`` (or an explicit
``threads=``) controls the worker width; width 1 *is* the serial loop.

Caches advertise the fast path by implementing ``replay_task``
(:class:`~repro.cache.arraycache.ArraySetAssociativeCache`,
:class:`~repro.cache.partition.array.ArrayPartitionedCache`,
:class:`~repro.cache.partition.array.ArrayVantageCache`,
:class:`~repro.cache.talus_cache.TalusCache`).  Without a kernel
``backend="auto"`` builds object-model caches; a Talus cache over one
still returns a task, which degrades to its fallback closure inside the
same :func:`run_tasks` call, so callers never special-case
``REPRO_NATIVE=0``.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Iterable, Sequence

import numpy as np

from ._native import BatchTask, get_kernel, native_available, resolve_threads

__all__ = ["ReplayTask", "run_tasks", "resolve_parallel", "PARALLEL_MODES",
           "i64_ptr", "u64_ptr"]

#: Values accepted by the drivers' ``parallel=`` parameter.
PARALLEL_MODES = ("auto", "threads", "processes")


def resolve_parallel(mode: str) -> str:
    """Resolve a ``parallel=`` mode to "threads" or "processes".

    "auto" prefers threads exactly when the native kernel (and therefore
    the GIL-releasing batch dispatcher) is available; without it the
    object-model replay would serialize on the GIL, so the process-pool
    path is kept.
    """
    if mode not in PARALLEL_MODES:
        raise ValueError(f"unknown parallel mode {mode!r}; "
                         f"known: {PARALLEL_MODES}")
    if mode == "auto":
        return "threads" if native_available() else "processes"
    return mode


def i64_ptr(array: np.ndarray):
    """``int64_t *`` for a C-contiguous int64 array (no copy, no cast).

    Raises rather than copies: these arrays are the caller's live
    simulation state, and a silent copy would discard the kernel's writes.
    """
    if array.dtype != np.int64 or not array.flags["C_CONTIGUOUS"]:
        raise ValueError("state arrays must be C-contiguous int64")
    return array.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))


def u64_ptr(array: np.ndarray):
    """``uint64_t *`` for a C-contiguous uint64 array (see :func:`i64_ptr`)."""
    if array.dtype != np.uint64 or not array.flags["C_CONTIGUOUS"]:
        raise ValueError("RNG state must be C-contiguous uint64")
    return array.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64))


class ReplayTask:
    """One cache's replay of one trace, executable in a threaded batch.

    Parameters
    ----------
    fields:
        ``BatchTask`` member values (pointers from :func:`i64_ptr` /
        :func:`u64_ptr`, plain ints, and ``epsilon`` as float) for the
        native dispatcher, or ``None`` when this task can only run through
        its fallback.
    refs:
        Arrays that must stay alive while the kernel may dereference the
        packed pointers (the address trace and any buffers created for
        this task; long-lived cache state is kept alive by the cache).
    commit:
        Called with the task's non-negative kernel result after the batch
        returns; folds the replay into the cache's statistics exactly as
        the serial entry point would.
    fallback:
        Zero-argument closure replaying through the cache's normal
        (serial) entry point — used when ``fields`` is ``None``.
    misses:
        Optional caller-visible per-partition miss array (partitioned
        kinds); the kernel writes it in place, the fallback must fill it.
    """

    __slots__ = ("fields", "refs", "misses", "_commit", "_fallback",
                 "_after")

    def __init__(self, *, fields: dict | None = None,
                 refs: Sequence[np.ndarray] = (),
                 commit: Callable[[int], None] | None = None,
                 fallback: Callable[[], None] | None = None,
                 misses: np.ndarray | None = None):
        if fields is None and fallback is None:
            raise ValueError("a ReplayTask needs fields or a fallback")
        self.fields = fields
        self.refs = tuple(refs)
        self.misses = misses
        self._commit = commit
        self._fallback = fallback
        self._after: list[Callable[[], None]] = []

    @property
    def native(self) -> bool:
        """Whether this task joins the native batched dispatch."""
        return self.fields is not None

    def add_callback(self, hook: Callable[[], None]) -> "ReplayTask":
        """Chain a post-commit hook (runs on both paths, in add order).

        This is how wrappers fold their own statistics on top of the base
        cache's commit — e.g. :class:`~repro.cache.talus_cache.TalusCache`
        adding its logical-partition fold over the partitioned base task.
        """
        self._after.append(hook)
        return self

    def commit(self, result: int) -> None:
        """Fold a finished native task into the cache's statistics."""
        if result < 0:
            raise RuntimeError(
                f"native batched replay rejected a task (result={result})")
        if self._commit is not None:
            self._commit(int(result))
        for hook in self._after:
            hook()

    def run_fallback(self) -> None:
        """Replay through the serial fallback (identical results)."""
        self._fallback()
        for hook in self._after:
            hook()


def run_tasks(tasks: Iterable[ReplayTask],
              threads: int | None = None) -> list[ReplayTask]:
    """Execute a batch of independent replay tasks, threaded when possible.

    All native tasks are packed into one ctypes array and dispatched in a
    single ``batch_run_threaded`` call — the GIL is released once for the
    whole batch and the C worker threads claim tasks from an atomic work
    queue.  Fallback-only tasks then run serially in submission order.
    ``threads`` defaults to :func:`~repro.cache._native.resolve_threads`
    (``REPRO_THREADS`` or the host core count); any width, including 1,
    produces bit-identical results.
    """
    tasks = list(tasks)
    native = [t for t in tasks if t.native]
    if native:
        kernel = get_kernel()
        if kernel is None or not kernel.has_batch:
            # Tasks were built against a kernel that has since become
            # unavailable (should not happen: replay_task checks first).
            raise RuntimeError("native kernel unavailable for batched tasks")
        packed = (BatchTask * len(native))()
        for slot, task in zip(packed, native):
            for name, value in task.fields.items():
                setattr(slot, name, value)
        kernel.batch_run_threaded(packed, len(native),
                                  resolve_threads(threads))
        for slot, task in zip(packed, native):
            task.commit(int(slot.result))
    for task in tasks:
        if not task.native:
            task.run_fallback()
    return tasks
