"""The one way into the native replay kernels: batched replay tasks.

The native replay kernels (:mod:`repro.cache._native`) release the GIL for
the duration of each call and keep *all* state in caller-owned arrays, so
N independent config replays are embarrassingly parallel: no two tasks
share a byte of mutable state.  This module is the Python side of the
``batch_run_threaded`` dispatcher in ``_sweepkernel.c``, and the only
caller of it:

* a :class:`ReplayTask` packages one cache's replay of one trace — either
  as a ``BatchTask`` argument record for the native dispatcher, or as a
  fallback closure for a cache with no kernel task of its own (an
  object-model cache).  A way, set or ideal partitioned cache replays as
  one *group* record (:meth:`ReplayTask.group`): the kernel splits the
  partition-tagged (or, for a Talus logical pair, H3-steered) trace by
  region in scratch, runs one plain kernel record per region over its
  sub-trace, and the group commits once;
* one private dispatcher packs all native tasks into one ctypes array,
  makes a *single* ``batch_run_threaded`` call (one GIL release, C worker
  threads inside), commits each task's statistics, then runs the
  fallbacks in order.  A task whose commit asks to run again (a monitor
  fold the kernel stopped to grow its table) joins the next call.
  :func:`run_tasks` calls it at the resolved width; :meth:`ReplayTask.run`
  and :func:`run_serial` call it at width 1, which is how every serial
  entry point of the array caches (``run``, ``run_chunk``, ``access``,
  ``run_partitioned``) replays and how the monitors fold and read.

Because a task is the same kernel call whichever way it is dispatched,
results are **bit-identical at any thread count**: the kernels never read
another task's state, and each task's misses land in its own
``result``/``miss_out`` slots.  ``REPRO_THREADS`` (or an explicit
``threads=``) controls the worker width of :func:`run_tasks`; width 1
*is* the serial loop.  This is how every driver fans replays out
in-process: a sweep's points and a sampled estimate's windows are the
tasks of one :func:`run_tasks` call.  Worker processes come only from
the supervised job runtime (``supervise=True``, :mod:`repro.jobs`).

Caches advertise the batch path by implementing ``replay_task``
(:class:`~repro.cache.arraycache.ArraySetAssociativeCache`,
:class:`~repro.cache.arraycache.ArrayBeladyCache`,
:class:`~repro.cache.partition.array.ArrayPartitionedCache`,
:class:`~repro.cache.partition.array.ArrayVantageCache`,
:class:`~repro.cache.talus_cache.TalusCache`), and so does the
stack-distance monitor
(:class:`~repro.monitor.stack_distance.IncrementalStackMonitor`), whose
fold of one chunk is a task like a replay.  Without a kernel
``backend="auto"`` builds object-model caches; a Talus cache over one
still returns a task, which degrades to its fallback closure inside the
same :func:`run_tasks` call, so callers never special-case
``REPRO_NATIVE=0``.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Iterable, Sequence

import numpy as np

from ._native import KIND_GROUP, BatchTask, require_kernel, resolve_threads

__all__ = ["ReplayTask", "StateFields", "run_tasks", "run_serial",
           "i64_ptr", "u64_ptr"]


def i64_ptr(array: np.ndarray) -> int:
    """The ``int64_t *`` of a C-contiguous int64 array, as the address a
    ``BatchTask`` array member holds (no copy, no cast).

    Raises rather than copies: these arrays are the caller's live
    simulation state, and a silent copy would discard the kernel's writes.
    The address does not keep the array alive; a task's ``refs`` (or the
    cache owning the state) does.
    """
    if array.dtype != np.int64 or not array.flags["C_CONTIGUOUS"]:
        raise ValueError("state arrays must be C-contiguous int64")
    return array.ctypes.data


def u64_ptr(array: np.ndarray) -> int:
    """The ``uint64_t *`` of a C-contiguous uint64 array (see
    :func:`i64_ptr`)."""
    if array.dtype != np.uint64 or not array.flags["C_CONTIGUOUS"]:
        raise ValueError("RNG state must be C-contiguous uint64")
    return array.ctypes.data


class StateFields(dict):
    """Record members of an owner's long-lived state: the addresses of its
    arrays (:func:`i64_ptr`) and its constants, read once and kept until
    the owner replaces an array and clears them.  An address costs about
    2 us to read, and a cache's arrays change only when it resizes.

    A copied or unpickled owner holds new arrays, so the addresses never
    travel with it: copying or pickling a ``StateFields`` yields an empty
    one, which the owner refills at its next replay.
    """

    __slots__ = ()

    def __reduce_ex__(self, protocol):
        return (type(self), ())


class ReplayTask:
    """One cache's replay of one trace, executable in a threaded batch.

    Parameters
    ----------
    fields:
        ``BatchTask`` member values (array addresses from :func:`i64_ptr`
        / :func:`u64_ptr`, plain ints, and ``epsilon`` as float) for the
        native dispatcher, or ``None`` when this task can only run through
        its fallback.
    refs:
        Objects that must stay alive while the kernel may dereference the
        packed addresses (the address trace and any buffers created for
        this task; long-lived cache state is kept alive by the cache).
    commit:
        Called with the task's non-negative kernel result after the batch
        returns; folds the replay into the cache's statistics.  The
        serial entry points run the same task, so they fold the same way.
        It may instead return the fields of a follow-up record (a monitor
        fold the kernel stopped to grow its table): the task then runs
        again with them in the dispatcher's next call, and commits when
        a commit returns None.
    fallback:
        Zero-argument closure replaying through another entry point of
        the cache (the per-access object model, or a per-region loop) —
        used when ``fields`` is ``None``.
    misses:
        Optional caller-visible per-partition miss array (partitioned
        kinds); the kernel or the commit writes it, the fallback must
        fill it.  A partitioned task's commit also fills its
        per-partition ``accesses``.
    """

    __slots__ = ("fields", "refs", "misses", "accesses", "_commit",
                 "_fallback", "_after")

    def __init__(self, *, fields: dict | None = None,
                 refs: Sequence[object] = (),
                 commit: Callable[[int], None] | None = None,
                 fallback: Callable[[], None] | None = None,
                 misses: np.ndarray | None = None):
        if fields is None and fallback is None:
            raise ValueError("a ReplayTask needs fields or a fallback")
        self.fields = fields
        self.refs = tuple(refs)
        self.misses = misses
        self.accesses: np.ndarray | None = None
        self._commit = commit
        self._fallback = fallback
        self._after: list[Callable[[], None]] = []

    @classmethod
    def group(cls, records: Sequence[dict], fields: dict, *,
              refs: Sequence[object], commit: Callable[[int], None],
              misses: np.ndarray) -> "ReplayTask":
        """One native task replaying a trace over independent regions.

        ``records`` are the region records' members, one per lane (the
        kernel fills in each one's ``addrs`` and ``n``); ``fields`` are
        the group's own: ``addrs`` and ``n`` (the whole trace), each
        access's lane as ``parts`` or through the ``steer_*`` members,
        and ``acc_out``/``miss_out``, which receive each lane's counts.
        The kernel splits the trace by lane, in order, into scratch of the
        worker that claimed the group and replays each lane's sub-trace
        through its record; its result is the total misses, or the first
        negative region result.  ``commit`` then folds the counts.
        """
        packed = (BatchTask * len(records))(
            *[BatchTask(**record) for record in records])
        fields = {**fields, "kind": KIND_GROUP,
                  "sub": ctypes.addressof(packed),
                  "num_regions": len(records)}
        return cls(fields=fields, refs=(packed, *refs), commit=commit,
                   misses=misses)

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

    def commit(self, result: int) -> bool:
        """Fold a finished native task into the cache's statistics; False
        when its commit asked to run a follow-up record instead."""
        if result < 0:
            raise RuntimeError(
                f"native batched replay rejected a task (result={result})")
        if self._commit is not None:
            follow = self._commit(int(result))
            if follow is not None:
                self.fields = follow
                return False
        for hook in self._after:
            hook()
        return True

    def run_fallback(self) -> None:
        """Replay through the serial fallback (identical results)."""
        self._fallback()
        for hook in self._after:
            hook()

    def run(self) -> "ReplayTask":
        """Run this task alone on the calling thread (one width-1
        dispatch) and commit it; the serial entry points' replay."""
        _dispatch((self,), 1)
        return self


def _dispatch(tasks: Sequence[ReplayTask], threads: int) -> None:
    """Run ``tasks``: every native one in a single ``batch_run_threaded``
    call at width ``threads``, each committed in order once the call
    returns (a task whose commit asks to run again joins one more call);
    then every fallback task, in order."""
    native = [t for t in tasks if t.native]
    while native:
        packed = (BatchTask * len(native))(
            *[BatchTask(**task.fields) for task in native])
        require_kernel().batch_run_threaded(packed, len(native), threads)
        native = [task for slot, task in zip(packed, native)
                  if not task.commit(int(slot.result))]
    for task in tasks:
        if not task.native:
            task.run_fallback()


def run_serial(tasks: Sequence[ReplayTask]) -> None:
    """Run ``tasks`` on the calling thread in one width-1 dispatch, as
    :meth:`ReplayTask.run` runs one.  A UMON read folds both of its
    monitors this way; replays that should fan out across threads go
    through :func:`run_tasks`."""
    _dispatch(tasks, 1)


def run_tasks(tasks: Iterable[ReplayTask],
              threads: int | None = None) -> list[ReplayTask]:
    """Execute a batch of independent replay tasks, threaded when possible.

    All native tasks are packed into one ctypes array and dispatched in a
    single ``batch_run_threaded`` call — the GIL is released once for the
    whole batch and the C worker threads claim tasks from an atomic work
    queue.  Fallback-only tasks then run serially in submission order.
    ``threads`` defaults to :func:`~repro.cache._native.resolve_threads`
    (``REPRO_THREADS`` or the CPUs this process may use); any width,
    including 1, produces bit-identical results.
    """
    tasks = list(tasks)
    _dispatch(tasks, resolve_threads(threads))
    return tasks
