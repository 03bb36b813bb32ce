"""On-demand compilation and loading of the native sweep kernels.

The array-backed caches (:mod:`repro.cache.arraycache`,
:mod:`repro.cache.partition.array`) keep all of their state in numpy
arrays and replay traces through it in compiled loops.  This module
compiles ``_sweepkernel.c`` into a small shared library with whatever C
compiler the host has (``cc``/``gcc``/``clang``) and exposes it through
:mod:`ctypes` (:class:`NativeKernel`).  Every replay, and every fold of
a stack-distance monitor, enters the kernel the same way: a cache (or
:class:`~repro.monitor.stack_distance.IncrementalStackMonitor`) packs
its call as a :class:`BatchTask` record (a partitioned cache as one
group record over one record per region) and
:mod:`repro.cache.threadbatch` hands a batch of them to
``batch_run_threaded``.  No Python headers, build backends, or
third-party packages are involved, so the build degrades gracefully:
when no compiler is available (or ``REPRO_NATIVE=0`` is set)
:func:`get_kernel` returns ``None``, ``backend="auto"`` resolves to the
object model (bit-identical to the kernel, only slower), and building an
array cache raises (:func:`require_kernel`).

The compiled library is cached under the user's cache directory keyed by a
hash of the C source, so recompilation happens only when the source
changes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["get_kernel", "native_available", "require_kernel",
           "disable_native",
           "NativeKernel", "BatchTask",
           "available_cpus", "resolve_threads",
           "KIND_LRU", "KIND_RRIP", "KIND_DIP", "KIND_PDP", "KIND_RANDOM",
           "KIND_VANTAGE", "KIND_TADRRIP", "KIND_BELADY", "KIND_IDEAL_LRU",
           "KIND_GROUP", "KIND_STACK", "KIND_MISS"]

_SOURCE = Path(__file__).with_name("_sweepkernel.c")

_I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_U64 = np.ctypeslib.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS")

_kernel = None
_kernel_tried = False

#: Task kinds of the threaded batch dispatcher; must match the
#: BATCH_KIND_* enum in _sweepkernel.c.
(KIND_LRU, KIND_RRIP, KIND_DIP, KIND_PDP, KIND_RANDOM, KIND_VANTAGE,
 KIND_TADRRIP, KIND_BELADY, KIND_IDEAL_LRU, KIND_GROUP,
 KIND_STACK, KIND_MISS) = range(12)

#: Type of the array members of :class:`BatchTask`.
_PTR = ctypes.c_void_p


class BatchTask(ctypes.Structure):
    """ctypes mirror of the C ``batch_task`` record (one replay per task).

    The field order must match the struct declaration in
    ``_sweepkernel.c`` exactly; every member is 8 bytes, so there is no
    padding to worry about.  Array members are raw data addresses
    (:func:`~repro.cache.threadbatch.i64_ptr`), the cheapest form ctypes
    packs.  Unused members of a given kind stay NULL/0 (the
    zero-initialized default).  A group record's ``sub`` is the address
    of a ``BatchTask`` array of ``num_regions`` records, one per lane.
    The ``steer_*`` members carry a Talus logical pair's steering (its H3
    byte tables, limit register and alpha/beta ids) in place of a
    ``parts`` array, and ``acc_out`` receives per-partition (a group's:
    per-lane) access counts.  A fold record's ``sample_*`` members are its
    UMON's sampling filter, and ``read_*`` its miss-curve read.
    """

    _fields_ = [
        ("kind", ctypes.c_int64),
        ("addrs", _PTR),
        ("n", ctypes.c_int64),
        ("parts", _PTR),
        ("tags", _PTR),
        ("stamp", _PTR),
        ("rrpv", _PTR),
        ("counter", _PTR),
        ("rng_state", _PTR),
        ("roles", _PTR),
        ("psel", _PTR),
        ("expires", _PTR),
        ("clock", _PTR),
        ("dp", _PTR),
        ("sample_count", _PTR),
        ("hist", _PTR),
        ("ls_tags", _PTR),
        ("ls_clocks", _PTR),
        ("ls_count", _PTR),
        ("sub", _PTR),
        ("miss_out", _PTR),
        ("caps", _PTR),
        ("ht_tag", _PTR),
        ("ht_reg", _PTR),
        ("ht_node", _PTR),
        ("node_tag", _PTR),
        ("node_prev", _PTR),
        ("node_next", _PTR),
        ("head", _PTR),
        ("tail", _PTR),
        ("occ", _PTR),
        ("free_io", _PTR),
        ("num_sets", ctypes.c_int64),
        ("ways", ctypes.c_int64),
        ("max_rrpv", ctypes.c_int64),
        ("mode", ctypes.c_int64),
        ("lip", ctypes.c_int64),
        ("hashed", ctypes.c_int64),
        ("index_seed", ctypes.c_int64),
        ("psel_max", ctypes.c_int64),
        ("leader_levels", ctypes.c_int64),
        ("max_dp", ctypes.c_int64),
        ("interval", ctypes.c_int64),
        ("clear_threshold", ctypes.c_int64),
        ("tsize", ctypes.c_int64),
        ("num_regions", ctypes.c_int64),
        ("unm_cap", ctypes.c_int64),
        ("node_aux", _PTR),
        ("node_stamp", _PTR),
        ("vp_maxdp", _PTR),
        ("vp_interval", _PTR),
        ("vp_clear", _PTR),
        ("next_use", _PTR),
        ("heap_key", _PTR),
        ("heap_tag", _PTR),
        ("heap_io", _PTR),
        ("hist_stride", ctypes.c_int64),
        ("ls_size", ctypes.c_int64),
        ("heap_cap", ctypes.c_int64),
        ("capacity", ctypes.c_int64),
        ("num_streams", ctypes.c_int64),
        ("old_tree_cap", ctypes.c_int64),
        ("hist_len", ctypes.c_int64),
        ("steer_lut", _PTR),
        ("steer_bytes", ctypes.c_int64),
        ("steer_limit", ctypes.c_int64),
        ("steer_alpha", ctypes.c_int64),
        ("steer_beta", ctypes.c_int64),
        ("acc_out", _PTR),
        ("sample_mul", ctypes.c_uint64),
        ("sample_threshold", ctypes.c_int64),
        ("read_x", _PTR),
        ("read_n", ctypes.c_int64),
        ("read_out", _PTR),
        ("epsilon", ctypes.c_double),
        ("result", ctypes.c_int64),
    ]


#: Root of the cgroup file system whose CPU quota :func:`available_cpus`
#: reads.
_CGROUP_ROOT = Path("/sys/fs/cgroup")


def _cgroup_cpu_limit() -> int | None:
    """CPUs the cgroup CPU quota allows, ``ceil(quota / period)``.

    Reads cgroup v2 ``cpu.max``, else v1 ``cpu/cpu.cfs_quota_us`` and
    ``cpu/cpu.cfs_period_us``.  None when the quota is ``max`` or -1 (no
    cap) or cannot be read.
    """
    v2 = _CGROUP_ROOT / "cpu.max"
    v1 = _CGROUP_ROOT / "cpu"
    try:
        if v2.is_file():
            quota, period = v2.read_text().split()[:2]
        else:
            quota = (v1 / "cpu.cfs_quota_us").read_text().strip()
            period = (v1 / "cpu.cfs_period_us").read_text().strip()
        if quota in ("max", "-1"):
            return None
        quota_us, period_us = int(quota), int(period)
    except (OSError, ValueError):
        return None
    if quota_us <= 0 or period_us <= 0:
        return None
    return -(-quota_us // period_us)


def available_cpus() -> int:
    """How many CPUs this process can keep busy at once.

    The size of its affinity mask (the host core count where the platform
    reports no mask), capped by the cgroup CPU quota rounded up to whole
    CPUs.  Always at least 1.  This is the default thread width and the
    CPU count the benchmarks gate their scaling floors on.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    limit = _cgroup_cpu_limit()
    if limit is not None:
        cpus = min(cpus, limit)
    return max(1, cpus)


def resolve_threads(threads: int | None = None) -> int:
    """Effective worker-thread width for a batched replay.

    Resolution order: an explicit ``threads=`` argument, the
    ``REPRO_THREADS`` environment variable, then
    :func:`available_cpus` (the affinity mask capped by the cgroup CPU
    quota).  Always at least 1.
    """
    if threads is None:
        env = os.environ.get("REPRO_THREADS", "").strip()
        if env:
            try:
                threads = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_THREADS must be an integer, got {env!r}")
    if threads is None:
        threads = available_cpus()
    return max(1, int(threads))


class NativeKernel:
    """ctypes bindings of the compiled kernel's two entry points.

    Every replay kernel and the stack-distance fold are reached through
    ``batch_run_threaded``, which runs a batch of ``BatchTask`` records
    (one kernel call each; the caches' and the monitor's
    ``replay_task`` methods pack them and
    :mod:`repro.cache.threadbatch` dispatches them).  The other binding
    is Vantage's warm reallocation, ``vantage_realloc``.  :attr:`lib`
    is the loaded library itself.
    """

    def __init__(self, lib: ctypes.CDLL):
        self.lib = lib
        lib.batch_run_threaded.restype = ctypes.c_int64
        lib.batch_run_threaded.argtypes = [
            ctypes.POINTER(BatchTask), ctypes.c_int64, ctypes.c_int64,
        ]
        lib.vantage_realloc.restype = ctypes.c_int64
        lib.vantage_realloc.argtypes = [
            ctypes.c_int64, _I64, ctypes.c_int64,
            ctypes.c_int64, ctypes.c_int64, _U64,
            _I64, _I64, _I64, _I64,
            _I64, _I64, _I64, ctypes.c_int64,
            _I64, _I64, _I64,
            _I64, _I64, _I64, _I64,
        ]

    def batch_run_threaded(self, tasks, num_tasks: int,
                           num_threads: int) -> int:
        """Execute ``num_tasks`` independent replay tasks across up to
        ``num_threads`` worker threads (serial under the
        ``REPRO_SERIAL_BATCH`` build); each task's outcome lands in its
        own ``result`` member.  Returns the thread count actually used.

        ``tasks`` is a ``(BatchTask * num_tasks)()`` ctypes array; the GIL
        is released for the whole call, which is what lets Python-level
        thread pools overlap other work with a running batch."""
        return int(self.lib.batch_run_threaded(tasks, num_tasks,
                                               num_threads))

    def vantage_realloc(self, num_parts, new_caps, unm_cap, pol, max_rrpv,
                        rng_state, node_aux, node_stamp, pdp_clock, pdp_dp,
                        ht_tag, ht_reg, ht_node, node_tag, node_prev,
                        node_next, head, tail, occ, free_io) -> int:
        """Warm Vantage reallocation: trim each managed region to its new
        capacity via the ``pol`` victim policy, demoting evicted victims
        into the unmanaged region."""
        return int(self.lib.vantage_realloc(num_parts, new_caps, unm_cap,
                                            pol, max_rrpv, rng_state,
                                            node_aux, node_stamp, pdp_clock,
                                            pdp_dp, ht_tag, ht_reg, ht_node,
                                            ht_tag.size, node_tag, node_prev,
                                            node_next, head, tail, occ,
                                            free_io))


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME")
    if base:
        return Path(base) / "repro-kernels"
    home = Path.home()
    if os.access(home, os.W_OK):
        return home / ".cache" / "repro-kernels"
    return Path(tempfile.gettempdir()) / "repro-kernels"


def _find_compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


#: Extra compile flags per build variant, preferred first: the threaded
#: batch dispatcher needs -pthread; when the compiler rejects that flag the
#: retry compiles the same entry points with a serial dispatcher.
_FLAG_VARIANTS = (("-pthread",), ("-DREPRO_SERIAL_BATCH",))

#: Entry symbol of the batch dispatcher, the one way into the replay
#: kernels.  Folded into the cached-library key so a cache populated
#: before the dispatcher existed (same base flags, different exports) can
#: never be picked up.
_BATCH_SYMBOLS = "batch_run_threaded"


def _variant_flags(extra: tuple[str, ...]) -> list[str]:
    """Full compile flags for one build variant.

    ``REPRO_NATIVE_CFLAGS`` appends user flags to every variant (e.g.
    ``-fsanitize=thread`` for the CI race-detection smoke build); they are
    part of the cache key, so sanitizer and plain builds coexist.
    """
    user = os.environ.get("REPRO_NATIVE_CFLAGS", "").split()
    return ["-O3", "-shared", "-fPIC", *extra, *user]


def _library_path(cache: Path, source: bytes, flags: list[str],
                  suffix: str) -> Path:
    key = source + b"|" + " ".join(flags).encode() + b"|" + \
        _BATCH_SYMBOLS.encode()
    digest = hashlib.sha256(key).hexdigest()[:16]
    return cache / f"sweepkernel-{digest}.{suffix}"


def _build_library() -> Path | None:
    if not _SOURCE.exists():
        return None
    source = _SOURCE.read_bytes()
    suffix = "dll" if sys.platform == "win32" else "so"
    cache = _cache_dir()
    candidates = [(extra, _library_path(cache, source,
                                        _variant_flags(extra), suffix))
                  for extra in _FLAG_VARIANTS]
    for _, lib_path in candidates:
        if lib_path.exists():
            return lib_path
    compiler = _find_compiler()
    if compiler is None:
        return None
    for extra, lib_path in candidates:
        tmp_path = None
        try:
            cache.mkdir(parents=True, exist_ok=True)
            with tempfile.NamedTemporaryFile(
                    suffix=f".{suffix}", dir=cache, delete=False) as tmp:
                tmp_path = Path(tmp.name)
            cmd = [compiler, *_variant_flags(extra),
                   str(_SOURCE), "-o", str(tmp_path)]
            subprocess.run(cmd, check=True, capture_output=True, timeout=120)
            os.replace(tmp_path, lib_path)  # atomic vs concurrent builders
            return lib_path
        except (OSError, subprocess.SubprocessError):
            try:
                if tmp_path is not None:
                    tmp_path.unlink(missing_ok=True)
            except OSError:
                pass
    return None


def get_kernel() -> NativeKernel | None:
    """The compiled kernel bindings, or None when unavailable.

    The first call attempts the build; the result (including failure) is
    cached for the life of the process.  Set ``REPRO_NATIVE=0`` to run
    without it (``backend="auto"`` then resolves to the object model).
    """
    global _kernel, _kernel_tried
    if _kernel_tried:
        return _kernel
    _kernel_tried = True
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        return None
    lib_path = _build_library()
    if lib_path is None:
        return None
    try:
        _kernel = NativeKernel(ctypes.CDLL(str(lib_path)))
    except OSError:
        _kernel = None
    return _kernel


def native_available() -> bool:
    """Whether the native replay kernels can be used."""
    return get_kernel() is not None


def require_kernel() -> NativeKernel:
    """The compiled kernel bindings; raises when they are unavailable.

    The array backend has no other replay path, so every array cache
    checks for the kernel through this when it is built and when it
    replays.
    """
    kernel = get_kernel()
    if kernel is None:
        raise RuntimeError(
            "the array backend needs the native kernel, which is "
            "unavailable: no C compiler (cc, gcc or clang) could build "
            "it, or REPRO_NATIVE=0 disabled it; use backend='object' or "
            "'auto', which replay every policy bit for bit the same")
    return kernel


def disable_native() -> None:
    """Run on the object model for the rest of this process.

    The supervised job runtime's degradation ladder calls this in a
    worker that is retrying a job after a native-kernel fault (SIGSEGV,
    OOM kill, compiler breakage): it drops any already-loaded kernel,
    pins the process-lifetime build cache to "unavailable", and sets
    ``REPRO_NATIVE=0`` so grandchild processes degrade too.  Every
    kernel lookup happens through :func:`get_kernel` at use time, so the
    switch takes effect immediately regardless of how the worker was
    started (fork inherits the parent's cached kernel; spawn would
    rebuild it).  There is deliberately no ``enable_native`` inverse —
    a degraded worker stays degraded for its lifetime.
    """
    global _kernel, _kernel_tried
    os.environ["REPRO_NATIVE"] = "0"
    _kernel = None
    _kernel_tried = True
