"""Multi-point monitors for non-stack replacement policies (Sec. VI-C).

High-performance policies such as SRRIP do not obey the stack property, so
no single auxiliary structure yields their whole miss curve.  The paper's
workaround — acknowledged to be impractically large in hardware, but
sufficient to show Talus is policy agnostic — is an array of monitors, one
per desired curve point, each sampling the access stream at a different
rate so that a fixed-size monitor models a different cache size
(Theorem 4 again).

:class:`MultiPointMonitor` reproduces that arrangement in software.  Each
point samples by *set* (UMON-DSS style): a seeded hash picks which sets of
the modelled cache the monitor follows, and the monitor cache holds exactly
those sets.  Every monitored set therefore receives precisely the lines its
modelled set would, which preserves the per-set balance that sharp
capacity cliffs depend on — plain address-hash sampling feeds each monitor
set a binomially imbalanced subset and smears cliffs (the planning-curve
noise that used to make Talus degrade SRRIP past libquantum's cliff).

Fast path
---------
The per-point sub-streams are selected and remapped with vectorized numpy
(:meth:`MultiPointMonitor.record_trace`), and each point's cache is built
from a :class:`~repro.cache.spec.CacheSpec`: an array-backend cache
(:mod:`repro.cache.arraycache`) replayed by the native kernel in one call
per point — no per-access Python — when the kernel is available.  The
scalar :meth:`MultiPointMonitor.record` path makes identical sampling
decisions, so online and batch recording interleave freely.  With
``backend="object"`` (or without the kernel) the same sampling drives
reference object-model caches, and the two backends produce identical
curves for every policy.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.misscurve import MissCurve
from ..cache.cache import SetAssociativeCache, materialize_addresses
from ..cache.factory import cache_geometry, resolve_backend
from ..cache.spec import CacheSpec
from ..cache.hashing import mix64_array, seed_mix
from ..cache.replacement.base import EvictionPolicy

__all__ = ["MultiPointMonitor"]


class MultiPointMonitor:
    """One sampled monitor per miss-curve point, for arbitrary policies.

    Parameters
    ----------
    sizes:
        Cache sizes (in lines of the full cache) at which to measure the
        curve.  The paper uses 64 points.
    policy_factory:
        ``(set_index, ways) -> EvictionPolicy`` for the monitored policy.
        Forces the object backend; prefer ``policy`` for named policies.
    monitor_lines:
        Tag-array budget of each per-point monitor.  Points modelling up to
        ``monitor_lines`` lines are simulated exactly; larger points follow
        ``monitor_lines / size`` of the modelled sets, so bigger modelled
        sizes are sampled more sparsely — exactly how the hardware keeps
        per-point cost constant.
    ways:
        Associativity of the modelled (and therefore monitor) caches.
    seed:
        Base seed for the per-point set-selection hashes (and, with
        ``policy``, for randomized policies' insertion streams).
    policy:
        Name of the monitored policy (e.g. ``"SRRIP"``); enables the
        array/native backend.  Exactly one of ``policy``/``policy_factory``
        must be given.
    backend:
        "object", "array" or "auto" (only with ``policy``); "auto" picks
        the array backend when the native kernel is available.

    Notes
    -----
    Sampled points remap each line to its monitor set with a
    zigzag-encoded tag, so any int64 address is accepted.  Points small
    enough to be simulated exactly feed addresses through unchanged, so
    on the array backend they inherit its one reserved address (-1).
    """

    def __init__(self, sizes: Sequence[int],
                 policy_factory: Callable[[int, int], EvictionPolicy] | None = None,
                 monitor_lines: int = 1024,
                 ways: int = 16,
                 seed: int = 13,
                 policy: str | None = None,
                 backend: str = "auto"):
        sizes = [int(s) for s in sizes]
        if not sizes:
            raise ValueError("sizes must not be empty")
        if any(s < 0 for s in sizes):
            raise ValueError("sizes must be non-negative")
        if monitor_lines <= 0:
            raise ValueError("monitor_lines must be positive")
        if (policy is None) == (policy_factory is None):
            raise ValueError("exactly one of policy/policy_factory required")
        self.sizes = sorted(set(sizes))
        self.monitor_lines = monitor_lines
        self.ways = ways
        self.seed = seed
        self.policy = policy
        self.backend = ("object" if policy is None
                        else resolve_backend(backend, policy))
        self._total = 0
        self._points: list[dict] = []
        for i, size in enumerate(self.sizes):
            if size == 0:
                self._points.append({"size": 0, "rate": 1.0, "cache": None,
                                     "lut": None})
                continue
            mod_sets, mod_ways = cache_geometry(size, ways)
            if size <= monitor_lines:
                # Small point: simulate the modelled cache exactly.
                m, lut, rate = mod_sets, None, 1.0
            else:
                m = min(mod_sets, max(1, monitor_lines // mod_ways))
                rate = m / mod_sets
                # Seeded hash ranks the modelled sets; the monitor follows
                # the first m of them.  lut[s] = monitor set of modelled
                # set s, or -1 when s is not monitored.
                seed_mul = seed_mix(seed + 101 * (i + 1))
                keys = mix64_array(np.arange(mod_sets).astype(np.uint64)
                                   ^ np.uint64(seed_mul))
                chosen = np.argsort(keys, kind="stable")[:m]
                lut = np.full(mod_sets, -1, dtype=np.int64)
                lut[chosen] = np.arange(m, dtype=np.int64)
            cache = self._point_cache(m, mod_ways, policy_factory, i)
            self._points.append({"size": size, "rate": rate, "cache": cache,
                                 "lut": lut, "mod_sets": mod_sets, "m": m})

    def _point_cache(self, num_sets: int, ways: int,
                     policy_factory, point_index: int):
        if policy_factory is not None:
            return SetAssociativeCache(num_sets, ways, policy_factory)
        return CacheSpec(capacity_lines=num_sets * ways, ways=self.ways,
                         policy=self.policy, backend=self.backend,
                         seed=self.seed + point_index).build()

    # ------------------------------------------------------------------ #
    def record(self, address: int) -> None:
        """Observe one access with every per-point monitor."""
        address = int(address)
        self._total += 1
        for point in self._points:
            if point["size"] == 0:
                continue
            lut = point["lut"]
            if lut is None:
                sampled_address = address
            else:
                mod_sets = point["mod_sets"]
                rank = int(lut[address % mod_sets])
                if rank < 0:
                    continue
                # Remap so the monitor's modulo indexing lands the line in
                # the monitor set that mirrors its modelled set.  The tag
                # part is zigzag-encoded to keep remapped addresses
                # non-negative (the array backend reserves -1).
                q = address // mod_sets
                q = 2 * q if q >= 0 else -2 * q - 1
                sampled_address = q * point["m"] + rank
            point["cache"].access(sampled_address)

    def record_trace(self, trace: Iterable[int]) -> None:
        """Observe every access of a trace (vectorized, batch fast path).

        For each point the sampled sub-stream is selected and remapped in
        a few numpy operations, then replayed through the point's cache in
        one :meth:`run` call (a single native-kernel invocation on the
        array backend) — the batched-sweep pattern of
        :mod:`repro.sim.sweep` applied to monitoring.
        """
        addrs = materialize_addresses(trace)
        self._total += int(addrs.size)
        if not addrs.size:
            return
        for point in self._points:
            if point["size"] == 0:
                continue
            lut = point["lut"]
            if lut is None:
                sub = addrs
            else:
                mod_sets = point["mod_sets"]
                ranks = lut[np.mod(addrs, mod_sets)]
                mask = ranks >= 0
                q = np.floor_divide(addrs[mask], mod_sets)
                q = np.where(q >= 0, 2 * q, -2 * q - 1)
                sub = q * point["m"] + ranks[mask]
            point["cache"].run(sub)

    @property
    def total_accesses(self) -> int:
        """Accesses observed (sampled or not)."""
        return self._total

    def sampled_accesses(self, size: int) -> int:
        """Accesses the monitor of ``size`` actually simulated."""
        for point in self._points:
            if point["size"] == size:
                return (self._total if point["cache"] is None
                        else point["cache"].stats.accesses)
        raise KeyError(f"no monitor point of size {size}")

    def miss_curve(self) -> MissCurve:
        """Estimated full-stream miss curve of the monitored policy."""
        sizes = []
        misses = []
        for point in self._points:
            sizes.append(float(point["size"]))
            if point["size"] == 0:
                misses.append(float(self._total))
                continue
            rate = point["rate"]
            estimate = point["cache"].stats.misses / rate if rate > 0 else 0.0
            misses.append(min(float(estimate), float(self._total)))
        curve = MissCurve(np.asarray(sizes), np.asarray(misses))
        # Independent per-point sampling noise can break monotonicity; clean
        # it up the same way hardware post-processing would.
        return curve.monotone_envelope()

    def storage_lines(self) -> int:
        """Total monitor tag-array entries — the hardware cost the paper
        calls out as impractical (64 points x 1 K lines ≈ 256 KB of tags)."""
        return sum(p["cache"].capacity_lines for p in self._points
                   if p["cache"] is not None)
