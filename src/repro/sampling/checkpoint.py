"""Warm-state checkpoints of every cache organization.

A :class:`CacheCheckpoint` captures everything a replay mutates — the
caller-owned numpy state plus policy bookkeeping (RNG streams, PSEL
duelling counters, PDP histograms, Vantage linked lists, Talus sampler
registers) and the statistics counters — alongside the cache's own
:meth:`to_spec` description.  Object-model caches (the
``backend="object"`` organizations, which ``"auto"`` builds without the
native kernel) are checkpointed as one pickle of the whole cache, whose
policies, random streams and PSEL counters all pickle as plain state.
The pair is:

* **picklable** — checkpoints cross process boundaries, so sample
  windows fan out over the worker pool from warm state;
* **content-hashable** — :meth:`CacheCheckpoint.digest` is a stable
  sha256 of spec + state, so two checkpoints with the same digest will
  replay bit-identically;
* **rebuildable** — :meth:`CacheCheckpoint.build` reconstructs the
  cache from scratch (``build(spec)`` then an in-place restore), and
  ``cache.restore(ckpt)`` rewinds an existing compatible cache.

Ownership rules: a checkpoint owns deep *copies* of the state arrays
(taking one never aliases the live cache), and restoring copies back
*in place*, through the cache's existing buffers.  An idealized LRU
region of :class:`~repro.cache.partition.array.ArrayPartitionedCache`
is checkpointed as its capacity and resident lines, LRU -> MRU.

State that is a pure function of the spec (set-dueling role maps, H3
hash matrices, geometry arrays) is deliberately *not* captured: the
rebuild re-derives it, and excluding it keeps digests minimal.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field

import numpy as np

from ..cache.arraycache import ArrayBeladyCache, ArraySetAssociativeCache
from ..cache.cache import CacheStats, SetAssociativeCache
from ..cache.partition.array import (ArrayPartitionedCache, ArrayVantageCache,
                                     _IdealLRURegion)
from ..cache.partition.base import PartitionedCache
from ..cache.replacement.belady import BeladyMINPolicy
from ..cache.talus_cache import TalusCache
from ..jobs.keys import canonical_json

__all__ = ["CacheCheckpoint", "snapshot", "restore_into"]


def _stats_state(stats: CacheStats) -> dict:
    return {"accesses": int(stats.accesses), "hits": int(stats.hits),
            "misses": int(stats.misses),
            "instructions": int(stats.instructions),
            "bypasses": int(stats.bypasses)}


def _stats_from(state: dict) -> CacheStats:
    return CacheStats(**{k: int(v) for k, v in state.items()})


@dataclass
class CacheCheckpoint:
    """One warm cache state, content-addressed and rebuildable."""

    kind: str          #: "array" | "partitioned" | "vantage" | "belady"
    #:                    | "talus" | "object"
    spec: object       #: CacheSpec | PartitionSpec | TalusSpec
    state: dict        #: copied arrays + scalar bookkeeping
    position: int = 0  #: trace accesses consumed when the snapshot was taken
    meta: dict = field(default_factory=dict)

    def digest(self) -> str:
        """Stable sha256 over kind, spec, position and every state byte."""
        h = hashlib.sha256()
        h.update(self.kind.encode())
        h.update(canonical_json(self.spec).encode())
        h.update(str(int(self.position)).encode())
        _digest_update(h, self.state)
        return h.hexdigest()

    def build(self):
        """Reconstruct the cache: ``build(spec)`` + in-place restore."""
        from ..cache.spec import build
        cache = build(self.spec)
        restore_into(cache, self)
        return cache


def _digest_update(h, obj) -> None:
    if isinstance(obj, bytes):
        h.update(obj)
    elif isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode())
        h.update(repr(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, CacheCheckpoint):
        h.update(obj.digest().encode())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(str(key).encode())
            h.update(b"\0")
            _digest_update(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            _digest_update(h, value)
            h.update(b"\1")
    else:
        h.update(repr(obj).encode())
        h.update(b"\2")


def _copy_in_place(target: np.ndarray, saved: np.ndarray, name: str) -> None:
    if target.shape != saved.shape:
        raise ValueError(
            f"checkpoint mismatch: {name} has shape {saved.shape}, the "
            f"cache expects {target.shape}; restore into a cache built "
            f"from the checkpoint's own spec (CacheCheckpoint.build())")
    target[:] = saved


# --------------------------------------------------------------------- #
# ArraySetAssociativeCache
# --------------------------------------------------------------------- #
def _array_state(cache: ArraySetAssociativeCache) -> dict:
    state = {
        "policy": cache.policy,
        "tags": cache.tags.copy(),
        "stamp": cache.stamp.copy(),
        "rrpv": cache.rrpv.copy(),
        "counter": cache._counter.copy(),
        "rng_state": cache._rng_state.copy(),
        "psel": cache._psel.copy(),
        "stats": _stats_state(cache.stats),
    }
    if cache.policy == "TA-DRRIP":
        state["tad_misses"] = cache._tad_misses.copy()
    if cache.policy == "PDP":
        state["pdp"] = {
            "expires": cache.expires.copy(),
            "clock": cache._pdp_clock.copy(),
            "dp": cache._pdp_dp.copy(),
            "samples": cache._pdp_samples.copy(),
            "hist": cache._pdp_hist.copy(),
            "ls_tags": cache._ls_tags.copy(),
            "ls_clocks": cache._ls_clocks.copy(),
            "ls_count": cache._ls_count.copy(),
            "interval": int(cache._pdp_interval),
            "initial_dp": int(cache._pdp_initial_dp),
        }
    return state


def _restore_array(cache: ArraySetAssociativeCache, state: dict,
                   policy: str) -> None:
    if cache.policy != policy:
        raise ValueError(f"checkpoint is for policy {policy!r}, "
                         f"cache runs {cache.policy!r}")
    _copy_in_place(cache.tags, state["tags"], "tags")
    _copy_in_place(cache.stamp, state["stamp"], "stamp")
    _copy_in_place(cache.rrpv, state["rrpv"], "rrpv")
    cache._counter[:] = state["counter"]
    cache._rng_state[:] = state["rng_state"]
    cache._psel[:] = state["psel"]
    cache.stats = _stats_from(state["stats"])
    if policy == "TA-DRRIP":
        cache._tad_misses[:] = state["tad_misses"]
    if policy == "PDP":
        pdp = state["pdp"]
        if int(cache._pdp_interval) != pdp["interval"]:
            raise ValueError(
                f"checkpoint PDP recompute interval {pdp['interval']} does "
                f"not match the cache's {cache._pdp_interval}")
        _copy_in_place(cache.expires, pdp["expires"], "expires")
        _copy_in_place(cache._pdp_hist, pdp["hist"], "pdp_hist")
        _copy_in_place(cache._ls_tags, pdp["ls_tags"], "ls_tags")
        _copy_in_place(cache._ls_clocks, pdp["ls_clocks"], "ls_clocks")
        cache._pdp_clock[:] = pdp["clock"]
        cache._pdp_dp[:] = pdp["dp"]
        cache._pdp_samples[:] = pdp["samples"]
        cache._ls_count[:] = pdp["ls_count"]


# --------------------------------------------------------------------- #
# ArrayPartitionedCache (one independent region per partition)
# --------------------------------------------------------------------- #
def _region_state(region) -> dict | None:
    if region is None:
        return None
    if isinstance(region, _IdealLRURegion):
        return {"kind": "ideal", "capacity": int(region.capacity),
                "resident": region.resident[:region.occupancy()].copy()}
    return {"kind": "array", **_array_state(region)}


def _restore_region(region, state: dict | None, index: int) -> None:
    if (region is None) != (state is None):
        raise ValueError(f"checkpoint/cache partition {index} allocation "
                         f"mismatch (one side is empty)")
    if state is None:
        return
    if state["kind"] == "ideal":
        if not isinstance(region, _IdealLRURegion):
            raise ValueError(f"partition {index}: checkpoint holds an ideal "
                             f"region, cache has {type(region).__name__}")
        if region.capacity != state["capacity"]:
            raise ValueError(f"partition {index}: ideal region capacity "
                             f"{region.capacity} != checkpoint "
                             f"{state['capacity']}")
        # An LRU stack is fully determined by its resident lines in
        # LRU -> MRU order.
        resident = state["resident"]
        region.resident[:resident.size] = resident
        region.occ[0] = resident.size
    else:
        _restore_array(region, state, state["policy"])


def _partitioned_state(cache: ArrayPartitionedCache) -> dict:
    return {
        "granted": [int(g) for g in cache.granted_allocations()],
        "partition_stats": [_stats_state(s) for s in cache.partition_stats],
        "regions": [_region_state(r) for r in cache._regions],
    }


def _restore_partitioned(cache: ArrayPartitionedCache, state: dict) -> None:
    granted = [int(g) for g in cache.granted_allocations()]
    if granted != list(state["granted"]):
        raise ValueError(
            f"checkpoint allocations {state['granted']} do not match the "
            f"cache's {granted}; build from the checkpoint instead "
            f"(CacheCheckpoint.build())")
    for index, (region, sub) in enumerate(zip(cache._regions,
                                              state["regions"])):
        _restore_region(region, sub, index)
    cache.partition_stats = [_stats_from(s)
                             for s in state["partition_stats"]]


# --------------------------------------------------------------------- #
# ArrayVantageCache (node pool + hash table + per-region lists, plus the
# non-LRU region policies' per-node and per-region bookkeeping; the
# derived tuning constants — roles, leader levels, PDP intervals — are a
# pure function of the spec and re-derived by the rebuild)
# --------------------------------------------------------------------- #
_VANTAGE_ARRAYS = ("_caps", "_node_tag", "_node_prev", "_node_next",
                   "_head", "_tail", "_occ", "_free",
                   "_ht_tag", "_ht_reg", "_ht_node",
                   "_counter", "_rng_state", "_psel",
                   "_node_aux", "_node_stamp",
                   "_pdp_clock", "_pdp_dp", "_pdp_samples", "_pdp_hist",
                   "_ls_tags", "_ls_clocks", "_ls_count")


def _vantage_state(cache: ArrayVantageCache) -> dict:
    state = {name: getattr(cache, name).copy() for name in _VANTAGE_ARRAYS}
    state["partition_stats"] = [_stats_state(s)
                                for s in cache.partition_stats]
    return state


def _restore_vantage(cache: ArrayVantageCache, state: dict) -> None:
    for name in _VANTAGE_ARRAYS:
        _copy_in_place(getattr(cache, name), state[name], name)
    cache.partition_stats = [_stats_from(s)
                             for s in state["partition_stats"]]


# --------------------------------------------------------------------- #
# ArrayBeladyCache (offline MIN: replay cursor + residency table + heap)
# --------------------------------------------------------------------- #
def _belady_state(cache: ArrayBeladyCache) -> dict:
    return {
        "cursor": int(cache._cursor),
        "trace_sha": hashlib.sha256(cache._trace.tobytes()).hexdigest(),
        "ht_tag": cache._ht_tag.copy(),
        "ht_val": cache._ht_val.copy(),
        "heap_key": cache._heap_key.copy(),
        "heap_tag": cache._heap_tag.copy(),
        "heap_io": cache._heap_io.copy(),
        "stats": _stats_state(cache.stats),
    }


def _restore_belady(cache: ArrayBeladyCache, state: dict) -> None:
    sha = hashlib.sha256(cache._trace.tobytes()).hexdigest()
    if sha != state["trace_sha"]:
        raise ValueError(
            "checkpoint mismatch: Belady MIN is offline, its state is "
            "meaningful only against the exact trace it was warmed on; "
            "the cache's attached trace differs")
    _copy_in_place(cache._ht_tag, state["ht_tag"], "ht_tag")
    _copy_in_place(cache._ht_val, state["ht_val"], "ht_val")
    _copy_in_place(cache._heap_key, state["heap_key"], "heap_key")
    _copy_in_place(cache._heap_tag, state["heap_tag"], "heap_tag")
    cache._heap_io[:] = state["heap_io"]
    cache._cursor = int(state["cursor"])
    cache.stats = _stats_from(state["stats"])


# --------------------------------------------------------------------- #
# Object model (the whole cache, pickled)
# --------------------------------------------------------------------- #
def _min_trace(cache) -> list | None:
    """The trace an object-model Belady cache replays (None otherwise)."""
    policy = cache._sets[0] if isinstance(cache, SetAssociativeCache) else None
    return policy._trace if isinstance(policy, BeladyMINPolicy) else None


def _restore_object(cache, ckpt: "CacheCheckpoint") -> None:
    saved = pickle.loads(ckpt.state["pickle"])
    if type(saved) is not type(cache):
        raise TypeError(f"object checkpoint of a {type(saved).__name__} "
                        f"cannot restore a {type(cache).__name__}")
    if cache.to_spec() != ckpt.spec:
        raise ValueError(
            f"checkpoint spec {ckpt.spec} does not match the cache's "
            f"{cache.to_spec()} (policy, geometry or allocations differ); "
            f"build from the checkpoint instead (CacheCheckpoint.build())")
    if _min_trace(cache) != _min_trace(saved):
        raise ValueError(
            "checkpoint mismatch: Belady MIN is offline, its state is "
            "meaningful only against the exact trace it was warmed on; "
            "the cache's attached trace differs")
    vars(cache).clear()
    vars(cache).update(vars(saved))


# --------------------------------------------------------------------- #
# TalusCache (base checkpoint + sampler registers + logical stats)
# --------------------------------------------------------------------- #
def _talus_state(cache: TalusCache) -> dict:
    return {
        "base": snapshot(cache.base),
        "limits": [int(pair.sampler.limit) for pair in cache._pairs],
        "logical_stats": [_stats_state(s) for s in cache.logical_stats],
    }


def _restore_talus(cache: TalusCache, ckpt: "CacheCheckpoint") -> None:
    state = ckpt.state
    if cache.num_logical != len(state["limits"]):
        raise ValueError(
            f"checkpoint has {len(state['limits'])} logical partitions, "
            f"cache has {cache.num_logical}")
    restore_into(cache.base, state["base"])
    configs = getattr(ckpt.spec, "configs", ()) or \
        (None,) * cache.num_logical
    for pair, limit, config in zip(cache._pairs, state["limits"], configs):
        pair.sampler.limit = int(limit)
        pair.config = config
    cache.logical_stats = [_stats_from(s) for s in state["logical_stats"]]


# --------------------------------------------------------------------- #
# Dispatch
# --------------------------------------------------------------------- #
def snapshot(cache, position: int = 0,
             meta: dict | None = None) -> CacheCheckpoint:
    """Capture ``cache``'s warm state into a :class:`CacheCheckpoint`.

    ``position`` records how many trace accesses the cache had consumed
    (pure provenance — it parameterizes the digest but not the restore);
    ``meta`` is free-form provenance excluded from the digest.
    """
    meta = dict(meta or {})
    if isinstance(cache, TalusCache):
        return CacheCheckpoint("talus", cache.to_spec(),
                               _talus_state(cache), position, meta)
    if isinstance(cache, ArrayVantageCache):
        return CacheCheckpoint("vantage", cache.to_spec(),
                               _vantage_state(cache), position, meta)
    if isinstance(cache, ArrayPartitionedCache):
        return CacheCheckpoint("partitioned", cache.to_spec(),
                               _partitioned_state(cache), position, meta)
    if isinstance(cache, ArraySetAssociativeCache):
        return CacheCheckpoint("array", cache.to_spec(),
                               _array_state(cache), position, meta)
    if isinstance(cache, ArrayBeladyCache):
        # Offline MIN: the spec must carry its trace or build() cannot
        # reconstruct the oracle (with_trace is excluded from spec
        # equality, so attaching it leaves the canonical identity alone;
        # the state's trace_sha keeps the digest trace-sensitive).
        spec = cache.to_spec()
        if getattr(spec, "trace", None) is None:
            spec = spec.with_trace(cache._trace)
        return CacheCheckpoint("belady", spec,
                               _belady_state(cache), position, meta)
    if isinstance(cache, (SetAssociativeCache, PartitionedCache)):
        return CacheCheckpoint("object", cache.to_spec(),
                               {"pickle": pickle.dumps(cache, protocol=4)},
                               position, meta)
    raise TypeError(
        f"snapshot() supports the set-associative, partitioned and Talus "
        f"caches of both backends, not {type(cache).__name__}")


def restore_into(cache, checkpoint: CacheCheckpoint) -> None:
    """Rewind ``cache`` to ``checkpoint``'s state, in place.

    The cache must be structurally compatible (same policy, geometry and
    allocations — anything built from the checkpoint's spec is); state
    arrays are copied through the existing buffers.
    """
    kind = checkpoint.kind
    if kind == "talus":
        if not isinstance(cache, TalusCache):
            raise TypeError(f"talus checkpoint cannot restore a "
                            f"{type(cache).__name__}")
        _restore_talus(cache, checkpoint)
    elif kind == "vantage":
        if not isinstance(cache, ArrayVantageCache):
            raise TypeError(f"vantage checkpoint cannot restore a "
                            f"{type(cache).__name__}")
        _restore_vantage(cache, checkpoint.state)
    elif kind == "partitioned":
        if not isinstance(cache, ArrayPartitionedCache):
            raise TypeError(f"partitioned checkpoint cannot restore a "
                            f"{type(cache).__name__}")
        _restore_partitioned(cache, checkpoint.state)
    elif kind == "array":
        if not isinstance(cache, ArraySetAssociativeCache):
            raise TypeError(f"array checkpoint cannot restore a "
                            f"{type(cache).__name__}")
        _restore_array(cache, checkpoint.state, checkpoint.state["policy"])
    elif kind == "belady":
        if not isinstance(cache, ArrayBeladyCache):
            raise TypeError(f"belady checkpoint cannot restore a "
                            f"{type(cache).__name__}")
        _restore_belady(cache, checkpoint.state)
    elif kind == "object":
        _restore_object(cache, checkpoint)
    else:
        raise ValueError(f"unknown checkpoint kind {kind!r}")
