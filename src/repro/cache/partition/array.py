"""Array-backed partitioned caches: the Talus/partition fast path.

This is the partitioned counterpart of
:class:`repro.cache.arraycache.ArraySetAssociativeCache`.  Way, set and
ideal partitioning all share one structural property the object model
enforces implicitly: partitions are *independent regions* — no line ever
moves between partitions and no replacement decision reads another
partition's state.  That independence is what makes a batched fast path
possible:

* each partition is a region with its own state, random stream and PSEL:
  an :class:`~repro.cache.arraycache.ArraySetAssociativeCache` over the
  partition's ways of every set (way), its sets (set), or its one
  fully-associative set (ideal);
* a whole trace *with per-access partition ids* — or a Talus logical
  pair's trace with the pair's H3 steering in their place — is replayed
  by :meth:`ArrayPartitionedCache.run_partitioned` as one native group
  task (:meth:`~repro.cache.threadbatch.ReplayTask.group`): the kernel
  tags and splits the trace by region in scratch and runs one plain
  kernel record per region over that region's sub-trace, committed once,
  which is equivalent to the interleaved replay exactly because the
  regions are independent;
* an idealized LRU partition is an :class:`_IdealLRURegion`, replayed by
  the ``ideal_lru_run`` stack-distance kernel (hit iff stack distance <
  allocation), which is bit-identical to a fully-associative
  :class:`~repro.cache.replacement.lru.LRUPolicy` region and avoids an
  O(allocation) scan per access.

Exactness matches the plain array cache: every online policy is
bit-identical to the object-model schemes in :mod:`repro.cache.partition`
built by :class:`~repro.cache.spec.PartitionSpec`, which gives each
partition its own random stream, PSEL counter and leader wiring, as each
array region has.  Idealized (fully-associative) partitions run any array
policy: LRU through :class:`_IdealLRURegion`, every other policy as a
single-set :class:`~repro.cache.arraycache.ArraySetAssociativeCache`
region whose one set *is* the fully-associative partition.

Allocations are granted with the *same* rounding helpers as the object
schemes (:func:`~repro.cache.partition.way.round_to_ways`,
:func:`~repro.cache.partition.setpart.round_to_sets`,
:func:`~repro.cache.partition.base.trim_line_allocations`).

Vantage is the one scheme whose partitions are *not* independent — every
managed partition demotes its victims into one shared unmanaged region —
so it gets its own organization, :class:`ArrayVantageCache`: a linked-list
node pool plus a (tag, region)-keyed hash table replayed by the
``vantage_run`` kernel.  Managed regions run any policy of the array
family (per-region RRPV/protecting-distance side state rides on the node
pool), bit-identically to the object :class:`~repro.cache.partition.vantage.
VantagePartitionedCache`.  Futility scaling is the only object-only
scheme (its feedback-controlled insertion probabilities have no array
counterpart — use ``backend="object"``).

Warm reallocation
-----------------
:meth:`ArrayPartitionedCache.reallocate` (which ``set_allocations`` routes
through) resizes partitions *in place*, warm: shrinking a partition evicts
per-policy victims exactly as the object schemes' ``set_capacity`` does
(oldest lines for the recency family, highest-RRPV-then-oldest for RRIP
with the same eviction-driven aging, oldest-unprotected for PDP, dropped
trailing sets for set partitioning), and growing only adds empty capacity
— no resident line ever moves between partitions.
:meth:`ArrayVantageCache.reallocate` does the same for Vantage, demoting
each trimmed partition's LRU victims into the unmanaged region.  This is
what lets the interval-based reconfiguration loops
(:mod:`repro.sim.reconfigure`, :mod:`repro.sim.multicore`) run on the
array backend: ``run_chunk``/``reallocate`` alternate on a warm cache
with results bit-identical to the object model.

State ownership in the resumable runtime
----------------------------------------
Every byte of simulation state is owned by the cache object as plain
numpy arrays and passed *into* each kernel call (nothing lives on the C
side between calls): each region's matrices and side state (an ideal LRU
region's resident lines) here, and the node pool / region lists / hash
table of :class:`ArrayVantageCache`.  That caller-ownership is the whole
resumability contract — a replay can stop at any access, be resumed
later, be interleaved with warm reallocation, or be checkpointed as "the
arrays", and the result never changes.  Every replay and reallocation is
a kernel call: building an array partitioned cache without the native
kernel raises.

Each organization packs its replay call in one place, the task behind
``replay_task``; ``run_partitioned``/``run_chunk``/``access`` run that
task on the calling thread, and
:func:`~repro.cache.threadbatch.run_tasks` runs many of them in one
threaded dispatch.  The kernel counts each partition's accesses, and a
task's commit folds the statistics of the partitions it touched only.
Each region keeps its record's members (its arrays' addresses) until a
resize replaces an array.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._native import KIND_IDEAL_LRU, KIND_MISS, KIND_VANTAGE, require_kernel
from ..arraycache import (ARRAY_POLICIES, ArraySetAssociativeCache,
                          _dueling_roles, _next_pow2)
from ..cache import materialize_addresses
from ..hashing import SplitMix64
from ..threadbatch import ReplayTask, StateFields, i64_ptr, u64_ptr
from .base import PartitionedCache, trim_line_allocations
from .setpart import round_to_sets
from .vantage import vantage_managed_lines
from .way import round_to_ways

__all__ = ["ArrayPartitionedCache", "ArrayVantageCache", "ARRAY_SCHEMES"]

#: Partitioning schemes the array backend implements.
ARRAY_SCHEMES = ("ideal", "way", "set", "vantage")

#: Schemes built on independent regions (:class:`ArrayPartitionedCache`);
#: Vantage is line-granular with a shared victim region and lives in
#: :class:`ArrayVantageCache` instead.
_SET_ASSOC_SCHEMES = ("ideal", "way", "set")

#: Managed-region policy codes of the native Vantage kernel (must match
#: the ``VPOL_*`` enum in ``_sweepkernel.c``).
_VPOL = {"LRU": 0, "LIP": 1, "BIP": 2, "DIP": 3, "SRRIP": 4, "BRRIP": 5,
         "DRRIP": 6, "TA-DRRIP": 7, "PDP": 8, "Random": 9}

#: Vantage managed-region policies whose victims come from the RRPV scan.
_VT_RRIP = ("SRRIP", "BRRIP", "DRRIP", "TA-DRRIP")

_EMPTY = -1

#: A lane record of a partition without a region (zero capacity): every
#: access misses.
_NO_REGION = {"kind": KIND_MISS}

#: The lane of a one-access replay (the per-access path), whose group has
#: one lane: its partition's.
_LANE0 = np.zeros(1, dtype=np.int64)


def _tagged_trace(trace, parts, steer, num_partitions: int
                  ) -> tuple[np.ndarray, np.ndarray | None]:
    """A validated trace and its partition ids (None when ``steer``, a
    Talus pair's steering members, tags it instead)."""
    addrs = materialize_addresses(trace)
    if (parts is None) == (steer is None):
        raise ValueError("a partitioned replay takes either partition "
                         "ids or a steering")
    if steer is not None:
        if addrs.ndim != 1:
            raise ValueError("trace must be one-dimensional")
        return addrs, None
    parts = np.ascontiguousarray(np.asarray(parts, dtype=np.int64))
    if addrs.shape != parts.shape or addrs.ndim != 1:
        raise ValueError("trace and parts must be 1-D and equally long")
    if addrs.size and (int(parts.min()) < 0
                       or int(parts.max()) >= num_partitions):
        raise ValueError(f"partition ids must be in [0, {num_partitions})")
    return addrs, parts


def _fold(stats: Sequence, lanes: Sequence[int], counts: np.ndarray,
          out: np.ndarray) -> list[int]:
    """Add each touched lane's access and miss counts (``counts``' two
    rows) into its partition's ``stats`` entry and into ``out``'s two
    per-partition rows; returns the touched partitions."""
    touched = []
    for p, a, m in zip(lanes, *counts.tolist()):
        if a:
            entry = stats[p]
            entry.accesses += a
            entry.misses += m
            entry.hits += a - m
            out[0, p] = a
            out[1, p] = m
            touched.append(p)
    return touched


class _IdealLRURegion:
    """A fully-associative LRU region replayed by the ``ideal_lru_run``
    kernel.

    ``resident[:occ[0]]`` holds the region's lines, LRU -> MRU, in a
    buffer of at least ``capacity`` slots.  The kernel runs one
    stack-distance pass over those lines followed by the new accesses,
    counts an access as a hit iff its distance is below ``capacity`` (the
    LRU stack property), and writes back the last ``capacity`` distinct
    lines — bit-identical to an
    :class:`~repro.cache.replacement.lru.LRUPolicy` of that capacity.  A
    resize moves the lines within the buffer and replaces it only to grow
    it, so the record's addresses outlive most reallocations.
    """

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self.resident = np.zeros(self.capacity, dtype=np.int64)
        self.occ = np.zeros(1, dtype=np.int64)
        self._fields = StateFields()

    def occupancy(self) -> int:
        return int(self.occ[0])

    def resize_ways(self, lines: int) -> None:
        """Warm-resize to ``lines`` (the ways of a fully-associative
        region), keeping the MRU-most ``min(occupancy, lines)`` lines."""
        occ = self.occupancy()
        keep = min(occ, lines)
        if lines > self.resident.size:
            resident = np.zeros(lines, dtype=np.int64)
            resident[:keep] = self.resident[occ - keep:occ]
            self.resident = resident
            self._fields.clear()
        else:
            self.resident[:keep] = self.resident[occ - keep:occ]
        self.capacity = int(lines)
        self.occ[0] = keep
        if self._fields:
            self._fields["capacity"] = self.capacity

    def kernel_record(self) -> dict:
        """The ``ideal_lru_run`` record apart from its trace, kept until a
        resize replaces the resident buffer."""
        fields = self._fields
        if not fields:
            fields.update(kind=KIND_IDEAL_LRU, capacity=self.capacity,
                          tags=i64_ptr(self.resident), occ=i64_ptr(self.occ))
        return fields


class _ArrayReplayCache(PartitionedCache):
    """The replay entry points of the array partitioned caches.

    A subclass packs its replay call in one place,
    ``_task(addrs, parts, steer)``, which returns the
    :class:`~repro.cache.threadbatch.ReplayTask` of a validated trace
    tagged by ``parts`` or by a Talus pair's steering; :meth:`access`,
    :meth:`run_partitioned`, :meth:`run_chunk` and :meth:`replay_task`
    all run that task.  Object schemes do not derive from this class:
    :attr:`TalusCache.supports_batch_replay
    <repro.cache.talus_cache.TalusCache.supports_batch_replay>` tests
    for ``run_partitioned``.
    """

    def access(self, address: int, partition: int) -> bool:
        self._check_partition(partition)
        task = self.replay_task(np.array([address], dtype=np.int64),
                                np.array([partition], dtype=np.int64))
        return int(task.run().misses[partition]) == 0

    def run_partitioned(self, trace, parts=None, *, steer=None
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Replay a trace with per-access partition ids in one batch.

        Parameters
        ----------
        trace:
            Addresses (any form :func:`materialize_addresses` accepts).
        parts:
            Partition id of each access (int array, same length).
        steer:
            In place of ``parts``: a Talus logical pair's steering, the
            record members of :meth:`TalusCache.steering
            <repro.cache.talus_cache.TalusCache.steering>`.  The kernel
            then sends each access to the pair's alpha or beta partition
            by its H3 hash against the limit register, as
            :meth:`SamplingFunction.goes_to_alpha
            <repro.cache.hashing.SamplingFunction.goes_to_alpha>` does.

        Returns
        -------
        (accesses, misses):
            Per-partition int64 access and miss counts of this replay,
            counted by the kernel.  Per-partition statistics are updated
            as the per-access path would (counts are order-independent,
            so both paths agree).

        Runs the task of :meth:`replay_task` on the calling thread.
        """
        task = self.replay_task(trace, parts, steer=steer).run()
        return task.accesses, task.misses

    def run_chunk(self, trace, parts) -> tuple[np.ndarray, np.ndarray]:
        """Replay one chunk of a partition-tagged trace.

        The chunked entry point of the resumable runtime: identical to
        :meth:`run_partitioned` (state carries across calls, so chunked
        and one-shot replays are bit-identical at any boundary), named to
        make call sites that interleave replay chunks with
        ``reallocate`` read naturally.
        """
        return self.run_partitioned(trace, parts)

    def replay_task(self, trace, parts=None, *, steer=None):
        """One batchable :class:`~repro.cache.threadbatch.ReplayTask`
        replaying a trace tagged by ``parts`` or steered by ``steer`` (see
        :meth:`run_partitioned`): the task that :meth:`run_partitioned`,
        :meth:`run_chunk` and :meth:`access` run (per-partition accesses
        and misses land in the task's ``accesses`` and ``misses``
        arrays)."""
        addrs, parts = _tagged_trace(trace, parts, steer,
                                     self.num_partitions)
        return self._task(addrs, parts, steer)


class ArrayPartitionedCache(_ArrayReplayCache):
    """Way/set/ideal partitioning with numpy state and batched native replay.

    Parameters
    ----------
    scheme:
        One of the independent-region schemes ("ideal", "way", "set").
        Vantage couples partitions through its shared unmanaged region
        and is implemented by :class:`ArrayVantageCache`; futility
        scaling stays object-only.
    capacity_lines, num_partitions, ways:
        As in :func:`repro.cache.partition.make_partitioned_cache`; the
        way/set geometries derive the set count exactly as the object
        factory does.
    policy:
        One of :data:`~repro.cache.arraycache.ARRAY_POLICIES` except the
        offline "Belady" (which has no partitioned organization).
        Idealized partitions are fully associative: LRU rides the
        ``ideal_lru_run`` stack-distance kernel, every other policy a
        single-set array region.
    hashed_index, index_seed:
        Set-index scheme of the way/set organizations (same hash as the
        object model).
    min_ways_per_partition:
        Way-partitioning coarsening floor (as in
        :class:`~repro.cache.partition.way.WayPartitionedCache`).
    policy_kwargs:
        Extra policy parameters (e.g. ``seed`` or ``epsilon``), forwarded
        to every region's :class:`ArraySetAssociativeCache`.
    """

    def __init__(self, scheme: str, capacity_lines: int, num_partitions: int,
                 policy: str = "LRU", ways: int = 16,
                 hashed_index: bool = False, index_seed: int = 0,
                 min_ways_per_partition: int = 1, **policy_kwargs):
        require_kernel()
        scheme = scheme.lower()
        if scheme not in _SET_ASSOC_SCHEMES:
            raise ValueError(
                f"ArrayPartitionedCache implements the set-associative-region "
                f"schemes {_SET_ASSOC_SCHEMES}, not {scheme!r}; Vantage has "
                f"its own array organization (ArrayVantageCache), and "
                f"futility scaling is object-only")
        if capacity_lines <= 0:
            raise ValueError("capacity_lines must be positive")
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if policy == "Belady":
            raise ValueError(
                "Belady is offline and replays one attached trace; it has "
                "no partitioned organization — supported partition "
                f"policies: {tuple(p for p in ARRAY_POLICIES if p != 'Belady')}")
        if policy not in ARRAY_POLICIES:
            raise ValueError(
                f"array backend does not implement {policy!r}; "
                f"supported: {ARRAY_POLICIES}")
        if scheme == "ideal":
            capacity = capacity_lines
            num_sets = 0
        else:
            if scheme == "way":
                num_sets = max(1, capacity_lines // ways)
                if num_partitions > ways:
                    raise ValueError(
                        f"cannot way-partition {ways} ways into "
                        f"{num_partitions} partitions")
            else:
                num_sets = max(num_partitions, capacity_lines // ways)
            capacity = num_sets * ways
        super().__init__(capacity, num_partitions)
        self.scheme = scheme
        self.scheme_name = scheme
        self.policy = policy
        self.ways = ways
        self.num_sets = num_sets
        self.hashed_index = bool(hashed_index)
        self.index_seed = index_seed
        self.min_ways = min_ways_per_partition
        self._policy_kwargs = dict(policy_kwargs)
        # Per-partition allocation in the scheme's unit: ways (way), sets
        # (set) or lines (ideal).
        if scheme == "way":
            self._alloc = round_to_ways(
                [self.capacity_lines / num_partitions] * num_partitions,
                num_sets, ways, self.min_ways)
        elif scheme == "set":
            base_sets = num_sets // num_partitions
            self._alloc = [base_sets] * num_partitions
            self._alloc[0] += num_sets - base_sets * num_partitions
        else:
            self._alloc = [capacity // num_partitions] * num_partitions
        # The object model builds each partition's policy regions once, at
        # this equal-split allocation, and later reallocations only change
        # capacities — so capacity-derived policy parameters (PDP's
        # tuning) are frozen at it.  Recorded so the array regions can
        # replicate that exactly.
        self._initial_alloc = list(self._alloc)
        self._regions = [self._make_region(p, size)
                         for p, size in enumerate(self._alloc)]
        #: Whether the regions are set-associative arrays, which reserve
        #: address -1 as the empty-way sentinel (an ideal LRU region
        #: caches every int64 address).
        self._sentinel = not (scheme == "ideal" and policy == "LRU")

    # ------------------------------------------------------------------ #
    # Region construction
    # ------------------------------------------------------------------ #
    def _make_region(self, partition: int, size: int):
        """Partition ``partition``'s region at ``size`` ways (way), sets
        (set) or lines (ideal); None at zero.

        An ideal partition is fully associative: LRU is an
        :class:`_IdealLRURegion`, every other policy a single-set
        :class:`~repro.cache.arraycache.ArraySetAssociativeCache` whose
        one set *is* the partition.
        """
        if size <= 0:
            return None
        if self.scheme == "ideal" and self.policy == "LRU":
            return _IdealLRURegion(size)
        sets, ways = {"way": (self.num_sets, size), "set": (size, self.ways),
                      "ideal": (1, size)}[self.scheme]
        return ArraySetAssociativeCache(
            sets, ways, policy=self.policy, hashed_index=self.hashed_index,
            index_seed=self.index_seed,
            **self._region_policy_kwargs(partition, ways))

    def _region_policy_kwargs(self, partition: int, ways_p: int) -> dict:
        """Policy kwargs for one region, replicating object-model quirks.

        Way-partitioned (and idealized) PDP regions in the object model
        keep the tuning parameters derived from their *construction-time*
        (equal-split) capacity even after reallocation shrinks or grows
        them — only the capacity itself changes.  The array regions are
        rebuilt at the final way count, so the construction-time
        derivations are passed explicitly to stay bit-identical.
        """
        kwargs = dict(self._policy_kwargs)
        if self.policy != "PDP" or self.scheme == "set":
            return kwargs
        construction = self._initial_alloc[partition]
        w0 = max(construction, 1)
        interval = kwargs.get("recompute_interval")
        if interval is None:
            interval = max(128, 16 * w0)
        factor = kwargs.get("max_distance_factor", 3.0)
        max_candidate = max(1, int(factor * w0))
        initial = kwargs.get("initial_distance")
        if not initial:
            initial = max(1, construction)
        kwargs.update(
            recompute_interval=interval,
            initial_distance=initial,
            # Chosen so int(factor * ways_p) lands exactly on the object
            # model's construction-time candidate bound.
            max_distance_factor=(max_candidate + 0.5) / max(ways_p, 1),
        )
        return kwargs

    # ------------------------------------------------------------------ #
    # PartitionedCache interface
    # ------------------------------------------------------------------ #
    def set_allocations(self, sizes: Sequence[float]) -> list[int]:
        return self.reallocate(sizes)

    def reallocate(self, sizes: Sequence[float]) -> list[int]:
        """Apply new capacity targets to *warm* partitions, in place.

        The warm-reallocation entry point of the resumable runtime (the
        object schemes' ``set_allocations`` semantics): shrinking a
        partition evicts its policy's victims (repeated ``evict_one``
        order — see :meth:`ArraySetAssociativeCache.resize_ways` /
        :meth:`~repro.cache.arraycache.ArraySetAssociativeCache.resize_sets`),
        growing adds empty capacity, and surviving lines never move between
        partitions.  Partitions resized to zero keep their region object
        (and its capacity-independent side state, e.g. PDP's reuse
        sampler), again matching the object model's zero-capacity regions.

        Returns the granted allocations, rounded with the same helpers the
        object schemes use.
        """
        sizes = self._check_requests(sizes)
        if self.scheme == "way":
            new = round_to_ways(sizes, self.num_sets, self.ways, self.min_ways)
        elif self.scheme == "set":
            new = round_to_sets(sizes, self.num_sets, self.ways)
        else:
            new = trim_line_allocations(sizes, self.capacity_lines)
        if new == self._alloc:
            return self.granted_allocations()
        for p, size in enumerate(new):
            region = self._regions[p]
            if region is None:
                self._regions[p] = self._make_region(p, size)
            elif self.scheme == "set":
                region.resize_sets(size)
            else:
                region.resize_ways(size)
        self._alloc = new
        return self.granted_allocations()

    def granted_allocations(self) -> list[int]:
        if self.scheme == "way":
            return [w * self.num_sets for w in self._alloc]
        if self.scheme == "set":
            return [s * self.ways for s in self._alloc]
        return list(self._alloc)

    def partition_occupancy(self, partition: int) -> int:
        self._check_partition(partition)
        region = self._regions[partition]
        return 0 if region is None else region.occupancy()

    def partition_occupancies(self, partitions: Sequence[int]) -> list[int]:
        self._check_partitions(partitions)
        regions = self._regions
        return [0 if regions[p] is None else regions[p].occupancy()
                for p in partitions]

    # ------------------------------------------------------------------ #
    # Batched replay
    # ------------------------------------------------------------------ #
    # Bound in this class's own namespace: the benchmark's tracer
    # (perfbench/tracing.py) counts replayed accesses by patching the
    # run_partitioned of each concrete class.
    run_partitioned = _ArrayReplayCache.run_partitioned

    def _task(self, addrs: np.ndarray, parts: np.ndarray | None,
              steer: dict | None):
        """The group task of a validated trace.  Its lanes are the
        partitions (``parts``; a single access's partition alone), or the
        pair's alpha and beta partitions (``steer``); each lane runs its
        partition's region record over the accesses the kernel tags with
        it, and a partition without a region (zero capacity) misses every
        access.  The commit folds the
        statistics of the partitions the trace touched and of their
        regions, from the kernel's counts."""
        if self._sentinel and addrs.size and bool(np.any(addrs == _EMPTY)):
            raise ValueError("address -1 is reserved as the empty-way "
                             "sentinel; the array backend cannot cache it")
        if steer is None and addrs.size == 1:
            lanes = (int(parts[0]),)
            fields = {"parts": i64_ptr(_LANE0)}
        elif steer is None:
            lanes = range(self.num_partitions)
            fields = {"parts": i64_ptr(parts)}
        else:
            lanes = (steer["steer_alpha"], steer["steer_beta"])
            fields = {**steer, "steer_alpha": 0, "steer_beta": 1}
        regions = [self._regions[p] for p in lanes]
        counts = np.zeros((2, len(regions)), dtype=np.int64)
        out = np.zeros((2, self.num_partitions), dtype=np.int64)
        base = i64_ptr(counts)
        fields.update(addrs=i64_ptr(addrs), n=int(addrs.size),
                      acc_out=base, miss_out=base + 8 * len(regions))

        def commit(_total: int) -> None:
            for p in _fold(self.partition_stats, lanes, counts, out):
                region = self._regions[p]
                if isinstance(region, ArraySetAssociativeCache):
                    region.fold_stats(int(out[0, p]), int(out[1, p]))

        task = ReplayTask.group(
            [_NO_REGION if region is None else region.kernel_record()
             for region in regions],
            fields, refs=(addrs, parts, counts), commit=commit,
            misses=out[1])
        task.accesses = out[0]
        return task

    # ------------------------------------------------------------------ #
    def reset_stats(self) -> None:
        super().reset_stats()
        for region in self._regions:
            if isinstance(region, ArraySetAssociativeCache):
                region.reset_stats()

    def to_spec(self):
        """A :class:`~repro.cache.spec.PartitionSpec` rebuilding this cache."""
        from ..spec import PartitionSpec
        return PartitionSpec(
            scheme=self.scheme,
            capacity_lines=self.capacity_lines,
            num_partitions=self.num_partitions,
            policy=self.policy,
            ways=self.ways,
            backend="array",
            hashed_index=self.hashed_index,
            index_seed=self.index_seed,
            targets=tuple(float(g) for g in self.granted_allocations()),
            policy_kwargs=tuple(sorted(self._policy_kwargs.items())),
            scheme_kwargs=self._spec_scheme_kwargs(),
        )

    def _spec_scheme_kwargs(self) -> tuple:
        if self.scheme == "way" and self.min_ways != 1:
            return (("min_ways_per_partition", self.min_ways),)
        return ()

    def __repr__(self) -> str:
        return (f"ArrayPartitionedCache(scheme={self.scheme!r}, "
                f"capacity={self.capacity_lines} lines, "
                f"partitions={self.num_partitions}, policy={self.policy!r})")


class ArrayVantageCache(_ArrayReplayCache):
    """Vantage partitioning with caller-owned array state and native replay.

    The object model (:class:`~repro.cache.partition.vantage.
    VantagePartitionedCache`) couples its partitions through a shared
    *unmanaged* victim region, which is why Vantage could not ride the
    independent-region machinery of :class:`ArrayPartitionedCache`.  This
    organization instead keeps the whole cache — per-partition
    fully-associative LRU lists over the managed ~90 % plus the shared
    insertion-ordered unmanaged region — as an intrusive doubly-linked
    node pool and one open-addressing hash table, all in caller-owned
    numpy arrays:

    * ``node_tag``/``node_prev``/``node_next`` — the node pool
      (``capacity + 1`` entries; free nodes chained through ``node_next``);
    * ``head``/``tail``/``occ`` — per-region list anchors (region
      ``num_partitions`` is the unmanaged region); head is the LRU/oldest
      end;
    * ``ht_tag``/``ht_reg``/``ht_node`` — a linear-probing table keyed by
      ``(tag, region)`` with backward-shift deletion (the same tag may be
      resident in several regions at once, as with per-region dicts).

    Managed regions run any replacement policy of the array family (the
    object model's ``policy_factory``): the per-node side state — RRPV
    bucket + bucket-entrant stamp for the RRIP family, protection
    deadline for PDP — lives in two pool-parallel arrays
    (``node_aux``/``node_stamp``), and the per-region PDP
    clock/distance/reuse-sampler state in per-partition rows.  Every
    policy is **bit-identical** to the object model: the whole cache
    draws from one splitmix64 stream, with one duel role per partition
    (TA-DRRIP duels per partition: in a partitioned cache the partition
    *is* the thread).  Belady is offline and has no partitioned
    organization.

    A whole partition-tagged trace is replayed by one ``vantage_run``
    kernel task (:meth:`run_partitioned`).  Warm reallocation
    (:meth:`reallocate` / ``set_allocations``) trims regions in place
    through ``vantage_realloc``, demoting each region's per-policy
    victims into the unmanaged region exactly as the object scheme does
    — which is what puts the default ``scheme="vantage"``
    reconfiguration loops on the fast path.
    """

    scheme_name = "vantage"

    def __init__(self, capacity_lines: int, num_partitions: int,
                 policy: str = "LRU", unmanaged_fraction: float = 0.10,
                 m_bits: int = 2, epsilon: float = 1.0 / 32.0,
                 seed: int = 0, recompute_interval: int | None = None,
                 max_distance_factor: float = 3.0,
                 initial_distance: int | None = None):
        require_kernel()
        if policy == "Belady":
            raise ValueError(
                "Belady is offline and replays one attached trace; it has "
                "no partitioned organization — supported Vantage region "
                f"policies: {tuple(_VPOL)}")
        if policy not in _VPOL:
            raise ValueError(
                f"array-backed Vantage partitioning does not implement "
                f"{policy!r}; supported region policies: {tuple(_VPOL)}")
        if not 0.0 <= unmanaged_fraction < 1.0:
            raise ValueError("unmanaged_fraction must be in [0, 1)")
        if m_bits < 1 or m_bits > 8:
            raise ValueError("m_bits must be in [1, 8]")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        super().__init__(capacity_lines, num_partitions)
        self.policy = policy
        self._pol = _VPOL[policy]
        self.m_bits = m_bits
        self.max_rrpv = (1 << m_bits) - 1
        self.epsilon = float(epsilon)
        self.seed = seed
        self.unmanaged_fraction = float(unmanaged_fraction)
        pk = {}
        if m_bits != 2:
            pk["m_bits"] = m_bits
        if epsilon != 1.0 / 32.0:
            pk["epsilon"] = float(epsilon)
        if seed != 0:
            pk["seed"] = seed
        if recompute_interval is not None:
            pk["recompute_interval"] = recompute_interval
        if max_distance_factor != 3.0:
            pk["max_distance_factor"] = max_distance_factor
        if initial_distance is not None:
            pk["initial_distance"] = initial_distance
        self._policy_kwargs = pk
        self._managed = vantage_managed_lines(capacity_lines,
                                              unmanaged_fraction)
        self._unm_cap = capacity_lines - self._managed
        base = self._managed // num_partitions
        self._caps = np.full(num_partitions, base, dtype=np.int64)
        # Node pool: capacity + 1 entries (one spare absorbs the transient
        # overshoot of insert-then-trim demotion into the unmanaged region).
        pool = capacity_lines + 1
        self._node_tag = np.zeros(pool, dtype=np.int64)
        self._node_prev = np.full(pool, -1, dtype=np.int64)
        nxt = np.arange(1, pool + 1, dtype=np.int64)
        nxt[-1] = -1
        self._node_next = nxt
        self._head = np.full(num_partitions + 1, -1, dtype=np.int64)
        self._tail = np.full(num_partitions + 1, -1, dtype=np.int64)
        self._occ = np.zeros(num_partitions + 1, dtype=np.int64)
        self._free = np.zeros(1, dtype=np.int64)
        self._fields = StateFields()
        tsize = 64
        while tsize < 2 * pool:
            tsize <<= 1
        self._ht_tag = np.zeros(tsize, dtype=np.int64)
        self._ht_reg = np.zeros(tsize, dtype=np.int64)
        self._ht_node = np.full(tsize, -1, dtype=np.int64)
        # Per-policy side state.  node_aux/node_stamp parallel the node
        # pool (RRPV + bucket-entrant stamp for the RRIP family, the
        # protection deadline for PDP); the RNG/PSEL/roles state mirrors
        # ArraySetAssociativeCache with one region per partition.
        self._counter = np.zeros(1, dtype=np.int64)
        self._rng_state = np.array([SplitMix64(seed).state], dtype=np.uint64)
        self._psel_max = (1 << 10) - 1
        if policy == "TA-DRRIP":
            # Thread-aware dueling: each partition is a thread, so PSEL
            # counters are per partition with address-hash constituencies.
            self._psel = np.full(num_partitions, self._psel_max // 2,
                                 dtype=np.int64)
            self._leader_levels = max(1, int(round(1024 / 32.0)))
        else:
            self._psel = np.array([self._psel_max // 2], dtype=np.int64)
            self._leader_levels = max(1, int(round(1024 / 16.0)))
        self._roles = (_dueling_roles(num_partitions)
                       if policy in ("DIP", "DRRIP")
                       else np.zeros(num_partitions, dtype=np.int64))
        need_nodes = policy in _VT_RRIP or policy == "PDP"
        aux_len = pool if need_nodes else 1
        self._node_aux = np.zeros(aux_len, dtype=np.int64)
        self._node_stamp = np.zeros(aux_len, dtype=np.int64)
        if policy == "PDP":
            self._init_pdp_state(base, recompute_interval,
                                 max_distance_factor, initial_distance)
        elif (recompute_interval is not None or max_distance_factor != 3.0
              or initial_distance is not None):
            raise ValueError("recompute_interval/max_distance_factor/"
                             "initial_distance apply to PDP only")
        else:
            # Unused policy side state still crosses the ctypes boundary
            # (ndpointer arguments reject None), as size-1 dummies the
            # kernel never dereferences for this policy.
            self._hist_stride = 1
            self._ls_size = 1
            self._pdp_clock = np.zeros(1, dtype=np.int64)
            self._pdp_dp = np.zeros(1, dtype=np.int64)
            self._pdp_samples = np.zeros(1, dtype=np.int64)
            self._pdp_hist = np.zeros(1, dtype=np.int64)
            self._vp_maxdp = np.zeros(1, dtype=np.int64)
            self._vp_interval = np.ones(1, dtype=np.int64)
            self._vp_clear = np.zeros(1, dtype=np.int64)
            self._ls_tags = np.full(1, _EMPTY, dtype=np.int64)
            self._ls_clocks = np.zeros(1, dtype=np.int64)
            self._ls_count = np.zeros(1, dtype=np.int64)

    def _init_pdp_state(self, base: int, recompute_interval: int | None,
                        max_distance_factor: float,
                        initial_distance: int | None) -> None:
        """Per-region PDP state, tuned at the construction-time equal
        split (``base`` lines per partition) exactly as the object model
        freezes :class:`~repro.cache.replacement.pdp.PDPPolicy`'s
        capacity-derived parameters."""
        cap0 = max(int(base), 1)
        if recompute_interval is None:
            recompute_interval = max(128, 16 * cap0)
        if recompute_interval < 16:
            raise ValueError("recompute_interval must be >= 16")
        if max_distance_factor <= 0:
            raise ValueError("max_distance_factor must be positive")
        max_dp = max(1, int(max_distance_factor * cap0))
        initial_dp = (initial_distance if initial_distance
                      else max(1, int(base)))
        clear = 8 * max(int(base), 64)
        n = self.num_partitions
        self._hist_stride = max_dp + 1
        self._ls_size = _next_pow2(2 * (clear + recompute_interval + 1))
        self._pdp_clock = np.zeros(n, dtype=np.int64)
        self._pdp_dp = np.full(n, initial_dp, dtype=np.int64)
        self._pdp_samples = np.zeros(n, dtype=np.int64)
        self._pdp_hist = np.zeros((n, self._hist_stride), dtype=np.int64)
        self._vp_maxdp = np.full(n, max_dp, dtype=np.int64)
        self._vp_interval = np.full(n, recompute_interval, dtype=np.int64)
        self._vp_clear = np.full(n, clear, dtype=np.int64)
        self._ls_tags = np.full((n, self._ls_size), _EMPTY, dtype=np.int64)
        self._ls_clocks = np.zeros((n, self._ls_size), dtype=np.int64)
        self._ls_count = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------ #
    @property
    def partitionable_lines(self) -> int:
        return self._managed

    @property
    def unmanaged_capacity(self) -> int:
        """Capacity of the unmanaged region in lines."""
        return self._unm_cap

    def unmanaged_occupancy(self) -> int:
        """Number of lines currently resident in the unmanaged region."""
        return int(self._occ[self.num_partitions])

    def partition_occupancy(self, partition: int) -> int:
        self._check_partition(partition)
        return int(self._occ[partition])

    def partition_occupancies(self, partitions: Sequence[int]) -> list[int]:
        self._check_partitions(partitions)
        return self._occ[list(partitions)].tolist()

    def granted_allocations(self) -> list[int]:
        return [int(c) for c in self._caps]

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def set_allocations(self, sizes: Sequence[float]) -> list[int]:
        return self.reallocate(sizes)

    def reallocate(self, sizes: Sequence[float]) -> list[int]:
        """Apply new managed-region targets to the *warm* cache, in place.

        Shrinking a partition demotes its LRU victims (in eviction order)
        into the unmanaged region — the object scheme's
        ``set_capacity``-then-demote semantics — and growing only raises
        the budget; resident lines never move between managed partitions.
        """
        sizes = self._check_requests(sizes)
        granted = trim_line_allocations(sizes, self._managed)
        new_caps = np.asarray(granted, dtype=np.int64)
        result = require_kernel().vantage_realloc(
            self.num_partitions, new_caps, self._unm_cap, self._pol,
            self.max_rrpv, self._rng_state, self._node_aux,
            self._node_stamp, self._pdp_clock, self._pdp_dp,
            self._ht_tag, self._ht_reg, self._ht_node, self._node_tag,
            self._node_prev, self._node_next, self._head, self._tail,
            self._occ, self._free)
        if result < 0:
            raise RuntimeError("native Vantage reallocation failed")
        # In place: the replay record keeps this array's address.
        self._caps[:] = new_caps
        return list(granted)

    # ------------------------------------------------------------------ #
    # Batched replay
    # ------------------------------------------------------------------ #
    # Bound here for the benchmark's tracer, as in ArrayPartitionedCache.
    run_partitioned = _ArrayReplayCache.run_partitioned

    def kernel_record(self) -> dict:
        """The ``vantage_run`` record apart from its trace: the policy's
        constants and every state array's address.  No array is ever
        replaced (a reallocation writes the capacities in place), so it
        is read once."""
        fields = self._fields
        if fields:
            return fields
        fields.update({
            "kind": KIND_VANTAGE,
            "num_regions": self.num_partitions,
            "caps": i64_ptr(self._caps), "unm_cap": self._unm_cap,
            "mode": self._pol, "max_rrpv": self.max_rrpv,
            "epsilon": self.epsilon,
            "counter": i64_ptr(self._counter),
            "rng_state": u64_ptr(self._rng_state),
            "roles": i64_ptr(self._roles), "psel": i64_ptr(self._psel),
            "psel_max": self._psel_max,
            "leader_levels": self._leader_levels,
            "node_aux": i64_ptr(self._node_aux),
            "node_stamp": i64_ptr(self._node_stamp),
            "clock": i64_ptr(self._pdp_clock), "dp": i64_ptr(self._pdp_dp),
            "sample_count": i64_ptr(self._pdp_samples),
            "hist": i64_ptr(self._pdp_hist),
            "hist_stride": self._hist_stride,
            "vp_maxdp": i64_ptr(self._vp_maxdp),
            "vp_interval": i64_ptr(self._vp_interval),
            "vp_clear": i64_ptr(self._vp_clear),
            "ls_tags": i64_ptr(self._ls_tags),
            "ls_clocks": i64_ptr(self._ls_clocks),
            "ls_count": i64_ptr(self._ls_count),
            "ls_size": self._ls_size,
            "ht_tag": i64_ptr(self._ht_tag),
            "ht_reg": i64_ptr(self._ht_reg),
            "ht_node": i64_ptr(self._ht_node),
            "tsize": int(self._ht_tag.size),
            "node_tag": i64_ptr(self._node_tag),
            "node_prev": i64_ptr(self._node_prev),
            "node_next": i64_ptr(self._node_next),
            "head": i64_ptr(self._head), "tail": i64_ptr(self._tail),
            "occ": i64_ptr(self._occ), "free_io": i64_ptr(self._free),
        })
        return fields

    def _task(self, addrs: np.ndarray, parts: np.ndarray | None,
              steer: dict | None):
        """The Vantage kernel task of a validated trace, tagged by
        ``parts`` or steered by ``steer``; its commit folds the
        statistics of the partitions the trace touched, from the kernel's
        counts."""
        counts = np.zeros((2, self.num_partitions), dtype=np.int64)
        base = i64_ptr(counts)
        fields = {**self.kernel_record(), "addrs": i64_ptr(addrs),
                  "n": int(addrs.size), "acc_out": base,
                  "miss_out": base + 8 * self.num_partitions}
        if steer is None:
            fields["parts"] = i64_ptr(parts)
            lanes = range(self.num_partitions)
        else:
            fields.update(steer)
            lanes = (steer["steer_alpha"], steer["steer_beta"])
        out = np.zeros_like(counts)

        def commit(_total: int) -> None:
            _fold(self.partition_stats, lanes, counts[:, lanes], out)

        task = ReplayTask(fields=fields, refs=(addrs, parts, counts),
                          commit=commit, misses=out[1])
        task.accesses = out[0]
        return task

    # ------------------------------------------------------------------ #
    def to_spec(self):
        """A :class:`~repro.cache.spec.PartitionSpec` rebuilding this cache."""
        from ..spec import PartitionSpec
        return PartitionSpec(
            scheme="vantage",
            capacity_lines=self.capacity_lines,
            num_partitions=self.num_partitions,
            policy=self.policy,
            backend="array",
            targets=tuple(float(g) for g in self.granted_allocations()),
            policy_kwargs=tuple(sorted(self._policy_kwargs.items())),
            scheme_kwargs=self._spec_scheme_kwargs(),
        )

    def _spec_scheme_kwargs(self) -> tuple:
        if self.unmanaged_fraction != 0.10:
            return (("unmanaged_fraction", self.unmanaged_fraction),)
        return ()

    def __repr__(self) -> str:
        return (f"ArrayVantageCache(capacity={self.capacity_lines} lines, "
                f"partitions={self.num_partitions}, "
                f"unmanaged={self._unm_cap} lines)")
