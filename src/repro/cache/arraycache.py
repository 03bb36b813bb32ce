"""Array-backed set-associative cache: numpy state, native replay.

This is the high-throughput counterpart of
:class:`repro.cache.cache.SetAssociativeCache`.  Instead of one policy
object (with Python dicts) per set, the whole cache lives in flat numpy
matrices:

* ``tags``  — ``(num_sets, ways)`` resident line addresses (-1 == empty);
* ``stamp`` — ``(num_sets, ways)`` last-touch / bucket-entry sequence
  numbers that encode recency order;
* ``rrpv``  — ``(num_sets, ways)`` re-reference prediction values (RRIP
  policies only);
* ``expires`` and per-set reuse-sampler tables (PDP only).

Replaying a trace — or a single access — is one call into the compiled
kernel (:mod:`repro.cache._native`) that walks the addresses and mutates
those arrays in place, typically 15-30x faster than the object model.
:meth:`ArraySetAssociativeCache.replay_task` is the one place that call
is packed: ``run``/``run_chunk``/``access`` run that task on the calling
thread, and :func:`~repro.cache.threadbatch.run_tasks` runs many at once
across threads.  The array backend has no other replay path: without a C
compiler (or with ``REPRO_NATIVE=0``) building one raises, and
``backend="auto"`` builds the object model instead, which replays every
policy alike.

Both modulo and hashed set indexing are supported (``hashed_index=True``
uses the splitmix64 finalizer of :func:`repro.cache.hashing.set_index`,
exactly as the object model does).

Partitioned organizations reuse this machinery where their regions are
independent (:class:`repro.cache.partition.array.ArrayPartitionedCache`);
Vantage — line-granular, with a shared unmanaged victim region — has its
own array organization and kernel
(:class:`repro.cache.partition.array.ArrayVantageCache`, ``vantage_run``)
following the same caller-owned-state conventions.

Exactness contract
------------------
Every online policy is **bit-identical** to the object model built with
the same region layout (``tests/test_backend_identity.py`` pins both
backends to the same digests):

* LRU victim = oldest stamp (empty ways first), which is exactly the
  OrderedDict order of :class:`~repro.cache.replacement.lru.LRUPolicy`.
  LIP (and a bimodal BIP/DIP insertion) stamps inserted lines *older*
  than the current LRU line, which is exactly
  ``OrderedDict.move_to_end(tag, last=False)``.
* RRIP victim = oldest *bucket entrant* among lines at the highest RRPV
  present, after which all lines age by the same delta.  Because aging
  shifts whole buckets without merging them, the object model's per-bucket
  OrderedDict order is fully determined by the last insert/promote event,
  which is what ``stamp`` records.
* PDP's protection deadlines, bounded reuse-distance histogram, periodic
  protecting-distance recomputation and last-seen table clears all
  replicate :class:`~repro.cache.replacement.pdp.PDPPolicy` exactly.
* The randomized policies (BIP, DIP, BRRIP, DRRIP, TA-DRRIP, Random) draw
  from one splitmix64 stream per cache, seeded ``mix64(seed)``, which
  :class:`~repro.cache.hashing.SplitMix64` reproduces draw for draw; the
  dueling policies share one PSEL over the leader sets of
  :func:`~repro.cache.replacement.rrip.leader_roles`.

Addresses may be any int64 except ``-1``, which is reserved as the
empty-way sentinel; :meth:`ArraySetAssociativeCache.access`/``run`` reject
it rather than silently mis-reporting a hit (the object model has no such
reservation).

``Belady`` (offline MIN) lives in its own organization,
:class:`ArrayBeladyCache`: it is fully associative and needs the whole
trace up front (:func:`belady_next_use` precomputes every access's
next-use position once, shared across capacities).  Its *miss counts* are
exact against :class:`~repro.cache.replacement.belady.BeladyMINPolicy` —
ties among never-reused lines may be broken differently, but evicting any
dead line leaves every future hit intact, so MIN's miss count is invariant
to that choice.

``TA-DRRIP`` additionally threads a per-access ``thread_ids`` lane through
:meth:`ArraySetAssociativeCache.run`/``run_chunk``/``replay_task``: each
thread (stream) duels SRRIP against BRRIP with its own PSEL counter, and
per-thread miss counts accumulate in :attr:`thread_misses`.

Resumable-runtime contract
--------------------------
All replay state lives in caller-visible arrays that every entry point
reads *and* writes, so a trace split at arbitrary boundaries —
:meth:`ArraySetAssociativeCache.run_chunk`, :meth:`run`, or scalar
:meth:`access` calls, freely interleaved — produces bit-identical state
and statistics to a single one-shot :meth:`run`.  Warm caches can also be
*resized* in place (:meth:`resize_ways`, :meth:`resize_sets`), evicting
per-policy victims exactly as the object policies' ``set_capacity`` does;
this is what lets :class:`~repro.cache.partition.array.ArrayPartitionedCache`
reallocate warm partitions.  A region resized to zero ways or sets misses
every access while its capacity-independent side state keeps advancing in
the kernel.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import _native
from ._native import require_kernel
from .cache import CacheStats, materialize_addresses
from .hashing import SplitMix64, mix64, seed_mix
from .replacement.rrip import DuelRole, leader_roles
from .threadbatch import ReplayTask, StateFields, i64_ptr, u64_ptr

__all__ = ["ArraySetAssociativeCache", "ArrayBeladyCache", "ARRAY_POLICIES",
           "belady_next_use"]

#: Policies the array backend implements (``Belady`` through
#: :class:`ArrayBeladyCache`; everything else through
#: :class:`ArraySetAssociativeCache`).
ARRAY_POLICIES = ("LRU", "LIP", "BIP", "DIP", "SRRIP", "BRRIP", "DRRIP",
                  "TA-DRRIP", "PDP", "Random", "Belady")

_EMPTY = -1

# Insertion modes; must match _sweepkernel.c.
_MODE = {"SRRIP": 0, "BRRIP": 1, "DRRIP": 2}
_DIP_MODE = {"BIP": 0, "DIP": 1}
#: Kernel codes of the dueling roles (must match ROLE_* in the kernel).
_ROLE_CODE = {DuelRole.FOLLOWER: 0, DuelRole.LEADER_SRRIP: 1,
              DuelRole.LEADER_BRRIP: 2, DuelRole.ADDRESS_DUEL: 3}

#: Policies using the RRIP state matrix / rrip_run kernel.
_RRIP_FAMILY = ("SRRIP", "BRRIP", "DRRIP")
#: Policies whose per-line state is the RRIP matrix (victim selection and
#: warm resizing share one code path); TA-DRRIP has its own kernel.
_RRIP_STATE = _RRIP_FAMILY + ("TA-DRRIP",)
#: Policies using the recency matrix with dueled insertion / dip_run kernel.
_DIP_FAMILY = ("BIP", "DIP")
#: Policies that set-duel two insertion policies through per-set roles.
_DUELING = ("DRRIP", "DIP")


def _dueling_roles(num_sets: int) -> np.ndarray:
    """The kernel's role codes for the wiring of :func:`leader_roles`."""
    return np.array([_ROLE_CODE[role] for role in leader_roles(num_sets)],
                    dtype=np.int64)


def _next_pow2(n: int) -> int:
    size = 64
    while size < n:
        size <<= 1
    return size


class ArraySetAssociativeCache:
    """A set-associative cache with numpy-matrix state.

    Parameters
    ----------
    num_sets, ways:
        Geometry, as in :class:`~repro.cache.cache.SetAssociativeCache`.
    policy:
        One of :data:`ARRAY_POLICIES`.
    m_bits, epsilon:
        RRIP parameters (``m_bits`` ignored outside the RRIP family;
        ``epsilon`` is also the BIP/DIP bimodal rate), defaulting to the
        paper's 2-bit RRPVs and epsilon = 1/32.
    seed:
        Seed of the random stream (BIP/DIP/BRRIP/DRRIP/TA-DRRIP/Random).
    hashed_index, index_seed:
        If ``hashed_index`` is true, set indices come from
        :func:`repro.cache.hashing.set_index` (same hash in the kernel);
        otherwise from the address modulo the number of sets.
    recompute_interval, max_distance_factor, initial_distance:
        PDP tuning, with the semantics and defaults of
        :class:`~repro.cache.replacement.pdp.PDPPolicy` (per-set capacity
        == ``ways``); rejected for other policies, as the object
        constructors would.
    """

    #: Marker for the sweep engine: the whole trace replays as one
    #: :meth:`replay_task`, so streaming it access by access alongside
    #: object caches would waste the fast path.
    supports_batch_replay = True

    def __init__(self, num_sets: int, ways: int, policy: str = "LRU",
                 m_bits: int = 2, epsilon: float = 1.0 / 32.0,
                 seed: int = 0, hashed_index: bool = False,
                 index_seed: int = 0,
                 recompute_interval: int | None = None,
                 max_distance_factor: float = 3.0,
                 initial_distance: int | None = None,
                 num_streams: int = 8):
        require_kernel()
        if num_sets <= 0:
            raise ValueError("num_sets must be positive")
        if ways <= 0:
            raise ValueError("ways must be positive")
        if policy == "Belady":
            raise ValueError(
                "Belady is offline and fully associative; build it with "
                "ArrayBeladyCache(capacity, trace) (a spec needs the trace "
                "attached via spec.with_trace(...))")
        if policy not in ARRAY_POLICIES:
            raise ValueError(f"array backend does not implement {policy!r}; "
                             f"supported: {ARRAY_POLICIES}")
        if m_bits < 1 or m_bits > 8:
            raise ValueError("m_bits must be in [1, 8]")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.num_sets = num_sets
        self.ways = ways
        self.policy = policy
        self.m_bits = m_bits
        self.max_rrpv = (1 << m_bits) - 1
        self.epsilon = float(epsilon)
        self.seed = seed
        self.hashed_index = bool(hashed_index)
        self.index_seed = index_seed
        self.tags = np.full((num_sets, ways), _EMPTY, dtype=np.int64)
        self.stamp = np.zeros((num_sets, ways), dtype=np.int64)
        self.rrpv = np.full((num_sets, ways), self.max_rrpv, dtype=np.int64)
        self._counter = np.zeros(1, dtype=np.int64)
        self._rng_state = np.array([SplitMix64(seed).state], dtype=np.uint64)
        # Dueling state shared by DRRIP and DIP (mirrors drrip_factory /
        # dip_factory / DuelingController).
        self._psel_max = (1 << 10) - 1
        self._psel = np.array([self._psel_max // 2], dtype=np.int64)
        self._roles = (_dueling_roles(num_sets) if policy in _DUELING
                       else np.zeros(num_sets, dtype=np.int64))
        self._leader_levels = max(1, int(round(1024 / 16.0)))
        if num_streams != 8 and policy != "TA-DRRIP":
            raise ValueError("num_streams applies to TA-DRRIP only")
        self.num_streams = int(num_streams)
        if policy == "TA-DRRIP":
            # Thread-aware dueling (mirrors TADRRIPPolicy): one PSEL per
            # stream, address-hash leader constituencies (1/32 of the
            # address space per insertion policy), per-stream miss
            # accumulators surfaced as :attr:`thread_misses`.
            if self.num_streams < 1:
                raise ValueError("num_streams must be >= 1")
            self._psel = np.full(self.num_streams, self._psel_max // 2,
                                 dtype=np.int64)
            self._leader_levels = max(1, int(round(1024 / 32.0)))
            self._tad_misses = np.zeros(self.num_streams, dtype=np.int64)
        if policy == "PDP":
            self._init_pdp_state(recompute_interval, max_distance_factor,
                                 initial_distance)
        elif (recompute_interval is not None or max_distance_factor != 3.0
              or initial_distance is not None):
            raise ValueError("recompute_interval/max_distance_factor/"
                             "initial_distance apply to PDP only")
        self.stats = CacheStats()
        #: This cache's kernel record apart from its trace (see
        #: :meth:`kernel_record`), cleared whenever a resize replaces an
        #: array.
        self._fields = StateFields()

    def _init_pdp_state(self, recompute_interval: int | None,
                        max_distance_factor: float,
                        initial_distance: int | None) -> None:
        """Allocate the PDP side state (mirrors PDPPolicy's parameters).

        The last-seen tables are open-addressing maps sized so they can
        never fill up between the periodic clears the object model
        performs, which keeps probing exact-dict-equivalent.
        """
        ways = self.ways
        if recompute_interval is None:
            recompute_interval = max(128, 16 * max(ways, 1))
        if recompute_interval < 16:
            raise ValueError("recompute_interval must be >= 16")
        if max_distance_factor <= 0:
            raise ValueError("max_distance_factor must be positive")
        self._pdp_max_dp = max(1, int(max_distance_factor * max(ways, 1)))
        self._pdp_initial_dp = (initial_distance if initial_distance
                                else max(1, ways))
        self._pdp_interval = recompute_interval
        self._pdp_clear_threshold = 8 * max(ways, 64)
        self._pdp_tsize = _next_pow2(
            2 * (self._pdp_clear_threshold + self._pdp_interval + 1))
        shape = (self.num_sets, ways)
        self.expires = np.zeros(shape, dtype=np.int64)
        self._pdp_clock = np.zeros(self.num_sets, dtype=np.int64)
        self._pdp_dp = np.full(
            self.num_sets,
            initial_distance if initial_distance else max(1, ways),
            dtype=np.int64)
        self._pdp_samples = np.zeros(self.num_sets, dtype=np.int64)
        self._pdp_hist = np.zeros((self.num_sets, self._pdp_max_dp + 1),
                                  dtype=np.int64)
        self._ls_tags = np.full((self.num_sets, self._pdp_tsize), _EMPTY,
                                dtype=np.int64)
        self._ls_clocks = np.zeros((self.num_sets, self._pdp_tsize),
                                   dtype=np.int64)
        self._ls_count = np.zeros(self.num_sets, dtype=np.int64)

    # ------------------------------------------------------------------ #
    @property
    def capacity_lines(self) -> int:
        """Total capacity in lines."""
        return self.num_sets * self.ways

    def set_index(self, address: int) -> int:
        """Set index for a line address (modulo or hashed indexing)."""
        if self.num_sets == 1:
            return 0
        if self.hashed_index:
            return mix64(address ^ seed_mix(self.index_seed)) % self.num_sets
        return address % self.num_sets

    def occupancy(self) -> int:
        """Number of currently resident lines across all sets."""
        return int(np.count_nonzero(self.tags != _EMPTY))

    def reset_stats(self) -> None:
        """Zero the statistics without touching cache contents."""
        self.stats = CacheStats()

    def snapshot(self, position: int = 0, meta: dict | None = None):
        """Capture the warm state as a picklable, content-hashable
        :class:`~repro.sampling.checkpoint.CacheCheckpoint`."""
        from ..sampling.checkpoint import snapshot
        return snapshot(self, position=position, meta=meta)

    def restore(self, checkpoint) -> None:
        """Rewind this cache to ``checkpoint``'s state, in place."""
        from ..sampling.checkpoint import restore_into
        restore_into(self, checkpoint)

    # ------------------------------------------------------------------ #
    def access(self, address: int, thread_id: int = 0) -> bool:
        """Perform one access; returns True on a hit and updates stats.

        A one-element kernel replay, so scalar accesses and :meth:`run`
        calls interleave freely.  ``thread_id`` attributes the access to a
        stream (TA-DRRIP only; other policies are thread-oblivious and
        reject a nonzero id).
        """
        if thread_id and self.policy != "TA-DRRIP":
            raise ValueError("thread_id applies to TA-DRRIP only")
        misses = self.stats.misses
        self.run(np.array([int(address)], dtype=np.int64),
                 thread_ids=(np.array([int(thread_id)], dtype=np.int64)
                             if self.policy == "TA-DRRIP" else None))
        return self.stats.misses == misses

    # -- TA-DRRIP -------------------------------------------------------- #
    @property
    def thread_misses(self) -> np.ndarray:
        """Per-stream cumulative miss counts (TA-DRRIP only)."""
        if self.policy != "TA-DRRIP":
            raise AttributeError("thread_misses applies to TA-DRRIP only")
        return self._tad_misses

    # ------------------------------------------------------------------ #
    def _materialize_tids(self, addrs: np.ndarray, thread_ids) -> np.ndarray | None:
        """Validated per-access stream ids (TA-DRRIP's thread lane).

        Returns ``None`` for thread-oblivious policies; for TA-DRRIP an
        int64 array the shape of ``addrs`` (all stream 0 when no ids were
        supplied)."""
        if self.policy != "TA-DRRIP":
            if thread_ids is not None:
                raise ValueError("thread_ids applies to TA-DRRIP only")
            return None
        if thread_ids is None:
            return np.zeros(addrs.size, dtype=np.int64)
        tids = np.ascontiguousarray(thread_ids, dtype=np.int64)
        if tids.shape != addrs.shape:
            raise ValueError("thread_ids must have the trace's shape")
        if tids.size and (int(tids.min()) < 0
                          or int(tids.max()) >= self.num_streams):
            raise ValueError(
                f"thread ids must be in [0, {self.num_streams})")
        return tids

    def run(self, trace: Iterable[int] | Sequence[int] | np.ndarray,
            instructions: int = 0, thread_ids=None) -> CacheStats:
        """Replay a trace; returns (and stores) the accumulated stats.

        Runs this cache's :meth:`replay_task` on the calling thread (one
        width-1 kernel dispatch).  ``thread_ids`` (TA-DRRIP only)
        attributes each access to a stream; omitted, every access belongs
        to stream 0.
        """
        self.replay_task(trace, thread_ids=thread_ids).run()
        if instructions:
            self.stats.instructions += instructions
        return self.stats

    def run_chunk(self, trace: Iterable[int] | Sequence[int] | np.ndarray,
                  instructions: int = 0, thread_ids=None) -> CacheStats:
        """Replay one chunk of a trace; returns this chunk's stats only.

        The chunked entry point of the resumable runtime: state is carried
        across calls, so any sequence of ``run_chunk`` calls is
        bit-identical to one :meth:`run` over the concatenated trace.  The
        cumulative statistics remain available in :attr:`stats`.
        """
        before = CacheStats(accesses=self.stats.accesses,
                            hits=self.stats.hits, misses=self.stats.misses,
                            instructions=self.stats.instructions)
        self.run(trace, instructions=instructions, thread_ids=thread_ids)
        return CacheStats(
            accesses=self.stats.accesses - before.accesses,
            hits=self.stats.hits - before.hits,
            misses=self.stats.misses - before.misses,
            instructions=self.stats.instructions - before.instructions)

    def kernel_record(self) -> dict:
        """This cache's kernel record members apart from the trace
        (``addrs``, ``n``) and TA-DRRIP's stream lane (``parts``; absent,
        every access is stream 0): the policy's kind and constants and
        its state arrays' addresses.  Read once and kept until a resize
        replaces an array; a partitioned cache's group record runs one of
        these per region over that region's sub-trace."""
        fields = self._fields
        if fields:
            return fields
        fields.update({
            "num_sets": self.num_sets, "ways": self.ways,
            "tags": i64_ptr(self.tags), "stamp": i64_ptr(self.stamp),
            "counter": i64_ptr(self._counter),
            "hashed": 1 if self.hashed_index else 0,
            "index_seed": self.index_seed,
        })
        if self.policy == "TA-DRRIP":
            fields.update(
                kind=_native.KIND_TADRRIP, max_rrpv=self.max_rrpv,
                rrpv=i64_ptr(self.rrpv),
                epsilon=self.epsilon, rng_state=u64_ptr(self._rng_state),
                psel=i64_ptr(self._psel), psel_max=self._psel_max,
                leader_levels=self._leader_levels,
                num_streams=self.num_streams,
                miss_out=i64_ptr(self._tad_misses))
        elif self.policy in _RRIP_FAMILY:
            fields.update(
                kind=_native.KIND_RRIP, max_rrpv=self.max_rrpv,
                rrpv=i64_ptr(self.rrpv), mode=_MODE[self.policy],
                epsilon=self.epsilon, rng_state=u64_ptr(self._rng_state),
                roles=i64_ptr(self._roles), psel=i64_ptr(self._psel),
                psel_max=self._psel_max, leader_levels=self._leader_levels)
        elif self.policy in _DIP_FAMILY:
            fields.update(
                kind=_native.KIND_DIP, mode=_DIP_MODE[self.policy],
                epsilon=self.epsilon, rng_state=u64_ptr(self._rng_state),
                roles=i64_ptr(self._roles), psel=i64_ptr(self._psel),
                psel_max=self._psel_max, leader_levels=self._leader_levels)
        elif self.policy == "PDP":
            fields.update(
                kind=_native.KIND_PDP, expires=i64_ptr(self.expires),
                clock=i64_ptr(self._pdp_clock), dp=i64_ptr(self._pdp_dp),
                sample_count=i64_ptr(self._pdp_samples),
                hist=i64_ptr(self._pdp_hist), max_dp=self._pdp_max_dp,
                interval=self._pdp_interval,
                clear_threshold=self._pdp_clear_threshold,
                ls_tags=i64_ptr(self._ls_tags),
                ls_clocks=i64_ptr(self._ls_clocks),
                ls_count=i64_ptr(self._ls_count), tsize=self._pdp_tsize)
        elif self.policy == "Random":
            fields.update(kind=_native.KIND_RANDOM,
                          rng_state=u64_ptr(self._rng_state))
        else:
            fields.update(kind=_native.KIND_LRU,
                          lip=1 if self.policy == "LIP" else 0)
        return fields

    def fold_stats(self, accesses: int, misses: int) -> None:
        """Add one replay's access and miss counts to :attr:`stats`."""
        stats = self.stats
        stats.accesses += accesses
        stats.misses += misses
        stats.hits += accesses - misses

    def replay_task(self, trace, thread_ids=None):
        """This cache's replay of ``trace`` as a batchable
        :class:`~repro.cache.threadbatch.ReplayTask`.

        The one place this organization packs a kernel call: :meth:`run`
        (and so :meth:`run_chunk` and :meth:`access`) runs this same task
        at width 1, so a task executed by the threaded dispatcher — at any
        width — is bit-identical to calling :meth:`run` directly.  An
        empty trace is a native task with ``n = 0``.  ``thread_ids`` is
        TA-DRRIP's per-access stream lane.
        """
        addrs = materialize_addresses(trace)
        if addrs.ndim != 1:
            raise ValueError("trace must be one-dimensional")
        if addrs.size and bool(np.any(addrs == _EMPTY)):
            raise ValueError("address -1 is reserved as the empty-way "
                             "sentinel; the array backend cannot cache it")
        tids = self._materialize_tids(addrs, thread_ids)
        n = int(addrs.size)
        fields = {**self.kernel_record(), "addrs": i64_ptr(addrs), "n": n}
        refs: tuple = (addrs,)
        if tids is not None:
            fields["parts"] = i64_ptr(tids)
            refs = (addrs, tids)
        return ReplayTask(fields=fields, refs=refs,
                          commit=lambda misses: self.fold_stats(n, misses))

    # ------------------------------------------------------------------ #
    # Warm resizing (the reallocation primitive of the resumable runtime)
    # ------------------------------------------------------------------ #
    def _shrink_survivors(self, s: int, new_ways: int) -> np.ndarray:
        """Way indices (ascending) surviving a shrink of set ``s``.

        Victims are chosen exactly as the object policies' ``evict_one``
        would choose them: oldest stamp for the recency family (LRU order),
        highest-RRPV-then-oldest-entrant for the RRIP family,
        oldest-unprotected-then-oldest for PDP, and uniformly random draws
        from the shared splitmix stream for Random.
        """
        row = self.tags[s]
        occupied = np.nonzero(row != _EMPTY)[0]
        k = occupied.size - new_ways
        if k <= 0:
            return occupied
        if new_ways == 0:
            return occupied[:0]
        if self.policy == "Random":
            rng = SplitMix64.from_state(int(self._rng_state[0]))
            resident = occupied.tolist()
            for _ in range(k):
                idx = rng.next64() % len(resident)
                resident[idx] = resident[-1]
                resident.pop()
            self._rng_state[0] = rng.state
            return np.sort(np.asarray(resident, dtype=np.int64))
        st = self.stamp[s, occupied]
        if self.policy in _RRIP_STATE:
            order = occupied[np.lexsort((st, -self.rrpv[s, occupied]))]
        elif self.policy == "PDP":
            protected = (self.expires[s, occupied]
                         > int(self._pdp_clock[s])).astype(np.int64)
            order = occupied[np.lexsort((st, protected))]
        else:
            order = occupied[np.argsort(st, kind="stable")]
        return np.sort(order[k:])

    def resize_ways(self, new_ways: int) -> None:
        """Warm-resize every set to ``new_ways`` ways, keeping contents.

        Growing keeps all lines (new ways start empty).  Shrinking evicts
        per-policy victims per set, replicating repeated ``evict_one``
        calls of the object policies — including RRIP aging: survivors age
        by the same delta the object model's eviction-driven aging applies.
        Capacity-derived PDP tuning (candidate-distance bound, recompute
        interval, table sizes) stays frozen at construction-time values,
        exactly as the object model's ``set_capacity`` leaves them.
        Resizing to zero ways is allowed; such a region misses every
        access while its capacity-independent side state keeps advancing
        in the kernel.
        """
        if new_ways < 0:
            raise ValueError("new_ways must be non-negative")
        if new_ways == self.ways:
            return
        old_ways = self.ways
        shape = (self.num_sets, new_ways)
        new_tags = np.full(shape, _EMPTY, dtype=np.int64)
        new_stamp = np.zeros(shape, dtype=np.int64)
        new_rrpv = np.full(shape, self.max_rrpv, dtype=np.int64)
        new_expires = (np.zeros(shape, dtype=np.int64)
                       if self.policy == "PDP" else None)
        if new_ways > old_ways:
            new_tags[:, :old_ways] = self.tags
            new_stamp[:, :old_ways] = self.stamp
            new_rrpv[:, :old_ways] = self.rrpv
            if new_expires is not None:
                new_expires[:, :old_ways] = self.expires
        else:
            for s in range(self.num_sets):
                surv = self._shrink_survivors(s, new_ways)
                m = int(surv.size)
                if m == 0:
                    continue
                new_tags[s, :m] = self.tags[s, surv]
                new_stamp[s, :m] = self.stamp[s, surv]
                if self.policy in _RRIP_STATE:
                    rv = self.rrpv[s, surv]
                    evicted = np.setdiff1d(
                        np.nonzero(self.tags[s] != _EMPTY)[0], surv)
                    if evicted.size:
                        # Survivors age by the delta that brought the last
                        # victim's bucket to max RRPV (object-model aging).
                        delta = self.max_rrpv - int(
                            self.rrpv[s, evicted].min())
                        if delta > 0:
                            rv = np.minimum(rv + delta, self.max_rrpv)
                    new_rrpv[s, :m] = rv
                if new_expires is not None:
                    new_expires[s, :m] = self.expires[s, surv]
        self.tags = new_tags
        self.stamp = new_stamp
        self.rrpv = new_rrpv
        if new_expires is not None:
            self.expires = new_expires
        self.ways = new_ways
        self._fields.clear()

    def resize_sets(self, new_num_sets: int) -> None:
        """Warm-resize to ``new_num_sets`` sets, keeping the leading sets.

        The first ``min(old, new)`` sets keep their full state (lines,
        recency, RRPVs, PDP samplers); extra sets start empty with fresh
        per-set policy state — exactly how the object
        :class:`~repro.cache.partition.setpart.SetPartitionedCache` drops
        trailing regions on shrink and appends fresh ones on growth.  The
        dueling policies' leader-set wiring is re-derived for the new set
        count, as the object scheme's ``rewire_leaders`` does; PSEL and the
        random stream carry over.
        """
        if new_num_sets < 0:
            raise ValueError("new_num_sets must be non-negative")
        if new_num_sets == self.num_sets:
            return
        n = min(self.num_sets, new_num_sets)

        def pad2(arr: np.ndarray, fill) -> np.ndarray:
            out = np.full((new_num_sets, arr.shape[1]), fill, dtype=arr.dtype)
            out[:n] = arr[:n]
            return out

        def pad1(arr: np.ndarray, fill) -> np.ndarray:
            out = np.full(new_num_sets, fill, dtype=arr.dtype)
            out[:n] = arr[:n]
            return out

        self.tags = pad2(self.tags, _EMPTY)
        self.stamp = pad2(self.stamp, 0)
        self.rrpv = pad2(self.rrpv, self.max_rrpv)
        if self.policy == "PDP":
            self.expires = pad2(self.expires, 0)
            self._pdp_clock = pad1(self._pdp_clock, 0)
            self._pdp_dp = pad1(self._pdp_dp, self._pdp_initial_dp)
            self._pdp_samples = pad1(self._pdp_samples, 0)
            self._pdp_hist = pad2(self._pdp_hist, 0)
            self._ls_tags = pad2(self._ls_tags, _EMPTY)
            self._ls_clocks = pad2(self._ls_clocks, 0)
            self._ls_count = pad1(self._ls_count, 0)
        self._roles = (_dueling_roles(new_num_sets)
                       if self.policy in _DUELING and new_num_sets > 0
                       else np.zeros(new_num_sets, dtype=np.int64))
        self.num_sets = new_num_sets
        self._fields.clear()

    def to_spec(self):
        """A :class:`~repro.cache.spec.CacheSpec` rebuilding this cache.

        Caches built from a spec return it verbatim; directly constructed
        caches are reconstructed from their own attributes (non-default
        RRIP/bimodal parameters included; PDP tuning parameters are only
        preserved when the cache was built from a spec).
        """
        stored = getattr(self, "_built_spec", None)
        if stored is not None:
            return stored
        from .spec import CacheSpec
        kwargs = {}
        if self.policy in _RRIP_STATE and self.m_bits != 2:
            kwargs["m_bits"] = self.m_bits
        if (self.policy in _RRIP_STATE or self.policy in _DIP_FAMILY) \
                and self.epsilon != 1.0 / 32.0:
            kwargs["epsilon"] = self.epsilon
        if self.policy == "TA-DRRIP" and self.num_streams != 8:
            kwargs["num_streams"] = self.num_streams
        return CacheSpec(capacity_lines=self.capacity_lines, ways=self.ways,
                         policy=self.policy, backend="array",
                         seed=self.seed or None,
                         hashed_index=self.hashed_index,
                         index_seed=self.index_seed,
                         policy_kwargs=tuple(sorted(kwargs.items())))

    @classmethod
    def from_spec(cls, spec):
        """Build a cache from a :class:`~repro.cache.spec.CacheSpec`."""
        from .spec import build
        return build(spec)

    def __repr__(self) -> str:
        return (f"ArraySetAssociativeCache(sets={self.num_sets}, "
                f"ways={self.ways}, policy={self.policy!r}, "
                f"capacity={self.capacity_lines} lines)")


#: next_use sentinel for lines never accessed again (must sort above every
#: real trace position; matches I64_MAX in the kernel's documentation).
_NEVER = np.iinfo(np.int64).max


def belady_next_use(trace) -> np.ndarray:
    """Per-access next-use positions of ``trace`` (vectorized two-pass).

    ``out[i]`` is the trace position of the next access to the line
    ``trace[i]`` touches after position ``i``, or ``2**63 - 1`` when that
    line is never touched again.  One stable argsort groups each line's
    accesses in trace order; a scatter then links every access to its
    successor.  Computed once per trace and shared across every capacity
    point of a Belady miss curve (and across every
    :class:`ArrayBeladyCache` built from the same precomputation).
    """
    addrs = materialize_addresses(trace)
    if addrs.ndim != 1:
        raise ValueError("trace must be one-dimensional")
    out = np.full(addrs.size, _NEVER, dtype=np.int64)
    if addrs.size > 1:
        order = np.argsort(addrs, kind="stable")
        same = addrs[order[1:]] == addrs[order[:-1]]
        out[order[:-1][same]] = order[1:][same]
    return out


class ArrayBeladyCache:
    """Belady's MIN (offline optimal) over caller-owned array state.

    The array counterpart of
    :class:`~repro.cache.replacement.belady.BeladyMINPolicy`: fully
    associative, fed the whole trace up front.  Next-use positions are
    precomputed by :func:`belady_next_use` (pass ``next_use=`` to share one
    precomputation across capacities); the replay itself is a lazy
    max-heap over an open-addressing residency table, chunk-resumable like
    every other array organization (``run``/``run_chunk``/``access`` calls
    may be freely mixed, and must follow the attached trace in order).

    Miss counts are exact against the object model at every capacity: ties
    (which only arise among lines never accessed again) may be broken
    differently, but evicting any dead line leaves every future hit
    intact, so MIN's miss count is invariant to the choice.
    """

    supports_batch_replay = True
    policy = "Belady"

    def __init__(self, capacity: int, trace, next_use: np.ndarray | None = None):
        require_kernel()
        capacity = int(capacity)
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._trace = materialize_addresses(trace)
        if self._trace.ndim != 1:
            raise ValueError("trace must be one-dimensional")
        if self._trace.size and bool(np.any(self._trace == _EMPTY)):
            raise ValueError("address -1 is reserved as the empty-slot "
                             "sentinel; the array backend cannot cache it")
        if next_use is None:
            next_use = belady_next_use(self._trace)
        else:
            next_use = np.ascontiguousarray(next_use, dtype=np.int64)
            if next_use.shape != self._trace.shape:
                raise ValueError("next_use must have the trace's shape")
        self._next_use = next_use
        self._cursor = 0
        n = int(self._trace.size)
        live = min(capacity, n)
        self._tsize = _next_pow2(2 * (live + 2))
        self._ht_tag = np.full(self._tsize, _EMPTY, dtype=np.int64)
        self._ht_val = np.zeros(self._tsize, dtype=np.int64)
        # Every access pushes one lazy heap entry, so n + 1 slots suffice
        # for the whole attached trace regardless of chunking.
        self._heap_key = np.zeros(n + 1, dtype=np.int64)
        self._heap_tag = np.zeros(n + 1, dtype=np.int64)
        self._heap_io = np.zeros(2, dtype=np.int64)  # [live len, resident]
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    @property
    def capacity_lines(self) -> int:
        """Capacity in lines (fully associative)."""
        return self.capacity

    @property
    def trace_remaining(self) -> int:
        """Accesses of the attached trace not yet replayed."""
        return int(self._trace.size) - self._cursor

    def occupancy(self) -> int:
        """Number of currently resident lines."""
        return int(self._heap_io[1])

    def reset_stats(self) -> None:
        """Zero the statistics without touching cache contents."""
        self.stats = CacheStats()

    def snapshot(self, position: int = 0, meta: dict | None = None):
        """Capture the warm state (replay cursor included) as a
        picklable :class:`~repro.sampling.checkpoint.CacheCheckpoint`."""
        from ..sampling.checkpoint import snapshot
        return snapshot(self, position=position, meta=meta)

    def restore(self, checkpoint) -> None:
        """Rewind this cache to ``checkpoint``'s state, in place (the
        attached trace must match the checkpoint's)."""
        from ..sampling.checkpoint import restore_into
        restore_into(self, checkpoint)

    def _claim(self, trace) -> tuple[int, np.ndarray]:
        """Validate ``trace`` as the next chunk of the attached trace and
        advance the cursor past it (``None`` claims the whole remainder)."""
        start = self._cursor
        if trace is None:
            addrs = self._trace[start:]
        else:
            addrs = materialize_addresses(trace)
            if addrs.ndim != 1:
                raise ValueError("trace must be one-dimensional")
            end = start + int(addrs.size)
            if (end > self._trace.size
                    or not np.array_equal(addrs, self._trace[start:end])):
                raise ValueError(
                    f"out-of-order replay: Belady MIN is offline and must "
                    f"replay its attached trace in order (cursor at "
                    f"{start} of {self._trace.size})")
        self._cursor = start + int(addrs.size)
        return start, addrs

    # ------------------------------------------------------------------ #
    def access(self, address: int) -> bool:
        """Replay the next attached-trace access (which must be
        ``address``); returns True on a hit and updates stats."""
        misses = self.stats.misses
        self.run(np.asarray([int(address)], dtype=np.int64))
        return self.stats.misses == misses

    def run(self, trace=None, instructions: int = 0) -> CacheStats:
        """Replay the next chunk of the attached trace (all of it when
        ``trace`` is None); returns (and stores) the accumulated stats.
        Runs :meth:`replay_task` on the calling thread (width 1)."""
        self.replay_task(trace).run()
        if instructions:
            self.stats.instructions += instructions
        return self.stats

    def run_chunk(self, trace=None, instructions: int = 0) -> CacheStats:
        """Replay one chunk; returns this chunk's stats only (state and
        cumulative :attr:`stats` carry across calls)."""
        before = CacheStats(accesses=self.stats.accesses,
                            hits=self.stats.hits, misses=self.stats.misses,
                            instructions=self.stats.instructions)
        self.run(trace, instructions=instructions)
        return CacheStats(
            accesses=self.stats.accesses - before.accesses,
            hits=self.stats.hits - before.hits,
            misses=self.stats.misses - before.misses,
            instructions=self.stats.instructions - before.instructions)

    # ------------------------------------------------------------------ #
    def replay_task(self, trace=None):
        """The next chunk's replay as a batchable
        :class:`~repro.cache.threadbatch.ReplayTask` (claims the chunk
        immediately; the dispatcher commits its statistics)."""
        require_kernel()  # fail before claiming the chunk
        start, addrs = self._claim(trace)
        n = int(addrs.size)
        nu = self._next_use[start:start + n]
        fields = {
            "kind": _native.KIND_BELADY, "addrs": i64_ptr(addrs), "n": n,
            "capacity": self.capacity, "next_use": i64_ptr(nu),
            "ht_tag": i64_ptr(self._ht_tag), "ht_reg": i64_ptr(self._ht_val),
            "tsize": self._tsize, "heap_key": i64_ptr(self._heap_key),
            "heap_tag": i64_ptr(self._heap_tag),
            "heap_cap": int(self._heap_key.size),
            "heap_io": i64_ptr(self._heap_io),
        }

        def commit(misses: int) -> None:
            self.stats.accesses += n
            self.stats.misses += misses
            self.stats.hits += n - misses

        return ReplayTask(fields=fields, refs=(addrs, nu), commit=commit)

    def to_spec(self):
        """A :class:`~repro.cache.spec.CacheSpec` rebuilding this cache
        (the trace itself is attached at build time, not stored in the
        spec)."""
        stored = getattr(self, "_built_spec", None)
        if stored is not None:
            return stored
        from .spec import CacheSpec
        return CacheSpec(capacity_lines=self.capacity,
                         ways=max(1, self.capacity), policy="Belady",
                         backend="array")

    @classmethod
    def from_spec(cls, spec, trace=None):
        """Build a cache from a :class:`~repro.cache.spec.CacheSpec`
        (``trace`` may also be pre-attached on the spec)."""
        from .spec import build
        if trace is not None:
            spec = spec.with_trace(trace)
        return build(spec)

    def __repr__(self) -> str:
        return (f"ArrayBeladyCache(capacity={self.capacity} lines, "
                f"trace={int(self._trace.size)} accesses, "
                f"cursor={self._cursor})")
