"""The Talus hardware wrapper: shadow partitions plus a sampling function.

Talus extends an existing partitioning scheme by (Sec. VI-B of the paper):

1. doubling the number of hardware partitions,
2. using two *shadow partitions* (alpha and beta) per logical
   (software-visible) partition, and
3. adding one configurable sampling function per logical partition — an H3
   hash compared against an 8-bit limit register — that steers each access
   to the alpha or beta shadow partition.

:class:`TalusCache` wraps any :class:`~repro.cache.partition.base.PartitionedCache`
built with ``2 * num_logical`` partitions and exposes the logical-partition
interface.  Configurations come from the planner in :mod:`repro.core.talus`
(directly, or via the software wrapper
:func:`repro.sim.reconfigure.plan_shared_allocations`).

The steering runs where the hardware runs it, beside each access: on an
array-backed base a logical partition's replay is one native record that
hashes every access with the pair's H3 byte tables, compares it with the
limit register, and replays it into the alpha or beta partition
(:meth:`TalusCache.steering`).  No numpy pass touches the trace first.
:meth:`SamplingFunction.goes_to_alpha
<repro.cache.hashing.SamplingFunction.goes_to_alpha>`, which the
per-access path and the object model use, stays the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.talus import TalusConfig
from .cache import CacheStats, materialize_addresses
from .hashing import SamplingFunction
from .partition.base import PartitionedCache
from .threadbatch import StateFields, u64_ptr

__all__ = ["TalusCache", "ShadowPair"]


@dataclass
class ShadowPair:
    """Bookkeeping for one logical partition's pair of shadow partitions."""

    logical: int
    alpha_index: int
    beta_index: int
    sampler: SamplingFunction
    config: TalusConfig | None = None
    #: The steering members of a replay record that never change (see
    #: :meth:`TalusCache.steering`), read once.
    steer_fields: StateFields = field(default_factory=StateFields,
                                      repr=False, compare=False)


class TalusCache:
    """Talus on top of an arbitrary partitioned cache.

    Parameters
    ----------
    base:
        A partitioned cache with exactly ``2 * num_logical`` partitions.
        Even partition indices are alpha shadow partitions, odd indices are
        beta shadow partitions (logical partition ``p`` owns hardware
        partitions ``2p`` and ``2p + 1``).
    num_logical:
        Number of software-visible partitions.
    sampler_bits:
        Width of the sampling hash / limit register (paper: 8 bits).
    seed:
        Seed for the per-partition H3 hash functions.
    """

    def __init__(self, base: PartitionedCache, num_logical: int,
                 sampler_bits: int = 8, seed: int = 7):
        if base.num_partitions != 2 * num_logical:
            raise ValueError(
                f"base cache must have {2 * num_logical} partitions "
                f"(2 per logical partition), got {base.num_partitions}")
        self.base = base
        self.num_logical = num_logical
        self._pairs = [
            ShadowPair(logical=p, alpha_index=2 * p, beta_index=2 * p + 1,
                       sampler=SamplingFunction(0.0, out_bits=sampler_bits,
                                                seed=seed + p))
            for p in range(num_logical)
        ]
        self.logical_stats = [CacheStats() for _ in range(num_logical)]

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    def configure(self, logical: int, config: TalusConfig) -> TalusConfig:
        """Apply a Talus configuration to one logical partition.

        The shadow partition sizes are requested from the underlying scheme;
        if the scheme coarsens them (e.g. way partitioning), the sampling
        rate is recomputed from the granted alpha size (``rho = s1 / alpha``,
        Sec. VI-B) so that the alpha partition still emulates a cache of
        size ``alpha``.

        Returns the configuration actually in effect (post-coarsening).
        """
        self._check_logical(logical)
        pair = self._pairs[logical]
        requests = self._build_requests(logical, config)
        granted = self.base.set_allocations(requests)
        return self._apply_granted(pair, config, granted)

    def configure_many(self, configs: "Sequence[TalusConfig | None]"
                       ) -> list[TalusConfig | None]:
        """Reconfigure several logical partitions in one atomic step.

        All shadow-partition sizes are granted by a *single*
        ``set_allocations`` call on the underlying scheme, so a plan that
        simultaneously grows one logical partition and shrinks another is
        applied without the transient over-capacity state that sequential
        :meth:`configure` calls would request (grow-before-shrink exceeds
        the partitionable capacity and is rejected).  ``None`` entries
        leave that logical partition's current configuration in place.

        Returns the effective (post-coarsening) configuration per logical
        partition.
        """
        configs = list(configs)
        if len(configs) != self.num_logical:
            raise ValueError(
                f"expected {self.num_logical} configs, got {len(configs)}")
        requests = [0.0] * self.base.num_partitions
        for pair, config in zip(self._pairs, configs):
            effective = config if config is not None else pair.config
            if effective is not None:
                requests[pair.alpha_index] = effective.s1
                requests[pair.beta_index] = effective.s2
        granted = self.base.set_allocations(requests)
        out: list[TalusConfig | None] = []
        for pair, config in zip(self._pairs, configs):
            if config is None:
                out.append(pair.config)
            else:
                out.append(self._apply_granted(pair, config, granted))
        return out

    def _apply_granted(self, pair: ShadowPair, config: TalusConfig,
                       granted: list[int]) -> TalusConfig:
        """Derive and program one pair's effective config from a grant."""
        granted_s1 = granted[pair.alpha_index]
        granted_s2 = granted[pair.beta_index]

        if config.degenerate:
            rho = 0.0
        elif config.alpha <= 0:
            # alpha = 0: the alpha shadow partition holds nothing and the
            # planned fraction of accesses is effectively bypassed; the
            # coarsening correction (rho = s1/alpha) does not apply.
            rho = config.rho
        else:
            rho = min(1.0, granted_s1 / config.alpha)
        pair.sampler.set_rate(rho)
        effective = TalusConfig(
            total_size=float(granted_s1 + granted_s2),
            alpha=config.alpha, beta=config.beta,
            rho=pair.sampler.rate,
            s1=float(granted_s1), s2=float(granted_s2),
            degenerate=config.degenerate,
        )
        pair.config = effective
        return effective

    def _build_requests(self, logical: int, config: TalusConfig) -> list[float]:
        """Allocation request vector for the underlying partitioned cache.

        Keeps the other logical partitions' current requests unchanged.
        """
        requests = [0.0] * self.base.num_partitions
        for pair in self._pairs:
            if pair.logical == logical:
                requests[pair.alpha_index] = config.s1
                requests[pair.beta_index] = config.s2
            elif pair.config is not None:
                requests[pair.alpha_index] = pair.config.s1
                requests[pair.beta_index] = pair.config.s2
        return requests

    # ------------------------------------------------------------------ #
    # Access path
    # ------------------------------------------------------------------ #
    def access(self, address: int, logical: int = 0) -> bool:
        """Perform one access on behalf of a logical partition."""
        self._check_logical(logical)
        pair = self._pairs[logical]
        if pair.sampler.goes_to_alpha(address):
            target = pair.alpha_index
        else:
            target = pair.beta_index
        hit = self.base.access(address, target)
        self.logical_stats[logical].record(hit)
        return hit

    @property
    def supports_batch_replay(self) -> bool:
        """Whether :meth:`run` replays a whole trace in one batched pass.

        True when the underlying partitioned cache offers
        ``run_partitioned`` (the array backend); the replay, steering
        included, then runs in the native kernel.
        """
        return hasattr(self.base, "run_partitioned")

    def steering(self, logical: int) -> dict:
        """The replay record members that steer ``logical``'s accesses: the
        address of its H3 byte tables (``H3Hash._byte_luts``), their count,
        its limit register and its alpha and beta partition ids.  An array
        base's ``run_partitioned`` and ``replay_task`` take them in place
        of per-access partition ids, and the kernel sends each access to
        the alpha partition iff its hash is below the limit — exactly
        :meth:`SamplingFunction.goes_to_alpha`."""
        pair = self._pairs[logical]
        fixed = pair.steer_fields
        if not fixed:
            luts = pair.sampler.hash._byte_luts
            fixed.update(steer_lut=u64_ptr(luts), steer_bytes=len(luts),
                         steer_alpha=pair.alpha_index,
                         steer_beta=pair.beta_index)
        return {**fixed, "steer_limit": pair.sampler.limit}

    def run(self, trace, logical: int = 0, instructions: int = 0) -> CacheStats:
        """Replay a trace on behalf of one logical partition.

        On an array-backed base (:attr:`supports_batch_replay`) the whole
        trace is one ``run_partitioned`` record that steers each access
        with the pair's H3 hash as it replays it (:meth:`steering`) —
        bit-identical to the per-access path, since the sampling function
        is a pure function of the address.
        """
        self._check_logical(logical)
        if self.supports_batch_replay:
            addrs = materialize_addresses(trace)
            pair = self._pairs[logical]
            _, misses = self.base.run_partitioned(
                addrs, steer=self.steering(logical))
            stats = self.logical_stats[logical]
            n = int(addrs.size)
            m = int(misses[pair.alpha_index] + misses[pair.beta_index])
            stats.accesses += n
            stats.misses += m
            stats.hits += n - m
        else:
            for address in trace:
                self.access(int(address), logical)
        if instructions:
            self.logical_stats[logical].instructions += instructions
        return self.logical_stats[logical]

    def replay_task(self, trace, logical: int = 0):
        """This logical partition's replay of ``trace`` as a batchable
        :class:`~repro.cache.threadbatch.ReplayTask`.

        The same steered record :meth:`run` replays, from the base
        cache's ``replay_task``, with a chained hook folding the
        logical-partition statistics — so a batched Talus task commits
        exactly what :meth:`run` would have recorded.
        """
        from .threadbatch import ReplayTask
        self._check_logical(logical)
        addrs = materialize_addresses(trace)
        if not self.supports_batch_replay \
                or not hasattr(self.base, "replay_task"):
            return ReplayTask(fallback=lambda: self.run(addrs, logical))
        pair = self._pairs[logical]
        task = self.base.replay_task(addrs, steer=self.steering(logical))
        stats = self.logical_stats[logical]
        pair_misses = task.misses
        n = int(addrs.size)

        def fold() -> None:
            m = int(pair_misses[pair.alpha_index]
                    + pair_misses[pair.beta_index])
            stats.accesses += n
            stats.misses += m
            stats.hits += n - m

        return task.add_callback(fold)

    def run_chunk(self, trace, logical: int = 0,
                  instructions: int = 0) -> CacheStats:
        """Replay one chunk on behalf of a logical partition.

        Returns this chunk's statistics only (the cumulative statistics
        stay in :attr:`logical_stats`).  State carries across calls on
        both backends, and on the array backend warm reallocation
        (:meth:`configure`/:meth:`configure_many`) may be interleaved
        between chunks — the interval-based reconfiguration loop of
        :mod:`repro.sim.reconfigure` is exactly this alternation.
        """
        self._check_logical(logical)
        stats = self.logical_stats[logical]
        before_accesses = stats.accesses
        before_hits = stats.hits
        before_misses = stats.misses
        self.run(trace, logical, instructions=instructions)
        return CacheStats(accesses=stats.accesses - before_accesses,
                          hits=stats.hits - before_hits,
                          misses=stats.misses - before_misses,
                          instructions=instructions)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def shadow_pair(self, logical: int) -> ShadowPair:
        """The shadow-partition bookkeeping for a logical partition."""
        self._check_logical(logical)
        return self._pairs[logical]

    def total_stats(self) -> CacheStats:
        """Aggregate hit/miss statistics across all logical partitions."""
        total = CacheStats()
        for stats in self.logical_stats:
            total = total.merge(stats)
        return total

    def reset_stats(self) -> None:
        """Zero logical and underlying partition statistics."""
        self.logical_stats = [CacheStats() for _ in range(self.num_logical)]
        self.base.reset_stats()

    def snapshot(self, position: int = 0, meta: dict | None = None):
        """Capture the warm state (base cache + sampler registers +
        logical statistics) as a picklable, content-hashable
        :class:`~repro.sampling.checkpoint.CacheCheckpoint`."""
        from ..sampling.checkpoint import snapshot
        return snapshot(self, position=position, meta=meta)

    def restore(self, checkpoint) -> None:
        """Rewind this cache to ``checkpoint``'s state, in place."""
        from ..sampling.checkpoint import restore_into
        restore_into(self, checkpoint)

    def to_spec(self):
        """A :class:`~repro.cache.spec.TalusSpec` rebuilding this cache.

        The underlying partitioned cache round-trips through its own
        ``to_spec``, and the currently programmed (effective, post-
        coarsening) configurations are recorded per logical partition, so
        ``build(talus.to_spec())`` reproduces this cache as configured now.
        """
        from .spec import TalusSpec
        sampler = self._pairs[0].sampler
        return TalusSpec(partition=self.base.to_spec(),
                         num_logical=self.num_logical,
                         sampler_bits=sampler.out_bits,
                         sampler_seed=sampler.hash.seed,
                         configs=tuple(pair.config for pair in self._pairs))

    @classmethod
    def from_spec(cls, spec) -> "TalusCache":
        """Build a Talus cache from a :class:`~repro.cache.spec.TalusSpec`."""
        from .spec import build
        return build(spec)

    def _check_logical(self, logical: int) -> None:
        if not 0 <= logical < self.num_logical:
            raise ValueError(
                f"logical partition must be in [0, {self.num_logical}), got {logical}")

    def __repr__(self) -> str:
        return (f"TalusCache(base={type(self.base).__name__}, "
                f"logical_partitions={self.num_logical})")
