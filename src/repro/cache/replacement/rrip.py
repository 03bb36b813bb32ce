"""Re-Reference Interval Prediction policies: SRRIP, BRRIP and DRRIP.

RRIP (Jaleel et al., ISCA 2010) associates an M-bit re-reference prediction
value (RRPV) with each line.  Lines predicted to be re-referenced soon have
low RRPV; victims are chosen among lines with the maximum RRPV, aging all
lines when none is at the maximum.

* **SRRIP** (static): misses insert with a *long* re-reference prediction
  (RRPV = max - 1); hits promote to RRPV = 0 (hit priority).
* **BRRIP** (bimodal): misses insert at RRPV = max most of the time and at
  max - 1 with a small probability epsilon — the RRIP analogue of BIP, which
  resists thrashing.
* **DRRIP** (dynamic): set-duels SRRIP against BRRIP with a PSEL counter and
  uses the winner in follower sets.

The paper evaluates SRRIP and DRRIP with M = 2 bits and epsilon = 1/32,
which are the defaults here.  Bimodal insertions draw from a
:class:`~repro.cache.hashing.SplitMix64` stream and leader sets follow
:func:`leader_roles` — the native kernels' stream and wiring — so the
object policies replay them bit for bit.
"""

from __future__ import annotations

from collections import OrderedDict
from enum import Enum
from functools import partial
from typing import Iterable, Sequence

from ..hashing import SplitMix64
from .base import EvictionPolicy, PolicyFactory

__all__ = [
    "SRRIPPolicy",
    "BRRIPPolicy",
    "DRRIPPolicy",
    "DuelingController",
    "DuelRole",
    "drrip_factory",
    "leader_roles",
    "rewire_leaders",
]


class _RRIPBase(EvictionPolicy):
    """Shared machinery for the RRIP family: RRPV buckets and aging."""

    def __init__(self, capacity: int, m_bits: int = 2):
        super().__init__(capacity)
        if m_bits < 1 or m_bits > 8:
            raise ValueError("m_bits must be in [1, 8]")
        self.m_bits = m_bits
        self.max_rrpv = (1 << m_bits) - 1
        # One ordered bucket per RRPV value; within a bucket, insertion order
        # breaks ties (oldest first).
        self._buckets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.max_rrpv + 1)]
        self._where: dict[int, int] = {}  # tag -> current RRPV

    # -- bookkeeping ---------------------------------------------------- #
    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, tag: int) -> bool:
        return tag in self._where

    def resident(self) -> Iterable[int]:
        return list(self._where.keys())

    def _remove(self, tag: int) -> None:
        rrpv = self._where.pop(tag)
        del self._buckets[rrpv][tag]

    def _place(self, tag: int, rrpv: int) -> None:
        self._where[tag] = rrpv
        self._buckets[rrpv][tag] = None

    def _age_until_victim_available(self) -> None:
        """Increment all RRPVs (saturating) until some line has max RRPV."""
        while not self._buckets[self.max_rrpv]:
            # Shift every bucket up by one, saturating at max.
            top = self._buckets[self.max_rrpv]
            for rrpv in range(self.max_rrpv - 1, -1, -1):
                bucket = self._buckets[rrpv]
                if not bucket:
                    continue
                for tag in bucket:
                    self._where[tag] = rrpv + 1
                if rrpv + 1 == self.max_rrpv:
                    top.update(bucket)
                    bucket.clear()
                else:
                    self._buckets[rrpv + 1] = bucket
                    self._buckets[rrpv] = OrderedDict()
            if not self._where:
                break

    def evict_one(self) -> int | None:
        if not self._where:
            return None
        self._age_until_victim_available()
        bucket = self._buckets[self.max_rrpv]
        tag, _ = bucket.popitem(last=False)
        del self._where[tag]
        return tag

    # -- policy behaviour ----------------------------------------------- #
    def _insertion_rrpv(self, tag: int) -> int:
        raise NotImplementedError

    def _on_miss(self, tag: int) -> None:
        """Hook for adaptive subclasses (dueling)."""

    def access(self, tag: int) -> bool:
        if tag in self._where:
            # Hit priority: promote to RRPV 0.
            if self._where[tag] != 0:
                self._remove(tag)
                self._place(tag, 0)
            else:
                self._buckets[0].move_to_end(tag)
            return True
        self._on_miss(tag)
        if self.capacity == 0:
            return False
        if len(self._where) >= self.capacity:
            self.evict_one()
        self._place(tag, min(self._insertion_rrpv(tag), self.max_rrpv))
        return False


class SRRIPPolicy(_RRIPBase):
    """Static RRIP: insert with long re-reference prediction (max - 1)."""

    name = "SRRIP"

    def _insertion_rrpv(self, tag: int) -> int:
        return self.max_rrpv - 1


class BRRIPPolicy(_RRIPBase):
    """Bimodal RRIP: insert at max RRPV, occasionally (epsilon) at max - 1."""

    name = "BRRIP"

    def __init__(self, capacity: int, m_bits: int = 2,
                 epsilon: float = 1.0 / 32.0, seed: int = 0,
                 rng: SplitMix64 | None = None):
        super().__init__(capacity, m_bits)
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.epsilon = epsilon
        self._rng = rng if rng is not None else SplitMix64(seed)

    def _insertion_rrpv(self, tag: int) -> int:
        if self._rng.uniform() < self.epsilon:
            return self.max_rrpv - 1
        return self.max_rrpv


class DuelRole(Enum):
    """Role a region plays in DRRIP set dueling."""

    LEADER_SRRIP = "leader_srrip"
    LEADER_BRRIP = "leader_brrip"
    FOLLOWER = "follower"
    #: Standalone mode (single fully-associative region): a small hashed
    #: fraction of addresses act as SRRIP/BRRIP "constituencies" instead of
    #: dedicating whole sets, which preserves dueling behaviour when there
    #: are no sets to dedicate.
    ADDRESS_DUEL = "address_duel"


class DuelingController:
    """Shared PSEL counter for set dueling (DIP/DRRIP style).

    Misses in SRRIP-leader regions increment PSEL, misses in BRRIP-leader
    regions decrement it; follower regions use BRRIP when PSEL is below the
    midpoint (i.e. SRRIP has been missing more).
    """

    def __init__(self, bits: int = 10):
        if bits < 2 or bits > 20:
            raise ValueError("bits must be in [2, 20]")
        self.max_value = (1 << bits) - 1
        self.psel = self.max_value // 2

    def record_leader_miss(self, role: DuelRole) -> None:
        if role == DuelRole.LEADER_SRRIP:
            self.psel = min(self.max_value, self.psel + 1)
        elif role == DuelRole.LEADER_BRRIP:
            self.psel = max(0, self.psel - 1)

    def prefer_bimodal(self) -> bool:
        """True when followers should use the bimodal (BRRIP/BIP) insertion."""
        return self.psel > self.max_value // 2


class DRRIPPolicy(_RRIPBase):
    """Dynamic RRIP: duels SRRIP against BRRIP insertion via a shared PSEL."""

    name = "DRRIP"

    def __init__(self, capacity: int, m_bits: int = 2,
                 epsilon: float = 1.0 / 32.0,
                 controller: DuelingController | None = None,
                 role: DuelRole = DuelRole.ADDRESS_DUEL,
                 seed: int = 0,
                 leader_fraction: float = 1.0 / 16.0,
                 rng: SplitMix64 | None = None):
        super().__init__(capacity, m_bits)
        self.epsilon = epsilon
        self.controller = controller if controller is not None else DuelingController()
        self.role = role
        self._rng = rng if rng is not None else SplitMix64(seed)
        # For ADDRESS_DUEL mode: addresses hashing below these thresholds are
        # SRRIP / BRRIP constituencies respectively.
        self._leader_levels = max(1, int(round(leader_fraction * 1024)))

    def _address_role(self, tag: int) -> DuelRole:
        bucket = (tag * 0x9E3779B97F4A7C15) % 1024
        if bucket < self._leader_levels:
            return DuelRole.LEADER_SRRIP
        if bucket < 2 * self._leader_levels:
            return DuelRole.LEADER_BRRIP
        return DuelRole.FOLLOWER

    def _effective_role(self, tag: int) -> DuelRole:
        if self.role == DuelRole.ADDRESS_DUEL:
            return self._address_role(tag)
        return self.role

    def _on_miss(self, tag: int) -> None:
        self.controller.record_leader_miss(self._effective_role(tag))

    def _insertion_rrpv(self, tag: int) -> int:
        role = self._effective_role(tag)
        if role == DuelRole.LEADER_SRRIP:
            bimodal = False
        elif role == DuelRole.LEADER_BRRIP:
            bimodal = True
        else:
            bimodal = self.controller.prefer_bimodal()
        if not bimodal:
            return self.max_rrpv - 1
        if self._rng.uniform() < self.epsilon:
            return self.max_rrpv - 1
        return self.max_rrpv


#: Leader regions per dueling policy in one region-cache (fewer when it has
#: under 128 regions); the native kernels read the same wiring.
LEADER_REGIONS_PER_POLICY = 32


def _leader_stride(num_regions: int) -> int:
    leaders = min(LEADER_REGIONS_PER_POLICY, max(1, num_regions // 4))
    return max(1, num_regions // (2 * leaders))


def _role_at(index: int, stride: int) -> DuelRole:
    if index % stride:
        return DuelRole.FOLLOWER
    return (DuelRole.LEADER_SRRIP if (index // stride) % 2 == 0
            else DuelRole.LEADER_BRRIP)


def leader_roles(num_regions: int) -> list[DuelRole]:
    """Set-dueling roles of ``num_regions`` regions sharing one PSEL.

    Up to :data:`LEADER_REGIONS_PER_POLICY` leaders per policy, spread
    evenly across the index space and alternating SRRIP/BRRIP (LRU/BIP for
    DIP); every other region follows.  The native kernels read the same
    wiring, so one function serves both backends.
    """
    stride = _leader_stride(num_regions)
    return [_role_at(i, stride) for i in range(num_regions)]


def rewire_leaders(regions: Sequence[EvictionPolicy]) -> None:
    """Re-derive the leader wiring of a region list after it was resized.

    Set-dueling regions (any policy with a set role) take the roles
    :func:`leader_roles` gives the new region count; address-dueling
    regions and other policies are left alone.
    """
    for region, role in zip(regions, leader_roles(len(regions))):
        if getattr(region, "role", DuelRole.ADDRESS_DUEL) \
                != DuelRole.ADDRESS_DUEL:
            region.role = role


def _dueling_region(policy_class, stride: int, shared: dict,
                    region_index: int, capacity: int):
    return policy_class(capacity, role=_role_at(region_index, stride),
                        **shared)


def _dueling_factory(policy_class, num_regions: int, seed: int = 0,
                     rng: SplitMix64 | None = None,
                     **kwargs) -> PolicyFactory:
    """A set-dueling :data:`PolicyFactory` for ``policy_class``.

    All regions share one PSEL counter and one random stream (seeded
    ``seed`` unless ``rng`` is given), with the leaders of
    :func:`leader_roles`; ``kwargs`` go to every region's constructor.
    """
    if num_regions <= 0:
        raise ValueError("num_regions must be positive")
    shared = dict(kwargs, controller=DuelingController(),
                  rng=rng if rng is not None else SplitMix64(seed))
    return partial(_dueling_region, policy_class,
                   _leader_stride(num_regions), shared)


def drrip_factory(num_regions: int, m_bits: int = 2,
                  epsilon: float = 1.0 / 32.0,
                  seed: int = 0,
                  rng: SplitMix64 | None = None) -> PolicyFactory:
    """Build a :data:`PolicyFactory` creating DRRIP regions with set dueling.

    The regions of :func:`leader_roles` are dedicated to SRRIP and BRRIP;
    the rest follow the shared PSEL.  Use this when building a
    set-associative DRRIP cache.
    """
    return _dueling_factory(DRRIPPolicy, num_regions, seed=seed, rng=rng,
                            m_bits=m_bits, epsilon=epsilon)
