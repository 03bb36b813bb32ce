"""TA-DRRIP: Thread-Aware DRRIP for shared caches (Jaleel et al., PACT 2008).

TA-DRRIP extends DRRIP's set dueling to be per-thread: each thread has its
own PSEL counter and duels SRRIP against BRRIP *for its own insertions*,
using TA-DIP-style feedback.  The paper uses TA-DRRIP as the
hardware-managed (unpartitioned) baseline in the multi-programmed
experiments (Figs. 12 and 13).

This policy is used by ``repro.sim.multicore`` for shared-cache runs where
each access carries a stream (core) identifier.  All regions of a cache
share one per-stream PSEL vector (``controllers``) and one
:class:`~repro.cache.hashing.SplitMix64` stream, as the native kernel's
region does.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..hashing import SplitMix64
from .base import EvictionPolicy
from .rrip import DuelRole, DuelingController, _RRIPBase

__all__ = ["TADRRIPPolicy"]


class TADRRIPPolicy(_RRIPBase):
    """Thread-aware DRRIP over a single shared region.

    Use :meth:`stream_access` so insertions are attributed to the right
    thread.  Plain :meth:`access` treats everything as stream 0 so the policy
    still satisfies the :class:`EvictionPolicy` interface.
    """

    name = "TA-DRRIP"

    def __init__(self, capacity: int, num_streams: int = 8,
                 m_bits: int = 2, epsilon: float = 1.0 / 32.0,
                 seed: int = 0, leader_fraction: float = 1.0 / 32.0,
                 rng: SplitMix64 | None = None,
                 controllers: Sequence[DuelingController] | None = None):
        super().__init__(capacity, m_bits)
        if controllers is None:
            controllers = [DuelingController() for _ in range(num_streams)]
        if len(controllers) < 1:
            raise ValueError("num_streams must be >= 1")
        self.epsilon = epsilon
        self.num_streams = len(controllers)
        self._controllers = controllers
        self._rng = rng if rng is not None else SplitMix64(seed)
        self._leader_levels = max(1, int(round(leader_fraction * 1024)))

    def _address_role(self, tag: int) -> DuelRole:
        bucket = (tag * 0x9E3779B97F4A7C15) % 1024
        if bucket < self._leader_levels:
            return DuelRole.LEADER_SRRIP
        if bucket < 2 * self._leader_levels:
            return DuelRole.LEADER_BRRIP
        return DuelRole.FOLLOWER

    def stream_access(self, tag: int, stream: int) -> bool:
        """Handle an access from core ``stream``; returns True on a hit."""
        if not 0 <= stream < self.num_streams:
            raise ValueError(f"stream must be in [0, {self.num_streams}), got {stream}")
        if tag in self._where:
            if self._where[tag] != 0:
                self._remove(tag)
                self._place(tag, 0)
            else:
                self._buckets[0].move_to_end(tag)
            return True
        role = self._address_role(tag)
        controller = self._controllers[stream]
        controller.record_leader_miss(role)
        if self.capacity == 0:
            return False
        if len(self._where) >= self.capacity:
            self.evict_one()
        self._place(tag, self._insertion_rrpv_for(role, controller))
        return False

    def _insertion_rrpv_for(self, role: DuelRole,
                            controller: DuelingController) -> int:
        if role == DuelRole.LEADER_SRRIP:
            bimodal = False
        elif role == DuelRole.LEADER_BRRIP:
            bimodal = True
        else:
            bimodal = controller.prefer_bimodal()
        if not bimodal:
            return self.max_rrpv - 1
        if self._rng.uniform() < self.epsilon:
            return self.max_rrpv - 1
        return self.max_rrpv

    # EvictionPolicy interface: single-stream fallback.
    def _insertion_rrpv(self, tag: int) -> int:
        return self._insertion_rrpv_for(self._address_role(tag), self._controllers[0])

    def _on_miss(self, tag: int) -> None:
        self._controllers[0].record_leader_miss(self._address_role(tag))

    def resident(self) -> Iterable[int]:
        return list(self._where.keys())
