"""DIP: Dynamic Insertion Policy (Qureshi et al., ISCA 2007).

DIP set-duels plain LRU against BIP (bimodal LRU-insertion with
epsilon = 1/32) and uses the winner for follower sets.  It is the classic
thrash-resistant enhancement of LRU the paper discusses in Sec. II-A.

The implementation reuses the same :class:`DuelingController`, leader
wiring and random stream as DRRIP (the PSEL mechanism is identical; only
the two competing insertion policies differ).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

from ..hashing import SplitMix64
from .base import EvictionPolicy, PolicyFactory
from .rrip import DuelRole, DuelingController, _dueling_factory

__all__ = ["DIPPolicy", "dip_factory"]


class DIPPolicy(EvictionPolicy):
    """LRU with dueled insertion: MRU insertion (LRU mode) vs BIP insertion."""

    name = "DIP"

    def __init__(self, capacity: int,
                 epsilon: float = 1.0 / 32.0,
                 controller: DuelingController | None = None,
                 role: DuelRole = DuelRole.ADDRESS_DUEL,
                 seed: int = 0,
                 leader_fraction: float = 1.0 / 16.0,
                 rng: SplitMix64 | None = None):
        super().__init__(capacity)
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.epsilon = epsilon
        self.controller = controller if controller is not None else DuelingController()
        self.role = role
        self._rng = rng if rng is not None else SplitMix64(seed)
        self._lines: OrderedDict[int, None] = OrderedDict()
        self._leader_levels = max(1, int(round(leader_fraction * 1024)))

    # -- dueling --------------------------------------------------------- #
    def _address_role(self, tag: int) -> DuelRole:
        bucket = (tag * 0x9E3779B97F4A7C15) % 1024
        if bucket < self._leader_levels:
            return DuelRole.LEADER_SRRIP  # "policy A" constituency: plain LRU
        if bucket < 2 * self._leader_levels:
            return DuelRole.LEADER_BRRIP  # "policy B" constituency: BIP
        return DuelRole.FOLLOWER

    def _effective_role(self, tag: int) -> DuelRole:
        if self.role == DuelRole.ADDRESS_DUEL:
            return self._address_role(tag)
        return self.role

    def _use_bip(self, role: DuelRole) -> bool:
        if role == DuelRole.LEADER_SRRIP:
            return False
        if role == DuelRole.LEADER_BRRIP:
            return True
        return self.controller.prefer_bimodal()

    # -- policy ----------------------------------------------------------- #
    def access(self, tag: int) -> bool:
        lines = self._lines
        if tag in lines:
            lines.move_to_end(tag)
            return True
        role = self._effective_role(tag)
        self.controller.record_leader_miss(role)
        if self.capacity == 0:
            return False
        if len(lines) >= self.capacity:
            lines.popitem(last=False)
        lines[tag] = None
        if self._use_bip(role) and self._rng.uniform() >= self.epsilon:
            lines.move_to_end(tag, last=False)  # LRU-position insertion
        return False

    def resident(self) -> Iterable[int]:
        return self._lines.keys()

    def evict_one(self) -> int | None:
        if not self._lines:
            return None
        tag, _ = self._lines.popitem(last=False)
        return tag

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, tag: int) -> bool:
        return tag in self._lines


def dip_factory(num_regions: int, epsilon: float = 1.0 / 32.0,
                seed: int = 0,
                rng: SplitMix64 | None = None) -> PolicyFactory:
    """Build a factory creating DIP regions with proper set dueling."""
    return _dueling_factory(DIPPolicy, num_regions, seed=seed, rng=rng,
                            epsilon=epsilon)
