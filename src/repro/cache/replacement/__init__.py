"""Replacement policies for the cache substrate.

All policies implement :class:`~repro.cache.replacement.base.EvictionPolicy`
over a fully-associative region, so the same implementations back
set-associative caches (one region per set), partitioned caches (one region
per partition) and Talus shadow partitions.
"""

from .base import EvictionPolicy, PolicyFactory
from .belady import BeladyMINPolicy, belady_miss_curve_points
from .dip import DIPPolicy, dip_factory
from .lru import BIPPolicy, LIPPolicy, LRUPolicy, RandomPolicy
from .pdp import PDPPolicy, select_protecting_distance
from .rrip import (BRRIPPolicy, DRRIPPolicy, DuelingController, DuelRole,
                   SRRIPPolicy, drrip_factory, leader_roles, rewire_leaders)
from .tadrrip import TADRRIPPolicy

__all__ = [
    "EvictionPolicy",
    "PolicyFactory",
    "LRUPolicy",
    "LIPPolicy",
    "BIPPolicy",
    "RandomPolicy",
    "SRRIPPolicy",
    "BRRIPPolicy",
    "DRRIPPolicy",
    "TADRRIPPolicy",
    "DuelingController",
    "DuelRole",
    "drrip_factory",
    "leader_roles",
    "rewire_leaders",
    "DIPPolicy",
    "dip_factory",
    "PDPPolicy",
    "select_protecting_distance",
    "BeladyMINPolicy",
    "belady_miss_curve_points",
    "POLICY_REGISTRY",
    "make_policy",
]

#: Registry of single-region policy constructors by canonical name.  Policies
#: that need extra arguments (e.g. Belady needs the trace) are not listed.
POLICY_REGISTRY = {
    "LRU": LRUPolicy,
    "LIP": LIPPolicy,
    "BIP": BIPPolicy,
    "Random": RandomPolicy,
    "SRRIP": SRRIPPolicy,
    "BRRIP": BRRIPPolicy,
    "DRRIP": DRRIPPolicy,
    "DIP": DIPPolicy,
    "PDP": PDPPolicy,
    "TA-DRRIP": TADRRIPPolicy,
}


def make_policy(name: str, capacity: int, **kwargs) -> EvictionPolicy:
    """Construct a policy by name (see :data:`POLICY_REGISTRY`)."""
    try:
        cls = POLICY_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; known: {sorted(POLICY_REGISTRY)}") from None
    return cls(capacity, **kwargs)
