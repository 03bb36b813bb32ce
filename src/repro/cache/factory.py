"""Policy-factory construction by name, laid out like the native kernels.

A *region-cache* is what one native kernel region replays: a plain
set-associative cache, one partition of a way/set/ideal cache, or a whole
Vantage cache.  Its regions (sets, or the partitions of Vantage) share one
:class:`~repro.cache.hashing.SplitMix64` stream, one PSEL counter with the
leader wiring of :func:`~repro.cache.replacement.rrip.leader_roles` (DIP,
DRRIP) or one per-stream PSEL vector (TA-DRRIP).  Building the object
policies with that layout is what makes the object model replay the
kernel bit for bit; building dueling policies with one independent
instance per set would silently disable adaptation.  This module
centralizes the wiring so experiments can just ask for a policy by name.
"""

from __future__ import annotations

from functools import partial

from ._native import native_available, require_kernel
from .hashing import SplitMix64
from .replacement import (BIPPolicy, BRRIPPolicy, LIPPolicy, LRUPolicy,
                          PDPPolicy, RandomPolicy, SRRIPPolicy,
                          TADRRIPPolicy)
from .replacement.base import PolicyFactory
from .replacement.dip import dip_factory
from .replacement.rrip import DuelingController, drrip_factory

__all__ = ["named_policy_factory", "POLICY_NAMES", "BACKENDS",
           "SEEDED_POLICIES", "cache_geometry", "resolve_backend"]

#: Policy names accepted by the spec layer.  :func:`named_policy_factory`
#: covers the online ones; ``Belady`` is offline (it replays one attached
#: trace) and has no per-region factory.
POLICY_NAMES = ("LRU", "LIP", "BIP", "Random", "SRRIP", "BRRIP", "DRRIP",
                "DIP", "PDP", "TA-DRRIP", "Belady")

#: Cache backends accepted by the spec layer.  "object" is the
#: reference per-set policy-object model; "array" is the numpy state
#: replayed by the native kernel (:mod:`repro.cache.arraycache`).  The two
#: are bit-identical for every online policy, and Belady's miss counts
#: agree.  "auto" picks the array model when the kernel is available and
#: the object model otherwise.
BACKENDS = ("object", "array", "auto")

#: Policies whose constructors take a ``seed`` argument (their behaviour
#: involves randomized insertion/eviction decisions).
SEEDED_POLICIES = ("BIP", "Random", "BRRIP", "DRRIP", "DIP", "TA-DRRIP")

_UNIFORM = {
    "LRU": LRUPolicy,
    "LIP": LIPPolicy,
    "BIP": BIPPolicy,
    "Random": RandomPolicy,
    "SRRIP": SRRIPPolicy,
    "BRRIP": BRRIPPolicy,
    "PDP": PDPPolicy,
    "TA-DRRIP": TADRRIPPolicy,
}


def _uniform_region(policy_class, shared: dict, region_index: int,
                    capacity: int):
    return policy_class(capacity, **shared)


def named_policy_factory(name: str, num_regions: int, **kwargs) -> PolicyFactory:
    """Return the policy factory of one region-cache for ``name``.

    Parameters
    ----------
    name:
        One of :data:`POLICY_NAMES`.
    num_regions:
        Number of regions (sets) the cache will create.  Needed so dueling
        policies can designate leader sets and share their PSEL counter.
    kwargs:
        Extra keyword arguments forwarded to the policy constructor
        (e.g. ``epsilon`` for BIP/BRRIP).  ``seed`` (default 0) seeds the
        one stream all regions draw from; ``rng`` shares an existing one.
    """
    if num_regions <= 0:
        raise ValueError("num_regions must be positive")
    if name == "Belady":
        raise ValueError(
            "Belady is offline and replays one attached trace; it has no "
            "per-region policy factory — build it with "
            "CacheSpec(policy='Belady').with_trace(trace) or "
            "BeladyMINPolicy(capacity, trace).  Online policies: "
            + ", ".join(n for n in POLICY_NAMES if n != "Belady"))
    if name == "DRRIP":
        return drrip_factory(num_regions, **kwargs)
    if name == "DIP":
        return dip_factory(num_regions, **kwargs)
    if name not in _UNIFORM:
        raise ValueError(f"unknown policy {name!r}; known: {POLICY_NAMES}")
    if name in SEEDED_POLICIES and "rng" not in kwargs:
        kwargs["rng"] = SplitMix64(kwargs.pop("seed", 0))
    if name == "TA-DRRIP" and "controllers" not in kwargs:
        kwargs["controllers"] = [DuelingController() for _ in
                                 range(kwargs.pop("num_streams", 8))]
    return partial(_uniform_region, _UNIFORM[name], kwargs)


def cache_geometry(capacity_lines: int, ways: int) -> tuple[int, int]:
    """Geometry ``(num_sets, effective_ways)`` for a capacity in lines.

    The number of sets is ``capacity_lines // ways`` (at least 1); if the
    capacity is smaller than one full set the cache degenerates to a single
    set with ``capacity_lines`` ways, preserving total capacity.  This is
    the mapping every sweep and experiment driver uses, centralized so all
    backends agree on it.
    """
    if capacity_lines <= 0:
        raise ValueError("capacity_lines must be positive")
    if ways <= 0:
        raise ValueError("ways must be positive")
    if capacity_lines < ways:
        return 1, capacity_lines
    return capacity_lines // ways, ways


def resolve_backend(backend: str, policy: str) -> str:
    """Resolve a backend name to "object" or "array" for ``policy``.

    Both backends implement every policy and agree bit for bit (Belady on
    miss counts), so the choice is about speed only: "auto" resolves to
    "array" when the native kernel is available and to "object"
    otherwise.  An explicit "array" without the kernel raises.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; valid backends: "
                         f"{', '.join(BACKENDS)}")
    if policy not in POLICY_NAMES:
        raise ValueError(f"unknown policy {policy!r}; valid policies: "
                         f"{', '.join(POLICY_NAMES)}")
    if backend == "array":
        require_kernel()
    elif backend == "auto":
        return "array" if native_available() else "object"
    return backend
