"""Cache partitioning schemes (hardware enforcement of capacity allocations)."""

from .array import ARRAY_SCHEMES, ArrayPartitionedCache, ArrayVantageCache
from .base import PartitionedCache, shared_partitions
from .futility import FutilityScalingCache
from .ideal import IdealPartitionedCache
from .setpart import SetPartitionedCache
from .vantage import VantagePartitionedCache, vantage_managed_lines
from .way import WayPartitionedCache

__all__ = [
    "PartitionedCache",
    "IdealPartitionedCache",
    "WayPartitionedCache",
    "SetPartitionedCache",
    "VantagePartitionedCache",
    "FutilityScalingCache",
    "ArrayPartitionedCache",
    "ArrayVantageCache",
    "ARRAY_SCHEMES",
    "SCHEME_REGISTRY",
    "make_partitioned_cache",
    "partitionable_lines_for",
]

#: Registry of partitioning schemes by the short names used in the paper's
#: figures: V (Vantage), W (way), S (set), I (ideal), F (Futility Scaling).
SCHEME_REGISTRY = {
    "ideal": "I",
    "way": "W",
    "set": "S",
    "vantage": "V",
    "futility": "F",
}


def partitionable_lines_for(scheme: str, capacity_lines: int,
                            num_partitions: int, ways: int = 16,
                            scheme_kwargs: dict | None = None) -> int:
    """Partitionable capacity of a scheme configuration, without building it.

    Matches ``make_partitioned_cache(...).partitionable_lines`` exactly —
    including the way/set geometry truncation (capacity rounds down to
    whole sets) and Vantage's unmanaged region — so planners
    (:func:`repro.sim.engine.talus_sweep_configs`, the spec layer) can
    plan allocations from a declarative description alone.
    """
    scheme = scheme.lower()
    kwargs = scheme_kwargs or {}
    if scheme in ("ideal", "futility"):
        return capacity_lines
    if scheme == "vantage":
        return vantage_managed_lines(
            capacity_lines, kwargs.get("unmanaged_fraction", 0.10))
    if scheme == "way":
        return max(1, capacity_lines // ways) * ways
    if scheme == "set":
        return max(num_partitions, capacity_lines // ways) * ways
    raise ValueError(f"unknown partitioning scheme {scheme!r}; "
                     f"known: {sorted(SCHEME_REGISTRY)}")


def make_partitioned_cache(scheme: str, capacity_lines: int, num_partitions: int,
                           policy_factory=None, ways: int = 16,
                           **kwargs) -> PartitionedCache:
    """Construct an object-model partitioned cache by scheme name.

    This is the reference (object-backend) factory; the declarative
    entry point :func:`repro.cache.spec.build` routes
    :class:`~repro.cache.spec.PartitionSpec` objects here or to the
    array-backend :class:`ArrayPartitionedCache` fast path.

    Parameters
    ----------
    scheme:
        One of ``"ideal"``, ``"way"``, ``"set"``, ``"vantage"``,
        ``"futility"``.
    capacity_lines:
        Total capacity in lines.
    num_partitions:
        Number of partitions.
    policy_factory:
        Optional replacement-policy factory shared by every region
        (default LRU).
    ways:
        Associativity used by the way/set-partitioned organizations.
    kwargs:
        Passed to the scheme's constructor.  The way, set and ideal
        schemes take a ``partition_factory`` giving each partition its
        own policy factory in place of the shared ``policy_factory``.
    """
    from ..cache import lru_factory
    factory = policy_factory if policy_factory is not None else lru_factory
    scheme = scheme.lower()
    if scheme in ("ideal", "way", "set"):
        kwargs.setdefault("partition_factory", shared_partitions(factory))
    if scheme == "ideal":
        return IdealPartitionedCache(capacity_lines, num_partitions, **kwargs)
    if scheme == "vantage":
        return VantagePartitionedCache(capacity_lines, num_partitions, factory, **kwargs)
    if scheme == "futility":
        return FutilityScalingCache(capacity_lines, num_partitions, factory, **kwargs)
    if scheme == "way":
        num_sets = max(1, capacity_lines // ways)
        return WayPartitionedCache(num_sets, ways, num_partitions, **kwargs)
    if scheme == "set":
        num_sets = max(num_partitions, capacity_lines // ways)
        return SetPartitionedCache(num_sets, ways, num_partitions, **kwargs)
    raise ValueError(f"unknown partitioning scheme {scheme!r}; "
                     f"known: {sorted(SCHEME_REGISTRY)}")
