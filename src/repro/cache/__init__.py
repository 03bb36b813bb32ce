"""Trace-driven cache simulation substrate.

Stands in for the paper's zsim memory hierarchy: set-associative caches,
the replacement policies the paper evaluates, the partitioning schemes Talus
runs on, and the Talus hardware wrapper itself (shadow partitions plus the
H3 sampling function).
"""

from .arraycache import ARRAY_POLICIES, ArraySetAssociativeCache
from .cache import (CacheStats, SetAssociativeCache, lru_factory,
                    policy_factory_from_class, simulate_trace)
from .factory import (BACKENDS, POLICY_NAMES, cache_geometry,
                      named_policy_factory, resolve_backend)
from .hashing import H3Hash, SamplingFunction, mix64, set_index
from .partition import (ARRAY_SCHEMES, ArrayPartitionedCache,
                        ArrayVantageCache, FutilityScalingCache,
                        IdealPartitionedCache, PartitionedCache,
                        SetPartitionedCache, VantagePartitionedCache,
                        WayPartitionedCache, make_partitioned_cache,
                        partitionable_lines_for)
from .replacement import (BIPPolicy, BRRIPPolicy, BeladyMINPolicy, DIPPolicy,
                          DRRIPPolicy, EvictionPolicy, LIPPolicy, LRUPolicy,
                          PDPPolicy, RandomPolicy, SRRIPPolicy, TADRRIPPolicy,
                          make_policy)
from .spec import CacheSpec, PartitionSpec, TalusSpec, build
from .talus_cache import ShadowPair, TalusCache

__all__ = [
    "CacheSpec",
    "PartitionSpec",
    "TalusSpec",
    "build",
    "CacheStats",
    "SetAssociativeCache",
    "ArraySetAssociativeCache",
    "ARRAY_POLICIES",
    "simulate_trace",
    "lru_factory",
    "policy_factory_from_class",
    "named_policy_factory",
    "POLICY_NAMES",
    "BACKENDS",
    "cache_geometry",
    "resolve_backend",
    "H3Hash",
    "SamplingFunction",
    "mix64",
    "set_index",
    "PartitionedCache",
    "IdealPartitionedCache",
    "WayPartitionedCache",
    "SetPartitionedCache",
    "VantagePartitionedCache",
    "FutilityScalingCache",
    "ArrayPartitionedCache",
    "ArrayVantageCache",
    "ARRAY_SCHEMES",
    "make_partitioned_cache",
    "partitionable_lines_for",
    "EvictionPolicy",
    "LRUPolicy",
    "LIPPolicy",
    "BIPPolicy",
    "RandomPolicy",
    "SRRIPPolicy",
    "BRRIPPolicy",
    "DRRIPPolicy",
    "TADRRIPPolicy",
    "DIPPolicy",
    "PDPPolicy",
    "BeladyMINPolicy",
    "make_policy",
    "TalusCache",
    "ShadowPair",
]
