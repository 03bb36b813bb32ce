"""Declarative construction specs for every cache organization.

The construction APIs grew organically: per-class constructors for plain
caches, ``make_partitioned_cache(scheme, ...)`` plus per-scheme
constructors for partitioned caches, and ``TalusCache(base, num_logical)``
for the Talus wrapper — each with its own ad-hoc argument bundle.  This
module describes them all with three frozen-dataclass *specs* and one
entry point:

* :class:`CacheSpec` — geometry + policy + indexing + backend of a plain
  set-associative cache;
* :class:`PartitionSpec` — a partitioning scheme over such a cache, with
  per-partition capacity targets;
* :class:`TalusSpec` — the Talus wrapper: a shadow-partition pair per
  logical partition plus the planned :class:`~repro.core.talus.TalusConfig`
  for each.

``build(spec)`` turns any of them into a simulatable cache, routing to the
object model or the array/native fast path according to the spec's
``backend`` field.  The two replay every online policy bit for bit alike
(Belady on miss counts), so "auto" picks the fast path whenever the native
kernel is available and the object model otherwise.  The object model is
built with the kernel's region layout: one random stream, PSEL counter and
leader wiring per plain cache, per way/set/ideal partition, and per
Vantage cache.  Existing classes round-trip through
``to_spec()``/``from_spec()``: ``build(cache.to_spec())`` reproduces the
organization as currently configured, and ``build(spec).to_spec()`` is a
fixed point.

Because specs are frozen dataclasses of plain values they are hashable,
comparable and picklable: every sweep point is a spec
(:class:`~repro.sim.sweep.SweepConfig`), so it can ship to supervised
workers, drive a sampled estimate, and bank under its content key.

The class constructors stay public, and ``make_partitioned_cache``
remains the object-backend factory that :meth:`PartitionSpec.build`
itself uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Mapping

from ..core.talus import TalusConfig
from .arraycache import ArrayBeladyCache, ArraySetAssociativeCache
from .cache import (SetAssociativeCache, materialize_addresses,
                    policy_factory_from_class)
from .factory import (BACKENDS, POLICY_NAMES, SEEDED_POLICIES, cache_geometry,
                      named_policy_factory, resolve_backend)
from .hashing import SplitMix64
from .partition import (ARRAY_SCHEMES, SCHEME_REGISTRY, ArrayPartitionedCache,
                        ArrayVantageCache, make_partitioned_cache,
                        partitionable_lines_for)
from .replacement.belady import BeladyMINPolicy
from .replacement.tadrrip import TADRRIPPolicy
from .talus_cache import TalusCache

__all__ = ["CacheSpec", "PartitionSpec", "TalusSpec", "build"]


def _freeze_kwargs(kwargs) -> tuple:
    """Normalize keyword arguments to a sorted, hashable tuple of pairs."""
    if not kwargs:
        return ()
    if isinstance(kwargs, Mapping):
        items = kwargs.items()
    else:
        items = [tuple(pair) for pair in kwargs]
    return tuple(sorted((str(k), v) for k, v in items))


def _check_policy(policy: str) -> None:
    if policy not in POLICY_NAMES:
        raise ValueError(f"unknown policy {policy!r}; valid policies: "
                         f"{', '.join(POLICY_NAMES)}")


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; valid backends: "
                         f"{', '.join(BACKENDS)}")


def _min_region(trace, region_index: int, capacity: int) -> BeladyMINPolicy:
    return BeladyMINPolicy(capacity, trace)


def _named_partition_factory(policy: str, kwargs: dict, partition: int,
                             num_regions: int):
    return named_policy_factory(policy, num_regions, **kwargs)


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEME_REGISTRY:
        raise ValueError(f"unknown partitioning scheme {scheme!r}; valid "
                         f"schemes: {', '.join(sorted(SCHEME_REGISTRY))}")


@dataclass(frozen=True)
class CacheSpec:
    """Declarative description of one set-associative cache.

    Attributes
    ----------
    capacity_lines:
        Total capacity in lines; the set count is derived with
        :func:`repro.cache.factory.cache_geometry`.
    ways:
        Associativity (capacities below one set degenerate to a single
        ``capacity_lines``-way set).
    policy:
        One of :data:`repro.cache.factory.POLICY_NAMES`.  ``"Belady"``
        (offline MIN) builds a fully associative cache — an
        :class:`ArrayBeladyCache`, or one set whose region is a
        :class:`~repro.cache.replacement.belady.BeladyMINPolicy` — and
        needs the trace attached via :meth:`with_trace` before
        :meth:`build`.
    backend:
        "object", "array" or "auto" ("auto" resolves to the array/native
        core when the kernel is available and to the object model
        otherwise; both replay every policy alike).
    seed:
        Deterministic seed for the randomized policies (default 0);
        ignored otherwise.
    hashed_index, index_seed:
        Set-index scheme, honoured identically by both backends.
    policy_kwargs:
        Extra policy parameters as ``(name, value)`` pairs (a mapping is
        accepted and frozen).
    trace:
        Optional attached trace for offline policies, set through
        :meth:`with_trace`.  Excluded from equality/hashing: two Belady
        specs compare by configuration, not by replay payload.
    """

    capacity_lines: int
    ways: int = 16
    policy: str = "LRU"
    backend: str = "auto"
    seed: int | None = None
    hashed_index: bool = False
    index_seed: int = 0
    policy_kwargs: tuple = ()
    trace: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "policy_kwargs",
                           _freeze_kwargs(self.policy_kwargs))
        if self.capacity_lines <= 0:
            raise ValueError("capacity_lines must be positive")
        if self.ways <= 0:
            raise ValueError("ways must be positive")
        _check_policy(self.policy)
        _check_backend(self.backend)

    def with_trace(self, trace) -> "CacheSpec":
        """This spec with ``trace`` attached (materialized to int64).

        Offline policies (Belady) replay exactly this trace; online
        policies ignore the attachment.
        """
        return replace(self, trace=materialize_addresses(trace))

    @classmethod
    def from_mb(cls, size_mb: float, **kwargs) -> "CacheSpec":
        """A spec for a capacity in paper MB (the experiment-layer unit)."""
        from ..workloads.scale import paper_mb_to_lines
        return cls(capacity_lines=paper_mb_to_lines(size_mb), **kwargs)

    @property
    def geometry(self) -> tuple[int, int]:
        """Derived ``(num_sets, effective_ways)``."""
        return cache_geometry(self.capacity_lines, self.ways)

    def resolved_backend(self) -> str:
        """The concrete backend ("object" or "array") this spec builds on."""
        return resolve_backend(self.backend, self.policy)

    def build(self):
        """Instantiate the cache this spec describes."""
        backend = self.resolved_backend()
        kwargs = dict(self.policy_kwargs)
        if self.policy == "Belady":
            if self.trace is None:
                raise ValueError(
                    "CacheSpec(policy='Belady') is offline and needs its "
                    "trace attached before build: call "
                    "spec.with_trace(trace).  Online policies (no trace "
                    "required): " + ", ".join(
                        n for n in POLICY_NAMES if n != "Belady"))
            if backend == "array":
                cache = ArrayBeladyCache(self.capacity_lines, self.trace,
                                         **kwargs)
            else:
                cache = SetAssociativeCache(
                    1, self.capacity_lines, partial(_min_region, self.trace))
            cache._built_spec = replace(self, backend=backend)
            return cache
        num_sets, eff_ways = self.geometry
        if self.seed is not None and self.policy in SEEDED_POLICIES:
            kwargs.setdefault("seed", self.seed)
        if backend == "array":
            cache = ArraySetAssociativeCache(
                num_sets, eff_ways, policy=self.policy,
                hashed_index=self.hashed_index, index_seed=self.index_seed,
                **kwargs)
        else:
            factory = named_policy_factory(self.policy, num_sets, **kwargs)
            cache = SetAssociativeCache(num_sets, eff_ways, factory,
                                        index_seed=self.index_seed,
                                        hashed_index=self.hashed_index)
        cache._built_spec = replace(self, backend=backend)
        return cache


@dataclass(frozen=True)
class PartitionSpec:
    """Declarative description of a partitioned cache.

    Attributes
    ----------
    scheme:
        One of the :data:`~repro.cache.partition.SCHEME_REGISTRY` names
        ("ideal", "way", "set", "vantage", "futility").
    capacity_lines, num_partitions, ways:
        Total capacity, partition count and (way/set schemes) associativity.
    policy:
        Replacement policy inside every partition (any online policy;
        Belady is offline and has no partitioned organization).
    backend:
        "object", "array" or "auto".  The array fast path covers every
        scheme × policy combination except futility scaling (whose
        feedback-controlled insertion probabilities have no array
        counterpart), and replays it bit for bit like the object model,
        so "auto" resolves to "array" whenever the native kernel is
        available.  Futility scaling, and everything without the kernel,
        runs on the object model.
    hashed_index, index_seed:
        Set-index scheme of the way/set organizations.
    targets:
        Optional per-partition capacity targets in lines, applied through
        ``set_allocations`` at build time (the scheme's usual rounding
        applies).
    policy_kwargs, scheme_kwargs:
        Extra policy/scheme parameters as ``(name, value)`` pairs.
    """

    scheme: str
    capacity_lines: int
    num_partitions: int
    policy: str = "LRU"
    ways: int = 16
    backend: str = "auto"
    hashed_index: bool = False
    index_seed: int = 0
    targets: tuple[float, ...] | None = None
    policy_kwargs: tuple = ()
    scheme_kwargs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "scheme", self.scheme.lower())
        object.__setattr__(self, "policy_kwargs",
                           _freeze_kwargs(self.policy_kwargs))
        object.__setattr__(self, "scheme_kwargs",
                           _freeze_kwargs(self.scheme_kwargs))
        _check_scheme(self.scheme)
        _check_policy(self.policy)
        if self.policy == "Belady":
            raise ValueError(
                "Belady is offline and replays one attached trace; it has "
                "no partitioned organization — supported partition "
                "policies: " + ", ".join(
                    n for n in POLICY_NAMES if n != "Belady"))
        _check_backend(self.backend)
        if self.capacity_lines <= 0:
            raise ValueError("capacity_lines must be positive")
        if self.num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if self.ways <= 0:
            raise ValueError("ways must be positive")
        if self.hashed_index and self.scheme not in ("way", "set"):
            raise ValueError(
                f"{self.scheme} partitioning has no set indexing; "
                f"hashed_index does not apply")
        if self.targets is not None:
            targets = tuple(float(t) for t in self.targets)
            if len(targets) != self.num_partitions:
                raise ValueError(
                    f"expected {self.num_partitions} targets, "
                    f"got {len(targets)}")
            object.__setattr__(self, "targets", targets)

    @property
    def partitionable_lines(self) -> int:
        """Lines the scheme can divide among partitions (pre-build)."""
        return partitionable_lines_for(self.scheme, self.capacity_lines,
                                       self.num_partitions, self.ways,
                                       dict(self.scheme_kwargs))

    def resolved_backend(self) -> str:
        """The concrete backend ("object" or "array") this spec builds on.

        "auto" resolves to "array" for every scheme the array backend
        implements (all but futility scaling) when the native kernel is
        available, and to "object" otherwise.
        """
        if self.backend == "object":
            return "object"
        if self.scheme not in ARRAY_SCHEMES:
            if self.backend == "array":
                raise ValueError(
                    f"the array backend does not implement partitioning "
                    f"scheme {self.scheme!r} (supported: {ARRAY_SCHEMES}); "
                    f"use backend='object'")
            return "object"
        return resolve_backend(self.backend, self.policy)

    def _object_factory_kwargs(self, policy_kwargs: dict) -> dict:
        """The object scheme's policy-factory keyword, laid out like the
        kernel.

        Way, set and ideal partitions are independent kernel regions, each
        with its own random stream, PSEL counter and leader wiring over
        its own sets, so the scheme gets a ``partition_factory`` building
        one factory per partition.  Vantage (and futility scaling) is one
        region-cache whose partitions share one factory — except that
        TA-DRRIP gives each Vantage partition its own PSEL vector, as
        ``vantage_run`` does.
        """
        if self.scheme in ("way", "set", "ideal"):
            return {"partition_factory": partial(
                _named_partition_factory, self.policy, policy_kwargs)}
        if self.scheme == "vantage" and self.policy == "TA-DRRIP":
            kwargs = dict(policy_kwargs)
            kwargs["rng"] = SplitMix64(kwargs.pop("seed", 0))
            return {"policy_factory": policy_factory_from_class(
                TADRRIPPolicy, **kwargs)}
        return {"policy_factory": named_policy_factory(
            self.policy, self.num_partitions, **policy_kwargs)}

    def build(self):
        """Instantiate the partitioned cache this spec describes."""
        backend = self.resolved_backend()
        policy_kwargs = dict(self.policy_kwargs)
        scheme_kwargs = dict(self.scheme_kwargs)
        if backend == "array" and self.scheme == "vantage":
            cache = ArrayVantageCache(
                self.capacity_lines, self.num_partitions,
                policy=self.policy, **scheme_kwargs, **policy_kwargs)
        elif backend == "array":
            cache = ArrayPartitionedCache(
                self.scheme, self.capacity_lines, self.num_partitions,
                policy=self.policy, ways=self.ways,
                hashed_index=self.hashed_index, index_seed=self.index_seed,
                **scheme_kwargs, **policy_kwargs)
        else:
            scheme_kwargs.update(self._object_factory_kwargs(policy_kwargs))
            if self.scheme in ("way", "set"):
                scheme_kwargs.setdefault("hashed_index", self.hashed_index)
                scheme_kwargs.setdefault("index_seed", self.index_seed)
            cache = make_partitioned_cache(
                self.scheme, self.capacity_lines, self.num_partitions,
                ways=self.ways, **scheme_kwargs)
        if self.targets is not None:
            cache.set_allocations(list(self.targets))
        return cache


@dataclass(frozen=True)
class TalusSpec:
    """Declarative description of a Talus cache (shadow pairs + sampling).

    Attributes
    ----------
    partition:
        The underlying partitioned cache, with ``2 * num_logical``
        hardware partitions (one alpha/beta shadow pair per logical
        partition).
    num_logical:
        Number of software-visible partitions.
    sampler_bits, sampler_seed:
        Width and seed of the per-pair H3 sampling functions.
    configs:
        Optional planned :class:`~repro.core.talus.TalusConfig` per logical
        partition (in *lines*), programmed at build time; ``None`` entries
        leave that pair unconfigured.
    """

    partition: PartitionSpec
    num_logical: int = 1
    sampler_bits: int = 8
    sampler_seed: int = 7
    configs: tuple[TalusConfig | None, ...] = ()

    def __post_init__(self):
        if not isinstance(self.partition, PartitionSpec):
            raise TypeError("partition must be a PartitionSpec")
        if self.num_logical <= 0:
            raise ValueError("num_logical must be positive")
        if self.partition.num_partitions != 2 * self.num_logical:
            raise ValueError(
                f"the partition spec must have {2 * self.num_logical} "
                f"partitions (2 per logical partition), got "
                f"{self.partition.num_partitions}")
        configs = tuple(self.configs)
        if configs and len(configs) != self.num_logical:
            raise ValueError(
                f"expected {self.num_logical} configs (or none), "
                f"got {len(configs)}")
        for config in configs:
            if config is not None and not isinstance(config, TalusConfig):
                raise TypeError("configs entries must be TalusConfig or None")
        object.__setattr__(self, "configs", configs)

    def resolved_backend(self) -> str:
        """Backend of the underlying partitioned cache."""
        return self.partition.resolved_backend()

    def build(self) -> TalusCache:
        """Instantiate the Talus cache and program the planned configs."""
        base = self.partition.build()
        talus = TalusCache(base, num_logical=self.num_logical,
                           sampler_bits=self.sampler_bits,
                           seed=self.sampler_seed)
        for logical, config in enumerate(self.configs):
            if config is not None:
                talus.configure(logical, config)
        return talus


def build(spec):
    """Build any spec — the single declarative construction entry point."""
    if isinstance(spec, (CacheSpec, PartitionSpec, TalusSpec)):
        return spec.build()
    raise TypeError(f"build() expects a CacheSpec, PartitionSpec or "
                    f"TalusSpec, got {type(spec).__name__}")
