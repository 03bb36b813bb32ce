"""Wide fully-associative RRIP regions against the object model's buckets.

The RRIP kernels keep a region's state as per-line RRPVs and
bucket-entrant stamps.  On a fully-associative region (an ideal partition's
one set, a Vantage managed region) a call at least as long as the region
is wide replays through a per-call RRPV bucket index, and shorter calls
scan the region.  Either way, after every call the array state must
describe exactly the object model's ``_RRIPBase._buckets``: the resident
lines grouped by RRPV, each group ordered by stamp (ties by way index or
region-list position).  The other suites only compare array runs with
array runs, or miss counts with the object model.

Every drawn schedule mixes scalar ``access()`` calls with chunks shorter
and longer than the regions, and warm reallocations that empty partition
0 and then regrow it.  A second test replays one trace through both paths
from a state whose stamps all tie: every array the cache owns must come
out bit-identical.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.arraycache import ArraySetAssociativeCache
from repro.cache.partition.array import ArrayVantageCache
from repro.cache.spec import PartitionSpec

from .conftest import needs_kernel

POLICIES = ("SRRIP", "BRRIP", "DRRIP", "TA-DRRIP")
SCHEMES = ("ideal", "vantage")


def _object_buckets(cache, p: int) -> list[list[int]]:
    return [list(bucket) for bucket in cache._regions[p]._buckets]


def _ideal_buckets(cache, p: int, levels: int) -> list[list[int]]:
    """Array ideal partition ``p``: its one set's ways by (RRPV, stamp,
    way)."""
    buckets: list[list[int]] = [[] for _ in range(levels)]
    region = cache._regions[p]
    if region is None:
        return buckets
    tags, rrpv, stamp = region.tags[0], region.rrpv[0], region.stamp[0]
    for w in sorted(np.flatnonzero(tags != -1).tolist(),
                    key=lambda w: (int(stamp[w]), w)):
        buckets[int(rrpv[w])].append(int(tags[w]))
    return buckets


def _vantage_buckets(cache, p: int, levels: int) -> list[list[int]]:
    """Array Vantage region ``p``: its list's nodes by (RRPV, stamp, list
    position)."""
    buckets: list[list[int]] = [[] for _ in range(levels)]
    nodes = []
    m = int(cache._head[p])
    while m >= 0:
        nodes.append(m)
        m = int(cache._node_next[m])
    order = sorted(range(len(nodes)),
                   key=lambda k: (int(cache._node_stamp[nodes[k]]), k))
    for k in order:
        node = nodes[k]
        buckets[int(cache._node_aux[node])].append(
            int(cache._node_tag[node]))
    return buckets


@st.composite
def schedules(draw):
    policy = draw(st.sampled_from(POLICIES))
    scheme = draw(st.sampled_from(SCHEMES))
    parts = draw(st.integers(1, 3))
    capacity = draw(st.integers(8 * parts, 600))
    spread = int(capacity * draw(st.floats(0.5, 3.0)))
    steps = []
    for _ in range(draw(st.integers(3, 6))):
        kind = draw(st.sampled_from(("scalar", "short", "long")))
        if kind == "scalar":
            length = draw(st.integers(1, 12))
        elif kind == "short":
            length = max(1, int(capacity * draw(st.floats(0.05, 0.9))))
        else:
            length = int(capacity * draw(st.floats(1.0, 3.0)))
        shares = draw(st.lists(st.sampled_from((0.0, 0.2, 0.5, 1.0)),
                               min_size=parts, max_size=parts))
        steps.append((kind, length, shares))
    seed = draw(st.integers(0, 2 ** 16))
    return policy, scheme, parts, capacity, spread, steps, seed


def _reallocate(caches, shares) -> None:
    total = sum(shares)
    lines = caches[0].partitionable_lines
    sizes = ([float(int(lines * s / total)) for s in shares] if total
             else [0.0] * len(shares))
    for cache in caches:
        cache.set_allocations(sizes)


@needs_kernel
@settings(max_examples=60, deadline=None)
@given(schedules())
def test_wide_rrip_regions_match_object_buckets(schedule):
    policy, scheme, parts, capacity, spread, steps, seed = schedule
    kwargs = () if policy == "SRRIP" else (("seed", seed),)
    obj, arr = (PartitionSpec(scheme=scheme, capacity_lines=capacity,
                              num_partitions=parts, policy=policy,
                              backend=backend, policy_kwargs=kwargs).build()
                for backend in ("object", "array"))
    extract = _vantage_buckets if scheme == "vantage" else _ideal_buckets
    rng = np.random.default_rng(seed)
    for i, (kind, length, shares) in enumerate(steps):
        if i == 1:
            # Empty partition 0 ...
            _reallocate((obj, arr), [0.0] + [1.0] * (parts - 1))
        elif i == 2:
            # ... and regrow it.
            _reallocate((obj, arr), [1.0] * parts)
        elif i > 2:
            _reallocate((obj, arr), shares)
        addrs = rng.integers(0, spread, length).astype(np.int64)
        tags = rng.integers(0, parts, length).astype(np.int64)
        for a, p in zip(addrs.tolist(), tags.tolist()):
            obj.access(a, p)
        if kind == "scalar":
            for a, p in zip(addrs.tolist(), tags.tolist()):
                arr.access(a, p)
        else:
            arr.run_partitioned(addrs, tags)
        for p in range(parts):
            where = (i, kind, length, p)
            assert (arr.partition_stats[p].misses
                    == obj.partition_stats[p].misses), where
            expected = _object_buckets(obj, p)
            assert extract(arr, p, len(expected)) == expected, where


def _arrays(cache) -> dict:
    return {name: value for name, value in vars(cache).items()
            if isinstance(value, np.ndarray)}


@needs_kernel
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("scheme", ("one-set", "vantage"))
def test_index_and_scan_leave_identical_state(policy, scheme):
    """Warm a fully-associative cache, make every resident line's stamp
    equal (only the way index or list position then orders a bucket),
    and replay the same trace as one chunk (the index) and as scalar
    accesses (the scan)."""
    rng = np.random.default_rng(7)
    if scheme == "one-set":
        cache = ArraySetAssociativeCache(1, 96, policy=policy, seed=3)
        cache.run(rng.integers(0, 200, 400))
        cache.stamp[cache.tags != -1] = 5
        stream = (rng.integers(0, 240, 600),)
    else:
        cache = ArrayVantageCache(240, 2, policy=policy, seed=3)
        cache.run_partitioned(rng.integers(0, 400, 800),
                              rng.integers(0, 2, 800))
        cache._node_stamp[:] = 5
        stream = (rng.integers(0, 400, 600), rng.integers(0, 2, 600))
    chunked, scalar = cache, copy.deepcopy(cache)
    if scheme == "one-set":
        chunked.run(stream[0])
        for a in stream[0].tolist():
            scalar.access(a)
        assert chunked.stats.misses == scalar.stats.misses
    else:
        chunked.run_partitioned(*stream)
        for a, p in zip(*(x.tolist() for x in stream)):
            scalar.access(a, p)
        assert ([s.misses for s in chunked.partition_stats]
                == [s.misses for s in scalar.partition_stats])
    ours, theirs = _arrays(chunked), _arrays(scalar)
    assert ours.keys() == theirs.keys()
    for name in ours:
        assert np.array_equal(ours[name], theirs[name]), name
