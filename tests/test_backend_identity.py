"""The object model and the native kernel replay every online policy alike.

Each digest below was computed from the native kernel (the array
backend) before the object model's randomized policies moved onto the
kernel's splitmix64 streams and dueling wiring.  Both backends must
reproduce them bit for bit:

* per-partition ``(accesses, misses)`` after every chunk and the granted
  allocations after every warm reallocation, for every online policy on
  plain, way, set, ideal and Vantage caches.  The replay runs in chunks
  that mix scalar ``access()`` calls with batched replay, between six
  warm reallocations; one of them shrinks a partition to zero capacity
  and the next one regrows it;
* TA-DRRIP on a plain cache with a 4-thread lane (per-thread misses);
* the interval records of the executed TA-DRRIP shared-cache baseline.

The object way/set partitions duel over their own sets with one PSEL per
partition, as the kernel's regions do: a policy factory sized by the
partition count instead would make every set a leader.

A failure on the array side means a kernel output moved; a failure on the
object side means the reference model no longer equals the kernel.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cache._native import native_available
from repro.cache.replacement.rrip import DuelRole, leader_roles
from repro.cache.spec import CacheSpec, PartitionSpec
from repro.sim.multicore import TADRRIPSharedRun
from repro.workloads.spec_profiles import get_profile

ONLINE = ("LRU", "LIP", "BIP", "DIP", "SRRIP", "BRRIP", "DRRIP", "TA-DRRIP",
          "PDP", "Random")
SEEDED = ("BIP", "DIP", "BRRIP", "DRRIP", "TA-DRRIP", "Random")
SCHEMES = ("none", "way", "set", "ideal", "vantage")

CAPACITY = 512
PARTITIONS = 3
#: Chunk boundaries of the replay; a warm reallocation precedes every
#: chunk but the first.
EDGES = (0, 1_500, 3_700, 5_200, 7_900, 9_100, 11_400, 13_000)
#: Partition shares of the partitionable capacity, one per reallocation.
#: The third empties partition 0 and the fourth regrows it.
SHARES = ((0.5, 0.3, 0.2), (0.2, 0.2, 0.6), (0.0, 0.5, 0.5),
          (0.4, 0.4, 0.2), (0.7, 0.1, 0.2), (0.1, 0.6, 0.3))
#: Accesses at the start of each chunk replayed through scalar access().
SCALAR = 40

BACKENDS = [
    pytest.param("array", marks=pytest.mark.skipif(
        not native_available(), reason="the array backend needs the "
        "native kernel")),
    "object",
]

#: ``(policy, scheme) -> digest`` of the chunked, reallocated replay.
MATRIX = {
    ("BIP", "ideal"): "0efe364d4aaefe50",
    ("BIP", "none"): "aafb0a11f675951d",
    ("BIP", "set"): "0b5ecb0cdcfeab17",
    ("BIP", "vantage"): "289aa16587209119",
    ("BIP", "way"): "45ba0f0ff5aaa8d9",
    ("BRRIP", "ideal"): "77253cda333c2513",
    ("BRRIP", "none"): "fe4b2939f09df87c",
    ("BRRIP", "set"): "d6d90b25aa6f5d5d",
    ("BRRIP", "vantage"): "2b3190e7f665f0b9",
    ("BRRIP", "way"): "78b1d1f9ec380bad",
    ("DIP", "ideal"): "58f01578a3ac6f8d",
    ("DIP", "none"): "760c4871a57a31c2",
    ("DIP", "set"): "d3807f01c9c6ca0e",
    ("DIP", "vantage"): "7a50f5da3ac2b738",
    ("DIP", "way"): "677cf503bef1d92c",
    ("DRRIP", "ideal"): "759d223003de09b7",
    ("DRRIP", "none"): "9fb9cb7c2ecb41bc",
    ("DRRIP", "set"): "8f4ac65e5cd177b7",
    ("DRRIP", "vantage"): "60d27051ad1dedcd",
    ("DRRIP", "way"): "a6483b3b59029ec9",
    ("LIP", "ideal"): "0c037177c2be4d96",
    ("LIP", "none"): "c54c360a5a6b616c",
    ("LIP", "set"): "7caf9b7bf8a3651e",
    ("LIP", "vantage"): "7e0f2a584e633a16",
    ("LIP", "way"): "be30fdb771c57e87",
    ("LRU", "ideal"): "58f01578a3ac6f8d",
    ("LRU", "none"): "dbbe5321afcfc460",
    ("LRU", "set"): "477d621daf988a85",
    ("LRU", "vantage"): "1fc5ac1becfa006f",
    ("LRU", "way"): "868381da9792bd24",
    ("PDP", "ideal"): "ba4d5eaec633709b",
    ("PDP", "none"): "5642edd98b956bfe",
    ("PDP", "set"): "477d621daf988a85",
    ("PDP", "vantage"): "1fc5ac1becfa006f",
    ("PDP", "way"): "3b50fcc50bf1b62f",
    ("Random", "ideal"): "139585fb732c7028",
    ("Random", "none"): "26d4920423d0bada",
    ("Random", "set"): "a44ecbd293ae780c",
    ("Random", "vantage"): "3b2121a6653a2438",
    ("Random", "way"): "a8ababfeb54d7c24",
    ("SRRIP", "ideal"): "759d223003de09b7",
    ("SRRIP", "none"): "836331b5da70f0ad",
    ("SRRIP", "set"): "0e7041edf42638e2",
    ("SRRIP", "vantage"): "11d1f92e7a7ee99e",
    ("SRRIP", "way"): "d6b17ada9edb6bd5",
    ("TA-DRRIP", "ideal"): "2e32faa26aba3917",
    ("TA-DRRIP", "none"): "f2918b910d8be506",
    ("TA-DRRIP", "set"): "514771ec9a9b784a",
    ("TA-DRRIP", "vantage"): "46d084e373f9b113",
    ("TA-DRRIP", "way"): "18a97fb8ce901040",
}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _trace() -> tuple[np.ndarray, np.ndarray]:
    """13k accesses: omnetpp reuse around a twice-repeated scan, plus a
    deterministic partition id per access."""
    app = get_profile("omnetpp").trace(n_accesses=10_000).addresses
    scan = (1 << 30) + np.tile(np.arange(1_500, dtype=np.int64), 2)
    addrs = np.concatenate([app[:5_000], scan, app[5_000:]])
    parts = (addrs + np.arange(addrs.size) // 7) % PARTITIONS
    return addrs, parts.astype(np.int64)


def _build(policy: str, scheme: str, backend: str):
    seed = 3 if policy in SEEDED else None
    if scheme == "none":
        return CacheSpec(capacity_lines=CAPACITY, policy=policy,
                         backend=backend, seed=seed).build()
    kwargs = () if seed is None else (("seed", seed),)
    return PartitionSpec(scheme=scheme, capacity_lines=CAPACITY,
                         num_partitions=PARTITIONS, policy=policy,
                         backend=backend, policy_kwargs=kwargs).build()


def _replay(cache, addrs, parts) -> None:
    """One chunk: scalar accesses first, then one batched replay."""
    partitioned = hasattr(cache, "partition_stats")
    for a, p in zip(addrs[:SCALAR].tolist(), parts[:SCALAR].tolist()):
        if partitioned:
            cache.access(a, p)
        else:
            cache.access(a)
    rest, rest_parts = addrs[SCALAR:], parts[SCALAR:]
    if not partitioned:
        cache.run(rest)
    elif hasattr(cache, "run_partitioned"):
        cache.run_partitioned(rest, rest_parts)
    else:
        for a, p in zip(rest.tolist(), rest_parts.tolist()):
            cache.access(a, p)


def _rows(policy: str, scheme: str, backend: str) -> tuple:
    addrs, parts = _trace()
    cache = _build(policy, scheme, backend)
    rows = []
    for chunk, (start, end) in enumerate(zip(EDGES, EDGES[1:])):
        if chunk and scheme != "none":
            shares = SHARES[chunk - 1]
            granted = cache.set_allocations(
                [f * cache.partitionable_lines for f in shares])
            rows.append(tuple(int(g) for g in granted))
        _replay(cache, addrs[start:end], parts[start:end])
        if scheme == "none":
            rows.append((int(cache.stats.accesses), int(cache.stats.misses)))
        else:
            rows.append(tuple((int(s.accesses), int(s.misses))
                              for s in cache.partition_stats))
    return tuple(rows)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("policy", ONLINE)
def test_chunked_reallocated_replay(policy, scheme, backend):
    assert _digest(_rows(policy, scheme, backend)) == MATRIX[policy, scheme]


@pytest.mark.parametrize("backend", BACKENDS)
def test_tadrrip_thread_lane(backend):
    addrs, _ = _trace()
    tids = (addrs // 3 + np.arange(addrs.size) // 11) % 4
    cache = CacheSpec(capacity_lines=CAPACITY, policy="TA-DRRIP",
                      backend=backend, seed=5,
                      policy_kwargs=(("num_streams", 4),)).build()
    rows = []
    for start, end in zip(EDGES, EDGES[1:]):
        for a, t in zip(addrs[start:start + SCALAR].tolist(),
                        tids[start:start + SCALAR].tolist()):
            cache.access(a, t)
        cache.run(addrs[start + SCALAR:end],
                  thread_ids=tids[start + SCALAR:end])
        rows.append((int(cache.stats.misses),
                     tuple(int(m) for m in cache.thread_misses)))
    assert _digest(tuple(rows)) == "45c7c90130d2d019"


def test_tadrrip_shared_run_records():
    traces = [get_profile(p).trace(n_accesses=9_000)
              for p in ("omnetpp", "mcf", "libquantum")]
    run = TADRRIPSharedRun(total_mb=2.0, interval_accesses=3_000, seed=7)
    rows = tuple((r.index, r.accesses, r.misses, r.allocations_mb)
                 for r in run.run(traces))
    assert _digest(rows) == "79a10fa1a5273800"


@pytest.mark.parametrize("scheme", ["way", "set"])
@pytest.mark.parametrize("policy", ["DRRIP", "DIP"])
def test_object_partitions_duel_over_their_own_sets(policy, scheme):
    """Each way/set partition duels over its own sets, as each kernel
    region does: followers between the leaders, and one PSEL per
    partition."""
    cache = PartitionSpec(scheme=scheme, capacity_lines=512,
                          num_partitions=2, policy=policy,
                          backend="object").build()
    controllers = set()
    for regions in cache._regions:
        roles = [region.role for region in regions]
        assert roles == leader_roles(len(regions))
        assert roles.count(DuelRole.FOLLOWER) == len(regions) // 2
        controllers |= {id(region.controller) for region in regions}
    assert len(controllers) == 2
