"""Hash functions used by the cache substrate and by Talus's sampling logic.

Talus steers accesses between shadow partitions with an inexpensive H3 hash
(Carter & Wegman) of the line address compared against an 8-bit limit
register (Sec. VI-B of the paper).  The cache itself also hashes addresses
to set indices so that accesses spread evenly across sets (Assumption 3 —
"statistically self-similar" sampled streams — relies on good hashing).

Both hash families here are deterministic given a seed, so experiments are
reproducible.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["H3Hash", "SamplingFunction", "SplitMix64", "GOLDEN64", "mix64",
           "mix64_array", "seed_mix", "set_index", "derive_seed"]

_MASK64 = (1 << 64) - 1

#: The splitmix64 increment (2^64 / golden ratio).  Every seed premix and
#: constituency hash in the Python code AND the native kernel
#: (``_sweepkernel.c``'s ``GOLDEN``) must use this same constant, or the
#: scalar, vectorized and native paths stop selecting identical streams.
GOLDEN64 = 0x9E3779B97F4A7C15


def seed_mix(seed: int) -> int:
    """The 64-bit seed premix ``(seed * GOLDEN64) mod 2^64``.

    XORed into an address before :func:`mix64` to derive independent hash
    functions from one seed; shared so the scalar, numpy and C paths agree
    bit for bit.
    """
    return (seed * GOLDEN64) & _MASK64


def mix64(value: int) -> int:
    """A 64-bit finalizer (splitmix64) used for set-index hashing.

    Cheap, stateless and well-mixed; good enough to emulate the hashed
    indexing of a real LLC.
    """
    value &= _MASK64
    value = (value + GOLDEN64) & _MASK64
    z = value
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class SplitMix64:
    """The splitmix64 stream every randomized replacement decision draws.

    The native kernels advance the same 64-bit state (``splitmix64_next``
    in ``_sweepkernel.c``), held in a caller-owned array; a stream seeded
    ``seed`` starts from ``mix64(seed)`` on both backends.  An object
    policy and a kernel region seeded alike therefore make the same draws
    in the same order, which is what makes the randomized policies
    (BIP, DIP, BRRIP, DRRIP, TA-DRRIP, Random) bit-identical across
    backends.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int = 0):
        self.state = mix64(seed)

    @classmethod
    def from_state(cls, state: int) -> "SplitMix64":
        """A stream resuming at a raw 64-bit ``state`` (e.g. a kernel's)."""
        stream = cls.__new__(cls)
        stream.state = int(state) & _MASK64
        return stream

    def next64(self) -> int:
        """Advance the state; return the next 64-bit output."""
        value = mix64(self.state)
        self.state = (self.state + GOLDEN64) & _MASK64
        return value

    def uniform(self) -> float:
        """The next draw as a double in [0, 1): its top 53 bits."""
        return (self.next64() >> 11) * (1.0 / 9007199254740992.0)


def derive_seed(base_seed: int, token: str) -> int:
    """Identity-derived deterministic seed for one unit of work.

    A stable function of ``(base_seed, token)`` — never of execution
    order, worker identity or batch composition — so a unit simulated
    alone, in a batched sweep, in a supervised worker or resumed from a
    result bank always draws the same random stream.  The sweep engine
    derives per-config seeds from ``"policy|size"`` tokens and the
    sampling driver per-window seeds from ``"sampling-window|start"``
    tokens through this one helper.
    """
    return mix64(mix64(base_seed) ^ zlib.crc32(token.encode())) & 0x7FFFFFFF


def mix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` over an array of addresses.

    Element-for-element identical to the scalar version (negative int64
    inputs wrap to their two's-complement uint64 value, exactly as the
    scalar's 64-bit masking does), so hash-sampled sub-streams selected
    with either form are the same.  This is what lets the monitors
    (:mod:`repro.monitor.umon`, :mod:`repro.monitor.multipoint`) replace
    one Python hash call per access with a single numpy pass.
    """
    v = np.asarray(values).astype(np.uint64)
    v = v + np.uint64(GOLDEN64)
    v = (v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    v = (v ^ (v >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return v ^ (v >> np.uint64(31))


def set_index(address: int, num_sets: int, seed: int = 0) -> int:
    """Map a line address to a set index using hashed indexing."""
    if num_sets <= 0:
        raise ValueError("num_sets must be positive")
    return mix64(address ^ seed_mix(seed)) % num_sets


class H3Hash:
    """An H3 universal hash: ``h(x) = XOR of rows of Q selected by bits of x``.

    This is the hardware-friendly hash family the paper uses for the shadow
    partition sampling function.  Each instance draws a random binary matrix
    ``Q`` (one row per input bit) from a seeded RNG; hashing XORs together
    the rows corresponding to the set bits of the input.

    Parameters
    ----------
    out_bits:
        Width of the hash output (the paper uses 8 bits).
    in_bits:
        Number of input address bits considered.
    seed:
        Seed for the matrix; different seeds give independent hash functions.
    """

    def __init__(self, out_bits: int = 8, in_bits: int = 48, seed: int = 1):
        if out_bits <= 0 or out_bits > 32:
            raise ValueError("out_bits must be in [1, 32]")
        if in_bits <= 0 or in_bits > 64:
            raise ValueError("in_bits must be in [1, 64]")
        self.out_bits = out_bits
        self.in_bits = in_bits
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._rows = [int(v) for v in
                      rng.integers(0, 1 << out_bits, size=in_bits, dtype=np.uint64)]
        self._mask = (1 << out_bits) - 1
        # Byte-sliced lookup tables: H3 is XOR-linear over GF(2), so the
        # hash of an address is the XOR of one table entry per input byte.
        # This turns the vectorized hash into a handful of table gathers
        # instead of one pass per input bit — the hot step of Talus's
        # batched shadow-pair steering.
        n_bytes = (in_bits + 7) // 8
        byte_values = np.arange(256, dtype=np.uint64)
        self._byte_luts = np.zeros((n_bytes, 256), dtype=np.uint64)
        for k in range(n_bytes):
            lut = self._byte_luts[k]
            for bit in range(8):
                global_bit = 8 * k + bit
                if global_bit >= in_bits:
                    break
                has_bit = (byte_values >> np.uint64(bit)) & np.uint64(1)
                lut ^= has_bit * np.uint64(self._rows[global_bit])

    def __call__(self, value: int) -> int:
        """Hash ``value`` to an integer in ``[0, 2**out_bits)``."""
        result = 0
        v = value & ((1 << self.in_bits) - 1)
        bit = 0
        while v:
            if v & 1:
                result ^= self._rows[bit]
            v >>= 1
            bit += 1
        return result & self._mask

    def hash_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized hash of an array of addresses.

        Bit-identical to the scalar :meth:`__call__` (XOR-linearity makes
        the byte-sliced tables exact), element for element.
        """
        values = np.asarray(values, dtype=np.uint64)
        masked = values & np.uint64((1 << self.in_bits) - 1)
        result = self._byte_luts[0][masked & np.uint64(0xFF)]
        for k in range(1, self._byte_luts.shape[0]):
            chunk = (masked >> np.uint64(8 * k)) & np.uint64(0xFF)
            result = result ^ self._byte_luts[k][chunk]
        return result & np.uint64(self._mask)

    def __repr__(self) -> str:
        return f"H3Hash(out_bits={self.out_bits}, in_bits={self.in_bits}, seed={self.seed})"


class SamplingFunction:
    """Talus's hardware sampling function: H3 hash + limit register.

    Each incoming address is hashed to ``out_bits`` bits; if the hash value
    is below the limit register the access goes to the *alpha* shadow
    partition, otherwise to the *beta* shadow partition (Fig. 7b).

    The limit register quantizes the sampling rate ``rho`` to
    ``2**out_bits`` levels, exactly as the 8-bit register in the paper does.
    """

    def __init__(self, rho: float = 0.0, out_bits: int = 8, seed: int = 1):
        self.hash = H3Hash(out_bits=out_bits, seed=seed)
        self.out_bits = out_bits
        self._levels = 1 << out_bits
        self.limit = 0
        self.set_rate(rho)

    def set_rate(self, rho: float) -> None:
        """Program the limit register for a target sampling rate ``rho``."""
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {rho}")
        self.limit = int(round(rho * self._levels))

    @property
    def rate(self) -> float:
        """The quantized sampling rate actually implemented by the register."""
        return self.limit / self._levels

    def goes_to_alpha(self, address: int) -> bool:
        """Whether ``address`` is steered to the alpha shadow partition."""
        return self.hash(address) < self.limit
