"""Miss curves: the central data structure of Talus.

A *miss curve* ``m(s)`` gives the miss rate of a replacement policy on a
fixed access stream as a function of the cache capacity ``s``.  Talus
(Beckmann & Sanchez, HPCA 2015) operates exclusively on miss curves: it
never inspects individual lines, only the curve.

This module provides :class:`MissCurve`, a sampled miss curve with linear
interpolation between sample points, plus constructors from stack-distance
histograms and from raw (size, misses) tables.

Units
-----
Sizes are unit-agnostic non-negative floats.  Throughout the repository we
use *cache lines* for simulated experiments and *paper-equivalent megabytes*
for analytic experiments; :class:`MissCurve` does not care, as Talus's math
is scale invariant.  Miss values are also unit-agnostic: misses-per-access
(a rate in ``[0, 1]``), misses-per-kilo-instruction (MPKI), or absolute miss
counts all work, because Talus only ever takes convex combinations of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = ["MissCurve", "mattson_misses"]


def _as_float_array(values: Iterable[float], name: str) -> np.ndarray:
    arr = np.asarray(values if isinstance(values, np.ndarray) else list(values),
                     dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must contain only finite values")
    return arr


def mattson_misses(histogram: Sequence[float], cold_misses: float = 0.0,
                   sizes: np.ndarray | None = None) -> np.ndarray:
    """LRU misses at each capacity in ``sizes``, from a stack-distance
    histogram (the Mattson construction).

    ``histogram[d]`` counts accesses with LRU stack distance ``d`` (hits in
    a cache of at least ``d + 1`` lines) and ``cold_misses`` the accesses
    that never hit.  Returns the miss array at ``sizes`` (interpolated,
    clamped to the ends), or at every line count ``0..len(histogram)``
    when ``sizes`` is None.  This is the arithmetic behind
    :meth:`MissCurve.from_stack_distances`; monitors that scale or splice
    the misses before building their curve call it directly.
    """
    hist = np.asarray(histogram, dtype=float)
    if hist.ndim != 1:
        raise ValueError("histogram must be one-dimensional")
    if np.any(hist < 0) or cold_misses < 0:
        raise ValueError("histogram counts must be non-negative")
    total = float(hist.sum() + cold_misses)
    # misses(c) = accesses with distance >= c  (plus cold misses)
    # cumulative hits at capacity c = sum(hist[:c])
    cum_hits = np.concatenate(([0.0], np.cumsum(hist)))
    full_misses = total - cum_hits
    if sizes is None:
        return full_misses
    full_sizes = np.arange(len(hist) + 1, dtype=float)
    return np.interp(sizes, full_sizes, full_misses,
                     left=full_misses[0], right=full_misses[-1])


@dataclass(frozen=True)
class MissCurve:
    """A sampled miss curve with linear interpolation.

    Parameters
    ----------
    sizes:
        Strictly increasing, non-negative cache sizes at which the curve is
        sampled.  The first size is usually ``0`` (the compulsory/always-miss
        point); if it is not, evaluation below the first sample clamps to the
        first sample value.
    misses:
        Miss values at each size.  Values must be non-negative.  Most curves
        are non-increasing, but :class:`MissCurve` does not require it (some
        empirical policies exhibit small non-monotonicities); helpers that do
        require monotone input state so explicitly.
    """

    sizes: np.ndarray
    misses: np.ndarray

    def __init__(self, sizes: Iterable[float], misses: Iterable[float]):
        sizes_arr = _as_float_array(sizes, "sizes")
        misses_arr = _as_float_array(misses, "misses")
        if sizes_arr.shape != misses_arr.shape:
            raise ValueError(
                f"sizes and misses must have the same length "
                f"({sizes_arr.size} != {misses_arr.size})")
        if sizes_arr.min() < 0:
            raise ValueError("sizes must be non-negative")
        if (sizes_arr[1:] <= sizes_arr[:-1]).any():
            raise ValueError("sizes must be strictly increasing")
        if misses_arr.min() < 0:
            raise ValueError("misses must be non-negative")
        object.__setattr__(self, "sizes", sizes_arr)
        object.__setattr__(self, "misses", misses_arr)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_points(cls, points: Sequence[Tuple[float, float]]) -> "MissCurve":
        """Build a curve from an iterable of ``(size, misses)`` pairs.

        Points are sorted by size; duplicate sizes are an error.
        """
        pts = sorted(points, key=lambda p: p[0])
        if not pts:
            raise ValueError("points must not be empty")
        sizes = [p[0] for p in pts]
        misses = [p[1] for p in pts]
        return cls(sizes, misses)

    @classmethod
    def from_stack_distances(cls,
                             histogram: Sequence[float],
                             cold_misses: float = 0.0,
                             sizes: Sequence[float] | None = None,
                             ) -> "MissCurve":
        """Build an LRU miss curve from a stack-distance histogram.

        ``histogram[d]`` counts accesses with LRU stack distance ``d`` (i.e.
        hits in a cache of at least ``d + 1`` lines).  ``cold_misses`` counts
        accesses with infinite distance (compulsory misses).  The resulting
        curve gives, at each capacity ``c`` (in lines), the number of misses
        an LRU cache of that capacity would incur — the Mattson construction.

        Parameters
        ----------
        histogram:
            Stack-distance counts, index = distance.
        cold_misses:
            Number of accesses that never hit at any finite capacity.
        sizes:
            Optional capacities (in lines) at which to sample the curve.
            Defaults to ``0..len(histogram)`` (every line count).
        """
        if sizes is not None:
            sizes = np.asarray(list(sizes), dtype=float)
        misses = mattson_misses(histogram, cold_misses, sizes)
        if sizes is None:
            sizes = np.arange(misses.size, dtype=float)
        return cls(sizes, misses)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def __call__(self, size: float | np.ndarray) -> float | np.ndarray:
        """Evaluate the curve at ``size`` via linear interpolation.

        Sizes below the first sample clamp to the first value; sizes above
        the last sample clamp to the last value (the curve is assumed flat
        beyond its measured range).
        """
        result = np.interp(size, self.sizes, self.misses,
                           left=self.misses[0], right=self.misses[-1])
        if np.isscalar(size):
            return float(result)
        return result

    def __len__(self) -> int:
        return int(self.sizes.size)

    def __iter__(self):
        return iter(zip(self.sizes.tolist(), self.misses.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MissCurve):
            return NotImplemented
        return (self.sizes.shape == other.sizes.shape
                and np.allclose(self.sizes, other.sizes)
                and np.allclose(self.misses, other.misses))

    def __hash__(self) -> int:  # frozen dataclass with arrays: hash by bytes
        return hash((self.sizes.tobytes(), self.misses.tobytes()))

    def __repr__(self) -> str:
        return (f"MissCurve({len(self)} points, "
                f"sizes [{self.sizes[0]:g}, {self.sizes[-1]:g}], "
                f"misses [{self.misses.min():g}, {self.misses.max():g}])")

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def max_size(self) -> float:
        """Largest sampled size."""
        return float(self.sizes[-1])

    @property
    def min_size(self) -> float:
        """Smallest sampled size."""
        return float(self.sizes[0])

    def points(self) -> list[Tuple[float, float]]:
        """Return the curve as a list of ``(size, misses)`` pairs."""
        return list(zip(self.sizes.tolist(), self.misses.tolist()))

    def is_monotone(self, tolerance: float = 1e-9) -> bool:
        """Whether misses never increase with size (within ``tolerance``)."""
        return bool(np.all(np.diff(self.misses) <= tolerance))

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def scaled(self, size_factor: float = 1.0, miss_factor: float = 1.0) -> "MissCurve":
        """Return a curve with sizes and/or misses multiplied by constants.

        Useful to convert units, e.g. from lines to bytes (``size_factor=64``)
        or from miss counts to MPKI (``miss_factor=1000/instructions``).
        """
        if size_factor <= 0:
            raise ValueError("size_factor must be positive")
        if miss_factor < 0:
            raise ValueError("miss_factor must be non-negative")
        return MissCurve(self.sizes * size_factor, self.misses * miss_factor)

    def resampled(self, sizes: Sequence[float]) -> "MissCurve":
        """Return the curve resampled (by interpolation) at the given sizes."""
        sizes_arr = _as_float_array(sizes, "sizes")
        return MissCurve(sizes_arr, self(sizes_arr))

    def restricted(self, max_size: float) -> "MissCurve":
        """Return the curve truncated to sizes ``<= max_size``.

        The point at exactly ``max_size`` is included (interpolated if it is
        not a sample point), so the restricted curve still covers the
        capacity of interest.
        """
        if max_size < self.min_size:
            raise ValueError(
                f"max_size {max_size} below smallest sample {self.min_size}")
        keep = self.sizes <= max_size
        sizes = self.sizes[keep]
        misses = self.misses[keep]
        if sizes[-1] < max_size:
            sizes = np.append(sizes, max_size)
            misses = np.append(misses, self(max_size))
        return MissCurve(sizes, misses)

    def monotone_envelope(self) -> "MissCurve":
        """Return the tightest non-increasing curve that lower-bounds misses.

        Running minimum from the left: enforces the intuition that a bigger
        cache never hurts.  Used to clean up noisy measured curves before
        convex-hull computation.
        """
        return MissCurve(self.sizes, np.minimum.accumulate(self.misses))

    def shifted(self, delta_misses: float) -> "MissCurve":
        """Return a curve with a constant added to all miss values."""
        shifted = self.misses + delta_misses
        if np.any(shifted < 0):
            raise ValueError("shift would make miss values negative")
        return MissCurve(self.sizes, shifted)

    def __add__(self, other: "MissCurve") -> "MissCurve":
        """Pointwise sum of two curves over the union of their sample sizes.

        Models the aggregate misses of two independent streams sharing a
        statically split cache where each keeps its own curve.
        """
        if not isinstance(other, MissCurve):
            return NotImplemented
        sizes = np.union1d(self.sizes, other.sizes)
        return MissCurve(sizes, self(sizes) + other(sizes))
