"""Talus shadow-partition planning (Sections III, IV and VI of the paper).

Given the miss curve ``m`` of the underlying replacement policy and a target
capacity ``s``, Talus divides the cache into two shadow partitions:

* the **alpha** partition, of size ``s1 = rho * alpha``, which receives a
  fraction ``rho`` of accesses and therefore behaves like a cache of size
  ``alpha`` (Theorem 4), and
* the **beta** partition, of size ``s2 = s - s1``, which receives the
  remaining ``1 - rho`` of accesses and behaves like a cache of size ``beta``.

``alpha`` and ``beta`` are the convex-hull vertices bracketing ``s``, and

    rho = (beta - s) / (beta - alpha)                            (Eq. 4)

With this choice the combined miss rate linearly interpolates between
``m(alpha)`` and ``m(beta)`` (Lemma 5), i.e. the cache traces the convex hull
of ``m`` (Theorem 6).

The implementation details of Sec. VI are also provided: a configurable
safety margin on ``rho`` (the paper uses 5 %), and the way-partitioning
correction that recomputes ``rho`` from coarsened partition sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convexhull import convex_hull, hull_neighbors
from .misscurve import MissCurve
from .sampling import shadow_miss_rate

__all__ = [
    "TalusConfig",
    "plan_shadow_partitions",
    "talus_miss_curve",
    "predicted_miss",
    "DEFAULT_SAFETY_MARGIN",
]

#: Safety margin applied to the sampling rate, as used by the paper's
#: implementation (Sec. VI-B): "an increase of 5% ensures convexity with
#: little loss in performance."
DEFAULT_SAFETY_MARGIN = 0.05


@dataclass(frozen=True)
class TalusConfig:
    """A complete Talus shadow-partition configuration for one logical partition.

    Attributes
    ----------
    total_size:
        Capacity of the logical (software-visible) partition.
    alpha, beta:
        Hull-vertex sizes the two shadow partitions emulate
        (``alpha <= total_size <= beta``).
    rho:
        Fraction of accesses sampled into the alpha shadow partition.
    s1, s2:
        Shadow partition capacities (``s1 + s2 == total_size``).
    degenerate:
        True when no interpolation is needed (``total_size`` is itself a hull
        vertex, or lies at/beyond the last measured point).  In that case the
        whole capacity goes to a single partition and ``rho`` is 0.
    """

    total_size: float
    alpha: float
    beta: float
    rho: float
    s1: float
    s2: float
    degenerate: bool = False

    def __post_init__(self):
        if self.total_size < 0:
            raise ValueError("total_size must be non-negative")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        if self.s1 < -1e-9 or self.s2 < -1e-9:
            raise ValueError(f"negative shadow partition size "
                             f"(s1={self.s1}, s2={self.s2})")
        if abs((self.s1 + self.s2) - self.total_size) > 1e-6 * max(self.total_size, 1.0):
            raise ValueError("shadow partition sizes must sum to total_size")

    def emulated_sizes(self) -> tuple[float, float]:
        """The cache sizes each shadow partition emulates, ``(s1/rho, s2/(1-rho))``."""
        alpha_emu = self.s1 / self.rho if self.rho > 0 else 0.0
        beta_emu = self.s2 / (1.0 - self.rho) if self.rho < 1 else 0.0
        return alpha_emu, beta_emu


def plan_shadow_partitions(curve: MissCurve,
                           total_size: float,
                           safety_margin: float = 0.0,
                           hull: MissCurve | None = None,
                           ) -> TalusConfig:
    """Choose ``alpha``, ``beta``, ``rho``, ``s1`` and ``s2`` for a capacity.

    This is the Theorem 6 construction: pick the convex-hull vertices
    bracketing ``total_size`` and interpolate.

    Parameters
    ----------
    curve:
        Miss curve of the underlying replacement policy for this partition's
        access stream.
    total_size:
        The logical partition's capacity, in the same units as ``curve``.
    safety_margin:
        Fractional adjustment of ``rho`` (Sec. VI-B).  Increasing ``rho`` by
        ``X`` effectively decreases ``alpha`` and increases ``beta`` by ``X``,
        building slack against interval-to-interval variation.  The paper
        uses 0.05 in hardware; the analytic default here is 0 (exact hull).
    hull:
        ``convex_hull(curve)``, when the caller already holds it (the
        shared planner hulls every curve before allocating, and
        :func:`talus_miss_curve` plans many sizes on one curve).  Omitted,
        it is computed here; the configuration is the same either way.

    Returns
    -------
    TalusConfig
        The shadow-partition configuration.  When ``total_size`` coincides
        with a hull vertex (or exceeds the measured range), the config is
        degenerate: all capacity in the beta partition, ``rho == 0``.
    """
    if total_size < curve.min_size:
        raise ValueError(
            f"total_size {total_size} below curve's smallest sample "
            f"{curve.min_size}")
    if safety_margin < 0 or safety_margin >= 1:
        raise ValueError("safety_margin must be in [0, 1)")

    alpha, beta = hull_neighbors(curve, total_size, hull=hull)

    scale = max(abs(total_size), 1.0)
    if beta <= alpha or total_size >= beta or abs(total_size - alpha) <= 1e-12 * scale:
        # Degenerate: at a hull vertex or beyond the measured curve.  A
        # single partition of the full size already achieves hull performance.
        return TalusConfig(total_size=total_size, alpha=total_size,
                           beta=total_size, rho=0.0, s1=0.0,
                           s2=total_size, degenerate=True)

    # If interpolating between the hull vertices does not actually improve on
    # the curve's own value at this size (e.g. the hull segment is flat, as
    # happens just past a cliff), use the degenerate single-partition
    # configuration: it achieves the same miss rate without exposing a
    # shadow partition to a knife-edge emulated size where sampling noise
    # could push it back up the cliff.
    weight = (beta - total_size) / (beta - alpha)
    at_alpha, at_beta, at_min, at_max, at_total = curve(
        (alpha, beta, curve.min_size, curve.max_size, total_size)).tolist()
    interpolated = weight * at_alpha + (1 - weight) * at_beta
    span = max(abs(at_min - at_max), 1e-12)
    if interpolated >= at_total - 1e-6 * span:
        return TalusConfig(total_size=total_size, alpha=total_size,
                           beta=total_size, rho=0.0, s1=0.0,
                           s2=total_size, degenerate=True)

    rho = (beta - total_size) / (beta - alpha)
    if safety_margin:
        rho = min(1.0, rho * (1.0 + safety_margin))
    s1 = rho * alpha
    # Clamp in case the safety margin pushed s1 past the total capacity.
    s1 = min(s1, total_size)
    s2 = total_size - s1
    return TalusConfig(total_size=total_size, alpha=alpha, beta=beta,
                       rho=rho, s1=s1, s2=s2, degenerate=False)


def predicted_miss(curve: MissCurve, config: TalusConfig) -> float:
    """Analytic miss value of a Talus configuration (Eq. 2 / Eq. 5)."""
    if config.degenerate:
        return float(curve(config.total_size))
    return shadow_miss_rate(curve, config.total_size, config.s1, config.rho)


def talus_miss_curve(curve: MissCurve,
                     sizes: np.ndarray | None = None,
                     safety_margin: float = 0.0) -> MissCurve:
    """Return the miss curve Talus achieves on top of ``curve``.

    With a zero safety margin this is exactly the lower convex hull of
    ``curve`` (Theorem 6); with a nonzero margin it lies slightly above the
    hull inside non-convex regions.  Talus's software pre-processing step
    hands the *hull* to the partitioning algorithm, so the hull is what the
    system plans with; this function reports what the shadow-partitioned
    cache is predicted to achieve.

    Parameters
    ----------
    curve:
        Underlying policy's miss curve.
    sizes:
        Sizes at which to sample the Talus curve (default: the original
        curve's sample sizes).
    safety_margin:
        Passed through to :func:`plan_shadow_partitions`.

    The curve is hulled once, and every size is planned on that hull.
    """
    if sizes is None:
        sizes = curve.sizes
    sizes = np.asarray(sizes, dtype=float)
    hull = convex_hull(curve)
    misses = []
    for s in sizes:
        cfg = plan_shadow_partitions(curve, float(s),
                                     safety_margin=safety_margin, hull=hull)
        predicted = predicted_miss(curve, cfg)
        # A nonzero safety margin shifts beta below the planned hull vertex,
        # which right after a cliff can predict slightly *worse* than the
        # underlying policy.  Talus can always fall back to the degenerate
        # (single-partition) configuration, so the effective curve is capped
        # at the original policy's value.
        misses.append(min(predicted, float(curve(s))))
    return MissCurve(sizes, np.asarray(misses))


def convexified_curve(curve: MissCurve) -> MissCurve:
    """The convex hull of ``curve`` — what Talus's pre-processing step exports.

    This is the curve handed to the system's partitioning algorithm
    (Fig. 7): guaranteed convex regardless of measurement noise, and what
    Talus commits to delivering.
    """
    return convex_hull(curve)
