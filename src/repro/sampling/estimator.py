"""Statistical estimator for sampled simulation.

Sampled replay simulates only a handful of *detailed windows* out of a
long trace and treats each window's miss rate as one observation of the
trace's steady-state behaviour.  The aggregation here is the classic
SMARTS/pFSA recipe:

* the **point estimate** is the mean of the per-window miss rates (each
  window contributes equally — windows have equal length, so this is
  also the miss rate of the union of the sampled accesses);
* the **confidence interval** is the CLT interval around that mean,
  ``t_{1-a/2, n-1} * s / sqrt(n)``, using the Student-t critical value
  (windows are few, so the normal approximation alone would understate
  the error);
* windows are placed *systematically* (fixed period through the trace),
  which for the phase-structured traces we model behaves like stratified
  sampling — one observation per equal stratum of the trace — and makes
  the CLT interval conservative rather than optimistic when phases are
  longer than the sampling period.

No SciPy is available in this environment, so the t quantile is
computed from Acklam's inverse-normal approximation plus the
Cornish-Fisher expansion in ``1/df`` (exact published values are used
for the very small degrees of freedom where the expansion is weak).
Accuracy is ~1e-4 for df >= 5 — far below the sampling noise the
interval is quantifying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["WindowResult", "SampledResult", "normal_quantile",
           "student_t_critical"]


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4])
                 * q + c[5])
                / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1))
    if p > p_high:
        q = math.sqrt(-2 * math.log(1 - p))
        return -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4])
                  * q + c[5])
                 / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1))
    q = p - 0.5
    r = q * q
    return ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4])
             * r + a[5]) * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4])
               * r + 1))


# Exact two-sided critical values where the 1/df expansion is weakest.
_T_EXACT = {
    (1, 0.90): 6.3138, (1, 0.95): 12.7062, (1, 0.99): 63.6567,
    (2, 0.90): 2.9200, (2, 0.95): 4.3027, (2, 0.99): 9.9248,
    (3, 0.90): 2.3534, (3, 0.95): 3.1824, (3, 0.99): 5.8409,
    (4, 0.90): 2.1318, (4, 0.95): 2.7764, (4, 0.99): 4.6041,
}


def student_t_critical(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value ``t_{1-(1-confidence)/2, df}``."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if df <= 0:
        return math.inf
    exact = _T_EXACT.get((df, round(confidence, 4)))
    if exact is not None:
        return exact
    z = normal_quantile(0.5 + confidence / 2.0)
    # Cornish-Fisher expansion of the t quantile around the normal one.
    g1 = (z ** 3 + z) / 4.0
    g2 = (5 * z ** 5 + 16 * z ** 3 + 3 * z) / 96.0
    g3 = (3 * z ** 7 + 19 * z ** 5 + 17 * z ** 3 - 15 * z) / 384.0
    return z + g1 / df + g2 / df ** 2 + g3 / df ** 3


@dataclass(frozen=True)
class WindowResult:
    """Detailed statistics of one sampled window."""

    index: int           #: window number (0-based, in trace order)
    start: int           #: first trace position measured by this window
    accesses: int        #: measured accesses (the window length)
    misses: int          #: misses among the measured accesses
    warmup_accesses: int = 0   #: unmeasured warmup accesses replayed first

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class SampledResult:
    """Point estimate + confidence interval of one sampled replay.

    ``windows`` carries every per-window observation, so callers can
    recompute any statistic; the properties below implement the standard
    CLT aggregation described in the module docstring.
    """

    windows: tuple          #: tuple[WindowResult, ...] in trace order
    total_accesses: int     #: length of the full (unsampled) trace
    instructions: int = 0   #: instruction count of the full trace
    confidence: float = 0.95
    warming: str = "window"
    meta: tuple = field(default=(), compare=False)

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    @property
    def sampled_accesses(self) -> int:
        """Accesses actually simulated, warmup included (the cost)."""
        return sum(w.accesses + w.warmup_accesses for w in self.windows)

    @property
    def miss_rate(self) -> float:
        """Point estimate: mean of the per-window miss rates."""
        if not self.windows:
            return 0.0
        return sum(w.miss_rate for w in self.windows) / len(self.windows)

    @property
    def miss_rate_std(self) -> float:
        """Sample standard deviation of the window miss rates (ddof=1)."""
        n = len(self.windows)
        if n < 2:
            return 0.0
        mean = self.miss_rate
        var = sum((w.miss_rate - mean) ** 2 for w in self.windows) / (n - 1)
        return math.sqrt(var)

    @property
    def miss_rate_halfwidth(self) -> float:
        """Half-width of the confidence interval on the miss rate."""
        n = len(self.windows)
        if n < 2:
            return math.inf
        t = student_t_critical(self.confidence, n - 1)
        return t * self.miss_rate_std / math.sqrt(n)

    @property
    def estimated_misses(self) -> float:
        """Estimated miss count of the full trace."""
        return self.miss_rate * self.total_accesses

    @property
    def mpki(self) -> float:
        """Estimated misses per kilo-instruction of the full trace."""
        if self.instructions <= 0:
            return 0.0
        return 1000.0 * self.estimated_misses / self.instructions

    @property
    def mpki_halfwidth(self) -> float:
        """Half-width of the confidence interval on the MPKI estimate."""
        if self.instructions <= 0:
            return 0.0
        return (1000.0 * self.miss_rate_halfwidth * self.total_accesses
                / self.instructions)

    @property
    def mpki_interval(self) -> tuple[float, float]:
        hw = self.mpki_halfwidth
        return (self.mpki - hw, self.mpki + hw)

    @property
    def speedup(self) -> float:
        """Simulated-access reduction vs an exact replay.

        ``warming="window"`` pays only the sampled windows and their
        warmup prefixes; ``warming="checkpoint"`` also pays the full
        functional fast-forward pass (its speedup is therefore < 1 —
        that mode buys exactness, not time).
        """
        cost = self.sampled_accesses
        if self.warming == "checkpoint":
            cost += self.total_accesses
        return self.total_accesses / cost if cost else math.inf

    def error_vs_exact(self, exact_mpki: float) -> dict:
        """Validator: compare the estimate against an exact-replay MPKI.

        Returns a report dict used by tier-1 tests and the accuracy
        benchmark; ``within_ci`` is the headline claim (the true value
        lies inside the reported interval).
        """
        err = self.mpki - exact_mpki
        hw = self.mpki_halfwidth
        return {
            "exact_mpki": float(exact_mpki),
            "sampled_mpki": float(self.mpki),
            "error": float(err),
            "abs_error": abs(float(err)),
            "relative_error": (abs(err) / exact_mpki if exact_mpki else 0.0),
            "ci_halfwidth": float(hw),
            "confidence": self.confidence,
            "within_ci": bool(abs(err) <= hw),
            "n_windows": self.n_windows,
            "speedup": float(self.speedup),
        }
