"""Shared helpers for the per-figure experiment harnesses.

Every harness returns plain data structures (dataclasses of floats/lists)
and offers a ``format_*`` helper that renders the same rows/series the
paper's figure shows, so the benchmark suite can simply print them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict

__all__ = ["Series", "FigureResult", "format_table", "fast_mode",
           "trace_length", "num_mixes"]


@dataclass(frozen=True)
class Series:
    """One labelled curve of a figure: y-values over a shared x-axis."""

    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have the same length")


@dataclass(frozen=True)
class FigureResult:
    """A reproduced figure: several series plus free-form summary scalars."""

    figure: str
    title: str
    series: tuple[Series, ...]
    summary: Dict[str, float]

    def series_by_label(self, label: str) -> Series:
        """Find a series by its label."""
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series labelled {label!r} in {self.figure}")


def format_table(result: FigureResult, x_name: str = "x",
                 float_fmt: str = "{:8.2f}") -> str:
    """Render a FigureResult as an aligned text table (one row per x value)."""
    if not result.series:
        return f"{result.figure}: (no series)"
    xs = result.series[0].x
    header = [f"{x_name:>10s}"] + [f"{s.label:>16s}" for s in result.series]
    lines = [f"== {result.figure}: {result.title} ==", " ".join(header)]
    for i, x in enumerate(xs):
        row = [f"{x:10.3f}"]
        for s in result.series:
            row.append(f"{float_fmt.format(s.y[i]):>16s}")
        lines.append(" ".join(row))
    if result.summary:
        lines.append("-- summary --")
        for key, value in result.summary.items():
            lines.append(f"  {key}: {value:.4f}")
    return "\n".join(lines)


def fast_mode() -> bool:
    """Whether the benches should run in reduced-size mode.

    Set ``REPRO_FAST=0`` to run the full-size experiments; the default keeps
    the complete benchmark suite runnable in a few minutes on a laptop.
    """
    return os.environ.get("REPRO_FAST", "1") != "0"


def trace_length(full: int = 150_000, fast: int = 60_000) -> int:
    """Trace length to use given the current mode."""
    return fast if fast_mode() else full


def num_mixes(full: int = 100, fast: int = 12) -> int:
    """Number of random mixes to evaluate given the current mode."""
    return fast if fast_mode() else full
