"""Execution-driven multi-mix sweep engine (the Fig. 12/13 workhorse).

The paper's headline multi-programmed results are distributions over many
workload mixes: Fig. 12 evaluates partitioning policies on 100 random
8-app mixes, Fig. 13 sweeps homogeneous fairness mixes over LLC sizes.
:class:`~repro.sim.multicore.ReconfiguringSharedRun` executes *one* such
mix through the full closed loop (per-app UMONs, Talus re-planning, warm
reconfiguration, chunked native replay); this module scales that to the
sweep itself:

* :class:`MixSweepSpec` — a frozen-dataclass description of the whole
  sweep in the :mod:`repro.cache.spec` style: hashable, comparable and
  picklable, so each mix can run as a banked job of the supervised
  runtime (:mod:`repro.jobs`) exactly like
  :func:`repro.sim.sweep.run_sweep` configs do.
* **Stable per-mix seeding** — every application trace draws its seed
  from ``(base_seed, mix name, core, app name)``, never from execution
  order, so serial, threaded and supervised runs (and any subset of the
  mixes) are bit-identical.
* :func:`run_mix_sweep` — one :class:`ReconfiguringSharedRun` per mix,
  each riding the resumable runtime (chunked replay + warm reallocation;
  the default ``scheme="vantage"`` substrate replays through the native
  Vantage kernel on ``backend="auto"``).  Mixes run one after another,
  or on a thread pool when ``max_workers > 1`` and the native kernel is
  loaded; each mix generates its
  traces when it runs, or takes them from a caller's
  :class:`~repro.workloads.tracestore.TraceStore`.
* :class:`MixSweepResult` — the per-mix interval records and measured
  :class:`~repro.sim.multicore.MixResult` objects, bridged to the
  analytic Fig. 12/13 machinery (speedups over the
  ``lru-shared`` equilibrium baseline, CoV of per-core IPC) and
  serialized to a JSON result bank for ``benchmarks/out/``.

Example
-------
>>> from repro.sim.mixsweep import MixSweepSpec, run_mix_sweep
>>> from repro.workloads.mixes import random_mixes
>>> mixes = random_mixes(2, apps_per_mix=2)
>>> spec = MixSweepSpec(total_mb=2.0, trace_accesses=8_000,
...                     interval_accesses=4_000)
>>> result = run_mix_sweep(mixes, spec)
>>> result.gmean_speedup("weighted") > 0.0   # executed vs analytic LRU
True
"""

from __future__ import annotations

import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, Sequence

from ..cache._native import native_available
from ..cache.factory import BACKENDS
from ..core.atomicio import atomic_write_json
from ..cache.hashing import mix64
from ..cache.partition import SCHEME_REGISTRY
from ..cache.spec import PartitionSpec
from ..partitioning import fair, hill_climbing, lookahead
from ..workloads.mixes import WorkloadMix
from ..workloads.scale import paper_mb_to_lines
from ..workloads.tracestore import TraceStore
from .metrics import gmean
from .multicore import (MixResult, ReconfiguringSharedRun,
                        SharedCacheExperiment, SharedIntervalRecord,
                        TADRRIPSharedRun)

__all__ = ["MixSweepSpec", "MixRunRecord", "MixSweepResult", "run_mix_sweep",
           "mix_trace_seed", "ALGORITHMS"]

#: Partitioning algorithms the sweep can plug into the Talus wrapper,
#: by spec-friendly name (plain strings keep :class:`MixSweepSpec`
#: hashable and picklable).
ALGORITHMS = {
    "hill": hill_climbing,
    "lookahead": lookahead,
    "fair": fair,
}


def mix_trace_seed(base_seed: int, mix_name: str, core: int,
                   app_name: str) -> int:
    """Deterministic trace seed for one core of one mix.

    A stable function of the mix/core/app identity — not of execution
    order — so a mix simulated alone, serially, on a worker thread or in
    a supervised worker generates the same traces (the contract
    :func:`repro.sim.sweep._derive_seed` establishes for sweep points).
    """
    token = f"{mix_name}|{core}|{app_name}".encode()
    return mix64(mix64(base_seed) ^ zlib.crc32(token)) & 0x7FFFFFFF


@dataclass(frozen=True)
class MixSweepSpec:
    """Declarative description of an execution-driven multi-mix sweep.

    Attributes
    ----------
    total_mb:
        Shared LLC capacity in paper MB.
    scheme:
        Partitioning substrate under Talus ("vantage" by default — the
        paper's Talus+V/LRU configuration, native via the Vantage kernel).
    algorithm:
        Name of the partitioning algorithm Talus wraps (one of
        :data:`ALGORITHMS`: "hill", "lookahead", "fair").
    trace_accesses:
        Length of each application's trace.
    interval_accesses:
        Reconfiguration interval in accesses per application.
    backend:
        Backend of the partitioned substrate ("auto" picks the native
        fast path exactly where it is bit-identical).
    base_seed:
        Root of the per-mix trace-seed derivation.
    max_workers:
        Above 1, mixes run on a thread pool of this width when the
        native kernel is loaded (results are identical to a serial run;
        without the kernel they run serially), and a supervised sweep
        runs this many worker processes.  It only chooses how the sweep
        executes, so it is left out of comparisons and of the job key: a
        resubmission with another width is served from the bank.
    """

    total_mb: float
    scheme: str = "vantage"
    algorithm: str = "hill"
    trace_accesses: int = 60_000
    interval_accesses: int = 20_000
    safety_margin: float = 0.05
    warmup_intervals: int = 1
    monitor_points: int = 33
    granularity_mb: float | None = None
    backend: str = "auto"
    base_seed: int = 2015
    max_workers: int = field(default=1, compare=False)

    def __post_init__(self):
        if self.total_mb <= 0:
            raise ValueError("total_mb must be positive")
        if self.scheme.lower() not in SCHEME_REGISTRY:
            raise ValueError(f"unknown partitioning scheme {self.scheme!r}; "
                             f"valid schemes: "
                             f"{', '.join(sorted(SCHEME_REGISTRY))}")
        object.__setattr__(self, "scheme", self.scheme.lower())
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; valid "
                             f"algorithms: {', '.join(sorted(ALGORITHMS))}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; valid "
                             f"backends: {', '.join(BACKENDS)}")
        if self.trace_accesses <= 0 or self.interval_accesses <= 0:
            raise ValueError("trace_accesses and interval_accesses must be "
                             "positive")
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")

    def substrate_spec(self, num_apps: int) -> PartitionSpec:
        """The declarative substrate one mix of ``num_apps`` runs on."""
        return PartitionSpec(scheme=self.scheme,
                             capacity_lines=paper_mb_to_lines(self.total_mb),
                             num_partitions=2 * num_apps,
                             backend=self.backend)


@dataclass(frozen=True)
class MixRunRecord:
    """Execution outcome of one mix: interval records plus measured result."""

    mix_name: str
    app_names: tuple[str, ...]
    intervals: tuple[SharedIntervalRecord, ...]
    result: MixResult

    def to_payload(self) -> dict:
        """JSON-able record (the per-mix entry of the result bank)."""
        return {
            "mix": self.mix_name,
            "apps": list(self.app_names),
            "scheme": self.result.scheme,
            "per_app": [
                {"name": app.name, "allocation_mb": app.allocation_mb,
                 "mpki": app.mpki, "ipc": app.ipc}
                for app in self.result.apps],
            "cov_ipc": self.result.cov_ipc,
            "intervals": [
                {"index": r.index,
                 "accesses": list(r.accesses), "misses": list(r.misses),
                 "allocations_mb": list(r.allocations_mb)}
                for r in self.intervals],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MixRunRecord":
        """Inverse of :meth:`to_payload`.

        Exact: floats round-trip through JSON bit-identically (shortest
        repr), so a record banked by a supervised worker reconstructs
        equal to one computed in-process.  Tolerates pre-supervision
        payloads that lack ``scheme``/interval ``index`` fields.
        """
        from .perf_model import AppPerformance
        apps = tuple(AppPerformance(
            name=entry["name"],
            allocation_mb=float(entry["allocation_mb"]),
            mpki=float(entry["mpki"]), ipc=float(entry["ipc"]))
            for entry in payload["per_app"])
        intervals = tuple(SharedIntervalRecord(
            index=int(entry.get("index", i)),
            accesses=tuple(int(a) for a in entry["accesses"]),
            misses=tuple(int(m) for m in entry["misses"]),
            allocations_mb=tuple(float(a)
                                 for a in entry["allocations_mb"]))
            for i, entry in enumerate(payload["intervals"]))
        return cls(mix_name=payload["mix"],
                   app_names=tuple(payload["apps"]),
                   intervals=intervals,
                   result=MixResult(
                       scheme=payload.get("scheme", "talus-execution"),
                       apps=apps))


def _mix_traces(spec: MixSweepSpec, mix: WorkloadMix,
                store: TraceStore | None = None) -> list:
    """Every core's trace of one mix: from ``store`` when one is given
    (generated there on first use), else straight from its profile.  Both
    draw the same per-core seeds, so they are the same traces."""
    traces = []
    for core, app in enumerate(mix.apps):
        seed = mix_trace_seed(spec.base_seed, mix.name, core, app.name)
        traces.append(
            app.trace(n_accesses=spec.trace_accesses, seed=seed)
            if store is None else store.get(app, spec.trace_accesses, seed))
    return traces


def _run_one_mix(spec: MixSweepSpec, mix: WorkloadMix,
                 store: TraceStore | None = None) -> MixRunRecord:
    """Execute one mix end to end (a thread or supervised worker's unit)
    on its :func:`_mix_traces`."""
    traces = _mix_traces(spec, mix, store)
    run = ReconfiguringSharedRun(
        total_mb=spec.total_mb, scheme=spec.scheme,
        algorithm=ALGORITHMS[spec.algorithm],
        interval_accesses=spec.interval_accesses,
        safety_margin=spec.safety_margin,
        warmup_intervals=spec.warmup_intervals,
        monitor_points=spec.monitor_points,
        granularity_mb=spec.granularity_mb,
        backend=spec.backend)
    records = run.run(traces)
    result = run.mix_result(mix.apps, scheme_label=f"talus-{spec.algorithm}"
                                                   "-execution")
    return MixRunRecord(mix_name=mix.name, app_names=tuple(mix.app_names),
                        intervals=tuple(records), result=result)


class MixSweepResult:
    """Per-mix outcomes of a sweep, bridged to the analytic Fig. 12/13 model.

    The measured :class:`~repro.sim.multicore.MixResult` of each mix is
    directly comparable with :meth:`SharedCacheExperiment.evaluate`
    results for the same mix — :meth:`speedup` computes the executed
    weighted/harmonic speedup over the analytic ``lru-shared``
    equilibrium baseline the paper normalizes to, and
    :meth:`gmean_speedup` aggregates it across mixes as Fig. 12 does.
    """

    def __init__(self, spec: MixSweepSpec, mixes: Sequence[WorkloadMix],
                 records: Sequence[MixRunRecord]):
        self.spec = spec
        self.mixes = {mix.name: mix for mix in mixes}
        self.records: Dict[str, MixRunRecord] = {
            record.mix_name: record for record in records}
        self._experiments: Dict[str, SharedCacheExperiment] = {}
        self._baselines: Dict[tuple, MixResult] = {}

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, mix_name: str) -> MixRunRecord:
        return self.records[mix_name]

    def mix_names(self) -> list[str]:
        """Names of the executed mixes, in sweep order."""
        return list(self.records)

    # ------------------------------------------------------------------ #
    # Analytic bridges
    # ------------------------------------------------------------------ #
    def analytic_result(self, mix_name: str,
                        scheme: str = "lru-shared") -> MixResult:
        """One analytic scheme's result for a mix (cached per scheme).

        The experiment models the managed fraction from the sweep's exact
        substrate spec, so the analytic and executed runs agree on the
        partitionable capacity.
        """
        key = (mix_name, scheme)
        if key not in self._baselines:
            # One experiment per mix: the per-app miss curves it derives
            # are the expensive part and are shared by every scheme.
            if mix_name not in self._experiments:
                mix = self.mixes[mix_name]
                self._experiments[mix_name] = SharedCacheExperiment(
                    mix, total_mb=self.spec.total_mb,
                    substrate=self.spec.substrate_spec(len(mix)))
            self._baselines[key] = \
                self._experiments[mix_name].evaluate(scheme)
        return self._baselines[key]

    def executed_tadrrip(self, mix_name: str, seed: int = 0) -> MixResult:
        """The *executed* TA-DRRIP baseline for one mix (cached).

        Regenerates the mix's deterministic traces and replays them
        through one shared thread-aware DRRIP cache
        (:class:`~repro.sim.multicore.TADRRIPSharedRun`) with the sweep's
        interval interleaving — the execution-driven counterpart of the
        analytic ``"ta-drrip"`` occupancy model, comparable against this
        sweep's measured Talus results via the usual speedup methods.
        """
        key = (mix_name, "ta-drrip-execution", seed)
        if key not in self._baselines:
            mix = self.mixes[mix_name]
            traces = _mix_traces(self.spec, mix)
            run = TADRRIPSharedRun(
                total_mb=self.spec.total_mb,
                interval_accesses=self.spec.interval_accesses,
                warmup_intervals=self.spec.warmup_intervals, seed=seed)
            run.run(traces)
            self._baselines[key] = run.mix_result(mix.apps)
        return self._baselines[key]

    def speedup(self, mix_name: str, metric: str = "weighted",
                baseline_scheme: str = "lru-shared") -> float:
        """Executed speedup of one mix over an analytic baseline scheme."""
        baseline = self.analytic_result(mix_name, baseline_scheme)
        measured = self.records[mix_name].result
        if metric == "weighted":
            return measured.weighted_speedup_over(baseline)
        if metric == "harmonic":
            return measured.harmonic_speedup_over(baseline)
        raise ValueError("metric must be 'weighted' or 'harmonic'")

    def gmean_speedup(self, metric: str = "weighted",
                      baseline_scheme: str = "lru-shared") -> float:
        """Geometric-mean executed speedup across all mixes (Fig. 12)."""
        return float(gmean([self.speedup(name, metric, baseline_scheme)
                            for name in self.records]))

    def cov_ipcs(self) -> Dict[str, float]:
        """Per-mix CoV of measured per-core IPC (the Fig. 13 metric)."""
        return {name: record.result.cov_ipc
                for name, record in self.records.items()}

    # ------------------------------------------------------------------ #
    # JSON result bank
    # ------------------------------------------------------------------ #
    def to_payload(self, include_baselines: bool = True) -> dict:
        """The sweep as a JSON-able result bank.

        Schema (documented in ``docs/BENCHMARKS.md``): a ``spec`` block
        with the sweep parameters, and one ``mixes`` entry per mix with
        per-app measured performance, per-interval records, and — when
        ``include_baselines`` — the executed speedups over the analytic
        ``lru-shared`` equilibrium.
        """
        payload = {"spec": asdict(self.spec), "mixes": []}
        for name, record in self.records.items():
            entry = record.to_payload()
            if include_baselines:
                entry["weighted_speedup_vs_lru_shared"] = self.speedup(
                    name, "weighted")
                entry["harmonic_speedup_vs_lru_shared"] = self.speedup(
                    name, "harmonic")
            payload["mixes"].append(entry)
        if include_baselines and self.records:
            payload["gmean_weighted_speedup"] = self.gmean_speedup("weighted")
            payload["gmean_harmonic_speedup"] = self.gmean_speedup("harmonic")
        return payload

    def save_json(self, path, include_baselines: bool = True) -> Path:
        """Write the result bank to ``path`` (parents created).

        The write is atomic (temp file + ``os.replace``): an interrupted
        run never leaves a torn or truncated bank behind.
        """
        return atomic_write_json(path, self.to_payload(include_baselines))


def run_mix_sweep(mixes: Sequence[WorkloadMix], spec: MixSweepSpec, *,
                  max_workers: int | None = None,
                  backend: str | None = None,
                  trace_store: TraceStore | None = None,
                  supervise: bool = False,
                  bank=None) -> MixSweepResult:
    """Execute every mix of the sweep through the closed Talus loop.

    Each mix runs one :class:`~repro.sim.multicore.ReconfiguringSharedRun`
    (chunked replay, per-app UMONs, coordinated warm reconfiguration) on
    its own deterministic traces.  Mixes run one after another or, with
    ``max_workers > 1`` and the native kernel loaded, on a thread pool —
    one task per mix, since a mix's apps share one cache and must advance
    together — whose workers overlap in the GIL-releasing kernel
    replays.  Without the kernel every mix replays in Python, where
    threads would only contend for the GIL, so the mixes run serially.
    The stable per-mix seeding makes both bit-identical.

    Each mix generates its per-core traces when it runs, or takes them
    from ``trace_store`` (a :class:`~repro.workloads.tracestore.TraceStore`
    the caller owns), which generates each ``(app, length, seed)`` trace
    once across every sweep that shares it.

    ``max_workers``/``backend`` override the spec's values (the spec
    stays the single source of truth for everything a supervised worker
    needs, which is what makes it picklable).

    ``supervise=True`` (default off, preserving the in-process fast
    path) routes each mix through the fault-tolerant job runtime
    (:mod:`repro.jobs`): supervised worker processes with watchdogs and
    bounded retry, per-mix results banked in ``bank`` so interrupted
    sweeps resume.  Results are bit-identical either way.
    """
    mixes = list(mixes)
    names = [mix.name for mix in mixes]
    if len(set(names)) != len(names):
        raise ValueError("mix names must be unique")
    if backend is not None and backend != spec.backend:
        spec = replace(spec, backend=backend)
    workers = max_workers if max_workers is not None else spec.max_workers
    if supervise:
        from ..jobs.drivers import run_supervised
        from ..jobs.payloads import MixRun
        records = run_supervised([MixRun(spec, mix) for mix in mixes],
                                 max_workers=workers, bank=bank,
                                 job_timeout=1800.0)
        return MixSweepResult(spec, mixes, records)
    if workers > 1 and len(mixes) > 1 and native_available():
        with ThreadPoolExecutor(max_workers=min(workers, len(mixes))) as pool:
            futures = [pool.submit(_run_one_mix, spec, mix, trace_store)
                       for mix in mixes]
            records = [future.result() for future in futures]
    else:
        records = [_run_one_mix(spec, mix, trace_store) for mix in mixes]
    return MixSweepResult(spec, mixes, records)
