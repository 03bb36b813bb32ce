#!/usr/bin/env python
"""Quickstart: the execution-driven multi-mix sweep (Figs. 12/13).

Runs a handful of random 4-app mixes through the *closed* Talus loop —
per-app UMONs measure miss curves every interval, the Talus software
wrapper re-plans, and all shadow partitions are warm-reconfigured while
the traces replay through the native Vantage kernel — then compares each
mix's measured performance against the analytic unpartitioned-LRU
baseline, exactly as Fig. 12 normalizes its results.

Run with::

    PYTHONPATH=src python examples/mix_sweep.py
"""

from repro.sim import MixSweepSpec, run_mix_sweep
from repro.workloads import random_mixes


def main() -> None:
    mixes = random_mixes(4, apps_per_mix=4, seed=2015)
    spec = MixSweepSpec(
        total_mb=4.0,          # shared LLC (paper MB)
        scheme="vantage",      # Talus+V/LRU, the paper's main config
        algorithm="hill",      # naive hill climbing — enough, thanks to Talus
        trace_accesses=40_000,
        interval_accesses=10_000,
        max_workers=2,         # mixes fan out over a thread pool
    )
    result = run_mix_sweep(mixes, spec)

    print(f"{'mix':>8s} {'apps':40s} {'weighted':>9s} {'harmonic':>9s} "
          f"{'CoV IPC':>8s}")
    for name in result.mix_names():
        record = result[name]
        apps = ",".join(record.app_names)
        print(f"{name:>8s} {apps:40s} "
              f"{result.speedup(name, 'weighted'):9.3f} "
              f"{result.speedup(name, 'harmonic'):9.3f} "
              f"{record.result.cov_ipc:8.3f}")
    print(f"\ngmean weighted speedup over unpartitioned LRU: "
          f"{result.gmean_speedup('weighted'):.3f}")
    print("(speedups are executed Talus+V/LRU vs the analytic lru-shared "
          "equilibrium)")

    # The whole sweep serializes to a JSON result bank (the schema is
    # documented in docs/BENCHMARKS.md).
    path = result.save_json("benchmarks/out/example_mix_sweep.json")
    print(f"result bank written to {path}")


if __name__ == "__main__":
    main()
