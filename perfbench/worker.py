"""One benchmark worker process: set up, warm up, then time units.

Started by ``run.py``; not meant to be run by hand.  ``--build`` only
loads (compiling on first use) the native kernel and reports its cache
key.  Otherwise the worker builds the workload's inputs, runs one
untimed warm-up unit, then repeats the unit until ``--seconds`` have
passed and writes everything it measured as JSON to ``--out``.

With ``--trace 1`` untraced and traced units alternate: the untraced ones
price the tracing overhead, the traced ones give the per-layer split.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def kernel_key() -> str | None:
    """Cache key (file stem) of the loaded native kernel, or None."""
    from repro.cache._native import get_kernel
    kernel = get_kernel()
    return None if kernel is None else Path(kernel.lib._name).stem


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def layer_checks(name: str, counts: dict, layers: dict, unit) -> list[str]:
    """Counters must equal the work the unit really did."""
    from tracing import CONTROL_PLANE
    problems = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: {got} != {want}")

    def calls(layer):
        return layers.get(layer, (0, 0))[0]

    if name != "banked":    # banked replays in its supervised workers
        expect("accesses entering cache.replay",
               counts.get("cache.replay.accesses", 0), unit.accesses)
    if name in ("churn", "mixsweep"):
        expect("accesses entering monitor.record",
               counts.get("monitor.record.accesses", 0), unit.accesses)
        expect("cache.configure.calls (replans + one initial "
               "configuration per cache)", calls("cache.configure"),
               unit.replans + unit.caches)
    if name == "matrix":
        for layer in ("monitor.record", "monitor.stack") + CONTROL_PLANE:
            expect(f"{layer}.calls on matrix", calls(layer), 0)
    return problems


def banked_checks(spans: list, hits: int, warm: tuple) -> list[str]:
    """The warm pass: every job a bank hit, no worker started.

    The cold pass submits into a fresh bank, so every bank hit of the
    unit belongs to the warm pass.
    """
    problems = []
    in_warm = [span[0] for span in spans if warm[0] <= span[1] <= warm[1]]
    waits = in_warm.count("jobs.wait")
    starts = in_warm.count("jobs.start")
    if starts:
        problems.append(f"warm pass started {starts} workers")
    if hits != waits or waits == 0:
        problems.append(f"warm pass: {hits} bank hits for {waits} jobs")
    return problems


def run(args) -> dict:
    from repro.cache._native import native_available, resolve_threads
    if not native_available():
        raise SystemExit("native kernel unavailable: refusing to measure "
                         "the pure-Python fallback")
    pins = json.loads(Path(args.pins).read_text()) if args.pins else {}
    pinned = pins.get(args.size, {}).get(args.workload) \
        if args.seed == pins.get("seed") else None

    workload = workloads.build(args.workload, args.seed, args.size,
                               Path(args.workdir))
    units = []          # one dict per unit, warm-up first
    reference = pinned  # else the first unit's digest
    observed = None     # the first digest this worker computed

    def execute(kind: str, before=None, after=None) -> dict:
        nonlocal reference, observed
        record = {"kind": kind, "failed": None}
        try:
            if before:
                before()
            start = time.perf_counter()
            try:
                result = workload.unit()
            finally:
                record["unit_seconds"] = time.perf_counter() - start
                if after:
                    after()
            record["seconds"] = (record["unit_seconds"]
                                 if result.timed_seconds is None
                                 else result.timed_seconds)
            record.update(accesses=result.accesses, digest=result.digest,
                          ops=result.ops)
            observed = observed or result.digest
            reference = reference or result.digest
            if result.digest != reference:
                record["failed"] = (f"digest {result.digest[:16]} differs "
                                    f"from reference {reference[:16]}")
            record["result"] = result
        except Exception:  # a failing unit is counted, the run goes on
            record["failed"] = traceback.format_exc()
        if record["failed"]:
            print(f"{args.workload} {kind} unit failed: {record['failed']}",
                  file=sys.stderr)
        units.append(record)
        return record

    warmup_start = time.monotonic()
    execute("warmup")

    recorder = instrumentation = None
    if args.trace:
        from tracing import Instrumentation, Recorder
        recorder = Recorder()
        instrumentation = Instrumentation(recorder)

    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        if args.trace and index % 2 == 1:
            recorder.unit = index
            record = execute("traced", instrumentation.install,
                             instrumentation.remove)
            recorder.unit = None
            record["unit_id"] = index
        else:
            execute("timed")
        index += 1
        done = time.perf_counter() >= deadline
        if done and (not args.trace or index >= 2):
            break

    output = {
        "before_warmup_s": warmup_start - args.spawned_at,
        "peak_rss_mb": peak_rss_mb(),
        "threads": resolve_threads(),
        "digest": observed,
        "pinned": pinned,
    }
    if args.trace:
        output["trace"] = summarize_trace(args, recorder, units)
    output["units"] = [{key: value for key, value in unit.items()
                        if key != "result"} for unit in units]
    return output


def summarize_trace(args, recorder, units) -> dict:
    """Per-layer split of the fastest traced unit.

    A traced unit whose counters differ from the work it did is marked
    failed.
    """
    for unit in units:
        if unit["kind"] != "traced" or unit["failed"]:
            continue
        uid = unit["unit_id"]
        counts = recorder.counts.get(uid, {})
        result = unit["result"]
        problems = layer_checks(args.workload, counts,
                                recorder.layer_times(uid), result)
        if args.workload == "banked":
            problems += banked_checks(recorder.unit_spans(uid),
                                      counts.get("jobs.bank_hits", 0),
                                      result.warm_ns)
        if problems:
            unit["failed"] = "; ".join(problems)
            print(f"{args.workload} traced unit failed: {unit['failed']}",
                  file=sys.stderr)
    traced = [u for u in units if u["kind"] == "traced" and not u["failed"]]
    untraced = [u for u in units if u["kind"] == "timed" and not u["failed"]]
    if not traced or not untraced:
        return {}
    best = min(traced, key=lambda u: u["seconds"])
    uid = best["unit_id"]
    spans_path = Path(args.workdir) / f"spans-{os.getpid()}.jsonl"
    recorder.write(spans_path, uid)
    return {
        "seconds": best["seconds"],
        "unit_seconds": best["unit_seconds"],
        "untraced_seconds": min(u["seconds"] for u in untraced),
        "layers": {name: list(value)
                   for name, value in recorder.layer_times(uid).items()},
        "counts": dict(recorder.counts.get(uid, {})),
        "spans_file": str(spans_path),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="default")
    parser.add_argument("--pins")
    parser.add_argument("--workdir")
    parser.add_argument("--spawned-at", type=float)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.build:
        from repro.cache._native import native_available
        print(json.dumps({"native": native_available(),
                          "kernel_key": kernel_key()}))
        return 0
    output = run(args)
    Path(args.out).write_text(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
