"""Benchmark of the Talus reproduction: one workload, one run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload churn --seed 2015 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split from a traced run.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
0 only when every unit's simulated output was correct.  See README.md
beside this file for the metrics, the workloads and the host-noise
measurements behind the design.

The run builds the native kernel first (into ``.bench_build/`` of the
checkout, untimed), then starts :data:`WORKERS` worker processes one
after another.  Each one sets up (imports, kernel load, inputs, one
untimed warm-up unit) and then repeats the workload's unit for its share
of ``--seconds``.  Throughput comes from the run's fastest unit, each
operation's time from its fastest repetition and set-up time from the
fastest worker, because interference on a shared host only ever adds
time (see ``stats.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from tracing import LAYERS  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

DEFAULT_SEED = 2015
#: Worker processes of a run, started one after another, each set up afresh.
WORKERS = 3
END_TO_END = (("setup_s", "s"), ("accesses_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("peak_rss_mb", "MB"))
PER_LAYER = tuple(
    [(f"{layer}.{suffix}", unit) for layer in LAYERS
     for suffix, unit in (("calls", "count"), ("self_s", "s"),
                          ("share", "ratio"))]
    + [("core.curve.evals", "count"), ("monitor.sampled_frac", "ratio"),
       ("jobs.retries", "count"), ("jobs.bank_hits", "count"),
       ("trace.overhead", "ratio")])

#: Environment variables that would change the program being measured,
#: with the only value the benchmark accepts (None: must be unset).
PINNED_ENV = {"REPRO_NATIVE": "1", "REPRO_THREADS": "1",
              "REPRO_NATIVE_CFLAGS": None, "REPRO_JOBS_START": None}


class Refused(Exception):
    """The run cannot measure the intended program here."""


def check_environment() -> None:
    for name, allowed in PINNED_ENV.items():
        value = os.environ.get(name)
        if value is not None and value != allowed:
            raise Refused(f"{name}={value!r} in the environment would change "
                          f"the program being measured")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise Refused(f"no repro sources under {ROOT / 'src'}: run from the "
                      f"root of a checkout")


def worker_env(work: Path) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), REPRO_THREADS="1",
               XDG_CACHE_HOME=str(ROOT / ".bench_build" / "perfbench"
                                  / "cache"),
               TMPDIR=str(work / "tmp"))
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def run_process(cmd: list, env: dict, timeout: float) -> str:
    """Run ``cmd`` in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{cmd[2:4]} exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[2:4]} exited with {proc.returncode}")
    return out


def cgroup_cpu_quota() -> dict:
    """The cgroup CPU quota (v2 ``cpu.max``, else v1 CFS quota/period)."""
    v2 = Path("/sys/fs/cgroup/cpu.max")
    v1 = Path("/sys/fs/cgroup/cpu")
    try:
        if v2.is_file():
            quota, period = v2.read_text().split()
            source = "v2 cpu.max"
        else:
            quota = (v1 / "cpu.cfs_quota_us").read_text().strip()
            period = (v1 / "cpu.cfs_period_us").read_text().strip()
            source = "v1 cpu.cfs_quota_us"
    except (OSError, ValueError):
        return {"source": None, "cpus": None}
    limited = quota not in ("max", "-1")
    return {"source": source, "quota_us": quota, "period_us": period,
            "cpus": int(quota) / int(period) if limited else None}


def host_record(seed: int, kernel_key: str, outputs: list) -> dict:
    """How much parallelism the host really had, and what ran on it."""
    return {"nproc": os.cpu_count(),
            "sched_getaffinity": sorted(os.sched_getaffinity(0)),
            "cgroup_cpu_quota": cgroup_cpu_quota(),
            "threads": sorted({out["threads"] for out in outputs}),
            "seed": seed, "kernel_key": kernel_key}


# --------------------------------------------------------------------- #
# Reducing the workers' measurements
# --------------------------------------------------------------------- #
def end_to_end(outputs: list) -> tuple[dict, str]:
    """The end-to-end metrics, and a note on what ``op_p90_ms`` is."""
    timed = [u for out in outputs for u in out["units"]
             if u["kind"] == "timed" and not u["failed"]]
    if not timed:
        raise ValueError("no successful timed unit")
    ops = stats.fastest_per_op([u["ops"] for u in timed])
    pct, tail, count = stats.tail_percentile(ops)
    setups = []
    for out in outputs:
        own = [u["unit_seconds"] for u in out["units"]
               if u["kind"] == "timed" and not u["failed"]]
        if own:     # a worker's first unit is its warm-up
            setups.append(stats.setup_time(
                out["before_warmup_s"], out["units"][0]["unit_seconds"], own))
    metrics = {"setup_s": stats.fastest(setups),
               "accesses_per_s": timed[0]["accesses"]
               / stats.fastest([u["seconds"] for u in timed]),
               "op_p50_ms": 1e3 * stats.median(ops),
               "op_p90_ms": 1e3 * tail,
               "peak_rss_mb": max(o["peak_rss_mb"] for o in outputs)}
    return metrics, (f"op_p90_ms is the p{pct:g} of {count} ops per unit, "
                     f"each at its fastest over {len(timed)} timed units")


def per_layer(outputs: list) -> dict:
    """Split of the run's fastest traced unit; overhead over all units."""
    traces = [o["trace"] for o in outputs if "layers" in o["trace"]]
    if not traces:
        raise ValueError("no successful traced unit")
    best = min(traces, key=lambda t: t["seconds"])
    metrics = {}
    for layer in LAYERS:
        calls, self_ns = best["layers"].get(layer, (0, 0))
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_ns / 1e9
        metrics[f"{layer}.share"] = self_ns / 1e9 / best["unit_seconds"]
    counts = best["counts"]
    # Both monitors of a CombinedUMON observe each access it records.
    observed = 2 * counts.get("monitor.record.accesses", 0)
    metrics["core.curve.evals"] = counts.get("core.curve.evals", 0)
    metrics["monitor.sampled_frac"] = (
        counts.get("monitor.stack.accesses", 0) / observed if observed
        else 0.0)
    metrics["jobs.retries"] = counts.get("jobs.retries", 0)
    metrics["jobs.bank_hits"] = counts.get("jobs.bank_hits", 0)
    metrics["trace.overhead"] = (
        min(t["seconds"] for t in traces)
        / min(t["untraced_seconds"] for t in traces) - 1.0)
    return metrics


def count_failures(outputs: list) -> tuple[int, int, list]:
    """(attempted, failed, reasons) over the workers' units: a unit fails
    when it raises, when its digest differs from the reference, or, when
    traced, when its counters differ from the work it did.  Workers that
    disagree on the digest count as one more failure."""
    units = [u for out in outputs for u in out["units"]]
    reasons = [u["failed"].strip().splitlines()[-1]
               for u in units if u["failed"]]
    digests = {out["digest"] for out in outputs}
    if len(digests) > 1:
        reasons.append(f"workers disagree on the digest: {sorted(digests)}")
    return len(units), len(reasons), reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the Talus reproduction on one workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default %(default)s, the seed "
                             "whose output digests are pinned)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of the whole run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="default",
                        help="input size; 'tiny' is for the harness tests")
    parser.add_argument("--pins", default=str(HERE / "digests.json"),
                        help="JSON file of pinned output digests")
    args = parser.parse_args(argv)

    try:
        check_environment()
    except Refused as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 2
    work = (ROOT / ".bench_build" / "perfbench" / "runs"
            / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    work.mkdir(parents=True, exist_ok=True)
    env = worker_env(work)
    worker = [sys.executable, str(HERE / "worker.py")]

    try:
        build = json.loads(run_process(worker + ["--build"], env,
                                       timeout=850).strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        build = {"native": False, "error": str(exc)}
    if not build["native"]:
        print(f"perfbench: refused: the native kernel is unavailable "
              f"{build.get('error', '')}", file=sys.stderr)
        return 2

    outputs = []
    crashed = []
    share = args.seconds / WORKERS
    # Every worker together must end within the run's time limit.
    deadline = time.monotonic() + args.seconds + 145
    for index in range(WORKERS):
        out = work / f"worker-{index}.json"
        cmd = worker + ["--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", repr(share), "--trace", str(args.trace),
                        "--size", args.size, "--pins", args.pins,
                        "--workdir", str(work), "--out", str(out),
                        "--spawned-at", repr(time.monotonic())]
        try:
            run_process(cmd, env, timeout=deadline - time.monotonic())
            outputs.append(json.loads(out.read_text()))
        except (RuntimeError, OSError, ValueError) as exc:
            crashed.append(str(exc))

    host = host_record(args.seed, build["kernel_key"], outputs)
    attempted, failed, reasons = count_failures(outputs)
    attempted += len(crashed)
    failed += len(crashed)
    reasons += crashed
    note = ""
    try:
        if args.trace:
            metrics = per_layer(outputs)
        else:
            metrics, note = end_to_end(outputs)
    except ValueError as exc:
        reasons.append(str(exc))
        metrics = {}
    units = dict(PER_LAYER if args.trace else END_TO_END)
    attempted = max(attempted, 1)
    failed = min(max(failed, 1 if reasons else 0), attempted)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size}: {len(outputs)} workers, {attempted} units")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:28s} {metrics[name]:>16.6g} {unit}")
    print(f"  {'failed_frac':28s} {failed / attempted:>16.6g} "
          f"ratio ({failed}/{attempted})")
    if note:
        print(f"  ({note})")
    for reason in reasons:
        print(f"  FAILED: {reason}")
    if outputs:
        pinned = outputs[0]["pinned"]
        verdict = ("not pinned" if pinned is None
                   else "pinned, matches" if pinned == outputs[0]["digest"]
                   else "pinned, DIFFERS")
        print(f"digest {args.workload} seed={args.seed} size={args.size}: "
              f"{outputs[0]['digest']} ({verdict})")
    print("host " + json.dumps(host))

    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()
                          if name in metrics}}
    (work / "result.json").write_text(json.dumps(
        {"result": result, "host": host, "reasons": reasons,
         "workers": outputs}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
