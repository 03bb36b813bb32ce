"""``python -m repro.jobs`` — thin operator CLI for the job runtime.

Four subcommands over a shared bank directory (``--bank``, or
``$REPRO_JOB_BANK``, or ``./.repro-jobs``):

``submit``
    Build a sweep from command-line parameters and run it supervised,
    mirroring live job snapshots into ``<bank>/jobs-state.json`` so other
    terminals can watch.  Exits non-zero if any job fails.  With
    ``--schemes`` the submission is a whole policy × scheme × size
    matrix (every cell a sweep point, banked individually) instead of a
    plain policy × size sweep.
``status``
    Print the last known state of every recorded job plus bank counters.
``cancel``
    Drop a cancel marker for a job id (or ``--all``).  The submitting
    process polls the marker directory and cancels the matching live
    jobs; completed units stay banked, so a later resubmission resumes.
``gc``
    Re-verify every bank entry (evicting corrupt ones) and prune
    terminal jobs from the state file.

The CLI is deliberately daemonless: state lives in files, cancellation
in marker files, results in the bank — all atomic writes, so concurrent
invocations cannot tear each other's data.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path

from ..core.atomicio import atomic_write_json
from .bank import DEFAULT_BANK_ENV, ResultBank
from .drivers import run_supervised
from .payloads import TraceRef, sweep_points
from .queue import JobFailed, JobQueue, JobState, RetryPolicy

__all__ = ["main"]

_STATE_FILE = "jobs-state.json"
_CANCEL_DIR = "cancel"


def _bank_dir(args) -> Path:
    if args.bank:
        return Path(args.bank)
    env = os.environ.get(DEFAULT_BANK_ENV)
    return Path(env) if env else Path(".repro-jobs")


def _load_state(bank_dir: Path) -> dict:
    try:
        state = json.loads((bank_dir / _STATE_FILE).read_text())
        return state if isinstance(state, dict) else {}
    except (FileNotFoundError, json.JSONDecodeError, OSError):
        return {}


def _record_state(bank_dir: Path, jobs) -> None:
    """Merge this process's job snapshots into the shared state file."""
    state = _load_state(bank_dir)
    now = time.time()
    for job in jobs:
        state[job.id] = {**job.snapshot(), "pid": os.getpid(),
                         "updated_at": now}
    atomic_write_json(bank_dir / _STATE_FILE, state)


def _drain_cancel_markers(bank_dir: Path, queue: JobQueue) -> None:
    marker_dir = bank_dir / _CANCEL_DIR
    if not marker_dir.is_dir():
        return
    for marker in marker_dir.iterdir():
        if marker.name == "all" or queue.get(marker.name) is not None:
            if marker.name == "all":
                for job in queue.jobs():
                    queue.cancel(job)
            else:
                queue.cancel(marker.name)
            marker.unlink(missing_ok=True)


# --------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------- #
def _submit_units(args) -> tuple:
    """The sweep points one ``submit`` invocation expands to.

    The classic policy × size sweep, or with ``--schemes`` the whole
    policy × scheme × size matrix, on the profile's trace.  Each
    completed point banks under its own content key, so a resubmission
    resumes where the last run stopped.
    """
    from ..sim.sweep import MATRIX_SCHEMES, SweepSpec, matrix_configs
    policies = tuple(args.policies.split(","))
    sizes = tuple(float(s) for s in args.sizes.split(","))
    if args.schemes:
        schemes = (MATRIX_SCHEMES if args.schemes == "all"
                   else tuple(args.schemes.split(",")))
        configs = matrix_configs(
            sizes, policies, schemes, num_partitions=args.partitions,
            ways=args.ways, backend=args.backend, seed=args.seed)
    else:
        configs = SweepSpec(policies=policies, sizes_mb=sizes,
                            ways=args.ways, base_seed=args.seed,
                            backend=args.backend).expand()
    trace = TraceRef(profile=args.profile, n_accesses=args.accesses,
                     seed=args.trace_seed)
    return sweep_points(trace, configs)


def _watch(bank_dir: Path, queue: JobQueue, stop: threading.Event) -> None:
    """Every 0.2 s until ``stop`` is set, act on cancel markers and
    mirror the queue's jobs into the state file."""
    while not stop.wait(0.2):
        _drain_cancel_markers(bank_dir, queue)
        _record_state(bank_dir, queue.jobs())


def _cmd_submit(args) -> int:
    bank_dir = _bank_dir(args)
    units = _submit_units(args)
    with JobQueue(ResultBank(bank_dir), max_workers=args.workers,
                  job_timeout=args.timeout,
                  retry=RetryPolicy(max_retries=args.retries)) as queue:
        stop = threading.Event()
        watcher = threading.Thread(target=_watch,
                                   args=(bank_dir, queue, stop), daemon=True)
        watcher.start()
        try:
            # Points dealt round-robin over the workers, one job each.
            run_supervised(units, shards=args.workers, queue=queue)
        except JobFailed:
            queue.join()        # the other jobs finish before the report
        finally:
            stop.set()
            watcher.join()
        jobs = queue.jobs()
        _record_state(bank_dir, jobs)
        report = {"jobs": [job.snapshot() for job in jobs],
                  "bank": queue.bank.stats()}
        ok = all(job.state == JobState.SUCCEEDED for job in jobs)
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0 if ok else 1


def _cmd_status(args) -> int:
    bank_dir = _bank_dir(args)
    state = _load_state(bank_dir)
    bank = ResultBank(bank_dir)
    json.dump({"jobs": sorted(state.values(),
                              key=lambda row: row.get("id", "")),
               "bank": {"entries": len(bank),
                        "directory": str(bank.directory)}},
              sys.stdout, indent=2)
    print()
    return 0


def _cmd_cancel(args) -> int:
    bank_dir = _bank_dir(args)
    marker_dir = bank_dir / _CANCEL_DIR
    marker_dir.mkdir(parents=True, exist_ok=True)
    names = ["all"] if args.all else args.job_ids
    if not names:
        print("nothing to cancel (give job ids or --all)", file=sys.stderr)
        return 2
    for name in names:
        (marker_dir / name).touch()
    print(f"cancel requested for: {', '.join(names)}")
    return 0


def _cmd_gc(args) -> int:
    bank_dir = _bank_dir(args)
    bank = ResultBank(bank_dir)
    report = {"bank": bank.gc()}
    state = _load_state(bank_dir)
    live = {job_id: row for job_id, row in state.items()
            if row.get("state") not in JobState.TERMINAL}
    report["pruned_jobs"] = sorted(set(state) - set(live))
    if bank_dir.is_dir():
        atomic_write_json(bank_dir / _STATE_FILE, live)
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0


# --------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.jobs",
        description="Supervised job runtime: submit, watch, cancel and "
                    "garbage-collect banked sweep jobs.")
    parser.add_argument("--bank", default=None,
                        help=f"bank directory (default: ${DEFAULT_BANK_ENV} "
                             f"or ./.repro-jobs)")
    commands = parser.add_subparsers(dest="command", required=True)

    submit = commands.add_parser(
        "submit", help="run a policy/size sweep under supervision")
    submit.add_argument("--profile", required=True,
                        help="SPEC-style workload profile name")
    submit.add_argument("--accesses", type=int, default=50_000)
    submit.add_argument("--trace-seed", type=int, default=0)
    submit.add_argument("--policies", default="LRU",
                        help="comma-separated replacement policies")
    submit.add_argument("--sizes", default="1,2,4",
                        help="comma-separated cache sizes in paper MB")
    submit.add_argument("--schemes", default=None,
                        help="submit a whole policy x scheme x size matrix "
                             "instead of a plain sweep: comma-separated "
                             "partitioning schemes (none,way,set,ideal,"
                             "vantage) or 'all'; each cell banked "
                             "individually so resubmissions resume")
    submit.add_argument("--partitions", type=int, default=1,
                        help="partitions per partitioned matrix cell "
                             "(only with --schemes)")
    submit.add_argument("--ways", type=int, default=16)
    submit.add_argument("--seed", type=int, default=None,
                        help="sweep base seed (per-config seeds derive "
                             "from it; default: the policies' historical "
                             "seeds)")
    submit.add_argument("--backend", default="auto")
    submit.add_argument("--workers", type=int, default=2)
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="per-attempt wall-clock budget in seconds")
    submit.add_argument("--retries", type=int, default=2)
    submit.set_defaults(func=_cmd_submit)

    status = commands.add_parser(
        "status", help="print recorded job states and bank counters")
    status.set_defaults(func=_cmd_status)

    cancel = commands.add_parser(
        "cancel", help="request cancellation of live jobs")
    cancel.add_argument("job_ids", nargs="*", help="job ids to cancel")
    cancel.add_argument("--all", action="store_true",
                        help="cancel every live job")
    cancel.set_defaults(func=_cmd_cancel)

    gc = commands.add_parser(
        "gc", help="verify bank entries and prune finished jobs from the "
                   "state file")
    gc.set_defaults(func=_cmd_gc)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
