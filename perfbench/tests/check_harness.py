"""Tests of the benchmark harness itself.

Run from the repository root (the file is named so that the repository's
own test run does not collect it; the smoke runs take about half a
minute)::

    python3 -m pytest perfbench/tests/check_harness.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import stats  # noqa: E402
from tracing import Recorder, self_times  # noqa: E402


# --------------------------------------------------------------------- #
# Reducers
# --------------------------------------------------------------------- #
def test_fastest_unit_is_the_minimum():
    assert stats.fastest([1.3, 0.9, 1.7, 0.95]) == 0.9
    with pytest.raises(ValueError):
        stats.fastest([])


def test_setup_counts_the_warmup_only_beyond_the_fastest_unit():
    # The warm-up took 0.3 s longer than the fastest unit: that is what
    # filling first-use caches cost.
    assert stats.setup_time(0.5, 1.3, [1.2, 1.0, 1.1]) == pytest.approx(0.8)
    # A warm-up no slower than the fastest unit adds nothing.
    assert stats.setup_time(0.5, 0.9, [1.0, 1.2]) == 0.5


def test_each_op_is_taken_at_its_fastest_across_units():
    units = [[5.0, 1.0, 9.0], [4.0, 2.0, 9.5], [6.0, 1.5, 8.0]]
    assert stats.fastest_per_op(units) == [4.0, 1.0, 8.0]
    with pytest.raises(ValueError):
        stats.fastest_per_op([[1.0, 2.0], [1.0]])


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 119)]           # 118 samples
    pct, value, count = stats.tail_percentile(samples)
    assert count == 118 and pct <= 90.0
    assert sum(1 for s in samples if s > value) >= 10
    # 15 samples: the 90th percentile has only 1 beyond; the highest
    # percentile with ten beyond is rank 5.
    pct, value, count = stats.tail_percentile([float(i) for i in range(15)])
    assert (value, count) == (4.0, 15)
    assert pct == pytest.approx(100 * 5 / 15)


def test_tail_percentile_with_fewer_than_eleven_samples_is_the_slowest():
    assert stats.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)


# --------------------------------------------------------------------- #
# Self time
# --------------------------------------------------------------------- #
class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_subtracts_nested_spans_of_the_same_thread_only():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    rec.unit = 7
    outer = rec.open("cache.replay")            # 0 .. 100
    clock.now = 10
    inner = rec.open("cache.steer")             # 10 .. 40
    clock.now = 40
    rec.close(inner)

    def other_thread():
        # Opens while ``outer`` is open on the main thread, but on
        # another thread: a root there, never outer's child.
        span = rec.open("monitor.record")       # 40 .. 90
        clock.now = 90
        rec.close(span)

    worker = threading.Thread(target=other_thread)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    clock.now = 100
    rec.close(outer)

    times = self_times(rec.unit_spans(7))
    assert times["cache.replay"] == (1, 100 - 30)
    assert times["cache.steer"] == (1, 30)
    assert times["monitor.record"] == (1, 50)
    assert [span[4] for span in rec.spans] == [7, 7, 7]


def test_wrapped_calls_record_spans_and_counters():
    clock = FakeClock()
    rec = Recorder(clock=clock)

    def work(n):
        clock.now += n
        return n

    traced = rec.wrap("core.hull", work,
                      lambda args, kwargs, result: rec.count("n", result))
    rec.unit = 1
    assert traced(5) == 5 and traced(3) == 3
    assert rec.layer_times(1) == {"core.hull": (2, 8)}
    assert rec.counts[1]["n"] == 8


# --------------------------------------------------------------------- #
# The command end to end, at tiny size
# --------------------------------------------------------------------- #
def bench(*args, cwd=ROOT, timeout=300):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


TINY = ("--size", "tiny", "--seconds", "1")


@pytest.mark.parametrize("workload", ["churn", "mixsweep", "matrix",
                                      "banked"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(workload, trace):
    code, lines = bench("--workload", workload, "--trace", trace, *TINY)
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: unit for name, unit in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert any("(pinned, matches)" in line for line in lines), lines


def test_flipped_digest_fails_the_run(tmp_path):
    pins = json.loads((BENCH / "digests.json").read_text())
    digest = pins["tiny"]["churn"]
    pins["tiny"]["churn"] = digest[::-1]
    flipped = tmp_path / "digests.json"
    flipped.write_text(json.dumps(pins))
    code, lines = bench("--workload", "churn", "--pins", str(flipped), *TINY)
    result = json.loads(lines[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0 and result["failed"] <= result["attempted"]


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "churn", cwd=tmp_path, timeout=60)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
