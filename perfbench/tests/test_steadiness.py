"""Steadiness checks for the benchmark itself.

Run from the repository root (each integration case drives the real
program through ``perfbench/run.py``, 20-60 s each)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, ROOT)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# the traced run's counts: a function of the input and the program only
# (bytes read are measured from the OS and may differ by a few bytes)
COUNTS = ["extract.pages", "extract.errors", "extract.html_bytes_in",
          "extract.markdown_bytes_out", "pipeline.waves",
          "frontier.offered", "frontier.admitted", "frontier.dup_hits",
          "frontier.robots_blocked", "frontier.popped", "frontier.admit_ratio",
          "frontier.snapshot_bytes", "frontier.delta_bytes",
          "cuckoo.stash_size", "cuckoo.false_positives",
          "fetch.rows_read_per_page", "trace.spans",
          "trace.replay_mismatches"]


def _bench(workload: str, seed: int, trace: int, seconds: int = 6):
    p = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_are_a_function_of_the_seed(name):
    a, b = workloads.make(name, 3), workloads.make(name, 3)
    assert a == b and a.key() == b.key()
    others = [workloads.make(name, s) for s in range(4, 9)]
    assert any(o.host_sizes != a.host_sizes for o in others)
    assert any(o.seed_order != a.seed_order for o in others)
    # the stated input size holds for every seed
    assert len({sum(o.host_sizes) for o in others + [a]}) == 1


def test_crawl_full_does_the_bulk_pages():
    bulk = workloads.make(workloads.BULK, 5)
    full = workloads.make(workloads.CRAWL_FULL, 5)
    assert bulk.key() == full.key()


@pytest.mark.parametrize("name", [workloads.CRAWL_FULL,
                                  workloads.CRAWL_POLITE_SKEW])
def test_traced_counts_repeat_exactly(name):
    _, first = _bench(name, 7, trace=1)
    _, second = _bench(name, 7, trace=1)
    assert first["correct"] and second["correct"]
    for key in COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["metrics"]["trace.replay_mismatches"]["value"] == 0


def test_every_bulk_pass_stays_in_the_sample():
    """The slow bulk pass is reported, not trimmed: the headline is the
    median of every timed pass the summary lists."""
    lines, result = _bench(workloads.BULK, 7, trace=0, seconds=10)
    m = re.search(r"(\d+) pass\(es\), pages/s: ([\d. ]+);", "\n".join(lines))
    assert m is not None
    rates = [float(x) for x in m.group(2).split()]
    assert len(rates) == int(m.group(1)) >= 2
    got = result["metrics"]["pages_per_s"]["value"]
    assert got == pytest.approx(statistics.median(rates), abs=0.1)
