"""Self-tests of the benchmark, at reduced size.

    python3 -m pytest perfbench -q

They run ``run.py`` as the driver does and check the output contract, plus
the tracer's two pieces of arithmetic (self time and RNG word counts).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = "0.02"

sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402
from tracing import Span, busy_time, rng_position, self_times  # noqa: E402


@cache
def bench(workload: str, seed: int, trace: int, repeat: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--scale", SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_are_unique_and_workloads_exist():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_have_names_and_units(workload):
    res = bench(workload, 1, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_have_names_and_units(workload):
    res = bench(workload, 1, 1)
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected("per_layer")


def rng_words(res: dict) -> dict:
    return {k: v["value"] for k, v in res["metrics"].items() if ".rng_words_per_sample." in k}


def test_rng_words_repeat_exactly_at_one_seed():
    first, second = bench("spectra", 1, 1), bench("spectra", 1, 1, repeat=1)
    assert rng_words(first) == rng_words(second)
    assert all(v > 0 for v in rng_words(first).values())


def test_other_seed_changes_inputs_not_metric_names():
    one, two = bench("spectra", 1, 1), bench("spectra", 2, 1)
    assert set(one["metrics"]) == set(two["metrics"])
    assert rng_words(one) != rng_words(two)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _span(span_id, parent, start, end):
    return Span(1, span_id, parent, "x", "x", start, end, False, None, None)


def test_self_time_subtracts_the_union_of_children():
    spans = [_span(1, 0, 0.0, 10.0),
             _span(2, 1, 1.0, 4.0), _span(3, 1, 3.0, 5.0),   # overlapping (threads)
             _span(4, 1, 8.0, 12.0),                          # clipped at the parent's end
             _span(5, 2, 1.5, 2.0)]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(2.5)


def test_busy_time_counts_overlapping_spans_once():
    spans = [_span(1, 0, 0.0, 4.0), _span(2, 0, 1.0, 5.0), _span(3, 0, 7.0, 8.0)]
    assert busy_time(spans) == pytest.approx(6.0)
    assert busy_time([]) == 0.0


def test_rng_position_counts_words():
    gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    for draw, words in ((lambda: gen.random(7), 7), (lambda: gen.integers(0, 2**63, 5), 5),
                        (lambda: gen.random(1), 1)):
        before = rng_position(gen)
        draw()
        assert rng_position(gen) - before == words
