"""Smoke tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    # the named throughputs of this workload and the error rate, with units
    named = [line for line in lines if line.startswith("# ") and " = " in line]
    printed = {line[2:].split(" = ")[0]: line.rsplit(" ", 1)[1] for line in named}
    assert printed["error_rate"] == "fraction"
    assert printed["setup_s"] == "s" and printed["wall_s"] == "s"
    expected = {"train": ["train_samples_per_s"],
                "sweep_onehot": ["eval_m16_blocks_per_s", "eval_m64_blocks_per_s"],
                "sweep_gdr": ["eval_gdr8x4_blocks_per_s"],
                "baseline": ["baseline_blocks_per_s", "analyze_samples_per_s"],
                "adaptive": ["adaptive_points_per_s"]}[workload]
    for name in expected:
        assert printed[name] == dict(run.THROUGHPUT.values())[name]


def _same(a, b) -> bool:
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and _same(vars(a), vars(b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_tracing_changes_no_result(workload):
    fx = w.setup()
    plain = w.PASSES[workload](fx, 11, 1)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = w.PASSES[workload](fx, 11, 1)
    assert tracer.spans
    assert [op.label for op in plain] == [op.label for op in traced]
    for a, b in zip(plain, traced):
        assert a.ok and b.ok, (a.problem, b.problem)
        assert a.fingerprint == b.fingerprint, a.label
        assert _same(a.output, b.output), a.label
    # every rebound name is restored
    assert w.metrics.decode_batch is w.aecomm.codebooks.decode_batch
    assert not hasattr(w.model.Autoencoder.transmit, "__wrapped__")


def test_traced_counts_repeat():
    fx = w.setup()
    totals = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            w.PASSES["sweep_gdr"](fx, 5, 1)
        layers, _ = tracing.layer_totals(tracer.spans, 0, len(tracer.spans))
        totals.append({k: (v["calls"], v["rows"]) for k, v in layers.items()})
    assert totals[0] == totals[1]


def test_pass_cost_sums_per_operation_medians():
    def op(seconds, kernel_s):
        return w.Op("k", "l", seconds, 1, None, None, None, kernel_s)

    passes = [[op(1.0, 0.5), op(3.0, 1.0)],
              [op(2.0, 0.5), op(3.0, 1.5)],
              [op(1.5, 0.5), op(6.0, 1.0)]]
    # medians of 2, 4, 3 and of 3, 2, 6
    assert run.pass_cost(passes) == 6.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "sweep_gdr", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
