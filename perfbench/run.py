"""Run one workload of the aecomm benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep_onehot --seed 1 --seconds 20 --trace 0

Set-up is timed first, in fresh interpreters (setup_probe.py). Then one
process, one caller, closed loop: a reference pass (warm-up, and the exact
reproduction count), then timed passes of the workload until --seconds
have elapsed. Between operations the calibration kernel that pass_cost
divides by is timed (calibration.py, in a child process of its own). Every
operation's output is checked.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run, whose passes alternate between untraced and traced so that
the tracing overhead is measured in the same run. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The lines
before it name every metric of the workload with its unit, the error rate
and the environment; the full report (and the spans, when traced) is
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from ctypes import CDLL, c_int
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_PAIRS = 7
# median seconds of setup_probe.py's reference import on the 2-vCPU host
# (OpenBLAS 0.3.31, numpy 2.4, python 3) the benchmark was defined on
REFERENCE_IMPORT_S = 0.048
WORKLOADS = ("train", "sweep_onehot", "sweep_gdr", "baseline", "adaptive")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the calibration.py kernel of each workload's kind of work, and how much
# operation time may pass between two timings of it
KERNEL = {"train": "steps", "sweep_onehot": "arrays", "sweep_gdr": "arrays",
          "baseline": "arrays", "adaptive": "arrays"}
CALIBRATE_EVERY_S = 0.25

# op kind -> named throughput, over the operations of that kind in a pass
THROUGHPUT = {
    "train": ("train_samples_per_s", "samples/s"),
    "eval:onehot_m16": ("eval_m16_blocks_per_s", "blocks/s"),
    "eval:onehot_m64": ("eval_m64_blocks_per_s", "blocks/s"),
    "eval:gdr_m8x4": ("eval_gdr8x4_blocks_per_s", "blocks/s"),
    "baseline": ("baseline_blocks_per_s", "blocks/s"),
    "analyze": ("analyze_samples_per_s", "samples/s"),
    "adaptive": ("adaptive_points_per_s", "points/s"),
}

# per pass; self times are medians over traced passes, counts come from
# the first traced pass and repeat exactly for a given seed
LAYER_METRICS = (
    ("nn.backward_pass.self_s", "s"), ("nn.backward_pass.calls", "count"),
    ("nn.adam_step.self_s", "s"),
    ("model.train.self_s", "s"), ("model.transmit.self_s", "s"),
    ("model.transmit.rows", "count"), ("model.receive.self_s", "s"),
    ("model.receive.rows", "count"), ("model.receive.calls", "count"),
    ("model.receive.rows_per_call", "rows/call"), ("model.load_checkpoint.s", "s"),
    ("channel.awgn.self_s", "s"), ("channel.awgn.calls", "count"),
    ("codebooks.decode_batch.self_s", "s"), ("codebooks.decode_batch.rows", "count"),
    ("codebooks.gray_bit_errors.self_s", "s"), ("codebooks.subset_codebook.self_s", "s"),
    ("metrics.estimate_bler.self_s", "s"), ("metrics.estimate_bler.blocks", "count"),
    ("adaptive.probe_mses.self_s", "s"), ("adaptive.probe_mses.rows", "count"),
    ("adaptive.select_vectors.self_s", "s"),
    ("adaptive.probe_rows_per_eval_block", "ratio"),
    ("hamming.baseline_block_errors.self_s", "s"), ("hamming.hamming_encode.self_s", "s"),
    ("hamming.hamming_decode_hd.self_s", "s"), ("hamming.hamming_decode_ml.self_s", "s"),
    ("analysis.mse_decomposition.self_s", "s"), ("analysis.active_fraction", "fraction"),
    ("trace.overhead_s", "s"), ("trace.unaccounted_s", "s"),
    ("reference.exact_matches", "count"),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pin_blas_threads() -> None:
    """One BLAS thread (at most nproc); must run before numpy is imported.

    With one thread the workloads and the calibration kernel both run on
    one core, so the calibration tracks the speed the workloads get.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


class Calibration:
    """calibration.py in a process of its own, timed between operations.

    The kernel is timed once at the start, then again once
    CALIBRATE_EVERY_S of operation time has gone by, and at the end of each
    pass. Each operation's calibration_s is the mean of the two kernel
    times around it. The host's speed drifts within seconds, so a kernel
    timed right around an operation tracks it better than one timed once
    per pass: in 20-second train runs the spread of pass_cost between runs
    fell from 10% to 3.4% (six runs each).
    """

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.pending = []
        self.spent = 0.0  # wall seconds the benchmark process waited for the kernel

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "calibration.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.__exit__()
            raise BenchError("the calibration kernel did not start")
        self.last = self._time()
        return self

    def _time(self) -> float:
        start = perf_counter()
        self.proc.stdin.write(self.kernel + "\n")
        self.proc.stdin.flush()
        seconds = float(self.proc.stdout.readline())
        self.spent += perf_counter() - start
        return seconds

    def between(self, op) -> None:
        self.pending.append(op)
        if sum(o.seconds for o in self.pending) >= CALIBRATE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        seconds = self._time()
        for op in self.pending:
            op.calibration_s = (self.last + seconds) / 2.0
        self.pending.clear()
        self.last = seconds

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _probe(*args: str) -> float:
    try:
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *args],
                              capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        raise BenchError("set-up took over 120 s") from None
    if done.returncode != 0:
        raise BenchError(f"set-up failed: {done.stderr.strip().splitlines()[-1:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["seconds"])


def cold_setup() -> tuple[float, list]:
    """setup_s and its (set-up, reference) pairs of seconds.

    Each cold set-up is followed by the reference import, timed the same
    way. Both are interpreter and file-system work, and they slow down
    together when the shared host does: over 30 groups of 9 pairs on a
    2-vCPU host, raw set-up medians spread 12% between groups and the
    pair ratios 3.5%.
    setup_s is the median pair ratio times REFERENCE_IMPORT_S: set-up
    seconds on a host where the reference import takes that long.
    """
    pairs = [(_probe(), _probe("--reference")) for _ in range(SETUP_PAIRS)]
    return REFERENCE_IMPORT_S * statistics.median(s / r for s, r in pairs), pairs


def _blas_threads(np) -> int | None:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(nproc: int) -> dict:
    import numpy as np

    import aecomm

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": nproc,
        "aecomm_version": aecomm.__version__,
        "aecomm_commit": _git_commit(),
    }


def pass_cost(passes: list) -> float:
    """A pass's time in units of its calibration kernel, operation by
    operation: the sum over operations of the median, over passes, of the
    operation's seconds over the kernel seconds timed around it."""
    return sum(statistics.median(ops[i].seconds / ops[i].calibration_s for ops in passes)
               for i in range(len(passes[0])))


def _throughputs(ops) -> dict:
    """Named work per second of one pass: summed work over summed seconds."""
    work, seconds = {}, {}
    for op in ops:
        work[op.kind] = work.get(op.kind, 0) + op.work
        seconds[op.kind] = seconds.get(op.kind, 0.0) + op.seconds
    return {THROUGHPUT[k][0]: work[k] / seconds[k] for k in work}


def _layer_metrics(tracing, tracer, traced, untraced_walls, setup_hi, exact) -> dict:
    per_pass = [(wall, *tracing.layer_totals(tracer.spans, lo, hi), ops)
                for wall, ops, lo, hi in traced]
    _, first, _, first_ops = per_pass[0]
    setup_totals, _ = tracing.layer_totals(tracer.spans, 0, setup_hi)

    def count(span: str, field: str) -> int:
        return first.get(span, {}).get(field, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    analyzed = [op for op in first_ops if op.kind == "analyze" and op.ok]
    values = {
        "model.receive.rows_per_call": ratio(count("model.receive", "rows"),
                                             count("model.receive", "calls")),
        "model.load_checkpoint.s": setup_totals["model.load_checkpoint"]["self_s"],
        "adaptive.probe_rows_per_eval_block": ratio(
            count("adaptive.probe_mses", "rows"), count("metrics.estimate_bler", "rows")),
        "analysis.active_fraction": ratio(
            sum(op.output["active_fraction"] * op.work for op in analyzed),
            sum(op.work for op in analyzed)),
        "trace.overhead_s": statistics.median(w for w, *_ in per_pass)
        - statistics.median(untraced_walls),
        "trace.unaccounted_s": statistics.median(w - top for w, _, top, _ in per_pass),
        "reference.exact_matches": exact,
    }
    for name, _ in LAYER_METRICS:
        if name in values:
            continue
        span, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = statistics.median(t.get(span, {}).get("self_s", 0.0)
                                             for _, t, _, _ in per_pass)
        else:
            values[name] = count(span, "rows" if field == "blocks" else field)
    return values


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, run the passes, check; returns (result line, full report)."""
    if not (SRC / "aecomm" / "__init__.py").is_file():
        raise BenchError(f"no aecomm sources under {SRC}")
    nproc = _nproc()
    _pin_blas_threads()
    setup_s, setup_pairs = cold_setup()
    # the passes and the calibration kernel share one CPU, so that the
    # kernel measures the speed the passes got
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import tracing
    import workloads as w

    tracer = tracing.Tracer() if trace else None
    if tracer:
        with tracer.installed():
            fx = w.setup()
    else:
        fx = w.setup()
    if fx.reference is None:
        raise BenchError("fixtures/reference.json is missing; run make_fixtures.py")
    setup_hi = len(tracer.spans) if tracer else 0

    ref_ops = w.PASSES[workload](fx, w.REFERENCE_SEED, 0)
    expected = fx.reference["exact"][workload]
    exact = sum(op.fingerprint == expected.get(op.label) for op in ref_ops)
    all_ops = list(ref_ops)
    untraced, traced = [], []  # (wall, ops) and (wall, ops, span lo, span hi)
    with Calibration(KERNEL[workload]) as calibration:
        deadline = perf_counter() + seconds
        p = 1
        while True:
            traced_pass = tracer is not None and p % 2 == 0
            lo = len(tracer.spans) if traced_pass else 0
            spent = calibration.spent
            with tracer.installed() if traced_pass else nullcontext():
                start = perf_counter()
                ops = w.PASSES[workload](fx, seed, p, calibration.between)
                calibration.flush()
                wall = perf_counter() - start - (calibration.spent - spent)
            if traced_pass:
                traced.append((wall, ops, lo, len(tracer.spans)))
            else:
                untraced.append((wall, ops))
            all_ops.extend(ops)
            p += 1
            if perf_counter() >= deadline and (traced or not tracer):
                break
    # over set-up and every pass; the calibration kernel runs in its own process
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = [op for op in all_ops if not op.ok]
    named = {THROUGHPUT[kind][0]: statistics.median(_throughputs(ops)[THROUGHPUT[kind][0]]
                                                    for _, ops in untraced)
             for kind in {op.kind for op in ref_ops}}
    units = dict(THROUGHPUT.values())
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes_untraced": len(untraced), "passes_traced": len(traced),
        "setup_pairs_s": setup_pairs,
        "pass_walls": [wall for wall, _ in untraced],
        "kernel": KERNEL[workload],
        "calibration_s": [[op.calibration_s for op in ops] for _, ops in untraced],
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "setup_raw_s": {"value": statistics.median(s for s, _ in setup_pairs), "unit": "s"},
            "pass_cost": {"value": pass_cost([ops for _, ops in untraced]), "unit": "ratio"},
            "wall_s": {"value": statistics.median(wall for wall, _ in untraced), "unit": "s"},
            **{k: {"value": v, "unit": units[k]} for k, v in sorted(named.items())},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "error_rate": {"value": len(failed) / len(all_ops), "unit": "fraction"},
        },
        f"{workload}.{'checksum_match' if workload == 'train' else 'counts_match'}":
            f"{exact}/{len(ref_ops)}",
        "failures": [f"{op.label}: {op.problem}" for op in failed[:20]],
        "environment": environment(nproc),
    }
    if tracer:
        layers = _layer_metrics(tracing, tracer, traced, [wall for wall, _ in untraced],
                                setup_hi, exact)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}
        report["layer_metrics"] = metrics
        report["spans"] = {"fields": ["name", "start", "end", "parent", "rows"],
                           "setup": tracer.spans[:setup_hi],
                           "passes": [tracer.spans[lo:hi] for _, _, lo, hi in traced]}
    else:
        metrics = {k: report["metrics"][k] for k in ("pass_cost", "setup_s", "peak_rss_mb")}
    result = {"correct": not failed, "attempted": len(all_ops), "failed": len(failed),
              "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report) + "\n")
    print(f"# environment {json.dumps(report['environment'])}")
    for name, m in report["metrics"].items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    for name, m in report.get("layer_metrics", {}).items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    for line in report["failures"]:
        print(f"# failed {line}")
    print(f"# report {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
