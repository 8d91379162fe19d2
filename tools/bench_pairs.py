"""Pair benchmark runs of two checkouts and write a BENCH_<label>.json record.

    python3 tools/bench_pairs.py --parent ../parent --change . --label receive_tiles \
        --workloads train,sweep_onehot,sweep_gdr,baseline,adaptive --seeds 11-15

Each checkout runs its own `perfbench/run.py --workload W --seed S
--seconds T --trace 0` in a subprocess, one run at a time, with T the
`run_seconds` of the change's BENCHMARK.json. For each seed every workload
runs on both sides before the next seed; odd seeds run the parent first
and even seeds the change first. Per workload and gated metric the record
holds every run, the pairs each side won (a tie counts for neither), numpy
linear quartiles, the median change in percent and the parent's
interquartile range. The record is written to the current directory.

--stages also times, on each side, in processes pinned to one CPU with one
BLAS thread: receive (into a kept output array, as estimate_bler calls
it), decode_batch and
estimate_bler on one 65,536-block chunk per perfbench fixture, decode_batch
on a 4-entry subset of gdr_m8x4 (what an adaptive point decodes),
probe_mses at K=100 on the two 64-entry fixtures, the first and second
estimate_bler chunk of a fresh process on onehot_m64 (what a one-shot
`aecomm evaluate` pays before any buffer is kept), and the training step
split into the batch draw, backward_pass and adam_step at one-hot M=8
(10 dB and fig10's SNR set) and M=64 (5 dB); one 65,536-block baseline_block_errors chunk per
scheme, split into the draw, the decode and the rest (modulation and error
count); and one 65,536-sample mse_decomposition chunk on onehot_m4. Each
timing is the median of STAGE_ROUNDS processes a side, the sides taking
turns, so a slow spell on the host does not land on one side only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

GATED = ("pass_cost", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")
CHUNK = 1 << 16
# --stages runs each stage process this many times a side, and the
# one-sample first-call process FIRST_CALL_PROCESSES times
STAGE_ROUNDS = 5
FIRST_CALL_PROCESSES = 15

# run inside a checkout; prints per-fixture timings as one JSON object
STAGE_SNIPPET = r"""
import json, os, statistics, sys, time
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, "src")
import numpy as np
from aecomm.adaptive import probe_mses
from aecomm.channel import ChannelSpec, awgn, spawn_rng
from aecomm.codebooks import data_rate, decode_batch, subset_codebook
from aecomm.metrics import estimate_bler
from aecomm.model import load_checkpoint

CHUNK = 1 << 16
# a 4-entry subset codebook of gdr_m8x4, as an adaptive point keeps
SUBSET = (0, 21, 42, 63)

def median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(1e3 * statistics.median(times), 1)

out = {}
for name in ("onehot_m16", "onehot_m64", "gdr_m8x4"):
    m = load_checkpoint(f"perfbench/fixtures/{name}.ckpt")
    spec = ChannelSpec.from_ebn0(m.n, data_rate(m.codebook, m.n), 4.0)
    ids = np.random.default_rng(0).integers(0, len(m.codebook), size=CHUNK)
    y = awgn(m.transmit(m.codebook.entries)[ids], spec.sigma2, np.random.default_rng(1))
    kept = np.empty((CHUNK, m.M))
    receive = median_ms(lambda: m.receive(y, out=kept), 15)
    p = m.receive(y)
    decode = median_ms(lambda: decode_batch(p, m.codebook), 15)
    bler = median_ms(lambda: estimate_bler(m, None, spec, CHUNK, spawn_rng(0)), 7)
    out[name] = {"receive": receive, "decode_batch": decode, "estimate_bler": bler,
                 "mblocks_per_s": round(CHUNK / bler / 1e3, 2)}
    if name == "gdr_m8x4":
        sub, _ = subset_codebook(m.codebook, SUBSET)
        ys = awgn(m.transmit(sub.entries)[ids % len(sub)], spec.sigma2,
                  np.random.default_rng(2))
        ps = m.receive(ys)
        out[name]["decode_batch_subset4"] = median_ms(lambda: decode_batch(ps, sub), 15)
    if len(m.codebook) == 64:
        probe_spec = ChannelSpec.from_snr_db(m.n, data_rate(m.codebook, m.n), 1.0)
        out[name]["probe_mses_k100"] = median_ms(
            lambda: probe_mses(m, probe_spec, 100, spawn_rng(0)), 15)
print(json.dumps(out))
"""


# run inside a checkout; prints the first and second estimate_bler chunk of
# a fresh process in milliseconds as one JSON object
FIRST_CALL_SNIPPET = r"""
import json, os, sys, time
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, "src")
from aecomm.channel import ChannelSpec, spawn_rng
from aecomm.codebooks import data_rate
from aecomm.metrics import estimate_bler
from aecomm.model import load_checkpoint

m = load_checkpoint("perfbench/fixtures/onehot_m64.ckpt")
spec = ChannelSpec.from_ebn0(m.n, data_rate(m.codebook, m.n), 4.0)
times = []
for call in range(2):
    start = time.perf_counter()
    estimate_bler(m, None, spec, 1 << 16, spawn_rng(call))
    times.append(round(1e3 * (time.perf_counter() - start), 1))
print(json.dumps({"onehot_m64": {"first_call": times[0], "second_call": times[1]}}))
"""


# run inside a checkout; prints microseconds per training step as one JSON
# object. backward_pass and adam_step are timed through wrappers that train
# calls as module attributes; the batch draw is the rest of the step.
TRAIN_STAGE_SNIPPET = r"""
import json, os, statistics, sys, time
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, "src")
from aecomm import model, nn
from aecomm.codebooks import build_onehot

spent = {}

def timed(name, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += time.perf_counter() - start
    return wrapper

nn.backward_pass = timed("backward_pass", nn.backward_pass)
nn.adam_step = timed("adam_step", nn.adam_step)
out = {}
# fig10's training SNR set
SNR_SET = dict(training_snr_set_db=(-20.0, -10.0, 0.0, 10.0, 20.0))
for label, M, snr in (("onehot_m8", 8, dict(training_snr_db=10.0)),
                      ("onehot_m8_snr_set", 8, SNR_SET),
                      ("onehot_m64", 64, dict(training_snr_db=5.0))):
    config = model.TrainingConfig(epochs=2, seed=1, **snr)
    steps = config.epochs * -(-config.train_samples // config.batch_size)
    rounds = []
    for _ in range(8):
        spent.update(backward_pass=0.0, adam_step=0.0)
        trace = model.train(model.build_model(build_onehot(M), 7, seed=1), config)
        rest = trace.wall_time_s - spent["backward_pass"] - spent["adam_step"]
        rounds.append((trace.wall_time_s, rest, spent["backward_pass"], spent["adam_step"]))
    # the first round warms caches and is dropped
    medians = [statistics.median(column) for column in zip(*rounds[1:])]
    out[label] = {name: round(1e6 * t / steps, 1) for name, t in
                  zip(("step", "batch_draw", "backward_pass", "adam_step"), medians)}
print(json.dumps(out))
"""


# run inside a checkout; prints milliseconds per 65,536-block chunk as one
# JSON object. The draw is timed through a Generator proxy, the decode
# through wrappers of whichever decoders the checkout's driver calls as
# module attributes; the rest is modulation and error count.
BASELINE_STAGE_SNIPPET = r"""
import json, os, statistics, sys, time
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, "src")
import numpy as np
from aecomm import analysis, hamming
from aecomm.model import load_checkpoint

CHUNK = 1 << 16
spent = {}

def timed(name, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += time.perf_counter() - start
    return wrapper

class TimedDraws:
    def __init__(self, rng):
        self.integers = timed("draw", rng.integers)
        self.standard_normal = timed("draw", rng.standard_normal)

# the one decode call baseline_block_errors makes
hamming._decoded_values = timed("decode", hamming._decoded_values)
out = {}
for scheme in ("hamming_hd", "hamming_ml", "uncoded_bpsk"):
    rounds = []
    for r in range(16):
        spent.update(draw=0.0, decode=0.0)
        start = time.perf_counter()
        hamming.baseline_block_errors(scheme, 4.0, CHUNK, TimedDraws(np.random.default_rng(r)))
        total = time.perf_counter() - start
        rounds.append((total, spent["draw"], spent["decode"],
                       total - spent["draw"] - spent["decode"]))
    # the first round warms caches and is dropped
    medians = [statistics.median(column) for column in zip(*rounds[1:])]
    out[scheme] = {name: round(1e3 * t, 2) for name, t in
                   zip(("chunk", "draw", "decode", "modulate_and_count"), medians)}
m = load_checkpoint("perfbench/fixtures/onehot_m4.ckpt")
times = []
for r in range(16):
    start = time.perf_counter()
    analysis.mse_decomposition(m, None, 0.05, CHUNK, np.random.default_rng(r))
    times.append(time.perf_counter() - start)
out["mse_decomposition_onehot_m4"] = {"chunk": round(1e3 * statistics.median(times[1:]), 2)}
print(json.dumps(out))
"""


def parse_seeds(text: str) -> list[int]:
    """'11-15' or '11,12,14' -> a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its result line, `#` metrics, environment and
    reference match."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {done.returncode}\n"
                         f"{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    run = {"seed": seed, "failed": result["failed"], "attempted": result["attempted"]}
    run.update({k: m["value"] for k, m in result["metrics"].items()})
    environment = report = None
    for line in lines[:-1]:
        if line.startswith("# environment "):
            environment = json.loads(line[len("# environment "):])
        elif line.startswith("# report "):
            report = json.loads((checkout / line[len("# report "):]).read_text())
        elif line.startswith("# ") and " = " in line:
            name, _, value = line[2:].partition(" = ")
            if name.endswith("_per_s"):
                run[name] = float(value.split()[0])
    run["reference_match"] = next(v for k, v in report.items() if k.endswith("_match"))
    return {"run": run, "environment": environment}


def quartiles(values) -> list[float]:
    return [round(float(q), 4) for q in np.percentile(values, [25, 50, 75])]


def summarize(parent: list[dict], change: list[dict]) -> dict:
    summary = {}
    for metric in GATED:
        a = [r[metric] for r in parent]
        b = [r[metric] for r in change]
        pq, cq = quartiles(a), quartiles(b)
        summary[metric] = {
            "pairs": len(a),
            "change_wins": sum(y < x for x, y in zip(a, b)),
            "parent_wins": sum(x < y for x, y in zip(a, b)),
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "median_change_pct": round(100.0 * (cq[1] - pq[1]) / pq[1], 1),
            "parent_iqr": round(pq[2] - pq[0], 4),
        }
    return summary


def stages(checkout: Path, snippet: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", snippet], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def stage_medians(checkouts: dict, snippet: str, repeats: int = STAGE_ROUNDS) -> dict:
    """snippet run `repeats` times on each side, alternating which side
    runs first; per side, each timing's median over the rounds."""
    rounds = {side: [] for side in SIDES}
    for r in range(repeats):
        for side in SIDES if r % 2 else SIDES[::-1]:
            rounds[side].append(stages(checkouts[side], snippet))
    return {side: {name: {key: round(statistics.median(run[name][key] for run in runs), 2)
                          for key in runs[0][name]}
                   for name in runs[0]}
            for side, runs in rounds.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workloads", default="train,sweep_onehot,sweep_gdr,baseline,adaptive")
    parser.add_argument("--seeds", default="11-15", help="e.g. 11-15 or 11,13")
    parser.add_argument("--stages", action="store_true",
                        help="also time receive and estimate_bler on one chunk per "
                             "fixture, the stages of a training step, and one "
                             "baseline and MSE-decomposition chunk")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["run_seconds"]
    workloads = args.workloads.split(",")
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    environment = {}
    for seed in parse_seeds(args.seeds):
        order = SIDES if seed % 2 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                out = run_once(checkouts[side], workload, seed, seconds)
                out["run"]["ran_first"] = side == order[0]
                runs[workload][side].append(out["run"])
                environment[side] = out["environment"]
                print(f"seed {seed} {workload} {side}: pass_cost "
                      f"{out['run']['pass_cost']:.4f} failed {out['run']['failed']}",
                      file=sys.stderr, flush=True)

    env = {k: v for k, v in environment["change"].items() if k != "aecomm_commit"}
    record = {
        "label": args.label,
        "parent_commit": environment["parent"].get("aecomm_commit"),
        "change_commit": environment["change"].get("aecomm_commit"),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "protocol": "tools/bench_pairs.py: parent and change checkouts, run one at a "
                    f"time; seeds {args.seeds}; for each seed all workloads run on both "
                    "sides before the next seed; odd seeds run the parent first, even "
                    "seeds the change first. Quartiles are numpy linear percentiles; a "
                    "pair is won by the side with the lower value, ties count for "
                    "neither.",
        "environment": env,
        "workloads": {
            w: {"summary": summarize(r["parent"], r["change"]),
                "failed_total": {side: sum(x["failed"] for x in r[side]) for side in SIDES},
                **r}
            for w, r in runs.items()
        },
    }
    if args.stages:
        record["chunk_stages_ms"] = {
            "how": f"median of 15 receive calls (into one kept output array), 15 "
                   "decode_batch calls on the received probabilities and 7 "
                   f"estimate_bler calls on one {CHUNK:,}-block chunk at Eb/N0 "
                   "4 dB, of 15 decode_batch calls on a chunk sent from and decoded "
                   "with the 4-entry subset (0, 21, 42, 63) of gdr_m8x4 "
                   "(decode_batch_subset4), and of 15 probe_mses calls at K=100, 1 "
                   "dB SNR on the 64-entry fixtures; one BLAS thread, pinned to one "
                   "CPU; median "
                   f"of {STAGE_ROUNDS} such processes a side, alternating which "
                   "side runs first",
            **stage_medians(checkouts, STAGE_SNIPPET),
        }
        record["first_call_ms"] = {
            "how": f"the first and the second {CHUNK:,}-block estimate_bler call "
                   "of a fresh process on onehot_m64 at Eb/N0 4 dB, after the "
                   "checkpoint load; one BLAS thread, pinned to one CPU; median of "
                   f"{FIRST_CALL_PROCESSES} such processes a side, alternating which "
                   "side runs first",
            **stage_medians(checkouts, FIRST_CALL_SNIPPET, FIRST_CALL_PROCESSES),
        }
        record["train_step_us"] = {
            "how": "microseconds per step of a 2-epoch train (20,000 samples, batch 45, "
                   "445 steps an epoch) at one-hot M=8, 10 dB, M=8 on fig10's SNR set "
                   "(-20, -10, 0, 10, 20 dB) and M=64, 5 dB; median of "
                   "7 trainings after one warm-up; backward_pass and adam_step timed "
                   "through wrappers, batch_draw the rest of the step (message and "
                   "noise draw, loop); one BLAS thread, pinned to one CPU; median of "
                   f"{STAGE_ROUNDS} such processes a side, alternating which side runs "
                   "first",
            **stage_medians(checkouts, TRAIN_STAGE_SNIPPET),
        }
        record["baseline_chunk_ms"] = {
            "how": f"milliseconds per {CHUNK:,}-block baseline_block_errors chunk at "
                   "Eb/N0 4 dB per scheme, split into draw (rng.integers and "
                   "rng.standard_normal, timed through a Generator proxy), decode "
                   "(the decoders the driver calls, timed through wrappers) and "
                   "modulate_and_count (the rest of the chunk), and per "
                   f"{CHUNK:,}-sample mse_decomposition on onehot_m4 at sigma2 0.05; "
                   "median of 15 calls after one warm-up, one BLAS thread, pinned to "
                   f"one CPU; median of {STAGE_ROUNDS} such processes a side, "
                   "alternating which side runs first",
            **stage_medians(checkouts, BASELINE_STAGE_SNIPPET),
        }
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
