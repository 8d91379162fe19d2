"""Pair benchmark runs of two checkouts and write a BENCH_<label>.json record.

    python3 tools/bench_pairs.py --parent ../parent --change . --label receive_tiles \
        --workloads train,sweep_onehot,sweep_gdr,baseline,adaptive --seeds 11-15 --trace

Each checkout runs its own `perfbench/run.py --workload W --seed S
--seconds T --trace 0` in a subprocess, one run at a time, with T the
`run_seconds` of the change's BENCHMARK.json. For each seed every workload
runs on both sides before the next seed; odd seeds run the parent first
and even seeds the change first. Per workload and end-to-end metric of
BENCHMARK.json the record holds every run, the pairs each side won (a tie
counts for neither), numpy linear quartiles, the median change in percent
and the parent's interquartile range, and a verdict against the metric's
`bound` (see `verdict`), and each side's share of failed operations over
its gated runs, "worse" when the change's is higher (see `failed_share`).
The record is written to the current directory.

--trace also runs `perfbench/run.py ... --trace 1` on both sides, in the
same side order, after each seed's gated runs of a workload, and summarizes
BENCHMARK.json's per-layer metrics of those runs in the same way. A pair is
won by the side better in the metric's `better` direction; a layer metric
that reads 0 on every run of both sides is left out.

A run that exits non-zero is recorded under its workload's `failed_runs`
(side, seed, trace flag, exit code and the last lines of its stderr), its
pair is left out of the summaries, and the series goes on; the tool then
exits 1 once the record is written.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
STDERR_LINES = 20


def parse_seeds(text: str) -> list[int]:
    """'11-15' or '11,12,14' -> a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One perfbench run; its result line, `#` metrics, environment and
    reference match, or for a run that exits non-zero its exit code and the
    last STDERR_LINES lines of its stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # ru_maxrss survives exec, so a run started from this process would count
    # this process's peak RSS (raised by every report read) in its
    # peak_rss_mb; a shell forks it from a small process instead
    done = subprocess.run(["/bin/sh", "-c", '"$@"; exit $?', "sh", *cmd], cwd=checkout,
                          capture_output=True, text=True)
    if done.returncode != 0:
        return {"exit_code": done.returncode,
                "stderr_tail": done.stderr.splitlines()[-STDERR_LINES:]}
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


def _round(value: float) -> float:
    return float(f"{value:.6g}")


def quartiles(values) -> list[float]:
    return [_round(q) for q in np.percentile(values, [25, 50, 75])]


def verdict(s: dict, better: str, bound: float) -> str:
    """One summarized metric against its bound, a fraction of the parent's
    median: "gain" when the change wins at least 9 of 10 pairs and its median
    is better by more than the parent's IQR; else "worse" when its median is
    worse by more than the bound; else "unresolved" when the parent's IQR is
    wider than the bound; else "flat"."""
    parent, change = s["parent_q1_median_q3"][1], s["change_q1_median_q3"][1]
    gain = (parent - change) if better == "lower" else (change - parent)
    if 10 * s["change_wins"] >= 9 * s["pairs"] and gain > s["parent_iqr"]:
        return "gain"
    if -gain > bound * abs(parent):
        return "worse"
    if s["parent_iqr"] > bound * abs(parent):
        return "unresolved"
    return "flat"


def failed_share(parent: list[dict], change: list[dict]) -> dict:
    """Each side's failed operations as a share of those it attempted, over
    its runs, and a verdict: "worse" when the change's share is higher than
    the parent's, else "ok". A side that attempted nothing has a share of 0."""
    share = {side: sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
             for side, runs in zip(SIDES, (parent, change))}
    return {**share, "verdict": "worse" if share["change"] > share["parent"] else "ok"}


def summarize(parent: list[dict], change: list[dict], metrics: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per metric (name -> its better direction, "lower" or "higher") of
    paired runs: wins, quartiles, median change and parent IQR, and the
    verdict of each metric given a bound. A metric that reads 0 on every
    run of both sides is left out."""
    summary = {}
    for metric, better in metrics.items():
        a = [r[metric] for r in parent]
        b = [r[metric] for r in change]
        if not any(a) and not any(b):
            continue
        sign = 1 if better == "lower" else -1
        pq, cq = quartiles(a), quartiles(b)
        summary[metric] = {
            "pairs": len(a),
            "change_wins": sum(sign * y < sign * x for x, y in zip(a, b)),
            "parent_wins": sum(sign * x < sign * y for x, y in zip(a, b)),
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "median_change_pct": round(100.0 * (cq[1] - pq[1]) / pq[1], 1) if pq[1] else None,
            "parent_iqr": _round(pq[2] - pq[0]),
        }
        if bounds and metric in bounds:
            summary[metric]["verdict"] = verdict(summary[metric], better, bounds[metric])
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workloads", default="train,sweep_onehot,sweep_gdr,baseline,adaptive")
    parser.add_argument("--seeds", default="11-15", help="e.g. 11-15 or 11,13")
    parser.add_argument("--trace", action="store_true",
                        help="also pair traced runs and summarize the per-layer metrics")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {kind: {m["name"]: m["better"] for m in bench[kind]}
              for kind in ("end_to_end", "per_layer")}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    traces = (0, 1) if args.trace else (0,)
    runs = {w: {t: {side: [] for side in SIDES} for t in traces} for w in workloads}
    failed_runs = {w: [] for w in workloads}
    environment = {}
    for seed in parse_seeds(args.seeds):
        order = SIDES if seed % 2 else SIDES[::-1]
        for workload in workloads:
            for trace in traces:
                pair = {}
                for side in order:
                    out = run_once(checkouts[side], workload, seed, seconds, trace)
                    if "exit_code" in out:
                        failed_runs[workload].append(
                            {"side": side, "seed": seed, "trace": trace, **out})
                        print(f"seed {seed} {workload} trace {trace} {side}: exited "
                              f"{out['exit_code']}", file=sys.stderr, flush=True)
                        continue
                    out["run"]["ran_first"] = side == order[0]
                    pair[side] = out["run"]
                    environment[side] = out["environment"]
                    print(f"seed {seed} {workload} trace {trace} {side}: failed "
                          f"{out['run']['failed']} of {out['run']['attempted']}",
                          file=sys.stderr, flush=True)
                if len(pair) == len(SIDES):
                    for side in SIDES:
                        runs[workload][trace][side].append(pair[side])

    def entry(w: str, r: dict) -> dict:
        out = {"summary": summarize(r[0]["parent"], r[0]["change"], better["end_to_end"],
                                    bounds),
               "failed_total": {side: sum(x["failed"] for t in traces for x in r[t][side])
                                for side in SIDES},
               "failed_share": failed_share(r[0]["parent"], r[0]["change"]),
               "failed_runs": failed_runs[w],
               **r[0]}
        if args.trace:
            out["traced"] = r[1]
            out["layer_summary"] = summarize(r[1]["parent"], r[1]["change"],
                                             better["per_layer"])
        return out

    env = {k: v for k, v in environment.get("change", {}).items() if k != "aecomm_commit"}
    record = {
        "label": args.label,
        "parent_commit": environment.get("parent", {}).get("aecomm_commit"),
        "change_commit": environment.get("change", {}).get("aecomm_commit"),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace {'0, then 1' if args.trace else '0'}",
        "protocol": "tools/bench_pairs.py: parent and change checkouts, run one at a "
                    f"time; seeds {args.seeds}; for each seed all workloads run on both "
                    "sides before the next seed; odd seeds run the parent first, even "
                    "seeds the change first"
                    + ("; each workload's traced runs follow its gated runs in the "
                       "same side order" if args.trace else "")
                    + ". Quartiles are numpy linear percentiles; a pair is won by the "
                    "side with the better value, ties count for neither. verdict: gain "
                    "if the change wins at least 9 of 10 pairs and its median is better "
                    "by more than the parent's IQR; else worse if its median is worse "
                    "by more than the metric's bound (a fraction of the parent's "
                    "median); else unresolved if the parent's IQR is wider than the "
                    "bound; else flat. failed_share: failed over attempted operations "
                    "of each side's gated runs, worse if the change's is higher. A run "
                    "that exits non-zero is listed under failed_runs, and its pair is "
                    "left out of the summaries.",
        "environment": env,
        "workloads": {w: entry(w, r) for w, r in runs.items()},
    }
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 1 if any(failed_runs.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
