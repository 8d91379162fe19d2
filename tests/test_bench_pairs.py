"""The paired-run tool's statistics, on synthetic runs: no benchmark runs."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402


def _runs(metric, values):
    return [{metric: v} for v in values]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("11-15") == [11, 12, 13, 14, 15]
    assert bench_pairs.parse_seeds("11,12,14") == [11, 12, 14]
    assert bench_pairs.parse_seeds("3,7-9") == [3, 7, 8, 9]
    assert bench_pairs.parse_seeds("5") == [5]


def test_gated_summary_counts_wins_and_ties_for_neither_side():
    parent = _runs("pass_cost", [4.0, 1.0, 2.0, 3.0, 5.0])
    change = _runs("pass_cost", [3.0, 1.0, 2.5, 3.0, 4.0])
    s = bench_pairs.summarize(parent, change, {"pass_cost": "lower"})["pass_cost"]
    assert s["pairs"] == 5
    assert (s["change_wins"], s["parent_wins"]) == (2, 1)
    assert s["parent_q1_median_q3"] == [2.0, 3.0, 4.0]
    assert s["change_q1_median_q3"] == [2.5, 3.0, 3.0]
    assert s["parent_iqr"] == 2.0
    assert s["median_change_pct"] == 0.0


def test_layer_summary_quartiles_are_linear_and_follow_the_better_direction():
    parent = _runs("model.receive.rows_per_call", [10.0, 20.0, 30.0, 40.0])
    change = _runs("model.receive.rows_per_call", [12.0, 18.0, 33.0, 40.0])
    s = bench_pairs.summarize(parent, change, {"model.receive.rows_per_call": "higher"})
    s = s["model.receive.rows_per_call"]
    # numpy linear percentiles of 10, 20, 30, 40: 17.5, 25, 32.5
    assert s["parent_q1_median_q3"] == [17.5, 25.0, 32.5]
    assert s["parent_iqr"] == 15.0
    assert s["change_q1_median_q3"] == [16.5, 25.5, 34.75]
    assert s["median_change_pct"] == 2.0
    # higher is better: the change wins 12 > 10 and 33 > 30; 40 ties
    assert (s["change_wins"], s["parent_wins"]) == (2, 1)


def test_layer_metric_reading_zero_on_every_run_is_dropped():
    parent = [{"nn.backward_pass.self_s": 0.0, "channel.awgn.self_s": 0.0},
              {"nn.backward_pass.self_s": 0.0, "channel.awgn.self_s": 0.12}]
    change = [{"nn.backward_pass.self_s": 0.0, "channel.awgn.self_s": 0.11},
              {"nn.backward_pass.self_s": 0.0, "channel.awgn.self_s": 0.13}]
    s = bench_pairs.summarize(parent, change, {"nn.backward_pass.self_s": "lower",
                                               "channel.awgn.self_s": "lower"})
    assert list(s) == ["channel.awgn.self_s"]
    assert s["channel.awgn.self_s"]["parent_q1_median_q3"][1] == pytest.approx(0.06)


def test_median_change_is_none_when_the_parent_median_is_zero():
    parent = _runs("trace.overhead_s", [-1.0, 0.0, 1.0])
    change = _runs("trace.overhead_s", [0.5, 0.5, 0.5])
    s = bench_pairs.summarize(parent, change, {"trace.overhead_s": "lower"})
    assert s["trace.overhead_s"]["median_change_pct"] is None


def _verdict(parent, change, better="lower", bound=0.2):
    s = bench_pairs.summarize(_runs("pass_cost", parent), _runs("pass_cost", change),
                              {"pass_cost": better}, {"pass_cost": bound})
    return s["pass_cost"]["verdict"]


def test_verdict_gain_needs_nine_of_ten_wins_and_a_shift_beyond_the_parent_iqr():
    parent = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]
    # parent IQR 0.15; every pair won by 0.5
    assert _verdict(parent, [p - 0.5 for p in parent]) == "gain"
    # 9 of 10 pairs won is enough, 8 is not
    nine = [p - 0.5 for p in parent[:9]] + [parent[9] + 0.1]
    assert _verdict(parent, nine) == "gain"
    eight = [p - 0.5 for p in parent[:8]] + [p + 0.1 for p in parent[8:]]
    assert _verdict(parent, eight) == "flat"
    # every pair won, but by less than the parent's IQR
    assert _verdict(parent, [p - 0.01 for p in parent]) == "flat"
    # higher is better: the same shift downwards is no gain
    assert _verdict(parent, [p + 0.5 for p in parent], better="higher") == "gain"
    assert _verdict(parent, [p - 0.5 for p in parent], better="higher") == "flat"


def test_verdict_worse_is_a_median_beyond_the_bound():
    parent = [10.0, 10.1, 9.9, 10.2, 9.8]
    assert _verdict(parent, [p * 1.25 for p in parent]) == "worse"
    assert _verdict(parent, [p * 1.15 for p in parent]) == "flat"
    assert _verdict(parent, [p * 0.75 for p in parent], better="higher") == "worse"
    # the bound is a fraction of the parent's median
    assert _verdict(parent, [p * 1.15 for p in parent], bound=0.1) == "worse"


def test_verdict_is_unresolved_when_the_parent_iqr_is_wider_than_the_bound():
    parent = [6.0, 8.0, 10.0, 12.0, 14.0]  # IQR 4 against a bound of 2
    assert _verdict(parent, [p + 0.5 for p in parent]) == "unresolved"
    # a median beyond the bound still reads worse
    assert _verdict(parent, [p + 2.5 for p in parent]) == "worse"


def _ops(*pairs):
    return [{"failed": f, "attempted": a} for f, a in pairs]


def test_failed_share_pools_each_sides_runs_and_a_higher_change_share_is_worse():
    parent = _ops((1, 100), (0, 300))
    s = bench_pairs.failed_share(parent, _ops((0, 200), (2, 200)))
    assert (s["parent"], s["change"], s["verdict"]) == (0.0025, 0.005, "worse")
    # the share, not the count: more failures over more operations is no worse
    s = bench_pairs.failed_share(parent, _ops((2, 800), (0, 800)))
    assert (s["change"], s["verdict"]) == (0.00125, "ok")
    assert bench_pairs.failed_share(parent, parent)["verdict"] == "ok"
    # nothing attempted reads as no failure
    s = bench_pairs.failed_share(_ops((0, 0)), _ops((0, 5)))
    assert (s["parent"], s["change"], s["verdict"]) == (0.0, 0.0, "ok")


FAKE_RUN = """import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
if seed == FAIL_SEED:
    print("\\n".join(f"line {i}" for i in range(30)), file=sys.stderr)
    sys.exit(3)
print("# environment " + json.dumps({"aecomm_commit": "abc", "python": "3"}))
open("report.json", "w").write(json.dumps({"fake_match": True}))
print("# report report.json")
print(json.dumps({"failed": 0, "attempted": 10, "metrics": {
    "pass_cost": {"value": float(seed)},
    "nn.backward_pass.self_s": {"value": 0.1 * seed}}}))
"""


def _fake_checkout(root, fail_seed=None, lines=(3, 4)):
    """A checkout whose perfbench/run.py prints a run's lines at once, or
    exits 3 on fail_seed, and whose src/aecomm holds one module per entry of
    `lines`, that many lines long, beside a non-Python file."""
    (root / "perfbench").mkdir(parents=True)
    (root / "src" / "aecomm").mkdir(parents=True)
    for i, n in enumerate(lines):
        (root / "src" / "aecomm" / f"m{i}.py").write_text("x = 1\n" * n)
    (root / "src" / "aecomm" / "notes.txt").write_text("not counted\n")
    (root / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1,
        "end_to_end": [{"name": "pass_cost", "better": "lower", "bound": 0.2}],
        "per_layer": [{"name": "nn.backward_pass.self_s", "better": "lower"}]}))
    (root / "perfbench" / "run.py").write_text(FAKE_RUN.replace("FAIL_SEED", repr(fail_seed)))
    return root


def test_a_failed_run_is_recorded_and_the_series_finishes(tmp_path, monkeypatch):
    parent = _fake_checkout(tmp_path / "parent")
    change = _fake_checkout(tmp_path / "change", fail_seed=2, lines=(3, 2))
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--label", "t", "--workloads", "train", "--seeds", "1-3",
                             "--trace"]) == 1
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["src_lines"] == {"parent": 7, "change": 5}
    w = record["workloads"]["train"]
    # seed 2 runs the change first; each of its runs is recorded, and the
    # parent's runs of that seed are left out with it
    assert [(f["side"], f["seed"], f["trace"], f["exit_code"]) for f in w["failed_runs"]] \
        == [("change", 2, 0, 3), ("change", 2, 1, 3)]
    assert w["failed_runs"][0]["stderr_tail"] == [f"line {i}" for i in range(10, 30)]
    for runs in (w["parent"], w["change"], w["traced"]["parent"], w["traced"]["change"]):
        assert [r["seed"] for r in runs] == [1, 3]
    assert w["summary"]["pass_cost"]["pairs"] == 2
    assert w["layer_summary"]["nn.backward_pass.self_s"]["pairs"] == 2
    assert w["failed_share"]["verdict"] == "ok"
