"""Recipe registry, axis parsing, and the command-line workflow."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aecomm import cli, figures, metrics
from aecomm.codebooks import build_gdr, build_onehot
from aecomm.errors import ConfigError, DomainError, UnknownRecipeError
from aecomm.figures import RecipeContext, available_recipes, derive_seed, run_figure
from aecomm.model import build_model, load_checkpoint, save_checkpoint

ALL_RECIPES = [
    "corrections_fig1", "corrections_fig2", "fig10", "fig11", "fig12", "fig13",
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "table4", "table5", "table6",
]


def test_available_recipes_complete_and_sorted():
    assert available_recipes() == ALL_RECIPES


def test_manifest_write_that_fails_part_way_keeps_the_previous_manifest(
        tmp_path, monkeypatch):
    def recipe(ctx, manifest):
        manifest["configs"]["curve"] = config

    monkeypatch.setitem(figures.RECIPES, "partial", ("a recipe that may fail", recipe))
    ctx = RecipeContext(out_dir=str(tmp_path))
    config = {"M": 4}
    run_figure("partial", ctx)
    path = tmp_path / "partial_manifest.json"
    before = path.read_bytes()
    # json.dump writes the keys before "configs", then meets an object it
    # cannot serialize
    config = {"M": object()}
    with pytest.raises(TypeError):
        run_figure("partial", ctx)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["partial_manifest.json"]


def test_unknown_recipe_lists_alternatives(tmp_path):
    ctx = RecipeContext(out_dir=str(tmp_path))
    with pytest.raises(UnknownRecipeError, match="fig9"):
        run_figure("fig99", ctx)


def test_derive_seed_is_stable_and_tag_sensitive():
    assert derive_seed(1234, "train", "fig4-m8") == derive_seed(1234, "train", "fig4-m8")
    seeds = {derive_seed(1234, "train", t) for t in ("a", "b", "c")}
    assert len(seeds) == 3
    assert all(0 <= s < 2 ** 32 for s in seeds)


def test_eval_blocks_precedence():
    ctx = RecipeContext(out_dir=".")
    assert ctx.eval_blocks == figures.DESK_BLOCKS
    assert RecipeContext(out_dir=".", paper_scale=True).eval_blocks == figures.PAPER_BLOCKS
    # explicit count beats the scale switch
    assert RecipeContext(out_dir=".", paper_scale=True, blocks=777).eval_blocks == 777


# small enough that all 16 recipes run in seconds; master seed 99 would hit
# a DegenerateInputError in fig10 at this scale
TINY = dict(master_seed=1234, epochs=2, train_samples=450, blocks=3000, probes=3)


def test_trained_model_is_cached(model_zoo, monkeypatch, tmp_path):
    a, _ = figures.trained_model(4, 1, 10.0, seed=77, epochs=1, train_samples=200)
    b, _ = figures.trained_model(4, 1, 10.0, seed=77, epochs=1, train_samples=200)
    assert a is b
    # the tests' model_zoo and the recipes hand out the same objects
    zoo_model, _ = model_zoo(16, 1, 10.0, derive_seed(1234, "train", "fig3-m16"),
                             epochs=2, train_samples=450)
    swept = []
    sweep = metrics.sweep
    monkeypatch.setattr(metrics, "sweep",
                        lambda model, *a, **k: swept.append(model) or sweep(model, *a, **k))
    run_figure("fig3", RecipeContext(out_dir=str(tmp_path), **TINY))
    assert len(swept) == 1 and swept[0] is zoo_model


@pytest.fixture(scope="module")
def tiny_recipes(tmp_path_factory):
    """Every recipe run once at the TINY context into one directory."""
    out = tmp_path_factory.mktemp("recipes")
    ctx = RecipeContext(out_dir=str(out), **TINY)
    return out, {name: run_figure(name, ctx) for name in ALL_RECIPES}


def test_every_recipe_writes_exactly_what_its_manifest_lists(tiny_recipes):
    out, manifests = tiny_recipes
    written = set()
    for name, manifest in manifests.items():
        with open(out / f"{name}_manifest.json") as fh:
            assert json.load(fh) == json.loads(json.dumps(manifest))
        written.add(f"{name}_manifest.json")
        assert manifest["files"] and set(manifest["files"]) == set(manifest["configs"])
        for curve, filename in manifest["files"].items():
            written.add(filename)
            lines = (out / filename).read_text().splitlines()
            echo = [line for line in lines if line.startswith("# ")]
            header, *rows = lines[len(echo):]
            assert echo == [f"# {k} = {metrics.format_value(v)}"
                            for k, v in sorted(manifest["configs"][curve].items())]
            # every row fills every column the header names
            columns = header.split(",")
            assert rows, filename
            for row in rows:
                cells = row.split(",")
                assert len(cells) == len(columns) and all(cells), (filename, row)
    assert set(os.listdir(out)) == written


def test_cli_evaluate_reproduces_the_recipe_curve(tiny_recipes, tmp_path, capsys):
    out, manifests = tiny_recipes
    model, _ = figures.trained_model(4, 1, 10.0, derive_seed(1234, "train", "fig4-m4"),
                                     epochs=2, train_samples=450)
    ckpt = tmp_path / "m4.ckpt"
    save_checkpoint(model, str(ckpt))
    csv = tmp_path / "m4.csv"
    assert run_cli("evaluate", "--checkpoint", ckpt, "--ebn0", "0:8:1",
                   "--blocks", 3000, "--seed", derive_seed(1234, "eval", "fig4-m4"),
                   "--out", csv) == 0
    _, cli_rows = metrics.read_csv(csv)
    _, recipe_rows = metrics.read_csv(out / manifests["fig4"]["files"]["onehot_m4"])
    assert cli_rows == recipe_rows


def test_matched_rate_report():
    def rec(snr_db, bler):
        return metrics.MetricRecord(
            scheme="onehot", snr_kind="snr_db", snr_db=snr_db, blocks=1000,
            block_errors=int(bler * 1000), bit_errors=0, bler=bler, ber=0.0,
            mse=0.0, bler_ci95=0.0, ber_ci95=0.0, low_confidence=False)

    conventional = {4: [rec(-5.0, 0.2), rec(-3.0, 0.1)],
                    8: [rec(-5.0, 0.4)]}
    rows = [
        {"snr_db": -5.0, "M1": 4, "bler": 0.02},   # 90% reduction
        {"snr_db": -3.0, "M1": 4, "bler": 0.09},   # 10% reduction
        {"snr_db": -5.0, "M1": 16, "bler": 0.5},   # no conventional M=16 curve
        {"snr_db": -1.0, "M1": 8, "bler": 0.5},    # no -1 dB point for M=8
    ]
    report = figures.matched_rate_report(rows, conventional)
    assert [p["M1"] for p in report["points"]] == [4, 4]
    assert report["points"][0]["reduction"] == pytest.approx(0.9)
    assert report["achieves_80pct"] is True
    report = figures.matched_rate_report(rows[1:2], conventional)
    assert report["achieves_80pct"] is False
    assert json.dumps(report)  # manifest-serializable


class TestParseAxis:
    def test_range_inclusive(self):
        pts = cli.parse_axis("-2:10:1")
        assert len(pts) == 13
        assert pts[0] == -2.0 and pts[-1] == 10.0

    def test_fractional_step(self):
        np.testing.assert_allclose(cli.parse_axis("0:1:0.25"),
                                   [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_single_value(self):
        assert cli.parse_axis("3") == [3.0]
        assert cli.parse_axis("-7.5") == [-7.5]

    def test_comma_list(self):
        assert cli.parse_axis("1,2,5") == [1.0, 2.0, 5.0]

    def test_non_finite_values(self):
        for text in ("nan", "1,nan", "0:nan:1"):
            with pytest.raises(DomainError, match="NaN"):
                cli.parse_axis(text)
        for text in ("-inf:0:1", "0:1:inf"):
            with pytest.raises(DomainError, match="finite"):
                cli.parse_axis(text)
        # an infinite point may name one (+inf SNR is noiseless); callers judge
        assert cli.parse_axis("0,inf") == [0.0, float("inf")]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=12))
    def test_comma_list_round_trip(self, values):
        assert cli.parse_axis(",".join(map(repr, values))) == values

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-1000, 1000), st.integers(1, 64), st.integers(1, 40))
    def test_range_round_trip(self, start, quarters, count):
        # quarter steps from an integer start keep every point exact
        step = quarters / 4
        stop = start + (count - 1) * step
        points = cli.parse_axis(f"{float(start)!r}:{stop!r}:{step!r}")
        assert points == [start + i * step for i in range(count)]
        assert cli.parse_axis(",".join(map(repr, points))) == points

    def test_errors(self):
        with pytest.raises(ConfigError, match="start:stop:step"):
            cli.parse_axis("1:2:3:4")
        with pytest.raises(ConfigError, match="positive"):
            cli.parse_axis("0:4:0")
        with pytest.raises(ConfigError, match="below start"):
            cli.parse_axis("5:1:1")
        with pytest.raises(ConfigError, match="too small"):
            cli.parse_axis("0:1:1e-320")
        with pytest.raises(ValueError):
            cli.parse_axis("a:b:c")

    def test_point_count_is_capped(self):
        assert len(cli.parse_axis("0:9999:1")) == cli.MAX_AXIS_POINTS == 10_000
        for text in ("0:10000:1", "0:1:1e-7"):
            with pytest.raises(ConfigError, match="too small"):
                cli.parse_axis(text)


class TestTrainingFreeRecipes:
    def test_table4_matches_published_totals(self, tmp_path):
        manifest = run_figure("table4", RecipeContext(out_dir=str(tmp_path)))
        assert manifest["recipe"] == "table4"
        path = tmp_path / manifest["files"]["param_counts"]
        config, rows = metrics.read_csv(path)
        assert config["master_seed"] == "1234"
        totals = {int(r["M"]): int(r["total"]) for r in rows}
        assert totals == {4: 121, 8: 285, 16: 805, 32: 2613, 64: 9301}
        with open(tmp_path / "table4_manifest.json") as fh:
            assert json.load(fh)["files"] == manifest["files"]

    def test_table6_matches_published_rates(self, tmp_path):
        manifest = run_figure("table6", RecipeContext(out_dir=str(tmp_path)))
        _, rows = metrics.read_csv(tmp_path / manifest["files"]["data_rates"])
        got = [(r["scheme"], int(r["M"]), int(r["m"]), float(r["rate_bits_per_use"]))
               for r in rows]
        assert got == [("onehot", 8, 1, 3 / 7), ("gdr", 8, 2, 4 / 7),
                       ("gdr", 8, 3, 5 / 7), ("gdr", 8, 4, 6 / 7),
                       ("gdr", 16, 2, 6 / 7), ("onehot", 64, 1, 6 / 7)]

    def test_fig9_curves_are_exact_and_ordered(self, tmp_path):
        manifest = run_figure("fig9", RecipeContext(out_dir=str(tmp_path)))
        assert set(manifest["files"]) == {
            "m8_order1", "m8_order2", "m8_order3", "m8_order4",
            "m16_order2", "m64_order1", "m64_order2",
        }
        _, rows = metrics.read_csv(tmp_path / manifest["files"]["m8_order1"])
        rates = [float(r["rate_bits_s_hz"]) for r in rows]
        assert len(rates) == 11
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        # closed form at 0 dB for one-hot M=8: log2(1 + 2 * 1 * 3/7)
        assert rates[0] == pytest.approx(np.log2(1 + 6 / 7), rel=1e-12)


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def _cli_process(*argv, cwd, **env):
    """The CLI in a fresh interpreter, with `env` added to its environment."""
    src = Path(cli.__file__).parents[1]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "aecomm.cli", *map(str, argv)],
                          cwd=cwd, env=env, capture_output=True, text=True)


class TestCliWorkflow:
    @pytest.mark.parametrize("argv", [("evaluate", "--ebn0", "0"),
                                      ("baseline", "--ebn0", "0", "--blocks", "1.5"),
                                      ("baseline", "--ebn0", "0", "--scheme", "bogus"),
                                      ("baseline", "--ebn0", "0", "--bogus"),
                                      ()])
    def test_usage_error_is_one_line(self, capsys, tmp_path, monkeypatch, argv):
        # a missing required flag, a mistyped value, a choice outside the
        # flag's, an unknown flag and no subcommand: argparse's own errors
        monkeypatch.chdir(tmp_path)
        assert cli.main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [("baseline", "--ebn", "-2:0:1"),
                                      ("baseline", "--ebn0", "0", "--conf", "f.json"),
                                      ("baseline", "--ebn", "0:2:1")])
    def test_abbreviated_flag_is_a_one_line_error(self, capsys, tmp_path, monkeypatch, argv):
        # only full flag names: the axis folding and the --config pre-parse
        # match them exactly, so an abbreviation would parse one way there
        # and another in argparse
        monkeypatch.chdir(tmp_path)
        assert cli.main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_figure_list(self, capsys):
        assert run_cli("figure", "--list") == 0
        out = capsys.readouterr().out
        for name in ALL_RECIPES:
            assert f"{name}:" in out

    def test_figure_without_name_fails(self, capsys, tmp_path):
        assert run_cli("figure", "--out-dir", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError:") and err.count("\n") == 1

    def test_figure_unknown_recipe_exit_code(self, capsys, tmp_path):
        assert run_cli("figure", "fig99", "--out-dir", tmp_path) == 2
        assert "error: UnknownRecipeError:" in capsys.readouterr().err

    def test_figure_recipe_runs(self, capsys, tmp_path):
        assert run_cli("figure", "table6", "--out-dir", tmp_path) == 0
        assert (tmp_path / "table6_manifest.json").exists()

    def test_figure_survives_a_dead_initial_transmitter(self, capsys, tmp_path):
        # master seed 5 derives a fig4 M=4 training seed whose plain Glorot
        # draw maps a message to the zero vector; build_model redraws it
        assert run_cli("figure", "fig4", "--seed", 5, "--epochs", 1,
                       "--train-samples", 100, "--blocks", 100, "--out-dir", tmp_path) == 0
        assert (tmp_path / "fig4_manifest.json").exists()

    @pytest.mark.parametrize("argv, error", [
        (("table5", "--probes", 0), "DomainError: probes per vector must be >= 1, got 0"),
        (("fig5", "--blocks", 0), "DomainError: blocks must be >= 1, got 0"),
        (("fig5", "--epochs", 0), "ConfigError: epochs must be >= 1"),
        (("fig5", "--train-samples", -1), "ConfigError: train_samples must be >= 1"),
    ], ids=["probes", "blocks", "epochs", "train_samples"])
    def test_figure_refuses_counts_below_one_before_training(
            self, capsys, tmp_path, monkeypatch, argv, error):
        def no_training(*args, **kwargs):
            raise AssertionError("a recipe trained before its counts were checked")

        monkeypatch.setattr(figures, "trained_model", no_training)
        out = tmp_path / "out"
        assert run_cli("figure", *argv, "--out-dir", out) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [("evaluate", "--snr", ","),
                                      ("evaluate", "--ebn0", " , "),
                                      ("analyze", "--sigma2", "abc"),
                                      ("adaptive", "--snr", "1:abc:1")],
                             ids=["comma", "spaced_comma", "word", "range_word"])
    def test_empty_or_non_numeric_axis_is_a_one_line_usage_error(self, capsys, tmp_path, argv):
        ckpt, out = tmp_path / "m4.ckpt", tmp_path / "out.csv"
        save_checkpoint(build_model(build_onehot(4), 7, seed=0), str(ckpt))
        assert run_cli(*argv, "--checkpoint", ckpt, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: axis") and err.count("\n") == 1
        assert not out.exists()

    def test_train_evaluate_round_trip(self, capsys, tmp_path):
        ckpt = tmp_path / "m4.ckpt"
        trace = tmp_path / "trace.csv"
        code = run_cli("train", "--M", 4, "--epochs", 2, "--train-samples", 400,
                       "--snr-db", 10, "--seed", 0, "--out", ckpt,
                       "--trace-out", trace)
        assert code == 0
        assert "final loss" in capsys.readouterr().out
        _, trace_rows = metrics.read_csv(trace)
        assert [r["epoch"] for r in trace_rows] == ["1", "2"]

        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            code = run_cli("evaluate", "--checkpoint", ckpt, "--ebn0", "-2:10:1",
                           "--blocks", 200, "--seed", 7, "--out", out)
            assert code == 0
        config, rows = metrics.read_csv(out_a)
        assert len(rows) == 13
        assert config["axis"] == "ebn0_db"
        assert [float(r["snr_db"]) for r in rows] == cli.parse_axis("-2:10:1")
        assert list(rows[0]) == list(metrics.EVALUATE_COLUMNS)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_evaluate_requires_exactly_one_axis(self, capsys, tmp_path):
        ckpt = tmp_path / "m4.ckpt"
        run_cli("train", "--M", 4, "--epochs", 1, "--train-samples", 200,
                "--snr-db", 10, "--seed", 0, "--out", ckpt)
        capsys.readouterr()
        assert run_cli("evaluate", "--checkpoint", ckpt, "--out",
                       tmp_path / "x.csv") == 2
        assert "exactly one of ebn0 or snr" in capsys.readouterr().err
        assert run_cli("evaluate", "--checkpoint", ckpt, "--ebn0", "0", "--snr",
                       "0", "--out", tmp_path / "x.csv") == 2

    def test_missing_checkpoint_is_one_line_error(self, capsys, tmp_path):
        assert run_cli("evaluate", "--checkpoint", tmp_path / "nope.ckpt",
                       "--ebn0", "0") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError:")
        assert err.count("\n") == 1

    def test_non_finite_physics_inputs_are_one_line_errors(self, capsys, tmp_path):
        ckpt = tmp_path / "m4.ckpt"
        run_cli("train", "--M", 4, "--epochs", 1, "--train-samples", 200,
                "--snr-db", 10, "--seed", 0, "--out", ckpt)
        model = load_checkpoint(str(ckpt))
        model.b3[0] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(model, str(bad))
        capsys.readouterr()
        calls = [
            ("evaluate", "--checkpoint", ckpt, "--snr", "nan", "--out", tmp_path / "e.csv"),
            ("evaluate", "--checkpoint", ckpt, "--ebn0", "0,-inf", "--out", tmp_path / "e.csv"),
            ("evaluate", "--checkpoint", ckpt, "--snr", "-inf", "--out", tmp_path / "e.csv"),
            ("evaluate", "--checkpoint", bad, "--snr", "0", "--out", tmp_path / "e.csv"),
            ("train", "--M", 4, "--epochs", 1, "--snr-db", "nan", "--out", tmp_path / "t.ckpt"),
            ("train", "--M", 4, "--epochs", 1, "--snr-set", "0,nan", "--out", tmp_path / "t.ckpt"),
            ("baseline", "--ebn0", "nan", "--out", tmp_path / "b.csv"),
            ("baseline", "--ebn0", "-inf", "--out", tmp_path / "b.csv"),
            ("analyze", "--checkpoint", ckpt, "--sigma2", "inf", "--out", tmp_path / "a.csv"),
        ]
        for argv in calls:
            assert run_cli(*argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: DomainError: ") and err.count("\n") == 1, argv
        for name in ("e.csv", "t.ckpt", "b.csv", "a.csv"):
            assert not (tmp_path / name).exists()

    def test_counts_below_one_are_one_line_errors(self, model_zoo, capsys, tmp_path):
        model, _ = model_zoo(4, 1, 10.0, seed=2)
        ckpt = tmp_path / "m4.ckpt"
        save_checkpoint(model, str(ckpt))
        calls = [
            (("baseline", "--ebn0", "0", "--blocks", 0), "blocks must be >= 1, got 0"),
            (("baseline", "--ebn0", "0", "--blocks", -5), "blocks must be >= 1, got -5"),
            (("analyze", "--checkpoint", ckpt, "--sigma2", "0.01", "--samples", 0),
             "samples must be >= 1, got 0"),
            (("analyze", "--checkpoint", ckpt, "--sigma2", "0.01", "--samples", -5),
             "samples must be >= 1, got -5"),
        ]
        for argv, message in calls:
            out = tmp_path / "out.csv"
            assert run_cli(*argv, "--out", out) == 2, argv
            assert capsys.readouterr().err == f"error: DomainError: {message}\n", argv
            assert not out.exists()

    def test_seedless_random_selection_is_a_one_line_error(self, capsys, tmp_path):
        out = tmp_path / "gdr.ckpt"
        assert run_cli("train", "--codebook", "gdr", "--M", 8, "--m", 3,
                       "--selection", "random", "--epochs", 1, "--train-samples", 200,
                       "--snr-db", 10, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert "selection_seed" in err
        assert list(tmp_path.iterdir()) == []

    def test_axis_step_too_small_to_count_is_a_one_line_error(self, capsys, tmp_path):
        out = tmp_path / "baseline.csv"
        assert run_cli("baseline", "--ebn0", "0:1:1e-320", "--blocks", 100,
                       "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: axis step") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_learning_rate_that_names_no_step_is_a_one_line_error(self, capsys, tmp_path):
        for rate in ("nan", "-0.001", "0"):
            out = tmp_path / "t.ckpt"
            assert run_cli("train", "--M", 4, "--epochs", 1, "--train-samples", 200,
                           "--snr-db", 10, "--learning-rate", rate, "--out", out) == 2, rate
            err = capsys.readouterr().err
            assert err.startswith("error: ConfigError: learning_rate") and err.count("\n") == 1
            assert list(tmp_path.iterdir()) == [], rate

    def test_sizes_beyond_the_address_space_are_one_line_errors(self, capsys, tmp_path):
        # no allocation of these sizes can succeed (47-bit address space),
        # whatever the overcommit policy
        out = tmp_path / "t.ckpt"
        M = 2 ** 50
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("train", "--M", M, "--snr-db", 5, "--out", out) == 2
        assert caught == []
        refused = f"error: DomainError: vector size {M} exceeds the 64 supported by decode lookup\n"
        assert capsys.readouterr().err == refused
        assert run_cli("train", "--codebook", "gdr", "--M", M, "--m", 4,
                       "--snr-db", 5, "--out", out) == 2
        assert capsys.readouterr().err == refused
        assert run_cli("train", "--n", 10 ** 13, "--snr-db", 5, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MemoryError: Unable to allocate") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_out_of_range_vector_size_is_one_stderr_line(self, tmp_path):
        # the whole process: a warning would add its message and source line
        done = _cli_process("train", "--M", 128, "--snr-db", 5, "--out", "x.ckpt",
                            cwd=tmp_path)
        assert done.returncode == 2
        assert done.stderr == ("error: DomainError: vector size 128 exceeds the 64 "
                               "supported by decode lookup\n")
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # holds while every training product has few rows (batch size 45);
        # a 600-row weight-gradient product differs between 1 and 2 threads
        ckpts = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.ckpt"
            done = _cli_process("train", "--M", 64, "--snr-db", 5, "--epochs", 2,
                                "--train-samples", 2000, "--seed", 3, "--out", out,
                                cwd=tmp_path, OPENBLAS_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
            ckpts.append(out.read_bytes())
        assert ckpts[0] == ckpts[1]

    def test_infinite_snr_is_the_noiseless_point(self, tmp_path):
        ckpt = tmp_path / "m4.ckpt"
        assert run_cli("train", "--M", 4, "--epochs", 1, "--train-samples", 200,
                       "--snr-db", "inf", "--seed", 0, "--out", ckpt) == 0
        for axis in ("--snr", "--ebn0"):
            out = tmp_path / "e.csv"
            assert run_cli("evaluate", "--checkpoint", ckpt, axis, "0,inf",
                           "--blocks", 100, "--out", out) == 0
            header, rows = metrics.read_csv(out)
            assert [float(r["snr_db"]) for r in rows] == [0.0, float("inf")]

    def test_train_rejects_m_for_onehot(self, capsys, tmp_path):
        assert run_cli("train", "--codebook", "onehot", "--m", 2,
                       "--out", tmp_path / "x.ckpt") == 2
        assert "error: ConfigError: m must be 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("--selection", "random", "--selection-seed", 3),
                                      ("--selection-seed", 3),
                                      ("--config", "cfg.json")])
    def test_train_refuses_selection_for_onehot(self, capsys, tmp_path, monkeypatch, argv):
        # the one-hot codebook has one entry order, so a selection is not used
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text('{"selection": "random"}')
        assert run_cli("train", "--M", 8, *argv, "--snr-db", 5, "--epochs", 1,
                       "--train-samples", 100, "--out", "x.ckpt") == 2
        assert capsys.readouterr().err == ("error: ConfigError: selection and "
                                           "selection-seed apply only to the gdr codebook\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_baseline_sweep(self, capsys, tmp_path):
        out = tmp_path / "base.csv"
        assert run_cli("baseline", "--scheme", "uncoded_bpsk", "--ebn0", "0,4",
                       "--blocks", 2000, "--out", out) == 0
        _, rows = metrics.read_csv(out)
        assert [r["scheme"] for r in rows] == ["uncoded_bpsk"] * 2
        assert float(rows[0]["ber"]) > float(rows[1]["ber"])

    def test_adaptive_subcommand(self, capsys, tmp_path):
        ckpt = tmp_path / "gdr.ckpt"
        run_cli("train", "--codebook", "gdr", "--M", 8, "--m", 4, "--epochs", 2,
                "--train-samples", 400, "--snr-db", 5, "--seed", 0, "--out", ckpt)
        out = tmp_path / "adaptive.csv"
        code = run_cli("adaptive", "--checkpoint", ckpt, "--snr", "-5:5:2",
                       "--threshold", 10.0, "--probes", 1, "--blocks", 500,
                       "--out", out)
        assert code == 0
        _, rows = metrics.read_csv(out)
        assert len(rows) == 6
        assert list(rows[0]) == list(metrics.ADAPTIVE_COLUMNS)
        # a huge threshold admits every entry: full codebook, no outage
        assert {r["M1"] for r in rows} == {"64"}
        assert {r["outage"] for r in rows} == {"0"}

    def test_adaptive_rejects_small_codebook(self, capsys, tmp_path):
        ckpt = tmp_path / "m4.ckpt"
        run_cli("train", "--M", 4, "--epochs", 1, "--train-samples", 200,
                "--snr-db", 10, "--seed", 0, "--out", ckpt)
        capsys.readouterr()
        assert run_cli("adaptive", "--checkpoint", ckpt, "--snr", "0") == 2
        assert "error: DomainError:" in capsys.readouterr().err

    def test_adaptive_nan_threshold_is_one_line_error(self, capsys, tmp_path):
        ckpt = tmp_path / "gdr.ckpt"
        save_checkpoint(build_model(build_gdr(8, 4), 7, seed=0), str(ckpt))
        out = tmp_path / "adaptive.csv"
        assert run_cli("adaptive", "--checkpoint", ckpt, "--snr", "0",
                       "--threshold", "nan", "--blocks", 100, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError: ") and err.count("\n") == 1
        assert not out.exists()

    def test_malformed_checkpoint_is_one_line_error(self, capsys, tmp_path):
        ckpt = tmp_path / "m4.ckpt"
        save_checkpoint(build_model(build_gdr(4, 1), 7, seed=0), str(ckpt))
        ckpt.write_text(ckpt.read_text().replace("weights 0 4 4\n", "weights 0 4\n"))
        assert run_cli("evaluate", "--checkpoint", ckpt, "--snr", "0",
                       "--out", tmp_path / "e.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: CheckpointDimensionError: ") and err.count("\n") == 1

    def test_analyze_subcommand(self, model_zoo, capsys, tmp_path):
        model, _ = model_zoo(4, 1, 10.0, seed=2)
        ckpt = tmp_path / "m4.ckpt"
        save_checkpoint(model, str(ckpt))
        out = tmp_path / "analysis.csv"
        assert run_cli("analyze", "--checkpoint", ckpt, "--sigma2", "0.01,0.05",
                       "--samples", 5000, "--out", out) == 0
        _, rows = metrics.read_csv(out)
        assert [float(r["sigma2"]) for r in rows] == [0.01, 0.05]
        # noise term scales linearly with sigma2
        ratio = float(rows[1]["noise_term"]) / float(rows[0]["noise_term"])
        assert ratio == pytest.approx(5.0, rel=1e-9)


class TestConfigFile:
    def write_config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_config_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        ckpt = tmp_path / "m4.ckpt"
        run_cli("train", "--M", 4, "--epochs", 1, "--train-samples", 200,
                "--snr-db", 10, "--seed", 0, "--out", ckpt)
        cfg = self.write_config(tmp_path, {"blocks": 500, "ebn0": "0,4"})
        out = tmp_path / "from_config.csv"
        assert run_cli("evaluate", "--config", cfg, "--checkpoint", ckpt,
                       "--out", out) == 0
        config, rows = metrics.read_csv(out)
        assert len(rows) == 2 and config["blocks"] == "500"

        out2 = tmp_path / "flag_wins.csv"
        assert run_cli("evaluate", "--config", cfg, "--checkpoint", ckpt,
                       "--blocks", 800, "--out", out2) == 0
        config, _ = metrics.read_csv(out2)
        assert config["blocks"] == "800"

    def test_unknown_config_key_names_field(self, capsys, tmp_path):
        # a config names no further config file
        for key in ("bogus", "config"):
            cfg = self.write_config(tmp_path, {key: "x"})
            assert run_cli("evaluate", "--config", cfg, "--checkpoint", "x",
                           "--ebn0", "0") == 2
            assert f"unknown config field {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, key", [({"blocks": 1.5}, "blocks"),
                                              ({"blocks": [100]}, "blocks"),
                                              ({"out": 5}, "out"),
                                              ({"scheme": "bogus"}, "scheme"),
                                              ({"blocks": True}, "blocks")])
    def test_config_value_the_flag_would_refuse_is_a_one_line_error(
            self, capsys, tmp_path, monkeypatch, payload, key):
        monkeypatch.chdir(tmp_path)
        cfg = self.write_config(tmp_path, payload)
        assert run_cli("baseline", "--config", cfg, "--ebn0", "0", "--blocks", 100) == 2
        err = capsys.readouterr().err
        # refused by the config reader, or by argparse as the flag's text
        assert err.startswith("error: ConfigError: ")
        assert f"config field {key!r}" in err or f"argument --{key}:" in err
        assert err.count("\n") == 1
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("argv, payload, want", [
        (("baseline", "--ebn0", "0"), {"blocks": "100"}, {"blocks": 100}),
        (("baseline", "--ebn0", "0"), {"blocks": 100}, {"blocks": 100}),
        (("evaluate", "--checkpoint", "x"), {"ebn0": -2}, {"ebn0": "-2"}),
        (("figure", "fig4"), {"paper_scale": True}, {"paper_scale": True}),
    ])
    def test_config_value_the_flag_would_take(self, tmp_path, argv, payload, want):
        cfg = self.write_config(tmp_path, payload)
        args = cli.parse_args([*argv, "--config", str(cfg)])
        assert {k: getattr(args, k) for k in want} == want

    @pytest.mark.parametrize("command", ["train", "evaluate", "adaptive", "baseline",
                                         "figure", "analyze"])
    def test_config_field_equals_its_flag(self, tmp_path, command):
        # every field, required ones included, each off its default
        _, commands = cli.build_parser()
        fields, flags = {}, [command]
        for a in commands[command]._actions:
            if a.dest in ("help", "config"):
                continue
            if a.nargs == 0:
                fields[a.dest] = True
                flags.append(a.option_strings[0])
                continue
            if a.choices:
                value = next(c for c in a.choices if c != a.default)
            else:
                value = {int: 3, float: 0.375}.get(a.type, f"{a.dest}-text")
            fields[a.dest] = value
            flags += [*a.option_strings[:1], str(value)]
        cfg = self.write_config(tmp_path, fields)
        from_config = cli.parse_args([command, "--config", str(cfg)])
        from_flags = cli.parse_args(flags)
        assert vars(from_config) == {**vars(from_flags), "config": str(cfg)}
        assert all(getattr(from_flags, k) != commands[command].get_default(k)
                   for k in fields)

    def test_config_supplies_a_required_flag(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, {"ebn0": "0", "blocks": 200})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("baseline", "--config", cfg, "--out", a) == 0
        assert run_cli("baseline", "--ebn0", "0", "--blocks", 200, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_recipe_name_is_one_bare_token(self, capsys, tmp_path):
        # a name that argparse would read as a flag, and a second name on the
        # line, are refused rather than run
        for payload, argv in (({"name": "--list"}, ()), ({"name": "table6"}, ("table4",))):
            cfg = self.write_config(tmp_path, payload)
            assert run_cli("figure", "--config", cfg, *argv, "--out-dir", tmp_path) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["config.json"]

    def test_invalid_json_is_reported(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert run_cli("evaluate", "--config", path, "--checkpoint", "x",
                       "--ebn0", "0") == 2
        assert "not valid JSON" in capsys.readouterr().err


def test_checkpoint_survives_cli_round_trip(tmp_path, capsys):
    """The CLI-written checkpoint reloads to the same trained weights."""
    ckpt = tmp_path / "gdr16.ckpt"
    run_cli("train", "--codebook", "gdr", "--M", 16, "--m", 2, "--epochs", 2,
            "--train-samples", 400, "--snr-db", 5, "--seed", 3,
            "--selection", "random", "--selection-seed", 11, "--out", ckpt)
    model = load_checkpoint(str(ckpt))
    assert model.codebook.M == 16 and model.codebook.m == 2
    assert model.codebook.selection == "random"
    assert model.codebook.selection_seed == 11
    assert len(model.codebook) == 64
