"""Command-line entry point.

Subcommands cover the full workflow: train a model to a checkpoint,
evaluate it over an SNR axis, run the adaptive scheme, sweep the classical
baseline, reproduce a published figure, or run the MSE decomposition.

Every subcommand accepts --config, a JSON file whose keys are the long flag
names (dashes as underscores) and `figure`'s recipe `name`; its values are
checked exactly as the flag's text is, and flags on the line override them.
Axes are start:stop:step (inclusive, at most MAX_AXIS_POINTS points), single
values, or comma lists. All failures exit nonzero with one line on stderr,
`error: <kind>: <message>`; usage errors are `error: ConfigError: ...`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import adaptive as ad
from . import analysis, figures, hamming, metrics
from .channel import spawn_rng
from .codebooks import build_gdr, build_onehot
from .errors import ConfigError, DomainError
from .model import TrainingConfig, build_model, load_checkpoint, save_checkpoint, train

MAX_AXIS_POINTS = 10_000  # bounds a mistyped step; recipe axes have at most 40


def _axis_floats(parts, text: str) -> list[float]:
    # NaN names no point; +-inf may (+inf SNR is the noiseless point) and
    # is refused downstream where it does not
    values = [float(p) for p in parts]
    if any(math.isnan(v) for v in values):
        raise DomainError(f"axis values must not be NaN, got {text!r}")
    return values


def parse_axis(text: str) -> list[float]:
    """start:stop:step (inclusive endpoints), a comma list, or one value."""
    text = str(text).strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"axis must be start:stop:step, got {text!r}")
        start, stop, step = _axis_floats(parts, text)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise DomainError(f"axis range must be finite, got {text!r}")
        if step <= 0:
            raise ConfigError(f"axis step must be positive, got {step}")
        if stop < start:
            raise ConfigError(f"axis stop {stop} is below start {start}")
        span = (stop - start) / step + 1e-9
        if not span < MAX_AXIS_POINTS:
            raise ConfigError(f"axis step {step} is too small for {text!r}: "
                              f"more than {MAX_AXIS_POINTS} points")
        return [start + i * step for i in range(int(span) + 1)]
    if "," in text:
        return _axis_floats([p for p in text.split(",") if p.strip()], text)
    return _axis_floats([text], text)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ConfigError; subparsers share the class."""

    def error(self, message):
        raise ConfigError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of defaults for this subcommand")
    p.add_argument("--seed", type=int, default=1234, help="master seed")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = _Parser(
        prog="aecomm",
        description="link-level simulator for autoencoder-based transmission",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = commands["train"] = sub.add_parser(
        "train", help="train a model and write a checkpoint")
    _add_common(p)
    p.add_argument("--codebook", choices=("onehot", "gdr"), default="onehot")
    p.add_argument("--M", type=int, default=8, help="vector size")
    p.add_argument("--m", type=int, default=1, help="non-zero entries per vector")
    p.add_argument("--n", type=int, default=7, help="channel uses per block")
    p.add_argument("--selection", choices=("lexicographic", "random"),
                   default="lexicographic")
    p.add_argument("--selection-seed", type=int, default=None)
    p.add_argument("--snr-db", type=float, default=None, help="fixed training SNR")
    p.add_argument("--snr-set", type=str, default=None,
                   help="comma list of training SNRs drawn per sample")
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--batch-size", type=int, default=45)
    p.add_argument("--train-samples", type=int, default=20000)
    p.add_argument("--learning-rate", type=float, default=0.001)
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--trace-out", default=None, help="optional loss-trace CSV")

    p = commands["evaluate"] = sub.add_parser(
        "evaluate", help="sweep a trained model over an SNR axis")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--ebn0", type=str, default=None, help="Eb/N0 axis in dB")
    p.add_argument("--snr", type=str, default=None, help="SNR axis in dB")
    p.add_argument("--blocks", type=int, default=100_000)
    p.add_argument("--scheme", default=None, help="label override for the CSV")
    p.add_argument("--out", default="evaluate.csv")

    p = commands["adaptive"] = sub.add_parser(
        "adaptive", help="probe, select a subset, and evaluate it")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--snr", type=str, required=True, help="operating SNR axis in dB")
    p.add_argument("--threshold", type=float, default=1e-4, help="MSE threshold")
    p.add_argument("--probes", type=int, default=1,
                   help="probes per entry; 1 is the published procedure, "
                        "100 gives a stable selection")
    p.add_argument("--blocks", type=int, default=100_000)
    p.add_argument("--out", default="adaptive.csv")

    p = commands["baseline"] = sub.add_parser(
        "baseline", help="classical BPSK/Hamming(7,4) sweeps")
    _add_common(p)
    p.add_argument("--scheme", default="all",
                   choices=("hamming_hd", "hamming_ml", "uncoded_bpsk", "all"))
    p.add_argument("--ebn0", type=str, required=True, help="Eb/N0 axis in dB")
    p.add_argument("--blocks", type=int, default=100_000)
    p.add_argument("--out", default="baseline.csv")

    p = commands["figure"] = sub.add_parser(
        "figure", help="run a reproduction recipe")
    _add_common(p)
    p.add_argument("name", nargs="?", help="recipe name; see --list")
    p.add_argument("--list", action="store_true", help="list available recipes")
    p.add_argument("--out-dir", default="figures")
    p.add_argument("--paper-scale", action="store_true",
                   help="use the published 1e6 evaluation blocks")
    p.add_argument("--blocks", type=int, default=None)
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--train-samples", type=int, default=20000)
    p.add_argument("--probes", type=int, default=figures.RECOMMENDED_PROBES)

    p = commands["analyze"] = sub.add_parser(
        "analyze", help="linearized MSE decomposition of a model")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sigma2", type=str, required=True, help="comma list of noise variances")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--taylor-order", type=int, default=analysis.DEFAULT_TAYLOR_ORDER)
    p.add_argument("--u-min", type=float, default=analysis.DEFAULT_U_MIN)
    p.add_argument("--out", default="analysis.csv")

    return parser, commands


def _config_tokens(action: argparse.Action, key: str, value) -> list[str]:
    """A config field as its flag's argv tokens: a switch takes a boolean, else
    a string, or a number where the flag has a type (the axis flags' str)."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ConfigError(f"config field {key!r} must be true or false, got {value!r}")
        return action.option_strings[:1] if value else []
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (isinstance(value, str) or number and action.type):
        raise ConfigError(f"config field {key!r} must be a string"
                          f"{' or a number' if action.type else ''}, got {value!r}")
    if action.option_strings:
        return [f"{action.option_strings[0]}={value}"]
    if value.startswith("-"):  # a bare token argparse would read as a flag
        raise ConfigError(f"config field {key!r} must not start with '-', got {value!r}")
    return [value]


def parse_args(argv: list[str]) -> argparse.Namespace:
    """One parse; --config fields go in as flag tokens before the line's own."""
    parser, commands = build_parser()
    argv = _merge_axis_flags(argv)
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path and argv[0] in commands:
        with open(path) as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config file {path} is not valid JSON: {e}")
        if not isinstance(config, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        actions = {a.dest: a for a in commands[argv[0]]._actions
                   if a.dest not in ("help", "config")}
        tokens = []
        for key, value in config.items():
            if key not in actions:
                raise ConfigError(f"unknown config field {key!r} for command {argv[0]}")
            tokens += _config_tokens(actions[key], key, value)
        argv = argv[:1] + tokens + argv[1:]
    return parser.parse_args(argv)


def _cmd_train(args) -> int:
    if args.codebook == "onehot":
        if args.m != 1:
            raise ConfigError("m must be 1 for the onehot codebook")
        codebook = build_onehot(args.M)
    else:
        codebook = build_gdr(args.M, args.m, selection=args.selection,
                             selection_seed=args.selection_seed)
    snr_set = parse_axis(args.snr_set) if args.snr_set else None
    config = TrainingConfig(
        epochs=args.epochs, batch_size=args.batch_size,
        train_samples=args.train_samples, learning_rate=args.learning_rate,
        training_snr_db=args.snr_db,
        training_snr_set_db=tuple(snr_set) if snr_set else None,
        seed=args.seed,
    )
    model = build_model(codebook, args.n, seed=args.seed)
    trace = train(model, config)
    save_checkpoint(model, args.out)
    if args.trace_out:
        rows = [{"epoch": i + 1, "loss": v} for i, v in enumerate(trace.epoch_losses)]
        metrics.write_csv(args.trace_out, ("epoch", "loss"), rows, config.summary())
    print(f"trained {len(codebook)}-message model in {trace.wall_time_s:.1f}s, "
          f"final loss {trace.final_loss:.3e}, checkpoint {args.out}")
    return 0


def _axis_from_args(args) -> tuple[str, list[float]]:
    if (args.ebn0 is None) == (args.snr is None):
        raise ConfigError("exactly one of ebn0 or snr is required")
    if args.ebn0 is not None:
        return "ebn0_db", parse_axis(args.ebn0)
    return "snr_db", parse_axis(args.snr)


def _cmd_evaluate(args) -> int:
    model = load_checkpoint(args.checkpoint)
    kind, points = _axis_from_args(args)
    records = metrics.sweep(model, kind, points, args.blocks, (args.seed,),
                            scheme=args.scheme)
    echo = {"command": "evaluate", "checkpoint": args.checkpoint, "axis": kind,
            "points": ",".join(repr(p) for p in points),
            "blocks": args.blocks, "seed": args.seed}
    metrics.write_csv(args.out, metrics.EVALUATE_COLUMNS, records, echo)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_adaptive(args) -> int:
    model = load_checkpoint(args.checkpoint)
    rows = ad.adaptive_sweep(model, parse_axis(args.snr), args.threshold,
                             args.probes, args.blocks, (args.seed,))
    echo = {"command": "adaptive", "checkpoint": args.checkpoint,
            "threshold": args.threshold, "K": args.probes,
            "blocks": args.blocks, "seed": args.seed}
    metrics.write_csv(args.out, metrics.ADAPTIVE_COLUMNS, rows, echo)
    print(f"wrote {len(rows)} records to {args.out}")
    return 0


def _cmd_baseline(args) -> int:
    points = parse_axis(args.ebn0)
    schemes = (("hamming_hd", "hamming_ml", "uncoded_bpsk")
               if args.scheme == "all" else (args.scheme,))
    # each scheme draws from its own streams (seed, s, i)
    rows = [row for s, scheme in enumerate(schemes)
            for row in hamming.baseline_sweep(scheme, points, args.blocks,
                                              (args.seed, s))]
    echo = {"command": "baseline", "blocks": args.blocks, "seed": args.seed}
    metrics.write_csv(args.out, metrics.BASELINE_COLUMNS, rows, echo)
    print(f"wrote {len(rows)} records to {args.out}")
    return 0


def _cmd_figure(args) -> int:
    if args.list:
        for name in figures.available_recipes():
            print(f"{name}: {figures.RECIPES[name][0]}")
        return 0
    if not args.name:
        raise ConfigError("a recipe name is required unless --list is given")
    ctx = figures.RecipeContext(
        out_dir=args.out_dir, master_seed=args.seed, paper_scale=args.paper_scale,
        blocks=args.blocks, epochs=args.epochs, train_samples=args.train_samples,
        probes=args.probes,
    )
    manifest = figures.run_figure(args.name, ctx)
    print(f"recipe {args.name}: wrote {len(manifest['files'])} curves to {args.out_dir}")
    return 0


def _cmd_analyze(args) -> int:
    model = load_checkpoint(args.checkpoint)
    rows = []
    for i, sigma2 in enumerate(parse_axis(args.sigma2)):
        result = analysis.mse_decomposition(model, None, sigma2, args.samples,
                                            spawn_rng(args.seed, i),
                                            taylor_order=args.taylor_order,
                                            u_min=args.u_min)
        rows.append(result)
    echo = {"command": "analyze", "checkpoint": args.checkpoint,
            "samples": args.samples, "taylor_order": args.taylor_order,
            "u_min": args.u_min, "seed": args.seed}
    metrics.write_csv(args.out, metrics.ANALYSIS_COLUMNS, rows, echo)
    print(f"wrote {len(rows)} records to {args.out}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "adaptive": _cmd_adaptive,
    "baseline": _cmd_baseline,
    "figure": _cmd_figure,
    "analyze": _cmd_analyze,
}


# axis values may start with a minus sign ("-2:10:1"), which argparse would
# otherwise read as a flag; fold them into --flag=value form
_AXIS_FLAGS = ("--ebn0", "--snr", "--snr-set", "--sigma2")


def _merge_axis_flags(argv: list[str]) -> list[str]:
    out = []
    for token in argv:
        if out and out[-1] in _AXIS_FLAGS:
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, RuntimeError, OSError) as e:
        message = e.args[0] if e.args else str(e)
        print(f"error: {type(e).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
