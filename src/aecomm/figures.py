"""Reproduction recipes: each one trains what it needs, sweeps, and writes
plot-ready CSV curves plus a JSON manifest of every seed and config used.

Sample counts default to a desk scale of 1e5 blocks per point so a full
recipe runs in minutes; paper_scale=True restores the published 1e6.
Training always runs the full published schedule since that is the physics
under study, not an evaluation knob.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from math import log2

from . import adaptive as ad
from . import analysis, hamming, metrics
from .channel import ChannelSpec, spawn_rng
from .codebooks import build_gdr, build_onehot, data_rate
from .errors import DomainError, UnknownRecipeError
from .model import TrainingConfig, build_model, theoretical_param_count, train

N_CHANNEL_USES = 7
DESK_BLOCKS = 100_000
PAPER_BLOCKS = 1_000_000
RECOMMENDED_PROBES = 100

ADAPTIVE_SNRS_DB = (-5.0, -3.0, -1.0, 1.0, 3.0, 5.0)
MSE_THRESHOLDS = (1e-4, 1e-5, 1e-6)


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 32-bit sub-seed from a master seed and a label path."""
    tag = "/".join(str(p) for p in (master_seed,) + parts)
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "big")


@dataclass
class RecipeContext:
    out_dir: str
    master_seed: int = 1234
    paper_scale: bool = False
    blocks: int | None = None
    epochs: int = 150
    train_samples: int = 20000
    probes: int = RECOMMENDED_PROBES

    def __post_init__(self):
        # refused before a recipe trains, as training and evaluation would
        TrainingConfig(epochs=self.epochs, train_samples=self.train_samples, training_snr_db=0.0)
        for name, count in (("blocks", self.eval_blocks), ("probes per vector", self.probes)):
            if count < 1:
                raise DomainError(f"{name} must be >= 1, got {count}")

    @property
    def eval_blocks(self) -> int:
        if self.blocks is not None:
            return self.blocks
        return PAPER_BLOCKS if self.paper_scale else DESK_BLOCKS


# Trained models are pure functions of their config, so every recipe (and
# the test suite) in one process shares them without affecting outputs.
_MODEL_CACHE: dict = {}


def trained_model(M: int, m: int, snr, seed: int, epochs: int = 150,
                  train_samples: int = 20000):
    """Train (or fetch) the n=7 autoencoder for one config; returns
    (model, trace). `snr` is one training SNR, or a tuple for an SNR set."""
    snr_set = isinstance(snr, (tuple, list))
    snr_key = tuple(snr) if snr_set else float(snr)
    key = (M, m, snr_key, seed, epochs, train_samples)
    if key not in _MODEL_CACHE:
        codebook = build_onehot(M) if m == 1 else build_gdr(M, m)
        model = build_model(codebook, N_CHANNEL_USES, seed=seed)
        snr_field = "training_snr_set_db" if snr_set else "training_snr_db"
        config = TrainingConfig(epochs=epochs, train_samples=train_samples,
                                seed=seed, **{snr_field: snr_key})
        _MODEL_CACHE[key] = (model, train(model, config))
    return _MODEL_CACHE[key]


def _train(ctx: RecipeContext, M: int, m: int, snr, tag: str):
    return trained_model(M, m, snr, derive_seed(ctx.master_seed, "train", tag),
                         ctx.epochs, ctx.train_samples)


def _write(ctx, manifest, curve: str, columns, rows, config: dict) -> None:
    filename = f"{manifest['recipe']}_{curve}.csv"
    metrics.write_csv(os.path.join(ctx.out_dir, filename), columns, rows, config)
    manifest["files"][curve] = filename
    manifest["configs"][curve] = config


def _base_config(ctx: RecipeContext, **kw) -> dict:
    cfg = {"master_seed": ctx.master_seed, "blocks": ctx.eval_blocks,
           "n": N_CHANNEL_USES, "epochs": ctx.epochs,
           "train_samples": ctx.train_samples}
    cfg.update(kw)
    return cfg


def _model_config(ctx: RecipeContext, model, **kw) -> dict:
    """Config of a curve drawn from one trained model: its codebook and the
    training SNR (or SNR set) its training summary records."""
    snr = {k: v for k, v in model.training_summary.items()
           if k.startswith("training_snr")}
    return _base_config(ctx, M=model.codebook.M, m=model.codebook.m, **snr, **kw)


def _sweep_curve(ctx: RecipeContext, manifest: dict, curve: str, M: int, m: int,
                 snr, tag: str, points=ADAPTIVE_SNRS_DB, kind: str = "snr_db",
                 eval_tag: str | None = None) -> list:
    """Train the model for `tag`, sweep it on the eval stream of `eval_tag`
    (default `tag`) and write the curve; returns its records."""
    model, _ = _train(ctx, M, m, snr, tag)
    key = (derive_seed(ctx.master_seed, "eval", eval_tag or tag),)
    recs = metrics.sweep(model, kind, points, ctx.eval_blocks, key)
    _write(ctx, manifest, curve, metrics.EVALUATE_COLUMNS, recs,
           _model_config(ctx, model))
    return recs


def _adaptive_curve(ctx: RecipeContext, manifest: dict, curve: str, model,
                    tag: str, threshold: float,
                    columns=metrics.ADAPTIVE_COLUMNS) -> list[dict]:
    """Run the adaptive scheme over ADAPTIVE_SNRS_DB and write the curve."""
    key = (derive_seed(ctx.master_seed, "adaptive", tag),)
    rows = ad.adaptive_sweep(model, ADAPTIVE_SNRS_DB, threshold, ctx.probes,
                             ctx.eval_blocks, key)
    _write(ctx, manifest, curve, columns, rows,
           _model_config(ctx, model, threshold=threshold, K=ctx.probes))
    return rows


def _threshold_curves(ctx: RecipeContext, manifest: dict, name: str,
                      prefix: str, columns=metrics.ADAPTIVE_COLUMNS) -> dict:
    """One adaptive curve per MSE threshold on the fig5 M=64 model."""
    model, _ = _train(ctx, 64, 1, 5.0, "fig5-m64")
    return {f"th{t:g}": _adaptive_curve(ctx, manifest, f"{prefix}_th{t:g}", model,
                                        f"{name}-th{t:g}", t, columns)
            for t in MSE_THRESHOLDS}


def _recipe_fig3(ctx: RecipeContext, manifest: dict) -> None:
    """Hamming(7,4) HD/ML and uncoded BPSK vs the M=16 one-hot autoencoder."""
    ebn0 = [float(v) for v in range(0, 9)]
    # all three schemes share one stream per point
    key = (derive_seed(ctx.master_seed, "eval", "fig3-baseline"),)
    for scheme in ("hamming_hd", "hamming_ml", "uncoded_bpsk"):
        _write(ctx, manifest, scheme, metrics.BASELINE_COLUMNS,
               hamming.baseline_sweep(scheme, ebn0, ctx.eval_blocks, key),
               _base_config(ctx, scheme=scheme))
    _sweep_curve(ctx, manifest, "autoencoder_m16", 16, 1, 10.0, "fig3-m16",
                 ebn0, "ebn0_db")


def _recipe_fig4(ctx: RecipeContext, manifest: dict) -> None:
    """Gray-coded BER of one-hot autoencoders, M = 4 to 32, trained at 10 dB."""
    ebn0 = [float(v) for v in range(0, 9)]
    for M in (4, 8, 16, 32):
        _sweep_curve(ctx, manifest, f"onehot_m{M}", M, 1, 10.0, f"fig4-m{M}",
                     ebn0, "ebn0_db")


def matched_rate_report(adaptive_rows, conventional: dict) -> dict:
    """BLER reduction vs the same-size conventional codebook wherever the
    realized M1 matches one, plus a flag for any point reaching 80%."""
    points = []
    for row in adaptive_rows:
        recs = conventional.get(row["M1"])
        if recs is None:
            continue
        conv = next((r for r in recs if r.snr_db == row["snr_db"]), None)
        if conv is None or conv.bler == 0:
            continue
        points.append({
            "snr_db": float(row["snr_db"]), "M1": int(row["M1"]),
            "adaptive_bler": float(row["bler"]),
            "conventional_bler": float(conv.bler),
            "reduction": 1.0 - float(row["bler"]) / conv.bler,
        })
    return {"points": points,
            "achieves_80pct": any(p["reduction"] >= 0.8 for p in points)}


def _recipe_fig5(ctx: RecipeContext, manifest: dict) -> None:
    """Adaptive BLER vs the conventional one-hot sizes, trained at 5 dB."""
    conventional = {M: _sweep_curve(ctx, manifest, f"onehot_m{M}", M, 1, 5.0,
                                    f"fig5-m{M}")
                    for M in (4, 8, 16, 32, 64)}
    curves = _threshold_curves(ctx, manifest, "fig5", "adaptive")
    manifest["matched_rate"] = {th: matched_rate_report(rows, conventional)
                                for th, rows in curves.items()}


def _recipe_fig6(ctx: RecipeContext, manifest: dict) -> None:
    """Realized data rate of the adaptive scheme against the fixed rates."""
    rows = [{"scheme": "onehot", "M": M, "rate_bits_per_use": log2(M) / N_CHANNEL_USES}
            for M in (4, 8, 16, 32, 64)]
    _write(ctx, manifest, "conventional_rates",
           ("scheme", "M", "rate_bits_per_use"), rows, _base_config(ctx))
    _threshold_curves(ctx, manifest, "fig6", "adaptive")


def _recipe_fig7(ctx: RecipeContext, manifest: dict) -> None:
    """Simulated reconstruction MSE of the adaptive scheme per threshold."""
    _threshold_curves(ctx, manifest, "fig7", "adaptive_mse",
                      ("snr_db", "threshold", "K", "M1", "outage", "mse"))


def _recipe_fig8(ctx: RecipeContext, manifest: dict) -> None:
    """BLER of m-of-M codebooks at fixed M=8 (a) and at fixed rate 6/7 (b)."""
    for M, m in ((8, 1), (8, 2), (8, 3), (8, 4), (16, 2), (64, 1)):
        _sweep_curve(ctx, manifest, f"m{M}_order{m}", M, m, 5.0, f"fig8-m{M}x{m}")


def _recipe_fig9(ctx: RecipeContext, manifest: dict) -> None:
    """Exact achievable-rate curves; no training involved."""
    ebn0 = [float(v) for v in range(0, 21, 2)]
    for M, m in ((8, 1), (8, 2), (8, 3), (8, 4), (16, 2), (64, 1), (64, 2)):
        rates = analysis.achievable_rate(M, m, N_CHANNEL_USES, ebn0)
        rows = [{"M": M, "m": m, "ebn0_db": e, "rate_bits_s_hz": r}
                for e, r in zip(ebn0, rates)]
        _write(ctx, manifest, f"m{M}_order{m}",
               ("M", "m", "ebn0_db", "rate_bits_s_hz"), rows,
               _base_config(ctx, M=M, m=m))


_TRAINING_SNRS = (-30.0, -20.0, -10.0, 0.0, 10.0, 20.0)
_TRAINING_SET = (-20.0, -10.0, 0.0, 10.0, 20.0)
_TEST_SNRS_DB = (-5.0, -2.0, 1.0, 4.0, 7.0, 10.0)


def _training_study_curves(ctx):
    curves = [(f"snrt_{s:g}", s) for s in _TRAINING_SNRS]
    curves.append(("snrt_set", _TRAINING_SET))
    return curves


def _recipe_fig10(ctx: RecipeContext, manifest: dict) -> None:
    """Training loss traces for the M=8 one-hot model across training SNRs."""
    for curve, snr in _training_study_curves(ctx):
        model, trace = _train(ctx, 8, 1, snr, f"fig10-{curve}")
        rows = [{"epoch": i + 1, "loss": v}
                for i, v in enumerate(trace.epoch_losses)]
        _write(ctx, manifest, curve, ("epoch", "loss"), rows,
               _model_config(ctx, model))


def _training_study_sweep(ctx: RecipeContext, manifest: dict, prefix: str,
                          curves) -> None:
    for curve, snr in curves:
        _sweep_curve(ctx, manifest, curve, 8, 1, snr, f"{prefix}-{curve}",
                     _TEST_SNRS_DB)


def _recipe_fig11(ctx: RecipeContext, manifest: dict) -> None:
    """BLER over operating SNR for models trained at each training SNR."""
    _training_study_sweep(ctx, manifest, "fig11", _training_study_curves(ctx))


def _recipe_fig12(ctx: RecipeContext, manifest: dict) -> None:
    """Reconstruction MSE over operating SNR for M=8 one-hot models trained
    at each of fig11's training SNRs; the recipe trains its own seven,
    under fig12-* tags."""
    _training_study_sweep(ctx, manifest, "fig12", _training_study_curves(ctx))


def _recipe_fig13(ctx: RecipeContext, manifest: dict) -> None:
    """Four schemes at rate 6/7: fixed one-hot M=64, adaptive, GDR, adaptive-GDR."""
    _sweep_curve(ctx, manifest, "onehot_m64", 64, 1, 5.0, "fig5-m64",
                 eval_tag="fig13-m64")
    _sweep_curve(ctx, manifest, "gdr_m8_order4", 8, 4, 5.0, "fig8-m8x4",
                 eval_tag="fig13-gdr")
    m64, _ = _train(ctx, 64, 1, 5.0, "fig5-m64")
    _adaptive_curve(ctx, manifest, "adaptive_onehot", m64, "fig13-adaptive", 1e-4)
    gdr, _ = _train(ctx, 8, 4, 5.0, "fig8-m8x4")
    _adaptive_curve(ctx, manifest, "adaptive_gdr", gdr, "fig13-adaptive-gdr", 1e-4)


def _recipe_table4(ctx: RecipeContext, manifest: dict) -> None:
    """Parameter-count table over the validated vector sizes."""
    rows = []
    for M in (4, 8, 16, 32, 64):
        counts = theoretical_param_count(M, N_CHANNEL_USES)
        rows.append({"M": M, **counts})
    _write(ctx, manifest, "param_counts",
           ("M", "dense", "normalization", "relu", "softmax", "total"),
           rows, _base_config(ctx))


def _recipe_table5(ctx: RecipeContext, manifest: dict) -> None:
    """Selected subset size M1 per threshold and operating SNR."""
    model, _ = _train(ctx, 64, 1, 5.0, "fig5-m64")
    seed = derive_seed(ctx.master_seed, "adaptive", "table5")
    rows = []
    rate = data_rate(model.codebook, N_CHANNEL_USES)
    for threshold in MSE_THRESHOLDS:
        for i, snr_db in enumerate(ADAPTIVE_SNRS_DB):
            spec = ChannelSpec.from_snr_db(N_CHANNEL_USES, rate, snr_db)
            state = ad.run_adaptive(model, spec, threshold, ctx.probes,
                                    spawn_rng(seed, i))
            rows.append({"threshold": threshold, "snr_db": snr_db,
                         "M1": state.M1, "outage": state.outage})
    _write(ctx, manifest, "m1_table", ("threshold", "snr_db", "M1", "outage"),
           rows, _model_config(ctx, model, K=ctx.probes))


def _recipe_table6(ctx: RecipeContext, manifest: dict) -> None:
    """Data rates of the six reference codebook configurations."""
    rows = []
    for scheme, M, m in (("onehot", 8, 1), ("gdr", 8, 2), ("gdr", 8, 3),
                         ("gdr", 8, 4), ("gdr", 16, 2), ("onehot", 64, 1)):
        cb = build_onehot(M) if m == 1 else build_gdr(M, m)
        rows.append({"scheme": scheme, "M": M, "m": m, "n": N_CHANNEL_USES,
                     "rate_bits_per_use": data_rate(cb, N_CHANNEL_USES)})
    _write(ctx, manifest, "data_rates",
           ("scheme", "M", "m", "n", "rate_bits_per_use"), rows,
           _base_config(ctx))


def _recipe_corrections_fig1(ctx: RecipeContext, manifest: dict) -> None:
    """GDR vs one-hot at M=8 with l2 normalization, trained at 10 dB."""
    ebn0 = [float(v) for v in range(0, 11, 2)]
    for m in (1, 2, 3, 4):
        _sweep_curve(ctx, manifest, f"m8_order{m}", 8, m, 10.0, f"cfig1-m8x{m}",
                     ebn0, "ebn0_db")


def _recipe_corrections_fig2(ctx: RecipeContext, manifest: dict) -> None:
    """Training-SNR study with the corrected normalization and SNR set."""
    curves = [(f"snrt_{s:g}", s) for s in (-10.0, 0.0, 10.0, 20.0, 30.0)]
    curves.append(("snrt_set", (0.0, 10.0, 20.0, 30.0)))
    _training_study_sweep(ctx, manifest, "cfig2", curves)


RECIPES = {
    "fig3": ("BER: autoencoder M=16 vs Hamming(7,4) HD/ML and uncoded BPSK",
             _recipe_fig3),
    "fig4": ("BER of one-hot autoencoders, M in {4,8,16,32}", _recipe_fig4),
    "fig5": ("BLER: adaptive scheme vs conventional one-hot sizes", _recipe_fig5),
    "fig6": ("data rate of adaptive vs conventional schemes", _recipe_fig6),
    "fig7": ("simulated MSE of the adaptive scheme", _recipe_fig7),
    "fig8": ("BLER of m-of-M codebooks at M=8 and at rate 6/7", _recipe_fig8),
    "fig9": ("maximum achievable rate per codebook configuration", _recipe_fig9),
    "fig10": ("training loss traces across training SNRs", _recipe_fig10),
    "fig11": ("BLER over operating SNR per training SNR", _recipe_fig11),
    "fig12": ("MSE over operating SNR per training SNR", _recipe_fig12),
    "fig13": ("BLER of fixed, adaptive, GDR and adaptive-GDR schemes",
              _recipe_fig13),
    "table4": ("trainable parameter counts per vector size", _recipe_table4),
    "table5": ("adaptively selected subset size per threshold and SNR",
               _recipe_table5),
    "table6": ("data rates of the reference codebook configurations",
               _recipe_table6),
    "corrections_fig1": ("GDR vs one-hot BLER with l2 normalization",
                         _recipe_corrections_fig1),
    "corrections_fig2": ("training-SNR study with corrected normalization",
                         _recipe_corrections_fig2),
}


def available_recipes() -> list[str]:
    return sorted(RECIPES)


def run_figure(name: str, ctx: RecipeContext) -> dict:
    """Execute one recipe; returns the manifest (also written to disk)."""
    if name not in RECIPES:
        raise UnknownRecipeError(
            f"unknown recipe {name!r}; available: {', '.join(available_recipes())}"
        )
    os.makedirs(ctx.out_dir, exist_ok=True)
    manifest = {
        "recipe": name,
        "description": RECIPES[name][0],
        "master_seed": ctx.master_seed,
        "paper_scale": ctx.paper_scale,
        "blocks": ctx.eval_blocks,
        "epochs": ctx.epochs,
        "train_samples": ctx.train_samples,
        "probes": ctx.probes,
        "files": {},
        "configs": {},
    }
    RECIPES[name][1](ctx, manifest)
    path = os.path.join(ctx.out_dir, f"{name}_manifest.json")
    with metrics.atomic_write(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
