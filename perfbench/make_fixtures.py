"""Regenerate the benchmark's fixtures.

    python3 perfbench/make_fixtures.py              # train, then references
    python3 perfbench/make_fixtures.py --references # references only

Training writes one text checkpoint per entry of workloads.FIXTURES, each
trained with the full published schedule (150 epochs, batch 45), plus
fixtures/manifest.json with its training config and params_checksum.

References write fixtures/reference.json: large-sample error counts that
the binomial output checks compare against, and the exact outputs of the
reference pass (seed workloads.REFERENCE_SEED) that the benchmark counts
as exact reproductions. Both files are pure functions of the aecomm code,
so a rerun on unchanged code rewrites them byte for byte.
"""

from __future__ import annotations

import argparse
import json

from run import _pin_blas_threads

# the same single BLAS thread as run.py, set before numpy loads
_pin_blas_threads()

import numpy as np  # noqa: E402

import workloads as w  # noqa: E402
from workloads import aecomm, model, spawn_rng  # noqa: E402

# sample sizes behind the reference rates
REF_BLOCKS = 1_000_000
# received blocks per sent entry behind the pairwise win rates
PAIRWISE_DRAWS = 10_000


def train_fixtures() -> None:
    manifest = {}
    for name, (M, m, snr, seed) in w.FIXTURES.items():
        codebook = aecomm.build_onehot(M) if m == 1 else aecomm.build_gdr(M, m)
        ae = model.build_model(codebook, w.N, seed=seed)
        config = model.TrainingConfig(training_snr_db=snr, seed=seed)
        trace = model.train(ae, config)
        filename = f"{name}.ckpt"
        model.save_checkpoint(ae, w.FIXTURE_DIR / filename)
        manifest[name] = {"file": filename, "M": M, "m": m, "n": w.N,
                          "training": config.summary(),
                          "params_checksum": trace.params_checksum,
                          "final_loss": trace.final_loss}
        print(f"{name}: loss {trace.final_loss:.3e}, {trace.wall_time_s:.1f}s")
    _write(w.MANIFEST, manifest)


def pairwise_wins(ae, snr: float, rng) -> np.ndarray:
    """wins[i, j]: draws, of PAIRWISE_DRAWS with entry i sent at this SNR, in
    which entry j's support carries more received probability mass than i's."""
    sigma2 = aecomm.snr_db_to_sigma2(snr)
    entries = ae.codebook.entries
    support = (entries > 0).astype(np.float64)
    x = ae.transmit(entries)
    wins = np.zeros((len(entries), len(entries)), dtype=np.int64)
    for i in range(len(entries)):
        y = aecomm.awgn(np.repeat(x[i:i + 1], PAIRWISE_DRAWS, axis=0), sigma2, rng)
        mass = ae.receive(y) @ support.T
        wins[i] = np.count_nonzero(mass > mass[:, i:i + 1], axis=0)
    return wins


def _counts(blocks: int, block_errors: int) -> dict:
    return {"blocks": blocks, "block_errors": block_errors}


def make_references() -> None:
    fx = w.setup()
    ref = {"eval": {}, "baseline": {}, "analyze": {}, "pairwise": {}}
    for g, name in enumerate(w.EVAL_MODELS):
        for i, ebn0 in enumerate(w.EBN0_AXIS):
            rec = w.eval_op(fx.models[name], ebn0, REF_BLOCKS, spawn_rng(0, 1, g, i))
            ref["eval"][w.eval_label(name, ebn0)] = _counts(rec.blocks, rec.block_errors)
    for s, scheme in enumerate(w.BASELINE_SCHEMES):
        for i, ebn0 in enumerate(w.EBN0_AXIS):
            c = w.baseline_op(scheme, ebn0, REF_BLOCKS, spawn_rng(0, 2, s, i))
            ref["baseline"][w.eval_label(scheme, ebn0)] = _counts(c["blocks"],
                                                                  c["block_errors"])
    r = w.analyze_op(fx.models[w.ANALYZE_MODEL], 1.0, 1, spawn_rng(0, 3))
    ref["analyze"][w.ANALYZE_MODEL] = {"noise_per_sigma2": r["noise_term"]}

    for name in w.ADAPTIVE_MODELS:
        for i, snr in enumerate(w.OPERATING_SNRS):
            wins = pairwise_wins(fx.models[name], snr, spawn_rng(0, 4, i))
            ref["pairwise"][w.pairwise_label(name, snr)] = {"draws": PAIRWISE_DRAWS,
                                                            "wins": [" ".join(map(str, row))
                                                                     for row in wins]}
            print(f"pairwise wins {name} at {snr:g} dB")

    fx.reference = ref
    exact = {}
    for workload in w.WORKLOADS:
        ops = w.PASSES[workload](fx, w.REFERENCE_SEED, 0)
        failed = [f"{op.label}: {op.problem}" for op in ops if not op.ok]
        if failed:
            raise SystemExit(f"reference pass of {workload} fails its checks: {failed}")
        exact[workload] = {op.label: op.fingerprint for op in ops}
    ref["exact"] = exact
    _write(w.REFERENCE, ref)


def _write(path, data) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--references", action="store_true",
                        help="keep the checkpoints, recompute reference.json only")
    args = parser.parse_args()
    if not args.references:
        train_fixtures()
    make_references()


if __name__ == "__main__":
    main()
