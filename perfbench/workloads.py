"""The benchmark's workloads, their inputs and their output checks.

A workload is a fixed list of operations through aecomm's public API, the
same calls the matching CLI subcommands make. One pass runs every operation
of the workload once, in order, with one caller, and checks each output.
An operation is one `train` call, one sweep point, one baseline point, one
analyze point or one adaptive operating point.

Inputs of a pass are a function of (master seed, pass index) only. The
reference pass replays REFERENCE_SEED, whose exact outputs are recorded in
fixtures/reference.json; matching them is reported as a count and is never
a failure, so a change that documents a new RNG draw order still passes.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import aecomm  # noqa: E402
from aecomm import adaptive, analysis, hamming, metrics, model  # noqa: E402
from aecomm.channel import ChannelSpec, spawn_rng  # noqa: E402

FIXTURE_DIR = HERE / "fixtures"
MANIFEST = FIXTURE_DIR / "manifest.json"
REFERENCE = FIXTURE_DIR / "reference.json"

N = 7
REFERENCE_SEED = 20181221

# Fully trained models, published schedule; name -> (M, m, training SNR dB, seed).
FIXTURES = {
    "onehot_m16": (16, 1, 10.0, 0),
    "onehot_m64": (64, 1, 5.0, 0),
    "gdr_m8x4": (8, 4, 5.0, 0),
    "onehot_m4": (4, 1, 10.0, 2),
}

# train: published batch size 45 and 20000 samples per epoch, short schedule
TRAIN_EPOCHS = 4
FIG10_SNR_SET = (-20.0, -10.0, 0.0, 10.0, 20.0)
TRAIN_CONFIGS = (
    ("m8_10db", 8, 10.0),
    ("m8_snrset", 8, FIG10_SNR_SET),
    ("m64_5db", 64, 5.0),
)
# gate 11's bar; a set holding -20 dB samples has a loss floor above it,
# so that configuration must only lower its loss
CONVERGENCE_RATIO = 0.5

# sweep_onehot, sweep_gdr: estimate_bler runs in 65,536-row chunks; the
# GDR points take four chunks, so that a pass lasts about a second
EBN0_AXIS = (0.0, 4.0, 8.0)
EVAL_MODELS = ("onehot_m16", "onehot_m64", "gdr_m8x4")
EVAL_BLOCKS = {"onehot_m16": 1 << 16, "onehot_m64": 1 << 16, "gdr_m8x4": 1 << 18}
SWEEP_MODELS = {"sweep_onehot": ("onehot_m16", "onehot_m64"), "sweep_gdr": ("gdr_m8x4",)}
# baseline: the Hamming/BPSK baselines on the same axis, and the MSE decomposition
BASELINE_SCHEMES = ("hamming_hd", "hamming_ml", "uncoded_bpsk")
BASELINE_BLOCKS = 1 << 17
ANALYZE_MODEL = "onehot_m4"
ANALYZE_SIGMA2 = (0.01, 0.05, 0.1)
ANALYZE_SAMPLES = 300_000
ANALYZE_REL_TOL = 0.20

# adaptive: the table5/fig13 grid
ADAPTIVE_MODELS = ("onehot_m64", "gdr_m8x4")
THRESHOLDS = (1e-4, 1e-5, 1e-6)
OPERATING_SNRS = (-5.0, -3.0, -1.0, 1.0, 3.0, 5.0)
PROBES = 100
ADAPTIVE_BLOCKS = 1 << 14

# width of the binomial agreement checks, in standard deviations
Z = 5.0

WORKLOADS = ("train", "sweep_onehot", "sweep_gdr", "baseline", "adaptive")


@dataclass
class Fixtures:
    models: dict
    codebooks: dict
    reference: dict | None  # None only while make_fixtures.py builds it


def setup() -> Fixtures:
    """Load every fixture checkpoint and build the training codebooks."""
    manifest = json.loads(MANIFEST.read_text())
    models = {}
    for name, entry in manifest.items():
        ae = model.load_checkpoint(FIXTURE_DIR / entry["file"])
        if ae.params_checksum() != entry["params_checksum"]:
            raise RuntimeError(f"fixture {name}: params_checksum differs from manifest")
        models[name] = ae
    codebooks = {M: aecomm.build_onehot(M) for M in sorted({c[1] for c in TRAIN_CONFIGS})}
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else None
    return Fixtures(models, codebooks, reference)


@dataclass
class Op:
    """One operation of a pass: what ran, how long, what it returned."""

    kind: str
    label: str
    seconds: float
    work: int
    output: object
    fingerprint: object
    problem: str | None
    calibration_s: float | None = None  # kernel seconds timed around it, set by run.py

    @property
    def ok(self) -> bool:
        return self.problem is None


def _int_seed(master: int, *key) -> int:
    return int(np.random.SeedSequence(master, spawn_key=key).generate_state(1)[0])


def _run(ops: list, kind: str, label: str, work: int, call, check, fingerprint,
         between=None) -> None:
    """Time one operation, check it, and hand it to `between` (run.py's
    calibration) before the next operation starts."""
    start = perf_counter()
    try:
        out = call()
        seconds = perf_counter() - start
        ops.append(Op(kind, label, seconds, work, out, fingerprint(out), check(out)))
    except Exception as e:  # raising, or output the check cannot read, is a failure
        ops.append(Op(kind, label, perf_counter() - start, work, None, None,
                      f"raised {type(e).__name__}: {e}"))
    if between is not None:
        between(ops[-1])


def _binomial_problem(errors: int, trials: int, ref_errors: int, ref_trials: int) -> str | None:
    """None when two error counts agree within Z pooled standard deviations."""
    p1, p2 = errors / trials, ref_errors / ref_trials
    pool = (errors + ref_errors) / (trials + ref_trials)
    sd = math.sqrt(pool * (1.0 - pool) * (1.0 / trials + 1.0 / ref_trials))
    slack = 1.0 / trials + 1.0 / ref_trials
    if abs(p1 - p2) <= Z * sd + slack:
        return None
    return f"rate {p1:.3e} vs reference {p2:.3e} ({errors}/{trials} vs {ref_errors}/{ref_trials})"


def _q(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _exact_problem(errors: int, trials: int, p: float) -> str | None:
    """None when an error count agrees with a known probability p."""
    sd = math.sqrt(trials * p * (1.0 - p))
    if abs(errors - trials * p) <= Z * sd + 1.0:
        return None
    return f"rate {errors / trials:.3e} vs closed form {p:.3e}"


def _ref(fx: Fixtures, group: str, label: str) -> dict:
    if fx.reference is None:
        raise RuntimeError(f"{REFERENCE.name} is missing; run make_fixtures.py")
    return fx.reference[group][label]


# ---- train ---------------------------------------------------------------

def _snr_kwargs(snr) -> dict:
    if isinstance(snr, tuple):
        return {"training_snr_set_db": snr}
    return {"training_snr_db": snr}


def train_op(fx: Fixtures, M: int, snr, seed: int):
    ae = model.build_model(fx.codebooks[M], N, seed=seed)
    trace = model.train(ae, model.TrainingConfig(epochs=TRAIN_EPOCHS, seed=seed,
                                                 **_snr_kwargs(snr)))
    return trace.epoch_losses, trace.params_checksum


def _check_train(snr):
    def check(out):
        losses, _ = out
        if not all(math.isfinite(v) for v in losses):
            return f"non-finite loss {losses}"
        ratio = losses[-1] / losses[0]
        converged = ratio < 1.0 if isinstance(snr, tuple) else ratio <= CONVERGENCE_RATIO
        return None if converged else f"convergence ratio {ratio:.3f} missed"
    return check


def train_seed(fx: Fixtures, master: int, p: int, c: int, M: int) -> int:
    """First seed of the (master, pass, config) stream whose fresh model
    transmits every message. About 3% of M=8 Glorot draws map some message
    to the zero vector, an input aecomm refuses with DegenerateInputError
    before its first step; the generator skips those draws."""
    codebook = fx.codebooks[M]
    for k in range(100):
        seed = _int_seed(master, p, c, k)
        try:
            model.build_model(codebook, N, seed=seed).transmit(codebook.entries)
        except aecomm.DegenerateInputError:
            continue
        return seed
    raise RuntimeError(f"no live initialisation in 100 draws for M={M}")


def train_pass(fx: Fixtures, master: int, p: int, between=None) -> list:
    ops = []
    samples = TRAIN_EPOCHS * model.TrainingConfig.train_samples
    for c, (label, M, snr) in enumerate(TRAIN_CONFIGS):
        seed = train_seed(fx, master, p, c, M)
        _run(ops, "train", label, samples,
             lambda: train_op(fx, M, snr, seed),
             _check_train(snr), lambda out: out[1], between)
    return ops


# ---- sweep ---------------------------------------------------------------

def eval_label(name: str, ebn0: float) -> str:
    return f"{name}@{ebn0:g}dB"


def eval_op(ae, ebn0: float, blocks: int, rng):
    spec = ChannelSpec.from_ebn0(ae.n, aecomm.data_rate(ae.codebook, ae.n), ebn0)
    return metrics.estimate_bler(ae, None, spec, blocks, rng)


def baseline_op(scheme: str, ebn0: float, blocks: int, rng):
    return hamming.baseline_block_errors(scheme, ebn0, blocks, rng)


def analyze_op(ae, sigma2: float, samples: int, rng):
    return analysis.mse_decomposition(ae, None, sigma2, samples, rng)


def _check_eval(fx: Fixtures, label: str):
    def check(rec):
        ref = _ref(fx, "eval", label)
        return _binomial_problem(rec.block_errors, rec.blocks,
                                 ref["block_errors"], ref["blocks"])
    return check


def _check_baseline(fx: Fixtures, scheme: str, ebn0: float, label: str):
    def check(c):
        if scheme == "uncoded_bpsk":
            p = _q(math.sqrt(2.0 * 10.0 ** (ebn0 / 10.0)))
            return (_exact_problem(c["bit_errors"], c["bits"], p)
                    or _exact_problem(c["block_errors"], c["blocks"],
                                      1.0 - (1.0 - p) ** hamming.K_BITS))
        ref = _ref(fx, "baseline", label)
        return _binomial_problem(c["block_errors"], c["blocks"],
                                 ref["block_errors"], ref["blocks"])
    return check


def _check_analyze(fx: Fixtures):
    def check(r):
        ref = _ref(fx, "analyze", ANALYZE_MODEL)
        rel = abs(r["predicted_total"] - r["simulated_mse"]) / r["simulated_mse"]
        if not rel <= ANALYZE_REL_TOL:
            return f"predicted vs simulated MSE rel err {rel:.3f} > {ANALYZE_REL_TOL}"
        per_sigma2 = r["noise_term"] / r["sigma2"]
        if abs(per_sigma2 / ref["noise_per_sigma2"] - 1.0) > 1e-9:
            return f"noise term not linear in sigma2: {per_sigma2!r} per unit"
        return None
    return check


def _record_fingerprint(rec):
    return [rec.block_errors, rec.bit_errors]


def _sweep_pass(workload: str):
    def sweep_pass(fx: Fixtures, master: int, p: int, between=None) -> list:
        ops = []
        for name in SWEEP_MODELS[workload]:
            g, ae, blocks = EVAL_MODELS.index(name), fx.models[name], EVAL_BLOCKS[name]
            for i, ebn0 in enumerate(EBN0_AXIS):
                label = eval_label(name, ebn0)
                rng = spawn_rng(master, p, g, i)
                _run(ops, f"eval:{name}", label, blocks,
                     lambda: eval_op(ae, ebn0, blocks, rng),
                     _check_eval(fx, label), _record_fingerprint, between)
        return ops
    return sweep_pass


def baseline_pass(fx: Fixtures, master: int, p: int, between=None) -> list:
    ops = []
    for s, scheme in enumerate(BASELINE_SCHEMES):
        for i, ebn0 in enumerate(EBN0_AXIS):
            label = eval_label(scheme, ebn0)
            rng = spawn_rng(master, p, len(EVAL_MODELS) + s, i)
            _run(ops, "baseline", label, BASELINE_BLOCKS,
                 lambda: baseline_op(scheme, ebn0, BASELINE_BLOCKS, rng),
                 _check_baseline(fx, scheme, ebn0, label),
                 lambda c: [c["block_errors"], c["bit_errors"]], between)
    ae = fx.models[ANALYZE_MODEL]
    for i, sigma2 in enumerate(ANALYZE_SIGMA2):
        rng = spawn_rng(master, p, len(EVAL_MODELS) + len(BASELINE_SCHEMES), i)
        _run(ops, "analyze", f"{ANALYZE_MODEL}@sigma2={sigma2:g}", ANALYZE_SAMPLES,
             lambda: analyze_op(ae, sigma2, ANALYZE_SAMPLES, rng),
             _check_analyze(fx), lambda r: repr(r["simulated_mse"]), between)
    return ops


# ---- adaptive ------------------------------------------------------------

def adaptive_label(name: str, threshold: float, snr: float) -> str:
    return f"{name}@th={threshold:g},{snr:g}dB"


def adaptive_op(ae, threshold: float, snr: float, blocks: int, rng):
    """Probe, select and evaluate one operating point, as `aecomm adaptive` does."""
    spec = ChannelSpec.from_snr_db(ae.n, aecomm.data_rate(ae.codebook, ae.n), snr)
    state = adaptive.run_adaptive(ae, spec, threshold, PROBES, rng)
    sub, _ = adaptive.selected_codebook(ae, state)
    rec = metrics.estimate_bler(ae, sub, spec, blocks, rng, scheme="adaptive")
    return state, rec


def pairwise_label(name: str, snr: float) -> str:
    return f"{name}@{snr:g}dB"


def _check_adaptive(fx: Fixtures, name: str, snr: float):
    """Selection rules, then the subset BLER against pairwise bounds.

    A received block decodes wrongly within a subset S exactly when some
    other entry of S carries more probability mass than the sent one, so
    with W[i, j] the reference probability that entry j outweighs sent
    entry i, BLER(S) lies between the mean over i of max_j W[i, j] and the
    mean of sum_j W[i, j]. The selection itself is close to uniform over
    entries at these thresholds, so no per-subset reference exists.
    """
    def check(out):
        state, rec = out
        labels = sorted(int(i) for i in state.feedback_labels)
        order = np.argsort(state.probe_mses, kind="stable")
        if labels != sorted(int(i) for i in order[:state.M1]):
            return "fed-back entries are not the best-probed ones"
        meets = bool(state.probe_mses[order[state.M1 - 1]] <= state.mse_threshold)
        if meets == state.outage:
            return f"outage flag {state.outage} contradicts the probe MSEs"
        if state.rate_bits_per_use != math.log2(state.M1) / N:
            return f"rate {state.rate_bits_per_use} != log2({state.M1})/{N}"
        ref = _ref(fx, "pairwise", pairwise_label(name, snr))
        draws = ref["draws"]
        wins = np.array([row.split() for row in ref["wins"]], dtype=np.float64)
        w = wins[np.ix_(labels, labels)] / draws
        np.fill_diagonal(w, 0.0)
        low_terms, high_terms = w.max(axis=1), np.minimum(w.sum(axis=1), 1.0)
        size, n = len(labels), rec.blocks
        low, high = float(low_terms.mean()), float(high_terms.mean())
        low_sd = math.sqrt(float(np.sum(low_terms * (1 - low_terms))) / draws) / size
        high_sd = math.sqrt(float(np.sum(w * (1 - w))) / draws) / size
        bler = rec.block_errors / n
        if bler < low - Z * (math.sqrt(low * (1 - low) / n) + low_sd) - 1.0 / n:
            return f"subset BLER {bler:.3e} below pairwise bound {low:.3e}"
        if bler > high + Z * (math.sqrt(high * (1 - high) / n) + high_sd) + 1.0 / n:
            return f"subset BLER {bler:.3e} above union bound {high:.3e}"
        return None
    return check


def adaptive_pass(fx: Fixtures, master: int, p: int, between=None) -> list:
    ops = []
    for g, name in enumerate(ADAPTIVE_MODELS):
        ae = fx.models[name]
        for t, threshold in enumerate(THRESHOLDS):
            for i, snr in enumerate(OPERATING_SNRS):
                label = adaptive_label(name, threshold, snr)
                rng = spawn_rng(master, p, g, t, i)
                _run(ops, "adaptive", label, 1,
                     lambda: adaptive_op(ae, threshold, snr, ADAPTIVE_BLOCKS, rng),
                     _check_adaptive(fx, name, snr),
                     lambda out: [int(i) for i in sorted(out[0].feedback_labels)]
                     + [out[1].block_errors], between)
    return ops


PASSES = {"train": train_pass, "sweep_onehot": _sweep_pass("sweep_onehot"),
          "sweep_gdr": _sweep_pass("sweep_gdr"), "baseline": baseline_pass,
          "adaptive": adaptive_pass}
