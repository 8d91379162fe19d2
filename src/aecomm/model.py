"""End-to-end autoencoder link model: build, train, checkpoint.

Transmitter: dense(M->M, relu), dense(M->n, linear), l2 power normalization.
Receiver: dense(n->M, relu), dense(M->M, softmax). Training minimizes the
squared reconstruction error through additive channel noise, drawing fresh
noise for every sample presentation.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .channel import snr_db_to_sigma2
from .codebooks import Codebook, build_gdr
from .errors import (
    CheckpointDimensionError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    DomainError,
    TrainingDivergedError,
)

CHECKPOINT_MAGIC = "aecomm checkpoint"
CHECKPOINT_VERSION = 1


def theoretical_param_count(M: int, n: int) -> dict:
    """Per-layer and total trainable parameter counts, by the published
    accounting that charges 2n parameters to the normalization layer.

    The l2 normalization actually used has no parameters; the live model
    therefore carries total - 2n trainables (see Autoencoder.num_parameters).
    """
    return {
        "dense": (M + 1) * (M + n),
        "normalization": 2 * n,
        "relu": M * (n + 1),
        "softmax": M * (M + 1),
        "total": (2 * M + 3) * (M + n),
    }


class Autoencoder:
    """Trained (or trainable) transmitter/receiver pair over one codebook.

    theta is the flat parameter buffer (see nn); W1, b1 and W2, b2 are the
    transmitter's dense layers, W3, b3 and W4, b4 the receiver's, all views
    into theta.
    """

    def __init__(self, codebook: Codebook, n: int, training_summary: dict | None = None):
        self.codebook = codebook
        self.n = n
        self.theta = np.zeros(nn.param_count(codebook.M, n))
        (self.W1, self.b1, self.W2, self.b2,
         self.W3, self.b3, self.W4, self.b4) = self.params()
        self.training_summary = training_summary

    @property
    def M(self) -> int:
        return self.codebook.M

    def params(self) -> list[np.ndarray]:
        return nn.split(self.theta, self.M, self.n)

    def num_parameters(self) -> int:
        return self.theta.size

    def transmit(self, s):
        """Codebook vector(s) -> power-normalized channel symbols."""
        sb, single = nn.as_batch(s, self.M)
        h = nn.dense(sb, self.W1, self.b1, nn.relu)
        x = nn.power_normalize(nn.dense(h, self.W2, self.b2))
        return x[0] if single else x

    def receive(self, y):
        """Channel output(s) -> softmax probability vector(s)."""
        yb, single = nn.as_batch(y, self.n)
        h = nn.dense(yb, self.W3, self.b3, nn.relu)
        p = nn.dense(h, self.W4, self.b4, nn.softmax)
        return p[0] if single else p

    def receiver_preactivation(self, y):
        """Affine part of the receiver relu layer, W3 y + b3 (no clipping)."""
        return np.asarray(y) @ self.W3.T + self.b3

    def params_checksum(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.theta, dtype="<f8")).hexdigest()


def build_model(codebook: Codebook, n: int, seed=0) -> Autoencoder:
    """Fresh autoencoder with seeded uniform weights and zero biases."""
    rng = np.random.default_rng(seed)
    model = Autoencoder(codebook, n)
    for W in (model.W1, model.W2, model.W3, model.W4):
        W[...] = nn.glorot_uniform(*W.shape, rng)
    return model


@dataclass
class TrainingConfig:
    """Training hyperparameters; defaults follow the published setup."""

    epochs: int = 150
    batch_size: int = 45
    train_samples: int = 20000
    training_snr_db: float | None = None
    training_snr_set_db: tuple | None = None
    seed: int = 0
    learning_rate: float = 0.001

    def __post_init__(self):
        if self.training_snr_db is None and not self.training_snr_set_db:
            raise ConfigError("one of training_snr_db or training_snr_set_db is required")
        if self.training_snr_db is not None and self.training_snr_set_db:
            raise ConfigError("training_snr_db and training_snr_set_db are mutually exclusive")
        if self.training_snr_set_db is not None:
            self.training_snr_set_db = tuple(float(v) for v in self.training_snr_set_db)
        snrs = self.training_snr_set_db or (self.training_snr_db,)
        # NaN and -inf name no noise level; +inf is noiseless training
        if not all(v > -np.inf for v in snrs):
            raise DomainError(f"training SNRs must be numbers above -inf dB, got {snrs}")
        for name in ("epochs", "batch_size", "train_samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    def summary(self) -> dict:
        d = {
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "train_samples": self.train_samples,
            "loss": "mse",  # the only loss; kept so summaries keep their bytes
            "seed": self.seed,
            "learning_rate": self.learning_rate,
        }
        if self.training_snr_db is not None:
            d["training_snr_db"] = self.training_snr_db
        else:
            d["training_snr_set_db"] = list(self.training_snr_set_db)
        return d


@dataclass
class TrainingTrace:
    """Per-epoch mean loss plus run metadata."""

    epoch_losses: list[float] = field(default_factory=list)
    wall_time_s: float = 0.0
    params_checksum: str = ""

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1]

    def convergence_ratio(self) -> float:
        """Final epoch loss over first epoch loss; > 0.5 flags non-convergence."""
        return self.epoch_losses[-1] / self.epoch_losses[0]


def train(model: Autoencoder, config: TrainingConfig) -> TrainingTrace:
    """Train in place; returns the loss trace.

    Each epoch is one pass over train_samples uniformly drawn messages in
    batches of batch_size (the final short batch is kept as-is). Noise is
    drawn per sample at training_snr_db, or at an SNR picked uniformly per
    sample from training_snr_set_db.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    params = model.params()
    adam = nn.AdamState(model.theta.size, config.learning_rate)
    count = len(model.codebook)
    n = model.n
    if config.training_snr_set_db is not None:
        snr_choices = np.array(config.training_snr_set_db, dtype=np.float64)
    else:
        fixed_sigma = snr_db_to_sigma2(config.training_snr_db)

    trace = TrainingTrace()
    for epoch in range(config.epochs):
        remaining = config.train_samples
        loss_sum = 0.0
        while remaining > 0:
            b = min(config.batch_size, remaining)
            remaining -= b
            ids = rng.integers(0, count, size=b)
            s = model.codebook.entries[ids]
            if config.training_snr_set_db is not None:
                snrs = rng.choice(snr_choices, size=b)
                sigma2 = snr_db_to_sigma2(snrs)[:, None]
            else:
                sigma2 = fixed_sigma
            noise = np.sqrt(sigma2) * rng.standard_normal((b, n))
            loss, grad, _ = nn.backward_pass(params, s, noise)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, loss)
            nn.adam_step(adam, model.theta, grad)
            loss_sum += loss * b
        trace.epoch_losses.append(loss_sum / config.train_samples)

    trace.wall_time_s = time.perf_counter() - start
    trace.params_checksum = model.params_checksum()
    model.training_summary = config.summary()
    return trace


def _format_floats(row) -> str:
    return " ".join(format(v, ".17g") for v in row)


def _architecture_lines(M: int, n: int) -> list[str]:
    """The [architecture] block: the fixed topology, spelled out for (M, n)."""
    return [
        f"n = {n}",
        f"layer = dense relu {M} {M}",
        f"layer = dense linear {n} {M}",
        f"layer = power_norm {n}",
        f"layer = dense relu {M} {n}",
        f"layer = dense softmax {M} {M}",
        "tx_layers = 3",
    ]


def _dense_pairs(model: Autoencoder) -> list:
    """(weights, bias) views of the four dense layers, in checkpoint order."""
    params = model.params()
    return list(zip(params[0::2], params[1::2]))


def save_checkpoint(model: Autoencoder, path) -> None:
    """Write a versioned text checkpoint; reload is bit-exact."""
    cb = model.codebook
    if cb.selection.startswith("subset"):
        raise ConfigError("subset codebooks are runtime state, not checkpointable")
    lines = [f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}"]
    lines.append("[codebook]")
    for key, value in cb.manifest().items():
        lines.append(f"{key} = {value}")
    lines.append("[architecture]")
    lines.extend(_architecture_lines(model.M, model.n))
    lines.append("[training]")
    lines.append("config = " + json.dumps(model.training_summary, sort_keys=True))
    lines.append("[parameters]")
    for idx, (weights, bias) in enumerate(_dense_pairs(model)):
        lines.append(f"weights {idx} {weights.shape[0]} {weights.shape[1]}")
        lines.extend(_format_floats(row) for row in weights)
        lines.append(f"bias {idx} {bias.shape[0]}")
        lines.append(_format_floats(bias))
    lines.append("[end]")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class _CheckpointReader:
    def __init__(self, lines, path):
        self.lines = lines
        self.pos = 0
        self.path = path
        self.section = "header"

    def next_line(self) -> str:
        if self.pos >= len(self.lines):
            raise CheckpointTruncatedError(
                f"{self.path}: file ends inside section [{self.section}]"
            )
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect_section(self, name: str) -> None:
        line = self.next_line()
        if line != f"[{name}]":
            raise CheckpointTruncatedError(
                f"{self.path}: expected section [{name}], found {line!r}"
            )
        self.section = name

    def key_value(self, key: str) -> str:
        line = self.next_line()
        prefix = f"{key} = "
        if not line.startswith(prefix):
            raise CheckpointTruncatedError(
                f"{self.path}: expected '{key} = ...' in [{self.section}], found {line!r}"
            )
        return line[len(prefix):]


def load_checkpoint(path) -> Autoencoder:
    """Restore a model, refusing any file that is not a well-formed checkpoint."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    reader = _CheckpointReader(lines, path)

    header = reader.next_line()
    if not header.startswith(CHECKPOINT_MAGIC):
        raise CheckpointVersionError(f"{path}: not an aecomm checkpoint")
    version = header[len(CHECKPOINT_MAGIC):].strip()
    if version != str(CHECKPOINT_VERSION):
        raise CheckpointVersionError(
            f"{path}: format version {version} unsupported (expected {CHECKPOINT_VERSION})"
        )

    reader.expect_section("codebook")
    M = int(reader.key_value("M"))
    m = int(reader.key_value("m"))
    selection = reader.key_value("selection")
    seed_text = reader.key_value("selection_seed")
    selection_seed = None if seed_text == "None" else int(seed_text)
    bits = int(reader.key_value("bits_per_message"))
    codebook = build_gdr(M, m, selection=selection, selection_seed=selection_seed)
    if codebook.bits_per_message != bits:
        raise CheckpointDimensionError(
            f"{path}: rebuilt codebook has {codebook.bits_per_message} bits/message, "
            f"checkpoint declares {bits}"
        )

    reader.expect_section("architecture")
    n = int(reader.key_value("n"))
    expected = _architecture_lines(M, n)
    block = [f"n = {n}"] + [reader.next_line() for _ in expected[1:]]
    if block != expected:
        raise CheckpointDimensionError(
            f"{path}: [architecture] is not the fixed autoencoder topology for M={M}, n={n}"
        )

    reader.expect_section("training")
    training_summary = json.loads(reader.key_value("config"))

    reader.expect_section("parameters")
    model = Autoencoder(codebook, n, training_summary=training_summary)
    for idx, (W, b) in enumerate(_dense_pairs(model)):
        out_dim, in_dim = W.shape
        head = reader.next_line().split()
        if head[:2] != ["weights", str(idx)]:
            raise CheckpointTruncatedError(f"{path}: expected weights {idx}, found {head}")
        if [int(head[2]), int(head[3])] != [out_dim, in_dim]:
            raise CheckpointDimensionError(
                f"{path}: weights {idx} declared {head[2]}x{head[3]}, "
                f"architecture says {out_dim}x{in_dim}"
            )
        rows = [reader.next_line().split() for _ in range(out_dim)]
        weights = np.array(rows, dtype=np.float64)
        if weights.shape != (out_dim, in_dim):
            raise CheckpointDimensionError(
                f"{path}: weights {idx} matrix is {weights.shape}, "
                f"expected {(out_dim, in_dim)}"
            )
        head = reader.next_line().split()
        if head[:2] != ["bias", str(idx)]:
            raise CheckpointTruncatedError(f"{path}: expected bias {idx}, found {head}")
        bias = np.array(reader.next_line().split(), dtype=np.float64)
        if bias.shape != (out_dim,):
            raise CheckpointDimensionError(
                f"{path}: bias {idx} has length {bias.shape[0]}, expected {out_dim}"
            )
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
            raise DomainError(f"{path}: layer {idx} has non-finite parameters")
        W[...] = weights
        b[...] = bias
    if reader.next_line() != "[end]":
        raise CheckpointTruncatedError(f"{path}: missing [end] marker")
    return model
