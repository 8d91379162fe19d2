"""End-to-end autoencoder link model: build, train, checkpoint.

Transmitter: dense(M->M, relu), dense(M->n, linear), l2 power normalization.
Receiver: dense(n->M, relu), dense(M->M, softmax). Training minimizes the
squared reconstruction error through additive channel noise, drawing fresh
noise for every sample presentation.
"""

from __future__ import annotations

import hashlib
import json
import math
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
    DegenerateInputError,
    DomainError,
    ShapeError,
    TrainingDivergedError,
)
from .metrics import atomic_write

CHECKPOINT_MAGIC = "aecomm checkpoint"
CHECKPOINT_VERSION = 1
# build_model redraws dead transmitter columns at most this many times
MAX_INIT_REDRAWS = 100


def theoretical_param_count(M: int, n: int) -> dict:
    """Per-layer and total trainable parameter counts, by the published
    accounting that charges 2n parameters to the normalization layer.

    The l2 normalization actually used has no parameters; the live model
    therefore carries total - 2n trainables, the size of Autoencoder.theta.
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

    def transmit(self, s):
        """Codebook vector(s) -> power-normalized channel symbols."""
        sb, single = nn.as_batch(s, self.M)
        h = nn.dense(sb, self.W1, self.b1, nn.relu)
        x = nn.power_normalize(nn.dense(h, self.W2, self.b2))
        return x[0] if single else x

    def receive(self, y, out: np.ndarray | None = None, scratch: np.ndarray | None = None):
        """Channel output(s) -> softmax probability vector(s).

        The result is written into `out` when given, as numpy's out=: a
        C-contiguous float64 array of the result's shape, (B, M) or (M,) for
        one vector, which is returned. Its old contents are never read.
        `scratch`, a C-contiguous float64 array of at least B * M elements,
        takes the hidden layer and then its softmax's transposed tiles.
        """
        yb, single = nn.as_batch(y, self.n)
        B = yb.shape[0]
        shape = (self.M,) if single else (B, self.M)
        if out is None:
            out = np.empty(shape)
        elif (out.shape != shape or out.dtype != np.float64
              or not out.flags.c_contiguous):
            raise ShapeError(f"out must be a C-contiguous float64 array of shape "
                             f"{shape}, got {out.dtype} {out.shape}")
        size = B * self.M
        if scratch is None:
            scratch = np.empty(size)
        elif (scratch.dtype != np.float64 or not scratch.flags.c_contiguous
              or scratch.size < size):
            raise ShapeError(f"scratch must be a C-contiguous float64 array of at "
                             f"least {size} elements, got {scratch.dtype} {scratch.shape}")
        h = nn.dense(yb, self.W3, self.b3, nn.relu,
                     out=scratch.reshape(-1)[:B * self.M].reshape(B, self.M))
        nn.softmax(nn.dense(h, self.W4, self.b4, out=out.reshape(B, self.M)),
                   overwrite=True, scratch=scratch)
        return out

    def params_checksum(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.theta, dtype="<f8")).hexdigest()


def _dead_entries(model: Autoencoder) -> np.ndarray:
    """Ids of the codebook entries whose transmitter output, before power
    normalization, has a norm below nn.DEGENERATE_NORM_FLOOR: the entries
    transmit refuses. The codebook goes through in nn.tile_rows(M) slices."""
    entries, tile = model.codebook.entries, nn.tile_rows(model.M)
    dead = []
    for start in range(0, len(entries), tile):
        h = nn.dense(entries[start:start + tile], model.W1, model.b1, nn.relu)
        z = nn.dense(h, model.W2, model.b2)
        norms = np.sqrt(np.add.reduce(z * z, axis=1))
        dead.append(start + np.flatnonzero(norms < nn.DEGENERATE_NORM_FLOOR))
    return np.concatenate(dead)


def build_model(codebook: Codebook, n: int, seed=0) -> Autoencoder:
    """Fresh autoencoder with seeded uniform weights and zero biases.

    A draw can leave an entry dead: W1 maps its support to no positive
    hidden unit, so it transmits the zero vector, which power normalization
    refuses. After the four Glorot draws, the W1 columns on the support of
    every dead entry take the values of a fresh W1 draw from the same
    generator, until every entry is live (at most MAX_INIT_REDRAWS times).
    A draw with no dead entry keeps its plain Glorot weights.
    """
    rng = np.random.default_rng(seed)
    model = Autoencoder(codebook, n)
    for W in (model.W1, model.W2, model.W3, model.W4):
        W[...] = nn.glorot_uniform(*W.shape, rng)
    redraws = 0
    while (dead := _dead_entries(model)).size:
        if redraws == MAX_INIT_REDRAWS:
            raise DegenerateInputError(
                f"a transmitter output is still dead after {redraws} redraws of "
                f"its W1 columns (seed {seed})"
            )
        redraws += 1
        columns = np.flatnonzero(codebook.entries[dead].any(axis=0))
        model.W1[:, columns] = nn.glorot_uniform(*model.W1.shape, rng)[:, columns]
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
        # NaN, zero and negative rates name no descent step
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}")

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
    # one workspace per batch size: the batch size and an epoch's short last batch
    workspaces = {}
    if config.training_snr_set_db is not None:
        # noise scale per choice; rng.integers draws the indices that
        # rng.choice over the choices would
        set_sigmas = np.sqrt(snr_db_to_sigma2(
            np.array(config.training_snr_set_db, dtype=np.float64)))
    else:
        fixed_sigma = np.sqrt(snr_db_to_sigma2(config.training_snr_db))

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
                sigma = set_sigmas[rng.integers(0, len(set_sigmas), size=b)][:, None]
            else:
                sigma = fixed_sigma
            noise = sigma * rng.standard_normal((b, n))
            work = workspaces.get(b)
            if work is None:
                work = workspaces[b] = nn.Workspace(model.M, n, b)
            loss, grad, _ = nn.backward_pass(params, s, noise, work)
            if not math.isfinite(loss):
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


def _checkpoint_lines(model: Autoencoder, values: bool = True) -> list:
    """A checkpoint's lines in file order: what save_checkpoint writes and
    the layout load_checkpoint checks a file against. With values=False each
    parameter row is None."""
    M, n = model.M, model.n
    lines = [f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}", "[codebook]"]
    lines += [f"{key} = {value}" for key, value in model.codebook.manifest().items()]
    lines += ["[architecture]", f"n = {n}", f"layer = dense relu {M} {M}",
              f"layer = dense linear {n} {M}", f"layer = power_norm {n}",
              f"layer = dense relu {M} {n}", f"layer = dense softmax {M} {M}",
              "tx_layers = 3", "[training]",
              "config = " + json.dumps(model.training_summary, sort_keys=True),
              "[parameters]"]
    params = model.params()
    for idx, (weights, bias) in enumerate(zip(params[0::2], params[1::2])):
        lines.append(f"weights {idx} {weights.shape[0]} {weights.shape[1]}")
        lines += [_format_floats(row) if values else None for row in weights]
        lines.append(f"bias {idx} {bias.shape[0]}")
        lines.append(_format_floats(bias) if values else None)
    lines.append("[end]")
    return lines


def save_checkpoint(model: Autoencoder, path) -> None:
    """Write a versioned text checkpoint; reload is bit-exact."""
    if model.codebook.selection.startswith("subset"):
        raise ConfigError("subset codebooks are runtime state, not checkpointable")
    with atomic_write(path) as fh:
        fh.write("\n".join(_checkpoint_lines(model)) + "\n")


def _line(lines: list[str], i: int, section: str, path) -> str:
    if i >= len(lines):
        raise CheckpointTruncatedError(f"{path}: file ends inside section [{section}]")
    return lines[i]


def _key(lines: list[str], i: int, key: str, section: str, path) -> str:
    """The value of line i, which must read `key = value`."""
    line = _line(lines, i, section, path)
    if not line.startswith(f"{key} = "):
        raise CheckpointTruncatedError(
            f"{path}: expected '{key} = ...' in [{section}], found {line!r}")
    return line[len(key) + 3:]


def load_checkpoint(path) -> Autoencoder:
    """Restore a model, refusing any file whose lines up to [end] are not
    the lines save_checkpoint writes for the model they describe; what
    follows [end] is ignored."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = _line(lines, 0, "header", path)
    if not header.startswith(CHECKPOINT_MAGIC):
        raise CheckpointVersionError(f"{path}: not an aecomm checkpoint")
    version = header[len(CHECKPOINT_MAGIC):].strip()
    if version != str(CHECKPOINT_VERSION):
        raise CheckpointVersionError(
            f"{path}: format version {version} unsupported (expected {CHECKPOINT_VERSION})"
        )
    M, m, selection, seed_text = (_key(lines, i, key, "codebook", path) for i, key
                                  in enumerate(("M", "m", "selection", "selection_seed"), 2))
    n = int(_key(lines, 8, "n", "architecture", path))
    codebook = build_gdr(int(M), int(m), selection=selection,
                         selection_seed=None if seed_text == "None" else int(seed_text))
    model = Autoencoder(codebook, n)

    layout = _checkpoint_lines(model, values=False)
    params = enumerate(model.params())
    section, i = "header", 0
    while i < len(layout):
        want = layout[i]
        if want is None:
            # the rows of the next parameter array, (out, in) weights or a
            # bias as one (1, out) row, parsed in one call
            k, param = next(params)
            rows = param.reshape(-1, param.shape[-1])
            _line(lines, i + len(rows) - 1, section, path)
            try:
                values = np.array([line.split() for line in lines[i:i + len(rows)]],
                                  dtype=np.float64)
            except ValueError:
                values = None
            if values is None or values.shape != rows.shape:
                raise CheckpointDimensionError(
                    f"{path}: the {('weights', 'bias')[k % 2]} of layer {k // 2} from "
                    f"line {i + 1} do not parse to shape {param.shape}")
            if not np.all(np.isfinite(values)):
                raise DomainError(f"{path}: layer {k // 2} has non-finite parameters")
            rows[...] = values
            i += len(rows)
            continue
        got = _line(lines, i, section, path)
        if want.startswith("["):
            if got != want:
                raise CheckpointTruncatedError(
                    f"{path}: expected section {want}, found {got!r}")
            section = want[1:-1]
        elif want.startswith("config = "):
            model.training_summary = json.loads(_key(lines, i, "config", section, path))
        elif got != want:
            raise CheckpointDimensionError(
                f"{path}: line {i + 1} reads {got!r}, expected {want!r}")
        i += 1
    return model
