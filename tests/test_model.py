import functools
import hashlib
import json
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aecomm import model as model_module
from aecomm import nn
from aecomm.channel import snr_db_to_sigma2
from aecomm.codebooks import build_gdr, build_onehot
from aecomm.errors import (
    CheckpointDimensionError,
    CheckpointError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    DegenerateInputError,
    DomainError,
    ShapeError,
    TrainingDivergedError,
)
from aecomm.model import (
    Autoencoder,
    TrainingConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
    theoretical_param_count,
    train,
)
from test_nn import reference_adam_step, reference_backward_pass

TABLE_TOTALS = {4: 121, 8: 285, 16: 805, 32: 2613, 64: 9301}


def test_parameter_accounting_per_layer():
    counts = theoretical_param_count(4, 7)
    assert counts == {
        "dense": 55,
        "normalization": 14,
        "relu": 32,
        "softmax": 20,
        "total": 121,
    }
    for M, total in TABLE_TOTALS.items():
        c = theoretical_param_count(M, 7)
        assert c["total"] == total
        assert sum(v for k, v in c.items() if k != "total") == total


def test_live_model_has_no_normalization_parameters():
    for M in (4, 8, 16):
        model = build_model(build_onehot(M), 7, seed=1)
        assert model.theta.size == TABLE_TOTALS[M] - 2 * 7


def test_architecture_shapes_and_activations():
    model = build_model(build_onehot(8), 7, seed=0)
    shapes = [p.shape for p in model.params()]
    assert shapes == [(8, 8), (8,), (7, 8), (7,), (8, 7), (8,), (8, 8), (8,)]
    # every named weight and bias is a view into the one flat buffer
    for p in (model.W1, model.b1, model.W2, model.b2,
              model.W3, model.b3, model.W4, model.b4):
        assert p.base is model.theta
    assert model.theta.size == sum(p.size for p in model.params())
    assert model.params_checksum() == hashlib.sha256(model.theta.tobytes()).hexdigest()
    # relu on the hidden layers, linear into the normalizer, softmax out
    s = np.eye(8)
    h = np.maximum(s @ model.W1.T + model.b1, 0.0)
    x = h @ model.W2.T + model.b2
    np.testing.assert_allclose(model.transmit(s),
                               np.sqrt(7) * x / np.linalg.norm(x, axis=1, keepdims=True))
    y = model.transmit(s)
    p = np.exp(np.maximum(y @ model.W3.T + model.b3, 0.0) @ model.W4.T + model.b4)
    np.testing.assert_allclose(model.receive(y), p / p.sum(axis=1, keepdims=True))


def test_transmit_obeys_power_constraint():
    model = build_model(build_onehot(16), 7, seed=3)
    x = model.transmit(model.codebook.entries)
    np.testing.assert_allclose(np.sum(x * x, axis=1), 7.0, atol=1e-12)


# (M, m) of every codebook below 8,192 candidate supports
_POWER_CODEBOOKS = [(M, m) for M in (4, 8, 16, 64) for m in range(1, M // 2 + 1)
                    if comb(M, m) < 8192]
_gdr = functools.cache(build_gdr)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_POWER_CODEBOOKS), st.integers(1, 16), st.integers(0, 2**32 - 1),
       st.floats(-3.0, 3.0))
def test_power_constraint_holds_under_random_weights(codebook, n, seed, log_scale):
    # every row of transmit(entries) carries energy n, whatever finite
    # weights and biases the transmitter has, as long as no entry is dead
    model = Autoencoder(_gdr(*codebook), n)
    rng = np.random.default_rng(seed)
    model.theta[:] = rng.normal(scale=10.0 ** log_scale, size=model.theta.size)
    assume(model_module._dead_entries(model).size == 0)
    x = model.transmit(model.codebook.entries)
    np.testing.assert_allclose(np.sum(x * x, axis=1), n, rtol=1e-12, atol=0)


def test_build_is_seed_deterministic():
    a = build_model(build_onehot(8), 7, seed=9)
    b = build_model(build_onehot(8), 7, seed=9)
    c = build_model(build_onehot(8), 7, seed=10)
    assert a.params_checksum() == b.params_checksum()
    assert a.params_checksum() != c.params_checksum()


def test_dead_transmitter_initialization_is_detected():
    # an all-negative first-layer column for a one-hot input gives an exact
    # zero pre-normalization vector at zero biases; build_model redraws such
    # columns, so this one is made by hand
    model = build_model(build_onehot(4), 7, seed=4)
    model.W1[:, 2] = -np.abs(model.W1[:, 2])
    with pytest.raises(DegenerateInputError):
        model.transmit(model.codebook.entries)


def _plain_glorot(codebook, seed):
    """build_model's four Glorot draws, with no redraw."""
    rng = np.random.default_rng(seed)
    model = Autoencoder(codebook, 7)
    for W in (model.W1, model.W2, model.W3, model.W4):
        W[...] = nn.glorot_uniform(*W.shape, rng)
    return model


@pytest.mark.parametrize("codebook", [build_onehot(4), build_gdr(8, 4)],
                         ids=["onehot4", "gdr8x4"])
def test_build_model_redraws_only_dead_transmitter_columns(codebook):
    redrawn = 0
    for seed in range(1000):
        model = build_model(codebook, 7, seed=seed)
        plain = _plain_glorot(codebook, seed)
        model.transmit(codebook.entries)  # every entry is live
        try:
            plain.transmit(codebook.entries)
        except DegenerateInputError:
            redrawn += 1
            # only W1 moves, on every column under a dead entry; at one-hot
            # on no other, while a GDR redraw can kill an entry sharing a column
            np.testing.assert_array_equal(np.delete(model.theta, range(model.W1.size)),
                                          np.delete(plain.theta, range(plain.W1.size)))
            moved = set(np.flatnonzero(np.any(model.W1 != plain.W1, axis=0)))
            h = np.maximum(codebook.entries @ plain.W1.T, 0.0)
            dead_support = set(codebook.supports[~np.any(h > 0.0, axis=1)].ravel())
            assert dead_support <= moved
            assert codebook.m > 1 or moved == dead_support
        else:
            assert model.params_checksum() == plain.params_checksum()
    # 225 of these seeds draw a dead one-hot M=4 entry and 108 a dead GDR 8-of-4 one
    assert redrawn == {4: 225, 8: 108}[codebook.M]


def test_build_model_gives_up_after_max_redraws(monkeypatch):
    monkeypatch.setattr(model_module, "MAX_INIT_REDRAWS", 0)
    with pytest.raises(DegenerateInputError, match="after 0 redraws"):
        build_model(build_onehot(4), 7, seed=4)
    build_model(build_onehot(4), 7, seed=1)  # a live draw needs no redraw


def test_training_config_validation():
    with pytest.raises(ConfigError):
        TrainingConfig()
    with pytest.raises(ConfigError):
        TrainingConfig(training_snr_db=10.0, training_snr_set_db=(0.0, 10.0))
    with pytest.raises(ConfigError):
        TrainingConfig(training_snr_db=10.0, epochs=0)
    for bad in (dict(training_snr_db=float("nan")),
                dict(training_snr_db=-np.inf),
                dict(training_snr_set_db=(0.0, float("nan")))):
        with pytest.raises(DomainError, match="above -inf"):
            TrainingConfig(**bad)
    # +inf is noiseless training
    assert TrainingConfig(training_snr_set_db=(0.0, np.inf)).training_snr_set_db[1] == np.inf
    cfg = TrainingConfig(training_snr_set_db=[0, 10])
    assert cfg.training_snr_set_db == (0.0, 10.0)
    assert cfg.summary()["training_snr_set_db"] == [0.0, 10.0]


@pytest.mark.parametrize("rate", [float("nan"), np.inf, -np.inf, 0.0, -0.0, -0.001])
def test_training_config_refuses_a_learning_rate_that_names_no_step(rate):
    with pytest.raises(ConfigError, match="learning_rate must be finite and > 0"):
        TrainingConfig(training_snr_db=10.0, learning_rate=rate)


def test_training_config_keeps_a_positive_learning_rate():
    for rate in (1e-300, 0.001, 1.0):
        assert TrainingConfig(training_snr_db=10.0, learning_rate=rate).learning_rate == rate


def _quick_config(**overrides):
    base = dict(epochs=3, train_samples=2000, training_snr_db=10.0, seed=1)
    base.update(overrides)
    return TrainingConfig(**base)


def test_training_is_reproducible():
    losses = []
    sums = []
    for _ in range(2):
        model = build_model(build_onehot(4), 7, seed=1)
        trace = train(model, _quick_config())
        losses.append(trace.epoch_losses)
        sums.append(model.params_checksum())
        assert trace.params_checksum == model.params_checksum()
        assert trace.wall_time_s > 0.0
        assert len(trace.epoch_losses) == 3
    assert losses[0] == losses[1]
    assert sums[0] == sums[1]


def test_training_reduces_loss():
    model = build_model(build_onehot(4), 7, seed=1)
    trace = train(model, _quick_config(epochs=30))
    assert trace.convergence_ratio() < 0.5
    assert trace.final_loss < trace.epoch_losses[0]
    assert model.training_summary["epochs"] == 30


def test_training_snr_set_draws_are_reproducible():
    runs = []
    for _ in range(2):
        model = build_model(build_onehot(4), 7, seed=2)
        trace = train(model, _quick_config(training_snr_db=None,
                                           training_snr_set_db=(0.0, 10.0, 20.0)))
        runs.append((trace.epoch_losses, model.params_checksum()))
    assert runs[0] == runs[1]


def _reference_train(model, config):
    """train's loop around test_nn's reference_backward_pass and
    reference_adam_step: the epoch losses of the out-of-place training step."""
    rng = np.random.default_rng(config.seed)
    params = model.params()
    m = v = np.zeros(model.theta.size)
    t = 0
    losses = []
    for _ in range(config.epochs):
        remaining = config.train_samples
        loss_sum = 0.0
        while remaining > 0:
            b = min(config.batch_size, remaining)
            remaining -= b
            s = model.codebook.entries[rng.integers(0, len(model.codebook), size=b)]
            if config.training_snr_set_db is not None:
                snrs = rng.choice(np.array(config.training_snr_set_db), size=b)
                sigma2 = snr_db_to_sigma2(snrs)[:, None]
            else:
                sigma2 = snr_db_to_sigma2(config.training_snr_db)
            noise = np.sqrt(sigma2) * rng.standard_normal((b, model.n))
            loss, grad, _ = reference_backward_pass(params, s, noise)
            t += 1
            m, v = reference_adam_step(model.theta, grad, m, v, t, config.learning_rate)
            loss_sum += loss * b
        losses.append(loss_sum / config.train_samples)
    return losses


SNR_SET = dict(training_snr_set_db=(0.0, 5.0, 10.0, 15.0))


@pytest.mark.parametrize("codebook, snr", [
    (build_onehot(8), dict(training_snr_db=10.0)),
    (build_onehot(8), SNR_SET),
    (build_onehot(8), dict(training_snr_set_db=(-3.7, 1.3, 6.15))),
    # OpenBLAS multiplies M=64 batches with other kernels than M=8 ones
    (build_onehot(64), dict(training_snr_db=5.0)),
    (build_onehot(64), SNR_SET),
    (build_gdr(8, 4), dict(training_snr_db=5.0)),
], ids=["10dB", "snr_set", "snr_set_non_integer", "onehot64_5dB", "onehot64_snr_set",
        "gdr8x4_5dB"])
def test_train_equals_reference_loop_bit_for_bit(codebook, snr):
    # 20,000 samples in batches of 45 end each epoch on a batch of 20, so
    # train uses two workspaces
    config = TrainingConfig(epochs=3, seed=1, **snr)
    reference = build_model(codebook, 7, seed=1)
    losses = _reference_train(reference, config)
    for _ in range(2):
        model = build_model(codebook, 7, seed=1)
        trace = train(model, config)
        assert [v.hex() for v in trace.epoch_losses] == [v.hex() for v in losses]
        assert trace.params_checksum == reference.params_checksum()


def test_train_steps_through_the_nn_module(monkeypatch):
    # perfbench's tracer counts these module-attribute calls: one of each
    # per batch, 444 of 45 and the short batch of 20 in a 20,000-sample epoch
    batches, adam_calls = [], []
    backward_pass, adam_step = nn.backward_pass, nn.adam_step

    def counted_backward_pass(params, s, noise, work=None):
        batches.append(s.shape[0])
        return backward_pass(params, s, noise, work)

    def counted_adam_step(state, theta, grad):
        adam_calls.append(state.step)
        return adam_step(state, theta, grad)

    monkeypatch.setattr(nn, "backward_pass", counted_backward_pass)
    monkeypatch.setattr(nn, "adam_step", counted_adam_step)
    train(build_model(build_onehot(4), 7, seed=1), TrainingConfig(epochs=2, seed=1,
                                                                  training_snr_db=10.0))
    assert batches == 2 * ([45] * 444 + [20])
    assert adam_calls == list(range(2 * 445))


def test_training_detects_divergence():
    model = build_model(build_onehot(4), 7, seed=1)
    model.W1[0, 0] = np.nan
    with pytest.raises(TrainingDivergedError) as err:
        train(model, _quick_config())
    assert err.value.epoch == 0


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    model = build_model(build_onehot(8), 7, seed=6)
    trace = train(model, _quick_config(seed=6))
    path = tmp_path / "m8.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.params_checksum() == model.params_checksum()
    assert loaded.training_summary == model.training_summary
    y = np.random.default_rng(0).standard_normal((10, 7))
    np.testing.assert_array_equal(loaded.receive(y), model.receive(y))
    ids = np.arange(8)
    np.testing.assert_array_equal(
        loaded.transmit(loaded.codebook.entries[ids]),
        model.transmit(model.codebook.entries[ids]),
    )


def test_checkpoint_round_trip_gdr_random_selection(tmp_path):
    model = build_model(build_gdr(8, 2, selection="random", selection_seed=5), 7, seed=2)
    path = tmp_path / "gdr.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.codebook.supports, model.codebook.supports)
    assert loaded.codebook.selection == "random"
    assert loaded.codebook.selection_seed == 5


def test_checkpoint_of_a_seedless_random_selection_does_not_load(tmp_path):
    model = build_model(build_gdr(8, 2, selection="random", selection_seed=5), 7, seed=2)
    path = tmp_path / "gdr.ckpt"
    save_checkpoint(model, path)
    path.write_text(path.read_text().replace("selection_seed = 5", "selection_seed = None"))
    with pytest.raises(ConfigError, match="selection_seed"):
        load_checkpoint(path)


def test_checkpoint_rejects_non_finite_parameters(tmp_path):
    model = build_model(build_onehot(4), 7, seed=0)
    model.b3[1] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(DomainError, match="non-finite"):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_magic_and_version(tmp_path):
    model = build_model(build_onehot(4), 7, seed=0)
    path = tmp_path / "m4.ckpt"
    save_checkpoint(model, path)
    text = path.read_text()
    bad = tmp_path / "bad.ckpt"

    bad.write_text("something else\n" + text.split("\n", 1)[1])
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(bad)

    bad.write_text(text.replace("checkpoint 1", "checkpoint 999", 1))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(bad)


def test_checkpoint_rejects_truncation(tmp_path):
    model = build_model(build_onehot(4), 7, seed=0)
    path = tmp_path / "m4.ckpt"
    save_checkpoint(model, path)
    lines = path.read_text().splitlines()
    cut = tmp_path / "cut.ckpt"
    cut.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    with pytest.raises(CheckpointTruncatedError) as err:
        load_checkpoint(cut)
    assert "section" in str(err.value)


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    model = build_model(build_gdr(8, 4), 7, seed=0)
    train(model, _quick_config(seed=0))
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, first)
    save_checkpoint(load_checkpoint(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_refuses_edited_architecture(tmp_path):
    # the topology is fixed, so any other [architecture] block is refused
    # rather than loaded as a different network
    model = build_model(build_onehot(8), 7, seed=0)
    path = tmp_path / "m8.ckpt"
    save_checkpoint(model, path)
    text = path.read_text()
    bad = tmp_path / "bad.ckpt"
    for old, new in (("layer = dense relu 8 8", "layer = dense tanh 8 8"),
                     ("layer = power_norm 7\n", ""),
                     ("tx_layers = 3", "tx_layers = 2")):
        assert old in text
        bad.write_text(text.replace(old, new, 1))
        with pytest.raises(CheckpointDimensionError):
            load_checkpoint(bad)


def _line_mutations(lines):
    """Each line deleted, duplicated, replaced, cut at, or short of its last word."""
    for i, line in enumerate(lines):
        yield i, "delete", lines[:i] + lines[i + 1:]
        yield i, "duplicate", lines[:i + 1] + lines[i:]
        yield i, "garbage", lines[:i] + ["garbage"] + lines[i + 1:]
        yield i, "cut", lines[:i]
        yield i, "drop word", lines[:i] + [" ".join(line.split()[:-1])] + lines[i + 1:]


def test_checkpoint_refuses_every_single_line_mutation(tmp_path):
    # the loader checks a file against the lines save_checkpoint writes, so
    # a malformed file raises a CheckpointError, never a bare numpy error;
    # only text after [end] is ignored
    model = build_model(build_onehot(4), 7, seed=0)
    model.training_summary = _quick_config().summary()
    path = tmp_path / "m4.ckpt"
    save_checkpoint(model, path)
    lines = path.read_text().splitlines()
    end = lines.index("[end]")
    bad = tmp_path / "bad.ckpt"
    for i, kind, mutated in _line_mutations(lines):
        bad.write_text("".join(line + "\n" for line in mutated))
        if mutated[:end + 1] == lines[:end + 1]:
            assert load_checkpoint(bad).params_checksum() == model.params_checksum()
            continue
        # a config line that is not JSON is refused by the JSON parser
        errors = ((CheckpointError, json.JSONDecodeError)
                  if lines[i].startswith("config") else CheckpointError)
        try:
            load_checkpoint(bad)
        except errors:
            continue
        pytest.fail(f"{kind} of line {i + 1} ({lines[i]!r}) loaded")
    bad.write_text("")
    with pytest.raises(CheckpointTruncatedError, match="section"):
        load_checkpoint(bad)


def test_checkpoint_mismatch_names_the_line_and_both_texts(tmp_path):
    model = build_model(build_onehot(4), 7, seed=0)
    path = tmp_path / "m4.ckpt"
    save_checkpoint(model, path)
    bad = tmp_path / "bad.ckpt"
    bad.write_text(path.read_text().replace("bias 0 4\n", "bias 0\n", 1))
    with pytest.raises(CheckpointDimensionError,
                       match=r"line 24 reads 'bias 0', expected 'bias 0 4'"):
        load_checkpoint(bad)
    bad.write_text(path.read_text().replace("[training]", "[train]", 1))
    with pytest.raises(CheckpointTruncatedError, match=r"expected section \[training\]"):
        load_checkpoint(bad)


def test_checkpoint_refuses_runtime_subset_codebooks(tmp_path):
    from aecomm.codebooks import subset_codebook

    parent = build_model(build_onehot(8), 7, seed=0)
    sub, _ = subset_codebook(parent.codebook, [0, 1, 2, 3])
    model = build_model(sub, 7, seed=0)
    with pytest.raises(ConfigError):
        save_checkpoint(model, tmp_path / "sub.ckpt")


def test_end_to_end_noiseless_round_trip(model_zoo):
    model, _ = model_zoo(4, 1, 10.0, seed=2)
    ids = np.arange(4)
    p = model.receive(model.transmit(model.codebook.entries[ids]))
    assert np.all(np.argmax(p, axis=1) == ids)


@pytest.mark.parametrize("codebook", [build_onehot(4), build_onehot(16),
                                      build_onehot(64), build_gdr(8, 4)],
                         ids=["onehot_m4", "onehot_m16", "onehot_m64", "gdr_m8x4"])
def test_receive_fills_the_buffers_it_is_given_and_refuses_bad_ones(codebook):
    model = build_model(codebook, 7, seed=3)
    rng = np.random.default_rng(8)
    model.b3[...] = rng.uniform(-0.5, 0.5, model.b3.shape)
    model.b4[...] = rng.uniform(-0.5, 0.5, model.b4.shape)
    for B in (0, 1, 300):
        y = 2.0 * rng.standard_normal((B, 7))
        p = model.receive(y)
        assert p.shape == (B, model.M)
        # into a given buffer and through a given scratch, whatever they
        # held, with the same bits
        buf = np.full((B, model.M), np.nan)
        assert model.receive(y, out=buf) is buf
        assert buf.tobytes() == p.tobytes(), f"B={B}"
        buf[...] = np.nan
        model.receive(y, out=buf, scratch=np.full(B * model.M + 5, np.nan))
        assert buf.tobytes() == p.tobytes(), f"B={B}"
    single = model.receive(y[5])
    assert single.shape == (model.M,)
    buf = np.full(model.M, np.nan)
    assert model.receive(y[5], out=buf) is buf
    assert buf.tobytes() == single.tobytes()
    for bad in (np.empty((B + 1, model.M)), np.empty(model.M),
                np.empty((B, model.M), np.float32), np.empty((B, 2 * model.M))[:, ::2],
                np.empty((model.M, B)).T):
        with pytest.raises(ShapeError):
            model.receive(y, out=bad)
    size = B * model.M
    for bad in (np.empty(size - 1), np.empty(size, np.float32), np.empty(2 * size)[::2]):
        with pytest.raises(ShapeError):
            model.receive(y, scratch=bad)
    with pytest.raises(ShapeError):
        model.receive(y[5], out=np.empty((1, model.M)))
