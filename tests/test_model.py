import hashlib
import json

import numpy as np
import pytest

from aecomm.codebooks import build_gdr, build_onehot
from aecomm.errors import (
    CheckpointDimensionError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    DegenerateInputError,
    DomainError,
    TrainingDivergedError,
)
from aecomm.model import (
    TrainingConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
    theoretical_param_count,
    train,
)

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
        assert model.num_parameters() == TABLE_TOTALS[M] - 2 * 7


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


def test_receiver_preactivation_is_affine_part():
    model = build_model(build_onehot(8), 7, seed=3)
    y = np.random.default_rng(0).standard_normal((5, 7))
    np.testing.assert_allclose(
        model.receiver_preactivation(y), y @ model.W3.T + model.b3
    )


def test_build_is_seed_deterministic():
    a = build_model(build_onehot(8), 7, seed=9)
    b = build_model(build_onehot(8), 7, seed=9)
    c = build_model(build_onehot(8), 7, seed=10)
    assert a.params_checksum() == b.params_checksum()
    assert a.params_checksum() != c.params_checksum()


def test_dead_transmitter_initialization_is_detected():
    # all-negative first-layer column for a one-hot input gives an exact
    # zero pre-normalization vector at zero-bias init; seed 4 hits it at M=4
    model = build_model(build_onehot(4), 7, seed=4)
    with pytest.raises(DegenerateInputError):
        model.transmit(model.codebook.entries)


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
        loaded.transmit(loaded.codebook.encode(ids)),
        model.transmit(model.codebook.encode(ids)),
    )


def test_checkpoint_round_trip_gdr_random_selection(tmp_path):
    model = build_model(build_gdr(8, 2, selection="random", selection_seed=5), 7, seed=2)
    path = tmp_path / "gdr.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.codebook.supports, model.codebook.supports)
    assert loaded.codebook.selection == "random"
    assert loaded.codebook.selection_seed == 5


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
    p = model.receive(model.transmit(model.codebook.encode(ids)))
    assert np.all(np.argmax(p, axis=1) == ids)
