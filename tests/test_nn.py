import numpy as np
import pytest

from aecomm.codebooks import build_gdr, build_onehot
from aecomm.errors import DegenerateInputError, ShapeError
from aecomm.model import build_model
from aecomm.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    DEGENERATE_NORM_FLOOR,
    MATMUL_ROWS,
    AdamState,
    Workspace,
    adam_step,
    backward_pass,
    column_sums,
    dense,
    glorot_uniform,
    param_count,
    power_normalize,
    relu,
    softmax,
    softmax_columns,
    split,
    tile_rows,
)


def _model(M, n, seed, bias_scale=0.1, codebook=None):
    """A fresh autoencoder whose biases are nonzero, so every bias gradient
    is exercised."""
    model = build_model(codebook or build_onehot(M), n, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for b in (model.b1, model.b2, model.b3, model.b4):
        b[:] = bias_scale * rng.standard_normal(b.shape)
    return model


def test_dense_linear_hand_example():
    W, b = np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([1.0, 1.0])
    np.testing.assert_allclose(dense(np.array([[1.0, 1.0]]), W, b), [[3.0, 4.0]])


def test_dense_relu_clips_negative_preactivations():
    W, b = np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([-10.0, 1.0])
    np.testing.assert_allclose(dense(np.array([[1.0, 1.0]]), W, b, relu), [[0.0, 4.0]])


def test_dense_batch_matches_vector():
    model = _model(8, 7, seed=0)
    rng = np.random.default_rng(0)
    s = model.codebook.entries[3]
    np.testing.assert_array_equal(model.transmit(s), model.transmit(s[None, :])[0])
    y = rng.standard_normal(7)
    np.testing.assert_array_equal(model.receive(y), model.receive(y[None, :])[0])


@pytest.mark.parametrize("activation", ["linear", "relu", "softmax"])
def test_dense_forward_matches_training_path_bit_for_bit(activation):
    # dense works in place on its own product; it must leave the input alone
    # and give the bits of the out-of-place z = x @ W.T + b, then activation
    rng = np.random.default_rng(3)
    W = glorot_uniform(16, 7, rng)
    b = rng.standard_normal(16)
    x = 3.0 * rng.standard_normal((50, 7))
    x_before = x.copy()
    if activation == "softmax":
        y = softmax(dense(x, W, b))
    else:
        y = dense(x, W, b, {"linear": None, "relu": relu}[activation])
    np.testing.assert_array_equal(x, x_before)
    z = x @ W.T + b
    expected = {"linear": z, "relu": np.maximum(z, 0.0), "softmax": softmax(z)}[activation]
    np.testing.assert_array_equal(y, expected)


def test_training_forward_matches_receive_bit_for_bit():
    # training and evaluation share the dense helper, so the receiver sees
    # the same bits either way once given the same channel output
    model = _model(16, 7, seed=3, bias_scale=1.0)
    rng = np.random.default_rng(3)
    s = model.codebook.entries[rng.integers(0, 16, size=50)]
    noise = 0.3 * rng.standard_normal((50, 7))
    _, _, p_train = backward_pass(model.params(), s, noise)
    z2 = dense(dense(s, model.W1, model.b1, relu), model.W2, model.b2)
    x = (np.sqrt(7) / np.linalg.norm(z2, axis=1, keepdims=True)) * z2
    np.testing.assert_array_equal(p_train, model.receive(x + noise))


@pytest.mark.parametrize("M", [*range(1, 21), 64])
@pytest.mark.parametrize("groups, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5),
                                           (0, MATMUL_ROWS - 1), (0, MATMUL_ROWS),
                                           (2, MATMUL_ROWS + 5)])
def test_dense_equals_product_plus_bias_bit_for_bit(M, groups, extra):
    # B = groups * ceil(512 / M) + extra rows: one row, rows around whole
    # groups of 512 elements, and np.dot below MATMUL_ROWS, np.matmul from it
    rng = np.random.default_rng(M)
    B = groups * -(-512 // M) + extra
    x = rng.normal(scale=3.0, size=(B, 7))
    W = glorot_uniform(M, 7, rng)
    b = rng.normal(size=M)
    b[::4] = -0.0
    expected = (np.matmul(x, W.T) + b).view(np.uint64)
    np.testing.assert_array_equal(dense(x, W, b).view(np.uint64), expected)
    # out= into a row view; the rows around it stay untouched
    buffer = np.full((B + 2, M), np.nan)
    out = buffer[1:B + 1]
    assert dense(x, W, b, out=out) is out
    np.testing.assert_array_equal(out.view(np.uint64), expected)
    assert np.isnan(buffer[[0, -1]]).all()


def test_dense_rejects_bad_shapes():
    model = build_model(build_onehot(8), 7, seed=0)
    with pytest.raises(ShapeError):
        model.transmit(np.zeros(4))
    with pytest.raises(ShapeError):
        model.receive(np.zeros((2, 8)))
    with pytest.raises(ShapeError):
        model.receive(np.zeros((2, 3, 7)))


def test_softmax_rows_sum_to_one_and_stay_finite():
    z = np.array([[0.0, 0.0, 0.0], [1000.0, 1000.0, 999.0], [-900.0, 0.0, 3.0]])
    p = softmax(z)
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(p[0], [1 / 3, 1 / 3, 1 / 3])


# rows of every summation order numpy uses up to 17 elements, in one tile
# of 1 or 2 rows and over more than one tile
SHORT_ROW_SHAPES = [(rows, w) for w in (2, 3, 4, 7, 8, 9, 15, 16, 17)
                    for rows in (1, 2, tile_rows(w) + 3)]


@pytest.mark.parametrize("overwrite", [False, True])
@pytest.mark.parametrize("shape", [(9,), (1,), (5, 1), (7, 8), (3000, 64), (20000, 16)]
                         + SHORT_ROW_SHAPES)
def test_softmax_column_wise_max_equals_row_by_row_max_bit_for_bit(shape, overwrite):
    """softmax_columns on the class-major tile against the row-wise softmax,
    with tied maxima, +-0, -inf and all -inf rows; and the row-wise softmax
    into its own input, contiguous or strided, when asked."""
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    z = rng.normal(scale=5.0, size=shape)
    if z.ndim == 2 and z.shape[1] > 1:
        z[::3, 1] = z[::3, 0] = z[::3].max(axis=1)  # tied maxima
        z[1::5] = 0.0
        z[1::5, ::2] = -0.0  # +0 and -0 tie for the max
        z[2::7, 0] = -np.inf
        z[4::11] = -np.inf  # every entry -inf: NaN on both sides
    else:
        z[::2] = -0.0
    with np.errstate(invalid="ignore"):
        expected = softmax(z)
        rows = z.reshape(-1, z.shape[-1])
        # a contiguous tile, and every other column of a wider one
        wide = np.empty((rows.shape[1], 2 * rows.shape[0]))
        for t in (rows.T.copy(), wide[:, ::2]):
            t[...] = rows.T
            spare = np.full((min(rows.shape[1], 8), t.shape[1]), np.nan)
            assert softmax_columns(t, spare) is t
            np.testing.assert_array_equal(t.T.reshape(z.shape).view(np.uint64),
                                          expected.view(np.uint64))
        wide = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
        for a in (z.copy(), wide[..., ::2]):
            a[...] = z
            got = softmax(a, overwrite=overwrite)
            assert got.shape == z.shape
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
            np.testing.assert_array_equal(a.view(np.uint64),
                                          (got if overwrite else z).view(np.uint64))


def test_column_sums_equal_numpy_row_sums_bit_for_bit():
    # every width a receiver has, on tiles of 1 to 19 columns
    rng = np.random.default_rng(11)
    for width in range(1, 65):
        for k in (1, 8, 19):
            t = np.exp(rng.normal(scale=4.0, size=(width, k)))
            spare = np.full((min(width, 8), k), np.nan)
            expected = np.add.reduce(t.T.copy(), axis=-1)
            got = column_sums(t, spare)
            assert got.tobytes() == expected.tobytes(), f"width {width}, {k} columns"


def test_power_normalize_hand_values():
    np.testing.assert_allclose(power_normalize(np.ones(7)), np.ones(7))
    out = power_normalize([2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(out, [np.sqrt(7.0), 0, 0, 0, 0, 0, 0])


def test_power_normalize_mean_square_is_one():
    # power constraint must hold for every input, not on average
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1000, 7)) * rng.uniform(0.01, 100.0, size=(1000, 1))
    y = power_normalize(x)
    np.testing.assert_allclose(np.mean(y * y, axis=1), 1.0, atol=1e-12)


def test_power_normalize_degenerate_input():
    with pytest.raises(DegenerateInputError):
        power_normalize(np.zeros(7))
    with pytest.raises(DegenerateInputError):
        power_normalize(np.full((3, 7), 1e-13))
    # a dead row is refused next to a NaN row, whose NaN norm a plain row
    # minimum (np.min) would return; a NaN row alone is not refused
    x = np.ones((3, 7))
    x[0] = 0.0
    x[2, 4] = np.nan
    with pytest.raises(DegenerateInputError):
        power_normalize(x)
    x[0] = 1.0
    y = power_normalize(x)
    assert np.isnan(y[2]).all() and np.isfinite(y[:2]).all()


def test_backward_pass_refuses_a_dead_row_next_to_a_nan_row():
    model = build_model(build_onehot(4), 7, seed=1)
    model.W1[:, 0] = -1.0  # message 0 reaches no hidden unit: it transmits zeros
    s = model.codebook.entries[[0, 1, 2]].copy()
    s[2, 2] = np.nan
    with pytest.raises(DegenerateInputError):
        backward_pass(model.params(), s, 0.0)
    loss, _, p = backward_pass(model.params(), s[1:], 0.0)
    assert np.isnan(loss) and np.isnan(p[1]).all() and np.isfinite(p[0]).all()


def test_power_norm_gradient_orthogonal_to_input():
    # scaling (W2, b2) scales the normalizer's input x, and moving along x
    # itself cannot change sqrt(n) x/||x||, so the loss gradient is
    # orthogonal to (W2, b2)
    model = _model(4, 5, seed=4)
    rng = np.random.default_rng(4)
    s = model.codebook.entries[rng.integers(0, 4, size=6)]
    _, grad, _ = backward_pass(model.params(), s, 0.2 * rng.standard_normal((6, 5)))
    _, _, gW2, gb2, *_ = split(grad, 4, 5)
    along = float(np.sum(gW2 * model.W2) + np.sum(gb2 * model.b2))
    scale = float(np.sum(np.abs(gW2 * model.W2)) + np.sum(np.abs(gb2 * model.b2)))
    assert abs(along) <= 1e-12 * scale


def _check_gradients(model, s, noise, rng, coords=6, h=1e-5, tol=1e-4):
    """Central differences of backward_pass's own loss against its gradient,
    at random coordinates of each of the eight parameter arrays."""
    params = model.params()
    loss, grad, _ = backward_pass(params, s, noise)
    assert grad.shape == model.theta.shape
    for p, g in zip(params, split(grad, model.M, model.n)):
        for _ in range(min(coords, p.size)):
            idx = np.unravel_index(rng.integers(p.size), p.shape)
            orig = p[idx]
            p[idx] = orig + h
            lp = backward_pass(params, s, noise)[0]
            p[idx] = orig - h
            lm = backward_pass(params, s, noise)[0]
            p[idx] = orig
            numeric = (lp - lm) / (2.0 * h)
            analytic = g[idx]
            err = abs(analytic - numeric) / max(1e-8, abs(analytic), abs(numeric))
            assert err < tol, (
                f"gradient mismatch at {idx}: analytic={analytic} numeric={numeric}"
            )
    return loss


def test_gradient_check_100_random_instances():
    rng = np.random.default_rng(42)
    for i in range(100):
        model = _model(4, 3, seed=i)
        s = model.codebook.entries[rng.integers(4, size=2)]
        _check_gradients(model, s, 0.0, rng, coords=3)


def test_gradient_check_through_normalization_and_offset():
    # the full transmit/channel/receive stack used in training
    rng = np.random.default_rng(11)
    model = _model(4, 3, seed=11)
    s = model.codebook.entries[rng.integers(4, size=4)]
    _check_gradients(model, s, 0.1 * rng.standard_normal((4, 3)), rng)


def test_gradient_check_with_noise_and_dead_relu_unit():
    rng = np.random.default_rng(13)
    model = _model(8, 4, seed=13)
    model.b1[2] = -100.0  # transmitter hidden unit 2 never fires
    model.b3[0] = -100.0  # receiver hidden unit 0 never fires
    s = model.codebook.entries[rng.integers(8, size=5)]
    noise = 0.5 * rng.standard_normal((5, 4))
    _check_gradients(model, s, noise, rng, coords=8)
    _, grad, _ = backward_pass(model.params(), s, noise)
    gW1, gb1, _, _, gW3, gb3, _, _ = split(grad, 8, 4)
    assert np.all(gW1[2] == 0.0) and gb1[2] == 0.0
    assert np.all(gW3[0] == 0.0) and gb3[0] == 0.0


def test_backward_pass_loss_is_batch_mean():
    rng = np.random.default_rng(3)
    model = _model(4, 7, seed=3)
    s = model.codebook.entries[rng.integers(4, size=8)]
    loss, _, p = backward_pass(model.params(), s, 0.1 * rng.standard_normal((8, 7)))
    assert loss == pytest.approx(float(np.mean(np.sum((s - p) ** 2, axis=1))))


def reference_backward_pass(params, s, noise):
    """backward_pass as it was written before the workspace: every
    intermediate a fresh array, dense, the l2 norm and the softmax spelled
    out. The workspace version must give its bits."""
    W1, b1, W2, b2, W3, b3, W4, b4 = params
    n, M = W2.shape
    grad = np.empty(param_count(M, n))
    gW1, gb1, gW2, gb2, gW3, gb3, gW4, gb4 = split(grad, M, n)

    h1 = np.maximum(s @ W1.T + b1, 0.0)
    z2 = h1 @ W2.T + b2
    norms = np.linalg.norm(z2, axis=1, keepdims=True)
    if np.any(norms < DEGENERATE_NORM_FLOOR):
        raise DegenerateInputError("transmitter output is dead")
    scale = np.sqrt(n) / norms
    y = scale * z2
    y += noise
    h3 = np.maximum(y @ W3.T + b3, 0.0)
    z4 = h3 @ W4.T + b4
    e = np.exp(z4 - z4.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    d = s - p
    loss = float(np.mean(np.sum(d * d, axis=1)))
    g = 2.0 * (p - s) / s.shape[0]
    g = p * (g - np.sum(g * p, axis=1, keepdims=True))
    np.matmul(g.T, h3, out=gW4)
    np.sum(g, axis=0, out=gb4)
    g = g @ W4
    g *= h3 > 0.0
    np.matmul(g.T, y, out=gW3)
    np.sum(g, axis=0, out=gb3)
    g = g @ W3
    proj = np.sum(z2 * g, axis=1, keepdims=True) / (norms * norms)
    g = scale * (g - z2 * proj)
    np.matmul(g.T, h1, out=gW2)
    np.sum(g, axis=0, out=gb2)
    g = g @ W2
    g *= h1 > 0.0
    np.matmul(g.T, s, out=gW1)
    np.sum(g, axis=0, out=gb1)
    return loss, grad, p


def _bits(result):
    loss, grad, p = result
    return loss.hex(), grad.tobytes(), p.tobytes()


def _noises(B, n, rng):
    """No noise, one sigma for the batch, and one sigma per row."""
    return (0.0,
            np.sqrt(0.1) * rng.standard_normal((B, n)),
            np.sqrt(rng.uniform(0.01, 1.0, size=(B, 1))) * rng.standard_normal((B, n)))


@pytest.mark.parametrize("codebook", [build_onehot(4), build_onehot(8), build_onehot(64),
                                      build_gdr(8, 4)],
                         ids=["onehot4", "onehot8", "onehot64", "gdr8x4"])
@pytest.mark.parametrize("B", [1, 20, 45, 600])
def test_workspace_backward_pass_equals_reference_bit_for_bit(codebook, B):
    model = _model(codebook.M, 7, seed=B, codebook=codebook)
    rng = np.random.default_rng(B)
    s = codebook.entries[rng.integers(0, len(codebook), size=B)]
    work = Workspace(codebook.M, 7, B)
    for noise in _noises(B, 7, rng):
        expected = _bits(reference_backward_pass(model.params(), s, noise))
        got = backward_pass(model.params(), s, noise, work)
        assert _bits(got) == expected
        assert got[1] is work.grad and got[2] is work.p
        assert _bits(backward_pass(model.params(), s, noise)) == expected


def test_reused_workspace_equals_fresh_workspace():
    # a workspace carries nothing from one call into the next
    model = _model(8, 7, seed=5)
    rng = np.random.default_rng(5)
    work = Workspace(8, 7, 45)
    for _ in range(2):
        s = model.codebook.entries[rng.integers(0, 8, size=45)]
        noise = 0.3 * rng.standard_normal((45, 7))
        fresh = _bits(backward_pass(model.params(), s, noise, Workspace(8, 7, 45)))
        assert _bits(backward_pass(model.params(), s, noise, work)) == fresh


def test_workspace_of_another_shape_is_refused():
    model = _model(8, 7, seed=5)
    s = model.codebook.entries[:4]
    for work in (Workspace(8, 7, 5), Workspace(16, 7, 4), Workspace(8, 6, 4)):
        with pytest.raises(ShapeError, match="workspace"):
            backward_pass(model.params(), s, 0.0, work)


def test_adam_zero_gradient_leaves_params_unchanged():
    theta = np.array([1.0, -2.0, 3.0])
    state = AdamState(3)
    adam_step(state, theta, np.zeros(3))
    np.testing.assert_array_equal(theta, [1.0, -2.0, 3.0])


def test_adam_first_step_size_is_learning_rate():
    # bias correction makes the first update lr * sign(g) up to epsilon
    theta = np.array([0.0, 0.0])
    state = AdamState(2, learning_rate=0.001)
    adam_step(state, theta, np.array([0.5, -3.0]))
    np.testing.assert_allclose(theta, [-0.001, 0.001], rtol=1e-6)


def test_adam_converges_on_quadratic_bowl():
    theta = np.array([3.0, -1.0])
    state = AdamState(2, learning_rate=0.01)
    for _ in range(5000):
        adam_step(state, theta, 2.0 * theta)
    assert np.all(np.abs(theta) < 1e-3)


def reference_adam_step(theta, grad, m, v, t, learning_rate):
    """Adam step t as Kingma & Ba write it, each moment a fresh array;
    updates theta in place and returns the new moments. adam_step must give
    its bits."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (grad * grad)
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    theta -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return m, v


def test_adam_step_equals_reference_bit_for_bit():
    rng = np.random.default_rng(9)
    theta = rng.standard_normal(300)
    expected = theta.copy()
    state = AdamState(theta.size, learning_rate=0.003)
    m = v = np.zeros(theta.size)
    for t in range(1, 21):
        grad = rng.standard_normal(theta.size) * 10.0 ** rng.integers(-8, 3)
        adam_step(state, theta, grad)
        m, v = reference_adam_step(expected, grad, m, v, t, 0.003)
        assert theta.tobytes() == expected.tobytes()


def test_adam_rejects_mismatched_shapes():
    state = AdamState(3)
    with pytest.raises(ShapeError):
        adam_step(state, np.zeros(3), np.zeros(4))
    with pytest.raises(ShapeError):
        adam_step(state, np.zeros(5), np.zeros(5))


def test_glorot_init_is_seed_deterministic():
    a = glorot_uniform(8, 3, np.random.default_rng(5))
    b = glorot_uniform(8, 3, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (8, 3)
    limit = np.sqrt(6.0 / 11.0)
    assert np.all(np.abs(a) <= limit)
    model = build_model(build_onehot(8), 3, seed=5)
    for bias in (model.b1, model.b2, model.b3, model.b4):
        np.testing.assert_array_equal(bias, 0.0)
