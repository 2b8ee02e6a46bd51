import math
import re

import numpy as np
import pytest

from quanvrob.classical import (
    AdamState,
    ConvLayer,
    ConvExtractor,
    DenseHead,
    adam_step,
    build_conv_layer,
    build_dense_head,
    conv_forward,
    conv_input_gradient,
    dense_forward,
    init_adam_state,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
    softmax,
)

from test_container import rewrite_header

# ---------------------------------------------------------------------------
# conv_forward
# ---------------------------------------------------------------------------


def oracle_conv(image, layer):
    """Direct quadruple loop over output cells, filters and kernel taps."""
    hp, wp = image.shape[0] // 2, image.shape[1] // 2
    out = np.zeros((hp, wp, 4))
    for i in range(hp):
        for j in range(wp):
            for f in range(4):
                acc = layer.bias[f]
                for m in range(2):
                    for n in range(2):
                        acc += image[2 * i + m, 2 * j + n] * layer.kernels[f, m, n]
                out[i, j, f] = max(acc, 0.0)
    return out


def test_zero_image_zero_bias():
    layer = build_conv_layer(seed=0)
    assert np.array_equal(conv_forward(np.zeros((28, 28)), layer), np.zeros((14, 14, 4)))


def test_identity_like_kernel_picks_top_left_pixel():
    kernels = np.zeros((4, 2, 2))
    kernels[0, 0, 0] = 1.0
    layer = ConvLayer(kernels=kernels, bias=np.zeros(4), seed=0)
    rng = np.random.default_rng(1)
    image = rng.random((8, 8))
    out = conv_forward(image, layer)
    assert np.allclose(out[:, :, 0], image[::2, ::2])
    assert np.array_equal(out[:, :, 1:], np.zeros((4, 4, 3)))


def test_conv_matches_loop_oracle():
    rng = np.random.default_rng(2)
    for seed in range(5):
        layer = build_conv_layer(seed=seed)
        image = rng.random((12, 12))
        assert np.allclose(conv_forward(image, layer), oracle_conv(image, layer), atol=1e-12)


def test_conv_rejects_odd_shapes():
    with pytest.raises(ValueError):
        conv_forward(np.zeros((7, 8)), build_conv_layer(0))


# ---------------------------------------------------------------------------
# conv_input_gradient
# ---------------------------------------------------------------------------


def test_zero_upstream():
    layer = build_conv_layer(seed=3)
    image = np.random.default_rng(3).random((8, 8))
    acts = conv_forward(image, layer)
    grad = conv_input_gradient(layer, np.zeros_like(acts), acts)
    assert np.array_equal(grad, np.zeros((8, 8)))


def test_dead_relu_blocks_gradient():
    kernels = -np.ones((4, 2, 2))
    layer = ConvLayer(kernels=kernels, bias=np.zeros(4), seed=0)
    image = 0.1 + 0.8 * np.random.default_rng(4).random((8, 8))
    acts = conv_forward(image, layer)
    assert np.array_equal(acts, np.zeros_like(acts))
    grad = conv_input_gradient(layer, np.ones_like(acts), acts)
    assert np.array_equal(grad, np.zeros((8, 8)))


def test_conv_gradient_matches_finite_difference():
    rng = np.random.default_rng(5)
    layer = build_conv_layer(seed=5)
    image = rng.random((8, 8))
    upstream = rng.normal(size=(4, 4, 4))
    grad = conv_input_gradient(layer, upstream, conv_forward(image, layer))
    h = 1e-6
    for _ in range(20):
        i, j = rng.integers(8), rng.integers(8)
        bumped = image.copy()
        bumped[i, j] += h
        plus = np.sum(upstream * conv_forward(bumped, layer))
        bumped[i, j] -= 2 * h
        minus = np.sum(upstream * conv_forward(bumped, layer))
        assert grad[i, j] == pytest.approx((plus - minus) / (2 * h), abs=1e-6)


def test_conv_gradient_rejects_shape_mismatch():
    layer = build_conv_layer(seed=0)
    acts = conv_forward(np.zeros((8, 8)), layer)
    with pytest.raises(ValueError):
        conv_input_gradient(layer, np.zeros((2, 2, 4)), acts)


# ---------------------------------------------------------------------------
# dense_forward / softmax
# ---------------------------------------------------------------------------


def test_zero_head_is_uniform():
    head = DenseHead(weights=np.zeros((10, 16)), bias=np.zeros(10))
    probs = dense_forward(np.zeros((2, 2, 4)), head)
    assert np.allclose(probs, 0.1, atol=1e-15)


def test_large_bias_saturates():
    head = DenseHead(weights=np.zeros((10, 16)), bias=np.zeros(10))
    head.bias[0] = 50.0
    probs = dense_forward(np.zeros((2, 2, 4)), head)
    assert probs[0] == pytest.approx(1.0, abs=1e-12)


def test_softmax_against_high_precision_oracle():
    import mpmath

    logits = np.zeros(10)
    logits[:3] = [1.0, 2.0, 3.0]
    with mpmath.workdps(50):
        exps = [mpmath.e**x for x in logits]
        total = sum(exps)
        expected = np.array([float(e / total) for e in exps])
    assert np.allclose(softmax(logits), expected, atol=1e-15)


def test_softmax_properties():
    rng = np.random.default_rng(6)
    for _ in range(50):
        probs = softmax(rng.normal(scale=10, size=10))
        assert np.sum(probs) == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs > 0.0)


def test_dense_forward_rejects_wrong_size():
    head = build_dense_head(seed=0, in_dim=784)
    with pytest.raises(ValueError):
        dense_forward(np.zeros((2, 2, 4)), head)


# ---------------------------------------------------------------------------
# loss_and_grads
# ---------------------------------------------------------------------------


def test_perfect_prediction_loss():
    head = DenseHead(weights=np.zeros((10, 4)), bias=np.zeros(10))
    head.bias[3] = 500.0
    features = np.ones(4)
    probs = dense_forward(features, head)
    loss, d_w, d_b, d_f = loss_and_grads(head, probs, 3, features)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(d_b, 0.0, atol=1e-12)
    assert np.allclose(d_w, 0.0, atol=1e-12)
    assert np.allclose(d_f, 0.0, atol=1e-10)


def test_uniform_probs_loss_is_log_ten():
    head = DenseHead(weights=np.zeros((10, 4)), bias=np.zeros(10))
    features = np.ones(4)
    probs = dense_forward(features, head)
    loss, *_ = loss_and_grads(head, probs, 7, features)
    assert loss == pytest.approx(math.log(10.0), abs=1e-12)


def test_loss_gradients_match_finite_difference():
    rng = np.random.default_rng(7)
    head = build_dense_head(seed=7, in_dim=12)
    features = rng.random(12)
    label = 4
    probs = dense_forward(features, head)
    _, d_w, d_b, d_f = loss_and_grads(head, probs, label, features)
    h = 1e-6

    def loss_at(weights, bias, feats):
        probe = DenseHead(weights=weights, bias=bias)
        return -np.log(dense_forward(feats, probe)[label])

    for _ in range(20):
        i, j = rng.integers(10), rng.integers(12)
        w_plus, w_minus = head.weights.copy(), head.weights.copy()
        w_plus[i, j] += h
        w_minus[i, j] -= h
        numeric = (loss_at(w_plus, head.bias, features) - loss_at(w_minus, head.bias, features)) / (2 * h)
        assert d_w[i, j] == pytest.approx(numeric, abs=1e-6)
    for i in range(10):
        b_plus, b_minus = head.bias.copy(), head.bias.copy()
        b_plus[i] += h
        b_minus[i] -= h
        numeric = (loss_at(head.weights, b_plus, features) - loss_at(head.weights, b_minus, features)) / (2 * h)
        assert d_b[i] == pytest.approx(numeric, abs=1e-6)
    for j in range(12):
        f_plus, f_minus = features.copy(), features.copy()
        f_plus[j] += h
        f_minus[j] -= h
        numeric = (loss_at(head.weights, head.bias, f_plus) - loss_at(head.weights, head.bias, f_minus)) / (2 * h)
        assert d_f[j] == pytest.approx(numeric, abs=1e-6)


def test_loss_rejects_bad_label():
    head = build_dense_head(seed=0, in_dim=4)
    probs = dense_forward(np.ones(4), head)
    with pytest.raises(ValueError):
        loss_and_grads(head, probs, 10, np.ones(4))


# ---------------------------------------------------------------------------
# adam_step
# ---------------------------------------------------------------------------


def test_zero_gradient_keeps_parameters():
    head = build_dense_head(seed=8, in_dim=6)
    state = init_adam_state(head)
    new_head, new_state = adam_step(head, state, (np.zeros((10, 6)), np.zeros(10)), lr=0.001)
    assert np.array_equal(new_head.weights, head.weights)
    assert np.array_equal(new_head.bias, head.bias)
    assert new_state.step == 1


def test_first_step_magnitude_is_learning_rate():
    # With zero moments, one step moves each coordinate by ~lr * sign(g).
    head = DenseHead(weights=np.zeros((10, 2)), bias=np.zeros(10))
    grads = (np.full((10, 2), 7.5), np.full(10, -0.02))
    new_head, _ = adam_step(head, init_adam_state(head), grads, lr=0.001)
    assert np.allclose(new_head.weights, -0.001, atol=1e-8)
    assert np.allclose(new_head.bias, 0.001, atol=1e-6)


def test_two_steps_match_hand_trace():
    # Scalar hand trace with plain Python floats.
    g1, g2, lr = 0.3, -0.5, 0.001
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    w = 0.25
    m = v = 0.0
    for t, g in ((1, g1), (2, g2)):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        w -= lr * (m / (1 - beta1**t)) / (math.sqrt(v / (1 - beta2**t)) + eps)

    head = DenseHead(weights=np.full((10, 1), 0.25), bias=np.zeros(10))
    state = init_adam_state(head)
    for g in (g1, g2):
        head, state = adam_step(head, state, (np.full((10, 1), g), np.zeros(10)), lr=lr)
    assert np.allclose(head.weights, w, atol=1e-12)
    assert state.step == 2


def test_adam_rejects_shape_mismatch():
    head = build_dense_head(seed=0, in_dim=4)
    with pytest.raises(ValueError):
        adam_step(head, init_adam_state(head), (np.zeros((10, 5)), np.zeros(10)), lr=0.001)


# ---------------------------------------------------------------------------
# extractor surface and checkpoints
# ---------------------------------------------------------------------------


def test_conv_extractor_gradient_matches_direct_call():
    rng = np.random.default_rng(9)
    extractor = ConvExtractor(build_conv_layer(seed=9))
    image = rng.random((8, 8))
    upstream = rng.normal(size=(4, 4, 4))
    direct = conv_input_gradient(extractor.layer, upstream, conv_forward(image, extractor.layer))
    assert np.array_equal(extractor.input_gradient(image, upstream), direct)


def test_conv_warm_calls_are_bitwise_cold_calls():
    rng = np.random.default_rng(35)
    layer = ConvLayer(kernels=rng.uniform(-1, 1, (4, 2, 2)), bias=rng.normal(size=4), seed=0)
    for shape in ((4, 6), (5, 4, 6)):
        image = rng.random(shape) * 2 - 0.5
        upstream = rng.normal(size=conv_forward(image, layer).shape)
        warm = ConvExtractor(layer)
        fmap = warm.forward(image)
        assert np.array_equal(warm.forward(image), fmap)
        fmap[...] = 7.0
        grad = warm.input_gradient(image, upstream)
        assert np.array_equal(warm.forward(image), ConvExtractor(layer).forward(image))
        assert np.array_equal(grad, ConvExtractor(layer).input_gradient(image, upstream))
        image *= -1.0  # flips the sign of every pre-activation but the bias
        assert np.array_equal(warm.input_gradient(image, upstream), ConvExtractor(layer).input_gradient(image, upstream))


def test_conv_fingerprint_tracks_seed():
    assert ConvExtractor(build_conv_layer(0)).fingerprint != ConvExtractor(build_conv_layer(1)).fingerprint
    assert ConvExtractor(build_conv_layer(0)).fingerprint == ConvExtractor(build_conv_layer(0)).fingerprint


def test_checkpoint_round_trip(tmp_path):
    head = build_dense_head(seed=11, in_dim=784)
    extractor = ConvExtractor(build_conv_layer(seed=11))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "cnn", 11, extractor.fingerprint, head)
    kind, seed, fingerprint, loaded = load_checkpoint(path)
    assert kind == "cnn"
    assert seed == 11
    assert fingerprint == extractor.fingerprint
    assert np.array_equal(loaded.weights, head.weights)
    assert np.array_equal(loaded.bias, head.bias)


def test_checkpoint_rejects_truncation(tmp_path):
    head = build_dense_head(seed=11, in_dim=16)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "cnn", 11, "f" * 64, head)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_malformed_header(tmp_path):
    head = build_dense_head(seed=11, in_dim=16)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "cnn", 11, "f" * 64, head)
    rewrite_header(path, lambda header: header.pop("extractor_seed"))
    with pytest.raises(ValueError, match=re.escape("missing the fields ['extractor_seed']")):
        load_checkpoint(path)
    save_checkpoint(path, "cnn", 11, "f" * 64, head)
    rewrite_header(path, lambda header: header.update(version=2))
    with pytest.raises(ValueError, match="version is 2, expected 1"):
        load_checkpoint(path)
