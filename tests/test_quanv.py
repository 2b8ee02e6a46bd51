import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quanvrob import container, qsim
from quanvrob.ansatz import Ansatz, AnsatzKind, build_ansatz
from quanvrob.classical import ConvExtractor, build_conv_layer, build_dense_head
from quanvrob.qsim import rot, zz
from quanvrob.attacks import (
    AttackKind,
    evaluate_robustness,
    load_batch,
    make_batch,
    make_spec,
    save_batch,
    transfer_attack,
)
from quanvrob.models import Model, accuracy
from quanvrob.quanv import QuanvExtractor, clear_memo, read_feature_cache, write_feature_cache

from test_models import make_qunn_model
from test_qsim import oracle_unitary  # independent Kronecker-matrix oracle


def random_image(rng, shape=(28, 28)):
    return rng.random(shape)


def identity_extractor():
    return QuanvExtractor(Ansatz(AnsatzKind.NO_ENT, 4, tuple(rot(q, 0.0, 0.0, 0.0) for q in range(4)), seed=1))


# ---------------------------------------------------------------------------
# Kronecker-matrix oracle: no qsim simulation, no patch helpers
# ---------------------------------------------------------------------------

_Z_SIGNS = np.array(
    [[1.0 if ((i >> (3 - q)) & 1) == 0 else -1.0 for i in range(16)] for q in range(4)]
)


def oracle_readout(ansatz, thetas):
    """<Z_k> for the encoding angles ``thetas`` (qubit order) followed by the circuit."""
    program = [qsim.ry(q, thetas[q]) for q in range(4)] + list(ansatz.gates)
    state = oracle_unitary(program, 4)[:, 0]
    return _Z_SIGNS @ np.abs(state) ** 2


def oracle_patch(ansatz, pixels):
    """Readout of one patch (row-major pixels) and d<Z_k>/d pixel_q as (q, k).

    The derivative is the exact two-term shift of Ry(theta) = exp(-i theta Y / 2)
    times d(theta)/d(pixel) = pi.
    """
    thetas = np.pi * np.asarray(pixels, dtype=float)
    dz = np.empty((4, 4))
    for q in range(4):
        plus, minus = thetas.copy(), thetas.copy()
        plus[q] += np.pi / 2
        minus[q] -= np.pi / 2
        dz[q] = np.pi * 0.5 * (oracle_readout(ansatz, plus) - oracle_readout(ansatz, minus))
    return oracle_readout(ansatz, thetas), dz


def oracle_feature_map(image, ansatz):
    hp, wp = image.shape[0] // 2, image.shape[1] // 2
    out = np.zeros((hp, wp, 4))
    for i in range(hp):
        for j in range(wp):
            out[i, j] = oracle_patch(ansatz, image[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].ravel())[0]
    return out


def oracle_input_gradient(image, ansatz, upstream):
    grad = np.zeros_like(image)
    for i in range(image.shape[0] // 2):
        for j in range(image.shape[1] // 2):
            _, dz = oracle_patch(ansatz, image[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].ravel())
            grad[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = (dz @ upstream[i, j]).reshape(2, 2)
    return grad


def entangled_ansatz(angles):
    """Rotations, all-pairs ZZ, then rotations again, so that entanglement reaches the readout."""
    angles = np.asarray(angles, dtype=float)
    gates = [rot(q, *angles[3 * q : 3 * q + 3]) for q in range(4)]
    pairs = [(p, q) for p in range(3) for q in range(p + 1, 4)]
    gates += [zz(p, q, angles[12 + n]) for n, (p, q) in enumerate(pairs)]
    gates += [rot(q, *angles[18 + 3 * q : 21 + 3 * q]) for q in range(4)]
    return Ansatz(AnsatzKind.ZZ_FULL, 4, tuple(gates), seed=0)


def pixel_support(extractor, channel, tol=1e-12):
    """Pixels q whose table entries with a non-identity Pauli on qubit q reach ``channel``."""
    table = np.abs(extractor.table[..., channel])
    return {q for q in range(4) if np.max(np.take(table, [1, 2], axis=q)) > tol}


# ---------------------------------------------------------------------------
# Patches: tiling, row-major qubit order and the Ry(pi * p) encoding
# ---------------------------------------------------------------------------


def test_full_image_patch_count():
    rng = np.random.default_rng(1)
    image = random_image(rng)
    extractor = QuanvExtractor(build_ansatz(AnsatzKind.ZZ_FULL, 4, seed=1))
    fmap = extractor.forward(image)
    assert fmap.shape == (14, 14, 4)
    assert np.array_equal(fmap[0, 0], extractor.forward(image[:2, :2])[0, 0])
    assert np.array_equal(fmap[-1, -1], extractor.forward(image[26:, 26:])[0, 0])


def test_dense_table_patch_features_do_not_depend_on_the_image():
    """Each channel of a dense table sums its many terms in one order, so a lone patch gives the same bits."""
    rng = np.random.default_rng(17)
    image = random_image(rng)
    extractor = QuanvExtractor(entangled_ansatz(rng.uniform(0, 2 * np.pi, 30)))
    fmap = extractor.forward(image)
    for i, j in ((0, 0), (5, 9), (13, 13)):
        assert np.array_equal(fmap[i, j], extractor.forward(image[2 * i : 2 * i + 2, 2 * j : 2 * j + 2])[0, 0])


def test_single_patch_image():
    image = np.array([[0.1, 0.2], [0.3, 0.4]])
    ansatz = entangled_ansatz(np.random.default_rng(2).uniform(0, 2 * np.pi, 30))
    fmap = QuanvExtractor(ansatz).forward(image)
    assert fmap.shape == (1, 1, 4)
    expected = oracle_readout(ansatz, np.pi * np.array([0.1, 0.2, 0.3, 0.4]))
    assert np.allclose(fmap[0, 0], expected, atol=1e-12)


def test_constant_image_patches():
    ansatz = build_ansatz(AnsatzKind.RANDOM, 4, seed=5)
    fmap = QuanvExtractor(ansatz).forward(np.full((6, 6), 0.5))
    expected = oracle_readout(ansatz, np.full(4, np.pi / 2))
    assert np.allclose(fmap, expected, atol=1e-12)


def test_every_pixel_in_exactly_one_patch():
    """Under the identity circuit channel k of cell (i, j) is cos(pi * pixel k of that patch)."""
    rng = np.random.default_rng(0)
    image = random_image(rng, (8, 10))
    fmap = identity_extractor().forward(image)
    expected = np.empty((4, 5, 4))
    for i in range(4):
        for j in range(5):
            for k in range(4):
                expected[i, j, k] = np.cos(np.pi * image[2 * i + k // 2, 2 * j + k % 2])
    assert np.allclose(fmap, expected, atol=1e-12)


def test_dimension_mismatch_rejected():
    extractor = identity_extractor()
    for bad in (np.zeros((7, 8)), np.zeros((28,))):
        with pytest.raises(ValueError):
            extractor.forward(bad)
        with pytest.raises(ValueError):
            extractor.input_gradient(bad, np.zeros((4, 4, 4)))


def test_encode_zero_patch():
    assert np.allclose(identity_extractor().forward(np.zeros((2, 2))), 1.0, atol=1e-12)


def test_encode_ones_patch():
    assert np.allclose(identity_extractor().forward(np.ones((2, 2))), -1.0, atol=1e-12)


def test_encode_half_pixel():
    fmap = identity_extractor().forward(np.array([[0.5, 0.0], [0.0, 0.0]]))
    assert fmap[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(fmap[0, 0, 1:], 1.0, atol=1e-12)


def encoded_sin_cos(pixels):
    """sin(pi p) and cos(pi p) of each pixel as the encoding computes them.

    A no_ent filter compiles to the 8 weight-one strings X_q and Z_q, so each
    row of its monomials F is the sine or the cosine of one qubit's angle.
    Each pixel goes in as qubit 0 of its own one-patch image.
    """
    extractor = QuanvExtractor(build_ansatz(AnsatzKind.NO_ENT, 4, seed=0))
    assert np.array_equal(np.count_nonzero(extractor.terms, axis=1), np.ones(8))
    images = np.zeros((len(pixels), 2, 2))
    images[:, 0, 0] = pixels
    clear_memo()
    _, _, f = extractor._encode(images)
    rows = [np.flatnonzero((extractor.terms == [s, 0, 0, 0]).all(axis=1))[0] for s in (1, 2)]  # X_0, Z_0
    return f[:, rows[0], 0], f[:, rows[1], 0]


def test_encoding_matches_mpmath_sinpi_and_cospi():
    """Within 4.5e-16 of sin(pi p) and cos(pi p) on pixel grids an attack visits."""
    from mpmath import libmp

    grey = np.arange(256) / 255
    steps = 0.025 * np.concatenate([np.arange(-40, 0), np.arange(1, 41)])
    pixels = np.unique(np.concatenate([np.linspace(0, 1, 100001), grey, np.clip(grey[:, None] + steps, 0, 1).ravel()]))
    sin, cos = encoded_sin_cos(pixels)
    assert np.max(np.abs(sin)) <= 1.0 and np.max(np.abs(cos)) <= 1.0
    prec = 120
    worst = 0.0
    for p, s, c in zip(pixels.tolist(), sin.tolist(), cos.tolist()):
        exact_cos, exact_sin = libmp.mpf_cos_sin_pi(libmp.from_float(p), prec)
        for exact, got in ((exact_sin, s), (exact_cos, c)):
            worst = max(worst, abs(libmp.to_float(libmp.mpf_sub(exact, libmp.from_float(got), prec))))
    assert worst <= 4.5e-16


def test_encoding_is_exact_at_pixels_zero_and_one():
    """Pixel 0 encodes to (sin, cos) = (0, 1) and pixel 1 to (0, -1), exactly."""
    sin, cos = encoded_sin_cos(np.array([0.0, 1.0]))
    assert sin.tolist() == [0.0, 0.0]
    assert cos.tolist() == [1.0, -1.0]


def test_encode_rejects_out_of_range():
    extractor = identity_extractor()
    for value in (1.5, -0.1):
        image = np.zeros((2, 2))
        image[1, 0] = value
        with pytest.raises(ValueError):
            extractor.forward(image)
        with pytest.raises(ValueError):
            extractor.input_gradient(image, np.zeros((1, 1, 4)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_pixels(value):
    image = np.full((4, 4), 0.5)
    image[2, 1] = value
    quanv_extractor = QuanvExtractor(build_ansatz(AnsatzKind.ZZ_FULL, 4, seed=0))
    for extractor in (quanv_extractor, ConvExtractor(build_conv_layer(0))):
        with pytest.raises(ValueError, match="finite"):
            extractor.forward(image)
        with pytest.raises(ValueError, match="finite"):
            extractor.input_gradient(image, np.zeros((2, 2, 4)))


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def test_identity_circuit_on_zero_image():
    fmap = identity_extractor().forward(np.zeros((28, 28)))
    assert fmap.shape == (14, 14, 4)
    assert np.allclose(fmap, 1.0, atol=1e-12)


def test_constant_image_gives_constant_channels():
    ansatz = build_ansatz(AnsatzKind.ZZ_FULL, 4, seed=3)
    fmap = QuanvExtractor(ansatz).forward(np.zeros((28, 28)))
    for k in range(4):
        channel = fmap[:, :, k]
        assert np.allclose(channel, channel[0, 0], atol=1e-12)


@pytest.mark.parametrize("kind", list(AnsatzKind))
def test_forward_matches_matrix_oracle(kind):
    rng = np.random.default_rng(list(AnsatzKind).index(kind))
    for seed in range(3):
        image = random_image(rng, (8, 8))
        ansatz = build_ansatz(kind, 4, seed=seed)
        fmap = QuanvExtractor(ansatz).forward(image)
        assert np.max(np.abs(fmap - oracle_feature_map(image, ansatz))) <= 1e-12


def test_forward_shape_and_range():
    """Features stay inside [-1, 1], also on exact 0/1 pixels where rounding can push past 1."""
    rng = np.random.default_rng(8)
    binary = (rng.random((28, 28)) < 0.5).astype(float)
    # all 16 patches of 0/1 pixels side by side
    every_patch = np.hstack([np.array(bits, dtype=float).reshape(2, 2) for bits in np.ndindex(2, 2, 2, 2)])
    for kind in AnsatzKind:
        for seed in range(5):
            extractor = QuanvExtractor(build_ansatz(kind, 4, seed=seed))
            for image in (random_image(rng), binary, every_patch, np.ones((28, 28))):
                fmap = extractor.forward(image)
                assert fmap.shape == (image.shape[0] // 2, image.shape[1] // 2, 4)
                assert np.all(fmap >= -1.0)
                assert np.all(fmap <= 1.0)


def test_forward_patch_order_independence():
    """Each output cell depends only on its own patch."""
    rng = np.random.default_rng(9)
    image = random_image(rng, (8, 8))
    extractor = QuanvExtractor(build_ansatz(AnsatzKind.ZZ_STAR, 4, seed=9))
    fmap = extractor.forward(image)
    for cell in rng.permutation(16):
        i, j = divmod(int(cell), 4)
        lone = image[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].copy()
        assert np.allclose(extractor.forward(lone)[0, 0], fmap[i, j], atol=1e-12)


def test_forward_rejects_bad_inputs():
    with pytest.raises(ValueError):
        identity_extractor().forward(np.full((4, 4), 1.2))
    with pytest.raises(ValueError):
        QuanvExtractor(build_ansatz(AnsatzKind.NO_ENT, 3, seed=0))


# ---------------------------------------------------------------------------
# Input gradient
# ---------------------------------------------------------------------------


def numeric_pixel_gradient(extractor, image, upstream, i, j, h=1e-5):
    bumped = image.copy()
    bumped[i, j] = image[i, j] + h
    plus = np.sum(upstream * extractor.forward(np.clip(bumped, 0, 1)))
    bumped[i, j] = image[i, j] - h
    minus = np.sum(upstream * extractor.forward(np.clip(bumped, 0, 1)))
    return (plus - minus) / (2 * h)


def test_zero_upstream_gives_zero_gradient():
    rng = np.random.default_rng(10)
    extractor = QuanvExtractor(build_ansatz(AnsatzKind.ZZ_FULL, 4, seed=10))
    grad = extractor.input_gradient(random_image(rng, (8, 8)), np.zeros((4, 4, 4)))
    assert np.array_equal(grad, np.zeros((8, 8)))


@pytest.mark.parametrize("kind", list(AnsatzKind))
def test_gradient_matches_matrix_oracle(kind):
    rng = np.random.default_rng(10 + list(AnsatzKind).index(kind))
    binary = (rng.random((6, 6)) < 0.5).astype(float)
    for seed in range(3):
        ansatz = build_ansatz(kind, 4, seed=seed)
        extractor = QuanvExtractor(ansatz)
        for image in (random_image(rng, (6, 6)), binary):
            upstream = rng.normal(size=(3, 3, 4))
            grad = extractor.input_gradient(image, upstream)
            assert np.max(np.abs(grad - oracle_input_gradient(image, ansatz, upstream))) <= 1e-12


@pytest.mark.parametrize("kind", list(AnsatzKind))
def test_gradient_matches_finite_difference(kind):
    rng = np.random.default_rng(20 + list(AnsatzKind).index(kind))
    for _ in range(10):
        # keep pixels away from the [0, 1] boundary so the probe stays valid
        image = 0.2 + 0.6 * rng.random((6, 6))
        upstream = rng.normal(size=(3, 3, 4))
        extractor = QuanvExtractor(build_ansatz(kind, 4, seed=int(rng.integers(1000))))
        grad = extractor.input_gradient(image, upstream)
        for _ in range(4):
            i, j = rng.integers(6), rng.integers(6)
            numeric = numeric_pixel_gradient(extractor, image, upstream, i, j)
            assert grad[i, j] == pytest.approx(numeric, abs=1e-6)


def test_gradient_locality_without_entanglement():
    rng = np.random.default_rng(12)
    image = 0.2 + 0.6 * rng.random((6, 6))
    extractor = QuanvExtractor(build_ansatz(AnsatzKind.NO_ENT, 4, seed=12))
    for k in range(4):
        upstream = np.zeros((3, 3, 4))
        upstream[1, 2, k] = 1.0
        grad = extractor.input_gradient(image, upstream)
        nonzero = np.argwhere(np.abs(grad) > 1e-12)
        assert nonzero.shape[0] == 1
        # channel k reads qubit k, fed by pixel k of the patch at (2, 4)
        di, dj = divmod(k, 2)
        assert tuple(nonzero[0]) == (2 + di, 4 + dj)
        numeric = numeric_pixel_gradient(extractor, image, upstream, 2 + di, 4 + dj)
        assert grad[2 + di, 4 + dj] == pytest.approx(numeric, abs=1e-6)


def test_gradient_rejects_bad_upstream_shape():
    with pytest.raises(ValueError):
        identity_extractor().input_gradient(np.zeros((8, 8)), np.zeros((14, 14, 4)))


# ---------------------------------------------------------------------------
# The encoding memo: every stack is encoded once for all extractors of one term list
# ---------------------------------------------------------------------------


def memo_ansatzes():
    yield from (build_ansatz(kind, 4, seed=seed) for kind in AnsatzKind for seed in range(3))
    yield entangled_ansatz(np.random.default_rng(5).uniform(0, 2 * np.pi, 30))


def cold(ansatz, method, *args):
    """``method`` of a new extractor on an empty memo, so that it encodes the pixels itself."""
    extractor = QuanvExtractor(ansatz)
    clear_memo()
    return getattr(extractor, method)(*args)


@pytest.fixture
def tangents(monkeypatch):
    """The names of the calls of np.tan, np.sin and np.cos, in order.

    Each encoding takes the tangent of its half-angles once and no sine or
    cosine, so n encodings leave ``["tan"] * n``.
    """
    calls = []
    for name in ("tan", "sin", "cos"):
        ufunc = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *args, _n=name, _f=ufunc, **kwargs: calls.append(_n) or _f(*args, **kwargs))
    return calls


def test_warm_calls_are_bitwise_cold_calls():
    rng = np.random.default_rng(30)
    for ansatz in memo_ansatzes():
        for shape in ((4, 4), (5, 4, 4)):
            image = random_image(rng, shape)
            upstream = rng.normal(size=shape[:-2] + (2, 2, 4))
            warm = QuanvExtractor(ansatz)
            fmap = warm.forward(image)
            assert np.array_equal(warm.forward(image), fmap)
            grad = warm.input_gradient(image, upstream)
            assert np.array_equal(fmap, cold(ansatz, "forward", image))
            assert np.array_equal(grad, cold(ansatz, "input_gradient", image, upstream))
            if len(shape) == 2:
                assert np.max(np.abs(fmap - oracle_feature_map(image, ansatz))) <= 1e-12
                assert np.max(np.abs(grad - oracle_input_gradient(image, ansatz, upstream))) <= 1e-12


def test_pixels_changed_in_place_are_encoded_again():
    rng = np.random.default_rng(31)
    ansatz = build_ansatz(AnsatzKind.ZZ_FULL, 4, seed=0)
    extractor = QuanvExtractor(ansatz)
    image = random_image(rng, (6, 6))
    upstream = rng.normal(size=(3, 3, 4))
    stale = extractor.forward(image), extractor.input_gradient(image, upstream)
    image[2, 3] = 1.0 - image[2, 3]
    fmap, grad = extractor.forward(image), extractor.input_gradient(image, upstream)
    assert not np.array_equal(fmap, stale[0]) and not np.array_equal(grad, stale[1])
    assert np.array_equal(fmap, cold(ansatz, "forward", image.copy()))
    assert np.array_equal(grad, cold(ansatz, "input_gradient", image.copy(), upstream))


def test_layouts_with_one_term_list_share_an_encoding(tangents):
    first, second = (build_ansatz(kind, 4, seed=seed) for kind, seed in ((AnsatzKind.RANDOM, 0), (AnsatzKind.ZZ_FULL, 1)))
    extractors = QuanvExtractor(first), QuanvExtractor(second)
    assert np.array_equal(extractors[0].terms, extractors[1].terms)
    tangents.clear()  # the compiler takes sines and cosines
    rng = np.random.default_rng(34)
    image, upstream = random_image(rng, (3, 6, 6)), rng.normal(size=(3, 3, 3, 4))
    extractors[0].forward(image)
    fmap, grad = extractors[1].forward(image), extractors[1].input_gradient(image, upstream)
    assert tangents == ["tan"]
    assert np.array_equal(fmap, cold(second, "forward", image))
    assert np.array_equal(grad, cold(second, "input_gradient", image, upstream))


def test_another_term_list_encodes_again(tangents):
    ansatz = entangled_ansatz(np.random.default_rng(35).uniform(0, 2 * np.pi, 30))
    layout, dense = QuanvExtractor(build_ansatz(AnsatzKind.RANDOM, 4, seed=0)), QuanvExtractor(ansatz)
    tangents.clear()
    rng = np.random.default_rng(36)
    image, upstream = random_image(rng, (6, 6)), rng.normal(size=(3, 3, 4))
    layout.forward(image)
    fmap, grad = dense.forward(image), dense.input_gradient(image, upstream)
    assert tangents == ["tan"] * 2
    assert np.max(np.abs(fmap - oracle_feature_map(image, ansatz))) <= 1e-12
    assert np.max(np.abs(grad - oracle_input_gradient(image, ansatz, upstream))) <= 1e-12


def test_the_memo_holds_the_stack_encoded_last(tangents):
    extractor = QuanvExtractor(build_ansatz(AnsatzKind.NO_ENT, 4, seed=0))
    tangents.clear()
    a, b = random_image(np.random.default_rng(37), (2, 4, 4))
    extractor.forward(a)
    extractor.forward(a)
    assert tangents == ["tan"]  # a repeated stack is held
    extractor.forward(b)
    extractor.forward(a)
    assert tangents == ["tan"] * 3  # b displaced a


def test_a_transfer_row_encodes_the_clean_and_the_adversarial_stack_once(tangents):
    """A quanv source against the five layouts: one encoding each of the clean and the crafted stack.

    With one memo per extractor the same row encoded 7 stacks: the source's
    clean stack again after it scored its own adversarials, and the
    adversarials once per target.
    """
    targets = [make_qunn_model(kind, seed=0) for kind in AnsatzKind]
    rng = np.random.default_rng(38)
    images, labels = random_image(rng, (3, 8, 8)), rng.integers(0, 10, size=3)
    tangents.clear()
    for target in targets:
        transfer_attack(targets[0], target, images, labels, make_spec("fgsm", 0.1))
    assert tangents == ["tan"] * 2


def grid_models():
    """The benchmark's six models for 8x8 images: the layouts of filter seed 0 and the cnn, each with its own head.

    Identical heads would give the four layouts with equal features equal
    adversarials, which the memo would then hold across sources.
    """
    extractors = [QuanvExtractor(build_ansatz(kind, 4, seed=0)) for kind in AnsatzKind]
    extractors.append(ConvExtractor(build_conv_layer(0)))
    return [Model(extractor, build_dense_head(10 + i, in_dim=64)) for i, extractor in enumerate(extractors)]


def test_a_transfer_grid_takes_a_pinned_number_of_encodings(tangents, tmp_path):
    """FGSM curves, the transfer matrix and the batches, in the benchmark's order: 5 E + 12 encodings.

    Curves: each layout's clean gradient encodes x once for its forward pass
    and its input gradient, epsilon 0 scores x from the memo, and each of the
    E - 1 other epsilons encodes its adversarial: E per layout.  Matrix: every
    source's crafts are served by its model's gradient memo, which still
    holds the clean gradient of its curve; each source's
    adversarial is encoded for the first layout target and reused by the
    other four, the cnn in between encoding nothing: one per source, 6.
    Batches: the same again, 6, since the memo then holds the last source's
    adversarial.
    """
    grid = grid_models()
    rng = np.random.default_rng(39)
    x, y = random_image(rng, (3, 8, 8)), rng.integers(0, 10, size=3)
    curve = [make_spec(AttackKind.FGSM, eps) for eps in (0.0, 0.05, 0.1, 0.2)]
    spec = make_spec(AttackKind.FGSM, 0.1)
    tangents.clear()
    for model in grid:
        evaluate_robustness(model, x, y, curve)
    for source in grid:
        for target in grid:
            transfer_attack(source, target, x, y, spec)
    for source in grid:
        save_batch(tmp_path / "batch", make_batch(source, x, y, spec))
        loaded = load_batch(tmp_path / "batch")
        for target in grid:
            accuracy(target, loaded.adversarials, y)
    assert tangents == ["tan"] * (5 * len(curve) + 12)


def test_a_whitebox_grid_takes_a_pinned_number_of_encodings(tangents):
    """PGD then MIM curves over epsilons (0, a, b), in the benchmark's order: 4 I + 2 encodings per layout.

    PGD at epsilon 0 encodes x for its first gradient; its step is 0, so its
    other steps are served by the model's gradient memo and its score by the
    encoding memo: 1.  At a the first gradient at x is served from the
    memo's computed entry, the I - 1 later ones each encode their iterate,
    and the score encodes the adversarial: I.  At b the first gradient at x
    is served from the memo's served entry, which still holds x after a's
    iterates displaced the computed one: I again.  MIM at 0 is served whole
    by that entry, and only its score encodes x again, since the encoding
    memo holds PGD's last adversarial: 1.  MIM at a and at b: I each, as for
    PGD.  So 2 (1 + I + I) per layout, and nothing for the cnn.
    """
    grid = grid_models()
    rng = np.random.default_rng(40)
    x, y = random_image(rng, (3, 8, 8)), rng.integers(0, 10, size=3)
    iterations = 3
    tangents.clear()
    for model in grid:
        for kind in (AttackKind.PGD, AttackKind.MIM):
            evaluate_robustness(model, x, y, [make_spec(kind, eps, iterations=iterations) for eps in (0.0, 0.1, 0.2)])
    assert tangents == ["tan"] * (5 * (4 * iterations + 2))


def test_model_gradient_encodes_once(tangents):
    """Each encoding takes one tangent per pixel and no sine or cosine; a model gradient encodes its pixels once."""
    model = make_qunn_model(seed=2)
    tangents.clear()
    model.loss_and_input_gradient(random_image(np.random.default_rng(33), (3, 8, 8)), np.array([0, 4, 9]))
    assert tangents == ["tan"]


def test_warm_extractor_still_rejects_non_finite_pixels():
    extractor = QuanvExtractor(build_ansatz(AnsatzKind.NO_ENT, 4, seed=0))
    image = np.full((4, 4), 0.5)
    extractor.forward(image)
    image[1, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        extractor.forward(image)
    with pytest.raises(ValueError, match="finite"):
        extractor.input_gradient(image, np.zeros((2, 2, 4)))


def test_writing_into_a_feature_map_leaves_the_next_forward_alone():
    extractor = QuanvExtractor(build_ansatz(AnsatzKind.RANDOM, 4, seed=1))
    image = random_image(np.random.default_rng(32), (4, 6, 6))
    fmap = extractor.forward(image)
    expected = fmap.copy()
    fmap[...] = 7.0
    assert np.array_equal(extractor.forward(image), expected)


# ---------------------------------------------------------------------------
# The compiled table
# ---------------------------------------------------------------------------

_angle = st.floats(0.0, 2 * np.pi, allow_nan=False)
_pixels = st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=4, max_size=4)
_upstream = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4)


def assert_matches_oracle(ansatz, pixels, upstream):
    image = np.asarray(pixels).reshape(2, 2)
    up = np.asarray(upstream).reshape(1, 1, 4)
    extractor = QuanvExtractor(ansatz)
    assert np.max(np.abs(extractor.forward(image) - oracle_feature_map(image, ansatz))) <= 1e-12
    grad = extractor.input_gradient(image, up)
    assert np.max(np.abs(grad - oracle_input_gradient(image, ansatz, up))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(list(AnsatzKind)),
    seed=st.integers(0, 2**16),
    angles=st.lists(_angle, min_size=18, max_size=18),
    pixels=_pixels,
    upstream=_upstream,
)
def test_table_matches_oracle_for_random_angles(kind, seed, angles, pixels, upstream):
    """The table matches the oracle on each layout's gates with drawn angles in place of the seeded ones."""
    drawn = iter(angles)
    gates = tuple(
        qsim.Gate(g.kind, g.targets, tuple(next(drawn) for _ in g.angles)) for g in build_ansatz(kind, 4, seed).gates
    )
    assert_matches_oracle(Ansatz(kind, 4, gates, seed), pixels, upstream)


@settings(max_examples=40, deadline=None)
@given(angles=st.lists(_angle, min_size=30, max_size=30), pixels=_pixels, upstream=_upstream)
def test_table_matches_oracle_with_entanglement_before_readout(angles, pixels, upstream):
    assert_matches_oracle(entangled_ansatz(angles), pixels, upstream)


def test_entangled_circuit_exercises_cross_terms():
    """With rotations after ZZ every channel reads all four pixels through many table terms."""
    extractor = QuanvExtractor(entangled_ansatz(np.random.default_rng(3).uniform(0, 2 * np.pi, 30)))
    assert extractor.support == (frozenset({0, 1, 2, 3}),) * 4
    assert len(extractor.terms) > 16
    for k in range(4):
        assert pixel_support(extractor, k) == {0, 1, 2, 3}
        assert np.count_nonzero(np.abs(extractor.table[..., k]) > 1e-9) > 16


@pytest.mark.parametrize("kind", list(AnsatzKind))
def test_table_channel_reads_only_its_own_pixel(kind):
    """Every layout ends in ZZ gates, which commute with the Z readout, so channel k reads only pixel k.

    The table holds exact zeros, not rounding residue, on the other pixels, and the filter compiles to
    the M = 8 strings X_k and Z_k.
    """
    single_qubit_strings = sorted(tuple(pauli * (q == k) for q in range(4)) for k in range(4) for pauli in (1, 2))
    for seed in range(3):
        extractor = QuanvExtractor(build_ansatz(kind, 4, seed=seed))
        assert extractor.support == tuple(frozenset({k}) for k in range(4))
        assert sorted(map(tuple, extractor.terms.tolist())) == single_qubit_strings
        for k in range(4):
            assert pixel_support(extractor, k, tol=0.0) == {k}


@pytest.mark.parametrize("gate", [qsim.ry(5, 0.3), qsim.zz(0, 7, 0.3), qsim.ry(4, 0.3)], ids=["ry", "zz", "ry_at_n"])
def test_a_gate_target_past_the_register_is_rejected(gate):
    """The compiler reads only the targets below N_QUBITS, so an out-of-range gate must fail before it."""
    with pytest.raises(ValueError, match="out of range"):
        QuanvExtractor(Ansatz(AnsatzKind.RANDOM, 4, (qsim.ry(0, 0.1), gate), seed=0))


def test_circuit_read_through_y_keeps_the_cosine_of_its_float_angle():
    """Rx(pi/2) turns Z_k into cos(pi/2) Z_k + sin(pi/2) Y_k, and cos(fl(pi/2)) = 6.1e-17 is no residue.

    The table holds exactly that coefficient on Z_k, and the features and the gradient match the oracle.
    """
    ansatz = Ansatz(AnsatzKind.NO_ENT, 4, tuple(qsim.rx(q, np.pi / 2) for q in range(4)), seed=0)
    extractor = QuanvExtractor(ansatz)
    expected = np.zeros((3, 3, 3, 3, 4))
    for k in range(4):
        expected[(0,) * k + (2,) + (0,) * (3 - k) + (k,)] = np.cos(np.pi / 2)
    assert np.cos(np.pi / 2) != 0.0
    assert extractor.table.tobytes() == expected.tobytes()
    assert extractor.support == tuple(frozenset({k}) for k in range(4))
    rng = np.random.default_rng(16)
    image, upstream = random_image(rng, (4, 4)), rng.normal(size=(2, 2, 4))
    assert np.max(np.abs(extractor.forward(image) - oracle_feature_map(image, ansatz))) <= 1e-12
    grad = extractor.input_gradient(image, upstream)
    assert np.max(np.abs(grad - oracle_input_gradient(image, ansatz, upstream))) <= 1e-12


# I, X and Z: the Pauli matrices whose expectation on Ry(theta)|0> is 1, sin(theta) and cos(theta)
_PAULIS = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])


def oracle_table(ansatz):
    """c[s0, s1, s2, s3, k] = Tr(P_s U^dag Z_k U) / 16 by tracing the Kronecker-matrix U, with no snap to 0."""
    unitary = oracle_unitary(ansatz.gates, 4)
    # U^dag Z_k U is Hermitian, so its imaginary part is antisymmetric and
    # vanishes against the real symmetric I, X, Z strings
    heisenberg = np.einsum("ai,ka,aj->kij", unitary.conj(), _Z_SIGNS, unitary).real.reshape((4,) + (2,) * 8)
    # Tr(P O) = sum_ij P[i, j] O[i, j] for symmetric P; i..l and m..p are the
    # row and column bits of qubits 0..3, a..d their Pauli and x the channel
    table = np.einsum("aim,bjn,cko,dlp,xijklmnop->abcdx", _PAULIS, _PAULIS, _PAULIS, _PAULIS, heisenberg, optimize=True)
    return table / 16


def test_table_matches_the_trace_of_the_oracle_unitary():
    rng = np.random.default_rng(21)
    ansatzes = [build_ansatz(kind, 4, seed) for kind in AnsatzKind for seed in range(6)]
    ansatzes += [entangled_ansatz(rng.uniform(0, 2 * np.pi, 30)) for _ in range(10)]
    for ansatz in ansatzes:
        assert np.max(np.abs(QuanvExtractor(ansatz).table - oracle_table(ansatz))) <= 1e-14


@pytest.mark.parametrize("kind", [AnsatzKind.ZZ_FULL, AnsatzKind.ZZ_LINEAR, AnsatzKind.ZZ_STAR])
def test_zz_layouts_compile_to_the_no_ent_table_bit_for_bit(kind):
    """The ZZ block comes last and commutes with every Z_k, so it leaves the rotations' table as it is."""
    for seed in range(6):
        table = QuanvExtractor(build_ansatz(kind, 4, seed)).table
        assert table.tobytes() == QuanvExtractor(build_ansatz(AnsatzKind.NO_ENT, 4, seed)).table.tobytes()


def test_no_simulation_after_compile(monkeypatch):
    """Neither building the extractor nor using it runs the statevector simulator."""

    def refuse(*args, **kwargs):
        raise AssertionError("the statevector simulator was called")

    for name in ("apply_gate", "run_program"):
        monkeypatch.setattr(qsim, name, refuse)
    rng = np.random.default_rng(14)
    extractor = QuanvExtractor(build_ansatz(AnsatzKind.RANDOM, 4, seed=14))
    assert extractor.table.dtype == np.float64
    image = random_image(rng, (6, 6))
    extractor.forward(image)
    extractor.input_gradient(image, rng.normal(size=(3, 3, 4)))


# ---------------------------------------------------------------------------
# feature cache
# ---------------------------------------------------------------------------


def test_feature_cache_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    ansatz = build_ansatz(AnsatzKind.ZZ_FULL, 4, seed=13)
    extractor = QuanvExtractor(ansatz)
    maps = np.stack([extractor.forward(random_image(rng)) for _ in range(3)])
    path = tmp_path / "features.bin"
    write_feature_cache(path, extractor.fingerprint, np.array([7, 8, 11]), maps)
    loaded, digest = read_feature_cache(path, extractor.fingerprint)
    assert digest == extractor.fingerprint
    assert sorted(loaded) == [7, 8, 11]
    for idx, expected in zip([7, 8, 11], maps):
        assert np.array_equal(loaded[idx], expected)


def test_feature_cache_round_trips_any_index_and_digest(tmp_path):
    rng = np.random.default_rng(15)
    maps = rng.normal(size=(3, 14, 14, 4))
    digest = "ab" * 31 + "00"
    path = tmp_path / "features.bin"
    write_feature_cache(path, digest, np.array([5, 0, 2**32 - 1]), maps)
    loaded, read_digest = read_feature_cache(path, digest)
    assert read_digest == digest and list(loaded) == [5, 0, 2**32 - 1]
    assert all(np.array_equal(loaded[i], m) for i, m in zip([5, 0, 2**32 - 1], maps))
    with pytest.raises(ValueError):
        write_feature_cache(path, digest, np.array([-1]), maps[:1])


def test_feature_cache_rejects_duplicate_indices_on_write(tmp_path):
    path = tmp_path / "features.bin"
    with pytest.raises(ValueError, match="distinct"):
        write_feature_cache(path, "ab" * 32, np.array([3, 5, 3]), np.zeros((3, 2, 2, 4)))
    assert not path.exists()


def test_feature_cache_rejects_duplicate_indices_on_read(tmp_path):
    path = tmp_path / "features.bin"
    maps = np.random.default_rng(17).normal(size=(2, 2, 2, 4))
    container.save(path, "feature_cache", {"fingerprint": "ab" * 32}, indices=np.array([4, 4]), maps=maps)
    with pytest.raises(ValueError, match="repeats an image index"):
        read_feature_cache(path)


def test_feature_cache_holds_any_map_shape(tmp_path):
    extractor = QuanvExtractor(build_ansatz(AnsatzKind.RANDOM, 4, seed=3))
    maps = extractor.forward(np.random.default_rng(16).random((3, 4, 4)))
    assert maps.shape == (3, 2, 2, 4)
    path = tmp_path / "features.bin"
    write_feature_cache(path, extractor.fingerprint, np.array([2, 1, 0]), maps)
    loaded, _ = read_feature_cache(path, extractor.fingerprint)
    assert all(np.array_equal(loaded[i], m) for i, m in zip([2, 1, 0], maps))


def test_feature_cache_rejects_mixed_extractors(tmp_path):
    """Two caches concatenated into one file are rejected: a file holds one extractor's maps."""
    path = tmp_path / "features.bin"
    write_feature_cache(path, "11" * 32, np.array([0]), np.zeros((1, 14, 14, 4)))
    one = path.read_bytes()
    write_feature_cache(path, "22" * 32, np.array([1]), np.zeros((1, 14, 14, 4)))
    path.write_bytes(one + path.read_bytes())
    with pytest.raises(ValueError, match="trailing bytes"):
        read_feature_cache(path)


def test_feature_cache_rejects_wrong_fingerprint(tmp_path):
    ansatz = build_ansatz(AnsatzKind.ZZ_FULL, 4, seed=13)
    extractor = QuanvExtractor(ansatz)
    path = tmp_path / "features.bin"
    write_feature_cache(
        path, extractor.fingerprint, np.array([0]), np.zeros((1, 14, 14, 4))
    )
    with pytest.raises(ValueError):
        read_feature_cache(path, "00" * 32)


def test_feature_cache_rejects_truncation(tmp_path):
    ansatz = build_ansatz(AnsatzKind.ZZ_FULL, 4, seed=13)
    extractor = QuanvExtractor(ansatz)
    path = tmp_path / "features.bin"
    write_feature_cache(
        path, extractor.fingerprint, np.array([0]), np.zeros((1, 14, 14, 4))
    )
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ValueError):
        read_feature_cache(path)
