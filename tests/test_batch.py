"""The (N, H, W) stack contract: every call on a stack equals the calls on its images, bitwise."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quanvrob.ansatz import AnsatzKind
from quanvrob.attacks import (
    AttackKind,
    AttackSpec,
    evaluate_robustness,
    generate,
    make_batch,
    make_spec,
    transfer_attack,
)
from quanvrob.classical import build_dense_head, dense_forward, loss_and_grads
from quanvrob.models import Model, accuracy
from quanvrob.quanv import QuanvExtractor

from test_models import make_cnn_model, make_qunn_model
from test_quanv import entangled_ansatz

KINDS = list(AnsatzKind) + ["cnn"]
MODELS = {kind: make_cnn_model(seed=3) if kind == "cnn" else make_qunn_model(kind, seed=3) for kind in KINDS}
# a dense table (about 80 Pauli strings, several per channel) beside the layouts' 8
MODELS["entangled"] = Model(
    QuanvExtractor(entangled_ansatz(np.random.default_rng(3).uniform(0, 2 * np.pi, 30))),
    build_dense_head(4, in_dim=64),
)
N_IMAGES = 6


def stack(seed=0, n=N_IMAGES):
    """Random 8x8 images, a third of the rows snapped to exact 0/1 pixels, and labels."""
    rng = np.random.default_rng(seed)
    images = rng.random((n, 8, 8))
    images[:, ::3] = np.round(images[:, ::3])
    return images, rng.integers(0, 10, size=n)


def one_by_one(fn, *stacks):
    return np.stack([fn(*args) for args in zip(*stacks)])


# ---------------------------------------------------------------------------
# Extractors, head and model
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS + ["entangled"], ids=str)
def test_extractor_stack_matches_images(kind):
    extractor = MODELS[kind].extractor
    images, _ = stack(1)
    upstream = np.random.default_rng(2).normal(size=(N_IMAGES, 4, 4, 4))
    fmaps = extractor.forward(images)
    assert fmaps.shape == (N_IMAGES, 4, 4, 4)
    assert np.array_equal(fmaps, one_by_one(extractor.forward, images))
    grads = extractor.input_gradient(images, upstream)
    assert grads.shape == images.shape
    assert np.array_equal(grads, one_by_one(extractor.input_gradient, images, upstream))


@pytest.mark.parametrize("kind", KINDS + ["entangled"], ids=str)
def test_empty_stack_gives_empty_maps_and_gradients(kind):
    extractor = MODELS[kind].extractor
    assert extractor.forward(np.zeros((0, 8, 8))).shape == (0, 4, 4, 4)
    assert extractor.input_gradient(np.zeros((0, 8, 8)), np.zeros((0, 4, 4, 4))).shape == (0, 8, 8)


@pytest.mark.parametrize("kind", KINDS + ["entangled"], ids=str)
def test_model_stack_matches_images(kind):
    model = MODELS[kind]
    images, labels = stack(3)
    labels_one_by_one = [model.predict_label(x) for x in images]
    assert all(type(label) is int for label in labels_one_by_one)
    predicted = model.predict_label(images)
    assert predicted.shape == (N_IMAGES,) and predicted.dtype.kind == "i"
    assert predicted.tolist() == labels_one_by_one
    assert np.array_equal(model.predict_probs(images), one_by_one(model.predict_probs, images))
    assert np.array_equal(model.loss(images, labels), [model.loss(x, int(y)) for x, y in zip(images, labels)])
    grads = model.input_gradient(images, labels)
    assert np.array_equal(grads, one_by_one(lambda x, y: model.input_gradient(x, int(y)), images, labels))


def test_head_stack_matches_samples_and_sums_parameter_gradients():
    rng = np.random.default_rng(4)
    head = build_dense_head(seed=4, in_dim=64)
    features = rng.random((5, 4, 4, 4))
    labels = rng.integers(0, 10, size=5)
    probs = dense_forward(features, head)
    assert np.array_equal(probs, one_by_one(lambda f: dense_forward(f, head), features))
    # a flat (N, D) stack is the same stack
    assert np.array_equal(dense_forward(features.reshape(5, -1), head), probs)
    loss, d_w, d_b, d_f = loss_and_grads(head, probs, labels, features)
    singles = [loss_and_grads(head, p, int(y), f) for p, y, f in zip(probs, labels, features)]
    assert np.array_equal(loss, [s[0] for s in singles])
    assert np.array_equal(d_f, np.stack([s[3] for s in singles]))
    assert np.allclose(d_w, sum(s[1] for s in singles), rtol=0, atol=1e-12)
    assert np.allclose(d_b, sum(s[2] for s in singles), rtol=0, atol=1e-12)


def test_accuracy_scores_in_blocks_like_one_by_one():
    model = MODELS[AnsatzKind.RANDOM]
    images, labels = stack(5, n=70)  # more than one scoring block
    hits = sum(model.predict_label(x) == int(y) for x, y in zip(images, labels))
    assert accuracy(model, images, labels) == hits / 70


# ---------------------------------------------------------------------------
# Attacks and evaluations against per-image reference loops
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("attack", AttackKind.ALL)
@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_attack_stack_matches_images(kind, attack):
    model = MODELS[kind]
    images, labels = stack(6)
    spec = make_spec(attack, 0.1, iterations=3)
    adversarials = generate(model, images, labels, spec)
    expected = one_by_one(lambda x, y: generate(model, x, int(y), spec), images, labels)
    assert np.array_equal(adversarials, expected)


class AffineToyModel:
    """Gradient a[i] + b[i] * x for image i, where the label is the image's index."""

    kind = "toy_affine"
    fingerprint = "toy-affine"

    def __init__(self, a, b):
        self.a, self.b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)

    def input_gradient(self, image, label):
        return self.a[label] + self.b[label] * image


def test_mim_normalizes_each_image_and_skips_a_vanished_gradient():
    # two 1x2 images at 0.5, step 0.25, two steps.  Image 0's gradient on pixel 0
    # is 1000, then exactly 0 once the pixel moved; image 1's is 1, then -3.
    model = AffineToyModel(a=[[[3000.0, 0.0]], [[9.0, 0.0]]], b=[[[-4000.0, 0.0]], [[-16.0, 0.0]]])
    images = np.full((2, 1, 2), 0.5)
    spec = AttackSpec(AttackKind.MIM, 0.5, step_size=0.25, iterations=2, momentum=1.0)
    adversarials = generate(model, images, np.array([0, 1]), spec)
    # image 0 keeps its momentum through the vanished gradient; image 1's two
    # normalized steps, +1 and -1, cancel.  A norm over the whole stack would
    # have made image 1's first step 1/1001 and moved it back to 0.5.
    assert np.array_equal(adversarials, [[[1.0, 0.5]], [[0.75, 0.5]]])
    assert np.array_equal(adversarials, one_by_one(lambda x, y: generate(model, x, y, spec), images, [0, 1]))


def reference_curve(model, images, labels, specs):
    return tuple(
        (s.epsilon, sum(model.predict_label(generate(model, x, int(y), s)) == int(y) for x, y in zip(images, labels)) / len(images))
        for s in specs
    )


@pytest.mark.parametrize("attack", AttackKind.ALL)
@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_evaluate_robustness_matches_per_image_loop(kind, attack):
    model = MODELS[kind]
    images, labels = stack(8)
    specs = [make_spec(attack, eps, iterations=3) for eps in (0.0, 0.1, 0.3)]
    curve = evaluate_robustness(model, images, labels, specs)
    assert curve.points == reference_curve(model, images, labels, specs)


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_transfer_and_batch_match_per_image_loop(kind):
    source, target = MODELS[kind], MODELS[AnsatzKind.ZZ_FULL]
    images, labels = stack(9)
    spec = make_spec(AttackKind.PGD, 0.2, iterations=3)
    expected = one_by_one(lambda x, y: generate(source, x, int(y), spec), images, labels)
    hits = sum(target.predict_label(x) == int(y) for x, y in zip(expected, labels))
    assert transfer_attack(source, target, images, labels, spec) == hits / N_IMAGES
    batch = make_batch(source, images, labels, spec)
    assert np.array_equal(batch.adversarials, expected)
    assert np.array_equal(batch.originals, images)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from([AnsatzKind.RANDOM, AnsatzKind.ZZ_FULL, "cnn"]),
    attack=st.sampled_from(AttackKind.ALL),
    epsilon=st.floats(0.0, 0.5, allow_nan=False),
    iterations=st.integers(1, 4),
    n=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_batched_adversarials_stay_in_the_ball_and_the_unit_box(kind, attack, epsilon, iterations, n, seed):
    images, labels = stack(seed, n=n)
    adversarials = generate(MODELS[kind], images, labels, make_spec(attack, epsilon, iterations=iterations))
    assert adversarials.shape == images.shape
    assert np.max(np.abs(adversarials - images)) <= epsilon + 1e-12
    assert adversarials.min() >= 0.0 and adversarials.max() <= 1.0


# ---------------------------------------------------------------------------
# Shape contract: a ValueError that names the shapes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", [AnsatzKind.ZZ_FULL, "cnn"], ids=str)
def test_image_neither_2d_nor_3d_is_rejected(kind):
    model = MODELS[kind]
    for bad in (np.zeros(8), np.zeros((2, 2, 8, 8))):
        message = re.escape(str(bad.shape))
        with pytest.raises(ValueError, match=message):
            model.extractor.forward(bad)
        with pytest.raises(ValueError, match=message):
            model.extractor.input_gradient(bad, np.zeros((4, 4, 4)))
        with pytest.raises(ValueError, match=message):
            model.predict_label(bad)


@pytest.mark.parametrize("kind", [AnsatzKind.ZZ_FULL, "cnn"], ids=str)
def test_upstream_not_matching_the_feature_map_is_rejected(kind):
    extractor = MODELS[kind].extractor
    images, _ = stack(10, n=3)
    for bad in (np.zeros((2, 4, 4, 4)), np.zeros((4, 4, 4))):
        with pytest.raises(ValueError, match=re.escape(str(bad.shape)) + ".*" + re.escape("(3, 4, 4, 4)")):
            extractor.input_gradient(images, bad)


def test_labels_not_matching_the_stack_are_rejected():
    model = MODELS[AnsatzKind.RANDOM]
    images, labels = stack(11, n=3)
    bad = labels[:2]
    message = re.escape("(2,)")
    with pytest.raises(ValueError, match=message):
        model.input_gradient(images, bad)
    with pytest.raises(ValueError, match=message):
        model.loss(images, bad)
    with pytest.raises(ValueError, match=message):
        accuracy(model, images, bad)
    with pytest.raises(ValueError, match=re.escape("(8, 8)")):
        accuracy(model, images[0], labels[:1].repeat(8))  # one (H, W) image with (H,) labels
    spec = make_spec(AttackKind.FGSM, 0.0)
    # its gradient fails on these labels with another message, so the attack helpers must check them first
    source = AffineToyModel(a=np.zeros((10, 1, 1)), b=np.zeros((10, 1, 1)))
    with pytest.raises(ValueError, match=message):
        transfer_attack(source, model, images, bad, spec)
    with pytest.raises(ValueError, match=message):
        make_batch(source, images, bad, spec)
    with pytest.raises(ValueError, match=message):
        evaluate_robustness(model, images, bad, [spec])
