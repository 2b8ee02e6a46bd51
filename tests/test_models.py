import numpy as np
import pytest

from quanvrob import classical, models
from quanvrob.ansatz import AnsatzKind, build_ansatz
from quanvrob.classical import ConvExtractor, build_conv_layer, build_dense_head, dense_forward, loss_and_grads
from quanvrob.models import Model, accuracy
from quanvrob.quanv import QuanvExtractor


def make_cnn_model(seed=0, side=8):
    extractor = ConvExtractor(build_conv_layer(seed))
    in_dim = (side // 2) ** 2 * 4
    return Model(extractor, build_dense_head(seed + 1, in_dim=in_dim))


def make_qunn_model(kind=AnsatzKind.ZZ_FULL, seed=0, side=8):
    extractor = QuanvExtractor(build_ansatz(kind, 4, seed))
    in_dim = (side // 2) ** 2 * 4
    return Model(extractor, build_dense_head(seed + 1, in_dim=in_dim))


def numeric_input_gradient(model, image, label, pixels, h=1e-5):
    out = {}
    for i, j in pixels:
        bumped = image.copy()
        bumped[i, j] = image[i, j] + h
        plus = model.loss(bumped, label)
        bumped[i, j] = image[i, j] - h
        minus = model.loss(bumped, label)
        out[(i, j)] = (plus - minus) / (2 * h)
    return out


@pytest.mark.parametrize("family", ["cnn", "qunn"])
def test_input_gradient_matches_finite_difference(family):
    rng = np.random.default_rng(99 if family == "cnn" else 101)
    for case in range(8):
        side = 6
        image = 0.2 + 0.6 * rng.random((side, side))
        label = int(rng.integers(10))
        if family == "cnn":
            extractor = ConvExtractor(build_conv_layer(int(rng.integers(1000))))
        else:
            kind = list(AnsatzKind)[case % 5]
            extractor = QuanvExtractor(build_ansatz(kind, 4, int(rng.integers(1000))))
        model = Model(extractor, build_dense_head(case, in_dim=(side // 2) ** 2 * 4))
        loss, grad = model.loss_and_input_gradient(image, label)
        assert np.isfinite(loss)
        pixels = [(int(rng.integers(side)), int(rng.integers(side))) for _ in range(5)]
        numeric = numeric_input_gradient(model, image, label, pixels)
        for (i, j), value in numeric.items():
            assert grad[i, j] == pytest.approx(value, abs=1e-5)


def test_model_gradient_forms_no_head_weight_gradient(monkeypatch):
    """The pixels need only the features' gradient, so a model gradient never calls loss_and_grads."""

    def refuse(*args, **kwargs):
        raise AssertionError("loss_and_grads called for a model gradient")

    rng = np.random.default_rng(5)
    for model in (make_qunn_model(seed=5), make_cnn_model(seed=5)):
        for image, label in ((rng.random((8, 8)), 3), (rng.random((4, 8, 8)), np.array([0, 3, 9, 3]))):
            fmap = model.extractor.forward(image)
            loss, _, _, d_features = loss_and_grads(model.head, dense_forward(fmap, model.head), label, fmap)
            grad = model.extractor.input_gradient(image, d_features.reshape(fmap.shape))
            with monkeypatch.context() as patch:
                for module in (models, classical):
                    patch.setattr(module, "loss_and_grads", refuse)
                got = model.loss_and_input_gradient(image, label)
            assert np.array_equal(got[0], loss) and np.array_equal(got[1], grad)


def test_probabilities_are_normalized():
    model = make_qunn_model()
    probs = model.predict_probs(np.random.default_rng(1).random((8, 8)))
    assert probs.shape == (10,)
    assert np.sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_predict_label_is_argmax():
    model = make_cnn_model()
    image = np.random.default_rng(2).random((8, 8))
    assert model.predict_label(image) == int(np.argmax(model.predict_probs(image)))


def test_fingerprint_changes_with_head():
    model = make_cnn_model(seed=3)
    other = Model(model.extractor, build_dense_head(77, in_dim=model.head.weights.shape[1]))
    assert model.fingerprint != other.fingerprint


def test_accuracy_bounds_and_empty_rejection():
    rng = np.random.default_rng(4)
    model = make_cnn_model(seed=4)
    images = rng.random((6, 8, 8))
    labels = rng.integers(0, 10, size=6)
    acc = accuracy(model, images, labels)
    assert 0.0 <= acc <= 1.0
    with pytest.raises(ValueError):
        accuracy(model, np.zeros((0, 8, 8)), np.zeros(0))
