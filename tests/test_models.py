import numpy as np
import pytest

from quanvrob import classical, models, quanv
from quanvrob.ansatz import AnsatzKind, build_ansatz
from quanvrob.attacks import AttackSpec, evaluate_robustness, generate, make_batch, make_spec, transfer_attack
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


@pytest.mark.parametrize("labels", [[1.5, 2.0], [np.nan, 3], [11, 12], [-1, 3], [True, False]], ids=str)
def test_stack_evaluations_reject_labels_the_gradient_rejects(labels):
    model = make_cnn_model(seed=5)
    images = np.random.default_rng(5).random((2, 8, 8))
    labels = np.array(labels)
    spec = make_spec("fgsm", 0.1)
    for call in (
        lambda: model.loss_and_input_gradient(images, labels),
        lambda: accuracy(model, images, labels),
        lambda: evaluate_robustness(model, images, labels, [make_spec("fgsm", 0.0)]),
        lambda: transfer_attack(model, model, images, labels, spec),
        lambda: make_batch(model, images, labels, spec),
    ):
        with pytest.raises(ValueError, match="labels must be integers in 0..9"):
            call()


# ---------------------------------------------------------------------------
# Gradient memo
# ---------------------------------------------------------------------------


class CountingExtractor:
    """An extractor that counts the calls that reach it."""

    def __init__(self, inner):
        self.inner = inner
        self.kind = inner.kind
        self.seed = inner.seed
        self.forwards = self.gradients = 0

    @property
    def fingerprint(self):
        return self.inner.fingerprint

    def forward(self, image):
        self.forwards += 1
        return self.inner.forward(image)

    def input_gradient(self, image, upstream):
        self.gradients += 1
        return self.inner.input_gradient(image, upstream)


def counted(model):
    return Model(CountingExtractor(model.extractor), model.head)


def cold(model, image, label):
    """The answer of a model with an empty memo, on the same extractor and head."""
    return Model(model.extractor, model.head).loss_and_input_gradient(image, label)


def same(a, b):
    return all(np.asarray(x).tobytes() == np.asarray(y).tobytes() and np.shape(x) == np.shape(y) for x, y in zip(a, b))


def memo_cases():
    rng = np.random.default_rng(21)
    image, images = rng.random((8, 8)), rng.random((3, 8, 8))
    for model in (make_qunn_model(seed=21), make_cnn_model(seed=21)):
        yield model, image, 4
        yield model, images, np.array([1, 7, 7])


@pytest.mark.parametrize("case", range(4))
def test_memo_hit_is_bitwise_a_cold_call(case):
    model, image, label = list(memo_cases())[case]
    model = counted(model)
    first = model.loss_and_input_gradient(image, label)
    again = model.loss_and_input_gradient(image.copy(), np.array(label))
    assert (model.extractor.forwards, model.extractor.gradients) == (1, 1)
    assert isinstance(again[0], float) == (image.ndim == 2)
    assert same(first, again) and same(again, cold(model, image, label))
    assert np.array_equal(model.input_gradient(image, label), again[1])


def test_pgd_at_zero_epsilon_reaches_the_extractor_gradient_once():
    model = counted(make_qunn_model(seed=22))
    image = np.random.default_rng(22).random((2, 8, 8))
    adversarial = generate(model, image, np.array([3, 5]), AttackSpec("pgd", 0.0, iterations=5))
    assert np.array_equal(adversarial, image)
    assert model.extractor.gradients == 1


@pytest.mark.parametrize("family", ["qunn", "cnn"])
def test_pgd_then_mim_curves_reach_the_extractor_gradient_4i_minus_3_times(family):
    """The benchmark's whitebox pattern on one stack: PGD then MIM curves over epsilons (0, a, b).

    The clean stack is computed once, by PGD's first gradient at 0.  Every
    later gradient at it is served: PGD's other steps at 0 and its first
    step at a from the computed entry, then, once a's iterates have
    displaced that entry, its first step at b and all of MIM at 0, a and b
    from the served one.  Only the I - 1 new iterates of the four curves at
    a and b are computed: 1 + 4 (I - 1).
    """
    rng = np.random.default_rng(27)
    images, labels = rng.random((3, 8, 8)), np.array([6, 1, 8])
    model = counted(make_qunn_model(seed=27) if family == "qunn" else make_cnn_model(seed=27))
    iterations = 4
    for kind in ("pgd", "mim"):
        evaluate_robustness(model, images, labels, [make_spec(kind, eps, iterations) for eps in (0.0, 0.1, 0.2)])
    assert model.extractor.gradients == 4 * iterations - 3


class RebuiltModel:
    """A model that answers every gradient from a new ``Model`` on an empty quanv encoding memo."""

    def __init__(self, model):
        self.model = model
        self.kind = model.kind
        self.fingerprint = model.fingerprint

    def input_gradient(self, image, label):
        quanv.clear_memo()
        return Model(self.model.extractor, self.model.head).input_gradient(image, label)

    def predict_label(self, image):
        quanv.clear_memo()
        return self.model.predict_label(image)


def test_a_whitebox_grid_through_the_memo_is_bitwise_a_cold_grid():
    """PGD and MIM curves on the five layouts and the cnn, with pixels at 0 and 1 beside grey ones."""
    rng = np.random.default_rng(28)
    images = rng.random((3, 8, 8))
    images[:, :2] = 0.0
    images[:, -2:] = 1.0
    images[1, 3, ::2] = 0.0
    labels = np.array([5, 0, 2])
    grid = [make_qunn_model(kind, seed=28) for kind in AnsatzKind] + [make_cnn_model(seed=28)]
    for model in grid:
        for kind in ("pgd", "mim"):
            specs = [make_spec(kind, eps, iterations=3) for eps in (0.0, 0.1, 0.2)]
            assert evaluate_robustness(model, images, labels, specs) == evaluate_robustness(
                RebuiltModel(model), images, labels, specs
            )
            for spec in specs:
                warm = generate(model, images, labels, spec)
                assert warm.tobytes() == generate(RebuiltModel(model), images, labels, spec).tobytes()


def test_one_sources_transfer_grid_reaches_its_gradient_once():
    """Its FGSM curve, its crafts against 6 targets and its batch all start from the clean stack."""
    rng = np.random.default_rng(23)
    images, labels = rng.random((3, 8, 8)), np.array([2, 0, 9])
    source = counted(make_qunn_model(seed=23))
    targets = [source] + [make_qunn_model(kind, seed=24) for kind in list(AnsatzKind)[:4]] + [make_cnn_model(seed=24)]
    evaluate_robustness(source, images, labels, [make_spec("fgsm", eps) for eps in (0.0, 0.1, 0.2)])
    for target in targets:
        transfer_attack(source, target, images, labels, make_spec("fgsm", 0.1))
    make_batch(source, images, labels, make_spec("fgsm", 0.1))
    assert source.extractor.gradients == 1


def test_memo_recomputes_after_any_input_changes_in_place():
    rng = np.random.default_rng(25)
    for model, image, label in memo_cases():
        model = counted(Model(model.extractor, classical.DenseHead(model.head.weights.copy(), model.head.bias.copy())))
        image, label = image.copy(), np.array(label)

        def check(recomputed=True):
            before = model.extractor.gradients
            got = model.loss_and_input_gradient(image, label)
            assert model.extractor.gradients == before + recomputed
            assert same(got, cold(model, image, label))

        check()
        check(recomputed=False)
        image[..., 0, 1] = 0.5 * image[..., 0, 1]
        check()
        label[...] = (label + 1) % 10
        check()
        model.head.weights[rng.integers(10), rng.integers(model.head.weights.shape[1])] += 0.5
        check()
        model.head.bias[rng.integers(10)] -= 0.5
        check()
        model.head = build_dense_head(26, in_dim=model.head.weights.shape[1])
        check()
        model.extractor = CountingExtractor(model.extractor.inner)
        check()
        check(recomputed=False)
        # the served entry holds this stack; compute another, then change this one in place
        other = 0.5 * image
        other_label = (label + 3) % 10
        model.loss_and_input_gradient(other, other_label)
        check(recomputed=False)
        image[..., 1, 0] = 1.0 - image[..., 1, 0]
        check()
        check(recomputed=False)


def test_writing_into_a_result_leaves_the_next_call_alone():
    for model, image, label in memo_cases():
        expected = cold(model, image, label)
        for _ in range(3):  # a cold call, then two hits
            loss, grad = model.loss_and_input_gradient(image, label)
            assert same((loss, grad), expected)
            grad[...] = 7.0
            if isinstance(loss, np.ndarray):
                loss[...] = 7.0


def test_a_bad_label_after_a_good_call_still_raises():
    for model, image, label in memo_cases():
        model.loss_and_input_gradient(image, label)
        bad = 10 if image.ndim == 2 else np.array([1, 10, 7])
        for wrong in (bad, -1 if image.ndim == 2 else np.array([1, 7]), 4.0 if image.ndim == 2 else label + 0.0):
            with pytest.raises((ValueError, IndexError)):
                model.loss_and_input_gradient(image, wrong)
        # and the memo still answers the good call
        assert same(model.loss_and_input_gradient(image, label), cold(model, image, label))
