import re
from dataclasses import asdict

import numpy as np
import pytest

from quanvrob.ansatz import AnsatzKind
from quanvrob.attacks import (
    AdversarialBatch,
    AttackKind,
    AttackSpec,
    _project,
    evaluate_robustness,
    generate,
    load_batch,
    make_batch,
    make_spec,
    save_batch,
    transfer_attack,
)
from quanvrob import container
from quanvrob.classical import save_checkpoint
from quanvrob.qsim import GateKind

from test_container import rewrite_header
from test_models import make_cnn_model, make_qunn_model


class LinearToyModel:
    """J(x, y) = sum(c * x): constant gradient, hand-computable attacks."""

    kind = "toy_linear"
    fingerprint = "toy-linear"

    def __init__(self, coefficients):
        self.c = np.asarray(coefficients, dtype=float)

    def loss(self, image, label):
        return float(np.sum(self.c * image))

    def input_gradient(self, image, label):
        return self.c.copy()

    def predict_label(self, image):
        return 0


class QuadraticToyModel:
    """J(x, y) = sum(a*x + b*x^2): gradient varies with x, so momentum matters."""

    kind = "toy_quadratic"
    fingerprint = "toy-quadratic"

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)

    def loss(self, image, label):
        return float(np.sum(self.a * image + self.b * image**2))

    def input_gradient(self, image, label):
        return self.a + 2.0 * self.b * image


EPS_GRID = [round(0.025 * k, 3) for k in range(13)]  # 0 .. 0.3


# ---------------------------------------------------------------------------
# fgsm
# ---------------------------------------------------------------------------


def test_fgsm_zero_epsilon_is_identity():
    model = LinearToyModel([[1.0, -2.0]])
    image = np.array([[0.3, 0.6]])
    adv = generate(model, image, 0, AttackSpec(AttackKind.FGSM, 0.0))
    assert np.array_equal(adv, image)


def test_fgsm_respects_linf_budget():
    rng = np.random.default_rng(0)
    model = make_cnn_model(seed=0)
    for eps in (0.05, 0.1, 0.3):
        image = rng.random((8, 8))
        adv = generate(model, image, 3, AttackSpec(AttackKind.FGSM, eps))
        assert np.max(np.abs(adv - image)) <= eps + 1e-12
        assert np.min(adv) >= 0.0 and np.max(adv) <= 1.0


def test_fgsm_two_pixel_hand_computation():
    # gradient (2, -3): pixel 0 moves up by eps, pixel 1 moves down,
    # clipped into [0, 1]
    model = LinearToyModel([[2.0, -3.0]])
    image = np.array([[0.5, 0.05]])
    adv = generate(model, image, 0, AttackSpec(AttackKind.FGSM, 0.1))
    assert np.allclose(adv, [[0.6, 0.0]])
    assert adv[0, 1] == 0.0  # clipped at the lower bound


def test_fgsm_sign_of_zero_gradient_is_zero():
    model = LinearToyModel([[0.0, 1.0]])
    image = np.array([[0.4, 0.4]])
    adv = generate(model, image, 0, AttackSpec(AttackKind.FGSM, 0.2))
    assert adv[0, 0] == 0.4
    assert adv[0, 1] == pytest.approx(0.6)


@pytest.mark.parametrize("fill", [0.0, 1.0])
def test_fgsm_leaves_dead_pixels_exactly_unmoved(fill):
    """In ``random`` a qubit given rx or rz reads const * cos(theta), whose derivative vanishes at pixels 0 and 1.

    The gradient there is exactly 0, not rounding residue, so sign() gives 0 and FGSM does not move the pixel.
    """
    image = np.full((8, 8), fill)
    upstream = np.random.default_rng(3).normal(size=(4, 4, 4))
    for seed in range(3):
        model = make_qunn_model(AnsatzKind.RANDOM, seed=seed)
        dead = np.zeros((2, 2), dtype=bool)  # by pixel of a patch, row-major, as the qubits
        for gate in model.extractor.ansatz.gates[:4]:
            dead.flat[gate.targets[0]] = gate.kind in (GateKind.RX, GateKind.RZ)
        assert dead.any()
        dead = np.tile(dead, (4, 4))
        assert np.all(model.extractor.input_gradient(image, upstream)[dead] == 0.0)
        assert np.all(model.input_gradient(image, 3)[dead] == 0.0)
        adversarial = generate(model, image, 3, AttackSpec(AttackKind.FGSM, 0.1))
        assert np.all(adversarial[dead] == fill)


# ---------------------------------------------------------------------------
# pgd
# ---------------------------------------------------------------------------


def test_pgd_single_full_step_equals_fgsm():
    """One step of size eps is FGSM, and FGSM is clip(x + eps * sign(grad), 0, 1), bitwise.

    The FGSM curve in ``evaluate_robustness`` relies on the second identity to
    share one clean gradient across its grid.
    """
    rng = np.random.default_rng(1)
    images = rng.random((5, 8, 8))
    images[:, ::3] = np.round(images[:, ::3])  # exact 0/1 pixels beside grey ones
    labels = rng.integers(0, 10, size=5)
    for model in [make_qunn_model(kind, seed=1) for kind in AnsatzKind] + [make_cnn_model(seed=1)]:
        signs = np.sign(model.input_gradient(images, labels))
        for eps in EPS_GRID:
            via_fgsm = generate(model, images, labels, AttackSpec(AttackKind.FGSM, eps))
            assert via_fgsm.tobytes() == np.clip(images + eps * signs, 0.0, 1.0).tobytes()
            via_pgd = generate(model, images, labels, AttackSpec(AttackKind.PGD, eps, step_size=eps, iterations=1))
            assert via_pgd.tobytes() == via_fgsm.tobytes()


def test_projected_full_step_is_a_clip():
    """_project(x + eps * s, x, eps) == clip(x + eps * s, 0, 1) for any pixel x in [0, 1] and sign s."""
    rng = np.random.default_rng(14)
    pixels = np.concatenate(
        [
            rng.random(50_000),
            rng.random(25_000) * 1e-3,  # near 0
            1.0 - rng.random(25_000) * 1e-3,  # near 1
            rng.integers(0, 256, 25_000) / 255,  # an 8-bit grid, exact 0 and 1 included
        ]
    )
    signs = rng.choice([-1.0, 0.0, 1.0], size=pixels.shape)
    for eps in EPS_GRID + list(np.linspace(0.001, 0.299, 16)):
        stepped = pixels + eps * signs
        assert _project(stepped, pixels, eps).tobytes() == np.clip(stepped, 0.0, 1.0).tobytes()


def test_pgd_zero_epsilon_is_identity():
    model = LinearToyModel([[1.0, 1.0]])
    image = np.array([[0.2, 0.9]])
    adv = generate(model, image, 0, AttackSpec(AttackKind.PGD, 0.0, step_size=0.0, iterations=7))
    assert np.array_equal(adv, image)


def test_pgd_monotone_loss_on_linear_model():
    model = LinearToyModel([[1.5, -0.7, 0.2, -2.0]])
    image = np.array([[0.5, 0.5, 0.5, 0.5]])
    spec = AttackSpec(AttackKind.PGD, 0.2, step_size=0.05, iterations=8)
    x = image.copy()
    losses = [model.loss(x, 0)]
    for _ in range(spec.iterations):
        step = AttackSpec(AttackKind.PGD, spec.epsilon, step_size=spec.step_size, iterations=1)
        x = generate(model, x, 0, step)
        x = np.clip(image + np.clip(x - image, -spec.epsilon, spec.epsilon), 0, 1)
        losses.append(model.loss(x, 0))
    assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))


def test_pgd_respects_budget():
    rng = np.random.default_rng(2)
    model = make_cnn_model(seed=2)
    image = rng.random((8, 8))
    spec = make_spec(AttackKind.PGD, 0.1)
    adv = generate(model, image, 5, spec)
    assert np.max(np.abs(adv - image)) <= 0.1 + 1e-12
    assert np.min(adv) >= 0.0 and np.max(adv) <= 1.0


# ---------------------------------------------------------------------------
# mim
# ---------------------------------------------------------------------------


def test_mim_without_momentum_equals_pgd():
    rng = np.random.default_rng(3)
    model = make_qunn_model(seed=3)
    for _ in range(5):
        image = rng.random((8, 8))
        eps, alpha, iters = 0.12, 0.03, 6
        via_mim = generate(
            model, image, 1,
            AttackSpec(AttackKind.MIM, eps, step_size=alpha, iterations=iters, momentum=0.0),
        )
        via_pgd = generate(
            model, image, 1, AttackSpec(AttackKind.PGD, eps, step_size=alpha, iterations=iters)
        )
        assert np.array_equal(via_mim, via_pgd)


def test_mim_zero_epsilon_is_identity():
    model = LinearToyModel([[1.0, 1.0]])
    image = np.array([[0.2, 0.9]])
    adv = generate(
        model, image, 0,
        AttackSpec(AttackKind.MIM, 0.0, step_size=0.0, iterations=3, momentum=1.0),
    )
    assert np.array_equal(adv, image)


def test_mim_two_step_hand_trace():
    a = np.array([[0.6, -0.2]])
    b = np.array([[-1.0, 0.8]])
    model = QuadraticToyModel(a, b)
    x0 = np.array([[0.4, 0.5]])
    eps, alpha, mu = 0.2, 0.07, 1.0

    # hand trace with explicit floats
    g0 = np.zeros_like(x0)
    grad1 = a + 2 * b * x0
    g1 = mu * g0 + grad1 / np.sum(np.abs(grad1))
    x1 = np.clip(x0 + np.clip(x0 + alpha * np.sign(g1) - x0, -eps, eps), 0, 1)
    grad2 = a + 2 * b * x1
    g2 = mu * g1 + grad2 / np.sum(np.abs(grad2))
    x2 = np.clip(x0 + np.clip(x1 + alpha * np.sign(g2) - x0, -eps, eps), 0, 1)

    adv = generate(
        model, x0, 0,
        AttackSpec(AttackKind.MIM, eps, step_size=alpha, iterations=2, momentum=mu),
    )
    assert np.allclose(adv, x2, atol=1e-12)


def test_mim_skips_normalization_for_zero_gradient():
    model = LinearToyModel([[0.0, 0.0]])
    image = np.array([[0.5, 0.5]])
    adv = generate(
        model, image, 0,
        AttackSpec(AttackKind.MIM, 0.2, step_size=0.05, iterations=4, momentum=1.0),
    )
    assert np.array_equal(adv, image)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec("nope", 0.1)
    with pytest.raises(ValueError):
        AttackSpec(AttackKind.FGSM, -0.1)
    with pytest.raises(ValueError):
        AttackSpec(AttackKind.PGD, 0.1)
    with pytest.raises(ValueError):
        AttackSpec(AttackKind.MIM, 0.1, step_size=0.02, iterations=0, momentum=1.0)
    with pytest.raises(ValueError):
        AttackSpec(AttackKind.MIM, 0.1, step_size=0.02, iterations=3)


@pytest.mark.parametrize("field", ["epsilon", "step_size", "momentum"])
def test_spec_rejects_a_nan_field(field):
    fields = dict(kind=AttackKind.MIM, epsilon=0.1, step_size=0.02, iterations=3, momentum=1.0)
    AttackSpec(**{**fields, field: np.inf})  # an infinity is allowed
    with pytest.raises(ValueError, match="non-negative"):
        AttackSpec(**{**fields, field: np.nan})


# ---------------------------------------------------------------------------
# evaluate_robustness / transfer_attack
# ---------------------------------------------------------------------------


def grid(kind, epsilons=(0.0, 0.1, 0.2)):
    return [make_spec(kind, e) for e in epsilons]


def test_curve_starts_at_clean_accuracy():
    rng = np.random.default_rng(5)
    model = make_cnn_model(seed=5)
    images = rng.random((8, 8, 8))
    labels = rng.integers(0, 10, size=8)
    curve = evaluate_robustness(model, images, labels, grid(AttackKind.FGSM))
    clean = sum(model.predict_label(i) == int(l) for i, l in zip(images, labels)) / 8
    assert curve.points[0] == (0.0, clean)
    assert all(0.0 <= acc <= 1.0 for _, acc in curve.points)


def test_fgsm_fast_path_matches_per_image_generation():
    rng = np.random.default_rng(6)
    model = make_qunn_model(seed=6)
    images = rng.random((5, 8, 8))
    labels = rng.integers(0, 10, size=5)
    curve = evaluate_robustness(model, images, labels, grid(AttackKind.FGSM))
    for eps, acc in curve.points:
        spec = make_spec(AttackKind.FGSM, eps)
        hits = sum(
            model.predict_label(generate(model, img, int(lbl), spec)) == int(lbl)
            for img, lbl in zip(images, labels)
        )
        assert acc == hits / 5


def test_evaluate_robustness_validates_grid():
    model = make_cnn_model(seed=7)
    images = np.zeros((2, 8, 8))
    labels = np.zeros(2, dtype=int)
    with pytest.raises(ValueError):
        evaluate_robustness(model, images, labels, [])
    with pytest.raises(ValueError):
        evaluate_robustness(model, images, labels, grid(AttackKind.FGSM, (0.1, 0.2)))
    with pytest.raises(ValueError):
        evaluate_robustness(model, images, labels, grid(AttackKind.FGSM, (0.0, 0.2, 0.2)))
    with pytest.raises(ValueError):
        evaluate_robustness(
            model, images, labels, [make_spec(AttackKind.FGSM, 0.0), make_spec(AttackKind.PGD, 0.1)]
        )
    with pytest.raises(ValueError):
        evaluate_robustness(model, np.zeros((0, 8, 8)), np.zeros(0), grid(AttackKind.FGSM))


def test_transfer_to_self_matches_whitebox():
    rng = np.random.default_rng(8)
    model = make_cnn_model(seed=8)
    images = rng.random((6, 8, 8))
    labels = rng.integers(0, 10, size=6)
    spec = make_spec(AttackKind.FGSM, 0.2)
    transferred = transfer_attack(model, model, images, labels, spec)
    curve = evaluate_robustness(model, images, labels, grid(AttackKind.FGSM, (0.0, 0.2)))
    assert transferred == curve.points[1][1]


def test_transfer_zero_epsilon_is_clean_accuracy():
    rng = np.random.default_rng(9)
    source = make_cnn_model(seed=9)
    target = make_qunn_model(seed=10)
    images = rng.random((6, 8, 8))
    labels = rng.integers(0, 10, size=6)
    clean = sum(target.predict_label(i) == int(l) for i, l in zip(images, labels)) / 6
    assert transfer_attack(source, target, images, labels, make_spec(AttackKind.FGSM, 0.0)) == clean


class RefusingModel:
    """A model that fails the test if an attack reaches it."""

    kind = "refusing"
    fingerprint = "refusing"

    def input_gradient(self, image, label):
        raise AssertionError("the attack called the model")

    predict_label = loss = input_gradient


@pytest.mark.parametrize("bad", [1.5, -0.25, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", AttackKind.ALL)
def test_attacks_reject_starting_pixels_outside_the_unit_range_before_any_gradient(kind, bad):
    model = RefusingModel()
    images = np.random.default_rng(12).random((3, 8, 8))
    images[1, 4, 5] = bad
    labels = np.array([1, 2, 3])
    message = "finite and lie in \\[0, 1\\]"
    with pytest.raises(ValueError, match=message):
        generate(model, images, labels, make_spec(kind, 0.1))
    with pytest.raises(ValueError, match=message):
        generate(model, images[1], 2, make_spec(kind, 0.0))
    with pytest.raises(ValueError, match=message):
        evaluate_robustness(model, images, labels, grid(kind))
    with pytest.raises(ValueError, match=message):
        transfer_attack(model, model, images, labels, make_spec(kind, 0.1))
    with pytest.raises(ValueError, match=message):
        make_batch(model, images, labels, make_spec(kind, 0.1))


def test_a_cnn_attack_rejects_a_pixel_its_extractor_accepts():
    model = make_cnn_model(seed=13)
    image = np.random.default_rng(13).random((8, 8))
    image[0, 0] = 1.5
    model.input_gradient(image, 3)  # the convolution takes any finite pixel
    with pytest.raises(ValueError):
        generate(model, image, 3, make_spec(AttackKind.FGSM, 0.1))


# ---------------------------------------------------------------------------
# adversarial batches
# ---------------------------------------------------------------------------


def test_batch_invariants_enforced():
    originals = np.full((2, 2, 2), 0.5)
    bad = originals + 0.3
    with pytest.raises(ValueError):
        AdversarialBatch(originals, bad, "fp", AttackSpec(AttackKind.FGSM, 0.1))
    with pytest.raises(ValueError):
        AdversarialBatch(originals, originals + 1.0, "fp", AttackSpec(AttackKind.FGSM, 1.5))


@pytest.mark.parametrize("stack", ["original", "adversarial"])
def test_batch_rejects_a_nan_pixel(stack):
    clean = np.full((2, 2, 2), 0.5)
    bad = clean.copy()
    bad[1, 0, 1] = np.nan
    stacks = {"originals": clean, "adversarials": clean, stack + "s": bad}
    with pytest.raises(ValueError, match=f"{stack} pixels must be finite"):
        AdversarialBatch(**stacks, source_fingerprint="fp", spec=AttackSpec(AttackKind.FGSM, 0.1))


def test_load_batch_rejects_nan_adversarials(tmp_path):
    originals = np.full((2, 4, 4), 0.5)
    adversarials = originals.copy()
    adversarials[0, 2, 3] = np.nan
    spec = AttackSpec(AttackKind.FGSM, 0.1)
    path = tmp_path / "batch.advb"
    header = {"spec": asdict(spec), "source_fingerprint": "fp"}
    container.save(path, "adversarial_batch", header, originals=originals, adversarials=adversarials)
    with pytest.raises(ValueError, match="adversarial pixels must be finite"):
        load_batch(path)


def test_batch_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    model = make_cnn_model(seed=11)
    images = rng.random((4, 8, 8))
    labels = rng.integers(0, 10, size=4)
    spec = make_spec(AttackKind.MIM, 0.15)
    batch = make_batch(model, images, labels, spec)
    path = tmp_path / "batch.advb"
    save_batch(path, batch)
    loaded = load_batch(path)
    assert loaded.spec == spec
    assert loaded.source_fingerprint == model.fingerprint
    assert np.array_equal(loaded.originals, batch.originals)
    assert np.array_equal(loaded.adversarials, batch.adversarials)


def test_batch_rejects_truncated_file(tmp_path):
    model = make_cnn_model(seed=12)
    images = np.random.default_rng(12).random((2, 8, 8))
    batch = make_batch(model, images, np.zeros(2, dtype=int), make_spec(AttackKind.FGSM, 0.1))
    path = tmp_path / "batch.advb"
    save_batch(path, batch)
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(ValueError):
        load_batch(path)


def test_batch_rejects_malformed_header(tmp_path):
    model = make_cnn_model(seed=13)
    images = np.random.default_rng(13).random((2, 8, 8))
    batch = make_batch(model, images, np.zeros(2, dtype=int), make_spec(AttackKind.FGSM, 0.1))
    path = tmp_path / "batch.advb"
    save_batch(path, batch)
    rewrite_header(path, lambda header: header.pop("source_fingerprint"))
    with pytest.raises(ValueError, match=re.escape("missing the fields ['source_fingerprint']")):
        load_batch(path)
    save_checkpoint(path, "cnn", 13, model.extractor.fingerprint, model.head)
    with pytest.raises(ValueError, match="kind is 'checkpoint', expected 'adversarial_batch'"):
        load_batch(path)
