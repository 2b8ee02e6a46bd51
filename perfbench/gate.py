"""Correctness gate and output checks, run before and during timing.

The quanv oracle is built only from the ``qsim`` primitives ``init_zero``,
``ry``, ``run_program`` and ``measure_z``: every patch is simulated gate by
gate from |0000>, and its input gradient comes from the benchmark's own
two-term shift of each encoding angle.  It shares no code with the fast path
in ``quanv`` (no ``encode_patch``, no ``qsim.shift_derivative``).  The
convolution is checked against an explicit per-patch loop, and the
convolution, head and whole-model gradients against central finite
differences.

Every check is one attempted operation in a :class:`Ledger`; every mismatch,
exception, non-finite loss or gradient, adversarial outside its epsilon ball
or outside [0, 1], and file round trip that does not return exactly what was
written is one failure.  A run with any failure exits non-zero.
"""

from __future__ import annotations

import math

import numpy as np

from quanvrob import attacks, classical
from quanvrob.qsim import init_zero, measure_z, run_program, ry

FORWARD_TOL = 1e-9  # oracle and fast path agree to ~1e-15
GRADIENT_TOL = 1e-8
FD_STEP = 1e-6
FD_TOL = 1e-6  # relative to 1 + |analytic|
BALL_TOL = 1e-12  # projection rounding, as in AdversarialBatch
N_QUBITS = 4


class Ledger:
    """Attempted operations, failures and the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.nonfinite_losses = 0
        self.messages: list[str] = []

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(what)

    def expect(self, ok: bool, what: str) -> None:
        """One checked operation; ``what`` describes the failure."""
        self.attempt()
        if not ok:
            self.fail(what)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _readout(gates, angles) -> np.ndarray:
    encoding = [ry(q, float(a)) for q, a in enumerate(angles)]
    state = run_program(init_zero(N_QUBITS), encoding + list(gates))
    return np.array([measure_z(state, k) for k in range(N_QUBITS)])


def oracle_patch(ansatz, pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<Z_k> for one 2x2 patch (row-major pixels) and d<Z_k>/d pixel_q as (q, k)."""
    theta = np.pi * np.asarray(pixels, dtype=float)
    z = _readout(ansatz.gates, theta)
    dz = np.empty((N_QUBITS, N_QUBITS))
    for q in range(N_QUBITS):
        plus, minus = theta.copy(), theta.copy()
        plus[q] += np.pi / 2
        minus[q] -= np.pi / 2
        # Ry(t) = exp(-i t Y / 2): d<Z>/dt = (f(t + pi/2) - f(t - pi/2)) / 2, and dt/dp = pi
        dz[q] = np.pi * 0.5 * (_readout(ansatz.gates, plus) - _readout(ansatz.gates, minus))
    return z, dz


def _patch(image: np.ndarray, i: int, j: int) -> np.ndarray:
    return image[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].reshape(-1)


def check_quanv(extractor, ansatz, image, upstream, patches, ledger: Ledger) -> None:
    """Forward pass and input gradient of a quanv extractor against the oracle on ``patches``."""
    fmap = np.asarray(extractor.forward(image))
    grad = np.asarray(extractor.input_gradient(image, upstream))
    forward_err = grad_err = math.inf
    if fmap.shape == upstream.shape and grad.shape == image.shape:
        forward_errs, grad_errs = [], []
        for i, j in patches:
            z, dz = oracle_patch(ansatz, _patch(image, i, j))
            forward_errs.append(np.max(np.abs(fmap[i, j] - z)))
            grad_errs.append(np.max(np.abs(_patch(grad, i, j) - dz @ upstream[i, j])))
        forward_err, grad_err = _worst(forward_errs), _worst(grad_errs)
    ledger.expect(forward_err <= FORWARD_TOL, f"{extractor.kind} forward off the oracle by {forward_err:.3g}")
    ledger.expect(grad_err <= GRADIENT_TOL, f"{extractor.kind} input gradient off the oracle by {grad_err:.3g}")


def check_conv(extractor, image, upstream, pixels, ledger: Ledger) -> None:
    """Convolution forward against a per-patch loop; its input gradient against central differences."""
    layer = extractor.layer
    hp, wp = image.shape[0] // 2, image.shape[1] // 2
    expected_pre = np.empty((hp, wp, layer.kernels.shape[0]))
    for i in range(hp):
        for j in range(wp):
            block = image[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            for f in range(layer.kernels.shape[0]):
                expected_pre[i, j, f] = np.sum(layer.kernels[f] * block) + layer.bias[f]
    expected = np.maximum(expected_pre, 0.0)
    fmap = np.asarray(extractor.forward(image))
    err = _worst(np.abs(fmap - expected)) if fmap.shape == expected.shape else math.inf
    ledger.expect(err <= FORWARD_TOL, f"cnn forward off the loop reference by {err:.3g}")

    grad = np.asarray(extractor.input_gradient(image, upstream))
    worst = math.inf
    if grad.shape == image.shape:
        # skip pixels whose patch has a ReLU kink within reach of the step:
        # differences are not the derivative there
        pixels = [(r, c) for r, c in pixels if np.min(np.abs(expected_pre[r // 2, c // 2])) >= 1e-3]
        worst = _worst(
            [
                _relative(_central_difference(lambda x: np.sum(upstream * extractor.forward(x)), image, r, c), grad[r, c])
                for r, c in pixels
            ]
        )
    ledger.expect(worst <= FD_TOL, f"cnn input gradient off central differences by {worst:.3g}")


def _central_difference(fn, x: np.ndarray, *index) -> float:
    bumped = x.copy()
    bumped[index] = x[index] + FD_STEP
    plus = fn(bumped)
    bumped[index] = x[index] - FD_STEP
    minus = fn(bumped)
    return float(plus - minus) / (2 * FD_STEP)


def _relative(numeric: float, analytic: float) -> float:
    return abs(numeric - analytic) / (1.0 + abs(analytic))


def _worst(errors) -> float:
    """The largest error, or NaN if any is NaN, so that NaN fails every tolerance."""
    return float(np.max(errors, initial=0.0))


def check_head(head, features, label, rng, ledger: Ledger, samples: int = 12) -> None:
    """``loss_and_grads`` against central differences of -log softmax(W f + b)[label]."""
    flat = np.asarray(features, dtype=float).reshape(-1)

    def loss(weights, bias, feats):
        probs = classical.dense_forward(feats, classical.DenseHead(weights, bias))
        return float(-np.log(probs[label]))

    probs = classical.dense_forward(flat, head)
    _, d_w, d_b, d_f = classical.loss_and_grads(head, probs, label, flat)
    errors = []
    for r, c in zip(rng.integers(head.weights.shape[0], size=samples), rng.integers(flat.size, size=samples)):
        errors.append(_relative(_central_difference(lambda w: loss(w, head.bias, flat), head.weights, r, c), d_w[r, c]))
    for r in range(head.bias.size):
        errors.append(_relative(_central_difference(lambda b: loss(head.weights, b, flat), head.bias, r), d_b[r]))
    for k in rng.integers(flat.size, size=samples):
        errors.append(_relative(_central_difference(lambda f: loss(head.weights, head.bias, f), flat, k), d_f[k]))
    worst = _worst(errors)
    ledger.expect(worst <= FD_TOL, f"head gradients off central differences by {worst:.3g}")


def check_model_gradient(model, image, label, pixels, ledger: Ledger) -> None:
    """The composed model's input gradient against central differences of its loss."""
    grad = np.asarray(model.input_gradient(image, label))
    worst = math.inf
    if grad.shape == image.shape:
        worst = _worst(
            [_relative(_central_difference(lambda x: model.loss(x, label), image, r, c), grad[r, c]) for r, c in pixels]
        )
    ledger.expect(worst <= FD_TOL, f"{model.kind} model gradient off central differences by {worst:.3g}")


# ---------------------------------------------------------------------------
# Output checks used while timing
# ---------------------------------------------------------------------------


def adversarial_ok(original, adversarial, epsilon: float) -> bool:
    """Finite, inside [0, 1] and inside the L-infinity ball of radius epsilon."""
    adv = np.asarray(adversarial)
    if adv.shape != np.shape(original) or adv.size == 0:
        return False
    # comparisons are written so that NaN fails them
    return bool(
        adv.min() >= 0.0
        and adv.max() <= 1.0
        and np.max(np.abs(adv - original)) <= epsilon + BALL_TOL
    )


def checked_generate(generate, ledger: Ledger):
    """``attacks.generate`` that records every adversarial outside its ball or [0, 1]."""

    def checked(model, image, label, spec):
        adv = generate(model, image, label, spec)
        if not adversarial_ok(image, adv, spec.epsilon):
            ledger.fail(f"{spec.kind} eps={spec.epsilon} adversarial outside the ball or [0, 1]")
        return adv

    return checked


class CheckedModel:
    """The model as the attacks see it: flags non-finite gradients and scored inputs outside [0, 1].

    The FGSM curve in ``evaluate_robustness`` builds its adversarials inline,
    so this is where they can be seen; their epsilon ball is checked by the
    gate through ``attacks.fgsm``.  Only the methods the library calls today
    are exposed, so a new call path fails loudly instead of going unchecked.
    """

    def __init__(self, model, ledger: Ledger):
        self.model = model
        self.kind = model.kind
        self.fingerprint = model.fingerprint
        self._ledger = ledger

    def input_gradient(self, image, label):
        grad = self.model.input_gradient(image, label)
        if not math.isfinite(float(np.sum(grad))):
            self._ledger.fail(f"{self.kind} non-finite input gradient")
        return grad

    def predict_label(self, image):
        if not (image.min() >= 0.0 and image.max() <= 1.0):
            self._ledger.fail(f"{self.kind} scored an input outside [0, 1]")
        return self.model.predict_label(image)


def check_attacks(model, image, label, epsilon: float, ledger: Ledger) -> None:
    """One adversarial of each kind at ``epsilon``, checked for its ball and [0, 1]."""
    for kind in attacks.AttackKind.ALL:
        spec = attacks.make_spec(kind, epsilon)
        adv = attacks.generate(model, image, label, spec)
        ledger.expect(adversarial_ok(image, adv, epsilon), f"{model.kind} {kind} adversarial outside the ball")


def same_arrays(a, b) -> bool:
    """Same shape and exactly the same values (NaN never equals)."""
    return bool(np.array_equal(a, b))
