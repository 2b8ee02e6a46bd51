"""Gradient-sign attacks and robustness/transfer evaluation.

FGSM, PGD and MIM are one white-box attack against any model exposing
``input_gradient``.  From x = x0 it takes ``steps`` steps of

  x <- clip(x0 + clip(x + alpha * sign(d) - x0, -eps, eps), 0, 1)

with sign(0) = 0, so every adversarial stays in the L-infinity ball of
radius eps around x0 and inside [0, 1].  A spec is (kind, eps, iterations),
and the kinds differ only in these:

  fgsm  1 step, alpha = eps, d = grad at x: clip(x0 + eps * sign(grad), 0, 1)
  pgd   ``iterations`` steps of alpha = eps * STEP_RATIO, d = grad at x, no
        random start (Madry et al., arXiv:1706.06083)
  mim   as pgd with d <- MOMENTUM * d + grad / ||grad||_1, a decayed sum of
        L1-normalised gradients (Dong et al., arXiv:1710.06081)

The step ratio and the decay are the module constants below.

Every pixel of the starting image or stack must be finite and in [0, 1];
``generate`` and ``evaluate_robustness`` raise a ValueError before any
gradient otherwise, whatever the model's extractor accepts.  An
``AdversarialBatch`` holds both its stacks to the same rule, so
``load_batch`` rejects a file with a NaN pixel.

An attack takes one (H, W) image with an int label, or an (N, H, W) stack
with (N,) labels, and steps the whole stack at once: one model gradient per
step for all images.  Each image's step depends only on its own gradient;
in mim the L1 norm is taken per image, and an image whose gradient vanishes
adds nothing to its momentum that step.  So a stack gives bitwise the
adversarials of its images one at a time.  The evaluations below make one
attack call per spec (per source and spec in transfer) over the whole stack.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import container
from .models import _accuracy, as_stack

STEP_RATIO = 0.25  # the pgd and mim step size as a fraction of epsilon
MOMENTUM = 1.0  # the mim decay factor


class AttackKind:
    FGSM = "fgsm"
    PGD = "pgd"
    MIM = "mim"

    ALL = (FGSM, PGD, MIM)


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    epsilon: float
    iterations: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in AttackKind.ALL:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        eps = self.epsilon
        # bool is an int; "not >= 0" so that NaN fails, while an infinity passes
        if isinstance(eps, bool) or not isinstance(eps, numbers.Real) or not eps >= 0:
            raise ValueError(f"epsilon must be a non-negative number, got {eps!r}")
        # a Python float, so that the spec serialises to JSON in save_batch
        object.__setattr__(self, "epsilon", float(eps))
        n = self.iterations
        if self.kind == AttackKind.FGSM:
            if n is not None:
                raise ValueError(f"fgsm takes one step, not iterations={n!r}")
            return
        # bool is an int, and a float such as 3.0 would fail late in range()
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"{self.kind} iterations must be an integer of at least 1, got {n!r}")
        object.__setattr__(self, "iterations", int(n))


def make_spec(kind: str, epsilon: float, iterations: int = 10) -> AttackSpec:
    """The spec of ``kind`` at ``epsilon``, with ``iterations`` steps for pgd and mim; fgsm takes one."""
    return AttackSpec(kind, epsilon, None if kind == AttackKind.FGSM else iterations)


def _project(x: np.ndarray, origin: np.ndarray, epsilon: float) -> np.ndarray:
    """clip(origin + clip(x - origin, -eps, eps), 0, 1), in one new buffer."""
    # np.clip, not np.maximum/np.minimum: clip keeps a -0.0 where maximum(-0.0, 0.0) gives +0.0
    out = np.subtract(x, origin)
    np.clip(out, -epsilon, epsilon, out=out)
    out += origin
    return np.clip(out, 0.0, 1.0, out=out)


def _check_pixels(images: np.ndarray, what: str = "attacked") -> None:
    """A ValueError unless every pixel of an image or stack is finite and in [0, 1]."""
    # NaN fails both comparisons, and an infinity fails one
    if images.size and not (images.min() >= 0.0 and images.max() <= 1.0):
        raise ValueError(f"{what} pixels must be finite and lie in [0, 1]")


def generate(model, image: np.ndarray, label, spec: AttackSpec) -> np.ndarray:
    """The adversarial of an image or a stack under ``spec``: one model gradient per step."""
    image = np.asarray(image, dtype=float)
    _check_pixels(image)
    steps = spec.iterations or 1  # an fgsm spec has no iterations
    alpha = spec.epsilon if spec.kind == AttackKind.FGSM else spec.epsilon * STEP_RATIO
    x, g = image, 0.0
    for _ in range(steps):
        direction = model.input_gradient(x, label)
        if spec.kind == AttackKind.MIM:
            l1 = np.sum(np.abs(direction), axis=(-2, -1), keepdims=True)
            # a vanished gradient contributes nothing this step
            normalized = np.divide(direction, l1, out=np.zeros_like(direction), where=l1 > 0)
            direction = g = MOMENTUM * g + normalized
        x = _project(x + alpha * np.sign(direction), image, spec.epsilon)
    return x


# ---------------------------------------------------------------------------
# Robustness and transfer evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RobustnessCurve:
    model_kind: str
    model_fingerprint: str
    attack_kind: str
    points: tuple[tuple[float, float], ...]  # (epsilon, accuracy)


def _check_grid(specs) -> None:
    if not specs:
        raise ValueError("empty attack grid")
    kinds = {s.kind for s in specs}
    if len(kinds) != 1:
        raise ValueError(f"attack grid mixes kinds {sorted(kinds)}")
    epsilons = [s.epsilon for s in specs]
    if epsilons[0] != 0.0 or any(b <= a for a, b in zip(epsilons, epsilons[1:])):
        raise ValueError("attack grid epsilons must start at 0 and increase strictly")


def evaluate_robustness(model, images, labels, specs) -> RobustnessCurve:
    """White-box accuracy-versus-epsilon curve of a model attacked by itself."""
    images, labels = as_stack(images, labels, "evaluate robustness")
    _check_grid(specs)
    kind = specs[0].kind
    if kind == AttackKind.FGSM:
        _check_pixels(images)
        # the gradient is evaluated at the clean input only, so it is shared
        # by every epsilon in the grid; this clip is bitwise generate's one step
        signs = np.sign(model.input_gradient(images, labels))

        def shifted(epsilon):
            adversarial = epsilon * signs
            adversarial += images
            return np.clip(adversarial, 0.0, 1.0, out=adversarial)

        adversarials = (images if s.epsilon == 0 else shifted(s.epsilon) for s in specs)
    else:
        adversarials = (generate(model, images, labels, spec) for spec in specs)
    return RobustnessCurve(
        model_kind=model.kind,
        model_fingerprint=model.fingerprint,
        attack_kind=kind,
        points=tuple((s.epsilon, _accuracy(model, adv, labels)) for s, adv in zip(specs, adversarials)),
    )


def transfer_attack(source_model, target_model, images, labels, spec: AttackSpec) -> float:
    """Accuracy of the target on examples crafted against the source."""
    images, labels = as_stack(images, labels, "evaluate a transfer attack")
    return _accuracy(target_model, generate(source_model, images, labels, spec), labels)


# ---------------------------------------------------------------------------
# Adversarial batches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdversarialBatch:
    originals: np.ndarray  # (N, H, W)
    adversarials: np.ndarray  # (N, H, W)
    source_fingerprint: str
    spec: AttackSpec

    def __post_init__(self) -> None:
        if self.originals.shape != self.adversarials.shape:
            raise ValueError("original and adversarial stacks must share a shape")
        _check_pixels(self.originals, "original")
        _check_pixels(self.adversarials, "adversarial")
        overshoot = np.max(np.abs(self.adversarials - self.originals), initial=0.0)
        if not overshoot <= self.spec.epsilon + 1e-12:  # written so that NaN fails
            raise ValueError(
                f"adversarial examples exceed the epsilon ball: {overshoot} > {self.spec.epsilon}"
            )


def make_batch(model, images, labels, spec: AttackSpec) -> AdversarialBatch:
    images, labels = as_stack(images, labels, "make an adversarial batch")
    return AdversarialBatch(
        originals=images.copy(),
        adversarials=generate(model, images, labels, spec),
        source_fingerprint=model.fingerprint,
        spec=spec,
    )


def save_batch(path, batch: AdversarialBatch) -> None:
    header = {"spec": asdict(batch.spec), "source_fingerprint": batch.source_fingerprint}
    container.save(path, "adversarial_batch", header, originals=batch.originals, adversarials=batch.adversarials)


def load_batch(path) -> AdversarialBatch:
    header, arrays = container.load(path, "adversarial_batch")
    try:
        spec = AttackSpec(**header["spec"])
        return AdversarialBatch(source_fingerprint=header["source_fingerprint"], spec=spec, **arrays)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"adversarial batch {path}: {exc}") from exc
