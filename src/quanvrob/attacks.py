"""Gradient-sign attacks and robustness/transfer evaluation.

Three white-box attacks against any model exposing ``input_gradient``:

  fgsm  x' = clip(x + eps * sign(grad))
  pgd   k steps of x <- clip_eps(x + alpha * sign(grad at x)), no random start
        (Madry et al., arXiv:1706.06083)
  mim   like pgd but the step direction is the sign of an accumulated
        gradient g <- mu * g + grad / ||grad||_1

Every adversarial image stays within the L-infinity ball of radius eps
around the original and inside [0, 1].  sign(0) is 0.

An attack takes one (H, W) image with an int label, or an (N, H, W) stack
with (N,) labels, and steps the whole stack at once: one model gradient per
step for all images.  Each image's step depends only on its own gradient;
in mim the L1 norm is taken per image, and an image whose gradient vanishes
adds nothing to its momentum that step.  So a stack gives bitwise the
adversarials of its images one at a time.  The evaluations below make one
attack call per spec (per source and spec in transfer) over the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import read_record
from .models import accuracy


class AttackKind:
    FGSM = "fgsm"
    PGD = "pgd"
    MIM = "mim"

    ALL = (FGSM, PGD, MIM)


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    epsilon: float
    step_size: float | None = None
    iterations: int | None = None
    momentum: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in AttackKind.ALL:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.kind in (AttackKind.PGD, AttackKind.MIM):
            if self.step_size is None or self.step_size < 0:
                raise ValueError(f"{self.kind} needs a non-negative step size")
            if self.iterations is None or self.iterations < 1:
                raise ValueError(f"{self.kind} needs at least one iteration")
        if self.kind == AttackKind.MIM and (self.momentum is None or self.momentum < 0):
            raise ValueError("mim needs a non-negative momentum factor")


def make_spec(
    kind: str,
    epsilon: float,
    iterations: int = 10,
    step_ratio: float = 0.25,
    momentum: float = 1.0,
) -> AttackSpec:
    """Spec with the default iterative hyperparameters (alpha = eps * ratio)."""
    if kind == AttackKind.FGSM:
        return AttackSpec(kind, epsilon)
    if kind == AttackKind.PGD:
        return AttackSpec(kind, epsilon, step_size=epsilon * step_ratio, iterations=iterations)
    return AttackSpec(
        kind, epsilon, step_size=epsilon * step_ratio, iterations=iterations, momentum=momentum
    )


def _project(x: np.ndarray, origin: np.ndarray, epsilon: float) -> np.ndarray:
    return np.clip(origin + np.clip(x - origin, -epsilon, epsilon), 0.0, 1.0)


def fgsm(model, image: np.ndarray, label, spec: AttackSpec) -> np.ndarray:
    if spec.kind != AttackKind.FGSM:
        raise ValueError(f"expected an fgsm spec, got {spec.kind}")
    image = np.asarray(image, dtype=float)
    if spec.epsilon == 0:
        return image.copy()
    grad = model.input_gradient(image, label)
    return np.clip(image + spec.epsilon * np.sign(grad), 0.0, 1.0)


def pgd(model, image: np.ndarray, label, spec: AttackSpec) -> np.ndarray:
    if spec.kind != AttackKind.PGD:
        raise ValueError(f"expected a pgd spec, got {spec.kind}")
    image = np.asarray(image, dtype=float)
    x = image.copy()
    for _ in range(spec.iterations):
        grad = model.input_gradient(x, label)
        x = _project(x + spec.step_size * np.sign(grad), image, spec.epsilon)
    return x


def mim(model, image: np.ndarray, label, spec: AttackSpec) -> np.ndarray:
    if spec.kind != AttackKind.MIM:
        raise ValueError(f"expected a mim spec, got {spec.kind}")
    image = np.asarray(image, dtype=float)
    x = image.copy()
    g = np.zeros_like(image)
    for _ in range(spec.iterations):
        grad = model.input_gradient(x, label)
        l1 = np.sum(np.abs(grad), axis=(-2, -1), keepdims=True)
        # a vanished gradient contributes nothing this step
        g = spec.momentum * g + np.divide(grad, l1, out=np.zeros_like(grad), where=l1 > 0)
        x = _project(x + spec.step_size * np.sign(g), image, spec.epsilon)
    return x


_GENERATORS = {AttackKind.FGSM: fgsm, AttackKind.PGD: pgd, AttackKind.MIM: mim}


def generate(model, image: np.ndarray, label, spec: AttackSpec) -> np.ndarray:
    return _GENERATORS[spec.kind](model, image, label, spec)


# ---------------------------------------------------------------------------
# Robustness and transfer evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RobustnessCurve:
    model_kind: str
    model_fingerprint: str
    attack_kind: str
    points: tuple[tuple[float, float], ...]  # (epsilon, accuracy)

    def __post_init__(self) -> None:
        epsilons = [e for e, _ in self.points]
        if not epsilons or epsilons[0] != 0.0:
            raise ValueError("a robustness curve must start at epsilon = 0")
        if any(b <= a for a, b in zip(epsilons, epsilons[1:])):
            raise ValueError("curve epsilons must be strictly increasing")
        if any(not 0.0 <= acc <= 1.0 for _, acc in self.points):
            raise ValueError("accuracies must lie in [0, 1]")


def _check_grid(specs) -> None:
    if not specs:
        raise ValueError("empty attack grid")
    kinds = {s.kind for s in specs}
    if len(kinds) != 1:
        raise ValueError(f"attack grid mixes kinds {sorted(kinds)}")
    epsilons = [s.epsilon for s in specs]
    if epsilons[0] != 0.0 or any(b <= a for a, b in zip(epsilons, epsilons[1:])):
        raise ValueError("attack grid epsilons must start at 0 and increase strictly")


def _stack(images, labels, what: str):
    """(N, H, W) images and (N,) labels as arrays, or a ValueError naming the shapes."""
    images, labels = np.asarray(images, dtype=float), np.asarray(labels)
    if len(images) == 0:
        raise ValueError(f"cannot {what} on an empty image set")
    if images.ndim != 3 or labels.shape != images.shape[:1]:
        raise ValueError(f"expected (N, H, W) images with (N,) labels, got {images.shape} and {labels.shape}")
    return images, labels


def evaluate_robustness(model, images, labels, specs) -> RobustnessCurve:
    """White-box accuracy-versus-epsilon curve of a model attacked by itself."""
    images, labels = _stack(images, labels, "evaluate robustness")
    _check_grid(specs)
    kind = specs[0].kind
    if kind == AttackKind.FGSM:
        # the gradient is evaluated at the clean input only, so it is shared
        # by every epsilon in the grid
        signs = np.sign(model.input_gradient(images, labels))
        adversarials = (
            images if s.epsilon == 0 else np.clip(images + s.epsilon * signs, 0.0, 1.0) for s in specs
        )
    else:
        adversarials = (generate(model, images, labels, spec) for spec in specs)
    return RobustnessCurve(
        model_kind=model.kind,
        model_fingerprint=model.fingerprint,
        attack_kind=kind,
        points=tuple((s.epsilon, accuracy(model, adv, labels)) for s, adv in zip(specs, adversarials)),
    )


def transfer_attack(source_model, target_model, images, labels, spec: AttackSpec) -> float:
    """Accuracy of the target on examples crafted against the source."""
    images, labels = _stack(images, labels, "evaluate a transfer attack")
    return accuracy(target_model, generate(source_model, images, labels, spec), labels)


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
        overshoot = np.max(np.abs(self.adversarials - self.originals), initial=0.0)
        if overshoot > self.spec.epsilon + 1e-12:
            raise ValueError(
                f"adversarial examples exceed the epsilon ball: {overshoot} > {self.spec.epsilon}"
            )
        if self.adversarials.size and (
            np.min(self.adversarials) < 0.0 or np.max(self.adversarials) > 1.0
        ):
            raise ValueError("adversarial pixels must lie in [0, 1]")


def make_batch(model, images, labels, spec: AttackSpec) -> AdversarialBatch:
    images, labels = _stack(images, labels, "make an adversarial batch")
    return AdversarialBatch(
        originals=images.copy(),
        adversarials=generate(model, images, labels, spec),
        source_fingerprint=model.fingerprint,
        spec=spec,
    )


def save_batch(path, batch: AdversarialBatch) -> None:
    """Text header, blank line, then (original, adversarial) f8 pairs."""
    spec = batch.spec
    n, h, w = batch.originals.shape
    header = (
        f"kind={spec.kind}\n"
        f"epsilon={spec.epsilon:.17g}\n"
        f"step_size={'' if spec.step_size is None else format(spec.step_size, '.17g')}\n"
        f"iterations={'' if spec.iterations is None else spec.iterations}\n"
        f"momentum={'' if spec.momentum is None else format(spec.momentum, '.17g')}\n"
        f"source_fingerprint={batch.source_fingerprint}\n"
        f"count={n}\nheight={h}\nwidth={w}\n\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(np.stack([batch.originals, batch.adversarials], axis=1).astype("<f8").tobytes())


def load_batch(path) -> AdversarialBatch:
    fields, body = read_record(
        path,
        ("kind", "epsilon", "step_size", "iterations", "momentum", "source_fingerprint", "count", "height", "width"),
    )
    n, h, w = int(fields["count"]), int(fields["height"]), int(fields["width"])
    spec = AttackSpec(
        kind=fields["kind"],
        epsilon=float(fields["epsilon"]),
        step_size=float(fields["step_size"]) if fields["step_size"] else None,
        iterations=int(fields["iterations"]) if fields["iterations"] else None,
        momentum=float(fields["momentum"]) if fields["momentum"] else None,
    )
    per_image = h * w
    expected = 2 * n * per_image * 8
    if len(body) != expected:
        raise ValueError(f"adversarial batch {path} body has {len(body)} bytes, expected {expected}")
    pairs = np.frombuffer(body, dtype="<f8").reshape(n, 2, h, w)
    return AdversarialBatch(
        originals=pairs[:, 0].copy(),
        adversarials=pairs[:, 1].copy(),
        source_fingerprint=fields["source_fingerprint"],
        spec=spec,
    )
