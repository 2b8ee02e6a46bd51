"""A model is a frozen feature extractor plus the trainable dense head.

Every method takes one (H, W) image with an int label, or an (N, H, W)
stack with an (N,) integer array of labels, and answers in kind:
``predict_label`` gives an int or an (N,) array, ``loss`` a float or an
(N,) array of per-image losses, and the input gradient has the shape of
the images.  A stack gives bitwise the answers of its images one at a time.

Gradient memo.  Every attack of a grid takes its first step from the clean
stack, so the same (model, stack, labels) gradient is asked for again and
again: an FGSM curve, a transfer matrix that crafts once per target and an
adversarial batch all start there, and so do every PGD or MIM iteration at
epsilon 0 and the first iteration at every other epsilon.  A ``Model``
keeps the last pixels and labels of ``loss_and_input_gradient`` with the loss
and gradient it computed for them, and a repeated call returns copies of
that answer without calling the extractor or the head.  The key is the
float64 pixels' shape and bytes, the labels' shape, dtype and bytes and the
bytes of the head's weights and bias, and the entry must also hold the
model's current extractor and head (``is``).  So pixels, labels or head
weights changed in place, or a head or extractor replaced, are computed
again; the extractor is frozen, so its own arrays are not in the key.  Keys
are bytes, not identity, as in the quanv encoding memo, which holds only
the last stack encoded and leaves repeated gradients to this memo.  The
head's bytes cost a copy of its weights per call; read-only head arrays
would not, but a view taken before would still write into them.  An entry
holds about two stacks of pixels (the key and the gradient) and one head.
An entry is stored only after every check passed, so it holds integer
labels, whose bytes are their values, and a call that raises never enters
the memo.  The memo holds copies and hands out fresh ones, so a caller
writing into its result cannot change the next answer.  It is one tuple
that a call reads once and replaces whole, so a concurrent caller can only
miss.  One entry serves the repeats above, which come
back to back; PGD and MIM at epsilon > 0 step away from the clean stack,
so their first gradient at the next epsilon recomputes it.  ``loss`` and
the predictions are not memoised.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .classical import DenseHead, check_labels, cross_entropy, dense_forward, feature_gradient
# unused here, but the benchmark's tracing (perfbench/tracing.instrument)
# patches models.loss_and_grads, so the name must stay in this module
from .classical import loss_and_grads  # noqa: F401

BLOCK = 32  # images per predict_label call in accuracy, so memory stays flat in the set size


class FeatureExtractor(Protocol):
    """A frozen map from images to feature maps, with its input gradient.

    ``Model.loss_and_input_gradient`` calls ``forward`` and then
    ``input_gradient`` on the same pixels.  An extractor may reuse work
    between the two calls, as the quanv extractor reuses its encoding of
    the last stack, but must return the same bits as without it; the cnn
    reuses nothing.  A model may answer a repeated gradient call from its
    memo without calling the extractor at all (see "Gradient memo").
    """

    kind: str
    seed: int

    @property
    def fingerprint(self) -> str: ...

    def forward(self, image: np.ndarray) -> np.ndarray: ...

    def input_gradient(self, image: np.ndarray, upstream: np.ndarray) -> np.ndarray: ...


@dataclass
class Model:
    extractor: FeatureExtractor
    head: DenseHead
    # (extractor, head, key, loss, grad) of the last gradient call, see "Gradient memo"
    _last: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def kind(self) -> str:
        return self.extractor.kind

    @property
    def fingerprint(self) -> str:
        payload = (
            self.extractor.fingerprint.encode()
            + self.head.weights.astype("<f8").tobytes()
            + self.head.bias.astype("<f8").tobytes()
        )
        return hashlib.sha256(payload).hexdigest()

    def features(self, image: np.ndarray) -> np.ndarray:
        return self.extractor.forward(image)

    def predict_probs(self, image: np.ndarray) -> np.ndarray:
        return dense_forward(self.features(image), self.head)

    def predict_label(self, image: np.ndarray):
        labels = np.argmax(self.predict_probs(image), axis=-1)
        return int(labels) if labels.ndim == 0 else labels

    def loss(self, image: np.ndarray, label):
        return cross_entropy(self.predict_probs(image), label)[0]

    def loss_and_input_gradient(self, image: np.ndarray, label):
        """Cross-entropy loss and its exact gradient w.r.t. the input pixels.

        A repeat of the last call on this model is answered from its memo
        (see "Gradient memo").
        """
        image, labels = np.asarray(image, dtype=float), np.asarray(label)
        extractor, head = self.extractor, self.head
        key = (
            image.shape,
            image.tobytes(),
            labels.shape,
            labels.dtype.str,
            labels.tobytes(),
            head.weights.tobytes(),
            head.bias.tobytes(),
        )
        last = self._last
        if last is not None and last[0] is extractor and last[1] is head and last[2] == key:
            return _copies(last[3], last[4])
        fmap = extractor.forward(image)
        # the head's own gradients (dW, db) are not needed for the pixels
        loss, dlogits = cross_entropy(dense_forward(fmap, head), label)
        grad = extractor.input_gradient(image, feature_gradient(head, dlogits).reshape(fmap.shape))
        self._last = (extractor, head, key, *_copies(loss, grad))
        return loss, grad

    def input_gradient(self, image: np.ndarray, label) -> np.ndarray:
        return self.loss_and_input_gradient(image, label)[1]


def _copies(loss, grad):
    """Copies of a gradient and of a stack's loss array; one image's loss is an immutable float."""
    return (loss.copy() if isinstance(loss, np.ndarray) else loss), grad.copy()


def as_stack(images, labels, what: str):
    """(N, H, W) images and (N,) integer labels in 0..9 as arrays, or a ValueError naming the fault."""
    images, labels = np.asarray(images, dtype=float), np.asarray(labels)
    if len(images) == 0:
        raise ValueError(f"cannot {what} on an empty image set")
    if images.ndim != 3 or labels.shape != images.shape[:1]:
        raise ValueError(f"expected (N, H, W) images with (N,) labels, got {images.shape} and {labels.shape}")
    check_labels(labels)
    return images, labels


def accuracy(model: Model, images: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of an (N, H, W) stack that the model labels correctly."""
    return _accuracy(model, *as_stack(images, labels, "score accuracy"))


def _accuracy(model: Model, images: np.ndarray, labels: np.ndarray) -> float:
    """``accuracy`` of a stack and labels that ``as_stack`` has already checked."""
    hits = sum(
        int(np.count_nonzero(model.predict_label(images[s : s + BLOCK]) == labels[s : s + BLOCK]))
        for s in range(0, len(images), BLOCK)
    )
    return hits / len(images)
