"""A model is a frozen feature extractor plus the trainable dense head.

Every method takes one (H, W) image with an int label, or an (N, H, W)
stack with an (N,) integer array of labels, and answers in kind:
``predict_label`` gives an int or an (N,) array, ``loss`` a float or an
(N,) array of per-image losses, and the input gradient has the shape of
the images.  A stack gives bitwise the answers of its images one at a time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .classical import DenseHead, cross_entropy, dense_forward, feature_gradient
# unused here, but the benchmark's tracing (perfbench/tracing.instrument)
# patches models.loss_and_grads, so the name must stay in this module
from .classical import loss_and_grads  # noqa: F401

BLOCK = 32  # images per predict_label call in accuracy, so memory stays flat in the set size


class FeatureExtractor(Protocol):
    """A frozen map from images to feature maps, with its input gradient.

    ``Model.loss_and_input_gradient`` calls ``forward`` and then
    ``input_gradient`` on the same pixels.  An extractor may reuse work
    between the two calls, but must return the same bits as without it.
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
        """Cross-entropy loss and its exact gradient w.r.t. the input pixels."""
        fmap = self.extractor.forward(image)
        # the head's own gradients (dW, db) are not needed for the pixels
        loss, dlogits = cross_entropy(dense_forward(fmap, self.head), label)
        grad = self.extractor.input_gradient(image, feature_gradient(self.head, dlogits).reshape(fmap.shape))
        return loss, grad

    def input_gradient(self, image: np.ndarray, label) -> np.ndarray:
        return self.loss_and_input_gradient(image, label)[1]


def as_stack(images, labels, what: str):
    """(N, H, W) images and (N,) labels as arrays, or a ValueError naming the shapes."""
    images, labels = np.asarray(images, dtype=float), np.asarray(labels)
    if len(images) == 0:
        raise ValueError(f"cannot {what} on an empty image set")
    if images.ndim != 3 or labels.shape != images.shape[:1]:
        raise ValueError(f"expected (N, H, W) images with (N,) labels, got {images.shape} and {labels.shape}")
    return images, labels


def accuracy(model: Model, images: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of an (N, H, W) stack that the model labels correctly."""
    images, labels = as_stack(images, labels, "score accuracy")
    hits = sum(
        int(np.count_nonzero(model.predict_label(images[s : s + BLOCK]) == labels[s : s + BLOCK]))
        for s in range(0, len(images), BLOCK)
    )
    return hits / len(images)
