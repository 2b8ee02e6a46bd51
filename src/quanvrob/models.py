"""A model is a frozen feature extractor plus the trainable dense head."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .classical import DenseHead, cross_entropy, dense_forward, loss_and_grads


class FeatureExtractor(Protocol):
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

    def predict_label(self, image: np.ndarray) -> int:
        return int(np.argmax(self.predict_probs(image)))

    def loss(self, image: np.ndarray, label: int) -> float:
        return cross_entropy(self.predict_probs(image), label)[0]

    def loss_and_input_gradient(self, image: np.ndarray, label: int):
        """Cross-entropy loss and its exact gradient w.r.t. the input pixels."""
        fmap = self.extractor.forward(image)
        probs = dense_forward(fmap, self.head)
        loss, _, _, d_features = loss_and_grads(self.head, probs, label, fmap.reshape(-1))
        grad = self.extractor.input_gradient(image, d_features.reshape(fmap.shape))
        return loss, grad

    def input_gradient(self, image: np.ndarray, label: int) -> np.ndarray:
        return self.loss_and_input_gradient(image, label)[1]


def accuracy(model: Model, images: np.ndarray, labels: np.ndarray) -> float:
    if len(images) == 0:
        raise ValueError("cannot score an empty image set")
    hits = sum(model.predict_label(img) == int(lbl) for img, lbl in zip(images, labels))
    return hits / len(images)
