"""Classical counterpart layers and the shared trainable head.

The classical extractor is a frozen 2x2, stride-2 convolution with 4
filters and ReLU, drawn once from uniform [-1, 1] with zero bias, so it
produces the same 14x14x4 feature geometry as the quanvolutional path.  It
reads each image through its pixel planes (:func:`quanvrob.patches.planes`):
per image, the (filters, 4) kernel matrix times the (4, P) planes, with the
bias added straight into the channel-last feature map.  Its input gradient
is the transposed product, masked where the pre-activation is not positive
and written back through the planes of the image.  ``ConvExtractor`` holds
all of it: ``forward(image)`` and ``input_gradient(image, upstream)`` take
the pixels, and the gradient computes its ReLU mask from them.  The
extractor keeps no memo: its input gradient convolves the pixels again, a
small share of a model gradient, and ``models.Model`` answers a repeated
gradient itself.

Both extractors feed the same trainable piece: a dense layer with softmax
over 10 classes, optimized with Adam on the cross-entropy loss.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, replace

import numpy as np

from . import container
from .patches import planes

N_FILTERS = 4
KERNEL = 2
N_CLASSES = 10
HEAD_INIT_SCALE = 0.05  # head weights are drawn from uniform [-scale, scale]
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class ConvLayer:
    kernels: np.ndarray  # (filters, kernel, kernel)
    bias: np.ndarray  # (filters,)
    seed: int


def build_conv_layer(seed: int) -> ConvLayer:
    rng = np.random.default_rng(seed)
    kernels = rng.uniform(-1.0, 1.0, size=(N_FILTERS, KERNEL, KERNEL))
    return ConvLayer(kernels=kernels, bias=np.zeros(N_FILTERS), seed=int(seed))


class ConvExtractor:
    """Frozen random convolution presented with the shared extractor surface."""

    kind = "cnn"

    def __init__(self, layer: ConvLayer):
        self.layer = layer
        self.seed = layer.seed

    @property
    def fingerprint(self) -> str:
        payload = (
            f"cnn\nseed={self.layer.seed}\n"
            + ",".join(format(v, ".17g") for v in self.layer.kernels.ravel())
            + "\n"
            + ",".join(format(v, ".17g") for v in self.layer.bias)
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _preactivation(self, image: np.ndarray) -> np.ndarray:
        """The convolution before its ReLU, (H/2, W/2, filters) for an image, with a leading N for a stack."""
        image = np.asarray(image, dtype=float)
        # any finite pixel is accepted, also outside [0, 1]
        if not np.all(np.isfinite(image)):
            raise ValueError("image pixels must be finite")
        pixels = planes(image)
        n, _, _, hp, wp = pixels.shape
        pre = np.empty(image.shape[:-2] + (hp, wp, N_FILTERS))
        # (filters, 4) @ (4, P) is one matrix product per image, so an image's
        # result does not depend on the stack around it
        channels = self.layer.kernels.reshape(N_FILTERS, -1) @ pixels.reshape(n, 4, hp * wp)
        np.add(channels, self.layer.bias[:, None], out=pre.reshape(n, hp * wp, N_FILTERS).swapaxes(1, 2))
        return pre

    def forward(self, image: np.ndarray) -> np.ndarray:
        """ReLU(conv2d(image)) with kernel 2, stride 2, no padding, for an image or a stack."""
        return np.maximum(self._preactivation(image), 0.0)

    def input_gradient(self, image: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        """Backprop ``upstream`` through the ReLU at ``image``, then scatter each filter kernel to its patch."""
        pre = self._preactivation(image)
        upstream = np.asarray(upstream, dtype=float)
        if upstream.shape != pre.shape:
            raise ValueError(f"upstream shape {upstream.shape} does not match the feature map {pre.shape}")
        *lead, hp, wp, _ = upstream.shape
        masked = upstream * (pre > 0.0)
        grad = np.empty((*lead, 2 * hp, 2 * wp))
        pixels = planes(grad)
        # (4, filters) @ (filters, P) per image: each patch's pixel gradients, in plane order
        kernels = self.layer.kernels.reshape(N_FILTERS, -1)
        per_patch = kernels.T @ masked.reshape(len(pixels), hp * wp, N_FILTERS).swapaxes(1, 2)
        pixels[...] = per_patch.reshape(pixels.shape)
        return grad


# ---------------------------------------------------------------------------
# Dense softmax head
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DenseHead:
    weights: np.ndarray  # (classes, features)
    bias: np.ndarray  # (classes,)


def build_dense_head(seed: int, in_dim: int = 784) -> DenseHead:
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-HEAD_INIT_SCALE, HEAD_INIT_SCALE, size=(N_CLASSES, in_dim))
    return DenseHead(weights=weights, bias=np.zeros(N_CLASSES))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return exp / exp.sum(axis=-1, keepdims=True)


def _flat_features(features, in_dim: int) -> np.ndarray:
    """(D,) for one sample, (N, D) for a stack.

    A sample is a flat (D,) vector or an (hp, wp, C) feature map; a stack
    puts N of them on a leading axis, (N, D) or (N, hp, wp, C).
    """
    x = np.asarray(features, dtype=float)
    flat = x.reshape(len(x), -1) if x.ndim in (2, 4) else x.reshape(-1)
    if flat.shape[-1] != in_dim:
        raise ValueError(f"feature shape {x.shape} does not match head input {in_dim}")
    return flat


def dense_forward(features: np.ndarray, head: DenseHead) -> np.ndarray:
    """Class probabilities, (classes,) for one sample or (N, classes) for a stack."""
    flat = _flat_features(features, head.weights.shape[1])
    # one matrix-vector product per sample, so that a sample's logits do not
    # depend on the stack around it
    return softmax((head.weights @ flat[..., None])[..., 0] + head.bias)


def check_labels(labels: np.ndarray) -> None:
    """A ValueError unless an array of labels is of integer dtype with every value in 0..N_CLASSES - 1."""
    if labels.dtype.kind not in "iu" or (labels.size and not (labels.min() >= 0 and labels.max() < N_CLASSES)):
        raise ValueError(f"labels must be integers in 0..{N_CLASSES - 1}")


def cross_entropy(probs: np.ndarray, label):
    """Cross-entropy -log p[label] and its gradient with respect to the logits.

    For (N, classes) probabilities the labels are an (N,) integer array and
    the loss is an (N,) array, one per sample.
    """
    if probs.ndim == 1:
        # scalar checks only: head training makes one call per sample.  operator.index
        # takes integer scalars and 0-d integer arrays and rejects floats and np.bool_;
        # a Python bool is an int, so it is rejected by name
        try:
            index = operator.index(label)
        except TypeError:
            index = None
        if index is None or isinstance(label, bool) or not 0 <= index < N_CLASSES:
            raise ValueError(f"label must be an integer in 0..{N_CLASSES - 1}, got {label!r}")
        dlogits = probs.copy()
        dlogits[index] -= 1.0
        return float(-np.log(probs[index])), dlogits
    labels = np.asarray(label)
    if labels.shape != probs.shape[:1]:
        raise ValueError(f"labels of shape {labels.shape} do not match a stack of shape {probs.shape[:1]}")
    check_labels(labels)
    rows = np.arange(len(labels))
    dlogits = probs.copy()
    dlogits[rows, labels] -= 1.0
    return -np.log(probs[rows, labels]), dlogits


def loss_and_grads(head: DenseHead, probs: np.ndarray, label, features: np.ndarray):
    """Cross-entropy -log p[label] and its gradients (dW, db, dfeatures).

    For a stack the loss and dfeatures are per sample, and dW and db are
    summed over the samples.
    """
    loss, dlogits = cross_entropy(probs, label)
    flat = _flat_features(features, head.weights.shape[1])
    if flat.shape[:-1] != dlogits.shape[:-1]:
        raise ValueError(f"features of shape {flat.shape} do not match probabilities {dlogits.shape}")
    if dlogits.ndim == 1:
        d_weights, d_bias = dlogits[:, None] * flat, dlogits
    else:
        d_weights, d_bias = dlogits.T @ flat, dlogits.sum(axis=0)
    return loss, d_weights, d_bias, feature_gradient(head, dlogits)


def feature_gradient(head: DenseHead, dlogits: np.ndarray) -> np.ndarray:
    """The loss gradient w.r.t. the flat features, (D,) or (N, D), from its gradient w.r.t. the logits."""
    # one matrix-vector product per sample, as in dense_forward
    return (head.weights.T @ dlogits[..., None])[..., 0]


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdamState:
    step: int
    m_weights: np.ndarray
    v_weights: np.ndarray
    m_bias: np.ndarray
    v_bias: np.ndarray


def init_adam_state(head: DenseHead) -> AdamState:
    return AdamState(
        step=0,
        m_weights=np.zeros_like(head.weights),
        v_weights=np.zeros_like(head.weights),
        m_bias=np.zeros_like(head.bias),
        v_bias=np.zeros_like(head.bias),
    )


def adam_step(head: DenseHead, state: AdamState, grads, lr: float):
    """One bias-corrected Adam update; returns the new (head, state)."""
    d_weights, d_bias = grads
    if d_weights.shape != head.weights.shape or d_bias.shape != head.bias.shape:
        raise ValueError("gradient shapes do not match the head")
    t = state.step + 1
    m_w = ADAM_BETA1 * state.m_weights + (1 - ADAM_BETA1) * d_weights
    v_w = ADAM_BETA2 * state.v_weights + (1 - ADAM_BETA2) * d_weights**2
    m_b = ADAM_BETA1 * state.m_bias + (1 - ADAM_BETA1) * d_bias
    v_b = ADAM_BETA2 * state.v_bias + (1 - ADAM_BETA2) * d_bias**2
    bc1 = 1 - ADAM_BETA1**t
    bc2 = 1 - ADAM_BETA2**t
    new_weights = head.weights - lr * (m_w / bc1) / (np.sqrt(v_w / bc2) + ADAM_EPS)
    new_bias = head.bias - lr * (m_b / bc1) / (np.sqrt(v_b / bc2) + ADAM_EPS)
    new_head = DenseHead(weights=new_weights, bias=new_bias)
    new_state = replace(
        state, step=t, m_weights=m_w, v_weights=v_w, m_bias=m_b, v_bias=v_b
    )
    return new_head, new_state


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, kind: str, extractor_seed: int, extractor_fingerprint: str, head: DenseHead) -> None:
    header = dict(model_kind=kind, extractor_seed=int(extractor_seed), extractor_fingerprint=extractor_fingerprint)
    container.save(path, "checkpoint", header, weights=head.weights, bias=head.bias)


def load_checkpoint(path):
    header, arrays = container.load(path, "checkpoint")
    if len(arrays["bias"]) != N_CLASSES:
        raise ValueError(f"checkpoint {path} holds a head for {len(arrays['bias'])} classes, expected {N_CLASSES}")
    return header["model_kind"], header["extractor_seed"], header["extractor_fingerprint"], DenseHead(**arrays)
