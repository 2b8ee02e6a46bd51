"""Seeded procedural 28x28 digits, a stand-in for MNIST until an IDX file is in the repo.

Each class 0-9 is a fixed set of strokes (polylines) in a unit box.  An image
draws its class's strokes under a random affine map (rotation, scale, shear,
translation), with a random stroke width, then adds sparse clipped Gaussian
noise.

The pixel mix is deliberate.  Pixels near a stroke's centre line saturate at
exactly 1, pixels far from every stroke are exactly 0, and the anti-aliased
rims and the noise give grey values in between, as in MNIST.  Binary pixels
matter: the quanv filter encodes pixel p as Ry(pi * p), and for filter
layouts whose readout depends on cos(pi * p) alone the input gradient at
p = 0 or p = 1 is exactly zero.  sign(0) = 0, so FGSM, PGD and MIM never move
such a pixel, which masks the attack.  Data without binary pixels would hide
that effect; data without grey pixels would hide the layouts' other
gradients.  Neither is filtered out here.
"""

from __future__ import annotations

import numpy as np

SIDE = 28
N_CLASSES = 10


def _arc(cx, cy, rx, ry, start_deg, end_deg, n=12):
    t = np.radians(np.linspace(start_deg, end_deg, n))
    return np.stack([cx + rx * np.cos(t), cy + ry * np.sin(t)], axis=1)


def _line(*points):
    return np.asarray(points, dtype=float)


# Strokes per class in a unit box, x to the right and y downwards.  Angles of
# arcs are in degrees, measured clockwise from +x because y points down.
_GLYPHS = {
    0: [_arc(0.5, 0.5, 0.28, 0.40, 0, 360, 20)],
    1: [_line((0.52, 0.1), (0.52, 0.9)), _line((0.34, 0.26), (0.52, 0.1))],
    2: [
        np.vstack([_arc(0.5, 0.32, 0.24, 0.21, 180, 380, 10), _line((0.25, 0.9))]),
        _line((0.25, 0.9), (0.78, 0.9)),
    ],
    3: [_arc(0.48, 0.3, 0.25, 0.2, 200, 450, 10), _arc(0.48, 0.7, 0.27, 0.2, 270, 520, 10)],
    4: [_line((0.66, 0.9), (0.66, 0.1), (0.2, 0.64), (0.82, 0.64))],
    5: [
        _line((0.76, 0.1), (0.32, 0.1), (0.29, 0.45)),
        _arc(0.48, 0.64, 0.27, 0.25, 220, 500, 12),
    ],
    6: [
        np.vstack([_line((0.68, 0.1)), _arc(0.62, 0.6, 0.38, 0.5, 250, 180, 6)]),
        _arc(0.5, 0.68, 0.25, 0.22, 0, 360, 14),
    ],
    7: [_line((0.2, 0.1), (0.8, 0.1), (0.42, 0.9))],
    8: [_arc(0.5, 0.29, 0.2, 0.19, 0, 360, 14), _arc(0.5, 0.7, 0.25, 0.21, 0, 360, 14)],
    9: [_arc(0.5, 0.32, 0.24, 0.22, 0, 360, 14), _line((0.74, 0.32), (0.68, 0.9))],
}


def _segments(label: int) -> np.ndarray:
    """(S, 2, 2) start and end points of every stroke segment of a class."""
    segs = [np.stack([poly[:-1], poly[1:]], axis=1) for poly in _GLYPHS[label]]
    return np.concatenate(segs)


_SEGMENTS = {label: _segments(label) for label in range(N_CLASSES)}
_CENTRES = (np.arange(SIDE) + 0.5) / SIDE
_PIXELS = np.stack(np.meshgrid(_CENTRES, _CENTRES, indexing="xy"), axis=-1).reshape(-1, 2)


def _distance_to_segments(points: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """Distance from each of P points to the nearest of S segments, shape (P,)."""
    ax, ay = segs[:, 0, 0], segs[:, 0, 1]
    abx, aby = segs[:, 1, 0] - ax, segs[:, 1, 1] - ay
    inv_length2 = 1.0 / np.maximum(abx * abx + aby * aby, 1e-12)
    apx = points[:, :1] - ax
    apy = points[:, 1:] - ay
    t = np.clip((apx * abx + apy * aby) * inv_length2, 0.0, 1.0)
    dx = apx - t * abx
    dy = apy - t * aby
    return np.sqrt(np.min(dx * dx + dy * dy, axis=1))


def _render(label: int, rng: np.random.Generator) -> np.ndarray:
    angle = np.radians(rng.uniform(-12.0, 12.0))
    scale = rng.uniform(0.78, 1.0, size=2)
    shear = rng.uniform(-0.2, 0.2)
    shift = rng.uniform(-0.07, 0.07, size=2)
    width = rng.uniform(0.045, 0.085)
    noise = rng.uniform(0.05, 0.15)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    affine = rot @ np.array([[1.0, shear], [0.0, 1.0]]) @ np.diag(scale)
    segs = (_SEGMENTS[label] - 0.5) @ affine.T + 0.5 + shift
    dist = _distance_to_segments(_PIXELS, segs)
    # 1 inside the stroke core, a linear rim of about one pixel, 0 outside
    ink = np.clip((width - dist) * SIDE + 0.5, 0.0, 1.0)
    # sparse sensor noise: most of the background stays exactly 0
    speckle = rng.random(ink.shape) < 0.15
    ink = ink + speckle * noise * rng.standard_normal(ink.shape)
    return np.clip(ink, 0.0, 1.0).reshape(SIDE, SIDE)


def make_digits(count: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """``count`` images (count, 28, 28) in [0, 1] and their labels.

    Classes cycle 0..9 in a seeded shuffled order, so every class has
    count // 10 or count // 10 + 1 images.  ``seed`` is anything
    ``numpy.random.default_rng`` takes; the same (count, seed) always gives
    the same arrays.
    """
    rng = np.random.default_rng(seed)
    labels = np.resize(np.arange(N_CLASSES), count)
    rng.shuffle(labels)
    images = np.stack([_render(int(lbl), rng) for lbl in labels]) if count else np.zeros((0, SIDE, SIDE))
    return images, labels.astype(np.int64)
