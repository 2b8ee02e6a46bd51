"""The 2x2, stride-2 patch layout shared by both feature extractors.

Patch (i, j) covers pixels [2i:2i+2, 2j:2j+2] and lists them row-major:
top-left, top-right, bottom-left, bottom-right.
"""

from __future__ import annotations

import numpy as np


def to_patches(image: np.ndarray) -> np.ndarray:
    """All patches of a 2-D image with even sides as rows of an (H/2 * W/2, 4) array."""
    if image.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {image.shape}")
    h, w = image.shape
    if h % 2 or w % 2:
        raise ValueError(f"image sides must be even, got {image.shape}")
    return image.reshape(h // 2, 2, w // 2, 2).transpose(0, 2, 1, 3).reshape(-1, 4)


def from_patches(rows: np.ndarray, hp: int, wp: int) -> np.ndarray:
    """Inverse of :func:`to_patches`: (hp * wp, 4) rows back to a (2 hp, 2 wp) image."""
    return rows.reshape(hp, wp, 2, 2).transpose(0, 2, 1, 3).reshape(2 * hp, 2 * wp)
