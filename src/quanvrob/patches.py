"""The 2x2, stride-2 patch layout shared by both feature extractors.

Patch (i, j) covers pixels [2i:2i+2, 2j:2j+2] and lists them row-major:
top-left, top-right, bottom-left, bottom-right.  Both functions take one
(H, W) image or an (N, H, W) stack and keep the leading image axis.
"""

from __future__ import annotations

import numpy as np


def to_patches(image: np.ndarray) -> np.ndarray:
    """All patches of an image with even sides as rows: (..., H/2 * W/2, 4)."""
    if image.ndim not in (2, 3):
        raise ValueError(f"image must be (H, W) or (N, H, W), got shape {image.shape}")
    *lead, h, w = image.shape
    if h % 2 or w % 2:
        raise ValueError(f"image sides must be even, got {image.shape}")
    return image.reshape(*lead, h // 2, 2, w // 2, 2).swapaxes(-3, -2).reshape(*lead, -1, 4)


def from_patches(rows: np.ndarray, hp: int, wp: int) -> np.ndarray:
    """Inverse of :func:`to_patches`: (..., hp * wp, 4) rows back to (..., 2 hp, 2 wp) images."""
    lead = rows.shape[:-2]
    return rows.reshape(*lead, hp, wp, 2, 2).swapaxes(-3, -2).reshape(*lead, 2 * hp, 2 * wp)
