"""The 2x2, stride-2 patch layout shared by both feature extractors.

Patch (i, j) covers pixels [2i:2i+2, 2j:2j+2].  Its pixel (a, b), row a and
column b of the patch, feeds qubit 2a + b: top-left 0, top-right 1,
bottom-left 2, bottom-right 3.  :func:`planes` gives the layout as a view,
so an extractor reads its patches from the image and writes its pixel
gradient into the image without a copy in patch order.
"""

from __future__ import annotations

import numpy as np


def planes(x: np.ndarray) -> np.ndarray:
    """An (N, H, W) stack with even sides as the (N, 2, 2, H/2, W/2) view of its pixel planes.

    ``planes(x)[n, a, b, i, j]`` is ``x[n, 2i + a, 2j + b]``: plane (a, b)
    holds pixel (a, b) of every patch, the pixel of qubit 2a + b.  One
    (H, W) image is a stack of one, N = 1.  The result is always a view
    (splitting an axis never copies), so writing to it writes to ``x``.
    """
    if x.ndim not in (2, 3):
        raise ValueError(f"image must be (H, W) or (N, H, W), got shape {x.shape}")
    h, w = x.shape[-2:]
    if h % 2 or w % 2:
        raise ValueError(f"image sides must be even, got {x.shape}")
    n = len(x) if x.ndim == 3 else 1
    return x.reshape(n, h // 2, 2, w // 2, 2).transpose(0, 2, 4, 1, 3)
