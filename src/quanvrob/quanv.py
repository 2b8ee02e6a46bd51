"""Quanvolutional feature extraction.

An even-sided grayscale image is cut into 2x2 patches at stride 2 (see
:mod:`quanvrob.patches`).  Pixel q of a patch, row-major (top-left -> qubit
0, top-right -> 1, bottom-left -> 2, bottom-right -> 3), is angle-encoded as
Ry(theta_q)|0> with theta_q = pi * p_q, the fixed filter circuit U is
applied, and the Pauli-Z expectation of qubit k becomes channel k of the
output map.  A 28x28 image therefore produces a 14x14x4 feature map with
entries in [-1, 1]; an (N, H, W) stack produces (N, H/2, W/2, 4).

The filter is compiled once, when the extractor is built, into a real table.
Each encoded qubit has the density matrix (I + sin(theta) X + cos(theta) Z) / 2,
so expanding U^dag Z_k U in Pauli strings gives (Schuld, Sweke & Meyer 2021,
arXiv:2008.08605)

    <Z_k> = sum over s in {I, X, Z}^4 of  c[s, k] * prod_q r_{s_q}(theta_q),
    r(theta) = (r_I, r_X, r_Z) = (1, sin theta, cos theta),
    c[s, k] = Tr(P_s0 x P_s1 x P_s2 x P_s3 . U^dag Z_k U) / 16.

Strings holding Y drop out because <Y> = 0 on every encoded qubit.  The
table ``QuanvExtractor.table`` holds c with shape (3, 3, 3, 3, 4): axis q is
qubit q's Pauli in the order (I, X, Z), the last axis is the channel k.  The
gate-level simulator ``qsim`` only builds the 16x16 unitary U for the
compiler; no complex number is touched after that.

Layout.  The angles of each image are laid out as (4, P), qubit by patch,
with the patch axis last and contiguous, and every intermediate is a matrix
of rows of P patches.  The table enters once per image, as one small matrix
product over 3 factors (forward) or 4 channels (gradient).  Every later
contraction with a factor r(theta_q), which differs per patch, is written
out elementwise as t_I + sin * t_X + cos * t_Z, three terms in a fixed
order.  So no reduction is longer than 4, a patch's result does not depend
on how many patches share the call, and a stack gives bitwise the results of
its images one at a time.  One exception: numpy hands the product of a
one-patch image to a matrix-vector routine, and in the gradient its last bit
can differ from that of the same patch in a larger image.

Forward pass: qubit 0's factor meets the (108, 3) table matrix, rows
(s1, s2, s3, k), then qubits 1, 2 and 3 are contracted one at a time.

Input gradient, in reverse mode: the upstream cotangent u[k] meets the (81, 4)
table matrix once, giving C[s0, s1, s2, s3] per patch.  The suffix sweep
contracts qubit 3 and then 2 (S32[s0, s1]); the prefix sweep contracts qubit
0 and then 1 (P01[s2, s3]).  S32 gives the derivatives of qubits 0 and 1,
P01 those of qubits 2 and 3, after one more contraction each: the derivative
of theta_q swaps qubit q's factor for r'(theta) = (0, cos theta, -sin theta),
and the pixel gradient carries a further factor pi.

Images go through the contractions ``BLOCK`` at a time, so the intermediates,
up to 108 values per patch, stay within a few hundred kilobytes whatever the
size of the stack.
"""

from __future__ import annotations

import os

import numpy as np

from .ansatz import Ansatz
from .patches import from_patches, to_patches
from .qsim import StateVector, run_program

N_QUBITS = 4
BLOCK = 4  # images per contraction block

# I, X and Z: the Pauli matrices whose expectation on Ry(theta)|0> is
# 1, sin(theta) and cos(theta), in the table's axis order
_PAULIS = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])


def _patch_stack(image: np.ndarray):
    """The image as checked floats, and its patches as an (N, P, 4) stack."""
    image = np.asarray(image, dtype=float)
    # written so that NaN fails the comparison
    if not np.all((image >= 0.0) & (image <= 1.0)):
        raise ValueError("image pixels must be finite and lie in [0, 1]")
    patches = to_patches(image)
    return image, patches.reshape(-1, *patches.shape[-2:])


def _ansatz_unitary(ansatz: Ansatz) -> np.ndarray:
    """Dense matrix of the filter circuit, column j = program applied to |j>."""
    dim = 2**ansatz.n_qubits
    unitary = np.empty((dim, dim), dtype=np.complex128)
    for j in range(dim):
        amps = np.zeros(dim, dtype=np.complex128)
        amps[j] = 1.0
        unitary[:, j] = run_program(StateVector(ansatz.n_qubits, amps), ansatz.gates).amps
    return unitary


def _pauli_table(unitary: np.ndarray) -> np.ndarray:
    """Coefficients c[s0, s1, s2, s3, k] of U^dag Z_k U on the I, X, Z strings."""
    bits = np.arange(2**N_QUBITS) >> (N_QUBITS - 1 - np.arange(N_QUBITS)[:, None])
    z_signs = 1.0 - 2.0 * (bits & 1)  # (k, basis index), qubit 0 most significant
    # U^dag Z_k U is Hermitian, so its imaginary part is antisymmetric and
    # vanishes against the real symmetric I, X, Z strings
    heisenberg = np.einsum("ai,ka,aj->kij", unitary.conj(), z_signs, unitary).real
    heisenberg = heisenberg.reshape((N_QUBITS,) + (2,) * (2 * N_QUBITS))
    # Tr(P O) = sum_ij P[i, j] O[i, j] for symmetric P; i..l and m..p are the
    # row and column bits of qubits 0..3, a..d their Pauli and x the channel
    table = np.einsum(
        "aim,bjn,cko,dlp,xijklmnop->abcdx",
        _PAULIS, _PAULIS, _PAULIS, _PAULIS, heisenberg,
        optimize=True,
    )
    return table / 2**N_QUBITS


def _factor_blocks(patches: np.ndarray):
    """Yield (first image, r) per block of ``BLOCK`` images of (N, P, 4) patches.

    r[n, q] = (1, sin theta_q, cos theta_q) over the patches: shape (n, 4, 3, P).
    """
    thetas = np.pi * patches.swapaxes(1, 2)
    for start in range(0, len(thetas), BLOCK):
        block = thetas[start : start + BLOCK]
        r = np.empty(block.shape[:2] + (3,) + block.shape[2:])
        r[:, :, 0] = 1.0
        np.sin(block, out=r[:, :, 1])
        np.cos(block, out=r[:, :, 2])
        yield start, r


def _pauli_sum(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Contract the Pauli axis of t, shape (n, L, 3, R, P), with r, shape (n, 3, P): (n, L, R, P)."""
    out = t[:, :, 1] * r[:, None, None, 1]
    out += t[:, :, 0]
    out += t[:, :, 2] * r[:, None, None, 2]
    return out


class QuanvExtractor:
    """Frozen quanvolutional feature extractor for one filter circuit."""

    def __init__(self, ansatz: Ansatz):
        if ansatz.n_qubits != N_QUBITS:
            raise ValueError(f"filter circuit must use {N_QUBITS} qubits, got {ansatz.n_qubits}")
        self.ansatz = ansatz
        self.kind = f"qunn_{ansatz.kind.value}"
        self.seed = ansatz.seed
        self.table = _pauli_table(_ansatz_unitary(ansatz))
        self._by_qubit0 = np.ascontiguousarray(self.table.reshape(3, -1).T)  # (108, 3)
        self._by_channel = np.ascontiguousarray(self.table.reshape(-1, N_QUBITS))  # (81, 4)

    @property
    def fingerprint(self) -> str:
        return self.ansatz.fingerprint()

    def _readout(self, r: np.ndarray) -> np.ndarray:
        """<Z_k> per patch for the factors r of a block: (n, 4, P)."""
        n, p = r.shape[0], r.shape[-1]
        out = self._by_qubit0 @ r[:, 0]
        for q in (1, 2, 3):
            out = _pauli_sum(out.reshape(n, 1, 3, -1, p), r[:, q])
        return out.reshape(n, N_QUBITS, p)

    def _gradient(self, r: np.ndarray, up: np.ndarray) -> np.ndarray:
        """sum_k up_k d<Z_k>/d(theta_q) per patch for a block: (n, 4, P), up is (n, 4, P)."""
        n, p = r.shape[0], r.shape[-1]
        c = self._by_channel @ up  # rows (s0, s1, s2, s3)
        s3 = _pauli_sum(c.reshape(n, 27, 3, 1, p), r[:, 3])  # rows (s0, s1, s2)
        s32 = _pauli_sum(s3.reshape(n, 9, 3, 1, p), r[:, 2])  # rows (s0, s1)
        p0 = _pauli_sum(c.reshape(n, 1, 3, 27, p), r[:, 0])  # rows (s1, s2, s3)
        p01 = _pauli_sum(p0.reshape(n, 1, 3, 9, p), r[:, 1])  # rows (s2, s3)
        # per qubit, the (3, P) coefficients left once every other qubit is contracted
        rest = np.empty((n, N_QUBITS, 3, p))
        rest[:, 0] = _pauli_sum(s32.reshape(n, 3, 3, 1, p), r[:, 1])[:, :, 0]
        rest[:, 1] = _pauli_sum(s32.reshape(n, 1, 3, 3, p), r[:, 0])[:, 0]
        rest[:, 2] = _pauli_sum(p01.reshape(n, 3, 3, 1, p), r[:, 3])[:, :, 0]
        rest[:, 3] = _pauli_sum(p01.reshape(n, 1, 3, 3, p), r[:, 2])[:, 0]
        grad = rest[:, :, 1] * r[:, :, 2]
        grad -= rest[:, :, 2] * r[:, :, 1]
        return grad

    def forward(self, image: np.ndarray) -> np.ndarray:
        """Feature map of an (H, W) image, (H/2, W/2, 4), or of an (N, H, W) stack."""
        image, stack = _patch_stack(image)
        z = np.empty((len(stack), N_QUBITS, stack.shape[1]))
        for start, r in _factor_blocks(stack):
            z[start : start + len(r)] = self._readout(r)
        hp, wp = image.shape[-2] // 2, image.shape[-1] // 2
        # rounding can take |<Z_k>| past 1 by ~1e-16; the contract is [-1, 1]
        fmap = np.ascontiguousarray(np.clip(z, -1.0, 1.0).swapaxes(1, 2))
        return fmap.reshape(image.shape[:-2] + (hp, wp, N_QUBITS))

    def input_gradient(self, image: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        """Pixel gradient for a given feature-map cotangent, of the image's shape.

        Each pixel drives exactly one encoding angle of one patch, so the
        chain rule reduces to pi * sum_k upstream_k * d<Z_k>/d(theta_q).
        """
        image, stack = _patch_stack(image)
        hp, wp = image.shape[-2] // 2, image.shape[-1] // 2
        expected = image.shape[:-2] + (hp, wp, N_QUBITS)
        upstream = np.asarray(upstream, dtype=float)
        if upstream.shape != expected:
            raise ValueError(f"upstream shape {upstream.shape} does not match the feature map {expected}")
        up = np.ascontiguousarray(upstream.reshape(stack.shape).swapaxes(1, 2))
        grad = np.empty(up.shape)
        for start, r in _factor_blocks(stack):
            grad[start : start + len(r)] = self._gradient(r, up[start : start + len(r)])
        grad *= np.pi
        return from_patches(grad.swapaxes(1, 2), hp, wp).reshape(image.shape)


# ---------------------------------------------------------------------------
# Disk cache for frozen-extractor feature maps
# ---------------------------------------------------------------------------
# Record layout, little endian: u32 image index, 32-byte extractor
# fingerprint digest, then the 784 feature values as f8.

_FEATURES_PER_RECORD = 14 * 14 * 4
_RECORD = np.dtype([("index", "<u4"), ("digest", "S32"), ("features", "<f8", (_FEATURES_PER_RECORD,))])


def write_feature_cache(
    path, fingerprint_hex: str, indices: np.ndarray, feature_maps: np.ndarray
) -> None:
    digest = bytes.fromhex(fingerprint_hex)
    if len(digest) != 32:
        raise ValueError("fingerprint must be a 32-byte hex digest")
    indices = np.asarray(indices)
    maps = np.asarray(feature_maps, dtype=float).reshape(len(indices), -1)
    if maps.shape[1] != _FEATURES_PER_RECORD:
        raise ValueError(f"each record must hold {_FEATURES_PER_RECORD} features")
    if indices.size and not (indices.min() >= 0 and indices.max() < 2**32):
        raise ValueError("image indices must fit in an unsigned 32-bit integer")
    records = np.empty(len(indices), dtype=_RECORD)
    records["index"] = indices
    records["digest"] = digest
    records["features"] = maps
    with open(path, "wb") as fh:
        records.tofile(fh)


def read_feature_cache(path, expected_fingerprint_hex: str | None = None):
    """Load cached maps as {image index: (14, 14, 4) array}, plus the digest."""
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size % _RECORD.itemsize:
            raise ValueError(f"feature cache {path} is truncated")
        records = np.fromfile(fh, dtype=_RECORD)
    digests = records["digest"]
    if np.any(digests != digests[:1]):
        raise ValueError("feature cache mixes records from different extractors")
    # an S32 item drops trailing zero bytes; the raw buffer keeps all 32
    digest_hex = digests[:1].tobytes().hex() if len(records) else None
    if expected_fingerprint_hex is not None and digest_hex != expected_fingerprint_hex:
        raise ValueError("feature cache was written by a different extractor")
    features = records["features"].reshape(-1, 14, 14, 4)
    return dict(zip(records["index"].tolist(), features)), digest_hex
