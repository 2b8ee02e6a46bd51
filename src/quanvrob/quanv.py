"""Quanvolutional feature extraction.

An even-sided grayscale image is cut into 2x2 patches at stride 2 (see
:mod:`quanvrob.patches`).  Pixel q of a patch, row-major (top-left -> qubit
0, top-right -> 1, bottom-left -> 2, bottom-right -> 3), is angle-encoded as
Ry(theta_q)|0> with theta_q = pi * p_q, the fixed filter circuit U is
applied, and the Pauli-Z expectation of qubit k becomes channel k of the
output map.  A 28x28 image therefore produces a 14x14x4 feature map with
entries in [-1, 1]; an (N, H, W) stack produces (N, H/2, W/2, 4).

The filter is compiled once, when the extractor is built.  Each encoded
qubit has the density matrix (I + sin(theta) X + cos(theta) Z) / 2, so
expanding U^dag Z_k U in Pauli strings gives (Schuld, Sweke & Meyer 2021,
arXiv:2008.08605)

    <Z_k> = sum over s in {I, X, Z}^4 of  c[s, k] * prod_q r_{s_q}(theta_q),
    r(theta) = (r_I, r_X, r_Z) = (1, sin theta, cos theta),
    c[s, k] = Tr(P_s0 x P_s1 x P_s2 x P_s3 . U^dag Z_k U) / 16.

Strings holding Y drop out because <Y> = 0 on every encoded qubit.  The
table ``QuanvExtractor.table`` holds c with shape (3, 3, 3, 3, 4): axis q is
qubit q's Pauli in the order (I, X, Z), the last axis is the channel k.  The
gate-level simulator ``qsim`` only builds the 16x16 unitary U for the
compiler; no complex number is touched after that.

Snap floor.  Building U and tracing it against the strings leaves rounding
residue, at most 2.5e-16 over seeds 0-59 of the five layouts, where an entry
is exactly zero; their smallest real entry is 4.1e-4.  Entries no larger
than ``SNAP`` = 64 machine epsilons (1.4e-14) are set to exactly 0 in the
table, so a derivative that vanishes by structure comes out as exactly 0.

Term list.  The derivative in theta_q swaps qubit q's factor for
r'(theta) = (0, cos theta, -sin theta), so it is the table D_q whose qubit-q
(I, X, Z) entries are (0, -c_Z, c_X).  The extractor keeps only the M Pauli
strings that are nonzero in the table or in some D_q, as the rows of
``QuanvExtractor.terms`` (the Pauli index of each qubit), with the readout
coefficients of each channel and a (16, M) derivative matrix, rows (q, k).
Every layout's channel k reads only X_k and Z_k, so M = 8; a circuit with
rotations after its couplings has a dense table and M near 80.
``QuanvExtractor.support`` names the pixels each channel reads.

Evaluation.  The angles of each image are laid out as (4, P), qubit by
patch, with the patch axis last.  Per block of ``BLOCK`` images, the
monomials F[m] = prod_q r_{s_q}(theta_q) of the M strings, (n, M, P), are
built from one gather of the factors r_{s_q} per qubit.  The forward pass adds coefficient times F elementwise, in
rounds: round j adds the j-th term of every channel, so each channel sums
its terms in one fixed order.  A patch's features then do not depend on how
many patches share the call, and a stack gives bitwise the results of its
images one at a time.  A matrix product would not: it hands a one-patch
image to a matrix-vector routine, which rounds differently.  The input
gradient is one product of the derivative matrix with F, whose channels are
then summed against the upstream cotangent elementwise, times the pi of
d(theta)/d(pixel).  For a one-patch image the last bit of that product can
differ from that of the same patch in a larger image.  The sine is taken as
sin(pi * min(p, 1 - p)): 1 - p is exact for p >= 1/2, so a derivative that
vanishes at pixel 1 by structure comes out as exactly 0, as at pixel 0.

Encoding memo.  A model gradient calls ``forward`` and then
``input_gradient`` on the same pixels.  The extractor keeps the encoding of
the last image it saw, keyed by the float64 image's shape and bytes: the
image and feature-map shapes and the list of F blocks, M * P * 8 bytes per
image (12.5 KB for a 28x28 image at M = 8) besides the key's copy of the
pixels.  A call on equal bytes skips the range check, which those pixels
passed, the patches, sin/cos and the gathers, and returns the same bits as
a cold call; a stored F is never written.  A key of identity would reuse
the encoding of pixels changed in place, and an element-wise compare
against a stored copy cost more than the bytes.  There is no fused
forward-and-gradient method: the memo keeps the two-call surface that
``models.Model`` and wrappers of an extractor rely on.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .ansatz import Ansatz
from .patches import from_patches, to_patches
from .qsim import StateVector, run_program

N_QUBITS = 4
BLOCK = 4  # images per contraction block
SNAP = 64 * np.finfo(float).eps  # table entries at most this large are rounding residue

# I, X and Z: the Pauli matrices whose expectation on Ry(theta)|0> is
# 1, sin(theta) and cos(theta), in the table's axis order
_PAULIS = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])
# r'(theta) = (0, cos theta, -sin theta) = _DR @ r(theta)
_DR = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])


def _patch_stack(image: np.ndarray):
    """The image's patches as an (N, P, 4) stack, and the shape of its feature map."""
    patches = to_patches(image)
    fmap_shape = image.shape[:-2] + (image.shape[-2] // 2, image.shape[-1] // 2, N_QUBITS)
    return patches.reshape(-1, *patches.shape[-2:]), fmap_shape


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
    table /= 2**N_QUBITS
    table[np.abs(table) <= SNAP] = 0.0
    return table


class QuanvExtractor:
    """Frozen quanvolutional feature extractor for one filter circuit."""

    def __init__(self, ansatz: Ansatz):
        if ansatz.n_qubits != N_QUBITS:
            raise ValueError(f"filter circuit must use {N_QUBITS} qubits, got {ansatz.n_qubits}")
        self.ansatz = ansatz
        self.kind = f"qunn_{ansatz.kind.value}"
        self.seed = ansatz.seed
        self.table = _pauli_table(_ansatz_unitary(ansatz))
        # D_q, shape (4, 3, 3, 3, 3, 4): qubit q's factor r swapped for r'
        derivs = np.stack([np.moveaxis(np.tensordot(_DR, self.table, (0, q)), 0, q) for q in range(N_QUBITS)])
        used = np.any(self.table != 0, axis=-1) | np.any(derivs != 0, axis=(0, -1))
        self.terms = np.argwhere(used)  # (M, 4)
        strings = tuple(self.terms.T)
        self._rows = (self.terms + 3 * np.arange(N_QUBITS)).T.copy()  # row 3 q + s_q of r, per qubit
        self._deriv = derivs[(slice(None),) + strings].transpose(0, 2, 1).reshape(N_QUBITS**2, len(self.terms))
        # the readout in rounds: round j holds each channel's j-th term, with
        # coefficient 0 once the channel has none left
        readout = self.table[strings].T
        order = np.argsort(readout == 0, axis=1, kind="stable")[:, : np.count_nonzero(readout, axis=1).max()]
        self._round_terms = order.T.copy()
        self._round_coefs = np.take_along_axis(readout, order, axis=1).T[..., None].copy()
        self._last = None  # (key, encoding) of the last image encoded, see _encode

    @property
    def fingerprint(self) -> str:
        return self.ansatz.fingerprint()

    @property
    def support(self) -> tuple[frozenset[int], ...]:
        """Per channel, the pixels of a patch it reads: the qubits of its strings that are not I."""
        # reads[k, m, q]: string m enters channel k and is not I on qubit q
        reads = (self.table[tuple(self.terms.T)].T != 0)[:, :, None] & (self.terms != 0)
        return tuple(frozenset(np.flatnonzero(row.any(axis=0)).tolist()) for row in reads)

    def _encode(self, image: np.ndarray):
        """The image's shape, its feature map's shape and the monomials F per block of ``BLOCK`` images.

        F[n, m] = prod_q r_{s_q}(theta_q), with r = (1, sin, cos), of every
        kept string over the patches: (n, M, P).  The last encoding is
        reused for equal pixels (see "Encoding memo" above).
        """
        image = np.asarray(image, dtype=float)
        key = (image.shape, image.tobytes())
        last = self._last
        if last is not None and last[0] == key:
            return last[1]
        patches, fmap_shape = _patch_stack(image)
        pixels = patches.swapaxes(1, 2)
        # min(p, 1 - p) is negative outside [0, 1] and NaN for NaN, so it also checks the range
        folded = np.minimum(pixels, 1.0 - pixels)
        if folded.size and not folded.min() >= 0.0:
            raise ValueError("image pixels must be finite and lie in [0, 1]")
        blocks = []
        for start in range(0, len(pixels), BLOCK):
            block = pixels[start : start + BLOCK]
            n = len(block)
            r = np.empty((n, N_QUBITS, 3, block.shape[-1]))
            r[:, :, 0] = 1.0
            # sin(pi p) = sin(pi (1 - p)); 1 - p is exact for p >= 1/2, so pixel 1 gives sin = 0 exactly
            np.sin(np.pi * folded[start : start + BLOCK], out=r[:, :, 1])
            np.cos(np.pi * block, out=r[:, :, 2])
            r = r.reshape(n, 3 * N_QUBITS, -1)
            f = np.take(r, self._rows[0], axis=1)
            for rows in self._rows[1:]:
                f *= np.take(r, rows, axis=1)
            blocks.append(f)
        encoding = image.shape, fmap_shape, blocks
        self._last = key, encoding
        return encoding

    def forward(self, image: np.ndarray) -> np.ndarray:
        """Feature map of an (H, W) image, (H/2, W/2, 4), or of an (N, H, W) stack."""
        _, fmap_shape, blocks = self._encode(image)
        z = np.zeros((math.prod(fmap_shape[:-3]), N_QUBITS, fmap_shape[-3] * fmap_shape[-2]))
        for start, f in zip(range(0, len(z), BLOCK), blocks):
            out = z[start : start + BLOCK]
            for terms, coefs in zip(self._round_terms, self._round_coefs):
                out += coefs * np.take(f, terms, axis=1)
        # rounding can take |<Z_k>| past 1 by ~1e-16; the contract is [-1, 1]
        fmap = np.ascontiguousarray(np.clip(z, -1.0, 1.0).swapaxes(1, 2))
        return fmap.reshape(fmap_shape)

    def input_gradient(self, image: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        """Pixel gradient for a given feature-map cotangent, of the image's shape.

        Each pixel drives exactly one encoding angle of one patch, so the
        chain rule reduces to pi * sum_k upstream_k * d<Z_k>/d(theta_q).
        """
        image_shape, fmap_shape, blocks = self._encode(image)
        upstream = np.asarray(upstream, dtype=float)
        if upstream.shape != fmap_shape:
            raise ValueError(f"upstream shape {upstream.shape} does not match the feature map {fmap_shape}")
        up = np.ascontiguousarray(upstream.reshape(math.prod(fmap_shape[:-3]), -1, N_QUBITS).swapaxes(1, 2))
        grad = np.zeros(up.shape)
        for start, f in zip(range(0, len(up), BLOCK), blocks):
            dz = (self._deriv @ f).reshape(len(f), N_QUBITS, N_QUBITS, -1)  # (n, q, k, P)
            u = up[start : start + BLOCK, None]
            out = grad[start : start + BLOCK]
            for k in range(N_QUBITS):
                out += dz[:, :, k] * u[:, :, k]
        grad *= np.pi
        return from_patches(grad.swapaxes(1, 2), *fmap_shape[-3:-1]).reshape(image_shape)


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
