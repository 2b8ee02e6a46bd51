"""Quanvolutional feature extraction.

An even-sided grayscale image is cut into 2x2 patches at stride 2 (see
:mod:`quanvrob.patches`).  Pixel q of a patch, row-major (top-left -> qubit
0, top-right -> 1, bottom-left -> 2, bottom-right -> 3), is angle-encoded as
Ry(theta_q)|0> with theta_q = pi * p_q, the fixed filter circuit U is
applied, and the Pauli-Z expectation of qubit k becomes channel k of the
output map.  A 28x28 image therefore produces a 14x14x4 feature map with
entries in [-1, 1].

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
forward pass contracts it with r(theta_q) one qubit at a time, qubit 0
first.  The exact derivative of <Z_k> with respect to theta_q swaps qubit
q's factor for r'(theta) = (0, cos theta, -sin theta); the pixel gradient
carries a further factor pi.  The gate-level simulator ``qsim`` only builds
the 16x16 unitary U for the compiler; no complex number is touched after
that.
"""

from __future__ import annotations

import struct

import numpy as np

from .ansatz import Ansatz
from .patches import from_patches, to_patches
from .qsim import StateVector, run_program

N_QUBITS = 4

# I, X and Z: the Pauli matrices whose expectation on Ry(theta)|0> is
# 1, sin(theta) and cos(theta), in the table's axis order
_PAULIS = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])


def _check_image(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image, dtype=float)
    # written so that NaN fails the comparison
    if not np.all((image >= 0.0) & (image <= 1.0)):
        raise ValueError("image pixels must be finite and lie in [0, 1]")
    return image


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


def _factors(thetas: np.ndarray) -> np.ndarray:
    """r(theta) = (1, sin theta, cos theta) per qubit and patch, shape (4, P, 3)."""
    t = thetas.T
    return np.stack([np.ones_like(t), np.sin(t), np.cos(t)], axis=-1)


class QuanvExtractor:
    """Frozen quanvolutional feature extractor for one filter circuit."""

    def __init__(self, ansatz: Ansatz):
        if ansatz.n_qubits != N_QUBITS:
            raise ValueError(f"filter circuit must use {N_QUBITS} qubits, got {ansatz.n_qubits}")
        self.ansatz = ansatz
        self.kind = f"qunn_{ansatz.kind.value}"
        self.seed = ansatz.seed
        self.table = _pauli_table(_ansatz_unitary(ansatz))

    @property
    def fingerprint(self) -> str:
        return self.ansatz.fingerprint()

    def _readout(self, factors) -> np.ndarray:
        """Contract the table with one (P, 3) factor per qubit, qubit 0 first: (P, 4)."""
        n = factors[0].shape[0]
        out = factors[0] @ self.table.reshape(3, -1)
        for f in factors[1:]:
            out = np.einsum("pa,pab->pb", f, out.reshape(n, 3, -1))
        return out

    def forward(self, image: np.ndarray) -> np.ndarray:
        image = _check_image(image)
        factors = _factors(np.pi * to_patches(image))
        hp, wp = image.shape[0] // 2, image.shape[1] // 2
        # rounding can take |<Z_k>| past 1 by ~1e-16; the contract is [-1, 1]
        return np.clip(self._readout(factors), -1.0, 1.0).reshape(hp, wp, N_QUBITS)

    def input_gradient(self, image: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        """Pixel gradient for a given feature-map cotangent.

        Each pixel drives exactly one encoding angle of one patch, so the
        chain rule reduces to pi * sum_k upstream_k * d<Z_k>/d(theta_q).
        """
        image = _check_image(image)
        factors = _factors(np.pi * to_patches(image))
        hp, wp = image.shape[0] // 2, image.shape[1] // 2
        upstream = np.asarray(upstream, dtype=float)
        if upstream.shape != (hp, wp, N_QUBITS):
            raise ValueError(
                f"upstream shape {upstream.shape} does not match feature map "
                f"{(hp, wp, N_QUBITS)}"
            )
        up = upstream.reshape(-1, N_QUBITS)
        derivatives = factors[..., [0, 2, 1]] * (0.0, 1.0, -1.0)  # (0, cos, -sin)
        grad_patch = np.empty((hp * wp, N_QUBITS))
        for q in range(N_QUBITS):
            swapped = [derivatives[q] if i == q else factors[i] for i in range(N_QUBITS)]
            grad_patch[:, q] = np.pi * np.sum(up * self._readout(swapped), axis=1)
        return from_patches(grad_patch, hp, wp)


# ---------------------------------------------------------------------------
# Disk cache for frozen-extractor feature maps
# ---------------------------------------------------------------------------
# Record layout, little endian: u32 image index, 32-byte extractor
# fingerprint digest, then the 784 feature values as f8.

_RECORD_HEAD = struct.Struct("<I32s")
_FEATURES_PER_RECORD = 14 * 14 * 4
_RECORD_SIZE = _RECORD_HEAD.size + 8 * _FEATURES_PER_RECORD


def write_feature_cache(
    path, fingerprint_hex: str, indices: np.ndarray, feature_maps: np.ndarray
) -> None:
    digest = bytes.fromhex(fingerprint_hex)
    if len(digest) != 32:
        raise ValueError("fingerprint must be a 32-byte hex digest")
    maps = np.asarray(feature_maps, dtype=float).reshape(len(indices), -1)
    if maps.shape[1] != _FEATURES_PER_RECORD:
        raise ValueError(f"each record must hold {_FEATURES_PER_RECORD} features")
    with open(path, "wb") as fh:
        for index, row in zip(indices, maps):
            fh.write(_RECORD_HEAD.pack(int(index), digest))
            fh.write(row.astype("<f8").tobytes())


def read_feature_cache(path, expected_fingerprint_hex: str | None = None):
    """Load cached maps as {image index: (14, 14, 4) array}, plus the digest."""
    raw = open(path, "rb").read()
    if len(raw) % _RECORD_SIZE:
        raise ValueError(f"feature cache {path} is truncated")
    maps: dict[int, np.ndarray] = {}
    digest_hex = None
    for off in range(0, len(raw), _RECORD_SIZE):
        index, digest = _RECORD_HEAD.unpack_from(raw, off)
        if digest_hex is None:
            digest_hex = digest.hex()
        elif digest.hex() != digest_hex:
            raise ValueError("feature cache mixes records from different extractors")
        values = np.frombuffer(
            raw, dtype="<f8", count=_FEATURES_PER_RECORD, offset=off + _RECORD_HEAD.size
        )
        maps[index] = values.reshape(14, 14, 4).copy()
    if expected_fingerprint_hex is not None and digest_hex != expected_fingerprint_hex:
        raise ValueError("feature cache was written by a different extractor")
    return maps, digest_hex
