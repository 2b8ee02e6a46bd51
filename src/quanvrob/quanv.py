"""Quanvolutional feature extraction.

An even-sided grayscale image is read as 2x2 patches at stride 2 (see
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
qubit q's Pauli in the order (I, X, Z), the last axis is the channel k.

Compile.  The table comes from Z_k by Heisenberg propagation (Bermejo et al.
2024, arXiv:2408.12739), in real Pauli coefficients.  Every gate is a
sequence of Pauli rotations exp(-i theta S / 2): ROT(alpha, beta, gamma)
meets the state as Rz(gamma), then Ry(beta), then Rz(alpha), and ZZ(phi) is
S = Z x Z with theta = 2 phi.  Walking the rotations last-first, a string P
that commutes with S is kept and one that anticommutes becomes
cos(theta) P - i sin(theta) P S, where -i P S is +-1 times a string; the
strings holding Y are sliced away at the end.  A string onto which no
rotation moves weight keeps the coefficient 0 exactly, so the zeros are
exact by structure, with no rounding residue to clear.  Every layout ends in
its ZZ gates, which commute with every Z_k, so ``zz_full``, ``zz_linear`` and
``zz_star`` compile to the table of ``no_ent`` for the same seed, bit for
bit.  No complex number and no simulation is used.

Term list.  The derivative in theta_q swaps qubit q's factor for
r'(theta) = (0, cos theta, -sin theta), so it is the table D_q whose qubit-q
(I, X, Z) entries are (0, -c_Z, c_X).  The extractor keeps only the M Pauli
strings that are nonzero in the table or in some D_q, as the rows of
``QuanvExtractor.terms`` (the Pauli index of each qubit), ordered by
descending weight, the number of qubits that are not I.  With them go the
readout coefficients of each channel and a (16, M) derivative matrix, rows
(q, k).  The all-I string never appears: U^dag Z_k U is traceless and every
D_q is 0 on it.  Every layout's channel k reads only X_k and Z_k, so M = 8
strings of weight 1; a circuit with rotations after its couplings has a
dense table and M near 80.  ``QuanvExtractor.support`` names the pixels each
channel reads.

Evaluation.  :func:`quanvrob.patches.planes` shows an (N, H, W) stack as
its (N, 2, 2, H/2, W/2) pixel planes, a view: plane (a, b) holds qubit
2a + b of every patch.  The sine and cosine of each angle come from one
tangent.  With the fold p' = min(p, 1 - p) and t = tan(pi p' / 2), which
lies in [0, 1], the half-angle identities give

    sin(pi p) = 2t / (1 + t^2),    cos(pi p) = +-(1 - t^2) / (1 + t^2),

with - where p > 1/2.  Reshaping the planes to (N, 4, P) copies the
pixels once into patch order, so every step runs on contiguous arrays and
each quotient is written once into its half of an (N, 2, 4, P) factor
block, sin then cos, qubit by patch with the patch axis last.  The
monomials F[n, m] = prod_q r_{s_q}(theta_q), (N, M, P), need only the
non-identity factors of each string, taken in qubit order; r_I = 1 would
only multiply by 1.  Since the strings are ordered by weight, those with a
j-th factor are a prefix of F, so F is one gather of every string's first
factor followed by one gathered product per further factor on that
prefix: for M = 8 F is the single gather.  The whole stack is encoded in
one pass.

One tangent per pixel.  1 - p is exact for p >= 1/2, so pixel 0 gives
(sin, cos) = (0, 1) and pixel 1 gives (0, -1) exactly, and a derivative
that vanishes there by structure comes out as exactly 0.  Against mpmath's
sinpi and cospi the error is at most 3.2e-16 over the 1e-5 grid of [0, 1],
k/255 and k/255 +- multiples of 0.025, where libm's sin and cos err by up
to 1.3e-16 and 3.1e-16; the tests hold it to 4.5e-16.  The reason is cost:
with numpy 2.4.6 on an AVX-512 CPU, contiguous float64 np.tan takes about
2.7 ns per element through SVML, against about 13 for np.sin and 10 for
np.cos, and about 19 each on the strided plane views the two used to read.
A cold encoding of ten 28x28 images, memo key and gather included, fell
from about 120 to 75 µs for benchmark digits and from about 215 to 90 µs
for uniform pixels.  A numpy built without SVML takes np.tan from scalar
libm, but still makes one transcendental call per pixel instead of two.

The forward pass gathers each channel's terms into an (N, R, 4, P) block,
R the most terms of any channel, padded with coefficient 0, scales it by
the coefficients and reduces its R axis.  numpy adds the slices of an axis
that is not the innermost one in order, from 0, so each channel sums its
terms in lexicographic string order, whatever their order in F.  A
patch's features then do not depend on how many patches share the call,
and a stack gives bitwise the results of its images one at a time.  A
matrix product would not: it hands a one-patch image to a matrix-vector
routine, which rounds differently, and a reduction over the innermost
axis sums pairwise.  The features are clipped straight into
the channel-last feature map.  The input gradient is one product of the
derivative matrix with F, whose channels are then summed against the
upstream cotangent elementwise, in channel order, and times the pi of
d(theta)/d(pixel) written straight into the image's pixel planes.  For a
one-patch image the last bit of that product can differ from that of the
same patch in a larger image.

Encoding memo.  A model gradient calls ``forward`` and then
``input_gradient`` on the same pixels, and an experiment grid scores the
same stacks on every filter: a transfer matrix puts each source's
adversarials through all five layouts.  F depends only on the pixels and on
the strings in ``terms``, and every layout compiles to the same 8 strings,
so one memo in this module serves every extractor.  It holds the encoding of
the last stack encoded, keyed by the extractor's term list, the float64
image's shape and its bytes.  One entry is enough because the repeats come
back to back: a model gradient at the stack the model last computed or last
served, such as an attack's clean starting stack, does not reach the
extractor at all, since ``models.Model`` answers it from its own two-entry
gradient memo, and a second entry for the stack before last saves no
encoding on the benchmark's workloads.  The entry is the image and
feature-map shapes and F,
M * P * 8 bytes per image (12.5 KB for a 28x28 image at M = 8, 125 KB at
M = 80), besides the key's copy of the pixels (6.1 KB).  A call on an equal key
skips the range check, which only pixels that passed it enter, the tangents
and the gathers, and returns the same bits as a cold call; a stored F is
never written.  The memo is one (key, encoding) tuple that a call reads once
and replaces whole, never mutates, so a concurrent caller can only miss.  A
key of identity would reuse the encoding of pixels changed in place, and an
element-wise compare against a stored copy cost more than the bytes.  There
is no fused forward-and-gradient method: the memo keeps the two-call surface
that ``models.Model`` and wrappers of an extractor rely on.
:func:`clear_memo` empties it.
"""

from __future__ import annotations

import numpy as np

from . import container
from .ansatz import Ansatz
from .patches import planes
from .qsim import GateKind

N_QUBITS = 4

# (key, encoding) of the last stack encoded, see "Encoding memo"; replaced whole, never mutated
_memo: tuple | None = None

# Pauli indices by bits, x then z: I, X, Z, Y = 0, 1, 2, 3, so that P_a P_b is
# i^_PHASE[a, b] times P_(a ^ b) and the table's (I, X, Z) axes are [:3]
_X, _Z, _Y = 1, 2, 3
_PHASE = np.array([[0, 0, 0, 0], [0, 0, 3, 1], [0, 1, 0, 3], [0, 3, 1, 0]])
# per gate kind, the Pauli of each angle's rotation on every target, in angle
# order: ROT(alpha, beta, gamma) = Rz(alpha) Ry(beta) Rz(gamma), walked last-first
_AXES = {GateKind.RX: (_X,), GateKind.RY: (_Y,), GateKind.RZ: (_Z,), GateKind.ROT: (_Z, _Y, _Z), GateKind.ZZ: (_Z,)}
# r'(theta) = (0, cos theta, -sin theta) = _DR @ r(theta)
_DR = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])


def _conjugate(obs: np.ndarray, s: tuple[int, ...], theta: float) -> np.ndarray:
    """U^dag O U for U = exp(-i theta S / 2), O given by its Pauli coefficients (4, 4, 4, 4, channel)."""
    # P_a S = i^e P_(a ^ s): the strings with odd e anticommute with S and become
    # cos(theta) P_a - i sin(theta) P_a S, where -i P_a S = (2 - e) P_(a ^ s)
    e = sum(np.ix_(*(_PHASE[:, q] for q in s))) % 4
    moved = ((2 - e)[..., None] * obs)[np.ix_(*(np.arange(4) ^ q for q in s))]
    return np.where((e % 2 == 1)[..., None], np.cos(theta) * obs + np.sin(theta) * moved, obs)


def _pauli_table(ansatz: Ansatz) -> np.ndarray:
    """Coefficients c[s0, s1, s2, s3, k] of U^dag Z_k U on the I, X, Z strings."""
    obs = np.zeros((4,) * N_QUBITS + (N_QUBITS,))
    for k in range(N_QUBITS):
        obs[(0,) * k + (_Z,) + (0,) * (N_QUBITS - 1 - k) + (k,)] = 1.0
    for gate in reversed(ansatz.gates):
        for pauli, angle in zip(_AXES[gate.kind], gate.angles):
            s = tuple(pauli if q in gate.targets else 0 for q in range(N_QUBITS))
            # ZZ(phi) = exp(-i phi Z x Z) is the rotation of theta = 2 phi
            obs = _conjugate(obs, s, 2.0 * angle if gate.kind is GateKind.ZZ else angle)
    # drop the strings holding Y, since <Y> = 0 on every encoded qubit; + 0.0 turns
    # each -0.0 left by cos(theta) * 0 into 0.0, so that equal tables have equal bytes
    return obs[(slice(3),) * N_QUBITS] + 0.0


def clear_memo() -> None:
    """Forget the stored encoding, so that the next call on any pixels encodes them."""
    global _memo
    _memo = None


class QuanvExtractor:
    """Frozen quanvolutional feature extractor for one filter circuit."""

    def __init__(self, ansatz: Ansatz):
        if ansatz.n_qubits != N_QUBITS:
            raise ValueError(f"filter circuit must use {N_QUBITS} qubits, got {ansatz.n_qubits}")
        self.ansatz = ansatz
        self.kind = f"qunn_{ansatz.kind.value}"
        self.seed = ansatz.seed
        self.table = _pauli_table(ansatz)
        # D_q, shape (4, 3, 3, 3, 3, 4): qubit q's factor r swapped for r'
        derivs = np.stack([np.moveaxis(np.tensordot(_DR, self.table, (0, q)), 0, q) for q in range(N_QUBITS)])
        used = np.any(self.table != 0, axis=-1) | np.any(derivs != 0, axis=(0, -1))
        terms = np.argwhere(used)
        # the readout: each channel's terms in lexicographic string order, the
        # order in which it sums them, padded with coefficient 0 to the longest
        readout = self.table[tuple(terms.T)].T
        order = np.argsort(readout == 0, axis=1, kind="stable")[:, : np.count_nonzero(readout, axis=1).max()]
        self._readout_coefs = np.take_along_axis(readout, order, axis=1).T[..., None].copy()  # (R, 4, 1)
        # strings by descending weight, so that the strings with a j-th
        # non-identity factor are a prefix; the all-I string is 0 in the table
        # and in every D_q, so every kept string has weight >= 1
        by_weight = np.argsort(-np.count_nonzero(terms, axis=1), kind="stable")
        self.terms = terms[by_weight]  # (M, 4)
        self._readout_terms = np.argsort(by_weight)[order.T]  # (R, 4), into self.terms
        # per string, the rows of its non-identity factors in qubit order, in
        # the (sin, cos) x qubit rows of _encode's factor block
        factors = [[N_QUBITS * (s - 1) + q for q, s in enumerate(term) if s] for term in self.terms.tolist()]
        width = max(map(len, factors), default=1)
        self._factors = [np.array([f[j] for f in factors if len(f) > j], dtype=np.intp) for j in range(width)]
        self._deriv = derivs[(slice(None),) + tuple(self.terms.T)].transpose(0, 2, 1).reshape(N_QUBITS**2, -1)
        self._terms_key = self.terms.tobytes()  # F depends on the extractor only through its strings

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
        """The image's shape, its feature map's shape and the monomials F of its patches.

        F[n, m, p] = prod_q r_{s_q}(theta_q), with r = (1, sin, cos), of every
        kept string m over the patches p of image n: (N, M, P).  Encodings
        are shared with every extractor of the same strings through the
        module's memo (see "Encoding memo" above).
        """
        global _memo
        image = np.asarray(image, dtype=float)
        key = (self._terms_key, image.shape, image.tobytes())
        memo = _memo
        if memo is not None and memo[0] == key:
            return memo[1]
        n, _, _, hp, wp = planes(image).shape
        # (N, 4, P) in patch order: a copy, except a view for images two pixels wide, so only read
        pixels = planes(image).reshape(n, N_QUBITS, hp * wp)
        # the fold p' = min(p, 1 - p) is negative outside [0, 1] and NaN for NaN, so it also checks the range
        folded = np.subtract(1.0, pixels)
        np.minimum(pixels, folded, out=folded)
        if folded.size and not folded.min() >= 0.0:
            raise ValueError("image pixels must be finite and lie in [0, 1]")
        # one tangent per pixel (see "One tangent per pixel"): t = tan(pi p'/2) in
        # [0, 1], sin(pi p) = 2t / (1 + t^2) and cos(pi p) = +-(1 - t^2) / (1 + t^2)
        t = np.tan(np.multiply(folded, np.pi / 2, out=folded), out=folded)
        t_sq = np.square(t)
        denom = t_sq + 1.0
        cos_num = np.subtract(1.0, t_sq, out=t_sq)
        np.copysign(cos_num, 0.5 - pixels, out=cos_num)  # - where p > 1/2
        t += t
        r = np.empty((n, 2, N_QUBITS, hp * wp))
        np.divide(t, denom, out=r[:, 0])
        np.divide(cos_num, denom, out=r[:, 1])
        r = r.reshape(n, 2 * N_QUBITS, hp * wp)
        f = np.take(r, self._factors[0], axis=1)
        for rows in self._factors[1:]:
            f[:, : len(rows)] *= np.take(r, rows, axis=1)
        encoding = image.shape, image.shape[:-2] + (hp, wp, N_QUBITS), f
        _memo = key, encoding
        return encoding

    def forward(self, image: np.ndarray) -> np.ndarray:
        """Feature map of an (H, W) image, (H/2, W/2, 4), or of an (N, H, W) stack."""
        _, fmap_shape, f = self._encode(image)
        terms = np.take(f, self._readout_terms, axis=1)  # (N, R, 4, P)
        terms *= self._readout_coefs
        # numpy reduces an axis that is not the innermost by adding its slices
        # in order, so each channel sums its terms in one order for any P
        z = np.add.reduce(terms, axis=1, initial=0.0)
        fmap = np.empty(fmap_shape)
        # rounding can take |<Z_k>| past 1 by ~1e-16; the contract is [-1, 1]
        np.clip(z, -1.0, 1.0, out=fmap.reshape(z.swapaxes(1, 2).shape).swapaxes(1, 2))
        return fmap

    def input_gradient(self, image: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        """Pixel gradient for a given feature-map cotangent, of the image's shape.

        Each pixel drives exactly one encoding angle of one patch, so the
        chain rule reduces to pi * sum_k upstream_k * d<Z_k>/d(theta_q).
        """
        image_shape, fmap_shape, f = self._encode(image)
        upstream = np.asarray(upstream, dtype=float)
        if upstream.shape != fmap_shape:
            raise ValueError(f"upstream shape {upstream.shape} does not match the feature map {fmap_shape}")
        n, n_patches = len(f), f.shape[-1]
        dz = (self._deriv @ f).reshape(n, N_QUBITS, N_QUBITS, n_patches)  # (N, q, k, P)
        dz *= upstream.reshape(n, n_patches, N_QUBITS).swapaxes(1, 2)[:, None]
        grad = np.add.reduce(dz, axis=2, initial=0.0)  # channels in order, as in forward
        out = np.empty(image_shape)
        view = planes(out)
        np.multiply(grad.reshape(view.shape), np.pi, out=view)
        return out


# ---------------------------------------------------------------------------
# Disk cache for frozen-extractor feature maps
# ---------------------------------------------------------------------------


def write_feature_cache(
    path, fingerprint_hex: str, indices: np.ndarray, feature_maps: np.ndarray
) -> None:
    indices = np.asarray(indices)
    if indices.dtype.kind not in "iu" or (indices.size and indices.min() < 0):
        raise ValueError("image indices must be non-negative integers")
    if np.unique(indices).size != indices.size:
        raise ValueError("image indices must be distinct")
    container.save(path, "feature_cache", {"fingerprint": fingerprint_hex}, indices=indices, maps=feature_maps)


def read_feature_cache(path, expected_fingerprint_hex: str | None = None):
    """Load cached maps as {image index: (hp, wp, C) array}, plus the extractor fingerprint."""
    header, arrays = container.load(path, "feature_cache")
    if expected_fingerprint_hex is not None and header["fingerprint"] != expected_fingerprint_hex:
        raise ValueError(f"feature cache {path} was written by a different extractor")
    maps = dict(zip(arrays["indices"].tolist(), arrays["maps"]))
    if len(maps) != len(arrays["indices"]):
        raise ValueError(f"feature cache {path} repeats an image index")
    return maps, header["fingerprint"]
