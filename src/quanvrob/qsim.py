"""Gates of the filter circuits, and dense statevector simulation for small qubit registers.

The gates (``Gate`` and its constructors) are what ``quanvrob.ansatz``
builds and ``quanvrob.quanv`` compiles.  The statevector half (``StateVector``,
``init_zero``, ``apply_gate``, ``run_program``, ``measure_z``) is on no
runtime path: it serves only as an oracle, for the tests and for the
benchmark's correctness gate.

Basis ordering is big-endian: qubit 0 occupies the most significant bit of
the amplitude index, so the basis state |q0 q1 ... q_{n-1}> lives at index
sum(q_k << (n - 1 - k)).  Gates are exact double-precision unitaries and
expectation values are computed without sampling.

Rotation convention: R_a(theta) = exp(-i * theta * sigma_a / 2).  The
composed rotation ROT(alpha, beta, gamma) is the matrix product
Rz(alpha) @ Ry(beta) @ Rz(gamma), so gamma is the first rotation applied
to the state.  The two-qubit coupling ZZ(phi) is exp(-i * phi * Z@Z): a
diagonal gate with phase exp(-i*phi) where the two target bits agree and
exp(+i*phi) where they differ.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

MAX_QUBITS = 12


class GateKind(Enum):
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    ROT = "rot"
    ZZ = "zz"


_ANGLE_COUNT = {
    GateKind.RX: 1,
    GateKind.RY: 1,
    GateKind.RZ: 1,
    GateKind.ROT: 3,
    GateKind.ZZ: 1,
}
_TARGET_COUNT = {
    GateKind.RX: 1,
    GateKind.RY: 1,
    GateKind.RZ: 1,
    GateKind.ROT: 1,
    GateKind.ZZ: 2,
}


@dataclass(frozen=True)
class Gate:
    """One gate of the program: a kind, target qubit(s) and angle(s)."""

    kind: GateKind
    targets: tuple[int, ...]
    angles: tuple[float, ...]

    def __post_init__(self) -> None:
        # operator.index takes integer scalars and rejects floats, which int() would
        # truncate; a Python bool is an int, so it is rejected by name
        if any(isinstance(t, bool) for t in self.targets):
            raise ValueError(f"gate targets must be integers, got {self.targets}")
        try:
            targets = tuple(operator.index(t) for t in self.targets)
        except TypeError:
            raise ValueError(f"gate targets must be integers, got {self.targets}") from None
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        if len(self.targets) != _TARGET_COUNT[self.kind]:
            raise ValueError(
                f"{self.kind.value} expects {_TARGET_COUNT[self.kind]} target(s), "
                f"got {self.targets}"
            )
        if len(self.angles) != _ANGLE_COUNT[self.kind]:
            raise ValueError(
                f"{self.kind.value} expects {_ANGLE_COUNT[self.kind]} angle(s), "
                f"got {self.angles}"
            )
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"gate targets must be distinct, got {self.targets}")
        if any(t < 0 for t in self.targets):
            raise ValueError(f"gate targets must be non-negative, got {self.targets}")
        if not all(map(math.isfinite, self.angles)):
            raise ValueError(f"gate angles must be finite, got {self.angles}")


def rx(target: int, theta: float) -> Gate:
    return Gate(GateKind.RX, (target,), (theta,))


def ry(target: int, theta: float) -> Gate:
    return Gate(GateKind.RY, (target,), (theta,))


def rz(target: int, theta: float) -> Gate:
    return Gate(GateKind.RZ, (target,), (theta,))


def rot(target: int, alpha: float, beta: float, gamma: float) -> Gate:
    return Gate(GateKind.ROT, (target,), (alpha, beta, gamma))


def zz(p: int, q: int, phi: float) -> Gate:
    return Gate(GateKind.ZZ, (p, q), (phi,))


@dataclass
class StateVector:
    """Complex amplitudes of an n-qubit register, unit L2 norm."""

    n_qubits: int
    amps: np.ndarray


def init_zero(n_qubits: int) -> StateVector:
    """All-zeros computational basis state |0...0>."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _rx_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _rz_matrix(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-1j * theta / 2), 0.0], [0.0, np.exp(1j * theta / 2)]],
        dtype=np.complex128,
    )


def _single_qubit_matrix(gate: Gate) -> np.ndarray:
    if gate.kind is GateKind.RX:
        return _rx_matrix(gate.angles[0])
    if gate.kind is GateKind.RY:
        return _ry_matrix(gate.angles[0])
    if gate.kind is GateKind.RZ:
        return _rz_matrix(gate.angles[0])
    if gate.kind is GateKind.ROT:
        alpha, beta, gamma = gate.angles
        return _rz_matrix(alpha) @ _ry_matrix(beta) @ _rz_matrix(gamma)
    raise ValueError(f"{gate.kind.value} is not a single-qubit gate")


def _check_targets(state: StateVector, gate: Gate) -> None:
    for t in gate.targets:
        if t >= state.n_qubits:
            raise ValueError(
                f"gate target {t} out of range for {state.n_qubits}-qubit state"
            )


def _bit(indices: np.ndarray, n_qubits: int, qubit: int) -> np.ndarray:
    return (indices >> (n_qubits - 1 - qubit)) & 1


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate and return the new state (the input is not mutated)."""
    _check_targets(state, gate)
    n = state.n_qubits
    if gate.kind is GateKind.ZZ:
        p, q = gate.targets
        phi = gate.angles[0]
        idx = np.arange(state.amps.size)
        same = _bit(idx, n, p) == _bit(idx, n, q)
        phase = np.where(same, np.exp(-1j * phi), np.exp(1j * phi))
        return StateVector(n, state.amps * phase)
    mat = _single_qubit_matrix(gate)
    (q,) = gate.targets
    tensor = state.amps.reshape((2,) * n)
    tensor = np.moveaxis(np.tensordot(mat, tensor, axes=([1], [q])), 0, q)
    return StateVector(n, np.ascontiguousarray(tensor).reshape(-1))


def run_program(state: StateVector, gates: Iterable[Gate]) -> StateVector:
    """Left-to-right application of a gate sequence."""
    out = state
    for gate in gates:
        out = apply_gate(out, gate)
    return out


def measure_z(state: StateVector, qubit: int) -> float:
    """Exact Pauli-Z expectation of one qubit: sum of +-|amp|^2."""
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(
            f"qubit {qubit} out of range for {state.n_qubits}-qubit state"
        )
    idx = np.arange(state.amps.size)
    signs = 1.0 - 2.0 * _bit(idx, state.n_qubits, qubit)
    value = float(np.dot(signs, np.abs(state.amps) ** 2))
    # |value| can exceed 1 by ~1e-16 from rounding; the contract is [-1, 1].
    return float(np.clip(value, -1.0, 1.0))
