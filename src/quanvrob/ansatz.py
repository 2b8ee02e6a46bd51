"""Fixed random filter circuits with five entanglement layouts.

Every ansatz starts with one composed z-y-z rotation per qubit, followed by
a layout-specific block of ZZ couplings:

  no_ent     no two-qubit gates
  zz_full    all qubit pairs (p < q), n(n-1)/2 couplings
  zz_linear  nearest neighbours (p, p+1), n-1 couplings
  zz_star    qubit 0 coupled to every other qubit, n-1 couplings
  random     one uniformly drawn single-qubit rotation per qubit plus a
             single ZZ coupling on a uniformly drawn pair

All angles are drawn uniformly from [0, 2*pi) by a generator seeded at
construction, so (kind, n_qubits, seed) fully determines the circuit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qsim import Gate, rot, rx, ry, rz, zz

TWO_PI = 2.0 * np.pi


class AnsatzKind(Enum):
    NO_ENT = "no_ent"
    ZZ_FULL = "zz_full"
    ZZ_LINEAR = "zz_linear"
    ZZ_STAR = "zz_star"
    RANDOM = "random"


@dataclass(frozen=True)
class Ansatz:
    kind: AnsatzKind
    n_qubits: int
    gates: tuple[Gate, ...]
    seed: int

    def fingerprint(self) -> str:
        return hashlib.sha256(to_text(self).encode()).hexdigest()


def _entangling_pairs(kind: AnsatzKind, n: int) -> list[tuple[int, int]]:
    if kind is AnsatzKind.ZZ_FULL:
        return [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    if kind is AnsatzKind.ZZ_LINEAR:
        return [(p, p + 1) for p in range(n - 1)]
    if kind is AnsatzKind.ZZ_STAR:
        return [(0, p) for p in range(1, n)]
    raise ValueError(f"{kind} has no fixed entangling block")


def build_ansatz(kind: AnsatzKind, n_qubits: int, seed: int) -> Ansatz:
    """Construct the seeded gate program for one layout."""
    minimum = 1 if kind is AnsatzKind.NO_ENT else 2
    if n_qubits < minimum:
        raise ValueError(f"{kind.value} needs at least {minimum} qubits, got {n_qubits}")
    rng = np.random.default_rng(seed)
    gates: list[Gate] = []
    if kind is AnsatzKind.RANDOM:
        # One single-qubit rotation per qubit with a random axis, then a
        # single coupling on a random pair.  Draw order is fixed: per qubit
        # the axis then the angle, then the pair, then the coupling angle.
        ctors = (rx, ry, rz)
        for q in range(n_qubits):
            ctor = ctors[int(rng.integers(3))]
            gates.append(ctor(q, float(rng.uniform(0.0, TWO_PI))))
        p, q = sorted(int(v) for v in rng.choice(n_qubits, size=2, replace=False))
        gates.append(zz(p, q, float(rng.uniform(0.0, TWO_PI))))
        return Ansatz(kind, n_qubits, tuple(gates), int(seed))
    for q in range(n_qubits):
        alpha, beta, gamma = rng.uniform(0.0, TWO_PI, size=3)
        gates.append(rot(q, float(alpha), float(beta), float(gamma)))
    if kind is not AnsatzKind.NO_ENT:
        for p, q in _entangling_pairs(kind, n_qubits):
            gates.append(zz(p, q, float(rng.uniform(0.0, TWO_PI))))
    return Ansatz(kind, n_qubits, tuple(gates), int(seed))


def angles_of(ansatz: Ansatz) -> np.ndarray:
    """All gate angles flattened in program order."""
    return np.array([a for g in ansatz.gates for a in g.angles], dtype=float)


def with_angles(ansatz: Ansatz, angles: np.ndarray) -> Ansatz:
    """Same gate structure with the flat angle vector replaced."""
    angles = np.asarray(angles, dtype=float).ravel()
    expected = sum(len(g.angles) for g in ansatz.gates)
    if angles.size != expected:
        raise ValueError(f"expected {expected} angles, got {angles.size}")
    gates = []
    pos = 0
    for g in ansatz.gates:
        k = len(g.angles)
        gates.append(Gate(g.kind, g.targets, tuple(angles[pos : pos + k])))
        pos += k
    return Ansatz(ansatz.kind, ansatz.n_qubits, tuple(gates), ansatz.seed)


def to_text(ansatz: Ansatz) -> str:
    """Replayable plain-text record: kind, size, seed and exact angles."""
    angle_text = ",".join(format(a, ".17g") for a in angles_of(ansatz))
    return (
        f"kind={ansatz.kind.value}\n"
        f"n_qubits={ansatz.n_qubits}\n"
        f"seed={ansatz.seed}\n"
        f"angles={angle_text}\n"
    )


def from_text(text: str) -> Ansatz:
    """Rebuild the ansatz from a record written by :func:`to_text`.

    The gate structure is reconstructed from (kind, n_qubits, seed) and the
    stored angles are then applied verbatim, so records survive angle edits.
    """
    fields: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed ansatz record line: {line!r}")
        key, value = line.split("=", 1)
        fields[key.strip()] = value.strip()
    for required in ("kind", "n_qubits", "seed", "angles"):
        if required not in fields:
            raise ValueError(f"ansatz record missing field {required!r}")
    kind = AnsatzKind(fields["kind"])
    rebuilt = build_ansatz(kind, int(fields["n_qubits"]), int(fields["seed"]))
    angles = np.array(
        [float(v) for v in fields["angles"].split(",") if v], dtype=float
    )
    return with_angles(rebuilt, angles)
