"""Simulator tests against independently built dense matrices.

The oracle here deliberately re-derives every gate as an explicit matrix
(Kronecker products, exp(-i*phi*Z@Z) = cos(phi)*I - i*sin(phi)*Z@Z) so it
shares no code with the per-gate application path in quanvrob.qsim.
"""

import numpy as np
import pytest

from quanvrob import qsim
from quanvrob.qsim import (
    Gate,
    GateKind,
    apply_gate,
    init_zero,
    measure_z,
    rot,
    run_program,
    rx,
    ry,
    rz,
    zz,
)

# ---------------------------------------------------------------------------
# Oracle: independent dense-matrix construction
# ---------------------------------------------------------------------------

_I2 = np.eye(2, dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _oracle_rx(t):
    return np.array(
        [[np.cos(t / 2), -1j * np.sin(t / 2)], [-1j * np.sin(t / 2), np.cos(t / 2)]]
    )


def _oracle_ry(t):
    return np.array([[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]])


def _oracle_rz(t):
    return np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])


def _embed_single(mat, qubit, n):
    """kron(I, ..., mat, ..., I) with qubit 0 on the most significant bit."""
    out = np.eye(1, dtype=complex)
    for q in range(n):
        out = np.kron(out, mat if q == qubit else _I2)
    return out


def _embed_zz(p, q, phi, n):
    zp_zq = np.eye(1, dtype=complex)
    for k in range(n):
        zp_zq = np.kron(zp_zq, _Z if k in (p, q) else _I2)
    return np.cos(phi) * np.eye(2**n) - 1j * np.sin(phi) * zp_zq


def oracle_unitary(gates, n):
    """Full 2^n x 2^n matrix product of the program, last gate leftmost."""
    u = np.eye(2**n, dtype=complex)
    for g in gates:
        if g.kind is GateKind.ZZ:
            mat = _embed_zz(g.targets[0], g.targets[1], g.angles[0], n)
        elif g.kind is GateKind.ROT:
            a, b, c = g.angles
            mat = _embed_single(_oracle_rz(a) @ _oracle_ry(b) @ _oracle_rz(c), g.targets[0], n)
        else:
            small = {GateKind.RX: _oracle_rx, GateKind.RY: _oracle_ry, GateKind.RZ: _oracle_rz}[
                g.kind
            ](g.angles[0])
            mat = _embed_single(small, g.targets[0], n)
        u = mat @ u
    return u


def oracle_expectation_z(gates, n, qubit):
    state = oracle_unitary(gates, n) @ np.eye(2**n, 1, dtype=complex).ravel()
    signs = np.array([1.0 if ((i >> (n - 1 - qubit)) & 1) == 0 else -1.0 for i in range(2**n)])
    return float(np.real(np.sum(signs * np.abs(state) ** 2)))


def random_program(rng, n, length):
    gates = []
    for _ in range(length):
        kind = rng.choice(["rx", "ry", "rz", "rot", "zz"])
        if kind == "zz" and n < 2:
            kind = "ry"
        if kind == "rot":
            gates.append(rot(rng.integers(n), *rng.uniform(0, 2 * np.pi, 3)))
        elif kind == "zz":
            p, q = rng.choice(n, size=2, replace=False)
            gates.append(zz(int(p), int(q), rng.uniform(0, 2 * np.pi)))
        else:
            ctor = {"rx": rx, "ry": ry, "rz": rz}[kind]
            gates.append(ctor(int(rng.integers(n)), rng.uniform(0, 2 * np.pi)))
    return gates


# ---------------------------------------------------------------------------
# init_zero
# ---------------------------------------------------------------------------


def test_init_zero_single_qubit():
    state = init_zero(1)
    assert np.allclose(state.amps, [1, 0])


def test_init_zero_four_qubits():
    state = init_zero(4)
    assert state.amps.shape == (16,)
    assert state.amps[0] == 1.0
    assert np.count_nonzero(state.amps) == 1


def test_init_zero_measures_plus_one():
    assert measure_z(init_zero(2), 0) == 1.0


@pytest.mark.parametrize("bad", [0, -1, 13])
def test_init_zero_rejects_bad_sizes(bad):
    with pytest.raises(ValueError):
        init_zero(bad)


# ---------------------------------------------------------------------------
# apply_gate
# ---------------------------------------------------------------------------


def test_ry_pi_flips_zero_to_one():
    state = apply_gate(init_zero(1), ry(0, np.pi))
    assert np.allclose(state.amps, [0, 1], atol=1e-12)


def test_rot_zero_angles_is_identity():
    rng = np.random.default_rng(7)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    state = qsim.StateVector(3, amps.copy())
    out = apply_gate(state, rot(1, 0.0, 0.0, 0.0))
    assert np.allclose(out.amps, amps, atol=1e-12)


def test_zz_on_zero_state_is_global_phase():
    phi = 0.77
    state = apply_gate(init_zero(2), zz(0, 1, phi))
    assert np.allclose(state.amps[0], np.exp(-1j * phi))
    assert measure_z(state, 0) == pytest.approx(1.0)
    assert measure_z(state, 1) == pytest.approx(1.0)


def test_apply_gate_rejects_bad_target():
    with pytest.raises(ValueError):
        apply_gate(init_zero(2), ry(2, 0.5))
    with pytest.raises(ValueError):
        apply_gate(init_zero(2), zz(0, 3, 0.5))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(GateKind.ZZ, (1, 1), (0.5,))
    with pytest.raises(ValueError):
        Gate(GateKind.ROT, (0,), (0.1, 0.2))
    with pytest.raises(ValueError):
        Gate(GateKind.RX, (0, 1), (0.1,))
    for angles in [(np.nan, 0.2, 0.3), (0.1, np.inf, 0.3), (0.1, 0.2, -np.inf)]:
        with pytest.raises(ValueError, match="finite"):
            rot(0, *angles)
    with pytest.raises(ValueError, match="finite"):
        rx(0, np.inf)


# ---------------------------------------------------------------------------
# measure_z
# ---------------------------------------------------------------------------


def test_measure_z_after_half_turn():
    state = apply_gate(init_zero(1), ry(0, np.pi / 2))
    # <Z> = cos(theta); cross-checked against the matrix oracle.
    assert measure_z(state, 0) == pytest.approx(0.0, abs=1e-12)
    assert oracle_expectation_z([ry(0, np.pi / 2)], 1, 0) == pytest.approx(0.0, abs=1e-12)


def test_measure_z_rot_after_encoding_closed_form():
    # For Rot(a, b, c) . Ry(t) |0> the closed form is
    #   <Z> = cos(t) cos(b) - sin(t) sin(b) cos(c)
    # (c is the z-rotation applied first, adjacent to the encoding; the
    # outer z-rotation a only adds phases after the mixing and drops out).
    rng = np.random.default_rng(11)
    for _ in range(25):
        t, a, b, c = rng.uniform(0, 2 * np.pi, 4)
        program = [ry(0, t), rot(0, a, b, c)]
        expected = np.cos(t) * np.cos(b) - np.sin(t) * np.sin(b) * np.cos(c)
        assert oracle_expectation_z(program, 1, 0) == pytest.approx(expected, abs=1e-10)
        state = run_program(init_zero(1), program)
        assert measure_z(state, 0) == pytest.approx(expected, abs=1e-10)


def test_measure_z_rejects_bad_qubit():
    with pytest.raises(ValueError):
        measure_z(init_zero(2), 2)


def test_measure_z_bounds_random_programs():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        state = run_program(init_zero(n), random_program(rng, n, int(rng.integers(1, 10))))
        for q in range(n):
            assert -1.0 <= measure_z(state, q) <= 1.0


# ---------------------------------------------------------------------------
# run_program
# ---------------------------------------------------------------------------


def test_empty_program_is_identity():
    state = init_zero(3)
    out = run_program(state, [])
    assert np.array_equal(out.amps, state.amps)


def test_ry_rotations_compose_additively():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b = rng.uniform(-np.pi, np.pi, 2)
        split = run_program(init_zero(1), [ry(0, a), ry(0, b)])
        joint = run_program(init_zero(1), [ry(0, a + b)])
        assert np.allclose(split.amps, joint.amps, atol=1e-12)


def test_run_program_matches_kronecker_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        gates = random_program(rng, n, int(rng.integers(1, 13)))
        state = run_program(init_zero(n), gates)
        expected = oracle_unitary(gates, n)[:, 0]
        assert np.allclose(state.amps, expected, atol=1e-10)


def test_norm_preserved_by_random_programs():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        state = run_program(init_zero(n), random_program(rng, n, 12))
        assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-10


def test_global_phase_invisible_to_measure_z():
    rng = np.random.default_rng(29)
    gates = random_program(rng, 3, 8)
    state = run_program(init_zero(3), gates)
    shifted = qsim.StateVector(3, state.amps * np.exp(1j * 0.4321))
    for q in range(3):
        assert measure_z(shifted, q) == pytest.approx(measure_z(state, q), abs=1e-12)
