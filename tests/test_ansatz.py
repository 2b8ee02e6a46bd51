import numpy as np
import pytest

from quanvrob.ansatz import (
    Ansatz,
    AnsatzKind,
    angles_of,
    build_ansatz,
    from_text,
    to_text,
    with_angles,
)
from quanvrob.qsim import GateKind

ALL_KINDS = list(AnsatzKind)

# two-qubit gate counts at n = 4, per layout
EXPECTED_ZZ_COUNTS = {
    AnsatzKind.NO_ENT: 0,
    AnsatzKind.ZZ_FULL: 6,
    AnsatzKind.ZZ_LINEAR: 3,
    AnsatzKind.ZZ_STAR: 3,
    AnsatzKind.RANDOM: 1,
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_two_qubit_gate_counts(kind):
    ansatz = build_ansatz(kind, 4, seed=123)
    assert sum(g.kind is GateKind.ZZ for g in ansatz.gates) == EXPECTED_ZZ_COUNTS[kind]


def test_zz_full_structure():
    ansatz = build_ansatz(AnsatzKind.ZZ_FULL, 4, seed=0)
    kinds = [g.kind for g in ansatz.gates]
    assert kinds[:4] == [GateKind.ROT] * 4
    assert kinds[4:] == [GateKind.ZZ] * 6
    assert [g.targets[0] for g in ansatz.gates[:4]] == [0, 1, 2, 3]
    pairs = [g.targets for g in ansatz.gates[4:]]
    assert pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_zz_linear_pairs():
    ansatz = build_ansatz(AnsatzKind.ZZ_LINEAR, 4, seed=0)
    pairs = [g.targets for g in ansatz.gates if g.kind is GateKind.ZZ]
    assert pairs == [(0, 1), (1, 2), (2, 3)]


def test_zz_star_pairs():
    ansatz = build_ansatz(AnsatzKind.ZZ_STAR, 4, seed=0)
    pairs = [g.targets for g in ansatz.gates if g.kind is GateKind.ZZ]
    assert pairs == [(0, 1), (0, 2), (0, 3)]


def test_random_kind_structure():
    for seed in range(20):
        ansatz = build_ansatz(AnsatzKind.RANDOM, 4, seed=seed)
        single = [g for g in ansatz.gates if g.kind is not GateKind.ZZ]
        couplings = [g for g in ansatz.gates if g.kind is GateKind.ZZ]
        assert len(single) == 4
        assert len(couplings) == 1
        assert all(g.kind in (GateKind.RX, GateKind.RY, GateKind.RZ) for g in single)
        assert [g.targets[0] for g in single] == [0, 1, 2, 3]
        p, q = couplings[0].targets
        assert 0 <= p < q < 4


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_determinism(kind):
    a = build_ansatz(kind, 4, seed=99)
    b = build_ansatz(kind, 4, seed=99)
    assert a.gates == b.gates
    assert np.array_equal(angles_of(a), angles_of(b))
    assert to_text(a) == to_text(b)


def test_different_seeds_differ():
    a = build_ansatz(AnsatzKind.ZZ_FULL, 4, seed=1)
    b = build_ansatz(AnsatzKind.ZZ_FULL, 4, seed=2)
    assert not np.array_equal(angles_of(a), angles_of(b))


def test_angles_in_range():
    for kind in ALL_KINDS:
        for seed in range(5):
            angles = angles_of(build_ansatz(kind, 4, seed=seed))
            assert np.all(angles >= 0.0)
            assert np.all(angles < 2 * np.pi)


def test_angle_counts():
    assert angles_of(build_ansatz(AnsatzKind.NO_ENT, 4, 0)).size == 12
    assert angles_of(build_ansatz(AnsatzKind.ZZ_FULL, 4, 0)).size == 18
    assert angles_of(build_ansatz(AnsatzKind.ZZ_LINEAR, 4, 0)).size == 15
    assert angles_of(build_ansatz(AnsatzKind.RANDOM, 4, 0)).size == 5


def test_with_angles_round_trip():
    ansatz = build_ansatz(AnsatzKind.ZZ_STAR, 4, seed=5)
    same = with_angles(ansatz, angles_of(ansatz))
    assert same == ansatz


def test_with_angles_rejects_wrong_length():
    ansatz = build_ansatz(AnsatzKind.NO_ENT, 4, seed=5)
    with pytest.raises(ValueError):
        with_angles(ansatz, np.zeros(5))


def test_text_round_trip():
    for kind in ALL_KINDS:
        ansatz = build_ansatz(kind, 4, seed=7)
        assert from_text(to_text(ansatz)) == ansatz


def test_text_round_trip_after_angle_edit():
    ansatz = with_angles(build_ansatz(AnsatzKind.NO_ENT, 4, seed=7), np.zeros(12))
    assert from_text(to_text(ansatz)) == ansatz


def test_from_text_rejects_malformed_records():
    with pytest.raises(ValueError):
        from_text("kind=zz_full\nn_qubits=4\n")
    with pytest.raises(ValueError):
        from_text("garbage")


def test_minimum_qubits():
    assert build_ansatz(AnsatzKind.NO_ENT, 1, 0).n_qubits == 1
    for kind in (AnsatzKind.ZZ_FULL, AnsatzKind.ZZ_LINEAR, AnsatzKind.ZZ_STAR, AnsatzKind.RANDOM):
        with pytest.raises(ValueError):
            build_ansatz(kind, 1, 0)
    with pytest.raises(ValueError):
        build_ansatz(AnsatzKind.NO_ENT, 0, 0)


def test_fingerprint_distinguishes():
    a = build_ansatz(AnsatzKind.ZZ_FULL, 4, seed=1)
    b = build_ansatz(AnsatzKind.ZZ_FULL, 4, seed=2)
    c = build_ansatz(AnsatzKind.ZZ_FULL, 4, seed=1)
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == c.fingerprint()
