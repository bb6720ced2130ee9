"""Tests for the hard-coded constructions and tensor combinators."""

import numpy as np
import pytest

from upoblab.catalog import (
    GOLDEN_PHASE,
    PHI,
    LiftParams,
    antisym_witness_2x3,
    clock_matrix,
    construct_by_name,
    example1_upb,
    example1_upob,
    example_upuob_2x3,
    golden_states,
    lift_uuo,
    nqubit_strong_upuob,
    omega,
    qutrit_uuo_set,
    shift_matrix,
    tensor_combine,
    u2_strong_upuob,
    weyl_heisenberg,
)
from upoblab.errors import (
    ConfigError,
    InvalidBaseError,
    InvalidWitnessError,
    SizeError,
)
from upoblab.matrix import MAX_SET_ENTRIES, Tolerance, is_unitary
from upoblab.product import (
    check_orthonormal,
    check_pairwise_orthogonal,
    gram,
    product_vector_set,
)
from upoblab.unextend import verify_witness


class TestU2:
    def test_cardinality_and_labels(self):
        s = u2_strong_upuob()
        assert len(s) == 12
        assert s.labels() == [f"U_{i}" for i in range(1, 13)]

    def test_gram_scaled_identity(self):
        g = gram(u2_strong_upuob())
        assert np.abs(g - 4.0 * np.eye(12)).max() < 1e-12

    def test_factors_unitary(self):
        for m in u2_strong_upuob().members:
            for f in m.factors:
                assert is_unitary(f, Tolerance(1e-12))


class TestNQubit:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cardinality(self, n):
        assert len(nqubit_strong_upuob(n)) == 3 * 4 ** (n - 1)

    def test_orthonormal(self):
        assert check_orthonormal(nqubit_strong_upuob(3))

    def test_n2_is_u2(self):
        assert nqubit_strong_upuob(2).labels() == u2_strong_upuob().labels()

    def test_bad_n(self):
        with pytest.raises(ConfigError):
            nqubit_strong_upuob(1)


class TestSizeCap:
    """Each family's largest member builds; the next size up is refused."""

    @staticmethod
    def entries(s):
        return len(s) * sum(r * c for r, c in s.shape)

    @pytest.mark.parametrize(
        "largest, refused",
        [("nqubit:7", "nqubit:8"), ("weyl:32", "weyl:33"), ("lift:18", "lift:19")],
    )
    def test_boundary(self, largest, refused):
        assert self.entries(construct_by_name(largest)) <= MAX_SET_ENTRIES
        with pytest.raises(SizeError):
            construct_by_name(refused)

    def test_nqubit6_builds(self):
        s = construct_by_name("nqubit:6")
        assert len(s) == 3 * 4**5

    @pytest.mark.parametrize("name", ["nqubit:40", "nqubit:" + "9" * 4000,
                                      "weyl:100000", "lift:100000"])
    def test_huge_parameters_refused(self, name):
        with pytest.raises(SizeError):
            construct_by_name(name)


class TestGolden:
    def test_phase_modulus_one(self):
        assert np.isclose(abs(GOLDEN_PHASE), 1.0)
        assert np.isclose(GOLDEN_PHASE.real, -7.0 / 8.0)
        assert GOLDEN_PHASE.imag > 0
        assert np.isclose(PHI**2, PHI + 1.0)

    def test_states_normalized(self):
        for v in golden_states():
            assert np.isclose(np.linalg.norm(v), 1.0)

    def test_overlap_squared_one_fifth(self):
        states = golden_states()
        for s in range(6):
            for t in range(s + 1, 6):
                assert np.isclose(abs(np.vdot(states[s], states[t])) ** 2, 0.2)

    def test_uuo_set_unitary_and_orthonormal(self):
        s = qutrit_uuo_set()
        assert len(s) == 6
        assert check_orthonormal(s)
        for m in s.members:
            assert is_unitary(m.factors[0], Tolerance(1e-12))


class TestWeylHeisenberg:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthonormal_unitary_basis(self, d):
        s = weyl_heisenberg(d)
        assert len(s) == d * d
        assert check_orthonormal(s)
        for m in s.members:
            assert is_unitary(m.factors[0], Tolerance(1e-12))

    def test_identity_first(self):
        assert np.allclose(weyl_heisenberg(3).members[0].factors[0], np.eye(3))

    def test_bad_d(self):
        with pytest.raises(ConfigError):
            weyl_heisenberg(1)


class TestClockShift:
    def test_clock_diagonal_roots(self):
        w = clock_matrix(3)
        assert np.allclose(np.diag(w), [1.0, omega(3), omega(3) ** 2])

    def test_clock_q2_is_sigma_z(self):
        assert np.allclose(clock_matrix(2), np.diag([1.0, -1.0]))

    def test_shift_cycles(self):
        p = shift_matrix(3)
        e1 = np.zeros(3)
        e1[1] = 1.0
        assert np.allclose(p @ e1, [1, 0, 0])
        assert np.allclose(np.linalg.matrix_power(p, 3), np.eye(3))

    def test_commutation(self):
        # P W = omega * W P, the defining twist of the pair.
        q = 4
        w, p = clock_matrix(q), shift_matrix(q)
        assert np.allclose(p @ w, omega(q) * (w @ p))


class TestLift:
    def test_cardinality_formula(self):
        base = qutrit_uuo_set()
        for q in (1, 2, 3):
            s = lift_uuo(LiftParams(q, base))
            d, n = 3, 6
            assert len(s) == q * q * d * d - q * d * d + q * n

    def test_q2_gram(self):
        s = lift_uuo(LiftParams(2, qutrit_uuo_set()))
        assert np.abs(gram(s) - 6.0 * np.eye(30)).max() < 1e-9

    def test_q3_orthonormal(self):
        assert check_orthonormal(lift_uuo(LiftParams(3, qutrit_uuo_set())))

    def test_members_unitary(self):
        for m in lift_uuo(LiftParams(2, qutrit_uuo_set())).members:
            for f in m.factors:
                assert is_unitary(f, Tolerance(1e-9))

    def test_rejects_multiparty_base(self):
        with pytest.raises(InvalidBaseError):
            LiftParams(2, u2_strong_upuob())

    def test_rejects_bad_q(self):
        with pytest.raises(ConfigError):
            LiftParams(0, qutrit_uuo_set())


class TestExample2:
    def test_cardinality_and_gram(self):
        s = example_upuob_2x3()
        assert len(s) == 30
        assert check_orthonormal(s)

    def test_matches_lift_gram(self):
        a = gram(example_upuob_2x3())
        assert np.abs(a - 6.0 * np.eye(30)).max() < 1e-9

    def test_antisym_witness(self):
        x = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=complex)
        w = antisym_witness_2x3(1.0, 1.0, x)
        assert verify_witness(w, example_upuob_2x3())

    def test_witness_validation(self):
        good_x = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        with pytest.raises(InvalidWitnessError):
            antisym_witness_2x3(1.0, 1.0, np.eye(3))
        with pytest.raises(InvalidWitnessError):
            antisym_witness_2x3(0.0, 0.0, good_x)
        with pytest.raises(InvalidWitnessError):
            antisym_witness_2x3(1.0, 1.0, np.zeros((3, 3)))
        with pytest.raises(InvalidWitnessError):
            antisym_witness_2x3(1.0, 1.0, np.zeros((2, 2)))


class TestExample1:
    def test_eleven_states_orthogonal(self):
        vs = product_vector_set(example1_upb())
        assert len(vs) == 11
        assert check_pairwise_orthogonal(vs)

    def test_upob_orthonormal(self):
        s = example1_upob()
        assert len(s) == 11
        assert check_orthonormal(s)

    def test_gram_agrees_with_vectors(self):
        vs = product_vector_set(example1_upb())
        assert np.allclose(gram(example1_upob()), gram(vs))


class TestTensorCombine:
    def test_gram_kronecker(self):
        a = u2_strong_upuob()
        b = qutrit_uuo_set()
        c = tensor_combine(a, b)
        assert np.allclose(gram(c), np.kron(gram(a), gram(b)))

    def test_default_keeps_parties(self):
        c = tensor_combine(u2_strong_upuob(), qutrit_uuo_set())
        assert c.shape == ((2, 2), (2, 2), (3, 3))

    def test_regroup_merges(self):
        c = tensor_combine(qutrit_uuo_set(), qutrit_uuo_set(), regroup=[[0, 1]])
        assert c.shape == ((9, 9),)
        assert len(c) == 36

    def test_bad_regroup(self):
        with pytest.raises(ConfigError):
            tensor_combine(qutrit_uuo_set(), qutrit_uuo_set(), regroup=[[0]])
        with pytest.raises(ConfigError):
            tensor_combine(qutrit_uuo_set(), qutrit_uuo_set(), regroup=[[0, 0], [1]])


class TestConstructByName:
    @pytest.mark.parametrize(
        "name,count",
        [
            ("u2", 12),
            ("nqubit:3", 48),
            ("qutrit-uuo", 6),
            ("weyl:3", 9),
            ("lift:2", 30),
            ("example2", 30),
            ("example1-upb", 11),
            ("example1-upob", 11),
        ],
    )
    def test_names(self, name, count):
        assert len(construct_by_name(name)) == count

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            construct_by_name("nope")
