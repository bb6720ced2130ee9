"""Tests for the dense matrix kernel."""

import json

import numpy as np
import pytest

from upoblab.errors import (
    ConfigError,
    EmptyInputError,
    ShapeError,
    SingularError,
    SizeError,
)
from upoblab.matrix import (
    MAX_PRODUCT_DIM,
    Tolerance,
    as_matrix,
    complement_rows,
    hs_inner,
    is_unitary,
    kron,
    kron_all,
    matrices_from_json,
    matrix_from_json,
    matrix_to_json,
    nearest_unitary,
    numeric_rank,
)

RNG = np.random.default_rng(0x5EED)


def random_matrix(rows, cols):
    return RNG.normal(size=(rows, cols)) + 1j * RNG.normal(size=(rows, cols))


class TestTolerance:
    def test_default(self):
        assert Tolerance().eps == 1e-9

    @pytest.mark.parametrize("eps", [0.0, -1e-9, 1.0, 2.0])
    def test_rejects_out_of_range(self, eps):
        with pytest.raises(ConfigError):
            Tolerance(eps)


class TestAsMatrix:
    def test_coerces_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == complex
        assert m.shape == (2, 2)

    def test_rejects_vectors(self):
        with pytest.raises(ShapeError):
            as_matrix([1, 2, 3])

    def test_rejects_nan(self):
        with pytest.raises(ShapeError):
            as_matrix([[np.nan, 0], [0, 0]])

    def test_rejects_inf_imag(self):
        with pytest.raises(ShapeError):
            as_matrix([[1j * np.inf, 0], [0, 0]])
        with pytest.raises(ShapeError):
            as_matrix([[complex(0.0, np.inf), 0], [0, 0]])

    def test_accepts_non_contiguous(self):
        a = random_matrix(2, 3)
        assert np.array_equal(as_matrix(a.T), a.T)


class TestKron:
    def test_matches_numpy(self):
        a = random_matrix(2, 3)
        b = random_matrix(3, 2)
        assert np.allclose(kron(a, b), np.kron(a, b))

    def test_size_cap(self):
        a = np.eye(MAX_PRODUCT_DIM // 2 + 1)
        with pytest.raises(SizeError):
            kron(a, np.eye(2))

    def test_kron_all_empty(self):
        with pytest.raises(EmptyInputError):
            kron_all([])

    def test_kron_all_associates(self):
        mats = [random_matrix(2, 2) for _ in range(3)]
        expected = np.kron(np.kron(mats[0], mats[1]), mats[2])
        assert np.allclose(kron_all(mats), expected)


class TestHsInner:
    def test_trace_formula(self):
        a = random_matrix(3, 3)
        b = random_matrix(3, 3)
        assert np.isclose(hs_inner(a, b), np.trace(a.conj().T @ b))

    def test_conjugate_linear_in_first(self):
        a = random_matrix(2, 2)
        b = random_matrix(2, 2)
        assert np.isclose(hs_inner(2j * a, b), -2j * hs_inner(a, b))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            hs_inner(np.eye(2), np.eye(3))

    def test_norm_consistency(self):
        a = random_matrix(4, 2)
        assert np.isclose(np.linalg.norm(a) ** 2, hs_inner(a, a).real)


class TestNumericRank:
    def test_independent(self):
        mats = [np.eye(2), np.array([[0, 1], [1, 0]])]
        assert numeric_rank(mats) == 2

    def test_dependent(self):
        a = random_matrix(2, 2)
        assert numeric_rank([a, 2 * a, 3j * a]) == 1

    def test_zero(self):
        assert numeric_rank([np.zeros((2, 2))]) == 0

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            numeric_rank([])


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(5))

    def test_phase(self):
        assert is_unitary(np.exp(0.37j) * np.eye(3))

    def test_scaled_fails(self):
        assert not is_unitary(2 * np.eye(2))

    def test_nonsquare_raises(self):
        with pytest.raises(ShapeError):
            is_unitary(np.ones((2, 3)))


class TestComplementBasis:
    """``complement_rows`` of matrices vectorized row-major, one per row."""

    def test_dimension_count(self):
        a, b = random_matrix(2, 2), random_matrix(2, 2)
        span = [a, b, a - 2j * b]
        comp = complement_rows(np.stack([m.ravel() for m in span]))
        assert len(comp) == 4 - numeric_rank(span) == 2

    def test_orthogonal_to_span(self):
        span = [random_matrix(3, 3) for _ in range(4)]
        for e in complement_rows(np.stack([m.ravel() for m in span])):
            for s in span:
                assert abs(hs_inner(s, e.reshape(3, 3))) < 1e-9

    def test_returned_basis_orthonormal(self):
        comp = complement_rows(random_matrix(1, 4))
        assert comp.shape == (3, 4)
        for i, a in enumerate(comp):
            for j, b in enumerate(comp):
                assert np.isclose(np.vdot(a, b), float(i == j))


class TestNearestUnitary:
    def test_fixed_point(self):
        u = nearest_unitary(np.diag([1.0, 1j]))
        assert np.allclose(u, np.diag([1.0, 1j]))

    def test_polar_factor(self):
        a = random_matrix(3, 3)
        u = nearest_unitary(a)
        assert is_unitary(u, Tolerance(1e-8))
        # u^dag a must be positive semidefinite (the polar decomposition).
        h = u.conj().T @ a
        assert np.abs(h - h.conj().T).max() < 1e-9
        assert np.linalg.eigvalsh(h).min() > -1e-9

    def test_singular_raises(self):
        with pytest.raises(SingularError):
            nearest_unitary(np.diag([1.0, 0.0]))


class TestJson:
    def test_round_trip(self):
        a = random_matrix(3, 2)
        obj = matrix_to_json(a)
        assert obj["rows"] == 3 and obj["cols"] == 2
        assert np.allclose(matrix_from_json(obj), a)

    def test_bad_entry_count(self):
        with pytest.raises(ShapeError):
            matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})

    def test_bad_dims(self):
        with pytest.raises(ShapeError):
            matrix_from_json({"rows": 0, "cols": 2, "entries": []})

    @pytest.mark.parametrize("shape", [(3, 2), (1, 1), (4, 4)])
    def test_entries_match_per_entry_reference(self, shape):
        a = random_matrix(*shape)
        a[0, 0] = complex(-0.0, 0.0)
        for m in (a, a.T):  # a.T is not C-contiguous
            want = [[float(z.real), float(z.imag)] for z in m.ravel()]
            got = matrix_to_json(m)["entries"]
            assert json.dumps(got) == json.dumps(want)

    def test_round_trip_is_exact(self):
        a = random_matrix(3, 4)
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(a))))
        assert np.array_equal(back.view(float), a.view(float))

    @pytest.mark.parametrize(
        "obj",
        [
            {"rows": 1, "cols": 1, "entries": [["1", "0"]]},
            {"rows": 1, "cols": 1, "entries": [[True, False]]},
            {"rows": 1, "cols": 2, "entries": [[1.0, 0.0], [False, 1.0]]},
            {"rows": 1, "cols": 1, "entries": [[1.0, 0.0, 2.0]]},
            {"rows": 1, "cols": 2, "entries": [[1.0, 0.0], [2.0]]},
            {"rows": 1, "cols": 1, "entries": [[None, 0.0]]},
            {"rows": 1, "cols": 1, "entries": "1+0j"},
            {"rows": "1", "cols": 1, "entries": [[1.0, 0.0]]},
            {"rows": True, "cols": 1, "entries": [[1.0, 0.0]]},
            [[1.0, 0.0]],
        ],
        ids=["strings", "bools", "bool-among-numbers", "triple", "ragged", "null",
             "string", "string-rows", "bool-rows", "not-an-object"],
    )
    def test_rejects_malformed_entries(self, obj):
        with pytest.raises(ShapeError):
            matrix_from_json(obj)


class TestStackedJson:
    def test_stack_equals_single_matrices(self):
        objs = [json.loads(json.dumps(matrix_to_json(random_matrix(2, 3))))
                for _ in range(5)]
        stack = matrices_from_json(objs)
        assert stack.shape == (5, 2, 3)
        for obj, m in zip(objs, stack):
            assert np.array_equal(m.view(float), matrix_from_json(obj).view(float))

    def test_empty_stack(self):
        with pytest.raises(EmptyInputError):
            matrices_from_json([])

    @pytest.mark.parametrize(
        "second",
        [
            {"rows": 2, "cols": 1, "entries": [[1.0, 0.0], [0.0, 0.0]]},
            {"rows": True, "cols": 2, "entries": [[1.0, 0.0], [0.0, 0.0]]},
            {"rows": 1, "cols": 2, "entries": [[1.0, 0.0], [0.0, float("nan")]]},
            {"rows": 1, "cols": 2, "entries": [[1.0, 0.0], [True, 0.0]]},
            {"rows": 1, "cols": 2, "entries": [[1.0, 0.0]]},
            {"rows": 1, "cols": 2, "entries": [[1.0, 0.0], [0.0, 0.0, 0.0]]},
            [[1.0, 0.0], [0.0, 0.0]],
        ],
        ids=["other-shape", "bool-rows", "nan", "bool-entry", "short", "triple",
             "not-an-object"],
    )
    def test_one_bad_matrix_rejects_the_stack(self, second):
        first = {"rows": 1, "cols": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}
        matrices_from_json([first, first])
        with pytest.raises(ShapeError):
            matrices_from_json([first, second, first])
