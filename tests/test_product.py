"""Tests for product operators, operator sets, and the vector correspondence."""

import json

import numpy as np
import pytest

from upoblab.catalog import construct_by_name
from upoblab.errors import EmptyInputError, ShapeError, SizeError
from upoblab.matrix import MAX_PRODUCT_DIM, hs_inner, matrix_from_json
from upoblab.product import (
    IndexSet,
    OperatorSet,
    ProductOperator,
    check_orthonormal,
    check_pairwise_orthogonal,
    gram,
    kron_rows,
    party_rows,
    product_vector_set,
    row_major_index_set,
    unit_rows,
    upb_to_upob,
    vector_to_matrix,
)

RNG = np.random.default_rng(0xBEEF)


def random_matrix(rows, cols):
    return RNG.normal(size=(rows, cols)) + 1j * RNG.normal(size=(rows, cols))


def random_set(n_members, shape=((2, 2), (2, 2))):
    members = tuple(
        ProductOperator(tuple(random_matrix(r, c) for r, c in shape), f"m_{j}")
        for j in range(n_members)
    )
    return OperatorSet(shape, members)


class TestProductOperator:
    def test_full_matrix_is_kron(self):
        a, b = random_matrix(2, 2), random_matrix(3, 3)
        op = ProductOperator((a, b), "t")
        assert np.allclose(op.full_matrix(), np.kron(a, b))

    def test_factors_read_only(self):
        op = ProductOperator((np.eye(2),))
        with pytest.raises(ValueError):
            op.factors[0][0, 0] = 5.0

    def test_rejects_zero_factor(self):
        with pytest.raises(ShapeError):
            ProductOperator((np.zeros((2, 2)),))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            ProductOperator(())

    def test_accepts_factor_whose_squares_underflow(self):
        op = ProductOperator((np.full((2, 2), 1e-170),))
        assert op.factors[0][0, 0] == 1e-170

    def test_relabel(self):
        op = ProductOperator((np.eye(2),), "a")
        assert op.relabel("b").label == "b"


class TestOperatorSet:
    def test_rejects_shape_mismatch(self):
        member = ProductOperator((np.eye(3),), "m")
        with pytest.raises(ShapeError):
            OperatorSet(((2, 2),), (member,))

    def test_rejects_duplicate_labels(self):
        a = ProductOperator((np.eye(2),), "m")
        b = ProductOperator((2 * np.eye(2),), "m")
        with pytest.raises(ShapeError):
            OperatorSet(((2, 2),), (a, b))

    def test_json_round_trip(self):
        s = random_set(3)
        back = OperatorSet.from_json(s.to_json())
        assert back.shape == s.shape
        assert back.labels() == s.labels()
        for m, n in zip(s.members, back.members):
            for f, g in zip(m.factors, n.factors):
                assert np.allclose(f, g)


    @pytest.mark.parametrize(
        "name", ["u2", "nqubit:3", "lift:2", "example2", "example1-upb"]
    )
    def test_json_text_round_trip_is_exact(self, name):
        s = construct_by_name(name)
        back = OperatorSet.from_json(json.loads(json.dumps(s.to_json())))
        assert back.shape == s.shape
        assert back.labels() == s.labels()
        for m, n in zip(s.members, back.members):
            for f, g in zip(m.factors, n.factors):
                assert f.shape == g.shape
                f, g = f.view(float), g.view(float)
                assert np.array_equal(f, g)
                assert np.array_equal(np.signbit(f), np.signbit(g))

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            {"shape": [[1, 1]], "members": {"label": "a"}},
            {"shape": [[1, 1]], "members": ["a"]},
            {"shape": [[1, 1]], "members": [{"label": "a", "factors": "f"}]},
            {"shape": [[1, 1]], "members": [{"label": ["a"], "factors": []}]},
            {"shape": "ab", "members": []},
            {"shape": 3, "members": []},
        ],
        ids=["list", "members-object", "member-string", "factors-string",
             "label-list", "shape-string", "shape-number"],
    )
    def test_from_json_rejects_malformed_structure(self, obj):
        with pytest.raises(ShapeError):
            OperatorSet.from_json(obj)


def from_json_per_factor(obj):
    """Reference loader: each factor read alone and checked by ProductOperator."""
    members = tuple(
        ProductOperator(tuple(matrix_from_json(f) for f in m["factors"]), m["label"])
        for m in obj["members"]
    )
    return OperatorSet(tuple(map(tuple, obj["shape"])), members)


class TestStackedFromJson:
    @pytest.mark.parametrize(
        "name", ["u2", "nqubit:4", "qutrit-uuo", "lift:3", "example2", "example1-upb"]
    )
    def test_matches_per_factor_reference(self, name):
        obj = json.loads(json.dumps(construct_by_name(name).to_json()))
        got, want = OperatorSet.from_json(obj), from_json_per_factor(obj)
        assert got.shape == want.shape and got.labels() == want.labels()
        for m, n in zip(got.members, want.members):
            for f, g in zip(m.factors, n.factors):
                assert f.dtype == g.dtype and f.shape == g.shape
                assert np.array_equal(f.view(float), g.view(float))
                assert np.array_equal(np.signbit(f.view(float)), np.signbit(g.view(float)))
                assert not f.flags.writeable

    def test_rejects_infinite_shape(self):
        # json.load reads the literal Infinity as a float, and int() of it
        # raises OverflowError.
        with pytest.raises(ShapeError):
            OperatorSet.from_json({"shape": [[float("inf"), 1]], "members": []})

    def test_empty_member_list(self):
        s = OperatorSet.from_json({"shape": [[2, 2]], "members": []})
        assert len(s) == 0 and s.shape == ((2, 2),)

    @staticmethod
    def two_members():
        obj = json.loads(json.dumps(random_set(2, ((2, 2), (1, 3))).to_json()))
        return obj, obj["members"][1]

    def test_rejects_zero_factor(self):
        obj, m = self.two_members()
        m["factors"][1]["entries"] = [[0.0, -0.0]] * 3
        with pytest.raises(ShapeError, match="m_1"):
            OperatorSet.from_json(obj)
        with pytest.raises(ShapeError):
            from_json_per_factor(obj)

    def test_accepts_factor_whose_squares_underflow(self):
        obj, m = self.two_members()
        m["factors"][1]["entries"] = [[1e-170, 0.0], [0.0, -1e-170], [0.0, 0.0]]
        s = OperatorSet.from_json(obj)
        assert s.members[1].factors[1][0, 0] == 1e-170

    @pytest.mark.parametrize(
        "defect", ["factor-count", "no-factors", "other-shape", "nan", "duplicate-label"]
    )
    def test_rejects_like_the_reference(self, defect):
        obj, m = self.two_members()
        if defect == "factor-count":
            m["factors"].append(m["factors"][0])
        elif defect == "no-factors":
            m["factors"] = []
        elif defect == "other-shape":
            m["factors"][1] = {"rows": 3, "cols": 1, "entries": m["factors"][1]["entries"]}
        elif defect == "nan":
            m["factors"][0]["entries"][2][1] = float("nan")
        else:
            m["label"] = obj["members"][0]["label"]
        with pytest.raises(ShapeError):
            OperatorSet.from_json(obj)
        with pytest.raises(ShapeError):
            from_json_per_factor(obj)


class TestPartyStacks:
    SHAPES = [
        ((2, 2),) * 3,
        ((3, 3), (2, 2)),
        ((2, 1), (3, 1)),
        ((1, 3), (2, 2), (2, 1)),
    ]
    IDS = ["2x2^3", "3x3.2x2", "vectors", "mixed"]

    @pytest.mark.parametrize("shape", SHAPES, ids=IDS)
    def test_rows_are_vectorized_factors(self, shape):
        s = random_set(5, shape)
        for p in range(len(shape)):
            want = np.stack([m.factors[p].ravel() for m in s.members])
            assert np.array_equal(party_rows(s, p), want)
        r, c = shape[0]
        assert party_rows(OperatorSet(shape, ()), 0).shape == (0, r * c)

    @pytest.mark.parametrize("shape", SHAPES, ids=IDS)
    def test_kron_rows_match_np_kron_bitwise(self, shape):
        s = random_set(6, shape)
        want = np.stack([m.full_matrix().ravel() for m in s.members])
        assert np.array_equal(kron_rows(s), want)

    def test_kron_rows_size_cap(self):
        big = MAX_PRODUCT_DIM // 2 + 1
        s = OperatorSet(((big, 1), (2, 1)), ())
        with pytest.raises(SizeError):
            kron_rows(s)


class TestUnitRows:
    def test_ordinary_rows_match_plain_division_bitwise(self):
        rows = np.stack([random_matrix(1, 9).ravel() * scale for scale in (1e-3, 1, 7e4)])
        want = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        assert np.array_equal(unit_rows(rows), want)

    @pytest.mark.parametrize("scale", [1e300, 1e-170, 1e-300])
    def test_extreme_magnitudes(self, scale):
        rows = np.stack([random_matrix(1, 4).ravel(), random_matrix(1, 4).ravel()])
        want = unit_rows(rows)
        rows[0] *= scale
        with np.errstate(all="raise"):
            got = unit_rows(rows)
        assert np.allclose(got, want, rtol=0, atol=1e-12)


class TestGram:
    def test_matches_full_matrix_oracle(self):
        s = random_set(4)
        g = gram(s)
        for j, mj in enumerate(s.members):
            for k, mk in enumerate(s.members):
                expected = hs_inner(mj.full_matrix(), mk.full_matrix())
                assert np.isclose(g[j, k], expected)

    def test_empty_raises(self):
        s = random_set(1)
        with pytest.raises(EmptyInputError):
            gram(OperatorSet(s.shape, ()))

    def test_hermitian(self):
        g = gram(random_set(3))
        assert np.allclose(g, g.conj().T)


class TestOrthonormality:
    def test_pauli_pairs_orthonormal(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        members = (
            ProductOperator((np.eye(2), np.eye(2)), "a"),
            ProductOperator((x, z), "b"),
            ProductOperator((z, x), "c"),
        )
        assert check_orthonormal(OperatorSet(((2, 2), (2, 2)), members))

    def test_scaling_invariant(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        members = (
            ProductOperator((7.0 * np.eye(2),), "a"),
            ProductOperator((0.1j * x,), "b"),
        )
        assert check_orthonormal(OperatorSet(((2, 2),), members))

    def test_random_set_fails(self):
        assert not check_orthonormal(random_set(3))

    @pytest.mark.parametrize("scale", [1e300, 1e-170])
    def test_extreme_magnitudes(self, scale):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        members = (
            ProductOperator((scale * np.eye(2), x), "a"),
            ProductOperator((x, np.eye(2)), "b"),
        )
        with np.errstate(all="raise"):
            assert check_orthonormal(OperatorSet(((2, 2), (2, 2)), members))

    def test_nonsquare_raises(self):
        s = product_vector_set([([1, 0], [0, 1])])
        with pytest.raises(ShapeError):
            check_orthonormal(s)

    def test_pairwise_orthogonal_vectors(self):
        s = product_vector_set([([1, 0], [1, 0]), ([0, 1], [1, 0])])
        assert check_pairwise_orthogonal(s)
        t = product_vector_set([([1, 0], [1, 0]), ([1, 1], [1, 0])])
        assert not check_pairwise_orthogonal(t)


class TestVectorMatrixBijection:
    def test_round_trip(self):
        idx = row_major_index_set(2, 2)
        v = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        m = vector_to_matrix(v, idx, (2, 2))
        assert np.allclose([m[p, q] for p, q in idx.positions], v)

    def test_inner_product_preserved(self):
        idx = row_major_index_set(2, 3, 5)
        u = RNG.normal(size=5) + 1j * RNG.normal(size=5)
        v = RNG.normal(size=5) + 1j * RNG.normal(size=5)
        assert np.isclose(
            np.vdot(u, v),
            hs_inner(vector_to_matrix(u, idx, (2, 3)), vector_to_matrix(v, idx, (2, 3))),
        )

    def test_length_mismatch(self):
        idx = row_major_index_set(2, 2)
        with pytest.raises(IndexError):
            vector_to_matrix([1, 0, 0], idx, (2, 2))

    def test_too_short_vector(self):
        idx = row_major_index_set(3, 3, 2)
        with pytest.raises(IndexError):
            vector_to_matrix([1, 0], idx, (3, 3))

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ShapeError):
            IndexSet(((0, 0), (0, 0)))


class TestUpbToUpob:
    def test_gram_preserved(self):
        vectors = [
            ([1, 0, 0, 0], [0, 1, 0, 0]),
            ([0, 1, 0, 0], [1, 0, 0, 0]),
            ([0, 0, 1, 1], [0, 0, 1, -1]),
        ]
        idx = row_major_index_set(2, 2)
        ops = upb_to_upob(vectors, [idx, idx], [(2, 2), (2, 2)])
        vecs = product_vector_set(vectors)
        assert np.allclose(gram(ops), gram(vecs))

    def test_default_labels(self):
        idx = row_major_index_set(2, 2)
        ops = upb_to_upob([([1, 0, 0, 0],)], [idx], [(2, 2)])
        assert ops.labels() == ["M_1"]

    def test_party_count_mismatch(self):
        idx = row_major_index_set(2, 2)
        with pytest.raises(ShapeError):
            upb_to_upob([([1, 0, 0, 0],)], [idx, idx], [(2, 2), (2, 2)])


class TestProductVectorSet:
    def test_empty_vectors_rejected(self):
        with pytest.raises(EmptyInputError):
            product_vector_set([])
