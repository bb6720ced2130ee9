"""Tests for the hyperplane-cover search, witnesses, and classification."""

import itertools
import math

import numpy as np
import pytest

from upoblab.catalog import (
    construct_by_name,
    example1_upb,
    example1_upob,
    example_upuob_2x3,
    nqubit_strong_upuob,
    u2_strong_upuob,
)
from upoblab.errors import ConfigError, NoWitnessError, ShapeError
from upoblab.matrix import Tolerance, is_unitary, numeric_rank
from upoblab.product import (
    OperatorSet,
    ProductOperator,
    check_pairwise_orthogonal,
    gram,
    product_vector_set,
)
from upoblab import unextend
from upoblab.unextend import (
    EXTENDIBLE,
    UNEXTENDIBLE,
    UNKNOWN,
    classify,
    extendibility_search,
    extract_witness,
    unitary_witness_search,
    verify_witness,
)

RNG = np.random.default_rng(0xACE)


def random_matrix(rows, cols):
    return RNG.normal(size=(rows, cols)) + 1j * RNG.normal(size=(rows, cols))


def drop(op_set, label):
    return OperatorSet(
        op_set.shape, tuple(m for m in op_set.members if m.label != label)
    )


def exhaustive_two_party_verdict(op_set, tol=Tolerance()):
    """Brute force over all member-to-party assignments; independent oracle."""
    n = len(op_set)
    full = [r * c for r, c in op_set.shape]
    for assignment in itertools.product(range(op_set.n_parties), repeat=n):
        ok = True
        for p in range(op_set.n_parties):
            assigned = [
                op_set.members[j].factors[p] for j in range(n) if assignment[j] == p
            ]
            if assigned and numeric_rank(assigned, tol) >= full[p]:
                ok = False
                break
        if ok:
            return EXTENDIBLE
    return UNEXTENDIBLE


class TestSearchBasics:
    def test_bad_budget(self):
        with pytest.raises(ConfigError):
            extendibility_search(u2_strong_upuob(), budget=0)

    def test_empty_set(self):
        s = u2_strong_upuob()
        with pytest.raises(ConfigError):
            extendibility_search(OperatorSet(s.shape, ()))

    def test_unknown_on_tiny_budget(self):
        v = extendibility_search(u2_strong_upuob(), budget=5)
        assert v.status == UNKNOWN
        assert v.nodes_explored == 5

    def test_single_member_extendible(self):
        s = OperatorSet(
            ((2, 2), (2, 2)),
            (ProductOperator((np.eye(2), np.eye(2)), "m"),),
        )
        v = extendibility_search(s)
        assert v.status == EXTENDIBLE
        assert verify_witness(v.witness, s)

    def test_verdict_json(self):
        v = extendibility_search(u2_strong_upuob())
        obj = v.to_json()
        assert obj["status"] == UNEXTENDIBLE
        assert obj["nodes_explored"] == v.nodes_explored


class TestKnownVerdicts:
    def test_u2_unextendible(self):
        v = extendibility_search(u2_strong_upuob())
        assert v.status == UNEXTENDIBLE

    def test_u2_subsets_extendible(self):
        s = u2_strong_upuob()
        for label in ("U_1", "U_5", "U_6", "U_12"):
            v = extendibility_search(drop(s, label))
            assert v.status == EXTENDIBLE
            assert verify_witness(v.witness, drop(s, label))

    def test_partition_is_valid(self):
        s = drop(u2_strong_upuob(), "U_5")
        v = extendibility_search(s)
        for p in range(s.n_parties):
            assigned = [
                m.factors[p]
                for j, m in enumerate(s.members)
                if v.partition[j] == p
            ]
            if assigned:
                assert numeric_rank(assigned) < 4

    def test_example2_extendible(self):
        v = extendibility_search(example_upuob_2x3())
        assert v.status == EXTENDIBLE
        assert verify_witness(v.witness, example_upuob_2x3())

    def test_example1_upb_unextendible(self):
        v = extendibility_search(product_vector_set(example1_upb()))
        assert v.status == UNEXTENDIBLE

    def test_example1_upob_unextendible(self):
        v = extendibility_search(example1_upob())
        assert v.status == UNEXTENDIBLE


class TestOracleAgreement:
    def test_random_sets_match_exhaustive(self):
        rng = np.random.default_rng(7)
        shape = ((2, 2), (2, 2))
        for _ in range(60):
            n = int(rng.integers(2, 9))
            members = tuple(
                ProductOperator(
                    tuple(
                        rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                        for _ in shape
                    ),
                    f"m_{j}",
                )
                for j in range(n)
            )
            s = OperatorSet(shape, members)
            got = extendibility_search(s).status
            assert got == exhaustive_two_party_verdict(s)

    def test_repeated_factors_match_exhaustive(self):
        # Shared factor directions exercise the dedup fast path.
        rng = np.random.default_rng(11)
        shape = ((2, 2), (2, 2))
        pool = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
        for _ in range(40):
            n = int(rng.integers(3, 10))
            members = tuple(
                ProductOperator(
                    (pool[rng.integers(3)] * (1 + 0.5j), pool[rng.integers(3)]),
                    f"m_{j}",
                )
                for j in range(n)
            )
            s = OperatorSet(shape, members)
            assert extendibility_search(s).status == exhaustive_two_party_verdict(s)


def exhaustive_three_party_verdict(op_set, tol=Tolerance()):
    """Brute force over all 3^n member-to-party assignments, from the rank of
    every member subset at every party; independent oracle."""
    n = len(op_set)
    full = [r * c for r, c in op_set.shape]
    ranks = [
        [0]
        + [
            numeric_rank(
                [op_set.members[j].factors[p] for j in range(n) if mask >> j & 1], tol
            )
            for mask in range(1, 1 << n)
        ]
        for p in range(3)
    ]
    everyone = (1 << n) - 1
    for first in range(1 << n):
        if ranks[0][first] >= full[0]:
            continue
        rest = everyone ^ first
        second = rest
        while True:
            if ranks[1][second] < full[1] and ranks[2][rest ^ second] < full[2]:
                return EXTENDIBLE
            if second == 0:
                break
            second = (second - 1) & rest
    return UNEXTENDIBLE


class TestThreePartyOracle:
    @pytest.mark.parametrize(
        "shape",
        [
            ((2, 2), (2, 2), (2, 2)),
            ((2, 1), (3, 1), (2, 2)),
            ((2, 1), (2, 1), (2, 1)),
        ],
        ids=["2x2^3", "mixed", "qubit-vectors"],
    )
    @pytest.mark.parametrize("listing", [True, False], ids=["listed", "tracked"])
    def test_pooled_sets_match_exhaustive(self, shape, listing, monkeypatch):
        # Half of the factors come from a pool of three per party, so
        # directions repeat.  Up to 9 generic members always fit in (2x2)^3;
        # the smaller parties make both verdicts occur.  Without listing,
        # every party is tracked by the spans of its chosen directions.
        if not listing:
            monkeypatch.setattr(unextend, "_CHUNK", 1)
        rng = np.random.default_rng(0x3BA)

        def gaussian(r, c):
            return rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))

        verdicts = {EXTENDIBLE: 0, UNEXTENDIBLE: 0}
        for _ in range(60):
            n = int(rng.integers(3, 10))
            pools = [[gaussian(r, c) for _ in range(3)] for r, c in shape]
            members = tuple(
                ProductOperator(
                    tuple(
                        pools[p][rng.integers(3)] * (0.5 + 1j)
                        if rng.integers(2)
                        else gaussian(r, c)
                        for p, (r, c) in enumerate(shape)
                    ),
                    f"m_{j}",
                )
                for j in range(n)
            )
            s = OperatorSet(shape, members)
            v = extendibility_search(s)
            want = exhaustive_three_party_verdict(s)
            verdicts[want] += 1
            assert v.status == want
            if v.status == EXTENDIBLE:
                assert verify_witness(v.witness, s)
        if shape[0] == (2, 1):
            assert min(verdicts.values()) > 0


class TestNQubitFamily:
    NODES = {3: 139, 4: 629, 5: 6411}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_unextendible(self, n):
        v = extendibility_search(nqubit_strong_upuob(n))
        assert v.status == UNEXTENDIBLE
        assert v.nodes_explored == self.NODES[n]

    def test_leave_one_out_extendible(self):
        s = nqubit_strong_upuob(4)
        for label in (s.members[0].label, s.members[100].label):
            v = extendibility_search(drop(s, label))
            assert v.status == EXTENDIBLE
            assert verify_witness(v.witness, drop(s, label))


class TestRootBound:
    def test_generic_three_qubit_operator_sets_pruned_at_root(self):
        # A hyperplane of a 4-dim party holds at most 3 generic directions,
        # so three parties cover at most 9 members: the search stops at the
        # root, after listing the C(n, 3) direction triples of each party.
        rng = np.random.default_rng(0x6E0)
        shape = ((2, 2),) * 3
        for n in (10, 11, 12, 13) * 2:
            members = tuple(
                ProductOperator(
                    tuple(
                        rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                        for _ in shape
                    ),
                    f"g_{j}",
                )
                for j in range(n)
            )
            v = extendibility_search(OperatorSet(shape, members))
            assert v.status == UNEXTENDIBLE
            assert v.nodes_explored == 3 * math.comb(n, 3)


def generic_3x3_pair(n):
    """n members on M_3,3 (x) M_3,3 with random, hence generic, factors."""
    rng = np.random.default_rng(0xB16)
    members = tuple(
        ProductOperator(
            tuple(
                rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                for _ in range(2)
            ),
            f"m_{j}",
        )
        for j in range(n)
    )
    return OperatorSet(((3, 3), (3, 3)), members)


class TestLargeParties:
    # With n distinct directions a 9-dimensional party has C(n, 8) candidate
    # hyperplanes, too many to list for n >= 14, so both parties are tracked.
    # A hyperplane holds at most 8 generic directions.

    def test_two_large_parties_unextendible(self):
        v = extendibility_search(generic_3x3_pair(40))
        assert v.status == UNEXTENDIBLE
        assert v.nodes_explored < 30_000

    def test_two_large_parties_extendible(self):
        s = generic_3x3_pair(16)
        v = extendibility_search(s)
        assert v.status == EXTENDIBLE
        assert sorted(v.partition) == [0] * 8 + [1] * 8
        assert verify_witness(v.witness, s)

    def test_budget_bounds_tracked_search(self):
        v = extendibility_search(generic_3x3_pair(40), budget=10_000)
        assert v.status == UNKNOWN
        assert v.nodes_explored == 10_000


class TestNearlyParallelDirections:
    def test_hyperplane_holds_its_spanning_pair(self):
        # u1 and u2 differ by 1e-8: distinct directions, but nearly
        # dependent.  The only extension covers the first four members by
        # span(u1, u2) at the listed first party and the rest by span(c1, c2).
        rng = np.random.default_rng(5)

        def unit():
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            return v / np.linalg.norm(v)

        u1 = unit()
        u2 = u1 + 1e-8 * unit()
        u3, u4, u5, b1, b2, c1, c2, c3, c4 = (unit() for _ in range(9))
        pairs = [
            (u1, b1), (u2, b2), (u1, c3), (u2, c4), (u3, c1),
            (u4, c2), (u5, c1), (u3, c2), (u4, c1), (u5, c2),
        ]  # fmt: skip
        s = OperatorSet(
            ((3, 1), (3, 1)),
            tuple(
                ProductOperator((a.reshape(3, 1), b.reshape(3, 1)), f"m_{j}")
                for j, (a, b) in enumerate(pairs)
            ),
        )
        v = extendibility_search(s)
        assert v.status == EXTENDIBLE
        assert v.partition == (0,) * 4 + (1,) * 6
        assert verify_witness(v.witness, s)


def reference_hyperplanes(dirs, tol=Tolerance()):
    """The listing by one batched SVD per chunk of direction subsets: the
    ``sv_rank`` rule on every subset, and LAPACK's normal for every kept one."""
    k, dim = dirs.shape
    if dim == 1:
        return np.zeros((1, k), dtype=bool)
    subsets = itertools.combinations(range(k), dim - 1)
    blocks = [np.zeros((0, k), dtype=bool)]
    while chunk := list(itertools.islice(subsets, unextend._CHUNK)):
        idx = np.array(chunk)
        _, s, vh = np.linalg.svd(dirs[idx])
        keep = s[:, -1] > tol.eps * s[:, 0]
        inside = np.abs(vh[keep, -1].conj() @ dirs.T) <= tol.eps
        np.put_along_axis(inside, idx[keep], True, axis=1)
        blocks.append(inside)
    inside = np.concatenate(blocks)
    _, first = np.unique(inside.view(np.dtype((np.void, k))).ravel(), return_index=True)
    return inside[np.sort(first)]


def unit_rows_of(vecs):
    vecs = np.asarray(vecs, dtype=complex)
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def pauli_directions():
    """I, X, Y, Z and their pairwise sums and differences, vectorized: many
    direction triples are exactly dependent."""
    paulis = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
    paulis = [np.asarray(m, dtype=complex).ravel() for m in paulis]
    pairs = [a + sign * b for a, b in itertools.combinations(paulis, 2) for sign in (1, -1)]
    return unit_rows_of(paulis + pairs)


class TestHyperplaneKernel:
    """``_hyperplanes`` against the SVD listing, bit for bit, with the
    Gram-Schmidt kernel on its default batches and on every batch."""

    @pytest.fixture(params=["default-batches", "every-batch"])
    def kernel_everywhere(self, request, monkeypatch):
        if request.param == "every-batch":
            monkeypatch.setattr(unextend, "_GS_MIN_BATCH", 1)

    @staticmethod
    def svd_calls(monkeypatch):
        """Record the subset stacks each np.linalg.svd call receives."""
        calls = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            calls.append(np.array(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return calls

    def assert_matches(self, dirs, tol=Tolerance()):
        got, want = unextend._hyperplanes(dirs, tol), reference_hyperplanes(dirs, tol)
        assert got.dtype == bool and got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim", [3, 4, 10])
    def test_seeded_generic_parties(self, dim, kernel_everywhere):
        rng = np.random.default_rng(0x6E5 + dim)
        for n in range(dim - 1, 14):
            dirs = unit_rows_of(rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim)))
            for eps in (1e-9, 1e-6):
                self.assert_matches(dirs, Tolerance(eps))

    def test_exactly_dependent_directions(self, kernel_everywhere):
        self.assert_matches(pauli_directions())
        for dirs, _ in unextend._direction_table(nqubit_strong_upuob(4)):
            self.assert_matches(dirs)

    def test_nearly_parallel_directions(self, kernel_everywhere):
        # The directions of TestNearlyParallelDirections: u2 = u1 + 1e-8 v.
        rng = np.random.default_rng(5)
        u = unit_rows_of(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))
        u[1] = u[0] + 1e-8 * u[4]
        self.assert_matches(unit_rows_of(u))

    @pytest.mark.parametrize("delta", [1e-3, 1e-6, 5e-9, 3e-9, 2e-9, 1e-9, 5e-10, 1e-11])
    def test_near_dependence_at_every_scale(self, delta, kernel_everywhere):
        rng = np.random.default_rng(0xDE1)
        dirs = unit_rows_of(rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4)))
        dirs[1] = dirs[0] + delta * dirs[5]
        dirs[3] = dirs[2] + dirs[4] + delta * dirs[6]
        self.assert_matches(unit_rows_of(dirs))

    def test_pivots_and_normals(self):
        # On subsets far from dependent, the pivots are LAPACK's |diag R| and
        # each normal is a unit vector orthogonal to its subset's rows.
        rng = np.random.default_rng(0xACC)
        dirs = unit_rows_of(rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4)))
        dirs[1] = dirs[0] + 1e-3 * dirs[8]
        dirs = unit_rows_of(dirs[:8])
        idx = np.array(list(itertools.combinations(range(8), 3)))
        r, normals = unextend._gram_schmidt(dirs, idx)
        qr = np.stack([np.abs(np.diag(np.linalg.qr(dirs[i].T)[1])) for i in idx], axis=1)
        assert np.abs(r - qr).max() < 1e-12
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, rtol=0, atol=1e-15)
        overlaps = np.abs(np.einsum("md,mkd->mk", normals.conj(), dirs[idx]))
        assert overlaps.max() < 1e-15

    def test_generic_batch_needs_no_svd(self, monkeypatch):
        rng = np.random.default_rng(0x6E0)
        dirs = unit_rows_of(rng.normal(size=(13, 4)) + 1j * rng.normal(size=(13, 4)))
        calls = self.svd_calls(monkeypatch)
        unextend._hyperplanes(dirs, Tolerance())
        assert calls == []

    def test_ambiguous_subsets_reach_the_svd(self, monkeypatch):
        # Rows 0 and 1 differ by 1e-6: the 10 triples holding both have a
        # pivot near 1e-6, too small to keep and too large to drop.
        rng = np.random.default_rng(0x6E0)
        dirs = unit_rows_of(rng.normal(size=(13, 4)) + 1j * rng.normal(size=(13, 4)))
        dirs[1] = dirs[0] + 1e-6 * dirs[12]
        dirs = unit_rows_of(dirs[:12])
        calls = self.svd_calls(monkeypatch)
        got = unextend._hyperplanes(dirs, Tolerance())
        assert [len(c) for c in calls] == [10]
        want = [dirs[[0, 1, x]] for x in range(2, 12)]
        assert all(np.array_equal(a, b) for a, b in zip(calls[0], want))
        monkeypatch.undo()
        assert np.array_equal(got, reference_hyperplanes(dirs))

    def test_batches_of_one(self, kernel_everywhere, monkeypatch):
        monkeypatch.setattr(unextend, "_CHUNK", 1)
        rng = np.random.default_rng(0xB1)
        dirs = unit_rows_of(rng.normal(size=(7, 4)) + 1j * rng.normal(size=(7, 4)))
        self.assert_matches(dirs)
        self.assert_matches(pauli_directions()[:8])

    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_directions_than_a_hyperplane_needs(self, n):
        dirs = unit_rows_of(np.eye(4)[:n])
        got = unextend._hyperplanes(dirs, Tolerance())
        assert got.shape == (0, n) and got.dtype == bool


class TestWitness:
    def test_extract_witness_orthogonal(self):
        s = drop(u2_strong_upuob(), "U_5")
        v = extendibility_search(s)
        w = extract_witness(v.partition, s)
        assert verify_witness(w, s)

    def test_extract_witness_length_mismatch(self):
        with pytest.raises(ShapeError):
            extract_witness((0,), u2_strong_upuob())

    def test_extract_witness_full_span(self):
        # All 12 members on party 0 exceed its 4-dim operator space.
        s = u2_strong_upuob()
        with pytest.raises(NoWitnessError):
            extract_witness((0,) * 12, s)

    def test_verify_witness_shape_mismatch(self):
        w = ProductOperator((np.eye(3), np.eye(3)), "w")
        with pytest.raises(ShapeError):
            verify_witness(w, u2_strong_upuob())

    def test_verify_witness_rejects_member(self):
        s = u2_strong_upuob()
        assert not verify_witness(s.members[0], s)


class TestUnitaryWitnessSearch:
    def test_finds_missing_identity(self):
        s = drop(u2_strong_upuob(), "U_6")
        w = unitary_witness_search(s)
        assert w is not None
        assert verify_witness(w, s)
        assert all(is_unitary(f, Tolerance(1e-7)) for f in w.factors)

    def test_none_for_example2(self):
        # The 30-member set admits only non-unitary witnesses.
        w = unitary_witness_search(example_upuob_2x3(), restarts=8, iters=100)
        assert w is None

    def test_nonsquare_raises(self):
        s = product_vector_set([([1, 0], [0, 1])])
        with pytest.raises(ShapeError):
            unitary_witness_search(s)

    @pytest.mark.parametrize(
        "kwargs",
        [{"restarts": 0}, {"restarts": -3}, {"iters": 0}, {"iters": -1}, {"seed": -1}],
    )
    def test_settings_that_run_nothing_refused(self, kwargs):
        s = drop(u2_strong_upuob(), "U_6")
        with pytest.raises(ConfigError):
            unitary_witness_search(s, **kwargs)
        # classify refuses them before any search, on any set.
        for op_set in (s, u2_strong_upuob(), product_vector_set([([1, 0], [0, 1])])):
            with pytest.raises(ConfigError):
                classify(op_set, **kwargs)


def reference_product_factorization(vec, shape, iters=40):
    """The alternating least squares as first written: every factor
    normalized at every update, contractions by np.tensordot."""
    dims = [r * c for r, c in shape]
    n = len(dims)
    t = vec.reshape(dims)
    factors = []
    rest = t
    for p in range(n - 1):
        u, s, vh = np.linalg.svd(rest.reshape(dims[p], -1), full_matrices=False)
        factors.append(u[:, 0] * s[0])
        rest = vh[0]
    factors.append(rest.copy())
    for _ in range(iters):
        for p in range(n):
            others = [factors[q] / np.linalg.norm(factors[q]) for q in range(n)]
            contraction = t
            for q in sorted((x for x in range(n) if x != p), reverse=True):
                contraction = np.tensordot(
                    contraction, others[q].conj(), axes=([q], [0])
                )
            factors[p] = contraction
    return factors


class TestProductFactorization:
    @pytest.mark.parametrize(
        "shape",
        [
            ((2, 2),) * 3,
            ((2, 2),) * 4,
            ((3, 3), (2, 2), (2, 1)),
            ((2, 1), (3, 3), (2, 2), (1, 2)),
        ],
        ids=["2x2^3", "2x2^4", "mixed3", "mixed4"],
    )
    def test_matches_reference_bitwise(self, shape):
        rng = np.random.default_rng(0xA15)
        size = math.prod(r * c for r, c in shape)
        for _ in range(5):
            vec = rng.normal(size=size) + 1j * rng.normal(size=size)
            got = unextend._product_factorization(vec, shape)
            want = reference_product_factorization(vec, shape)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def reference_all_factors_unitary(op_set, tol):
    """Per-factor loop: each factor rescaled to norm sqrt(d), then is_unitary."""
    if any(r != c for r, c in op_set.shape):
        return False
    return all(
        is_unitary(
            f * (np.sqrt(f.shape[0]) / np.linalg.norm(f)), Tolerance(tol.eps * 10)
        )
        for m in op_set.members
        for f in m.factors
    )


def reference_pairwise_orthogonal(op_set, tol):
    """Gram entries divided by the product of per-member norms."""
    norms = np.array(
        [math.prod(np.linalg.norm(f) for f in m.factors) for m in op_set.members]
    )
    g = gram(op_set) / np.outer(norms, norms)
    return bool(np.abs(g - np.diag(np.diag(g))).max() <= tol.eps)


class TestStackedChecks:
    NAMES = ("u2", "qutrit-uuo", "weyl:3", "lift:2", "example2", "example1-upob",
             "example1-upb", "nqubit:3")  # fmt: skip

    def test_match_per_factor_references(self):
        # Members are perturbed at scales from 1e-12 to 1e-6 and rescaled, so
        # both checks see sets on both sides of their tolerances.
        rng = np.random.default_rng(0x57AC)

        def gaussian(shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        bases = [construct_by_name(name) for name in self.NAMES]
        tol = Tolerance()
        seen = {True: 0, False: 0}
        for i in range(504):
            base = bases[i % len(bases)]
            scale = 10.0 ** rng.uniform(-12, -6)
            hit = rng.random(len(base)) < 0.3
            members = tuple(
                ProductOperator(
                    tuple(
                        (f + scale * hit[j] * gaussian(f.shape))
                        * complex(*rng.uniform(0.5, 2.0, size=2))
                        for f in m.factors
                    ),
                    m.label,
                )
                for j, m in enumerate(base.members)
            )
            s = OperatorSet(base.shape, members)
            unitary = unextend._all_factors_unitary(s, tol)
            orthogonal = check_pairwise_orthogonal(s, tol)
            assert unitary == reference_all_factors_unitary(s, tol)
            assert orthogonal == reference_pairwise_orthogonal(s, tol)
            seen[unitary] += 1
            seen[orthogonal] += 1
        assert min(seen.values()) > 100

    def test_unitary_check_takes_large_tolerances(self):
        # 10 * eps is compared directly, not built as a Tolerance.
        assert unextend._all_factors_unitary(u2_strong_upuob(), Tolerance(0.5))


class TestClassify:
    def test_u2_strongly(self):
        c = classify(u2_strong_upuob())
        assert c.verdict_labels == frozenset(
            {"UPOB", "strongly-UPUOB", "UPUOB-evidence"}
        )
        assert c.is_orthonormal and c.is_all_unitary
        assert c.upob.status == UNEXTENDIBLE

    def test_example2_evidence_only(self):
        c = classify(example_upuob_2x3(), restarts=8, iters=100)
        assert c.verdict_labels == frozenset({"UPUOB-evidence"})
        assert c.upob.status == EXTENDIBLE
        assert c.unitary_witness is None

    def test_example1_upob(self):
        c = classify(example1_upob())
        assert "UPOB" in c.verdict_labels
        assert "strongly-UPUOB" not in c.verdict_labels

    def test_vector_set_upob_only(self):
        # The vector variant still earns UPOB (orthogonal + unextendible)
        # but never the unitary labels.
        c = classify(product_vector_set(example1_upb()))
        assert c.upob.status == UNEXTENDIBLE
        assert not c.is_all_unitary
        assert c.verdict_labels == frozenset({"UPOB"})

    def test_extendible_unitary_set_empty_labels(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        s = OperatorSet(
            ((2, 2), (2, 2)),
            (
                ProductOperator((np.eye(2), np.eye(2)), "a"),
                ProductOperator((x, x), "b"),
            ),
        )
        c = classify(s, restarts=4, iters=50)
        assert c.upob.status == EXTENDIBLE
        assert c.unitary_witness is not None
        assert c.verdict_labels == frozenset()

    def test_json(self):
        obj = classify(u2_strong_upuob()).to_json()
        assert obj["verdict_labels"] == ["UPOB", "UPUOB-evidence", "strongly-UPUOB"]
