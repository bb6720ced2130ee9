"""Tests for state families, regrouping, embedding, and the protocol replay."""

import numpy as np
import pytest

from upoblab.catalog import u2_strong_upuob
from upoblab.errors import (
    ConfigError,
    EmbeddingError,
    InvalidEffectError,
    ShapeError,
)
from upoblab.locc import (
    MeasurementOperator,
    StateVector,
    build_a_states,
    genuine_nonlocality_evidence,
    measurement_branch,
    mes,
    mes_counting_bound,
    product_sides,
    qutrit_embed,
    regroup_bipartite,
    run_three_ebit_protocol,
    triple_independence_check,
)
from upoblab.matrix import Tolerance
from upoblab.product import OperatorSet, ProductOperator


class TestStateVector:
    def test_validates_norm(self):
        with pytest.raises(ShapeError):
            StateVector(np.array([1.0, 1.0]), (2,))

    def test_validates_length(self):
        with pytest.raises(ShapeError):
            StateVector(np.array([1.0, 0.0]), (3,))

    def test_read_only(self):
        s = mes(2)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


class TestMes:
    def test_amplitudes(self):
        s = mes(3)
        expected = np.zeros(9)
        expected[[0, 4, 8]] = 1.0 / np.sqrt(3.0)
        assert np.allclose(s.amplitudes, expected)
        assert s.parties == (3, 3)

    def test_bad_d(self):
        with pytest.raises(ConfigError):
            mes(1)


class TestMeasurementOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidEffectError):
            MeasurementOperator(np.array([[0, 1], [0, 0]]), 0)

    def test_rejects_eigenvalues_above_one(self):
        with pytest.raises(InvalidEffectError):
            MeasurementOperator(2.0 * np.eye(2), 0)

    def test_rejects_negative(self):
        with pytest.raises(InvalidEffectError):
            MeasurementOperator(-np.eye(2), 0)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidEffectError):
            MeasurementOperator(np.ones((2, 3)), 0)


class TestAStates:
    def test_count_and_orthogonality(self):
        states = build_a_states(u2_strong_upuob(), 2)
        assert len(states) == 12
        amps = np.stack([s.amplitudes for s in states])
        g = amps.conj() @ amps.T
        assert np.abs(g - np.eye(12)).max() < 1e-12

    def test_party_ordering(self):
        states = build_a_states(u2_strong_upuob(), 2)
        assert states[0].parties == (2, 2, 2, 2)
        assert states[0].label == "a'_1"

    def test_identity_member_gives_double_mes(self):
        # U_6 = I x I, so a'_6 is two copies of the two-level MES.
        states = build_a_states(u2_strong_upuob(), 2)
        psi = mes(2).amplitudes
        assert np.allclose(states[5].amplitudes, np.kron(psi, psi))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            build_a_states(u2_strong_upuob(), 3)


class TestRegroup:
    def test_amplitudes_unchanged(self):
        states = build_a_states(u2_strong_upuob(), 2)
        b = regroup_bipartite(states)
        for s, t in zip(states, b):
            assert np.array_equal(s.amplitudes, t.amplitudes)
            assert t.parties == (4, 4)
        assert b[0].label == "b_1"

    def test_all_product_across_cut(self):
        for s in regroup_bipartite(build_a_states(u2_strong_upuob(), 2)):
            assert product_sides(s) is not None

    def test_product_test_follows_the_tolerance(self):
        # Schmidt coefficients 1 and 1e-7.
        amps = np.zeros(4, dtype=complex)
        amps[0], amps[3] = 1.0, 1e-7
        s = StateVector(amps / np.linalg.norm(amps), (2, 2), "s")
        assert product_sides(s, Tolerance(1e-3)) is not None
        assert product_sides(s, Tolerance(1e-12)) is None
        assert product_sides(s) is None

    def test_needs_four_subsystems(self):
        with pytest.raises(ShapeError):
            regroup_bipartite([mes(4)])


class TestQutritEmbed:
    def test_embeds_first_five(self):
        b = regroup_bipartite(build_a_states(u2_strong_upuob(), 2))
        c = qutrit_embed(b[:5])
        assert [s.label for s in c] == [f"c_{k}" for k in range(1, 6)]
        for s in c:
            assert s.parties == (3, 3)
            assert np.isclose(np.linalg.norm(s.amplitudes), 1.0)

    def test_orthogonality_preserved(self):
        b = regroup_bipartite(build_a_states(u2_strong_upuob(), 2))
        c = qutrit_embed(b[:5])
        amps = np.stack([s.amplitudes for s in c])
        g = amps.conj() @ amps.T
        assert np.abs(g - np.eye(5)).max() < 1e-9

    def test_rejects_outside_support(self):
        # b_6 lives on (|0> + |3>) x (|0> + |3>), outside the embedded space.
        b = regroup_bipartite(build_a_states(u2_strong_upuob(), 2))
        with pytest.raises(EmbeddingError):
            qutrit_embed([b[5]])

    def test_rejects_wrong_parties(self):
        with pytest.raises(ShapeError):
            qutrit_embed([mes(3)])


class TestTripleIndependence:
    def test_passes_on_embedded_factors(self):
        b = regroup_bipartite(build_a_states(u2_strong_upuob(), 2))
        sides = [product_sides(s) for s in qutrit_embed(b[:5])]
        assert triple_independence_check([sd[0] for sd in sides])
        assert triple_independence_check([sd[1] for sd in sides])

    def test_fails_with_repeats(self):
        e = [np.eye(3)[:, k] for k in (0, 1, 2)]
        assert not triple_independence_check([e[0], e[1], e[2], e[0], e[1]])

    def test_needs_five(self):
        with pytest.raises(ConfigError):
            triple_independence_check([np.eye(3)[:, 0]] * 4)


class TestMeasurementBranch:
    def test_projector_probability(self):
        s = mes(2)
        e = MeasurementOperator(np.diag([1.0, 0.0]), 0)
        p, post = measurement_branch(s, e)
        assert np.isclose(p, 0.5)
        assert np.isclose(np.linalg.norm(post.amplitudes), 1.0)

    def test_zero_probability_branch(self):
        s = StateVector(np.array([1.0, 0, 0, 0]), (2, 2))
        e = MeasurementOperator(np.diag([0.0, 1.0]), 0)
        p, post = measurement_branch(s, e)
        assert p == 0.0 and post is None

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            measurement_branch(mes(3), MeasurementOperator(np.eye(2), 0))

    def test_party_out_of_range(self):
        with pytest.raises(ShapeError):
            measurement_branch(mes(2), MeasurementOperator(np.eye(2), 2))


class TestProtocol:
    def test_survivor_sets(self):
        trace = run_three_ebit_protocol()
        assert trace.surviving["M_1"] == [f"b_{k}" for k in range(6, 10)]
        assert trace.surviving["M_2"] == [f"b_{k}" for k in range(10, 13)]
        assert trace.surviving["M_2_bar"] == [f"b_{k}" for k in range(1, 6)]

    def test_ebits_and_ledger(self):
        trace = run_three_ebit_protocol()
        assert trace.ebits_consumed == 3
        assert len(trace.ledger) == 3

    def test_deterministic_probabilities(self):
        trace = run_three_ebit_protocol()
        for step in trace.steps:
            for p in step.probabilities.values():
                assert min(abs(p), abs(p - 1.0)) < 1e-9

    def test_dispositions(self):
        trace = run_three_ebit_protocol()
        assert trace.terminal_disposition["M_1"] == "distinguished-locally"
        assert trace.terminal_disposition["M_2"] == "distinguished-locally"
        assert (
            trace.terminal_disposition["M_2_bar"] == "reduced-to-qutrit-UPB-blackbox"
        )

    def test_trace_json(self):
        obj = run_three_ebit_protocol().to_json()
        assert obj["ebits_consumed"] == 3
        assert len(obj["steps"]) == 4


class TestCountingBound:
    def test_violations(self):
        assert mes_counting_bound(12, 2, 8)
        assert mes_counting_bound(12, 4, 4)
        assert not mes_counting_bound(4, 4, 4)

    def test_requires_sorted_dims(self):
        with pytest.raises(ConfigError):
            mes_counting_bound(5, 8, 2)


class TestEvidence:
    def test_default_all_pass(self):
        report = genuine_nonlocality_evidence()
        assert report["all_passed"]
        assert [f["name"] for f in report["facts"]] == [
            "mes-count-one-vs-three-cut",
            "mes-count-two-vs-two-cut",
            "regrouped-states-product",
            "qutrit-upb-reduction",
        ]

    def test_small_replacement_set_fails(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        members = (
            ProductOperator((np.eye(2), np.eye(2)), "A"),
            ProductOperator((np.eye(2), x), "B"),
            ProductOperator((x, np.eye(2)), "C"),
            ProductOperator((x, x), "D"),
        )
        s = OperatorSet(((2, 2), (2, 2)), members)
        report = genuine_nonlocality_evidence(s)
        assert not report["all_passed"]
        by_name = {f["name"]: f["passed"] for f in report["facts"]}
        assert not by_name["mes-count-one-vs-three-cut"]
        assert not by_name["qutrit-upb-reduction"]
