"""State families, regrouping/embedding isometries, and the three-ebit
discrimination replay with branch accounting.

Teleportation is a ledger entry plus the bipartite regrouping; the final
two-qutrit-UPB discrimination subroutine is a declared black box that is
charged one ebit after its reduction is certified.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import u2_strong_upuob
from .errors import (
    ConfigError,
    EmbeddingError,
    InvalidEffectError,
    ShapeError,
)
from .matrix import DEFAULT_TOL, Tolerance, numeric_rank
from .product import OperatorSet, product_vector_set
from .unextend import UNEXTENDIBLE, extendibility_search


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state with a declared subsystem split."""

    amplitudes: np.ndarray
    parties: tuple[int, ...]
    label: str = ""

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).ravel()
        dims = tuple(int(d) for d in self.parties)
        expected = math.prod(dims)
        if len(amp) != expected:
            raise ShapeError(
                f"amplitude length {len(amp)} != product of party dims {dims}"
            )
        nrm = np.linalg.norm(amp)
        if abs(nrm - 1.0) > 1e-8:
            raise ShapeError(f"state {self.label!r} is not normalized (norm {nrm})")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "parties", dims)

    @property
    def dim(self) -> int:
        return len(self.amplitudes)


@dataclass(frozen=True)
class MeasurementOperator:
    """POVM effect 0 <= E <= I acting on one declared party."""

    matrix: np.ndarray
    acting_party: int
    label: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidEffectError("effect must be a square matrix")
        if np.abs(m - m.conj().T).max() > 1e-9:
            raise InvalidEffectError("effect must be Hermitian")
        eig = np.linalg.eigvalsh(m)
        if eig.min() < -1e-9 or eig.max() > 1.0 + 1e-9:
            raise InvalidEffectError("effect eigenvalues must lie in [0, 1]")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass
class ProtocolStep:
    party: str
    effect_label: str
    probabilities: dict[str, float]
    survivors: list[str]

    def to_json(self) -> dict:
        return {
            "party": self.party,
            "effect": self.effect_label,
            "probabilities": self.probabilities,
            "survivors": self.survivors,
        }


@dataclass
class ProtocolTrace:
    steps: list[ProtocolStep] = field(default_factory=list)
    surviving: dict[str, list[str]] = field(default_factory=dict)
    ebits_consumed: int = 0
    terminal_disposition: dict[str, str] = field(default_factory=dict)
    ledger: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "steps": [s.to_json() for s in self.steps],
            "surviving": self.surviving,
            "ebits_consumed": self.ebits_consumed,
            "terminal_disposition": self.terminal_disposition,
            "ledger": self.ledger,
        }


def mes(d: int) -> StateVector:
    """The d-level maximally entangled state (1/sqrt(d)) sum_j |j,j>."""
    if d < 2:
        raise ConfigError(f"mes needs d >= 2, got {d}")
    amp = np.eye(d, dtype=complex).ravel() / math.sqrt(d)
    return StateVector(amp, (d, d), f"psi_{d}")


def build_a_states(op_set: OperatorSet, d: int) -> list[StateVector]:
    """(U_k x I) applied to one MES per party, ordering A1 B1 A2 B2 ...

    Members are normalized on the fly so each output state has unit norm;
    orthogonality of the states mirrors orthonormality of the operators.
    """
    for r, c in op_set.shape:
        if r != c or r != d:
            raise ShapeError(f"set parties must be square of size {d}")
    psi = mes(d).amplitudes
    states = []
    for k, m in enumerate(op_set.members):
        amp = np.ones(1, dtype=complex)
        for f in m.factors:
            local = np.kron(f * (math.sqrt(d) / np.linalg.norm(f)), np.eye(d)) @ psi
            amp = np.kron(amp, local)
        states.append(StateVector(amp, (d, d) * op_set.n_parties, f"a'_{k + 1}"))
    return states


def regroup_bipartite(states: list[StateVector]) -> list[StateVector]:
    """Reinterpret A1 B1 A2 B2 states as bipartite with A = A1 B1, B = A2 B2.

    Pure reindexing: amplitudes are unchanged bit for bit.
    """
    out = []
    for k, s in enumerate(states):
        if len(s.parties) != 4:
            raise ShapeError(f"expected 4 subsystems, got {len(s.parties)}")
        d_a = s.parties[0] * s.parties[1]
        d_b = s.parties[2] * s.parties[3]
        out.append(StateVector(s.amplitudes, (d_a, d_b), f"b_{k + 1}"))
    return out


def _embedding_isometry() -> np.ndarray:
    """C^4 -> C^3 partial isometry (|0>-|3>)/sqrt(2) -> |0>, |1> -> |1>, |2> -> |2>."""
    v = np.zeros((3, 4), dtype=complex)
    v[0, 0] = 1.0 / math.sqrt(2.0)
    v[0, 3] = -1.0 / math.sqrt(2.0)
    v[1, 1] = 1.0
    v[2, 2] = 1.0
    return v


def qutrit_embed(states: list[StateVector], tol: Tolerance = DEFAULT_TOL) -> list[StateVector]:
    """Map C^4 x C^4 states supported on H_3 x H_3 into C^3 x C^3.

    Raises EmbeddingError when a state has weight outside the span of
    {(|0>-|3>)/sqrt(2), |1>, |2>} on either side.
    """
    v = _embedding_isometry()
    vv = np.kron(v, v)
    out = []
    for k, s in enumerate(states):
        if s.parties != (4, 4):
            raise ShapeError(f"expected a C^4 x C^4 state, got parties {s.parties}")
        emb = vv @ s.amplitudes
        loss = 1.0 - float(np.linalg.norm(emb)) ** 2
        if loss > 100.0 * tol.eps:
            raise EmbeddingError(
                f"state {s.label!r} has weight {loss:.3e} outside the embedded support"
            )
        emb = emb / np.linalg.norm(emb)
        out.append(StateVector(emb, (3, 3), f"c_{k + 1}"))
    return out


def product_sides(state: StateVector, tol: Tolerance = DEFAULT_TOL):
    """Schmidt factors of a bipartite product state, or None if entangled:
    Schmidt rank 1 means the second Schmidt coefficient is at most
    ``tol.eps`` times the first."""
    if len(state.parties) != 2:
        raise ShapeError("need a bipartite state")
    d_a, d_b = state.parties
    m = state.amplitudes.reshape(d_a, d_b)
    u, s, vh = np.linalg.svd(m)
    if s.size > 1 and s[1] > tol.eps * s[0]:
        return None
    return u[:, 0], vh[0].conj()


def triple_independence_check(vectors, tol: Tolerance = DEFAULT_TOL) -> bool:
    """All 10 triples from 5 vectors in C^3 are linearly independent."""
    if len(vectors) != 5:
        raise ConfigError(f"expected exactly 5 vectors, got {len(vectors)}")
    cols = [np.asarray(v, dtype=complex).reshape(-1, 1) for v in vectors]
    for triple in itertools.combinations(cols, 3):
        if numeric_rank(list(triple), tol) != 3:
            return False
    return True


def measurement_branch(
    state: StateVector,
    effect: MeasurementOperator,
    tol: Tolerance = DEFAULT_TOL,
):
    """Probability and sqrt(E)-updated post-state for one effect."""
    k = effect.acting_party
    if not (0 <= k < len(state.parties)):
        raise ShapeError(f"acting party {k} out of range")
    if effect.matrix.shape[0] != state.parties[k]:
        raise ShapeError(
            f"effect dim {effect.matrix.shape[0]} != party dim {state.parties[k]}"
        )
    ops = [np.eye(d, dtype=complex) for d in state.parties]
    eig, vec = np.linalg.eigh(effect.matrix)
    sqrt_e = (vec * np.sqrt(np.clip(eig, 0.0, None))) @ vec.conj().T
    ops[k] = effect.matrix
    full = functools.reduce(np.kron, ops)
    prob = float(np.real(np.vdot(state.amplitudes, full @ state.amplitudes)))
    prob = min(max(prob, 0.0), 1.0)
    if prob <= tol.eps:
        return prob, None
    ops[k] = sqrt_e
    post = functools.reduce(np.kron, ops) @ state.amplitudes
    post = post / np.linalg.norm(post)
    return prob, StateVector(post, state.parties, state.label)


def _half_projector_03() -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0
    return 0.5 * np.outer(v, v.conj())


def _pairwise_orthogonal(vectors, tol: Tolerance) -> bool:
    units = [v / np.linalg.norm(v) for v in vectors]
    return all(
        abs(np.vdot(a, b)) <= 10.0 * tol.eps
        for a, b in itertools.combinations(units, 2)
    )


def _local_disposition(states: list[StateVector], side: int, tol: Tolerance) -> str:
    """"distinguished-locally" if every state is a product state whose
    factors on ``side`` are pairwise orthogonal, else "unresolved"."""
    sides = [product_sides(s, tol) for s in states]
    if any(sd is None for sd in sides):
        return "unresolved"
    if not _pairwise_orthogonal([sd[side] for sd in sides], tol):
        return "unresolved"
    return "distinguished-locally"


def _certified_qutrit_upb(states: list[StateVector], tol: Tolerance) -> bool:
    """The states embed as five product states in C^3 x C^3 whose sides are
    triple-wise independent and which form an unextendible set."""
    sides = [product_sides(s, tol) for s in qutrit_embed(states, tol)]
    if len(sides) != 5 or any(sd is None for sd in sides):
        return False
    return (
        triple_independence_check([a for a, _ in sides], tol)
        and triple_independence_check([b for _, b in sides], tol)
        and extendibility_search(product_vector_set(sides), tol).status == UNEXTENDIBLE
    )


def _protocol_states(op_set: OperatorSet | None = None):
    if op_set is None:
        op_set = u2_strong_upuob()
    a_states = build_a_states(op_set, 2)
    return regroup_bipartite(a_states)


def run_three_ebit_protocol(tol: Tolerance = DEFAULT_TOL) -> ProtocolTrace:
    """Replay the two-round measurement cascade with a full ebit ledger.

    Two ebits pay for teleporting the A-halves; the surviving five hypotheses
    reduce to a certified two-qutrit UPB handled by the one-ebit black box.
    """
    b_states = _protocol_states()
    trace = ProtocolTrace()
    trace.ledger.append("teleport A1 -> B1: +1 ebit")
    trace.ledger.append("teleport A2 -> B2: +1 ebit")
    trace.ebits_consumed = 2

    m1 = MeasurementOperator(_half_projector_03(), acting_party=0, label="M_1")
    m1_bar = MeasurementOperator(
        np.eye(4) - m1.matrix, acting_party=0, label="M_1_bar"
    )
    m2 = MeasurementOperator(_half_projector_03(), acting_party=1, label="M_2")
    m2_bar = MeasurementOperator(
        np.eye(4) - m2.matrix, acting_party=1, label="M_2_bar"
    )

    def branch(states, effect, party_name):
        probs, survivors, post_states = {}, [], []
        for s in states:
            p, post = measurement_branch(s, effect, tol)
            probs[s.label] = p
            if p > 0.5:
                survivors.append(s.label)
                post_states.append(post)
        step = ProtocolStep(party_name, effect.label, probs, survivors)
        trace.steps.append(step)
        trace.surviving[effect.label] = survivors
        return post_states

    click1 = branch(b_states, m1, "Alice")
    nobranch1 = branch(b_states, m1_bar, "Alice")
    trace.terminal_disposition["M_1"] = _local_disposition(click1, 1, tol)

    click2 = branch(nobranch1, m2, "Bob")
    nobranch2 = branch(nobranch1, m2_bar, "Bob")
    trace.terminal_disposition["M_2"] = _local_disposition(click2, 0, tol)

    # Step 3: the residual hypotheses must reduce to a certified qutrit UPB.
    upb_ok = _certified_qutrit_upb(nobranch2, tol)
    trace.ledger.append("qutrit-UPB discrimination subroutine: +1 ebit")
    trace.ebits_consumed += 1
    trace.terminal_disposition["M_2_bar"] = (
        "reduced-to-qutrit-UPB-blackbox" if upb_ok else "unresolved"
    )
    return trace


def mes_counting_bound(n_states: int, d: int, d_prime: int) -> bool:
    """True iff n_states exceeds d', violating the LOCC-distinguishability
    necessary condition for MES ensembles in C^d x C^d'."""
    if d > d_prime:
        raise ConfigError(f"need d <= d', got d={d}, d'={d_prime}")
    return n_states > d_prime


def genuine_nonlocality_evidence(
    op_set: OperatorSet | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> dict:
    """Checkable facts behind the genuine-nonlocality claim for the two-qubit
    family, emitted as a pass/fail report."""
    b_states = _protocol_states(op_set)
    n = len(b_states)
    facts = []

    facts.append(
        {
            "name": "mes-count-one-vs-three-cut",
            "passed": mes_counting_bound(n, 2, 8),
            "detail": f"{n} states vs bound 8 in C^2 x C^8",
        }
    )
    facts.append(
        {
            "name": "mes-count-two-vs-two-cut",
            "passed": mes_counting_bound(n, 4, 4),
            "detail": f"{n} states vs bound 4 in C^4 x C^4",
        }
    )

    sides = [product_sides(s, tol) for s in b_states]
    facts.append(
        {
            "name": "regrouped-states-product",
            "passed": all(sd is not None for sd in sides),
            "detail": "Schmidt rank 1 across the regrouped cut for every state",
        }
    )

    # Residual hypotheses after the two projective rounds must form the UPB.
    m1 = MeasurementOperator(_half_projector_03(), acting_party=0, label="M_1")
    m2 = MeasurementOperator(_half_projector_03(), acting_party=1, label="M_2")
    residual = []
    for s in b_states:
        p1, _ = measurement_branch(s, m1, tol)
        p2, _ = measurement_branch(s, m2, tol)
        if p1 <= 0.5 and p2 <= 0.5:
            residual.append(s)
    try:
        upb_ok = _certified_qutrit_upb(residual, tol)
        detail = f"{len(residual)} residual states, UPB certified: {upb_ok}"
    except EmbeddingError as exc:
        upb_ok = False
        detail = str(exc)
    facts.append(
        {"name": "qutrit-upb-reduction", "passed": upb_ok, "detail": detail}
    )

    return {"facts": facts, "all_passed": all(f["passed"] for f in facts)}
