"""Hard-coded operator-set constructions and tensor combinators.

Every constructor stores its members with unitary (or unit-norm) factors so
that per-factor unitarity checks apply directly; overall scalars printed in
the source material are absorbed into the factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidBaseError, InvalidWitnessError, SizeError
from .matrix import MAX_SET_ENTRIES, as_matrix, kron_all
from .product import (
    OperatorSet,
    ProductOperator,
    check_orthonormal,
    product_vector_set,
    row_major_index_set,
    upb_to_upob,
)

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"0": I2, "x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def omega(k: int) -> complex:
    """Primitive k-th root of unity e^{2 pi i / k}."""
    return complex(math.cos(2 * math.pi / k), math.sin(2 * math.pi / k))


#: The golden ratio, and the phase e^{i theta} with cos(theta) = -7/8 and
#: positive sine, of the qutrit UUO set.
PHI = (1.0 + math.sqrt(5.0)) / 2.0
GOLDEN_PHASE = complex(-7.0 / 8.0, math.sqrt(15.0) / 8.0)


@dataclass(frozen=True)
class LiftParams:
    """Extension of a single-party UUO set on C^d to C^(q*d)."""

    q: int
    base: OperatorSet

    def __post_init__(self):
        if self.q < 1:
            raise ConfigError(f"extension factor q must be >= 1, got {self.q}")
        if self.base.n_parties != 1:
            raise InvalidBaseError("the base set must be single-party")
        r, c = self.base.shape[0]
        if r != c:
            raise InvalidBaseError("the base set must have square factors")
        if not check_orthonormal(self.base):
            raise InvalidBaseError("the base set fails the orthonormality check")

    @property
    def d(self) -> int:
        return self.base.shape[0][0]


def _check_set_size(name: str, members: int, entries_per_member: int):
    """Refuse a family whose closed-form size is over ``MAX_SET_ENTRIES``."""
    if members * entries_per_member > MAX_SET_ENTRIES:
        raise SizeError(
            f"{name} exceeds the cap of {MAX_SET_ENTRIES} matrix entries"
        )


def _single_party(members, dim, labels) -> OperatorSet:
    ops = tuple(
        ProductOperator((as_matrix(m),), label) for m, label in zip(members, labels)
    )
    return OperatorSet(((dim, dim),), ops)


def u2_strong_upuob() -> OperatorSet:
    """The 12 two-qubit product unitaries U_1..U_12.

    Scalars are folded into the factors: e.g. U_1 is stored as
    sigma_x (x) (sigma_x - sigma_y)/sqrt(2), the same operator.
    """
    s2 = 1.0 / math.sqrt(2.0)
    s3 = 1.0 / math.sqrt(3.0)
    pairs = [
        (SIGMA_X, s2 * (SIGMA_X - SIGMA_Y)),
        (s2 * (SIGMA_X - SIGMA_Y), SIGMA_Z),
        (SIGMA_Z, s2 * (-SIGMA_Y + SIGMA_Z)),
        (s2 * (-SIGMA_Y + SIGMA_Z), SIGMA_X),
        (s3 * (SIGMA_X + SIGMA_Y + SIGMA_Z), s3 * (SIGMA_X + SIGMA_Y + SIGMA_Z)),
        (I2, I2),
        (I2, SIGMA_X),
        (I2, SIGMA_Y),
        (I2, SIGMA_Z),
        (SIGMA_X, I2),
        (SIGMA_Y, I2),
        (SIGMA_Z, I2),
    ]
    members = tuple(
        ProductOperator((a, b), f"U_{i + 1}") for i, (a, b) in enumerate(pairs)
    )
    return OperatorSet(((2, 2), (2, 2)), members)


def nqubit_strong_upuob(n: int) -> OperatorSet:
    """The n-party family sigma_a1 x ... x sigma_a(n-2) x U_i, 3*4^(n-1) members."""
    if n < 2:
        raise ConfigError(f"the n-qubit family needs n >= 2, got {n}")
    # Past the cap's bit length 4^(n-1) alone is over the cap, so clamping the
    # exponent there refuses a huge n without computing its power.
    members = 3 * 4 ** min(n - 1, MAX_SET_ENTRIES.bit_length())
    _check_set_size(f"nqubit:{n}", members, 4 * n)
    base = u2_strong_upuob()
    if n == 2:
        return base
    members = []
    for prefix in itertools.product("0xyz", repeat=n - 2):
        for m in base.members:
            factors = tuple(PAULIS[a] for a in prefix) + m.factors
            label = "".join(f"s{a}." for a in prefix) + m.label
            members.append(ProductOperator(factors, label))
    return OperatorSet(((2, 2),) * n, tuple(members))


def golden_states() -> list[np.ndarray]:
    """The six qutrit states with pairwise overlap-squared 1/5."""
    norm = 1.0 / math.sqrt(1.0 + PHI**2)
    out = []
    for base_idx in range(3):
        for sign in (+1.0, -1.0):
            v = np.zeros(3, dtype=complex)
            v[base_idx] = 1.0
            v[(base_idx + 1) % 3] = sign * PHI
            out.append(norm * v)
    return out


def qutrit_uuo_set() -> OperatorSet:
    """Six 3x3 unitaries I - (1 - e^{i theta}) |psi_s><psi_s|."""
    coeff = 1.0 - GOLDEN_PHASE
    members = []
    for s, psi in enumerate(golden_states()):
        proj = np.outer(psi, psi.conj())
        members.append(np.eye(3, dtype=complex) - coeff * proj)
    return _single_party(members, 3, [f"U_{s + 1}" for s in range(6)])


def weyl_heisenberg(d: int) -> OperatorSet:
    """All d^2 operators U_{n,m} = sum_k w_d^{kn} |k+m><k| (indices mod d)."""
    if d < 2:
        raise ConfigError(f"weyl_heisenberg needs d >= 2, got {d}")
    _check_set_size(f"weyl:{d}", d * d, d * d)
    w = omega(d)
    members, labels = [], []
    for n in range(d):
        for m in range(d):
            diag = np.diag([w ** (k * n) for k in range(d)])
            members.append(np.roll(diag, m, axis=0))
            labels.append(f"U_{n},{m}")
    return _single_party(members, d, labels)


def clock_matrix(q: int) -> np.ndarray:
    """diag(1, w_q, ..., w_q^{q-1}); the W_q of the lift construction.

    For q = 2 this is diag(1, -1), matching the eta_{+-} factors of the
    printed C^2 x C^3 example.
    """
    w = omega(q)
    return np.diag([w**s for s in range(q)]).astype(complex)


def shift_matrix(q: int) -> np.ndarray:
    """Cyclic shift P_q with P|k> = |k-1 mod q>."""
    return np.roll(np.eye(q, dtype=complex), 1, axis=1)


def lift_uuo(p: LiftParams) -> OperatorSet:
    """UUO set on C^(q*d) built from a UUO set on C^d.

    Members (W^s P^j) x U_{n,m} for j = 1..q-1 plus W^s x U_t, presented as a
    two-party set over M_{q,q} x M_{d,d}; cardinality q^2 d^2 - q d^2 + q N.
    """
    q, d = p.q, p.d
    members = q * q * d * d - q * d * d + q * len(p.base)
    _check_set_size(f"lift:{q}", members, q * q + d * d)
    w = clock_matrix(q)
    shift = shift_matrix(q)
    weyl = weyl_heisenberg(d) if q > 1 else None
    members = []
    for s in range(q):
        ws = np.linalg.matrix_power(w, s)
        for j in range(1, q):
            first = ws @ np.linalg.matrix_power(shift, j)
            for wm in weyl.members:
                members.append(
                    ProductOperator(
                        (first, wm.factors[0]), f"{wm.label}^({s},{j})"
                    )
                )
        for t, base_member in enumerate(p.base.members):
            members.append(
                ProductOperator((ws, base_member.factors[0]), f"U_{t + 1}^({s})")
            )
    return OperatorSet(((q, q), (d, d)), tuple(members))


def example_upuob_2x3() -> OperatorSet:
    """The 30-member set {xi_pm x U_{n,m}, eta_pm x U_s} on M_2,2 x M_3,3.

    It is the q = 2 lift of the qutrit UUO set, with xi_+ = P, xi_- = WP,
    eta_+ = I and eta_- = W; Weyl indices run 1..3, index 0 written as 3.
    """
    lift = {m.label: m for m in lift_uuo(LiftParams(2, qutrit_uuo_set())).members}
    signs = list(enumerate("+-"))
    weyl = [
        lift[f"U_{n % 3},{m % 3}^({s},1)"].relabel(f"U_{n},{m}^{sign}")
        for s, sign in signs
        for n, m in itertools.product((1, 2, 3), repeat=2)
    ]
    uuo = [
        lift[f"U_{t}^({s})"].relabel(f"U_{t}^{sign}")
        for s, sign in signs
        for t in range(1, 7)
    ]
    return OperatorSet(((2, 2), (3, 3)), tuple(weyl + uuo))


def antisym_witness_2x3(w1: complex, w4: complex, x) -> ProductOperator:
    """diag(w1, w4) x X with X antisymmetric; orthogonal to the 30-member set."""
    x = as_matrix(x)
    if x.shape != (3, 3):
        raise InvalidWitnessError(f"X must be 3x3, got {x.shape}")
    if np.abs(x.T + x).max() > 1e-12:
        raise InvalidWitnessError("X must be antisymmetric")
    if np.linalg.norm(x) == 0.0:
        raise InvalidWitnessError("X must be nonzero")
    if w1 == 0 and w4 == 0:
        raise InvalidWitnessError("(w1, w4) must not both vanish")
    w = np.diag([complex(w1), complex(w4)])
    return ProductOperator((w, x), "antisym-witness")


def example1_upb() -> list[tuple[np.ndarray, np.ndarray]]:
    """The 11-state UPB on C^4 x C^4, per-party factors normalized."""
    w = omega(3)
    w2 = w * w

    def v(*entries):
        a = np.array(entries, dtype=complex)
        return a / np.linalg.norm(a)

    return [
        (v(1, 0, 0, 0), v(1, -1, 0, 0)),
        (v(1, 0, 0, -1), v(0, 0, 1, 0)),
        (v(1, w, w2, 0), v(0, 0, 0, 1)),
        (v(1, w2, w, 0), v(0, 0, 0, 1)),
        (v(0, 1, w, w2), v(0, 1, 0, 0)),
        (v(0, 1, w2, w), v(0, 1, 0, 0)),
        (v(0, 0, 0, 1), v(1, 0, 0, -1)),
        (v(0, 1, 1, 0), v(1, 0, -1, 0)),
        (v(0, 1, -1, 0), v(1, 0, 1, 0)),
        (v(0, 1, -1, 0), v(1, 0, -1, 0)),
        (v(1, 1, 1, 1), v(1, 1, 1, 1)),
    ]


def example1_upob() -> OperatorSet:
    """Example 1's UPOB on M_2,2 x M_2,2 via the bijection F.

    M_4 is derived from psi_4, giving [[1, w^2], [w, 0]] for its first
    factor; the printed duplicate of M_3 is treated as a typo.
    """
    idx = row_major_index_set(2, 2)
    return upb_to_upob(example1_upb(), [idx, idx], [(2, 2), (2, 2)])


def tensor_combine(
    a: OperatorSet,
    b: OperatorSet,
    regroup: list[list[int]] | None = None,
) -> OperatorSet:
    """All pairwise tensor products, with factors merged per regroup.

    Input parties are indexed 0..len(a)+len(b)-1 in a-then-b order; regroup
    lists the input parties merged into each output party.  The default keeps
    every input party separate.
    """
    n_in = a.n_parties + b.n_parties
    if regroup is None:
        regroup = [[i] for i in range(n_in)]
    seen = [i for group in regroup for i in group]
    if sorted(seen) != list(range(n_in)) or any(len(g) == 0 for g in regroup):
        raise ConfigError(f"regroup must partition the {n_in} input parties")
    in_shapes = list(a.shape) + list(b.shape)
    out_shape = [
        tuple(math.prod(in_shapes[i][k] for i in group) for k in (0, 1))
        for group in regroup
    ]
    members = []
    for ma in a.members:
        for mb in b.members:
            in_factors = list(ma.factors) + list(mb.factors)
            factors = tuple(
                kron_all([in_factors[i] for i in group]) for group in regroup
            )
            members.append(ProductOperator(factors, f"{ma.label}*{mb.label}"))
    return OperatorSet(tuple(out_shape), tuple(members))


def _name_int(name: str) -> int:
    """The integer after the colon of a catalog name such as ``weyl:3``."""
    arg = name.split(":", 1)[1]
    try:
        return int(arg)
    except ValueError:
        raise ConfigError(
            f"catalog name {name!r} needs an integer, got {arg!r}"
        ) from None


def construct_by_name(name: str, base: str | None = None) -> OperatorSet:
    """Catalog lookup used by the CLI: u2 | nqubit:n | qutrit-uuo | weyl:d |
    lift:q | example2 | example1-upb | example1-upob."""
    if name == "u2":
        return u2_strong_upuob()
    if name.startswith("nqubit:"):
        return nqubit_strong_upuob(_name_int(name))
    if name == "qutrit-uuo":
        return qutrit_uuo_set()
    if name.startswith("weyl:"):
        return weyl_heisenberg(_name_int(name))
    if name.startswith("lift:"):
        q = _name_int(name)
        base_set = construct_by_name(base or "qutrit-uuo")
        return lift_uuo(LiftParams(q, base_set))
    if name == "example2":
        return example_upuob_2x3()
    if name == "example1-upb":
        return product_vector_set(example1_upb())
    if name == "example1-upob":
        return example1_upob()
    raise ConfigError(f"unknown catalog name {name!r}")
