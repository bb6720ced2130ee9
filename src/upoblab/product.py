"""Product operators, operator sets, and the vector/matrix correspondence.

An OperatorSet stores its members unnormalized, exactly as authored; the
orthonormality checks rescale on the fly.  Product vectors (states) are
handled uniformly as sets with column-vector party shapes (d, 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyInputError, ShapeError, SizeError
from .matrix import (
    DEFAULT_TOL,
    MAX_PRODUCT_DIM,
    Tolerance,
    as_matrix,
    kron_all,
    matrices_from_json,
    matrix_to_json,
)

PartyShape = tuple[tuple[int, int], ...]


def validate_party_shape(shape: Sequence[Sequence[int]]) -> PartyShape:
    try:
        shape = tuple((int(r), int(c)) for r, c in shape)
    except (TypeError, ValueError, OverflowError):
        raise ShapeError(
            f"a party shape is a list of [rows, cols] pairs, got {shape!r}"
        ) from None
    if len(shape) == 0:
        raise ShapeError("a party shape needs at least one party")
    for r, c in shape:
        if r < 1 or c < 1:
            raise ShapeError(f"party dimensions must be >= 1, got ({r}, {c})")
    return shape


@dataclass(frozen=True)
class ProductOperator:
    """Ordered list of local factors, one per party."""

    factors: tuple[np.ndarray, ...]
    label: str = ""

    def __post_init__(self):
        factors = tuple(as_matrix(f) for f in self.factors)
        if len(factors) == 0:
            raise ShapeError("a product operator needs at least one factor")
        for f in factors:
            if not f.any():
                raise ShapeError(f"zero factor in product operator {self.label!r}")
            f.setflags(write=False)
        object.__setattr__(self, "factors", factors)

    @classmethod
    def _checked(cls, factors: tuple[np.ndarray, ...], label: str) -> "ProductOperator":
        """A member from factors that already pass ``__post_init__``'s checks
        and are read-only, built without checking them again."""
        op = object.__new__(cls)
        object.__setattr__(op, "factors", factors)
        object.__setattr__(op, "label", label)
        return op

    @property
    def party_shape(self) -> PartyShape:
        return tuple(f.shape for f in self.factors)

    def full_matrix(self) -> np.ndarray:
        return kron_all(self.factors)

    def relabel(self, label: str) -> "ProductOperator":
        return ProductOperator(self.factors, label)

    def to_json(self) -> dict:
        factors = [matrix_to_json(f) for f in self.factors]
        return {"label": self.label, "factors": factors}


@dataclass(frozen=True)
class OperatorSet:
    """A finite set of product operators sharing a party shape."""

    shape: PartyShape
    members: tuple[ProductOperator, ...]

    def __post_init__(self):
        shape = validate_party_shape(self.shape)
        members = tuple(self.members)
        labels = set()
        for m in members:
            if m.party_shape != shape:
                raise ShapeError(
                    f"member {m.label!r} shape {m.party_shape} != set shape {shape}"
                )
            if m.label in labels:
                raise ShapeError(f"duplicate member label {m.label!r}")
            labels.add(m.label)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def n_parties(self) -> int:
        return len(self.shape)

    def labels(self) -> list[str]:
        return [m.label for m in self.members]

    def to_json(self) -> dict:
        return {
            "shape": [[r, c] for r, c in self.shape],
            "members": [m.to_json() for m in self.members],
        }

    @staticmethod
    def from_json(obj: dict) -> "OperatorSet":
        """Inverse of ``to_json``.  Each party's factors are read and checked
        as one ``matrices_from_json`` stack, then split into the members."""
        if not isinstance(obj, dict) or not isinstance(obj["members"], list):
            raise ShapeError("an operator set is a JSON object with a members list")
        shape = validate_party_shape(obj["shape"])
        labels, factor_lists = [], []
        for m in obj["members"]:
            if not isinstance(m, dict) or not isinstance(m["factors"], list):
                raise ShapeError("a member is a JSON object with a factors list")
            if not isinstance(m["label"], str):
                raise ShapeError(f"member labels are strings, got {m['label']!r}")
            if len(m["factors"]) != len(shape):
                raise ShapeError(
                    f"member {m['label']!r} has {len(m['factors'])} factors "
                    f"for {len(shape)} parties"
                )
            labels.append(m["label"])
            factor_lists.append(m["factors"])
        if not labels:
            return OperatorSet(shape, ())
        stacks = []
        for p in range(len(shape)):
            stack = matrices_from_json([factors[p] for factors in factor_lists])
            # The zero rule of ProductOperator, for every factor at once.
            zero = np.flatnonzero(~stack.any(axis=(1, 2)))
            if zero.size:
                raise ShapeError(
                    f"zero factor in product operator {labels[zero[0]]!r}"
                )
            stack.setflags(write=False)
            stacks.append(stack)
        members = tuple(
            ProductOperator._checked(factors, label)
            for label, factors in zip(labels, zip(*stacks))
        )
        return OperatorSet(shape, members)


@dataclass(frozen=True)
class IndexSet:
    """Ordered positions (p, q) receiving the vector entries under F."""

    positions: tuple[tuple[int, int], ...]

    def __post_init__(self):
        positions = tuple((int(p), int(q)) for p, q in self.positions)
        if len(set(positions)) != len(positions):
            raise ShapeError("index set positions must be distinct")
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.positions)


def row_major_index_set(m: int, n: int, d: int | None = None) -> IndexSet:
    """The default index set {(0,0), (0,1), ...}, truncated to d positions."""
    if d is None:
        d = m * n
    positions = list(itertools.product(range(m), range(n)))[:d]
    return IndexSet(tuple(positions))


def party_rows(op_set: OperatorSet, p: int) -> np.ndarray:
    """Party p's stack: row j is member j's factor at party p, vectorized
    row-major, so the array has shape (len(op_set), rows * cols)."""
    r, c = op_set.shape[p]
    if len(op_set) == 0:
        return np.empty((0, r * c), dtype=complex)
    return np.concatenate([m.factors[p] for m in op_set.members]).reshape(-1, r * c)


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D complex array divided by its norm; no row may be zero.

    A row is first multiplied by the power of two that brings its largest
    real or imaginary part into [0.5, 1).  That is exact, so rows of ordinary
    magnitude give the same bits as dividing at once, and entries near 1e300
    or 1e-170 neither overflow nor underflow when squared."""
    _, exp = np.frexp(np.abs(rows.view(float)).max(axis=1))
    rows = np.ldexp(rows.view(float), -exp[:, None]).view(complex)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def kron_rows(op_set: OperatorSet) -> np.ndarray:
    """Row j is member j's full matrix, the Kronecker product of its factors,
    vectorized row-major: ``kron_all`` of every member at once."""
    rows = math.prod(r for r, _ in op_set.shape)
    cols = math.prod(c for _, c in op_set.shape)
    if rows > MAX_PRODUCT_DIM or cols > MAX_PRODUCT_DIM:
        raise SizeError(
            f"full matrices {rows}x{cols} exceed the cap of {MAX_PRODUCT_DIM}"
        )
    n = len(op_set)
    (r, c), *rest = op_set.shape
    out = party_rows(op_set, 0).reshape(n, r, c)
    for p, (r, c) in enumerate(rest, 1):
        # out[j, i, k, a, b] = out[j, i, a] * f_j[k, b], np.kron's layout.
        f = party_rows(op_set, p).reshape(n, 1, r, 1, c)
        out = out[:, :, None, :, None] * f
        out = out.reshape(n, out.shape[1] * r, out.shape[3] * c)
    return out.reshape(n, -1)


def gram(op_set: OperatorSet) -> np.ndarray:
    """G(j, k) = hs_inner(U_j, U_k), via the per-party factorization."""
    if len(op_set) == 0:
        raise EmptyInputError("gram of an empty set")
    n = len(op_set)
    out = np.ones((n, n), dtype=complex)
    for party in range(op_set.n_parties):
        stacked = party_rows(op_set, party)
        out *= stacked.conj() @ stacked.T
    return out


def check_orthonormal(op_set: OperatorSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Tr(U_j^dag U_k) = d delta_jk after normalizing members to norm sqrt(d).

    Dividing by d, that is pairwise orthogonality of the unit-normalized
    members, with the diagonal 1 by construction.
    """
    for r, c in op_set.shape:
        if r != c:
            raise ShapeError("orthonormality is defined for square parties only")
    return check_pairwise_orthogonal(op_set, tol)


def check_pairwise_orthogonal(op_set: OperatorSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Off-diagonal Gram entries vanish after unit normalization.

    The orthogonality notion for sets with non-square parties (e.g. product
    vectors), where the sqrt(d) convention does not apply.
    """
    if len(op_set) == 0:
        raise EmptyInputError("gram of an empty set")
    # The Gram matrix of the members with unit factors, which is that of the
    # unit members, built without squaring the entries as authored.
    g = np.ones((len(op_set),) * 2, dtype=complex)
    for party in range(op_set.n_parties):
        stacked = unit_rows(party_rows(op_set, party))
        g *= stacked.conj() @ stacked.T
    off = g - np.diag(np.diag(g))
    return bool(np.abs(off).max() <= tol.eps)


def vector_to_matrix(
    v: Sequence[complex], idx: IndexSet, shape: tuple[int, int]
) -> np.ndarray:
    """The bijection F: entry t of v lands at position idx[t], zeros elsewhere."""
    v = np.asarray(v, dtype=complex).ravel()
    m, n = shape
    d = len(v)
    if len(idx) != d:
        raise IndexError(f"index set has {len(idx)} positions for a length-{d} vector")
    if d > m * n or d < max(m, n):
        raise IndexError(f"need max(m,n) <= d <= m*n, got d={d} for shape {shape}")
    out = np.zeros((m, n), dtype=complex)
    for t, (p, q) in enumerate(idx.positions):
        if not (0 <= p < m and 0 <= q < n):
            raise IndexError(f"position {(p, q)} outside shape {shape}")
        out[p, q] = v[t]
    return out


def upb_to_upob(
    upb: Sequence[Sequence[np.ndarray]],
    idx_per_party: Sequence[IndexSet],
    shapes: Sequence[tuple[int, int]],
    labels: Sequence[str] | None = None,
) -> OperatorSet:
    """Apply F partywise to a product-vector set, preserving inner products."""
    shapes = validate_party_shape(shapes)
    if len(idx_per_party) != len(shapes):
        raise ShapeError("need one index set per party")
    if labels is None:
        labels = [f"M_{j + 1}" for j in range(len(upb))]
    members = []
    for j, vec_factors in enumerate(upb):
        if len(vec_factors) != len(shapes):
            raise ShapeError(f"product vector {j} has {len(vec_factors)} parties")
        factors = []
        for v, idx, shape in zip(vec_factors, idx_per_party, shapes):
            v = np.asarray(v, dtype=complex).ravel()
            if len(v) != shape[0] * shape[1]:
                raise ShapeError(
                    f"party vector of length {len(v)} cannot fill shape {shape}"
                )
            factors.append(vector_to_matrix(v, idx, shape))
        members.append(ProductOperator(tuple(factors), labels[j]))
    return OperatorSet(shapes, tuple(members))


def product_vector_set(
    vectors: Sequence[Sequence[np.ndarray]],
    labels: Sequence[str] | None = None,
) -> OperatorSet:
    """Wrap product vectors as an OperatorSet with (d, 1) party shapes."""
    if len(vectors) == 0:
        raise EmptyInputError("no product vectors given")
    shape = tuple((len(np.ravel(v)), 1) for v in vectors[0])
    if labels is None:
        labels = [f"psi_{j + 1}" for j in range(len(vectors))]
    members = tuple(
        ProductOperator(
            tuple(np.asarray(v, dtype=complex).reshape(-1, 1) for v in vec),
            labels[j],
        )
        for j, vec in enumerate(vectors)
    )
    return OperatorSet(shape, members)
