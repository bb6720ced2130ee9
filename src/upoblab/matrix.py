"""Dense complex matrix kernel.

All matrices are 2-D complex128 numpy arrays.  The Hilbert-Schmidt inner
product Tr(A^dag B) is the orthogonality notion throughout; rank decisions
go through singular values with a relative threshold.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptyInputError,
    ShapeError,
    SingularError,
    SizeError,
)

#: Hard cap on the row/column count of any kron result.
MAX_PRODUCT_DIM = 4096

#: Hard cap on the factor entries (members times entries per member) of a
#: catalog family, checked before any member is built.
MAX_SET_ENTRIES = 1 << 20


@dataclass(frozen=True)
class Tolerance:
    """Absolute tolerance on complex magnitudes and singular values."""

    eps: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ConfigError(f"tolerance eps must lie in (0, 1), got {self.eps}")


DEFAULT_TOL = Tolerance()


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ShapeError("matrix contains NaN or Inf entries")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product with a dimension cap."""
    a = as_matrix(a)
    b = as_matrix(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if rows > MAX_PRODUCT_DIM or cols > MAX_PRODUCT_DIM:
        raise SizeError(
            f"kron result {rows}x{cols} exceeds the cap of {MAX_PRODUCT_DIM}"
        )
    return np.kron(a, b)


def kron_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Left-to-right Kronecker product of a nonempty factor list."""
    if len(factors) == 0:
        raise EmptyInputError("kron_all requires at least one factor")
    return functools.reduce(kron, factors[1:], as_matrix(factors[0]))


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dag b), conjugate-linear in a."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def _stack_vectorized(mats: Sequence[np.ndarray]) -> np.ndarray:
    if len(mats) == 0:
        raise EmptyInputError("need at least one matrix")
    mats = [as_matrix(m) for m in mats]
    shape = mats[0].shape
    for m in mats[1:]:
        if m.shape != shape:
            raise ShapeError(f"shape mismatch {m.shape} vs {shape}")
    return np.stack([m.ravel() for m in mats])


def sv_rank(s: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Count of the descending singular values ``s`` above ``tol.eps`` times
    the largest one."""
    return int(np.count_nonzero(s > tol.eps * s[0])) if s.size else 0


def row_rank(rows: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank of a 2-D array, by ``sv_rank``."""
    return sv_rank(np.linalg.svd(rows, compute_uv=False), tol)


def numeric_rank(mats: Sequence[np.ndarray], tol: Tolerance = DEFAULT_TOL) -> int:
    """Dimension of the span: the ``row_rank`` of the stacked vectorizations."""
    return row_rank(_stack_vectorized(mats), tol)


def is_unitary(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff max-entry magnitude of a^dag a - I is within tol.eps."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"unitarity needs a square matrix, got {a.shape}")
    gram = a.conj().T @ a
    dev = np.abs(gram - np.eye(a.shape[0])).max()
    return bool(dev <= tol.eps)


def complement_rows(rows: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal rows spanning the orthogonal complement of the span of
    ``rows``, a 2-D array with one vectorized matrix per row."""
    # The null space of conj(rows), whose products with vec(e) stack the
    # inner products hs_inner(s_j, e), is the complement.
    _, s, vh = np.linalg.svd(rows.conj(), full_matrices=True)
    return vh[sv_rank(s, tol) :].conj()


def nearest_unitary(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unitary polar factor, the Frobenius-closest unitary to a."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"polar factor needs a square matrix, got {a.shape}")
    u, s, vh = np.linalg.svd(a)
    if s[-1] <= tol.eps:
        raise SingularError(
            f"matrix is numerically singular (smallest sv {s[-1]:.3e})"
        )
    return u @ vh


def matrix_to_json(a) -> dict:
    """JSON form: {"rows", "cols", "entries": [[re, im], ...]} row-major."""
    a = as_matrix(a)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": a.ravel().view(float).reshape(-1, 2).tolist(),
    }


def matrices_from_json(objs: Sequence) -> np.ndarray:
    """Inverse of ``matrix_to_json`` on a list of matrices of one shape, as
    one array of shape (len(objs), rows, cols).  Each ``entries`` must be
    rows*cols pairs of finite JSON numbers; anything else raises ShapeError.
    """
    if len(objs) == 0:
        raise EmptyInputError("need at least one matrix")
    for obj in objs:
        if not isinstance(obj, dict):
            raise ShapeError(
                f"a matrix must be a JSON object, got {type(obj).__name__}"
            )
    dims = [(obj["rows"], obj["cols"]) for obj in objs]
    flat = list(itertools.chain.from_iterable(dims))
    # By type first: a JSON boolean is an int equal to 0 or 1.
    if set(map(type, flat)) != {int} or min(flat) <= 0:
        for n in flat:
            if type(n) is bool or not isinstance(n, (int, np.integer)) or n <= 0:
                raise ShapeError(
                    f"matrix dimensions must be positive integers, got {n!r}"
                )
    if len(set(dims)) > 1:
        raise ShapeError(f"matrices of one stack differ in shape: {sorted(set(dims))}")
    rows, cols = dims[0]
    lists = [obj["entries"] for obj in objs]
    try:
        entries = np.asarray(lists)
    except ValueError as exc:
        raise ShapeError(f"matrix entries do not form an array: {exc}") from None
    if entries.shape != (len(objs), rows * cols, 2):
        raise ShapeError(
            f"entries of shape {entries.shape[1:]} are not {rows}x{cols} [re, im] pairs"
        )
    # Kinds i, u and f are the integer and float dtypes.  A JSON boolean
    # among numbers is promoted to a number, so it is looked for directly.
    numbers = itertools.chain.from_iterable(itertools.chain.from_iterable(lists))
    if entries.dtype.kind not in "iuf" or bool in set(map(type, numbers)):
        raise ShapeError("matrix entries must be real numbers")
    stack = np.ascontiguousarray(entries, dtype=float).view(complex)
    if not np.isfinite(stack).all():
        raise ShapeError("matrix contains NaN or Inf entries")
    return stack.reshape(len(objs), rows, cols)


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of ``matrix_to_json``: ``matrices_from_json`` of one matrix."""
    return matrices_from_json([obj])[0]
