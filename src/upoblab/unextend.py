"""Extendibility certification and UPOB / UPUOB classification.

A product operator W = (x)_p W_p is orthogonal to a member exactly when some
party's factor W_p is orthogonal to that member's factor.  So a set is
extendible iff one hyperplane per party, each spanned by that party's
distinct factor directions, can be chosen so that together they hold every
member (the partition lemma of Bennett et al., PRL 82, 5385 (1999)).  The
search covers the set with them, listing a party's hyperplanes as member
bitmasks or, for a party with too many, growing its span from the members it
must hold; the witness factors are the per-party complements of the cover.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoWitnessError, ShapeError, SingularError
from .matrix import (
    DEFAULT_TOL,
    Tolerance,
    complement_rows,
    hs_inner,
    nearest_unitary,
    row_rank,
)
from .product import (
    OperatorSet,
    ProductOperator,
    check_orthonormal,
    check_pairwise_orthogonal,
    kron_rows,
    party_rows,
    unit_rows,
)

DEFAULT_BUDGET = 50_000_000
DEFAULT_SEED = 0x5EED
DEFAULT_RESTARTS = 64
DEFAULT_ITERS = 500

UNEXTENDIBLE = "unextendible"
EXTENDIBLE = "extendible"
UNKNOWN = "unknown"

#: Candidate direction subsets per batched SVD, which bounds the listing's
#: memory; a party with more candidate hyperplanes is tracked, not listed.
_CHUNK = 2048

#: Alternating least-squares sweeps of ``_product_factorization``.
_ALS_SWEEPS = 40


@dataclass
class ExtendibilityVerdict:
    status: str
    witness: ProductOperator | None = None
    partition: tuple[int, ...] | None = None
    nodes_explored: int = 0
    budget: int = DEFAULT_BUDGET

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "nodes_explored": self.nodes_explored,
            "budget": self.budget,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.partition is not None:
            out["partition"] = list(self.partition)
        return out


@dataclass
class Classification:
    is_product_set: bool
    is_orthonormal: bool
    is_all_unitary: bool
    upob: ExtendibilityVerdict
    unitary_witness: ProductOperator | None
    verdict_labels: frozenset[str]

    def to_json(self) -> dict:
        out = {
            "is_product_set": self.is_product_set,
            "is_orthonormal": self.is_orthonormal,
            "is_all_unitary": self.is_all_unitary,
            "upob": self.upob.to_json(),
            "verdict_labels": sorted(self.verdict_labels),
        }
        if self.unitary_witness is not None:
            out["unitary_witness"] = self.unitary_witness.to_json()
        return out


class _BudgetExhausted(Exception):
    pass


def _direction_table(op_set: OperatorSet):
    """Per party: the distinct unit factor directions, one row each, and every
    member's index into them.  Factors equal up to a complex scalar share a
    direction: each is rotated so its largest entry is real and positive, then
    rounded."""
    table = []
    for p in range(op_set.n_parties):
        vecs = unit_rows(party_rows(op_set, p))
        pivots = vecs[np.arange(len(vecs)), np.argmax(np.abs(vecs), axis=1)]
        # Adding 0.0 folds -0.0 into 0.0 so equal keys have equal bytes.
        keys = np.round(vecs * (np.abs(pivots) / pivots)[:, None], 10) + 0.0
        first: dict = {}
        reps = [first.setdefault(k.tobytes(), j) for j, k in enumerate(keys)]
        reps, ids = np.unique(reps, return_inverse=True)
        table.append((vecs[reps], ids))
    return table


def _greedy_member_order(table) -> list[int]:
    """Members by increasing summed multiplicity of their factor directions:
    one with rare directions lies in few hyperplanes, so it is branched on first."""
    score = sum(np.bincount(ids)[ids] for _, ids in table)
    return np.argsort(score, kind="stable").tolist()


def _hyperplanes(dirs: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The distinct hyperplanes spanned by D-1 independent rows of ``dirs``,
    unit rows, in order of first appearance, as a boolean array: row h flags
    the rows of ``dirs`` that hyperplane h contains."""
    k, dim = dirs.shape
    if dim == 1:
        return np.zeros((1, k), dtype=bool)
    blocks = [np.zeros((0, k), dtype=bool)]
    for idx in _subset_chunks(k, dim - 1):
        keep, normals = _subset_normals(dirs, idx, tol)
        inside = np.abs(normals[keep].conj() @ dirs.T) <= tol.eps
        # A nearly dependent subset gives an inexact normal; its own rows
        # still lie in the hyperplane they span.
        np.put_along_axis(inside, idx[keep], True, axis=1)
        blocks.append(inside)
    inside = np.concatenate(blocks)
    # One bytes key per row; return_index gives each key's first row.
    _, first = np.unique(inside.view(np.dtype((np.void, k))).ravel(), return_index=True)
    return inside[np.sort(first)]


def _subset_chunks(k: int, size: int):
    """The size-subsets of range(k) in lexicographic order, as index arrays
    of at most ``_CHUNK`` rows.  A listing of one chunk is cached."""
    if math.comb(k, size) <= _CHUNK:
        return (_subset_array(k, size),)
    subsets = itertools.combinations(range(k), size)
    return map(np.array, iter(lambda: list(itertools.islice(subsets, _CHUNK)), []))


@functools.lru_cache(maxsize=64)
def _subset_array(k: int, size: int) -> np.ndarray:
    idx = np.array(list(itertools.combinations(range(k), size)), dtype=np.intp)
    idx = idx.reshape(-1, size)
    idx.setflags(write=False)
    return idx


#: The batches of at least ``_GS_MIN_BATCH`` subsets go to
#: ``_gram_schmidt``.  LAPACK is faster on smaller ones (see
#: ``_subset_normals``).
_GS_MIN_BATCH = 24

#: Absolute allowance for rounding, far above the errors of Gram-Schmidt
#: pivots and of LAPACK's singular values on a few unit rows.
_ROUND = 2.0**-40


def _subset_normals(dirs: np.ndarray, idx: np.ndarray, tol: Tolerance):
    """For each subset ``dirs[idx[i]]`` of k = D-1 unit rows: whether
    ``sv_rank`` gives it full rank, s_min > eps * s_max, and the unit normal
    of the hyperplane it spans, defined where it does.

    Gram-Schmidt pivots r_i decide most subsets with certainty.  Unit rows
    give 1 <= s_max**2 <= g, the largest row sum of |Gram| (at most k).  As
    prod r_i = prod s_i and s_min <= min r_i, both s_min and s_min / s_max
    are at least prod r_i / g**(k/2).  "Drop" is certain when
    min r_i <= eps/2, "keep" when prod r_i > eps * g**(k/2); each bound
    leaves ``_ROUND`` for rounding.  A kept normal is used only if s_min is
    large enough for its error, about 2**-53 / s_min, to stay below
    eps / 1024.  Every other subset goes to the batched SVD, whose decision
    is the rule itself.

    Smaller batches go to the SVD whole.  With one BLAS thread on a 2-core
    x86-64 host (numpy 2.4), the kernel costs 0.1-0.5 ms for up to 48
    subsets and D <= 9, and breaks even with LAPACK at about 24 subsets.
    """
    if len(idx) < _GS_MIN_BATCH:
        return _svd_normals(dirs[idx], tol)
    r, normals = _gram_schmidt(dirs, idx)
    k = idx.shape[1]
    overlaps = np.abs(dirs.conj() @ dirs.T)
    g = overlaps[idx[:, :, None], idx[:, None, :]].sum(axis=2).max(axis=1)
    floor = max(tol.eps + _ROUND, 2.0**-43 / tol.eps)
    keep = r.prod(axis=0) > g ** (k / 2) * floor + _ROUND
    drop = r.min(axis=0) + _ROUND <= tol.eps / 2
    unsure = np.flatnonzero(~(keep | drop))
    if unsure.size:
        keep[unsure], normals[unsure] = _svd_normals(dirs[idx[unsure]], tol)
    return keep, normals


def _svd_normals(subsets: np.ndarray, tol: Tolerance):
    """``_subset_normals`` by one batched SVD of the stacked subsets."""
    _, s, vh = np.linalg.svd(subsets)
    return s[:, -1] > tol.eps * s[:, 0], vh[:, -1]


def _gram_schmidt(dirs: np.ndarray, idx: np.ndarray):
    """Classical Gram-Schmidt, projecting twice, on the rows of every subset
    ``dirs[idx[i]]`` at once, with the subset axis innermost.  Returns the
    pivots r, shape (D-1, len(idx)), and per subset a unit vector orthogonal
    to the basis: the residual of the standard basis vector with the largest
    residual, projected once more.  A pivot is the norm of a row's residual,
    so prod r_i is the volume the rows span."""
    m, k = idx.shape
    cols = dirs.T
    q = np.zeros((k, cols.shape[0], m), dtype=complex)
    qc = np.zeros_like(q)
    r = np.empty((k, m))

    def project(w, i):
        return w - np.einsum("jm,jdm->dm", np.einsum("jdm,dm->jm", qc[:i], w), q[:i])

    for i in range(k):
        w = cols[:, idx[:, i]]
        if i:
            w = project(project(w, i), i)
        r[i] = np.sqrt(np.einsum("dm,dm->m", w.conj(), w).real)
        # A row with a pivot below 2**-30 adds nothing to the basis: its
        # subset is dropped or sent to the SVD, and the later rows of its
        # subset stay finite.
        np.divide(w, r[i], out=q[i], where=r[i] > 2.0**-30)
        np.conjugate(q[i], out=qc[i])
    # The residual of e_c has squared norm 1 - sum_j |q_j[c]|^2, and these
    # sum to at least 1 over the D choices of c, so the largest is >= 1/D.
    c = np.einsum("jdm,jdm->dm", qc, q).real.argmin(axis=0)
    at = np.arange(m)
    w = -np.einsum("jm,jdm->dm", qc[:, c, at], q)
    w[c, at] += 1.0
    w = project(w, k)
    w /= np.sqrt(np.einsum("dm,dm->m", w.conj(), w).real)
    return r, w.T


def extendibility_search(
    op_set: OperatorSet,
    tol: Tolerance = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> ExtendibilityVerdict:
    """Hyperplane-cover search over the parties' factor directions.

    The party with the most candidate hyperplanes, ``last``, and any with
    more than ``_CHUNK`` are tracked: they collect the directions of the
    members given to them, which must span less than their local space.  The
    others list their hyperplanes as member bitmasks.  The first uncovered
    member is covered by a hyperplane of an unfixed listed party, by a
    tracked party, or last by ``last``, which needs no recursion.  Recursion
    depth is at most the number of listed parties plus D-1 per other tracked
    party, so at most the party count when only ``last`` is tracked.  Listed
    direction subsets and branches count against the budget.
    """
    if budget <= 0:
        raise ConfigError(f"budget must be positive, got {budget}")
    if len(op_set) == 0:
        raise ConfigError("cannot search an empty set")

    n = len(op_set)
    n_parties = op_set.n_parties
    dims = [r * c for r, c in op_set.shape]
    table = _direction_table(op_set)
    order = _greedy_member_order(table)

    def extendible(partition, nodes: int) -> ExtendibilityVerdict:
        witness = extract_witness(partition, op_set, tol)
        return ExtendibilityVerdict(EXTENDIBLE, witness, partition, nodes, budget)

    for p, (dirs, _) in enumerate(table):
        if row_rank(dirs, tol) < dims[p]:
            return extendible((p,) * n, 0)

    # Parties with few candidate hyperplanes are listed, the others tracked.
    # ``last``, the party with the most, is tracked and tried last; its
    # hyperplanes are listed, only to bound its cover, when that at most
    # doubles the listing work.
    counts = [math.comb(len(dirs), d - 1) for (dirs, _), d in zip(table, dims)]
    last = max(range(n_parties), key=counts.__getitem__)
    listed = [p for p in range(n_parties) if p != last and counts[p] <= _CHUNK]
    tracked = [p for p in range(n_parties) if p not in listed and p != last] + [last]
    bounded = listed + [last] * (counts[last] <= sum(counts[p] for p in listed))
    nodes = sum(counts[p] for p in bounded)
    unknown = ExtendibilityVerdict(UNKNOWN, nodes_explored=budget, budget=budget)
    if nodes >= budget:
        return unknown

    # best[p]: the most members one hyperplane of party p holds, a direction
    # holding as many as share it.
    planes = {p: _hyperplanes(table[p][0], tol) for p in bounded}
    best = [n] * n_parties
    for p, inside in planes.items():
        best[p] = int((inside @ np.bincount(table[p][1])).max(initial=0))
    if n > sum(best):
        return ExtendibilityVerdict(UNEXTENDIBLE, nodes_explored=nodes, budget=budget)

    # Member bit b stands for member order[b], so the lowest uncovered bit is
    # the next member to branch on.  dir_members[p][d]: members whose factor
    # at party p has direction d.
    dir_of = [ids[order].tolist() for _, ids in table]
    dir_members = [[0] * len(dirs) for dirs, _ in table]
    for p in range(n_parties):
        for bit, d in enumerate(dir_of[p]):
            dir_members[p][d] |= 1 << bit

    containing = [[[] for _ in dirs] for dirs, _ in table]
    for p in listed:
        for row in planes[p]:
            hits = np.flatnonzero(row).tolist()
            # Each member has one direction per party, so the masks are disjoint.
            members = sum(dir_members[p][d] for d in hits)
            for d in hits:
                containing[p][d].append(members)

    def residual(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
        return v - (v @ rows.conj().T) @ rows

    @functools.lru_cache(maxsize=4096)
    def basis(p: int, held: int) -> np.ndarray:
        """Orthonormal rows spanning party p's independent directions in
        bitmask ``held``, by Gram-Schmidt projecting twice."""
        if not held:
            return table[p][0][:0]
        d = held.bit_length() - 1
        rows = basis(p, held & ~(1 << d))
        w = residual(rows, residual(rows, table[p][0][d]))
        return np.vstack([rows, w / np.linalg.norm(w)])

    @functools.lru_cache(maxsize=4096)
    def holds(p: int, held: int, d: int) -> bool:
        """Whether the span of ``held`` holds party p's direction d: its
        residual has norm at most ``tol.eps``, as directions are unit."""
        r = residual(basis(p, held), table[p][0][d])
        return bool(np.vdot(r, r).real <= tol.eps**2)

    def branch() -> None:
        nonlocal nodes
        nodes += 1
        if nodes >= budget:
            raise _BudgetExhausted

    cover: list = []

    def search(todo: int, free: tuple, held: tuple, tried: int):
        """Cover ``todo`` with one hyperplane per party in ``free`` and spans
        of the tracked parties holding their directions in ``held``.
        Hyperplanes holding a member of ``tried`` were already tried under
        weaker constraints.  Returns the final ``held``, or None."""
        if todo.bit_count() > sum(best[p] for p in free + tuple(tracked)):
            return None
        while todo:
            bit = (todo & -todo).bit_length() - 1
            t = next((t for t in tracked if holds(t, held[t], dir_of[t][bit])), None)
            if t is not None:
                todo &= ~dir_members[t][dir_of[t][bit]]
                continue
            for p in free:
                rest = tuple(q for q in free if q != p)
                for h in containing[p][dir_of[p][bit]]:
                    if h & tried:
                        continue
                    branch()
                    if (found := search(todo & ~h, rest, held, tried)) is not None:
                        cover.append((p, h))
                        return found
            for t in tracked:
                if held[t].bit_count() == dims[t] - 1:
                    continue
                grown = held[:t] + (held[t] | 1 << dir_of[t][bit],) + held[t + 1 :]
                if t == last:
                    # No recursion, and no later branch may put this member
                    # in a listed hyperplane.
                    tried |= 1 << bit
                    held = grown
                    todo &= ~dir_members[t][dir_of[t][bit]]
                    break
                branch()
                if (found := search(todo, free, grown, tried)) is not None:
                    return found
            else:
                return None
        return held

    try:
        final = search((1 << n) - 1, tuple(listed), (0,) * n_parties, 0)
    except _BudgetExhausted:
        return unknown
    if final is None:
        return ExtendibilityVerdict(UNEXTENDIBLE, nodes_explored=nodes, budget=budget)
    # Each member goes to a listed party whose hyperplane holds it, or else
    # to a tracked party whose span does.
    partition = tuple(
        next(
            itertools.chain(
                (p for p, h in cover if h >> bit & 1),
                (t for t in tracked if holds(t, final[t], dir_of[t][bit])),
            )
        )
        for bit in np.argsort(order).tolist()
    )
    return extendible(partition, nodes)


def extract_witness(
    partition: tuple[int, ...],
    op_set: OperatorSet,
    tol: Tolerance = DEFAULT_TOL,
) -> ProductOperator:
    """Witness W = (x)_i W_i with W_i in the complement of party i's span.

    Deterministic: the first element of the canonically ordered complement;
    an empty subset gets the first standard basis matrix.
    """
    if len(partition) != len(op_set):
        raise ShapeError("partition length does not match the member count")
    partition = np.asarray(partition)
    factors = []
    for p, (rows, cols) in enumerate(op_set.shape):
        assigned = party_rows(op_set, p)[partition == p]
        if len(assigned):
            comp = complement_rows(assigned, tol)
        else:
            comp = np.eye(rows * cols, dtype=complex)
        if len(comp) == 0:
            raise NoWitnessError(f"party {p} span is full; no witness factor exists")
        factors.append(comp[0].reshape(rows, cols))
    return ProductOperator(tuple(factors), "witness")


def verify_witness(
    w: ProductOperator,
    op_set: OperatorSet,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """True iff |hs_inner(w, s)| <= 10 * tol.eps for every member s."""
    if w.party_shape != op_set.shape:
        raise ShapeError(
            f"witness shape {w.party_shape} does not match set shape {op_set.shape}"
        )
    return all(
        abs(math.prod(hs_inner(wf, mf) for wf, mf in zip(w.factors, m.factors)))
        <= 10.0 * tol.eps
        for m in op_set.members
    )


def _product_factorization(vec: np.ndarray, shape):
    """Best product (rank-one across parties) approximation of a vectorized
    operator, by alternating least squares on the party-blocked tensor."""
    dims = [r * c for r, c in shape]
    n = len(dims)
    if n == 1:
        return [vec.copy()]
    t = vec.reshape(dims)
    factors = []
    rest = t
    for p in range(n - 1):
        mat = rest.reshape(dims[p], -1)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        factors.append(u[:, 0] * s[0])
        rest = vh[0]
    factors.append(rest.copy())
    if n > 2:
        # Conjugated unit factors, renewed whenever their factor is.
        units = [(f / np.linalg.norm(f)).conj() for f in factors]
        for _ in range(_ALS_SWEEPS):
            for p in range(n):
                contraction = t
                for q in range(n - 1, -1, -1):
                    if q == p:
                        continue
                    # np.tensordot(contraction, units[q], axes=([q], [0])),
                    # spelled out as its transpose, reshape and dot.
                    axes = [x for x in range(contraction.ndim) if x != q] + [q]
                    kept = [contraction.shape[x] for x in axes[:-1]]
                    mat = contraction.transpose(axes).reshape(-1, dims[q])
                    contraction = mat.dot(units[q].reshape(dims[q], 1)).reshape(kept)
                factors[p] = contraction
                units[p] = (contraction / np.linalg.norm(contraction)).conj()
    return factors


def _check_heuristic(restarts: int, iters: int, seed: int):
    """Refuse settings under which the unitary search would run no iteration
    or could not be seeded."""
    if restarts < 1 or iters < 1:
        raise ConfigError(
            f"restarts and iters must be positive, got {restarts} and {iters}"
        )
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")


def unitary_witness_search(
    op_set: OperatorSet,
    tol: Tolerance = DEFAULT_TOL,
    restarts: int = DEFAULT_RESTARTS,
    iters: int = DEFAULT_ITERS,
    seed: int = DEFAULT_SEED,
) -> ProductOperator | None:
    """Heuristic alternating-projection hunt for a product unitary in the
    complement of the set's span.  Absence of a result is not a proof."""
    _check_heuristic(restarts, iters, seed)
    for r, c in op_set.shape:
        if r != c:
            raise ShapeError("product-unitary search needs square parties")
    shape = op_set.shape
    full_dim = math.prod(r for r, _ in shape)
    # Orthonormal basis of the complement inside the full operator space.
    comp = complement_rows(kron_rows(op_set), tol)
    if comp.shape[0] == 0:
        return None

    # The vectorized full operator is reindexed so each party's (row, col)
    # pair becomes one axis of size rows*cols; product operators are then
    # rank-one tensors.
    n = len(shape)
    row_dims = [r for r, _ in shape]
    col_dims = [c for _, c in shape]
    perm = [x for p in range(n) for x in (p, n + p)]

    def to_party_vec(full_mat: np.ndarray) -> np.ndarray:
        t = full_mat.reshape(row_dims + col_dims).transpose(perm)
        return t.reshape([r * c for r, c in shape]).ravel()

    def from_factors(factors) -> np.ndarray:
        out = factors[0]
        for f in factors[1:]:
            out = np.multiply.outer(out, f)
        return out.ravel()

    comp_party = np.stack(
        [to_party_vec(row.reshape(full_dim, full_dim)) for row in comp]
    )

    def project(v: np.ndarray) -> np.ndarray:
        coeffs = comp_party.conj() @ v
        return coeffs @ comp_party

    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        coeffs = rng.normal(size=comp.shape[0]) + 1j * rng.normal(size=comp.shape[0])
        v = coeffs @ comp_party
        v /= np.linalg.norm(v)
        for _ in range(iters):
            factors = _product_factorization(v, shape)
            try:
                unitary_factors = [
                    nearest_unitary(f.reshape(r, c), tol)
                    for f, (r, c) in zip(factors, shape)
                ]
            except SingularError:
                break
            w_vec = from_factors([uf.ravel() for uf in unitary_factors])
            proj = project(w_vec)
            residual = np.linalg.norm(w_vec - proj) / np.linalg.norm(w_vec)
            if residual <= tol.eps:
                candidate = ProductOperator(tuple(unitary_factors), "unitary-witness")
                if verify_witness(candidate, op_set, tol):
                    return candidate
            nrm = np.linalg.norm(proj)
            if nrm <= tol.eps:
                break
            v = proj / nrm
    return None


def _all_factors_unitary(op_set: OperatorSet, tol: Tolerance) -> bool:
    """Every factor unitary after rescaling to Frobenius norm sqrt(dim): each
    entry of its A^dag A within 10 * tol.eps of the identity's."""
    if any(r != c for r, c in op_set.shape):
        return False
    n = len(op_set)
    for p, (d, _) in enumerate(op_set.shape):
        a = (unit_rows(party_rows(op_set, p)) * np.sqrt(d)).reshape(n, d, d)
        dev = np.abs(a.conj().transpose(0, 2, 1) @ a - np.eye(d))
        if dev.max(initial=0.0) > 10 * tol.eps:
            return False
    return True


UPOB_LABEL = "UPOB"
STRONG_LABEL = "strongly-UPUOB"
EVIDENCE_LABEL = "UPUOB-evidence"


def classify(
    op_set: OperatorSet,
    tol: Tolerance = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    restarts: int = DEFAULT_RESTARTS,
    iters: int = DEFAULT_ITERS,
    seed: int = DEFAULT_SEED,
) -> Classification:
    """Assemble the UPOB / strongly-UPUOB / UPUOB-evidence verdict."""
    _check_heuristic(restarts, iters, seed)
    if all(r == c for r, c in op_set.shape):
        orthonormal = check_orthonormal(op_set, tol)
    else:
        orthonormal = check_pairwise_orthogonal(op_set, tol)
    all_unitary = _all_factors_unitary(op_set, tol)
    upob = extendibility_search(op_set, tol, budget)

    labels = set()
    if orthonormal and upob.status == UNEXTENDIBLE:
        labels.add(UPOB_LABEL)
        if all_unitary:
            labels.add(STRONG_LABEL)

    witness = None
    if all_unitary and orthonormal:
        if upob.status == UNEXTENDIBLE:
            labels.add(EVIDENCE_LABEL)
        elif upob.status == EXTENDIBLE:
            witness = unitary_witness_search(op_set, tol, restarts, iters, seed)
            if witness is None:
                labels.add(EVIDENCE_LABEL)

    return Classification(
        is_product_set=True,
        is_orthonormal=orthonormal,
        is_all_unitary=all_unitary,
        upob=upob,
        unitary_witness=witness,
        verdict_labels=frozenset(labels),
    )
