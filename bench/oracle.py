"""Reference verdicts computed independently of ``upoblab``'s search.

These run outside the timed region.  They only read the factors of an
``OperatorSet``; none of the package's rank, Gram or search code is used, so a
bug there cannot hide in the reference.
"""

from __future__ import annotations

import numpy as np

EXTENDIBLE = "extendible"
UNEXTENDIBLE = "unextendible"

#: Threshold on the residual norm of a unit vector; the one criterion 10d of
#: the acceptance suite uses.
RANK_EPS = 1e-9


def _unit_vectors(op_set, party):
    vecs = [np.asarray(m.factors[party], dtype=complex).ravel() for m in op_set.members]
    return [v / np.linalg.norm(v) for v in vecs]


def subset_ranks(vectors) -> list[int]:
    """Rank of every subset (bitmask) of ``vectors``, built up the subset
    lattice by Gram-Schmidt: mask's basis is its lowest member projected
    against the basis of mask without that member."""
    n = len(vectors)
    bases = [[] for _ in range(1 << n)]
    for mask in range(1, 1 << n):
        low = mask & -mask
        prev = bases[mask ^ low]
        v = vectors[low.bit_length() - 1].copy()
        for u in prev:
            v -= np.vdot(u, v) * u
        nrm = np.linalg.norm(v)
        bases[mask] = prev + [v / nrm] if nrm > RANK_EPS else prev
    return [len(b) for b in bases]


def exhaustive_verdict(op_set) -> str:
    """Two-party extendibility by trying every split of the members.

    A product operator orthogonal to all members exists iff the members can be
    split into S and its complement with party 0's factors of S and party 1's
    factors of the complement each spanning less than the local space.
    """
    if op_set.n_parties != 2:
        raise ValueError("the subset-rank oracle covers two-party sets only")
    n = len(op_set)
    full = [r * c for r, c in op_set.shape]
    ranks = [subset_ranks(_unit_vectors(op_set, p)) for p in range(2)]
    all_mask = (1 << n) - 1
    for mask in range(1 << n):
        if ranks[0][mask] < full[0] and ranks[1][all_mask ^ mask] < full[1]:
            return EXTENDIBLE
    return UNEXTENDIBLE


def generic_verdict(op_set) -> str:
    """Counting rule for product operators in general position.

    With local dimensions d_p = rows * cols, generic members are unextendible
    iff there are more than sum(d_p - 1) of them: fewer can be split into
    parties holding at most d_p - 1 members each, and more cannot.
    """
    slack = sum(r * c - 1 for r, c in op_set.shape)
    return UNEXTENDIBLE if len(op_set) > slack else EXTENDIBLE
