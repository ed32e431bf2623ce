"""Prolongation / restriction operators and Galerkin coarsening.

The 1D prolongation is P = W E.  E injects coarse node c at fine node
2c, and W is a fixed stencil on the fine grid whose columns at even
nodes are the columns of P.  Two schemes are supported:

* ``linear`` — W = tridiag(1/2, 1, 1/2): injection at coincident (even)
  fine nodes, averaging (1/2, 1/2) at odd nodes;
* ``bezier`` — the quadratic-rational-Bezier stencil, W with diagonals
  (1/8, 1/2, 6/8, 1/2, 1/8): weights (1/8, 6/8, 1/8) over the three
  nearest coarse nodes at coincident fine nodes, (1/2, 1/2) at odd
  nodes.  At the two end nodes the out-of-range neighbor weight folds
  onto the coincident coarse node (7/8 on W's diagonal), preserving row
  sums of one.

2D operators are Kronecker products of the 1D stencil consistent with
lexicographic (x fastest) ordering; restriction is R = (1/4) P^T.

A 2D pair depends only on the grid side and the scheme, so
``build_transfer_2d`` hands out one pair per (n, scheme) to every caller
that holds one at the same time (hierarchies on one grid, certificate
rows).  Its P and R are read-only, and the pair is freed with its last
holder: the table of pairs keeps only weak references.
"""

import threading
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import _read_only

SCHEMES = ("linear", "bezier")


@dataclass(frozen=True)
class TransferPair:
    """Prolongation (fine x coarse) and restriction (coarse x fine) pair."""

    P: sp.csr_matrix
    R: sp.csr_matrix


def build_prolongation_1d(n_fine, scheme):
    """1D prolongation P = W E, shape (n_fine, (n_fine+1)//2)."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown transfer scheme {scheme!r}")
    if n_fine < 3 or n_fine % 2 == 0:
        raise ValueError(
            f"coarsening requires an odd node-coincident grid, got n={n_fine}"
        )
    E = sp.identity(n_fine, format="csr")[:, ::2]  # coarse node c -> fine node 2c
    if scheme == "linear":
        W = sp.diags([0.5, 1.0, 0.5], [-1, 0, 1], shape=(n_fine, n_fine))
    else:
        center = np.full(n_fine, 6.0 / 8.0)
        center[[0, -1]] = 7.0 / 8.0  # boundary fold
        W = sp.diags([1.0 / 8.0, 0.5, center, 0.5, 1.0 / 8.0], [-2, -1, 0, 1, 2],
                     shape=(n_fine, n_fine))
    P = (W @ E).tocsr()
    P.sort_indices()
    return P


#: the pairs some caller still holds, by (n, scheme); an entry goes with
#: the last reference to its pair.  The lock makes look-up-or-build one
#: step, so threads that build on one grid at once get one pair.
_PAIRS = weakref.WeakValueDictionary()
_PAIRS_LOCK = threading.Lock()


def _tensor_pair(n_fine_per_dim, scheme):
    """A new 2D pair P = P1 (x) P1, R = (1/4) P^T, its arrays read-only."""
    P1 = build_prolongation_1d(n_fine_per_dim, scheme)
    P = sp.kron(P1, P1, format="csr").astype(complex)
    R = (0.25 * P.T).tocsr()
    P.sort_indices()
    R.sort_indices()
    _read_only(P.data, P.indices, P.indptr, R.data, R.indices, R.indptr)
    return TransferPair(P=P, R=R)


def build_transfer_2d(n_fine_per_dim, scheme):
    """Tensor-product 2D transfer pair with R = (1/4) P^T.

    While any caller holds the pair of (n, scheme), every call returns that
    same object, from any thread; otherwise a new one is built.  Its P and
    R are read-only (``data``, ``indices`` and ``indptr``), since other
    holders share them.
    """
    key = (n_fine_per_dim, scheme)
    with _PAIRS_LOCK:
        pair = _PAIRS.get(key)
        if pair is None:
            pair = _PAIRS[key] = _tensor_pair(n_fine_per_dim, scheme)
    return pair


def galerkin_coarse(A_level, pair):
    """Galerkin coarse operator A_c = R A P with structural zeros dropped."""
    A_c = (pair.R @ A_level @ pair.P).tocsr()
    A_c.eliminate_zeros()
    A_c.sort_indices()
    return A_c
