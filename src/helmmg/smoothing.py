"""Relaxation smoothers: omega-Jacobi and the GMRES(m) polynomial smoother.

Every smoother works on the residual equation: it takes the iterate u
together with its current residual r = b - A u and returns the pair
(u, r) after the step, with r updated alongside u, so no caller forms
b - A u from scratch.

The Jacobi convention follows X = omega * Lambda_A: one sweep is

    d = (1/omega) * Lambda_A^{-1} r,   u <- u + d,   r <- r - A d

so ``omega = 4.5`` means a damping factor of 1/4.5 ~ 0.222, at one
matvec per sweep.

The GMRES smoother runs ``m`` Arnoldi steps on A c = r and adds the
correction c = V_m y that minimizes ||r - A c|| (one LAPACK least-squares
solve on the small Hessenberg matrix H); the Arnoldi relation
A V_m = V_{m+1} H gives the new residual r - V_{m+1} H y without another
matvec.  It acts as a degree-(m-1) polynomial smoother at m matvecs per
step.

The Krylov basis V is an (m+1) x N array, one row per basis vector,
that each step allocates for itself, so a step shares no state with any
other.  Classical Gram-Schmidt runs through BLAS level 2 on the
F-contiguous view V^T: ``zgemv(trans=2)`` forms V^* w and an in-place
``zgemv`` subtracts V^T h from w, with no conjugated copies; norms come
from ``vdot``.  The (m+1) x m least-squares solve stays with
``np.linalg.lstsq``: LAPACK's zgels is faster on so small a matrix, but
has no answer when H is rank-deficient at breakdown, where lstsq returns
the minimum-norm solution.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas


@dataclass(frozen=True)
class SmootherConfig:
    """Smoother selection: kind, Jacobi omega, GMRES restart m, steps nu."""

    kind: str = "jacobi"  # {"jacobi" | "gmres"}
    omega: float = 4.5
    m: int = 3
    nu: int = 1

    def __post_init__(self):
        if self.kind not in ("jacobi", "gmres"):
            raise ValueError(f"unknown smoother kind {self.kind!r}")
        if self.kind == "jacobi" and not (np.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"jacobi requires finite omega > 0, got {self.omega}")
        if self.kind == "gmres" and self.m < 1:
            raise ValueError("gmres requires m >= 1")
        if self.nu < 0:
            raise ValueError("smoothing step count nu must be >= 0")


def reciprocal_diagonal(A):
    """1 / diag(A), the Jacobi scaling; ZeroDivisionError names a zero entry's node."""
    diag = A.diagonal()
    small = np.abs(diag) <= 1e-300
    if small.any():
        raise ZeroDivisionError(
            f"zero diagonal entry at node {int(np.nonzero(small)[0][0])}"
        )
    return 1.0 / diag


def jacobi_sweep(A, u, r, omega, inv_diag):
    """One damped Jacobi sweep on the residual r = b - A u.

    Returns (u + d, r - A d) with d = (1/omega) Lambda^-1 r, where
    ``inv_diag`` is the cached ``reciprocal_diagonal(A)``.
    """
    d = r * inv_diag
    d *= 1.0 / omega
    return u + d, r - A @ d


def _norm(x):
    """2-norm of a complex vector from one BLAS dot product."""
    return np.sqrt(np.vdot(x, x).real)


def gmres_smooth(A, u, r, m=3):
    """One GMRES(m) smoothing step on the residual r = b - A u.

    Returns (u + c, r - A c) where c minimizes ||r - A c|| over the
    m-dimensional Krylov space of (A, r); the new residual comes from the
    Arnoldi relation, not from a matvec.  Arnoldi breakdown means the
    Krylov space is invariant and the correction is exact.

    ``u`` and ``r`` are left unchanged; unless r is zero, the returned
    arrays share no memory with them.
    """
    rn = _norm(r)
    if rn == 0.0:
        return u, r
    V = np.empty((m + 1, r.shape[0]), dtype=complex)  # basis, one row each
    H = np.zeros((m + 1, m), dtype=complex)
    np.multiply(r, 1.0 / rn, out=V[0])
    filled = m + 1  # basis rows written
    for j in range(m):
        w = A @ V[j]
        wn0 = _norm(w)
        # classical Gram-Schmidt; Vj = V[:j+1].T is N x (j+1), F-contiguous
        Vj = V[:j + 1].T
        h = blas.zgemv(1.0, Vj, w, trans=2)
        w = blas.zgemv(-1.0, Vj, h, beta=1.0, y=w, overwrite_y=1)
        hb = _norm(w)
        if hb < 1e-8 * wn0:
            # second pass only when cancellation has cost orthogonality
            h2 = blas.zgemv(1.0, Vj, w, trans=2)
            w = blas.zgemv(-1.0, Vj, h2, beta=1.0, y=w, overwrite_y=1)
            h += h2
            hb = _norm(w)
        H[:j + 1, j] = h
        H[j + 1, j] = hb
        if hb <= 1e-14 * wn0:
            # breakdown: Krylov space invariant, correction exact; row
            # V[j + 1] is not written and holds whatever np.empty left
            # there, so the residual uses V[:j + 1] only
            filled = j + 1
            break
        np.multiply(w, 1.0 / hb, out=V[j + 1])
    k = j + 1
    g = np.zeros(k + 1, dtype=complex)
    g[0] = rn
    y = np.linalg.lstsq(H[:k + 1, :k], g, rcond=None)[0]
    # without overwrite_y, zgemv writes into a copy of u (of r)
    return (blas.zgemv(1.0, V[:k].T, y, beta=1.0, y=u),
            blas.zgemv(-1.0, V[:filled].T, H[:filled, :k] @ y, beta=1.0, y=r))


def apply_smoother(A, u, r, cfg, inv_diag):
    """Apply ``cfg.nu`` steps of the configured smoother; returns (u, r).

    ``inv_diag`` is ``reciprocal_diagonal(A)``, the Jacobi scaling handed
    to every sweep; the GMRES smoother does not use it.
    """
    for _ in range(cfg.nu):
        if cfg.kind == "jacobi":
            u, r = jacobi_sweep(A, u, r, cfg.omega, inv_diag)
        else:
            u, r = gmres_smooth(A, u, r, cfg.m)
    return u, r
