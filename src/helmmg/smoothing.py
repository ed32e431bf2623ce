"""Relaxation smoothers: omega-Jacobi and the GMRES(m) polynomial smoother.

The Jacobi convention follows X = omega * Lambda_A: one sweep is

    u <- u + (1/omega) * Lambda_A^{-1} (b - A u)

so ``omega = 4.5`` means a damping factor of 1/4.5 ~ 0.222.

The GMRES smoother runs ``m`` Arnoldi steps on the current residual
equation A c = r, keeping the Krylov basis as one array orthogonalized
through BLAS products, and adds the correction that minimizes ||r - A c||
(one LAPACK least-squares solve on the small Hessenberg matrix); it acts
as a degree-(m-1) polynomial smoother.
"""

from dataclasses import dataclass

import numpy as np


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


def jacobi_sweep(A, u, b, omega, diag=None):
    """One damped Jacobi sweep u + (1/omega) Lambda^-1 (b - A u)."""
    if diag is None:
        diag = A.diagonal()
    small = np.abs(diag) <= 1e-300
    if small.any():
        raise ZeroDivisionError(
            f"zero diagonal entry at node {int(np.nonzero(small)[0][0])}"
        )
    return u + (1.0 / omega) * (b - A @ u) / diag


def gmres_smooth(A, u, b, m=3):
    """One GMRES(m) smoothing step on the residual equation.

    Returns u + c where c minimizes ||r - A c|| over the m-dimensional
    Krylov space of (A, r), r = b - A u.  Arnoldi breakdown means the
    Krylov space is invariant and the correction is exact.
    """
    r = b - A @ u
    rn = np.linalg.norm(r)
    if rn == 0.0:
        return u
    V = np.empty((m + 1, r.shape[0]), dtype=complex)  # basis, one row each
    H = np.zeros((m + 1, m), dtype=complex)
    V[0] = r / rn
    for j in range(m):
        w = A @ V[j]
        wn0 = np.linalg.norm(w)
        # classical Gram-Schmidt; (w^H V^T)^* = V^* w without copying V^*
        h = (w.conj() @ V[:j + 1].T).conj()
        w = w - h @ V[:j + 1]
        hb = np.linalg.norm(w)
        if hb < 1e-8 * wn0:
            # second pass only when cancellation has cost orthogonality
            h2 = (w.conj() @ V[:j + 1].T).conj()
            w = w - h2 @ V[:j + 1]
            h = h + h2
            hb = np.linalg.norm(w)
        H[:j + 1, j] = h
        H[j + 1, j] = hb
        if hb < 1e-14 * rn:
            break  # breakdown: Krylov space invariant, correction exact
        V[j + 1] = w / hb
    k = j + 1
    g = np.zeros(k + 1, dtype=complex)
    g[0] = rn
    y = np.linalg.lstsq(H[:k + 1, :k], g, rcond=None)[0]
    return u + y @ V[:k]


def apply_smoother(A, u, b, cfg, diag=None):
    """Apply ``cfg.nu`` steps of the configured smoother."""
    for _ in range(cfg.nu):
        if cfg.kind == "jacobi":
            u = jacobi_sweep(A, u, b, cfg.omega, diag=diag)
        else:
            u = gmres_smooth(A, u, b, cfg.m)
    return u
