"""Relaxation smoothers: omega-Jacobi and the GMRES(m) polynomial smoother.

Every smoother works on the residual equation: it takes the iterate u
together with its current residual r = b - A u and returns the pair
(u, r) after the step, with r updated alongside u, so no caller forms
b - A u from scratch.

The Jacobi convention follows X = omega * Lambda_A: one sweep is

    d = (1/omega) * Lambda_A^{-1} r,   u <- u + d,   r <- r - A d

so ``omega = 4.5`` means a damping factor of 1/4.5 ~ 0.222, at one
matvec per sweep.

The GMRES smoother runs ``m`` Arnoldi steps on A c = r, keeping the
Krylov basis as one array orthogonalized through BLAS products, and adds
the correction c = V_m y that minimizes ||r - A c|| (one LAPACK
least-squares solve on the small Hessenberg matrix H); the Arnoldi
relation A V_m = V_{m+1} H gives the new residual r - V_{m+1} H y
without another matvec.  It acts as a degree-(m-1) polynomial smoother
at m matvecs per step.
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


def jacobi_sweep(A, u, r, omega, diag=None):
    """One damped Jacobi sweep on the residual r = b - A u.

    Returns (u + d, r - A d) with d = (1/omega) Lambda^-1 r.
    """
    if diag is None:
        diag = A.diagonal()
    small = np.abs(diag) <= 1e-300
    if small.any():
        raise ZeroDivisionError(
            f"zero diagonal entry at node {int(np.nonzero(small)[0][0])}"
        )
    d = (1.0 / omega) * r / diag
    return u + d, r - A @ d


def gmres_smooth(A, u, r, m=3):
    """One GMRES(m) smoothing step on the residual r = b - A u.

    Returns (u + c, r - A c) where c minimizes ||r - A c|| over the
    m-dimensional Krylov space of (A, r); the new residual comes from the
    Arnoldi relation, not from a matvec.  Arnoldi breakdown means the
    Krylov space is invariant and the correction is exact.
    """
    rn = np.linalg.norm(r)
    if rn == 0.0:
        return u, r
    V = np.empty((m + 1, r.shape[0]), dtype=complex)  # basis, one row each
    H = np.zeros((m + 1, m), dtype=complex)
    V[0] = r / rn
    filled = m + 1  # basis rows written
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
        if hb <= 1e-14 * wn0:
            # breakdown: Krylov space invariant, correction exact; row
            # V[j + 1] is never written, so the residual uses V[:j + 1]
            filled = j + 1
            break
        V[j + 1] = w / hb
    k = j + 1
    g = np.zeros(k + 1, dtype=complex)
    g[0] = rn
    y = np.linalg.lstsq(H[:k + 1, :k], g, rcond=None)[0]
    return u + y @ V[:k], r - (H[:filled, :k] @ y) @ V[:filled]


def apply_smoother(A, u, r, cfg, diag=None):
    """Apply ``cfg.nu`` steps of the configured smoother; returns (u, r)."""
    for _ in range(cfg.nu):
        if cfg.kind == "jacobi":
            u, r = jacobi_sweep(A, u, r, cfg.omega, diag=diag)
        else:
            u, r = gmres_smooth(A, u, r, cfg.m)
    return u, r
