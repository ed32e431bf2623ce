"""Relaxation smoothers: omega-Jacobi and the GMRES(m) polynomial smoother.

The Jacobi convention follows X = omega * Lambda_A: one sweep is

    u <- u + (1/omega) * Lambda_A^{-1} (b - A u)

so ``omega = 4.5`` means a damping factor of 1/4.5 ~ 0.222.

The GMRES smoother runs ``m`` Arnoldi steps (modified Gram-Schmidt with
one reorthogonalization pass when orthogonality degrades) on the current
residual equation A c = r and adds the Givens-least-squares optimal
correction; it acts as a degree-(m-1) polynomial smoother.
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
        if self.kind == "jacobi" and self.omega <= 0:
            raise ValueError("jacobi requires omega > 0")
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
    Q = [r / rn]
    # Givens-rotation QR of the Hessenberg matrix, updated column by column
    H = np.zeros((m + 1, m), dtype=complex)
    cs = np.zeros(m, dtype=complex)
    sn = np.zeros(m, dtype=complex)
    g = np.zeros(m + 1, dtype=complex)
    g[0] = rn
    k_eff = 0
    for j in range(m):
        w = A @ Q[j]
        wn0 = np.linalg.norm(w)
        for i in range(j + 1):
            H[i, j] = np.vdot(Q[i], w)
            w = w - H[i, j] * Q[i]
        # one reorthogonalization pass if orthogonality has degraded
        if np.linalg.norm(w) < 1e-8 * max(wn0, 1e-300):
            for i in range(j + 1):
                corr = np.vdot(Q[i], w)
                H[i, j] += corr
                w = w - corr * Q[i]
        hb = np.linalg.norm(w)
        H[j + 1, j] = hb
        # apply previous Givens rotations to the new column
        for i in range(j):
            t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
            H[i + 1, j] = -np.conj(sn[i]) * H[i, j] + np.conj(cs[i]) * H[i + 1, j]
            H[i, j] = t
        # new rotation annihilating H[j+1, j]
        a, bb = H[j, j], H[j + 1, j]
        rho = np.sqrt(abs(a) ** 2 + abs(bb) ** 2)
        if rho == 0.0:
            cs[j], sn[j] = 1.0, 0.0
        else:
            cs[j] = np.conj(a) / rho
            sn[j] = np.conj(bb) / rho
        H[j, j] = cs[j] * a + sn[j] * bb
        H[j + 1, j] = 0.0
        g[j + 1] = -np.conj(sn[j]) * g[j]
        g[j] = cs[j] * g[j]
        k_eff = j + 1
        if hb < 1e-14 * rn:
            break  # breakdown: Krylov space invariant, correction exact
        Q.append(w / hb)
    # back substitution on the k_eff x k_eff triangular system
    y = np.zeros(k_eff, dtype=complex)
    for j in range(k_eff - 1, -1, -1):
        y[j] = (g[j] - H[j, j + 1:k_eff] @ y[j + 1:k_eff]) / H[j, j]
    c = np.zeros_like(u)
    for j in range(k_eff):
        c = c + y[j] * Q[j]
    return u + c


def apply_smoother(A, u, b, cfg, steps, diag=None):
    """Apply ``steps`` smoothing applications of the configured smoother."""
    for _ in range(steps):
        if cfg.kind == "jacobi":
            u = jacobi_sweep(A, u, b, cfg.omega, diag=diag)
        else:
            u = gmres_smooth(A, u, b, cfg.m)
    return u
