"""Complex dense linear-algebra kernels.

These routines carry no Helmholtz knowledge; the certificate and the
coarsest-level solve build on them.  Matrices are ``numpy`` arrays of
``complex128``, vectors are 1-D ``numpy`` arrays.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

#: Largest dense matrix (entry count) the certificate machinery will touch.
#: 2401^2 = 5 764 801 covers the 49x49-grid (k = 30) certificate tables.
DENSE_LIMIT = 6_000_000


class DenseLimitError(RuntimeError):
    """Raised when a dense computation would exceed DENSE_LIMIT entries."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of a definiteness test: ``ok`` plus a human-readable reason."""

    ok: bool
    reason: str = ""

    def __bool__(self):
        return self.ok


def lu_factor_checked(M, what):
    """Partially pivoted LU factors ``(lu, piv)`` of the dense square M.

    Raises ``np.linalg.LinAlgError`` naming ``what`` and the first pivot
    below 1e-14 times the largest entry of M.
    """
    # scipy warns on an exactly zero pivot; the check below raises for it
    # instead, naming the factorization and the pivot
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(M)
    tol = 1e-14 * max(np.abs(M).max(), 1e-300)
    bad = np.nonzero(np.abs(np.diag(lu)) < tol)[0]
    if bad.size:
        raise np.linalg.LinAlgError(
            f"{what} singular to tolerance at pivot index {bad[0]}"
        )
    return lu, piv


def _hermiticity_residual(M):
    nrm = sla.norm(M, "fro")
    if nrm == 0.0:
        return 0.0
    return sla.norm(M - M.conj().T, "fro") / nrm


def cholesky_hpd_test(M, tol=1e-12):
    """Hermitian-positive-definiteness test via complex Cholesky.

    The Hermiticity residual ||M - M^H||_F / ||M||_F is checked first; a
    matrix that is non-Hermitian beyond ``tol``**0.5-ish tolerances can
    never be HPD.  On the Hermitian path the verdict is HPD iff the
    factorization completes with every pivot above ``tol`` times the
    largest diagonal entry; the reason records the first failing pivot.
    """
    M = np.asarray(M, dtype=complex)
    herm = _hermiticity_residual(M)
    if herm > 1e-10:
        return Verdict(False, f"non-hermitian (residual {herm:.2e})")
    H = 0.5 * (M + M.conj().T)
    c, info = sla.lapack.zpotrf(H, lower=1)
    if info > 0:
        return Verdict(False, f"not positive definite: pivot failure at index {info - 1}")
    if info < 0:
        raise ValueError(f"invalid argument {-info} passed to zpotrf")
    pivots = np.real(np.diag(c)) ** 2
    floor = tol * max(np.real(np.diag(H)).max(), 1e-300)
    bad = np.nonzero(pivots < floor)[0]
    if bad.size:
        return Verdict(False, f"semidefinite to tolerance at pivot index {bad[0]}")
    return Verdict(True, "HPD")


def quick_pd_screen(M):
    """Four-condition necessary screen for positive definiteness.

    Checks, in order: (1) positive diagonal, (2) b_ii + b_jj > 2|Re b_ij|
    for i != j, (3) the element of largest modulus lies on the diagonal,
    (4) det(M) > 0 evaluated in sign/log-magnitude form.  Condition (4)
    is skipped with a warning in the reason string when the matrix
    exceeds DENSE_LIMIT.  Returns the first failing condition.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"quick_pd_screen requires a square matrix, got {M.shape}")
    if _hermiticity_residual(M) > 1e-12:
        raise ValueError("quick_pd_screen requires a Hermitian matrix")
    d = np.real(np.diag(M))
    if np.any(d <= 0):
        return Verdict(False, "condition 1: nonpositive diagonal entry")
    off = M - np.diag(np.diag(M))
    # condition 2: d_i + d_j > 2|Re m_ij| for all i != j
    bad = 2.0 * np.abs(np.real(off)) >= d[:, None] + d[None, :]
    np.fill_diagonal(bad, False)
    if bad.any():
        return Verdict(False, "condition 2: off-diagonal real part too large")
    if np.abs(off).max(initial=0.0) > d.max():
        return Verdict(False, "condition 3: largest modulus off the diagonal")
    if n * n > DENSE_LIMIT:
        return Verdict(True, "pass (condition 4 skipped: dense limit)")
    sign, _logdet = np.linalg.slogdet(M)
    if not (np.real(sign) > 0.5):
        return Verdict(False, "condition 4: determinant not positive")
    return Verdict(True, "pass")


def norm2(M):
    """Exact 2-norm of M: the root of the largest eigenvalue of M^H M.

    One LAPACK call (``eigvalsh`` restricted to the top eigenvalue); no
    iteration that can stop short.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[1]
    if n == 0:
        return 0.0
    lam = sla.eigvalsh(M.conj().T @ M, subset_by_index=[n - 1, n - 1])[0]
    return float(np.sqrt(max(lam, 0.0)))


def norm1(M):
    """Induced 1-norm (max absolute column sum) of a dense matrix."""
    return float(np.abs(np.asarray(M)).sum(axis=0).max())


def condition_number_p1(M):
    """kappa_1(M) = ||M||_1 ||M^-1||_1 with the inverse from dense LU."""
    M = np.asarray(M, dtype=complex)
    if M.shape[0] != M.shape[1]:
        raise ValueError("condition_number_p1 requires a square matrix")
    inv = sla.lu_solve(lu_factor_checked(M, "condition_number_p1 input"),
                       np.eye(M.shape[0], dtype=complex))
    return norm1(M) * norm1(inv)

