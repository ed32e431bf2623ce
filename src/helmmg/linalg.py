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

    The Hermiticity residual ||M - M^H||_F / ||M||_F is checked first,
    against a fixed 1e-10 (not ``tol``): a matrix above it is reported
    non-Hermitian, never HPD.  On the Hermitian path the verdict is HPD iff
    the factorization completes with every pivot above ``tol`` times the
    largest diagonal entry; the reason records the first failing pivot.
    """
    M = np.asarray(M, dtype=complex)
    herm = _hermiticity_residual(M)
    if herm > 1e-10:
        return Verdict(False, f"non-hermitian (residual {herm:.2e})")
    c, info = sla.lapack.zpotrf(M, lower=1)  # reads only the lower triangle
    if info > 0:
        return Verdict(False, f"not positive definite: pivot failure at index {info - 1}")
    if info < 0:
        raise ValueError(f"invalid argument {-info} passed to zpotrf")
    pivots = np.real(np.diag(c)) ** 2
    floor = tol * max(np.real(np.diag(M)).max(), 1e-300)
    bad = np.nonzero(pivots < floor)[0]
    if bad.size:
        return Verdict(False, f"semidefinite to tolerance at pivot index {bad[0]}")
    return Verdict(True, "HPD")


def quick_pd_screen(M):
    """Four-condition necessary screen for positive definiteness.

    Checks, in order: (1) positive diagonal, (2) b_ii + b_jj > 2|Re b_ij|
    for i != j, (3) the element of largest modulus lies on the diagonal,
    (4) det(M) > 0, its sign from ``lu_factor_checked`` (a singular M fails).
    Condition (4) is skipped with a warning in the reason string when the
    matrix exceeds DENSE_LIMIT.  Returns the first failing condition.
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
    try:
        lu, piv = lu_factor_checked(M, "quick_pd_screen input")
    except np.linalg.LinAlgError:
        return Verdict(False, "condition 4: determinant not positive")
    u = np.diag(lu)  # det = (-1)^(row swaps) * prod(u)
    sign = (-1.0) ** np.count_nonzero(piv != np.arange(n)) * np.prod(u / np.abs(u))
    if not (np.real(sign) > 0.5):
        return Verdict(False, "condition 4: determinant not positive")
    return Verdict(True, "pass")


def norm2_from_gram(H):
    """Exact 2-norm of any X with X^H X = H: the root of lambda_max(H).

    One LAPACK call (``eigvalsh``, driver ``evr``, restricted to the top
    eigenvalue); no iteration that can stop short.
    """
    n = H.shape[0]
    if n == 0:
        return 0.0
    lam = sla.eigvalsh(H, subset_by_index=[n - 1, n - 1], driver="evr")[0]
    return float(np.sqrt(max(lam, 0.0)))


def norm2(M):
    """Exact 2-norm of M, from its Gram matrix M^H M (``norm2_from_gram``)."""
    M = np.asarray(M, dtype=complex)
    return norm2_from_gram(M.conj().T @ M)


def norm1(M):
    """Induced 1-norm (max absolute column sum) of a dense matrix."""
    return float(np.abs(np.asarray(M)).sum(axis=0).max())


def condition_number_p1(M):
    """kappa_1(M) = ||M||_1 ||M^-1||_1.

    When M is Hermitian to 1e-12 and complex Cholesky (``zpotrf``)
    completes, M^-1 comes from ``zpotri``; otherwise from partially
    pivoted LU (``lu_factor_checked``) and an identity solve.  Both paths
    raise ``np.linalg.LinAlgError`` ("condition_number_p1 input singular to
    tolerance at pivot index i") at the first pivot below 1e-14 max|M|:
    c_ii^2 for the Cholesky factor, |u_ii| for LU.
    """
    M = np.asarray(M, dtype=complex)
    if M.shape[0] != M.shape[1]:
        raise ValueError("condition_number_p1 requires a square matrix")
    what = "condition_number_p1 input"
    if _hermiticity_residual(M) <= 1e-12:
        # M.T is F-contiguous and equals conj(M), which has M's kappa_1 and
        # HPD verdict: zpotrf factors one copy and leaves M for the LU path
        c, info = sla.lapack.zpotrf(M.T, lower=1, clean=1)
        if info == 0:
            tol = 1e-14 * max(np.abs(M).max(), 1e-300)
            bad = np.nonzero(np.real(np.diag(c)) ** 2 < tol)[0]
            if bad.size:
                raise np.linalg.LinAlgError(
                    f"{what} singular to tolerance at pivot index {bad[0]}")
            # the pivot check above leaves zpotri no zero pivot to fail on
            c, _ = sla.lapack.zpotri(c, lower=1, overwrite_c=1)
            # c holds the lower triangle L of the Hermitian inverse and zeros
            # above it (clean=1): |column j| = |L col j| + |L row j| - |L_jj|
            L = np.abs(c)
            del c
            return norm1(M) * float((L.sum(axis=0) + L.sum(axis=1) - np.diag(L)).max())
        del c  # not HPD: the partial factor is freed before the LU fallback
    inv = sla.lu_solve(lu_factor_checked(M, what), np.eye(M.shape[0], dtype=complex))
    return norm1(M) * norm1(inv)
