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


def check_dense_limit(N):
    """Raise DenseLimitError when a certificate of N unknowns exceeds DENSE_LIMIT."""
    if N * N > DENSE_LIMIT:
        raise DenseLimitError(
            f"certificate needs a dense {N}x{N} matrix "
            f"({N * N} entries > limit {DENSE_LIMIT})"
        )


@dataclass(frozen=True)
class Verdict:
    """Outcome of a definiteness test: ``ok`` plus a human-readable reason."""

    ok: bool
    reason: str = ""

    def __bool__(self):
        return self.ok


#: Edge of the square tiles (and height of the row stripes) the kernels
#: below walk a dense matrix in, instead of building N x N temporaries.
_ADJOINT_TILE = 96


def _tiles(n):
    """Slices of at most _ADJOINT_TILE consecutive indices covering range(n)."""
    return [slice(i, i + _ADJOINT_TILE) for i in range(0, n, _ADJOINT_TILE)]


def _abs_max(M):
    """max |m_ij| of a dense matrix, one stripe of rows at a time."""
    return max((np.abs(M[I]).max() for I in _tiles(M.shape[0])), default=0.0)


def lu_factor_checked(M, what):
    """Partially pivoted LU factors ``(lu, piv)`` of the dense square M.

    M may also be a dict {name: block} of the diagonal blocks of a
    block-diagonal M; then each block is factored, in order, and the dict
    {name: (lu, piv)} is returned.

    Raises ``np.linalg.LinAlgError`` naming ``what`` and the first pivot
    below 1e-14 times the largest entry of M, over all of its blocks ("<what>
    singular to tolerance at pivot index i", then " of <name>" for a block
    with a nonempty name).
    """
    blocks = M if isinstance(M, dict) else {"": M}
    tol = 1e-14 * max(max(_abs_max(B) for B in blocks.values()), 1e-300)
    factors = {}
    for name, B in blocks.items():
        # scipy warns on an exactly zero pivot; the check below raises for it
        # instead, naming the factorization and the pivot
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu, piv = factors[name] = sla.lu_factor(B)
        bad = np.nonzero(np.abs(np.diag(lu)) < tol)[0]
        if bad.size:
            where = f" of {name}" if name else ""
            raise np.linalg.LinAlgError(
                f"{what} singular to tolerance at pivot index {bad[0]}{where}"
            )
    return factors if isinstance(M, dict) else factors[""]


#: Largest Hermiticity residual ||M - M^H||_F / ||M||_F of a matrix that
#: counts as Hermitian: the HPD verdict, ``inverse`` and the quick screen share it.
HERMITIAN_TOL = 1e-12


def _hermiticity_residual(*blocks):
    """||M - M^H||_F / ||M||_F of M = blockdiag(blocks), square blocks, one
    pair of tiles at a time; one block is M itself.

    The tile (I, J) of M - M^H is minus the adjoint of the tile (J, I), so
    each pair above the diagonal counts twice; the extra memory is one
    tile.  An exactly Hermitian M reads exactly 0.0.
    """
    nrm = np.linalg.norm([sla.norm(M, "fro") for M in blocks])
    if nrm == 0.0:
        return 0.0
    sq = 0.0
    for M in blocks:
        n = M.shape[0]
        buf = np.empty(min(n, _ADJOINT_TILE) ** 2, dtype=M.dtype)
        tiles = _tiles(n)
        for a, I in enumerate(tiles):
            for J in tiles[a:]:
                upper, lower = M[I, J], M[J, I]
                diff = np.conjugate(lower.T, out=buf[:upper.size].reshape(upper.shape))
                np.subtract(upper, diff, out=diff)
                sq += (1.0 if J == I else 2.0) * np.vdot(diff, diff).real
    return float(np.sqrt(sq)) / nrm


def _hpd_cholesky(M):
    """(verdict, c) under the rule of ``cholesky_hpd_test`` for complex M.

    c is None unless M is HPD; then it is the lower Cholesky factor of the
    F-contiguous M.T = conj(M), which has M's pivots.
    """
    herm = _hermiticity_residual(M)
    if herm > HERMITIAN_TOL:
        return Verdict(False, f"non-hermitian (residual {herm:.2e})"), None
    c, info = sla.lapack.zpotrf(M.T, lower=1, clean=1)
    if info > 0:
        reason = f"not positive definite: pivot failure at index {info - 1}"
        return Verdict(False, reason), None
    if info < 0:
        raise ValueError(f"invalid argument {-info} passed to zpotrf")
    pivots = np.real(np.diag(c)) ** 2
    floor = 1e-12 * max(np.real(np.diag(M)).max(initial=0.0), 1e-300)
    bad = np.nonzero(pivots < floor)[0]
    if bad.size:
        return Verdict(False, f"semidefinite to tolerance at pivot index {bad[0]}"), None
    return Verdict(True, "HPD"), c


def cholesky_hpd_test(M):
    """Hermitian-positive-definiteness verdict via complex Cholesky.

    The one rule, which ``inverse`` also applies: M is non-Hermitian when
    ||M - M^H||_F / ||M||_F exceeds HERMITIAN_TOL, and otherwise HPD iff
    the factorization completes with every pivot at least 1e-12 times the
    largest diagonal entry; the reason records the first failing pivot.
    """
    return _hpd_cholesky(np.asarray(M, dtype=complex))[0]


def quick_pd_screen(M):
    """Four-condition necessary screen for positive definiteness.

    Checks, in order: (1) positive diagonal, (2) b_ii + b_jj > 2|Re b_ij|
    for i != j, (3) the element of largest modulus lies on the diagonal,
    (4) det(M) > 0, its sign from ``lu_factor_checked`` (a singular M fails).
    Returns the first failing condition.  Before the LU of condition (4),
    ``check_dense_limit`` raises DenseLimitError for an M over DENSE_LIMIT.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"quick_pd_screen requires a square matrix, got {M.shape}")
    if _hermiticity_residual(M) > HERMITIAN_TOL:
        raise ValueError("quick_pd_screen requires a Hermitian matrix")
    d = np.real(np.diag(M))
    if np.any(d <= 0):
        return Verdict(False, "condition 1: nonpositive diagonal entry")
    # conditions 2 (d_i + d_j > 2|Re m_ij| for all i != j) and 3 (max |m_ij|,
    # i != j, at most max d_i), one stripe of rows at a time
    bad, big = False, 0.0
    for I in _tiles(n):
        S = M[I]
        diag = (np.arange(S.shape[0]), np.arange(I.start, I.start + S.shape[0]))
        hit = 2.0 * np.abs(S.real) >= d[I, None] + d[None, :]
        hit[diag] = False
        bad = bad or bool(hit.any())
        mod = np.abs(S)
        mod[diag] = 0.0
        big = max(big, mod.max())
    if bad:
        return Verdict(False, "condition 2: off-diagonal real part too large")
    if big > d.max():
        return Verdict(False, "condition 3: largest modulus off the diagonal")
    check_dense_limit(n)
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


def norm1(M):
    """Induced 1-norm (max absolute column sum) of a dense matrix."""
    return float(np.abs(np.asarray(M)).sum(axis=0).max())


def add_adjoint(X):
    """X <- X + X^H in place for a square X, one pair of tiles at a time.

    Each entry gets X_ij + conj(X_ji), the same sum as ``X + X.conj().T``
    bit for bit, without that N x N temporary: the extra memory is two
    tiles.  Returns X.
    """
    n = X.shape[0]
    t = min(n, _ADJOINT_TILE)
    buf = np.empty((t, t), dtype=X.dtype)
    tiles = _tiles(n)
    for a, I in enumerate(tiles):
        for J in tiles[a:]:
            upper, lower = X[I, J], X[J, I]
            lower_h = np.conjugate(lower.T, out=buf[:upper.shape[0], :upper.shape[1]])
            if J != I:
                lower += upper.T.conj()
            upper += lower_h
    return X


def inverse(M, what, cholesky=None):
    """Full M^-1 of the dense square M, as a C-contiguous complex array.

    When M is HPD by the rule of ``cholesky_hpd_test``, M^-1 comes from
    ``zpotri`` on that rule's Cholesky factor, with both triangles filled.
    Otherwise it comes from partially pivoted LU (``lu_factor_checked``)
    and an identity solve, which raises ``np.linalg.LinAlgError`` ("<what>
    singular to tolerance at pivot index i") at the first |u_ii| below
    1e-14 max|M|.  An HPD verdict leaves no such pivot: c_ii^2 >= 1e-12
    max diag(M).  ``cholesky`` is ``_hpd_cholesky(M)`` when the caller
    has taken it already (a verdict hands its factor on); else it is taken
    here.  An empty M is its own inverse.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {M.shape}")
    if M.size == 0:
        return M.copy()
    verdict, c = _hpd_cholesky(M) if cholesky is None else cholesky
    if verdict:
        c, _ = sla.lapack.zpotri(c, lower=1, overwrite_c=1)
        # c factors conj(M) = M^T, so it now holds the lower triangle of
        # (M^-1)^T and zeros above it (clean=1): its transpose is the upper
        # triangle of M^-1, and adding the adjoint fills the lower one (the
        # add doubles the diagonal, so it is halved first)
        inv = c.T
        inv[np.diag_indices_from(inv)] *= 0.5
        add_adjoint(inv)
    else:
        inv = sla.lu_solve(lu_factor_checked(M, what),
                           np.eye(M.shape[0], dtype=complex, order="F"), overwrite_b=True)
    return np.ascontiguousarray(inv)

