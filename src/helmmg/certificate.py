"""Two-grid convergence certificates: D, Gamma, Gamma-tilde, T0 and bounds.

Also builds the rows of the two published certificate tables (conv1_row,
opt1_row).

For a two-grid configuration (fine operator A, coarse-build operator B,
transfer pair (P, R), nu-step omega-Jacobi smoother X = omega*Lambda_A)
the error-propagation operator is the one ``mg.cycle`` applies on two
levels: the coarse-grid correction followed by nu post-smoothing steps,

    T0 = S^nu * CGC = (I - X^{-1} A)^nu (I - P A_c^{-1} R A),
    A_c = R B P.

Writing M_nu for the equivalent correction operator of nu smoothing
steps (I - M_nu A = (I - X^{-1}A)^nu; a sparse degree-(nu-1) polynomial
in the 5-point A) gives T0 = I - D A with

    D = M_nu + P A_c^{-1} R - M_nu A P A_c^{-1} R,

and the Hermitian certificate matrices

    Gamma       = A^H D^H + D A - A^H D^H D A            (T0^H T0 = I - Gamma)
    Gamma-tilde = the same form built from D-tilde = M_nu + P A_c^{-1} R.

Gamma-tilde does not depend on the order of smoothing and coarse
correction.  Gamma HPD implies ||T0||_2 = sqrt(1 - lambda_min(Gamma)) < 1;
Gamma-tilde HPD is the cheaper sufficient test, and ||Gamma-tilde||_1 /
kappa_1 = 1 / ||Gamma-tilde^-1||_1 is the optimality-bound table value.

The coarse correction has rank N_c ~ N/4, so the certificate works from

    Y = A_c^{-1} R A   (dense N_c x N, one LU solve),
    MA = M_nu A        (sparse),     S = I - MA,

with D-tilde A = MA + P Y and D A = I - T0 = MA + S P Y.  Both certificate
matrices are one Gamma form of X = MA + W Y, in sparse-plus-rank-N_c form:

    X^H + X - X^H X = G_s + F + F^H,  G_s = MA^H + MA - MA^H MA,
                                      F = U Y,
                                      U = (I - MA^H) W - 1/2 Y^H W^H W;

W = P gives Gamma-tilde, W = S P gives Gamma, and T0^H T0 = I - Gamma.
The full N x N form (``_gamma_form``) costs one N x N_c x N product, and
D itself is formed only in ``assemble_D``.  The Gram matrix (DA)^H DA =
DA + DA^H - Gamma is one more such form, of the sparse MA + MA^H - G_s and
the thin S P - U.  Reported 2-norms are exact (LAPACK eigenvalues of these
Gram matrices), and lambda_min(Gamma) = 1 - lambda_max(T0^H T0) comes from
the same one eigenvalue as ||T0||_2.

MP 2-A has constant k and the same Sommerfeld rows on all four sides, so
its two-grid operator commutes with the grid reflections x -> 1-x and
y -> 1-y (both transfer schemes, both coarsenings, omega-Jacobi).  In the
orthogonal even/odd mirror basis Q = Q1 (x) Q1, Q1 the butterfly
(x_i +- x_{n-1-i})/sqrt(2) with the centre node of an odd side even (an
even side has no centre node), the Gram matrices are block diagonal with
four blocks of about N/4 (289, 272, 272 and 256 at n = 33), and
lambda_max is the largest block maximum.

The blocks are built from the factors, and no N x N matrix is formed.
The fine and coarse reflections commute with P, R, A, the CSL and M_nu
(fine node 2i is coarse node i on either parity of n_c = (n+1)/2).  So
the butterflied factors Ub = Q_f U Q_c and Yb = Q_c Y Q_f are
parity-block diagonal, fine parity p paired with coarse parity p, and so
is Q_f G_s Q_f.  ``_mirror_blocks`` forms block p as

    K_p = (Q_f G_s Q_f)_pp + U_p Y_p + (U_p Y_p)^H,

four N/4 x N_c/4 x N/4 products (21.6 M complex multiply-adds at n = 33
against 342.7 M for the full form).  Splitting Ub = U_d + U_o and
Yb = Y_d + Y_o into their parity-diagonal and off parts, the dropped part
of Q_f (G_s + F + F^H) Q_f is

    E = G_o + Z + Z^H,  Z = U_d Y_o + U_o Yb,

G_o the off-blocks of Q_f G_s Q_f.  Z holds U_o Y_o, whose products land
inside the diagonal blocks too, not only in the off-blocks: U_d Y_d alone
is what K keeps.  Hence

    ||E||_F <= ||G_o||_F + 2 (||U_d||_F ||Y_o||_F + ||U_o||_F ||Yb||_F),

each norm summed block by block (a total minus the diagonal blocks
cancels to about 1e-8 on rounding-level off-blocks).  The factor gate
takes the blocks when this bound is at most MIRROR_TOL = 1e-13 times
||K||_F; by Weyl's inequality no eigenvalue of the kept matrix is then
more than that from the form's.  The table rows read at most 4e-15
(k = 5), 1e-14 (k = 10), 3e-14 (k = 20) and 5.5e-14 (k = 30, Bezier
coarsened on A); a smooth variable-k medium reads about 1.6 and takes
the full form, unchanged.

``certify``, ``table_entry`` and ``omega_sweep`` use the blocks: Y is
butterflied once per configuration or sweep, ||T0||_2 is the root of the
largest lambda_max(I - K_p), sigma_max(DA) that of the largest
lambda_max of the (DA)^H DA blocks, and the optimality ratio
||Gamma-tilde||_1 / kappa_1 = 1 / ||Gamma-tilde^-1||_1 comes from
Gamma-tilde^-1 = Q blockdiag(K_p^-1) Q (``linalg.inverse`` on each block:
Cholesky and ``zpotri`` for an HPD block, LU otherwise).  The 1-norm is
not orthogonally invariant, but that matrix commutes with both
reflections, so the column sums of one quadrant of columns give it
(``_mirror_norm1``).  Q is orthogonal, so a form is HPD exactly when each
of its blocks is: the Cholesky verdicts of Gamma and Gamma-tilde
(``_hpd_verdict``) run on the four blocks, and a failing verdict names
the block and the row of the mirror basis, not a node.  Gamma's
Hermiticity residual is that of blockdiag(K_p).  Only the quick screen,
whose conditions test entries in the node basis, still forms the full
N x N Gamma-tilde.  The sparse basis Q of each grid side is built once
(``_mirror_basis``).  For variable k every step takes the one full form
instead, and a verdict reports its node's pivot index.

MP 2-A also commutes with the diagonal swap x <-> y (the same Sommerfeld
rows on all four sides, P = P1 (x) P1); with the reflections it makes
the dihedral group D4 of the square (Faessler & Stiefel, Group
Theoretical Methods and Their Applications, Birkhauser 1992; Bossavit,
CMAME 56, 1986).  The swap maps the mirror basis onto itself: the
even-even and the odd-odd block onto themselves, the even-odd block onto
the odd-even one.  So the LAPACK consumers of the blocks, ``_gram_norm2``
and ``_ratio``, work on the five blocks of ``_swap_split``: the
swap-symmetric and swap-antisymmetric halves of the even-even and of the
odd-odd block, taken by index gathers, and the even-odd block, whose
permutation stands for the odd-even one, with the same spectrum and the
permuted inverse (153/136/272/136/120 at n = 33 against
289/272/272/256).  What the five drop, the swap-odd parts of the two
split blocks and the odd-even block's difference from the permuted
even-odd one, is measured; the swap gate adds its Frobenius norm to the
factor bound and takes the five blocks when the sum is at most
MIRROR_TOL times ||K||_F, else the four.  No table cell falls back: the
sums read at most 8.4e-14 (k = 30, I - Gamma of Bezier coarsened on A).
Gamma-tilde^-1 then commutes with the swap too, so a triangle of the
quadrant's columns gives its 1-norm.

``omega_sweep`` forms no Gamma form per cell.  With L = Lambda_A^-1 A,
M_nu A = I - (I - L/omega)^nu = sum_i a_i L^i, a_i =
-binom(nu, i) (-1/omega)^i, and so

    Gamma-tilde(omega, nu) = C_0 + sum_i a_i C_i + sum_{i<=j} a_i a_j C_ij

over fixed Hermitian forms: C_0 = U_0 Y + (U_0 Y)^H with
U_0 = P - 1/2 ((P^H P) Y)^H, C_i = L^i + L^iH - (L^iH P Y + (L^iH P Y)^H)
and the sparse C_ij = -(L^iH L^j + L^jH L^i), -L^iH L^i for i = j.  The
four mirror blocks of each C_c and its factor bound b_c are built once
per sweep (``_sweep_terms``), the blocks of the C_ij sparse.  A cell adds
up the blocks; its dropped part is at most sum_c |coef_c| b_c, and the
cell takes the blocks when that is at most MIRROR_TOL ||K||_F.  Otherwise
(variable k) the full C_c, built once, give the full Gamma-tilde.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import presets
from .linalg import (
    Verdict,
    _hermiticity_residual,
    add_adjoint,
    check_dense_limit,
    cholesky_hpd_test,
    inverse,
    lu_factor_checked,
    norm1,
    norm2_from_gram,
    quick_pd_screen,
)
from .problem import (
    ProblemSpec,
    ShiftSpec,
    assemble_helmholtz,
    build_wavenumber_field,
    nodes_for_wavenumber,
)
from .smoothing import SmootherConfig, reciprocal_diagonal
from .transfer import build_transfer_2d, galerkin_coarse


@dataclass(frozen=True)
class TwoGridConfig:
    """Dense two-grid certificate inputs.

    ``A`` is the fine operator, ``coarse_build_op`` the operator fed to
    Galerkin coarsening (A itself or the CSL), ``pair`` the transfer
    pair, and (omega, nu) the Jacobi smoother spec.
    """

    A: object
    coarse_build_op: object
    pair: object
    omega: float = 4.5
    nu: int = 1

    def __post_init__(self):
        # the smoother's own omega and nu checks and messages
        SmootherConfig(kind="jacobi", omega=self.omega, nu=self.nu)


@dataclass
class CertificateReport:
    """All certificate outputs for one two-grid configuration."""

    hermiticity_residual_gamma: float
    hpd_gamma: Verdict
    hpd_gamma_tilde: Verdict
    quick_screen: Verdict
    norm_T0: float
    sigma_max_DA: float
    lambda_min_gamma: float
    bound_value: float  # sqrt(|1 - ||Gt||_1 / kappa_1(Gt)|)
    ratio_table_value: float  # ||Gt||_1 / kappa_1(Gt) = 1 / ||Gt^-1||_1; NaN if singular
    consistency_warnings: list

    def to_text(self):
        lines = [
            f"Gamma hermiticity residual : {self.hermiticity_residual_gamma:.3e}",
            f"Gamma HPD                  : {self.hpd_gamma.ok} ({self.hpd_gamma.reason})",
            f"Gamma-tilde HPD            : {self.hpd_gamma_tilde.ok} "
            f"({self.hpd_gamma_tilde.reason})",
            f"quick PD screen            : {self.quick_screen.ok} "
            f"({self.quick_screen.reason})",
            f"lambda_min(Gamma)          : {self.lambda_min_gamma:.6g}",
            f"||T0||_2                   : {self.norm_T0:.6g}",
            f"sigma_max(DA)              : {self.sigma_max_DA:.6g}",
            f"||Gt||_1 / kappa_1(Gt)     : {self.ratio_table_value:.6g}",
            f"bound sqrt|1 - ratio|      : {self.bound_value:.6g}",
        ]
        for w in self.consistency_warnings:
            lines.append(f"WARNING: {w}")
        return "\n".join(lines)

    def to_csv_row(self):
        return (
            f"{self.hermiticity_residual_gamma:.6e},{int(self.hpd_gamma.ok)},"
            f"{int(self.hpd_gamma_tilde.ok)},{int(self.quick_screen.ok)},"
            f"{self.lambda_min_gamma:.6e},{self.norm_T0:.6e},"
            f"{self.sigma_max_DA:.6e},{self.ratio_table_value:.6e},"
            f"{self.bound_value:.6e}"
        )

    CSV_HEADER = (
        "herm_residual,hpd_gamma,hpd_gamma_tilde,quick_screen,"
        "lambda_min_gamma,norm_T0,sigma_max_DA,ratio,bound"
    )


def smoother_correction(A, omega, nu):
    """Sparse M_nu with I - M_nu A = (I - X^{-1} A)^nu, X = omega * Lambda_A:
    nu Horner steps M <- M + X^{-1} (I - A M) from M = 0."""
    Xinv = sp.diags(reciprocal_diagonal(A) * (1.0 / omega), format="csr")
    M = sp.csr_matrix(A.shape, dtype=complex)
    for _ in range(nu):
        M = M + Xinv @ (sp.identity(A.shape[0], format="csr") - A @ M)
    return M


def _coarse_correction(cfg, X):
    """Dense A_c^{-1} R X for sparse X (Y at X = A), A_c = R B P."""
    check_dense_limit(cfg.A.shape[0])
    Ac = galerkin_coarse(cfg.coarse_build_op, cfg.pair).toarray()
    lu = lu_factor_checked(Ac, "coarse operator A_c")
    return sla.lu_solve(lu, (cfg.pair.R @ X).toarray())


def _smoothed(cfg):
    """Sparse MA = M_nu A."""
    return smoother_correction(cfg.A, cfg.omega, cfg.nu) @ cfg.A


def _hermitian_low_rank(Hs, W, Y):
    """Hs + W Y + (W Y)^H for sparse Hermitian Hs, dense or sparse W and dense Y."""
    X = add_adjoint(W @ Y)  # the one product of the factors
    Hs = _coo(Hs)
    X[Hs.row, Hs.col] += Hs.data  # the sparse part, entry by entry
    return X


def _coo(H):
    """H as a COO matrix without duplicate entries, ready to add into a dense one."""
    H = H.tocoo()
    H.sum_duplicates()
    return H


def _gamma_factors(MA, W, Y):
    """(G_s, U) with X^H + X - X^H X = G_s + U Y + (U Y)^H for X = MA + W Y.

    G_s = MA^H + MA - MA^H MA is sparse and U = (I - MA^H) W -
    1/2 ((W^H W) Y)^H dense N x N_c.  W = P gives Gamma-tilde, W = S P
    gives Gamma.
    """
    MAh = MA.conj().T.tocsr()
    WWY = (W.conj().T @ W) @ Y  # in place from here: no other N x N_c temporary
    np.conjugate(WWY, out=WWY)
    WWY *= 0.5
    U = (W - MAh @ W).toarray()
    U -= WWY.T
    return MAh + MA - MAh @ MA, U


def _gamma_form(MA, W, Y):
    """The full N x N Gamma form X^H + X - X^H X of X = MA + W Y."""
    Hs, U = _gamma_factors(MA, W, Y)
    return _hermitian_low_rank(Hs, U, Y)


#: Largest bound on the dropped part, relative to ||K||_F of the kept
#: blocks, at which a mirror gate (``_gate``) takes the blocks for the
#: whole form.  Dropping E moves no eigenvalue by more than ||E||_2 <=
#: ||E||_F (Weyl's inequality), so below the gate the block maximum is
#: within MIRROR_TOL times the kept norm of lambda_max.  The inverse moves
#: by about kappa_2(H) ||E||_2 / ||H||_2 relative, the order of a full
#: inversion's own rounding error while E is rounding.  Constant-k forms
#: read about 1e-14 (rounding), variable-k ones 0.05 and more.
MIRROR_TOL = 1e-13


def _gate(blocks, dropped):
    """The ratio every mirror gate compares with MIRROR_TOL: ``dropped``, a
    bound on ||E||_F of what the dense blocks drop from a form, over
    ||blockdiag(blocks)||_F."""
    kept = np.sqrt(sum(_sq(B) for B in blocks))
    return float(dropped / kept) if kept > 0.0 else np.inf


def _grid_side(N):
    """n with n^2 = N for an n >= 2, else None."""
    n = int(round(np.sqrt(N)))
    return n if n * n == N and n >= 2 else None


def _parities(n):
    """The four (x, y) parity slice pairs of the n x n mirror basis: the
    first n - n//2 indices of an axis are even, the other n//2 odd."""
    halves = (slice(0, n - n // 2), slice(n - n // 2, n))
    return [(a, b) for a in halves for b in halves]


def _butterfly(H):
    """Apply H <- Q_r H Q_c^T in place for the mirror bases of rows and columns.

    H is a C-contiguous N_r x N_c matrix whose rows and columns are the
    unknowns of an n_r x n_r and an n_c x n_c grid, N = n^2: every caller
    passes a fresh dense factor between an odd n x n grid and its
    ((n+1)/2)^2 coarse grid, either way round.  Q = Q1 (x) Q1, Q1 of
    ``_reflect``.  Q is symmetric and orthogonal, so ||H||_F is
    unchanged, a square H keeps its spectrum, and a second call undoes the
    first.  Returns the (n_r, n_r, n_c, n_c) view of H with the row and the
    column parity slice pairs.
    """
    nr, nc = (_grid_side(N) for N in H.shape)
    H4 = H.reshape(nr, nr, nc, nc)
    _reflect(H4, range(4))
    return H4, _parities(nr), _parities(nc)


def _reflect(H4, axes):
    """Apply Q1 along each of the given axes of H4, in place.

    Q1 maps x to (x_i + x_j)/sqrt(2) at i and (x_i - x_j)/sqrt(2) at j for
    each mirror pair i < j = n-1-i, and keeps the centre x_m of an odd n
    (an even n has none); this is the one definition of the butterfly.
    """
    s = np.sqrt(0.5)
    for axis in axes:
        V = np.moveaxis(H4, axis, 0)
        h = V.shape[0] // 2
        lo, hi = V[:h], V[::-1][:h]  # hi[i] is node n-1-i
        # the difference first, so a (near-)symmetric pair leaves an odd
        # part accurate to its own size, not to the size of the sum
        np.subtract(lo, hi, out=hi)
        hi *= s
        lo *= 2.0 * s
        lo -= hi


def _sq(B):
    """||B||_F^2."""
    return np.vdot(B, B).real


def _mirror_factor(X):
    """Butterfly the dense thin factor X in place and split it.

    Returns (the four blocks that pair row parity p with column parity p,
    ||those blocks||_F, ||the 12 other blocks||_F).
    """
    X4, rows, cols = _butterfly(X)
    diag = [B.reshape(B.shape[0] * B.shape[1], -1)
            for B in (X4[r + c] for r, c in zip(rows, cols))]
    off = sum(_sq(X4[r + c]) for a, r in enumerate(rows)
              for b, c in enumerate(cols) if a != b)
    return diag, np.sqrt(sum(_sq(B) for B in diag)), np.sqrt(off)


@cache
def _mirror_basis(n):
    """(Q, block sizes, block starts, block label of each row) of the sparse
    mirror basis on an n x n grid, built once per n and read-only.

    The rows of Q = Q1 (x) Q1 of ``_butterfly`` come in block order: the
    four parities in turn, each row-major, as ``_mirror_factor`` lays a
    block out.  Q1 is ``_reflect`` applied to the identity.
    """
    Q1 = np.eye(n)
    _reflect(Q1, (0,))
    Q1 = sp.csr_matrix(Q1)
    grid = np.arange(n * n).reshape(n, n)
    order = [grid[p].ravel() for p in _parities(n)]
    Q = sp.kron(Q1, Q1, format="csr")[np.concatenate(order)]
    sizes = [len(o) for o in order]
    label = np.repeat(np.arange(4), sizes)
    for a in (Q.data, Q.indices, Q.indptr, label):
        a.flags.writeable = False
    return Q, tuple(sizes), tuple(np.cumsum([0] + sizes[:-1]).tolist()), label


def _mirror_sparse(Hs):
    """(the four diagonal mirror blocks of Q Hs Q, sparse, and ||its 12
    off-blocks||_F) for a sparse Hs on a square grid, Q of ``_butterfly``.
    The blocks hold no duplicate entries: Q Hs Q is a CSR product."""
    Q, sizes, start, label = _mirror_basis(_grid_side(Hs.shape[0]))
    Hb = (Q @ Hs @ Q.T).tocoo()
    row, col = label[Hb.row], label[Hb.col]
    blocks = []
    for p, size in enumerate(sizes):
        k = (row == p) & (col == p)
        blocks.append(sp.coo_matrix((Hb.data[k], (Hb.row[k] - start[p], Hb.col[k] - start[p])),
                                    shape=(size, size)))
    return blocks, float(np.linalg.norm(Hb.data[row != col]))


def _mirror_blocks(Hs, U, Ym):
    """(the four mirror blocks K_p of H = Hs + U Y + (U Y)^H, bound on
    ||E||_F of the part they drop).

    Ym is ``_mirror_factor`` of the N_c x N factor Y; the N x N_c U is
    butterflied in place.  Block p pairs fine parity p with coarse parity
    p: K_p = (Q Hs Q)_pp + U_p Y_p + (U_p Y_p)^H, four N/4 x N_c/4 x N/4
    products.  The bound is the module docstring's.
    """
    Ud, ud, uo = _mirror_factor(U)
    Yd, yd, yo = Ym
    Hd, ho = _mirror_sparse(Hs)
    K = [_hermitian_low_rank(H, Up, Yp) for H, Up, Yp in zip(Hd, Ud, Yd)]
    return K, float(ho + 2.0 * (ud * yo + uo * np.hypot(yd, yo)))


def _form_blocks(Hs, U, Y, Ym):
    """(blocks, dropped) of H = Hs + U Y + (U Y)^H from its factors: the
    four mirror blocks and the bound on what they drop when the factor
    gate passes, else ([H], 0.0), the full matrix (variable k).

    Ym is ``_mirror_factor`` of Y.  U is butterflied in place, and back
    (the butterfly is its own inverse) when the gate fails.
    """
    K, dropped = _mirror_blocks(Hs, U, Ym)
    if _gate(K, dropped) <= MIRROR_TOL:
        return K, dropped
    _butterfly(U)
    return [_hermitian_low_rank(Hs, U, Y)], 0.0


#: The parities of the four mirror blocks in ``_parities`` order; the first
#: grid axis is y and the second x (x runs fastest).
_BLOCK_PARITY = ("x even, y even", "x odd, y even", "x even, y odd", "x odd, y odd")


def _hpd_verdict(blocks):
    """HPD verdict of H from the blocks of ``_form_blocks`` of H.

    Q is orthogonal, so H is HPD exactly when Q H Q = blockdiag(blocks)
    is, that is when every block passes ``cholesky_hpd_test``.  The first
    failing block, in ``_parities`` order, decides, and its reason names
    the block and its row.  The one block [H] of variable k is H's own
    verdict.
    """
    for p, B in enumerate(blocks):
        verdict = cholesky_hpd_test(B)
        if not verdict:
            where = f" of mirror block {p} ({_BLOCK_PARITY[p]})" if len(blocks) > 1 else ""
            return Verdict(False, verdict.reason + where)
    return verdict


def _swap_basis(s):
    """The swap x <-> y on an s x s grid (flat index a s + b) as index maps
    of its symmetric and its antisymmetric orthonormal basis.

    The symmetric basis is e_aa and (e_ab + e_ba)/sqrt(2), the
    antisymmetric one (e_ab - e_ba)/sqrt(2), a < b, each in
    ``np.triu_indices`` order.  Per basis, per vector u: r_u = a s + b,
    r'_u = b s + a and the scale g_u of ``_swap_split`` (sqrt(1/2) at e_aa,
    else 1); per flat grid index: the vector that holds it and its
    coefficient there (sqrt(1/2), 1 at e_aa, -sqrt(1/2) at e_ba and 0 on
    the diagonal of the antisymmetric basis).
    """
    a, b = np.divmod(np.arange(s * s), s)
    maps = []
    for k, coef in ((0, np.where(a == b, 1.0, np.sqrt(0.5))),
                    (1, np.sign(b - a) * np.sqrt(0.5))):
        iu = np.triu_indices(s, k)
        r, rs = iu[0] * s + iu[1], iu[1] * s + iu[0]
        vector = np.zeros((s, s), dtype=np.intp)
        vector[iu] = vector.T[iu] = np.arange(r.size)
        maps.append((r, rs, np.where(r == rs, np.sqrt(0.5), 1.0), vector.ravel(), coef))
    return maps


def _swap_split(blocks, dropped):
    """The five swap blocks of four mirror blocks when the swap gate
    passes, else the blocks as given.

    A constant-k form also commutes with the swap Pi: x <-> y, which maps
    the mirror basis onto itself: blocks 0 and 3 (even-even, odd-odd) onto
    themselves and block 1 (y even, x odd) onto block 2.  So block 2 is
    block 1 permuted, and blocks 0 and 3 split into their halves in the
    bases of ``_swap_basis``: [sym K_0, anti K_0, K_1, sym K_3, anti K_3],
    153/136/272/136/120 at n = 33.  Gathers from the swap-even part
    K_e = (K + Pi K Pi)/2 give the halves exactly:
    sym[u, v] = g_u g_v (K_e[r_u, r_v] + K_e[r_u, r'_v]) and
    anti[u, v] = K_e[r_u, r_v] - K_e[r_u, r'_v].
    They drop the swap-odd parts K - K_e of blocks 0 and 3 and
    K_2 - Pi K_1 Pi, measured here; the gate adds them to ``dropped``, the
    bound on what the mirror blocks dropped.  One block (variable k) and
    a 3 x 3 grid, whose 1 x 1 odd-odd block has no antisymmetric half,
    are returned as given.
    """
    if len(blocks) != 4 or blocks[3].shape[0] < 4:
        return blocks
    K0, K1, K2, K3 = blocks
    ne, no = math.isqrt(K0.shape[0]), math.isqrt(K3.shape[0])
    halves, sq = [], _sq(K2 - K1.reshape(ne, no, ne, no).transpose(1, 0, 3, 2).reshape(K2.shape))
    for K, s in ((K0, ne), (K3, no)):
        K4 = K.reshape(s, s, s, s)
        Ke = K4 - K4.transpose(1, 0, 3, 2)  # twice the swap-odd part
        sq += 0.25 * _sq(Ke)
        Ke *= -0.5
        Ke += K4
        Ke = Ke.reshape(-1)
        at = lambda rows, cols: Ke.take(rows[:, None] * (s * s) + cols)  # Ke[ix_(rows, cols)]
        (r, rs, g, _, _), (ra, ras, _, _, _) = _swap_basis(s)
        halves += [(at(r, r) + at(r, rs)) * np.outer(g, g), at(ra, ra) - at(ra, ras)]
    if _gate(blocks, dropped + np.sqrt(sq)) > MIRROR_TOL:
        return blocks
    return [halves[0], halves[1], K1, halves[2], halves[3]]


def _gram_norm2(blocks, dropped):
    """Exact 2-norm of any X with X^H X = H, from ``_form_blocks`` of H:
    the largest lambda_max over ``_swap_split`` of the blocks (block 2
    has block 1's spectrum)."""
    return max(norm2_from_gram(B) for B in _swap_split(blocks, dropped))


def _norm_T0(blocks, dropped):
    """||T0||_2 = sqrt(lambda_max(I - Gamma)) from ``_form_blocks`` of
    Gamma, overwriting the blocks; I - Gamma drops what Gamma drops."""
    for B in blocks:
        B *= -1.0
        B[np.diag_indices_from(B)] += 1.0
    return _gram_norm2(blocks, dropped)


def _inverse_columns(inv, p, J):
    """Columns J of the inverse of mirror block p from the inverses of
    ``_swap_split``'s blocks: four parity blocks, or five swap blocks.

    Block 2's inverse is block 1's permuted by the swap.  Block 0's (and
    block 3's) is W_s S^-1 W_s^T + W_a A^-1 W_a^T for its halves S and A,
    W the orthonormal bases of ``_swap_basis``: entry (i, j) is
    w_i w_j S^-1[v_i, v_j] + e_i e_j A^-1[u_i, u_j], v, w and u, e the
    vectors holding i and their coefficients.
    """
    if len(inv) == 4:
        return inv[p][:, J]
    sides = [math.isqrt(inv[i].shape[0] + inv[i + 1].shape[0]) for i in (0, 3)]
    if p in (1, 2):
        K1 = inv[2]
        if p == 1:
            return K1[:, J]
        ne, no = sides
        t = np.arange(K1.shape[0])
        swap = (t % ne) * no + t // ne  # block 2's (a, b) is block 1's (b, a)
        return K1[np.ix_(swap, swap[J])]
    S, A = inv[:2] if p == 0 else inv[3:]
    (*_, v, w), (*_, u, e) = _swap_basis(sides[p // 3])
    return S[np.ix_(v, v[J])] * np.outer(w, w[J]) + A[np.ix_(u, u[J])] * np.outer(e, e[J])


def _mirror_norm1(inv):
    """||H||_1 of H = Q blockdiag(K_p^-1) Q on an odd n x n grid, from the
    inverses of ``_swap_split``'s blocks of the K_p.

    H commutes with both reflections, so a column and its mirror images
    have the same absolute sum, and the (m+1)^2 columns (x, y), x, y <= m,
    suffice.  Along an axis, Q1 e_x is s e_x + s e_{n-1-x} (e_m at the
    centre): it reaches index x of the even half and index m-1-x of the odd
    half.  So those columns are Q Z, Z gathered from the blocks' columns
    (``_inverse_columns``) with the coefficients c(x) c(y), and only the
    two row passes of the butterfly run.  With the five swap blocks H
    commutes with the swap too, column (y, x) is column (x, y) permuted,
    and the (m+1)(m+2)/2 columns with y <= x suffice: N x (m+1)(m+2)/2
    entries.
    """
    swap = len(inv) == 5
    ne = math.isqrt(inv[0].shape[0] + (inv[1].shape[0] if swap else 0))
    n, m = 2 * ne - 1, ne - 1
    y, x = np.triu_indices(ne) if swap else np.divmod(np.arange(ne * ne), ne)
    s = np.sqrt(0.5)
    # per parity of an axis: the block index each column coordinate c
    # reaches and its coefficient, 0 where it reaches none (the centre)
    reach = (lambda c: (c, np.where(c < m, s, 1.0)),
             lambda c: (m - 1 - c, np.where(c < m, s, 0.0)))
    Z = np.zeros((n, n, y.size), dtype=complex)
    for p, (a, b) in enumerate(_parities(n)):
        (iy, cy), (ix, cx) = reach[a.start > 0](y), reach[b.start > 0](x)
        c = cy * cx
        k = c != 0.0
        cols = _inverse_columns(inv, p, iy[k] * (b.stop - b.start) + ix[k]) * c[k]
        Z[a, b][..., k] = cols.reshape(a.stop - a.start, b.stop - b.start, -1)
    _reflect(Z, (0, 1))
    return norm1(Z.reshape(n * n, -1))


def _ratio(blocks, dropped):
    """||Gt||_1 / kappa_1(Gt) = 1 / ||Gt^-1||_1 from ``_form_blocks`` of
    Gamma-tilde: Gt^-1 = Q blockdiag(K_p^-1) Q, each K_p^-1 from the
    inverses of ``_swap_split``'s blocks.  NaN when Gt is singular
    (rank <= 2 N_c at nu = 0).  Empties ``blocks`` once they are
    inverted, so that they are freed before the 1-norm's gather."""
    try:
        inv = [inverse(B, "Gamma-tilde") for B in _swap_split(blocks, dropped)]
    except np.linalg.LinAlgError:
        return np.nan
    finally:
        blocks.clear()
    return 1.0 / (norm1(inv[0]) if len(inv) == 1 else _mirror_norm1(inv))


def assemble_D(cfg):
    """Dense D = M_nu + CC - M_nu A CC with T0 = I - D A (the only place D is formed)."""
    Y = _coarse_correction(cfg, sp.identity(cfg.A.shape[0], format="csr"))
    CC = cfg.pair.P @ Y
    M = smoother_correction(cfg.A, cfg.omega, cfg.nu)
    return np.asarray(M + CC) - M @ (cfg.A @ CC)


def certify(cfg):
    """Full certificate for one two-grid configuration.

    The theory-consistency implications (Gamma-tilde HPD => Gamma HPD,
    and the HPD => norm-bound assertions) are checked; violations are
    reportable findings recorded in ``consistency_warnings``, which
    ``to_text`` prints as WARNING lines, never silent and never fatal.
    """
    Y = _coarse_correction(cfg, cfg.A)
    Ym = _mirror_factor(Y.copy())
    MA = _smoothed(cfg)
    P = cfg.pair.P
    SP = P - MA @ P
    # Everything but the quick screen comes from the mirror blocks of the
    # factors, as in table_entry and omega_sweep.  DA = I - T0 = MA + S P Y,
    # so (DA)^H DA = DA + DA^H - Gamma is the form of the sparse
    # MA + MA^H - G_s and the thin S P - U.  Gamma's residual and verdict
    # are taken before _norm_T0 overwrites its blocks
    Gs, U = _gamma_factors(MA, SP, Y)
    sigma_DA = _gram_norm2(*_form_blocks(MA + MA.conj().T - Gs, SP.toarray() - U, Y, Ym))
    G, dropped = _form_blocks(Gs, U, Y, Ym)
    herm = _hermiticity_residual(*G)
    hpd_g = _hpd_verdict(G)
    norm_T0 = _norm_T0(G, dropped)
    lam_min = 1.0 - norm_T0**2  # lambda_max(T0^H T0) = 1 - lambda_min(Gamma)
    del Gs, U, G
    Gt, dropped = _form_blocks(*_gamma_factors(MA, P, Y), Y, Ym)
    hpd_gt = _hpd_verdict(Gt)
    ratio = _ratio(Gt, dropped)
    bound = float(np.sqrt(abs(1.0 - ratio)))
    del Gt
    screen = quick_pd_screen(_gamma_form(MA, P, Y))  # the one N x N matrix of constant k

    warnings = []
    if hpd_gt.ok and not hpd_g.ok:
        warnings.append(
            "Gamma-tilde is HPD but Gamma is not: the sufficiency implication "
            "fails on this configuration (reportable finding)"
        )
    if hpd_g.ok:
        if not norm_T0 < 1.0:
            warnings.append(
                f"Gamma HPD but ||T0|| = {norm_T0:.6g} >= 1 (theory violation)"
            )
        if not sigma_DA < 2.0 + 1e-8:
            warnings.append(f"sigma_max(DA) = {sigma_DA:.6g} >= 2 (theory violation)")

    return CertificateReport(
        hermiticity_residual_gamma=float(herm),
        hpd_gamma=hpd_g,
        hpd_gamma_tilde=hpd_gt,
        quick_screen=screen,
        norm_T0=float(norm_T0),
        sigma_max_DA=float(sigma_DA),
        lambda_min_gamma=float(lam_min),
        bound_value=bound,
        ratio_table_value=float(ratio),
        consistency_warnings=warnings,
    )


def table_entry(cfg):
    """(Gamma-tilde HPD verdict, exact ||T0||_2) without the full report.

    Computes only what the published verdict table shows; skips the
    lambda_min, sigma_max(DA) and optimality-ratio machinery so large
    (k = 30) configurations stay tractable.  Gamma-tilde and Gamma are
    Gamma forms with W = P and W = S P, each as ``_form_blocks``: the four
    mirror blocks when the factor gate passes, else the full form.  The
    verdict is ``_hpd_verdict`` of Gamma-tilde's, and ||T0||_2 the root of
    lambda_max(I - Gamma) from Gamma's, as in ``certify``; no N x N
    matrix is formed for constant k.
    """
    Y = _coarse_correction(cfg, cfg.A)
    Ym = _mirror_factor(Y.copy())
    MA = _smoothed(cfg)
    P = cfg.pair.P
    SP = P - MA @ P
    hpd = _hpd_verdict(_form_blocks(*_gamma_factors(MA, P, Y), Y, Ym)[0])
    G = _form_blocks(*_gamma_factors(MA, SP, Y), Y, Ym)
    del Y, Ym  # before the swap split's temporaries
    return hpd, _norm_T0(*G)


def _sweep_forms(cfg, degree):
    """The fixed Hermitian forms C_c of Gamma-tilde(omega, nu) =
    sum_c coef_c C_c, nu <= degree, but C_0, one at a time in
    ``_sweep_coefficients`` order: (Hs, U) with C_c = Hs + U Y + (U Y)^H,
    U None for the sparse C_ij."""
    P = cfg.pair.P
    L = (sp.diags(reciprocal_diagonal(cfg.A)) @ cfg.A).tocsr()
    powers = []
    for _ in range(degree):
        powers.append(L @ powers[-1] if powers else L)
        Lh = powers[-1].conj().T.tocsr()
        yield powers[-1] + Lh, -(Lh @ P).toarray()
    for i, Li in enumerate(powers):
        for Lj in powers[i:]:
            G = Li.conj().T @ Lj
            yield -(G if Lj is Li else G + G.conj().T), None


def _sweep_coefficients(omega, nu, degree):
    """[1, a_1 .. a_degree, a_i a_j for i <= j]: M_nu A = sum_i a_i L^i,
    a_i = -binom(nu, i) (-1/omega)^i (0 for i > nu)."""
    a = [-math.comb(nu, i) * (-1.0 / omega) ** i for i in range(1, degree + 1)]
    return [1.0, *a, *(a[i] * a[j] for i in range(degree) for j in range(i, degree))]


def _sweep_terms(cfg, degree, split):
    """[(blocks, bound)] for the forms C_c of Gamma-tilde(omega, nu) (C_0,
    the Gamma form of X = P Y at nu = 0, then those of ``_sweep_forms``):
    each form's four mirror blocks and the bound on what they drop when
    ``split``, else ([C_c], 0.0).  The blocks of the C_ij stay sparse
    (COO), the others are dense; no N x N_c factor outlives its blocks."""
    Y = _coarse_correction(cfg, cfg.A)
    N = cfg.A.shape[0]
    C0 = _gamma_factors(sp.csr_matrix((N, N), dtype=complex), cfg.pair.P, Y)  # MA = 0
    if split:
        Y = _mirror_factor(Y)  # in place: the mirror blocks need only these
        form = lambda Hs, U: _mirror_sparse(Hs) if U is None else _mirror_blocks(Hs, U, Y)
    else:
        form = lambda Hs, U: ([_coo(Hs) if U is None else _hermitian_low_rank(Hs, U, Y)], 0.0)
    terms = [form(*C0)]
    del C0
    return terms + [form(Hs, U) for Hs, U in _sweep_forms(cfg, degree)]


def _add_terms(terms, coefs):
    """(sum_c coef_c blocks_c, block by block, and sum_c |coef_c| bound_c)
    over ``_sweep_terms``; the first term, C_0, is dense with coefficient 1,
    and no sparse block holds duplicate entries."""
    (first, dropped), *rest = terms
    K = [B.copy() for B in first]
    for (blocks, bound), c in zip(rest, coefs[1:]):
        if c == 0.0:
            continue
        dropped += abs(c) * bound
        for Kp, B in zip(K, blocks):
            if sp.issparse(B):
                Kp[B.row, B.col] += c * B.data
            else:
                Kp += c * B
    return K, dropped


def _check_sweep_cell(first, cfg, omega, nu):
    """ValueError unless cfg has the A, coarse_build_op and pair of first,
    compared by value."""
    for name in ("A", "coarse_build_op", "pair"):
        a, b = getattr(first, name), getattr(cfg, name)
        if a is b:
            continue
        pairs = zip((a.P, a.R), (b.P, b.R)) if name == "pair" else [(a, b)]
        if not all(x.shape == y.shape and (x != y).nnz == 0 for x, y in pairs):
            raise ValueError(
                f"omega_sweep: make_cfg({omega!r}, {nu!r}) has another {name} than the "
                "first cell; every cell must share A, coarse_build_op and pair")


def omega_sweep(make_cfg, omegas, nus):
    """Grid of ||Gamma-tilde||_1 / kappa_1(Gamma-tilde) over (omega, nu).

    ``make_cfg(omega, nu)`` must return a TwoGridConfig with the A,
    coarse_build_op and pair of ``make_cfg(omegas[0], nus[0])``, equal by
    value; otherwise ValueError names the first cell that differs.  Each
    cell's Gamma-tilde is sum_c coef_c(omega, nu) C_c over fixed Hermitian
    C_c (module docstring), whose four mirror blocks and factor bounds
    are built once per sweep.  A cell adds up the blocks, takes them when
    sum_c |coef_c| bound_c <= MIRROR_TOL ||K||_F (else the full C_c, built
    once for the first cell that needs them: variable k), and hands them
    to ``_ratio``.  nu = 0 rows are flagged; a singular Gamma-tilde reads
    0.0, flagged.
    """
    grid = [(omega, nu) for omega in omegas for nu in nus]
    cfgs = [make_cfg(omega, nu) for omega, nu in grid]
    for (omega, nu), cfg in zip(grid, cfgs):
        _check_sweep_cell(cfgs[0], cfg, omega, nu)
    degree = max(cfg.nu for cfg in cfgs)
    terms, full = _sweep_terms(cfgs[0], degree, split=True), None
    rows = []
    for (omega, nu), cfg in zip(grid, cfgs):
        coefs = _sweep_coefficients(cfg.omega, cfg.nu, degree)
        K, dropped = _add_terms(terms, coefs)
        if _gate(K, dropped) > MIRROR_TOL:
            full = full or _sweep_terms(cfgs[0], degree, split=False)
            K, dropped = _add_terms(full, coefs)
        val = _ratio(K, dropped)  # which empties K
        flag = "degenerate-no-smoothing" if nu == 0 else ""
        if np.isnan(val):
            val, flag = 0.0, flag or "singular-gamma-tilde"
        rows.append({"omega": omega, "nu": nu, "ratio": val, "flag": flag})
    return rows


# --- rows of the published certificate tables --------------------------------

def _table_inputs(k):
    """(n, A, C) of one table row: MP 2-A at k*h <= 0.625, beta2 = 0.7 CSL."""
    spec = ProblemSpec(kind="constant-k", k=float(k),
                       nodes_per_dim=nodes_for_wavenumber(k),
                       shift=ShiftSpec(kind="fixed", beta2=0.7))
    fieldvals = build_wavenumber_field(spec)
    return (spec.nodes_per_dim, assemble_helmholtz(spec, fieldvals, shift_on=False),
            assemble_helmholtz(spec, fieldvals, shift_on=True))


def conv1_row(k, omega):
    """One row of the verdict table, nu = 1.

    Returns {(scheme, coarsen): (Gamma-tilde HPD, ||T0||_2)} with scheme in
    (linear, bezier) and coarsen in (original, csl), in that order.
    """
    n, A, C = _table_inputs(k)
    row = {}
    for scheme in ("linear", "bezier"):
        pair = build_transfer_2d(n, scheme)
        for coarsen, B in (("original", A), ("csl", C)):
            hpd, t0 = table_entry(TwoGridConfig(A=A, coarse_build_op=B, pair=pair,
                                                omega=omega, nu=1))
            row[(scheme, coarsen)] = (hpd.ok, t0)
    return row


def opt1_row(k):
    """One row of the optimality table, Bezier transfer coarsened on the CSL.

    Returns {(omega, nu): ||Gamma-tilde||_1 / kappa_1(Gamma-tilde)} over
    ``presets.OPT1_OMEGAS`` x ``presets.OPT1_NUS``; a cell the sweep flags
    reads NaN, never a ratio.
    """
    n, A, C = _table_inputs(k)
    pair = build_transfer_2d(n, "bezier")
    cells = omega_sweep(lambda omega, nu: TwoGridConfig(A=A, coarse_build_op=C,
                                                        pair=pair, omega=omega, nu=nu),
                        presets.OPT1_OMEGAS, presets.OPT1_NUS)
    return {(c["omega"], c["nu"]): np.nan if c["flag"] else c["ratio"] for c in cells}
