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
its two-grid operator commutes with the eight symmetries of the square:
the reflections x -> 1-x and y -> 1-y and the swap x <-> y, the dihedral
group D4 (Faessler & Stiefel, Group Theoretical Methods and Their
Applications, Birkhauser 1992; Bossavit, CMAME 56, 1986).  They commute
with A, the CSL, M_nu and P = P1 (x) P1 of both transfer schemes, fine
node 2i being coarse node i on either parity of n_c = (n+1)/2.  The D4
basis V of an n x n grid (``_mirror_basis``) is orthogonal and comes in
two steps of the one butterfly (``_pair``), which maps a pair (x, y) to
(x + y, x - y)/sqrt(2):

* along each axis, on the mirror pairs i < j = n-1-i (``_reflect``; the
  centre of an odd side is even).  The grid splits into four parity
  blocks ee, eo, oe and oo, in (y, x) order;
* on the swap pairs (a, b), (b, a), a < b, of the ee and of the oo block
  (``_swap_halves``), which split into their swap-symmetric and
  swap-antisymmetric halves ee+, ee-, oo+ and oo-.  The swap maps eo onto
  oe, whose row (a, b) is taken as the swap image of eo's row (a, b).

A form that commutes with D4 is block diagonal in V, with its oe block
equal to its eo block.  So it has five distinct blocks, ee+/ee-/oo+/oo-/eo
(153/136/136/120/272 at n = 33; 3/1/1/0/2 on a 3 x 3 grid), with eo
counted twice.  lambda_max is the largest block maximum, the form is HPD
exactly when every block is, and its inverse is V^T blockdiag(K_b^-1) V.

The blocks are built from the factors, and no N x N matrix is formed.
The butterflied factors Ub = V_f U V_c^T and Yb = V_c Y V_f^T pair each
fine block with the coarse block of the same label, and so
``_mirror_blocks`` forms the five blocks

    K_b = (V G_s V^T)_bb + U_b Y_b + (U_b Y_b)^H,

five thin products (8.1 M complex multiply-adds at n = 33 against
342.7 M for the full form).  Split Ub = U_d + U_o into the kept block
diagonal, whose oe block is taken as the eo block, and the rest, and
Yb = Y_d + Y_o likewise.  The part of V (G_s + F + F^H) V^T the blocks
drop is then

    E = G_o + Z + Z^H,  Z = U_d Y_o + U_o Yb,

G_o the rest of V G_s V^T.  Z holds U_o Y_o, whose products land inside
the blocks too, not only off them: U_d Y_d alone is what K keeps.  Hence

    ||E||_F <= ||G_o||_F + 2 (||U_d||_F ||Y_o||_F + ||U_o||_F ||Yb||_F),

and ||Yb||_F <= ||Y_d||_F + ||Y_o||_F.  The rest of a factor is its 12 off parity blocks, the mixed swap parts of
its ee and oo blocks and its oe block minus its eo block, each summed on
its own (a total minus the kept blocks cancels to about 1e-8 on
rounding-level parts).  The one gate (``_gate``) takes the blocks when
this bound is at most MIRROR_TOL = 1e-13 times ||K||_F, eo counted twice;
by Weyl's inequality no eigenvalue of the kept matrix is then more than
that from the form's.  The table rows read at most 7.5e-15 (k = 5),
1.5e-14 (k = 10), 3.3e-14 (k = 20) and 6.2e-14 (k = 30, Bezier coarsened
on A); a smooth variable-k medium reads about 1.6 and takes the one full
block, unchanged.

``certify``, ``table_entry`` and ``omega_sweep`` use the blocks: Y is
butterflied once per configuration or sweep, ||T0||_2 is the root of the
largest lambda_max(I - K_b), and sigma_max(DA) that of the largest
lambda_max of the (DA)^H DA blocks.  The Cholesky verdicts of Gamma and
Gamma-tilde (``_hpd_verdict``) factor each block once, and a failing one
names the D4 block and its row, not a node.  Gamma-tilde's verdict hands
its factors on to the optimality ratio ||Gamma-tilde||_1 / kappa_1 =
1 / ||Gamma-tilde^-1||_1 (``_ratio``: ``zpotri`` on the factor of an HPD
block, LU otherwise).  The 1-norm is not orthogonally invariant, but
Gamma-tilde^-1 commutes with D4, so the columns of one eighth of the
square give it (``_mirror_norm1``).  Gamma's Hermiticity residual is that
of the whole blockdiag, eo counted twice.  Only the quick screen, whose
conditions test entries in the node basis, forms the full N x N
Gamma-tilde.  For variable k every step takes the one full form instead,
and a verdict reports its node's pivot index.

``omega_sweep`` forms no Gamma form per cell.  With L = Lambda_A^-1 A and
E = L - I, M_nu A = I - (I - L/omega)^nu = sum_j a_j E^j, the a_j of
``_sweep_coefficients``, and so

    Gamma-tilde(omega, nu) = C_0 + sum_j a_j C_j + sum_{i<=j} a_i a_j C_ij

over fixed Hermitian forms, j = 0 .. nu_max and E^0 = I: C_0 = U_0 Y +
(U_0 Y)^H with U_0 = P - 1/2 ((P^H P) Y)^H, C_j = E^j + E^jH - (E^jH P Y +
(E^jH P Y)^H) and the sparse C_ij = -(E^iH E^j + E^jH E^i), -E^iH E^i for
i = j.  E's spectrum lies near [-1, 1], and for omega >= 1 the a_j sum to
at most 2 in absolute value, so a cell's sum does not cancel (in powers of
L, whose spectrum reaches 2, it loses a digit at nu >= 3).  The five
D4 blocks of each C_c and its factor bound b_c are built once per sweep
(``_sweep_terms``), the blocks of the C_ij sparse.  A cell adds up the
blocks; its dropped part is at most sum_c |coef_c| b_c, and the cell
takes the blocks when that is at most MIRROR_TOL ||K||_F.  Otherwise
(variable k) the sweep refuses the configuration.
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
    _hpd_cholesky,
    add_adjoint,
    check_dense_limit,
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
    """Hs + W Y + (W Y)^H for sparse Hermitian Hs (None: no sparse part),
    dense or sparse W and dense Y."""
    X = add_adjoint(W @ Y)  # the one product of the factors
    if Hs is not None:
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
#: blocks, at which the D4 gate (``_gate``) takes the blocks for the whole
#: form.  Dropping E moves no eigenvalue by more than ||E||_2 <= ||E||_F
#: (Weyl's inequality), so below the gate the block maximum is within
#: MIRROR_TOL times the kept norm of lambda_max.  The inverse moves by about
#: kappa_2(H) ||E||_2 / ||H||_2 relative, the order of a full inversion's
#: own rounding error while E is rounding.  Constant-k forms read about
#: 1e-14 (rounding), variable-k ones 0.05 and more.
MIRROR_TOL = 1e-13


def _whole(blocks):
    """The blocks of the whole form: the five D4 blocks and the eo block
    once more, for the oe block it stands for; one block (variable k) as
    given."""
    return blocks + blocks[4:]


def _gate(blocks, dropped):
    """The ratio the D4 gate compares with MIRROR_TOL: ``dropped``, a bound
    on ||E||_F of what the blocks drop from a form, over the kept
    ||blockdiag(_whole(blocks))||_F."""
    kept = np.sqrt(sum(_sq(B) for B in _whole(blocks)))
    return float(dropped / kept) if kept > 0.0 else np.inf


def _grid_side(N):
    """n with n^2 = N for an n >= 2, else None."""
    n = int(round(np.sqrt(N)))
    return n if n * n == N and n >= 2 else None


def _parities(n):
    """The four (y, x) parity slice pairs of the n x n mirror basis, ee,
    eo, oe, oo: the first n - n//2 indices of an axis are even, the other
    n//2 odd."""
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


def _pair(lo, hi):
    """lo, hi <- (lo + hi)/sqrt(2), (lo - hi)/sqrt(2) in place: the one
    butterfly of the D4 basis, for the mirror pairs and the swap pairs.

    The difference comes first, so a (near-)symmetric pair leaves its odd
    part accurate to its own size, not to the size of the sum.
    """
    s = np.sqrt(0.5)
    np.subtract(lo, hi, out=hi)
    hi *= s
    lo *= 2.0 * s
    lo -= hi


def _reflect(H4, axes):
    """Apply Q1 along each of the given axes of H4, in place.

    Q1 maps x to (x_i + x_j)/sqrt(2) at i and (x_i - x_j)/sqrt(2) at j for
    each mirror pair i < j = n-1-i, and keeps the centre x_m of an odd n
    (an even n has none).
    """
    for axis in axes:
        V = np.moveaxis(H4, axis, 0)
        h = V.shape[0] // 2
        _pair(V[:h], V[::-1][:h])  # V[::-1][i] is node n-1-i


def _sq(B):
    """||B||_F^2."""
    return np.vdot(B, B).real


@cache
def _swap_pairs(q):
    """Flat indices a q + b of a q x q array under the swap (a, b) <-> (b, a),
    read-only: (the positions a <= b, row-major, which hold the
    swap-symmetric half after ``_pair`` on the pairs; the positions (a, b)
    and (b, a) of the pairs a < b in that order, the latter holding the
    antisymmetric half)."""
    a, b = np.triu_indices(q)
    pair = a < b
    maps = a * q + b, (a * q + b)[pair], (b * q + a)[pair]
    for m in maps:
        m.flags.writeable = False
    return maps


def _swap_halves(B4):
    """([swap-symmetric half, swap-antisymmetric half], ||the mixed
    parts||_F^2) of the ee or the oo block B4, (q, q, q_c, q_c), of a
    butterflied factor.

    ``_pair`` runs on a copy, on the swap pairs of its rows and then of its
    columns; each half pairs the row half with the column half of the same
    symmetry, and the mixed parts are the two other pairings.
    """
    q, qc = B4.shape[0], B4.shape[2]
    B = np.array(B4).reshape(q * q, qc * qc)
    (sym, lo, hi), (csym, clo, chi) = _swap_pairs(q), _swap_pairs(qc)
    for M, i, j in ((B, lo, hi), (B.T, clo, chi)):
        x, y = M[i], M[j]
        _pair(x, y)
        M[i], M[j] = x, y
    return ([B[np.ix_(sym, csym)], B[np.ix_(hi, chi)]],
            _sq(B[np.ix_(sym, chi)]) + _sq(B[np.ix_(hi, csym)]))


def _mirror_factor(X):
    """Butterfly the dense thin factor X in place and cut it into D4 blocks.

    Returns (the five blocks that pair each fine label with the coarse
    label of the same name, ||X_d||_F of the kept block diagonal with eo
    counted twice, ||X_o||_F of the rest).  The rest is the 12 off parity
    blocks, the mixed swap parts of ee and oo and the oe block minus the
    eo block, each summed on its own.
    """
    X4, rows, cols = _butterfly(X)
    off = sum(_sq(X4[r + c]) for a, r in enumerate(rows)
              for b, c in enumerate(cols) if a != b)
    blocks = []
    for p in (0, 3):  # ee and oo
        halves, mixed = _swap_halves(X4[rows[p] + cols[p]])
        blocks += halves
        off += mixed
    eo = X4[rows[1] + cols[1]]
    off += _sq(X4[rows[2] + cols[2]].transpose(1, 0, 3, 2) - eo)  # oe swapped is eo
    blocks.append(eo.reshape(eo.shape[0] * eo.shape[1], -1))
    return blocks, np.sqrt(sum(_sq(B) for B in _whole(blocks))), np.sqrt(off)


@cache
def _mirror_basis(n):
    """(V, block sizes, block starts, block label of each row) of the sparse
    D4 basis on an n x n grid, built once per n and read-only.

    The rows of V come in block order, ee+, ee-, oo+, oo-, eo, oe (labels
    0 to 5), each block laid out as ``_mirror_factor`` lays it out; row
    (a, b) of oe is row (a, b) of eo swapped.  They are rows of Q = Q1 (x) Q1
    of ``_butterfly`` (Q1 is ``_reflect`` applied to the identity), or the
    sum or the difference over sqrt(2) of a swap pair of them, whose
    supports are disjoint.
    """
    Q1 = np.eye(n)
    _reflect(Q1, (0,))
    Q = sp.kron(Q1, Q1, format="csr")
    h, s = n - n // 2, np.sqrt(0.5)
    grid = np.arange(n * n).reshape(n, n)
    blocks = []
    for quad in (grid[:h, :h], grid[h:, h:]):
        sym, _, hi = _swap_pairs(quad.shape[0])
        own, swap = quad.ravel(), quad.T.ravel()
        # the diagonal a = b is its own swap image: (Q_aa + Q_aa)/2
        blocks += [sp.diags(np.where(own[sym] == swap[sym], 0.5, s)) @ (Q[own[sym]] + Q[swap[sym]]),
                   s * (Q[swap[hi]] - Q[own[hi]])]
    blocks += [Q[grid[:h, h:].ravel()], Q[grid[h:, :h].T.ravel()]]  # eo, and oe as its swap
    V = sp.vstack(blocks, format="csr")
    sizes = [B.shape[0] for B in blocks]
    label = np.repeat(np.arange(6), sizes)
    for a in (V.data, V.indices, V.indptr, label):
        a.flags.writeable = False
    return V, tuple(sizes), tuple(np.cumsum([0] + sizes[:-1]).tolist()), label


def _mirror_sparse(Hs):
    """(the five D4 blocks of V Hs V^T, sparse, and ||the part they
    drop||_F: every entry off the six blocks, and the oe block minus the
    eo block) for a sparse Hs on a square grid, V of ``_mirror_basis``.
    The blocks hold no duplicate entries: V Hs V^T is a CSR product."""
    V, sizes, start, label = _mirror_basis(_grid_side(Hs.shape[0]))
    Hb = (V @ Hs @ V.T).tocoo()
    row, col = label[Hb.row], label[Hb.col]
    blocks = []
    for p, size in enumerate(sizes):
        k = (row == p) & (col == p)
        blocks.append(sp.coo_matrix((Hb.data[k], (Hb.row[k] - start[p], Hb.col[k] - start[p])),
                                    shape=(size, size)))
    dropped = _sq(Hb.data[row != col]) + _sq((blocks[5] - blocks[4]).data)
    return blocks[:5], float(np.sqrt(dropped))


def _mirror_blocks(sparse, U, Ym):
    """(the five D4 blocks K_b of H = Hs + U Y + (U Y)^H, bound on ||E||_F
    of the part they drop).

    ``sparse`` is ``_mirror_sparse`` of Hs, None for no sparse part, and
    Ym ``_mirror_factor`` of the N_c x N factor Y; the N x N_c U is
    butterflied in place.  Block b pairs the fine label b with the coarse
    label b: K_b = (V Hs V^T)_bb + U_b Y_b + (U_b Y_b)^H, five thin
    products.  The bound is the module docstring's.
    """
    Ud, ud, uo = _mirror_factor(U)
    Yd, yd, yo = Ym
    Hd, ho = sparse or ([None] * 5, 0.0)
    K = [_hermitian_low_rank(H, Up, Yp) for H, Up, Yp in zip(Hd, Ud, Yd)]
    return K, float(ho + 2.0 * (ud * yo + uo * (yd + yo)))  # ||Yb|| <= yd + yo


def _form_blocks(Hs, U, Y, Ym, sparse=None):
    """The blocks of H = Hs + U Y + (U Y)^H from its factors: the five D4
    blocks when the gate passes, else [H], the full matrix (variable k).

    Ym is ``_mirror_factor`` of Y, and ``sparse`` ``_mirror_sparse`` of Hs
    when the caller holds it already (Gamma and Gamma-tilde share G_s).
    U is butterflied in place, and back (the butterfly is its own
    inverse) when the gate fails.
    """
    K, dropped = _mirror_blocks(sparse or _mirror_sparse(Hs), U, Ym)
    if _gate(K, dropped) <= MIRROR_TOL:
        return K
    _butterfly(U)
    return [_hermitian_low_rank(Hs, U, Y)]


#: The labels of the five D4 blocks in block order: (y, x) parity, and the
#: swap-symmetric (+) or antisymmetric (-) half of ee and oo.
_D4_BLOCKS = ("ee+", "ee-", "oo+", "oo-", "eo")


def _hpd_verdict(blocks):
    """(HPD verdict of H, ``_hpd_cholesky`` of each block) from the blocks
    of ``_form_blocks`` of H.

    V is orthogonal, so H is HPD exactly when V H V^T, block diagonal with
    oe = eo, is: when every block is.  Each block is factored once, and the
    first failing block in block order decides; its reason names the D4
    block and the row.  The one block [H] of variable k is H's own verdict.
    """
    factored = [_hpd_cholesky(B) for B in blocks]
    for label, (verdict, _) in zip(_D4_BLOCKS, factored):
        if not verdict:
            where = f" of D4 block {label}" if len(blocks) > 1 else ""
            return Verdict(False, verdict.reason + where), factored
    return Verdict(True, "HPD"), factored


def _gram_norm2(blocks):
    """Exact 2-norm of any X with X^H X = H, from ``_form_blocks`` of H:
    the largest lambda_max over the blocks (oe has eo's spectrum)."""
    return max(norm2_from_gram(B) for B in blocks)


def _norm_T0(blocks):
    """||T0||_2 = sqrt(lambda_max(I - Gamma)) from ``_form_blocks`` of
    Gamma, overwriting the blocks."""
    for B in blocks:
        B *= -1.0
        B[np.diag_indices_from(B)] += 1.0
    return _gram_norm2(blocks)


@cache
def _eighth(n):
    """The columns J of the D4 basis V (``_mirror_basis``) at the nodes of
    one eighth of the n x n square, (y, x) with y <= x < n - n//2: for
    each of the six blocks in block order, its rows of V[:, J] transposed
    (CSR), built once per n and read-only."""
    V, sizes, start, _ = _mirror_basis(n)
    y, x = np.triu_indices(n - n // 2)
    VJ = V[:, y * n + x]
    parts = [VJ[a:a + m].T.tocsr() for a, m in zip(start, sizes)]
    for part in parts:
        for a in (part.data, part.indices, part.indptr):
            a.flags.writeable = False
    return parts


def _mirror_norm1(inv):
    """||H||_1 of H = V^T blockdiag(_whole(inv)) V on an n x n grid, from the
    inverses of the five D4 blocks.

    H commutes with the eight symmetries of the square, so a column and its
    images have the same absolute sum, and the columns J of one eighth of
    the square (``_eighth``) suffice.  They are V^T Z for
    Z = blockdiag(_whole(inv)) V[:, J], taken block by block: N x
    (m+1)(m+2)/2 entries for n = 2m + 1.
    """
    inv = _whole(inv)
    n = _grid_side(sum(B.shape[0] for B in inv))
    Z = np.vstack([(VJt @ B.T).T for B, VJt in zip(inv, _eighth(n))])
    return norm1(_mirror_basis(n)[0].T @ Z)


def _ratio(blocks, factored):
    """||Gt||_1 / kappa_1(Gt) = 1 / ||Gt^-1||_1 from ``_form_blocks`` of
    Gamma-tilde and the factorizations of its verdict (``_hpd_verdict``):
    Gt^-1 = V^T blockdiag(K_b^-1) V, ``zpotri`` on the factor of an HPD
    block and LU otherwise.  NaN when Gt is singular (rank <= 2 N_c at
    nu = 0).  Empties ``blocks`` once they are inverted, so that they are
    freed before the 1-norm's gather."""
    try:
        inv = [inverse(B, "Gamma-tilde", f) for B, f in zip(blocks, factored)]
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
    # Everything but the quick screen comes from the D4 blocks of the
    # factors, as in table_entry and omega_sweep.  DA = I - T0 = MA + S P Y,
    # so (DA)^H DA = DA + DA^H - Gamma is the form of the sparse
    # MA + MA^H - G_s and the thin S P - U.  Gamma's residual and verdict
    # are taken before _norm_T0 overwrites its blocks, and Gamma-tilde's
    # verdict hands its Cholesky factors on to the ratio.  Gamma and
    # Gamma-tilde share G_s, split once
    Gs, U = _gamma_factors(MA, SP, Y)
    sigma_DA = _gram_norm2(_form_blocks(MA + MA.conj().T - Gs, SP.toarray() - U, Y, Ym))
    split = _mirror_sparse(Gs)
    G = _form_blocks(Gs, U, Y, Ym, split)
    herm = _hermiticity_residual(*_whole(G))
    hpd_g, _ = _hpd_verdict(G)
    norm_T0 = _norm_T0(G)
    lam_min = 1.0 - norm_T0**2  # lambda_max(T0^H T0) = 1 - lambda_min(Gamma)
    del Gs, U, G
    Gt = _form_blocks(*_gamma_factors(MA, P, Y), Y, Ym, split)
    hpd_gt, factored = _hpd_verdict(Gt)
    ratio = _ratio(Gt, factored)
    bound = float(np.sqrt(abs(1.0 - ratio)))
    del Gt, factored
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
    Gamma forms with W = P and W = S P, each as ``_form_blocks``: the five
    D4 blocks when the gate passes, else the full form.  The verdict is
    ``_hpd_verdict`` of Gamma-tilde's, and ||T0||_2 the root of
    lambda_max(I - Gamma) from Gamma's, as in ``certify``; no N x N
    matrix is formed for constant k.
    """
    Y = _coarse_correction(cfg, cfg.A)
    Ym = _mirror_factor(Y.copy())
    MA = _smoothed(cfg)
    P = cfg.pair.P
    SP = P - MA @ P
    Gs, U = _gamma_factors(MA, P, Y)
    split = _mirror_sparse(Gs)  # Gamma-tilde's G_s is Gamma's
    hpd, _ = _hpd_verdict(_form_blocks(Gs, U, Y, Ym, split))
    del U  # before Gamma's U
    G = _form_blocks(*_gamma_factors(MA, SP, Y), Y, Ym, split)
    return hpd, _norm_T0(G)


def _sweep_coefficients(omega, nu, degree):
    """[1, a_0 .. a_degree, a_i a_j for i <= j]: M_nu A = sum_j a_j E^j.

    I - L/omega = (1 - 1/omega) I - E/omega, so (I - L/omega)^nu =
    sum_j b_j E^j with b_j = binom(nu, j) (1 - 1/omega)^(nu-j) (-1/omega)^j,
    whose absolute sum is 1 for omega >= 1.  Then a_j = -b_j for j >= 1
    (0 for j > nu) and a_0 = 1 - b_0, summed as -sum_{i>=1} binom(nu, i)
    (-1/omega)^i: 1 - b_0 would round against b_0, and at nu = 1 this
    sum is 1/omega = a_1 exactly, as M_1 A = L/omega asks.
    """
    a = [-sum(math.comb(nu, i) * (-1.0 / omega) ** i for i in range(1, nu + 1)),
         *(-math.comb(nu, j) * (1.0 - 1.0 / omega) ** (nu - j) * (-1.0 / omega) ** j
           if j <= nu else 0.0 for j in range(1, degree + 1))]
    return [1.0, *a, *(a[i] * a[j] for i in range(degree + 1) for j in range(i, degree + 1))]


def _scaled(term, c):
    """The (blocks, bound) of ``_mirror_sparse`` for c times the form."""
    blocks, bound = term
    return [c * B for B in blocks], abs(c) * bound


def _sweep_terms(cfg, degree):
    """[(blocks, bound)] for the forms C_c of Gamma-tilde(omega, nu),
    nu <= degree, in ``_sweep_coefficients`` order: C_0 (the Gamma form of
    X = P Y at nu = 0), the C_j and the C_ij of the module docstring, each
    as its five D4 blocks and the bound on what they drop.

    The sparse part E^j + E^jH of C_j is split once and, negated, is
    C_0j too (C_00 = -I, half of -(I + I)): exact scalings, so six sparse
    splits serve nu <= 2.  The blocks of the C_ij stay sparse (COO), the
    others are dense; no N x N_c factor outlives its blocks.
    """
    Y = _coarse_correction(cfg, cfg.A)
    P, N = cfg.pair.P, cfg.A.shape[0]
    _, U0 = _gamma_factors(sp.csr_matrix((N, N), dtype=complex), P, Y)  # MA = 0
    Y = _mirror_factor(Y)  # in place: the blocks need only these
    terms = [_mirror_blocks(None, U0, Y)]
    del U0
    I = sp.identity(N, dtype=complex, format="csr")
    E = (sp.diags(reciprocal_diagonal(cfg.A)) @ cfg.A).tocsr() - I
    powers = [I]
    for _ in range(degree):
        powers.append(E @ powers[-1])
    S = [_mirror_sparse(Ej + Ej.conj().T) for Ej in powers]
    terms += [_mirror_blocks(Sj, -(Ej.conj().T @ P).toarray(), Y) for Ej, Sj in zip(powers, S)]
    terms += [_scaled(S[0], -0.5), *(_scaled(Sj, -1.0) for Sj in S[1:])]
    for i, Ei in enumerate(powers[1:], 1):
        for Ej in powers[i:]:
            G = Ei.conj().T @ Ej
            terms.append(_mirror_sparse(-(G if Ej is Ei else G + G.conj().T)))
    return terms


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
    C_c (module docstring), whose five D4 blocks and factor bounds are
    built once per sweep.  A cell adds up the blocks and hands them to
    ``_ratio`` when sum_c |coef_c| bound_c <= MIRROR_TOL ||K||_F; otherwise
    (variable k) ValueError names the gate value.  nu = 0 rows are
    flagged; a singular Gamma-tilde reads 0.0, flagged.
    """
    grid = [(omega, nu) for omega in omegas for nu in nus]
    cfgs = [make_cfg(omega, nu) for omega, nu in grid]
    for (omega, nu), cfg in zip(grid, cfgs):
        _check_sweep_cell(cfgs[0], cfg, omega, nu)
    degree = max(cfg.nu for cfg in cfgs)
    terms = _sweep_terms(cfgs[0], degree)
    rows = []
    for (omega, nu), cfg in zip(grid, cfgs):
        K, dropped = _add_terms(terms, _sweep_coefficients(cfg.omega, cfg.nu, degree))
        gate = _gate(K, dropped)
        if gate > MIRROR_TOL:
            raise ValueError(
                f"omega_sweep: make_cfg({omega!r}, {nu!r}) fails the D4 gate ({gate:.3g} > "
                f"MIRROR_TOL = {MIRROR_TOL:g}); the sweep takes constant-k configurations only")
        val = _ratio(K, _hpd_verdict(K)[1])  # which empties K
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
