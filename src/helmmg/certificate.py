"""Two-grid convergence certificates: D, Gamma, Gamma-tilde, T0 and bounds.

Also builds the rows of the two published certificate tables (conv1_row,
opt1_row), which the CLI and the acceptance suite share.

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

    Y = A_c^{-1} R A   (N_c x N, from LU solves),
    MA = M_nu A        (sparse),     S = I - MA,

with D-tilde A = MA + P Y and D A = I - T0 = MA + S P Y.  Both certificate
matrices are one Gamma form of X = MA + W Y, in sparse-plus-rank-N_c form:

    X^H + X - X^H X = G_s + F + F^H,  G_s = MA^H + MA - MA^H MA,
                                      F = U Y,
                                      U = (I - MA^H) W - 1/2 Y^H W^H W;

W = P gives Gamma-tilde, W = S P gives Gamma, and T0^H T0 = I - Gamma.
A full N x N form costs one N x N_c x N product, and D itself is formed
only in ``assemble_D``.  The Gram matrix (DA)^H DA = DA + DA^H - Gamma is
one more such form, of the sparse MA + MA^H - G_s and the thin S P - U.
Reported 2-norms are exact (LAPACK eigenvalues of these Gram matrices),
and lambda_min(Gamma) = 1 - lambda_max(T0^H T0) comes from the same one
eigenvalue as ||T0||_2.

MP 2-A has constant k and the same Sommerfeld rows on all four sides, so
its two-grid operator commutes with the eight symmetries of the square:
the reflections x -> 1-x and y -> 1-y and the swap x <-> y, the dihedral
group D4 (Faessler & Stiefel, Group Theoretical Methods and Their
Applications, Birkhauser 1992; Bossavit, CMAME 56, 1986).  They commute
with A, the CSL, M_nu and P = P1 (x) P1 of both transfer schemes, fine
node 2i being coarse node i on either parity of n_c = (n+1)/2 (an even
side has no centre node and splits the same way).  The D4
basis V of an n x n grid (``_mirror_basis``) is orthogonal and comes in
two steps, each mapping a pair of nodes (x, y) to (x + y, x - y)/sqrt(2):

* along each axis, on the mirror pairs i < j = n-1-i (the centre of an odd
  side is even).  The grid splits into four parity blocks ee, eo, oe and
  oo, in (y, x) order;
* on the swap pairs (a, b), (b, a), a < b, of the ee and of the oo block,
  which split into their swap-symmetric and swap-antisymmetric halves
  ee+, ee-, oo+ and oo-.  The swap maps eo onto oe, whose row (a, b) is
  taken as the swap image of eo's row (a, b).

An operator X from one grid to another that commutes with D4 is block
diagonal in the bases of its rows and columns, V_r X V_c^T, with its oe
block equal to its eo block.  So it has five distinct blocks,
ee+/ee-/oo+/oo-/eo (153/136/136/120/272 at n = 33; 3/1/1/0/2 on a 3 x 3
grid), with eo counted twice.  For a square form lambda_max is the largest
block maximum, the form is HPD exactly when every block is, and its
inverse is V^T blockdiag(K_b^-1) V.

The blocks are taken only where they are exact.  The symmetry check
(``_d4_invariant``) compares A, the coarse-build operator B, P and R with
their images under the x-reflection and the swap, entry for entry and with
no tolerance.  These two generate D4 (the y-reflection is the swap, the
x-reflection and the swap again), so a configuration that passes has every
operator built from its inputs commute with D4 in exact arithmetic: M_nu,
A_c = R B P, R A, Y = A_c^-1 R A, the thin factors and every Gamma form.
Their five blocks are then all they hold, and the blocks differ from the
full form only by rounding, as two orders of the same sums do; there is
no dropped part to bound.  So the check reads the inputs, not A_c: the
floating-point Galerkin product R B P that ``_splitter`` forms once per
configuration, and that the coarse LUs factor, is the solver's level-1
operator bit for bit, but its rounding is not D4-symmetric on every grid
(at k h = 0.625 on the fine grids n = 11, 15, 21, 41, 81 and 161 an entry
and its image differ in the last bits, with either scheme and shift), so
an exact check of A_c would refuse configurations whose A, B, P and R
commute with D4.  Each sparse operator is split once
(``_mirror_sparse``: its five diagonal blocks of V_r X V_c^T, each the
chain of two sparse products V_b X V_cb^T), and all dense work is per
block:

    Y_b = (A_c)_b^-1 (R A)_b,
    U_b = (W - MA^H W)_b - 1/2 ((W^H W)_b Y_b)^H,
    K_b = (G_s)_b + U_b Y_b + (U_b Y_b)^H,

five small LUs (2.2 M complex multiply-adds at n = 33 against 91 M for
the dense Y; the pivot tolerance is relative to the largest entry over all
of A_c's blocks, so a block that is all rounding fails) and five thin
products per form (8.1 M against 342.7 M for the full form).  No N x N_c
factor is formed, and the only N x N matrix is the quick screen's (below).
A configuration that fails the check (variable k, MP 2-B) takes the one
full block of each operator instead (``_full``): the dense Y of one LU and
the full forms, the same code.

``certify``, ``table_entry`` and ``omega_sweep`` use the blocks: ||T0||_2
is the root of the largest lambda_max(I - K_b), and sigma_max(DA) that of
the largest lambda_max of the (DA)^H DA blocks.  The Cholesky verdicts of
Gamma and Gamma-tilde (``_hpd_verdict``) factor each block once, and a
failing one names the D4 block and its row, not a node.  Gamma-tilde's
verdict hands its factors on to the optimality ratio ||Gamma-tilde||_1 /
kappa_1 = 1 / ||Gamma-tilde^-1||_1 (``_ratio``: ``zpotri`` on the factor
of an HPD block, LU otherwise).  The 1-norm is not orthogonally invariant,
but Gamma-tilde^-1 commutes with D4, so the columns of one eighth of the
square give it (``_mirror_norm1``).  Gamma's Hermiticity residual is that
of the whole blockdiag, eo counted twice.  The quick screen's conditions
test entries in the node basis, so ``certify`` hands it the one N x N
matrix of constant k, V^T blockdiag(K_b) V rebuilt from Gamma-tilde's
blocks one stripe of rows at a time (``_node_form``); Gamma-tilde is
derived once, and no dense Y is formed.  For variable k a verdict reports
its node's pivot index, and the screen reads the one full block.

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
D4 blocks of each C_c are built once per sweep from the blocks of
E^j + E^jH, -E^jH P and the C_ij (``_sweep_terms``), the blocks of the
C_ij sparse, and a cell adds them up.  A configuration that fails the
symmetry check (variable k) takes the one full block of each C_c, as in
``certify`` and ``table_entry``.
"""

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import presets
from .linalg import (
    Verdict,
    _hermiticity_residual,
    _hpd_cholesky,
    _read_only,
    _tiles,
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

    ``A`` is the fine operator, ``coarse_build_op`` the operator B whose
    Galerkin product A_c = R B P is the coarse operator (A itself or the
    CSL), ``pair`` the transfer pair, and (omega, nu) the Jacobi smoother
    spec.  The certificate forms A_c once per configuration (``_splitter``)
    and factors that A_c; the symmetry check reads B (module docstring).
    ``from_spec`` builds the solver's own A, B and pair from a problem spec.
    """

    A: object
    coarse_build_op: object
    pair: object
    omega: float = SmootherConfig.omega
    nu: int = 1

    def __post_init__(self):
        # the smoother's own omega and nu checks and messages
        SmootherConfig(kind="jacobi", omega=self.omega, nu=self.nu)

    @classmethod
    def from_spec(cls, spec, scheme, omega, nu):
        """The configuration of ``spec`` under the transfer ``scheme``: A and
        the CSL B from the calls ``mg.build_hierarchy`` makes, and the shared
        pair of ``build_transfer_2d``.  So A, the pair and A_c = R B P are a
        hierarchy's level-0 operator, level-0 pair and level-1 operator, bit
        for bit; a beta2 = 0 shift gives B = A to the bit (coarsening on the
        original operator).  Grids too small for a hierarchy (n = 3, 5, 9)
        are built the same way.  ``check_dense_limit`` comes before any
        assembly."""
        n = spec.nodes_per_dim
        check_dense_limit(n * n)
        fieldvals = build_wavenumber_field(spec)
        return cls(A=assemble_helmholtz(spec, fieldvals, shift_on=False),
                   coarse_build_op=assemble_helmholtz(spec, fieldvals, shift_on=True),
                   pair=build_transfer_2d(n, scheme), omega=omega, nu=nu)


@dataclass
class CertificateReport:
    """All certificate outputs for one two-grid configuration."""

    hermiticity_residual_gamma: float
    hpd_gamma: Verdict
    hpd_gamma_tilde: Verdict
    quick_screen: Verdict
    norm_T0: float
    sigma_max_DA: float
    ratio_table_value: float  # ||Gt||_1 / kappa_1(Gt) = 1 / ||Gt^-1||_1; NaN if singular
    consistency_warnings: list

    @property
    def lambda_min_gamma(self):
        """lambda_min(Gamma) = 1 - ||T0||_2^2, by construction: T0^H T0 = I - Gamma."""
        return 1.0 - self.norm_T0**2

    @property
    def bound_value(self):
        """sqrt(|1 - ratio|), by construction from ``ratio_table_value``; NaN with it."""
        return float(np.sqrt(abs(1.0 - self.ratio_table_value)))

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


def _coarse_blocks(Ac, RX, split):
    """The blocks (A_c)_b^-1 (R X)_b of A_c^{-1} R X from the sparse A_c and
    R X under ``split`` (``_mirror_sparse`` or ``_full``): the blocks of Y at
    X = A.  A_c is the one handed in (``_splitter``'s; ``assemble_D`` forms
    its own), and no Galerkin product is formed here.

    Each block has its own LU, all from one ``lu_factor_checked`` whose pivot
    tolerance is 1e-14 times the largest entry over all of A_c's blocks: a
    smaller pivot raises LinAlgError ("coarse operator A_c singular to
    tolerance at pivot index i of D4 block ee+"; no block is named for the
    one full block).  An empty block (n_c = 2 has no ee- or oo- node) gives
    an empty block.
    """
    Ac = split(Ac)
    names = [""] if len(Ac) == 1 else [f"D4 block {label}" for label in _D4_BLOCKS]
    lu = lu_factor_checked({name: A_b.toarray() for name, A_b in zip(names, Ac)},
                           "coarse operator A_c")
    return [sla.lu_solve(lu[name], RX_b.toarray()) for name, RX_b in zip(names, split(RX))]


def _smoothed(cfg):
    """Sparse MA = M_nu A."""
    return smoother_correction(cfg.A, cfg.omega, cfg.nu) @ cfg.A


def _sparse_gamma(MA):
    """(MA^H, G_s = MA^H + MA - MA^H MA), both sparse CSR."""
    MAh = MA.conj().T.tocsr()
    return MAh, MAh + MA - MAh @ MA


def _hermitian_low_rank(Hs, W, Y):
    """Hs + W Y + (W Y)^H for sparse Hermitian Hs (None: no sparse part),
    dense or sparse W and dense Y."""
    X = W @ Y  # the one product of the factors
    X += X.conj().T
    if Hs is not None:
        Hs = _coo(Hs)
        X[Hs.row, Hs.col] += Hs.data  # the sparse part, entry by entry
    return X


def _coo(H):
    """H as a COO matrix without duplicate entries, ready to add into a dense one."""
    H = H.tocoo()
    H.sum_duplicates()
    return H


def _thin_blocks(MAh, W, Y, split):
    """The blocks U_b = (W - MA^H W)_b - 1/2 ((W^H W)_b Y_b)^H of the thin
    factor U = (I - MA^H) W - 1/2 ((W^H W) Y)^H of the Gamma form of
    X = MA + W Y, from the blocks Y_b of Y under ``split``."""
    U = []
    for T, WW, Yb in zip(split(W - MAh @ W), split(W.conj().T @ W), Y):
        WWY = WW @ Yb  # in place from here: no other temporary of U_b's size
        np.conjugate(WWY, out=WWY)
        WWY *= 0.5
        Ub = T.toarray()
        Ub -= WWY.T
        U.append(Ub)
    return U


def _form(Hs, U, Y):
    """The blocks Hs_b + U_b Y_b + (U_b Y_b)^H of a Gamma form from the
    blocks of its sparse part Hs (None for none), of U and of Y."""
    return [_hermitian_low_rank(*b) for b in zip(Hs, U, Y)]


def _whole(blocks):
    """The blocks of the whole form: the five D4 blocks and the eo block
    once more, for the oe block it stands for; one block (variable k) as
    given."""
    return blocks + blocks[4:]


def _grid_side(N):
    """n with n^2 = N for an n >= 2, else None."""
    n = int(round(np.sqrt(N)))
    return n if n * n == N and n >= 2 else None


@cache
def _symmetries(n):
    """The node maps g of the x-reflection and of the swap of the n x n
    grid, read-only: node i goes to node g[i], and g[g] is the identity."""
    grid = np.arange(n * n).reshape(n, n)  # (y, x)
    maps = tuple(np.ascontiguousarray(g).ravel() for g in (grid[:, ::-1], grid.T))
    _read_only(*maps)
    return maps


def _invariant(X, g_r, g_c):
    """Whether X[g_r][:, g_c] equals the sparse X entry for entry, with no
    tolerance, for node maps g_r and g_c that are their own inverses: the
    nonzeros of X, moved from (i, j) to (g_r[i], g_c[j]), land on the
    nonzeros of X with the same values."""
    if X.shape != (g_r.size, g_c.size):
        return False
    X = X.tocsr()
    if not X.has_canonical_format:  # sorted indices, no duplicates
        X = X.copy()
        X.sum_duplicates()
    row = np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))
    keep = X.data != 0
    row, col, data = row[keep], X.indices[keep], X.data[keep]
    key = row * X.shape[1] + col  # increasing
    image = g_r[row] * X.shape[1] + g_c[col]
    order = np.argsort(image)
    return np.array_equal(key, image[order]) and np.array_equal(data, data[order])


def _d4_invariant(cfg):
    """Whether A, coarse_build_op B and the pair (P, R) are exactly invariant
    under the x-reflection and the swap of the square (``_invariant``, the
    node maps of a transfer's fine and coarse grid in its rows and
    columns).  These two generate D4 (the y-reflection is the swap, the
    x-reflection and the swap again), so the configuration then commutes
    with D4 in exact arithmetic, A_c = R B P included (module docstring)."""
    n, nc = _grid_side(cfg.A.shape[0]), _grid_side(cfg.pair.P.shape[1])
    if n is None or nc is None:
        return False
    f, c = _symmetries(n), _symmetries(nc)
    ops = [(cfg.A, f, f), (cfg.coarse_build_op, f, f), (cfg.pair.P, f, c), (cfg.pair.R, c, f)]
    return all(_invariant(X, *g) for X, rows, cols in ops for g in zip(rows, cols))


def _full(X):
    """The one full block of X: the split of a configuration that fails the
    symmetry check."""
    return [X]


def _splitter(cfg):
    """(split, A_c): the split of the configuration's operators into blocks,
    ``_mirror_sparse`` when ``_d4_invariant`` holds, else ``_full``, and
    A_c = R B P, formed once per configuration as ``mg.build_hierarchy``
    forms level 1.  ``check_dense_limit`` comes first."""
    check_dense_limit(cfg.A.shape[0])
    split = _mirror_sparse if _d4_invariant(cfg) else _full
    return split, galerkin_coarse(cfg.coarse_build_op, cfg.pair)


@cache
def _mirror_basis(n):
    """(V, its six row blocks V_b, their transposes V_b^T) of the sparse D4
    basis on an n x n grid, all CSR, built once per n and read-only.

    The rows of V come in block order, ee+, ee-, oo+, oo-, eo, oe; row
    (a, b) of oe is row (a, b) of eo swapped.  They are rows of
    Q = Q1 (x) Q1, Q1 the mirror pairs' (x_i + x_j, x_i - x_j)/sqrt(2) at
    i < h and at j = n-1-i (h = n - n//2; the centre of an odd n keeps x_m),
    or the sum or the difference over sqrt(2) of a swap pair of them,
    whose supports are disjoint.
    """
    s = np.sqrt(0.5)
    i = np.arange(n // 2)
    j = n - 1 - i
    Q1 = np.eye(n)
    Q1[i, i] = Q1[i, j] = Q1[j, i] = s
    Q1[j, j] = -s
    Q = sp.kron(Q1, Q1, format="csr")
    h = n - n // 2
    grid = np.arange(n * n).reshape(n, n)
    rows = []
    for quad in (grid[:h, :h], grid[h:, h:]):
        q = quad.shape[0]
        a, b = np.triu_indices(q)
        sym, hi = a * q + b, (b * q + a)[a < b]  # the swap pairs, a <= b and a < b
        own, swap = quad.ravel(), quad.T.ravel()
        # the diagonal a = b is its own swap image: (Q_aa + Q_aa)/2
        rows += [sp.diags(np.where(own[sym] == swap[sym], 0.5, s)) @ (Q[own[sym]] + Q[swap[sym]]),
                 s * (Q[swap[hi]] - Q[own[hi]])]
    rows += [Q[grid[:h, h:].ravel()], Q[grid[h:, :h].T.ravel()]]  # eo, and oe as its swap
    V = sp.vstack(rows, format="csr")
    cols = [B.T.tocsr() for B in rows]
    for B in (V, *rows, *cols):
        _read_only(B.data, B.indices, B.indptr)
    return V, rows, cols


def _mirror_sparse(X):
    """The five D4 blocks (V_r X V_c^T)_bb, ee+ to eo, of a sparse X whose
    rows and columns are the nodes of square grids, as CSR matrices without
    duplicate entries; V_r and V_c of ``_mirror_basis``.

    Block b is the CSR product of the row block b of V_r, X and the
    transposed row block b of V_c.  For an X that commutes with D4 (a
    transfer's fine node 2i being coarse node i) these five are all of
    V_r X V_c^T in exact arithmetic: its oe block equals its eo block and
    every other entry is zero (module docstring).  Nothing else is formed
    or checked.
    """
    (_, rows, _), (_, _, cols) = (_mirror_basis(_grid_side(N)) for N in X.shape)
    return [Vr @ X @ VcT for Vr, VcT in zip(rows[:5], cols)]


#: The labels of the five D4 blocks in block order: (y, x) parity, and the
#: swap-symmetric (+) or antisymmetric (-) half of ee and oo.
_D4_BLOCKS = ("ee+", "ee-", "oo+", "oo-", "eo")


def _hpd_verdict(blocks):
    """(HPD verdict of H, ``_hpd_cholesky`` of each block) from the blocks
    of H (``_form``).

    V is orthogonal, so H is HPD exactly when V H V^T, block diagonal with
    oe = eo, is: when every block is.  Each block is factored once against
    one pivot floor, 1e-12 times the largest diagonal entry over all blocks,
    as ``lu_factor_checked`` holds A_c's blocks to one tolerance.  The first
    failing block in block order decides; its reason names the D4 block and
    the row.  The one block [H] of variable k is H's own verdict.
    """
    diag_max = max(np.real(np.diag(B)).max(initial=0.0) for B in blocks)
    factored = [_hpd_cholesky(B, diag_max) for B in blocks]
    for label, (verdict, _) in zip(_D4_BLOCKS, factored):
        if not verdict:
            where = f" of D4 block {label}" if len(blocks) > 1 else ""
            return Verdict(False, verdict.reason + where), factored
    return Verdict(True, "HPD"), factored


def _gram_norm2(blocks):
    """Exact 2-norm of any X with X^H X = H, from the blocks of H:
    the largest lambda_max over the blocks (oe has eo's spectrum)."""
    return max(norm2_from_gram(B) for B in blocks)


def _norm_T0(blocks):
    """||T0||_2 = sqrt(lambda_max(I - Gamma)) from the blocks of Gamma,
    overwriting them."""
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
    y, x = np.triu_indices(n - n // 2)
    parts = [B[:, y * n + x].T.tocsr() for B in _mirror_basis(n)[1]]
    for part in parts:
        _read_only(part.data, part.indices, part.indptr)
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


def _node_form(blocks):
    """The form H = V^T blockdiag(_whole(blocks)) V in the node basis from its
    five D4 blocks K_b, V of ``_mirror_basis``, one stripe I of rows at a
    time: H[I] = sum_b (V_b^T)[I] K_b V_b over the six blocks, so no other
    N x N array is formed.  The one full block of variable k is H itself."""
    if len(blocks) == 1:
        return blocks[0]
    blocks = _whole(blocks)
    N = sum(B.shape[0] for B in blocks)
    _, rows, cols = _mirror_basis(_grid_side(N))
    H = np.zeros((N, N), dtype=complex)
    for I in _tiles(N):
        for K, Vb, VbT in zip(blocks, rows, cols):
            H[I] += VbT[I] @ K @ Vb
    return H


def _ratio(blocks, factored):
    """||Gt||_1 / kappa_1(Gt) = 1 / ||Gt^-1||_1 from the blocks of
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
    """Dense D = M_nu + CC - M_nu A CC with T0 = I - D A (the only place D is
    formed), CC = P A_c^-1 R from the one full block of ``_coarse_blocks``
    on its own A_c = R B P: the dense N_c x N A_c^-1 R of one LU.
    ``check_dense_limit`` comes first."""
    check_dense_limit(cfg.A.shape[0])
    Ac = galerkin_coarse(cfg.coarse_build_op, cfg.pair)
    CC = cfg.pair.P @ _coarse_blocks(Ac, cfg.pair.R, _full)[0]
    M = smoother_correction(cfg.A, cfg.omega, cfg.nu)
    return np.asarray(M + CC) - M @ (cfg.A @ CC)


def certify(cfg):
    """Full certificate for one two-grid configuration.

    A configuration that passes the symmetry check (``_d4_invariant``:
    constant k) is certified from the five D4 blocks of its operators, one
    that fails it (variable k) from the one full block; the module
    docstring has both.  Gamma-tilde is derived once: the quick screen
    reads the N x N Gamma-tilde in the node basis rebuilt from its blocks
    (``_node_form``), and runs after the ratio, once the blocks' factors
    are freed.

    The theory-consistency implications (Gamma-tilde HPD => Gamma HPD,
    and the HPD => norm-bound assertions) are checked; violations are
    reportable findings recorded in ``consistency_warnings``, which
    ``to_text`` prints as WARNING lines, never silent and never fatal.
    """
    split, Ac = _splitter(cfg)
    Y = _coarse_blocks(Ac, cfg.pair.R @ cfg.A, split)
    MA = _smoothed(cfg)
    MAh, Gs = _sparse_gamma(MA)
    P = cfg.pair.P
    SP = P - MA @ P
    # DA = I - T0 = MA + S P Y, so (DA)^H DA = DA + DA^H - Gamma is the form
    # of the sparse MA + MA^H - G_s and the thin S P - U, U Gamma's.
    # Gamma's residual and verdict are taken before _norm_T0 overwrites its
    # blocks, and Gamma-tilde's verdict hands its Cholesky factors on to the
    # ratio.  Gamma and Gamma-tilde share G_s, split once
    U = _thin_blocks(MAh, SP, Y, split)
    sigma_DA = _gram_norm2(_form(split(MA + MAh - Gs),
                                 [W.toarray() - Ub for W, Ub in zip(split(SP), U)], Y))
    Gs = split(Gs)
    G = _form(Gs, U, Y)
    del U
    herm = _hermiticity_residual(*_whole(G))
    hpd_g, _ = _hpd_verdict(G)
    norm_T0 = _norm_T0(G)
    del G
    Gt = _form(Gs, _thin_blocks(MAh, P, Y, split), Y)
    del Gs, Y
    hpd_gt, factored = _hpd_verdict(Gt)
    # the quick screen tests entries in the node basis: Gamma-tilde rebuilt
    # from its blocks before _ratio empties them, screened once the ratio's
    # factors are freed
    Gt_node = _node_form(Gt)
    ratio = _ratio(Gt, factored)
    del factored
    screen = quick_pd_screen(Gt_node)

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
        ratio_table_value=float(ratio),
        consistency_warnings=warnings,
    )


def table_entry(cfg):
    """(Gamma-tilde HPD verdict, exact ||T0||_2) without the full report.

    Computes only what the published verdict table shows; skips the
    lambda_min, sigma_max(DA) and optimality-ratio machinery so large
    (k = 30) configurations stay tractable.  Gamma-tilde and Gamma are
    Gamma forms with W = P and W = S P.  When the configuration passes the
    symmetry check (``_d4_invariant``), Y, the thin factors and each form
    are their five D4 blocks, built from the blocks of the sparse operators,
    and no N x N_c or N x N matrix is formed; otherwise (variable k) each is
    its one full block.  The verdict is ``_hpd_verdict`` of Gamma-tilde's
    blocks, and ||T0||_2 the root of lambda_max(I - Gamma) from Gamma's, as
    in ``certify``.
    """
    split, Ac = _splitter(cfg)
    Y = _coarse_blocks(Ac, cfg.pair.R @ cfg.A, split)
    MA = _smoothed(cfg)
    MAh, Gs = _sparse_gamma(MA)
    Gs = split(Gs)  # Gamma-tilde's G_s is Gamma's
    P = cfg.pair.P
    hpd, _ = _hpd_verdict(_form(Gs, _thin_blocks(MAh, P, Y, split), Y))
    G = _form(Gs, _thin_blocks(MAh, P - MA @ P, Y, split), Y)
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


def _sweep_terms(cfg, degree):
    """The blocks of each form C_c of Gamma-tilde(omega, nu), nu <= degree,
    in ``_sweep_coefficients`` order: C_0 (the Gamma form of X = P Y at
    nu = 0), the C_j and the C_ij of the module docstring, under the
    configuration's split (``_splitter``): the five D4 blocks, or the one
    full block of variable k.

    Every block comes from the blocks of sparse operators: Y's from those of
    A_c and R A, U_0's from those of P and P^H P, C_j's from those of
    E^j + E^jH and -E^jH P.  E^j + E^jH is split once and, negated, is C_0j
    too (C_00 = -I, half of -(I + I)): exact scalings.  The blocks of the
    C_ij stay sparse (COO), the others are dense.
    """
    split, Ac = _splitter(cfg)
    Y = _coarse_blocks(Ac, cfg.pair.R @ cfg.A, split)
    P, N = cfg.pair.P, cfg.A.shape[0]
    U0 = _thin_blocks(sp.csr_matrix((N, N), dtype=complex), P, Y, split)  # MA = 0
    terms = [_form([None] * len(Y), U0, Y)]
    del U0
    I = sp.identity(N, dtype=complex, format="csr")
    E = (sp.diags(reciprocal_diagonal(cfg.A)) @ cfg.A).tocsr() - I
    powers = [I]
    for _ in range(degree):
        powers.append(E @ powers[-1])
    S = [[_coo(B) for B in split(Ej + Ej.conj().T)] for Ej in powers]
    terms += [_form(Sj, [B.toarray() for B in split(-(Ej.conj().T @ P))], Y)
              for Ej, Sj in zip(powers, S)]
    terms += [[c * B for B in Sj] for c, Sj in zip([-0.5] + [-1.0] * degree, S)]
    for i, Ei in enumerate(powers[1:], 1):
        for Ej in powers[i:]:
            G = Ei.conj().T @ Ej
            terms.append([-_coo(B) for B in split(G if Ej is Ei else G + G.conj().T)])
    return terms


def _add_terms(terms, coefs):
    """sum_c coef_c blocks_c, block by block, over ``_sweep_terms``; the
    first term, C_0, is dense with coefficient 1, and no sparse block holds
    duplicate entries."""
    first, *rest = terms
    K = [B.copy() for B in first]
    for blocks, c in zip(rest, coefs[1:]):
        if c == 0.0:
            continue
        for Kp, B in zip(K, blocks):
            if sp.issparse(B):
                Kp[B.row, B.col] += c * B.data
            else:
                Kp += c * B
    return K


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
    C_c (module docstring), whose blocks are built once per sweep
    (``_sweep_terms``): the five D4 blocks when the first cell passes the
    symmetry check (``_d4_invariant``), the one full block otherwise
    (variable k), as in ``certify`` and ``table_entry``.  A cell adds up the
    blocks and hands them to ``_ratio``.  nu = 0 rows are flagged; a
    singular Gamma-tilde reads 0.0, flagged.
    """
    grid = [(omega, nu) for omega in omegas for nu in nus]
    cfgs = [make_cfg(omega, nu) for omega, nu in grid]
    for (omega, nu), cfg in zip(grid, cfgs):
        _check_sweep_cell(cfgs[0], cfg, omega, nu)
    degree = max(cfg.nu for cfg in cfgs)
    terms = _sweep_terms(cfgs[0], degree)
    rows = []
    for (omega, nu), cfg in zip(grid, cfgs):
        K = _add_terms(terms, _sweep_coefficients(cfg.omega, cfg.nu, degree))
        val = _ratio(K, _hpd_verdict(K)[1])  # which empties K
        flag = "degenerate-no-smoothing" if nu == 0 else ""
        if np.isnan(val):
            val, flag = 0.0, flag or "singular-gamma-tilde"
        rows.append({"omega": omega, "nu": nu, "ratio": val, "flag": flag})
    return rows


# --- rows of the published certificate tables --------------------------------

def _table_spec(k, beta2):
    """A table row's problem: MP 2-A at k*h <= 0.625 with the CSL shift beta2."""
    return ProblemSpec(kind="constant-k", k=float(k), nodes_per_dim=nodes_for_wavenumber(k),
                       shift=ShiftSpec(kind="fixed", beta2=beta2))


def conv1_row(k, omega):
    """One row of the verdict table, nu = 1.

    Returns {(scheme, coarsen): (Gamma-tilde HPD, ||T0||_2)} with scheme in
    (linear, bezier) and coarsen in (original, csl), in that order:
    coarsening on the beta2 = 0 CSL, which is A to the bit, and on the
    beta2 = 0.7 CSL.
    """
    row = {}
    for scheme in ("linear", "bezier"):
        for coarsen, beta2 in (("original", 0.0), ("csl", 0.7)):
            cfg = TwoGridConfig.from_spec(_table_spec(k, beta2), scheme, omega, 1)
            hpd, t0 = table_entry(cfg)
            row[(scheme, coarsen)] = (hpd.ok, t0)
    return row


def opt1_row(k):
    """One row of the optimality table, Bezier transfer coarsened on the CSL.

    Returns {(omega, nu): ||Gamma-tilde||_1 / kappa_1(Gamma-tilde)} over
    ``presets.OPT1_OMEGAS`` x ``presets.OPT1_NUS``; a cell the sweep flags
    reads NaN, never a ratio.
    """
    cfg = TwoGridConfig.from_spec(_table_spec(k, 0.7), "bezier",
                                  presets.OPT1_OMEGAS[0], presets.OPT1_NUS[0])
    cells = omega_sweep(lambda omega, nu: replace(cfg, omega=omega, nu=nu),
                        presets.OPT1_OMEGAS, presets.OPT1_NUS)
    return {(c["omega"], c["nu"]): np.nan if c["flag"] else c["ratio"] for c in cells}
