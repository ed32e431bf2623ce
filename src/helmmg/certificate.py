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
matrices are one Gamma form of X = MA + W Y, built in sparse-plus-rank-N_c
form with one N x N_c x N product:

    X^H + X - X^H X = G_s + F + F^H,  G_s = MA^H + MA - MA^H MA,
                                      F = ((I - MA^H) W - 1/2 Y^H W^H W) Y;

W = P gives Gamma-tilde, W = S P gives Gamma, and T0^H T0 = I - Gamma.
Every dense N x N matrix comes from one N x N_c x N product, the Gram
matrix (DA)^H DA = DA + DA^H - Gamma included; D itself is formed only in
``assemble_D``.  Reported 2-norms are exact (LAPACK eigenvalues of these
Gram matrices), and lambda_min(Gamma) = 1 - lambda_max(T0^H T0) comes
from the same one eigenvalue as ||T0||_2.

MP 2-A has constant k and the same Sommerfeld rows on all four sides, so
its two-grid operator commutes with the grid reflections x -> 1-x and
y -> 1-y (both transfer schemes, both coarsenings, omega-Jacobi).  In the
orthogonal even/odd mirror basis Q = Q1 (x) Q1, Q1 the butterfly
(x_i +- x_{n-1-i})/sqrt(2) with the centre node even, both Gram matrices
are block diagonal with four blocks of about N/4 (289, 272, 272 and 256
at n = 33), and lambda_max is the largest block maximum.  ``_grid_norm2``
applies Q in place and measures the 12 off-diagonal blocks E; it solves
the four diagonal blocks only when ||E||_F <= MIRROR_TOL ||H||_F, with
MIRROR_TOL = 1e-13, since by Weyl's inequality dropping E moves no
eigenvalue by more than ||E||_2 <= ||E||_F.  Otherwise (variable k) it
solves the whole transformed matrix, with the same exact result.

The optimality ratio ||Gamma-tilde||_1 / kappa_1(Gamma-tilde) is exactly
1 / ||Gamma-tilde^-1||_1.  The 1-norm is not orthogonally invariant, but
Q is symmetric and orthogonal, so Gamma-tilde^-1 = Q blockdiag(B_i^-1) Q:
``_grid_inverse`` inverts the four blocks B_i of the butterflied
Gamma-tilde behind the same gate (Cholesky and ``zpotri`` for an HPD
block, LU otherwise) and butterflies the result back, and the ratio is
one over its largest absolute column sum.  The Cholesky verdicts are
taken on the untransformed matrices.
"""

import sys
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import presets
from .linalg import (
    DENSE_LIMIT,
    DenseLimitError,
    Verdict,
    _hermiticity_residual,
    add_adjoint,
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
from .smoothing import SmootherConfig
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


def check_dense_limit(N):
    """Raise DenseLimitError when a certificate of N unknowns exceeds DENSE_LIMIT."""
    if N * N > DENSE_LIMIT:
        raise DenseLimitError(
            f"certificate needs a dense {N}x{N} matrix "
            f"({N * N} entries > limit {DENSE_LIMIT})"
        )


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
    Xinv = sp.diags(1.0 / (omega * A.diagonal()), format="csr")
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
    """Hs + W Y + (W Y)^H for sparse Hermitian Hs, N x N_c W and dense N_c x N Y."""
    X = add_adjoint(W @ Y)  # the one N x N_c x N product
    Hs = Hs.tocoo()
    Hs.sum_duplicates()
    X[Hs.row, Hs.col] += Hs.data  # the sparse part, entry by entry
    return X


def _gamma_form(MA, W, Y):
    """X^H + X - X^H X for X = MA + W Y: G_s + F + F^H.

    G_s = MA^H + MA - MA^H MA is sparse and F = U Y with
    U = (I - MA^H) W - 1/2 Y^H W^H W.  W = P gives Gamma-tilde, W = S P
    gives Gamma.
    """
    MAh = MA.conj().T.tocsr()
    U = (W - MAh @ W).toarray() - 0.5 * ((W.conj().T @ W) @ Y).conj().T
    return _hermitian_low_rank(MAh + MA - MAh @ MA, U, Y)


#: Largest off-block Frobenius norm, relative to ||H||_F, at which
#: ``_grid_norm2`` takes lambda_max(H), and ``_grid_inverse`` H^-1, from the
#: four mirror blocks.  Dropping the off-blocks E moves no eigenvalue by more
#: than ||E||_2 <= ||E||_F (Weyl's inequality), so below the gate the block
#: maximum is within MIRROR_TOL * ||H||_F of lambda_max(H).  The inverse
#: moves by about kappa_2(H) ||E||_2 / ||H||_2 relative, the order of a full
#: inversion's own rounding error while E is rounding.  Constant-k matrices
#: read about 1e-15 (rounding), variable-k ones 0.05 and more.
MIRROR_TOL = 1e-13


def _butterfly(H):
    """Apply H <- Q H Q^T in place for the mirror basis Q = Q1 (x) Q1.

    H is an N x N C-contiguous matrix on an n x n grid, N = n^2, n odd.
    Q1 maps x to (x_i + x_j)/sqrt(2) at i and (x_i - x_j)/sqrt(2) at j
    for each mirror pair i < j = n-1-i, and keeps the centre x_m,
    m = (n-1)/2: indices 0..m of an axis are even, m+1..n-1 odd.  Q is
    orthogonal, so ||H||_F and the spectrum are unchanged.  Returns the
    (n, n, n, n) view of H and the four (x, y) parity slice pairs, or
    None, leaving H untouched, when N is not the square of an odd n >= 3.
    """
    n = int(round(np.sqrt(H.shape[0])))
    if n * n != H.shape[0] or n < 3 or n % 2 == 0 or not H.flags.c_contiguous:
        return None
    m = (n - 1) // 2
    s = np.sqrt(0.5)
    H4 = H.reshape(n, n, n, n)
    for axis in range(4):
        V = np.moveaxis(H4, axis, 0)
        lo, hi = V[:m], V[:m:-1]  # hi[i] is node n-1-i
        # the difference first, so a (near-)symmetric pair leaves an odd
        # part accurate to its own size, not to the size of the sum
        np.subtract(lo, hi, out=hi)
        hi *= s
        lo *= 2.0 * s
        lo -= hi
    halves = (slice(0, m + 1), slice(m + 1, n))
    return H4, [(a, b) for a in halves for b in halves]


def _off_block_ratio(H4, parities):
    """||off-diagonal mirror blocks||_F / ||H||_F of a butterflied H.

    The off-block norm is summed block by block, not taken as
    ||H||_F^2 minus the diagonal blocks, which cancels.
    """
    blocks = (H4[r + c].ravel() for r in parities for c in parities if r != c)
    off = sum(np.vdot(B, B).real for B in blocks)
    total = np.vdot(H4, H4).real
    return float(np.sqrt(off / total)) if total > 0.0 else 0.0


def _grid_norm2(H):
    """Exact 2-norm of any X with X^H X = H on the certificate grid; overwrites H.

    lambda_max(H) is the largest maximum of the four mirror blocks of the
    butterflied H when its off-blocks pass the MIRROR_TOL gate, and that of
    the whole butterflied H otherwise (variable k, or a grid that is not
    an odd square).
    """
    split = _butterfly(H)
    if split is None:
        return norm2_from_gram(H)
    H4, parities = split
    if _off_block_ratio(H4, parities) > MIRROR_TOL:
        return norm2_from_gram(H)
    blocks = (H4[p + p] for p in parities)
    return max(norm2_from_gram(B.reshape(B.shape[0] * B.shape[1], -1)) for B in blocks)


def _norm_T0(G):
    """||T0||_2 from Gamma, overwriting G."""
    G *= -1.0
    G[np.diag_indices_from(G)] += 1.0
    return _grid_norm2(G)


def _grid_inverse(H):
    """H^-1 of a dense matrix on the certificate grid, overwriting H.

    The butterflied Q H Q is inverted block by block (``linalg.inverse`` on
    each of the four mirror blocks) when its off-blocks pass the MIRROR_TOL
    gate, and whole otherwise (variable k).  Q is symmetric and orthogonal,
    so one more butterfly turns (Q H Q)^-1 into H^-1 = Q (Q H Q)^-1 Q.  A
    grid that is not an odd square is inverted as it stands.
    """
    split = _butterfly(H)
    if split is None:
        return inverse(H, "Gamma-tilde")
    H4, parities = split
    if _off_block_ratio(H4, parities) > MIRROR_TOL:
        H = inverse(H, "Gamma-tilde")
    else:
        blocks = [H4[p + p] for p in parities]
        inv = [inverse(B.reshape(B.shape[0] * B.shape[1], -1), "Gamma-tilde mirror block")
               for B in blocks]
        H4[...] = 0.0
        for B, Binv in zip(blocks, inv):
            B[...] = Binv.reshape(B.shape)
    _butterfly(H)
    return H


def _ratio(Gt):
    """||Gt||_1 / kappa_1(Gt) = 1 / ||Gt^-1||_1, overwriting Gt; NaN when Gt is
    singular (rank <= 2 N_c at nu = 0)."""
    try:
        return 1.0 / norm1(_grid_inverse(Gt))
    except np.linalg.LinAlgError:
        return np.nan


def assemble_D(cfg):
    """Dense D = M_nu + CC - M_nu A CC with T0 = I - D A (the only place D is formed)."""
    Y = _coarse_correction(cfg, sp.identity(cfg.A.shape[0], format="csr"))
    CC = cfg.pair.P @ Y
    M = smoother_correction(cfg.A, cfg.omega, cfg.nu)
    return np.asarray(M + CC) - M @ (cfg.A @ CC)


def certify(cfg, log=None):
    """Full certificate for one two-grid configuration.

    The theory-consistency implications (Gamma-tilde HPD => Gamma HPD,
    and the HPD => norm-bound assertions) are checked and logged;
    violations are reportable findings recorded in the report, never
    silent and never fatal.
    """
    Y = _coarse_correction(cfg, cfg.A)
    MA = _smoothed(cfg)
    P = cfg.pair.P
    SP = P - MA @ P
    # DA = I - T0 = MA + S P Y and (DA)^H DA = DA + DA^H - Gamma; each dense
    # matrix is freed once its results are taken, and Gamma-tilde comes last
    G = _gamma_form(MA, SP, Y)
    DA_gram = _hermitian_low_rank(MA + MA.conj().T, SP, Y)
    DA_gram -= G
    sigma_DA = _grid_norm2(DA_gram)
    del DA_gram
    herm = _hermiticity_residual(G)
    hpd_g = cholesky_hpd_test(G)
    norm_T0 = _norm_T0(G)
    lam_min = 1.0 - norm_T0**2  # lambda_max(T0^H T0) = 1 - lambda_min(Gamma)
    del G
    Gt = _gamma_form(MA, P, Y)
    hpd_gt = cholesky_hpd_test(Gt)
    screen = quick_pd_screen(Gt)
    ratio = _ratio(Gt)
    bound = float(np.sqrt(abs(1.0 - ratio)))

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
    for w in warnings:
        print(f"certificate consistency: {w}", file=log or sys.stderr)

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
    Gamma forms with W = P and W = S P; ||T0||_2 is the root of
    lambda_max(I - Gamma), as in ``certify``.
    """
    Y = _coarse_correction(cfg, cfg.A)
    MA = _smoothed(cfg)
    P = cfg.pair.P
    hpd = cholesky_hpd_test(_gamma_form(MA, P, Y))
    return hpd, _norm_T0(_gamma_form(MA, P - MA @ P, Y))


def omega_sweep(make_cfg, omegas, nus):
    """Grid of ||Gamma-tilde||_1 / kappa_1(Gamma-tilde) over (omega, nu).

    ``make_cfg(omega, nu)`` must return a TwoGridConfig that varies only
    omega and nu: Y = A_c^{-1} R A is computed once, from
    ``make_cfg(omegas[0], nus[0])``, and each cell forms only Gamma-tilde.
    nu = 0 rows are flagged; a singular Gamma-tilde reads 0.0, flagged.
    """
    cfg = make_cfg(omegas[0], nus[0])
    Y = _coarse_correction(cfg, cfg.A)
    rows = []
    for omega in omegas:
        for nu in nus:
            cell = make_cfg(omega, nu)
            val = _ratio(_gamma_form(_smoothed(cell), cell.pair.P, Y))
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
