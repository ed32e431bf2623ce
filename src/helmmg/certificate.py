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
kappa_1 is the optimality-bound table value.

The coarse correction has rank N_c ~ N/4, so the certificate works from

    Y = A_c^{-1} R A   (dense N_c x N, one LU solve),
    MA = M_nu A        (sparse),     S = I - MA,

with D-tilde A = MA + P Y and T0 = S - S P Y.  Gamma-tilde and T0^H T0
are built in sparse-plus-rank-N_c form, each with one N x N_c x N product:

    Gamma-tilde = G_s + F + F^H,   G_s = MA^H + MA - MA^H MA,
                                   F = (P - MA^H P - 1/2 Y^H P^H P) Y;
    T0^H T0     = S^H S + G + G^H, G = (1/2 Y^H Q - S^H S P) Y,
                                   Q = P^H S^H S P.

``certify`` also forms the dense D A = MA + S P Y, so that its Gamma and
Gamma's Hermiticity residual come from a dense product; D itself is formed
only in ``assemble_D``.  Reported 2-norms are exact (LAPACK eigenvalues of
X^H X).
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
    cholesky_hpd_test,
    condition_number_p1,
    lu_factor_checked,
    norm1,
    norm2,
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

    def check_dense_limit(self):
        N = self.A.shape[0]
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
    ratio_table_value: float  # ||Gt||_1 / kappa_1(Gt); NaN if Gt is singular
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
    cfg.check_dense_limit()
    Ac = galerkin_coarse(cfg.coarse_build_op, cfg.pair).toarray()
    lu = lu_factor_checked(Ac, "coarse operator A_c")
    return sla.lu_solve(lu, (cfg.pair.R @ X).toarray())


def _smoothed(cfg):
    """Sparse MA = M_nu A."""
    return smoother_correction(cfg.A, cfg.omega, cfg.nu) @ cfg.A


def _add_sparse(X, Hs):
    """X += Hs in place, for dense X and sparse Hs, entry by entry."""
    Hs = Hs.tocoo()
    Hs.sum_duplicates()
    X[Hs.row, Hs.col] += Hs.data
    return X


def _hermitian_low_rank(Hs, W, Y):
    """Hs + W Y + (W Y)^H for sparse Hermitian Hs, dense N x N_c W and N_c x N Y."""
    X = W @ Y  # the one N x N_c x N product
    X += X.conj().T
    return _add_sparse(X, Hs)


def _gamma_tilde(MA, P, Y):
    """Gamma-tilde = G_s + F + F^H from D-tilde A = MA + P Y.

    G_s = MA^H + MA - MA^H MA is sparse and
    F = (P - MA^H P - 1/2 Y^H P^H P) Y.
    """
    MAh = MA.conj().T.tocsr()
    W = (P - MAh @ P).toarray() - 0.5 * (P.T @ P @ Y).conj().T
    return _hermitian_low_rank(MAh + MA - MAh @ MA, W, Y)


def _t0_gram(MA, P, Y):
    """T0^H T0 = S^H S + G + G^H for T0 = S - S P Y, S = I - MA.

    G = (1/2 Y^H Q - S^H S P) Y with Q = P^H S^H S P.
    """
    S = sp.identity(MA.shape[0], format="csr") - MA
    SS = (S.conj().T @ S).tocsr()
    SSP = SS @ P
    W = 0.5 * ((P.T @ SSP) @ Y).conj().T - SSP.toarray()
    return _hermitian_low_rank(SS, W, Y)


def _gamma(DA):
    """A^H D^H + D A - A^H D^H D A from the product D A."""
    return DA.conj().T + DA - DA.conj().T @ DA


def _ratio(Gt):
    """||Gt||_1 / kappa_1(Gt); NaN when Gt is singular (rank <= 2 N_c at nu = 0)."""
    try:
        return norm1(Gt) / condition_number_p1(Gt)
    except np.linalg.LinAlgError:
        return np.nan


def assemble_D(cfg):
    """Dense D = M_nu + CC - M_nu A CC with T0 = I - D A (the only place D is formed)."""
    Y = _coarse_correction(cfg, sp.identity(cfg.A.shape[0], format="csr"))
    CC = cfg.pair.P @ Y
    M = smoother_correction(cfg.A, cfg.omega, cfg.nu)
    return np.asarray(M + CC) - M @ (cfg.A @ CC)


def lambda_min_hermitian(G):
    """Smallest eigenvalue of the Hermitian matrix G (one LAPACK call).

    Exact, so that the check ||T0||_2 = sqrt(1 - lambda_min(Gamma)) in
    ``certify`` compares two independent exact computations.
    """
    G = np.asarray(G, dtype=complex)
    return float(sla.eigvalsh(G, subset_by_index=[0, 0])[0])


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
    Gt = _gamma_tilde(MA, P, Y)
    # DA = I - T0 = MA + S P Y, dense, so that the Hermiticity residual of
    # Gamma measures a GEMM form rather than a matrix Hermitian by construction
    S = sp.identity(MA.shape[0], format="csr") - MA
    DA = _add_sparse((S @ P) @ Y, MA)
    del Y
    G = _gamma(DA)

    herm = _hermiticity_residual(G)
    hpd_g = cholesky_hpd_test(G)
    hpd_gt = cholesky_hpd_test(Gt)
    screen = quick_pd_screen(Gt)
    sigma_DA = norm2(DA)
    lam_min = lambda_min_hermitian(G)
    ratio = _ratio(Gt)
    bound = float(np.sqrt(abs(1.0 - ratio)))
    DA *= -1.0
    DA[np.diag_indices_from(DA)] += 1.0  # T0 = I - D A, in place
    norm_T0 = norm2(DA)

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
        if not norm_T0 <= np.sqrt(abs(1.0 - lam_min)) + 1e-8:
            warnings.append("||T0|| exceeds sqrt|1 - lambda_min(Gamma)| bound")
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
    (k = 30) configurations stay tractable.  Gamma-tilde and T0^H T0 are
    built in sparse-plus-rank-N_c form; ||T0||_2 is the root of
    lambda_max(T0^H T0).
    """
    Y = _coarse_correction(cfg, cfg.A)
    MA = _smoothed(cfg)
    P = cfg.pair.P
    hpd = cholesky_hpd_test(_gamma_tilde(MA, P, Y))
    return hpd, norm2_from_gram(_t0_gram(MA, P, Y))


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
            val = _ratio(_gamma_tilde(_smoothed(cell), cell.pair.P, Y))
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
