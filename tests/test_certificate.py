import io

import numpy as np
import pytest
import scipy.sparse as sp

from helmmg.certificate import (
    TwoGridConfig,
    _coarse_correction,
    _gamma_tilde,
    _smoothed,
    _t0_gram,
    assemble_D,
    certify,
    lambda_min_hermitian,
    omega_sweep,
    smoother_correction,
    table_entry,
)
from helmmg.linalg import DenseLimitError, _hermiticity_residual
from helmmg.mg import CycleConfig, build_hierarchy, cycle
from helmmg.problem import (
    ProblemSpec,
    ShiftSpec,
    assemble_helmholtz,
    build_wavenumber_field,
)
from helmmg.smoothing import SmootherConfig
from helmmg.transfer import build_transfer_2d


def make_cfg(k=5.0, n=9, scheme="bezier", coarsen="csl", omega=4.5, nu=1,
             beta2=0.7):
    spec = ProblemSpec(kind="constant-k", k=k, nodes_per_dim=n,
                       shift=ShiftSpec(kind="fixed", beta2=beta2))
    f = build_wavenumber_field(spec)
    A = assemble_helmholtz(spec, f, shift_on=False)
    B = assemble_helmholtz(spec, f, shift_on=True) if coarsen == "csl" else A
    pair = build_transfer_2d(n, scheme)
    return TwoGridConfig(A=A, coarse_build_op=B, pair=pair, omega=omega, nu=nu)


def dense_parts(cfg):
    """(S^nu, P A_c^{-1} R A) in numpy from the sparse inputs."""
    A = cfg.A.toarray()
    P = cfg.pair.P.toarray()
    R = cfg.pair.R.toarray()
    Ac = R @ cfg.coarse_build_op.toarray() @ P
    S = np.eye(A.shape[0]) - (1.0 / cfg.omega) * (A / np.diag(A)[:, None])
    return np.linalg.matrix_power(S, cfg.nu), P @ np.linalg.solve(Ac, R @ A)


def dense_T0(cfg):
    """T0 = S^nu (I - P A_c^{-1} R A) in numpy."""
    Snu, CA = dense_parts(cfg)
    return Snu @ (np.eye(CA.shape[0]) - CA)


def dense_gamma_tilde(cfg):
    """Gamma-tilde from the dense D-tilde A = (I - S^nu) + P A_c^{-1} R A."""
    Snu, CA = dense_parts(cfg)
    DtA = np.eye(CA.shape[0]) - Snu + CA
    return DtA.conj().T + DtA - DtA.conj().T @ DtA


def rel_fro(got, want):
    return np.linalg.norm(got - want, "fro") / np.linalg.norm(want, "fro")


def test_smoother_correction_identity():
    # I - M_nu A == (I - X^-1 A)^nu for several nu, M_nu sparse from the
    # sparse A
    cfg = make_cfg()
    A = cfg.A.toarray()
    N = A.shape[0]
    S = np.eye(N) - (1.0 / cfg.omega) * (A / np.diag(A)[:, None])
    for nu in (0, 1, 2, 3, 4):
        M = smoother_correction(cfg.A, cfg.omega, nu)
        assert sp.issparse(M)
        want = np.linalg.matrix_power(S, nu)
        got = np.eye(N) - M.toarray() @ A
        assert np.linalg.norm(got - want) / max(np.linalg.norm(want), 1) <= 1e-11


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_I_minus_DA_equals_dense_T0(nu):
    # the Lemma's claim T0 = I - D A against the explicit product and
    # against the operator cycle() applies: coarse correction, then nu
    # post-smoothing steps.  n = 17 coarsens once (to n = 9), so the
    # hierarchy has exactly two levels with an exact coarse solve.
    spec = ProblemSpec(kind="constant-k", k=5.0, nodes_per_dim=17,
                       shift=ShiftSpec(kind="fixed", beta2=0.7))
    h = build_hierarchy(spec, "bezier", "csl")
    assert h.nlevels == 2
    C = assemble_helmholtz(spec, build_wavenumber_field(spec), shift_on=True)
    cfg = TwoGridConfig(A=h.levels[0].op, coarse_build_op=C,
                        pair=h.levels[0].pair, omega=4.5, nu=nu)
    A = cfg.A.toarray()
    N = A.shape[0]
    T0 = dense_T0(cfg)
    ccfg = CycleConfig(gamma=1, smoother=SmootherConfig(kind="jacobi",
                                                        omega=4.5, nu=nu))
    zero = np.zeros(N, dtype=complex)
    T_cycle = np.column_stack([cycle(h, 0, e, zero - cfg.A @ e, ccfg)[0]
                               for e in np.eye(N, dtype=complex)])
    I_DA = np.eye(N) - assemble_D(cfg) @ A
    scale = np.linalg.norm(T0, "fro")
    assert np.linalg.norm(I_DA - T0, "fro") / scale <= 1e-11
    assert np.linalg.norm(I_DA - T_cycle, "fro") / scale <= 1e-11
    # the certificate's own T0 comes from the products D-tilde A and D A,
    # never from D: its exact norm must match the independent dense T0
    want = np.linalg.norm(T0, 2)
    assert np.isclose(table_entry(cfg)[1], want, rtol=1e-12, atol=0.0)
    assert np.isclose(certify(cfg, log=io.StringIO()).norm_T0, want,
                      rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("nu", [0, 1, 2])
@pytest.mark.parametrize("coarsen", ["csl", "original"])
@pytest.mark.parametrize("scheme", ["linear", "bezier"])
def test_structured_forms_match_dense(scheme, coarsen, nu):
    # Gamma-tilde and T0^H T0 in sparse-plus-rank-N_c form against the
    # dense products of independent numpy D-tilde A and T0
    cfg = make_cfg(scheme=scheme, coarsen=coarsen, nu=nu)
    Y = _coarse_correction(cfg, cfg.A)
    MA = _smoothed(cfg)
    Gt = _gamma_tilde(MA, cfg.pair.P, Y)
    assert rel_fro(Gt, dense_gamma_tilde(cfg)) <= 1e-13
    assert _hermiticity_residual(Gt) <= 1e-15
    T0 = dense_T0(cfg)
    assert rel_fro(_t0_gram(MA, cfg.pair.P, Y), T0.conj().T @ T0) <= 1e-13


def test_D_tilde_drops_coupling_term():
    # D = D-tilde - M A CC with D-tilde = M + CC: in post-smoothing order
    # the coupling term is M A CC
    cfg = make_cfg()
    A = cfg.A.toarray()
    P = cfg.pair.P.toarray()
    R = cfg.pair.R.toarray()
    Ac = R @ cfg.coarse_build_op.toarray() @ P
    CC = P @ np.linalg.solve(Ac, R)
    M = smoother_correction(cfg.A, cfg.omega, cfg.nu).toarray()
    assert np.allclose(assemble_D(cfg), M + CC - M @ A @ CC, rtol=1e-12)


def test_gamma_is_hermitian_and_matches_T0():
    # T0^H T0 = I - Gamma, so lambda_min(Gamma) = 1 - ||T0||_2^2; the
    # report computes the two sides by separate eigenvalue solves
    rep = certify(make_cfg(), log=io.StringIO())
    assert rep.hermiticity_residual_gamma <= 1e-12
    assert np.isclose(rep.lambda_min_gamma, 1.0 - rep.norm_T0**2,
                      rtol=1e-10, atol=1e-12)


def test_lambda_min_on_known_spectrum():
    Q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((10, 10)))
    vals = np.linspace(0.3, 4.0, 10)
    G = Q @ np.diag(vals) @ Q.T
    lam = lambda_min_hermitian(G)
    assert np.isclose(lam, 0.3, rtol=1e-8)


def test_certify_known_good_configuration():
    # Bezier + CSL at k = 5 is certified convergent
    rep = certify(make_cfg(k=5.0, n=9, omega=3.5), log=io.StringIO())
    assert rep.hpd_gamma.ok
    assert rep.hpd_gamma_tilde.ok
    assert rep.norm_T0 < 1.0
    assert rep.hermiticity_residual_gamma <= 1e-12
    # norm bound ||T0|| <= sqrt(1 - lambda_min(Gamma))
    assert rep.norm_T0 <= np.sqrt(1 - rep.lambda_min_gamma) + 1e-8
    assert rep.sigma_max_DA < 2.0
    assert rep.consistency_warnings == []


def test_certify_known_bad_configuration():
    # linear transfer coarsened on A is not certified and ||T0|| > 1
    rep = certify(make_cfg(k=5.0, n=9, coarsen="original", scheme="linear",
                           omega=3.5), log=io.StringIO())
    assert not rep.hpd_gamma_tilde.ok
    assert rep.norm_T0 > 1.0


def test_certify_report_pinned():
    # k = 5, n = 9, Bezier/CSL, omega = 3.5, nu = 1: every line of the
    # report but the Hermiticity residual, which is rounding noise
    lines = certify(make_cfg(omega=3.5, nu=1), log=io.StringIO()).to_text().split("\n")
    label, value = lines[0].split(":")
    assert label.strip() == "Gamma hermiticity residual"
    assert float(value) <= 1e-15
    assert lines[1:] == [
        "Gamma HPD                  : True (HPD)",
        "Gamma-tilde HPD            : True (HPD)",
        "quick PD screen            : True (pass)",
        "lambda_min(Gamma)          : 0.206891",
        "||T0||_2                   : 0.890567",
        "sigma_max(DA)              : 0.998942",
        "||Gt||_1 / kappa_1(Gt)     : 0.102579",
        "bound sqrt|1 - ratio|      : 0.947323",
    ]


def test_certify_singular_gamma_tilde_reports_nan():
    # nu = 0 leaves Gamma-tilde rank-deficient: no ratio or bound, but the
    # rest of the report is computed
    rep = certify(make_cfg(k=5.0, n=9, nu=0), log=io.StringIO())
    assert np.isnan(rep.ratio_table_value) and np.isnan(rep.bound_value)
    assert np.isfinite(rep.norm_T0)


def test_certify_report_text_and_csv():
    rep = certify(make_cfg(omega=3.5), log=io.StringIO())
    text = rep.to_text()
    assert "Gamma HPD" in text and "||T0||" in text
    row = rep.to_csv_row()
    assert len(row.split(",")) == len(rep.CSV_HEADER.split(","))


def ratio(omega, nu):
    """||Gamma-tilde||_1 / kappa_1(Gamma-tilde) from a one-cell sweep."""
    cell, = omega_sweep(lambda w, n: make_cfg(omega=w, nu=n), (omega,), (nu,))
    return cell["ratio"]


def test_gamma_tilde_ratio_positive_and_small():
    assert 0 < ratio(4.5, 1) < 1


def test_ratio_decreases_with_omega():
    # the optimality table's qualitative trend: larger omega gives a
    # smaller ratio at nu = 1
    assert ratio(7.0, 1) < ratio(1.5, 1)


def test_omega_sweep_grid_and_flags():
    rows = omega_sweep(lambda w, nu: make_cfg(omega=w, nu=nu),
                       omegas=(2.0, 4.5), nus=(0, 1))
    assert len(rows) == 4
    flags = {(r["omega"], r["nu"]): r["flag"] for r in rows}
    assert flags[(2.0, 0)] == "degenerate-no-smoothing"
    assert flags[(2.0, 1)] == ""
    assert all(np.isfinite(r["ratio"]) for r in rows)


def test_omega_sweep_matches_cell_by_cell_ratio():
    # the sweep shares one P A_c^{-1} R across its cells; each cell must
    # equal the ratio the full report computes from a fresh configuration
    omegas, nus = (1.5, 4.5, 7.0), (1, 2)
    rows = omega_sweep(lambda w, nu: make_cfg(omega=w, nu=nu), omegas, nus)
    assert [(r["omega"], r["nu"]) for r in rows] == [(w, nu) for w in omegas
                                                    for nu in nus]
    for r in rows:
        want = certify(make_cfg(omega=r["omega"], nu=r["nu"]),
                       log=io.StringIO()).ratio_table_value
        assert np.isclose(r["ratio"], want, rtol=1e-12, atol=0.0)
        assert r["flag"] == ""


def test_omega_sweep_matches_dense_reference():
    # an independent reference for the sweep: kappa_1 of a dense numpy
    # Gamma-tilde through np.linalg.inv
    omegas, nus = (1.5, 4.5, 7.0), (1, 2)
    rows = omega_sweep(lambda w, nu: make_cfg(omega=w, nu=nu), omegas, nus)
    for r in rows:
        Gt = dense_gamma_tilde(make_cfg(omega=r["omega"], nu=r["nu"]))
        n1 = np.abs(Gt).sum(axis=0).max()
        want = n1 / (n1 * np.abs(np.linalg.inv(Gt)).sum(axis=0).max())
        assert np.isclose(r["ratio"], want, rtol=1e-12, atol=0.0)


def test_two_grid_config_validation():
    # the same rules as SmootherConfig; nu = 0 stays allowed (omega_sweep
    # flags it)
    for omega in (0.0, -2.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="omega"):
            make_cfg(omega=omega)
    with pytest.raises(ValueError, match="nu"):
        make_cfg(nu=-1)
    assert make_cfg(nu=0).nu == 0


def test_dense_limit_enforced():
    # every certificate path checks the limit before it touches an operator
    big = TwoGridConfig(A=FakeBig(), coarse_build_op=None, pair=None,
                        omega=4.5, nu=1)
    with pytest.raises(DenseLimitError):
        big.check_dense_limit()
    for run in (certify, table_entry, assemble_D,
                lambda cfg: omega_sweep(lambda w, nu: cfg, (4.5,), (1,))):
        with pytest.raises(DenseLimitError):
            run(big)


class FakeBig:
    shape = (3000, 3000)
