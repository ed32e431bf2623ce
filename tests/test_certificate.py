import inspect
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from helmmg import certificate, linalg
from helmmg.certificate import (
    TwoGridConfig,
    _coarse_blocks,
    _d4_invariant,
    _form,
    _full,
    _hpd_verdict,
    _mirror_sparse,
    _smoothed,
    _sparse_gamma,
    _thin_blocks,
    assemble_D,
    certify,
    omega_sweep,
    smoother_correction,
    table_entry,
)
from helmmg.linalg import (
    DenseLimitError,
    _hermiticity_residual,
    check_dense_limit,
    cholesky_hpd_test,
    quick_pd_screen,
)
from helmmg.mg import CycleConfig, build_hierarchy, cycle
from helmmg.problem import (
    ProblemSpec,
    ShiftSpec,
    assemble_helmholtz,
    build_wavenumber_field,
    nodes_for_wavenumber,
)
from helmmg.smoothing import SmootherConfig
from helmmg.transfer import TransferPair, build_transfer_2d


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


def full_Y(cfg):
    """The dense Y = A_c^-1 R A: the one full block of ``_coarse_blocks``."""
    return _coarse_blocks(cfg, cfg.A, _full)[0]


def full_form(MA, W, Y):
    """The full N x N Gamma form G_s + U Y + (U Y)^H of X = MA + W Y: the one
    full block of ``_form``."""
    MAh, Gs = _sparse_gamma(MA)
    return _form([Gs], _thin_blocks(MAh, W, [Y], _full), [Y])[0]


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


def test_smoother_correction_zero_diagonal_names_node():
    # the certificate's Jacobi scaling is the solver's reciprocal_diagonal,
    # which refuses a zero entry instead of dividing by it
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 0.0]], dtype=complex))
    with pytest.raises(ZeroDivisionError, match="node 1"):
        smoother_correction(A, 4.5, 1)


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
    assert np.isclose(certify(cfg).norm_T0, want,
                      rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("nu", [0, 1, 2])
@pytest.mark.parametrize("coarsen", ["csl", "original"])
@pytest.mark.parametrize("scheme", ["linear", "bezier"])
def test_structured_forms_match_dense(scheme, coarsen, nu):
    # Gamma-tilde (W = P), Gamma (W = S P) and T0^H T0 = I - Gamma from the
    # one Gamma form, against the dense products of independent numpy
    # D-tilde A and T0
    cfg = make_cfg(scheme=scheme, coarsen=coarsen, nu=nu)
    Y = full_Y(cfg)
    MA = _smoothed(cfg)
    P = cfg.pair.P
    Gt = full_form(MA, P, Y)
    assert rel_fro(Gt, dense_gamma_tilde(cfg)) <= 1e-13
    assert _hermiticity_residual(Gt) <= 1e-15
    T0 = dense_T0(cfg)
    I = np.eye(T0.shape[0])
    DA = I - T0
    G = full_form(MA, P - MA @ P, Y)
    G_dense = DA.conj().T + DA - DA.conj().T @ DA
    assert rel_fro(G, G_dense) <= 1e-13
    assert rel_fro(I - G, T0.conj().T @ T0) <= 1e-13
    # certify and table_entry take ||T0||_2 from the same I - Gamma;
    # lambda_min(Gamma) against numpy's full spectrum of the dense Gamma
    rep = certify(cfg)
    assert rep.norm_T0 == table_entry(cfg)[1]
    assert np.isclose(rep.sigma_max_DA, np.linalg.norm(DA, 2), rtol=1e-12, atol=0.0)
    assert np.isclose(rep.lambda_min_gamma, np.linalg.eigvalsh(G_dense).min(),
                      rtol=0.0, atol=1e-12 * np.linalg.norm(G_dense, 2))


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
    # the report takes lambda_min(Gamma) = 1 - ||T0||_2^2 from one
    # eigenvalue of T0^H T0 = I - Gamma; check it against the spectrum of
    # the dense Gamma = DA^H + DA - DA^H DA with DA = I - T0
    cfg = make_cfg()
    rep = certify(cfg)
    assert rep.hermiticity_residual_gamma <= 1e-12
    T0 = dense_T0(cfg)
    DA = np.eye(T0.shape[0]) - T0
    gamma = DA.conj().T + DA - DA.conj().T @ DA
    assert np.isclose(rep.lambda_min_gamma, np.linalg.eigvalsh(gamma).min(),
                      rtol=1e-10, atol=1e-12)


def test_certify_known_good_configuration():
    # Bezier + CSL at k = 5 is certified convergent
    rep = certify(make_cfg(k=5.0, n=9, omega=3.5))
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
                           omega=3.5))
    assert not rep.hpd_gamma_tilde.ok
    assert rep.norm_T0 > 1.0


def pinned_lines(cfg):
    """Every line of the report but the Hermiticity residual, which is
    rounding noise and only bounded."""
    lines = certify(cfg).to_text().split("\n")
    label, value = lines[0].split(":")
    assert label.strip() == "Gamma hermiticity residual"
    assert float(value) <= 1e-15
    return lines[1:]


def test_certify_report_pinned():
    # k = 5, n = 9, Bezier/CSL, omega = 3.5, nu = 1
    assert pinned_lines(make_cfg(omega=3.5, nu=1)) == [
        "Gamma HPD                  : True (HPD)",
        "Gamma-tilde HPD            : True (HPD)",
        "quick PD screen            : True (pass)",
        "lambda_min(Gamma)          : 0.206891",
        "||T0||_2                   : 0.890567",
        "sigma_max(DA)              : 0.998942",
        "||Gt||_1 / kappa_1(Gt)     : 0.102579",
        "bound sqrt|1 - ratio|      : 0.947323",
    ]


def test_certify_report_pinned_not_hpd():
    # k = 5, n = 9, linear transfer coarsened on A, omega = 3.5, nu = 2:
    # neither Gamma nor Gamma-tilde is HPD, lambda_min(Gamma) < 0 and
    # ||T0||_2 > 1
    cfg = make_cfg(scheme="linear", coarsen="original", omega=3.5, nu=2)
    assert pinned_lines(cfg) == [
        "Gamma HPD                  : False (not positive definite: pivot failure "
        "at index 9 of D4 block ee+)",
        "Gamma-tilde HPD            : False (not positive definite: pivot failure "
        "at index 8 of D4 block ee+)",
        "quick PD screen            : False (condition 4: determinant not positive)",
        "lambda_min(Gamma)          : -1.37731",
        "||T0||_2                   : 1.54185",
        "sigma_max(DA)              : 1.77136",
        "||Gt||_1 / kappa_1(Gt)     : 0.0100836",
        "bound sqrt|1 - ratio|      : 0.994945",
    ]


def test_certify_singular_gamma_tilde_reports_nan():
    # nu = 0 leaves Gamma-tilde rank-deficient: no ratio or bound, but the
    # rest of the report is computed
    rep = certify(make_cfg(k=5.0, n=9, nu=0))
    assert np.isnan(rep.ratio_table_value) and np.isnan(rep.bound_value)
    assert np.isfinite(rep.norm_T0)


def test_certify_report_text_and_csv():
    rep = certify(make_cfg(omega=3.5))
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
        want = certify(make_cfg(omega=r["omega"], nu=r["nu"])).ratio_table_value
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
    # nu = 3 and 4 at a small omega (k = 10, linear transfer coarsened on the
    # CSL): the coefficient forms are powers of E = L - I, whose
    # coefficients do not cancel in the cell sum; powers of L lost about a
    # digit here (2.0e-13 and 9.0e-14)
    make = lambda w, nu: make_cfg(k=10.0, n=17, scheme="linear", omega=w, nu=nu)
    for r in omega_sweep(make, (1.5,), (3, 4)):
        assert abs(r["ratio"] - dense_ratio(make(1.5, r["nu"]))) <= 2e-14 * r["ratio"], r["nu"]


@pytest.mark.parametrize("change, name", [("k", "A"), ("scheme", "pair")])
def test_omega_sweep_cells_must_share_the_operators(change, name):
    # every cell's Gamma-tilde comes from the first cell's Y and coefficient
    # blocks, so a make_cfg that changes the wavenumber or the transfer
    # scheme between cells is refused, naming the cell; fresh but equal
    # operators (every other sweep test) pass
    def make(omega, nu):
        other = omega == 4.5
        return make_cfg(k=4.0 if change == "k" and other else 5.0,
                        scheme="linear" if change == "scheme" and other else "bezier",
                        omega=omega, nu=nu)

    with pytest.raises(ValueError, match=rf"make_cfg\(4\.5, 2\) has another {name} "):
        omega_sweep(make, (1.5, 4.5), (2,))


def test_omega_sweep_builds_its_factors_once(monkeypatch):
    # a cell only adds up coefficient blocks: the coarse blocks' LUs, the
    # thin block products and the sparse D4 splits are made once per sweep,
    # so 2 and 5 omegas make the same number of each
    counts = dict.fromkeys(("lu_factor_checked", "_hermitian_low_rank", "_mirror_sparse"), 0)
    for name in counts:
        def record(*args, _name=name, _f=getattr(certificate, name)):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(certificate, name, record)
    seen = []
    for omegas in ((1.5, 4.5), (1.5, 2.0, 2.5, 4.5, 7.0)):
        counts.update(dict.fromkeys(counts, 0))
        rows = omega_sweep(lambda w, nu: make_cfg(omega=w, nu=nu), omegas, (1, 2))
        assert len(rows) == 2 * len(omegas)
        seen.append(dict(counts))
    # nu <= 2: Y from the five blocks of A_c and R A (one checked LU call for
    # the five blocks); C_0 and the C_j of E^0 = I, E and E^2 with a thin
    # factor (5 block products each); thirteen sparse splits: A_c, R A, P and
    # P^H P for Y and U_0, E^j + E^jH (the sparse parts of the C_j, which
    # also stand for the C_0j) and -E^jH P for j = 0, 1, 2, and the C_ij of
    # E and E^2
    assert seen[0] == seen[1] == {"lu_factor_checked": 1, "_hermitian_low_rank": 20,
                                  "_mirror_sparse": 13}


@pytest.mark.parametrize("nu", [0, 1, 2, 3, 4])
def test_sweep_coefficients_expand_in_powers_of_E(nu):
    # sum_j a_j (x - 1)^j is the polynomial 1 - (1 - x/omega)^nu of M_nu A at
    # every point x of L's spectrum, and the products follow the a_j.  At
    # nu = 1 the sum for a_0 gives 1/omega bit for bit, as a_1 does, so the
    # sweep's M_1 A is L/omega exactly, not up to 1 - (1 - 1/omega)'s rounding
    degree = 4
    for omega in (1.0, 1.5, 4.5, 7.0):
        coefs = certificate._sweep_coefficients(omega, nu, degree)
        a = np.array(coefs[1:degree + 2])
        assert coefs[0] == 1.0
        assert coefs[degree + 2:] == [a[i] * a[j] for i in range(degree + 1)
                                      for j in range(i, degree + 1)]
        x = np.linspace(0.0, 2.0, 9)
        got = np.polynomial.polynomial.polyval(x - 1.0, a)
        assert np.abs(got - (1.0 - (1.0 - x / omega) ** nu)).max() <= 1e-15
        if nu == 1:
            assert a[0] == a[1] == 1.0 / omega


#: Raw k = 10 optimality-table ratios of the four-block ratio with every
#: cell's Gamma-tilde built from its own M_nu A (17 significant digits)
OPT1_K10 = {(1.5, 1): 0.09247421316143045, (1.5, 2): 0.07038208919974313,
            (2.0, 1): 0.08992499988010406, (2.0, 2): 0.08642200307821102,
            (2.5, 1): 0.08119962941320559, (2.5, 2): 0.09067176043893803,
            (4.5, 1): 0.04870616928614766, (4.5, 2): 0.08274421597342042,
            (7.0, 1): 0.013536464887292507, (7.0, 2): 0.06021483527239285}


def test_opt1_row_k10_pinned():
    row = certificate.opt1_row(10)
    assert row.keys() == OPT1_K10.keys()
    for cell, want in OPT1_K10.items():
        assert abs(row[cell] - want) <= 1e-13 * want, cell


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
        check_dense_limit(FakeBig.shape[0])
    for run in (certify, table_entry, assemble_D,
                lambda cfg: omega_sweep(lambda w, nu: cfg, (4.5,), (1,))):
        with pytest.raises(DenseLimitError):
            run(big)


class FakeBig:
    shape = (3000, 3000)


# --- the D4 basis, built by numpy -------------------------------------------

def mirror_Q1(n):
    """Dense 1-D mirror basis Q1 of ``_mirror_basis``: (x_i +- x_j)/sqrt(2)
    at i and j = n-1-i, and x_m at the centre m of an odd n."""
    Q = np.zeros((n, n))
    if n % 2:
        Q[n // 2, n // 2] = 1.0
    for i in range(n // 2):
        j = n - 1 - i
        Q[i, i] = Q[i, j] = Q[j, i] = np.sqrt(0.5)
        Q[j, j] = -np.sqrt(0.5)
    return Q


def mirror_Q(n):
    """Dense 2-D mirror basis Q = Q1 (x) Q1."""
    return np.kron(mirror_Q1(n), mirror_Q1(n))


def d4_basis(n):
    """(V, label of each row): the dense D4 basis of the n x n grid from the
    rows of the mirror basis Q, in block order ee+, ee-, oo+, oo-, eo, oe
    (labels 0 to 5).  ee+ holds Q_aa and (Q_ab + Q_ba)/sqrt(2), ee- holds
    (Q_ab - Q_ba)/sqrt(2), a < b row-major over the even-even quarter, and
    oo+ and oo- the same over the odd-odd one; eo holds Q_(a, h+b) and oe
    its swap image Q_(h+b, a), a < h = n - n//2 <= h + b."""
    Q = mirror_Q(n).reshape(n, n, n * n)
    h, r = n - n // 2, np.sqrt(0.5)
    rows, label = [], []
    for lab, o, q in ((0, 0, h), (2, h, n - h)):
        pairs = [(a, b) for a in range(q) for b in range(a, q)]
        rows += [Q[o + a, o + b] if a == b else r * (Q[o + a, o + b] + Q[o + b, o + a])
                 for a, b in pairs]
        rows += [r * (Q[o + a, o + b] - Q[o + b, o + a]) for a, b in pairs if a < b]
        label += [lab] * len(pairs) + [lab + 1] * (len(pairs) - q)
    for lab, swap in ((4, False), (5, True)):
        for a in range(h):
            for b in range(n - h):
                rows.append(Q[h + b, a] if swap else Q[a, h + b])
                label.append(lab)
    return np.array(rows), np.array(label)


def d4_block_sizes(n):
    """Sizes of the five D4 blocks ee+, ee-, oo+, oo-, eo on an n x n grid,
    n = 2m + 1."""
    m = (n - 1) // 2
    return [(m + 1) * (m + 2) // 2, (m + 1) * m // 2, m * (m + 1) // 2,
            m * (m - 1) // 2, (m + 1) * m]


def dense_d4_blocks(H, n, n_c=None):
    """The five D4 blocks ee+, ee-, oo+, oo-, eo of V_r H V_c^T, by numpy:
    rows on the n x n grid, columns on the n_c x n_c grid (default n)."""
    (Vr, rows), (Vc, cols) = d4_basis(n), d4_basis(n_c or n)
    VHV = Vr @ H @ Vc.T
    return [VHV[np.ix_(rows == b, cols == b)] for b in range(5)]


def fro(blocks):
    """Frobenius norm of a list of blocks taken together."""
    return np.sqrt(sum(np.linalg.norm(B) ** 2 for B in blocks))


def whole(blocks):
    """The five D4 blocks and eo once more, for the oe block."""
    return blocks + blocks[4:]


def test_d4_basis_is_orthogonal_and_commutes_with_the_square():
    # the numpy basis the tests below build on: orthogonal, and every
    # blockdiag of the five blocks (eo standing for oe) mapped back commutes
    # with the two reflections and the swap
    for n in (3, 6, 9):
        V, label = d4_basis(n)
        assert np.abs(V @ V.T - np.eye(n * n)).max() <= 1e-15
        rng = np.random.default_rng(n)
        blocks = [rng.standard_normal((s, s)) for s in np.bincount(label, minlength=6)[:5]]
        H = V.T @ sla.block_diag(*whole(blocks)) @ V
        grid = np.arange(n * n).reshape(n, n)
        for g in (grid[::-1], grid[:, ::-1], grid.T):
            g = g.ravel()
            assert np.abs(H[np.ix_(g, g)] - H).max() <= 1e-13


# --- the exact symmetry check ------------------------------------------------

def symmetry_maps(n):
    """Node maps of the x-reflection, the y-reflection and the swap of the
    n x n grid."""
    grid = np.arange(n * n).reshape(n, n)
    return [g.ravel() for g in (grid[:, ::-1], grid[::-1], grid.T)]


SYMMETRIES = ("x-reflection", "y-reflection", "swap")


def broken_symmetries(cfg):
    """The (operator, symmetry) pairs under which cfg's A, coarse-build
    operator B, P or R differ from their image, entry for entry, by scipy's
    fancy indexing: an independent reference for ``_d4_invariant``."""
    n, nc = (int(round(np.sqrt(N))) for N in cfg.pair.P.shape)
    fine, coarse = symmetry_maps(n), symmetry_maps(nc)
    ops = {"A": (cfg.A, fine, fine), "B": (cfg.coarse_build_op, fine, fine),
           "P": (cfg.pair.P, fine, coarse), "R": (cfg.pair.R, coarse, fine)}
    return [(op, name) for op, (X, rows, cols) in ops.items()
            for name, r, c in zip(SYMMETRIES, rows, cols) if (X[r][:, c] != X).nnz]


@pytest.mark.parametrize("k", [5, 10, 20, 30])
def test_table_inputs_pass_the_symmetry_check(k):
    # every conv1/opt1 table input, both transfer schemes coarsened on A and
    # on the CSL: no entry of A, the CSL, P or R differs from its image under
    # the two reflections or the swap
    n, A, C = certificate._table_inputs(k)
    for scheme in ("linear", "bezier"):
        pair = build_transfer_2d(n, scheme)
        for B in (A, C):
            cfg = TwoGridConfig(A=A, coarse_build_op=B, pair=pair)
            assert broken_symmetries(cfg) == []
            assert _d4_invariant(cfg)


@pytest.mark.parametrize("k, n", [(1.0, 3), (0.5, 3), (2.0, 5), (5.0, 9), (6.0, 11), (10.0, 17)])
def test_small_grids_pass_the_symmetry_check(k, n):
    # the grids of the CLI examples (n = 3, 5) and of these tests (n = 9, 11,
    # 17), with and without the shift
    for scheme in ("linear", "bezier"):
        for coarsen in ("original", "csl"):
            for beta2 in (0.7, 0.0):
                cfg = make_cfg(k=k, n=n, scheme=scheme, coarsen=coarsen, beta2=beta2)
                assert broken_symmetries(cfg) == []
                assert _d4_invariant(cfg)


def test_smooth_medium_fails_the_symmetry_check():
    # MP 2-B's k(x, y) breaks every symmetry of A and of the CSL; the
    # transfer pair keeps them
    cfg = smooth_medium_cfg()
    assert not _d4_invariant(cfg)
    assert broken_symmetries(cfg) == [(op, name) for op in ("A", "B") for name in SYMMETRIES]


def nudged(X, i, j, g_r, g_c):
    """X (CSR) with the entry (i, j) and its images under the x-reflection,
    the y-reflection and both moved up by one ulp in the real part, given
    the node maps (x-reflection, y-reflection, swap) of its rows and
    columns: still invariant under the reflections, not under the swap."""
    X = X.toarray()
    orbit = {(i, j), (g_r[0][i], g_c[0][j]), (g_r[1][i], g_c[1][j]),
             (g_r[0][g_r[1][i]], g_c[0][g_c[1][j]])}
    v = X[i, j]
    assert v != 0 and all(X[a, b] == v for a, b in orbit)
    for a, b in orbit:
        X[a, b] = np.nextafter(v.real, np.inf) + 1j * v.imag
    return sp.csr_matrix(X)


def swap_broken_cfg(op, omega=3.5, nu=1):
    """k = 5, n = 9, Bezier coarsened on the CSL, with one off-diagonal
    entry of A or of the CSL B (the x-neighbour coupling of nodes
    (x, y) = (1, 0) and (2, 0)) or of P (fine node (1, 0) from coarse node
    (0, 0)) and its reflection images one ulp up."""
    cfg = make_cfg(omega=omega, nu=nu)
    fine, coarse = symmetry_maps(9), symmetry_maps(5)
    if op == "A":
        return replace(cfg, A=nudged(cfg.A, 1, 2, fine, fine))
    if op == "B":
        return replace(cfg, coarse_build_op=nudged(cfg.coarse_build_op, 1, 2, fine, fine))
    pair = TransferPair(P=nudged(cfg.pair.P, 1, 0, fine, coarse), R=cfg.pair.R)
    return replace(cfg, pair=pair)


@pytest.mark.parametrize("op", ["A", "B", "P"])
def test_one_ulp_off_the_swap_takes_the_full_path(op, monkeypatch):
    # one ulp that breaks only the swap fails the check: table_entry,
    # certify and omega_sweep take the one full block of every operator and
    # still match the dense references
    cfg = swap_broken_cfg(op)
    assert broken_symmetries(cfg) == [(op, "swap")]
    assert not _d4_invariant(cfg)
    sizes = []
    norm2 = certificate.norm2_from_gram

    def record_norm2(H):
        sizes.append(H.shape[0])
        return norm2(H)

    monkeypatch.setattr(certificate, "norm2_from_gram", record_norm2)
    T0 = dense_T0(cfg)
    hpd, t0 = table_entry(cfg)
    assert abs(t0 - gram_norm(T0)) <= 1e-13 * gram_norm(T0)
    assert hpd == cholesky_hpd_test(dense_gamma_tilde(cfg))
    rep = certify(cfg)
    assert rep.norm_T0 == t0
    want = gram_norm(np.eye(81) - T0)
    assert abs(rep.sigma_max_DA - want) <= 1e-13 * want
    ratio = dense_ratio(cfg)
    assert abs(rep.ratio_table_value - ratio) <= 1e-12 * ratio
    assert sizes == [81] * 3
    cell, = omega_sweep(lambda w, nu: swap_broken_cfg(op, w, nu), (3.5,), (1,))
    assert abs(cell["ratio"] - ratio) <= 1e-12 * ratio
    assert abs(cell["ratio"] - rep.ratio_table_value) <= 1e-12 * ratio


@pytest.mark.parametrize("k, n", [(5.0, 9), (6.0, 11), (10.0, 17)])
def test_coarse_blocks_are_the_d4_blocks_of_Y(k, n):
    # the five LUs of the A_c blocks solve the D4 blocks V_c Y V_f^T of the
    # dense Y = A_c^-1 R A, which has nothing else (n = 11: an even coarse
    # side)
    cfg = make_cfg(k=k, n=n)
    nc = (n + 1) // 2
    R = cfg.pair.R.toarray()
    Y = np.linalg.solve(R @ cfg.coarse_build_op.toarray() @ cfg.pair.P.toarray(),
                        R @ cfg.A.toarray())
    want = dense_d4_blocks(Y, nc, n)
    got = _coarse_blocks(cfg, cfg.A, _mirror_sparse)
    assert [B.shape for B in got] == [B.shape for B in want]
    for g, w in zip(got, want):
        assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)
    assert abs(fro(whole(want)) - np.linalg.norm(Y)) <= 1e-13 * np.linalg.norm(Y)


def laplacian_cfg(n, perturb=False):
    """The graph Laplacian of the n x n grid as A and coarse-build operator,
    linear transfer: its rows sum to zero, so the constants, the ee+
    direction of A_c, are in the kernel of A_c = R A P.  ``perturb`` moves
    one off-diagonal entry and its reflection images by one ulp."""
    grid = np.arange(n * n).reshape(n, n)
    L = sp.lil_matrix((n * n, n * n), dtype=complex)
    for a, b in [*zip(grid[:, :-1].ravel(), grid[:, 1:].ravel()),
                 *zip(grid[:-1].ravel(), grid[1:].ravel())]:
        L[a, b] = L[b, a] = -1.0
        L[a, a] += 1.0
        L[b, b] += 1.0
    L = L.tocsr()
    if perturb:
        L = nudged(L, 1, 2, symmetry_maps(n), symmetry_maps(n))
    return TwoGridConfig(A=L, coarse_build_op=L, pair=build_transfer_2d(n, "linear"))


@pytest.mark.parametrize("n", [3, 5, 9])
def test_singular_coarse_block_names_the_d4_block(n):
    # the coarse blocks' pivot tolerance is relative to the largest entry
    # over all of A_c's blocks: the singular ee+ block of the Laplacian's A_c
    # (1 x 1, 3 x 3 and 15 x 15) is named, also at n = 3, where that block
    # is all rounding (-3.1e-17); the same A_c through the one full LU (the
    # check fails one ulp off) names no block
    runs = (certify, table_entry, lambda c: omega_sweep(lambda w, nu: c, (4.5,), (1,)))
    cfg = laplacian_cfg(n)
    assert _d4_invariant(cfg)
    msg = r"^coarse operator A_c singular to tolerance at pivot index \d+ of D4 block ee\+$"
    for run in runs:
        with pytest.raises(np.linalg.LinAlgError, match=msg):
            run(cfg)
    cfg = laplacian_cfg(n, perturb=True)
    for run in runs:
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"^coarse operator A_c singular to tolerance at pivot index \d+$"):
            run(cfg)


def test_butterfly_is_the_mirror_basis_and_keeps_frobenius():
    # _mirror_sparse, the sparse butterfly (x + y, x - y)/sqrt(2) of the
    # mirror pairs and then of the swap pairs, on sparse operators that
    # commute with D4, square (A, n = 9) and from a coarse grid to a fine
    # one and back (P and R, n_c = 5 and the even 6): their five blocks are
    # the numpy D4 blocks, and with eo counted twice they keep the Frobenius
    # norm.  An operator that does not commute (variable k) still gets the
    # five numpy blocks
    for n, nc in ((9, 9), (9, 5), (5, 9), (11, 6), (6, 11)):
        pair = make_cfg(k=5.0, n=max(n, nc)).pair
        X = make_cfg(k=5.0, n=n).A if n == nc else pair.P if n > nc else pair.R
        got = _mirror_sparse(X)
        want = dense_d4_blocks(X.toarray(), n, nc)
        assert [B.shape for B in got] == [B.shape for B in want]
        assert fro([g.toarray() - w for g, w in zip(got, want)]) <= 1e-15 * fro(want)
        assert abs(fro([B.toarray() for B in whole(got)]) - sla.norm(X.toarray())) \
            <= 1e-14 * sla.norm(X.toarray())
    X = smooth_medium_cfg().A
    got, want = _mirror_sparse(X), dense_d4_blocks(X.toarray(), 17)
    assert fro([g.toarray() - w for g, w in zip(got, want)]) <= 1e-15 * fro(want)


@pytest.mark.parametrize("diag, off, symmetric", [
    (0.0, 1.0, True),  # no D4 blocks in the dense part: it is all dropped
    (1.0, 0.0, False),  # D4 blocks only: only the sparse part's rest is dropped
    (1.0, 1.0, False),
])
def test_factor_bound_covers_the_dropped_part(diag, off, symmetric):
    # _mirror_sparse keeps the five D4 blocks of a factor and bounds nothing
    # it drops: the exact symmetry check is what covers that part.  A
    # synthetic prolongation (fine rows on n = 9, coarse columns on
    # n_c = 5), dense with its D4 blocks scaled by diag (oe equal to eo) and
    # the rest by off, plus a sparse part that commutes with the square's
    # symmetries (P) or a random one.  The kept blocks are what they claim,
    # the part of V_f X V_c^T outside them is not zero, and the check
    # refuses X
    n, nc = 9, 5
    rng = np.random.default_rng(9)
    (Vf, fine), (Vc, coarse) = d4_basis(n), d4_basis(nc)
    same = fine[:, None] == coarse[None, :]
    E = (rng.standard_normal(same.shape) + 1j * rng.standard_normal(same.shape)) \
        * np.where(same, diag, off)
    eo, oe = np.ix_(fine == 4, coarse == 4), np.ix_(fine == 5, coarse == 5)
    E[oe] = E[eo] + off * rng.standard_normal(E[eo].shape)
    cfg = make_cfg(n=n)
    S = cfg.pair.P if symmetric else sp.random(n * n, nc * nc, density=0.05,
                                               random_state=rng, format="csr")
    X = sp.csr_matrix(Vf.T @ E @ Vc) + S
    norm = sla.norm(X.toarray())
    got = [B.toarray() for B in _mirror_sparse(X)]
    S_b = dense_d4_blocks(S.toarray(), n, nc)
    for p in range(5):
        want = E[np.ix_(fine == p, coarse == p)] + S_b[p]
        assert np.linalg.norm(got[p] - want) <= 1e-14 * norm
    dropped = np.linalg.norm(Vf @ X.toarray() @ Vc.T - sla.block_diag(*whole(got)))
    assert dropped > 1e-3 * norm
    pair = TransferPair(P=X, R=X.conj().T.tocsr())
    assert not _d4_invariant(replace(cfg, pair=pair))


# --- ||.||_2 from the five D4 blocks ------------------------------------------

def record_checks(monkeypatch, checks):
    """Append the outcome of every symmetry check to ``checks``."""
    check = certificate._d4_invariant

    def record_check(cfg):
        ok = check(cfg)
        checks.append(ok)
        return ok

    monkeypatch.setattr(certificate, "_d4_invariant", record_check)


@pytest.fixture
def norm_calls(monkeypatch):
    """Record the symmetry checks and the Gram sizes handed to ``norm2_from_gram``."""
    calls = {"checks": [], "sizes": []}
    norm2 = certificate.norm2_from_gram
    record_checks(monkeypatch, calls["checks"])

    def record_norm2(H):
        calls["sizes"].append(H.shape[0])
        return norm2(H)

    monkeypatch.setattr(certificate, "norm2_from_gram", record_norm2)
    return calls


def gram_norm(X):
    """sqrt(lambda_max(X^H X)) from numpy's full spectrum of the dense Gram."""
    return np.sqrt(np.linalg.eigvalsh(X.conj().T @ X).max())


@pytest.mark.parametrize("nu", [1, 3])
@pytest.mark.parametrize("coarsen", ["csl", "original"])
@pytest.mark.parametrize("scheme", ["linear", "bezier"])
@pytest.mark.parametrize("k", [5, 6, 8, 10])
def test_grid_norm2_block_path_matches_dense(k, scheme, coarsen, nu, norm_calls):
    # constant k: table_entry's ||T0||_2 and certify's sigma_max(DA) come
    # from the five D4 blocks and match the dense Gram's spectrum.  k = 6
    # and 8 (n = 11 and 15) have an even coarse side
    n = nodes_for_wavenumber(k)
    cfg = make_cfg(k=float(k), n=n, scheme=scheme, coarsen=coarsen, nu=nu)
    T0 = dense_T0(cfg)
    N = T0.shape[0]
    t0 = table_entry(cfg)[1]
    rep = certify(cfg)
    assert abs(t0 - gram_norm(T0)) <= 1e-13 * gram_norm(T0)
    assert rep.norm_T0 == t0
    want = gram_norm(np.eye(N) - T0)
    assert abs(rep.sigma_max_DA - want) <= 1e-13 * want
    # one passed check each (table_entry, certify), and only the five
    # blocks of each norm's form (table_entry: Gamma; certify: (DA)^H DA
    # and Gamma) were solved
    assert norm_calls["checks"] == [True, True]
    assert norm_calls["sizes"] == d4_block_sizes(n) * 3


def smooth_medium_cfg(omega=4.5, nu=1, scheme="bezier", coarsen="csl"):
    """MP 2-B, smooth medium with k from 5 to 10 on n = 17, Bezier/CSL by default."""
    spec = ProblemSpec(kind="variable-k", k_min=5.0, k_max=10.0, profile="smooth",
                       seed=1, nodes_per_dim=17,
                       shift=ShiftSpec(kind="fixed", beta2=0.7))
    f = build_wavenumber_field(spec)
    A = assemble_helmholtz(spec, f, shift_on=False)
    B = assemble_helmholtz(spec, f, shift_on=True) if coarsen == "csl" else A
    return TwoGridConfig(A=A, coarse_build_op=B, pair=build_transfer_2d(17, scheme),
                         omega=omega, nu=nu)


def test_grid_norm2_variable_k_takes_full_path(norm_calls):
    # MP 2-B breaks the symmetries of the square: the check fails and the
    # whole Gram is solved, still exactly
    cfg = smooth_medium_cfg()
    T0 = dense_T0(cfg)
    rep = certify(cfg)
    assert abs(rep.norm_T0 - gram_norm(T0)) <= 1e-13 * gram_norm(T0)
    want = gram_norm(np.eye(17 * 17) - T0)
    assert abs(rep.sigma_max_DA - want) <= 1e-13 * want
    assert norm_calls["checks"] == [False]
    assert norm_calls["sizes"] == [17 * 17, 17 * 17]


# --- 1 / ||Gamma-tilde^-1||_1 from the five D4 blocks -----------------------

@pytest.fixture
def inverse_calls(monkeypatch):
    """Record the symmetry checks, the sizes handed to ``inverse`` and the LU inputs."""
    calls = {"checks": [], "sizes": [], "lu": []}
    inv, lu = certificate.inverse, linalg.lu_factor_checked
    record_checks(monkeypatch, calls["checks"])

    def record_inverse(M, what, *factor):
        calls["sizes"].append(M.shape[0])
        return inv(M, what, *factor)

    def record_lu(M, what):
        calls["lu"].append((what, M.shape[0]))
        return lu(M, what)

    monkeypatch.setattr(certificate, "inverse", record_inverse)
    monkeypatch.setattr(linalg, "lu_factor_checked", record_lu)
    return calls


def dense_ratio(cfg):
    """1 / ||Gamma-tilde^-1||_1 from numpy's inverse of the dense Gamma-tilde."""
    return 1.0 / np.abs(np.linalg.inv(dense_gamma_tilde(cfg))).sum(axis=0).max()


def sweep_and_certify_ratio(make, omega, nu, calls):
    """The one-cell ``omega_sweep`` ratio and the ``certify`` ratio of make(omega, nu),
    with the outcome of the symmetry check and the inverted sizes of each."""
    cell, = omega_sweep(make, (omega,), (nu,))
    sweep = cell["ratio"], calls["checks"][-1], calls["sizes"][:]
    calls["sizes"].clear()
    rep = certify(make(omega, nu))
    return sweep, (rep.ratio_table_value, calls["checks"][-1], calls["sizes"][:])


@pytest.mark.parametrize("nu", [1, 2])
@pytest.mark.parametrize("coarsen", ["csl", "original"])
@pytest.mark.parametrize("scheme", ["linear", "bezier"])
@pytest.mark.parametrize("k", [5, 6, 8, 10])
def test_ratio_block_path_matches_dense_inverse(k, scheme, coarsen, nu, inverse_calls):
    # constant k, the even coarse sides of k = 6 and 8 included:
    # omega_sweep's and certify's ratio invert only the five D4 blocks, and
    # match numpy's inverse of the dense Gamma-tilde
    n = nodes_for_wavenumber(k)

    def make(omega, nu):
        return make_cfg(k=float(k), n=n, scheme=scheme, coarsen=coarsen,
                        omega=omega, nu=nu)

    want = dense_ratio(make(4.5, nu))
    for got, check, sizes in sweep_and_certify_ratio(make, 4.5, nu, inverse_calls):
        assert abs(got - want) <= 1e-12 * want
        assert check
        assert sizes == d4_block_sizes(n)


def test_ratio_variable_k_takes_full_path(inverse_calls):
    # MP 2-B: the check fails and certify inverts the whole Gamma-tilde (the
    # sweep refuses such a configuration:
    # test_full_form_when_the_factors_do_not_split)
    want = dense_ratio(smooth_medium_cfg())
    got = certify(smooth_medium_cfg()).ratio_table_value
    assert abs(got - want) <= 1e-12 * want
    assert inverse_calls["checks"] == [False]
    assert inverse_calls["sizes"] == [17 * 17]


@pytest.mark.parametrize("centre", [0.0, 50.0])
def test_mirror_norm1_matches_dense(centre):
    # ||V^T blockdiag(B_b, eo once more) V||_1 of five random blocks from
    # the columns of one eighth of the square against numpy's over every
    # column: n = 3 (an empty oo- block), 6 (no centre node) and 9.
    # centre = 50 puts the largest column sum on the last row of ee+, the
    # centre node of an odd side, whose basis coefficient is 1
    for n in (3, 6, 9):
        V, label = d4_basis(n)
        rng = np.random.default_rng(n)
        blocks = [rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
                  for s in np.bincount(label, minlength=6)[:5]]
        blocks[0][:, -1] += centre
        want = np.abs(V.T @ sla.block_diag(*whole(blocks)) @ V).sum(axis=0).max()
        assert np.isclose(certificate._mirror_norm1(blocks), want, rtol=1e-13, atol=0.0), n


def d4_symmetric(n, seed):
    """A random complex n^2 x n^2 matrix that commutes with the eight
    symmetries of the n x n grid (reflections and the swap x <-> y)."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    grid = np.arange(n * n).reshape(n, n)
    images = [g.ravel() for t in (grid, grid.T)
              for g in (t, t[::-1], t[:, ::-1], t[::-1, ::-1])]
    return sum(M[np.ix_(g, g)] for g in images) / 8.0


@pytest.mark.parametrize("n", [9, 11])
@pytest.mark.parametrize("centre", [0.0, 50.0])
def test_mirror_norm1_from_swap_blocks_matches_dense(n, centre):
    # ||M||_1 of a dense matrix that commutes with D4 from its five D4
    # blocks, the swap halves ee+/ee-/oo+/oo- and eo, against numpy's over
    # every column.  centre = 50 puts the largest column sum on the centre
    # node, which lies on the diagonal of the eighth of columns
    M = d4_symmetric(n, seed=n + 1)
    M[:, (n * n) // 2] += centre
    want = np.abs(M).sum(axis=0).max()
    got = certificate._mirror_norm1(dense_d4_blocks(M, n))
    assert abs(got - want) <= 1e-13 * want


def test_ratio_non_hpd_block_goes_through_lu(inverse_calls):
    # k = 5, Bezier coarsened on A, omega = 4.5, nu = 1: Gamma-tilde is not
    # HPD; its ee+ and ee- blocks (15 x 15 and 10 x 10) fail Cholesky and
    # are inverted by LU, the other three D4 blocks by zpotri on their
    # verdict's factor
    cfg = make_cfg(coarsen="original", omega=4.5, nu=1)
    assert not certify(cfg).hpd_gamma_tilde.ok
    inverse_calls["lu"].clear()
    inverse_calls["sizes"].clear()
    cell, = omega_sweep(lambda w, nu: make_cfg(coarsen="original", omega=w, nu=nu),
                        (4.5,), (1,))
    assert inverse_calls["checks"][-1]
    assert inverse_calls["sizes"] == d4_block_sizes(9)
    assert inverse_calls["lu"] == [("Gamma-tilde", 15), ("Gamma-tilde", 10)]
    want = dense_ratio(cfg)
    assert abs(cell["ratio"] - want) <= 1e-12 * want


def gamma_blocks(cfg):
    """The blocks of Gamma-tilde (W = P) and of Gamma (W = S P) under the
    split the symmetry check picks."""
    split = certificate._splitter(cfg)
    Y = _coarse_blocks(cfg, cfg.A, split)
    MA = _smoothed(cfg)
    MAh, Gs = _sparse_gamma(MA)
    P = cfg.pair.P
    return [_form(split(Gs), _thin_blocks(MAh, W, Y, split), Y) for W in (P, P - MA @ P)]


@pytest.mark.parametrize("n", [3, 9, 11, 33])
def test_d4_blocks_match_dense(n):
    # Gamma-tilde (Bezier coarsened on the CSL, omega = 3.5, nu = 1) from
    # the blocks of the sparse operators: the five D4 blocks have the basis
    # sizes (153/136/136/120/272 at n = 33; the 3 x 3 grid has an empty oo-
    # block, n = 11 an even coarse side), their spectra with eo counted
    # twice are the dense form's, and 1 / ||Gt^-1||_1 from them is numpy's
    cfg = make_cfg(k={3: 1.0, 9: 5.0, 11: 6.0, 33: 20.0}[n], n=n, omega=3.5)
    blocks, _ = gamma_blocks(cfg)
    assert [B.shape[0] for B in blocks] == d4_block_sizes(n)
    if n == 33:
        assert d4_block_sizes(n) == [153, 136, 136, 120, 272]
    Gt = dense_gamma_tilde(cfg)
    lam = np.linalg.eigvalsh(Gt)
    got = np.sort(np.concatenate([np.linalg.eigvalsh(B) for B in whole(blocks)]))
    assert np.abs(got - lam).max() <= 1e-13 * np.abs(lam).max()
    hpd, factored = _hpd_verdict(blocks)
    assert hpd.ok
    want = 1.0 / np.abs(np.linalg.inv(Gt)).sum(axis=0).max()
    assert abs(certificate._ratio(blocks, factored) - want) <= 1e-12 * want


def test_hpd_verdict_holds_every_block_to_one_floor():
    # five HPD blocks, one of them pure rounding next to the others' unit
    # diagonal: on its own scale it is HPD, against the shared floor (1e-12
    # times the largest diagonal entry over all blocks) it is semidefinite
    blocks = [np.eye(m, dtype=complex) for m in (4, 3, 3, 2)]
    blocks.insert(2, 1e-20 * np.eye(3, dtype=complex))
    assert all(linalg.cholesky_hpd_test(B) for B in blocks)
    hpd, factored = _hpd_verdict(blocks)
    assert not hpd.ok
    assert hpd.reason == "semidefinite to tolerance at pivot index 0 of D4 block oo+"
    assert [bool(v) for v, _ in factored] == [True, True, False, True, True]
    blocks[2] = 1e-10 * np.eye(3, dtype=complex)  # above the floor: HPD
    assert _hpd_verdict(blocks)[0].ok


@pytest.mark.parametrize("k, n", [(5.0, 9), (6.0, 11), (10.0, 17)])
def test_node_form_is_the_dense_gamma_tilde(k, n):
    # the quick screen's Gamma-tilde, V^T blockdiag(K_b) V rebuilt stripe by
    # stripe from the five D4 blocks with eo counted twice, is the dense
    # numpy form (n = 11: an even coarse side); variable k's one full block
    # is handed on as it is
    cfg = make_cfg(k=k, n=n)
    blocks, _ = gamma_blocks(cfg)
    H = certificate._node_form(blocks)
    assert rel_fro(H, dense_gamma_tilde(cfg)) <= 1e-13
    assert _hermiticity_residual(H) <= 1e-15
    full, _ = gamma_blocks(smooth_medium_cfg())
    assert len(full) == 1 and certificate._node_form(full) is full[0]


def test_quick_screen_matches_the_dense_screen():
    # certify's quick screen reads the Gamma-tilde rebuilt from its blocks:
    # its verdict and reason are those of the screen on the dense numpy
    # Gamma-tilde, over k in {5, 10}, both schemes and coarsenings and
    # nu = 0 .. 3 (32 configurations, which fail on each of conditions 1, 2
    # and 4 and pass)
    got, want = [], []
    for k in (5, 10):
        for scheme in ("linear", "bezier"):
            for coarsen in ("csl", "original"):
                for nu in range(4):
                    cfg = make_cfg(k=float(k), n=nodes_for_wavenumber(k), scheme=scheme,
                                   coarsen=coarsen, nu=nu)
                    got.append(certify(cfg).quick_screen)
                    want.append(quick_pd_screen(dense_gamma_tilde(cfg)))
    assert got == want
    assert {v.reason[:11] for v in want} == {"pass", "condition 1", "condition 2",
                                             "condition 4"}


# --- Gamma forms from the five D4 blocks of their thin factors --------------

@pytest.mark.parametrize("nu", [1, 2])
@pytest.mark.parametrize("coarsen", ["csl", "original"])
@pytest.mark.parametrize("scheme", ["linear", "bezier"])
@pytest.mark.parametrize("k", [5, 6, 8, 10])
def test_gamma_blocks_match_dense_form(k, scheme, coarsen, nu, monkeypatch):
    # Gamma-tilde (W = P) and Gamma (W = S P) from the blocks of the sparse
    # operators against the D4 blocks of the dense numpy forms; the check
    # passes, on the even coarse sides of k = 6 and 8 too
    checks = []
    record_checks(monkeypatch, checks)
    n = nodes_for_wavenumber(k)
    cfg = make_cfg(k=float(k), n=n, scheme=scheme, coarsen=coarsen, nu=nu)
    DA = np.eye(n * n) - dense_T0(cfg)
    dense = (dense_gamma_tilde(cfg), DA.conj().T + DA - DA.conj().T @ DA)
    for got, form in zip(gamma_blocks(cfg), dense):
        want = dense_d4_blocks(form, n)
        assert [B.shape for B in got] == [B.shape for B in want]
        assert fro([g - w for g, w in zip(got, want)]) <= 1e-13 * np.linalg.norm(form)
    assert checks == [True]


@pytest.fixture
def products(monkeypatch):
    """Record the factor shapes of every low-rank product."""
    shapes = []
    low_rank = certificate._hermitian_low_rank

    def record(Hs, W, Y):
        shapes.append((W.shape, Y.shape))
        return low_rank(Hs, W, Y)

    monkeypatch.setattr(certificate, "_hermitian_low_rank", record)
    return shapes


def test_block_path_makes_no_full_product(products, monkeypatch):
    # k = 10, n = 17 (N = 289), n_c = 9 (N_c = 81): omega_sweep's four
    # low-rank coefficient forms (C_0 and those of E^0, E, E^2 at nu <= 2),
    # built once for its four cells, and table_entry's Gamma-tilde (for its
    # verdict) and Gamma (for ||T0||_2) multiply only the five D4 factor
    # blocks, and Y is solved block by block: no LU solve has an N-column
    # right-hand side.  certify takes sigma_max(DA), Gamma's residual,
    # verdict and ||T0||_2, Gamma-tilde's verdict and ratio, and the quick
    # screen's node-basis Gamma-tilde from the blocks too: no N x N_c x N
    # product, no dense Y and no (DA)^H DA is formed
    rhs = []
    lu_solve = sla.lu_solve

    def record_lu_solve(lu, b, *args, **kw):
        rhs.append(b.shape)
        return lu_solve(lu, b, *args, **kw)

    monkeypatch.setattr(sla, "lu_solve", record_lu_solve)
    blocks = [((45, 15), (15, 45)), ((36, 10), (10, 36)), ((36, 10), (10, 36)),
              ((28, 6), (6, 28)), ((72, 20), (20, 72))]
    solves = [(15, 45), (10, 36), (10, 36), (6, 28), (20, 72)]
    omega_sweep(lambda w, nu: make_cfg(k=10.0, n=17, omega=w, nu=nu), (1.5, 4.5), (1, 2))
    assert products == blocks * 4
    assert rhs == solves
    products.clear()
    rhs.clear()
    table_entry(make_cfg(k=10.0, n=17))
    assert products == blocks * 2
    assert rhs == solves
    products.clear()
    rhs.clear()
    certify(make_cfg(k=10.0, n=17))
    assert products == blocks * 3
    assert rhs == solves


@pytest.mark.parametrize("case", ["variable-k", "even coarse side"])
def test_full_form_when_the_factors_do_not_split(case, products, monkeypatch):
    # a smooth variable-k medium fails the symmetry check: table_entry,
    # omega_sweep and certify form the full Gamma forms.  On n = 11 the
    # coarse grid has n_c = 6 and no centre node, and the operators still
    # split into the five D4 blocks.  Both match the dense references, and
    # the sweep's ratio matches certify's
    checks = []
    record_checks(monkeypatch, checks)
    make = smooth_medium_cfg if case == "variable-k" else (
        lambda omega=4.5, nu=1: make_cfg(n=11, omega=omega, nu=nu))
    cfg = make()
    N, Nc = cfg.A.shape[0], cfg.pair.P.shape[1]
    t0 = table_entry(cfg)[1]
    want = gram_norm(dense_T0(cfg))
    assert abs(t0 - want) <= 1e-13 * want
    cell, = omega_sweep(make, (4.5,), (1,))
    ratio = dense_ratio(cfg)
    assert abs(cell["ratio"] - ratio) <= 1e-12 * ratio
    assert abs(cell["ratio"] - certify(cfg).ratio_table_value) <= 1e-12 * ratio
    # table_entry's check, the sweep's, then certify's; the full products:
    # table_entry's Gamma-tilde and Gamma, the sweep's C_0 and C_j (j = 0, 1),
    # and certify's (DA)^H DA, Gamma and Gamma-tilde
    if case == "variable-k":
        assert checks == [False] * 3
        assert products.count(((N, Nc), (Nc, N))) == 8
    else:
        assert checks == [True] * 3
        assert products.count(((N, Nc), (Nc, N))) == 0
        assert Nc == 36


# --- HPD verdicts from the D4 blocks -----------------------------------------

def verdict_pairs(cfg):
    """(blocks, block verdict, full-form verdict) of Gamma-tilde and of Gamma."""
    Y = full_Y(cfg)
    MA, P = _smoothed(cfg), cfg.pair.P
    for W, blocks in zip((P, P - MA @ P), gamma_blocks(cfg)):
        yield blocks, _hpd_verdict(blocks)[0], cholesky_hpd_test(full_form(MA, W, Y))


def test_block_verdicts_match_full_verdicts():
    # V is orthogonal, so a form is HPD exactly when its five D4 blocks
    # are: Gamma-tilde and Gamma over k in {5, 10}, both schemes and
    # coarsenings, omega in {1.5, 3.5, 4.5} and nu in {1, 2} (96 forms)
    oks, mismatches = [], []
    for k in (5, 10):
        for scheme in ("linear", "bezier"):
            for coarsen in ("csl", "original"):
                for omega in (1.5, 3.5, 4.5):
                    for nu in (1, 2):
                        cfg = make_cfg(k=float(k), n=nodes_for_wavenumber(k), scheme=scheme,
                                       coarsen=coarsen, omega=omega, nu=nu)
                        for blocks, got, want in verdict_pairs(cfg):
                            assert len(blocks) == 5
                            oks.append(want.ok)
                            if got.ok != want.ok:
                                mismatches.append((k, scheme, coarsen, omega, nu))
    assert mismatches == []
    assert len(oks) == 96 and 0 < sum(oks) < 96


@pytest.mark.parametrize("scheme, coarsen, ok", [("bezier", "csl", True),
                                                 ("linear", "original", False)])
def test_variable_k_verdict_is_the_full_verdict(scheme, coarsen, ok):
    # the failed check leaves one block, the full form: its verdict, the
    # reason with the pivot index of a node included, is the full form's
    # own, byte for byte
    for blocks, got, want in verdict_pairs(smooth_medium_cfg(3.5, 2, scheme, coarsen)):
        assert len(blocks) == 1
        assert got == want and got.ok == ok


@pytest.mark.parametrize("make, sizes", [(lambda: make_cfg(omega=3.5), d4_block_sizes(9)),
                                         (smooth_medium_cfg, [17 * 17])])
def test_certify_factors_each_block_once(make, sizes, monkeypatch):
    # certify's verdicts hand their Cholesky factors on to the ratio: zpotrf
    # runs once on each block of Gamma and once on each block of an HPD
    # Gamma-tilde (the five D4 blocks for constant k, the full form for
    # variable k), and zpotri once on each of Gamma-tilde's
    calls = {"zpotrf": [], "zpotri": []}
    for name in calls:
        def record(M, *args, _name=name, _f=getattr(sla.lapack, name), **kw):
            calls[_name].append(M.shape[0])
            return _f(M, *args, **kw)
        monkeypatch.setattr(sla.lapack, name, record)
    assert certify(make()).hpd_gamma_tilde.ok
    assert calls == {"zpotrf": sizes * 2, "zpotri": sizes}


@pytest.mark.parametrize("k, n", [(5, 9), (5, 11), (10, 17), (20, 33)])
def test_mirror_basis_built_once_and_read_only(k, n, monkeypatch):
    # the cached sparse D4 basis of side n is the numpy one, its row blocks
    # and their transposes are its rows in block order, it gives the blocks
    # of a fresh build bit for bit (n = 11 has an even coarse side), and
    # cannot be written to
    MA = _smoothed(make_cfg(k=float(k), n=n))
    Hs = (MA + MA.conj().T).tocsr()
    cached = certificate._mirror_sparse(Hs)
    V, rows, cols = certificate._mirror_basis(n)
    assert certificate._mirror_basis(n)[0] is V
    want, want_label = d4_basis(n)
    assert np.abs(V.toarray() - want).max() <= 1e-16
    assert [B.shape[0] for B in rows] == np.bincount(want_label).tolist()
    assert np.array_equal(sp.vstack(rows).toarray(), V.toarray())
    assert all(np.array_equal(B.T.toarray(), Bt.toarray()) for B, Bt in zip(rows, cols))
    for B in (V, *rows, *cols):
        for a in (B.data, B.indices, B.indptr):
            assert not a.flags.writeable
    with pytest.raises(ValueError):
        V.data[0] = 1.0
    monkeypatch.setattr(certificate, "_mirror_basis", certificate._mirror_basis.__wrapped__)
    fresh = certificate._mirror_sparse(Hs)
    assert len(cached) == len(fresh) == 5
    for a, b in zip(cached, fresh):
        assert np.array_equal(a.toarray(), b.toarray())
    assert [B.shape[0] for B in fresh] == d4_block_sizes(n)


def test_benchmark_entry_points_exist():
    # perfbench/harness.py calls or traces these names on helmmg.certificate,
    # and makes these calls into helmmg: each must still bind to the
    # signature, with the same positional and keyword arguments
    for name in ("TwoGridConfig", "table_entry", "omega_sweep", "assemble_D",
                 "smoother_correction", "norm1"):
        assert callable(getattr(certificate, name, None)), name
    calls = [(certificate.TwoGridConfig, (),
              dict(A=None, coarse_build_op=None, pair=None, omega=None, nu=None)),
             (certificate.table_entry, (None,), {}),
             (certificate.omega_sweep, (None, None, None), {}),
             (certificate.assemble_D, (None,), {}),
             (build_hierarchy, (None,), dict(scheme=None, coarsen_on=None))]
    for f, args, kwargs in calls:
        inspect.signature(f).bind(*args, **kwargs)
    # the harness gates each opt1 cell on these keys of a sweep row
    rows = certificate.omega_sweep(lambda omega, nu: make_cfg(omega=omega, nu=nu),
                                   [3.5], [1])
    assert {"omega", "nu", "ratio", "flag"} <= set(rows[0])
