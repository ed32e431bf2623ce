import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from helmmg import certificate, linalg
from helmmg.certificate import (
    MIRROR_TOL,
    TwoGridConfig,
    _butterfly,
    _coarse_correction,
    _form_blocks,
    _gamma_factors,
    _gamma_form,
    _gate,
    _hpd_verdict,
    _mirror_blocks,
    _mirror_factor,
    _mirror_sparse,
    _smoothed,
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
    Y = _coarse_correction(cfg, cfg.A)
    MA = _smoothed(cfg)
    P = cfg.pair.P
    Gt = _gamma_form(MA, P, Y)
    assert rel_fro(Gt, dense_gamma_tilde(cfg)) <= 1e-13
    assert _hermiticity_residual(Gt) <= 1e-15
    T0 = dense_T0(cfg)
    I = np.eye(T0.shape[0])
    DA = I - T0
    G = _gamma_form(MA, P - MA @ P, Y)
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
    # a cell only adds up coefficient blocks: the dense butterflies, the
    # thin factor products and the sparse mirror splits are made once per
    # sweep, so 2 and 5 omegas make the same number of each
    counts = dict.fromkeys(("_butterfly", "_hermitian_low_rank", "_mirror_sparse"), 0)
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
    # nu <= 2: C_0 and the C_j of E^0 = I, E and E^2 with a thin factor (Y
    # and four U butterflied, 5 D4 block products each), and six sparse
    # splits: I + I, E + E^H and E^2 + E^2H (the sparse parts of the C_j,
    # which also stand for the C_0j) and the C_ij of E and E^2
    assert seen[0] == seen[1] == {"_butterfly": 5, "_hermitian_low_rank": 20,
                                  "_mirror_sparse": 6}


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
    """Dense 1-D butterfly of ``_butterfly``: (x_i +- x_j)/sqrt(2) at i and
    j = n-1-i, and x_m at the centre m of an odd n."""
    Q = np.zeros((n, n))
    if n % 2:
        Q[n // 2, n // 2] = 1.0
    for i in range(n // 2):
        j = n - 1 - i
        Q[i, i] = Q[i, j] = Q[j, i] = np.sqrt(0.5)
        Q[j, j] = -np.sqrt(0.5)
    return Q


def mirror_Q(n):
    """Dense 2-D butterfly Q = Q1 (x) Q1 of ``_butterfly``."""
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


def dense_d4_blocks(H, n):
    """The five D4 blocks ee+, ee-, oo+, oo-, eo of V H V^T, by numpy."""
    V, label = d4_basis(n)
    VHV = V @ H @ V.T
    return [VHV[np.ix_(label == b, label == b)] for b in range(5)]


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


# --- ||.||_2 from the five D4 blocks ------------------------------------------

def record_gates(monkeypatch, ratios):
    """Append the ratio of every D4 gate (factor and sweep cell gates
    alike) to ``ratios``."""
    gate = certificate._gate

    def record_gate(blocks, dropped):
        ratio = gate(blocks, dropped)
        ratios.append(ratio)
        return ratio

    monkeypatch.setattr(certificate, "_gate", record_gate)


@pytest.fixture
def norm_calls(monkeypatch):
    """Record the gate ratios and the Gram sizes handed to ``norm2_from_gram``."""
    calls = {"ratios": [], "sizes": []}
    norm2 = certificate.norm2_from_gram
    record_gates(monkeypatch, calls["ratios"])

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
    # one gate per form (table_entry: Gamma-tilde and Gamma; certify:
    # (DA)^H DA, Gamma and Gamma-tilde), each passed, and only the five
    # blocks of each norm's form were solved
    assert len(norm_calls["ratios"]) == 5
    assert max(norm_calls["ratios"]) <= MIRROR_TOL
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
    # MP 2-B breaks the symmetries of the square: every gate fails and the
    # whole Gram is solved, still exactly
    cfg = smooth_medium_cfg()
    T0 = dense_T0(cfg)
    rep = certify(cfg)
    assert abs(rep.norm_T0 - gram_norm(T0)) <= 1e-13 * gram_norm(T0)
    want = gram_norm(np.eye(17 * 17) - T0)
    assert abs(rep.sigma_max_DA - want) <= 1e-13 * want
    assert min(norm_calls["ratios"]) > 1e3 * MIRROR_TOL
    assert norm_calls["sizes"] == [17 * 17, 17 * 17]


def test_butterfly_is_the_mirror_basis_and_keeps_frobenius():
    n = 9
    rng = np.random.default_rng(3)
    H = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    Q = mirror_Q(n)
    got = H.copy()
    _, parities, cols = _butterfly(got)
    even, odd = slice(0, 5), slice(5, 9)
    assert parities == cols == [(even, even), (even, odd), (odd, even), (odd, odd)]
    assert rel_fro(got, Q @ H @ Q.T) <= 1e-14
    assert abs(np.linalg.norm(got) - np.linalg.norm(H)) <= 1e-14 * np.linalg.norm(H)
    # a thin factor: fine rows on n = 9, coarse columns on n_c = 5
    X = H[:, :25].copy()
    _, rows, cols = _butterfly(X)
    assert rows == parities
    assert cols == [(slice(0, 3), slice(0, 3)), (slice(0, 3), slice(3, 5)),
                    (slice(3, 5), slice(0, 3)), (slice(3, 5), slice(3, 5))]
    assert rel_fro(X, Q @ H[:, :25] @ mirror_Q(5).T) <= 1e-14
    # an even coarse side: fine rows on n = 11, coarse columns on n_c = 6,
    # which has no centre node; a second butterfly undoes the first
    Z = rng.standard_normal((121, 36)) + 1j * rng.standard_normal((121, 36))
    X = Z.copy()
    _, rows, cols = _butterfly(X)
    assert rows == [(a, b) for a in (slice(0, 6), slice(6, 11))
                    for b in (slice(0, 6), slice(6, 11))]
    assert cols == [(a, b) for a in (slice(0, 3), slice(3, 6))
                    for b in (slice(0, 3), slice(3, 6))]
    assert rel_fro(X, mirror_Q(11) @ Z @ mirror_Q(6).T) <= 1e-14
    assert abs(np.linalg.norm(X) - np.linalg.norm(Z)) <= 1e-14 * np.linalg.norm(Z)
    _butterfly(X)
    assert rel_fro(X, Z) <= 1e-14


# --- 1 / ||Gamma-tilde^-1||_1 from the five D4 blocks -----------------------

@pytest.fixture
def inverse_calls(monkeypatch):
    """Record the gate ratios, the sizes handed to ``inverse`` and the LU inputs."""
    calls = {"ratios": [], "sizes": [], "lu": []}
    inv, lu = certificate.inverse, linalg.lu_factor_checked
    record_gates(monkeypatch, calls["ratios"])

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
    with the last gate ratio and the inverted sizes of each."""
    cell, = omega_sweep(make, (omega,), (nu,))
    sweep = cell["ratio"], calls["ratios"][-1], calls["sizes"][:]
    calls["sizes"].clear()
    rep = certify(make(omega, nu))
    # certify's last gate is Gamma-tilde's: the two norms come first
    return sweep, (rep.ratio_table_value, calls["ratios"][-1], calls["sizes"][:])


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
    for got, gate, sizes in sweep_and_certify_ratio(make, 4.5, nu, inverse_calls):
        assert abs(got - want) <= 1e-12 * want
        assert gate <= MIRROR_TOL
        assert sizes == d4_block_sizes(n)


def test_ratio_variable_k_takes_full_path(inverse_calls):
    # MP 2-B: the gate fails and certify inverts the whole Gamma-tilde (the
    # sweep refuses such a configuration:
    # test_full_form_when_the_factors_do_not_split)
    want = dense_ratio(smooth_medium_cfg())
    got = certify(smooth_medium_cfg()).ratio_table_value
    assert abs(got - want) <= 1e-12 * want
    assert inverse_calls["ratios"][-1] > 1e3 * MIRROR_TOL
    assert inverse_calls["sizes"] == [17 * 17]


@pytest.mark.parametrize("centre", [0.0, 50.0])
def test_mirror_norm1_matches_dense(centre):
    # ||V^T blockdiag(B_b, eo once more) V||_1 of five random blocks from
    # the columns of one eighth of the square against numpy's over every
    # column: n = 3 (an empty oo- block), 6 (no centre node) and 9.
    # centre = 50 puts the largest column sum on the last row of ee+, the
    # centre node of an odd side, whose butterfly coefficient is 1
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
    assert inverse_calls["ratios"][-1] <= MIRROR_TOL
    assert inverse_calls["sizes"] == d4_block_sizes(9)
    assert inverse_calls["lu"] == [("Gamma-tilde", 15), ("Gamma-tilde", 10)]
    want = dense_ratio(cfg)
    assert abs(cell["ratio"] - want) <= 1e-12 * want


@pytest.mark.parametrize("n", [3, 9, 11, 33])
def test_d4_blocks_match_dense(n):
    # Gamma-tilde (Bezier coarsened on the CSL, omega = 3.5, nu = 1) from
    # the butterflied factors: the five D4 blocks have the basis sizes
    # (153/136/136/120/272 at n = 33; the 3 x 3 grid has an empty oo-
    # block, n = 11 an even coarse side), their spectra with eo counted
    # twice are the dense form's, and 1 / ||Gt^-1||_1 from them is numpy's
    cfg = make_cfg(k={3: 1.0, 9: 5.0, 11: 6.0, 33: 20.0}[n], n=n, omega=3.5)
    Y = _coarse_correction(cfg, cfg.A)
    blocks = _form_blocks(*_gamma_factors(_smoothed(cfg), cfg.pair.P, Y), Y,
                          _mirror_factor(Y.copy()))
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


# --- Gamma forms from the five D4 blocks of their thin factors --------------

@pytest.mark.parametrize("nu", [1, 2])
@pytest.mark.parametrize("coarsen", ["csl", "original"])
@pytest.mark.parametrize("scheme", ["linear", "bezier"])
@pytest.mark.parametrize("k", [5, 6, 8, 10])
def test_gamma_blocks_match_dense_form(k, scheme, coarsen, nu, monkeypatch):
    # Gamma-tilde (W = P) and Gamma (W = S P) from the butterflied factors
    # against the D4 blocks of the dense numpy forms; both gates pass, on
    # the even coarse sides of k = 6 and 8 too
    ratios = []
    record_gates(monkeypatch, ratios)
    n = nodes_for_wavenumber(k)
    cfg = make_cfg(k=float(k), n=n, scheme=scheme, coarsen=coarsen, nu=nu)
    Y = _coarse_correction(cfg, cfg.A)
    Ym = _mirror_factor(Y.copy())
    MA, P = _smoothed(cfg), cfg.pair.P
    DA = np.eye(n * n) - dense_T0(cfg)
    for W, dense in ((P, dense_gamma_tilde(cfg)),
                     (P - MA @ P, DA.conj().T + DA - DA.conj().T @ DA)):
        got = _form_blocks(*_gamma_factors(MA, W, Y), Y, Ym)
        want = dense_d4_blocks(dense, n)
        assert [B.shape for B in got] == [B.shape for B in want]
        assert fro([g - w for g, w in zip(got, want)]) <= 1e-13 * np.linalg.norm(dense)
    assert len(ratios) == 2 and max(ratios) <= MIRROR_TOL


def off_d4(n_rows, n_cols, seed, keep=lambda rows, cols: rows != cols):
    """A random complex matrix in D4 coordinates, rows on an n_rows grid and
    columns on an n_cols grid, that is zero except where ``keep`` holds of
    the row and column labels: by default off the D4 blocks."""
    rows, cols = d4_basis(n_rows)[1][:, None], d4_basis(n_cols)[1][None, :]
    rng = np.random.default_rng(seed)
    shape = (rows.size, cols.size)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * keep(rows, cols)


#: Perturbations of test_factor_gate that break only the swap, by the D4
#: labels of the rows and columns of U they touch: U's oe block no longer
#: equals its eo block, or U's ee block gains a swap-odd part
SWAP_ONLY = {"swap-oe": lambda rows, cols: (rows == 5) & (cols == 5),
             "swap-ee": lambda rows, cols: (rows == 0) & (cols == 1)}


@pytest.mark.parametrize("factor", ["U", "Y", "swap-oe", "swap-ee"])
@pytest.mark.parametrize("scale, blocks", [(0.5, True), (2.0, False)])
def test_factor_gate(factor, scale, blocks, monkeypatch):
    # a perturbation of U (or of Y) off the D4 blocks, or one of U that
    # breaks only the swap (SWAP_ONLY), sized so that its share of the
    # bound is scale * MIRROR_TOL * ||K||_F: the gate alone decides between
    # the blocks and the full form, which the un-butterflied U then builds.
    # k = 5, n = 9, n_c = 5
    cfg = make_cfg(omega=3.5, nu=1)
    Y = _coarse_correction(cfg, cfg.A)
    MA, P = _smoothed(cfg), cfg.pair.P
    Hs, U = _gamma_factors(MA, P, Y)
    K, dropped = _mirror_blocks(_mirror_sparse(Hs), U.copy(), _mirror_factor(Y.copy()))
    assert _gate(K, dropped) <= 0.05 * MIRROR_TOL
    share = scale * MIRROR_TOL * fro(whole(K))
    # the perturbed factor term of the bound is 2 ||U_o|| ||Yb|| for U (oe
    # minus eo and the swap-odd parts are part of U_o) and 2 ||U_d|| ||Y_o||
    # for Y, with
    # ||Yb|| = ||Y|| and ||U_d|| = ||U|| to rounding
    Vf, Vc = d4_basis(9)[0], d4_basis(5)[0]
    if factor == "Y":
        E = off_d4(5, 9, seed=2)
        E *= share / (2.0 * np.linalg.norm(E) * np.linalg.norm(U))
        U_bad, Y_bad = U, Y + Vc.T @ E @ Vf
    else:
        E = off_d4(9, 5, seed=1) if factor == "U" else off_d4(9, 5, 3, SWAP_ONLY[factor])
        E *= share / (2.0 * np.linalg.norm(E) * np.linalg.norm(Y))
        U_bad, Y_bad = U + Vf.T @ E @ Vc, Y
    ratios = []
    record_gates(monkeypatch, ratios)
    got = _form_blocks(Hs, U_bad.copy(), Y_bad, _mirror_factor(Y_bad.copy()))
    ratio, = ratios
    assert abs(ratio - scale * MIRROR_TOL) <= 0.1 * MIRROR_TOL
    assert len(got) == (5 if blocks else 1)
    if blocks:
        assert fro([g - k for g, k in zip(got, K)]) <= 1e-14 * fro(K)
    else:
        UY = U_bad @ Y_bad
        assert rel_fro(got[0], Hs.toarray() + UY + UY.conj().T) <= 1e-14


@pytest.mark.parametrize("diag, off, symmetric", [
    (0.0, 1.0, True),  # no D4-diagonal factor blocks: U_o Y_o is all
    (1.0, 0.0, False),  # D4-diagonal factors: only G_o is dropped
    (1.0, 1.0, False),
])
def test_factor_bound_covers_the_dropped_part(diag, off, symmetric):
    # synthetic factors with D4 blocks scaled by diag (oe equal to eo) and
    # the rest by off, and a sparse part that commutes with the square's
    # symmetries or not.  The kept blocks are what they claim, and the
    # gate ratio times ||K||_F bounds all they drop, the products U_o Y_o
    # that land inside the blocks included
    n, nc = 9, 5
    rng = np.random.default_rng(9)
    (Vf, fine), (Vc, coarse) = d4_basis(n), d4_basis(nc)

    def factor(rows, cols):
        # random, the D4 blocks scaled by diag and the rest by off; the oe
        # block is the eo block plus off times a random one
        same = rows[:, None] == cols[None, :]
        X = (rng.standard_normal(same.shape) + 1j * rng.standard_normal(same.shape)) \
            * np.where(same, diag, off)
        eo, oe = np.ix_(rows == 4, cols == 4), np.ix_(rows == 5, cols == 5)
        X[oe] = X[eo] + off * rng.standard_normal(X[eo].shape)
        return X

    Ub, Yb = factor(fine, coarse), factor(coarse, fine)
    U, Y = Vf.T @ Ub @ Vc, Vc.T @ Yb @ Vf
    Hs = make_cfg(n=n).A if symmetric else sp.random(n * n, n * n, density=0.05,
                                                     random_state=rng, format="csr")
    Hs = (Hs + Hs.conj().T).tocsr()
    K, bound = _mirror_blocks(_mirror_sparse(Hs), U.copy(), _mirror_factor(Y.copy()))
    Hs_b = dense_d4_blocks(Hs.toarray(), n)
    for p in range(5):
        i, c = fine == p, coarse == p
        UY = Ub[np.ix_(i, c)] @ Yb[np.ix_(c, i)]
        assert np.linalg.norm(K[p] - (Hs_b[p] + UY + UY.conj().T)) <= 1e-14 * fro(K)
    H = Hs.toarray() + U @ Y + (U @ Y).conj().T
    dropped = np.linalg.norm(Vf @ H @ Vf.T - sla.block_diag(*whole(K)))
    assert dropped > 1e-3 * fro(K)
    assert dropped <= bound * (1.0 + 1e-12)


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


def test_block_path_makes_no_full_product(products):
    # k = 10, n = 17 (N = 289), n_c = 9 (N_c = 81): omega_sweep's four
    # low-rank coefficient forms (C_0 and those of E^0, E, E^2 at nu <= 2),
    # built once for its four cells, and table_entry's Gamma-tilde (for its
    # verdict) and Gamma (for ||T0||_2) multiply only the five D4 factor
    # blocks.  certify takes sigma_max(DA), Gamma's residual, verdict and
    # ||T0||_2, and Gamma-tilde's verdict and ratio from the blocks too;
    # its one N x N_c x N product is the full Gamma-tilde of the quick
    # screen, and no (DA)^H DA is formed
    blocks = [((45, 15), (15, 45)), ((36, 10), (10, 36)), ((36, 10), (10, 36)),
              ((28, 6), (6, 28)), ((72, 20), (20, 72))]
    full = [((289, 81), (81, 289))]
    omega_sweep(lambda w, nu: make_cfg(k=10.0, n=17, omega=w, nu=nu), (1.5, 4.5), (1, 2))
    assert products == blocks * 4
    products.clear()
    table_entry(make_cfg(k=10.0, n=17))
    assert products == blocks * 2
    products.clear()
    certify(make_cfg(k=10.0, n=17))
    assert products == blocks * 3 + full


@pytest.mark.parametrize("case", ["variable-k", "even coarse side"])
def test_full_form_when_the_factors_do_not_split(case, products, monkeypatch):
    # a smooth variable-k medium fails the gate: table_entry forms the full
    # Gamma forms, and omega_sweep refuses it, naming the gate value.  On
    # n = 11 the coarse grid has n_c = 6 and no centre node, and the
    # factors still split into the five D4 blocks.  Both match the dense
    # references
    ratios = []
    record_gates(monkeypatch, ratios)
    make = smooth_medium_cfg if case == "variable-k" else (
        lambda omega=4.5, nu=1: make_cfg(n=11, omega=omega, nu=nu))
    cfg = make()
    N, Nc = cfg.A.shape[0], cfg.pair.P.shape[1]
    t0 = table_entry(cfg)[1]
    want = gram_norm(dense_T0(cfg))
    assert abs(t0 - want) <= 1e-13 * want
    # table_entry's Gamma-tilde and Gamma, then the sweep's cell
    if case == "variable-k":
        with pytest.raises(ValueError, match=r"make_cfg\(4\.5, 1\) fails the D4 gate "
                                             r"\([0-9.e+-]+ > MIRROR_TOL = 1e-13\)"):
            omega_sweep(make, (4.5,), (1,))
        assert len(ratios) == 3
        assert products.count(((N, Nc), (Nc, N))) == 2
        assert min(ratios) > 1e3 * MIRROR_TOL
    else:
        cell, = omega_sweep(make, (4.5,), (1,))
        assert abs(cell["ratio"] - dense_ratio(cfg)) <= 1e-12 * dense_ratio(cfg)
        assert len(ratios) == 3
        assert products.count(((N, Nc), (Nc, N))) == 0
        assert Nc == 36 and max(ratios) <= MIRROR_TOL


# --- HPD verdicts from the D4 blocks -----------------------------------------

def verdict_pairs(cfg):
    """(blocks, block verdict, full-form verdict) of Gamma-tilde and of Gamma."""
    Y = _coarse_correction(cfg, cfg.A)
    Ym = _mirror_factor(Y.copy())
    MA, P = _smoothed(cfg), cfg.pair.P
    for W in (P, P - MA @ P):
        blocks = _form_blocks(*_gamma_factors(MA, W, Y), Y, Ym)
        yield blocks, _hpd_verdict(blocks)[0], cholesky_hpd_test(_gamma_form(MA, W, Y))


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
    # the failed gate leaves one block, the full form: its verdict, the
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
    # the cached sparse D4 basis of side n is the numpy one and gives the
    # blocks and dropped norm of a fresh build, bit for bit (n = 11 has an
    # even coarse side), and cannot be written to
    MA = _smoothed(make_cfg(k=float(k), n=n))
    Hs = (MA + MA.conj().T).tocsr()
    cached = certificate._mirror_sparse(Hs)
    V, sizes, _, label = certificate._mirror_basis(n)
    assert certificate._mirror_basis(n)[0] is V
    want, want_label = d4_basis(n)
    assert np.abs(V.toarray() - want).max() <= 1e-16
    assert np.array_equal(label, want_label)
    for a in (V.data, V.indices, V.indptr, label):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        label[0] = 1
    monkeypatch.setattr(certificate, "_mirror_basis", certificate._mirror_basis.__wrapped__)
    fresh = certificate._mirror_sparse(Hs)
    assert len(cached[0]) == len(fresh[0]) == 5
    for a, b in zip(cached[0], fresh[0]):
        assert np.array_equal(a.toarray(), b.toarray())
    assert cached[1] == fresh[1]
    assert list(sizes) == [B.shape[0] for B in fresh[0]] + [sizes[4]]


def test_benchmark_entry_points_exist():
    # perfbench/harness.py calls or traces these names on helmmg.certificate
    for name in ("TwoGridConfig", "table_entry", "omega_sweep", "assemble_D",
                 "smoother_correction", "norm1"):
        assert callable(getattr(certificate, name, None)), name
