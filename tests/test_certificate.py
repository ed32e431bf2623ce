import numpy as np
import pytest
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
        "at index 14 of mirror block 0 (x even, y even))",
        "Gamma-tilde HPD            : False (not positive definite: pivot failure "
        "at index 13 of mirror block 0 (x even, y even))",
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
    # nu <= 2: C_0, C_1, C_2 with a thin factor (Y and three U butterflied,
    # 4 block products each) and C_11, C_12, C_22 sparse (six splits)
    assert seen[0] == seen[1] == {"_butterfly": 4, "_hermitian_low_rank": 12,
                                  "_mirror_sparse": 6}


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


# --- ||.||_2 from the four mirror blocks ------------------------------------

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


def mirror_parity(n):
    """Block label 0..3, 2 (y parity) + (x parity), of each unknown in the
    mirror basis; x runs fastest."""
    odd = np.arange(n) > (n - 1) // 2
    return (2 * odd[:, None] + odd[None, :]).ravel()


def record_gates(monkeypatch, ratios):
    """Append the ratio of every mirror gate (factor, sweep cell and swap
    gate alike) to ``ratios``."""
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
    # from the five swap blocks of the four mirror blocks, and match the
    # dense Gram's spectrum.  k = 6 and 8 (n = 11 and 15) have an even
    # coarse side
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
    # a factor gate and a swap gate per norm (table_entry: ||T0||; certify:
    # sigma_max(DA) and ||T0||), a factor gate per Gamma-tilde (table_entry's
    # verdict, certify's verdict and ratio) and a swap gate for the ratio,
    # each passed, and only the five swap blocks of each norm were solved
    assert len(norm_calls["ratios"]) == 9
    assert max(norm_calls["ratios"]) <= MIRROR_TOL
    assert sorted(norm_calls["sizes"]) == sorted(swap_block_sizes(n) * 3)


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
    # MP 2-B breaks the mirror symmetry: every factor gate fails and the
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


# --- 1 / ||Gamma-tilde^-1||_1 from the four mirror blocks ---------------------

@pytest.fixture
def inverse_calls(monkeypatch):
    """Record the gate ratios, the sizes handed to ``inverse`` and the LU inputs."""
    calls = {"ratios": [], "sizes": [], "lu": []}
    inv, lu = certificate.inverse, linalg.lu_factor_checked
    record_gates(monkeypatch, calls["ratios"])

    def record_inverse(M, what):
        calls["sizes"].append(M.shape[0])
        return inv(M, what)

    def record_lu(M, what):
        calls["lu"].append((what, M.shape[0]))
        return lu(M, what)

    monkeypatch.setattr(certificate, "inverse", record_inverse)
    monkeypatch.setattr(linalg, "lu_factor_checked", record_lu)
    return calls


def dense_ratio(cfg):
    """1 / ||Gamma-tilde^-1||_1 from numpy's inverse of the dense Gamma-tilde."""
    return 1.0 / np.abs(np.linalg.inv(dense_gamma_tilde(cfg))).sum(axis=0).max()


def mirror_block_sizes(n):
    """Sizes of the four mirror blocks on an n x n grid, n odd, sorted."""
    m = (n - 1) // 2
    return sorted([(m + 1) ** 2, (m + 1) * m, m * (m + 1), m * m])


def swap_block_sizes(n):
    """Sizes of the five swap blocks on an n x n grid, n odd, in order:
    the symmetric and antisymmetric halves of the (m+1)^2 even-even block,
    the (m+1) m even-odd block, the halves of the m^2 odd-odd block."""
    m = (n - 1) // 2
    return [(m + 1) * (m + 2) // 2, (m + 1) * m // 2, (m + 1) * m,
            m * (m + 1) // 2, m * (m - 1) // 2]


def sweep_and_certify_ratio(make, omega, nu, calls):
    """The one-cell ``omega_sweep`` ratio and the ``certify`` ratio of make(omega, nu),
    with the last gate ratio and the inverted sizes of each."""
    cell, = omega_sweep(make, (omega,), (nu,))
    sweep = cell["ratio"], calls["ratios"][-1], calls["sizes"][:]
    calls["sizes"].clear()
    rep = certify(make(omega, nu))
    # certify's ratio is its last gate: the two norms come first
    return sweep, (rep.ratio_table_value, calls["ratios"][-1], calls["sizes"][:])


@pytest.mark.parametrize("nu", [1, 2])
@pytest.mark.parametrize("coarsen", ["csl", "original"])
@pytest.mark.parametrize("scheme", ["linear", "bezier"])
@pytest.mark.parametrize("k", [5, 6, 8, 10])
def test_ratio_block_path_matches_dense_inverse(k, scheme, coarsen, nu, inverse_calls):
    # constant k, the even coarse sides of k = 6 and 8 included:
    # omega_sweep's and certify's ratio invert only the five swap blocks of
    # the four mirror blocks, and match numpy's inverse of the dense
    # Gamma-tilde
    n = nodes_for_wavenumber(k)

    def make(omega, nu):
        return make_cfg(k=float(k), n=n, scheme=scheme, coarsen=coarsen,
                        omega=omega, nu=nu)

    want = dense_ratio(make(4.5, nu))
    for got, gate, sizes in sweep_and_certify_ratio(make, 4.5, nu, inverse_calls):
        assert abs(got - want) <= 1e-12 * want
        assert gate <= MIRROR_TOL
        assert sizes == swap_block_sizes(n)


def test_ratio_variable_k_takes_full_path(inverse_calls):
    # MP 2-B: the factor gate fails and the whole Gamma-tilde is inverted
    want = dense_ratio(smooth_medium_cfg())
    for got, gate, sizes in sweep_and_certify_ratio(smooth_medium_cfg, 4.5, 1,
                                                   inverse_calls):
        assert abs(got - want) <= 1e-12 * want
        assert gate > 1e3 * MIRROR_TOL
        assert sizes == [17 * 17]


@pytest.mark.parametrize("centre", [0.0, 50.0])
def test_mirror_norm1_matches_dense(centre):
    # ||Q blockdiag(B_p) Q||_1 from one quadrant of columns against numpy's
    # over every column.  centre = 50 puts the largest column sum on the
    # centre node, whose butterfly coefficient is 1, not sqrt(1/2)
    n = 9
    label = mirror_parity(n)
    rng = np.random.default_rng(6)
    M = np.zeros((n * n, n * n), dtype=complex)
    blocks = []
    for p in range(4):
        i = label == p
        B = rng.standard_normal((i.sum(), i.sum())) + 1j * rng.standard_normal((i.sum(), i.sum()))
        M[np.ix_(i, i)] = B
        blocks.append(B)
    blocks[0][:, -1] += centre  # the even-even block's last unknown is the centre
    M[np.ix_(label == 0, label == 0)] = blocks[0]
    want = np.abs(mirror_Q(n) @ M @ mirror_Q(n)).sum(axis=0).max()
    assert np.isclose(certificate._mirror_norm1(blocks), want, rtol=1e-13, atol=0.0)


def test_ratio_non_hpd_block_goes_through_lu(inverse_calls):
    # k = 5, Bezier coarsened on A, omega = 4.5, nu = 1: Gamma-tilde is not
    # HPD; both halves of its even-even block (15 x 15 symmetric, 10 x 10
    # antisymmetric) fail Cholesky and are inverted by LU, the other three
    # swap blocks by zpotri
    cfg = make_cfg(coarsen="original", omega=4.5, nu=1)
    assert not certify(cfg).hpd_gamma_tilde.ok
    inverse_calls["lu"].clear()
    inverse_calls["sizes"].clear()
    cell, = omega_sweep(lambda w, nu: make_cfg(coarsen="original", omega=w, nu=nu),
                        (4.5,), (1,))
    assert inverse_calls["ratios"][-1] <= MIRROR_TOL
    assert inverse_calls["sizes"] == swap_block_sizes(9)
    assert inverse_calls["lu"] == [("Gamma-tilde", 15), ("Gamma-tilde", 10)]
    want = dense_ratio(cfg)
    assert abs(cell["ratio"] - want) <= 1e-12 * want


# --- the five swap blocks ---------------------------------------------------

def d4_symmetric(n, seed, hermitian):
    """A random complex n^2 x n^2 matrix that commutes with the eight
    symmetries of the n x n grid (reflections and the swap x <-> y)."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    if hermitian:
        M = M + M.conj().T
    grid = np.arange(n * n).reshape(n, n)
    images = [g.ravel() for t in (grid, grid.T)
              for g in (t, t[::-1], t[:, ::-1], t[::-1, ::-1])]
    return sum(M[np.ix_(g, g)] for g in images) / 8.0


def from_mirror_blocks(blocks, n):
    """The dense Q blockdiag(blocks) Q of four mirror blocks, by numpy."""
    label = mirror_parity(n)
    M = np.zeros((n * n, n * n), dtype=complex)
    for p, B in enumerate(blocks):
        M[np.ix_(label == p, label == p)] = B
    return mirror_Q(n) @ M @ mirror_Q(n)


@pytest.mark.parametrize("n", [9, 11])
def test_swap_split_matches_dense(n):
    # a synthetic HPD H that commutes with the swap as well as the
    # reflections: the five swap blocks give its eigenvalues, the parity
    # blocks of its inverse and the 1-norm of the inverse
    H = d4_symmetric(n, seed=n, hermitian=True)
    H += (np.abs(np.linalg.eigvalsh(H)).max() + 1.0) * np.eye(n * n)
    blocks = dense_mirror_blocks(H, n)
    split = certificate._swap_split(blocks, 0.0)
    assert [B.shape[0] for B in split] == swap_block_sizes(n)
    # block 2 is block 1 permuted, so block 1's spectrum counts twice
    lam = np.linalg.eigvalsh(H)
    got = np.sort(np.concatenate([np.linalg.eigvalsh(B) for B in split + [split[2]]]))
    assert np.abs(got - lam).max() <= 1e-12 * lam.max()
    norm2 = certificate._gram_norm2(blocks, 0.0)
    assert abs(norm2 - np.sqrt(lam.max())) <= 1e-12 * np.sqrt(lam.max())
    Hinv = np.linalg.inv(H)
    inv = [np.linalg.inv(B) for B in split]
    for p, want in enumerate(dense_mirror_blocks(Hinv, n)):
        got = certificate._inverse_columns(inv, p, np.arange(want.shape[1]))
        assert rel_fro(got, want) <= 1e-12
    want = np.abs(Hinv).sum(axis=0).max()
    assert abs(certificate._mirror_norm1(inv) - want) <= 1e-12 * want
    assert abs(certificate._ratio(blocks, 0.0) - 1.0 / want) <= 1e-12 / want


@pytest.mark.parametrize("n", [9, 11])
@pytest.mark.parametrize("centre", [0.0, 50.0])
def test_mirror_norm1_from_swap_blocks_matches_dense(n, centre):
    # ||.||_1 from a triangle of quadrant columns of a matrix that commutes
    # with the swap, against numpy's over every column.  centre = 50 puts
    # the largest column sum on the centre node, which lies on the
    # triangle's diagonal
    M = d4_symmetric(n, seed=n + 1, hermitian=False)
    M[:, (n * n) // 2] += centre
    split = certificate._swap_split(dense_mirror_blocks(M, n), 0.0)
    assert len(split) == 5
    want = np.abs(M).sum(axis=0).max()
    assert abs(certificate._mirror_norm1(split) - want) <= 1e-13 * want


@pytest.mark.parametrize("p", [0, 2])
def test_swap_gate_falls_back_to_the_parity_blocks(p, inverse_calls, norm_calls):
    # a perturbation of the even-even block (p = 0), or of the odd-even
    # block that the split replaces by the permuted even-odd one (p = 2),
    # breaks the swap symmetry but not the reflections and fails the swap
    # gate: the norm and the ratio come from the four parity blocks and
    # still match dense
    n = 9
    H = d4_symmetric(n, seed=3, hermitian=True)
    H += (np.abs(np.linalg.eigvalsh(H)).max() + 1.0) * np.eye(n * n)
    blocks = dense_mirror_blocks(H, n)
    rng = np.random.default_rng(4)
    E = rng.standard_normal(blocks[p].shape) + 1j * rng.standard_normal(blocks[p].shape)
    blocks[p] = blocks[p] + 1e-9 * np.linalg.norm(blocks[p]) / np.linalg.norm(E) * (E + E.conj().T)
    H = from_mirror_blocks(blocks, n)
    assert certificate._swap_split(blocks, 0.0) is blocks
    assert inverse_calls["ratios"][-1] > 1e3 * MIRROR_TOL
    lam_max = np.linalg.eigvalsh(H).max()
    got = certificate._gram_norm2(blocks, 0.0)
    assert abs(got - np.sqrt(lam_max)) <= 1e-12 * np.sqrt(lam_max)
    assert norm_calls["sizes"] == [25, 20, 20, 16]
    want = 1.0 / np.abs(np.linalg.inv(H)).sum(axis=0).max()
    assert abs(certificate._ratio(blocks, 0.0) - want) <= 1e-12 * want
    assert inverse_calls["sizes"] == [25, 20, 20, 16]


# --- Gamma forms from the four mirror blocks of their thin factors ----------

def dense_mirror_blocks(H, n):
    """The four diagonal blocks of Q H Q, in ``_butterfly``'s order, by numpy."""
    QHQ = mirror_Q(n) @ H @ mirror_Q(n)
    label = mirror_parity(n)
    return [QHQ[np.ix_(label == p, label == p)] for p in range(4)]


def fro(blocks):
    """Frobenius norm of a list of blocks taken together."""
    return np.sqrt(sum(np.linalg.norm(B) ** 2 for B in blocks))


@pytest.mark.parametrize("nu", [1, 2])
@pytest.mark.parametrize("coarsen", ["csl", "original"])
@pytest.mark.parametrize("scheme", ["linear", "bezier"])
@pytest.mark.parametrize("k", [5, 6, 8, 10])
def test_gamma_blocks_match_dense_form(k, scheme, coarsen, nu, monkeypatch):
    # Gamma-tilde (W = P) and Gamma (W = S P) from the butterflied factors
    # against the mirror blocks of the dense numpy forms; both factor gates
    # pass, on the even coarse sides of k = 6 and 8 too
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
        got, _ = _form_blocks(*_gamma_factors(MA, W, Y), Y, Ym)
        want = dense_mirror_blocks(dense, n)
        assert [B.shape for B in got] == [B.shape for B in want]
        assert fro([g - w for g, w in zip(got, want)]) <= 1e-13 * np.linalg.norm(dense)
    assert len(ratios) == 2 and max(ratios) <= MIRROR_TOL


def off_parity(n_rows, n_cols, seed):
    """A random complex matrix, rows on an n_rows grid and columns on an
    n_cols grid, that is zero wherever the mirror parities of row and
    column agree."""
    rows, cols = mirror_parity(n_rows), mirror_parity(n_cols)
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((rows.size, cols.size)) + 1j * rng.standard_normal(
        (rows.size, cols.size))
    return Z * (rows[:, None] != cols[None, :])


@pytest.mark.parametrize("factor", ["U", "Y"])
@pytest.mark.parametrize("scale, blocks", [(0.5, True), (2.0, False)])
def test_factor_gate(factor, scale, blocks, monkeypatch):
    # a reflection-breaking perturbation of U (or of Y), sized so that its
    # share of the bound is scale * MIRROR_TOL * ||K||_F: the gate alone
    # decides between the blocks and the full form, which the un-butterflied
    # U then builds.  k = 5, n = 9, n_c = 5
    cfg = make_cfg(omega=3.5, nu=1)
    Y = _coarse_correction(cfg, cfg.A)
    MA, P = _smoothed(cfg), cfg.pair.P
    Hs, U = _gamma_factors(MA, P, Y)
    K, dropped = _mirror_blocks(Hs, U.copy(), _mirror_factor(Y.copy()))
    assert _gate(K, dropped) <= 0.05 * MIRROR_TOL
    share = scale * MIRROR_TOL * fro(K)
    # the perturbed factor term of the bound is 2 ||U_o|| ||Yb|| for U and
    # 2 ||U_d|| ||Y_o|| for Y, with ||Yb|| = ||Y|| and ||U_d|| = ||U|| to
    # rounding
    if factor == "U":
        E = off_parity(9, 5, seed=1)
        E *= share / (2.0 * np.linalg.norm(E) * np.linalg.norm(Y))
        U_bad, Y_bad = U + mirror_Q(9) @ E @ mirror_Q(5), Y
    else:
        E = off_parity(5, 9, seed=2)
        E *= share / (2.0 * np.linalg.norm(E) * np.linalg.norm(U))
        U_bad, Y_bad = U, Y + mirror_Q(5) @ E @ mirror_Q(9)
    ratios = []
    record_gates(monkeypatch, ratios)
    got, _ = _form_blocks(Hs, U_bad.copy(), Y_bad, _mirror_factor(Y_bad.copy()))
    ratio, = ratios
    assert abs(ratio - scale * MIRROR_TOL) <= 0.1 * MIRROR_TOL
    assert len(got) == (4 if blocks else 1)
    if blocks:
        assert fro([g - k for g, k in zip(got, K)]) <= 1e-14 * fro(K)
    else:
        UY = U_bad @ Y_bad
        assert rel_fro(got[0], Hs.toarray() + UY + UY.conj().T) <= 1e-14


@pytest.mark.parametrize("diag, off, symmetric", [
    (0.0, 1.0, True),  # no parity-diagonal factor blocks: U_o Y_o is all
    (1.0, 0.0, False),  # parity-diagonal factors: only G_o is dropped
    (1.0, 1.0, False),
])
def test_factor_bound_covers_the_dropped_part(diag, off, symmetric):
    # synthetic factors with parity-diagonal blocks scaled by diag and the
    # other blocks by off, and a sparse part that commutes with the
    # reflections or not.  The kept blocks are what they claim, and the
    # gate ratio times ||K||_F bounds all they drop, the products U_o Y_o
    # that land inside the diagonal blocks included
    n, nc = 9, 5
    rng = np.random.default_rng(9)
    parity = mirror_parity(n)[:, None] == mirror_parity(nc)[None, :]
    Ub = (rng.standard_normal(parity.shape) + 1j * rng.standard_normal(parity.shape)) \
        * np.where(parity, diag, off)
    Yb = (rng.standard_normal(parity.T.shape) + 1j * rng.standard_normal(parity.T.shape)) \
        * np.where(parity.T, diag, off)
    Qf, Qc = mirror_Q(n), mirror_Q(nc)
    U, Y = Qf @ Ub @ Qc, Qc @ Yb @ Qf
    Hs = make_cfg(n=n).A if symmetric else sp.random(n * n, n * n, density=0.05,
                                                     random_state=rng, format="csr")
    Hs = (Hs + Hs.conj().T).tocsr()
    K, bound = _mirror_blocks(Hs, U.copy(), _mirror_factor(Y.copy()))
    label, coarse = mirror_parity(n), mirror_parity(nc)
    Hs_b = dense_mirror_blocks(Hs.toarray(), n)
    kept = np.zeros((n * n, n * n), dtype=complex)
    for p in range(4):
        i, c = label == p, coarse == p
        UY = Ub[np.ix_(i, c)] @ Yb[np.ix_(c, i)]
        assert np.linalg.norm(K[p] - (Hs_b[p] + UY + UY.conj().T)) <= 1e-14 * fro(K)
        kept[np.ix_(i, i)] = K[p]
    H = Hs.toarray() + U @ Y + (U @ Y).conj().T
    dropped = np.linalg.norm(Qf @ H @ Qf - kept)
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
    # k = 10, n = 17 (N = 289), n_c = 9 (N_c = 81): omega_sweep's three
    # low-rank coefficient forms (C_0, C_1, C_2 at nu <= 2), built once for
    # its four cells, and table_entry's Gamma-tilde (for its verdict) and
    # Gamma (for ||T0||_2) multiply only the quarter-size factor blocks.
    # certify takes
    # sigma_max(DA), Gamma's residual, verdict and ||T0||_2, and
    # Gamma-tilde's verdict and ratio from the blocks too; its one
    # N x N_c x N product is the full Gamma-tilde of the quick screen, and
    # no (DA)^H DA is formed
    blocks = [((81, 25), (25, 81)), ((72, 20), (20, 72)), ((72, 20), (20, 72)),
              ((64, 16), (16, 64))]
    full = [((289, 81), (81, 289))]
    omega_sweep(lambda w, nu: make_cfg(k=10.0, n=17, omega=w, nu=nu), (1.5, 4.5), (1, 2))
    assert products == blocks * 3
    products.clear()
    table_entry(make_cfg(k=10.0, n=17))
    assert products == blocks * 2
    products.clear()
    certify(make_cfg(k=10.0, n=17))
    assert products == blocks * 3 + full


@pytest.mark.parametrize("case", ["variable-k", "even coarse side"])
def test_full_form_when_the_factors_do_not_split(case, products, monkeypatch):
    # a smooth variable-k medium fails the factor gate and forms the full
    # Gamma forms; on n = 11 the coarse grid has n_c = 6 and no centre node,
    # and the factors still split into the four mirror blocks.  Both match
    # the dense references
    ratios = []
    record_gates(monkeypatch, ratios)
    make = smooth_medium_cfg if case == "variable-k" else (
        lambda omega=4.5, nu=1: make_cfg(n=11, omega=omega, nu=nu))
    cfg = make()
    N, Nc = cfg.A.shape[0], cfg.pair.P.shape[1]
    t0 = table_entry(cfg)[1]
    want = gram_norm(dense_T0(cfg))
    assert abs(t0 - want) <= 1e-13 * want
    cell, = omega_sweep(make, (4.5,), (1,))
    assert abs(cell["ratio"] - dense_ratio(cfg)) <= 1e-12 * dense_ratio(cfg)
    # table_entry's Gamma-tilde and Gamma, and the sweep's cell.  For
    # variable k each gate fails: table_entry forms both in full and the
    # sweep its two low-rank coefficient forms C_0 and C_1 (beside the
    # blocks the failed gates rejected), and one block has no swap gate.
    # On the even coarse side no full form is made, and Gamma's norm and
    # the cell's ratio pass a swap gate too
    if case == "variable-k":
        assert len(ratios) == 3
        assert products.count(((N, Nc), (Nc, N))) == 4
        assert min(ratios) > 1e3 * MIRROR_TOL
    else:
        assert len(ratios) == 5
        assert products.count(((N, Nc), (Nc, N))) == 0
        assert Nc == 36 and max(ratios) <= MIRROR_TOL


# --- HPD verdicts from the mirror blocks -------------------------------------

def verdict_pairs(cfg):
    """(blocks, block verdict, full-form verdict) of Gamma-tilde and of Gamma."""
    Y = _coarse_correction(cfg, cfg.A)
    Ym = _mirror_factor(Y.copy())
    MA, P = _smoothed(cfg), cfg.pair.P
    for W in (P, P - MA @ P):
        blocks, _ = _form_blocks(*_gamma_factors(MA, W, Y), Y, Ym)
        yield blocks, _hpd_verdict(blocks), cholesky_hpd_test(_gamma_form(MA, W, Y))


def test_block_verdicts_match_full_verdicts():
    # Q is orthogonal, so a form is HPD exactly when its four mirror blocks
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
                            assert len(blocks) == 4
                            oks.append(want.ok)
                            if got.ok != want.ok:
                                mismatches.append((k, scheme, coarsen, omega, nu))
    assert mismatches == []
    assert len(oks) == 96 and 0 < sum(oks) < 96


@pytest.mark.parametrize("scheme, coarsen, ok", [("bezier", "csl", True),
                                                 ("linear", "original", False)])
def test_variable_k_verdict_is_the_full_verdict(scheme, coarsen, ok):
    # the failed factor gate leaves one block, the full form: its verdict,
    # the reason with the pivot index of a node included, is the full
    # form's own, byte for byte
    for blocks, got, want in verdict_pairs(smooth_medium_cfg(3.5, 2, scheme, coarsen)):
        assert len(blocks) == 1
        assert got == want and got.ok == ok


@pytest.mark.parametrize("make, sizes", [(lambda: make_cfg(omega=3.5), [25, 20, 20, 16]),
                                         (smooth_medium_cfg, [17 * 17])])
def test_verdict_goes_through_cholesky_hpd_test(make, sizes, monkeypatch):
    # perfbench times the verdict under the module name
    # certificate.cholesky_hpd_test: one call per mirror block of an HPD
    # Gamma-tilde for constant k, one on the full form for variable k
    seen = []
    test = certificate.cholesky_hpd_test

    def record(M):
        seen.append(M.shape[0])
        return test(M)

    monkeypatch.setattr(certificate, "cholesky_hpd_test", record)
    hpd, _ = table_entry(make())
    assert hpd.ok and seen == sizes


@pytest.mark.parametrize("k, n", [(5, 9), (5, 11), (10, 17), (20, 33)])
def test_mirror_basis_built_once_and_read_only(k, n, monkeypatch):
    # the cached sparse basis of side n gives the blocks and off-norm of a
    # fresh build, bit for bit (n = 11 has an even coarse side), and cannot
    # be written to
    MA = _smoothed(make_cfg(k=float(k), n=n))
    Hs = (MA + MA.conj().T).tocsr()
    cached = certificate._mirror_sparse(Hs)
    Q, sizes, _, label = certificate._mirror_basis(n)
    assert certificate._mirror_basis(n)[0] is Q
    # the rows of the dense Q1 (x) Q1 in block order: the four parities in
    # turn, each row-major
    assert np.array_equal(Q.toarray(),
                          mirror_Q(n)[np.argsort(mirror_parity(n), kind="stable")])
    for a in (Q.data, Q.indices, Q.indptr, label):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        label[0] = 1
    monkeypatch.setattr(certificate, "_mirror_basis", certificate._mirror_basis.__wrapped__)
    fresh = certificate._mirror_sparse(Hs)
    assert len(cached[0]) == len(fresh[0]) == 4
    for a, b in zip(cached[0], fresh[0]):
        assert np.array_equal(a.toarray(), b.toarray())
    assert cached[1] == fresh[1]
    assert list(sizes) == [B.shape[0] for B in fresh[0]]


def test_benchmark_entry_points_exist():
    # perfbench/harness.py calls or traces these names on helmmg.certificate
    for name in ("TwoGridConfig", "table_entry", "omega_sweep", "assemble_D",
                 "smoother_correction", "cholesky_hpd_test", "norm1"):
        assert callable(getattr(certificate, name, None)), name
