import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helmmg import smoothing
from helmmg.problem import ProblemSpec, assemble_helmholtz, build_wavenumber_field
from helmmg.smoothing import (
    SmootherConfig,
    apply_smoother,
    gmres_smooth,
    jacobi_sweep,
    reciprocal_diagonal,
)


def random_system(n, seed, shift=6.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A += shift * np.eye(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return sp.csr_matrix(A), b


def test_jacobi_matches_dense_iteration_matrix():
    # one sweep on b = 0 multiplies the error by S = I - (1/omega) L^-1 A
    A, _ = random_system(20, 0)
    omega = 4.5
    Ad = A.toarray()
    S = np.eye(20) - (1.0 / omega) * (Ad / np.diag(Ad)[:, None])
    inv_diag = reciprocal_diagonal(A)
    rng = np.random.default_rng(1)
    for _ in range(20):
        e = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        out = jacobi_sweep(A, e.copy(), np.zeros(20, dtype=complex) - A @ e, omega,
                           inv_diag)[0]
        assert np.allclose(out, S @ e, rtol=1e-12)


def test_jacobi_3x3_dense_oracle():
    A = sp.csr_matrix(np.diag([2.0, 4.0, 8.0]).astype(complex))
    u = np.array([1.0, 1.0, 1.0], dtype=complex)
    b = np.array([2.0, 2.0, 2.0], dtype=complex)
    out = jacobi_sweep(A, u, b - A @ u, omega=2.0, inv_diag=reciprocal_diagonal(A))[0]
    # u + (1/2) * diag^-1 (b - A u) = u + (1/2) * (b/d - u)
    want = u + 0.5 * (b / np.array([2.0, 4.0, 8.0]) - u)
    assert np.allclose(out, want)


def test_jacobi_is_affine_linear():
    A, b = random_system(15, 2)
    u1 = np.zeros(15, dtype=complex)
    rng = np.random.default_rng(3)
    e = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    inv_diag = reciprocal_diagonal(A)
    base = jacobi_sweep(A, u1, b - A @ u1, 4.5, inv_diag)[0]
    shifted = jacobi_sweep(A, u1 + e, b - A @ (u1 + e), 4.5, inv_diag)[0]
    homog = jacobi_sweep(A, e.copy(), np.zeros(15, dtype=complex) - A @ e, 4.5, inv_diag)[0]
    assert np.allclose(shifted - base, homog, rtol=1e-12)


def test_jacobi_zero_diagonal_names_node():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ZeroDivisionError, match="node 1"):
        jacobi_sweep(A, np.zeros(2, dtype=complex), np.ones(2, dtype=complex), 1.0,
                     reciprocal_diagonal(A))


def test_gmres_residual_never_increases():
    A, b = random_system(30, 4, shift=2.0)
    u = np.zeros(30, dtype=complex)
    r_prev = np.linalg.norm(b)
    for _ in range(15):
        u = gmres_smooth(A, u, b - A @ u, m=3)[0]
        r = np.linalg.norm(b - A @ u)
        assert r <= r_prev * (1 + 1e-12)
        r_prev = r


def test_gmres_optimality_over_krylov_space():
    # the m-step correction minimizes ||r - A c|| over K_m(A, r)
    A, b = random_system(12, 5)
    u0 = np.zeros(12, dtype=complex)
    m = 3
    u1 = gmres_smooth(A, u0, b - A @ u0, m=m)[0]
    Ad = A.toarray()
    K = np.stack([np.linalg.matrix_power(Ad, j) @ b for j in range(m)], axis=1)
    coef, *_ = np.linalg.lstsq(Ad @ K, b, rcond=None)
    best = np.linalg.norm(b - Ad @ (K @ coef))
    got = np.linalg.norm(b - Ad @ u1)
    assert np.isclose(got, best, rtol=1e-8)


def test_gmres_exact_when_m_covers_space():
    # m = 5 exceeds the 3-dimensional Krylov space: Arnoldi breaks down
    A = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]).astype(complex))
    b = np.array([1.0, 1.0, 1.0], dtype=complex)
    for m in (3, 5):
        u, r = gmres_smooth(A, np.zeros(3, dtype=complex), b, m=m)
        assert np.allclose(u, b / np.array([1.0, 2.0, 3.0]), rtol=1e-12)
        # the returned residual is the true one, built from filled rows only
        assert np.all(np.isfinite(r))
        assert np.linalg.norm(r - (b - A @ u)) <= 1e-13 * np.linalg.norm(b)


def test_gmres_breakdown_is_exact():
    # r is an eigenvector: 1-dimensional invariant Krylov space
    A = sp.csr_matrix(np.diag([2.0, 5.0]).astype(complex))
    b = np.array([4.0, 0.0], dtype=complex)
    u, r = gmres_smooth(A, np.zeros(2, dtype=complex), b, m=3)
    assert np.allclose(u, [2.0, 0.0], rtol=1e-13)
    assert np.all(np.isfinite(r))
    assert np.linalg.norm(r - (b - A @ u)) <= 1e-13 * np.linalg.norm(b)


class _NanEmptyNumpy:
    """numpy, except that ``empty`` returns NaN-filled arrays and counts calls."""

    def __init__(self):
        self.empty_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, dtype=float):
        self.empty_calls += 1
        return np.full(shape, np.nan, dtype=dtype)


def test_gmres_breakdown_ignores_stale_workspace(monkeypatch):
    # np.empty leaves old data in the basis rows a breakdown does not
    # write; with those rows NaN, the residual must come from the written
    # rows only
    shim = _NanEmptyNumpy()
    monkeypatch.setattr(smoothing, "np", shim)
    cases = [(np.diag([1.0, 2.0, 3.0]), np.ones(3), 3),
             (np.diag([1.0, 2.0, 3.0]), np.ones(3), 5),
             (np.diag([2.0, 5.0]), np.array([4.0, 0.0]), 3)]
    for d, b, m in cases:
        A = sp.csr_matrix(d.astype(complex))
        b = b.astype(complex)
        u, r = gmres_smooth(A, np.zeros_like(b), b, m=m)
        assert np.all(np.isfinite(r))
        assert np.linalg.norm(r - (b - A @ u)) <= 1e-13 * np.linalg.norm(b)
    assert shim.empty_calls == len(cases)


def test_gmres_converged_input_returned():
    A, _ = random_system(5, 6)
    x = np.ones(5, dtype=complex)
    b = A @ x
    assert np.array_equal(gmres_smooth(A, x.copy(), b - A @ x, m=3)[0], x)


@pytest.mark.parametrize("m", [1, 3, 5])
def test_gmres_matches_scipy_restart_cycle(m):
    # one restart cycle of SciPy's GMRES(m) is an independent implementation
    spec = ProblemSpec(kind="constant-k", k=20.0, nodes_per_dim=33)
    A = assemble_helmholtz(spec, build_wavenumber_field(spec), shift_on=False)
    rng = np.random.default_rng(8)
    N = A.shape[0]
    u = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    b = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    want, _ = spla.gmres(A, b, x0=u, rtol=0, atol=0, restart=m, maxiter=1)
    r = b - A @ u
    u_in, r_in = u.copy(), r.copy()
    got, got_r = gmres_smooth(A, u, r, m)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want - u)
    # the results own their memory and the inputs are left unchanged
    for out in (got, got_r):
        for other in (u, r):
            assert not np.shares_memory(out, other)
    assert np.array_equal(u, u_in) and np.array_equal(r, r_in)


def test_apply_smoother_steps():
    A, b = random_system(10, 7)
    cfg = SmootherConfig(kind="jacobi", omega=4.5, nu=2)
    inv_diag = reciprocal_diagonal(A)
    u2 = apply_smoother(A, np.zeros(10, dtype=complex), b, cfg, inv_diag)[0]
    u_manual = jacobi_sweep(A, np.zeros(10, dtype=complex), b, 4.5, inv_diag)[0]
    u_manual = jacobi_sweep(A, u_manual, b - A @ u_manual, 4.5, inv_diag)[0]
    assert np.allclose(u2, u_manual, rtol=1e-13)



@pytest.mark.parametrize("kind", ["jacobi", "gmres"])
def test_apply_smoother_returns_true_residual(kind):
    # the carried residual stays b - A u of the returned iterate
    A, b = random_system(30, 9)
    rng = np.random.default_rng(10)
    u = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    cfg = SmootherConfig(kind=kind, omega=4.5, m=3, nu=5)
    u, r = apply_smoother(A, u, b - A @ u, cfg, reciprocal_diagonal(A))
    true = b - A @ u
    assert np.linalg.norm(r - true) <= 1e-12 * np.linalg.norm(true)

def test_smoother_config_validation():
    with pytest.raises(ValueError):
        SmootherConfig(kind="sor")
    with pytest.raises(ValueError):
        SmootherConfig(kind="jacobi", omega=0.0)
    with pytest.raises(ValueError):
        SmootherConfig(kind="gmres", m=0)
    with pytest.raises(ValueError):
        SmootherConfig(nu=-1)
