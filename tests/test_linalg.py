import numpy as np
import pytest
import scipy.sparse as sp

from helmmg import linalg
from helmmg.linalg import (
    Verdict,
    cholesky_hpd_test,
    condition_number_p1,
    lu_factor_checked,
    norm1,
    norm2,
    quick_pd_screen,
)
from helmmg.transfer import TransferPair, galerkin_coarse


def linear_p_5():
    """1D linear interpolation from a 3-node to a 5-node grid."""
    return sp.csr_matrix(np.array([
        [1.0, 0.0, 0.0],
        [0.5, 0.5, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.5, 0.5],
        [0.0, 0.0, 1.0],
    ]))


def test_triple_product_matches_dense_oracle():
    # 1D linear P on a 5-node grid, R = P^T, A = tridiag(-1, 2, -1)
    P = linear_p_5()
    R = P.T.tocsr()
    A = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(5, 5), format="csr")
    got = galerkin_coarse(A, TransferPair(P=P, R=R)).toarray()
    want = (R.toarray() @ A.toarray()) @ P.toarray()
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
    # coarse operator of tridiag(-1,2,-1) under linear transfer is tridiagonal
    off = np.triu(np.abs(got), 2)
    assert off.max() == 0.0


def test_triple_product_association_order_irrelevant():
    rng = np.random.default_rng(3)
    R = sp.csr_matrix(rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9)))
    A = sp.csr_matrix(rng.standard_normal((9, 9)))
    P = sp.csr_matrix(rng.standard_normal((9, 4)))
    got = galerkin_coarse(A, TransferPair(P=P, R=R)).toarray()
    left = (R.toarray() @ A.toarray()) @ P.toarray()
    right = R.toarray() @ (A.toarray() @ P.toarray())
    assert np.allclose(got, left, rtol=1e-12)
    assert np.allclose(got, right, rtol=1e-12)


def test_triple_product_dimension_mismatch():
    P = linear_p_5()
    A = sp.eye(4, format="csr")
    with pytest.raises(ValueError, match="dimension mismatch"):
        galerkin_coarse(A, TransferPair(P=P, R=P.T.tocsr()))


def test_lu_factor_checked_singular_names_pivot():
    M = np.eye(4, dtype=complex)
    M[2, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError,
                       match="test matrix singular to tolerance at pivot index 2"):
        lu_factor_checked(M, "test matrix")
    # a pivot below 1e-14 * max|M| counts as singular, one above it does not
    M[2, 2] = 1e-15
    with pytest.raises(np.linalg.LinAlgError, match="pivot index 2"):
        lu_factor_checked(M, "test matrix")
    M[2, 2] = 1e-13
    lu, piv = lu_factor_checked(M, "test matrix")
    assert np.array_equal(lu, M) and np.array_equal(piv, np.arange(4))


def test_cholesky_hpd_positive(small_spd):
    v = cholesky_hpd_test(small_spd)
    assert v.ok and v.reason == "HPD"
    assert bool(v)


def test_cholesky_hpd_indefinite(small_spd):
    M = small_spd.copy()
    M[0, 0] = -1.0
    v = cholesky_hpd_test(M)
    assert not v.ok
    assert "positive definite" in v.reason or "pivot" in v.reason


def test_cholesky_hpd_non_hermitian(small_spd):
    M = small_spd.copy()
    M[0, 1] += 1.0  # breaks M = M^H
    v = cholesky_hpd_test(M)
    assert not v.ok and "non-hermitian" in v.reason


def test_quick_screen_passes_on_spd(small_spd):
    assert quick_pd_screen(small_spd).ok


def test_quick_screen_condition_order():
    # condition 1: nonpositive diagonal
    M = np.diag([1.0, -1.0, 1.0]).astype(complex)
    assert "condition 1" in quick_pd_screen(M).reason
    # condition 2: large real off-diagonal
    M = np.array([[1.0, 5.0], [5.0, 1.0]], dtype=complex)
    assert "condition 2" in quick_pd_screen(M).reason
    # condition 3: largest modulus off the diagonal (imaginary part, so
    # condition 2 does not fire first)
    M = np.array([[1.0, 3.0j], [-3.0j, 1.0]], dtype=complex)
    assert "condition 3" in quick_pd_screen(M).reason


def test_quick_screen_detects_negative_determinant():
    # indefinite tridiagonal passing conditions 1-3 (det < 0)
    M = np.array([[1.0, 0.99, 0.0],
                  [0.99, 1.0, 0.99],
                  [0.0, 0.99, 1.0]], dtype=complex)
    eig = np.linalg.eigvalsh(M)
    assert eig.min() < 0  # indefinite but conditions 1-3 hold
    v = quick_pd_screen(M)
    assert not v.ok and "condition 4" in v.reason


def test_quick_screen_fails_singular_gram_matrix():
    # a rank-8 12x12 Gram matrix passes conditions 1-3; its determinant is
    # zero, so condition 4 must fail (the slogdet phase of a singular
    # matrix is rounding noise and read positive here)
    rng = np.random.default_rng(0)
    B = rng.standard_normal((12, 8)) + 1j * rng.standard_normal((12, 8))
    M = B @ B.conj().T
    with pytest.raises(np.linalg.LinAlgError):
        lu_factor_checked(M, "Gram matrix")
    v = quick_pd_screen(M)
    assert not v.ok and v.reason == "condition 4: determinant not positive"


def test_norm2_exact(rng):
    for shape in ((15, 15), (12, 7)):
        M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.isclose(norm2(M), np.linalg.norm(M, 2), rtol=1e-12)
    assert norm2(np.zeros((4, 4))) == 0.0


def test_norm1_and_condition(rng):
    M = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    M += 10 * np.eye(10)
    assert np.isclose(norm1(M), np.abs(M).sum(axis=0).max())
    kappa = condition_number_p1(M)
    want = norm1(M) * norm1(np.linalg.inv(M))
    assert np.isclose(kappa, want, rtol=1e-10)


@pytest.fixture
def lu_calls(monkeypatch):
    """Counts the LU factorizations ``condition_number_p1`` falls back to."""
    calls = []

    def spy(M, what):
        calls.append(what)
        return lu_factor_checked(M, what)

    monkeypatch.setattr(linalg, "lu_factor_checked", spy)
    return calls


def test_condition_hpd_through_cholesky(small_spd, lu_calls):
    want = norm1(small_spd) * norm1(np.linalg.inv(small_spd))
    assert np.isclose(condition_number_p1(small_spd), want, rtol=1e-12, atol=0.0)
    assert lu_calls == []


def test_condition_hermitian_indefinite_through_lu(small_spd, lu_calls):
    M = small_spd - 30 * np.eye(12)
    assert np.linalg.eigvalsh(M).min() < 0 < np.linalg.eigvalsh(M).max()
    want = norm1(M) * norm1(np.linalg.inv(M))
    assert np.isclose(condition_number_p1(M), want, rtol=1e-12, atol=0.0)
    assert lu_calls == ["condition_number_p1 input"]


def test_condition_singular_raises(lu_calls):
    # the rank-8 12x12 Gram matrix of test_quick_screen_fails_singular_gram_matrix
    rng = np.random.default_rng(0)
    B = rng.standard_normal((12, 8)) + 1j * rng.standard_normal((12, 8))
    with pytest.raises(np.linalg.LinAlgError, match="condition_number_p1 input"):
        condition_number_p1(B @ B.conj().T)
    # Cholesky completes here, but c_11^2 = 1e-15 is below 1e-14 max|M|
    lu_calls.clear()
    with pytest.raises(np.linalg.LinAlgError,
                       match="condition_number_p1 input singular to tolerance "
                             "at pivot index 1"):
        condition_number_p1(np.diag([1.0, 1e-15, 1.0]).astype(complex))
    assert lu_calls == []


def test_verdict_truthiness():
    assert bool(Verdict(True, "x"))
    assert not bool(Verdict(False, "y"))


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.integers(0, 2**64 - 1), st.integers(1, 512))
    @settings(max_examples=30, deadline=None)
    def test_splitmix64_property(seed, count):
        from helmmg.problem import splitmix64_uniform

        vals = splitmix64_uniform(seed, count)
        assert vals.shape == (count,)
        assert np.all((vals >= 0.0) & (vals < 1.0))
        assert np.array_equal(vals, splitmix64_uniform(seed, count))
except ImportError:  # hypothesis is an optional test dependency
    pass
