import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from helmmg import linalg
from helmmg.linalg import (
    DenseLimitError,
    Verdict,
    add_adjoint,
    cholesky_hpd_test,
    inverse,
    lu_factor_checked,
    norm1,
    norm2_from_gram,
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
    # the blocks of a block-diagonal M share one tolerance, from the largest
    # entry over all of them: a 1 x 1 block of 1e-15 passes alone, not next
    # to M, and the failing block is named
    tiny = np.full((1, 1), 1e-15, dtype=complex)
    assert lu_factor_checked(tiny, "test matrix")[0] == tiny
    factors = lu_factor_checked({"block a": M, "block b": 1e4 * tiny}, "test matrix")
    assert list(factors) == ["block a", "block b"]
    with pytest.raises(np.linalg.LinAlgError,
                       match="^test matrix singular to tolerance at pivot index 0 of block b$"):
        lu_factor_checked({"block a": M, "block b": tiny}, "test matrix")


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
    # the 2-norm of M from its Gram matrix M^H M
    for shape in ((15, 15), (12, 7)):
        M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.isclose(norm2_from_gram(M.conj().T @ M), np.linalg.norm(M, 2),
                          rtol=1e-12)
    assert norm2_from_gram(np.zeros((4, 4))) == 0.0


def test_norm1_and_condition(rng):
    M = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    M += 10 * np.eye(10)
    assert np.isclose(norm1(M), np.abs(M).sum(axis=0).max())
    want = norm1(M) * norm1(np.linalg.inv(M))
    assert np.isclose(kappa1(M, "M"), want, rtol=1e-10)


@pytest.fixture
def lu_calls(monkeypatch):
    """Records the ``what`` of every ``lu_factor_checked`` call in linalg."""
    calls = []

    def spy(M, what):
        calls.append(what)
        return lu_factor_checked(M, what)

    monkeypatch.setattr(linalg, "lu_factor_checked", spy)
    return calls


def kappa1(M, what):
    """kappa_1(M) = ||M||_1 ||M^-1||_1 with M^-1 from ``inverse``."""
    return norm1(M) * norm1(inverse(M, what))


def test_condition_hpd_through_cholesky(small_spd, lu_calls):
    want = norm1(small_spd) * norm1(np.linalg.inv(small_spd))
    assert np.isclose(kappa1(small_spd, "spd"), want, rtol=1e-12, atol=0.0)
    assert lu_calls == []


def test_condition_hermitian_indefinite_through_lu(small_spd, lu_calls):
    M = small_spd - 30 * np.eye(12)
    assert np.linalg.eigvalsh(M).min() < 0 < np.linalg.eigvalsh(M).max()
    want = norm1(M) * norm1(np.linalg.inv(M))
    assert np.isclose(kappa1(M, "indefinite"), want, rtol=1e-12, atol=0.0)
    assert lu_calls == ["indefinite"]


def test_condition_singular_raises(lu_calls):
    # the rank-8 12x12 Gram matrix of test_quick_screen_fails_singular_gram_matrix
    rng = np.random.default_rng(0)
    B = rng.standard_normal((12, 8)) + 1j * rng.standard_normal((12, 8))
    with pytest.raises(np.linalg.LinAlgError, match="Gram matrix singular to tolerance"):
        kappa1(B @ B.conj().T, "Gram matrix")
    # Cholesky completes here, but c_11^2 = 1e-15 is below the verdict's
    # 1e-12 max diag floor: LU takes over and its u_11 = 1e-15 is below
    # 1e-14 max|M|
    lu_calls.clear()
    with pytest.raises(np.linalg.LinAlgError,
                       match="tiny pivot singular to tolerance at pivot index 1"):
        kappa1(np.diag([1.0, 1e-15, 1.0]).astype(complex), "tiny pivot")
    assert lu_calls == ["tiny pivot"]


def test_one_hermitian_tolerance(small_spd, lu_calls):
    # a residual between 1e-12 and 1e-10 is non-Hermitian to the verdict,
    # to ``inverse`` and to the quick screen alike
    M = small_spd.copy()
    M[0, 1] += 1e-10 * np.abs(M).max()
    assert 1e-12 < linalg._hermiticity_residual(M) < 1e-10
    v = cholesky_hpd_test(M)
    assert not v.ok and v.reason.startswith("non-hermitian")
    want = norm1(M) * norm1(np.linalg.inv(M))
    assert np.isclose(kappa1(M, "near-hermitian"), want, rtol=1e-12, atol=0.0)
    assert lu_calls == ["near-hermitian"]
    with pytest.raises(ValueError, match="requires a Hermitian matrix"):
        quick_pd_screen(M)


@pytest.mark.parametrize("tiles, extra", [(0, 1), (0, 7), (1, 0), (1, 1), (3, 17)])
def test_add_adjoint_is_the_full_sum_bit_for_bit(tiles, extra):
    # part of a tile, exactly one, one plus a sliver, and a ragged last
    # tile pair; every entry must be the sum X + X^H gives
    n = tiles * linalg._ADJOINT_TILE + extra
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    want = X + X.conj().T
    got = X.copy()
    assert add_adjoint(got) is got
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [5, linalg._ADJOINT_TILE, 2 * linalg._ADJOINT_TILE + 17])
def test_hermiticity_residual_by_tiles(n):
    # within a tile, exactly one, and a ragged last tile pair: the tile sum
    # is the full-matrix residual, and an exactly Hermitian matrix reads 0.0
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    want = np.linalg.norm(X - X.conj().T) / np.linalg.norm(X)
    assert np.isclose(linalg._hermiticity_residual(X), want, rtol=1e-13, atol=0.0)
    assert linalg._hermiticity_residual(add_adjoint(X)) == 0.0


def test_hermiticity_residual_of_blocks():
    # the residual of blockdiag(blocks) from the blocks, ragged tiles
    # included, is that of the assembled matrix
    rng = np.random.default_rng(4)
    sizes = (3, linalg._ADJOINT_TILE + 5, 7)
    blocks = [rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for m in sizes]
    M = sla.block_diag(*blocks)
    want = np.linalg.norm(M - M.conj().T) / np.linalg.norm(M)
    assert np.isclose(linalg._hermiticity_residual(*blocks), want, rtol=1e-13, atol=0.0)
    assert linalg._hermiticity_residual(*[add_adjoint(B) for B in blocks]) == 0.0


def test_quick_screen_walks_every_stripe():
    # conditions 2 and 3 read in the last, ragged stripe of rows
    n = 2 * linalg._ADJOINT_TILE + 5
    rng = np.random.default_rng(2)
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M = add_adjoint(B @ B.conj().T / (2 * n)) + np.eye(n)
    assert quick_pd_screen(M) == Verdict(True, "pass")
    i, j = n - 1, 3
    M2 = M.copy()
    M2[i, j] = M2[j, i] = 10.0
    assert quick_pd_screen(M2).reason == "condition 2: off-diagonal real part too large"
    M3 = M.copy()
    M3[i, j], M3[j, i] = 10j, -10j
    assert quick_pd_screen(M3).reason == "condition 3: largest modulus off the diagonal"


def test_inverse_hpd_through_cholesky(small_spd, lu_calls):
    got = inverse(small_spd, "spd")
    want = np.linalg.inv(small_spd)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert got.flags.c_contiguous
    assert lu_calls == []


def test_inverse_indefinite_through_lu(small_spd, lu_calls):
    M = small_spd - 30 * np.eye(12)
    got = inverse(M, "indefinite")
    want = np.linalg.inv(M)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert got.flags.c_contiguous
    assert lu_calls == ["indefinite"]


def test_inverse_singular_names_the_input(lu_calls):
    with pytest.raises(np.linalg.LinAlgError,
                       match="rank-3 input singular to tolerance at pivot index 2"):
        inverse(np.diag([1.0, 2.0, 0.0, 3.0]).astype(complex), "rank-3 input")
    assert lu_calls == ["rank-3 input"]


def test_quick_screen_dense_limit_skips_determinant(monkeypatch, lu_calls):
    # a matrix past the limit is refused before the LU of condition 4
    monkeypatch.setattr(linalg, "DENSE_LIMIT", 8)
    M = np.array([[2.0, 0.5, 0.0],
                  [0.5, 2.0, 0.5],
                  [0.0, 0.5, 2.0]], dtype=complex)
    with pytest.raises(DenseLimitError, match="dense 3x3 matrix"):
        quick_pd_screen(M)
    assert lu_calls == []


def test_verdict_truthiness():
    assert bool(Verdict(True, "x"))
    assert not bool(Verdict(False, "y"))
