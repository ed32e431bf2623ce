import numpy as np
import pytest
import scipy.sparse as sp

from helmmg.transfer import (
    TransferPair,
    build_prolongation_1d,
    build_transfer_2d,
    galerkin_coarse,
)


def reference_prolongation_1d(n_fine, scheme):
    """Per-node 1D prolongation stencil, the oracle for P = W E."""
    m = (n_fine + 1) // 2
    P = np.zeros((n_fine, m))
    for i in range(n_fine):
        if i % 2 == 1:  # midway between coarse nodes (i-1)/2 and (i+1)/2
            P[i, (i - 1) // 2] = P[i, (i + 1) // 2] = 0.5
        elif scheme == "linear":
            P[i, i // 2] = 1.0
        else:
            c = i // 2
            P[i, c] = 6.0 / 8.0
            for cc in (c - 1, c + 1):
                if 0 <= cc < m:
                    P[i, cc] = 1.0 / 8.0
                else:
                    P[i, c] += 1.0 / 8.0  # boundary fold
    return P


@pytest.mark.parametrize("scheme", ["linear", "bezier"])
@pytest.mark.parametrize("n", [3, 5, 7, 9, 17, 161])
def test_prolongation_1d_matches_per_node_reference(scheme, n):
    P = build_prolongation_1d(n, scheme)
    assert P.shape == (n, (n + 1) // 2)
    assert np.array_equal(P.toarray(), reference_prolongation_1d(n, scheme))


def test_linear_1d_stencil_5_nodes():
    P = build_prolongation_1d(5, "linear").toarray()
    want = np.array([
        [1.0, 0.0, 0.0],
        [0.5, 0.5, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.5, 0.5],
        [0.0, 0.0, 1.0],
    ])
    assert np.array_equal(P, want)


def test_bezier_1d_stencil_5_nodes():
    P = build_prolongation_1d(5, "bezier").toarray()
    want = np.array([
        [7.0 / 8.0, 1.0 / 8.0, 0.0],   # boundary fold
        [0.5, 0.5, 0.0],
        [1.0 / 8.0, 6.0 / 8.0, 1.0 / 8.0],
        [0.0, 0.5, 0.5],
        [0.0, 1.0 / 8.0, 7.0 / 8.0],   # boundary fold
    ])
    assert np.allclose(P, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("scheme", ["linear", "bezier"])
@pytest.mark.parametrize("n", [5, 9, 17, 33])
def test_row_sums_one_1d(scheme, n):
    P = build_prolongation_1d(n, scheme)
    assert np.allclose(np.asarray(P.sum(axis=1)).ravel(), 1.0, atol=1e-14)


@pytest.mark.parametrize("scheme", ["linear", "bezier"])
def test_row_sums_one_2d(scheme):
    pair = build_transfer_2d(9, scheme)
    assert np.allclose(np.asarray(pair.P.sum(axis=1)).ravel(), 1.0, atol=1e-13)


def test_even_or_tiny_grid_rejected():
    with pytest.raises(ValueError, match="odd"):
        build_prolongation_1d(6, "bezier")
    with pytest.raises(ValueError, match="odd"):
        build_prolongation_1d(2, "linear")
    with pytest.raises(ValueError, match="scheme"):
        build_prolongation_1d(5, "cubic")


@pytest.mark.parametrize("scheme", ["linear", "bezier"])
def test_restriction_is_quarter_transpose(scheme):
    pair = build_transfer_2d(9, scheme)
    assert np.array_equal(pair.R.toarray(), 0.25 * pair.P.toarray().T)
    # R applied to the all-ones fine vector = (1/4) column sums of P
    ones = np.ones(pair.P.shape[0], dtype=complex)
    want = 0.25 * np.asarray(pair.P.sum(axis=0)).ravel()
    assert np.allclose(pair.R @ ones, want, rtol=1e-13)


def test_2d_is_tensor_product():
    P1 = build_prolongation_1d(9, "bezier").toarray()
    pair = build_transfer_2d(9, "bezier")
    assert np.allclose(pair.P.toarray(), np.kron(P1, P1), atol=1e-15)


def test_galerkin_identity_linear_1d():
    # A = identity: Galerkin operator reduces to R P
    P1 = build_prolongation_1d(5, "linear").astype(complex)
    pair = TransferPair(P=P1.tocsr(), R=(0.25 * P1.T).tocsr())
    A = sp.eye(5, dtype=complex, format="csr")
    got = galerkin_coarse(A, pair).toarray()
    want = 0.25 * P1.toarray().T @ P1.toarray()
    assert np.allclose(got, want, rtol=1e-13)


@pytest.mark.parametrize("n", [9, 17, 33])
def test_galerkin_sparse_equals_dense(n):
    from helmmg.problem import ProblemSpec, assemble_helmholtz, build_wavenumber_field

    spec = ProblemSpec(kind="constant-k", k=0.5 * (n - 1) * 0.625,
                       nodes_per_dim=n)
    A = assemble_helmholtz(spec, build_wavenumber_field(spec), shift_on=True)
    pair = build_transfer_2d(n, "bezier")
    got = galerkin_coarse(A, pair).toarray()
    want = pair.R.toarray() @ A.toarray() @ pair.P.toarray()
    err = np.abs(got - want).max() / np.abs(want).max()
    assert err <= 1e-12
