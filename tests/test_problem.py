import numpy as np
import pytest

from helmmg.problem import (
    ProblemSpec,
    ShiftSpec,
    assemble_helmholtz,
    assemble_rhs,
    build_wavenumber_field,
    nodes_for_wavenumber,
    resolve_beta2,
    splitmix64_uniform,
    variable_spec,
)


def dense_reference_operator(n, kvals, beta2):
    """Independent dense assembly of the 5-point operator with the
    diagonal Sommerfeld terms, for use as an oracle."""
    h = 1.0 / (n - 1)
    N = n * n
    A = np.zeros((N, N), dtype=complex)
    s = 1.0 + 1j * beta2
    for j in range(n):
        for i in range(n):
            p = j * n + i
            A[p, p] = 4.0 / h**2 - s * kvals[p] ** 2
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < n and 0 <= jj < n:
                    A[p, jj * n + ii] = -1.0 / h**2
                else:
                    A[p, p] += -1.0 / h**2 - 1j * kvals[p] / h
    return A


def test_assembly_matches_dense_oracle_3x3():
    spec = ProblemSpec(kind="constant-k", k=1.0, nodes_per_dim=3)
    kvals = build_wavenumber_field(spec)
    A = assemble_helmholtz(spec, kvals, shift_on=False).toarray()
    want = dense_reference_operator(3, kvals, 0.0)
    assert np.allclose(A, want, rtol=1e-13)


def test_assembly_matches_dense_oracle_variable():
    spec = variable_spec(2.0, 6.0, "sharp", seed=9)
    kvals = build_wavenumber_field(spec)
    C = assemble_helmholtz(spec, kvals, shift_on=True).toarray()
    want = dense_reference_operator(spec.nodes_per_dim, kvals, 0.7)
    assert np.allclose(C, want, rtol=1e-13)


def test_operator_complex_symmetric():
    spec = ProblemSpec(kind="constant-k", k=5.0, nodes_per_dim=11)
    kvals = build_wavenumber_field(spec)
    for shift_on in (False, True):
        M = assemble_helmholtz(spec, kvals, shift_on).toarray()
        assert np.allclose(M, M.T, rtol=1e-14)  # A = A^T, not A = A^H


def test_csl_differs_only_on_diagonal():
    spec = ProblemSpec(kind="constant-k", k=5.0, nodes_per_dim=11)
    kvals = build_wavenumber_field(spec)
    A = assemble_helmholtz(spec, kvals, shift_on=False).toarray()
    C = assemble_helmholtz(spec, kvals, shift_on=True).toarray()
    D = C - A
    assert np.allclose(D - np.diag(np.diag(D)), 0.0)
    assert np.allclose(np.diag(D), -1j * 0.7 * kvals**2)


def test_interior_row_is_plain_5_point():
    spec = ProblemSpec(kind="constant-k", k=5.0, nodes_per_dim=11)
    kvals = build_wavenumber_field(spec)
    A = assemble_helmholtz(spec, kvals, shift_on=False)
    n, h = 11, spec.h
    p = 5 * n + 5  # center node
    row = A.getrow(p).toarray().ravel()
    assert np.isclose(row[p], 4.0 / h**2 - 25.0)
    for q in (p - 1, p + 1, p - n, p + n):
        assert np.isclose(row[q], -1.0 / h**2)
    assert np.count_nonzero(row) == 5


def test_corner_row_sommerfeld_diagonal():
    spec = ProblemSpec(kind="constant-k", k=5.0, nodes_per_dim=11)
    kvals = build_wavenumber_field(spec)
    A = assemble_helmholtz(spec, kvals, shift_on=False)
    h = spec.h
    row = A.getrow(0).toarray().ravel()
    want = 4.0 / h**2 - 25.0 + 2 * (-1.0 / h**2 - 5.0j / h)
    assert np.isclose(row[0], want)
    assert np.count_nonzero(row) == 3  # diagonal + two in-range neighbors


def test_nodes_for_wavenumber():
    # smallest odd n with k / (n - 1) <= 0.625
    assert nodes_for_wavenumber(50.0) == 81
    assert nodes_for_wavenumber(5.0) == 9
    n = nodes_for_wavenumber(30.0)
    assert n % 2 == 1 and 30.0 / (n - 1) <= 0.625
    with pytest.raises(ValueError):
        nodes_for_wavenumber(0.0)


def test_spec_validation():
    with pytest.raises(ValueError, match="odd"):
        ProblemSpec(kind="constant-k", k=1.0, nodes_per_dim=10)
    with pytest.raises(ValueError, match="under-resolved"):
        ProblemSpec(kind="constant-k", k=50.0, nodes_per_dim=11)
    with pytest.raises(ValueError, match="k_min"):
        ProblemSpec(kind="variable-k", k_min=5.0, k_max=2.0, nodes_per_dim=11)
    with pytest.raises(ValueError, match="shift kind"):
        ShiftSpec(kind="bogus")
    with pytest.raises(ValueError, match="shift kind"):
        ShiftSpec(kind="zero")  # spelled kind="fixed", beta2=0.0


def test_splitmix64_reproducible_and_uniform():
    a = splitmix64_uniform(42, 1000)
    b = splitmix64_uniform(42, 1000)
    assert np.array_equal(a, b)  # byte-exact
    c = splitmix64_uniform(43, 1000)
    assert not np.array_equal(a, c)
    assert a.min() >= 0.0 and a.max() < 1.0
    assert abs(a.mean() - 0.5) < 0.05


def test_splitmix64_prefix_stability():
    # the stream is counter-based: shorter draws are prefixes
    long = splitmix64_uniform(7, 500)
    short = splitmix64_uniform(7, 100)
    assert np.array_equal(long[:100], short)


def test_sharp_field_range_and_seed():
    spec = variable_spec(10.0, 50.0, "sharp", seed=1)
    f = build_wavenumber_field(spec)
    assert f.min() >= 10.0 and f.max() < 50.0
    f2 = build_wavenumber_field(variable_spec(10.0, 50.0, "sharp", seed=1))
    assert np.array_equal(f, f2)
    f3 = build_wavenumber_field(variable_spec(10.0, 50.0, "sharp", seed=2))
    assert not np.array_equal(f, f3)


def test_smooth_field_attains_bounds_and_is_smooth():
    spec = variable_spec(10.0, 50.0, "smooth", seed=1)
    f = build_wavenumber_field(spec)
    assert np.isclose(f.min(), 10.0) and np.isclose(f.max(), 50.0)
    n = spec.nodes_per_dim
    F = f.reshape(n, n)
    # neighbor jumps bounded well below the sharp field's O(k_max - k_min)
    jumps = max(np.abs(np.diff(F, axis=0)).max(), np.abs(np.diff(F, axis=1)).max())
    assert jumps < (50.0 - 10.0) * 8.0 / n


def test_resolve_beta2():
    f = np.array([2.0, 4.0])
    spec_fixed = ProblemSpec(kind="constant-k", k=1.0, nodes_per_dim=3,
                             shift=ShiftSpec(kind="fixed", beta2=0.3))
    assert resolve_beta2(spec_fixed, f) == 0.3
    spec_inv = ProblemSpec(kind="constant-k", k=1.0, nodes_per_dim=3,
                           shift=ShiftSpec(kind="inverse-k"))
    assert resolve_beta2(spec_inv, f) == 0.25
    spec_zero = ProblemSpec(kind="constant-k", k=1.0, nodes_per_dim=3,
                            shift=ShiftSpec(kind="fixed", beta2=0.0))
    assert resolve_beta2(spec_zero, f) == 0.0


def test_rhs_point_source():
    spec = ProblemSpec(kind="constant-k", k=5.0, nodes_per_dim=11)
    b = assemble_rhs(spec)
    nz = np.nonzero(b)[0]
    assert nz.tolist() == [5 * 11 + 5]
    assert b[nz[0]] == 1.0 / spec.h**2
