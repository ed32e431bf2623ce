import gc
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from helmmg import transfer
from helmmg.mg import CycleConfig, Hierarchy, build_hierarchy, solve
from helmmg.problem import ProblemSpec, ShiftSpec, assemble_rhs
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


def hierarchy_spec(n=33):
    return ProblemSpec(kind="constant-k", k=10.0, nodes_per_dim=n,
                       shift=ShiftSpec(kind="fixed", beta2=0.7))


def csr_arrays(M):
    return (M.data, M.indices, M.indptr)


def assert_same_csr(a, b):
    assert a.shape == b.shape
    for x, y in zip(csr_arrays(a), csr_arrays(b)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_hierarchies_share_one_pair_per_level():
    h1 = build_hierarchy(hierarchy_spec(), "bezier")
    h2 = build_hierarchy(hierarchy_spec(), "bezier")
    assert [L.n for L in h1.levels] == [33, 17, 9]
    for L1, L2 in zip(h1.levels[:-1], h2.levels[:-1]):
        assert L1.pair is L2.pair
        assert L1.pair is build_transfer_2d(L1.n, "bezier")
    # a scheme and a grid side are each part of what a pair is shared by
    assert build_transfer_2d(33, "linear") is not h1.levels[0].pair
    assert build_transfer_2d(17, "bezier") is not h1.levels[0].pair


@pytest.mark.parametrize("scheme", ["linear", "bezier"])
def test_shared_pair_is_read_only(scheme):
    pair = build_transfer_2d(17, scheme)
    for M in (pair.P, pair.R):
        for a in csr_arrays(M):
            assert not a.flags.writeable
    with pytest.raises(ValueError):
        pair.P.data[0] = 2.0
    with pytest.raises(ValueError):
        pair.R.indices[0] = 1


@pytest.mark.parametrize("scheme", ["linear", "bezier"])
def test_shared_pair_equals_a_fresh_build_bit_for_bit(scheme):
    # a pair that two hierarchies hold, after a solve on one of them, is
    # the pair a fresh build gives, array for array
    spec = hierarchy_spec()
    h = build_hierarchy(spec, scheme)
    also = build_hierarchy(spec, scheme)
    solve(h, assemble_rhs(spec), CycleConfig(max_cycles=3))
    for L, L_also in zip(h.levels[:-1], also.levels[:-1]):
        assert L.pair is L_also.pair
        fresh = transfer._tensor_pair(L.n, scheme)
        assert_same_csr(L.pair.P, fresh.P)
        assert_same_csr(L.pair.R, fresh.R)


def test_pair_is_freed_with_its_last_holder():
    # the side 45 is built by no other test in this module
    h1 = build_hierarchy(hierarchy_spec(45), "bezier")
    h2 = build_hierarchy(hierarchy_spec(45), "bezier")
    refs = [weakref.ref(L.pair) for L in h1.levels[:-1]]
    assert [r() for r in refs] == [L.pair for L in h2.levels[:-1]]
    del h1
    gc.collect()
    assert all(r() is not None for r in refs)  # h2 still holds them
    del h2
    gc.collect()
    assert all(r() is None for r in refs)
    assert (45, "bezier") not in transfer._PAIRS


def level_arrays(h):
    """Copies of every level operator's and pair's CSR arrays, fine to coarse."""
    mats = [L.op for L in h.levels]
    mats += [M for L in h.levels[:-1] for M in (L.pair.P, L.pair.R)]
    return [[a.copy() for a in csr_arrays(M)] for M in mats]


def test_concurrent_builds_share_bit_identical_pairs():
    # four threads, more than the cores, build hierarchies on one grid at
    # once, with no pair built beforehand and thread switches forced
    # often: every level operator and pair equals the one-thread build bit
    # for bit, and the threads hold one pair per level.  Results are
    # collected and checked here, since an exception raised in a thread
    # does not fail the test.
    spec = ProblemSpec(kind="constant-k", k=20.0, nodes_per_dim=81,
                       shift=ShiftSpec(kind="fixed", beta2=0.7))
    want = level_arrays(build_hierarchy(spec, "bezier"))
    gc.collect()
    assert (81, "bezier") not in transfer._PAIRS
    got = [None] * 4
    start = threading.Barrier(len(got))

    def run(i):
        try:
            start.wait()
            got[i] = build_hierarchy(spec, "bezier")
        except Exception as exc:  # reported below, in the test's own thread
            got[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(got))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(isinstance(h, Hierarchy) for h in got), got
    for h in got:
        assert all(L.pair is L0.pair for L, L0 in zip(h.levels, got[0].levels))
        for have, ref in zip(level_arrays(h), want):
            assert all(np.array_equal(a, b) for a, b in zip(have, ref))
