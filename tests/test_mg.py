import inspect
import io
import sys
import threading

import numpy as np
import pytest

from helmmg import mg
from helmmg.mg import CycleConfig, build_hierarchy, cycle, history_csv, solve
from helmmg.presets import reference_start
from helmmg.problem import (
    ProblemSpec,
    ShiftSpec,
    assemble_helmholtz,
    assemble_rhs,
    build_wavenumber_field,
    nodes_for_wavenumber,
    variable_spec,
)
from helmmg.smoothing import SmootherConfig
from helmmg.transfer import build_transfer_2d, galerkin_coarse


def two_level(k=5.0, n=11, scheme="bezier", beta2=0.7):
    spec = ProblemSpec(kind="constant-k", k=k, nodes_per_dim=n,
                       shift=ShiftSpec(kind="fixed", beta2=beta2))
    return build_hierarchy(spec, scheme=scheme)


def test_hierarchy_shapes_and_chain():
    h = two_level()
    assert h.nlevels == 2
    assert [L.n for L in h.levels] == [11, 6]
    assert h.levels[0].op.shape == (121, 121)
    assert h.levels[1].op.shape == (36, 36)
    assert h.levels[0].pair.P.shape == (121, 36)
    assert h.levels[1].pair is None


def test_hierarchy_deep_chain():
    spec = ProblemSpec(kind="constant-k", k=50.0, nodes_per_dim=81)
    h = build_hierarchy(spec, "bezier", "csl")
    assert [L.n for L in h.levels] == [81, 41, 21, 11, 6]


def test_level0_is_unshifted():
    h = two_level()
    # the fine diagonal must be the plain Helmholtz one (real except
    # Sommerfeld boundary terms): interior node diagonal purely real
    d = h.fine_operator.diagonal()
    interior = 5 * 11 + 5
    assert abs(d[interior].imag) < 1e-14


def test_levels_cache_the_jacobi_scaling():
    h = two_level()
    for L in h.levels:
        assert np.array_equal(L.inv_diag, 1.0 / L.op.diagonal())


def test_zero_diagonal_refused_at_build(monkeypatch):
    # the Jacobi scaling is checked once per level, when the hierarchy is
    # built, and the error names the node
    galerkin = mg.galerkin_coarse

    def zero_node_3(op, pair):
        Ac = galerkin(op, pair).tolil()
        Ac[3, 3] = 0.0
        return Ac.tocsr()

    monkeypatch.setattr(mg, "galerkin_coarse", zero_node_3)
    with pytest.raises(ZeroDivisionError, match="node 3"):
        two_level()


def test_coarsen_on_choices_differ():
    # coarsening on the beta2 = 0.7 CSL and on the beta2 = 0 one (that is,
    # on A) give different coarse operators
    a = two_level(beta2=0.7).levels[1].op.toarray()
    b = two_level(beta2=0.0).levels[1].op.toarray()
    assert not np.allclose(a, b)


@pytest.mark.parametrize("spec", [
    ProblemSpec(kind="constant-k", k=10.0, nodes_per_dim=33,
                shift=ShiftSpec(kind="fixed", beta2=0.0)),
    variable_spec(10.0, 20.0, "sharp", seed=1,
                  shift=ShiftSpec(kind="fixed", beta2=0.0)),
], ids=["constant-k", "sharp"])
def test_zero_shift_csl_is_original(spec):
    # with beta2 = 0 the CSL is A to the bit, so the hierarchy's chain is
    # the Galerkin chain of A: the CLI spells that case --shift zero
    f = build_wavenumber_field(spec)
    A = assemble_helmholtz(spec, f, shift_on=False)
    h = build_hierarchy(spec)
    assert h.nlevels > 2
    chain = [A]
    for L in h.levels[:-1]:
        chain.append(galerkin_coarse(chain[-1], build_transfer_2d(L.n, "bezier")))
    pairs = [(assemble_helmholtz(spec, f, shift_on=True), A)]
    pairs += [(L.op, B) for L, B in zip(h.levels, chain)]
    for a, b in pairs:
        for part in ("indptr", "indices", "data"):
            assert getattr(a, part).tobytes() == getattr(b, part).tobytes()


def test_hierarchy_rejects_small_grid():
    spec = ProblemSpec(kind="constant-k", k=1.0, nodes_per_dim=9)
    with pytest.raises(ValueError, match="nodes_per_dim"):
        build_hierarchy(spec)
    for mode in ("original", "bogus"):
        with pytest.raises(ValueError, match="coarsen_on"):
            build_hierarchy(ProblemSpec(kind="constant-k", k=1.0, nodes_per_dim=11),
                            coarsen_on=mode)


def dense_two_grid_operator(h, nu, omega):
    """Dense error propagation of one post-smoothing two-level cycle:
    applied in cycle order, coarse-grid correction first, then nu
    smoothing sweeps."""
    A = h.levels[0].op.toarray()
    P = h.levels[0].pair.P.toarray()
    R = h.levels[0].pair.R.toarray()
    Ac = h.levels[1].op.toarray()
    CGC = np.eye(A.shape[0]) - P @ np.linalg.solve(Ac, R) @ A
    S = np.eye(A.shape[0]) - (1.0 / omega) * (A / np.diag(A)[:, None])
    return np.linalg.matrix_power(S, nu) @ CGC


@pytest.mark.parametrize("nu", [1, 2])
def test_two_grid_bridge(nu):
    # one V-cycle (zero pre, nu post Jacobi) propagates error identically
    # to the dense two-grid operator
    h = two_level(k=8.0, n=17)
    T = dense_two_grid_operator(h, nu, 4.5)
    cfg = CycleConfig(gamma=1,
                      smoother=SmootherConfig(kind="jacobi", omega=4.5, nu=nu))
    N = 17 * 17
    rng = np.random.default_rng(11)
    for _ in range(5):
        e = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        out = cycle(h, 0, e.copy(), np.zeros(N, dtype=complex) - h.fine_operator @ e,
                    cfg)[0]
        err = np.linalg.norm(out - T @ e) / np.linalg.norm(e)
        assert err <= 1e-11


def test_cycle_is_stationary_linear_method():
    h = two_level()
    cfg = CycleConfig(gamma=1, smoother=SmootherConfig(kind="jacobi", nu=2))
    N = 121
    b = assemble_rhs(h.spec)
    rng = np.random.default_rng(5)
    u1 = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    u2 = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    a = 0.37 - 0.2j
    # affine map: cycle(a u1 + (1-a) u2) = a cycle(u1) + (1-a) cycle(u2)
    A = h.fine_operator
    u3 = a * u1 + (1 - a) * u2
    lhs = cycle(h, 0, u3, b - A @ u3, cfg)[0]
    rhs = (a * cycle(h, 0, u1.copy(), b - A @ u1, cfg)[0]
           + (1 - a) * cycle(h, 0, u2.copy(), b - A @ u2, cfg)[0])
    assert np.allclose(lhs, rhs, rtol=1e-10)


def test_w_cycle_two_levels_equals_v():
    # with an exact coarse solve, repeating the coarse solve changes nothing
    h = two_level()
    b = assemble_rhs(h.spec)
    sm = SmootherConfig(kind="jacobi", omega=4.5, nu=1)
    rv = solve(h, b, CycleConfig(gamma=1, smoother=sm))
    rw = solve(h, b, CycleConfig(gamma=2, smoother=sm))
    assert rv.cycles == rw.cycles


def test_solve_converges_and_history():
    h = two_level()
    b = assemble_rhs(h.spec)
    cfg = CycleConfig(gamma=1, smoother=SmootherConfig(kind="jacobi", nu=2))
    res = solve(h, b, cfg)
    assert res.converged
    assert res.residual_history[-1] <= 1e-5
    assert len(res.residual_history) == res.cycles
    # residual check is independent: recompute
    rel = np.linalg.norm(b - h.fine_operator @ res.u) / np.linalg.norm(b)
    assert np.isclose(rel, res.residual_history[-1], rtol=1e-12)


def test_solve_cycle_count_invariant_under_rhs_scaling():
    h = two_level()
    b = assemble_rhs(h.spec)
    cfg = CycleConfig(gamma=1, smoother=SmootherConfig(kind="jacobi", nu=2))
    c1 = solve(h, b, cfg).cycles
    c2 = solve(h, 1e6 * b, cfg).cycles
    c3 = solve(h, (1e-6 + 1e-6j) * b, cfg).cycles
    assert c1 == c2 == c3
    # GMRES declares an Arnoldi breakdown relative to ||A v_j||, which does
    # not scale with b
    gmres = CycleConfig(gamma=1, smoother=SmootherConfig(kind="gmres", nu=2))
    big = solve(h, 1e15 * b, gmres)
    assert big.converged and big.cycles == solve(h, b, gmres).cycles


def test_solve_zero_rhs():
    h = two_level()
    res = solve(h, np.zeros(121, dtype=complex),
                CycleConfig(smoother=SmootherConfig()))
    assert res.converged and res.cycles == 0
    assert np.array_equal(res.u, np.zeros(121))


def test_solve_from_initial_iterate():
    h = two_level()
    b = assemble_rhs(h.spec)
    A = h.fine_operator
    cfg = CycleConfig(gamma=1, smoother=SmootherConfig(kind="jacobi", nu=2))
    # an explicit zero start is the default start, bit for bit
    default = solve(h, b, cfg)
    zero = solve(h, b, cfg, u0=np.zeros(121))
    assert zero.residual_history == default.residual_history
    assert np.array_equal(zero.u, default.u)
    # otherwise the tolerance is relative to the initial residual
    u0 = reference_start(121)
    res = solve(h, b, cfg, u0=u0)
    assert res.converged
    rel = np.linalg.norm(b - A @ res.u) / np.linalg.norm(b - A @ u0)
    assert np.isclose(rel, res.residual_history[-1], rtol=1e-12)
    assert rel <= 1e-5
    # a nonzero start still iterates on a zero right-hand side
    assert solve(h, np.zeros(121, dtype=complex), cfg, u0=u0).cycles > 0
    with pytest.raises(ValueError, match="initial iterate"):
        solve(h, b, cfg, u0=np.zeros(120))


def test_reference_start_counts_do_not_depend_on_seed():
    # the reference start stands for a random initial error: the counts
    # compared with the references must not depend on which seed draws it
    spec = ProblemSpec(kind="constant-k", k=15.0, nodes_per_dim=129,
                       shift=ShiftSpec(kind="fixed", beta2=0.7))
    h = build_hierarchy(spec, "bezier", "csl")
    b = assemble_rhs(spec)
    cfg = CycleConfig(gamma=1, smoother=SmootherConfig(kind="jacobi", nu=4))
    counts = {solve(h, b, cfg, u0=reference_start(b.shape[0], seed)).cycles
              for seed in range(5)}
    assert len(counts) == 1


def test_solve_max_cycles_status():
    h = two_level()
    b = assemble_rhs(h.spec)
    cfg = CycleConfig(gamma=1, smoother=SmootherConfig(kind="jacobi", nu=1),
                      tol=1e-14, max_cycles=2)
    res = solve(h, b, cfg)
    assert res.status == "max-cycles" and res.cycles == 2


def test_solve_stops_diverging_run():
    # k = 50 nu = 4 Jacobi V-cycles reach their smallest residual and then
    # grow; the run stops once it is 100x above that minimum instead of
    # climbing to an absolute guard hundreds of cycles later
    spec = ProblemSpec(kind="constant-k", k=50.0,
                       nodes_per_dim=nodes_for_wavenumber(50.0),
                       shift=ShiftSpec(kind="fixed", beta2=0.7))
    h = build_hierarchy(spec)
    b = assemble_rhs(spec)
    cfg = CycleConfig(gamma=1, smoother=SmootherConfig(kind="jacobi", nu=4),
                      max_cycles=1000)
    res = solve(h, b, cfg, u0=reference_start(b.shape[0]))
    assert res.status == "diverged" and res.cycles < 200
    assert res.residual_history[-1] > 100 * min(res.residual_history)


def test_solve_rejects_nonfinite_rhs():
    h = two_level()
    b = np.zeros(121, dtype=complex)
    b[0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve(h, b, CycleConfig(smoother=SmootherConfig()))


def test_gmres_smoothed_solve():
    spec = variable_spec(4.0, 8.0, "sharp", seed=1,
                         shift=ShiftSpec(kind="inverse-k"))
    h = build_hierarchy(spec, "bezier", "csl")
    b = assemble_rhs(spec)
    cfg = CycleConfig(gamma=2, smoother=SmootherConfig(kind="gmres", nu=2))
    res = solve(h, b, cfg)
    assert res.converged


@pytest.mark.parametrize("shift, nu, gamma, cycles", [
    (ShiftSpec(kind="fixed", beta2=0.7), 5, 1, 25),
    (ShiftSpec(kind="fixed", beta2=0.7), 5, 2, 25),
    (ShiftSpec(kind="inverse-k"), 3, 2, 5),
], ids=["beta0.7-nu5-V", "beta0.7-nu5-W", "invk-nu3-W"])
def test_gmres_reference_counts(shift, nu, gamma, cycles):
    # the k = 50 column of the README's reference-start table: a smoother
    # change that moves a GMRES count shows here, not only in acceptance
    spec = ProblemSpec(kind="constant-k", k=50.0,
                       nodes_per_dim=nodes_for_wavenumber(50.0), shift=shift)
    h = build_hierarchy(spec, "bezier", "csl")
    b = assemble_rhs(spec)
    cfg = CycleConfig(gamma=gamma, smoother=SmootherConfig(kind="gmres", m=3, nu=nu))
    res = solve(h, b, cfg, u0=reference_start(b.shape[0]))
    assert res.converged and res.cycles == cycles


def k50_problem():
    """k = 50 on its kh-rule grid with the beta2 = 0.7 CSL: spec, b, reference start."""
    spec = ProblemSpec(kind="constant-k", k=50.0,
                       nodes_per_dim=nodes_for_wavenumber(50.0),
                       shift=ShiftSpec(kind="fixed", beta2=0.7))
    b = assemble_rhs(spec)
    return spec, b, reference_start(b.shape[0])


def test_hierarchy_reused_across_configs():
    # one hierarchy solved in turn with GMRES m = 3, m = 5, Jacobi and
    # m = 3 again gives, solve by solve, the history of a freshly built
    # hierarchy.  A direct cycle before each solve leaves nothing behind
    # on the hierarchy that the solve could read.
    spec, b, u0 = k50_problem()
    smoothers = [SmootherConfig(kind="gmres", m=3, nu=3),
                 SmootherConfig(kind="gmres", m=5, nu=3),
                 SmootherConfig(kind="jacobi", nu=3),
                 SmootherConfig(kind="gmres", m=3, nu=3)]
    h = build_hierarchy(spec, "bezier", "csl")
    r0 = b - h.fine_operator @ u0
    for sm in smoothers:
        cfg = CycleConfig(smoother=sm, max_cycles=40)
        cycle(h, 0, u0, r0, cfg)
        got = solve(h, b, cfg, u0=u0)
        want = solve(build_hierarchy(spec, "bezier", "csl"), b, cfg, u0=u0)
        assert got.cycles == want.cycles
        assert got.residual_history == want.residual_history


def test_concurrent_solves_share_a_hierarchy():
    # two threads solve on one hierarchy, GMRES(3) and GMRES(5); each
    # history equals, bit for bit, the one from a freshly built hierarchy.
    # Results are collected and checked here, since an exception raised in
    # a thread does not fail the test.
    spec, b, u0 = k50_problem()
    cfgs = [CycleConfig(smoother=SmootherConfig(kind="gmres", m=m, nu=3), max_cycles=40)
            for m in (3, 5)]
    want = [solve(build_hierarchy(spec, "bezier", "csl"), b, cfg, u0=u0).residual_history
            for cfg in cfgs]
    h = build_hierarchy(spec, "bezier", "csl")
    got = [None, None]

    def run(i):
        try:
            got[i] = solve(h, b, cfgs[i], u0=u0).residual_history
        except Exception as exc:  # reported below, in the test's own thread
            got[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert got == want


def test_concurrent_coarsest_solves():
    # the coarsest level's LAPACK solve corrupts the heap when two threads
    # run it at once; four threads, more than the cores, each run many
    # coarsest-level cycles on one hierarchy with thread switches forced
    # often, and every result must equal the one-thread result
    h = two_level(n=17)
    top = h.nlevels - 1
    N = h.levels[top].op.shape[0]
    rng = np.random.default_rng(3)
    rs = [rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(4)]
    cfg = CycleConfig()
    zero = np.zeros(N, dtype=complex)
    want = [cycle(h, top, zero, r, cfg)[0] for r in rs]
    done = [0] * len(rs)

    def run(i):
        for _ in range(2000):
            if np.array_equal(cycle(h, top, zero, rs[i], cfg)[0], want[i]):
                done[i] += 1

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(rs))]
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
    assert done == [2000] * len(rs)


class CountingOp:
    """A level operator that counts its applications through ``@``."""

    def __init__(self, op):
        self.op = op
        self.calls = 0

    def __matmul__(self, x):
        self.calls += 1
        return self.op @ x


@pytest.mark.parametrize("gamma", [1, 2])
def test_cycle_operator_applications(monkeypatch, gamma):
    # k = 100 on n = 161 has six levels; with GMRES(3), nu = 5 a visit
    # applies its level operator once for the coarse correction and m
    # times per smoothing step, and no level forms b - A u from scratch.
    # The level above the coarsest solves there once whatever gamma is.
    spec = ProblemSpec(kind="constant-k", k=100.0, nodes_per_dim=161,
                       shift=ShiftSpec(kind="fixed", beta2=0.7))
    h = build_hierarchy(spec, "bezier", "csl")
    L = h.nlevels
    assert L == 6
    for lev in h.levels:
        lev.op = CountingOp(lev.op)
    cfg = CycleConfig(gamma=gamma, smoother=SmootherConfig(kind="gmres", m=3, nu=5))
    b = assemble_rhs(spec)
    visits = {}
    inner = mg.cycle

    def counted(h, level, u, r, cfg):
        visits[level] = visits.get(level, 0) + 1
        return inner(h, level, u, r, cfg)

    monkeypatch.setattr(mg, "cycle", counted)
    u, r = mg.cycle(h, 0, np.zeros_like(b), b, cfg)
    want = [gamma ** j for j in range(L - 1)] + [gamma ** (L - 2)]
    assert [visits[j] for j in range(L)] == want
    per_visit = 1 + 5 * 3
    assert [lev.op.calls for lev in h.levels] == [v * per_visit for v in want[:-1]] + [0]
    assert np.linalg.norm(r - (b - h.levels[0].op.op @ u)) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("smoother, gamma", [
    (SmootherConfig(kind="jacobi", nu=2), 1),
    (SmootherConfig(kind="gmres", m=3, nu=2), 2),
], ids=["jacobi-V", "gmres-W"])
def test_history_matches_true_residual(monkeypatch, smoother, gamma):
    # every history entry, not only the last, is ||b - A u_j|| / ||r0||
    spec = ProblemSpec(kind="constant-k", k=20.0, nodes_per_dim=33)
    h = build_hierarchy(spec, "bezier", "csl")
    assert h.nlevels == 3
    A = h.fine_operator
    b = assemble_rhs(spec)
    u0 = reference_start(b.shape[0])
    iterates = []
    inner = mg.cycle

    def record(h, level, u, r, cfg):
        out = inner(h, level, u, r, cfg)
        if level == 0:
            iterates.append(out[0])
        return out

    monkeypatch.setattr(mg, "cycle", record)
    res = solve(h, b, CycleConfig(gamma=gamma, smoother=smoother), u0=u0)
    assert res.converged and len(iterates) == res.cycles > 3
    r0 = np.linalg.norm(b - A @ u0)
    true = [np.linalg.norm(b - A @ u) / r0 for u in iterates]
    assert np.allclose(res.residual_history, true, rtol=1e-9, atol=0)

def test_cycle_config_validation():
    with pytest.raises(ValueError, match="gamma"):
        CycleConfig(gamma=3)
    with pytest.raises(ValueError, match="tol"):
        CycleConfig(tol=0.0)
    with pytest.raises(ValueError, match="max_cycles"):
        CycleConfig(max_cycles=0)


def test_history_csv_format():
    buf = io.StringIO()
    history_csv(buf, [0.5, 0.01])
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "cycle,relres"
    assert lines[1].startswith("1,5.0") and lines[2].startswith("2,1.0")


def test_benchmark_entry_points_exist():
    # perfbench/harness.py traces these names on helmmg.mg, reads a traced
    # cycle's level from its second positional argument, and reads the
    # built hierarchy's spec and levels
    for name in ("cycle", "apply_smoother", "build_wavenumber_field",
                 "assemble_helmholtz", "build_transfer_2d", "galerkin_coarse"):
        assert callable(getattr(mg, name, None)), name
    assert list(inspect.signature(mg.cycle).parameters)[1] == "level"
    spec = ProblemSpec(kind="constant-k", k=5.0, nodes_per_dim=11)
    h = mg.build_hierarchy(spec, scheme="bezier", coarsen_on="csl")
    assert h.spec is spec and h.nlevels == len(h.levels) == 2
    # the problem and solver calls it makes bind, with the same positional
    # and keyword arguments, and it reads these fields of a solve
    calls = [(nodes_for_wavenumber, (None,), {}),
             (ShiftSpec, (), dict(kind=None, beta2=None)),
             (ProblemSpec, (), dict(kind=None, k=None, k_min=None, k_max=None,
                                    profile=None, seed=None, nodes_per_dim=None,
                                    shift=None)),
             (SmootherConfig, (), dict(kind=None, m=None, nu=None)),
             (CycleConfig, (), dict(gamma=None, smoother=None, tol=None,
                                    max_cycles=None)),
             (mg.solve, (None, None, None), {})]
    for f, args, kwargs in calls:
        inspect.signature(f).bind(*args, **kwargs)
    res = mg.solve(h, assemble_rhs(spec), CycleConfig(max_cycles=1))
    assert res.status in ("converged", "max-cycles", "diverged")
    assert res.cycles == 1 and res.u.shape == (121,)
