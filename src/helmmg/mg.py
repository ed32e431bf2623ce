"""Multilevel hierarchy construction and V-/W-cycle stationary iteration.

Level 0 smooths and computes residuals with the unshifted Helmholtz
operator A.  The coarse chain is built by Galerkin coarsening starting
from the CSL C (with beta2 = 0, C is A to the bit):

    L_1 = R C P,   L_{j+1} = R L_j P,

halving nodes-per-dimension (n -> (n+1)/2) while n is odd and >= 10;
the coarsest operator is LU-factorized densely.  One cycle at a level
is: restrict the residual, recurse gamma times starting from the zero
coarse correction, prolongate-and-add, post-smooth.  Smoothing is
post-smoothing only, the order the two-grid certificate models
(T0 = S^nu * CGC).

The residual r = b - A u travels with the iterate: a cycle takes and
returns the pair (u, r), a coarse level starts from R r (its own iterate
is zero), the coarse correction updates r with one matvec, and the
smoothers update it instead of forming b - A u again.  The level above the
coarsest visits it once whatever gamma is, since an exact solve repeated
on the same right-hand side returns the same vector.

A hierarchy is not changed after ``build_hierarchy`` returns, and a
cycle keeps no state outside its arguments, so solves may share one
hierarchy, from several threads too; their coarsest-level solves take
turns (``_COARSE_SOLVE``).
"""

import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .linalg import lu_factor_checked
from .problem import assemble_helmholtz, build_wavenumber_field
from .smoothing import SmootherConfig, apply_smoother, reciprocal_diagonal
from .transfer import build_transfer_2d, galerkin_coarse

COARSEST_NODES = 10  # stop coarsening when nodes-per-dim drops below this

#: the zgetrs of OpenBLAS 0.3.30, which scipy bundles and ``lu_solve``
#: calls, corrupts the heap when two threads call it at once, so concurrent
#: solves take turns at the coarsest level
_COARSE_SOLVE = threading.Lock()


@dataclass
class Level:
    """One hierarchy level: operator, grid size, its cached Jacobi scaling
    ``reciprocal_diagonal(op)``, transfer to next level."""

    op: object  # ComplexSparseMatrix (CSR)
    n: int
    inv_diag: np.ndarray  # cached 1 / diag(op), the Jacobi scaling
    pair: object = None  # TransferPair, absent on the coarsest level


@dataclass
class Hierarchy:
    """Levels (fine to coarse) and the coarsest dense LU."""

    levels: list
    coarse_lu: tuple
    spec: object = None

    @property
    def fine_operator(self):
        return self.levels[0].op

    @property
    def nlevels(self):
        return len(self.levels)


@dataclass
class CycleConfig:
    """Cycle shape and stopping rule."""

    gamma: int = 1  # 1 = V-cycle, 2 = W-cycle
    smoother: SmootherConfig = field(default_factory=SmootherConfig)
    tol: float = 1e-5
    max_cycles: int = 1000

    def __post_init__(self):
        if self.gamma not in (1, 2):
            raise ValueError("gamma must be 1 (V-cycle) or 2 (W-cycle)")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if self.max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {self.max_cycles}")


@dataclass
class SolveResult:
    """Solution, cycle count, residual history and final status."""

    u: np.ndarray
    cycles: int
    residual_history: list
    status: str  # {"converged" | "max-cycles" | "diverged"}

    @property
    def converged(self):
        return self.status == "converged"


def build_hierarchy(spec, scheme="bezier", coarsen_on="csl"):
    """Build the multilevel hierarchy for a problem spec.

    Level 0 always stores the unshifted A; the coarsening chain descends
    from the CSL of ``spec.shift``, so a beta2 = 0 shift coarsens on A.
    ``coarsen_on`` takes only ``'csl'``, the value the benchmark harness
    names; any other value raises ValueError.
    """
    if coarsen_on != "csl":
        raise ValueError(f"unknown coarsen_on mode {coarsen_on!r}")
    n = spec.nodes_per_dim
    if n < 11:
        raise ValueError("hierarchy needs nodes_per_dim >= 11 (at least two levels)")
    fieldvals = build_wavenumber_field(spec)
    A = assemble_helmholtz(spec, fieldvals, shift_on=False)
    levels = [Level(op=A, n=n, inv_diag=reciprocal_diagonal(A))]
    op = assemble_helmholtz(spec, fieldvals, shift_on=True)
    # stop on an even node count too: node-coincident coarsening needs odd n
    while n >= COARSEST_NODES and n % 2 == 1:
        pair = build_transfer_2d(n, scheme)
        op = galerkin_coarse(op, pair)
        n = (n + 1) // 2
        levels[-1].pair = pair
        levels.append(Level(op=op, n=n, inv_diag=reciprocal_diagonal(op)))
    coarse_lu = lu_factor_checked(levels[-1].op.toarray(),
                                  "coarsest operator (try a different shift)")
    return Hierarchy(levels=levels, coarse_lu=coarse_lu, spec=spec)


def cycle(h, level, u, r, cfg):
    """One multigrid cycle at ``level`` on the residual r = b - A u.

    Returns the updated pair (u, r).  The coarsest level solves exactly
    and returns a zero residual.
    """
    if level == h.nlevels - 1:
        with _COARSE_SOLVE:
            e = sla.lu_solve(h.coarse_lu, r)
        return u + e, np.zeros_like(r)
    L = h.levels[level]
    rc = L.pair.R @ r
    ec = np.zeros(rc.shape[0], dtype=complex)
    for _ in range(1 if level + 2 == h.nlevels else cfg.gamma):
        ec, rc = cycle(h, level + 1, ec, rc, cfg)
    d = L.pair.P @ ec
    return apply_smoother(L.op, u + d, r - L.op @ d, cfg.smoother, L.inv_diag)


#: a run stops as diverged once its relative residual exceeds this multiple
#: of the smallest one so far (the start's own 1.0 included)
DIVERGENCE_GROWTH = 100.0


def _stop_status(rel, best, tol):
    """'converged', 'diverged' or None for a relative residual ``rel``."""
    if rel <= tol:
        return "converged"
    if rel > DIVERGENCE_GROWTH * best or not np.isfinite(rel):
        return "diverged"
    return None


def solve(h, b, cfg, u0=None):
    """Stationary multigrid iteration from ``u0`` to the relative tolerance.

    ``u0`` defaults to zero.  Iteration stops at ||b - A u|| / ||b - A u0||
    <= tol, at max_cycles, or on divergence (relative residual above
    DIVERGENCE_GROWTH times the smallest so far, 1.0 at the start).  From
    the default zero start the denominator is ||b||.

    Between cycles the stop test reads the residual the cycle carries.
    Once that residual calls for a stop, or at the last cycle, b - A u is
    recomputed and decides instead; when it does not confirm the stop, the
    run continues from the recomputed residual.  So the stop and the last
    history entry always use the true residual.

    Multigrid convergence is usually measured from a random initial
    error; ``presets.reference_start`` gives the seeded start the
    reference cycle counts are compared from.
    """
    A = h.fine_operator
    b = np.asarray(b, dtype=complex)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side contains non-finite entries")
    if u0 is None:
        u = np.zeros_like(b)
    else:
        u = np.array(u0, dtype=complex)
        if u.shape != b.shape or not np.all(np.isfinite(u)):
            raise ValueError(
                "initial iterate must be finite and match the right-hand side")
    r = b - A @ u
    r0 = np.linalg.norm(r)
    history = []
    if r0 == 0.0:
        return SolveResult(u=u, cycles=0, residual_history=history, status="converged")
    best = 1.0
    for it in range(1, cfg.max_cycles + 1):
        u, r = cycle(h, 0, u, r, cfg)
        rel = float(np.linalg.norm(r) / r0)
        status = _stop_status(rel, best, cfg.tol)
        if status or it == cfg.max_cycles:
            r = b - A @ u
            rel = float(np.linalg.norm(r) / r0)
            status = _stop_status(rel, best, cfg.tol)
        history.append(rel)
        if status:
            return SolveResult(u=u, cycles=it, residual_history=history,
                               status=status)
        best = min(best, rel)
    return SolveResult(u=u, cycles=cfg.max_cycles, residual_history=history,
                       status="max-cycles")


def history_csv(f, history):
    """Write the residual history as CSV 'cycle,relres' rows."""
    f.write("cycle,relres\n")
    for i, rel in enumerate(history, start=1):
        f.write(f"{i},{rel:.10e}\n")
