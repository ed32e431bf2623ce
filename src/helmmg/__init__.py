"""Geometric multigrid for the 2D indefinite Helmholtz equation.

Stand-alone V-/W-cycle solver built from CSL-based Galerkin coarsening,
quadratic-rational-Bezier transfer operators and omega-Jacobi or GMRES(3)
smoothing, together with a two-grid convergence-certificate engine (HPD
tests on Gamma / Gamma-tilde and optimality bounds).
"""

from .linalg import (
    DENSE_LIMIT,
    Verdict,
    cholesky_hpd_test,
    condition_number_p1,
    norm1,
    quick_pd_screen,
)
from .problem import (
    ProblemSpec,
    assemble_helmholtz,
    assemble_rhs,
    build_wavenumber_field,
    nodes_for_wavenumber,
)
from .transfer import TransferPair, build_prolongation_1d, build_transfer_2d, galerkin_coarse
from .smoothing import SmootherConfig, gmres_smooth, jacobi_sweep
from .mg import CycleConfig, Hierarchy, build_hierarchy, cycle, solve
from .certificate import CertificateReport, TwoGridConfig, certify, omega_sweep

__version__ = "0.1.0"
