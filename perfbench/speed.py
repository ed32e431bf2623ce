"""Machine-speed probe: two fixed reference kernels timed through a run.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 1.7x over minutes as other tenants load it, which moves every
timing of a run together.  The probe times two kernels that use numpy and
scipy only, never helmmg, between the measured operations:

- ``sparse``: complex CSR products and scipy GMRES on the n = 161 grid,
  the work mix of a multigrid solve and of hierarchy set-up;
- ``dense``: complex matrix-vector products with a dense N x N matrix, N
  the size of the certificate's operators.  A row's time follows the speed
  at which its dense matrices stream through the caches, which depends on
  N: at N = 1089 (k = 20) the rows tracked this kernel and not an in-cache
  448 x 448 product.

The caller samples each kernel next to the operations it scales.
``factor(kind)`` is the run's median kernel time over the kernel's
nominal time, so a timing divided by it reads as seconds at the nominal
machine speed: the speed at which the kernel takes its nominal time.  The
kernels are fixed, so a change to helmmg moves the timings and not the
factor.
"""

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DENSE_ENTRIES = 4e7  # matrix entries streamed by one dense sample
# Median kernel times on a 2-vCPU Intel Xeon 2.1 GHz virtual machine, one
# BLAS thread, the dense one per matrix size N of the workloads.  Only
# their being fixed matters: they set the scale, not the spread.  Sizes
# not listed (the smoke test's) use DENSE_OTHER_S.
SPARSE_NOMINAL_S = 0.2
DENSE_NOMINAL_S = {289: 0.1, 1089: 0.035}
DENSE_OTHER_S = 0.1


class SpeedProbe:
    """Times a reference kernel on each ``sample(kind)``; keeps every sample."""

    def __init__(self, dense_n):
        n = 161
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        lap = sp.kron(eye, t) + sp.kron(t, eye)
        self._A = (lap - (0.4 - 0.28j) * sp.identity(n * n)).tocsr().astype(complex)
        self._b = np.ones(n * n, dtype=complex)
        m = dense_n
        rng = np.random.default_rng(1)
        self._D = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / m
        self._x = np.ones(m, dtype=complex)
        self._products = max(1, round(DENSE_ENTRIES / m**2))
        self.nominal_s = {"sparse": SPARSE_NOMINAL_S,
                          "dense": DENSE_NOMINAL_S.get(m, DENSE_OTHER_S)}
        self._kernels = {"sparse": self._sparse, "dense": self._dense}
        self.samples = {kind: [] for kind in self._kernels}
        for kind in self._kernels:
            self.sample(kind)  # first calls load lazy imports; not kept
            self.samples[kind].clear()

    def _sparse(self):
        y = self._b.copy()
        for _ in range(200):
            y = self._A @ y
            y *= 0.1
            y += self._b
        spla.gmres(self._A, self._b, restart=20, maxiter=4, rtol=1e-30)

    def _dense(self):
        y = self._x
        for _ in range(self._products):
            y = self._D @ y

    def sample(self, kind):
        """Time one run of the ``kind`` kernel."""
        t0 = time.perf_counter()
        self._kernels[kind]()
        self.samples[kind].append(time.perf_counter() - t0)

    def factor(self, kind):
        """Median kernel time of the run over its nominal time."""
        return statistics.median(self.samples[kind]) / self.nominal_s[kind]
