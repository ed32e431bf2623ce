"""Model problems MP2-A / MP2-B and operator assembly.

The continuous problem is the 2D indefinite Helmholtz equation

    -Laplace(u) - k(x,y)^2 u = delta(x - 1/2, y - 1/2)   on [0,1]^2

with the first-order Sommerfeld radiation condition (d/dn - i k) u = 0 on
the boundary.  Discretization is the standard 5-point stencil on a
uniform grid with every node (boundary included) an unknown, lexicographic
ordering with x fastest, and h = 1/(n - 1) for n nodes per dimension.

Sommerfeld handling: for each missing stencil neighbor of a boundary node
the pair (-1/h^2 - i k_node / h) is added to the diagonal (one-sided
elimination of the boundary condition).  This keeps the operator complex
symmetric (A = A^T) with all absorption terms on the diagonal.

The complex-shifted Laplacian (CSL) C differs from A only on the
diagonal: C = A - i * beta2 * k_node^2, moving the spectrum off the real
axis.  C is used solely to build the coarse-grid chain.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

PPW_RULE = 0.625  # kh <= 0.625 is ~10 grid points per wavelength


@dataclass(frozen=True)
class ShiftSpec:
    """Complex-shift specification: fixed beta2, inverse-k, or zero."""

    kind: str = "fixed"  # {"fixed" | "inverse-k" | "zero"}
    beta2: float = 0.7

    def __post_init__(self):
        if self.kind not in ("fixed", "inverse-k", "zero"):
            raise ValueError(f"unknown shift kind {self.kind!r}")
        if self.kind == "fixed" and not (np.isfinite(self.beta2) and self.beta2 >= 0):
            raise ValueError(f"shift beta2 must be finite and >= 0, got {self.beta2}")


@dataclass(frozen=True)
class ProblemSpec:
    """Geometry, wavenumber field, shift and resolution of one problem."""

    kind: str = "constant-k"  # {"constant-k" | "variable-k"}
    k: float = 0.0
    k_min: float = 0.0
    k_max: float = 0.0
    profile: str = "smooth"  # {"smooth" | "sharp"}, variable-k only
    seed: int = 1
    nodes_per_dim: int = 0
    shift: ShiftSpec = field(default_factory=ShiftSpec)

    def __post_init__(self):
        n = self.nodes_per_dim
        if n < 3 or n % 2 == 0:
            raise ValueError(f"nodes_per_dim must be odd and >= 3, got {n}")
        h = 1.0 / (n - 1)
        if self.kind == "constant-k":
            if not (np.isfinite(self.k) and self.k > 0):
                raise ValueError(f"k must be finite and > 0, got {self.k}")
            if self.k * h > PPW_RULE + 1e-12:
                raise ValueError(
                    f"under-resolved grid: k*h = {self.k * h:.4f} > {PPW_RULE}"
                )
        elif self.kind == "variable-k":
            if not (0 < self.k_min <= self.k_max):
                raise ValueError("variable-k problem requires 0 < k_min <= k_max")
            if self.k_max * h > PPW_RULE + 1e-12:
                raise ValueError(
                    f"under-resolved grid: k_max*h = {self.k_max * h:.4f} > {PPW_RULE}"
                )
            if self.profile not in ("smooth", "sharp"):
                raise ValueError(f"unknown profile {self.profile!r}")
        else:
            raise ValueError(f"unknown problem kind {self.kind!r}")

    @property
    def h(self):
        return 1.0 / (self.nodes_per_dim - 1)


def nodes_for_wavenumber(k, ppw_rule=PPW_RULE):
    """Smallest odd node count n with k/(n-1) <= ppw_rule."""
    if not (np.isfinite(k) and k > 0):
        raise ValueError(f"k must be finite and > 0, got {k}")
    if not (np.isfinite(ppw_rule) and ppw_rule > 0):
        raise ValueError(f"ppw rule (max k*h) must be finite and > 0, got {ppw_rule}")
    n = int(np.ceil(k / ppw_rule)) + 1
    if k / (n - 1) > ppw_rule:  # guard against ceil landing exactly short
        n += 1
    if n % 2 == 0:
        n += 1
    return max(n, 3)


# ---------------------------------------------------------------------------
# Seeded field generation (splitmix64, bit-reproducible across platforms)
# ---------------------------------------------------------------------------

_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_M2 = np.uint64(0x94D049BB133111EB)


def splitmix64_uniform(seed, count):
    """``count`` uniforms in [0,1) from the splitmix64 mixing generator.

    The stream is a pure function of ``seed`` (64-bit), identical on every
    platform; each output uses the top 53 bits of one mixed state.
    """
    idx = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _SM64_GAMMA
        z = (z ^ (z >> np.uint64(30))) * _SM64_M1
        z = (z ^ (z >> np.uint64(27))) * _SM64_M2
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def build_wavenumber_field(spec):
    """Per-node wavenumber values as a flat (n*n,) array, x fastest.

    constant-k: uniform field.  variable-k sharp: k_min + (k_max -
    k_min) * chi with chi i.i.d. uniform[0,1).  variable-k smooth: chi is
    the bilinear interpolation of a seeded 5x5 uniform lattice, affinely
    rescaled so the field attains k_min and k_max exactly.
    """
    n = spec.nodes_per_dim
    if spec.kind == "constant-k":
        return np.full(n * n, float(spec.k))
    if spec.profile == "sharp":
        chi = splitmix64_uniform(spec.seed, n * n)
        return spec.k_min + (spec.k_max - spec.k_min) * chi
    # smooth: bilinear interpolation of a 5x5 lattice over [0,1]^2
    lattice = splitmix64_uniform(spec.seed, 25).reshape(5, 5)
    xs = np.linspace(0.0, 1.0, n)
    t = xs * 4.0
    i0 = np.minimum(t.astype(int), 3)
    f = t - i0
    # interpolate along x for every lattice row, then along y
    rows = lattice[:, i0] * (1.0 - f) + lattice[:, i0 + 1] * f  # (5, n)
    F = rows[i0, :] * (1.0 - f)[:, None] + rows[i0 + 1, :] * f[:, None]  # (ny, nx)
    F = (F - F.min()) / (F.max() - F.min())
    return (spec.k_min + (spec.k_max - spec.k_min) * F).ravel()


def resolve_beta2(spec, fieldvals):
    """Numeric beta2 for a spec: fixed value, 1/k_max of the field, or 0."""
    if spec.shift.kind == "zero":
        return 0.0
    if spec.shift.kind == "inverse-k":
        return 1.0 / float(np.max(fieldvals))
    return float(spec.shift.beta2)


def assemble_helmholtz(spec, fieldvals, shift_on):
    """Assemble A (shift_on=False) or the CSL C (shift_on=True) as CSR.

    All n^2 nodes are unknowns.  Interior rows carry the 5-point stencil
    h^-2 [-1; -1, 4, -1; -1] minus s*k^2 on the diagonal with s = 1 for A
    and s = 1 + i*beta2 for C.  Each missing boundary neighbor
    contributes -1/h^2 - i*k_node/h to the diagonal (Sommerfeld).
    """
    n = spec.nodes_per_dim
    N = n * n
    fieldvals = np.asarray(fieldvals, dtype=float)
    if fieldvals.shape != (N,):
        raise ValueError("wavenumber field does not match the grid")
    h = spec.h
    s = 1.0 + 1j * resolve_beta2(spec, fieldvals) if shift_on else 1.0
    k = fieldvals.reshape(n, n)  # rows are y, columns are x
    diag = (4.0 / h**2 - s * k**2).astype(complex)
    # Sommerfeld terms on the x-, x+, y-, y+ edges; a corner sums two, in this order
    for edge in (np.s_[:, 0], np.s_[:, -1], np.s_[0, :], np.s_[-1, :]):
        diag[edge] += -1.0 / h**2 - 1j * k[edge] / h
    T = sp.diags([-1.0 / h**2, -1.0 / h**2], [-1, 1], shape=(n, n))
    A = (sp.kronsum(T, T) + sp.diags(diag.ravel())).tocsr()
    A.sort_indices()
    return A


def assemble_rhs(spec):
    """Discrete point source: 1/h^2 at the center node, zero elsewhere."""
    n = spec.nodes_per_dim
    b = np.zeros(n * n, dtype=complex)
    c = n // 2
    b[c * n + c] = 1.0 / spec.h**2
    return b


# ---------------------------------------------------------------------------
# Plain-text config dump and spec helpers
# ---------------------------------------------------------------------------

def spec_to_config(spec):
    """Serialize a ProblemSpec as 'key = value' lines.

    Only the fields the spec's kind and shift read are written: k for
    constant-k; k_min, k_max, profile and seed for variable-k; beta2 for a
    fixed shift.
    """
    if spec.kind == "constant-k":
        lines = [f"kind = {spec.kind}", f"k = {spec.k!r}"]
    else:
        lines = [f"kind = {spec.kind}", f"k_min = {spec.k_min!r}",
                 f"k_max = {spec.k_max!r}", f"profile = {spec.profile}",
                 f"seed = {spec.seed}"]
    lines += [f"nodes_per_dim = {spec.nodes_per_dim}", f"shift_kind = {spec.shift.kind}"]
    if spec.shift.kind == "fixed":
        lines.append(f"shift_beta2 = {spec.shift.beta2!r}")
    return "\n".join(lines) + "\n"


def variable_spec(k_min, k_max, profile, seed=1, shift=None):
    """Convenience: variable-k spec resolved against k_max."""
    return ProblemSpec(
        kind="variable-k",
        k_min=float(k_min),
        k_max=float(k_max),
        profile=profile,
        seed=seed,
        nodes_per_dim=nodes_for_wavenumber(k_max),
        shift=shift or ShiftSpec(),
    )
