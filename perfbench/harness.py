"""helmmg benchmark: workloads, timed passes, correctness gate and metrics.

Every workload runs both engines through the public API, so every
end-to-end metric exists on every workload: a list of multigrid solves and
the conv1/opt1 certificate rows at one wavenumber.  The workload's main
engine carries the heavy part (k = 100 solves, or the k = 20 rows); the
other engine runs a small companion case (the k = 10 rows, or a k = 20
solve on the n = 161 grid).

An untraced run (``trace=False``) repeats passes over the operations
until the time budget is used and reports medians, scaled to the nominal
machine speed that ``SpeedProbe`` measures between the operations.  A
traced run times one untraced pass and the same pass again with
``SpanRecorder`` wrappers installed, and reports the per-layer split.
"""

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from helmmg import certificate, mg, presets
from helmmg.mg import CycleConfig
from helmmg.problem import (
    ProblemSpec,
    ShiftSpec,
    assemble_helmholtz,
    assemble_rhs,
    build_wavenumber_field,
    nodes_for_wavenumber,
)
from helmmg.smoothing import SmootherConfig
from helmmg.transfer import build_transfer_2d

from spans import SpanRecorder
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent

BETA2 = 0.7
TOL = 1e-5
SMOOTHER = SmootherConfig(kind="gmres", m=3, nu=5)  # GMRES(3), nu = 5
MEDIA_PER_RUN = 4  # solve-w media per run
REFERENCE_MEDIUM_SEED = 1000
MIN_BUILD_S = 0.25  # a pass repeats each hierarchy build for at least this long
MIN_SOLVE_S = 3.0  # ... and each solve
LEVELS = 6  # per-level metrics cover levels 0..5 (the n = 161 hierarchy)


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload; ``problems(seed)`` makes the solve list."""

    problems: object
    gamma: int  # 1 = V-cycle, 2 = W-cycle
    cert_k: int  # wavenumber of the conv1/opt1 rows
    max_cycles: int = 1000
    baseline: dict = field(default_factory=dict)  # documented figures to cross-check


def constant_k(k, n=None):
    """MP 2-A on the kh = 0.625 grid with the beta2 = 0.7 CSL."""
    return ProblemSpec(kind="constant-k", k=float(k),
                       nodes_per_dim=n or nodes_for_wavenumber(k),
                       shift=ShiftSpec(kind="fixed", beta2=BETA2))


def smooth_media(k_min, k_max, count):
    """MP 2-B smooth media: the workload seed, then fixed reference seeds.

    Medium 0 has ProblemSpec.seed = workload seed; media 1.. use the fixed
    seeds REFERENCE_MEDIUM_SEED + 1, + 2, ...  Media differ by up to 1.6x
    in cycles, so four seeded media spread the mean by about 0.12 (IQR /
    median over seeds 1-10) before any timing noise; one seeded medium in a
    fixed mix keeps the seed's effect visible at about half that.
    """

    def make(seed):
        seeds = [seed] + [REFERENCE_MEDIUM_SEED + i for i in range(1, count)]
        return [ProblemSpec(kind="variable-k", k_min=float(k_min), k_max=float(k_max),
                            profile="smooth", seed=s,
                            nodes_per_dim=nodes_for_wavenumber(k_max),
                            shift=ShiftSpec(kind="fixed", beta2=BETA2))
                for s in seeds]

    return make


WORKLOADS = {
    "solve-v": Workload(problems=lambda seed: [constant_k(100)], gamma=1,
                        cert_k=10,
                        baseline={"cycles": 74, "op_complexity": 3.0}),
    "solve-w": Workload(problems=smooth_media(10, 100, MEDIA_PER_RUN), gamma=2,
                        cert_k=10, baseline={"op_complexity": 3.0}),
    # the companion solve uses the n = 161 grid of the solve workloads: on
    # the n = 33 certificate grid a solve is so short that machine noise
    # doubled its time between runs
    "certify-k20": Workload(problems=lambda seed: [constant_k(20, n=161)], gamma=1,
                            cert_k=20),
}

E2E_UNITS = {
    "solve_s": "s",
    "setup_s": "s",
    "ms_per_cycle": "ms",
    "cycles": "count",
    "conv1_row_s": "s",
    "opt1_row_s": "s",
    "peak_rss_mb": "MiB",
}


def _per_layer_units():
    units = {
        "problem.field_s": "s",
        "problem.assemble_s": "s",
        "transfer.build_s": "s",
        "transfer.galerkin_s": "s",
        "mg.coarse_lu_s": "s",
    }
    for j in range(LEVELS - 1):
        units[f"smoothing.L{j}_s"] = "s"
        units[f"smoothing.L{j}_calls"] = "count"
        units[f"mg.L{j}_other_s"] = "s"
    units.update({"mg.check_s": "s", "mg.coarse_s": "s", "mg.coarse_calls": "count",
                  "mg.levels": "count", "mg.op_complexity": "ratio"})
    for j in range(LEVELS):
        units[f"mg.L{j}_n"] = "count"
        units[f"mg.L{j}_nnz_per_row"] = "nnz/row"
        units[f"mg.L{j}_kh"] = "rad"
    for row, parts in (("conv1", ("norm_s", "hpd_s", "smoother_s", "form_s", "inputs_s")),
                       ("opt1", ("cond_s", "norm1_s", "smoother_s", "form_s", "inputs_s"))):
        for part in parts:
            units[f"certificate.{row}.{part}"] = "s"
    units.update({"certificate.norm_converged_frac": "ratio",
                  "certificate.norm_gap_max": "ratio",
                  "trace.overhead_frac": "ratio",
                  "fail_rate": "ratio"})
    return units


PER_LAYER_UNITS = _per_layer_units()


def trace_targets():
    """(module, attr, level argument index, keep result) to wrap; spans take attr's name."""
    c = certificate
    return [
        (mg, "cycle", 1, False),
        (mg, "apply_smoother", None, False),
        (mg, "build_wavenumber_field", None, False),
        (mg, "assemble_helmholtz", None, False),
        (mg, "build_transfer_2d", None, False),
        (mg, "galerkin_coarse", None, False),
        (c, "spectral_norm", None, True),
        (c, "cholesky_hpd_test", None, False),
        (c, "condition_number_p1", None, False),
        (c, "norm1", None, False),
        (c, "smoother_correction", None, False),
        (c, "table_entry", None, False),
        (c, "omega_sweep", None, False),
        (c, "assemble_gamma", None, False),
        (c, "gamma_tilde_ratio", None, False),
    ]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _row_inputs(k):
    spec = constant_k(k)
    fieldvals = build_wavenumber_field(spec)
    A = assemble_helmholtz(spec, fieldvals, shift_on=False)
    C = assemble_helmholtz(spec, fieldvals, shift_on=True)
    return spec, A, C


def conv1_row(k):
    """One row of ``helmmg certify --table conv1``: [(cfg, hpd, ||T0||)] x 4."""
    spec, A, C = _row_inputs(k)
    entries = []
    for scheme in ("linear", "bezier"):
        pair = build_transfer_2d(spec.nodes_per_dim, scheme)
        for coarsen in ("original", "csl"):
            cfg = certificate.TwoGridConfig(
                A=A, coarse_build_op=C if coarsen == "csl" else A, pair=pair,
                omega=presets.CONV1_OMEGA, nu=1)
            hpd, norm = certificate.table_entry(cfg)
            entries.append((cfg, hpd, norm))
    return entries


def opt1_row(k):
    """One row of ``helmmg certify --table opt1``: omega_sweep result rows."""
    spec, A, C = _row_inputs(k)
    pair = build_transfer_2d(spec.nodes_per_dim, "bezier")

    def make_cfg(omega, nu):
        return certificate.TwoGridConfig(A=A, coarse_build_op=C, pair=pair,
                                         omega=omega, nu=nu)

    return certificate.omega_sweep(make_cfg, presets.OPT1_OMEGAS, presets.OPT1_NUS)


class Run:
    """State of one benchmark run: inputs, samples and the failure count."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.problems = wl.problems(seed)
        self.rhs = [assemble_rhs(p) for p in self.problems]
        # the gate recomputes residuals with operators assembled here, not
        # with the ones the solver built
        self.fine_ops = [assemble_helmholtz(p, build_wavenumber_field(p), shift_on=False)
                         for p in self.problems]
        self.cfg = CycleConfig(gamma=wl.gamma, smoother=SMOOTHER, tol=TOL,
                               max_cycles=wl.max_cycles)
        self.hierarchies = [None] * len(self.problems)
        self.samples = defaultdict(list)  # setup and row timings
        self.solve_samples = [defaultdict(list) for _ in self.problems]
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.solve_cycles = []  # cycles of every gated solve, traced or not
        self.last_conv1 = []
        self.speed = None  # a SpeedProbe in untraced runs

    def _gate(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def one_pass(self, rec=None, reps=None):
        """Alternate set-up, solves and certificate rows over the problems.

        Slot j builds the hierarchy of problem j mod P and solves it, each
        repeated until it has run MIN_BUILD_S / MIN_SOLVE_S, then builds the
        conv1 and the opt1 row.  There are at least two slots, so every
        metric gets samples from at least two points of the pass and a
        slow phase of a shared machine does not set it alone.  Passing the
        returned ``reps`` back in replays the same operations.

        The speed probe times its sparse kernel before each build batch,
        before each solve and after the last solve of a slot, and its dense
        kernel before and after each row, so each factor reflects the speed
        while the operations it scales ran.
        """
        done = []
        for j in range(max(len(self.problems), 2)):
            i = j % len(self.problems)
            self._probe_speed("sparse")
            for step, floor in ((self._build, MIN_BUILD_S), (self._solve, MIN_SOLVE_S)):
                t0 = time.perf_counter()
                n = 0
                while True:
                    step(i, rec)
                    n += 1
                    if n >= reps[len(done)] if reps else time.perf_counter() - t0 >= floor:
                        break
                done.append(n)
            self._probe_speed("sparse")
            for row in (self._conv1, self._opt1):
                self._probe_speed("dense")
                row(rec)
            self._probe_speed("dense")
        return done

    def _probe_speed(self, kind):
        if self.speed is not None:
            self.speed.sample(kind)

    def _build(self, i, rec):
        with rec.span("build_hierarchy") if rec else nullcontext():
            t0 = time.perf_counter()
            h = mg.build_hierarchy(self.problems[i], scheme="bezier", coarsen_on="csl")
            self.samples["setup_s"].append(time.perf_counter() - t0)
        self.hierarchies[i] = h

    def _solve(self, i, rec):
        h, b, A = self.hierarchies[i], self.rhs[i], self.fine_ops[i]
        self._probe_speed("sparse")
        with rec.span("solve") if rec else nullcontext():
            t0 = time.perf_counter()
            res = mg.solve(h, b, self.cfg)
            dt = time.perf_counter() - t0
        rel = float(np.linalg.norm(b - A @ res.u) / np.linalg.norm(b))
        ok = res.status == "converged" and rel <= TOL
        self._gate(ok, f"solve {i}: status={res.status} cycles={res.cycles} relres={rel:.3e}")
        self.solve_cycles.append(res.cycles)
        per = self.solve_samples[i]
        per["solve_s"].append(dt)
        per["cycles"].append(res.cycles)
        per["ms_per_cycle"].append(1e3 * dt / max(res.cycles, 1))

    def _conv1(self, rec):
        k = self.wl.cert_k
        with rec.span("row.conv1") if rec else nullcontext():
            t0 = time.perf_counter()
            entries = conv1_row(k)
            self.samples["conv1_row_s"].append(time.perf_counter() - t0)
        for n, (_cfg, _hpd, norm) in enumerate(entries):
            self._gate(math.isfinite(norm), f"conv1 k={k} entry {n}: ||T0||={norm}")
        self.last_conv1 = entries

    def _opt1(self, rec):
        k = self.wl.cert_k
        with rec.span("row.opt1") if rec else nullcontext():
            t0 = time.perf_counter()
            cells = opt1_row(k)
            self.samples["opt1_row_s"].append(time.perf_counter() - t0)
        for cell in cells:
            self._gate(math.isfinite(cell["ratio"]) and not cell["flag"],
                       f"opt1 k={k} omega={cell['omega']} nu={cell['nu']}: "
                       f"ratio={cell['ratio']} flag={cell['flag']!r}")

    def warm_up(self):
        """Load lazy imports and first-call paths before anything is timed."""
        h = mg.build_hierarchy(self.problems[0], scheme="bezier", coarsen_on="csl")
        mg.solve(h, self.rhs[0], CycleConfig(gamma=self.wl.gamma, smoother=SMOOTHER,
                                             tol=TOL, max_cycles=1))
        conv1_row(5)
        opt1_row(5)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def summary(xs):
    """Median, count, and the highest percentile with ten samples beyond it.

    The percentile is left out (None) until it lies above the median,
    which takes at least 21 samples.
    """
    xs = sorted(xs)
    n = len(xs)
    upper = None
    i = n - 11
    if i >= 0 and (i + 1) / n > 0.5:
        upper = {"percentile": round(100.0 * (i + 1) / n, 1), "value": xs[i]}
    return {"n": n, "median": statistics.median(xs), "upper": upper, "max": xs[-1]}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _metric(value, unit):
    return {"value": float(value), "unit": unit}


# reference kernel that scales each timing (see speed.py)
SPEED_KIND = {"solve_s": "sparse", "setup_s": "sparse", "ms_per_cycle": "sparse",
              "conv1_row_s": "dense", "opt1_row_s": "dense"}


def end_to_end(run, rss):
    """Medians over repeats; solve figures are then averaged over the problems.

    Repeats of one input differ only by noise, so they are summarised by
    their median.  The problems of a workload (the solve-w media) differ in
    how hard they are, so their medians are averaged: the mean over a
    fixed input set varies less from seed to seed than its median.

    Each timing is then divided by the run's speed factor for its kind of
    work, so it reads as seconds at the nominal machine speed; the record
    keeps the unscaled timings and the factors.
    """
    s = run.samples

    def over_problems(name, med=statistics.median):
        return statistics.mean(med(per[name]) for per in run.solve_samples)

    values = {
        "solve_s": over_problems("solve_s"),
        "setup_s": statistics.median(s["setup_s"]),
        "ms_per_cycle": over_problems("ms_per_cycle"),
        "cycles": over_problems("cycles", statistics.median_low),
        "conv1_row_s": statistics.median(s["conv1_row_s"]),
        "opt1_row_s": statistics.median(s["opt1_row_s"]),
        "peak_rss_mb": rss,
    }
    for name, kind in SPEED_KIND.items():
        values[name] /= run.speed.factor(kind)
    return {name: _metric(values[name], unit) for name, unit in E2E_UNITS.items()}


def hierarchy_facts(h):
    """Per-level n, nnz/row and k*h, plus level count and operator complexity."""
    spec = h.spec
    k_max = spec.k if spec.kind == "constant-k" else spec.k_max
    nnz = [L.op.nnz for L in h.levels]
    facts = {"mg.levels": h.nlevels, "mg.op_complexity": sum(nnz) / nnz[0]}
    for j in range(LEVELS):
        L = h.levels[j] if j < h.nlevels else None
        facts[f"mg.L{j}_n"] = L.n if L else 0
        facts[f"mg.L{j}_nnz_per_row"] = L.op.nnz / L.op.shape[0] if L else 0.0
        facts[f"mg.L{j}_kh"] = k_max / (L.n - 1) if L else 0.0
    return facts


class SpanTotals:
    """Span self time, duration and count summed by (root, name, level)."""

    def __init__(self, spans):
        self.t = defaultdict(lambda: [0.0, 0.0, 0])
        for s in spans:
            a = self.t[(s.root, s.name, s.level)]
            a[0] += s.self_s
            a[1] += s.duration
            a[2] += 1

    def get(self, root, name, kind, level=None):
        col = {"self": 0, "dur": 1, "count": 2}[kind]
        return sum(v[col] for (r, n, lv), v in self.t.items()
                   if r == root and n == name and (level is None or lv == level))


def per_layer(run, rec, overhead, norm_gap):
    t = SpanTotals(rec.spans)
    builds = max(t.get("build_hierarchy", "build_hierarchy", "count"), 1)
    solves = max(t.get("solve", "solve", "count"), 1)
    conv1 = max(t.get("row.conv1", "row.conv1", "count"), 1)
    opt1 = max(t.get("row.opt1", "row.opt1", "count"), 1)
    coarsest = run.hierarchies[0].nlevels - 1

    def setup(name):
        return t.get("build_hierarchy", name, "dur") / builds

    v = {
        "problem.field_s": setup("build_wavenumber_field"),
        "problem.assemble_s": setup("assemble_helmholtz"),
        "transfer.build_s": setup("build_transfer_2d"),
        "transfer.galerkin_s": setup("galerkin_coarse"),
        "mg.coarse_lu_s": t.get("build_hierarchy", "build_hierarchy", "self") / builds,
    }
    for j in range(LEVELS - 1):
        v[f"smoothing.L{j}_s"] = t.get("solve", "apply_smoother", "dur", j) / solves
        v[f"smoothing.L{j}_calls"] = t.get("solve", "apply_smoother", "count", j) / solves
        v[f"mg.L{j}_other_s"] = (t.get("solve", "cycle", "self", j) / solves
                                 if j < coarsest else 0.0)
    v["mg.check_s"] = t.get("solve", "solve", "self") / solves
    v["mg.coarse_s"] = t.get("solve", "cycle", "dur", coarsest) / solves
    v["mg.coarse_calls"] = t.get("solve", "cycle", "count", coarsest) / solves
    v.update(hierarchy_facts(run.hierarchies[0]))

    def row(root, name, kind="dur"):
        return t.get(root, name, kind) / (conv1 if root == "row.conv1" else opt1)

    c1, o1 = "row.conv1", "row.opt1"
    v.update({
        "certificate.conv1.norm_s": row(c1, "spectral_norm"),
        "certificate.conv1.hpd_s": row(c1, "cholesky_hpd_test"),
        "certificate.conv1.smoother_s": row(c1, "smoother_correction"),
        "certificate.conv1.form_s": row(c1, "table_entry", "self"),
        "certificate.conv1.inputs_s": row(c1, c1, "self"),
        "certificate.opt1.cond_s": row(o1, "condition_number_p1"),
        "certificate.opt1.norm1_s": row(o1, "norm1"),
        "certificate.opt1.smoother_s": row(o1, "smoother_correction"),
        "certificate.opt1.form_s": sum(row(o1, n, "self") for n in
                                       ("omega_sweep", "gamma_tilde_ratio", "assemble_gamma")),
        "certificate.opt1.inputs_s": row(o1, o1, "self"),
    })
    flags = [conv for _value, conv in rec.results.get("spectral_norm", [])]
    v["certificate.norm_converged_frac"] = sum(flags) / len(flags) if flags else 0.0
    v["certificate.norm_gap_max"] = norm_gap
    v["trace.overhead_frac"] = overhead
    v["fail_rate"] = run.failed / max(run.attempted, 1)
    return {name: _metric(v[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def norm_gap_max(entries):
    """Largest |SVD norm - reported ||T0||| / SVD norm over conv1 entries."""
    gaps = []
    for cfg, _hpd, norm in entries:
        A = cfg.A.toarray()
        T0 = np.eye(A.shape[0], dtype=complex) - certificate.assemble_D(cfg) @ A
        exact = float(np.linalg.norm(T0, 2))
        gaps.append(abs(exact - norm) / exact)
    return max(gaps)


# ---------------------------------------------------------------------------
# record
# ---------------------------------------------------------------------------

def _git_rev():
    if not (ROOT / ".git").exists():  # a plain source checkout has no revision
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "helmmg").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment(blas_env):
    return {
        "git_rev": _git_rev(),
        "helmmg_source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": {v: os.environ.get(v) for v in blas_env},
        "machine": platform.machine(),
    }


def params(run, seed):
    wl = run.wl
    return {
        "seed": seed,
        "problems": [asdict(p) for p in run.problems],
        "cycle": {"gamma": wl.gamma, "smoother": asdict(SMOOTHER), "tol": TOL,
                  "max_cycles": wl.max_cycles, "scheme": "bezier", "coarsen_on": "csl"},
        "certificate_rows": {"k": wl.cert_k,
                             "conv1_omega": presets.CONV1_OMEGA, "conv1_nu": 1,
                             "opt1_omegas": list(presets.OPT1_OMEGAS),
                             "opt1_nus": list(presets.OPT1_NUS)},
        "min_build_s": MIN_BUILD_S,
        "min_solve_s": MIN_SOLVE_S,
    }


def crosschecks(run, layer=None):
    """Compare measured hierarchy and call counts with documented figures."""
    h = run.hierarchies[0]
    checks = []
    base = run.wl.baseline
    if "cycles" in base:
        checks.append({"name": "cycles", "expected": base["cycles"],
                       "measured": sorted(set(run.solve_cycles))})
    if "op_complexity" in base:
        oc = hierarchy_facts(h)["mg.op_complexity"]
        checks.append({"name": "op_complexity", "expected": base["op_complexity"],
                       "measured": round(oc, 2)})
    if layer is not None:
        # cycle counts repeat exactly; the last P solves cover each problem once
        cycles = statistics.mean(run.solve_cycles[-len(run.problems):])
        g = run.wl.gamma
        checks.append({
            "name": "coarse_calls_per_solve",
            "expected_formula": "cycles" if g == 1 else "cycles * 2^(levels-2)",
            "expected": cycles * (1 if g == 1 else 2 ** (h.nlevels - 2)),
            "recursion_gives": cycles * g ** (h.nlevels - 1),
            "measured": layer["mg.coarse_calls"]["value"],
        })
    for c in checks:
        m = c["measured"]
        c["ok"] = (m == [c["expected"]]) if isinstance(m, list) else m == c["expected"]
    return checks


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_workload(wl, seed, seconds, trace):
    """One benchmark run; returns (result, record, recorder or None)."""
    run = Run(wl, seed)
    run.warm_up()
    record = {"params": params(run, seed), "seconds": seconds, "trace": bool(trace)}
    rec = None
    if not trace:
        run.speed = SpeedProbe(dense_n=nodes_for_wavenumber(wl.cert_k) ** 2)
        t_start = time.perf_counter()
        passes = 0
        while True:
            t0 = time.perf_counter()
            run.one_pass()
            passes += 1
            now = time.perf_counter()
            if now - t_start + (now - t0) > seconds:
                break
        rss = peak_rss_mb()  # read before any check allocates more
        metrics = end_to_end(run, rss)
        record["passes"] = passes
        record["speed_factor"] = {k: run.speed.factor(k) for k in run.speed.samples}
        record["speed_samples"] = {k: summary(v) for k, v in run.speed.samples.items()}
        record["timings"] = {k: summary(v) for k, v in run.samples.items()}
        record["solve_timings"] = [{k: summary(v) for k, v in per.items()}
                                   for per in run.solve_samples]
        record["crosschecks"] = crosschecks(run)
    else:
        t0 = time.perf_counter()
        reps = run.one_pass()
        plain = time.perf_counter() - t0
        rec = SpanRecorder()
        with rec.install(trace_targets()):
            t0 = time.perf_counter()
            run.one_pass(rec, reps)
            traced = time.perf_counter() - t0
        overhead = (traced - plain) / plain
        metrics = per_layer(run, rec, overhead, norm_gap_max(run.last_conv1))
        record["untraced_pass_s"] = plain
        record["traced_pass_s"] = traced
        record["traced_root_spans_s"] = sum(s.duration for s in rec.spans if s.parent == -1)
        record["absent"] = rec.absent
        record["crosschecks"] = crosschecks(run, metrics)
    record["failures"] = run.failures
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return result, record, rec
