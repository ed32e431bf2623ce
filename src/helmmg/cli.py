"""Command-line interface: ``helmmg solve | certify | bench``.

Exit codes, all set in ``main``: 0 success; 2 a refused configuration
(any ``ValueError``, including a grid too small for two levels); 3
divergence, a regression miss, or a pivot-checked factorization found
singular (``LinAlgError``); 4 the dense-size limit (``DenseLimitError``).
"""

import argparse
import dataclasses
import sys

import numpy as np

from . import presets
from .certificate import TwoGridConfig, certify, conv1_row, opt1_row
from .linalg import DenseLimitError, check_dense_limit
from .mg import CycleConfig, build_hierarchy, history_csv, solve
from .problem import (
    PPW_RULE,
    ProblemSpec,
    ShiftSpec,
    assemble_helmholtz,
    assemble_rhs,
    build_wavenumber_field,
    nodes_for_wavenumber,
    spec_to_config,
)
from .smoothing import SmootherConfig
from .transfer import build_transfer_2d

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_DENSE_LIMIT = 4


def _add_problem_args(p):
    p.add_argument("--k", type=float, help="constant wavenumber (MP 2-A)")
    p.add_argument("--k-min", type=float, help="minimum wavenumber (MP 2-B)")
    p.add_argument("--k-max", type=float, help="maximum wavenumber (MP 2-B)")
    p.add_argument("--profile", choices=["smooth", "sharp"],
                   default="smooth",
                   help="spatial profile of the MP 2-B wavenumber field")
    p.add_argument("--seed", type=int, default=1,
                   help="seed for the reproducible MP 2-B wavenumber field")
    p.add_argument("--n", type=int, default=None,
                   help=f"nodes per dimension (odd); default the smallest "
                        f"with k*h <= {PPW_RULE}")
    p.add_argument("--shift", default="0.7",
                   help="CSL shift beta2: a number, 'inv-k', or 'zero' "
                        "(the coarse chain is built from the CSL; 'zero', "
                        "the same as 0, builds it from the unshifted operator)")
    p.add_argument("--transfer", choices=["linear", "bezier"], default="bezier",
                   help="interpolation scheme for P")


def _add_smoother_args(p):
    p.add_argument("--smoother", choices=["jacobi", "gmres3"], default="jacobi")
    p.add_argument("--omega", type=float, default=4.5,
                   help="Jacobi damping: X = omega * diag(A)")
    p.add_argument("--nu", type=int, default=1, help="post-smoothing steps")


def _shift_spec(text):
    text = text.strip()
    if text == "inv-k":
        return ShiftSpec(kind="inverse-k")
    try:
        beta2 = 0.0 if text == "zero" else float(text)
    except ValueError:
        raise ValueError(f"--shift must be a number, 'inv-k' or 'zero', got {text!r}")
    return ShiftSpec(kind="fixed", beta2=beta2)


def _refuse_set(args, dests, reader):
    """Refuse, by name, the options in ``dests`` set away from their parser
    defaults: ``reader`` would silently ignore them."""
    defaults = vars(build_parser().parse_args([args.command]))
    unread = ["--" + dest.replace("_", "-") for dest in dests
              if getattr(args, dest) != defaults[dest]]
    if unread:
        raise ValueError(f"{reader} does not read {', '.join(unread)}")


def _problem_spec(args):
    shift = _shift_spec(args.shift)
    if args.k is not None:
        if args.k_min is not None or args.k_max is not None:
            raise ValueError("give either --k or --k-min/--k-max, not both")
        _refuse_set(args, ("profile", "seed"), "a constant-k problem (--k)")
        kwargs = dict(kind="constant-k", k=args.k)
    elif args.k_min is not None and args.k_max is not None:
        kwargs = dict(kind="variable-k", k_min=args.k_min, k_max=args.k_max,
                      profile=args.profile, seed=args.seed)
    else:
        raise ValueError("a problem needs --k or both --k-min and --k-max")
    k_top = args.k if args.k is not None else args.k_max
    n = nodes_for_wavenumber(k_top) if args.n is None else args.n
    return ProblemSpec(nodes_per_dim=n, shift=shift, **kwargs)


def _smoother_config(args):
    kind = "gmres" if args.smoother == "gmres3" else "jacobi"
    if kind == "gmres":
        _refuse_set(args, ("omega",), "--smoother gmres3")
    return SmootherConfig(kind=kind, omega=args.omega, m=3, nu=args.nu)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _dump_solution_csv(f, spec, u):
    """Solution field as CSV 'x,y,re,im' rows, row-major (x fastest)."""
    xs = np.linspace(0.0, 1.0, spec.nodes_per_dim)
    x, y = np.meshgrid(xs, xs)
    np.savetxt(f, np.column_stack([x.ravel(), y.ravel(), u.real, u.imag]),
               fmt=["%.10g", "%.10g", "%.10e", "%.10e"], delimiter=",",
               header="x,y,re,im", comments="")


def cmd_solve(args):
    spec = _problem_spec(args)
    sm = _smoother_config(args)
    cfg = CycleConfig(gamma=2 if args.cycle == "w" else 1, smoother=sm,
                      tol=args.tol, max_cycles=args.max_cycles)
    if args.dump_config:
        _refuse_set(args, ("out", "field_dump"), "--dump-config")
        sys.stdout.write(spec_to_config(spec))
        omega = f"omega = {args.omega!r}\n" if sm.kind == "jacobi" else ""
        sys.stdout.write(f"transfer = {args.transfer}\n"
                         f"smoother = {args.smoother}\n"
                         f"{omega}nu = {args.nu}\n"
                         f"cycle = {args.cycle}\n"
                         f"tol = {args.tol!r}\nmax_cycles = {args.max_cycles}\n")
        return EXIT_OK
    h = build_hierarchy(spec, scheme=args.transfer)
    b = assemble_rhs(spec)
    res = solve(h, b, cfg)
    if args.field_dump:
        with open(args.field_dump, "w") as f:
            _dump_solution_csv(f, spec, res.u)
    final = res.residual_history[-1] if res.residual_history else 0.0
    print(f"status={res.status} cycles={res.cycles} relres={final:.4e} "
          f"n={spec.nodes_per_dim} levels={h.nlevels}")
    if args.out:
        with open(args.out, "w") as f:
            history_csv(f, res.residual_history)
    return EXIT_OK if res.converged else EXIT_DIVERGED


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

#: Jacobi damping of a single certified configuration when --omega is not given
CERTIFY_OMEGA = 4.5


def cmd_certify(args):
    if args.table:
        reads = {"conv1": ("omega", "regress"), "opt1": ("regress",)}[args.table]
        _refuse_set(args, [d for d in vars(args) if d not in ("table", *reads)],
                    f"--table {args.table} reads only "
                    f"{', '.join('--' + dest for dest in reads)}; it")
        return _certify_conv1(args) if args.table == "conv1" else _certify_opt1(args)
    _refuse_set(args, ("regress",), "certify without --table")
    spec = _problem_spec(args)
    check_dense_limit(spec.nodes_per_dim ** 2)  # before any assembly
    fieldvals = build_wavenumber_field(spec)
    cfg = TwoGridConfig(
        A=assemble_helmholtz(spec, fieldvals, shift_on=False),
        coarse_build_op=assemble_helmholtz(spec, fieldvals, shift_on=True),
        pair=build_transfer_2d(spec.nodes_per_dim, args.transfer),
        omega=CERTIFY_OMEGA if args.omega is None else args.omega, nu=args.nu)
    report = certify(cfg)
    print(report.to_text())
    if args.out:
        with open(args.out, "w") as f:
            f.write(report.CSV_HEADER + "\n")
            f.write(report.to_csv_row() + "\n")
    return EXIT_OK


def _regress(cells, band):
    """Print the --regress summary of (verdict agrees, value, reference)
    cells and return the exit code."""
    misses = sum(not (agrees and presets.band_allows(ref, got, presets.TABLE_BAND))
                 for agrees, got, ref in cells)
    print(f"regression: {misses} cell(s) outside the {band} band")
    return EXIT_OK if misses == 0 else EXIT_DIVERGED


def _certify_conv1(args):
    omega = presets.CONV1_OMEGA if args.omega is None else args.omega
    rows = {k: conv1_row(k, omega) for k in presets.CONV1_KS}
    print(f"two-grid certificate table (omega = {omega}, nu = 1)")
    print("k    lin/A            lin/C            bez/A            bez/C")
    for k, row in rows.items():
        print(f"{k:<4} " + "  ".join(f"{'+' if ok else 'x'} ||T0||={t0:7.3f}"
                                     for ok, t0 in row.values()))
    if not args.regress:
        return EXIT_OK
    refs = presets.CONV1_REFERENCE
    return _regress([(ok == refs[k][col][0], t0, refs[k][col][1])
                     for k, row in rows.items() for col, (ok, t0) in row.items()],
                    "verdict/15%")


def _certify_opt1(args):
    print("||Gamma-tilde||_1 / kappa_1(Gamma-tilde) (nu = 1, 2 per cell)")
    print("k    " + "  ".join(f"omega={w:<4}" for w in presets.OPT1_OMEGAS))
    rows = {}
    for k in presets.CONV1_KS:
        row = rows[k] = opt1_row(k)
        print(f"{k:<4} " + "  ".join(f"{row[(w, 1)]:.3f}/{row[(w, 2)]:.3f}"
                                     for w in presets.OPT1_OMEGAS))
    if not args.regress:
        return EXIT_OK
    return _regress([(True, rows[k][(w, nu)], ref) for k in rows
                     for w, refs in presets.OPT1_REFERENCE[k].items()
                     for nu, ref in zip(presets.OPT1_NUS, refs)], "15%")


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(args):
    if args.preset not in presets.PRESETS:
        raise ValueError(
            f"unknown preset {args.preset!r}; choose from "
            + ", ".join(sorted(presets.PRESETS))
        )
    cases = presets.PRESETS[args.preset]()
    if args.case:
        cases = [c for c in cases if args.case in c["name"]]
        if not cases:
            raise ValueError(f"no case in preset {args.preset!r} matches {args.case!r}")
    if args.max_cycles is not None:
        cases = [{**c, "cfg": dataclasses.replace(c["cfg"], max_cycles=args.max_cycles)}
                 for c in cases]
    out = open(args.out, "w") if args.out else None
    if out:
        out.write("case,expected,measured,status,within_band\n")
    failures = 0
    diverged = 0
    for case in cases:
        h = build_hierarchy(case["spec"])
        b = assemble_rhs(case["spec"])
        # the start the reference counts are compared from
        res = solve(h, b, case["cfg"], u0=presets.reference_start(b.shape[0]))
        ok = res.converged and presets.band_allows(case["expected"], res.cycles,
                                                   case["band"])
        if not res.converged:
            diverged += 1
        if args.regress and not ok:
            failures += 1
        tag = "ok" if ok else "MISS"
        print(f"{case['name']:<24} expected={case['expected']:<4} "
              f"measured={res.cycles:<4} status={res.status:<10} {tag}")
        if out:
            out.write(f"{case['name']},{case['expected']},{res.cycles},"
                      f"{res.status},{int(ok)}\n")
    if out:
        out.close()
    if args.regress:
        print(f"regression: {failures} of {len(cases)} case(s) outside band")
        return EXIT_OK if failures == 0 else EXIT_DIVERGED
    return EXIT_DIVERGED if diverged else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="helmmg",
        description="Geometric multigrid solver and convergence certificates "
                    "for the 2D indefinite Helmholtz equation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the multigrid solver on one problem")
    _add_problem_args(ps)
    _add_smoother_args(ps)
    ps.add_argument("--cycle", choices=["v", "w"], default="v")
    ps.add_argument("--tol", type=float, default=1e-5)
    ps.add_argument("--max-cycles", type=int, default=1000)
    ps.add_argument("--out", help="write the residual history CSV here")
    ps.add_argument("--field-dump",
                    help="write the solution as CSV 'x,y,re,im' rows here")
    ps.add_argument("--dump-config", action="store_true",
                    help="print the resolved configuration and exit")
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("certify", help="two-grid convergence certificates")
    _add_problem_args(pc)
    pc.add_argument("--omega", type=float, default=None,
                    help=f"Jacobi damping: X = omega * diag(A) (default "
                         f"{CERTIFY_OMEGA}; {presets.CONV1_OMEGA} with --table conv1)")
    pc.add_argument("--nu", type=int, default=1)
    pc.add_argument("--table", choices=["conv1", "opt1"],
                    help="reproduce a published certificate table instead of "
                         "certifying a single configuration (conv1 reads only "
                         "--omega and --regress, opt1 only --regress)")
    pc.add_argument("--regress", action="store_true",
                    help="compare table values against bundled references")
    pc.add_argument("--out", help="write the report CSV here")
    pc.set_defaults(func=cmd_certify)

    pb = sub.add_parser("bench", help="run an experiment preset from the seeded "
                                      "reference start")
    pb.add_argument("preset", help="preset name: " + ", ".join(sorted(presets.PRESETS)))
    pb.add_argument("--case", help="substring filter on case names")
    pb.add_argument("--max-cycles", type=int, default=None,
                    help="override the per-case cycle cap")
    pb.add_argument("--regress", action="store_true",
                    help="fail (exit 3) when any case leaves its band")
    pb.add_argument("--out", help="write per-case results CSV here")
    pb.set_defaults(func=cmd_bench)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DenseLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DENSE_LIMIT
    except np.linalg.LinAlgError as exc:  # a ValueError subclass: caught first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
