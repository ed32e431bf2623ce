import argparse
import pathlib
import shlex

import numpy as np
import pytest

from helmmg import certificate, cli, presets
from helmmg.cli import (
    EXIT_DENSE_LIMIT,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from helmmg.problem import ShiftSpec


def test_solve_constant_k(capsys, tmp_path):
    out = tmp_path / "hist.csv"
    rc = main(["solve", "--k", "10", "--nu", "2", "--cycle", "v",
               "--out", str(out)])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "status=converged" in text
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "cycle,relres"
    assert float(lines[-1].split(",")[1]) <= 1e-5


def test_solve_variable_k_field_dump(capsys, tmp_path):
    dump = tmp_path / "field.csv"
    rc = main(["solve", "--k-min", "4", "--k-max", "8", "--profile", "sharp",
               "--seed", "3", "--nu", "2", "--shift", "inv-k",
               "--field-dump", str(dump)])
    assert rc == EXIT_OK
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "x,y,re,im"
    vals = np.array([[float(c) for c in l.split(",")] for l in lines[1:]])
    n = int(round(np.sqrt(len(vals))))
    assert n * n == len(vals)
    assert np.abs(vals[:, 2] + 1j * vals[:, 3]).max() > 0.0


def test_solve_dump_config(capsys):
    rc = main(["solve", "--k", "10", "--dump-config"])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "kind = constant-k" in text
    assert "nodes_per_dim = 17" in text
    assert "smoother = jacobi" in text
    # each dump holds only the keys its problem kind, shift and smoother read
    keys = [line.split(" = ")[0] for line in text.splitlines()]
    assert keys == ["kind", "k", "nodes_per_dim", "shift_kind", "shift_beta2",
                    "transfer", "smoother", "omega", "nu", "cycle", "tol",
                    "max_cycles"]
    rc = main(["solve", "--k-min", "1", "--k-max", "20", "--shift", "inv-k",
               "--smoother", "gmres3", "--dump-config"])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "kind = variable-k" in text and "k_max = 20.0" in text
    keys = [line.split(" = ")[0] for line in text.splitlines()]
    assert keys == ["kind", "k_min", "k_max", "profile", "seed", "nodes_per_dim",
                    "shift_kind", "transfer", "smoother", "nu", "cycle", "tol",
                    "max_cycles"]


def test_zero_shift_spellings_agree():
    # 'zero', '0' and '0.0' are one shift: beta2 = 0, coarsening on A
    specs = [cli._problem_spec(cli.build_parser().parse_args(
        ["solve", "--k", "10", "--shift", text])) for text in ("zero", "0", "0.0")]
    assert specs[0] == specs[1] == specs[2]
    assert specs[0].shift == ShiftSpec(kind="fixed", beta2=0.0)


def test_usage_errors(capsys, tmp_path):
    assert main(["solve"]) == EXIT_USAGE  # no wavenumber at all
    assert main(["solve", "--k", "10", "--k-min", "1", "--k-max", "2"]) == EXIT_USAGE
    assert main(["solve", "--k", "10", "--shift", "junk"]) == EXIT_USAGE
    assert main(["solve", "--k", "50", "--n", "11"]) == EXIT_USAGE  # under-resolved
    assert main(["bench", "no-such-preset"]) == EXIT_USAGE
    assert main(["not-a-command"]) == EXIT_USAGE
    capsys.readouterr()
    # out-of-range values, and options the run does not read, are refused
    # by name instead of being ignored
    out = tmp_path / "out.csv"
    dump = tmp_path / "field.csv"
    for argv, named in [
        (["solve", "--k", "10", "--max-cycles", "0"], "max_cycles"),
        (["solve", "--k", "10", "--max-cycles", "-3"], "max_cycles"),
        (["bench", "h-independence", "--max-cycles", "0", "--out", str(out)],
         "max_cycles"),
        (["certify", "--table", "conv1", "--nu", "4"], "--nu"),
        (["certify", "--table", "conv1", "--nu", "4", "--k", "50"], "--k, --nu"),
        (["certify", "--table", "opt1", "--omega", "9"], "--omega"),
        (["certify", "--table", "conv1", "--out", str(out)], "--out"),
        (["certify", "--table", "conv1", "--omega", "0"], "omega"),
        (["solve", "--k", "10", "--profile", "sharp", "--seed", "7"],
         "--profile, --seed"),
        (["certify", "--k", "5", "--n", "9", "--seed", "7", "--out", str(out)],
         "--seed"),
        (["solve", "--k", "10", "--n", "0"], "nodes_per_dim"),
        (["solve", "--k", "10", "--smoother", "gmres3", "--omega", "2"], "--omega"),
        (["solve", "--k", "10", "--profile", "constant"], "--profile"),
        (["certify", "--k", "5", "--n", "9", "--nu", "-1", "--out", str(out)], "nu"),
        (["certify", "--k", "5", "--n", "9", "--omega", "0", "--out", str(out)],
         "omega"),
        (["certify", "--k", "5", "--n", "9", "--omega", "-2", "--out", str(out)],
         "omega"),
        (["certify", "--k", "5", "--n", "9", "--regress", "--out", str(out)],
         "--regress"),
        (["solve", "--k", "10", "--dump-config", "--out", str(out),
          "--field-dump", str(dump)], "--out, --field-dump"),
        (["solve", "--k", "10", "--shift", "-0.5"], "shift beta2"),
        (["solve", "--k", "10", "--shift", "nan"], "shift beta2"),
        (["solve", "--k", "nan"], "k must be finite"),
        (["solve", "--k", "inf"], "k must be finite"),
        (["solve", "--k", "nan", "--n", "33"], "k must be finite"),
        (["solve", "--k", "10", "--ppw", "0.3"], "unrecognized arguments: --ppw"),
        (["solve", "--k", "10", "--tol", "inf"], "tol"),
        (["solve", "--k", "10", "--tol", "nan"], "tol"),
        (["solve", "--k", "10", "--omega", "nan"], "omega"),
        (["certify", "--k", "5", "--n", "9", "--omega", "nan", "--out", str(out)],
         "omega"),
        (["solve", "--k", "5"], "nodes_per_dim"),  # n = 9: one level only
    ]:
        assert main(argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert named in captured.err and captured.out == "", argv
    assert not out.exists() and not dump.exists()


def test_divergence_exit_code(capsys):
    # an unshifted coarse chain with too few smoothing steps at this k
    # does not reach the tolerance within the cycle budget
    rc = main(["solve", "--k", "20", "--shift", "zero", "--nu", "1",
               "--max-cycles", "5"])
    assert rc == EXIT_DIVERGED


CERTIFY_TEXT = {
    # D4 blocks, all verdicts HPD
    "--k 5 --n 9 --omega 3.5": [
        "Gamma HPD                  : True (HPD)",
        "Gamma-tilde HPD            : True (HPD)",
        "quick PD screen            : True (pass)",
        "lambda_min(Gamma)          : 0.206891",
        "||T0||_2                   : 0.890567",
        "sigma_max(DA)              : 0.998942",
        "||Gt||_1 / kappa_1(Gt)     : 0.102579",
        "bound sqrt|1 - ratio|      : 0.947323",
    ],
    # D4 blocks, both verdicts and the screen fail
    "--k 10 --transfer linear --shift 0 --omega 3.5": [
        "Gamma HPD                  : False (not positive definite: "
        "pivot failure at index 11 of D4 block ee+)",
        "Gamma-tilde HPD            : False (not positive definite: "
        "pivot failure at index 11 of D4 block ee+)",
        "quick PD screen            : False (condition 2: off-diagonal real part too large)",
        "lambda_min(Gamma)          : -7.09817",
        "||T0||_2                   : 2.84573",
        "sigma_max(DA)              : 2.92036",
        "||Gt||_1 / kappa_1(Gt)     : 0.00879688",
        "bound sqrt|1 - ratio|      : 0.995592",
    ],
    # variable k: the one full block of each form
    "--k-min 5 --k-max 10 --nu 2": [
        "Gamma HPD                  : True (HPD)",
        "Gamma-tilde HPD            : True (HPD)",
        "quick PD screen            : True (pass)",
        "lambda_min(Gamma)          : 0.222742",
        "||T0||_2                   : 0.881623",
        "sigma_max(DA)              : 1.04003",
        "||Gt||_1 / kappa_1(Gt)     : 0.105634",
        "bound sqrt|1 - ratio|      : 0.945709",
    ],
}


@pytest.mark.parametrize("args", list(CERTIFY_TEXT), ids=["d4-hpd", "d4-not-hpd", "full-block"])
def test_certify_report_text(capsys, args):
    # the whole report, pinned but for the digits of Gamma's rounding-level
    # Hermiticity residual
    assert main(["certify"] + args.split()) == EXIT_OK
    first, *rest = capsys.readouterr().out.splitlines()
    label, value = first.split(" : ")
    assert label == "Gamma hermiticity residual"
    assert float(value) < 1e-15
    assert rest == CERTIFY_TEXT[args]


def test_certify_single(capsys, tmp_path):
    # the CSV report; the printed one is test_certify_report_text's d4-hpd case
    out = tmp_path / "report.csv"
    rc = main(["certify", "--k", "5", "--n", "9", "--omega", "3.5",
               "--out", str(out)])
    assert rc == EXIT_OK
    header, row = out.read_text().strip().splitlines()
    assert header.startswith("herm_residual")
    assert len(row.split(",")) == len(header.split(","))


@pytest.mark.parametrize("omega_args, header", [
    ([], f"omega = {presets.CONV1_OMEGA}"),
    (["--omega", "4.5"], "omega = 4.5"),
])
def test_certify_conv1_omega(capsys, monkeypatch, omega_args, header):
    monkeypatch.setattr(presets, "CONV1_KS", (5,))
    rc = main(["certify", "--table", "conv1"] + omega_args)
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"two-grid certificate table ({header}, nu = 1)"
    assert lines[2].startswith("5 ")


TABLE_TEXT = {
    "conv1": [
        "two-grid certificate table (omega = 3.5, nu = 1)",
        "k    lin/A            lin/C            bez/A            bez/C",
        "5    x ||T0||=  1.614  x ||T0||=  1.178  + ||T0||=  0.983  + ||T0||=  0.891",
        "10   x ||T0||=  2.846  x ||T0||=  1.437  x ||T0||=  1.112  + ||T0||=  0.918",
        "regression: 2 cell(s) outside the verdict/15% band",
    ],
    "opt1": [
        "||Gamma-tilde||_1 / kappa_1(Gamma-tilde) (nu = 1, 2 per cell)",
        "k    omega=1.5   omega=2.0   omega=2.5   omega=4.5   omega=7.0 ",
        "5    0.237/0.136  0.197/0.214  0.157/0.239  0.070/0.161  0.025/0.096",
        "10   0.092/0.070  0.090/0.086  0.081/0.091  0.049/0.083  0.014/0.060",
        "regression: 20 cell(s) outside the 15% band",
    ],
}


@pytest.mark.parametrize("table", sorted(TABLE_TEXT))
def test_certify_table_regress_text(capsys, monkeypatch, table):
    # the printed table and its regression count, pinned for k = 5, 10
    monkeypatch.setattr(presets, "CONV1_KS", (5, 10))
    assert main(["certify", "--table", table, "--regress"]) == EXIT_DIVERGED
    assert capsys.readouterr().out.splitlines() == TABLE_TEXT[table]


def test_certify_opt1_flagged_cells_print_nan(capsys, monkeypatch):
    # a cell the sweep flags must not print as a tiny ratio (0.000): here
    # every inverse of Gamma-tilde fails, so every cell reads nan and counts
    # as a miss
    def singular(*args):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(presets, "CONV1_KS", (5,))
    monkeypatch.setattr(certificate, "inverse", singular)
    assert main(["certify", "--table", "opt1", "--regress"]) == EXIT_DIVERGED
    out = capsys.readouterr().out
    assert out.count("nan/nan") == len(presets.OPT1_OMEGAS)
    assert "0.000" not in out
    assert "regression: 10 cell(s) outside the 15% band" in out


@pytest.mark.parametrize("table", ["conv1", "opt1"])
def test_certify_table_singular_exit_code(capsys, monkeypatch, table):
    # a factorization found singular is a failed run (3) from either table,
    # not a refused configuration (2)
    def singular(*args):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(cli, "conv1_row", singular)
    monkeypatch.setattr(cli, "opt1_row", singular)
    assert main(["certify", "--table", table]) == EXIT_DIVERGED
    assert "error: singular" in capsys.readouterr().err


def test_every_option_is_read():
    # an option that cmd_* never reads is a flag that silently does nothing
    source = pathlib.Path(cli.__file__).read_text()
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.dest != "help":
                assert f"args.{action.dest}" in source, \
                    f"{name} {action.option_strings or action.dest} is never read"


def readme_commands():
    """Every README line that starts with ``helmmg ``, its ``\\``-continued
    lines joined on."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    lines = text.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("helmmg ")]


def test_readme_cli_examples_parse(capsys):
    commands = readme_commands()
    assert len(commands) == 7
    for line in commands:
        try:
            args = cli.build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}\n"
                        f"{capsys.readouterr().err}")
        assert callable(args.func), line
    # the quick one runs, in under a second
    assert "helmmg certify --k 5 --omega 3.5" in commands
    assert main(["certify", "--k", "5", "--omega", "3.5"]) == EXIT_OK


def test_certify_dense_limit(capsys):
    rc = main(["certify", "--k", "40"])  # n = 65 -> 4225^2 dense entries
    assert rc == EXIT_DENSE_LIMIT
    assert "dense" in capsys.readouterr().err


def test_certify_dense_limit_before_assembly(capsys, monkeypatch):
    # the limit is checked from the grid size alone: k = 2000 (n = 3201)
    # never assembles its 10^7-unknown operator (TwoGridConfig.from_spec
    # checks it before its assembly calls)
    def refuse(*args, **kwargs):
        raise AssertionError("assembled before the dense-limit check")

    monkeypatch.setattr(certificate, "assemble_helmholtz", refuse)
    monkeypatch.setattr(certificate, "build_wavenumber_field", refuse)
    assert main(["certify", "--k", "2000"]) == EXIT_DENSE_LIMIT
    assert "dense" in capsys.readouterr().err


def test_bench_preset_case_filter(capsys, tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "h-independence", "--case", "k15-h2e-5",
               "--out", str(out)])
    text = capsys.readouterr().out
    assert "k15-h2e-5-nu1" in text
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "case,expected,measured,status,within_band"
    assert len(lines) == 4  # nu = 1, 2, 4
    assert rc in (EXIT_OK, EXIT_DIVERGED)


def test_bench_unknown_case(capsys):
    assert main(["bench", "h-independence", "--case", "zzz"]) == EXIT_USAGE


def test_presets_all_have_provenance():
    # (case count, first and last (name, expected)) pin each bundled table
    pinned = {
        "h-independence": (27, ("k15-h2e-5-nu1", 45), ("k30-h2e-9-nu4", 27)),
        "constant-jacobi": (50, ("k50-nu4-g1", 58), ("k250-nu8-g2", 277)),
        "constant-gmres-07": (50, ("k50-nu1-g1", 37), ("k250-nu5-g2", 88)),
        "constant-gmres-invk": (50, ("k50-nu1-g1", 14), ("k250-nu5-g2", 9)),
        "hetero-medium-jacobi": (20, ("k10-50-nu4-g1", 65), ("k10-75-nu8-g2", 83)),
        "hetero-sharp-jacobi": (20, ("k10-50-nu4-g1", 102), ("k10-75-nu8-g2", 104)),
        "hetero-sharp-gmres": (20, ("k10-50-nu1-g1", 28), ("k10-75-nu5-g2", 6)),
    }
    assert set(presets.PRESETS) == set(pinned)
    for name, factory in presets.PRESETS.items():
        cases = factory()
        count, first, last = pinned[name]
        assert len(cases) == count, name
        assert [(c["name"], c["expected"]) for c in (cases[0], cases[-1])] \
            == [first, last], name
        # --case filters by substring, so names must be unique
        assert len({c["name"] for c in cases}) == count, name
        for case in cases:
            assert case["source"], f"{name}:{case['name']} lacks a source tag"
            assert case["expected"] > 0
            assert case["band"][0] > 0


def test_band_allows():
    assert presets.band_allows(20, 25, (0.25, 3))
    assert not presets.band_allows(20, 26, (0.25, 3))
    assert presets.band_allows(4, 7, (0.25, 3))  # absolute slack dominates
    assert not presets.band_allows(4, 8, (0.25, 3))
