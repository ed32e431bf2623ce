"""helmmg benchmark command.

    python3 perfbench/run.py --workload solve-v --seed 1 --seconds 30 --trace 0

Run from the repository root.  Prints a JSON record of the environment and
the workload parameters, then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer split with ``--trace 1``.  The record and,
for traced runs, the spans are also written under ``.bench_out/``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
OUT_DIR = ROOT / ".bench_out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # one BLAS thread, fixed before numpy is first imported
    for var in BLAS_ENV:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "helmmg" / "__init__.py").is_file():
        print(f"error: no helmmg sources under {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(HERE)]

    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(harness.WORKLOADS), file=sys.stderr)
        return 2
    result, record, rec = harness.run_workload(
        harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    record = {"workload": args.workload, "environment": harness.environment(BLAS_ENV),
              **record}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if rec is not None:
        rec.write(OUT_DIR / f"spans_{stem}.jsonl")
    with open(OUT_DIR / f"BENCH_{stem}.json", "w") as f:
        json.dump({"record": record, "result": result}, f, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
