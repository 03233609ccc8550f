"""pdpfilter benchmark: three workloads, end-to-end metrics untraced and
per-layer metrics from a traced run.

    python3 perfbench/run.py --workload filter_many --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the package is imported from `src/` of that
checkout, never from an installed copy.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the lines
before it are for people.  `--workload all` runs every workload untraced and
traced, each in its own process, and prints the per-layer self times next to
the end-to-end numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("filter_many", "pdp_check", "stop_policy")

# The load is generated single-threaded, so that a run's time and peak RSS
# belong to that one workload process; set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def machine_info() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import pdpfilter

    if Path(pdpfilter.__file__).resolve().parent != SRC / "pdpfilter":
        print(f"error: pdpfilter imported from {pdpfilter.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    print(f"machine: {json.dumps(machine_info(), sort_keys=True)}")
    out = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    for line in out.notes:
        print(line)
    for name, (value, unit) in out.metrics.items():
        print(f"{args.workload} {name} {value} {unit}")
    print(f"{args.workload} failed_frac {out.failed / out.attempted} "
          f"({out.failed} of {out.attempted} operations)")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in out.metrics.items()}
    print(result_line(out.failed == 0, out.attempted, out.failed, metrics))
    return 0


def run_subprocess(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list]:
    """Run one workload in a fresh process from the root of the checkout.

    Returns its result object and the report lines printed before it; raises
    RuntimeError, with the process's output, if it fails.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} --seed {seed} --trace {trace} exited "
                           f"{done.returncode}:\n{done.stdout}{done.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    results = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            try:
                results[workload, trace], report = run_subprocess(
                    workload, args.seed, args.seconds, trace)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print("\n".join(report))

    print(f"\n{'workload':12s} {'correct':>7s} {'failed':>6s}  end-to-end (untraced)")
    for workload in WORKLOAD_NAMES:
        res = results[workload, 0]
        e2e = ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{workload:12s} {str(res['correct']):>7s} {res['failed']:6d}  {e2e}")
    print("\nper-layer self time (traced, s) next to the untraced end-to-end numbers")
    layers = [k for k in results[WORKLOAD_NAMES[0], 1]["metrics"] if k.endswith(".self_s")]
    print(f"{'layer':40s}" + "".join(f"{w:>14s}" for w in WORKLOAD_NAMES))
    for name in layers + ["trace_overhead_frac"]:
        row = [results[w, 1]["metrics"][name]["value"] for w in WORKLOAD_NAMES]
        print(f"{name:40s}" + "".join(f"{v:14.4f}" for v in row))

    metrics = {f"{w}.{name}": value for (w, trace), res in results.items()
               for name, value in res["metrics"].items()}
    print(result_line(all(r["correct"] for r in results.values()),
                      sum(r["attempted"] for r in results.values()),
                      sum(r["failed"] for r in results.values()), metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "pdpfilter" / "__init__.py").is_file():
        print(f"error: no pdpfilter package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # the CLI would otherwise write pdp-check outputs outside the checkout
    os.environ.pop("PDPFILTER_OUT", None)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
