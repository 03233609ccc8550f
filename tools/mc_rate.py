"""Policy Monte Carlo rate of one or more source trees, alternating fresh processes.

    python3 tools/mc_rate.py src                          # 40 batches, 3 rounds
    python3 tools/mc_rate.py ../parent/src src --batches 60 --rounds 6

SRC is the directory that holds the `pdpfilter` package to import (a
checkout's `src/`).  Each round runs every SRC once, each in its own process
with PYTHONPATH=SRC and one BLAS thread: odd rounds in the order given, even
rounds in the reverse order, since a tree run first in a round tends to read
faster.  A run loads perfbench/models/hexa6.json from the checkout that holds
this script, solves its stopping problem once, and then times N Monte Carlo
batches shaped like the stop_policy benchmark's: 25 paths each at horizon 40,
batch b drawn from RandomSource(1, 901).stream(b).  One row is printed per
run: paths per second over the batches, the minor page faults (ru_minflt)
they took, and the first 16 hex digits of a sha256 of the batches' (mean,
stderr) tuples, which is equal for two trees exactly when every batch result
has the same bits.
The last lines give each tree's median paths per second.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEXA6 = ROOT / "perfbench" / "models" / "hexa6.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BATCH_PATHS = 25
HORIZON = 40.0


def measure(batches: int) -> dict:
    """One run, in this process: the row that main prints."""
    from pdpfilter import stopping
    from pdpfilter.chain import RandomSource
    from pdpfilter.modelio import load_model

    loaded = load_model(str(HEXA6))
    model, mu, section = loaded["model"], loaded["initial"], loaded["raw"]["stopping"]
    prob = stopping.StoppingProblem(section["g"], section["l"], float(section["alpha"]))
    grid = stopping.FaceGrid(model, section["grid_resolution"])
    policy = stopping.stopping_rule(stopping.solve_value(model, prob, grid,
                                                         tol=float(section["tol"])))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    results = [stopping.evaluate_policy_mc(mu, policy, prob, BATCH_PATHS, HORIZON,
                                           RandomSource(1, 901).stream(b))
               for b in range(batches)]
    elapsed = time.perf_counter() - t0
    return {"paths_per_s": batches * BATCH_PATHS / elapsed,
            "minflt": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults,
            "digest": hashlib.sha256(repr(results).encode()).hexdigest()[:16]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+", help="directories that hold the pdpfilter package")
    parser.add_argument("--batches", type=int, default=40, help="MC batches per run (default 40)")
    parser.add_argument("--rounds", type=int, default=3, help="runs per tree (default 3)")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.batches < 1 or args.rounds < 1:
        parser.error("--batches and --rounds must be >= 1")
    if args.measure:  # the child process: one run, one JSON line
        print(json.dumps(measure(args.batches)))
        return 0
    srcs = [Path(s).resolve() for s in args.src]
    for src in srcs:
        if not (src / "pdpfilter" / "__init__.py").is_file():
            print(f"no pdpfilter package under {src}", file=sys.stderr)
            return 2
    env = {k: v for k, v in os.environ.items() if k != "PDPFILTER_OUT"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    print(f"{args.batches} batches of {BATCH_PATHS} paths at horizon {HORIZON:g}")
    print(f"{'round':>5s} {'paths_per_s':>11s} {'minflt':>8s} {'digest':>16s}  src")
    rates = {src: [] for src in srcs}
    for r in range(args.rounds):
        for src in srcs if r % 2 == 0 else srcs[::-1]:
            env["PYTHONPATH"] = str(src)
            cmd = [sys.executable, __file__, str(src), "--measure", "--batches", str(args.batches)]
            done = subprocess.run(cmd, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{src}: exit code {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            row = json.loads(done.stdout.strip().splitlines()[-1])
            rates[src].append(row["paths_per_s"])
            print(f"{r + 1:5d} {row['paths_per_s']:11.1f} {row['minflt']:8d} "
                  f"{row['digest']:>16s}  {src}", flush=True)
    for src, values in rates.items():
        print(f"median {statistics.median(values):.1f} paths/s over {len(values)} runs  {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
