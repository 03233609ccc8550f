"""Build time, pass time and peak RSS of the Bellman operator, one grid resolution per process.

    python3 tools/solver_memory.py src                   # grids 16 and 24
    python3 tools/solver_memory.py src --grid 16 24 32
    python3 tools/solver_memory.py ../parent/src --model demos/models/cyclic4.json --grid 64

SRC is the directory that holds the `pdpfilter` package to import (a
checkout's `src/`).  The model (perfbench/models/hexa6.json by default) must
have a stopping section.  Each grid runs in its own process with
PYTHONPATH=SRC and one BLAS thread, so that its ru_maxrss is its own: it loads
the model, builds the operator, then runs Gauss-Seidel passes from the
obstacle, each label updated in place with BellmanOperator.update as
solve_value does, until a pass changes the values by less than the model's
tol.  One row is printed per grid: the face sizes, the grid points per face,
the mesh steps K + 1, each face's tail-start node k_T (K where the face has
no tail), the build seconds, the MB that the operator retains (the nbytes of
its tables, the tails' reference tables and masses and the per-label corner
tables included, and of the index, pointer and weight arrays of its sparse
gathers), the number of passes and their median milliseconds, the
contraction bound beta-bar of the operator, and ru_maxrss in MB after
loading, after the build and after the passes.
"""

from __future__ import annotations

import argparse
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


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def retained_bytes(obj) -> int:
    """nbytes of the numpy arrays in obj, a nest of dicts, lists and tuples,
    counting a sparse matrix as its data, indices and indptr arrays."""
    if hasattr(obj, "indptr"):
        return obj.data.nbytes + obj.indices.nbytes + obj.indptr.nbytes
    if hasattr(obj, "nbytes"):
        return obj.nbytes
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(retained_bytes(x) for x in obj)
    return 0


def measure(model_path: str, grid_m: int) -> dict:
    """One grid, in this process: the row that main prints."""
    import numpy as np

    from pdpfilter import stopping
    from pdpfilter.modelio import load_model

    loaded = load_model(model_path)
    model, section = loaded["model"], loaded["raw"]["stopping"]
    prob = stopping.StoppingProblem(section["g"], section["l"], float(section["alpha"]))
    tol = float(section.get("tol", stopping.SOLVER_TOL))
    grid = stopping.FaceGrid(model, grid_m)
    labels = model.obs.labels
    row = {"grid": grid_m,
           "faces": "+".join(str(len(model.faces[a])) for a in labels),
           "points": "+".join(str(grid.n_points(a)) for a in labels),
           "rss_load_mb": maxrss_mb()}
    t0 = time.perf_counter()
    op = stopping.BellmanOperator(model, grid, prob)
    row["build_s"] = time.perf_counter() - t0
    row["rss_build_mb"] = maxrss_mb()
    # an older tree's operator, without a corner table, counts none
    row["retained_mb"] = retained_bytes((op._pre, getattr(op, "_corners", None))) / 2**20
    row["steps"] = op.K + 1
    row["k_tail"] = "+".join(str(op.tail_start[a]) for a in labels)
    values = stopping.psi_values(grid, prob)
    pass_s = []
    delta = np.inf
    while delta >= tol:
        t0 = time.perf_counter()
        delta = 0.0
        for a in labels:
            new = op.update(values, a)
            delta = max(delta, float(np.abs(new - values[a]).max()))
            values[a] = new
        pass_s.append(time.perf_counter() - t0)
    row["passes"] = len(pass_s)
    row["pass_ms"] = statistics.median(pass_s) * 1e3
    row["rss_passes_mb"] = maxrss_mb()
    row["beta_bound"] = f"{stopping.contraction_bound(op):.4f}"
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory that holds the pdpfilter package")
    parser.add_argument("--grid", type=int, nargs="+", default=[16, 24],
                        help="grid resolutions m, one process each (default: 16 24)")
    parser.add_argument("--model", default=str(HEXA6), help="model file with a stopping section")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if args.measure:  # the child process: one grid, one JSON line
        print(json.dumps(measure(args.model, args.grid[0])))
        return 0
    if not (src / "pdpfilter" / "__init__.py").is_file():
        print(f"no pdpfilter package under {src}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "PDPFILTER_OUT"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    print(f"model {args.model}")
    print(f"{'grid':>4s} {'faces':>7s} {'points':>12s} {'steps':>6s} {'k_T':>9s} {'build_s':>8s} "
          f"{'retained':>9s} {'passes':>6s} {'pass_ms':>8s} {'beta':>6s} {'rss_load':>9s} "
          f"{'rss_build':>10s} {'rss_passes':>11s}")
    for m in args.grid:
        cmd = [sys.executable, __file__, str(src), "--measure", "--grid", str(m),
               "--model", str(Path(args.model).resolve())]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"grid {m}: exit code {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        r = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{r['grid']:4d} {r['faces']:>7s} {r['points']:>12s} {r['steps']:6d} {r['k_tail']:>9s} "
              f"{r['build_s']:8.2f} {r['retained_mb']:9.1f} {r['passes']:6d} {r['pass_ms']:8.1f} "
              f"{r['beta_bound']:>6s} {r['rss_load_mb']:9.1f} {r['rss_build_mb']:10.1f} "
              f"{r['rss_passes_mb']:11.1f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
