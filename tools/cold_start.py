"""Cold-start time of each model file and the subpackages it loads, in fresh interpreters.

    python3 tools/cold_start.py src                      # 7 runs per model
    python3 tools/cold_start.py ../parent/src src --runs 11

SRC is the directory that holds the `pdpfilter` package to import (a
checkout's `src/`).  For every model in demos/models/*.json and
perfbench/models/*.json, each run is one fresh interpreter with
PYTHONPATH=SRC and one BLAS thread.  It times `from pdpfilter.modelio import
load_model` plus the load (the FilterModel build included), as the benchmark's
setup_s does, and notes which of numpy.random, scipy.linalg, scipy.sparse,
scipy.integrate and scipy.optimize are loaded then, and again after one
BellmanOperator build at grid 4 for a model with a stopping section.  Runs
alternate over the SRCs, after one discarded run per SRC that compiles its
byte code.
One row is printed per model and SRC: the median load seconds over the runs
and the subpackages loaded after the load and after the build ("-" for none,
"n/a" for a model without a stopping section).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODEL_DIRS = (ROOT / "demos" / "models", ROOT / "perfbench" / "models")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

PROBE = """
import json, sys, time
t0 = time.perf_counter()
from pdpfilter.modelio import load_model
loaded = load_model(sys.argv[1])
load_s = time.perf_counter() - t0

def subpackages_loaded():
    names = ("numpy.random", "scipy.linalg", "scipy.sparse", "scipy.integrate", "scipy.optimize")
    return [m for m in names if m in sys.modules]

row = {"load_s": load_s, "after_load": subpackages_loaded(), "after_build": None}
section = loaded["raw"].get("stopping")
if section:
    from pdpfilter.stopping import BellmanOperator, FaceGrid, StoppingProblem
    BellmanOperator(loaded["model"], FaceGrid(loaded["model"], 4),
                    StoppingProblem(section["g"], section["l"], float(section["alpha"])))
    row["after_build"] = subpackages_loaded()
print(json.dumps(row))
"""


def probe(env: dict, model: Path) -> dict:
    """One fresh interpreter on one model: the row PROBE prints."""
    done = subprocess.run([sys.executable, "-c", PROBE, str(model)], env=env,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"{model}: exit code {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def names(loaded) -> str:
    if loaded is None:
        return "n/a"
    return ",".join(loaded) or "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+", help="directories that hold the pdpfilter package")
    parser.add_argument("--runs", type=int, default=7,
                        help="fresh interpreters per model and SRC (default: 7)")
    args = parser.parse_args(argv)
    srcs = [Path(s).resolve() for s in args.src]
    for src in srcs:
        if not (src / "pdpfilter" / "__init__.py").is_file():
            print(f"no pdpfilter package under {src}", file=sys.stderr)
            return 2
    models = sorted(p for d in MODEL_DIRS for p in d.glob("*.json"))
    base = {k: v for k, v in os.environ.items() if k != "PDPFILTER_OUT"}
    base.update({var: "1" for var in THREAD_VARS})
    envs = [dict(base, PYTHONPATH=str(src)) for src in srcs]
    print(f"{'model':40s} {'src':30s} {'load_s':>7s} {'after load':>12s} {'after build':>26s}")
    for model in models:
        rows = [[] for _ in srcs]
        try:
            for env in envs:
                probe(env, model)
            for _ in range(args.runs):
                for env, runs in zip(envs, rows):
                    runs.append(probe(env, model))
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        for src, runs in zip(srcs, rows):
            last = runs[-1]
            print(f"{str(model.relative_to(ROOT)):40s} {str(src)[-30:]:30s} "
                  f"{statistics.median(r['load_s'] for r in runs):7.3f} "
                  f"{names(last['after_load']):>12s} {names(last['after_build']):>26s}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
