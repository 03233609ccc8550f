"""sha256 of every output file of a fixed set of CLI runs, for byte-identity checks.

    python3 tools/output_digest.py src > change.txt
    python3 tools/output_digest.py ../parent/src > parent.txt
    diff parent.txt change.txt

SRC is the directory that holds the `pdpfilter` package to import (a
checkout's `src/`).  The model files always come from the checkout that holds
this script, so two SRC trees are run on the same inputs.  Each run is its own
process with PYTHONPATH=SRC, writing into a temporary directory; every output
file except manifest.json (which records absolute paths) is printed as one
line `sha256  <run>/<file>`.  Each `stop` run also prints one line
`<run>/solution.json  V_of_mu=... iterations=... mc_mean=... mc_stderr=...`
with the numbers at repr precision, so that a diff shows how far a change
that moves the last bits moved them.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLUTION_KEYS = ("V_of_mu", "iterations", "mc_mean", "mc_stderr")
PDP5 = ROOT / "perfbench" / "models" / "pdp5.json"
HEXA6 = ROOT / "perfbench" / "models" / "hexa6.json"
CYCLIC4 = ROOT / "demos" / "models" / "cyclic4.json"
INJECTIVE = ROOT / "demos" / "models" / "threestate_injective.json"

RUNS = (
    [(f"pdp-check-pdp5-seed{s}",
      ["pdp-check", "--model", PDP5, "--sims", "500", "--horizon", "4", "--seed", s])
     for s in range(1, 11)]
    + [(f"stop-hexa6-seed{s}",
        ["stop", "--model", HEXA6, "--sims", "200", "--horizon", "40", "--seed", s])
       for s in (1, 2)]
    # several Monte Carlo chunks on faces whose flows move, so the scan refines
    + [("stop-hexa6-sims600-seed3",
        ["stop", "--model", HEXA6, "--sims", "600", "--horizon", "40", "--seed", 3])]
    + [("stop-cyclic4-grid64-seed1", ["stop", "--model", CYCLIC4, "--grid", "64", "--seed", 1])]
    # 1-state faces, and a grid whose resolution is not a power of two
    + [("stop-injective-seed1",
        ["stop", "--model", INJECTIVE, "--sims", "1000", "--horizon", "40", "--seed", 1])]
    + [("stop-hexa6-grid5-seed1",
        ["stop", "--model", HEXA6, "--grid", "5", "--sims", "200", "--horizon", "40", "--seed", 1])]
    + [(f"filter-cyclic4-seed{s}", ["filter", "--model", CYCLIC4, "--seed", s])
       for s in (1, 2, 3)]
    # value_at along two trajectories at about 200 times per run
    + [(f"stability-cyclic4-seed{s}", ["stability", "--model", CYCLIC4, "--seed", s])
       for s in (1, 2, 3)]
    + [("simulate-cyclic4-seed1", ["simulate", "--model", CYCLIC4, "--seed", 1])]
    + [("validate-cyclic4", ["validate", "--model", CYCLIC4])]
    + [("exit-time-cyclic4", ["exit-time", "--model", CYCLIC4])]
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not (src / "pdpfilter" / "__init__.py").is_file():
        print(f"no pdpfilter package under {src}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "PDPFILTER_OUT"}
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in RUNS:
            out = Path(tmp) / name
            cmd = [sys.executable, "-m", "pdpfilter.cli"] + [str(a) for a in args]
            rc = subprocess.run(cmd + ["--out", str(out)], env=env, cwd=tmp).returncode
            if rc != 0:
                print(f"{name}: exit code {rc}", file=sys.stderr)
                return 1
            for path in sorted(out.iterdir()):
                if path.name != "manifest.json":
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{digest}  {name}/{path.name}", flush=True)
            if args[0] == "stop":
                solution = json.loads((out / "solution.json").read_text())
                numbers = " ".join(f"{key}={solution[key]!r}" for key in SOLUTION_KEYS)
                print(f"{name}/solution.json  {numbers}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
