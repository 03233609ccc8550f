"""Repeat the benchmark over seeds and summarise the end-to-end metrics.

    python3 perfbench/baseline.py            # every workload of BENCHMARK.json
    python3 perfbench/baseline.py --write    # also record perfbench/baseline.json

Runs `run.py` untraced once per seed and workload (seeds 1..10, workloads
interleaved so that drift of the machine spreads over all of them), and prints
each metric's median, quartiles and spread, the distance between the quartiles
as a share of the median, next to its bound in BENCHMARK.json, and how much
worse the median is than the one recorded in baseline.json.  Then it runs
each workload traced twice at seed 1 and checks that every count repeats
exactly.  `--write` records all of it, with the machine, in baseline.json.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

from run import run_subprocess

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """One run's result object and the machine line it printed."""
    result, report = run_subprocess(workload, seed, seconds, trace)
    machine = next(line for line in report if line.startswith("machine: "))
    return result, machine[len("machine: "):]


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sign = {m["name"]: 1 if m["better"] == "lower" else -1 for m in bench["end_to_end"]}
    recorded = json.loads(BASELINE.read_text())["end_to_end"] if BASELINE.is_file() else {}

    values = {w: {m: [] for m in bounds} for w in workloads}
    machine = None
    all_correct = True
    for seed in range(1, RUNS + 1):
        for w in workloads:
            result, machine = run(w, seed, seconds, 0)
            all_correct &= result["correct"]
            print(f"seed {seed} {w}: correct {result['correct']} "
                  + " ".join(f"{m} {v['value']:.5g}" for m, v in result["metrics"].items()),
                  flush=True)
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])

    summary = {}
    print(f"\n{'workload':12s} {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s} {'worse':>7s}")
    for w in workloads:
        summary[w] = {}
        for m in bounds:
            q = summary[w][m] = quartiles(values[w][m])
            flag = "" if q["spread"] < bounds[m] / 3 else "  spread > bound/3"
            # by how much the median is worse than baseline.json's, as a share of it
            base = recorded.get(w, {}).get(m)
            worse = sign[m] * (q["median"] / base["median"] - 1) if base else math.nan
            if worse > bounds[m]:
                flag += "  worse > bound"
            print(f"{w:12s} {m:12s} {q['median']:12.5g} {q['q1']:12.5g} {q['q3']:12.5g} "
                  f"{q['spread']:7.3f} {bounds[m]:6.2f} {worse:+7.3f}{flag}")

    per_layer = {}
    counts_repeat = True
    for w in workloads:
        first, _ = run(w, 1, seconds, 1)
        second, _ = run(w, 1, seconds, 1)
        all_correct &= first["correct"] and second["correct"]
        per_layer[w] = first["metrics"]
        for m, v in first["metrics"].items():
            if v["unit"] == "count" and v["value"] != second["metrics"][m]["value"]:
                counts_repeat = False
                print(f"{w} {m}: count {v['value']} then {second['metrics'][m]['value']}")
    print(f"\nall runs correct: {all_correct}; traced counts repeat at a fixed seed: "
          f"{counts_repeat}")

    if args.write:
        payload = {
            "machine": json.loads(machine),
            "run_seconds": seconds,
            "seeds": list(range(1, RUNS + 1)),
            "end_to_end": summary,
            "per_layer_seed1": per_layer,
        }
        BASELINE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if all_correct and counts_repeat else 1


if __name__ == "__main__":
    sys.exit(main())
