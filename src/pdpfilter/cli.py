"""Batch experiment driver.

Subcommands: validate | simulate | filter | exit-time | pdp-check | stop |
stability | replay.  Every run writes a manifest.json with the resolved
config, seed, toolkit version and the sha256 of the model file; `replay
<manifest>` re-executes a recorded run, and reruns produce byte-identical
numeric outputs.  Replay refuses (exit code 1) a model file whose hash has
changed since the recorded run.  The output directory comes from --out,
overridden by the PDPFILTER_OUT environment variable.

Exit codes: 0 ok, 1 validation failure, 2 usage error (argparse),
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import time

import numpy as np
import scipy

from . import __version__
from .chain import Distribution, RandomSource, exit_survival_oracle, observe, sample_chain
from .filtering import DegenerateJump
from .modelio import ModelFileError, fmt, load_model, path_rows, state_index, write_csv, write_json
from .pdp import exit_survival_nonlinear_curve, pdp_check_statistics
from .stopping import (
    FaceGrid,
    NoConvergence,
    StoppingProblem,
    contraction_bound,
    contraction_witness,
    evaluate_policy_mc,
    solve_value,
    stopping_rule,
    value_general,
    verify_variational,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_CONVERGENCE = 3  # argparse exits 2 on a usage error


def _out_dir(args) -> str:
    out = os.environ.get("PDPFILTER_OUT") or args.out
    os.makedirs(out, exist_ok=True)
    return out


def _file_sha256(path: str):
    """Hex sha256 of the file's bytes, or None if it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _write_manifest(out, command, config, stages=None, **telemetry):
    """manifest.json of a run.  Its telemetry (run health, not replayed: the
    given keys, the wall seconds of each stage and the numpy, scipy and
    Python versions) goes here only, so that the other outputs of a replay
    stay byte-identical."""
    payload = {
        "command": command,
        "config": config,
        "model_sha256": _file_sha256(config["model"]),
        "version": __version__,
    }
    if stages is not None:
        marks = list(stages.items())
        seconds = {name: t - prev for (_, prev), (name, t) in zip(marks, marks[1:])}
        payload["telemetry"] = {**telemetry, "stages_s": seconds,
                                "versions": {"numpy": np.__version__, "scipy": scipy.__version__,
                                             "python": platform.python_version()}}
    write_json(os.path.join(out, "manifest.json"), payload)


def _load(args):
    """The output directory, the loaded model file and the stages of the
    run: the time.perf_counter() at its start and at the end of each stage,
    in order, the load first."""
    out = _out_dir(args)
    stages = {"start": time.perf_counter()}
    loaded = load_model(args.model)
    stages["load"] = time.perf_counter()
    return out, loaded, stages


def _config_of(args, keys):
    cfg = {"model": os.path.abspath(args.model), "out": args.out}
    for k in keys:
        cfg[k] = getattr(args, k)
    return cfg


def cmd_validate(args) -> int:
    out = _out_dir(args)
    try:
        loaded = load_model(args.model)
    except (ModelFileError, ValueError) as exc:
        write_json(os.path.join(out, "report.json"), {"valid": False, "error": str(exc)})
        print(f"invalid model: {exc}", file=sys.stderr)
        return EXIT_INVALID
    report = {
        "valid": True,
        "states": loaded["rate"].n,
        "labels": [str(a) for a in loaded["obs"].labels],
        "injective": loaded["obs"].injective,
    }
    write_json(os.path.join(out, "report.json"), report)
    _write_manifest(out, "validate", _config_of(args, []))
    return EXIT_OK


def _simulate_paths(loaded, args):
    rng = RandomSource(args.seed)
    chain = sample_chain(loaded["rate"], loaded["initial"], args.horizon, rng)
    obs_path = observe(chain, loaded["obs"])
    return chain, obs_path


def cmd_simulate(args) -> int:
    out, loaded, stages = _load(args)
    chain, obs_path = _simulate_paths(loaded, args)
    stages["sample"] = time.perf_counter()
    write_csv(os.path.join(out, "chain.csv"), ["time", "value"], path_rows(chain))
    write_csv(os.path.join(out, "observation.csv"), ["time", "value"], path_rows(obs_path))
    stages["write"] = time.perf_counter()
    _write_manifest(out, "simulate", _config_of(args, ["seed", "horizon"]), stages)
    return EXIT_OK


def cmd_filter(args) -> int:
    out, loaded, stages = _load(args)
    model = loaded["model"]
    chain, obs_path = _simulate_paths(loaded, args)
    stages["sample"] = time.perf_counter()
    traj = model.run_filter(obs_path, loaded["initial"])
    stages["filter"] = time.perf_counter()
    grid = np.linspace(0.0, args.horizon, 201)
    rows = [
        (t,) + tuple(w) + (label,)
        for t, w, label in traj.to_rows(grid)
    ]
    header = ["time"] + [f"w_{s}" for s in loaded["names"]] + ["label"]
    write_csv(os.path.join(out, "chain.csv"), ["time", "value"], path_rows(chain))
    write_csv(os.path.join(out, "observation.csv"), ["time", "value"], path_rows(obs_path))
    write_csv(os.path.join(out, "filter.csv"), header, rows)
    final = traj.value_at(traj.horizon)
    summary = {
        "n_observation_jumps": len(traj.jump_times),
        "final_label": str(final.label),
        "final_weights": [float(x) for x in final.weights],
        "degenerate_restrictions": int(traj.degenerate.sum()),
    }
    write_json(os.path.join(out, "summary.json"), summary)
    stages["write"] = time.perf_counter()
    _write_manifest(out, "filter", _config_of(args, ["seed", "horizon"]), stages)
    return EXIT_OK


def cmd_exit_time(args) -> int:
    out, loaded, stages = _load(args)
    section = loaded["raw"].get("exit_time")
    if not section:
        print("model file has no exit_time section", file=sys.stderr)
        return EXIT_INVALID
    names = loaded["names"]
    subset = [state_index(names, s) for s in section["subset"]]
    start = state_index(names, section["start"])
    t_max = float(section.get("t_max", 5.0))
    step = float(section.get("step", 0.01))
    ts = np.arange(0.0, t_max + step / 2, step)
    nonlinear = exit_survival_nonlinear_curve(loaded["rate"], subset, start, ts)
    oracle = np.array([exit_survival_oracle(loaded["rate"], subset, start, t) for t in ts])
    stages["survival"] = time.perf_counter()
    rows = [
        (t, nl, orc, abs(nl - orc))
        for t, nl, orc in zip(ts, nonlinear, oracle)
    ]
    write_csv(os.path.join(out, "exit_time.csv"), ["t", "nonlinear", "oracle", "abs_diff"], rows)
    stages["write"] = time.perf_counter()
    _write_manifest(out, "exit-time", _config_of(args, []), stages)
    return EXIT_OK


def _check_sims_and_horizon(args) -> None:
    """Monte Carlo commands need a path and a time span: ValueError (exit
    code 1, one stderr line) before any work otherwise."""
    if args.sims < 1:
        raise ValueError(f"--sims must be at least 1, got {args.sims}")
    if not args.horizon > 0:
        raise ValueError(f"--horizon must be positive, got {args.horizon}")


def cmd_pdp_check(args) -> int:
    _check_sims_and_horizon(args)
    out, loaded, stages = _load(args)
    stats = pdp_check_statistics(loaded["model"], loaded["initial"], args.sims,
                                 args.horizon, args.seed)
    stages["statistics"] = time.perf_counter()
    write_json(os.path.join(out, "pdp_check.json"), {"statistics": stats,
                                                     "all_pass": all(s["pass"] for s in stats)})
    stages["write"] = time.perf_counter()
    _write_manifest(out, "pdp-check", _config_of(args, ["seed", "horizon", "sims"]), stages)
    return EXIT_OK


def cmd_stop(args) -> int:
    _check_sims_and_horizon(args)
    if args.grid is not None and args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    if args.tol is not None and not args.tol > 0:
        raise ValueError(f"--tol must be positive, got {args.tol}")
    out, loaded, stages = _load(args)
    section = loaded["raw"].get("stopping")
    if not section:
        print("model file has no stopping section", file=sys.stderr)
        return EXIT_INVALID
    model = loaded["model"]
    prob = StoppingProblem(section["g"], section["l"], float(section["alpha"]))
    resolution = int(section.get("grid_resolution", 32)) if args.grid is None else args.grid
    tol = float(section.get("tol", 1e-6)) if args.tol is None else args.tol
    grid = FaceGrid(model, resolution)
    try:
        vf = solve_value(model, prob, grid, tol=tol)
    except NoConvergence as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    stages["solve"] = time.perf_counter()
    mu = loaded["initial"]
    v_mu = value_general(mu, vf)
    stages["value_general"] = time.perf_counter()
    beta = contraction_witness(vf._operator, RandomSource(args.seed, 900))
    beta_bound = contraction_bound(vf._operator)
    stages["contraction_witness"] = time.perf_counter()
    report = verify_variational(vf, prob)
    stages["verify_variational"] = time.perf_counter()
    policy = stopping_rule(vf)
    mc_mean, mc_stderr = evaluate_policy_mc(mu, policy, prob, args.sims, args.horizon,
                                            RandomSource(args.seed, 901))
    stages["policy_mc"] = time.perf_counter()
    bias_bound = math.exp(-prob.alpha * args.horizon) * (
        float(np.abs(prob.g).max()) + float(np.abs(prob.l).max()) / prob.alpha
    )
    solution = {
        "V_of_mu": v_mu,
        "residual": vf.info["residual"],
        "iterations": vf.info["iterations"],
        "beta_witness": beta,
        "beta_bound": beta_bound,
        "error_bound": vf.info["residual"] / (1.0 - beta_bound),
        "mc_mean": mc_mean,
        "mc_stderr": mc_stderr,
        "mc_censoring_bias_bound": bias_bound,
        "variational": report,
    }
    write_json(os.path.join(out, "solution.json"), solution)
    rows = []
    for a in model.obs.labels:
        face = model.faces[a]
        pts = grid.points[a]
        vals = vf.values[a]
        obstacle = pts @ prob.g[face]
        for r in range(len(pts)):
            coords = ";".join(fmt(c) for c in pts[r])
            in_contact = bool(obstacle[r] <= vals[r] + policy.eps)
            rows.append((str(a), r, coords, vals[r], obstacle[r], in_contact))
    write_csv(os.path.join(out, "value.csv"),
              ["label", "point", "coords", "value", "obstacle", "in_contact_set"], rows)
    deltas = vf.info["deltas"]
    ratios = [b / a for a, b in zip(deltas, deltas[1:])]
    op = vf._operator
    tail_start_t = {str(a): float(op.times[k]) if k < op.K else None
                    for a, k in op.tail_start.items()}
    _write_manifest(out, "stop", _config_of(args, ["seed", "horizon", "sims", "grid", "tol"]),
                    stages, solver={"sweep_deltas": deltas, "delta_ratios": ratios},
                    tail_start_t=tail_start_t)
    return EXIT_OK


def cmd_stability(args) -> int:
    out, loaded, stages = _load(args)
    model = loaded["model"]
    section = loaded["raw"].get("stability")
    if not section:
        print("model file has no stability section", file=sys.stderr)
        return EXIT_INVALID
    init_a = Distribution(section["init_a"])
    init_b = Distribution(section["init_b"])
    rng = RandomSource(args.seed)
    chain = sample_chain(loaded["rate"], init_a, args.horizon, rng)
    obs_path = observe(chain, loaded["obs"])
    stages["sample"] = time.perf_counter()
    try:
        traj_a = model.run_filter(obs_path, init_a)
        traj_b = model.run_filter(obs_path, init_b)
    except DegenerateJump as exc:
        print(f"filter degenerate: {exc}", file=sys.stderr)
        return EXIT_INVALID
    stages["filter"] = time.perf_counter()
    times = sorted(set(np.arange(0.0, args.horizon + 1e-9, 0.05)) | set(traj_a.jump_times))
    rows = [
        (t, float(np.abs(traj_a.value_at(t).weights - traj_b.value_at(t).weights).sum()))
        for t in times
    ]
    stages["distances"] = time.perf_counter()
    write_csv(os.path.join(out, "stability.csv"), ["t", "l1_distance"], rows)
    stages["write"] = time.perf_counter()
    _write_manifest(out, "stability", _config_of(args, ["seed", "horizon"]), stages)
    return EXIT_OK


def cmd_replay(args) -> int:
    return run_from_manifest(args.manifest, out=args.out)


def run_from_manifest(manifest_path: str, out: str = None) -> int:
    """Re-execute a recorded run; numeric outputs are byte-identical.

    Returns EXIT_INVALID, without running, when the manifest records a model
    hash and the model file no longer has it.
    """
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    command = manifest["command"]
    cfg = manifest["config"]
    expected = manifest.get("model_sha256")
    if expected is not None and _file_sha256(cfg["model"]) != expected:
        print(f"model file {cfg['model']} changed or unreadable since the recorded run "
              f"(sha256 {expected} expected)", file=sys.stderr)
        return EXIT_INVALID
    argv = [command, "--model", cfg["model"], "--out", out or cfg["out"]]
    for key in ("seed", "horizon", "sims", "grid", "tol"):
        if cfg.get(key) is not None:
            argv.extend([f"--{key}", str(cfg[key])])
    return main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pdpfilter",
                                     description="CTMC noise-free filtering toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *flags):
        """A subcommand with --model, --out, --seed and --horizon, and the
        (flag, type, default) flags that only it reads."""
        p = sub.add_parser(name)
        p.add_argument("--model", required=True)
        p.add_argument("--out", default="pdpfilter_out")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--horizon", type=float, default=10.0)
        for flag, kind, default in flags:
            p.add_argument(flag, type=kind, default=default)
        p.set_defaults(func=func)

    sims = ("--sims", int, 10000)
    add("validate", cmd_validate)
    add("simulate", cmd_simulate)
    add("filter", cmd_filter)
    add("exit-time", cmd_exit_time)
    add("pdp-check", cmd_pdp_check, sims)
    add("stop", cmd_stop, sims, ("--grid", int, None), ("--tol", float, None))
    add("stability", cmd_stability)
    replay = sub.add_parser("replay")
    replay.add_argument("manifest")
    replay.add_argument("--out", default=None)
    replay.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelFileError, ValueError, DegenerateJump) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NoConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
