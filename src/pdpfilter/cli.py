"""Batch experiment driver.

Subcommands: validate | simulate | filter | exit-time | pdp-check | stop |
stability | replay.  Every run writes a manifest.json with the resolved
config, seed and toolkit version; `replay <manifest>` re-executes a recorded
run, and reruns produce byte-identical numeric outputs.  The output directory
comes from --out, overridden by the PDPFILTER_OUT environment variable.

Exit codes: 0 ok, 1 validation failure, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .chain import Distribution, RandomSource, exit_survival_oracle, observe, sample_chain
from .filtering import DegenerateJump
from .modelio import ModelFileError, fmt, load_model, path_rows, state_index, write_csv, write_json
from .pdp import exit_survival_nonlinear_curve, pdp_check_statistics
from .stopping import (
    FaceGrid,
    NoConvergence,
    StoppingProblem,
    contraction_witness,
    evaluate_policy_mc,
    solve_value,
    stopping_rule,
    value_general,
    verify_variational,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_CONVERGENCE = 2


def _out_dir(args) -> str:
    out = os.environ.get("PDPFILTER_OUT") or args.out
    os.makedirs(out, exist_ok=True)
    return out


def _write_manifest(out, command, config):
    payload = {
        "command": command,
        "config": config,
        "version": __version__,
    }
    write_json(os.path.join(out, "manifest.json"), payload)


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
    out = _out_dir(args)
    loaded = load_model(args.model)
    chain, obs_path = _simulate_paths(loaded, args)
    write_csv(os.path.join(out, "chain.csv"), ["time", "value"], path_rows(chain))
    write_csv(os.path.join(out, "observation.csv"), ["time", "value"], path_rows(obs_path))
    _write_manifest(out, "simulate", _config_of(args, ["seed", "horizon"]))
    return EXIT_OK


def cmd_filter(args) -> int:
    out = _out_dir(args)
    loaded = load_model(args.model)
    model = loaded["model"]
    chain, obs_path = _simulate_paths(loaded, args)
    traj = model.run_filter(obs_path, loaded["initial"])
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
        "n_observation_jumps": len(traj.jumps),
        "final_label": str(final.label),
        "final_weights": [float(x) for x in final.weights],
        "degenerate_restrictions": int(
            sum(1 for _, fp in traj.segments if fp.degenerate)
        ),
    }
    write_json(os.path.join(out, "summary.json"), summary)
    _write_manifest(out, "filter", _config_of(args, ["seed", "horizon"]))
    return EXIT_OK


def cmd_exit_time(args) -> int:
    out = _out_dir(args)
    loaded = load_model(args.model)
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
    rows = [
        (t, nl, orc, abs(nl - orc))
        for t, nl, orc in zip(ts, nonlinear, oracle)
    ]
    write_csv(os.path.join(out, "exit_time.csv"), ["t", "nonlinear", "oracle", "abs_diff"], rows)
    _write_manifest(out, "exit-time", _config_of(args, []))
    return EXIT_OK


def cmd_pdp_check(args) -> int:
    out = _out_dir(args)
    loaded = load_model(args.model)
    stats = pdp_check_statistics(loaded["model"], loaded["initial"], args.sims,
                                 args.horizon, args.seed)
    write_json(os.path.join(out, "pdp_check.json"), {"statistics": stats,
                                                     "all_pass": all(s["pass"] for s in stats)})
    _write_manifest(out, "pdp-check", _config_of(args, ["seed", "horizon", "sims"]))
    return EXIT_OK


def cmd_stop(args) -> int:
    out = _out_dir(args)
    loaded = load_model(args.model)
    section = loaded["raw"].get("stopping")
    if not section:
        print("model file has no stopping section", file=sys.stderr)
        return EXIT_INVALID
    model = loaded["model"]
    prob = StoppingProblem(section["g"], section["l"], float(section["alpha"]))
    resolution = args.grid or int(section.get("grid_resolution", 32))
    tol = args.tol or float(section.get("tol", 1e-6))
    grid = FaceGrid(model, resolution)
    try:
        vf = solve_value(model, prob, grid, tol=tol)
    except NoConvergence as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    mu = loaded["initial"]
    v_mu = value_general(mu, vf)
    beta = contraction_witness(vf._operator, RandomSource(args.seed, 900))
    report = verify_variational(vf, prob)
    policy = stopping_rule(vf)
    mc_mean, mc_stderr = evaluate_policy_mc(mu, policy, prob, args.sims, args.horizon,
                                            RandomSource(args.seed, 901))
    bias_bound = math.exp(-prob.alpha * args.horizon) * (
        float(np.abs(prob.g).max()) + float(np.abs(prob.l).max()) / prob.alpha
    )
    solution = {
        "V_of_mu": v_mu,
        "residual": vf.info["residual"],
        "iterations": vf.info["iterations"],
        "beta_witness": beta,
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
    _write_manifest(out, "stop", _config_of(args, ["seed", "horizon", "sims", "grid", "tol"]))
    return EXIT_OK


def cmd_stability(args) -> int:
    out = _out_dir(args)
    loaded = load_model(args.model)
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
    try:
        traj_a = model.run_filter(obs_path, init_a)
        traj_b = model.run_filter(obs_path, init_b)
    except DegenerateJump as exc:
        print(f"filter degenerate: {exc}", file=sys.stderr)
        return EXIT_INVALID
    times = sorted(set(np.arange(0.0, args.horizon + 1e-9, 0.05)) | set(traj_a.jump_times))
    rows = [
        (t, float(np.abs(traj_a.value_at(t).weights - traj_b.value_at(t).weights).sum()))
        for t in times
    ]
    write_csv(os.path.join(out, "stability.csv"), ["t", "l1_distance"], rows)
    _write_manifest(out, "stability", _config_of(args, ["seed", "horizon"]))
    return EXIT_OK


def cmd_replay(args) -> int:
    return run_from_manifest(args.manifest, out=args.out)


def run_from_manifest(manifest_path: str, out: str = None) -> int:
    """Re-execute a recorded run; numeric outputs are byte-identical."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    command = manifest["command"]
    cfg = manifest["config"]
    argv = [command, "--model", cfg["model"], "--out", out or cfg["out"]]
    for key in ("seed", "horizon", "sims", "grid", "tol"):
        if cfg.get(key) is not None:
            argv.extend([f"--{key}", str(cfg[key])])
    return main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pdpfilter",
                                     description="CTMC noise-free filtering toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, model=True):
        p = sub.add_parser(name)
        if model:
            p.add_argument("--model", required=True)
        p.add_argument("--out", default="pdpfilter_out")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--horizon", type=float, default=10.0)
        p.add_argument("--sims", type=int, default=10000)
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate)
    add("simulate", cmd_simulate)
    add("filter", cmd_filter)
    add("exit-time", cmd_exit_time)
    add("pdp-check", cmd_pdp_check)
    add("stop", cmd_stop)
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
