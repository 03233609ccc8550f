"""Acceptance suite: end-to-end checks with fixed tolerances and runtime budgets.

Each test prints a one-line PASS summary with its elapsed time; the assertions
carry the quantitative thresholds.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from pdpfilter import (
    Distribution,
    FaceGrid,
    FilterModel,
    ObservationModel,
    PathStack,
    PiecewisePath,
    RandomSource,
    StoppingProblem,
    classical_stopping_values,
    contraction_bound,
    evaluate_policy_mc,
    exit_survival_nonlinear_curve,
    exit_survival_oracle,
    observe,
    sample_chain,
    solve_value,
    stopping_rule,
    validate_generator,
    value_general,
    verify_variational,
)
from pdpfilter.cli import main, run_from_manifest
from pdpfilter.filtering import _rk4_flow_batch
from pdpfilter.pdp import pdp_check_statistics
from pdpfilter.stopping import ValueFunction, psi_values
from conftest import pdp5_model, random_face_point, random_observation, random_rate_matrix

MODELS = Path(__file__).resolve().parent.parent / "demos" / "models"

PROB4 = StoppingProblem(g=[0.0, 2.0, 5.0, 3.0], l=[1.0, 0.5, 2.0, 0.2], alpha=0.5)
MU4 = Distribution([0.5, 0.1, 0.2, 0.2])


def elapsed_since(t0):
    return time.perf_counter() - t0


@pytest.fixture(scope="module")
def solved64(cyclic4):
    return solve_value(cyclic4, PROB4, FaceGrid(cyclic4, 64), tol=1e-6)


def test_criterion_1_exit_time_equivalence(cyclic4):
    t0 = time.perf_counter()
    ts = np.arange(0.0, 5.0 + 0.005, 0.01)

    # paper model, face {0, 2}: both routes equal e^{-t}
    nonlinear = exit_survival_nonlinear_curve(cyclic4.rate, [0, 2], 0, ts)
    oracle = np.array([exit_survival_oracle(cyclic4.rate, [0, 2], 0, t) for t in ts])
    assert np.abs(nonlinear - np.exp(-ts)).max() < 1e-8
    assert np.abs(oracle - np.exp(-ts)).max() < 1e-8
    assert np.abs(nonlinear - oracle).max() < 1e-6

    gen = np.random.default_rng(1000)
    worst = 0.0
    for _ in range(20):
        n = int(gen.integers(5, 7))
        rate = random_rate_matrix(gen, n)
        size = int(gen.integers(1, n))  # proper subset
        subset = sorted(gen.choice(n, size=size, replace=False).tolist())
        start = int(gen.choice(subset))
        curve = exit_survival_nonlinear_curve(rate, subset, start, ts)
        ref = np.array([exit_survival_oracle(rate, subset, start, t) for t in ts])
        worst = max(worst, float(np.abs(curve - ref).max()))
    assert worst < 1e-6, worst

    dt = elapsed_since(t0)
    assert dt < 5.0, dt
    print(f"criterion 1 PASS: exit-time routes agree (worst {worst:.2e}) in {dt:.2f}s")


def test_criterion_2_flow_vs_rk4():
    t0 = time.perf_counter()
    gen = np.random.default_rng(1001)
    check_ts = (0.5, 1.5, 3.0, 5.0)
    checked = 0
    worst = 0.0
    for _ in range(10):
        n = int(gen.integers(3, 7))
        model = FilterModel(random_rate_matrix(gen, n),
                            random_observation(gen, n, int(gen.integers(2, 4))))
        points = [random_face_point(gen, model) for _ in range(10)]
        # one vectorized RK4 sweep per model, with a per-row face mask
        mask = np.zeros((len(points), n))
        for r, fp in enumerate(points):
            mask[r, model.faces[fp.label]] = 1.0
        Y0 = np.array([fp.weights for fp in points])
        snapshots = _rk4_flow_batch(model.rate.entries, mask, Y0, 5.0, 1e-3,
                                    checkpoints=check_ts)
        for t, Y in snapshots:
            Y = np.clip(Y, 0.0, None)
            Y /= Y.sum(axis=1, keepdims=True)
            for r, fp in enumerate(points):
                a = model.flow(t, fp).weights
                worst = max(worst, float(np.abs(a - Y[r]).max()))
        checked += len(points)
    assert checked == 100
    assert worst < 1e-6, worst
    dt = elapsed_since(t0)
    assert dt < 10.0, dt
    print(f"criterion 2 PASS: flow vs RK4 worst {worst:.2e} over 100 points in {dt:.2f}s")


def test_criterion_3_filtering_identity(cyclic4):
    t0 = time.perf_counter()
    mu = Distribution([0.25, 0.25, 0.25, 0.25])
    t_checks = (0.5, 1.0, 2.0)
    n = 200000
    gen = np.random.default_rng(1002)
    x_ind = np.empty((n, 3, 4))
    pi = np.empty((n, 3, 4))
    t1 = np.empty(n)
    y0_is_1 = np.empty(n)
    # paths drawn from gen in order, filtered a chunk at a time and evaluated
    # at t_checks by one call of the path evaluator per chunk, from the
    # segment that holds each time: each path gets the bits of run_filter
    # and value_at
    chunk = 1000
    at = np.tile(t_checks, chunk)
    for first in range(0, n, chunk):
        paths = [sample_chain(cyclic4.rate, mu, 2.0, gen) for _ in range(chunk)]
        ys = [observe(path, cyclic4.obs) for path in paths]
        trajs = cyclic4.run_filter_batch(ys, mu)
        stack = PathStack(trajs)
        seg = np.concatenate([f + traj.t0.searchsorted(t_checks, "right") - 1
                              for f, traj in zip(stack.first, trajs)])
        dt = at - stack.t0[seg]
        points = np.zeros((len(seg), 4))
        for a, on, X in stack.points(seg, dt):
            points[on[:, None], cyclic4.faces[a]] = X
        pi[first:first + chunk] = points.reshape(chunk, len(t_checks), 4)
        for r, path, y in zip(range(first, first + chunk), paths, ys):
            t1[r] = y.jump_times[0] if y.jump_times else math.inf
            y0_is_1[r] = 1.0 if y.initial_value == "1" else 0.0
            x_ind[r] = np.eye(4)[[path.value_at(t) for t in t_checks]]
    worst_sigma = 0.0
    for k, t in enumerate(t_checks):
        zs = {
            "one": np.ones(n),
            "jump_before_t": (t1 <= t).astype(float),
            "y0_is_1": y0_is_1,
        }
        for zname, z in zs.items():
            d = (x_ind[:, k, :] - pi[:, k, :]) * z[:, None]
            mean = d.mean(axis=0)
            stderr = d.std(axis=0, ddof=1) / math.sqrt(n)
            assert (np.abs(mean) <= 4.0 * stderr + 1e-12).all(), (t, zname, mean, stderr)
            worst_sigma = max(worst_sigma, float((np.abs(mean) / np.maximum(stderr, 1e-300)).max()))
    dt = elapsed_since(t0)
    assert dt < 60.0, dt
    print(f"criterion 3 PASS: tower property over {n} paths (worst {worst_sigma:.2f} sigma) in {dt:.1f}s")


def test_criterion_4_dyadic_convergence():
    t0 = time.perf_counter()
    # 3-state model whose face flow is genuinely nonlinear; jump-free window
    rate = validate_generator([[-2, 1, 1], [1, -3, 2], [2, 1, -3]])
    obs = ObservationModel.from_assignment(("a", "a", "b"))
    model = FilterModel(rate, obs)
    mu = Distribution([0.5, 0.3, 0.2])
    horizon = 2.0
    exact = model.run_filter(PiecewisePath("a", (), horizon), mu).value_at(horizon).weights
    errs = []
    for k in range(6, 11):
        delta = horizon / 2**k
        approx = model.discrete_filter(mu, delta, ["a"] * (2**k + 1))[-1].weights
        errs.append(np.abs(approx - exact).max())
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    for r in ratios:
        assert 0.3 <= r <= 0.7, (errs, ratios)
    dt = elapsed_since(t0)
    assert dt < 30.0, dt
    print(f"criterion 4 PASS: dyadic error ratios {[f'{r:.3f}' for r in ratios]} in {dt:.2f}s")


def test_criterion_5_pdp_law_equivalence(cyclic4):
    # the pass flags of pdp_check_statistics use a DKW bound that is looser
    # than 0.01 at n = 50000, so the thresholds are asserted here
    t0 = time.perf_counter()
    nu0 = cyclic4.restrict_normalize(Distribution([0.25] * 4), "1")
    stats = {s["statistic"]: s for s in pdp_check_statistics(
        cyclic4, Distribution(nu0.weights), 100000, 8.0, 1003)}
    dev_chain = stats["first_jump_survival_chain_vs_analytic_sup_dev"]["empirical"]
    dev_cross = stats["first_jump_survival_pdp_vs_chain_sup_dev"]["empirical"]
    assert dev_chain < 0.01, dev_chain
    assert dev_cross < 0.01, dev_cross
    # binary observation: the jump target is deterministic, check it outright
    target = stats["first_jump_target_0_pdp_vs_chain"]
    assert target["analytic"] == target["empirical"] == 1.0, target

    # second model with three labels and a moving pre-jump position, so the
    # target law q genuinely varies along the flow
    stats2 = {s["statistic"]: s for s in pdp_check_statistics(
        pdp5_model(), Distribution([0.5, 0.5, 0, 0, 0]), 50000, 4.0, 1004)}
    assert stats2["first_jump_survival_chain_vs_analytic_sup_dev"]["empirical"] < 0.01
    for b in ("b", "c"):
        # chain-driven target frequencies in four quantile bins of T_1 against
        # the mean of q(phi(T_1, nu0), b), then against direct PDP sampling
        for name in [f"first_jump_target_{b}_bin{k}_chain_vs_q" for k in range(4)] + [
                f"first_jump_target_{b}_pdp_vs_chain"]:
            s = stats2[name]
            assert abs(s["empirical"] - s["analytic"]) <= 4.0 * s["stderr"], s

    dt = elapsed_since(t0)
    assert dt < 120.0, dt
    print(f"criterion 5 PASS: PDP law sup devs {dev_chain:.4f}/{dev_cross:.4f} in {dt:.1f}s")


class ThresholdPolicy:
    """Stop at the first time the immediate stopping cost drops to theta.

    The paper-model flow is frozen between observation jumps, so scanning
    segment starts is exact.
    """

    def __init__(self, g, theta):
        self.g = np.asarray(g, dtype=float)
        self.theta = float(theta)

    def first_entry(self, traj):
        for t0, fp in traj.segments:
            if float(fp.weights @ self.g) <= self.theta:
                return t0
        return math.inf

    def first_entries(self, trajs):
        return [self.first_entry(traj) for traj in trajs]


def test_criterion_6_stopping_solver_oracle(cyclic4, solved64):
    t0 = time.perf_counter()

    # part 1: injective 3-state model against the classical per-state oracle
    rate = validate_generator([[-2, 1, 1], [0.5, -1, 0.5], [1, 2, -3]])
    obs = ObservationModel.from_assignment(("L", "M", "H"))
    model3 = FilterModel(rate, obs)
    prob3 = StoppingProblem(g=[1.0, -0.5, 2.0], l=[0.3, 1.0, 0.1], alpha=0.5)
    vf3 = solve_value(model3, prob3, FaceGrid(model3, 4), tol=1e-6)
    oracle = classical_stopping_values(rate, prob3.g, prob3.l, prob3.alpha, tol=1e-6)
    got = np.array([vf3.values[a][0] for a in ("L", "M", "H")])
    oracle_gap = float(np.abs(got - oracle).max())
    assert oracle_gap < 1e-3, oracle_gap
    assert vf3.info["residual"] < 1e-6
    assert solved64.info["residual"] < 1e-6
    beta = contraction_bound(solved64._operator)
    assert 0.0 < beta < 1.0, beta

    # part 2: paper model; the computed rule matches V(mu) by Monte Carlo and
    # is not beaten by any simple threshold rule
    horizon = 40.0
    V = value_general(MU4, solved64)
    policy = stopping_rule(solved64)
    mc_mean, mc_se = evaluate_policy_mc(MU4, policy, PROB4, 4000, horizon,
                                        RandomSource(1006))
    assert abs(mc_mean - V) <= 3.0 * mc_se, (mc_mean, V, mc_se)
    for i, theta in enumerate(np.linspace(0.25, 5.0, 20)):
        thr = ThresholdPolicy(PROB4.g, theta)
        t_mean, t_se = evaluate_policy_mc(MU4, thr, PROB4, 1500, horizon,
                                          RandomSource(1007, i), model=cyclic4)
        combined = 3.0 * math.sqrt(mc_se**2 + t_se**2)
        assert mc_mean <= t_mean + combined, (theta, mc_mean, t_mean, combined)

    dt = elapsed_since(t0)
    assert dt < 300.0, dt
    print(
        f"criterion 6 PASS: oracle gap {oracle_gap:.2e}, beta {beta:.3f}, "
        f"MC {mc_mean:.5f} vs V {V:.5f} (se {mc_se:.5f}) in {dt:.1f}s"
    )


def test_criterion_7_variational_inequalities(solved64):
    t0 = time.perf_counter()
    report = verify_variational(solved64)
    assert report["pass"], report
    bumped = ValueFunction(
        solved64.grid,
        {a: v + 1.0 for a, v in psi_values(solved64.grid, PROB4).items()},
        PROB4,
    )
    bad = verify_variational(bumped)
    assert not bad["pass"]
    dt = elapsed_since(t0)
    assert dt < 30.0, dt
    print(
        f"criterion 7 PASS: violations {report['obstacle_violation']:.2e}/"
        f"{report['continuation_violation']:.2e} in {dt:.2f}s"
    )


def test_criterion_8_filter_instability(cyclic4):
    t0 = time.perf_counter()
    horizon = 50.0
    delta1 = Distribution([1.0, 0, 0, 0])
    uniform_face = Distribution([0.5, 0, 0.5, 0])
    path = sample_chain(cyclic4.rate, delta1, horizon, RandomSource(1008))
    y = observe(path, cyclic4.obs)
    traj_a = cyclic4.run_filter(y, delta1)
    traj_b = cyclic4.run_filter(y, uniform_face)
    times = sorted(set(np.arange(0.0, horizon + 1e-9, 0.05)) | set(traj_a.jump_times))
    min_dist = min(
        float(np.abs(traj_a.value_at(t).weights - traj_b.value_at(t).weights).sum())
        for t in times
    )
    assert min_dist >= 0.05, min_dist
    dt = elapsed_since(t0)
    assert dt < 5.0, dt
    print(f"criterion 8 PASS: min L1 distance {min_dist:.3f} over horizon 50 in {dt:.2f}s")


def test_criterion_9_manifest_reproducibility(tmp_path):
    t0 = time.perf_counter()
    cyclic4_file = str(MODELS / "cyclic4.json")
    runs = [
        ("validate", []),
        ("simulate", ["--seed", "7", "--horizon", "6"]),
        ("filter", ["--seed", "7", "--horizon", "6"]),
        ("exit-time", []),
        ("stability", ["--seed", "7", "--horizon", "15"]),
        ("pdp-check", ["--seed", "7", "--sims", "400", "--horizon", "6"]),
        ("stop", ["--seed", "7", "--sims", "100", "--horizon", "20", "--grid", "8"]),
    ]
    # each manifest records --model, --out and the flags its command reads
    monte_carlo = {"seed", "horizon"}
    config_keys = {"validate": set(), "exit-time": set(), "simulate": monte_carlo,
                   "filter": monte_carlo, "stability": monte_carlo,
                   "pdp-check": monte_carlo | {"sims"},
                   "stop": monte_carlo | {"sims", "grid", "tol"}}
    for command, extra in runs:
        first = tmp_path / command / "first"
        rc = main([command, "--model", cyclic4_file, "--out", str(first)] + extra)
        assert rc == 0, command
        config = json.loads((first / "manifest.json").read_text())["config"]
        assert set(config) == {"model", "out"} | config_keys[command], command
        second = tmp_path / command / "second"
        rc = run_from_manifest(str(first / "manifest.json"), out=str(second))
        assert rc == 0, command
        outputs = [p.name for p in first.iterdir() if p.name != "manifest.json"]
        assert outputs, command
        for name in outputs:
            assert (first / name).read_bytes() == (second / name).read_bytes(), (
                command, name,
            )
    dt = elapsed_since(t0)
    print(f"criterion 9 PASS: {len(runs)} commands replayed byte-identically in {dt:.1f}s")
