import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdpfilter import (
    Distribution,
    FaceGrid,
    FaceMassVanished,
    FilterModel,
    NoConvergence,
    ObservationModel,
    PiecewisePath,
    RandomSource,
    StoppingPolicy,
    StoppingProblem,
    classical_stopping_values,
    contraction_witness,
    cost_along_filter,
    evaluate_policy_mc,
    observe,
    sample_chain,
    solve_value,
    stopping_rule,
    validate_generator,
    value_general,
    verify_variational,
)
from pdpfilter import stopping
from pdpfilter.stopping import BellmanOperator, ValueFunction, psi_values
from conftest import HEXA6_GENERATOR


PROB4 = StoppingProblem(g=[0.0, 2.0, 5.0, 3.0], l=[1.0, 0.5, 2.0, 0.2], alpha=0.5)


@pytest.fixture(scope="module")
def solved4(cyclic4):
    grid = FaceGrid(cyclic4, 32)
    return solve_value(cyclic4, PROB4, grid, tol=1e-6)


def hexa6_problem():
    """perfbench/models/hexa6.json with its stopping problem: a 4-state face
    whose flow moves and a 2-state face."""
    model = FilterModel(validate_generator(HEXA6_GENERATOR),
                        ObservationModel.from_assignment(("a", "a", "a", "a", "b", "b")))
    prob = StoppingProblem(g=[1, 3, 0.5, 2, 4, 0.2], l=[0.5, 0.2, 1, 0.3, 0.8, 1.5], alpha=0.5)
    return model, prob


@pytest.fixture(scope="module")
def policy6():
    model, prob = hexa6_problem()
    return stopping_rule(solve_value(model, prob, FaceGrid(model, 8), tol=1e-6))


def injective_model():
    rate = validate_generator([[-2, 1, 1], [0.5, -1, 0.5], [1, 2, -3]])
    obs = ObservationModel.from_assignment(("L", "M", "H"))
    return FilterModel(rate, obs)


class TestStoppingProblem:
    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            StoppingProblem(g=[1.0], l=[1.0], alpha=0.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            StoppingProblem(g=[1.0, 2.0], l=[1.0], alpha=1.0)


class TestFaceGrid:
    def test_point_counts(self, cyclic4):
        grid = FaceGrid(cyclic4, 8)
        # each face is a segment: m + 1 lattice points
        assert grid.n_points("1") == 9
        assert grid.n_points("0") == 9

    def test_simplex_counts(self):
        model = injective_model()
        grid = FaceGrid(model, 5)
        for a in model.obs.labels:
            assert grid.n_points(a) == 1  # single-state faces

    def test_points_are_distributions(self, cyclic4):
        grid = FaceGrid(cyclic4, 6)
        for a in ("1", "0"):
            pts = grid.points[a]
            assert (pts >= 0).all()
            assert np.abs(pts.sum(axis=1) - 1.0).max() < 1e-15

    def test_interpolation_exact_on_grid(self, cyclic4):
        grid = FaceGrid(cyclic4, 10)
        gen = np.random.default_rng(40)
        vals = {a: gen.normal(size=grid.n_points(a)) for a in ("1", "0")}
        vf = ValueFunction(grid, vals)
        for a in ("1", "0"):
            got = vf.batch(a, grid.points[a])
            assert np.abs(got - vals[a]).max() < 1e-12

    def test_interpolation_exact_on_linear_functions(self):
        # simplicial interpolation reproduces affine functions exactly
        rate = validate_generator(np.diag([0.0] * 4))
        obs = ObservationModel.from_assignment(("a", "a", "a", "b"))
        model = FilterModel(rate, obs)
        grid = FaceGrid(model, 7)
        gen = np.random.default_rng(41)
        c = gen.normal(size=3)
        vf = ValueFunction(grid, {"a": grid.points["a"] @ c, "b": np.zeros(1)})
        W = gen.dirichlet(np.ones(3), size=200)
        assert np.abs(vf.batch("a", W) - W @ c).max() < 1e-12

    def test_interpolation_within_corner_bounds(self):
        rate = validate_generator(np.diag([0.0] * 4))
        obs = ObservationModel.from_assignment(("a", "a", "a", "b"))
        model = FilterModel(rate, obs)
        grid = FaceGrid(model, 5)
        gen = np.random.default_rng(42)
        vals = gen.normal(size=grid.n_points("a"))
        vf = ValueFunction(grid, {"a": vals, "b": np.zeros(1)})
        W = gen.dirichlet(np.ones(3), size=500)
        got = vf.batch("a", W)
        assert got.min() >= vals.min() - 1e-12
        assert got.max() <= vals.max() + 1e-12


class TestCostAlongFilter:
    def make_traj(self, cyclic4, uniform4, horizon=3.0):
        return cyclic4.run_filter(PiecewisePath("1", (), horizon), uniform4)

    def test_stop_immediately(self, cyclic4, uniform4):
        traj = self.make_traj(cyclic4, uniform4)
        got = cost_along_filter(traj, 0.0, PROB4)
        expected = float(np.array([0.5, 0, 0.5, 0]) @ PROB4.g)
        assert abs(got - expected) < 1e-12

    def test_zero_running_cost_never_stop(self, cyclic4, uniform4):
        traj = self.make_traj(cyclic4, uniform4)
        prob = StoppingProblem(g=PROB4.g, l=np.zeros(4), alpha=0.5)
        assert cost_along_filter(traj, math.inf, prob) == 0.0

    def test_unit_running_cost_never_stop(self, cyclic4, uniform4):
        horizon = 4.0
        traj = self.make_traj(cyclic4, uniform4, horizon)
        prob = StoppingProblem(g=np.zeros(4), l=np.ones(4), alpha=0.5)
        expected = (1 - math.exp(-0.5 * horizon)) / 0.5
        assert abs(cost_along_filter(traj, math.inf, prob) - expected) < 1e-10

    def test_discounted_stop_term(self, cyclic4, uniform4):
        traj = self.make_traj(cyclic4, uniform4)
        prob = StoppingProblem(g=np.ones(4), l=np.zeros(4), alpha=0.5)
        tau = 1.7
        assert abs(cost_along_filter(traj, tau, prob) - math.exp(-0.5 * tau)) < 1e-12

    def test_additive_across_jumps(self, cyclic4, uniform4):
        # cost with a jump in the window: integral splits across segments
        y = PiecewisePath("1", ((1.0, "0"),), 3.0)
        traj = cyclic4.run_filter(y, uniform4)
        prob = StoppingProblem(g=np.zeros(4), l=np.ones(4), alpha=0.5)
        expected = (1 - math.exp(-0.5 * 3.0)) / 0.5
        assert abs(cost_along_filter(traj, math.inf, prob) - expected) < 1e-10


class TestBellman:
    def test_no_jump_scalar_faces(self):
        # two isolated states observed separately: v = min(g, l / alpha)
        rate = validate_generator(np.zeros((2, 2)))
        obs = ObservationModel.from_assignment(("a", "b"))
        model = FilterModel(rate, obs)
        prob = StoppingProblem(g=[1.0, 4.0], l=[2.0, 1.0], alpha=1.0)
        vf = solve_value(model, prob, FaceGrid(model, 1), tol=1e-9)
        assert abs(vf.values["a"][0] - 1.0) < 1e-6  # stopping wins
        assert abs(vf.values["b"][0] - 1.0) < 1e-6  # running cost wins (l/alpha)

    def test_zero_obstacle_zero_value(self, cyclic4):
        prob = StoppingProblem(g=np.zeros(4), l=np.ones(4), alpha=0.5)
        vf = solve_value(cyclic4, prob, FaceGrid(cyclic4, 8), tol=1e-8)
        for a in ("1", "0"):
            assert np.abs(vf.values[a]).max() < 1e-12

    def test_iterates_monotone_decreasing(self, cyclic4):
        op = BellmanOperator(cyclic4, FaceGrid(cyclic4, 16), PROB4)
        v0 = psi_values(op.grid, PROB4)
        v1 = op.apply(v0)
        v2 = op.apply(v1)
        for a in ("1", "0"):
            assert (v1[a] <= v0[a] + 1e-12).all()
            assert (v2[a] <= v1[a] + 1e-12).all()

    def test_value_below_obstacle(self, solved4):
        psi = psi_values(solved4.grid, PROB4)
        for a in ("1", "0"):
            assert (solved4.values[a] <= psi[a] + 1e-9).all()

    def test_no_convergence_raises(self, cyclic4):
        with pytest.raises(NoConvergence):
            solve_value(cyclic4, PROB4, FaceGrid(cyclic4, 4), tol=1e-12, max_iter=1)

    def test_matches_classical_oracle_when_fully_observed(self):
        # with an injective observation the belief solver must reproduce the
        # classical per-state value iteration (independent code path)
        model = injective_model()
        prob = StoppingProblem(g=[1.0, -0.5, 2.0], l=[0.3, 1.0, 0.1], alpha=0.5)
        vf = solve_value(model, prob, FaceGrid(model, 4), tol=1e-8)
        oracle = classical_stopping_values(model.rate, prob.g, prob.l, prob.alpha,
                                           tol=1e-8)
        got = np.array([vf.values[a][0] for a in ("L", "M", "H")])
        assert np.abs(got - oracle).max() < 1e-3

    def test_contraction_witness_below_one(self, cyclic4):
        op = BellmanOperator(cyclic4, FaceGrid(cyclic4, 8), PROB4)
        beta = contraction_witness(op, RandomSource(50), n_pairs=10)
        assert 0.0 < beta < 1.0

    def test_time_chunk_changes_no_bit(self, cyclic4, monkeypatch):
        # TIME_CHUNK 1, 7 and K + 1 (the whole mesh in one chunk) against the
        # default; K + 1 = 646 is a multiple of neither 7 nor TIME_CHUNK, so
        # the last chunk is short
        hexa6, prob6 = hexa6_problem()

        def run(model, prob, grid):
            vf = solve_value(model, prob, grid, tol=1e-6)
            beta = contraction_witness(vf._operator, RandomSource(55), n_pairs=2)
            return vf, verify_variational(vf, prob), beta

        for model, prob, grid in ((hexa6, prob6, FaceGrid(hexa6, 8)),
                                  (cyclic4, PROB4, FaceGrid(cyclic4, 16))):
            ref = run(model, prob, grid)
            K = ref[0]._operator.K
            assert (K + 1) % 7 and (K + 1) % stopping.TIME_CHUNK
            for chunk in (1, 7, K + 1):
                monkeypatch.setattr(stopping, "TIME_CHUNK", chunk)
                vf, report, beta = run(model, prob, grid)
                assert all(np.array_equal(vf.values[a], ref[0].values[a]) for a in vf.values)
                for key in ("residual", "iterations", "deltas"):
                    assert vf.info[key] == ref[0].info[key], (chunk, key)
                assert report == ref[1], chunk
                assert beta == ref[2], chunk
            monkeypatch.undo()

    def test_transient_memory_bounded(self):
        # the build keeps about 88 MB on hexa6 at grid 16; the chunked time
        # axis bounds what it and a sweep allocate on top of that
        model, prob = hexa6_problem()
        grid = FaceGrid(model, 16)
        values = psi_values(grid, prob)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            op = BellmanOperator(model, grid, prob)
            retained, peak = tracemalloc.get_traced_memory()
            assert retained - base > 64 * 2**20
            assert peak - retained < 16 * 2**20
            tracemalloc.reset_peak()
            op.apply(values)
            assert tracemalloc.get_traced_memory()[1] - retained < 8 * 2**20
        finally:
            tracemalloc.stop()


class TestValueGeneral:
    def test_face_point_reduces_to_v(self, cyclic4, solved4):
        mu = Distribution([0.3, 0.0, 0.7, 0.0])
        fp = cyclic4.restrict_normalize(mu, "1")
        assert abs(value_general(mu, solved4) - solved4.at(fp)) < 1e-12

    def test_mixture_formula(self, cyclic4, solved4):
        mu = Distribution([0.5, 0.1, 0.2, 0.2])
        a_part = 0.7 * solved4.at(cyclic4.restrict_normalize(mu, "1"))
        b_part = 0.3 * solved4.at(cyclic4.restrict_normalize(mu, "0"))
        assert abs(value_general(mu, solved4) - (a_part + b_part)) < 1e-12

    def test_constant_value_is_constant(self, cyclic4):
        grid = FaceGrid(cyclic4, 4)
        c = 1.234
        vf = ValueFunction(grid, {a: np.full(grid.n_points(a), c) for a in ("1", "0")})
        assert abs(value_general(Distribution([0.4, 0.2, 0.1, 0.3]), vf) - c) < 1e-12


class TestPolicy:
    def test_zero_obstacle_stops_immediately(self, cyclic4, uniform4):
        prob = StoppingProblem(g=np.zeros(4), l=np.ones(4), alpha=0.5)
        vf = solve_value(cyclic4, prob, FaceGrid(cyclic4, 8), tol=1e-8)
        policy = stopping_rule(vf)
        traj = cyclic4.run_filter(PiecewisePath("1", (), 2.0), uniform4)
        assert policy.first_entry(traj) == 0.0

    def test_running_cost_free_never_stops_early(self, cyclic4, solved4):
        # where the obstacle strictly exceeds the value the policy waits
        policy = stopping_rule(solved4)
        fp = cyclic4.face_point("1", [0.0, 0.0, 1.0, 0.0])  # g = 5 there
        assert not policy.should_stop(fp)

    def test_first_entry_on_jump_orbit(self, cyclic4, solved4):
        mu = Distribution([0.5, 0.1, 0.2, 0.2])
        y = PiecewisePath("1", ((0.7, "0"), (1.9, "1")), 30.0)
        traj = cyclic4.run_filter(y, mu)
        policy = stopping_rule(solved4)
        tau = policy.first_entry(traj)
        # the paper-model flow is frozen between jumps, so entry can only
        # happen at segment starts
        assert tau in (0.0, 0.7, 1.9) or math.isinf(tau)
        if not math.isinf(tau):
            assert policy.should_stop(traj.value_at(tau))

    def test_policy_mc_stop_at_zero(self, cyclic4, uniform4):
        prob = StoppingProblem(g=np.zeros(4), l=np.ones(4), alpha=0.5)
        vf = solve_value(cyclic4, prob, FaceGrid(cyclic4, 8), tol=1e-8)
        policy = stopping_rule(vf)
        mean, stderr = evaluate_policy_mc(uniform4, policy, prob, 50, 10.0,
                                          RandomSource(51))
        assert mean == 0.0
        assert stderr == 0.0

    def test_policy_mc_never_stop_unit_cost(self, cyclic4, uniform4):
        class NeverStop:
            def first_entries(self, trajs):
                return [math.inf] * len(trajs)

        horizon = 12.0
        prob = StoppingProblem(g=np.zeros(4), l=np.ones(4), alpha=0.5)
        mean, stderr = evaluate_policy_mc(uniform4, NeverStop(), prob, 30, horizon,
                                          RandomSource(52), model=cyclic4)
        expected = (1 - math.exp(-0.5 * horizon)) / 0.5
        assert abs(mean - expected) < 1e-8
        assert stderr < 1e-10

    def test_policy_mc_rejects_no_paths(self, uniform4, solved4):
        with pytest.raises(ValueError):
            evaluate_policy_mc(uniform4, stopping_rule(solved4), PROB4, 0, 10.0, RandomSource(1))

    def test_policy_mc_values_pinned_and_chunk_free(self, solved4, monkeypatch):
        # (mean, stderr) pinned to the values of the path-by-path evaluation:
        # on hexa6 (moving flows, so the scan refines) at the benchmark's
        # batch shape, and on cyclic4 over three chunks
        hexa6 = FilterModel(validate_generator(HEXA6_GENERATOR),
                            ObservationModel.from_assignment(("a", "a", "a", "a", "b", "b")))
        prob6 = StoppingProblem(g=[1, 3, 0.5, 2, 4, 0.2], l=[0.5, 0.2, 1, 0.3, 0.8, 1.5],
                                alpha=0.5)
        runs = [
            (stopping_rule(solve_value(hexa6, prob6, FaceGrid(hexa6, 8), tol=1e-6)),
             Distribution(np.full(6, 1.0 / 6)), prob6, 25, RandomSource(1, 901).stream(0),
             (1.2590524903235663, 0.04573357982702855)),
            (stopping_rule(solved4), Distribution([0.5, 0.1, 0.2, 0.2]), PROB4, 150,
             RandomSource(54), (1.388842088814382, 0.012496220253558045)),
        ]
        assert 150 > stopping.MC_CHUNK

        class PerPath:  # first_entry only: evaluated path by path through run_filter
            def __init__(self, policy):
                self.policy, self.model = policy, policy.model

            def first_entry(self, traj):
                return self.policy.first_entry(traj)

        for policy, mu, prob, n, rng, pinned in runs:
            assert evaluate_policy_mc(mu, policy, prob, n, 40.0, rng) == pinned
            assert evaluate_policy_mc(mu, PerPath(policy), prob, n, 40.0, rng) == pinned
        monkeypatch.setattr(stopping, "MC_CHUNK", 7)
        for policy, mu, prob, n, rng, pinned in runs:
            assert evaluate_policy_mc(mu, policy, prob, n, 40.0, rng) == pinned

    def test_scan_window_changes_no_bit(self, solved4, policy6, monkeypatch):
        # SCAN_WINDOW 1, 7 and longer than any trajectory's scan against the
        # default, on paths that enter in the first window, in a later one
        # and never
        mu6 = Distribution(np.full(6, 1.0 / 6))
        mu4 = Distribution([0.5, 0.1, 0.2, 0.2])
        batches = []
        for policy, mu, seed in ((policy6, mu6, 62), (stopping_rule(solved4), mu4, 63)):
            model = policy.model
            obs = [observe(sample_chain(model.rate, mu, 40.0, RandomSource(seed, r)), model.obs)
                   for r in range(24)]
            batches.append((policy, model.run_filter_batch(obs, mu)))
        # the face mass underflows at t = 18.2 on `early` and t = 28.7 on
        # `late`, which has more scan points before it and comes first
        model3 = underflow_model()
        mu3 = Distribution([0.5, 0.5, 0.0])
        early = model3.run_filter(PiecewisePath("a", (), 40.0), mu3)
        late = model3.run_filter(PiecewisePath("a", ((10.0, "b"), (10.5, "a")), 40.0), mu3)
        frozen = model3.run_filter(PiecewisePath("b", (), 40.0), Distribution([0, 0, 1.0]))
        never = underflow_policy(model3, -1.0)

        def run():
            taus = [policy.first_entries(trajs) for policy, trajs in batches]
            with pytest.raises(FaceMassVanished) as lost:
                never.first_entries([frozen, late, early])
            return taus, str(lost.value)

        ref = run()
        assert float(ref[1].split("t=")[1]) > 28.0
        tau6 = np.array(ref[0][0])
        # some hexa6 paths enter early, some after more than SCAN_WINDOW scan
        # points and some never
        assert np.isinf(tau6).any() and (tau6 < 2.5).any() and (tau6 > 4.0).any()
        assert np.isfinite(ref[0][1]).any()
        longest = int(40.0 / 0.02) + 3 * max(len(t.segments) for _, trajs in batches
                                             for t in trajs) + 1
        assert longest > stopping.SCAN_WINDOW
        for window in (1, 7, longest):
            monkeypatch.setattr(stopping, "SCAN_WINDOW", window)
            assert run() == ref, window

    def test_first_entries_transient_memory_bounded(self, policy6):
        # the whole-horizon scan took 57 MB on these 64 paths; the windowed
        # one takes about 4 MB
        model = policy6.model
        mu = Distribution(np.full(6, 1.0 / 6))
        obs = [observe(sample_chain(model.rate, mu, 40.0, RandomSource(7, r)), model.obs)
               for r in range(64)]
        trajs = model.run_filter_batch(obs, mu)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            policy6.first_entries(trajs)
            assert tracemalloc.get_traced_memory()[1] - base < 16 * 2**20
        finally:
            tracemalloc.stop()

    def test_policy_cost_close_to_value(self, cyclic4, solved4):
        mu = Distribution([0.5, 0.1, 0.2, 0.2])
        policy = stopping_rule(solved4)
        mean, stderr = evaluate_policy_mc(mu, policy, PROB4, 1500, 40.0,
                                          RandomSource(53))
        V = value_general(mu, solved4)
        assert abs(mean - V) <= 4 * stderr + 0.01


class TestVerifyVariational:
    def test_solution_passes(self, solved4):
        report = verify_variational(solved4, PROB4)
        assert report["pass"], report
        assert report["obstacle_violation"] <= 0.0 + 5e-6
        assert report["continuation_violation"] <= 5e-6

    def test_obstacle_plus_one_fails(self, solved4):
        bumped = ValueFunction(
            solved4.grid,
            {a: v + 1.0 for a, v in psi_values(solved4.grid, PROB4).items()},
            PROB4,
        )
        report = verify_variational(bumped, PROB4)
        assert not report["pass"]
        assert report["obstacle_violation"] > 0.5

    def test_solution_minus_one_passes(self, solved4):
        lowered = ValueFunction(
            solved4.grid, {a: v - 1.0 for a, v in solved4.values.items()}, PROB4
        )
        report = verify_variational(lowered, PROB4)
        assert report["pass"]

    def test_truncation_bound_small(self, solved4):
        report = verify_variational(solved4, PROB4)
        assert report["one_jump_truncation_bound"] < 1e-6

    def test_check_times_past_the_horizon_clamp_to_it(self, cyclic4):
        # alpha = 6: T_max = 2.7, so the check times 3 and 5 are checked at T_max
        prob = StoppingProblem(g=PROB4.g, l=PROB4.l, alpha=6.0)
        vf = solve_value(cyclic4, prob, FaceGrid(cyclic4, 8), tol=1e-8)
        op = vf._operator
        assert op.check_ks == [40, op.K]
        for v in (vf, ValueFunction(vf.grid, vf.values, prob)):
            report = verify_variational(v, prob)
            assert report["pass"], report
            assert report["checked_times"] == [2.0, op.t_max]


class TestClassicalOracle:
    def test_pure_running_cost(self):
        rate = validate_generator(np.zeros((2, 2)))
        vals = classical_stopping_values(rate, [10.0, 10.0], [1.0, 3.0], 1.0)
        assert np.abs(vals - [1.0, 3.0]).max() < 1e-6

    def test_stop_when_cheap(self):
        rate = validate_generator(np.zeros((2, 2)))
        vals = classical_stopping_values(rate, [-1.0, 0.5], [1.0, 1.0], 1.0)
        assert abs(vals[0] - (-1.0)) < 1e-6
        assert abs(vals[1] - 0.5) < 1e-6


# -- the batched policy kernels against per-segment references ---------------

def reference_margins(policy, label, ts_rel, fp):
    """Margins at times ts_rel after the segment start fp, one segment at a time."""
    model = policy.model
    face = model.faces[label]
    W = model._sub[label].rows(fp.weights[face], ts_rel)
    W = np.clip(W, 0.0, None)
    W /= W.sum(axis=1, keepdims=True)
    return W @ policy.prob.g[face] - policy.value.batch(label, W) - policy.eps


def reference_first_entry(policy, traj, time_tol=1e-8, scan_step=0.02):
    """Reference first entry: per-segment scan, then bisection of the first
    scan cell that ends in the contact set."""
    starts = [t for t, _ in traj.segments]
    for k, (t0, fp) in enumerate(traj.segments):
        t1 = starts[k + 1] if k + 1 < len(starts) else traj.horizon
        if policy.should_stop(fp):
            return t0
        sub = policy.model._sub[fp.label].matrix
        if np.allclose(sub, sub[0, 0] * np.eye(len(sub)), atol=1e-14):
            continue
        length = t1 - t0
        if length <= 0:
            continue
        n_pts = max(2, int(math.ceil(length / scan_step)))
        ts = np.linspace(0.0, length, n_pts + 1)[1:]
        hits = np.flatnonzero(reference_margins(policy, fp.label, ts, fp) <= 0.0)
        if len(hits) == 0:
            continue
        j = hits[0]
        lo = 0.0 if j == 0 else ts[j - 1]
        hi = ts[j]
        while hi - lo > time_tol:
            mid = 0.5 * (lo + hi)
            if reference_margins(policy, fp.label, np.array([mid]), fp)[0] <= 0.0:
                hi = mid
            else:
                lo = mid
        return t0 + hi
    return math.inf


def reference_cost(traj, tau, prob):
    """Reference cost_along_filter: one propagation per 16-node chunk."""
    model = traj.model
    if math.isinf(tau):
        t_end, g_term = traj.horizon, 0.0
    else:
        t_end = min(tau, traj.horizon)
        g_term = math.exp(-prob.alpha * tau) * float(traj.value_at(t_end).weights @ prob.g)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    total = 0.0
    starts = [t for t, _ in traj.segments]
    for k, (t0, fp) in enumerate(traj.segments):
        t1 = starts[k + 1] if k + 1 < len(starts) else traj.horizon
        b = min(t1, t_end)
        if b <= t0:
            break
        face = model.faces[fp.label]
        x = fp.weights[face]
        length = b - t0
        n_chunks = max(1, int(math.ceil(length / 2.0)))
        edges = np.linspace(0.0, length, n_chunks + 1)
        for c in range(n_chunks):
            half = 0.5 * (edges[c + 1] - edges[c])
            ts = edges[c] + half * (nodes + 1.0)
            W = np.clip(model._sub[fp.label].rows(x, ts), 0.0, None)
            vals = (W @ prob.l[face]) / W.sum(axis=1)
            total += half * float((weights * np.exp(-prob.alpha * (t0 + ts)) * vals).sum())
    return total + g_term


# (generator, labels) of fixed models: a defective Erlang pair next to a
# one-state (scalar) face; a 4-state face next to the defective pair; and two
# 2-state faces with scalar sub-generators
POLICY_MODELS = [
    ([[-2, 2, 0], [0, -2, 2], [1, 0, -1]], ("a", "a", "b")),
    (HEXA6_GENERATOR, ("a", "a", "a", "a", "b", "b")),
    ([[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [1, 0, 0, -1]], ("1", "0", "1", "0")),
]


@st.composite
def policy_problems(draw):
    """A policy on a model with faces of 1 to 4 states, a filter path, and a
    batch of 1 to 4 filter paths that starts with it.

    The policy is either solved, or has a margin nu g - v(nu) - eps that is
    affine on each face: positive at the start of a drawn segment and
    negative at a drawn time in it, or positive everywhere on a face whose
    flow is frozen, so that entries inside segments are common.
    """
    if draw(st.booleans()):
        rows, labels = draw(st.sampled_from(POLICY_MODELS))
        rows = np.array(rows, dtype=float)
    else:
        sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
        labels = tuple(str(i) for i, size in enumerate(sizes) for _ in range(size))
        n = len(labels)
        off = st.one_of(st.just(0.0), st.floats(0.05, 4.0))
        rows = np.array([[draw(off) for _ in range(n)] for _ in range(n)])
        np.fill_diagonal(rows, 0.0)
        np.fill_diagonal(rows, -rows.sum(axis=1))
    model = FilterModel(validate_generator(rows), ObservationModel.from_assignment(labels))
    n = model.n
    mu = Distribution(np.full(n, 1.0 / n))
    horizon = draw(st.sampled_from([3.0, 10.0]))
    trajs = []
    for _ in range(draw(st.integers(1, 4))):
        seed = draw(st.integers(0, 2**32 - 1))
        path = sample_chain(model.rate, mu, horizon, RandomSource(seed))
        trajs.append(model.run_filter(observe(path, model.obs), mu))
    traj = trajs[0]
    cost = st.floats(0.0, 5.0)
    prob = StoppingProblem(g=[draw(cost) for _ in range(n)], l=[draw(cost) for _ in range(n)],
                           alpha=draw(st.floats(0.5, 2.0)))
    grid = FaceGrid(model, draw(st.sampled_from([3, 6])))
    if draw(st.booleans()):
        return stopping_rule(solve_value(model, prob, grid, tol=1e-6)), traj, trajs
    eps = 1e-6
    values = {}
    for a, face in model.faces.items():
        slope = np.array([draw(st.floats(-1.0, 1.0)) for _ in face])
        ends = [t for t, _ in traj.segments[1:]] + [traj.horizon]
        own = [(t0, t1) for (t0, fp), t1 in zip(traj.segments, ends) if fp.label == a]
        sub = model._sub[a].matrix
        if own and not np.allclose(sub, sub[0, 0] * np.eye(len(face))):
            t0, t1 = own[0] if draw(st.booleans()) else draw(st.sampled_from(own))
            s = t0 + draw(st.floats(0.0, 1.0)) * (t1 - t0)
            rise = float((traj.value_at(t0).weights[face] - traj.value_at(s).weights[face]) @ slope)
            if rise < 0:
                slope = -slope  # outside the contact set at t0
            # 1e-7 below 0 at s, so that no scan point is a tie decided by rounding
            level = -float(traj.value_at(s).weights[face] @ slope) - 1e-7
        else:  # no entry on this face
            level = draw(st.floats(0.01, 1.0)) - float((grid.points[a] @ slope).min())
        margin = grid.points[a] @ slope + level
        values[a] = grid.points[a] @ prob.g[face] - eps - margin
    return StoppingPolicy(ValueFunction(grid, values, prob), eps), traj, trajs


@settings(max_examples=200, deadline=None)
@given(policy_problems())
def test_first_entry_matches_segment_scan_and_bisection(problem):
    policy, traj, batch = problem
    time_tol, scan_step = 1e-8, 0.02
    taus = policy.first_entries(batch, time_tol, scan_step)
    assert taus == [policy.first_entries([t], time_tol, scan_step)[0] for t in batch]
    tau = policy.first_entry(traj, time_tol, scan_step)
    assert tau == taus[0] and policy.first_entries([]) == []
    ref = reference_first_entry(policy, traj, time_tol, scan_step)
    assert math.isinf(tau) == math.isinf(ref), (tau, ref)
    if math.isinf(tau):
        return
    assert policy.should_stop(traj.value_at(tau))
    if abs(tau - ref) > 2 * time_tol:
        # both lie in the first scan cell that ends in the contact set; the
        # sections found an entry there that bisection stepped over
        assert tau < ref <= tau + scan_step, (tau, ref)


def test_first_entry_is_a_stopping_point_on_a_flat_crossing():
    # a drawn example of the test above: on face 0 = {0, 1} the filter
    # (2e^{-4t} + 1)^{-1} (e^{-4t}, 1) has a margin, affine on the face, that
    # crosses 0 near t = 3.856 with a slope of about 4e-7 per unit time, so
    # the sign at the entry is a rounding tie.  The scan decides it on the
    # point that value_at builds.
    rate = validate_generator([[-4, 0, 0, 1, 3]] + [[0] * 5] * 4)
    model = FilterModel(rate, ObservationModel.from_assignment(("0", "0", "1", "1", "1")))
    traj = model.run_filter(PiecewisePath("0", (), 10.0), Distribution(np.full(5, 0.2)))
    prob = StoppingProblem(g=[1.0, 0.0, 0.0, 0.0, 0.0], l=np.zeros(5), alpha=1.0)
    values = {
        "0": np.array([-8.999999999971244e-07, 0.16666576666666666, 0.3333324333333333,
                       0.4999991]),
        "1": np.full(10, -1.000001),
    }
    policy = StoppingPolicy(ValueFunction(FaceGrid(model, 3), values, prob), 1e-6)
    tau = policy.first_entry(traj)
    assert abs(tau - 3.856237) < 1e-6, tau
    assert policy.should_stop(traj.value_at(tau))


def test_first_entry_takes_the_earlier_of_two_entries_in_one_scan_cell():
    # face a = {0, 1}: the filter moves from (1, 0) toward state 1, so
    # nu_1(t) increases.  The margin, set on a fine grid as a function of
    # nu_1, is <= 0 on a dip around t in [0.503, 0.506] and again from
    # t = 0.515 on: two entries in the scan cell [0.50, 0.52].
    rate = validate_generator([[-1, 1, 0], [0, -0.5, 0.5], [0, 0, 0]])
    model = FilterModel(rate, ObservationModel.from_assignment(("a", "a", "b")))
    traj = model.run_filter(PiecewisePath("a", (), 1.0), Distribution([1.0, 0.0, 0.0]))
    prob = StoppingProblem(g=[0.0, 1.0, 0.0], l=[0.0, 0.0, 0.0], alpha=1.0)

    def nu1(t):
        return traj.value_at(t).weights[1]

    grid = FaceGrid(model, 2000)
    p = grid.points["a"][:, 1]
    dip = (p >= nu1(0.503)) & (p <= nu1(0.506))
    margin = np.where(dip | (p >= nu1(0.515)), -1.0, 1.0)
    eps = 1e-3
    values = {"a": grid.points["a"] @ prob.g[:2] - eps - margin, "b": np.zeros(1)}
    policy = StoppingPolicy(ValueFunction(grid, values, prob), eps)
    tau = policy.first_entry(traj)
    ref = reference_first_entry(policy, traj)
    assert 0.51 < ref < 0.52
    assert 0.5025 < tau < 0.5035, tau
    assert policy.should_stop(traj.value_at(tau))
    assert not policy.should_stop(traj.value_at(tau - 2e-8))


def hexa6_trajectories(n, horizon=8.0):
    model = FilterModel(validate_generator(HEXA6_GENERATOR),
                        ObservationModel.from_assignment(("a", "a", "a", "a", "b", "b")))
    mu = Distribution(np.full(6, 1.0 / 6))
    trajs = []
    for r in range(n):
        path = sample_chain(model.rate, mu, horizon, RandomSource(61, r))
        traj = model.run_filter(observe(path, model.obs), mu)
        if {fp.label for _, fp in traj.segments} == {"a", "b"}:
            trajs.append(traj)
    return trajs


def test_batched_cost_matches_per_chunk_reference():
    prob = StoppingProblem(g=[1, 3, 0.5, 2, 4, 0.2], l=[0.5, 0.2, 1, 0.3, 0.8, 1.5], alpha=0.5)
    trajs = hexa6_trajectories(20)
    assert len(trajs) >= 10
    for traj in trajs:
        jumps = traj.jump_times
        # infinite tau, a start, jump times, times inside segments, the horizon
        taus = [math.inf, 0.0, jumps[0], jumps[-1], 0.5 * (jumps[0] + jumps[-1]),
                traj.horizon - 1e-3, traj.horizon]
        for tau in taus:
            got = cost_along_filter(traj, tau, prob)
            assert abs(got - reference_cost(traj, tau, prob)) <= 1e-12, (tau, got)


def underflow_model():
    """ROADMAP 3's face {0, 1}: exit rates 40-50, so x_A e^{t Lambda_A}
    underflows to 0 near t = 18."""
    rate = validate_generator([[-41, 1, 40], [1, -51, 50], [1, 1, -2]])
    return FilterModel(rate, ObservationModel.from_assignment(("a", "a", "b")))


def underflow_policy(model, shift):
    """A policy on underflow_model whose values lie `shift` off the obstacle:
    below it (shift < 0) it never stops, above it it stops at once."""
    prob = StoppingProblem(g=[1.0, 2.0, 0.0], l=np.ones(3), alpha=0.5)
    grid = FaceGrid(model, 4)
    psi = psi_values(grid, prob)
    return StoppingPolicy(ValueFunction(grid, {a: v + shift for a, v in psi.items()}, prob), 1e-6)


class TestFaceMassUnderflow:
    def make_traj(self):
        model = underflow_model()
        return model.run_filter(PiecewisePath("a", (), 30.0), Distribution([0.5, 0.5, 0.0]))

    def test_cost_raises(self):
        traj = self.make_traj()
        prob = StoppingProblem(g=np.zeros(3), l=np.ones(3), alpha=0.5)
        with pytest.raises(FaceMassVanished):
            cost_along_filter(traj, math.inf, prob)
        # up to a time before the underflow the integral is exact
        assert abs(cost_along_filter(traj, 1.0, prob) - (1 - math.exp(-0.5)) / 0.5) < 1e-12

    def test_first_entry_raises_when_the_scan_reaches_the_underflow(self):
        traj = self.make_traj()
        never = underflow_policy(traj.model, -1.0)
        with pytest.raises(FaceMassVanished):
            never.first_entry(traj)
        # in a batch too, behind a trajectory without an underflow
        frozen = traj.model.run_filter(PiecewisePath("b", (), 30.0), Distribution([0, 0, 1.0]))
        with pytest.raises(FaceMassVanished):
            never.first_entries([frozen, traj])
        # an entry before the underflow is still found
        now = underflow_policy(traj.model, 1.0)
        assert now.first_entry(traj) == 0.0
