import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from pdpfilter import (
    BeliefPdp,
    Distribution,
    FaceGrid,
    FaceMassVanished,
    FilterModel,
    FilterTrajectory,
    NoConvergence,
    ObservationModel,
    PiecewisePath,
    RandomSource,
    StoppingPolicy,
    StoppingProblem,
    classical_stopping_values,
    contraction_bound,
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
from conftest import HEXA6_GENERATOR, pdp5_model


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


def face_model(d):
    """A frozen chain with a face "a" of d states and a 1-state face "b"."""
    rate = validate_generator(np.diag([0.0] * (d + 1)))
    return FilterModel(rate, ObservationModel.from_assignment(("a",) * d + ("b",)))


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

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_interpolation_exact_on_grid(self, d, m):
        # a grid point is its own first vertex, with weight 1
        grid = FaceGrid(face_model(d), m)
        n = grid.n_points("a")
        idx, wgt = grid.interpolation_weights("a", grid.points["a"])
        assert np.array_equal(idx[:, 0], np.arange(n))
        assert (wgt[:, 0] == 1.0).all() and (wgt[:, 1:] == 0.0).all()
        vals = np.random.default_rng(40).normal(size=n)
        vf = ValueFunction(grid, {"a": vals, "b": np.zeros(1)})
        assert np.abs(vf.batch("a", grid.points["a"]) - vals).max() < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_interpolation_exact_on_linear_functions(self, d, m):
        # simplicial interpolation reproduces affine functions exactly, and
        # the vertices with positive weight reproduce the point itself
        grid = FaceGrid(face_model(d), m)
        gen = np.random.default_rng(41)
        c = gen.normal(size=d)
        vf = ValueFunction(grid, {"a": grid.points["a"] @ c, "b": np.zeros(1)})
        W = gen.dirichlet(np.ones(d), size=200)
        assert np.abs(vf.batch("a", W) - W @ c).max() < 1e-12
        idx, wgt = grid.interpolation_weights("a", W)
        assert wgt.min() >= 0.0 and np.abs(wgt.sum(axis=1) - 1.0).max() < 1e-12
        pos = wgt > 0
        assert (idx[pos] >= 0).all() and (idx[pos] < grid.n_points("a")).all()
        vertices = grid.points["a"][np.where(pos, idx, 0)]
        assert np.abs((wgt[:, :, None] * vertices).sum(axis=1) - W).max() < 1e-12

    def test_interpolation_raises_off_the_lattice(self):
        # a row that does not sum to 1 puts a vertex of positive weight off the grid
        grid = FaceGrid(face_model(2), 4)
        with pytest.raises(RuntimeError):
            grid.interpolation_weights("a", np.array([[0.5, 1.5]]))

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

    @pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -1e-6}, {"tol": math.nan},
                                        {"max_iter": 0}])
    def test_rejects_bad_tol_and_max_iter(self, cyclic4, kwargs):
        with pytest.raises(ValueError):
            solve_value(cyclic4, PROB4, FaceGrid(cyclic4, 4), **kwargs)

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
        # (TIME_CHUNK, CHUNK_BUDGET) giving 1-step chunks, chunks whose last
        # one is short on every face (a budget of 7 steps of hexa6's face a),
        # and the whole axis in one chunk, against the default; the mesh has
        # K + 1 = 646 nodes, and hexa6's face a (165 points at grid 8) is
        # chunked up to its tail start, node 309
        hexa6, prob6 = hexa6_problem()

        def run(model, prob, grid):
            vf = solve_value(model, prob, grid, tol=1e-6)
            op = vf._operator
            steps = {a: op._chunk_steps(a) for a in model.obs.labels}
            for a, n in steps.items():
                lengths = [k1 - k0 for k0, k1 in (c["nodes"] for c in op._pre[a]["body"])]
                assert lengths[:-1] == [n] * (len(lengths) - 1) and 0 < lengths[-1] <= n
                assert sum(lengths) == op.tail_start[a] + 1
            beta = contraction_witness(op, RandomSource(55), n_pairs=2)
            return vf, verify_variational(vf, prob), beta, contraction_bound(op), steps

        cases = (
            (hexa6, prob6, FaceGrid(hexa6, 8),
             {(1, 1): {"a": 1, "b": 1}, (1, 7 * 165): {"a": 7, "b": 128},
              (646, 1): {"a": 646, "b": 646}},
             {"a": 49, "b": 910}),
            (cyclic4, PROB4, FaceGrid(cyclic4, 16),
             {(1, 1): {"1": 1, "0": 1}, (1, 7 * 165): {"1": 67, "0": 67},
              (646, 1): {"1": 646, "0": 646}},
             {"1": 481, "0": 481}),
        )
        for model, prob, grid, settings, default_steps in cases:
            ref = run(model, prob, grid)
            assert ref[0]._operator.K + 1 == 646
            assert ref[4] == default_steps
            tail_start = ref[0]._operator.tail_start
            assert all((tail_start[a] + 1) % n for a, n in settings[(1, 7 * 165)].items())
            for (time_chunk, budget), steps in settings.items():
                monkeypatch.setattr(stopping, "TIME_CHUNK", time_chunk)
                monkeypatch.setattr(stopping, "CHUNK_BUDGET", budget)
                vf, report, beta, bound, got = run(model, prob, grid)
                assert got == steps
                assert all(np.array_equal(vf.values[a], ref[0].values[a]) for a in vf.values)
                for key in ("residual", "iterations", "deltas"):
                    assert vf.info[key] == ref[0].info[key], (steps, key)
                assert report == ref[1], steps
                assert beta == ref[2], steps
                assert bound == ref[3], steps
            monkeypatch.undo()

    def test_transient_memory_bounded(self):
        # the build keeps about 39 MB on hexa6 at grid 16 (tools/solver_memory.py);
        # the chunked time axis bounds what it and a sweep allocate on top of that
        model, prob = hexa6_problem()
        grid = FaceGrid(model, 16)
        values = psi_values(grid, prob)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            op = BellmanOperator(model, grid, prob)
            retained, peak = tracemalloc.get_traced_memory()
            assert retained - base > 32 * 2**20
            assert peak - retained < 16 * 2**20
            tracemalloc.reset_peak()
            op.apply(values)
            assert tracemalloc.get_traced_memory()[1] - retained < 8 * 2**20
        finally:
            tracemalloc.stop()

    def test_gather_matrices_sum_in_vertex_order(self, cyclic4):
        # every retained gather is a CSR matrix with d_b + 1 in-range entries
        # per row whose weights sum to 1, and its matvec sums each row's
        # products left to right, as numpy sums the interpolation products
        hexa6, prob6 = hexa6_problem()
        rng = np.random.default_rng(56)
        for model, prob, m in ((hexa6, prob6, 8), (cyclic4, PROB4, 16)):
            op = BellmanOperator(model, FaceGrid(model, m), prob)
            n_checked = 0
            for a, e in op._pre.items():
                chunks = e["body"] + e["tail"]
                mats = [(b, G) for c in chunks for b, _, G in c["jumps"]]
                mats += [(a, G) for c in chunks for G in c["self_gather"].values()]
                for b, G in mats:
                    c = len(model.faces[b]) + 1
                    n_b = op.grid.n_points(b)
                    assert G.shape[1] == n_b and G.nnz == c * G.shape[0]
                    assert np.array_equal(G.indptr, np.arange(0, G.nnz + 1, c))
                    assert G.indices.dtype == np.int32
                    assert G.indices.min() >= 0 and G.indices.max() < n_b
                    w = G.data.reshape(-1, c)
                    assert w.min() >= 0.0 and np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12
                    v = rng.uniform(-1, 1, n_b)
                    want = (v[G.indices.reshape(-1, c)] * w).sum(axis=1)
                    assert np.array_equal(G @ v, want)
                    n_checked += 1
            assert n_checked > sum(len(e["body"]) + len(e["tail"]) for e in op._pre.values())


def tail_cases():
    """(model, problem, grid resolution) per case of the tail tests: hexa6's
    face a collapses and its face b never does, pdp5's 2-state faces
    collapse, and the injective model's faces have one point each."""
    hexa6, prob6 = hexa6_problem()
    prob5 = StoppingProblem(g=[2, 1, 3, 0.5, 1.5], l=[0.4, 0.8, 0.2, 1.0, 0.6], alpha=0.5)
    injective = StoppingProblem(g=[1.0, -0.5, 2.0], l=[0.3, 1.0, 0.1], alpha=0.5)
    return {"hexa6-8": (hexa6, prob6, 8), "hexa6-16": (hexa6, prob6, 16),
            "pdp5-8": (pdp5_model(), prob5, 8), "injective-4": (injective_model(), injective, 4)}


def flow_spreads(op, a):
    """Spread (the largest range of one coordinate over the points) of face
    a's grid points at every row of the mesh, flowed row by row with the
    operator's recurrence, clipped and normalized."""
    E = expm(op.dt * op.model._sub[a].matrix)
    Eh = expm(0.5 * op.dt * op.model._sub[a].matrix)
    node = op.grid.points[a]
    out = []
    for k in range(op.K + 1):
        for X in (node, node @ Eh):
            P = np.maximum(X, 0.0)
            with np.errstate(invalid="ignore", divide="ignore"):
                P = P / P.sum(axis=1, keepdims=True)
            out.append((P.max(axis=0) - P.min(axis=0)).max())
        node = node @ E
    return np.array(out[:-1])  # rows 0 .. 2K


class TestTail:
    @pytest.mark.parametrize("case", ["hexa6-8", "hexa6-16", "pdp5-8", "injective-4"])
    def test_collapse_matches_the_full_tables(self, case, monkeypatch):
        # the operator against one with the collapse disabled (every face
        # keeps its flowed points to K), on the obstacle, the solved values
        # and uniform values, where the tail's branches win for some points
        model, prob, m = tail_cases()[case]
        grid = FaceGrid(model, m)
        vf = solve_value(model, prob, grid, tol=1e-6)
        op = vf._operator
        monkeypatch.setattr(stopping, "TAIL_SPREAD", -1.0)
        full = BellmanOperator(model, grid, prob)
        assert set(full.tail_start.values()) == {full.K}
        if case != "injective-4":
            assert min(op.tail_start.values()) < op.K
        rng = np.random.default_rng(58)
        uniform = {a: rng.uniform(-1, 1, grid.n_points(a)) for a in model.obs.labels}
        differ = False
        for values in (psi_values(grid, prob), vf.values, uniform):
            got, want = op.apply(values), full.apply(values)
            for a in model.obs.labels:
                if len(model.faces[a]) == 1:
                    assert op.tail_start[a] == 0
                    assert np.array_equal(got[a], want[a])
                assert np.abs(got[a] - want[a]).max() <= 1e-12
                differ |= not np.array_equal(got[a], want[a])
        if case.startswith("hexa6"):
            assert differ  # a tail branch won somewhere: the comparison is not vacuous

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 4), st.integers(0, 2**32 - 1))
    def test_rows_past_the_tail_start_agree(self, d, seed):
        # on a random face of 3 or 4 states next to a 1-state face, every row
        # from node k_T on spreads by at most TAIL_SPREAD, and k_T is the
        # first node with that property
        gen = np.random.default_rng(seed)
        rate = gen.uniform(0.0, 3.0, (d + 1, d + 1))
        np.fill_diagonal(rate, 0.0)
        np.fill_diagonal(rate, -rate.sum(axis=1))
        model = FilterModel(validate_generator(rate),
                            ObservationModel.from_assignment(("a",) * d + ("b",)))
        prob = StoppingProblem(g=gen.uniform(0, 2, d + 1), l=gen.uniform(0, 2, d + 1),
                               alpha=gen.uniform(0.5, 2.0))
        op = BellmanOperator(model, FaceGrid(model, 3), prob)
        spread = flow_spreads(op, "a")
        k_tail = op.tail_start["a"]
        if k_tail < op.K:
            assert spread[2 * k_tail:].max() <= stopping.TAIL_SPREAD
        if k_tail > 0:
            assert not (spread[2 * k_tail - 2:2 * k_tail + 1] <= stopping.TAIL_SPREAD).all()
        assert op.tail_start["b"] == 0


def solver_cases(cyclic4):
    """tail_cases with cyclic4 at grid 16, whose flows are frozen."""
    return {**tail_cases(), "cyclic4-16": (cyclic4, PROB4, 16)}


class TestGaussSeidel:
    @pytest.mark.parametrize("case", ["hexa6-8", "cyclic4-16"])
    def test_matches_jacobi_iteration(self, cyclic4, case):
        # Jacobi sweeps of T from psi reach the fixed point of the
        # Gauss-Seidel passes, in more sweeps than passes
        model, prob, m = solver_cases(cyclic4)[case]
        vf = solve_value(model, prob, FaceGrid(model, m), tol=1e-10)
        assert vf.info["residual"] < 1e-10
        op = vf._operator
        values = psi_values(op.grid, prob)
        delta = math.inf
        sweeps = 0
        while delta >= 1e-10:
            new = op.apply(values)
            delta = max(np.abs(new[a] - values[a]).max() for a in new)
            values = new
            sweeps += 1
        assert max(np.abs(vf.values[a] - values[a]).max() for a in values) < 1e-9
        assert vf.info["iterations"] < sweeps

    @pytest.mark.parametrize("case", ["hexa6-8", "cyclic4-16"])
    def test_passes_from_psi_do_not_increase(self, cyclic4, case):
        model, prob, m = solver_cases(cyclic4)[case]
        op = BellmanOperator(model, FaceGrid(model, m), prob)
        values = psi_values(op.grid, prob)
        for _ in range(4):
            for a in model.obs.labels:
                new = op.update(values, a)
                assert (new <= values[a] + 1e-12).all()
                values[a] = new

    @pytest.mark.parametrize("case, pinned", [("hexa6-16", 0.8573), ("pdp5-8", 0.8889),
                                              ("cyclic4-16", 0.6833), ("injective-4", 0.8573)])
    def test_contraction_bound_certifies_the_solve(self, cyclic4, case, pinned):
        # witness <= beta-bar < 1, and ||v - v*|| <= residual / (1 - beta-bar)
        # for v* the fixed point of T, of which a tol-1e-11 solve is within
        # its own residual / (1 - beta-bar)
        model, prob, m = solver_cases(cyclic4)[case]
        grid = FaceGrid(model, m)
        vf = solve_value(model, prob, grid, tol=1e-6)
        ref = solve_value(model, prob, grid, tol=1e-11)
        op = vf._operator
        beta = contraction_bound(op)
        assert abs(beta - pinned) < 5e-5
        assert contraction_witness(op, RandomSource(56), n_pairs=5) <= beta < 1.0
        error = max(np.abs(vf.values[a] - ref.values[a]).max() for a in ref.values)
        assert error <= (vf.info["residual"] + ref.info["residual"]) / (1.0 - beta)


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
             (1.2590524903249642, 0.045733579826795545)),
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


def test_store_is_one_across_its_producers(policy6):
    # trajectories from run_filter, from slices of run_filter_batch and from
    # simulate_pdp, mixed in one batch, get from the one evaluator the bits
    # they get alone; the views round-trip the stored rows
    model, prob = policy6.model, policy6.prob
    mu = Distribution([0, 0, 0, 0, 0.5, 0.5])  # H_a[mu] is the uniform fallback
    ys = [observe(sample_chain(model.rate, Distribution(np.full(6, 1 / 6)), 12.0,
                               RandomSource(71, r)), model.obs) for r in range(8)]
    ys.append(PiecewisePath("a", (), 5.0))
    sliced = model.run_filter_batch(ys, mu)
    alone = [model.run_filter(y, mu) for y in ys]
    pdp = BeliefPdp(model)
    simulated = [pdp.simulate_pdp(model.restrict_normalize(mu, a), 12.0, RandomSource(72, i))
                 for i, a in enumerate("abab")]
    # and a path made by hand whose post-jump point is H_b's uniform fallback
    start = model.restrict_normalize(np.full(6, 1 / 6), "a")
    made = FilterTrajectory.of_points(model, [0.0, 1.5], [start, model.restrict_normalize(
        start.weights, "b")], [model.flow(1.5, start)], 4.0)
    mixed = sliced[:4] + simulated[:2] + [made] + alone[4:] + simulated[2:]
    assert simulated[0].segments[0][1].degenerate and sliced[-1].segments[0][1].degenerate
    assert made.jumps[0].post.degenerate

    taus = policy6.first_entries(mixed)
    assert taus == [policy6.first_entries([traj])[0] for traj in mixed]
    assert policy6.first_entries(sliced) == policy6.first_entries(alone)
    assert any(math.isinf(t) for t in taus) and any(t < math.inf for t in taus)

    for traj, tau in zip(mixed, taus):
        # rebuilt from its FacePoint views, the trajectory has the same arrays
        twin = FilterTrajectory.of_points(model, [t for t, _ in traj.segments],
                                          [fp for _, fp in traj.segments],
                                          [j.pre for j in traj.jumps], traj.horizon)
        for name in ("t0", "ids", "starts", "pre", "degenerate"):
            assert np.array_equal(getattr(twin, name), getattr(traj, name)), name
        for k, j in enumerate(traj.jumps):
            assert j.time == traj.t0[k + 1]
            assert np.array_equal(traj.left_limit_at(j.time).weights, traj.pre[k])
            assert np.array_equal(j.post.weights, traj.starts[k + 1])
            assert j.post.degenerate == traj.degenerate[k + 1]
        for t in (tau, math.inf):
            assert cost_along_filter(traj, t, prob) == cost_along_filter(twin, t, prob)
    for a, b in zip(sliced, alone):
        assert cost_along_filter(a, math.inf, prob) == cost_along_filter(b, math.inf, prob)


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
