import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdpfilter import (
    DegenerateJump,
    Distribution,
    FilterModel,
    NegativeFaceMass,
    ObservationModel,
    PiecewisePath,
    observe,
    sample_chain,
    sub_generator,
    transition_semigroup,
    validate_generator,
)
from pdpfilter.filtering import _SubExp
from conftest import (
    HEXA6_GENERATOR,
    pdp5_model,
    random_face_point,
    random_observation,
    random_rate_matrix,
    three_state_model,
)


class TestRestrictNormalize:
    def test_uniform_on_cyclic4(self, cyclic4, uniform4):
        fp = cyclic4.restrict_normalize(uniform4, "1")
        assert np.allclose(fp.weights, [0.5, 0, 0.5, 0])
        assert not fp.degenerate

    def test_off_face_entries_ignored(self, cyclic4):
        fp = cyclic4.restrict_normalize(np.array([0.3, -5.0, 0.1, 2.0]), "1")
        assert np.allclose(fp.weights, [0.75, 0, 0.25, 0])

    def test_negative_face_mass_raises(self, cyclic4):
        with pytest.raises(NegativeFaceMass):
            cyclic4.restrict_normalize(np.array([-0.5, 0.5, 1.0, 0.0]), "1")

    def test_tiny_negative_clipped(self, cyclic4):
        fp = cyclic4.restrict_normalize(np.array([-1e-13, 0.0, 1.0, 0.0]), "1")
        assert np.allclose(fp.weights, [0, 0, 1, 0])

    def test_uniform_fallback_flagged(self, cyclic4):
        fp = cyclic4.restrict_normalize(np.array([0.0, 1.0, 0.0, 0.0]), "1")
        assert fp.degenerate
        assert np.allclose(fp.weights, [0.5, 0, 0.5, 0])

    def test_rejects_a_law_of_another_length(self, cyclic4):
        # a 3-entry law was restricted, and filtered, without complaint
        law = Distribution([0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="3 entries.*4 states"):
            cyclic4.restrict_normalize(law, "1")
        with pytest.raises(ValueError, match="3 entries.*4 states"):
            cyclic4.run_filter(PiecewisePath("1", (), 1.0), law)

    def test_idempotent(self, cyclic4):
        gen = np.random.default_rng(0)
        for _ in range(20):
            v = gen.uniform(0, 1, 4)
            fp = cyclic4.restrict_normalize(v, "0")
            fp2 = cyclic4.restrict_normalize(fp.weights, "0")
            assert np.abs(fp.weights - fp2.weights).max() < 1e-15


class TestVectorField:
    def test_cyclic4_flow_is_constant(self, cyclic4):
        # both face sub-generators are -I, so the normalized flow is frozen
        gen = np.random.default_rng(1)
        for _ in range(10):
            fp = random_face_point(gen, cyclic4)
            assert np.abs(cyclic4.vector_field(fp)).max() < 1e-14

    def test_field_vanishes_off_face(self):
        model = three_state_model()
        gen = np.random.default_rng(2)
        for _ in range(10):
            fp = random_face_point(gen, model, "a")
            f = model.vector_field(fp)
            assert f[2] == 0.0
            assert abs(f.sum()) < 1e-14  # tangent to the simplex

    def test_matches_flow_derivative(self):
        model = three_state_model()
        gen = np.random.default_rng(3)
        eps = 1e-6
        for _ in range(10):
            fp = random_face_point(gen, model, "a")
            fd = (model.flow(eps, fp).weights - fp.weights) / eps
            assert np.abs(fd - model.vector_field(fp)).max() < 1e-4


def _random_face(seed, d):
    """A d-state sub-generator: a block of a random (d + 2)-state generator."""
    return random_rate_matrix(np.random.default_rng(seed), d + 2).entries[:d, :d]


# pdp5's three faces and hexa6's two (a 4-state face with complex eigenvalues
# and an Erlang pair without an eigenbasis), and random faces of 1 to 4 states
BATCH_FACES = {
    **{f"pdp5-{a}": sub.matrix for a, sub in pdp5_model()._sub.items()},
    "hexa6-a": sub_generator(validate_generator(HEXA6_GENERATOR), [0, 1, 2, 3]),
    "hexa6-b": sub_generator(validate_generator(HEXA6_GENERATOR), [4, 5]),
    **{f"random{d}-{seed}": _random_face(seed, d) for d in (1, 2, 3, 4) for seed in (0, 1)},
}


class TestFlow:
    def test_t_zero_identity(self):
        model = three_state_model()
        fp = model.face_point("a", [0.3, 0.7, 0.0])
        out = model.flow(0.0, fp)
        assert np.abs(out.weights - fp.weights).max() < 1e-15

    def test_stays_on_face_exactly(self):
        model = three_state_model()
        gen = np.random.default_rng(4)
        for t in (0.1, 1.0, 5.0):
            fp = random_face_point(gen, model, "a")
            w = model.flow(t, fp).weights
            assert w[2] == 0.0
            assert w.min() >= 0.0
            assert abs(w.sum() - 1.0) < 1e-12

    def test_semigroup_property(self):
        model = three_state_model()
        gen = np.random.default_rng(5)
        for _ in range(5):
            fp = random_face_point(gen, model, "a")
            s, t = gen.uniform(0.1, 1.5, 2)
            one = model.flow(s + t, fp).weights
            two = model.flow(t, model.flow(s, fp)).weights
            assert np.abs(one - two).max() < 1e-12

    def test_scalar_face_fixed(self):
        model = three_state_model()
        fp = model.face_point("b", [0.0, 0.0, 1.0])
        assert np.abs(model.flow(2.0, fp).weights - fp.weights).max() < 1e-15

    def test_matches_unnormalized_exponential(self):
        model = three_state_model()
        sub = np.array([[-2.0, 1.0], [1.0, -3.0]])
        fp = model.face_point("a", [0.2, 0.8, 0.0])
        from scipy.linalg import expm

        for t in (0.3, 1.7):
            u = np.array([0.2, 0.8]) @ expm(t * sub)
            expected = u / u.sum()
            assert np.abs(model.flow(t, fp).weights[:2] - expected).max() < 1e-12

    @pytest.mark.parametrize("name", sorted(BATCH_FACES))
    def test_rows_is_batch_invariant(self, name):
        # each row of a batch has the bits of its own one-row call, t = 0
        # gives the row itself, and every row matches scipy's expm; times up
        # to 40 reach the Taylor path's third digit level
        matrix = BATCH_FACES[name]
        sub = _SubExp(matrix)
        d = len(matrix)
        gen = np.random.default_rng(11)
        X = gen.dirichlet(np.ones(d), size=400)
        ts = np.concatenate([[0.0], gen.uniform(0.0, 5.0, 299), gen.uniform(5.0, 40.0, 100)])
        gen.shuffle(ts)
        from scipy.linalg import expm

        expected = np.array([x @ expm(t * matrix) for x, t in zip(X, ts)])
        np.testing.assert_allclose(sub.rows(X, ts), expected, rtol=1e-9, atol=1e-14)
        for x, t, batch in [(X, ts, sub.rows(X, ts)), (X[0], ts, sub.rows(X[0], ts)),
                            (X, np.full(400, ts[1]), sub.rows(X, ts[1]))]:
            assert batch.shape == (400, d)
            rows = x if x.ndim == 2 else [x] * 400
            assert all(np.array_equal(batch[i], sub.rows(r, t[i])) for i, r in enumerate(rows))
        assert all(np.array_equal(sub.rows(x, 0.0), x) for x in X)
        assert sub.rows(X[0], ts[:0]).shape == (0, d) and sub.rows(X[0], ts[:1]).shape == (1, d)


# faces without an eigenbasis: hexa6's Erlang pair, a 3x3 Jordan block, and a
# near-defective matrix whose eigenvector matrix has condition number ~3e6
DEFECTIVE_FACES = [
    [[-3.0, 1.0], [0.0, -3.0]],
    [[-2.0, 1.0, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, -2.0]],
    [[-3.0, 1.0], [1e-13, -3.0]],
]


@pytest.mark.parametrize("matrix", DEFECTIVE_FACES)
def test_defective_propagator_matches_expm(matrix):
    from scipy.linalg import expm

    matrix = np.array(matrix)
    sub = _SubExp(matrix)
    assert not sub.ok
    ts = np.array([0.0, 1e-12, 0.37, 40.0])
    gen = np.random.default_rng(7)
    X = gen.dirichlet(np.ones(len(matrix)), size=len(ts))
    expected = np.array([x @ expm(t * matrix) for x, t in zip(X, ts)])
    np.testing.assert_allclose(sub.rows(X, ts), expected, rtol=1e-12, atol=0)
    for x in X:
        expected = np.array([x @ expm(t * matrix) for t in ts])
        np.testing.assert_allclose(sub.rows(x, ts), expected, rtol=1e-12, atol=0)
        np.testing.assert_allclose([sub.rows(x, t) for t in ts], expected,
                                   rtol=1e-12, atol=0)


@pytest.mark.parametrize("matrix", DEFECTIVE_FACES)
def test_defective_base_is_the_taylor_sum(matrix):
    # e^{hM}, the base of every digit table, is the sum of the cached Taylor
    # terms; it agrees with scipy's expm to a few ulps of its largest entry
    from scipy.linalg import expm

    matrix = np.array(matrix)
    sub = _SubExp(matrix)
    base = sub.rows(np.eye(len(matrix)), sub.step)  # k = 1, s = 0: the digit e^{hM}
    expected = expm(sub.step * matrix)
    assert np.abs(base - expected).max() <= 4 * np.spacing(np.abs(expected).max())


class TestFlowOde:
    def test_t_zero(self):
        model = three_state_model()
        fp = model.face_point("a", [0.4, 0.6, 0.0])
        assert model.flow_ode(0.0, fp) is fp

    def test_agrees_with_closed_form(self):
        model = three_state_model()
        gen = np.random.default_rng(6)
        for _ in range(5):
            fp = random_face_point(gen, model, "a")
            for t in (0.2, 0.7, 2.0):
                a = model.flow(t, fp).weights
                b = model.flow_ode(t, fp).weights
                assert np.abs(a - b).max() < 1e-9

    def test_agrees_on_random_models(self):
        gen = np.random.default_rng(7)
        for _ in range(3):
            n = int(gen.integers(3, 6))
            rate = random_rate_matrix(gen, n)
            obs = random_observation(gen, n, 2)
            model = FilterModel(rate, obs)
            fp = random_face_point(gen, model)
            a = model.flow(0.9, fp).weights
            b = model.flow_ode(0.9, fp).weights
            assert np.abs(a - b).max() < 1e-8


class TestRunFilter:
    def test_cyclic4_orbit(self, cyclic4):
        # non-uniform start visits four distinct belief points, swapping
        # the (p, q) weights between the two faces at each observation jump
        mu = Distribution([0.5, 0.1, 0.2, 0.2])
        y = PiecewisePath("1", ((1.0, "0"), (2.5, "1"), (3.0, "0")), 4.0)
        traj = cyclic4.run_filter(y, mu)
        p, q = 5.0 / 7.0, 2.0 / 7.0
        assert np.allclose(traj.value_at(0.0).weights, [p, 0, q, 0])
        assert np.allclose(traj.value_at(0.5).weights, [p, 0, q, 0])
        assert np.allclose(traj.value_at(1.0).weights, [0, p, 0, q])
        assert np.allclose(traj.value_at(2.5).weights, [q, 0, p, 0])
        assert np.allclose(traj.value_at(3.5).weights, [0, q, 0, p])

    def test_left_limit_at_jump(self, cyclic4, uniform4):
        y = PiecewisePath("1", ((1.0, "0"),), 2.0)
        traj = cyclic4.run_filter(y, uniform4)
        assert np.allclose(traj.left_limit_at(1.0).weights, [0.5, 0, 0.5, 0])
        assert np.allclose(traj.value_at(1.0).weights, [0, 0.5, 0, 0.5])

    def test_injective_observation_is_point_mass(self):
        gen = np.random.default_rng(8)
        rate = random_rate_matrix(gen, 4)
        obs = ObservationModel.from_assignment(("w", "x", "y", "z"))
        model = FilterModel(rate, obs)
        path = sample_chain(rate, Distribution(np.full(4, 0.25)), 5.0, gen)
        traj = model.run_filter(observe(path, obs), Distribution(np.full(4, 0.25)))
        for t in np.linspace(0, 5, 23):
            w = traj.value_at(t).weights
            assert np.abs(w - np.eye(4)[path.value_at(t)]).max() < 1e-9

    def test_constant_observation_is_semigroup(self):
        # when h is constant the filter is just mu e^{t Lambda}
        gen = np.random.default_rng(9)
        rate = random_rate_matrix(gen, 3)
        obs = ObservationModel.from_assignment(("c", "c", "c"))
        model = FilterModel(rate, obs)
        mu = Distribution([0.6, 0.3, 0.1])
        traj = model.run_filter(PiecewisePath("c", (), 3.0), mu)
        for t in (0.5, 1.5, 3.0):
            expected = mu.weights @ transition_semigroup(rate, t)
            assert np.abs(traj.value_at(t).weights - expected).max() < 1e-10

    def test_degenerate_jump_raises(self):
        # state 1 feeds the "b" face but is unreachable from state 0,
        # so an observed jump to "b" contradicts the model
        rate = validate_generator([[-1, 1, 0], [0, -1, 1], [0, 0, 0]])
        obs = ObservationModel.from_assignment(("a", "b", "c"))
        model = FilterModel(rate, obs)
        y = PiecewisePath("a", ((1.0, "c"),), 2.0)
        with pytest.raises(DegenerateJump) as exc:
            model.run_filter(y, Distribution([1, 0, 0]))
        assert exc.value.time == 1.0

    def test_simulated_paths_never_degenerate(self, cyclic4):
        mu = Distribution([0.5, 0.1, 0.2, 0.2])
        gen = np.random.default_rng(10)
        for _ in range(300):
            path = sample_chain(cyclic4.rate, mu, 4.0, gen)
            traj = cyclic4.run_filter(observe(path, cyclic4.obs), mu)
            for _, fp in traj.segments:
                assert fp.weights.min() >= 0.0
                assert abs(fp.weights.sum() - 1.0) < 1e-10

    def test_simulated_paths_random_model(self):
        gen = np.random.default_rng(11)
        rate = random_rate_matrix(gen, 5)
        obs = random_observation(gen, 5, 3)
        model = FilterModel(rate, obs)
        mu = Distribution(np.full(5, 0.2))
        for _ in range(100):
            path = sample_chain(rate, mu, 2.0, gen)
            traj = model.run_filter(observe(path, obs), mu)
            for t in np.linspace(0, 2, 9):
                w = traj.value_at(t).weights
                assert w.min() >= 0.0
                assert abs(w.sum() - 1.0) < 1e-9


@st.composite
def filter_batches(draw):
    """A random model, a random mu > 0 and a batch of observation paths of
    mixed horizons, jump-free paths among them.  Sometimes the model has no
    rate from the face of the first label into the second, and the batch
    holds, at a drawn place, a path with that jump (run_filter raises
    DegenerateJump on it); it is returned apart as well."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 6))
    obs = random_observation(gen, n, draw(st.integers(2, min(n, 3))))
    entries = random_rate_matrix(gen, n).entries.copy()
    first, second = (obs.level_sets[a] for a in obs.labels[:2])
    bad = draw(st.booleans())
    if bad:
        entries[np.ix_(first, second)] = 0.0
        np.fill_diagonal(entries, 0.0)
        np.fill_diagonal(entries, -entries.sum(axis=1))
    model = FilterModel(validate_generator(entries), obs)
    mu = Distribution(gen.dirichlet(np.ones(n)))
    paths = []
    for horizon in draw(st.lists(st.sampled_from([0.5, 2.0, 6.0]), min_size=1, max_size=6)):
        if draw(st.booleans()):
            paths.append(observe(sample_chain(model.rate, mu, horizon, gen), obs))
        else:
            paths.append(PiecewisePath(draw(st.sampled_from(obs.labels)), (), horizon))
    if not bad:
        return model, mu, paths, None
    jump = ((draw(st.floats(0.01, 0.99)), obs.labels[1]),)
    degenerate = PiecewisePath(obs.labels[0], jump, 1.0)
    paths.insert(draw(st.integers(0, len(paths))), degenerate)
    return model, mu, paths, degenerate


def assert_same_trajectory(a, b):
    assert a.horizon == b.horizon
    assert len(a.segments) == len(b.segments) and len(a.jumps) == len(b.jumps)
    points = [(ta, fa, tb, fb) for (ta, fa), (tb, fb) in zip(a.segments, b.segments)]
    points += [(ja.time, ja.pre, jb.time, jb.pre) for ja, jb in zip(a.jumps, b.jumps)]
    points += [(ja.time, ja.post, jb.time, jb.post) for ja, jb in zip(a.jumps, b.jumps)]
    for ta, fa, tb, fb in points:
        assert ta == tb and type(ta) is type(tb)
        assert fa.label == fb.label and fa.degenerate == fb.degenerate
        assert np.array_equal(fa.x, fb.x)


@settings(max_examples=150, deadline=None)
@given(filter_batches())
def test_run_filter_batch_is_run_filter_bit_for_bit(problem):
    model, mu, paths, degenerate = problem
    if degenerate is None:
        batch = model.run_filter_batch(paths, mu)
        assert len(batch) == len(paths)
        for y, traj in zip(paths, batch):
            assert_same_trajectory(traj, model.run_filter(y, mu))
        assert model.run_filter_batch([], mu) == []
        return
    with pytest.raises(DegenerateJump) as alone:
        model.run_filter(degenerate, mu)
    with pytest.raises(DegenerateJump) as batch:
        model.run_filter_batch(paths, mu)
    assert (batch.value.time, batch.value.value) == (alone.value.time, alone.value.value)


class TestDiscreteFilter:
    def test_injective_tracks_samples(self):
        gen = np.random.default_rng(12)
        rate = random_rate_matrix(gen, 3)
        obs = ObservationModel.from_assignment(("x", "y", "z"))
        model = FilterModel(rate, obs)
        mu = Distribution([1 / 3] * 3)
        path = sample_chain(rate, mu, 2.0, gen)
        y = observe(path, obs)
        delta = 0.125
        samples = [y.value_at(k * delta) for k in range(17)]
        out = model.discrete_filter(mu, delta, samples)
        for k, fp in enumerate(out):
            assert fp.label == samples[k]
            assert fp.weights[obs.labels.index(samples[k])] == 1.0

    def test_single_sample_is_initial_restriction(self, cyclic4, uniform4):
        out = cyclic4.discrete_filter(uniform4, 0.1, ["1"])
        assert len(out) == 1
        assert np.allclose(out[0].weights, [0.5, 0, 0.5, 0])

    def test_negative_delta_rejected(self, cyclic4, uniform4):
        with pytest.raises(ValueError, match="nonnegative"):
            cyclic4.discrete_filter(uniform4, -0.1, ["1", "0"])

    def test_dyadic_convergence_order_one_jump_free(self):
        # on a jump-free observation window the discrete filter converges to
        # the flow at order 1, so halving the step roughly halves the error
        model = three_state_model()
        mu = Distribution([0.5, 0.3, 0.2])
        horizon = 2.0
        y = PiecewisePath("a", (), horizon)
        exact = model.run_filter(y, mu).value_at(horizon).weights
        errs = []
        for k in range(5, 10):
            delta = horizon / 2**k
            samples = ["a"] * (2**k + 1)
            approx = model.discrete_filter(mu, delta, samples)[-1].weights
            errs.append(np.abs(approx - exact).max())
        ratios = [b / a for a, b in zip(errs, errs[1:])]
        for r in ratios:
            assert 0.3 <= r <= 0.7, (errs, ratios)


class TestPredict:
    def test_s_zero_identity(self, cyclic4, uniform4):
        fp = cyclic4.restrict_normalize(uniform4, "1")
        assert np.array_equal(cyclic4.predict(fp, 0.0).weights, fp.weights)

    def test_point_mass_gives_semigroup_row(self, cyclic4):
        fp = cyclic4.face_point("1", [1.0, 0, 0, 0])
        for s in (0.4, 1.3):
            expected = transition_semigroup(cyclic4.rate, s)[0]
            assert np.abs(cyclic4.predict(fp, s).weights - expected).max() < 1e-12

    def test_mean_prediction_matches_marginal(self, cyclic4):
        # averaging the filter prediction over observation paths recovers
        # the unconditional marginal law of X_{t+s}
        mu = Distribution([0.5, 0.1, 0.2, 0.2])
        t, s = 1.0, 0.7
        gen = np.random.default_rng(14)
        n = 4000
        acc = np.zeros(4)
        for _ in range(n):
            path = sample_chain(cyclic4.rate, mu, t, gen)
            traj = cyclic4.run_filter(observe(path, cyclic4.obs), mu)
            acc += cyclic4.predict(traj.value_at(t), s).weights
        expected = mu.weights @ transition_semigroup(cyclic4.rate, t + s)
        se = np.sqrt(expected * (1 - expected) / n)
        assert (np.abs(acc / n - expected) <= 4 * se + 1e-9).all()


class TestToRows:
    def test_grid_and_jump_rows(self, cyclic4, uniform4):
        y = PiecewisePath("1", ((1.0, "0"),), 2.0)
        traj = cyclic4.run_filter(y, uniform4)
        rows = traj.to_rows([0.0, 0.5, 1.0, 1.5, 2.0])
        times = [r[0] for r in rows]
        # the grid point at the jump time is replaced by a pre/post pair
        assert times == [0.0, 0.5, 1.0, 1.0, 1.5, 2.0]
        assert rows[2][2] == "1" and rows[3][2] == "0"
