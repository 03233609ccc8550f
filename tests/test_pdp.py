import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pdpfilter import (
    BeliefPdp,
    Distribution,
    FilterModel,
    LabelEqualsSource,
    RandomSource,
    ObservationModel,
    exit_survival_nonlinear,
    exit_survival_nonlinear_curve,
    exit_survival_oracle,
    observe,
    sample_chain,
    validate_generator,
)
from pdpfilter.filtering import _pick, _restrict
from pdpfilter.pdp import DEG_TOL, pdp_check_statistics
from conftest import (
    CYCLIC4_GENERATOR,
    pdp5_model,
    random_face_point,
    random_observation,
    random_rate_matrix,
    three_state_model,
)


def absorbing_face_model():
    """State 0 is absorbing and alone on its face: jump rate 0 there."""
    rate = validate_generator([[0, 0, 0], [1, -2, 1], [0, 1, -1]])
    obs = ObservationModel.from_assignment(("a", "b", "b"))
    return FilterModel(rate, obs)


@pytest.fixture(scope="module")
def pdp4(cyclic4):
    return BeliefPdp(cyclic4)


def delta1(cyclic4):
    return cyclic4.face_point("1", [1.0, 0, 0, 0])


class TestJumpRate:
    def test_point_mass_rate(self, cyclic4, pdp4):
        assert pdp4.jump_rate(delta1(cyclic4)) == 1.0

    def test_nonnegative_on_random_models(self):
        gen = np.random.default_rng(20)
        for _ in range(10):
            n = int(gen.integers(2, 6))
            model = FilterModel(random_rate_matrix(gen, n), random_observation(gen, n, 2))
            pdp = BeliefPdp(model)
            for _ in range(10):
                assert pdp.jump_rate(random_face_point(gen, model)) >= 0.0

    def test_rate_equals_total_flux(self):
        # row sums of the generator vanish, so the rate of leaving the face
        # equals the total flux into the other faces
        gen = np.random.default_rng(21)
        model = FilterModel(random_rate_matrix(gen, 5), random_observation(gen, 5, 3))
        pdp = BeliefPdp(model)
        for _ in range(20):
            nu = random_face_point(gen, model)
            vec = nu.weights @ model.rate.entries
            flux = sum(vec[model.faces[b]].sum() for b in model.obs.labels if b != nu.label)
            assert abs(pdp.jump_rate(nu) - flux) < 1e-12

    def test_zero_rate_at_absorbing_state(self):
        model = absorbing_face_model()
        pdp = BeliefPdp(model)
        nu = model.face_point("a", [1.0, 0, 0])
        assert pdp.jump_rate(nu) == 0.0


class TestJumpMeasure:
    def test_point_mass_single_atom(self, cyclic4, pdp4):
        law = pdp4.jump_measure(delta1(cyclic4))
        assert len(law.atoms) == 1
        target, mass = law.atoms[0]
        assert mass == 1.0
        assert target.label == "0"
        assert np.allclose(target.weights, [0, 1, 0, 0])

    def test_masses_sum_to_one_random(self):
        gen = np.random.default_rng(22)
        for _ in range(10):
            n = int(gen.integers(3, 6))
            model = FilterModel(random_rate_matrix(gen, n), random_observation(gen, n, 3))
            pdp = BeliefPdp(model)
            for _ in range(10):
                law = pdp.jump_measure(random_face_point(gen, model))
                assert abs(sum(m for _, m in law.atoms) - 1.0) < 1e-10
                assert all(t.label != law.source.label for t, _ in law.atoms)

    def test_atom_mass_times_rate_is_flux(self):
        gen = np.random.default_rng(23)
        model = FilterModel(random_rate_matrix(gen, 5), random_observation(gen, 5, 3))
        pdp = BeliefPdp(model)
        for _ in range(20):
            nu = random_face_point(gen, model)
            lam = pdp.jump_rate(nu)
            vec = nu.weights @ model.rate.entries
            for target, mass in pdp.jump_measure(nu).atoms:
                assert abs(mass * lam - vec[model.faces[target.label]].sum()) < 1e-12

    def test_two_labels_single_atom(self, pdp4, cyclic4):
        gen = np.random.default_rng(24)
        for _ in range(10):
            law = pdp4.jump_measure(random_face_point(gen, cyclic4))
            assert len(law.atoms) == 1

    def test_degenerate_fallback_flagged(self):
        model = absorbing_face_model()
        pdp = BeliefPdp(model)
        law = pdp.jump_measure(model.face_point("a", [1.0, 0, 0]))
        assert law.degenerate
        assert abs(sum(m for _, m in law.atoms) - 1.0) < 1e-12


class TestSojournSurvival:
    def test_t_zero_is_one(self, pdp4, cyclic4):
        gen = np.random.default_rng(25)
        for _ in range(5):
            assert pdp4.sojourn_survival(random_face_point(gen, cyclic4), 0.0) == 1.0

    def test_point_mass_exponential(self, pdp4, cyclic4):
        nu = delta1(cyclic4)
        for t in (0.2, 1.0, 3.0):
            assert abs(pdp4.sojourn_survival(nu, t) - np.exp(-t)) < 1e-12

    def test_matches_integrated_rate(self):
        # survival(t) must equal exp(-integral of the rate along the flow)
        model = three_state_model()
        pdp = BeliefPdp(model)
        nu = model.face_point("a", [0.3, 0.7, 0.0])
        for t in (0.5, 1.5):
            integral, err = quad(lambda s: pdp.jump_rate(model.flow(s, nu)), 0.0, t,
                                 epsabs=1e-12, epsrel=1e-12)
            assert err < 1e-9
            assert abs(pdp.sojourn_survival(nu, t) - np.exp(-integral)) < 1e-9

    def test_monotone_nonincreasing(self):
        model = three_state_model()
        pdp = BeliefPdp(model)
        nu = model.face_point("a", [0.5, 0.5, 0.0])
        vals = [pdp.sojourn_survival(nu, t) for t in np.linspace(0, 4, 30)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestSampleSojourn:
    def test_exponential_mean(self, pdp4, cyclic4):
        nu = delta1(cyclic4)
        gen = np.random.default_rng(26)
        n = 20000
        draws = np.array([pdp4.sample_sojourn(nu, 50.0, gen) for _ in range(n)])
        se = draws.std(ddof=1) / np.sqrt(n)
        assert abs(draws.mean() - 1.0) <= 3 * se

    def test_zero_rate_always_censored(self):
        model = absorbing_face_model()
        pdp = BeliefPdp(model)
        nu = model.face_point("a", [1.0, 0, 0])
        gen = np.random.default_rng(27)
        for _ in range(10):
            assert pdp.sample_sojourn(nu, 100.0, gen) is None

    def test_zero_uniform_censored_where_survival_underflows(self):
        # exit rates 40-50: S underflows to 0 before t = 30, but S > 0 in exact
        # arithmetic, so a uniform of exactly 0 is censored as at t = 10
        model = FilterModel(validate_generator([[-41, 1, 40], [1, -51, 50], [1, 1, -2]]),
                            ObservationModel.from_assignment(("a", "a", "b")))
        pdp = BeliefPdp(model)
        nu = model.face_point("a", [0.5, 0.5, 0.0])
        assert pdp.sojourn_survival(nu, 30.0) == 0.0
        for horizon in (10.0, 30.0):
            assert pdp.sojourn_from_uniform(nu, 0.0, horizon) is None
        us = np.array([0.3, 1e-300, 0.7])
        times = pdp.sojourn_times(nu, np.concatenate([[0.0], us]), 30.0)
        assert times[0] == np.inf
        assert np.array_equal(times[1:], pdp.sojourn_times(nu, us, 30.0))
        assert np.isfinite(times[1:]).all()

        class Zeros:  # a generator whose every uniform is 0.0
            def random(self):
                return 0.0

        traj = pdp.simulate_pdp(nu, 30.0, Zeros())
        assert traj.jumps == []

    def test_inverse_transform_monotone(self):
        model = three_state_model()
        pdp = BeliefPdp(model)
        nu = model.face_point("a", [0.4, 0.6, 0.0])
        us = np.linspace(0.05, 0.95, 10)
        ts = [pdp.sojourn_from_uniform(nu, u, 50.0) for u in us]
        assert all(t is not None for t in ts)
        # survival is decreasing, so larger uniforms give earlier jumps
        assert all(b <= a for a, b in zip(ts, ts[1:]))

    def test_inverse_transform_hits_survival(self):
        model = three_state_model()
        pdp = BeliefPdp(model)
        nu = model.face_point("a", [0.4, 0.6, 0.0])
        for u in (0.2, 0.5, 0.8):
            t = pdp.sojourn_from_uniform(nu, u, 50.0)
            assert abs(pdp.sojourn_survival(nu, t) - u) < 1e-8


class TestSimulatePdp:
    def test_zero_generator_constant(self):
        rate = validate_generator(np.zeros((2, 2)))
        obs = ObservationModel.from_assignment(("a", "b"))
        model = FilterModel(rate, obs)
        pdp = BeliefPdp(model)
        traj = pdp.simulate_pdp(model.face_point("a", [1.0, 0.0]), 10.0,
                                np.random.default_rng(28))
        assert traj.jumps == []
        assert np.array_equal(traj.value_at(7.0).weights, [1.0, 0.0])

    def test_cyclic4_alternates_labels(self, pdp4, cyclic4):
        traj = pdp4.simulate_pdp(delta1(cyclic4), 20.0, np.random.default_rng(29))
        labels = [fp.label for _, fp in traj.segments]
        assert len(labels) > 2
        assert all(a != b for a, b in zip(labels, labels[1:]))

    def test_jump_count_poisson_mean(self, pdp4, cyclic4):
        # from a point mass the paper model jumps at constant rate 1
        gen = np.random.default_rng(30)
        horizon = 5.0
        n = 3000
        counts = np.array([len(pdp4.simulate_pdp(delta1(cyclic4), horizon, gen).jumps)
                           for _ in range(n)])
        se = counts.std(ddof=1) / np.sqrt(n)
        assert abs(counts.mean() - horizon) <= 4 * se


class TestJumpTimeDensity:
    def test_point_mass_exponential_density(self, pdp4, cyclic4):
        nu = delta1(cyclic4)
        for t in (0.1, 1.0, 2.5):
            assert abs(pdp4.jump_time_density(nu, t, "0") - np.exp(-t)) < 1e-12

    def test_total_mass_one(self):
        model = three_state_model()
        pdp = BeliefPdp(model)
        nu = model.face_point("a", [0.3, 0.7, 0.0])
        T = 10.0
        integral, _ = quad(lambda t: pdp.jump_time_density(nu, t, "b"), 0.0, T,
                           epsabs=1e-10, epsrel=1e-10)
        assert abs(integral + pdp.sojourn_survival(nu, T) - 1.0) < 1e-6

    def test_unreachable_label_zero(self):
        # no transition from the "a" face into state 3's label
        rate = validate_generator([[-1, 1, 0, 0], [1, -1, 0, 0], [0, 1, -2, 1], [0, 0, 1, -1]])
        obs = ObservationModel.from_assignment(("a", "b", "a", "c"))
        model = FilterModel(rate, obs)
        pdp = BeliefPdp(model)
        nu = model.face_point("a", [1.0, 0, 0, 0])
        for t in (0.5, 2.0):
            assert pdp.jump_time_density(nu, t, "c") == 0.0

    def test_label_equals_source_raises(self, pdp4, cyclic4):
        with pytest.raises(LabelEqualsSource):
            pdp4.jump_time_density(delta1(cyclic4), 1.0, "1")


class TestRequiresTwoLabels:
    def test_constant_observation_rejected(self):
        rate = validate_generator(CYCLIC4_GENERATOR)
        obs = ObservationModel.from_assignment(("a", "a", "a", "a"))
        with pytest.raises(ValueError):
            BeliefPdp(FilterModel(rate, obs))


class TestExitSurvivalNonlinear:
    def test_paper_face_exponential(self, cyclic4):
        for t in (0.5, 1.0, 3.0):
            got = exit_survival_nonlinear(cyclic4.rate, [0, 2], 0, t)
            assert abs(got - np.exp(-t)) < 1e-8

    def test_t_zero(self, cyclic4):
        assert exit_survival_nonlinear(cyclic4.rate, [0, 2], 0, 0.0) == 1.0

    def test_matches_oracle_random_models(self):
        gen = np.random.default_rng(31)
        ts = np.linspace(0.0, 5.0, 41)
        for _ in range(3):
            rate = random_rate_matrix(gen, 5)
            subset = [0, 1, 3]
            curve = exit_survival_nonlinear_curve(rate, subset, 1, ts)
            oracle = np.array([exit_survival_oracle(rate, subset, 1, t) for t in ts])
            assert np.abs(curve - oracle).max() < 1e-6

    def test_matches_sojourn_survival(self):
        # the PDP sojourn survival from a point mass is the exit-time survival
        model = three_state_model()
        pdp = BeliefPdp(model)
        nu = model.face_point("a", [1.0, 0.0, 0.0])
        for t in (0.5, 2.0):
            a = pdp.sojourn_survival(nu, t)
            b = exit_survival_nonlinear(model.rate, [0, 1], 0, t)
            assert abs(a - b) < 1e-8


def bisect_sojourn(pdp, nu, u, horizon, tol=1e-10, max_iter=80):
    """Reference inversion: plain bisection on S(t) > u, as the sampler used to do.
    u = 0 is censored: S > 0 in exact arithmetic, also where it underflows."""
    if u == 0.0 or pdp.sojourn_survival(nu, horizon) > u:
        return None
    lo, hi = 0.0, float(horizon)
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if pdp.sojourn_survival(nu, mid) > u:
            lo = mid
        else:
            hi = mid
    return hi


# (generator, labels, start weights) of faces with something to trip the
# Newton iteration: a defective Erlang-2 face (expm fallback) started where
# the jump rate is 0, the absorbing face (always censored), a diagonalizable
# face started at rate 0, and a face with exit rates 40-50 whose survival
# underflows to 0 long before the horizon.
SOJOURN_CASES = [
    ([[-2, 2, 0], [0, -2, 2], [1, 0, -1]], ("a", "a", "b"), [1.0, 0.0, 0.0]),
    ([[-2, 2, 0], [0, -2, 2], [1, 0, -1]], ("a", "a", "b"), [0.3, 0.7, 0.0]),
    ([[0, 0, 0], [1, -2, 1], [0, 1, -1]], ("a", "b", "b"), [1.0, 0.0, 0.0]),
    ([[-1, 1, 0], [0.5, -2, 1.5], [1, 1, -2]], ("a", "a", "b"), [1.0, 0.0, 0.0]),
    ([[-41, 1, 40], [1, -51, 50], [1, 1, -2]], ("a", "a", "b"), [0.5, 0.5, 0.0]),
]


@st.composite
def sojourn_problems(draw):
    """A face point, a horizon and uniforms from the range of Generator.random()."""
    if draw(st.booleans()):
        rows, labels, weights = draw(st.sampled_from(SOJOURN_CASES))
        model = FilterModel(validate_generator(rows), ObservationModel.from_assignment(labels))
        nu = model.face_point(labels[0], weights)
    else:
        n = draw(st.integers(2, 5))
        off = st.one_of(st.just(0.0), st.floats(0.05, 8.0))
        rows = np.array([[draw(off) for _ in range(n)] for _ in range(n)])
        np.fill_diagonal(rows, 0.0)
        np.fill_diagonal(rows, -rows.sum(axis=1))
        labels = ["a"] + [draw(st.sampled_from("ab")) for _ in range(n - 2)] + ["b"]
        model = FilterModel(validate_generator(rows), ObservationModel.from_assignment(labels))
        face = model.faces["a"]
        mix = np.array([draw(st.floats(0.0, 1.0)) for _ in face])
        if mix.sum() == 0:
            mix[0] = 1.0
        w = np.zeros(n)
        w[face] = mix / mix.sum()
        nu = model.face_point("a", w)
    horizon = draw(st.sampled_from([0.5, 4.0, 30.0]))
    ks = draw(st.lists(st.integers(0, 2**53 - 1), min_size=1, max_size=6))
    us = np.array([0.0] + [k / 2.0**53 for k in ks])
    return BeliefPdp(model), nu, horizon, us


def survival_slope(pdp, nu, t):
    """|S'(t)| = (nu_A e^{t Lambda_A}) . r_A in closed form."""
    model = pdp.model
    sub = model._sub[nu.label]
    w = sub.rows(nu.weights[model.faces[nu.label]], t)
    return abs(float(w @ sub.matrix.sum(axis=1)))


@settings(max_examples=300, deadline=None)
@given(sojourn_problems())
def test_newton_inversion_matches_bisection(problem):
    pdp, nu, horizon, us = problem
    times = pdp.sojourn_times(nu, us, horizon)
    assert not np.isnan(times).any()
    for u, t in zip(us, times):
        ref = bisect_sojourn(pdp, nu, u, horizon)
        single = pdp.sojourn_from_uniform(nu, u, horizon)
        assert (ref is None) == (t == np.inf) == (single is None), (u, ref, t)
        if ref is None:
            continue
        # Where S' is near 0 (a start at rate 0 and u close to 1), the
        # computed S stays within its rounding error 8 eps u of u over a
        # span of 8 eps u / |S'|, and either inversion may end anywhere in it.
        slope = survival_slope(pdp, nu, ref)
        flat = 8 * np.finfo(float).eps * u / max(slope, 1e-300) if u > 0 else 0.0
        assert abs(t - ref) <= 2e-10 + flat, (u, t, ref, flat)
        assert abs(single - ref) <= 2e-10 + flat, (u, single, ref, flat)


def test_sojourn_batch_converges_in_few_steps(monkeypatch):
    # bisection from [0, 4] to 1e-10 would take 36 steps
    model = pdp5_model()
    pdp = BeliefPdp(model)
    nu0 = model.face_point("a", [0.5, 0.5, 0, 0, 0])
    sub = model._sub["a"]
    calls = []
    rows = sub.rows

    def counting_rows(x, ts):
        if np.ndim(ts) == 1:  # a batched evaluation, not the scalar censoring check
            calls.append(len(ts))
        return rows(x, ts)

    monkeypatch.setattr(sub, "rows", counting_rows)
    us = np.random.default_rng(32).random(2000)
    times = pdp.sojourn_times(nu0, us, 4.0)
    assert len(calls) <= 8, calls
    assert sum(calls) <= 5 * np.isfinite(times).sum()


def test_first_jumps_match_simulate_pdp():
    model = pdp5_model()
    pdp = BeliefPdp(model)
    nu0 = model.face_point("a", [0.5, 0.5, 0, 0, 0])
    n, horizon = 200, 1.0
    base = RandomSource(11)
    times, labels = pdp.first_jumps(nu0, horizon, [base.stream(n + r) for r in range(n)])
    # the Generators of one batch call give the same first jumps, bit for bit
    batch_times, batch_labels = pdp.first_jumps(nu0, horizon, base.generators(range(n, 2 * n)))
    assert np.array_equal(batch_times, times) and list(batch_labels) == list(labels)
    censored = 0
    for r in range(n):
        jumps = pdp.simulate_pdp(nu0, horizon, base.stream(n + r)).jumps
        if not jumps:
            censored += 1
            assert times[r] == np.inf and labels[r] is None
            continue
        assert labels[r] == jumps[0].post.label
        assert abs(times[r] - jumps[0].time) <= 2e-10
    assert 0 < censored < n
    assert {"b", "c"} <= set(labels[times < np.inf])


def dense_fluxes(model, wa):
    """Flux of face-"0" rows wa into every label, the dense way: scatter wa
    into an n-vector, multiply by Lambda, sum each face.  Also returns each
    sum's scale sum |w_i Lambda_ij|: the flux into the own face cancels, so
    it is exact to a relative 1e-12 of that scale, not of its value."""
    vec = np.zeros(model.n)
    vec[model.faces["0"]] = wa
    row, terms = vec @ model.rate.entries, np.abs(vec) @ np.abs(model.rate.entries)
    return ({b: row[f].sum() for b, f in model.faces.items()},
            {b: terms[f].sum() for b, f in model.faces.items()})


@st.composite
def flux_problems(draw):
    """Faces of 1-4 states and 2-4 labels, a start on face "0" and a time.

    Face "0" may have no transition into the last label (zero flux), and its
    state 0 may have no exit from the face (rate 0 at a point mass there).
    """
    sizes = [draw(st.integers(1, 4)) for _ in range(draw(st.integers(2, 4)))]
    labels = [str(k) for k, size in enumerate(sizes) for _ in range(size)]
    n, d = len(labels), sizes[0]
    rate = st.one_of(st.just(0.0), st.floats(0.05, 8.0))
    rows = np.array([[draw(rate) for _ in range(n)] for _ in range(n)])
    if draw(st.booleans()):
        rows[:d, n - sizes[-1]:] = 0.0
    if draw(st.booleans()):
        rows[0, d:] = 0.0
    np.fill_diagonal(rows, 0.0)
    np.fill_diagonal(rows, -rows.sum(axis=1))
    model = FilterModel(validate_generator(rows), ObservationModel.from_assignment(labels))
    w = np.zeros(n)
    w[:d] = [draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))) for _ in range(d)]
    w[0] += w.sum() == 0
    return model, model.face_point("0", w / w.sum()), draw(st.sampled_from([0.0, 0.4, 3.0]))


@settings(max_examples=150, deadline=None)
@given(flux_problems())
def test_fluxes_match_dense_formula(problem):
    model, nu, t = problem
    pdp, x, others = BeliefPdp(model), nu.weights[model.faces["0"]], model.obs.labels[1:]
    flux, scale = dense_fluxes(model, x)
    lam = -flux["0"]
    assert abs(pdp.jump_rate(nu) - max(lam, 0.0)) <= 1e-12 * scale["0"]
    law = pdp.jump_measure(nu)
    assert law.degenerate == (lam < DEG_TOL) or abs(lam - DEG_TOL) <= 1e-12 * scale["0"]
    if not law.degenerate:
        assert [target.label for target, _ in law.atoms] == [b for b in others if flux[b] > 0]
        for target, mass in law.atoms:
            b = target.label
            assert abs(mass * lam - flux[b]) <= 1e-12 * (scale[b] + mass * scale["0"])
            ref = model.restrict_normalize(nu.weights @ model.rate.entries, b).weights
            np.testing.assert_allclose(target.weights, ref, rtol=1e-12, atol=0)
    flux, scale = dense_fluxes(model, model._sub["0"].rows(x, t))
    for b in others:
        assert abs(pdp.jump_time_density(nu, t, b) - max(flux[b], 0.0)) <= 1e-12 * scale[b]

    # q-values at the chain's first jump times, as means over quantile bins
    mu, n_sims, horizon, base = Distribution(nu.weights), 30, 2.0, RandomSource(5)
    stats = {s["statistic"]: s for s in pdp_check_statistics(model, mu, n_sims, horizon, 5)}
    paths = [observe(sample_chain(model.rate, mu, horizon, base.stream(r)), model.obs)
             for r in range(n_sims)]
    times = np.array([y.jumps[0][0] for y in paths if y.jumps])
    dens = np.array([[max(dense_fluxes(model, model._sub["0"].rows(x, s))[0][b], 0.0)
                      for b in others] for s in times]).reshape(-1, len(others))
    q = dens / dens.sum(axis=1, keepdims=True)
    edges = np.quantile(times, [0.25, 0.5, 0.75]) if times.size else []
    which = np.digitize(times, edges)
    for (j, b), k in itertools.product(enumerate(others), range(4)):
        if (which == k).any():
            got = stats[f"first_jump_target_{b}_bin{k}_chain_vs_q"]["analytic"]
            assert abs(got - q[which == k, j].mean()) <= 1e-12


def test_check_statistics_reject_no_simulations(cyclic4):
    with pytest.raises(ValueError, match="n_sims"):
        pdp_check_statistics(cyclic4, Distribution([0.25] * 4), 0, 2.0, 5)


@settings(max_examples=100, deadline=None)
@given(flux_problems(), st.integers(0, 2**32 - 1))
def test_face_local_invariants(problem, seed):
    """Filter points stay probability vectors on their faces, `weights` is x
    scattered onto the face, the flow is a semigroup, and every jump law is a
    law on the other faces.  The jump law is one law: jump_measure's masses
    are _jump_law's, _jump_law, _pick and _restrict give a row in a batch the
    bits they give it alone, and run_filter jumps to jump_measure's atoms.  The start
    delta_0 has rate 0 where state 0 has no exit (degenerate law), and the
    last label may get no flux from face "0" (zero-mass atoms)."""
    model, nu, t = problem
    pdp, horizon = BeliefPdp(model), 4.0
    mu = Distribution(np.full(model.n, 1.0 / model.n))
    traj = model.run_filter(
        observe(sample_chain(model.rate, mu, horizon, RandomSource(seed)), model.obs), mu)
    points = [fp for _, fp in traj.segments] + [nu, model.face_point("0", np.eye(model.n)[0])]
    points += [traj.value_at(s) for s in np.linspace(0.0, horizon, 9)]
    for j in traj.jumps:
        atoms = {target.label: target for target, _ in pdp.jump_measure(j.pre).atoms}
        assert np.array_equal(atoms[j.post.label].x, j.post.x)
    for a in model.obs.labels:
        mine = [fp for fp in points if fp.label == a]
        if not mine:
            continue
        vec, _, q = model._jump_law(a, np.array([fp.x for fp in mine]))
        for i, fp in enumerate(mine):
            law = pdp.jump_measure(fp)
            _, alone_lam, alone = model._jump_law(a, fp.x)
            assert [m for _, m in law.atoms] == alone[alone > 0].tolist()
            assert law.degenerate == (alone_lam < DEG_TOL)
            assert np.array_equal(q[i], alone)
        # uniforms 0, just below the last cumulative mass, at it and above it
        last = np.cumsum(q, axis=1)[:, -1]
        us = np.stack([np.zeros_like(last), np.nextafter(last, 0.0), last,
                       np.nextafter(last, 2.0)], axis=1)
        picks = _pick(np.repeat(q, 4, axis=0), us.ravel()).reshape(us.shape)
        for i, row in enumerate(q):
            atoms = np.flatnonzero(row > 0)
            for u, k in zip(us[i], picks[i]):
                assert k == _pick(row, u)
                assert k == atoms[min(np.searchsorted(np.cumsum(row[atoms]), u, "right"),
                                      len(atoms) - 1)]
        for b in model._others[a]:
            face = model.faces[b]
            V = np.vstack([vec[:, face], np.zeros(len(face)), np.full(len(face), -1e-13),
                           np.full(len(face), 1e-13 / len(face))])
            rows, mass = _restrict(V)
            for i, row in enumerate(V):
                alone_rows, alone_mass = _restrict(row)
                assert np.array_equal(rows[i], alone_rows) and mass[i] == alone_mass
            assert (rows[-3:] == 1.0 / len(face)).all()
    for fp in points:
        atoms = pdp.jump_measure(fp).atoms
        assert abs(sum(mass for _, mass in atoms) - 1.0) <= 1e-12
        assert all(target.label != fp.label for target, _ in atoms)
        for p in [fp] + [target for target, _ in atoms]:
            face = model.faces[p.label]
            assert p.x.shape == face.shape and (p.x >= 0).all()
            assert abs(p.x.sum() - 1.0) <= 1e-12
            w = p.weights
            assert np.array_equal(w[face], p.x) and not np.delete(w, face).any()
            assert not w.flags.writeable and not p.x.flags.writeable
    # eigenbases are accepted up to condition number 1e6, so a propagation
    # may be off by about 1e6 eps
    one, two = model.flow(0.7 + t, nu), model.flow(t, model.flow(0.7, nu))
    np.testing.assert_allclose(one.x, two.x, rtol=0, atol=1e-9)
