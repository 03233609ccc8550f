"""The filter as a piecewise-deterministic Markov process.

Characteristics on a face with label a and level set A:

    flow        phi(t, nu)  = normalized nu_A e^{t Lambda_A}
    jump rate   lambda(nu)  = -nu Lambda 1_A
    jump law    Q(nu, .)    = atoms H_b[nu Lambda] with mass
                              q(nu, b) = nu Lambda 1_{h^{-1}(b)} / lambda(nu)

The jump law is the filter's own (filtering.py): one restriction H_b, one
kernel q (FilterModel._jump_law) and one atom pick (_pick), for one row or a
batch, so simulate_pdp, first_jumps and pdp_check_statistics read its bits.

Sojourn survival has the closed form S(t) = (nu_A e^{t Lambda_A}) . 1, and
S'(t) = -(nu_A e^{t Lambda_A}) . r_A with r_A = -Lambda_A 1 the exit rates of
the face, so one propagation of nu_A gives both.  Sojourns are sampled by
inverse transform: a safeguarded Newton iteration on log S, run for a whole
batch of uniforms at once, finds the time where S crosses the uniform to
within SOJOURN_TOL.  Exit-time laws come in two independent routes: the
nonlinear normalized ODE here, and the classical sub-generator oracle in
chain.py.
"""

from __future__ import annotations

import math

import numpy as np

from .chain import (
    Distribution,
    RandomSource,
    RateMatrix,
    StateNotInSubset,
    observe,
    sample_chain,
    sub_generator,
)
from .filtering import (
    DEG_TOL,
    FacePoint,
    FilterModel,
    FilterTrajectory,
    _normalize_rows,
    _pick,
)

SOJOURN_TOL = 1e-10
SOJOURN_MAX_ITER = 100
EXIT_ODE_RTOL = 1e-10  # tolerances of exit_survival_nonlinear_curve's DOP853 solve
EXIT_ODE_ATOL = 1e-12


class LabelEqualsSource(ValueError):
    pass


class JumpLaw:
    """Finitely supported post-jump law: (target FacePoint, mass) atoms."""

    __slots__ = ("atoms", "source", "degenerate")

    def __init__(self, atoms, source: FacePoint, degenerate: bool = False):
        self.atoms = list(atoms)
        self.source = source
        self.degenerate = degenerate
        total = sum(m for _, m in self.atoms)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"atom masses sum to {total}, expected 1")
        for target, mass in self.atoms:
            if mass < 0:
                raise ValueError("negative atom mass")
            if target.label == source.label:
                raise ValueError("jump target label equals source label")


class BeliefPdp:
    """PDP view of the filter; requires at least two observation labels."""

    def __init__(self, model: FilterModel):
        if len(model.obs.labels) < 2:
            raise ValueError("PDP representation requires at least two labels")
        self.model = model

    def jump_rate(self, nu: FacePoint) -> float:
        """lambda(nu) = -nu Lambda 1_{h^{-1}(a)} (nonnegative on the face)."""
        return max(0.0, float(self.model._flux(nu.label, nu.x)[1]))

    def jump_measure(self, nu: FacePoint) -> JumpLaw:
        """Atoms H_b[nu Lambda] with the positive masses q(nu, b), b != a, of
        the one kernel FilterModel._jump_law.

        When lambda(nu) < DEG_TOL that kernel is the uniform law over the
        other labels, and the law is flagged degenerate (a jump at rate 0 is
        never sampled).
        """
        model = self.model
        vec, lam, q = model._jump_law(nu.label, nu.x)
        atoms = [(model.restrict_normalize(vec, b), float(m))
                 for b, m in zip(model._others[nu.label], q) if m > 0]
        return JumpLaw(atoms, nu, degenerate=bool(lam < DEG_TOL))

    def sojourn_survival(self, nu: FacePoint, t: float) -> float:
        """Closed form (nu_A e^{t Lambda_A}) . 1 = exp(-integrated jump rate)."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        if t == 0:
            return 1.0
        wa = self.model._sub[nu.label].rows(nu.x, t)
        return float(min(max(wa.sum(), 0.0), 1.0))

    def sojourn_from_uniform(self, nu: FacePoint, u: float, horizon: float):
        """Inverse transform at a given uniform draw; None means censored.

        The draw is censored when S(horizon) > u or u = 0 (S > 0 in exact
        arithmetic, also where it underflows).  Otherwise the result is
        the right end of a bracket [lo, hi] no wider than SOJOURN_TOL with
        S(lo) > u >= S(hi), found by the Newton iteration of sojourn_times.
        Plateaus of S (lambda = 0 stretches) resolve to their left endpoint.
        """
        t = self.sojourn_times(nu, np.array([u], dtype=float), horizon)[0]
        return None if t == math.inf else float(t)

    def sojourn_times(self, nu: FacePoint, us: np.ndarray, horizon: float) -> np.ndarray:
        """sojourn_from_uniform for an array of uniforms; inf where censored.

        Every draw keeps a bracket [lo, hi] with S(lo) > u >= S(hi), starting
        from [0, horizon].  Each step evaluates S and S' for all unfinished
        draws in one call of the propagator, at the Newton point of
        log S(t) = log u from the last evaluated time, moved SOJOURN_TOL / 4
        further so that the bracket closes from both sides.  A draw bisects
        instead where the rate is 0, the Newton point is not finite or leaves
        the bracket, or the step is more than half the step before last.  A
        draw is done once its bracket is no wider than SOJOURN_TOL, and its
        time is the right end of the bracket.
        """
        us = np.asarray(us, dtype=float)
        times = np.full(us.shape, math.inf)
        # S > 0 on [0, horizon] in exact arithmetic, so u = 0 is always censored,
        # also where S(horizon) underflows to 0
        idx = np.flatnonzero((us >= self.sojourn_survival(nu, horizon)) & (us > 0.0))
        sub = self.model._sub[nu.label]
        x = nu.x
        exit_rates = -sub.matrix.sum(axis=1)
        n = idx.size
        u = us[idx]
        lo, hi = np.zeros(n), np.full(n, float(horizon))
        t, log_s = np.zeros(n), np.zeros(n)  # last evaluated time and log S there
        rate = np.full(n, (x @ exit_rates) / x.sum())  # -(log S)' at t
        side = np.ones(n)  # +1 where S(t) > u, else -1
        step = step_old = np.full(n, float(horizon))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_u = np.log(u)
            for _ in range(SOJOURN_MAX_ITER):
                live = hi - lo > SOJOURN_TOL
                if not live.all():
                    times[idx[~live]] = hi[~live]
                    idx, u, log_u, lo, hi, t, log_s, rate, side, step, step_old = [
                        a[live] for a in (idx, u, log_u, lo, hi, t, log_s, rate, side, step,
                                          step_old)]
                    if not idx.size:
                        break
                newton = t + (log_s - log_u) / rate + side * (0.25 * SOJOURN_TOL)
                ok = ((rate > 0) & (lo < newton) & (newton < hi)
                      & (np.abs(newton - t) <= 0.5 * np.abs(step_old)))
                nxt = np.where(ok, newton, 0.5 * (lo + hi))
                w = sub.rows(x, nxt)
                mass = w.sum(axis=1)
                s = np.clip(mass, 0.0, 1.0)
                above = s > u
                lo = np.where(above, nxt, lo)
                hi = np.where(above, hi, nxt)
                side = np.where(above, 1.0, -1.0)
                rate = (w @ exit_rates) / mass
                log_s = np.log(s)
                step_old, step = step, nxt - t
                t = nxt
        times[idx] = hi
        return times

    def sample_sojourn(self, nu: FacePoint, horizon: float, rng):
        """Sample the sojourn time on [0, horizon]; None when censored."""
        gen = rng.generator() if isinstance(rng, RandomSource) else rng
        return self.sojourn_from_uniform(nu, gen.random(), horizon)

    def simulate_pdp(self, nu0: FacePoint, horizon: float, rng) -> FilterTrajectory:
        """Alternate sojourn sampling with draws from the jump law at the pre-jump point."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        gen = rng.generator() if isinstance(rng, RandomSource) else rng
        model = self.model
        times, points, pre = [0.0], [nu0], []
        while True:
            s = self.sojourn_from_uniform(points[-1], gen.random(), horizon - times[-1])
            if s is None:
                break
            pre.append(model.flow(s, points[-1]))
            vec, _, q = model._jump_law(pre[-1].label, pre[-1].x)
            b = model._others[pre[-1].label][_pick(q, gen.random())]
            times.append(times[-1] + s)
            points.append(model.restrict_normalize(vec, b))
        return FilterTrajectory.of_points(model, times, points, pre, horizon)

    def first_jumps(self, nu: FacePoint, horizon: float, rngs):
        """First jump of simulate_pdp(nu, horizon, rng) for each rng, and nothing after it.

        Each rng is a RandomSource or a numpy Generator, as for simulate_pdp,
        so the Generators of one RandomSource.generators call serve too.  It
        gives the first two draws of its generator, the ones simulate_pdp
        spends on its first jump: the sojourn uniform, then the target
        uniform.  The sojourns are inverted in one batch, and the
        targets are picked with simulate_pdp's _jump_law and _pick at
        model.flow's pre-jump points, as rows of a batch (_jump_law sums
        X Lambda[A, :] term by term, so a row has the bits it has alone).
        Returns the jump times (inf where censored) and an object array of
        target labels.
        """
        model = self.model
        gens = [rng.generator() if isinstance(rng, RandomSource) else rng for rng in rngs]
        us = np.array([gen.random(2) for gen in gens]).reshape(-1, 2)
        times = self.sojourn_times(nu, us[:, 0], horizon)
        labels = np.full(len(us), None, dtype=object)
        jumped = np.flatnonzero(times < math.inf)
        pre = _normalize_rows(model._sub[nu.label].rows(nu.x, times[jumped]), times[jumped])
        q = model._jump_law(nu.label, pre)[2]
        labels[jumped] = np.array(model._others[nu.label], dtype=object)[_pick(q, us[jumped, 1])]
        return times, labels

    def jump_time_density(self, nu: FacePoint, t: float, b) -> float:
        """Joint density of (next jump at t, target label b).

        Equals survival(t) * phi(t, nu) Lambda 1_{h^{-1}(b)}: the marginal
        jump-time density times q(phi(t, nu), b), written without the ratio
        so zero-rate points need no special casing.
        """
        if b == nu.label:
            raise LabelEqualsSource("target label equals source label")
        if t < 0:
            raise ValueError("t must be nonnegative")
        wa = self.model._sub[nu.label].rows(nu.x, t)
        flux = self.model._flux(nu.label, wa)[2]
        return max(float(flux[self.model._others[nu.label].index(b)]), 0.0)


def exit_survival_nonlinear_curve(rate: RateMatrix, subset, i: int, ts) -> np.ndarray:
    """P_i(tau_A > t) on a grid, via the normalized scalar ODE.

    Integrates y' = y Lambda_A - (y Lambda_A 1) y from delta_i together with
    the accumulated rate z' = y Lambda_A 1, and returns exp(z(t)).
    scipy.integrate is imported here, on the first call.
    """
    from scipy.integrate import solve_ivp

    subset = list(subset)
    if i not in subset:
        raise StateNotInSubset(f"state {i} not in subset")
    sub = sub_generator(rate, subset)
    d = len(subset)
    p = subset.index(i)
    ts = np.asarray(ts, dtype=float)
    if (ts < 0).any():
        raise ValueError("times must be nonnegative")
    t_end = float(ts.max(initial=0.0))
    if t_end == 0.0:
        return np.ones_like(ts)

    def rhs(_, yz):
        y = yz[:d]
        r = y @ sub
        s = r.sum()
        return np.concatenate([r - s * y, [s]])

    y0 = np.zeros(d + 1)
    y0[p] = 1.0
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", rtol=EXIT_ODE_RTOL, atol=EXIT_ODE_ATOL,
                    dense_output=True)
    if not sol.success:
        raise RuntimeError(f"exit-time ODE integration failed: {sol.message}")
    z = sol.sol(ts)[d]
    return np.exp(z)


def exit_survival_nonlinear(rate: RateMatrix, subset, i: int, t: float) -> float:
    """Scalar version of exit_survival_nonlinear_curve."""
    return float(exit_survival_nonlinear_curve(rate, subset, i, [t])[0])


def _statistic(name: str, empirical: float, analytic: float, stderr: float, passed) -> dict:
    """One row of pdp_check_statistics."""
    return {"statistic": name, "empirical": empirical, "analytic": analytic,
            "stderr": stderr, "pass": bool(passed)}


def pdp_check_statistics(model: FilterModel, mu: Distribution, n_sims: int, horizon: float,
                         seed: int) -> list:
    """Law checks for the first PDP jump: chain-driven vs analytic vs direct PDP.

    The start point is nu0 = H_a[mu] for the first label with positive mass,
    and the chain starts from nu0 itself so that Y_0 is deterministic.
    Simulation r samples the chain on stream r of RandomSource(seed), and the
    PDP's first jump from the first two draws of stream n_sims + r: the draws
    simulate_pdp spends on its first jump, so the sample is the same.  The
    2 n_sims streams are seeded in one RandomSource.generators call, each
    with the draws of its own stream(r).generator().
    Raises ValueError for n_sims < 1.
    """
    if n_sims < 1:
        raise ValueError("n_sims must be >= 1")
    pdp = BeliefPdp(model)
    labels = model.obs.labels
    a0 = next(a for a in labels if mu.weights[model.faces[a]].sum() > 0)
    nu0 = model.restrict_normalize(mu, a0)
    nu0_dist = Distribution(nu0.weights)
    gens = RandomSource(seed).generators(range(2 * n_sims))

    chain_first = []
    for gen in gens[:n_sims]:
        obs_path = observe(sample_chain(model.rate, nu0_dist, horizon, gen), model.obs)
        chain_first.append(obs_path.jumps[0] if obs_path.jumps else (math.inf, None))
    chain_times = np.array([t for t, _ in chain_first])
    chain_labels = np.array([b for _, b in chain_first], dtype=object)
    pdp_times, pdp_labels = pdp.first_jumps(nu0, horizon, gens[n_sims:])

    t_grid = np.linspace(0.0, horizon, 101)
    analytic = np.array([pdp.sojourn_survival(nu0, t) for t in t_grid])

    def empirical_survival(times):
        times = np.minimum(times, horizon)
        return np.array([(times > t).mean() for t in t_grid])

    surv_chain = empirical_survival(chain_times)
    surv_pdp = empirical_survival(pdp_times)
    # DKW-style pass threshold; at n = 1e5 this is below the 0.01 of the spec
    dkw = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n_sims))
    dev_chain = float(np.abs(surv_chain - analytic).max())
    dev_cross = float(np.abs(surv_chain - surv_pdp).max())
    stats = [_statistic("first_jump_survival_chain_vs_analytic_sup_dev", dev_chain, 0.0,
                        dkw / 4.0, dev_chain < dkw),
             _statistic("first_jump_survival_pdp_vs_chain_sup_dev", dev_cross, 0.0,
                        dkw / 4.0, dev_cross < 2.0 * dkw)]
    # target-label frequencies binned by pre-jump position (equivalently by T_1)
    others = model._others[a0]
    jumped = chain_times < math.inf
    if jumped.any():
        times = chain_times[jumped]
        hits = chain_labels[jumped]
        pdp_hits = pdp_labels[pdp_times < math.inf]
        edges = np.quantile(times, [0.0, 0.25, 0.5, 0.75, 1.0])
        edges[-1] += 1e-9
        which = np.digitize(times, edges[1:-1])
        # q(phi(t, nu0), b) at every observed jump time, from the rows
        # nu0_A e^{t Lambda_A} (the ratio of the jump-time densities)
        q = model._jump_law(a0, model._sub[a0].rows(nu0.x, times))[2]
        qvals = dict(zip(others, q.T))
        for b in others:
            hit = (hits == b).astype(float)
            for k in range(4):
                sel = which == k
                n_bin = int(sel.sum())
                if n_bin == 0:
                    continue
                freq = float(hit[sel].mean())
                expected = float(qvals[b][sel].mean())
                se = math.sqrt(max(expected * (1 - expected), 1e-12) / n_bin)
                stats.append(_statistic(f"first_jump_target_{b}_bin{k}_chain_vs_q", freq,
                                        expected, se, abs(freq - expected) <= 4.0 * se + 1e-9))
        # cross-check of overall target frequencies, chain vs direct PDP
        for b in others:
            p1 = float(np.mean(hits == b))
            p2 = float(np.mean(pdp_hits == b)) if pdp_hits.size else 0.0
            se = math.sqrt(
                max(p1 * (1 - p1), 1e-12) / hits.size
                + max(p2 * (1 - p2), 1e-12) / max(pdp_hits.size, 1)
            )
            stats.append(_statistic(f"first_jump_target_{b}_pdp_vs_chain", p2, p1, se,
                                    abs(p1 - p2) <= 4.0 * se + 1e-9))
    return stats
