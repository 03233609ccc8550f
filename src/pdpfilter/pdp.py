"""The filter as a piecewise-deterministic Markov process.

Characteristics on a face with label a and level set A:

    flow        phi(t, nu)  = normalized nu_A e^{t Lambda_A}
    jump rate   lambda(nu)  = -nu Lambda 1_A
    jump law    Q(nu, .)    = atoms H_b[nu Lambda] with mass
                              q(nu, b) = nu Lambda 1_{h^{-1}(b)} / lambda(nu)

All three come from the flux nu Lambda 1_{h^{-1}(b)} of face rows into every
label b, which FilterModel._flux computes for a batch of rows at once; the
filter's own jumps use it too.

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
from scipy.integrate import solve_ivp

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
    JumpRecord,
    _normalize_rows,
)

SOJOURN_TOL = 1e-10
SOJOURN_MAX_ITER = 100


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
        """Atoms H_b[nu Lambda] with mass q(nu, b) for b != a.

        When lambda(nu) < DEG_TOL the uniform fallback over the other labels
        is returned, flagged degenerate (never sampled since the rate is 0).
        """
        model = self.model
        vec, lam, flux = model._flux(nu.label, nu.x)
        others = model._others[nu.label]
        if lam < DEG_TOL:
            share = 1.0 / len(others)
            atoms = [(model.restrict_normalize(vec, b), share) for b in others]
            return JumpLaw(atoms, nu, degenerate=True)
        atoms = [(model.restrict_normalize(vec, b), float(f / lam))
                 for b, f in zip(others, flux) if f > 0]
        return JumpLaw(atoms, nu)

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

        The draw is censored when S(horizon) > u.  Otherwise the result is
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
        idx = np.flatnonzero(us >= self.sojourn_survival(nu, horizon))
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
        current = nu0
        t = 0.0
        segments = [(0.0, current)]
        jumps = []
        while True:
            s = self.sojourn_from_uniform(current, gen.random(), horizon - t)
            if s is None:
                break
            t += s
            pre = self.model.flow(s, current)
            law = self.jump_measure(pre)
            masses = np.array([m for _, m in law.atoms])
            k = int(np.searchsorted(np.cumsum(masses), gen.random(), side="right"))
            k = min(k, len(law.atoms) - 1)
            post = law.atoms[k][0]
            jumps.append(JumpRecord(t, pre, post))
            segments.append((t, post))
            current = post
        return FilterTrajectory(self.model, segments, jumps, horizon)

    def first_jumps(self, nu: FacePoint, horizon: float, rngs):
        """First jump of simulate_pdp(nu, horizon, rng) for each rng, and nothing after it.

        Each RandomSource gives the first two draws of its generator, the
        ones simulate_pdp spends on its first jump: the sojourn uniform, then
        the target uniform.  All sojourns are inverted in one
        batch, and the targets are picked as simulate_pdp picks them from
        jump_measure at the pre-jump point.  Returns the jump times (inf where
        censored) and an object array of target labels (None where censored).
        """
        model = self.model
        us = np.array([rng.generator().random(2) for rng in rngs]).reshape(-1, 2)
        times = self.sojourn_times(nu, us[:, 0], horizon)
        labels = np.full(len(us), None, dtype=object)
        jumped = np.flatnonzero(times < math.inf)
        # pre-jump points, bit for bit as model.flow gives them, then their fluxes
        pre = _normalize_rows(model._sub[nu.label].rows(nu.x, times[jumped]), times[jumped])
        _, lam, flux = model._flux(nu.label, pre)
        others = model._others[nu.label]
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(flux > 0, flux / lam[:, None], 0.0)
        q[lam < DEG_TOL] = 1.0 / len(others)
        # np.searchsorted(cumsum, u, side="right") of every row, capped at the
        # last atom of positive mass (zero-flux atoms are not atoms)
        k = (np.cumsum(q, axis=1) <= us[jumped, 1:2]).sum(axis=1)
        last = q.shape[1] - 1 - np.argmax(q[:, ::-1] > 0, axis=1)
        labels[jumped] = np.array(others, dtype=object)[np.minimum(k, last)]
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


def exit_survival_nonlinear_curve(rate: RateMatrix, subset, i: int, ts,
                                  rtol: float = 1e-10, atol: float = 1e-12) -> np.ndarray:
    """P_i(tau_A > t) on a grid, via the normalized scalar ODE.

    Integrates y' = y Lambda_A - (y Lambda_A 1) y from delta_i together with
    the accumulated rate z' = y Lambda_A 1, and returns exp(z(t)).
    """
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
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=True)
    if not sol.success:
        raise RuntimeError(f"exit-time ODE integration failed: {sol.message}")
    z = sol.sol(ts)[d]
    return np.exp(z)


def exit_survival_nonlinear(rate: RateMatrix, subset, i: int, t: float, **kw) -> float:
    """Scalar version of exit_survival_nonlinear_curve."""
    return float(exit_survival_nonlinear_curve(rate, subset, i, [t], **kw)[0])


def pdp_check_statistics(model: FilterModel, mu: Distribution, n_sims: int, horizon: float,
                         seed: int) -> list:
    """Law checks for the first PDP jump: chain-driven vs analytic vs direct PDP.

    The start point is nu0 = H_a[mu] for the first label with positive mass,
    and the chain starts from nu0 itself so that Y_0 is deterministic.
    Simulation r samples the chain on stream r of RandomSource(seed), and the
    PDP's first jump from the first two draws of stream n_sims + r: the draws
    simulate_pdp spends on its first jump, so the sample is the same.
    """
    pdp = BeliefPdp(model)
    labels = model.obs.labels
    a0 = next(a for a in labels if mu.weights[model.faces[a]].sum() > 0)
    nu0 = model.restrict_normalize(mu, a0)
    nu0_dist = Distribution(nu0.weights)
    base = RandomSource(seed)

    chain_first = []
    for r in range(n_sims):
        obs_path = observe(sample_chain(model.rate, nu0_dist, horizon, base.stream(r)),
                           model.obs)
        chain_first.append(obs_path.jumps[0] if obs_path.jumps else (math.inf, None))
    chain_times = np.array([t for t, _ in chain_first])
    chain_labels = np.array([b for _, b in chain_first], dtype=object)
    pdp_times, pdp_labels = pdp.first_jumps(
        nu0, horizon, [base.stream(n_sims + r) for r in range(n_sims)])

    t_grid = np.linspace(0.0, horizon, 101)
    analytic = np.array([pdp.sojourn_survival(nu0, t) for t in t_grid])

    def empirical_survival(times):
        times = np.minimum(times, horizon)
        return np.array([(times > t).mean() for t in t_grid])

    surv_chain = empirical_survival(chain_times)
    surv_pdp = empirical_survival(pdp_times)
    # DKW-style pass threshold; at n = 1e5 this is below the 0.01 of the spec
    dkw = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n_sims))
    stats = []
    dev_chain = float(np.abs(surv_chain - analytic).max())
    stats.append({
        "statistic": "first_jump_survival_chain_vs_analytic_sup_dev",
        "empirical": dev_chain,
        "analytic": 0.0,
        "stderr": dkw / 4.0,
        "pass": bool(dev_chain < dkw),
    })
    dev_cross = float(np.abs(surv_chain - surv_pdp).max())
    stats.append({
        "statistic": "first_jump_survival_pdp_vs_chain_sup_dev",
        "empirical": dev_cross,
        "analytic": 0.0,
        "stderr": dkw / 4.0,
        "pass": bool(dev_cross < 2.0 * dkw),
    })
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
        # q(phi(t, nu0), b) at every observed jump time: ratio of the
        # jump-time densities, the target fluxes of nu0_A e^{t Lambda_A}
        wa = model._sub[a0].rows(nu0.x, times)
        dens = np.clip(model._flux(a0, wa)[2], 0.0, None)
        total_flux = dens.sum(axis=1, keepdims=True)
        qvals = dict(zip(others, (dens / np.where(total_flux > 0, total_flux, 1.0)).T))
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
                stats.append({
                    "statistic": f"first_jump_target_{b}_bin{k}_chain_vs_q",
                    "empirical": freq,
                    "analytic": expected,
                    "stderr": se,
                    "pass": bool(abs(freq - expected) <= 4.0 * se + 1e-9),
                })
        # cross-check of overall target frequencies, chain vs direct PDP
        for b in others:
            p1 = float(np.mean(hits == b))
            p2 = float(np.mean(pdp_hits == b)) if pdp_hits.size else 0.0
            se = math.sqrt(
                max(p1 * (1 - p1), 1e-12) / hits.size
                + max(p2 * (1 - p2), 1e-12) / max(pdp_hits.size, 1)
            )
            stats.append({
                "statistic": f"first_jump_target_{b}_pdp_vs_chain",
                "empirical": p2,
                "analytic": p1,
                "stderr": se,
                "pass": bool(abs(p1 - p2) <= 4.0 * se + 1e-9),
            })
    return stats
