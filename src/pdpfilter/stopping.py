"""Optimal stopping of the partially observed chain, solved on the belief simplex.

The cost of stopping at tau is

    J(mu, tau) = E[ e^{-alpha tau} g(X_tau) + int_0^tau e^{-alpha s} l(X_s) ds ],

with the g-term dropped at tau = infinity.  In belief coordinates the value
function v on the effective simplex is the fixed point of a single-jump
dynamic-programming operator: continue along the flow up to a candidate time
t (running cost plus jump term weighted by the post-jump value), then either
stop (obstacle psi(nu) = nu g) or, on the horizon branch, keep the value
itself.  The expectation over the jump kernel is a finite sum because the
post-jump law has at most |O|-1 atoms.  A key simplification: the survival
weight times any belief functional along the flow collapses onto the
unnormalized filter u(s) = nu_A e^{s Lambda_A}, so every integrand below is
linear in u(s) (with piecewise-linear interpolated values of v at the
normalized jump targets).

The general-initial-condition value is the mixture
V(mu) = sum_a mu(h^{-1}(a)) v(H_a[mu]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .chain import Distribution, RandomSource, observe, sample_chain
from .filtering import (DEG_TOL, FaceMassVanished, FacePoint, FilterModel, FilterTrajectory,
                        _normalize_rows)

DEFAULT_DT = 0.05  # mesh step of the Bellman operator and of the classical oracle
DEFAULT_TAIL_TOL = 1e-7
DEFAULT_CHECK_TIMES = (2.0, 3.0, 5.0)  # continue-to-t branches of the Bellman operator
REFINE_POINTS = 32  # parts a scan cell is cut into per round of first_entry


class NoConvergence(RuntimeError):
    pass


@dataclass(frozen=True)
class StoppingProblem:
    """Stopping cost g, running cost l (per-state vectors) and discount alpha > 0."""

    g: np.ndarray
    l: np.ndarray
    alpha: float

    def __post_init__(self):
        g = np.array(self.g, dtype=float).ravel()
        l = np.array(self.l, dtype=float).ravel()
        if len(g) != len(l):
            raise ValueError("g and l must have equal length")
        if not self.alpha > 0:
            raise ValueError("discount alpha must be strictly positive")
        g.setflags(write=False)
        l.setflags(write=False)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "l", l)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class FaceGrid:
    """Barycentric grid of resolution m on each face of the effective simplex."""

    def __init__(self, model: FilterModel, resolution: int):
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        self.model = model
        self.m = int(resolution)
        self.points = {}
        self._codes = {}
        for a, face in model.faces.items():
            d = len(face)
            counts = np.array(list(_compositions(self.m, d)), dtype=np.int64)
            self.points[a] = counts.astype(float) / self.m
            basis = (self.m + 1) ** np.arange(d, dtype=np.int64)
            codes = counts @ basis
            order = np.argsort(codes)
            self._codes[a] = (codes[order], order, basis)

    def n_points(self, a) -> int:
        return len(self.points[a])

    def interpolation_weights(self, a, W):
        """Simplicial (Freudenthal/Kuhn) interpolation on the face lattice.

        W: (M, d) rows of face coordinates summing to 1.  Returns index and
        weight arrays of shape (M, d+1); weights are a convex combination,
        exact on lattice points, so interpolated values stay within the
        corner values of the containing cell.
        """
        m = self.m
        W = np.clip(np.asarray(W, dtype=float), 0.0, None)
        M, d = W.shape
        sorted_codes, order_perm, basis = self._codes[a]
        if d == 1:
            return np.zeros((M, 2), dtype=np.int64), np.column_stack(
                [np.ones(M), np.zeros(M)]
            )
        # cumulative (staircase) coordinates: x_i = m * sum_{j>=i} W_j, nonincreasing
        x = m * np.cumsum(W[:, ::-1], axis=1)[:, ::-1]
        x[:, 0] = m
        v = np.floor(x)
        f = x - v
        hi = f > 1.0 - 1e-9
        v[hi] += 1.0
        f[hi] = 0.0
        f[f < 1e-12] = 0.0
        order = np.argsort(-f, axis=1, kind="stable")
        fs = np.take_along_axis(f, order, axis=1)
        wgt = np.empty((M, d + 1))
        wgt[:, 0] = 1.0 - fs[:, 0]
        if d > 1:
            wgt[:, 1:d] = fs[:, : d - 1] - fs[:, 1:]
        wgt[:, d] = fs[:, d - 1]
        wgt = np.clip(wgt, 0.0, None)
        wgt /= wgt.sum(axis=1, keepdims=True)
        idx = np.zeros((M, d + 1), dtype=np.int64)
        z = np.rint(v).astype(np.int64)
        rows = np.arange(M)
        counts = np.empty_like(z)
        for k in range(d + 1):
            counts[:, : d - 1] = z[:, : d - 1] - z[:, 1:]
            counts[:, d - 1] = z[:, d - 1]
            valid = wgt[:, k] > 1e-12
            if valid.any() and (counts[valid] < 0).any():
                raise RuntimeError("interpolation produced an invalid lattice vertex")
            code = counts @ basis
            code = np.where(valid, code, sorted_codes[0])
            pos = np.searchsorted(sorted_codes, code)
            pos = np.clip(pos, 0, len(sorted_codes) - 1)
            if not (sorted_codes[pos] == code).all():
                raise RuntimeError("interpolation vertex not on the grid")
            idx[:, k] = order_perm[pos]
            wgt[:, k] = np.where(valid, wgt[:, k], 0.0)
            if k < d:
                z[rows, order[:, k]] += 1
        return idx, wgt


class ValueFunction:
    """Grid values per face with simplicial interpolation."""

    def __init__(self, grid: FaceGrid, values: dict, problem: StoppingProblem = None, info: dict = None):
        self.grid = grid
        self.values = {a: np.array(v, dtype=float) for a, v in values.items()}
        self.problem = problem
        self.info = dict(info or {})

    def batch(self, a, W) -> np.ndarray:
        idx, wgt = self.grid.interpolation_weights(a, W)
        return (self.values[a][idx] * wgt).sum(axis=1)

    def at(self, fp: FacePoint) -> float:
        return float(self.batch(fp.label, fp.x[None, :])[0])

    __call__ = at


def psi_values(grid: FaceGrid, prob: StoppingProblem) -> dict:
    """Obstacle psi(nu) = nu g on the grid."""
    out = {}
    for a, face in grid.model.faces.items():
        out[a] = grid.points[a] @ prob.g[face]
    return out


class BellmanOperator:
    """Single-jump value-iteration operator on the face grids.

    Branches minimized over: stop at each mesh time t_k (continuation
    integral plus discounted survival-weighted obstacle), continue to T_max
    keeping the value itself, and continue to each check time keeping the
    value itself (DEFAULT_CHECK_TIMES on the mesh, clamped to T_max).  The
    check-time branches are not redundant on the grid:
    with v interpolated at the flowed points they lower the fixed point, by
    up to 6.9e-4 on perfbench/models/hexa6.json (not at all where the flows
    are frozen, as on cyclic4), and the continuation inequalities at those
    times then hold up to the residual.  Ties in the minimization go to the
    smallest t.  Integrals use composite Simpson on the uniform mesh (nodes
    plus midpoints).
    """

    def __init__(self, model: FilterModel, grid: FaceGrid, prob: StoppingProblem):
        self.model = model
        self.grid = grid
        self.prob = prob
        alpha = prob.alpha
        dt = DEFAULT_DT
        t_max = math.ceil((-math.log(DEFAULT_TAIL_TOL) / alpha) / dt) * dt
        K = max(1, int(round(t_max / dt)))
        self.dt = dt
        self.K = K
        self.t_max = K * dt
        self.times = np.arange(K + 1) * dt
        # mesh steps of the check times (clamped to K), and of every continuation branch
        self.check_ks = sorted({min(int(round(c / dt)), K) for c in DEFAULT_CHECK_TIMES})
        self._branch_ks = sorted(set(self.check_ks) | {K})
        self.disc = np.exp(-alpha * self.times)
        self.discm = np.exp(-alpha * (self.times[:K] + dt / 2))
        self._pre = {}
        labels = model.obs.labels
        for a in labels:
            face = model.faces[a]
            d = len(face)
            n = grid.n_points(a)
            sub = model._sub[a].matrix
            E = expm(dt * sub)
            Eh = expm(0.5 * dt * sub)
            W = np.empty((K + 1, n, d))
            W[0] = grid.points[a]
            for k in range(K):
                W[k + 1] = W[k] @ E
            Wm = W[:K] @ Eh
            W = np.clip(W, 0.0, None)
            Wm = np.clip(Wm, 0.0, None)
            entry = {
                "face": face,
                "n": n,
                "stop": W @ prob.g[face],
                "run": W @ prob.l[face],
                "runm": Wm @ prob.l[face],
                "mass": W.sum(axis=2),
                "jump": [],
                "self_gather": {},
            }
            for b in labels:
                if b == a:
                    continue
                block = model._blocks[a][b]
                db = block.shape[1]
                jn = self._target_gather(b, W @ block, db)
                jm = self._target_gather(b, Wm @ block, db)
                entry["jump"].append((b, jn, jm))
            for k in self._branch_ks:
                mass = entry["mass"][k]
                Wn = W[k] / np.where(mass > 0, mass, 1.0)[:, None]
                idx, wgt = grid.interpolation_weights(a, Wn)
                entry["self_gather"][k] = (idx, wgt)
            self._pre[a] = entry

    def _target_gather(self, b, T, db):
        """Flux and interpolation gather arrays for jump targets onto face b."""
        T = np.clip(T, 0.0, None)
        shape = T.shape[:2]
        flux = T.sum(axis=2)
        denom = np.where(flux > DEG_TOL, flux, 1.0)
        Tn = T / denom[..., None]
        Tn[flux <= DEG_TOL] = 1.0 / db
        idx, wgt = self.grid.interpolation_weights(b, Tn.reshape(-1, db))
        idx = idx.reshape(shape + (db + 1,))
        wgt = wgt.reshape(shape + (db + 1,))
        return flux, idx, wgt

    def _cumulative(self, values: dict, a):
        """Cumulative Simpson integral I_k of the discounted running-plus-jump integrand."""
        e = self._pre[a]
        K = self.K
        jump_n = np.zeros_like(e["run"])
        jump_m = np.zeros_like(e["runm"])
        for b, (fn, ixn, wn), (fm, ixm, wm) in e["jump"]:
            vb = values[b]
            jump_n += fn * (vb[ixn] * wn).sum(axis=2)
            jump_m += fm * (vb[ixm] * wm).sum(axis=2)
        q = self.disc[:, None] * (e["run"] + jump_n)
        qm = self.discm[:, None] * (e["runm"] + jump_m)
        inc = (self.dt / 6.0) * (q[:-1] + 4.0 * qm + q[1:])
        I = np.empty_like(q)
        I[0] = 0.0
        np.cumsum(inc, axis=0, out=I[1:])
        return I

    def _continuation(self, I: np.ndarray, values: dict, a, k) -> np.ndarray:
        """Continue-to-t_k branch I_k + e^{-alpha t_k} S_k v(phi_k), with I
        the cumulative integral of label a."""
        e = self._pre[a]
        idx, wgt = e["self_gather"][k]
        return I[k] + self.disc[k] * e["mass"][k] * (values[a][idx] * wgt).sum(axis=1)

    def apply(self, values: dict) -> dict:
        out = {}
        for a in self.model.obs.labels:
            I = self._cumulative(values, a)
            g_stop = I + self.disc[:, None] * self._pre[a]["stop"]
            best = g_stop.min(axis=0)
            for k in self._branch_ks:
                np.minimum(best, self._continuation(I, values, a, k), out=best)
            out[a] = best
        return out


def solve_value(model: FilterModel, prob: StoppingProblem, grid: FaceGrid,
                tol: float = 1e-6, max_iter: int = 10000) -> ValueFunction:
    """Value iteration from the obstacle psi until the sup-norm change < tol."""
    op = BellmanOperator(model, grid, prob)
    values = psi_values(grid, prob)
    iterations = 0
    delta = math.inf
    for iterations in range(1, max_iter + 1):
        new = op.apply(values)
        delta = max(np.abs(new[a] - values[a]).max() for a in new)
        values = new
        if delta < tol:
            break
    else:
        raise NoConvergence(f"no convergence in {max_iter} sweeps (last change {delta})")
    final = op.apply(values)
    residual = max(np.abs(final[a] - values[a]).max() for a in final)
    info = {
        "iterations": iterations,
        "residual": residual,
        "tol": tol,
        "dt": op.dt,
        "t_max": op.t_max,
    }
    vf = ValueFunction(grid, values, prob, info)
    vf._operator = op
    return vf


def contraction_witness(op: BellmanOperator, rng: RandomSource, n_pairs: int = 20) -> float:
    """Empirical sup-norm contraction modulus over random value pairs."""
    gen = rng.generator() if isinstance(rng, RandomSource) else rng
    labels = op.model.obs.labels
    beta = 0.0
    for _ in range(n_pairs):
        v1 = {a: gen.uniform(-1, 1, op.grid.n_points(a)) for a in labels}
        v2 = {a: gen.uniform(-1, 1, op.grid.n_points(a)) for a in labels}
        num = 0.0
        den = 0.0
        t1 = op.apply(v1)
        t2 = op.apply(v2)
        for a in labels:
            num = max(num, np.abs(t1[a] - t2[a]).max())
            den = max(den, np.abs(v1[a] - v2[a]).max())
        if den > 0:
            beta = max(beta, num / den)
    return beta


def value_general(mu: Distribution, v: ValueFunction) -> float:
    """V(mu) = sum_a mu(h^{-1}(a)) v(H_a[mu])."""
    model = v.grid.model
    total = 0.0
    w = mu.weights if isinstance(mu, Distribution) else np.asarray(mu, float)
    for a, face in model.faces.items():
        mass = float(w[face].sum())
        if mass <= 0:
            continue
        total += mass * v.at(model.restrict_normalize(w, a))
    return total


def cost_along_filter(traj: FilterTrajectory, tau: float, prob: StoppingProblem) -> float:
    """e^{-alpha tau} Pi_tau g + int_0^tau e^{-alpha s} Pi_s l ds.

    tau = math.inf drops the g-term and integrates to the trajectory horizon.
    Segment integrals use chunked 16-point Gauss-Legendre on the smooth
    closed-form flow; the nodes of all chunks on one label are propagated in
    one batch.  Raises FaceMassVanished where x_A e^{t Lambda_A} underflows
    at a node.
    """
    model = traj.model
    alpha = prob.alpha
    if tau is None:
        tau = math.inf
    if math.isinf(tau):
        t_end = traj.horizon
        g_term = 0.0
    else:
        if tau < 0 or tau > traj.horizon + 1e-12:
            raise ValueError("tau must lie in [0, horizon] or be infinite")
        t_end = min(tau, traj.horizon)
        fp = traj.value_at(t_end)
        g_term = math.exp(-alpha * tau) * float(fp.x @ prob.g[model.faces[fp.label]])
    nodes, weights = _gauss_nodes()
    t0, t1, ids, starts, local = _segment_table(traj)
    length = np.minimum(t1, t_end) - t0
    n_chunks = np.where(length > 0, np.maximum(1, np.ceil(length / 2.0)), 0).astype(np.int64)
    # chunk c of a segment spans [c, c + 1] * length / n_chunks
    seg, c = _ragged(n_chunks)
    step = (length / np.maximum(n_chunks, 1))[seg]
    lo = c * step
    half = 0.5 * (np.where(c + 1 == n_chunks[seg], length[seg], (c + 1) * step) - lo)[:, None]
    ts = (lo[:, None] + half * (nodes + 1.0)).ravel()
    wq = (half * weights).ravel()
    seg = np.repeat(seg, len(nodes))
    total = 0.0
    for i, a in enumerate(model.obs.labels):
        on = ids[seg] == i
        if not on.any():
            continue
        W = np.clip(model._sub[a].rows(starts[a][local[seg[on]]], ts[on]), 0.0, None)
        mass = W.sum(axis=1)
        at = t0[seg[on]] + ts[on]
        vanished = ~(mass > 0)
        if vanished.any():
            raise FaceMassVanished(f"flow mass 0 on face {a!r} at t={at[vanished][0]}")
        total += float((wq[on] * np.exp(-alpha * at)) @ ((W @ prob.l[model.faces[a]]) / mass))
    return total + g_term


def _segment_table(traj: FilterTrajectory):
    """Start times, end times and label indices of the trajectory's segments;
    per label the face rows of its segment starts, and each segment's row
    among them."""
    model = traj.model
    labels = model.obs.labels
    t0 = np.array([t for t, _ in traj.segments])
    t1 = np.append(t0[1:], traj.horizon)
    ids = np.array([labels.index(fp.label) for _, fp in traj.segments])
    starts = {}
    local = np.empty(len(ids), dtype=np.int64)
    for i, a in enumerate(labels):
        mine = np.flatnonzero(ids == i)
        local[mine] = np.arange(len(mine))
        starts[a] = np.array([traj.segments[k][1].x for k in mine]).reshape(-1, len(model.faces[a]))
    return t0, t1, ids, starts, local


def _ragged(counts: np.ndarray):
    """For counts[k] items owned by each k: every item's owner and its index
    within the owner."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


_GAUSS = {}


def _gauss_nodes(order: int = 16):
    if order not in _GAUSS:
        _GAUSS[order] = np.polynomial.legendre.leggauss(order)
    return _GAUSS[order]


class StoppingPolicy:
    """Stop at first entry of the filter into the eps-relaxed contact set
    {nu : nu g <= v(nu) + eps}."""

    def __init__(self, value: ValueFunction, eps: float):
        if value.problem is None:
            raise ValueError("value function carries no stopping problem")
        self.value = value
        self.prob = value.problem
        self.eps = float(eps)
        self.model = value.grid.model
        # indices of the labels whose sub-generator is scalar: the flow (and
        # the margin) is constant on their faces
        self._frozen = []
        for i, a in enumerate(self.model.obs.labels):
            M = self.model._sub[a].matrix
            if np.allclose(M, M[0, 0] * np.eye(len(M)), atol=1e-14):
                self._frozen.append(i)

    def should_stop(self, fp: FacePoint) -> bool:
        return bool(self._margins(fp.label, fp.x[None, :])[0] <= 0.0)

    def _margins(self, label, X: np.ndarray) -> np.ndarray:
        """Margins nu g - v(nu) - eps at the points X, rows of face `label`
        as the flow gives them; nu g is summed term by term, so that a row's
        margin does not depend on its batch."""
        g = self.prob.g[self.model.faces[label]]
        return (X * g).sum(axis=1) - self.value.batch(label, X) - self.eps

    def _flow_margins(self, label, x: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Margins at phi(ts, x) on face `label`, NaN where the flow has no mass."""
        W = self.model._sub[label].rows(x, ts)
        ok = W.sum(axis=1) > 0
        out = np.full(len(W), np.nan)
        out[ok] = self._margins(label, _normalize_rows(W[ok], ts[ok]))
        return out

    def first_entry(self, traj: FilterTrajectory, time_tol: float = 1e-8,
                    scan_step: float = 0.02) -> float:
        """First entry time into the contact set along the trajectory, or inf.

        Each segment [t0, t1] is scanned at its start and, unless its flow is
        frozen (a scalar sub-generator), at ceil((t1 - t0) / scan_step)
        evenly spaced times after it, the last one at t1; all scan points on
        one label take one propagation and one value interpolation.  Every
        scan and section time t is evaluated at the offset t - t0, as
        value_at evaluates it, so should_stop(traj.value_at(tau)) scores the
        point whose margin ended the search.  The first scan point with
        margin <= 0 ends the scan.  Unless it is a segment start, the scan
        cell that ends there is cut into REFINE_POINTS equal parts, the first
        part whose right end has margin <= 0 is cut again, and so on until
        the part is no wider than time_tol; its right end is returned.  So
        the result has margin <= 0 and lies within time_tol of a time with
        margin > 0: it is a first entry up to time_tol, and an entry and exit
        that both fall between two points of a section are missed.  Raises
        FaceMassVanished where x_A e^{t Lambda_A} underflows at a scan point
        before the entry.
        """
        model = self.model
        t0, t1, ids, starts, local = _segment_table(traj)
        length = t1 - t0
        moving = (length > 0) & ~np.isin(ids, self._frozen)
        n_scan = np.where(moving, np.maximum(2, np.ceil(length / scan_step)), 0).astype(np.int64)
        # np.linspace(t0, t1, n_scan + 1) of every segment, flattened
        seg, j = _ragged(n_scan + 1)
        times = t0[seg] + j * (length / np.maximum(n_scan, 1))[seg]
        last = (j == n_scan[seg]) & (j > 0)
        times[last] = t1[seg[last]]
        margins = np.empty(len(seg))
        for i, a in enumerate(model.obs.labels):
            on = ids[seg] == i
            if on.any():
                margins[on] = self._flow_margins(a, starts[a][local[seg[on]]],
                                                 times[on] - t0[seg[on]])
        hit = np.flatnonzero(margins <= 0.0)
        lost = np.flatnonzero(np.isnan(margins))
        first = hit[0] if hit.size else len(margins)
        if lost.size and lost[0] < first:
            raise FaceMassVanished(f"flow mass 0 on face {model.obs.labels[ids[seg[lost[0]]]]!r} "
                                   f"at t={times[lost[0]]}")
        if not hit.size:
            return math.inf
        k = seg[first]
        a = model.obs.labels[ids[k]]
        x = starts[a][local[k]]
        lo, hi = times[first - 1 if j[first] else first], times[first]
        width = math.inf
        while time_tol < hi - lo < width:  # stops too where rounding halts progress
            width = hi - lo
            ts = np.linspace(lo, hi, REFINE_POINTS + 1)[1:-1]
            section = self._flow_margins(a, x, ts - t0[k])
            if np.isnan(section).any():
                raise FaceMassVanished(f"flow mass 0 on face {a!r} after t={lo}")
            inside = np.flatnonzero(section <= 0.0)
            if inside.size:
                i = inside[0]
                lo, hi = (ts[i - 1] if i else lo), ts[i]
            else:
                lo = ts[-1]
        return float(hi)


def stopping_rule(v: ValueFunction, eps: float = None) -> StoppingPolicy:
    """Policy from the eps-relaxed contact set; eps defaults to 2 * solver tol."""
    if eps is None:
        eps = 2.0 * v.info.get("tol", 1e-6)
    return StoppingPolicy(v, eps)


def evaluate_policy_mc(mu: Distribution, policy, prob: StoppingProblem,
                       n_sims: int, horizon: float, rng: RandomSource,
                       model: FilterModel = None):
    """Monte Carlo estimate (mean, stderr) of the policy's cost from mu.

    Stopping is censored at the horizon (tau treated as infinite), valid when
    e^{-alpha horizon} (max|g| + max|l|/alpha) is negligible.
    """
    if model is None:
        model = policy.model
    costs = np.empty(n_sims)
    for r in range(n_sims):
        sub_rng = rng.stream(r)
        path = sample_chain(model.rate, mu, horizon, sub_rng)
        obs = observe(path, model.obs)
        traj = model.run_filter(obs, mu)
        tau = policy.first_entry(traj)
        if tau > horizon:
            tau = math.inf
        costs[r] = cost_along_filter(traj, tau, prob)
    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1) / math.sqrt(n_sims)) if n_sims > 1 else 0.0
    return mean, stderr


def verify_variational(v: ValueFunction, prob: StoppingProblem, tol: float = 5e-6) -> dict:
    """Check u <= psi and u <= continue-to-t-then-u on the grid, at the
    operator's check times (DEFAULT_CHECK_TIMES clamped to T_max).

    The continuation expectation uses the same single-jump quadrature as the
    Bellman operator; the one-jump truncation bound (value beyond T_max) is
    reported.  Maximality of v among solutions is NOT checked.  The
    operator is the one v was solved with, or, for a hand-made v, one built
    for prob.  The check times are branches of that operator, so for a
    solved v both inequalities hold up to its residual: the check confirms
    the fixed point, not the discretization.
    """
    model = v.grid.model
    op = getattr(v, "_operator", None) or BellmanOperator(model, v.grid, prob)
    psi = psi_values(v.grid, prob)
    obstacle_violation = max(float((v.values[a] - psi[a]).max()) for a in psi)
    cont_violation = -math.inf
    checked = [op.times[k] for k in op.check_ks]
    for a in model.obs.labels:
        I = op._cumulative(v.values, a)
        for k in op.check_ks:
            cont = op._continuation(I, v.values, a, k)
            cont_violation = max(cont_violation, float((v.values[a] - cont).max()))
    g_max = float(np.abs(prob.g).max())
    l_max = float(np.abs(prob.l).max())
    truncation_bound = math.exp(-prob.alpha * op.t_max) * (g_max + l_max / prob.alpha)
    passed = obstacle_violation < tol and cont_violation < tol
    return {
        "pass": bool(passed),
        "tol": tol,
        "obstacle_violation": obstacle_violation,
        "continuation_violation": cont_violation,
        "checked_times": checked,
        "one_jump_truncation_bound": truncation_bound,
        "note": "maximality among solutions of the inequality system is not checked",
    }


def classical_stopping_values(rate, g, l, alpha: float, dt: float = DEFAULT_DT,
                              t_max: float = None, tol: float = 1e-6,
                              max_iter: int = 10000) -> np.ndarray:
    """Independent fully-observed stopping oracle on the states.

    Scalar value iteration with the same time mesh as the grid solver but
    closed-form per-interval integrals (everything is exponential when the
    state is observed), so it shares no code path with the simplex machinery.
    """
    Q = rate.entries
    g = np.asarray(g, dtype=float)
    l = np.asarray(l, dtype=float)
    n = len(g)
    lam = -np.diag(Q)
    off = Q - np.diag(np.diag(Q))
    if t_max is None:
        t_max = math.ceil((-math.log(DEFAULT_TAIL_TOL) / alpha) / dt) * dt
    K = max(1, int(round(t_max / dt)))
    times = np.arange(K + 1) * dt
    beta = alpha + lam  # per-state decay of e^{-alpha t} * survival
    decay = np.exp(-np.outer(times, beta))  # (K+1, n)
    v = g.copy()
    for _ in range(max_iter):
        c = l + off @ v
        integral = (1.0 - decay) / beta * c
        stop_branches = integral + decay * g
        cont = integral[K] + decay[K] * v
        new = np.minimum(stop_branches.min(axis=0), cont)
        delta = np.abs(new - v).max()
        v = new
        if delta < tol:
            return v
    raise NoConvergence("classical oracle did not converge")
