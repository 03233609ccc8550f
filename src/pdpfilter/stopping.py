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
from .filtering import (FaceMassVanished, FacePoint, FilterModel, FilterTrajectory,
                        _normalize_rows, _restrict)

DEFAULT_DT = 0.05  # mesh step of the Bellman operator and of the classical oracle
DEFAULT_TAIL_TOL = 1e-7
DEFAULT_CHECK_TIMES = (2.0, 3.0, 5.0)  # continue-to-t branches of the Bellman operator
REFINE_POINTS = 32  # parts a scan cell is cut into per round of first_entries
# scan points that first_entries takes of each live trajectory per round
SCAN_WINDOW = 128
# paths that evaluate_policy_mc filters and scans at once: their scan takes
# about 4 MB on perfbench/models/hexa6.json at horizon 40, against the 88 MB
# that the Bellman operator of that model keeps at grid 16
MC_CHUNK = 64
# mesh steps that the Bellman operator builds and sweeps at once
TIME_CHUNK = 32


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

    The time axis is built and swept in chunks of TIME_CHUNK mesh steps, so
    the transient arrays are those of one chunk; the results do not depend
    on the chunk.  Retained per label a, at every node (and, for the running
    and jump terms, every midpoint) and grid point: the flowed obstacle,
    running cost and survival mass, and for each other label b the flux
    into b with the interpolation gather (indices and weights) of its jump
    target; plus the self-gathers of the flowed points at the branch times.
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
        self._pre = {a: self._build(a) for a in model.obs.labels}

    def _build(self, a) -> dict:
        """Label a's retained tables, filled chunk by chunk along the flow
        W_{k+1} = W_k e^{dt Lambda_A} (midpoints W_k e^{dt/2 Lambda_A}), each
        chunk propagated from the unclipped row before it and then clipped."""
        model, grid, K = self.model, self.grid, self.K
        face = model.faces[a]
        d = len(face)
        n = grid.n_points(a)
        sub = model._sub[a].matrix
        E = expm(self.dt * sub)
        Eh = expm(0.5 * self.dt * sub)
        g, l = self.prob.g[face], self.prob.l[face]

        def series(steps):
            """Running cost, and (b, flux, idx, wgt) per other label b, at `steps` times."""
            gathers = []
            for b in model._others[a]:
                shape = (steps, n, len(model.faces[b]) + 1)
                gathers.append((b, np.empty((steps, n)), np.empty(shape, dtype=np.int64),
                                np.empty(shape)))
            return np.empty((steps, n)), gathers

        e = {"n": n, "stop": np.empty((K + 1, n)), "mass": np.empty((K + 1, n)),
             "node": series(K + 1), "mid": series(K), "self_gather": {}}
        last = None
        for k0 in range(0, K + 1, TIME_CHUNK):
            k1 = min(k0 + TIME_CHUNK, K + 1)
            W = np.empty((k1 - k0, n, d))
            W[0] = grid.points[a] if last is None else last @ E
            for i in range(1, k1 - k0):
                W[i] = W[i - 1] @ E
            Wm = W[: min(k1, K) - k0] @ Eh
            last = W[-1].copy()
            np.clip(W, 0.0, None, out=W)
            np.clip(Wm, 0.0, None, out=Wm)
            e["stop"][k0:k1] = W @ g
            e["mass"][k0:k1] = W.sum(axis=2)
            for rows, X, (run, gathers) in ((slice(k0, k1), W, e["node"]),
                                            (slice(k0, k0 + len(Wm)), Wm, e["mid"])):
                run[rows] = X @ l
                for b, flux, idx, wgt in gathers:
                    T = X @ model._out_rows[a][:, model.faces[b]]
                    Tn, flux[rows] = _restrict(T)
                    ix, wt = grid.interpolation_weights(b, Tn.reshape(-1, T.shape[-1]))
                    idx[rows] = ix.reshape(idx[rows].shape)
                    wgt[rows] = wt.reshape(wgt[rows].shape)
            for k in self._branch_ks:
                if k0 <= k < k1:
                    e["self_gather"][k] = grid.interpolation_weights(a, _restrict(W[k - k0])[0])
        return e

    def _integrand(self, values: dict, series, disc: np.ndarray, rows: slice) -> np.ndarray:
        """Discounted running-plus-jump integrand at the rows of one mesh
        (the nodes or the midpoints) of a label's series."""
        run, gathers = series
        jump = np.zeros_like(run[rows])
        for b, flux, idx, wgt in gathers:
            jump += flux[rows] * (values[b][idx[rows]] * wgt[rows]).sum(axis=2)
        return disc[rows, None] * (run[rows] + jump)

    def _sweep(self, values: dict, a):
        """One pass over label a's time axis, chunk by chunk: the minimum over
        the stop branches I_k + e^{-alpha t_k} S_k psi(phi_k), and the
        cumulative Simpson integral I_k at the branch times.  Each chunk
        takes its nodes plus the node before it, whose I starts np.cumsum,
        so I_k is summed in mesh order whatever the chunk."""
        e = self._pre[a]
        best = None
        at = {}
        I_prev = np.zeros(e["n"])  # I_0
        for k0 in range(0, self.K + 1, TIME_CHUNK):
            k1 = min(k0 + TIME_CHUNK, self.K + 1)
            lo = max(k0 - 1, 0)
            q = self._integrand(values, e["node"], self.disc, slice(lo, k1))
            qm = self._integrand(values, e["mid"], self.discm, slice(lo, k1 - 1))
            I = np.empty_like(q)
            I[0] = I_prev
            I[1:] = (self.dt / 6.0) * (q[:-1] + 4.0 * qm + q[1:])
            np.cumsum(I, axis=0, out=I)
            I = I[k0 - lo:]  # nodes k0 .. k1 - 1
            I_prev = I[-1]
            low = (I + self.disc[k0:k1, None] * e["stop"][k0:k1]).min(axis=0)
            best = low if best is None else np.minimum(best, low)
            for k in self._branch_ks:
                if k0 <= k < k1:
                    at[k] = I[k - k0]
        return best, at

    def _continuation(self, I_k: np.ndarray, values: dict, a, k) -> np.ndarray:
        """Continue-to-t_k branch I_k + e^{-alpha t_k} S_k v(phi_k) of label a."""
        e = self._pre[a]
        idx, wgt = e["self_gather"][k]
        return I_k + self.disc[k] * e["mass"][k] * (values[a][idx] * wgt).sum(axis=1)

    def apply(self, values: dict) -> dict:
        out = {}
        for a in self.model.obs.labels:
            best, I = self._sweep(values, a)
            for k in self._branch_ks:
                np.minimum(best, self._continuation(I[k], values, a, k), out=best)
            out[a] = best
        return out


def solve_value(model: FilterModel, prob: StoppingProblem, grid: FaceGrid,
                tol: float = 1e-6, max_iter: int = 10000) -> ValueFunction:
    """Value iteration from the obstacle psi until the sup-norm change < tol.

    info records the sup-norm change of every sweep in "deltas"."""
    op = BellmanOperator(model, grid, prob)
    values = psi_values(grid, prob)
    iterations = 0
    delta = math.inf
    deltas = []
    for iterations in range(1, max_iter + 1):
        new = op.apply(values)
        delta = max(np.abs(new[a] - values[a]).max() for a in new)
        deltas.append(float(delta))
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
        "deltas": deltas,
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
    t0, t1, ids, starts, local = traj._segment_table()
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
        """first_entries([traj], time_tol, scan_step)[0]."""
        return self.first_entries([traj], time_tol, scan_step)[0]

    def first_entries(self, trajs, time_tol: float = 1e-8, scan_step: float = 0.02) -> list:
        """First entry time into the contact set along each trajectory, or inf.

        Each segment [t0, t1] is scanned at its start and, unless its flow is
        frozen (a scalar sub-generator), at ceil((t1 - t0) / scan_step)
        evenly spaced times after it, the last one at t1.  The scan goes in
        rounds: each takes the next SCAN_WINDOW scan points of every
        trajectory still in the scan, and all of them on one label take one
        propagation and one value interpolation.  A trajectory leaves the
        scan at its first scan point with margin <= 0 (its entry) or without
        flow mass, or when its points run out, so no point after an entry is
        scanned.  Every scan and section time t is evaluated at the offset
        t - t0, as value_at evaluates it, so should_stop(traj.value_at(tau))
        scores the point whose margin ended the search.  Unless the entry is
        a segment start, the scan cell that ends there is cut into
        REFINE_POINTS equal parts, the first part whose right end has
        margin <= 0 is cut again, and so on until the part is no wider than
        time_tol; its right end is returned.  Each refinement round cuts the
        cells of all trajectories still refining, one propagation per label.
        So a result has margin <= 0 and lies within time_tol of a time with
        margin > 0: it is a first entry up to time_tol, and an entry and exit
        that both fall between two points of a section are missed.  The
        margins, the propagation and the interpolation work row by row, so a
        trajectory's result depends neither on its batch nor on SCAN_WINDOW.
        Raises FaceMassVanished, for the first such trajectory of the batch,
        where x_A e^{t Lambda_A} underflows at a scan point before the entry.
        """
        if not trajs:
            return []
        model = self.model
        labels = model.obs.labels
        tables = [traj._segment_table() for traj in trajs]
        t0, t1, ids = (np.concatenate([tab[c] for tab in tables]) for c in range(3))
        # the segment starts of all trajectories stacked per label, and the row
        # of each segment there
        starts = {a: np.concatenate([tab[3][a] for tab in tables]) for a in labels}
        counts = np.array([[len(tab[3][a]) for a in labels] for tab in tables])
        offset = np.cumsum(counts, axis=0) - counts
        local = np.concatenate([tab[4] + offset[p][tab[2]] for p, tab in enumerate(tables)])
        length = t1 - t0
        moving = (length > 0) & ~np.isin(ids, self._frozen)
        n_scan = np.where(moving, np.maximum(2, np.ceil(length / scan_step)), 0).astype(np.int64)
        step = length / np.maximum(n_scan, 1)
        # the scan points of all trajectories numbered in one sequence, segment
        # after segment: each segment's first number, and each trajectory's range
        bounds = np.concatenate([[0], np.cumsum(n_scan + 1)])
        head = bounds[:-1]
        n_segs = np.array([len(tab[0]) for tab in tables])
        pos, end = bounds[np.cumsum(n_segs) - n_segs], bounds[np.cumsum(n_segs)]

        def scan_points(p):
            """Segment, index in it and time of the scan points numbered p:
            np.linspace(t0, t1, n_scan + 1) of each segment."""
            k = np.searchsorted(head, p, side="right") - 1
            j = p - head[k]
            t = t0[k] + j * step[k]
            last = (j == n_scan[k]) & (j > 0)
            t[last] = t1[k[last]]
            return k, j, t

        # the scan point where each trajectory leaves the scan, and whether it
        # has no mass there
        leave, lost = np.full(len(trajs), -1), np.zeros(len(trajs), dtype=bool)
        live = np.arange(len(trajs))
        window = np.arange(SCAN_WINDOW)
        while live.size:
            p = pos[live, None] + window
            valid = p < end[live, None]
            k, _, t = scan_points(p[valid])
            m = np.empty(len(k))
            for i, a in enumerate(labels):
                on = ids[k] == i
                if on.any():
                    m[on] = self._flow_margins(a, starts[a][local[k[on]]], t[on] - t0[k[on]])
            margins = np.full(p.shape, np.inf)
            margins[valid] = m
            halt = ~(margins > 0.0)  # margin <= 0, or NaN where the flow has no mass
            halted = halt.any(axis=1)
            hit = np.flatnonzero(halted)
            i = np.argmax(halt[hit], axis=1)
            leave[live[hit]] = p[hit, i]
            lost[live[hit]] = np.isnan(margins[hit, i])
            pos[live] += SCAN_WINDOW
            live = live[~halted & (pos[live] < end[live])]
        gone = np.flatnonzero(lost)
        if gone.size:
            k, _, t = scan_points(leave[gone[:1]])
            raise FaceMassVanished(f"flow mass 0 on face {labels[ids[k[0]]]!r} "
                                   f"at t={t[0]}")
        tau = np.full(len(trajs), math.inf)
        found = np.flatnonzero(leave >= 0)
        at = leave[found]
        k, j, hi = scan_points(at)
        lo = scan_points(np.where(j > 0, at - 1, at))[2]
        width = np.full(len(found), math.inf)
        cut = np.arange(1, REFINE_POINTS)
        while True:
            # stops too where rounding halts progress
            act = np.flatnonzero((time_tol < hi - lo) & (hi - lo < width))
            if not act.size:
                break
            width[act] = hi[act] - lo[act]
            # np.linspace(lo, hi, REFINE_POINTS + 1)[1:-1] of every active cell
            ts = lo[act, None] + cut * (width[act] / REFINE_POINTS)[:, None]
            section = np.empty(ts.shape)
            for i, a in enumerate(labels):
                on = ids[k[act]] == i
                if on.any():
                    ks = k[act[on]]
                    section[on] = self._flow_margins(
                        a, np.repeat(starts[a][local[ks]], len(cut), axis=0),
                        (ts[on] - t0[ks, None]).ravel()).reshape(-1, len(cut))
            if np.isnan(section).any():
                r = np.flatnonzero(np.isnan(section).any(axis=1))[0]
                raise FaceMassVanished(f"flow mass 0 on face {labels[ids[k[act[r]]]]!r} "
                                       f"after t={lo[act[r]]}")
            inside = section <= 0.0
            i = np.argmax(inside, axis=1)
            rows = np.arange(len(act))
            hit = inside[rows, i]
            lo[act] = np.where(hit, np.where(i > 0, ts[rows, i - 1], lo[act]), ts[:, -1])
            hi[act] = np.where(hit, ts[rows, i], hi[act])
        tau[found] = hi
        return tau.tolist()


def stopping_rule(v: ValueFunction, eps: float = None) -> StoppingPolicy:
    """Policy from the eps-relaxed contact set; eps defaults to 2 * solver tol."""
    if eps is None:
        eps = 2.0 * v.info.get("tol", 1e-6)
    return StoppingPolicy(v, eps)


def evaluate_policy_mc(mu: Distribution, policy, prob: StoppingProblem,
                       n_sims: int, horizon: float, rng: RandomSource,
                       model: FilterModel = None):
    """Monte Carlo estimate (mean, stderr) of the policy's cost from mu.

    Path r is sampled from rng.stream(r) and observed through model.obs.
    The paths are filtered and scanned in chunks of MC_CHUNK: one
    run_filter_batch and one policy.first_entries(trajs) per chunk, which
    returns the stopping time of each trajectory (inf for never), then
    cost_along_filter per path.  A policy that has only first_entry(traj)
    is run path by path instead, through run_filter.  Both ways give every
    path the bits it has alone, so (mean, stderr) do not depend on the
    chunk.  Stopping is censored at the horizon (tau treated as infinite),
    valid when e^{-alpha horizon} (max|g| + max|l|/alpha) is negligible.
    """
    if n_sims < 1:
        raise ValueError("n_sims must be >= 1")
    if model is None:
        model = policy.model
    costs = np.empty(n_sims)
    for first in range(0, n_sims, MC_CHUNK):
        chunk = range(first, min(first + MC_CHUNK, n_sims))
        obs = [observe(sample_chain(model.rate, mu, horizon, rng.stream(r)), model.obs)
               for r in chunk]
        if hasattr(policy, "first_entries"):
            trajs = model.run_filter_batch(obs, mu)
            taus = policy.first_entries(trajs)
        else:
            trajs = [model.run_filter(y, mu) for y in obs]
            taus = [policy.first_entry(traj) for traj in trajs]
        for r, traj, tau in zip(chunk, trajs, taus):
            costs[r] = cost_along_filter(traj, math.inf if tau > horizon else tau, prob)
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
        I = op._sweep(v.values, a)[1]
        for k in op.check_ks:
            cont = op._continuation(I[k], v.values, a, k)
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
