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
from scipy.sparse import csr_array

from .chain import Distribution, RandomSource, observe, sample_chain
from .filtering import (FaceMassVanished, FacePoint, FilterModel, FilterTrajectory, PathStack,
                        _normalize_rows, _restrict)

DEFAULT_DT = 0.05  # mesh step of the Bellman operator and of the classical oracle
DEFAULT_TAIL_TOL = 1e-7
DEFAULT_CHECK_TIMES = (2.0, 3.0, 5.0)  # continue-to-t branches of the Bellman operator
REFINE_POINTS = 32  # parts a scan cell is cut into per round of first_entries
# scan points that first_entries takes of each live trajectory per round
SCAN_WINDOW = 128
# paths that evaluate_policy_mc filters and scans at once: their scan takes
# about 4 MB on perfbench/models/hexa6.json at horizon 40, against the 39 MB
# that the Bellman operator of that model keeps at grid 16
# (tools/solver_memory.py)
MC_CHUNK = 64
# the fewest mesh steps (two rows each) that the Bellman operator builds and
# sweeps at once on a label: every chunk pays a fixed cost in a sweep, and on
# perfbench/models/hexa6.json at grid 16 a 16-step chunk of the 969-point
# face takes about 5 MB of transient arrays in the build and 1.3 MB in a
# sweep (tracemalloc)
TIME_CHUNK = 16
# grid points times mesh steps of a chunk: a label of n grid points is built
# and swept in chunks of max(TIME_CHUNK, CHUNK_BUDGET // n) steps, so a face
# of a few points takes its whole time axis in one chunk or a few, and a face
# of 512 points or more keeps TIME_CHUNK.  On perfbench/models/hexa6.json at
# grid 16 the 17-point face takes 2 chunks, and its sweep 0.34 ms against
# 2 ms in 41 chunks (2-core x86 machine, one BLAS thread); in one chunk its
# build would add 4 MB to the peak RSS after the 969-point face's tables,
# against 1.7 MB in 2
CHUNK_BUDGET = 8 * 1024
# sup-norm spread of a face's flowed grid points, clipped and normalized, at
# and below which BellmanOperator flows them as one reference point: 64 ulps
# of 1, below which hexa6's 4-state face stays from node 309 (t = 15.45) on
TAIL_SPREAD = 64 * np.finfo(float).eps
# nodes and weights of the 16-point Gauss-Legendre rule of cost_along_filter
GAUSS_LEGENDRE = np.polynomial.legendre.leggauss(16)


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
    """Barycentric grid of resolution m on each face of the effective simplex.

    The n points of a d-state face are the compositions c of m into d parts,
    in _compositions order.  With staircase coordinates s_i = sum_{j>=i} c_j,
    the point c has there the rank n - 1 - sum_{0<i<d} C(s_i + d-1-i, d-i)."""

    def __init__(self, model: FilterModel, resolution: int):
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        self.model = model
        self.m = int(resolution)
        self.points = {}
        self._binom = {}
        for a, face in model.faces.items():
            d = len(face)
            self.points[a] = np.array(list(_compositions(self.m, d)), dtype=float) / self.m
            # C(s + d-1-i, d-i) for s = 0 .. m + 2; row 0 is zero, as s_0 = m has no term
            self._binom[a] = np.array([[math.comb(s + d - 1 - i, d - i) if i else 0
                                        for s in range(self.m + 3)] for i in range(d)])

    def n_points(self, a) -> int:
        return len(self.points[a])

    def interpolation_weights(self, a, W):
        """Simplicial (Freudenthal/Kuhn) interpolation on the face lattice.

        W: (M, d) rows of face coordinates summing to 1.  Returns index and
        weight arrays of shape (M, d+1); weights are a convex combination,
        exact on lattice points, so interpolated values stay within the
        corner values of the containing cell.  The index of a vertex is its
        rank, and raising s_j by one in a step of the Kuhn walk lowers the
        rank by one difference of the binomial table; a vertex of zero weight
        gets index n - 1 (the corner (m, 0, ..., 0)).  Raises RuntimeError for
        a vertex of positive weight that is not a lattice point.
        """
        m = self.m
        W = np.clip(np.asarray(W, dtype=float), 0.0, None)
        M, d = W.shape
        binom = self._binom[a]
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
        wgt[:, 1:d] = fs[:, : d - 1] - fs[:, 1:]
        wgt[:, d] = fs[:, d - 1]
        wgt = np.clip(wgt, 0.0, None)
        wgt /= wgt.sum(axis=1, keepdims=True)
        idx = np.empty((M, d + 1), dtype=np.int64)
        z = np.rint(v).astype(np.int64)
        # z only grows along the walk, so up to a lattice point it stays
        # within 0 .. m: clipping the lookups at the table's end changes no
        # rank that is kept
        n = self.n_points(a)
        rank = n - 1 - binom[np.arange(d), np.minimum(z, m + 2)].sum(axis=1)
        rows = np.arange(M)
        for k in range(d + 1):
            valid = wgt[:, k] > 1e-12
            off = (z[:, :-1] < z[:, 1:]).any(axis=1) | (z[:, 0] != m)
            if (valid & off).any():
                raise RuntimeError("interpolation vertex not on the grid")
            idx[:, k] = np.where(valid, rank, n - 1)
            wgt[:, k] = np.where(valid, wgt[:, k], 0.0)
            if k < d:
                j = order[:, k]
                zj = np.minimum(z[rows, j], m + 1)
                rank -= binom[j, zj + 1] - binom[j, zj]
                z[rows, j] += 1
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
    smallest t.  Integrals use composite Simpson on the half-step mesh:
    row 2k is the node t_k = k dt and row 2k + 1 the midpoint t_k + dt/2.

    Each label a's time axis is split at its tail-start node k_T
    (tail_start[a]): the first node from which on the face's flowed grid
    points, clipped and normalized, agree within TAIL_SPREAD (sup norm) at
    every node and midpoint; k_T = K where they never do (frozen flows, as
    on cyclic4, or a face that converges only algebraically, as hexa6's
    face b).  A pre-pass flows the grid points to K to find it and keeps
    nothing, so k_T depends neither on the chunk length nor on where the
    spread first falls.  Nodes 0 .. k_T are built and swept in chunks of
    max(TIME_CHUNK, CHUNK_BUDGET // n) mesh steps for the n grid points of
    face a, so the transient arrays are those of one chunk, a face of a few
    points pays the fixed cost of a chunk only once or a few times per
    sweep, and the results do not depend on the chunk.  Retained per chunk and
    grid point: at every row, the flowed running cost and, for each other
    label b, the flux into b; at every node, the discounted flowed obstacle
    and survival mass; per other label b, one CSR gather matrix that
    interpolates v on face b at the jump targets of the chunk's rows (int32
    indices, the interpolation weights as data); and one such matrix per
    branch time for the flowed points of face a itself.  A sweep gathers
    every row once: each chunk carries into the next the integrand at its
    last node and midpoint, which only the next chunk's first Simpson
    interval uses.

    Past k_T the face keeps the same tables for one point only, the
    reference flow y(t) from the mass-weighted mean y of the clipped points
    at k_T, plus each point's mass w_i there; on hexa6's 4-state face at
    grid 16 that halves the retained tables (78 to 39 MB).  Point i's
    unnormalized flow is w_i x_i e^{s Lambda_A} at s = t - t_kT, and every
    tail table is linear in the unnormalized flow but for the jump targets
    and flowed points, which are normalized, so with x_i replaced by y a
    sweep takes I_k(i) = I_kT(i) + w_i J_k, J being the reference's own
    integral from t_kT, the tail's stop minimum as
    I_kT(i) + w_i min_k (J_k + S_k) (w_i >= 0), and a continue-to-t_k
    branch past k_T as I_kT(i) + w_i (J_k + M_k v_a(y_k)).  This is exact
    up to the spread: the normalized y(t) is a convex combination of the
    points' normalized flows, which agree within TAIL_SPREAD at every row
    checked, and |x_i - y| <= TAIL_SPREAD per coordinate moves a point's
    mass relative to the reference's by at most d TAIL_SPREAD times the
    ratio of the largest to the smallest survival probability from one
    state of the face.  A face with a single grid point has k_T = 0,
    w = 1 and the same bits as without a tail.
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
        # e^{-alpha t} at the 2K + 1 rows of the mesh
        self.disc = np.empty(2 * K + 1)
        self.disc[::2] = np.exp(-alpha * self.times)
        self.disc[1::2] = np.exp(-alpha * (self.times[:K] + dt / 2))
        # e^{dt Lambda_A} and e^{dt/2 Lambda_A} per label
        self._steps = {a: (expm(dt * model._sub[a].matrix), expm(0.5 * dt * model._sub[a].matrix))
                       for a in model.obs.labels}
        self.tail_start = {a: self._tail_start(a) for a in model.obs.labels}
        self._pre = {a: self._build(a) for a in model.obs.labels}

    def _chunk_steps(self, a) -> int:
        """Mesh steps per chunk of label a: max(TIME_CHUNK, CHUNK_BUDGET // n)
        for the n grid points of face a."""
        return max(TIME_CHUNK, CHUNK_BUDGET // self.grid.n_points(a))

    def _flows(self, a, k_end: int):
        """(k0, k1, X) per chunk of nodes 0 .. k_end of the flowed grid points
        of face a: X holds the mesh rows from node k0 through node k1 - 1
        and its midpoint (none after node k_end), unclipped."""
        start = self.grid.points[a]
        steps = self._chunk_steps(a)
        for k0 in range(0, k_end + 1, steps):
            k1 = min(k0 + steps, k_end + 1)
            X = self._flow(a, start, min(2 * k1, 2 * k_end + 1) - 2 * k0)
            start = X[::2][-1] @ self._steps[a][0]  # before the caller clips X
            yield k0, k1, X

    def _flow(self, a, start: np.ndarray, n_rows: int) -> np.ndarray:
        """n_rows rows of the half-step mesh from the node `start` on: node
        k + 1 is node k times e^{dt Lambda_A} and midpoint k is node k times
        e^{dt/2 Lambda_A}, both from the unclipped node."""
        E, Eh = self._steps[a]
        X = np.empty((n_rows,) + start.shape)
        X[0] = start
        for i in range(2, n_rows, 2):
            X[i] = X[i - 2] @ E
        X[1::2] = X[:-1:2] @ Eh
        return X

    def _tail_start(self, a) -> int:
        """k_T of label a: one past the last node or midpoint whose flowed
        grid points, clipped and normalized, spread by more than TAIL_SPREAD
        in some coordinate (or have no mass), and at most K."""
        k_tail = 0
        for k0, _, X in self._flows(a, self.K):
            # rows, coordinates, points, so that the reductions over the
            # points run along contiguous memory
            P = np.maximum(X.transpose(0, 2, 1), 0.0, order="C")
            with np.errstate(invalid="ignore", divide="ignore"):
                P /= P.sum(axis=1, keepdims=True)
            spread = (P.max(axis=2) - P.min(axis=2)).max(axis=1)
            wide = np.flatnonzero(~(spread <= TAIL_SPREAD))
            if wide.size:
                k_tail = k0 + int(wide[-1]) // 2 + 1
        return min(k_tail, self.K)

    def _gather(self, b, X: np.ndarray):
        """CSR matrix whose row r interpolates values on face b at the point
        X[r]: d_b + 1 entries per row, the indices and weights of
        interpolation_weights in their order, zero weights kept, so that
        (G @ values[b])[r] sums the products left to right, as
        (values[b][idx] * wgt).sum(axis=1) does."""
        idx, wgt = self.grid.interpolation_weights(b, X)
        rows, c = idx.shape
        indptr = np.arange(0, rows * c + 1, c, dtype=np.int32)
        return csr_array((wgt.ravel(), idx.astype(np.int32).ravel(), indptr),
                         shape=(rows, self.grid.n_points(b)))

    def _build(self, a) -> dict:
        """Label a's retained tables: the chunks of nodes 0 .. k_T ("body"),
        and past k_T the one chunk of the reference flow ("tail", empty for
        k_T = K) with the masses "w" that lift it onto the grid points."""
        K, k_tail = self.K, self.tail_start[a]
        e = {"n": self.grid.n_points(a), "body": [], "tail": []}
        for k0, k1, X in self._flows(a, k_tail):
            last = X[::2][-1].copy()
            e["body"].append(self._chunk(a, X, k0, k1, 2 * k0))
        if k_tail < K:
            P = np.maximum(last, 0.0)
            e["w"] = P.sum(axis=1)
            y = P.sum(axis=0) / e["w"].sum()
            X = self._flow(a, y[None, :], 2 * (K - k_tail) + 1)
            e["tail"].append(self._chunk(a, X, k_tail + 1, K + 1, 2 * k_tail))
        return e

    def _chunk(self, a, X: np.ndarray, k0: int, k1: int, row0: int) -> dict:
        """The tables of nodes k0 .. k1 - 1 from X, the unclipped mesh rows
        from row row0 on (one node before k0 in a tail chunk), which are
        clipped in place."""
        model = self.model
        face = model.faces[a]
        rows = slice(row0, row0 + len(X))
        disc = self.disc[rows][::2][k0 - k1:, None]
        np.clip(X, 0.0, None, out=X)
        nodes = X[::2][k0 - k1:]
        c = {"nodes": (k0, k1), "rows": rows, "run": X @ self.prob.l[face],
             "stop": disc * (nodes @ self.prob.g[face]), "mass": disc * nodes.sum(axis=2),
             "jumps": [], "self_gather": {}}
        for b in model._others[a]:
            T = X @ model._out_rows[a][:, model.faces[b]]
            Tn, flux = _restrict(T)
            c["jumps"].append((b, flux, self._gather(b, Tn.reshape(-1, T.shape[-1]))))
        for k in self._branch_ks:
            if k0 <= k < k1:
                c["self_gather"][k] = self._gather(a, _restrict(nodes[k - k0])[0])
        return c

    def _pass(self, chunks: list, values: dict, a, I_prev: np.ndarray):
        """The stop minimum, the continue-to-t_k branches and the last I of
        the chunks in order, I starting at I_prev (see _sweep)."""
        best = None
        cont = {}
        carry = None
        for c in chunks:
            k0, k1 = c["nodes"]
            jump = np.zeros_like(c["run"])
            for b, flux, G in c["jumps"]:
                jump += flux * (G @ values[b]).reshape(jump.shape)
            q = self.disc[c["rows"], None] * (c["run"] + jump)
            if carry is not None:  # from node k0 - 1
                q = np.concatenate([carry, q])
            I = np.empty(((len(q) + 1) // 2, q.shape[1]))
            I[0] = I_prev
            s = q[: 2 * len(I) - 1]  # through the last node
            I[1:] = (self.dt / 6.0) * (s[:-2:2] + 4.0 * s[1::2] + s[2::2])
            np.cumsum(I, axis=0, out=I)
            I = I[len(I) - (k1 - k0):]  # nodes k0 .. k1 - 1
            I_prev = I[-1]
            carry = q[-2:]
            low = (I + c["stop"]).min(axis=0)
            best = low if best is None else np.minimum(best, low)
            for k, G in c["self_gather"].items():
                cont[k] = I[k - k0] + c["mass"][k - k0] * (G @ values[a])
        return best, cont, I_prev

    def _sweep(self, values: dict, a):
        """One pass over label a's time axis: the minimum over the stop
        branches I_k + e^{-alpha t_k} S_k psi(phi_k), and a dict from each
        branch step k to the continue-to-t_k branch
        I_k + e^{-alpha t_k} S_k v(phi_k), where I_k is the cumulative
        Simpson integral of the discounted running-plus-jump integrand.  Each
        chunk gathers its own rows once; the integrand at the node and
        midpoint before it is carried over from the chunk before, and I of
        that node starts np.cumsum, so I_k is summed in mesh order whatever
        the chunk.  The tail's J starts at 0 at node k_T, and is lifted onto
        the grid points as I_kT + w J."""
        e = self._pre[a]
        best, cont, I_T = self._pass(e["body"], values, a, np.zeros(e["n"]))
        low, tail, _ = self._pass(e["tail"], values, a, np.zeros(1))
        if e["tail"]:
            best = np.minimum(best, I_T + e["w"] * low)
        for k, c in tail.items():
            cont[k] = I_T + e["w"] * c
        return best, cont

    def update(self, values: dict, a) -> np.ndarray:
        """(T v) on face a: sweep label a against values, then take the
        minimum over its stop and continue branches."""
        best, cont = self._sweep(values, a)
        for k in self._branch_ks:
            np.minimum(best, cont[k], out=best)
        return best

    def apply(self, values: dict) -> dict:
        """T v: every label updated against the same values (Jacobi)."""
        return {a: self.update(values, a) for a in self.model.obs.labels}


def solve_value(model: FilterModel, prob: StoppingProblem, grid: FaceGrid,
                tol: float = 1e-6, max_iter: int = 10000) -> ValueFunction:
    """Gauss-Seidel value iteration from the obstacle psi.

    A pass updates the labels in the order of model.obs.labels, each with
    BellmanOperator.update against the values as the labels before it in
    the same pass have left them, so it converges to the fixed point of T
    (BellmanOperator.apply) in fewer passes than Jacobi sweeps of T.  info
    records the sup-norm change of every pass in "deltas", and in
    "residual" the sup-norm of T v - v for the values v returned, from one
    apply.  Each pass whose change is below tol is followed by that apply,
    and the solve returns at the first one whose residual is below tol too.
    Raises ValueError for a tol that is not positive or a max_iter below 1,
    and NoConvergence when max_iter passes end without it."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    op = BellmanOperator(model, grid, prob)
    values = psi_values(grid, prob)
    deltas = []
    for iterations in range(1, max_iter + 1):
        delta = 0.0
        for a in model.obs.labels:
            new = op.update(values, a)
            delta = max(delta, float(np.abs(new - values[a]).max()))
            values[a] = new
        deltas.append(delta)
        if delta < tol:
            final = op.apply(values)
            residual = max(float(np.abs(final[a] - values[a]).max()) for a in final)
            if residual < tol:
                break
    else:
        raise NoConvergence(f"no convergence in {max_iter} passes (last change {deltas[-1]})")
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


def contraction_bound(op: BellmanOperator) -> float:
    """beta-bar, a sup-norm Lipschitz constant of T = op.apply.

    Each branch of T is affine in v with a nonnegative linear part L (Simpson
    and interpolation weights, fluxes and masses are all >= 0), so its
    Lipschitz constant is the largest entry of L 1 = branch(1) - branch(0),
    and T, their minimum, has at most the largest over branches.  A stop
    branch's L 1 is the integral to t_k alone, which grows with k, so the
    continue branches, which add a nonnegative mass, dominate them; the
    bound is the largest entry of branch(1) - branch(0) over labels, grid
    points and continue branches, from two sweeps per label.  For beta-bar
    < 1 every v has ||v - v*|| <= ||T v - v|| / (1 - beta-bar) from the
    fixed point v* of T."""
    labels = op.model.obs.labels
    ones = {a: np.ones(op.grid.n_points(a)) for a in labels}
    zeros = {a: np.zeros(op.grid.n_points(a)) for a in labels}
    beta = 0.0
    for a in labels:
        hi, lo = op._sweep(ones, a)[1], op._sweep(zeros, a)[1]
        beta = max(beta, max(float((hi[k] - lo[k]).max()) for k in hi))
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
    nodes, weights = GAUSS_LEGENDRE
    stack = PathStack([traj])
    t0 = stack.t0
    length = np.minimum(stack.t1, t_end) - t0
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
    for a, on, W in stack.rows(seg, ts):
        W = np.clip(W, 0.0, None)
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

    def _flow_margins(self, stack: PathStack, seg: np.ndarray, dt: np.ndarray) -> np.ndarray:
        """Margins at the stack's flowed points (seg, dt), NaN where no mass is left."""
        out = np.full(len(seg), np.nan)
        for a, on, W in stack.rows(seg, dt):
            ok = W.sum(axis=1) > 0
            out[on[ok]] = self._margins(a, _normalize_rows(W[ok], dt[on[ok]]))
        return out

    def first_entry(self, traj: FilterTrajectory, time_tol: float = 1e-8,
                    scan_step: float = 0.02) -> float:
        """first_entries([traj], time_tol, scan_step)[0]."""
        return self.first_entries([traj], time_tol, scan_step)[0]

    def first_entries(self, trajs, time_tol: float = 1e-8, scan_step: float = 0.02) -> list:
        """First entry time into the contact set along each trajectory, or inf.

        The trajectories are stacked in one PathStack and scanned in rounds:
        each round scores the next SCAN_WINDOW scan points of every
        trajectory still in the scan with one call of the stack's evaluator.
        A segment [t0, t1] is scanned at t0 and, unless its flow is frozen
        (a scalar sub-generator), at ceil((t1 - t0) / scan_step) evenly
        spaced times after it, the last at t1.  A trajectory leaves the scan
        at its first point with margin <= 0 (its entry) or without flow
        mass, or when its points run out.  Unless the entry is a segment
        start, its scan cell is cut into REFINE_POINTS parts, the first part
        whose right end has margin <= 0 is cut again, and so on until the
        part is no wider than time_tol, one evaluator call per round for all
        trajectories; its right end is returned.  So a result has
        margin <= 0 and lies within time_tol of a time with margin > 0, and
        an entry and exit between two points of a section are missed.  A
        time t is evaluated at the offset t - t0, as value_at evaluates it,
        so should_stop(traj.value_at(tau)) scores the point that ended the
        search.  Every step works row by row, so a result depends neither on
        its batch nor on SCAN_WINDOW.  Raises FaceMassVanished, for the
        first such trajectory of the batch, where x_A e^{t Lambda_A}
        underflows at a scan point before the entry.
        """
        if not trajs:
            return []
        labels = self.model.obs.labels
        stack = PathStack(trajs)
        t0, t1, ids = stack.t0, stack.t1, stack.ids
        length = t1 - t0
        moving = (length > 0) & ~np.isin(ids, self._frozen)
        n_scan = np.where(moving, np.maximum(2, np.ceil(length / scan_step)), 0).astype(np.int64)
        step = length / np.maximum(n_scan, 1)
        # the scan points of all trajectories numbered in one sequence, segment
        # after segment: each segment's first number, and each trajectory's range
        bounds = np.concatenate([[0], np.cumsum(n_scan + 1)])
        head = bounds[:-1]
        pos, end = bounds[stack.first[:-1]], bounds[stack.first[1:]]

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
            margins = np.full(p.shape, np.inf)
            margins[valid] = self._flow_margins(stack, k, t - t0[k])
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
            section = self._flow_margins(stack, np.repeat(k[act], len(cut)),
                                         (ts - t0[k[act], None]).ravel()).reshape(ts.shape)
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
    run_filter_batch, which fills one array set for the chunk, and one
    policy.first_entries(trajs), which scans it through one evaluator and
    returns the stopping time of each trajectory (inf for never); then
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
        cont = op._sweep(v.values, a)[1]
        for k in op.check_ks:
            cont_violation = max(cont_violation, float((v.values[a] - cont[k]).max()))
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
