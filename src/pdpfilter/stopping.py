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
import numbers
from dataclasses import dataclass

import numpy as np

from .chain import Distribution, RandomSource, observe, sample_chain
from .filtering import (FaceMassVanished, FacePoint, FilterModel, FilterTrajectory, PathStack,
                        _restrict)

DEFAULT_DT = 0.05  # mesh step of the Bellman operator and of the classical oracle
DEFAULT_TAIL_TOL = 1e-7
DEFAULT_CHECK_TIMES = (2.0, 3.0, 5.0)  # continue-to-t branches of the Bellman operator
SOLVER_TOL = 1e-6  # sup-norm change and residual at which solve_value stops
MAX_ITER = 10000  # passes of solve_value, and sweeps of the classical oracle
VARIATIONAL_TOL = 5e-6  # violation below which verify_variational passes
REFINE_POINTS = 32  # parts a scan cell is cut into per round of first_entries
# scan points that first_entries takes of each live trajectory per round
SCAN_WINDOW = 128
SCAN_STEP = 0.02  # largest spacing of first_entries' scan points on a segment
ENTRY_TIME_TOL = 1e-8  # width of the scan cell part whose right end first_entries returns
# paths that evaluate_policy_mc filters and scans at once: their scan takes
# about 4 MB on perfbench/models/hexa6.json at horizon 40, against the 25 MB
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
# nodes and weights of the 16-point Gauss-Legendre rule of the cost along a path
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
        if not (isinstance(resolution, numbers.Real) and resolution >= 1 and resolution % 1 == 0):
            raise ValueError(f"grid resolution must be an integer >= 1, got {resolution!r}")
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
        weight arrays of shape (M, d): the first d of the cell's d + 1
        vertices, as the last always weighs 0 (staircase coordinate 0 is
        pinned at m, so the smallest fractional part is 0).  The weights are
        a convex combination, exact on lattice points, so interpolated values
        stay within the corner values of the containing cell.  The index of a
        vertex is its rank, and raising s_j by one in a step of the Kuhn walk
        lowers the rank by one difference of the binomial table; a vertex of
        zero weight gets index n - 1 (the corner (m, 0, ..., 0)).  Raises
        RuntimeError for a vertex of positive weight that is not a lattice
        point.
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
        wgt = np.empty((M, d))
        wgt[:, 0] = 1.0 - fs[:, 0]
        wgt[:, 1:] = fs[:, : d - 1] - fs[:, 1:]
        wgt = np.clip(wgt, 0.0, None)
        wgt /= wgt.sum(axis=1, keepdims=True)
        idx = np.empty((M, d), dtype=np.int64)
        z = np.rint(v).astype(np.int64)
        # z only grows along the walk, so up to a lattice point it stays
        # within 0 .. m: clipping the lookups at the table's end changes no
        # rank that is kept
        n = self.n_points(a)
        rank = n - 1 - binom[np.arange(d), np.minimum(z, m + 2)].sum(axis=1)
        rows = np.arange(M)
        for k in range(d):
            valid = wgt[:, k] > 1e-12
            off = (z[:, :-1] < z[:, 1:]).any(axis=1) | (z[:, 0] != m)
            if (valid & off).any():
                raise RuntimeError("interpolation vertex not on the grid")
            idx[:, k] = np.where(valid, rank, n - 1)
            wgt[:, k] = np.where(valid, wgt[:, k], 0.0)
            if k < d - 1:
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


def _own_problem(v: ValueFunction) -> StoppingProblem:
    """The stopping problem v was solved or made for; ValueError for a v that carries none."""
    if v.problem is None:
        raise ValueError("value function carries no stopping problem")
    return v.problem


def psi_values(grid: FaceGrid, prob: StoppingProblem) -> dict:
    """Obstacle psi(nu) = nu g on the grid."""
    out = {}
    for a, face in grid.model.faces.items():
        out[a] = grid.points[a] @ prob.g[face]
    return out


def _mesh_steps(alpha: float) -> int:
    """K, the DEFAULT_DT steps to T_max = ceil(-log(DEFAULT_TAIL_TOL) / alpha / dt) dt,
    past which the discount e^{-alpha t} is below DEFAULT_TAIL_TOL."""
    t_max = math.ceil((-math.log(DEFAULT_TAIL_TOL) / alpha) / DEFAULT_DT) * DEFAULT_DT
    return max(1, int(round(t_max / DEFAULT_DT)))


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
    Every row comes from one table per label, built once: the face's d
    corners flowed to each row time t_r by the package propagator
    (FilterModel._sub[a].rows), C[r] = e^{t_r Lambda_A}.  A grid point x
    has x C[r] at row r, so no row depends on the rows before it or on the
    chunk that holds it.

    Each label a's time axis is split at its tail-start node k_T
    (tail_start[a]): the first node from which on the face's flowed grid
    points, clipped and normalized, agree within TAIL_SPREAD (sup norm) at
    every node and midpoint; k_T = K where they never do (frozen flows, as
    on cyclic4, or a face that converges only algebraically, as hexa6's
    face b).  It is read off the corner table alone: every grid point's
    unnormalized flow is the same convex combination of the corners'
    flows, so its clipped, normalized flow is a mass-weighted convex
    combination of theirs, and the spread over all grid points is
    the spread over the corners, which are grid points themselves.  So k_T
    depends neither on the chunk length nor on where the spread first
    falls.  Nodes 0 .. k_T are built and swept in chunks of
    max(TIME_CHUNK, CHUNK_BUDGET // n) mesh steps for the n grid points of
    face a, so the transient arrays are those of one chunk, a face of a few
    points pays the fixed cost of a chunk only once or a few times per
    sweep, and the results do not depend on the chunk.  Retained per chunk
    and grid point, each with every factor that does not depend on v: at
    every row t_r, the running cost times e^{-alpha t_r}; at every node, the
    discounted obstacle; per other label b, one CSR gather matrix that
    interpolates v on face b at the rows' jump targets (int32 indices), its
    weights times e^{-alpha t_r} and the flux into b; and per branch time
    t_k, one for face a's flowed points, its weights times e^{-alpha t_k} and
    their survival mass.  A sweep takes the integrand as run + sum_b G_b v_b
    and a continue-to-t_k branch as I_k + G_k v_a, and gathers every row
    once: each chunk carries into the next the integrand at its last node
    and midpoint, which only the next chunk's first Simpson interval uses.

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
        if len(prob.g) != model.n:
            raise ValueError(f"stopping problem has {len(prob.g)} entries per vector, "
                             f"model has {model.n} states")
        self.model = model
        self.grid = grid
        self.prob = prob
        alpha = prob.alpha
        dt = DEFAULT_DT
        K = _mesh_steps(alpha)
        self.dt = dt
        self.K = K
        self.t_max = K * dt
        self.times = np.arange(K + 1) * dt
        # mesh steps of the check times (clamped to K), and of every continuation branch
        self.check_ks = sorted({min(int(round(c / dt)), K) for c in DEFAULT_CHECK_TIMES})
        self._branch_ks = sorted(set(self.check_ks) | {K})
        # the 2K + 1 rows of the mesh: node k at t_k, then its midpoint t_k + dt/2
        t_rows = np.empty(2 * K + 1)
        t_rows[::2] = self.times
        t_rows[1::2] = self.times[:K] + dt / 2
        self.disc = np.exp(-alpha * t_rows)
        # per label, the face's corners flowed to every row: C[r] = e^{t_r Lambda_A}
        self._corners = {}
        for a in model.obs.labels:
            d = len(model.faces[a])
            flowed = model._sub[a].rows(np.tile(np.eye(d), (len(t_rows), 1)), np.repeat(t_rows, d))
            self._corners[a] = flowed.reshape(len(t_rows), d, d)
        self.tail_start = {a: self._tail_start(a) for a in model.obs.labels}
        self._pre = {a: self._build(a) for a in model.obs.labels}

    def _chunk_steps(self, a) -> int:
        """Mesh steps per chunk of label a: max(TIME_CHUNK, CHUNK_BUDGET // n)
        for the n grid points of face a."""
        return max(TIME_CHUNK, CHUNK_BUDGET // self.grid.n_points(a))

    def _tail_start(self, a) -> int:
        """k_T of label a: one past the last node or midpoint whose flowed
        face corners, clipped and normalized, spread by more than TAIL_SPREAD
        in some coordinate (or have no mass), and at most K."""
        P = np.maximum(self._corners[a], 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            P /= P.sum(axis=2, keepdims=True)
        spread = (P.max(axis=1) - P.min(axis=1)).max(axis=1)
        wide = np.flatnonzero(~(spread <= TAIL_SPREAD))
        return min(int(wide[-1]) // 2 + 1, self.K) if wide.size else 0

    def _gather(self, b, X: np.ndarray, scale: np.ndarray):
        """CSR matrix whose row r interpolates values on face b at X[r] times
        scale[r] >= 0, X and scale flattened to (rows, d_b) and (rows,): d_b
        entries per row, interpolation_weights' indices in their order and its
        weights times scale[r], zero weights kept, so that (G @ values[b])[r]
        sums the products left to right, as (values[b][idx] * data).sum(axis=1)."""
        from scipy.sparse import csr_array

        idx, wgt = self.grid.interpolation_weights(b, X.reshape(-1, X.shape[-1]))
        wgt *= scale.reshape(-1, 1)
        rows, c = idx.shape
        indptr = np.arange(0, rows * c + 1, c, dtype=np.int32)
        return csr_array((wgt.ravel(), idx.astype(np.int32).ravel(), indptr),
                         shape=(rows, self.grid.n_points(b)))

    def _build(self, a) -> dict:
        """Label a's retained tables: the chunks of nodes 0 .. k_T ("body"),
        and past k_T the one chunk of the reference flow ("tail", empty for
        k_T = K) with the masses "w" that lift it onto the grid points."""
        K, k_tail = self.K, self.tail_start[a]
        C, points = self._corners[a], self.grid.points[a]
        e = {"n": self.grid.n_points(a), "body": [], "tail": []}
        steps = self._chunk_steps(a)
        for k0 in range(0, k_tail + 1, steps):
            k1 = min(k0 + steps, k_tail + 1)
            # the mesh rows from node k0 through node k1 - 1 and its midpoint
            # (none after node k_T)
            X = points @ C[2 * k0:min(2 * k1, 2 * k_tail + 1)]
            e["body"].append(self._chunk(a, X, k0, k1, 2 * k0))
        if k_tail < K:
            P = np.maximum(points @ C[2 * k_tail], 0.0)
            e["w"] = P.sum(axis=1)
            y = P.sum(axis=0) / e["w"].sum()
            X = y[None, :] @ C[:2 * (K - k_tail) + 1]
            e["tail"].append(self._chunk(a, X, k_tail + 1, K + 1, 2 * k_tail))
        return e

    def _chunk(self, a, X: np.ndarray, k0: int, k1: int, row0: int) -> dict:
        """The tables of nodes k0 .. k1 - 1 from X, the unclipped mesh rows
        from row row0 on (one node before k0 in a tail chunk), which are
        clipped in place."""
        model = self.model
        face = model.faces[a]
        disc = self.disc[row0:row0 + len(X), None]
        np.clip(X, 0.0, None, out=X)
        nodes, node_disc = X[::2][k0 - k1:], disc[::2][k0 - k1:]
        c = {"nodes": (k0, k1), "run": disc * (X @ self.prob.l[face]),
             "stop": node_disc * (nodes @ self.prob.g[face]), "jumps": [], "self_gather": {}}
        for b in model._others[a]:
            Tn, flux = _restrict(X @ model._out_rows[a][:, model.faces[b]])
            c["jumps"].append((b, self._gather(b, Tn, disc * flux)))
        for k in self._branch_ks:
            if k0 <= k < k1:
                x, mass = _restrict(nodes[k - k0])
                c["self_gather"][k] = self._gather(a, x, node_disc[k - k0] * mass)
        return c

    def _pass(self, chunks: list, values: dict, a, I_prev: np.ndarray):
        """The stop minimum, the continue-to-t_k branches and the last I of
        the chunks in order, I starting at I_prev (see _sweep)."""
        best = None
        cont = {}
        carry = None
        for c in chunks:
            k0, k1 = c["nodes"]
            q = c["run"] + sum((G @ values[b]).reshape(c["run"].shape) for b, G in c["jumps"])
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
                cont[k] = I[k - k0] + G @ values[a]
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
                tol: float = SOLVER_TOL) -> ValueFunction:
    """Gauss-Seidel value iteration from the obstacle psi.

    A pass updates the labels in the order of model.obs.labels, each with
    BellmanOperator.update against the values as the labels before it in
    the same pass have left them, so it converges to the fixed point of T
    (BellmanOperator.apply) in fewer passes than Jacobi sweeps of T.  info
    records the sup-norm change of every pass in "deltas", and in
    "residual" the sup-norm of T v - v for the values v returned, from one
    apply.  Each pass whose change is below tol is followed by that apply,
    and the solve returns at the first one whose residual is below tol too.
    Raises ValueError for a tol that is not positive, and NoConvergence
    when MAX_ITER passes end without it."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    op = BellmanOperator(model, grid, prob)
    values = psi_values(grid, prob)
    deltas = []
    for iterations in range(1, MAX_ITER + 1):
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
        raise NoConvergence(f"no convergence in {MAX_ITER} passes (last change {deltas[-1]})")
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


def contraction_bound(op: BellmanOperator) -> float:
    """beta-bar, a sup-norm Lipschitz constant of T = op.apply.

    Each branch of T is affine in v with a nonnegative linear part L (Simpson
    weights; gather weights carry discounts, fluxes and masses), so its
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
    """e^{-alpha tau} Pi_tau g + int_0^tau e^{-alpha s} Pi_s l ds: _costs of
    the one-path stack.  tau = math.inf drops the g-term and integrates to
    the horizon; ValueError for a finite tau outside [0, horizon]."""
    return float(_costs(PathStack([traj]), [tau], prob)[0])


def _costs(stack: PathStack, taus, prob: StoppingProblem) -> np.ndarray:
    """cost_along_filter of each trajectory of the stack at its tau.

    Segment integrals use chunked 16-point Gauss-Legendre on the flow.  The
    nodes of every chunk and the g-term points, those of value_at(tau), come
    from one call of the stack's evaluator.  A trajectory's terms are
    term-by-term products summed in time order, the g-term last, so its cost
    has the bits it has alone.  Raises FaceMassVanished where x_A e^{t
    Lambda_A} underflows at a node or at tau."""
    model, alpha, t0 = stack.model, prob.alpha, stack.t0
    taus = np.asarray(taus, dtype=float)
    path = np.repeat(np.arange(len(taus)), np.diff(stack.first))
    horizon = stack.t1[stack.first[1:] - 1]
    if not ((taus >= 0) & ((taus <= horizon + 1e-12) | (taus == math.inf))).all():
        raise ValueError("tau must lie in [0, horizon] or be infinite")
    t_end = np.minimum(taus, horizon)
    nodes, weights = GAUSS_LEGENDRE
    length = np.minimum(stack.t1, t_end[path]) - t0
    n_chunks = np.where(length > 0, np.maximum(1, np.ceil(length / 2.0)), 0).astype(np.int64)
    # chunk c of a segment spans [c, c + 1] * length / n_chunks
    seg, c = _ragged(n_chunks)
    step = (length / np.maximum(n_chunks, 1))[seg]
    lo = c * step
    half = 0.5 * (np.where(c + 1 == n_chunks[seg], length[seg], (c + 1) * step) - lo)[:, None]
    ts = (lo[:, None] + half * (nodes + 1.0)).ravel()
    seg = np.repeat(seg, len(nodes))
    # a finite tau's g-term is at the last segment that starts by t_end, as in value_at
    fin = np.flatnonzero(taus < math.inf)
    held = stack.first[fin] + np.bincount(path[t0 <= t_end[path]])[fin] - 1
    coef = np.concatenate([(half * weights).ravel() * np.exp(-alpha * (t0[seg] + ts)),
                           np.exp(-alpha * taus[fin])])
    n, seg, dt = len(ts), np.concatenate([seg, held]), np.concatenate([ts, t_end[fin] - t0[held]])
    vals = np.full(len(seg), np.nan)
    for a, on, X in stack.points(seg, dt):
        face = model.faces[a]
        vals[on] = (X * np.where((on < n)[:, None], prob.l[face], prob.g[face])).sum(axis=1)
    if np.isnan(vals).any():
        k = int(np.argmax(np.isnan(vals)))  # the first pair without flow mass
        raise FaceMassVanished(f"flow mass 0 on face {model.obs.labels[stack.ids[seg[k]]]!r} "
                               f"at t={t0[seg[k]] + dt[k]}")
    return np.bincount(path[seg], weights=coef * vals, minlength=len(taus))


def _ragged(counts: np.ndarray):
    """For counts[k] items owned by each k: every item's owner and its index
    within the owner."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


class StoppingPolicy:
    """Stop at first entry of the filter into the eps-relaxed contact set
    {nu : nu g <= v(nu) + eps}."""

    def __init__(self, value: ValueFunction, eps: float):
        self.value = value
        self.prob = _own_problem(value)
        self.eps = float(eps)
        self.model = value.grid.model
        # indices of the labels whose sub-generator is scalar, up to 1e-14 in
        # every entry: the flow (and the margin) is constant on their faces
        self._frozen = []
        for i, a in enumerate(self.model.obs.labels):
            M = self.model._sub[a].matrix
            if np.allclose(M, M[0, 0] * np.eye(len(M)), rtol=0.0, atol=1e-14):
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
        """Margins at the stack's flow points (seg, dt), NaN where no mass is left."""
        out = np.full(len(seg), np.nan)
        for a, on, X in stack.points(seg, dt):
            out[on] = self._margins(a, X)
        return out

    def first_entry(self, traj: FilterTrajectory) -> float:
        """first_entries([traj])[0]."""
        return self.first_entries([traj])[0]

    def first_entries(self, trajs) -> list:
        """First entry time into the contact set along each trajectory, or inf.

        The trajectories are stacked in one PathStack and scanned in rounds:
        each round scores the next SCAN_WINDOW scan points of every
        trajectory still in the scan with one call of the stack's evaluator.
        A segment [t0, t1] is scanned at t0 and, unless its flow is frozen
        (a scalar sub-generator), at ceil((t1 - t0) / SCAN_STEP) evenly
        spaced times after it, the last at t1.  A trajectory leaves the scan
        at its first point with margin <= 0 (its entry) or without flow
        mass, or when its points run out.  Unless the entry is a segment
        start, its scan cell is cut into REFINE_POINTS parts, the first part
        whose right end has margin <= 0 is cut again, and so on until the
        part is no wider than ENTRY_TIME_TOL, one evaluator call per round
        for all trajectories; its right end is returned.  So a result has
        margin <= 0 and lies within ENTRY_TIME_TOL of a time with margin
        > 0, and an entry and exit between two points of a section are
        missed.  A time t is evaluated at the offset t - t0, as value_at
        evaluates it, so should_stop(traj.value_at(tau)) scores the point
        that ended the search.  Every step works row by row, so a result
        depends neither on its batch nor on SCAN_WINDOW.  Raises
        FaceMassVanished, for the first such trajectory of the batch, where
        x_A e^{t Lambda_A} underflows at a scan point before the entry.
        """
        if not trajs:
            return []
        labels = self.model.obs.labels
        stack = PathStack(trajs)
        t0, t1, ids = stack.t0, stack.t1, stack.ids
        length = t1 - t0
        moving = (length > 0) & ~np.isin(ids, self._frozen)
        n_scan = np.where(moving, np.maximum(2, np.ceil(length / SCAN_STEP)), 0).astype(np.int64)
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
            act = np.flatnonzero((ENTRY_TIME_TOL < hi - lo) & (hi - lo < width))
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


def stopping_rule(v: ValueFunction) -> StoppingPolicy:
    """Policy from the eps-relaxed contact set, eps = 2 * v's solver tol (SOLVER_TOL if unset)."""
    return StoppingPolicy(v, 2.0 * v.info.get("tol", SOLVER_TOL))


def evaluate_policy_mc(mu: Distribution, policy, prob: StoppingProblem,
                       n_sims: int, horizon: float, rng: RandomSource,
                       model: FilterModel = None):
    """Monte Carlo estimate (mean, stderr) of the policy's cost from mu.

    Path r is sampled from rng.stream(r) and observed through model.obs.
    The paths are sampled, filtered and scanned in chunks of MC_CHUNK: one
    rng.generators call, which seeds the chunk's streams in one pass, each
    with the draws of its own rng.stream(r).generator(); one
    run_filter_batch, which fills one array set for the chunk, and one
    policy.first_entries(trajs), which scans it through one evaluator and
    returns the stopping time of each trajectory (inf for never); then one
    cost call over the chunk's stack (_costs).  A policy that has only
    first_entry(traj) is run path by path instead, through run_filter and
    cost_along_filter.  Both ways give every path the bits it has alone, so
    (mean, stderr) do not depend on the chunk.  Stopping is censored at the
    horizon (tau treated as infinite), valid when tail_cost_bound(prob,
    horizon) is negligible.
    """
    if n_sims < 1:
        raise ValueError("n_sims must be >= 1")
    if model is None:
        model = policy.model
    costs = np.empty(n_sims)
    for first in range(0, n_sims, MC_CHUNK):
        chunk = range(first, min(first + MC_CHUNK, n_sims))
        obs = [observe(sample_chain(model.rate, mu, horizon, gen), model.obs)
               for gen in rng.generators(chunk)]
        if hasattr(policy, "first_entries"):
            trajs = model.run_filter_batch(obs, mu)
            taus = np.array(policy.first_entries(trajs))
            taus[taus > horizon] = math.inf
            costs[chunk.start:chunk.stop] = _costs(PathStack(trajs), taus, prob)
        else:
            for r, y in zip(chunk, obs):
                traj = model.run_filter(y, mu)
                tau = policy.first_entry(traj)
                costs[r] = cost_along_filter(traj, math.inf if tau > horizon else tau, prob)
    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1) / math.sqrt(n_sims)) if n_sims > 1 else 0.0
    return mean, stderr


def tail_cost_bound(prob: StoppingProblem, t: float) -> float:
    """e^{-alpha t} (max|g| + max|l| / alpha), a bound on the discounted cost from t on."""
    g_max = float(np.abs(prob.g).max())
    l_max = float(np.abs(prob.l).max())
    return math.exp(-prob.alpha * t) * (g_max + l_max / prob.alpha)


def verify_variational(v: ValueFunction) -> dict:
    """Check u <= psi and u <= continue-to-t-then-u for v's own problem, up
    to VARIATIONAL_TOL, on the grid at the operator's check times
    (DEFAULT_CHECK_TIMES clamped to T_max); ValueError for a v that carries
    no problem.

    The continuation expectation uses the same single-jump quadrature as the
    Bellman operator; the one-jump truncation bound (tail_cost_bound at
    T_max) is reported.  Maximality of v among solutions is NOT checked.  The
    operator is the one v was solved with, or, for a hand-made v, one built
    for v.problem.  The check times are branches of that operator, so for a
    solved v both inequalities hold up to its residual: the check confirms
    the fixed point, not the discretization.
    """
    prob = _own_problem(v)
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
    passed = obstacle_violation < VARIATIONAL_TOL and cont_violation < VARIATIONAL_TOL
    return {
        "pass": bool(passed),
        "tol": VARIATIONAL_TOL,
        "obstacle_violation": obstacle_violation,
        "continuation_violation": cont_violation,
        "checked_times": checked,
        "one_jump_truncation_bound": tail_cost_bound(prob, op.t_max),
        "note": "maximality among solutions of the inequality system is not checked",
    }


def classical_stopping_values(rate, g, l, alpha: float, tol: float = SOLVER_TOL) -> np.ndarray:
    """Independent fully-observed stopping oracle on the states.

    Scalar value iteration with the same time mesh as the grid solver but
    closed-form per-interval integrals (everything is exponential when the
    state is observed), so it shares no code path with the simplex machinery.
    """
    Q = rate.entries
    g = np.asarray(g, dtype=float)
    l = np.asarray(l, dtype=float)
    lam = -np.diag(Q)
    off = Q - np.diag(np.diag(Q))
    K = _mesh_steps(alpha)
    times = np.arange(K + 1) * DEFAULT_DT
    beta = alpha + lam  # per-state decay of e^{-alpha t} * survival
    decay = np.exp(-np.outer(times, beta))  # (K+1, n)
    v = g.copy()
    for _ in range(MAX_ITER):
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
