"""Exact filter of a CTMC under noise-free observation Y = h(X).

The filter lives on the effective simplex: the union over labels a of the
faces of probability vectors supported on h^{-1}(a).  Between observation
jumps it follows the flow

    y' = 1_A * (y Lambda) - (y Lambda 1_A) y,      A = h^{-1}(a),

whose closed form is the normalization of x_A e^{t Lambda_A} (the
unnormalized filter solves u' = u Lambda_A on the face).  At an observation
jump to label b the filter restarts at H_b[Pi_{T-} Lambda], the restriction
of (pre-jump) Lambda to h^{-1}(b), normalized.

A FacePoint is a label plus its weights x on the level set of that label;
the n-vector `weights`, zero off the face, is derived from x.  The jump law
has one implementation, shared by the filter, the PDP (pdp.py) and the
Bellman operator (stopping.py): one restriction H_b (_restrict), one kernel
q(nu, b) = nu Lambda 1_{h^{-1}(b)} / lambda(nu) (FilterModel._jump_law, from
the face-local fluxes of FilterModel._flux) and one atom pick (_pick).

A filter path is stored as arrays (FilterTrajectory).  run_filter fills
them for one observation path and is the reference for run_filter_batch,
which fills one array set for many paths, one jump at a time.  PathStack.points
is the one evaluator along paths.  Every product of a row and a matrix is
summed term by term (_col_times), never by BLAS, so that each path gets the
same bits either way.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .chain import (
    Distribution,
    ObservationModel,
    PiecewisePath,
    RateMatrix,
    expm,  # not called here: perfbench/tracer.py wraps this binding by name
    sub_generator,
    transition_semigroup,
)

FALLBACK_TOL = 1e-12
DEG_TOL = 1e-12
NEG_FACE_TOL = 1e-12
RK4_STEP = 1e-3  # step of flow_ode's RK4 integration
# for ||rM||_1 <= 1/2 the Taylor tail of e^{rM} beyond this degree is below
# 1.04 (1/2)^15 / 15! < 3e-17
TAYLOR_DEGREE = 14
_DEGREES = np.arange(TAYLOR_DEGREE + 1)[:, None, None]


class NegativeFaceMass(ValueError):
    """Input vector has genuinely negative entries on the target face."""


class FaceMassVanished(RuntimeError):
    """The unnormalized filter x_A e^{t Lambda_A} underflowed to zero mass, so
    its normalization is not computable in floating point."""


class DegenerateJump(RuntimeError):
    """Jump denominator fell below tolerance: observation path inconsistent with model."""

    def __init__(self, time: float, value: float):
        self.time, self.value = time, value
        super().__init__(f"degenerate jump at t={time}: denominator {value}")


class FacePoint:
    """A point of the effective simplex: a label plus its read-only weights x
    on the level set h^{-1}(label), in the order of model.faces[label]."""

    __slots__ = ("label", "x", "degenerate", "_model")

    def __init__(self, model: "FilterModel", label, x: np.ndarray, degenerate: bool = False):
        self.label = label
        self.x = x
        self.degenerate = degenerate
        self._model = model
        x.setflags(write=False)

    @property
    def weights(self) -> np.ndarray:
        """x as a read-only n-vector, zero off the face."""
        w = np.zeros(self._model.n)
        w[self._model.faces[self.label]] = self.x
        w.setflags(write=False)
        return w

    def __repr__(self):
        return f"FacePoint(label={self.label!r}, x={self.x})"


class _SubExp:
    """Row vectors times e^{tM} for a fixed small matrix M (a sub-generator).

    `rows` is the one kernel, for one time or a batch of times, and it is
    batch-invariant: it works on rows as columns and sums every product of a
    row and a matrix term by term in a fixed order (_col_times), never by
    BLAS, so a row's result does not depend on its batch.  At t = 0 it
    returns x itself.

    When the eigenvector matrix of M is well conditioned (one-state faces
    included), x e^{tM} = (x P) e^{tB} P^{-1} in real form: P holds the real
    eigenvectors, and Re v, Im v for each pair a +- ib, whose block of e^{tB}
    is e^{at} [[cos bt, sin bt], [-sin bt, cos bt]].  Otherwise (a face
    without an eigenbasis) it writes t = (k + s) h with 0 <= s < 1 and h a
    power of two such that h ||M||_1 <= 1/2.  The row is multiplied by the
    Taylor polynomial of e^{shM} of degree TAYLOR_DEGREE, summed from the
    cached terms (hM)^j / j!, and then, for each base-16 digit k_i of k, by
    the cached power e^{k_i 16^i hM}.  e^{hM} is the sum of the cached terms
    (the polynomial at s = 1, truncated below 3e-17 by h ||M||_1 <= 1/2); every
    other power is a product of it, so no face needs scipy.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.ok = False
        d = matrix.shape[0]
        try:
            vals, vecs = np.linalg.eig(matrix)
            cond = np.linalg.cond(vecs)
            recon = vecs @ np.diag(vals) @ np.linalg.inv(vecs)
            scale = max(1.0, np.abs(matrix).max())
            if cond < 1e6 and np.abs(recon - matrix).max() < 1e-10 * scale:
                self.ok = True
                # LAPACK lists a pair a +- ib as neighbours, +b first.  Column k
                # of c e^{tB} is Re(e^{lam_k t}) c_k + Im(e^{lam_k t}) c_p(k), p(k)
                # the other column of its block; lam is real if every eigenvalue is
                P = np.where(vals.imag < 0, -vecs.imag, vecs.real)
                self._P, self._Pinv = P[..., None], np.linalg.inv(P)[..., None]
                self._lam = vals.conj()[:, None]
                self._partner = np.arange(d) + np.sign(vals.imag).astype(np.int64)
                return
        except np.linalg.LinAlgError:
            pass
        norm = np.abs(matrix).sum(axis=0).max()
        self.step = 2.0 ** math.floor(math.log2(0.5 / norm)) if norm > 0 else 1.0
        terms = [np.eye(d)]
        for j in range(1, TAYLOR_DEGREE + 1):
            terms.append(terms[-1] @ (self.step * matrix) / j)
        self._taylor = np.concatenate(terms, axis=1)[..., None]  # (d, (TAYLOR_DEGREE + 1) d, 1)
        self._digits = []  # level i: e^{j 16^i hM} for j = 0..15, shape (16, d, d)
        self._base = np.sum(terms, axis=0)  # e^{16^i hM} of the next level, e^{hM} first

    def rows(self, x: np.ndarray, t) -> np.ndarray:
        """x e^{tM} row by row: x is (d,) or (N, d), t a scalar or (N,).

        One row and many times, many rows at one time, and one time per row
        all broadcast to the (N, d) result, and row i of it has the bits of
        rows(x_i, t_i).
        """
        t = np.asarray(t, dtype=float)
        d = self.matrix.shape[0]
        cols = x[:, None] if x.ndim == 1 else x.T
        ts = t.reshape(-1)
        if self.ok:
            c = _col_times(self._P, cols)
            # lam * ts rounds alike in any operand order: ts has no imaginary part
            g = np.exp(self._lam * ts)
            c = c * g if g.dtype == float else c * g.real + c[self._partner] * g.imag
            out = _col_times(self._Pinv, c)
            if np.count_nonzero(ts) < ts.size:
                out = np.where(ts == 0.0, cols, out)
        else:
            k = np.floor(ts / self.step)
            s = ts / self.step - k
            terms = _col_times(self._taylor, cols).reshape(TAYLOR_DEGREE + 1, d, -1)
            out = (s ** _DEGREES * terms).sum(axis=0)
            k = k.astype(np.int64)
            for i in range((int(k.max(initial=0)).bit_length() + 3) // 4):
                if i == len(self._digits):
                    table = [np.eye(d)]
                    for _ in range(15):
                        table.append(table[-1] @ self._base)
                    self._digits.append(np.array(table))
                    self._base = table[-1] @ self._base
                out = _col_times(self._digits[i][(k >> 4 * i) & 15].transpose(1, 2, 0), out)
        return out[:, 0] if x.ndim == 1 and t.ndim == 0 else np.ascontiguousarray(out.T)


def _col_times(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The rows y.T @ a as columns: y is (d, N), a is (d, m, 1), or (d, m, N)
    for one matrix per column; returns (m, N).  The d terms are summed in
    order for every column and batch shape (BLAS rounds a vector product and
    a matrix product differently)."""
    return (a * y[:, None]).sum(axis=0)


def _normalize_rows(W: np.ndarray, t) -> np.ndarray:
    """The one normalization of the flow: the points phi(t, nu) from rows
    W = nu_A e^{t Lambda_A} ((d,) or (N, d), at the time or times t), W
    clipped at 0 over its mass, row by row and so batch-invariant.  At t = 0
    the row is nu itself (_SubExp.rows gives W = nu), so phi(0, nu) = nu.
    Raises FaceMassVanished where a row's mass is not positive."""
    t = np.asarray(t)
    mass = W.sum(axis=-1, keepdims=True)
    if np.count_nonzero(mass <= 0):
        raise FaceMassVanished(f"flow mass {mass.min()} at t={t}")
    X = np.maximum(W, 0.0) / mass  # np.clip(W, 0.0, None) bit for bit, and cheaper
    X /= X.sum(axis=-1, keepdims=True)
    return X if np.count_nonzero(t) == t.size else np.where((t == 0.0)[..., None], W, X)


def _restrict(vals: np.ndarray):
    """The one restriction H_b on face rows vals (..., d) of face b: the rows
    clipped at 0 over their mass, and the uniform law where the mass is below
    FALLBACK_TOL.  Returns (rows, mass); row by row, so batch-invariant."""
    vals = np.maximum(vals, 0.0)  # np.clip(vals, 0.0, None) bit for bit, and cheaper
    mass = vals.sum(axis=-1)
    low = mass < FALLBACK_TOL
    rows = vals / np.where(low, 1.0, mass)[..., None]
    rows[low] = 1.0 / vals.shape[-1]
    return rows, mass


def _pick(q: np.ndarray, u):
    """The one atom pick: for masses q (..., k) and uniforms u (...), each
    row's np.searchsorted(np.cumsum(q), u, "right") capped at its last
    positive atom (a zero mass repeats the sum before it, so it is skipped)."""
    k = (np.cumsum(q, axis=-1) <= np.asarray(u)[..., None]).sum(axis=-1)
    return np.minimum(k, q.shape[-1] - 1 - np.argmax(q[..., ::-1] > 0, axis=-1))


JumpRecord = namedtuple("JumpRecord", "time pre post")


class FilterModel:
    """Bundles a generator and an observation model; hosts all filter operations."""

    def __init__(self, rate: RateMatrix, obs: ObservationModel):
        if obs.n != rate.n:
            raise ValueError("observation model size does not match generator")
        self.rate = rate
        self.obs = obs
        self.n = rate.n
        self.faces = {a: obs.level_sets[a] for a in obs.labels}
        self._sub = {a: _SubExp(sub_generator(rate, self.faces[a])) for a in obs.labels}
        self._others = {a: [b for b in obs.labels if b != a] for a in obs.labels}
        self._out_rows = {a: rate.entries[self.faces[a]] for a in obs.labels}

    # -- construction / restriction ------------------------------------

    def face_point(self, label, weights) -> FacePoint:
        """Validated FacePoint constructor."""
        w = np.array(weights, dtype=float).ravel()
        if len(w) != self.n:
            raise ValueError("weight vector has wrong length")
        face = self.faces[label]
        off = np.delete(w, face)
        if np.abs(off).max(initial=0.0) > 0:
            raise ValueError("weights must vanish off the face")
        if (w[face] < -1e-12).any():
            raise ValueError("negative weight")
        if abs(w.sum() - 1.0) > 1e-10:
            raise ValueError("weights must sum to 1")
        return FacePoint(self, label, w[face])

    def restrict_normalize(self, mu, a) -> FacePoint:
        """Operator H_a: restrict mu to h^{-1}(a) and normalize.

        Entries off the face are ignored; entries on the face must be
        nonnegative (tiny negatives within 1e-12 are clipped).  If the face
        mass is below FALLBACK_TOL the uniform fallback measure on the face
        is returned with the degenerate flag set.
        """
        mu = np.asarray(mu.weights if isinstance(mu, Distribution) else mu, dtype=float).ravel()
        if len(mu) != self.n:
            raise ValueError(f"law has {len(mu)} entries, model has {self.n} states")
        face = self.faces[a]
        vals = mu[face]
        if (vals < -NEG_FACE_TOL).any():
            raise NegativeFaceMass(f"negative mass on face {a!r}")
        x, mass = _restrict(vals)
        return FacePoint(self, a, x, degenerate=bool(mass < FALLBACK_TOL))

    def _outflow(self, a, X):
        """X Lambda[A, :] for face rows X ((d,) or (N, d)) of label a, summed
        term by term by _col_times, so that a row has the same bits alone and
        in a batch (a BLAS product rounds them differently)."""
        cols = X[:, None] if X.ndim == 1 else X.T
        out = _col_times(self._out_rows[a][..., None], cols)
        return out[:, 0] if X.ndim == 1 else np.ascontiguousarray(out.T)

    def _flux(self, a, X):
        """Fluxes X Lambda 1_{h^{-1}(b)} of face rows X of label a.

        X is (d,) or (N, d) on the level set A of a, normalized or not.
        Returns X Lambda[A, :], the rate, and the flux into every label
        b != a in the order of _others[a], along the last axis.  The rate is
        the sum of those fluxes: it equals -X Lambda 1_A, but its terms are
        off-diagonal, so it has no cancellation and the jump masses sum to 1.
        """
        vec = self._outflow(a, X)
        others = self._others[a]
        # filled in place: np.stack of the sums costs more than the sums on
        # one-row calls
        flux = np.empty(vec.shape[:-1] + (len(others),))
        for i, b in enumerate(others):
            flux[..., i] = vec[..., self.faces[b]].sum(axis=-1)
        return vec, flux.sum(axis=-1), flux

    def _jump_law(self, a, X):
        """The one kernel q(nu, .) at face rows X of label a: X Lambda[A, :],
        the rate lambda and q in the order of _others[a], flux / lambda where
        the flux is positive, 0 elsewhere, and uniform where lambda < DEG_TOL
        (for unnormalized rows too: q is scale-free above that threshold).
        The atom of label b is _restrict of X Lambda[A, h^{-1}(b)]."""
        vec, lam, flux = self._flux(a, X)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(flux > 0, flux / lam[..., None], 0.0)
        q[lam < DEG_TOL] = 1.0 / len(self._others[a])
        return vec, lam, q

    # -- flow ------------------------------------------------------------

    def vector_field(self, y: FacePoint) -> np.ndarray:
        """F_a(y) = 1_A * (y Lambda) - (y Lambda 1_A) y."""
        face = self.faces[y.label]
        row = y.weights @ self.rate.entries
        out = np.zeros(self.n)
        out[face] = row[face]
        return out - row[face].sum() * y.weights

    def flow(self, t: float, x: FacePoint) -> FacePoint:
        """Closed-form flow phi(t, x): _normalize_rows of x_A e^{t Lambda_A}."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        return FacePoint(self, x.label, _normalize_rows(self._sub[x.label].rows(x.x, t), t))

    def flow_ode(self, t: float, x: FacePoint) -> FacePoint:
        """RK4 integration of the nonlinear field with step RK4_STEP (cross-check of flow)."""
        if t == 0:
            return x
        face = self.faces[x.label]
        mask = np.zeros((1, self.n))
        mask[0, face] = 1.0
        y = _rk4_flow_batch(self.rate.entries, mask, x.weights[None, :], t, RK4_STEP)[0]
        mass = y.sum()
        # scale drift is O(RK4_STEP^4) per step and removed by the normalization
        # below; the guard only catches genuinely diverged integrations
        if abs(mass - 1.0) > 1e-3:
            raise FaceMassVanished(f"RK4 mass drifted to {mass}")
        y = np.clip(y[face], 0.0, None)
        return FacePoint(self, x.label, y / y.sum())

    # -- filtering --------------------------------------------------------

    def run_filter(self, obs_path: PiecewisePath, mu: Distribution) -> "FilterTrajectory":
        """Exact filter along an observation path.

        Pi_0 = H_{Y_0}[mu]; flows between observation jumps; at a jump to
        label b restarts at H_b[Pi_{T-} Lambda].  Raises DegenerateJump when
        the jump denominator, the mass of Pi_{T-} Lambda on h^{-1}(b), is
        <= DEG_TOL (path inconsistent with the model).
        """
        points = [self.restrict_normalize(mu, obs_path.initial_value)]
        pre = []
        times = [0.0] + list(obs_path.jump_times)
        for k, (tj, b) in enumerate(obs_path.jumps):
            pre.append(self.flow(tj - times[k], points[-1]))
            x, den = _restrict(self._outflow(pre[-1].label, pre[-1].x)[self.faces[b]])
            if den <= DEG_TOL:
                raise DegenerateJump(tj, float(den))
            points.append(FacePoint(self, b, x))
        return FilterTrajectory.of_points(self, times, points, pre, obs_path.horizon)

    def run_filter_batch(self, obs_paths, mu: Distribution) -> list:
        """run_filter on each observation path, as slices of one array set.

        At the k-th jump of the paths that have one, the paths on each label
        a take one propagation, one _normalize_rows and one product by
        Lambda[A, :], and the paths to each label b one _restrict, each
        written with one assignment.  These work row by row, so trajectory i
        has the bits of run_filter(obs_paths[i], mu).  Raises DegenerateJump
        (with run_filter's time and denominator) or FaceMassVanished at the
        first jump index where some path does, as run_filter does on it.
        """
        paths = list(obs_paths)
        labels, faces = self.obs.labels, self.faces
        n_seg = np.array([len(y.jumps) + 1 for y in paths], dtype=np.int64)
        first = np.cumsum(n_seg) - n_seg
        t0 = np.array([t for y in paths for t in (0.0,) + y.jump_times])
        ids = np.array([labels.index(b) for y in paths
                        for b in (y.initial_value,) + tuple(c for _, c in y.jumps)])
        starts, pre = np.zeros((len(t0), self.n)), np.zeros((len(t0), self.n))
        degenerate = np.zeros(len(t0), dtype=bool)
        for a in dict.fromkeys(y.initial_value for y in paths):
            start = self.restrict_normalize(mu, a)
            rows = first[ids[first] == labels.index(a)]
            starts[rows[:, None], faces[a]] = start.x
            degenerate[rows] = start.degenerate
        for k in range(n_seg.max(initial=1) - 1):
            src = (first + k)[n_seg > k + 1]
            for i, a in enumerate(labels):
                s = src[ids[src] == i]
                if not s.size:
                    continue
                dt = t0[s + 1] - t0[s]
                X = _normalize_rows(self._sub[a].rows(starts[s[:, None], faces[a]], dt), dt)
                pre[s[:, None], faces[a]] = X
                vec = self._outflow(a, X)
                nxt = ids[s + 1]
                for j in np.unique(nxt):
                    to, b = np.flatnonzero(nxt == j), labels[j]
                    x, den = _restrict(vec[to[:, None], faces[b]])
                    bad = np.flatnonzero(den <= DEG_TOL)
                    if bad.size:
                        raise DegenerateJump(float(t0[s[to[bad[0]]] + 1]), float(den[bad[0]]))
                    starts[s[to, None] + 1, faces[b]] = x
        ends = (first + n_seg).tolist()
        return [FilterTrajectory(self, t0[f:g], ids[f:g], starts[f:g], pre[f:g - 1],
                                 degenerate[f:g], y.horizon)
                for f, g, y in zip(first.tolist(), ends, paths)]

    def discrete_filter(self, mu: Distribution, delta: float, obs_samples) -> list:
        """Discrete-time approximating filter on the grid k*delta.

        Pibar_0 = H_{Y_0}[mu]; Pibar_k = H_{Y_{k delta}}[Pibar_{k-1} e^{delta Lambda}].
        ValueError for delta < 0.
        """
        obs_samples = list(obs_samples)
        if not obs_samples:
            raise ValueError("obs_samples must be nonempty")
        P = transition_semigroup(self.rate, delta)
        out = [self.restrict_normalize(mu, obs_samples[0])]
        for a in obs_samples[1:]:
            out.append(self.restrict_normalize(out[-1].weights @ P, a))
        return out

    def predict(self, pi, s: float) -> Distribution:
        """Law of X_{t+s} given observations to t: Pi_t e^{s Lambda}; ValueError for s < 0."""
        w = pi.weights if isinstance(pi, (FacePoint, Distribution)) else np.asarray(pi, float)
        return Distribution(w @ transition_semigroup(self.rate, s))


def _rk4_flow_batch(Q: np.ndarray, mask: np.ndarray, Y0: np.ndarray, t: float,
                    step: float, checkpoints=None):
    """Vectorized RK4 for the simplex flow field over a batch of face points.

    mask is a per-row indicator of the face; rows of Y0 are face points.
    If checkpoints is given, returns the batch state at those times
    (which must be multiples of the realized step); otherwise returns the
    final state at time t.
    """

    def field(Y):
        R = Y @ Q
        R = R * mask
        return R - R.sum(axis=1, keepdims=True) * Y

    n_steps = max(1, int(round(t / step)))
    h = t / n_steps
    Y = Y0.copy()
    out = []
    want = None
    if checkpoints is not None:
        want = {int(round(c / h)) for c in checkpoints}
        if 0 in want:
            out.append((0.0, Y.copy()))
    for k in range(n_steps):
        k1 = field(Y)
        k2 = field(Y + 0.5 * h * k1)
        k3 = field(Y + 0.5 * h * k2)
        k4 = field(Y + h * k3)
        Y = Y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if want is not None and (k + 1) in want:
            out.append(((k + 1) * h, Y.copy()))
    if checkpoints is not None:
        return out
    return Y


class FilterTrajectory:
    """One filter path, fixed as a piecewise-deterministic path is: by its
    jump times and post-jump points, the flow filling in between.

    Its state is a few arrays: t0, the segment start times (0, then the
    jump times); ids, each segment's label index in model.obs.labels;
    starts and pre, the segment start and pre-jump points as n-vectors,
    zero off the face; degenerate, whether a start is H_a's uniform
    fallback.  `segments` and `jumps` are views that build FacePoints.
    """

    def __init__(self, model: FilterModel, t0, ids, starts, pre, degenerate, horizon: float):
        self.model, self.horizon = model, float(horizon)
        self.t0, self.ids, self.starts = t0, ids, starts
        self.pre, self.degenerate = pre, degenerate

    @classmethod
    def of_points(cls, model: FilterModel, times, points, pre, horizon: float):
        """The trajectory of FacePoints: segment starts at `times`, pre-jump points."""
        labels = model.obs.labels
        return cls(model, np.array(times, dtype=float),
                   np.array([labels.index(p.label) for p in points]),
                   np.array([p.weights for p in points]),
                   np.array([p.weights for p in pre]).reshape(-1, model.n),
                   np.array([p.degenerate for p in points]), horizon)

    def _point(self, rows, k, degenerate=False) -> FacePoint:
        """Row k of `rows` (starts or pre) as a FacePoint of segment k's label."""
        a = self.model.obs.labels[self.ids[k]]
        return FacePoint(self.model, a, rows[k, self.model.faces[a]], bool(degenerate))

    @property
    def segments(self) -> list:
        """(start time, start FacePoint) of each segment."""
        return [(t, self._point(self.starts, k, self.degenerate[k]))
                for k, t in enumerate(self.t0.tolist())]

    @property
    def jumps(self) -> list:
        """A JumpRecord (time, pre-jump and post-jump FacePoint) per jump."""
        return [JumpRecord(t, self._point(self.pre, k),
                           self._point(self.starts, k + 1, self.degenerate[k + 1]))
                for k, t in enumerate(self.jump_times)]

    @property
    def jump_times(self):
        return self.t0[1:].tolist()

    def value_at(self, t: float) -> FacePoint:
        """model.flow(t - t0, nu) from the start (t0, nu) of the segment that
        holds t: nu itself at t0, the post-jump point at a jump time.  The
        policy scan takes its offsets so, and scores this very point."""
        if t < 0 or t > self.horizon:
            raise ValueError("time outside [0, horizon]")
        k = int(np.searchsorted(self.t0, t, side="right")) - 1
        return self.model.flow(t - float(self.t0[k]), self._point(self.starts, k))

    def left_limit_at(self, t: float) -> FacePoint:
        """Pre-jump value at t (equals value_at(t) off jump times)."""
        k = np.flatnonzero(self.t0[1:] == t)
        return self._point(self.pre, k[0]) if k.size else self.value_at(t)

    def to_rows(self, grid) -> list:
        """Rows (time, weights, label) on the user grid, and the pre-jump and
        post-jump rows at each jump time, in time order."""
        labels, jumps = self.model.obs.labels, self.jump_times
        rows = []
        for t in map(float, grid):
            if 0 <= t <= self.horizon and t not in jumps:
                fp = self.value_at(t)
                rows.append((t, fp.weights, fp.label))
        for k, t in enumerate(jumps):
            rows.append((t, self.pre[k], labels[self.ids[k]]))
            rows.append((t, self.starts[k + 1], labels[self.ids[k + 1]]))
        return sorted(rows, key=lambda row: row[0])


class PathStack:
    """Filter trajectories of one model as one array set, one np.concatenate
    per array: per segment its start time t0, label index, start row and
    end time t1 (the next start, or the horizon); trajectory p owns the
    segments first[p] to first[p + 1] - 1.  `points` is the one evaluator
    along filter paths: the policy scan, its refinement and the cost of the
    policy Monte Carlo call it.
    """

    def __init__(self, trajs):
        self.model = trajs[0].model
        self.t0, self.ids, self.starts = (np.concatenate([getattr(tr, name) for tr in trajs])
                                          for name in ("t0", "ids", "starts"))
        self.first = np.cumsum([0] + [len(tr.t0) for tr in trajs])
        self.t1 = np.append(self.t0[1:], 0.0)
        self.t1[self.first[1:] - 1] = [tr.horizon for tr in trajs]

    def points(self, seg, dt):
        """The flow points phi(dt, x) = _normalize_rows of x e^{dt Lambda_A}
        for the (segment, offset) pairs (seg, dt), x the segment's start on
        its face A, with one _SubExp.rows call per label.  Yields (label, the
        positions of its pairs that still have flow mass, their points); a
        point has the bits of value_at at t0 + dt, alone or in a batch."""
        model = self.model
        ids = self.ids[seg]
        for i, a in enumerate(model.obs.labels):
            on = np.flatnonzero(ids == i)
            if on.size:
                # row-major, as _SubExp.rows is batch-invariant on such rows
                x = self.starts.take(seg[on], axis=0).take(model.faces[a], axis=1)
                W = model._sub[a].rows(x, dt[on])
                ok = W.sum(axis=1) > 0
                yield a, on[ok], _normalize_rows(W[ok], dt[on[ok]])
