"""Exact filter of a CTMC under noise-free observation Y = h(X).

The filter lives on the effective simplex: the union over labels a of the
faces of probability vectors supported on h^{-1}(a).  Between observation
jumps it follows the flow

    y' = 1_A * (y Lambda) - (y Lambda 1_A) y,      A = h^{-1}(a),

whose closed form is the normalization of x_A e^{t Lambda_A} (the
unnormalized filter solves u' = u Lambda_A on the face).  At an observation
jump to label b the filter restarts at the restriction/normalization of
(pre-jump) Lambda to h^{-1}(b).

A FacePoint is a label plus its weights x on the level set of that label;
the n-vector `weights`, zero off the face, is derived from x.  The jump
denominator and the post-jump vector come from FilterModel._flux, the same
face-local flux routine that gives the PDP jump rate and jump law.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np
from scipy.linalg import expm

from .chain import (
    Distribution,
    ObservationModel,
    PiecewisePath,
    RateMatrix,
    sub_generator,
)

FALLBACK_TOL = 1e-12
DEG_TOL = 1e-12
NEG_FACE_TOL = 1e-12
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
    the cached power e^{k_i 16^i hM}.  Only e^{hM} comes from scipy's expm,
    once per face; every other power is a product of it.
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
        self._base = expm(self.step * matrix)  # e^{16^i hM} of the next level

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


class JumpRecord:
    __slots__ = ("time", "pre", "post")

    def __init__(self, time: float, pre: FacePoint, post: FacePoint):
        self.time, self.pre, self.post = time, pre, post


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
        # off-face blocks Lambda[A, B] used by jump laws
        self._blocks = {
            a: {b: rate.entries[np.ix_(self.faces[a], self.faces[b])] for b in obs.labels if b != a}
            for a in obs.labels
        }

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
        face = self.faces[a]
        vals = mu[face]
        if (vals < -NEG_FACE_TOL).any():
            raise NegativeFaceMass(f"negative mass on face {a!r}")
        vals = np.maximum(vals, 0.0)  # np.clip(vals, 0.0, None) bit for bit, and cheaper
        mass = vals.sum()
        if mass < FALLBACK_TOL:
            return FacePoint(self, a, np.full(len(face), 1.0 / len(face)), degenerate=True)
        return FacePoint(self, a, vals / mass)

    def _flux(self, a, X):
        """Fluxes X Lambda 1_{h^{-1}(b)} of face rows X of label a.

        X is (d,) or (N, d) on the level set A of a, normalized or not.
        Returns X Lambda[A, :], the rate, and the flux into every label
        b != a in the order of _others[a], along the last axis.  The rate is
        the sum of those fluxes: it equals -X Lambda 1_A, but its terms are
        off-diagonal, so it has no cancellation and the jump masses sum to 1.
        """
        vec = X @ self._out_rows[a]
        others = self._others[a]
        # filled in place: np.stack of the sums costs more than the sums on
        # the one-row calls of run_filter
        flux = np.empty(vec.shape[:-1] + (len(others),))
        for i, b in enumerate(others):
            flux[..., i] = vec[..., self.faces[b]].sum(axis=-1)
        return vec, flux.sum(axis=-1), flux

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

    def flow_ode(self, t: float, x: FacePoint, step: float = 1e-3) -> FacePoint:
        """Fixed-step RK4 integration of the nonlinear field (cross-check of flow)."""
        if t == 0:
            return x
        face = self.faces[x.label]
        mask = np.zeros((1, self.n))
        mask[0, face] = 1.0
        y = _rk4_flow_batch(self.rate.entries, mask, x.weights[None, :], t, step)[0]
        mass = y.sum()
        # scale drift is O(step^4) per step and removed by the normalization
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
        the jump denominator, the flux into b, is <= DEG_TOL (path
        inconsistent with the model).
        """
        current = self.restrict_normalize(mu, obs_path.initial_value)
        segments = [(0.0, current)]
        jumps = []
        t_prev = 0.0
        for tj, b in obs_path.jumps:
            pre = self.flow(tj - t_prev, current)
            vec, _, flux = self._flux(pre.label, pre.x)
            den = flux[self._others[pre.label].index(b)]
            if den <= DEG_TOL:
                raise DegenerateJump(tj, float(den))
            post = self.restrict_normalize(vec, b)
            jumps.append(JumpRecord(tj, pre, post))
            segments.append((tj, post))
            current = post
            t_prev = tj
        return FilterTrajectory(self, segments, jumps, obs_path.horizon)

    def discrete_filter(self, mu: Distribution, delta: float, obs_samples) -> list:
        """Discrete-time approximating filter on the grid k*delta.

        Pibar_0 = H_{Y_0}[mu]; Pibar_k = H_{Y_{k delta}}[Pibar_{k-1} e^{delta Lambda}].
        """
        obs_samples = list(obs_samples)
        if not obs_samples:
            raise ValueError("obs_samples must be nonempty")
        P = expm(delta * self.rate.entries)
        out = [self.restrict_normalize(mu, obs_samples[0])]
        for a in obs_samples[1:]:
            out.append(self.restrict_normalize(out[-1].weights @ P, a))
        return out

    def predict(self, pi, s: float) -> Distribution:
        """Law of X_{t+s} given observations to t: Pi_t e^{s Lambda}."""
        if s < 0:
            raise ValueError("s must be nonnegative")
        w = pi.weights if isinstance(pi, (FacePoint, Distribution)) else np.asarray(pi, float)
        if s == 0:
            return Distribution(np.array(w))
        return Distribution(w @ expm(s * self.rate.entries))


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
    """Piecewise-deterministic filter path: flow segments plus jump records.

    Evaluation recomputes the closed-form flow from the enclosing segment
    start, so the object stays small and evaluation is exact.
    """

    def __init__(self, model: FilterModel, segments, jumps, horizon: float):
        self.model = model
        self.segments = list(segments)
        self.jumps = list(jumps)
        self.horizon = float(horizon)
        self._starts = [t for t, _ in self.segments]

    @property
    def jump_times(self):
        return [j.time for j in self.jumps]

    def value_at(self, t: float) -> FacePoint:
        """model.flow(t - t0, nu) from the start (t0, nu) of the segment that
        holds t: nu itself at t0, the post-jump point at a jump time.  The
        policy scan takes its offsets so, and scores this very point."""
        if t < 0 or t > self.horizon:
            raise ValueError("time outside [0, horizon]")
        k = bisect_right(self._starts, t) - 1
        t0, fp = self.segments[k]
        return self.model.flow(t - t0, fp)

    def left_limit_at(self, t: float) -> FacePoint:
        """Pre-jump value at t (equals value_at(t) off jump times)."""
        for j in self.jumps:
            if j.time == t:
                return j.pre
        return self.value_at(t)

    def to_rows(self, grid) -> list:
        """Rows (time, weights..., label) on the user grid plus pre/post jump rows."""
        jump_set = {j.time for j in self.jumps}
        events = []
        for t in grid:
            if 0 <= t <= self.horizon and float(t) not in jump_set:
                events.append((float(t), None))
        for j in self.jumps:
            events.append((j.time, j))
        events.sort(key=lambda e: (e[0], e[1] is not None))
        rows = []
        for t, j in events:
            if j is None:
                fp = self.value_at(t)
                rows.append((t, fp.weights, fp.label))
            else:
                rows.append((t, j.pre.weights, j.pre.label))
                rows.append((t, j.post.weights, j.post.label))
        return rows
