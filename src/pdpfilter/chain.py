"""Finite-state continuous-time Markov chains with noise-free observation.

States are indexed 0..n-1.  Measures follow the row-vector convention
(``mu @ Q`` advances a measure), functions are column vectors (``Q @ f``).
The matrix exponential is computed with scipy.linalg.expm, i.e. Pade
scaling-and-squaring; the state spaces here are small and dense, so no
uniformization path is provided.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

ROW_SUM_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-10


class NegativeOffDiagonal(ValueError):
    """An off-diagonal generator entry is negative."""

    def __init__(self, i: int, j: int, value: float):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"entry ({i},{j}) = {value} is negative off-diagonal")


class RowSumNonzero(ValueError):
    """A generator row does not sum to zero."""

    def __init__(self, row: int, value: float):
        self.row, self.value = row, value
        super().__init__(f"row {row} sums to {value}, expected 0")


class EmptySubset(ValueError):
    pass


class StateNotInSubset(ValueError):
    pass


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RateMatrix:
    """Generator (Q-matrix) of the chain: nonnegative off-diagonal, zero row sums."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("generator must be a square matrix")
        off = m.copy()
        np.fill_diagonal(off, 0.0)
        bad = np.argwhere(off < 0)
        if len(bad):
            i, j = map(int, bad[0])
            raise NegativeOffDiagonal(i, j, float(m[i, j]))
        sums = m.sum(axis=1)
        bad_rows = np.flatnonzero(np.abs(sums) > ROW_SUM_TOL)
        if len(bad_rows):
            r = int(bad_rows[0])
            raise RowSumNonzero(r, float(sums[r]))
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "_cache", {})

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def _jump_tables(self):
        """Per-state exit rates and cumulative jump probabilities, cached for
        the sampler as Python lists, which it searches with bisect."""
        tables = self._cache.get("jump")
        if tables is None:
            m = self.entries
            rates = -np.diag(m)
            probs = m.copy()
            np.fill_diagonal(probs, 0.0)
            with np.errstate(invalid="ignore", divide="ignore"):
                probs = probs / np.where(rates > 0, rates, 1.0)[:, None]
            cum = np.cumsum(probs, axis=1)
            tables = (rates.tolist(), cum.tolist())
            self._cache["jump"] = tables
        return tables


def validate_generator(m) -> RateMatrix:
    """Validate a square matrix as a CTMC generator.

    Raises NegativeOffDiagonal or RowSumNonzero (0-based indices) on failure.
    """
    return RateMatrix(np.asarray(m, dtype=float))


@dataclass(frozen=True)
class ObservationModel:
    """Surjective labeling h of the states, with precomputed level sets."""

    labels: tuple
    assignment: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        assignment = tuple(self.assignment)
        attained = set(assignment)
        if set(labels) != attained:
            raise ValueError("labels must be exactly the attained values of h")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "assignment", assignment)
        level_sets = {
            a: _frozen_array([i for i, b in enumerate(assignment) if b == a], dtype=np.intp)
            for a in labels
        }
        object.__setattr__(self, "level_sets", level_sets)

    @classmethod
    def from_assignment(cls, assignment, labels=None) -> "ObservationModel":
        assignment = tuple(assignment)
        if labels is None:
            seen = []
            for a in assignment:
                if a not in seen:
                    seen.append(a)
            labels = tuple(seen)
        return cls(labels=tuple(labels), assignment=assignment)

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def injective(self) -> bool:
        return all(len(v) == 1 for v in self.level_sets.values())

    def indicator(self, a) -> np.ndarray:
        vec = np.zeros(self.n)
        vec[self.level_sets[a]] = 1.0
        return vec


@dataclass(frozen=True)
class Distribution:
    """Probability row vector over the states."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float).ravel()
        if (w < -1e-12).any():
            raise ValueError("negative weight in distribution")
        w = np.clip(w, 0.0, None)
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {w.sum()}, expected 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class PiecewisePath:
    """Cadlag path given by an initial value and (time, new value) jump records."""

    initial_value: object
    jumps: tuple
    horizon: float

    def __post_init__(self):
        jumps = tuple((float(t), v) for t, v in self.jumps)
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        prev_t, prev_v = 0.0, self.initial_value
        for t, v in jumps:
            if t <= prev_t:
                raise ValueError("jump times must be strictly increasing and > 0")
            if t >= self.horizon:
                raise ValueError("jump time beyond horizon")
            if v == prev_v:
                raise ValueError("consecutive path values must differ")
            prev_t, prev_v = t, v
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(
            self, "_times", tuple(t for t, _ in jumps)
        )

    @property
    def jump_times(self) -> tuple:
        return self._times

    def value_at(self, t: float):
        if t < 0 or t > self.horizon:
            raise ValueError("time outside [0, horizon]")
        k = bisect_right(self._times, t)
        return self.initial_value if k == 0 else self.jumps[k - 1][1]


@dataclass(frozen=True)
class RandomSource:
    """Reproducible stream handle: same (seed, stream_id) gives identical draws,
    distinct stream_ids give independent streams (SeedSequence spawn keys)."""

    seed: int
    stream_id: int = 0
    lineage: tuple = ()

    def generator(self) -> np.random.Generator:
        key = tuple(self.lineage) + (self.stream_id,)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=key)))

    def stream(self, r: int) -> "RandomSource":
        """Child source for replication r, independent across r."""
        return RandomSource(self.seed, r, tuple(self.lineage) + (self.stream_id,))


def transition_semigroup(rate: RateMatrix, t: float) -> np.ndarray:
    """e^{t Lambda} via scipy's Pade scaling-and-squaring expm."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return np.eye(rate.n)
    return expm(t * rate.entries)


def sample_chain(rate: RateMatrix, mu: Distribution, horizon: float, rng: RandomSource) -> PiecewisePath:
    """Exact CTMC sampling: hold Exp(-lambda_ii), jump with probability lambda_ij / (-lambda_ii).

    States with zero diagonal rate never jump (censored at the horizon).
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    gen = rng.generator() if isinstance(rng, RandomSource) else rng
    rates, cum = rate._jump_tables()
    initial = min(bisect_right(np.cumsum(mu.weights).tolist(), gen.random()), rate.n - 1)
    state = initial
    jumps = []
    t = 0.0
    while True:
        lam = rates[state]
        if lam <= 0:
            break
        t += gen.exponential(1.0 / lam)
        if t >= horizon:
            break
        state = min(bisect_right(cum[state], gen.random()), rate.n - 1)
        jumps.append((t, state))
    return PiecewisePath(initial_value=initial, jumps=tuple(jumps), horizon=horizon)


def observe(path: PiecewisePath, obs: ObservationModel) -> PiecewisePath:
    """Apply h pathwise, keeping only jumps where the label actually changes."""
    h = obs.assignment
    init = h[path.initial_value]
    jumps = []
    prev = init
    for t, s in path.jumps:
        label = h[s]
        if label != prev:
            jumps.append((t, label))
            prev = label
    return PiecewisePath(initial_value=init, jumps=tuple(jumps), horizon=path.horizon)


def sub_generator(rate: RateMatrix, subset) -> np.ndarray:
    """Restriction Lambda_A of the generator to rows and columns in A."""
    idx = np.asarray(list(subset), dtype=np.intp)
    if len(idx) == 0:
        raise EmptySubset("subset must be nonempty")
    return rate.entries[np.ix_(idx, idx)]


def exit_survival_oracle(rate: RateMatrix, subset, i: int, t: float) -> float:
    """Classical sub-generator formula P_i(tau_A > t) = (delta_i e^{t Lambda_A}) . 1."""
    idx = list(subset)
    if i not in idx:
        raise StateNotInSubset(f"state {i} not in subset")
    sub = sub_generator(rate, idx)
    p = int(idx.index(i))
    if t == 0:
        return 1.0
    row = expm(t * sub)[p]
    return float(row.sum())
