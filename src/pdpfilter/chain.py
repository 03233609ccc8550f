"""Finite-state continuous-time Markov chains with noise-free observation.

States are indexed 0..n-1.  Measures follow the row-vector convention
(``mu @ Q`` advances a measure), functions are column vectors (``Q @ f``).
The matrix exponential of the semigroup and the exit-time oracle is
computed with scipy.linalg.expm, i.e. Pade scaling-and-squaring; the state
spaces here are small and dense, so no uniformization path is provided.
`expm` imports scipy.linalg on its first call, not with the package, and
the filter's propagator (filtering._SubExp) never calls it, so every model
is loaded and filtered with numpy alone.
"""

from __future__ import annotations

import functools
import operator
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

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
        """Per-state exit rates, cumulative jump probabilities and the last
        state each row can jump to, cached for the sampler as Python lists;
        it searches a row with bisect and caps the pick at that state, as
        filtering._pick does."""
        tables = self._cache.get("jump")
        if tables is None:
            m = self.entries
            rates = -np.diag(m)
            probs = m.copy()
            np.fill_diagonal(probs, 0.0)
            with np.errstate(invalid="ignore", divide="ignore"):
                probs = probs / np.where(rates > 0, rates, 1.0)[:, None]
            cum = np.cumsum(probs, axis=1)
            last = self.n - 1 - np.argmax(probs[:, ::-1] > 0, axis=1)
            tables = (rates.tolist(), cum.tolist(), last.tolist())
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
    def from_assignment(cls, assignment) -> "ObservationModel":
        """The labeling h(i) = assignment[i], its labels in order of first appearance."""
        assignment = tuple(assignment)
        return cls(labels=tuple(dict.fromkeys(assignment)), assignment=assignment)

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def injective(self) -> bool:
        return all(len(v) == 1 for v in self.level_sets.values())


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


# numpy's SeedSequence constants (numpy.random.bit_generator, NEP 19)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(n) -> list:
    """n in little-endian 32-bit words ([0] for 0), as SeedSequence reads an
    int; ValueError for n < 0."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(...).generate_state(4, np.uint64) for every row of entropy.

    entropy is (K, L) uint32 with L >= 4, each row one key's assembled
    entropy words (run entropy padded to the pool size, then the spawn key).
    The rows go through SeedSequence's own mix_entropy and generate_state,
    column by column in wrapping uint32 arithmetic; the hash constants do not
    depend on the data, so every row meets the constants it meets alone.
    Returns (K, 4) uint64.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, entropy.shape[1]):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[:, i_src]))
    state = np.empty((len(entropy), 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _fixed_state_seed():
    """An ISeedSequence that hands PCG64 one precomputed state row.

    The class is made on the first call: numpy.random is not imported with
    numpy, and importing it costs a load_model about 14 ms.
    """
    from numpy.random.bit_generator import ISeedSequence

    class FixedStateSeed(ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError("holds generate_state(4, np.uint64) only")
            return self.state

    return FixedStateSeed


@dataclass(frozen=True)
class RandomSource:
    """Reproducible stream handle: same (seed, stream_id) gives identical draws,
    distinct stream_ids give independent streams (SeedSequence spawn keys).

    generator() seeds one stream through numpy's SeedSequence; generators(ids)
    seeds the streams of a whole batch in one pass, each with the draws of
    its own generator()."""

    seed: int
    stream_id: int = 0
    lineage: tuple = ()

    def generator(self) -> np.random.Generator:
        key = tuple(self.lineage) + (self.stream_id,)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=key)))

    def stream(self, r: int) -> "RandomSource":
        """Child source for replication r, independent across r."""
        return RandomSource(self.seed, r, tuple(self.lineage) + (self.stream_id,))

    def generators(self, ids) -> list:
        """[self.stream(r).generator() for r in ids], draw for draw, in one pass.

        The keys lineage + (stream_id, r) are mixed together, keys of equal
        word count in one array (_seed_states), and each PCG64 is seeded with
        its key's row; a generator's bit_generator.seed_seq is therefore not
        a SeedSequence and cannot spawn.  The seed and the ids are ints;
        ValueError for a negative one, as SeedSequence raises.
        """
        ids = [operator.index(r) for r in ids]
        if not ids:
            return []
        if min(ids) < 0:
            raise ValueError("expected non-negative integer")
        prefix = _uint32_words(self.seed)
        prefix += [0] * (_POOL_SIZE - len(prefix))
        for k in tuple(self.lineage) + (self.stream_id,):
            prefix += _uint32_words(k)
        by_width = {}
        for i, r in enumerate(ids):
            by_width.setdefault((r.bit_length() + 31) // 32 or 1, []).append(i)
        seed_of = _fixed_state_seed()
        gens = [None] * len(ids)
        for width, where in by_width.items():
            entropy = np.empty((len(where), len(prefix) + width), dtype=np.uint32)
            entropy[:, :len(prefix)] = prefix
            for k in range(width):
                entropy[:, len(prefix) + k] = [ids[i] >> 32 * k & _MASK32 for i in where]
            for i, state in zip(where, _seed_states(entropy)):
                gens[i] = np.random.Generator(np.random.PCG64(seed_of(state)))
        return gens


def expm(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm(a), with scipy.linalg imported on the first call."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


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
    Each pick is capped at the last state of positive probability, so a
    uniform in the rounding gap at the end of a cumulative sum picks that
    state, not one of probability zero.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if mu.n != rate.n:
        raise ValueError(f"initial law has {mu.n} entries, generator has {rate.n} states")
    gen = rng.generator() if isinstance(rng, RandomSource) else rng
    rates, cum, last = rate._jump_tables()
    w = mu.weights
    initial = min(bisect_right(np.cumsum(w).tolist(), gen.random()),
                  len(w) - 1 - int(np.argmax(w[::-1] > 0)))
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
        state = min(bisect_right(cum[state], gen.random()), last[state])
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
    """Restriction Lambda_A of the generator to rows and columns in A;
    ValueError for a state that A lists twice."""
    idx = np.asarray(list(subset), dtype=np.intp)
    if len(idx) == 0:
        raise EmptySubset("subset must be nonempty")
    if len(np.unique(idx)) < len(idx):
        raise ValueError(f"subset repeats a state: {idx.tolist()}")
    return rate.entries[np.ix_(idx, idx)]


def exit_survival_oracle(rate: RateMatrix, subset, i: int, t: float) -> float:
    """Classical sub-generator formula P_i(tau_A > t) = (delta_i e^{t Lambda_A}) . 1;
    ValueError for t < 0."""
    idx = list(subset)
    if i not in idx:
        raise StateNotInSubset(f"state {i} not in subset")
    sub = sub_generator(rate, idx)
    p = int(idx.index(i))
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 1.0
    row = expm(t * sub)[p]
    return float(row.sum())
