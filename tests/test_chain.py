import numpy as np
import pytest

from pdpfilter import (
    Distribution,
    EmptySubset,
    NegativeOffDiagonal,
    ObservationModel,
    PiecewisePath,
    RandomSource,
    RowSumNonzero,
    StateNotInSubset,
    exit_survival_oracle,
    observe,
    sample_chain,
    sub_generator,
    transition_semigroup,
    validate_generator,
)
from conftest import CYCLIC4_GENERATOR, random_rate_matrix


class TestValidateGenerator:
    def test_cyclic4_valid(self):
        rate = validate_generator(CYCLIC4_GENERATOR)
        assert rate.n == 4

    def test_zero_matrix_valid(self):
        rate = validate_generator(np.zeros((2, 2)))
        assert rate.n == 2

    def test_row_sum_nonzero(self):
        with pytest.raises(RowSumNonzero) as exc:
            validate_generator([[-1.0, 2.0], [0.0, 0.0]])
        assert exc.value.row == 0

    def test_negative_off_diagonal(self):
        with pytest.raises(NegativeOffDiagonal) as exc:
            validate_generator([[1.0, -1.0], [0.0, 0.0]])
        assert (exc.value.i, exc.value.j) == (0, 1)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            validate_generator(np.zeros((2, 3)))


class TestTransitionSemigroup:
    def test_t_zero_identity(self):
        rate = validate_generator(CYCLIC4_GENERATOR)
        assert np.array_equal(transition_semigroup(rate, 0.0), np.eye(4))

    def test_two_state_symmetric_closed_form(self):
        rate = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        for t in (0.1, 0.7, 2.3):
            p = transition_semigroup(rate, t)
            stay = (1 + np.exp(-2 * t)) / 2
            assert abs(p[0, 0] - stay) < 1e-12
            assert abs(p[1, 1] - stay) < 1e-12
            assert abs(p[0, 1] - (1 - stay)) < 1e-12

    def test_rows_stochastic(self):
        rate = validate_generator(CYCLIC4_GENERATOR)
        p = transition_semigroup(rate, 1.0)
        assert (p >= -1e-12).all()
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9

    def test_semigroup_law_random_models(self):
        gen = np.random.default_rng(11)
        for _ in range(5):
            rate = random_rate_matrix(gen, int(gen.integers(2, 6)), scale=5.0)
            s, t = gen.uniform(0.1, 2.0, 2)
            left = transition_semigroup(rate, s + t)
            right = transition_semigroup(rate, s) @ transition_semigroup(rate, t)
            assert np.abs(left - right).max() < 1e-8


class ScriptedDraws:
    """A generator stub: `random` returns the given uniforms in order, and
    `exponential(scale)` returns scale, the mean holding time."""

    def __init__(self, uniforms):
        self.uniforms = iter(uniforms)

    def random(self):
        return next(self.uniforms)

    def exponential(self, scale):
        return scale


# state 2's cumulative jump row ends at 0.9999999999999999, one ulp below 1
GAPPED_ROW = [[-1, 0.5, 0.5], [0.5, -1, 0.5],
              [0.9388537179520404, 0.2034393699528147, -1.1422930879048552]]


class TestRandomSourceGenerators:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**130 + 7])
    @pytest.mark.parametrize("lineage", [(), (901,), (3, 901)])
    def test_batch_matches_each_stream_bit_for_bit(self, seed, lineage):
        # ids of one and of two 32-bit words in one call; the seed 2**130 + 7
        # has five words, more entropy than SeedSequence's pool of four
        source = RandomSource(seed, 5, lineage)
        ids = [0, 1, 2**32 - 1, 2**32]
        gens = source.generators(ids)
        assert len(gens) == len(ids)
        for r, gen in zip(ids, gens):
            alone = source.stream(r).generator()
            assert gen.bit_generator.state == alone.bit_generator.state
            assert np.array_equal(gen.random(5), alone.random(5))
            assert gen.exponential(2.0) == alone.exponential(2.0)

    def test_empty_batch(self):
        assert RandomSource(3).generators([]) == []

    @pytest.mark.parametrize("seed, ids", [(3, [0, -1]), (-1, [0])])
    def test_negative_seed_or_id_raises_as_numpy_does(self, seed, ids):
        with pytest.raises(ValueError):
            RandomSource(seed).generators(ids)
        with pytest.raises(ValueError):
            RandomSource(seed).stream(min(ids)).generator()


class TestSampleChain:
    def test_jump_uniform_in_the_rounding_gap_picks_a_possible_state(self):
        rate = validate_generator(GAPPED_ROW)
        draws = ScriptedDraws([0.5, np.nextafter(1.0, 0.0)])
        path = sample_chain(rate, Distribution([0, 0, 1]), 1.0, draws)
        assert path.initial_value == 2
        assert path.jumps == ((1.0 / 1.1422930879048552, 1),)

    def test_initial_uniform_in_the_rounding_gap_picks_a_state_with_mass(self):
        rate = validate_generator(GAPPED_ROW)
        mu = Distribution([0.5, 0.5 - 4e-11, 0.0])
        path = sample_chain(rate, mu, 0.5, ScriptedDraws([1.0 - 1e-11]))
        assert path.initial_value == 1
        assert path.jumps == ()

    def test_rejects_a_law_of_another_length(self):
        # a 3-entry law on the 4-state chain sampled without complaint
        rate = validate_generator(CYCLIC4_GENERATOR)
        with pytest.raises(ValueError, match="3 entries.*4 states"):
            sample_chain(rate, Distribution([0.2, 0.3, 0.5]), 1.0, RandomSource(1))

    def test_absorbing_no_jumps(self):
        rate = validate_generator(np.zeros((3, 3)))
        path = sample_chain(rate, Distribution([0.2, 0.3, 0.5]), 10.0, RandomSource(1))
        assert path.jumps == ()

    def test_same_seed_identical(self):
        rate = validate_generator(CYCLIC4_GENERATOR)
        mu = Distribution([1, 0, 0, 0])
        p1 = sample_chain(rate, mu, 10.0, RandomSource(42, 3))
        p2 = sample_chain(rate, mu, 10.0, RandomSource(42, 3))
        assert p1.jumps == p2.jumps
        assert p1.initial_value == p2.initial_value

    def test_distinct_streams_differ(self):
        rate = validate_generator(CYCLIC4_GENERATOR)
        mu = Distribution([1, 0, 0, 0])
        p1 = sample_chain(rate, mu, 10.0, RandomSource(42, 0))
        p2 = sample_chain(rate, mu, 10.0, RandomSource(42, 1))
        assert p1.jumps != p2.jumps

    def test_first_holding_time_exponential(self):
        rate = validate_generator(CYCLIC4_GENERATOR)
        mu = Distribution([1, 0, 0, 0])
        base = RandomSource(7)
        n = 100000
        holds = np.empty(n)
        for r in range(n):
            # horizon 15 censors an Exp(1) holding time with prob ~3e-7
            path = sample_chain(rate, mu, 15.0, base.stream(r))
            holds[r] = path.jumps[0][0]
        se = holds.std(ddof=1) / np.sqrt(n)
        assert abs(holds.mean() - 1.0) <= 3 * se

    def test_marginal_distribution_matches_semigroup(self):
        rate = validate_generator(CYCLIC4_GENERATOR)
        mu = Distribution([0.7, 0.1, 0.1, 0.1])
        t = 0.8
        expected = mu.weights @ transition_semigroup(rate, t)
        base = RandomSource(8)
        n = 100000
        counts = np.zeros(4)
        for r in range(n):
            path = sample_chain(rate, mu, 1.0, base.stream(r))
            counts[path.value_at(t)] += 1
        freq = counts / n
        se = np.sqrt(expected * (1 - expected) / n)
        assert (np.abs(freq - expected) <= 4 * se).all()


class TestObserve:
    def test_injective_relabeling(self):
        rate = validate_generator(CYCLIC4_GENERATOR)
        obs = ObservationModel.from_assignment(("a", "b", "c", "d"))
        path = sample_chain(rate, Distribution([1, 0, 0, 0]), 10.0, RandomSource(5))
        y = observe(path, obs)
        assert y.jump_times == path.jump_times

    def test_constant_h_no_jumps(self):
        rate = validate_generator(CYCLIC4_GENERATOR)
        obs = ObservationModel.from_assignment(("a", "a", "a", "a"))
        path = sample_chain(rate, Distribution([1, 0, 0, 0]), 10.0, RandomSource(5))
        y = observe(path, obs)
        assert y.jumps == ()

    def test_cyclic4_alternates(self):
        obs = ObservationModel.from_assignment(("1", "0", "1", "0"))
        path = PiecewisePath(0, ((0.5, 1), (1.2, 2)), 5.0)
        y = observe(path, obs)
        assert y.initial_value == "1"
        assert y.jumps == ((0.5, "0"), (1.2, "1"))

    def test_jump_times_subset(self):
        gen = np.random.default_rng(3)
        rate = random_rate_matrix(gen, 5)
        obs = ObservationModel.from_assignment(("a", "a", "b", "b", "a"))
        path = sample_chain(rate, Distribution(np.full(5, 0.2)), 10.0, RandomSource(9))
        y = observe(path, obs)
        assert set(y.jump_times) <= set(path.jump_times)


class TestSubGenerator:
    def test_cyclic4_face(self):
        rate = validate_generator(CYCLIC4_GENERATOR)
        assert np.array_equal(sub_generator(rate, [0, 2]), np.diag([-1.0, -1.0]))

    def test_full_subset_identity(self):
        rate = validate_generator(CYCLIC4_GENERATOR)
        assert np.array_equal(sub_generator(rate, range(4)), rate.entries)

    def test_scalar_case(self):
        rate = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        assert np.array_equal(sub_generator(rate, [0]), [[-1.0]])

    def test_empty_subset(self):
        rate = validate_generator(CYCLIC4_GENERATOR)
        with pytest.raises(EmptySubset):
            sub_generator(rate, [])

    def test_repeated_state(self):
        # [0, 0, 2] held state 0 twice, and the exit-time oracle read its
        # survival off that matrix without an error
        rate = validate_generator(CYCLIC4_GENERATOR)
        for subset in ([0, 0, 2], [2, 0, 2]):
            with pytest.raises(ValueError, match="repeats"):
                sub_generator(rate, subset)
        with pytest.raises(ValueError, match="repeats"):
            exit_survival_oracle(rate, [0, 0, 2], 0, 0.01)


class TestExitSurvivalOracle:
    def test_t_zero(self):
        rate = validate_generator(CYCLIC4_GENERATOR)
        assert exit_survival_oracle(rate, [0, 2], 0, 0.0) == 1.0

    def test_cyclic4_exponential(self):
        rate = validate_generator(CYCLIC4_GENERATOR)
        for t in (0.3, 1.0, 4.0):
            assert abs(exit_survival_oracle(rate, [0, 2], 0, t) - np.exp(-t)) < 1e-12

    def test_full_space_no_exit(self):
        rate = validate_generator(CYCLIC4_GENERATOR)
        for t in (0.5, 2.0):
            assert abs(exit_survival_oracle(rate, range(4), 1, t) - 1.0) < 1e-9

    def test_monotone_in_range(self):
        gen = np.random.default_rng(4)
        rate = random_rate_matrix(gen, 5)
        ts = np.linspace(0, 5, 40)
        vals = [exit_survival_oracle(rate, [0, 1, 3], 1, t) for t in ts]
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in vals)
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_state_not_in_subset(self):
        rate = validate_generator(CYCLIC4_GENERATOR)
        with pytest.raises(StateNotInSubset):
            exit_survival_oracle(rate, [0, 2], 1, 1.0)

    def test_negative_time_rejected(self):
        # e^{-Lambda_A} would give a "probability" of e > 1 on cyclic4
        rate = validate_generator(CYCLIC4_GENERATOR)
        with pytest.raises(ValueError, match="nonnegative"):
            exit_survival_oracle(rate, [0, 2], 0, -1.0)


class TestPiecewisePath:
    def test_value_at(self):
        path = PiecewisePath("a", ((1.0, "b"), (2.5, "a")), 5.0)
        assert path.value_at(0.0) == "a"
        assert path.value_at(1.0) == "b"
        assert path.value_at(2.4) == "b"
        assert path.value_at(3.0) == "a"

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            PiecewisePath("a", ((1.0, "b"), (1.0, "a")), 5.0)

    def test_rejects_repeated_values(self):
        with pytest.raises(ValueError):
            PiecewisePath("a", ((1.0, "a"),), 5.0)

    def test_rejects_jump_beyond_horizon(self):
        with pytest.raises(ValueError):
            PiecewisePath("a", ((6.0, "b"),), 5.0)


class TestObservationModel:
    def test_surjectivity_enforced(self):
        with pytest.raises(ValueError):
            ObservationModel(labels=("a", "b"), assignment=("a", "a"))

    def test_level_sets_partition(self):
        obs = ObservationModel.from_assignment(("x", "y", "x"))
        cover = sorted(i for a in obs.labels for i in obs.level_sets[a])
        assert cover == [0, 1, 2]

    def test_injective_flag(self):
        assert ObservationModel.from_assignment(("a", "b")).injective
        assert not ObservationModel.from_assignment(("a", "a", "b")).injective
