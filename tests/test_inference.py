"""Tests for statistics, permutation schemes, p-values, and the test pipelines."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
import synthconf as sc
from synthconf import (
    CiEntry,
    DimensionError,
    EstimatorSpec,
    NumericalError,
    PanelData,
    PermutationScheme,
    SolverConfig,
    Statistic,
    p_value,
    placebo_test,
    pointwise_ci,
)
from synthconf.inference import _CHUNK, _median, _rank
from conftest import examples, random_panel

# module-qualified aliases: bare imports of these would be collected by pytest
sharp_null = sc.test_sharp_null
average_effect = sc.test_average_effect
multi_unit = sc.test_multi_unit


def permutations_of(scheme, n):
    """The permutations ``_rank`` ranks against: ``size(n)`` rows, chunk by chunk."""
    size = scheme.size(n)  # refuses a too-long iid_all window
    rows = np.concatenate(list(scheme._iter_chunks(n, n)))
    assert rows.shape == (size, n)
    return rows


class TestStatistics:
    def test_zero_residuals(self):
        assert Statistic()(np.zeros(6)[4:]) == 0.0

    def test_single_term(self):
        assert Statistic("sq", 1)(np.array([1.0, 2.0, 3.0, 4.0])[3:]) == 4.0

    def test_q2_hand_value(self):
        # ((9 + 16) / sqrt(2)) ** (1/2)
        expected = (25.0 / math.sqrt(2.0)) ** 0.5
        got = Statistic("sq", 2)(np.array([0.0, 3.0, 4.0])[1:])
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(4.2045, abs=1e-4)

    @pytest.mark.parametrize("statistic", [Statistic(), Statistic("sq", 2), Statistic("mean")],
                             ids=lambda statistic: statistic.label)
    def test_empty_window_refused(self, statistic):
        with pytest.raises(DimensionError, match="post-treatment window is empty"):
            statistic(np.ones(5)[5:])

    def test_mean_cancellation(self):
        assert Statistic("mean")(np.array([1.0, -1.0])) == 0.0

    def test_mean_single(self):
        assert Statistic("mean")(np.array([2.0])) == 2.0

    def test_mean_hand_value(self):
        got = Statistic("mean")(np.array([1.0, 2.0, 3.0]))
        assert got == pytest.approx(6.0 / math.sqrt(3.0), abs=1e-12)
        assert got == pytest.approx(3.4641, abs=1e-4)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            Statistic("sq", 0.5)(np.ones(4)[2:])
        with pytest.raises(ValueError):
            Statistic("sq", q=0.5)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_non_finite_order_refused(self, q):
        # A NaN order gave p = 0, below the 1/|Pi| floor (no statistic ties
        # NaN), and an infinite one made every statistic 1, so p = 1.
        with pytest.raises(ValueError, match="finite"):
            Statistic("sq", q)(np.ones(4)[2:])
        with pytest.raises(ValueError, match="finite"):
            Statistic("sq", q=q)

    @pytest.mark.parametrize("q", [2.0, 0.5, math.nan])
    def test_mean_refuses_an_order(self, q):
        # The mean statistic has no order, and a q given with it was ignored.
        with pytest.raises(ValueError, match="^mean statistics do not use 'q'$"):
            Statistic("mean", q=q)
        assert Statistic("mean", q=1.0) == Statistic("mean")


class TestPermutationScheme:
    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="unknown permutation scheme 'bogus'"):
            PermutationScheme("bogus")

    def test_moving_block_enumerates_t_shifts(self):
        scheme = PermutationScheme.moving_block()
        perms = permutations_of(scheme, 4)
        assert len(perms) == 4 == scheme.size(4)
        np.testing.assert_array_equal(perms[0], [0, 1, 2, 3])
        np.testing.assert_array_equal(perms[1], [1, 2, 3, 0])

    def test_moving_block_shift_example(self):
        u = np.array([1.0, 2.0, 3.0, 4.0])
        shift = permutations_of(PermutationScheme.moving_block(), 4)[1]
        np.testing.assert_array_equal(u[shift], [2.0, 3.0, 4.0, 1.0])

    def test_moving_block_composition_is_cyclic(self):
        perms = permutations_of(PermutationScheme.moving_block(), 5)
        for a, b in itertools.product(range(5), repeat=2):
            composed = perms[a][perms[b]]
            np.testing.assert_array_equal(composed, perms[(a + b) % 5])

    def test_group_property(self):
        # Pi * pi = Pi for every pi: composing all elements with a fixed one
        # reproduces the set.
        for scheme, n in ((PermutationScheme.moving_block(), 6), (PermutationScheme.iid_all(), 4)):
            perms = [tuple(p) for p in permutations_of(scheme, n)]
            for pi in perms:
                pi = np.asarray(pi)
                composed = {tuple(np.asarray(sigma)[pi]) for sigma in perms}
                assert composed == set(perms)

    def test_iid_all_counts_and_identity_first(self):
        scheme = PermutationScheme.iid_all()
        perms = permutations_of(scheme, 4)
        assert len(perms) == math.factorial(4) == scheme.size(4)
        np.testing.assert_array_equal(perms[0], [0, 1, 2, 3])
        assert len({tuple(p) for p in perms}) == 24

    def test_iid_all_guard(self):
        scheme = PermutationScheme.iid_all()
        assert scheme.size(10) == math.factorial(10)
        with pytest.raises(ValueError):
            scheme.size(11)
        with pytest.raises(ValueError):
            permutations_of(scheme, 11)
        with pytest.raises(ValueError):
            p_value(np.ones(11), scheme, Statistic(), 1)

    def test_iid_sampled_contains_identity_and_is_seeded(self):
        scheme = PermutationScheme.iid_sampled(n_samples=50, seed=3)
        first = permutations_of(scheme, 8)
        again = permutations_of(scheme, 8)
        assert len(first) == 50
        np.testing.assert_array_equal(first[0], np.arange(8))
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n_samples", [2.5, 3.0, True, 0])
    def test_iid_sampled_count_refused(self, n_samples):
        # 2.5 and True were accepted, then failed inside numpy at the first test.
        with pytest.raises(ValueError, match="n_samples"):
            PermutationScheme.iid_sampled(n_samples=n_samples)

    @pytest.mark.parametrize("kind", ["moving_block", "iid_all"])
    @pytest.mark.parametrize("field, value", [("n_samples", 0), ("n_samples", 50), ("seed", 3)])
    def test_unread_field_refused(self, kind, field, value):
        # A scheme that does not sample kept any n_samples and seed, and
        # result.json recorded them as if they had been used.
        with pytest.raises(ValueError, match=f"^{kind} permutations do not use '{field}'$"):
            PermutationScheme(kind, **{field: value})

    def test_iid_sampled_past_one_chunk(self):
        scheme = PermutationScheme.iid_sampled(n_samples=_CHUNK + 2, seed=11)
        chunks = list(scheme._iter_chunks(6, 6))
        assert [len(chunk) for chunk in chunks] == [1, _CHUNK, 1]
        first = permutations_of(scheme, 6)
        assert len(first) == _CHUNK + 2 == scheme.size(6)
        np.testing.assert_array_equal(first[0], np.arange(6))
        np.testing.assert_array_equal(np.sort(first, axis=1), np.tile(np.arange(6), (_CHUNK + 2, 1)))
        np.testing.assert_array_equal(first, permutations_of(scheme, 6))
        other = permutations_of(PermutationScheme.iid_sampled(n_samples=_CHUNK + 2, seed=12), 6)
        assert not np.array_equal(first[1:], other[1:])

    def test_iid_sampled_numpy_integer_count_accepted(self):
        scheme = PermutationScheme.iid_sampled(n_samples=np.int64(7))
        assert len(permutations_of(scheme, 5)) == 7

    @pytest.mark.parametrize("seed", [1.5, 3.0, True, -1])
    def test_iid_sampled_seed_refused(self, seed):
        # 1.5 constructed and raised TypeError at the first test; True was
        # used as 1, and -1 failed inside numpy.
        with pytest.raises(ValueError, match="seed"):
            PermutationScheme.iid_sampled(seed=seed)

    def test_iid_sampled_numpy_integer_seed_accepted(self):
        scheme = PermutationScheme.iid_sampled(n_samples=5, seed=np.int64(3))
        same = PermutationScheme.iid_sampled(n_samples=5, seed=3)
        for a, b in zip(permutations_of(scheme, 6), permutations_of(same, 6)):
            np.testing.assert_array_equal(a, b)


class TestSortMedian:
    @settings(max_examples=examples(300), deadline=None)
    @given(st.lists(st.floats(width=64, allow_infinity=False), min_size=1, max_size=60)
           | st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=12))
    def test_equals_numpy_median(self, values):
        # The default grid's spread takes two medians; one sort each must give
        # np.median's value, ties, signed zeros and NaN included.
        x = np.array(values)
        with np.errstate(all="ignore"):
            got, want = _median(x), np.median(x)
        assert type(got) is type(want)
        assert np.isnan(got) if np.isnan(want) else got.tobytes() == want.tobytes()


class TestPValue:
    def test_hand_enumerated_moving_block(self):
        u = np.array([1.0, 2.0, 3.0, 4.0])
        result = p_value(u, PermutationScheme.moving_block(), Statistic("sq", 1), 1)
        assert result.p_value == 0.25
        assert result.statistic == 4.0
        assert sorted(result.permuted_statistics.tolist()) == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("residuals, statistic, match", [
        ([1.0, 2.0, np.inf], Statistic(), "a residual is not finite"),
        ([1.0, np.nan, 2.0], Statistic(), "a residual is not finite"),
        ([1.0, 1.7e308, 1.7e308], Statistic("mean"), "a permuted statistic is not finite"),
        ([1.0] + [1e308, 1e308, -1e308, -1e308] * 2, Statistic("mean"), "a permuted statistic is not finite"),
        ([1.0, 1e160, 2e160], Statistic("sq", 2.0), "a permuted statistic is not finite"),
        ([1.0, 2.0, 3.0], lambda r: np.full(np.shape(r)[:-1], np.nan), "a permuted statistic is not finite"),
    ], ids=["infinite", "nan", "mean_overflows", "mean_partial_sums_overflow", "sq_overflows", "custom_nan"])
    def test_non_finite_refused(self, residuals, statistic, match):
        # Regression: the tie bound of an infinite statistic is NaN, so not
        # even the identity tied and the p-value fell below 1/|Pi| (0 here);
        # a NaN residual was ranked.  No RuntimeWarning comes first.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match=match):
                p_value(residuals, PermutationScheme.moving_block(), statistic, len(residuals) - 1)

    def test_overflowing_statistic_refused_by_the_test(self):
        # S_2 of 1e160-scaled outcomes overflows; at 1e150 it does not, and
        # the p-value is that of the unscaled panel.
        outcomes = np.random.default_rng(0).standard_normal((14, 5))
        test = lambda scale: sharp_null(PanelData(scale * outcomes, t0=12), [0.0, 0.0], EstimatorSpec.did(),
                                        statistic=Statistic("sq", 2.0))
        assert test(1.0).p_value == test(1e150).p_value == 1.0
        with pytest.raises(NumericalError, match="a permuted statistic is not finite"):
            test(1e160)

    def test_total_ties_give_one(self):
        u = np.full(6, 0.7)
        result = p_value(u, PermutationScheme.moving_block(), Statistic(), 2)
        assert result.p_value == 1.0

    def test_rounding_level_ties_count(self):
        # The six cyclic shifts put the same three values in the post window,
        # so all statistics are equal in exact arithmetic; summation order
        # alone splits them by 1 ulp.
        u = np.array([0.1, 0.2, 0.3, 0.1, 0.2, 0.3])
        result = p_value(u, PermutationScheme.moving_block(), Statistic(), 3)
        assert result.p_value == 1.0

    @settings(max_examples=examples(200), deadline=None)
    @given(
        block=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=8),
        scale=st.floats(1e-3, 1e3),
    )
    def test_periodic_residuals_give_one(self, block, scale):
        # A residual vector that repeats its post window has every shift of
        # that window as its post window: every permutation is a tie.
        u = scale * np.tile(block, 2)
        result = p_value(u, PermutationScheme.moving_block(), Statistic(), len(block))
        assert result.p_value == 1.0

    def test_strict_maximum_gives_lower_bound(self):
        u = np.array([0.1, -0.2, 0.3, 5.0])
        result = p_value(u, PermutationScheme.moving_block(), Statistic(), 1)
        assert result.p_value == 0.25  # = 1 / |Pi|

    def test_p_values_live_on_grid(self, rng):
        n = 9
        u = rng.standard_normal(n)
        result = p_value(u, PermutationScheme.moving_block(), Statistic(), 3)
        assert result.p_value in {k / n for k in range(1, n + 1)}
        assert result.p_value >= 1.0 / n

    def test_scale_invariance(self, rng):
        u = rng.standard_normal(8)
        base = p_value(u, PermutationScheme.moving_block(), Statistic(), 2)
        scaled = p_value(3.7 * u, PermutationScheme.moving_block(), Statistic(), 2)
        assert scaled.p_value == base.p_value
        assert scaled.statistic == pytest.approx(3.7 * base.statistic, rel=1e-12)

    def test_enumeration_order_irrelevant(self, rng):
        # The statistics of the scheme's permutations, each evaluated alone
        # and in a shuffled order, give the p-value of the chunked pass.
        u = rng.standard_normal(7)
        scheme = PermutationScheme.moving_block()
        result = p_value(u, scheme, Statistic("sq", 1), 2)
        perms = rng.permutation(permutations_of(scheme, 7))
        shuffled = np.array([Statistic("sq", 1)(u[pi][5:]) for pi in perms])
        assert result.p_value == (shuffled >= result.statistic).mean()
        np.testing.assert_array_equal(np.sort(result.permuted_statistics), np.sort(shuffled))

    def test_iid_sampled_end_to_end(self, rng):
        u = rng.standard_normal(30)
        scheme = PermutationScheme.iid_sampled(n_samples=400, seed=12)
        result = p_value(u, scheme, Statistic(), 2)
        repeat = p_value(u, scheme, Statistic(), 2)
        assert result.p_value == repeat.p_value
        assert result.n_permutations == 400
        assert result.p_value >= 1 / 400

    def test_iid_all_matches_explicit_enumeration(self, rng):
        u = rng.standard_normal(5)
        result = p_value(u, PermutationScheme.iid_all(), Statistic("sq", 1), 2)
        stats = []
        for pi in itertools.permutations(range(5)):
            v = u[list(pi)][3:]
            stats.append(np.abs(v).sum() / np.sqrt(2))
        stats = np.asarray(stats)
        expected = (stats >= stats[0]).mean()
        assert result.p_value == expected

    def test_iid_all_across_chunks_matches_explicit_enumeration(self, rng):
        # T = 8 gives 40,320 permutations in 10 chunks of at most _CHUNK rows;
        # each chunk's statistics must land at its offset.
        u = rng.standard_normal(8)
        result = p_value(u, PermutationScheme.iid_all(), Statistic("sq", 1), 2)
        perms = np.array(list(itertools.permutations(range(8))))
        assert math.ceil(len(perms) / _CHUNK) == 10
        stats = np.abs(u[perms][:, 6:]).sum(axis=1) / np.sqrt(2)
        np.testing.assert_array_equal(result.permuted_statistics, stats)
        assert result.p_value == (stats >= stats[0]).mean()

    @pytest.mark.parametrize("scheme, n", [
        (PermutationScheme.moving_block(), 9),
        (PermutationScheme.iid_all(), 8),
        (PermutationScheme.iid_sampled(n_samples=_CHUNK + 2, seed=5), 9),
    ], ids=["moving_block", "iid_all", "iid_sampled"])
    @pytest.mark.parametrize("statistic", [Statistic("sq", 1), Statistic("sq", 2), Statistic("mean")],
                             ids=lambda statistic: statistic.label)
    def test_builtin_and_custom_statistics_agree_across_chunks(self, rng, statistic, scheme, n):
        # A moving block is one chunk; iid_all at n = 8 is 10 chunks, and
        # iid_sampled with _CHUNK + 2 samples the identity, one full chunk
        # and a chunk of one.  The statistic and a callable wrapping it rank
        # every row against the statistics of the explicit enumeration.
        rows = rng.standard_normal((3, n))
        n_post = 2
        explicit = statistic(rows[:, permutations_of(scheme, n)][..., n - n_post:])
        expected_p = (explicit >= explicit[:, :1]).mean(axis=1)
        for candidate in (statistic, lambda r: statistic(r)):
            stats, pvals = _rank(rows, scheme, candidate, n_post)
            np.testing.assert_array_equal(stats, explicit)
            np.testing.assert_array_equal(pvals, expected_p)

    def test_custom_statistic_sees_the_post_window_of_a_chunk(self, rng):
        # One call per chunk, on (rows, permutations in the chunk, post periods).
        rows = rng.standard_normal((3, 9))
        shapes = []
        statistic = lambda r: shapes.append(r.shape) or Statistic()(r)
        _rank(rows, PermutationScheme.moving_block(), statistic, 2)
        assert shapes == [(3, 9, 2)]
        shapes.clear()
        _rank(rows, PermutationScheme.iid_sampled(n_samples=_CHUNK + 2, seed=5), statistic, 3)
        assert shapes == [(3, 1, 3), (3, _CHUNK, 3), (3, 1, 3)]
        shapes.clear()
        result = p_value(rows[0], PermutationScheme.moving_block(), statistic, 1)
        assert shapes == [(1, 9, 1)] and result.q == "custom"

    @pytest.mark.parametrize("statistic, got", [
        (lambda r: np.abs(r).max(), r"\(\)"),
        (lambda r: np.abs(r).max(axis=(0, -1)), r"\(9,\)"),
        (lambda r: np.abs(r), r"\(2, 9, 2\)"),
    ], ids=["scalar", "one_per_permutation", "no_reduction"])
    def test_statistic_of_another_shape_refused(self, rng, statistic, got):
        # A callable written for one 1-D row returns a scalar; broadcast over
        # the chunk, it would make every permutation a tie without a word.
        message = (r"^a statistic must return one value per row and permutation, shape \(2, 9\) for "
                   r"post-window values of shape \(2, 9, 2\) \(rows, permutations, post periods\); "
                   f"got shape {got}$")
        with pytest.raises(DimensionError, match=message):
            _rank(rng.standard_normal((2, 9)), PermutationScheme.moving_block(), statistic, 2)

    @pytest.mark.parametrize("n_post", [0, 9, 1.5, True, slice(6, None)], ids=repr)
    def test_n_post_not_a_count_of_the_residuals_refused(self, n_post):
        # The post window is the last n_post residuals: 2 gives the p-value of
        # the last two positions, and a count outside 1..8, a float, a bool or
        # a slice is refused by name.
        u = np.random.default_rng(3).standard_normal(8)
        assert p_value(u, PermutationScheme.moving_block(), Statistic(), 2).p_value == 0.5
        with pytest.raises(ValueError, match="^n_post must "):
            p_value(u, PermutationScheme.moving_block(), Statistic(), n_post)

    @pytest.mark.parametrize("residuals, shape", [(np.ones((3, 4)), r"\(3, 4\)"), (1.0, r"\(\)")],
                             ids=["two_dimensional", "scalar"])
    def test_residuals_not_one_dimensional_refused(self, residuals, shape):
        # Regression: a matrix failed inside _rank with numpy's broadcast
        # ValueError, and a scalar with numpy's IndexError.
        with pytest.raises(DimensionError, match=f"^residuals must be 1-D; got shape {shape}$"):
            p_value(residuals, PermutationScheme.moving_block(), Statistic(), 1)

    @pytest.mark.parametrize("dtype", [complex, object], ids=["complex", "object"])
    def test_statistic_not_real_refused(self, dtype):
        # Regression: a complex result was cast to real with only a
        # ComplexWarning, and the p-value (0.5 here) was returned.
        statistic = lambda r: np.abs(r).max(axis=-1).astype(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"^a statistic must return real values .*; got dtype "
                                                     f"{np.dtype(dtype)}$"):
                p_value(np.arange(4.0), PermutationScheme.moving_block(), statistic, 2)

class TestSharpNull:
    def test_noise_free_true_null_is_maximally_conservative(self, rng):
        # A single control makes the synthetic-control weight exactly 1, so
        # the noise-free fit leaves residuals of exactly zero: total ties.
        # Integer-valued outcomes keep the null adjustment exact in floats.
        control = rng.integers(-8, 9, size=10).astype(float)
        treated = control.copy()
        treated[8:] += 2.0  # true effect
        panel = PanelData(np.column_stack([treated, control]), t0=8)
        result = sharp_null(panel, [2.0, 2.0], EstimatorSpec.sc())
        assert result.p_value == 1.0

    def test_huge_effect_detected(self, rng):
        hits = 0
        spec = EstimatorSpec.did()
        for rep in range(200):
            controls = rng.standard_normal((20, 4))
            treated = controls.mean(axis=1) + rng.standard_normal(20)
            treated[-1] += 10.0
            panel = PanelData(np.column_stack([treated, controls]), t0=19)
            result = sharp_null(panel, [0.0], spec)
            hits += result.p_value == 1.0 / 20
        assert hits / 200 >= 0.99

    def test_exact_size_iid_gaussian(self, rng):
        # Exchangeable data and a permutation-invariant estimator: rejection
        # at the 10% level stays within Monte Carlo error of 10%.
        spec = EstimatorSpec.did()
        rejections = 0
        n_reps = 2000
        for rep in range(n_reps):
            controls = rng.standard_normal((20, 5))
            treated = controls.mean(axis=1) + rng.standard_normal(20)
            panel = PanelData(np.column_stack([treated, controls]), t0=19)
            rejections += sharp_null(panel, [0.0], spec).p_value <= 0.1
        assert rejections / n_reps == pytest.approx(0.10, abs=0.02)

    def test_result_provenance(self, small_panel):
        result = sharp_null(small_panel, [0.0, 0.0], EstimatorSpec.classo())
        assert result.estimator_id == "classo(K=1)"
        assert result.window == (1, 12)
        assert result.q == 1.0
        assert result.residuals.shape == (12,)

    def test_lag_consuming_window(self, rng):
        panel = random_panel(rng, 16, 3)
        result = sharp_null(panel, [0.0, 0.0], EstimatorSpec.ar(2))
        assert result.window == (3, 16)
        assert result.n_permutations == 14  # moving block on the shortened window

    def test_mean_statistic_through_pipeline(self, rng):
        panel = random_panel(rng, 14, 3)
        result = sharp_null(panel, [0.0, 0.0], EstimatorSpec.did(), statistic=Statistic("mean"))
        assert result.q == "mean"
        assert result.p_value >= 1 / 14

    @settings(max_examples=examples(60), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_periods=st.integers(6, 24),
        n_controls=st.integers(1, 12),
        exponent=st.floats(-6.0, 6.0),
    )
    # classo fits all six periods exactly: its residuals are rounding noise.
    @example(seed=6, n_periods=6, n_controls=7, exponent=1.0)
    def test_p_values_do_not_depend_on_units(self, seed, n_periods, n_controls, exponent):
        rng = np.random.default_rng(seed)
        panel = random_panel(rng, n_periods, n_controls, noise=1.0)
        c = 10.0**exponent
        scaled = PanelData(c * panel.outcomes, t0=panel.t0)
        alpha0 = np.zeros(panel.n_post)
        specs = [EstimatorSpec.did(), EstimatorSpec.sc(), EstimatorSpec.classo(),
                 EstimatorSpec.factor(1), EstimatorSpec.ar(1),
                 EstimatorSpec.fused(EstimatorSpec.did(), 1)]
        pairs = [(spec, spec) for spec in specs]
        # lam is in squared units of the outcomes.
        pairs += [(EstimatorSpec.lasso(0.5), EstimatorSpec.lasso(0.5 * c**2)),
                  (EstimatorSpec.elastic_net(0.5, 0.5), EstimatorSpec.elastic_net(0.5 * c**2, 0.5))]
        for spec, scaled_spec in pairs:
            assert sharp_null(scaled, alpha0, scaled_spec).p_value == sharp_null(panel, alpha0, spec).p_value


class TestOrbitExactness:
    ORBIT_SPECS = [
        EstimatorSpec.did(), EstimatorSpec.sc(), EstimatorSpec.classo(), EstimatorSpec.lasso(0.5),
        EstimatorSpec.elastic_net(0.5, 0.5), EstimatorSpec.factor(1),
        EstimatorSpec.matrix_completion(), EstimatorSpec.matrix_completion(3.0),
    ]

    @settings(max_examples=examples(60), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_periods=st.integers(5, 7),
        n_controls=st.integers(1, 4),
        n_post=st.integers(1, 2),
        exponent=st.floats(-3.0, 3.0),
        spec=st.sampled_from(ORBIT_SPECS),
        iid=st.booleans(),
    )
    def test_orbit_share_of_rejections_is_at_most_alpha(self, seed, n_periods, n_controls, n_post,
                                                         exponent, spec, iid):
        # Exactness without sampling: permute the rows of one dataset by each
        # pi of a permutation group.  For an estimator whose residuals permute
        # with the rows, the share of the orbit with p <= alpha is at most
        # alpha, whatever the data.  Three panels in ten are near-exact fits,
        # the treated unit the control mean plus noise of 1e-10 to 1e-6 (or
        # none); noise within a few multiples of the rounding floor is left
        # out, since the refit of a permuted panel rounds its residuals
        # differently there.
        rng = np.random.default_rng(seed)
        controls = rng.standard_normal((n_periods, n_controls))
        near_exact = rng.random() < 0.3
        noise = rng.choice([0.0, 10.0 ** rng.uniform(-10.0, -6.0)]) if near_exact else 1.0
        treated = controls.mean(axis=1) + noise * rng.standard_normal(n_periods)
        outcomes = 10.0**exponent * np.column_stack([treated, controls])
        scheme = PermutationScheme.iid_all() if iid and n_periods <= 6 else PermutationScheme.moving_block()
        t0 = n_periods - n_post
        fits = [sc.fit(PanelData(outcomes[pi], t0=t0), spec) for pi in permutations_of(scheme, n_periods)]
        rows = np.array([fitted.residuals for fitted in fits])
        for statistic in (Statistic("sq", 1.0), Statistic("sq", 2.0), Statistic("mean")):
            _, pvals = sc.inference._rank(rows, scheme, statistic, n_post)
            for alpha in np.unique(pvals):
                assert (pvals <= alpha).mean() <= alpha + 1e-12, (statistic.label, alpha)


class TestPointwiseCi:
    def test_contains_truth_in_noise_free_model(self, rng):
        # Noise-free realizable model (closed-form fit leaves exact zeros at
        # the true candidate, whose p-value is then 1).
        controls = rng.standard_normal((12, 3))
        treated = controls.mean(axis=1) + 1.0
        treated[10:] += 1.5
        panel = PanelData(np.column_stack([treated, controls]), t0=10)
        entry = pointwise_ci(
            panel, 11, EstimatorSpec.did(), grid=np.linspace(-1.0, 3.0, 17), level=0.9
        )
        accepted_values = entry.grid[entry.accepted]
        assert 1.5 in accepted_values
        assert entry.lower <= 1.5 <= entry.upper

    def test_widening_grid_never_shrinks_accepted_set(self, rng):
        panel = random_panel(rng, 12, 3)
        spec = EstimatorSpec.did()
        narrow = pointwise_ci(panel, 12, spec, grid=np.linspace(-1, 1, 11))
        wide = pointwise_ci(panel, 12, spec, grid=np.linspace(-2, 2, 21))
        narrow_accepted = set(np.round(narrow.grid[narrow.accepted], 10))
        wide_accepted = set(np.round(wide.grid[wide.accepted], 10))
        assert narrow_accepted <= wide_accepted

    def test_discreteness_boundary_level(self, rng):
        # At level 1 - 1/|Pi| the acceptance cut is p > 1/|Pi|, i.e. p >= 2/|Pi|.
        panel = random_panel(rng, 5, 2, t0=4)
        n_perms = 5
        grid = np.linspace(-2, 2, 9)
        entry = pointwise_ci(
            panel, 5, EstimatorSpec.did(), grid=grid, level=1 - 1 / n_perms
        )
        pvals = entry.p_values
        np.testing.assert_array_equal(entry.accepted, pvals >= 2 / n_perms - 1e-12)

    def test_grid_is_sorted_and_must_not_be_empty(self, rng):
        panel = random_panel(rng, 12, 3)
        spec = EstimatorSpec.did()
        grid = np.linspace(-2, 2, 21)
        ascending = pointwise_ci(panel, 12, spec, grid=grid)
        assert not ascending.is_empty
        for order in (grid[::-1], rng.permutation(grid)):
            entry = pointwise_ci(panel, 12, spec, grid=order)
            np.testing.assert_array_equal(entry.grid, grid)
            np.testing.assert_array_equal(entry.p_values, ascending.p_values)
            assert (entry.lower, entry.upper, entry.has_gaps) == (
                ascending.lower, ascending.upper, ascending.has_gaps)
        with pytest.raises(DimensionError):
            pointwise_ci(panel, 12, spec, grid=[])

    def test_empty_acceptance_warns(self, rng):
        controls = rng.standard_normal((14, 3))
        treated = controls.mean(axis=1) + 0.05 * rng.standard_normal(14)
        treated[12:] += 50.0
        panel = PanelData(np.column_stack([treated, controls]), t0=12)
        with pytest.warns(UserWarning, match="grid"):
            entry = pointwise_ci(
                panel, 13, EstimatorSpec.did(), grid=np.linspace(-1, 1, 5), level=0.9
            )
        assert entry.is_empty
        assert math.isnan(entry.lower)

    @settings(max_examples=examples(150), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        t0=st.integers(4, 12),
        n_controls=st.integers(1, 15),
        grid=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=12),
        repeats=st.integers(0, 3),
        kind=st.sampled_from(["did", "sc", "classo", "lasso", "elastic_net"]),
        radius=st.floats(0.5, 3.0),
        lam=st.floats(0.01, 5.0),
        alpha=st.floats(0.0, 1.0),
        default_grid=st.booleans(),
    )
    @pytest.mark.filterwarnings("ignore:no candidate effect accepted")
    def test_p_values_equal_per_candidate_tests(self, seed, t0, n_controls, grid, repeats, kind,
                                                radius, lam, alpha, default_grid):
        # Candidates are fitted warm from their neighbour (the first one, on
        # the default grid, from the zero-effect fit) and ranked in one pass;
        # each p-value must still be that of its own sharp-null test.
        rng = np.random.default_rng(seed)
        panel = random_panel(rng, t0 + 2, n_controls, t0=t0, noise=1.0)
        spec = {"did": EstimatorSpec.did(), "sc": EstimatorSpec.sc(),
                "classo": EstimatorSpec.classo(radius), "lasso": EstimatorSpec.lasso(lam),
                "elastic_net": EstimatorSpec.elastic_net(lam, alpha)}[kind]
        grid = None if default_grid else grid + grid[:repeats]
        entry = pointwise_ci(panel, t0 + 2, spec, grid=grid)
        sub = sc.pointwise_slice(panel, t0 + 2)
        expected = [sharp_null(sub, [candidate], spec).p_value for candidate in entry.grid]
        np.testing.assert_array_equal(entry.p_values, expected)

    @settings(max_examples=examples(150), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        t0=st.integers(3, 12),
        n_controls=st.integers(1, 15),
        kind=st.sampled_from(["sc", "classo", "lasso", "elastic_net"]),
        radius=st.floats(0.5, 3.0),
        lam=st.floats(0.01, 5.0),
        alpha=st.floats(0.0, 1.0),
        covariate=st.booleans(),
        noise=st.sampled_from([1e-6, 1e-3, 1.0]),
        exponent=st.floats(-3.0, 3.0),
        grid=st.none() | st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=12),
        repeats=st.integers(0, 3),
        max_iters=st.sampled_from([10_000, 1]),
    )
    @pytest.mark.filterwarnings("ignore:no candidate effect accepted")
    def test_block_fit_equals_warm_candidate_loop(self, seed, t0, n_controls, kind, radius, lam, alpha,
                                                  covariate, noise, exponent, grid, repeats, max_iters):
        # The candidates of a period are solved as one block; each fit must be
        # that of the candidate's own panel warm from its neighbour, bit for
        # bit, so p-values and counts are too, and every converged candidate
        # must pass its certificate, recomputed from the data.  Near-exact fits
        # (noise 1e-6) are where a warm start can stop on another support.
        rng = np.random.default_rng(seed)
        c = 10.0 ** exponent
        controls = c * rng.standard_normal((t0 + 2, n_controls))
        treated = controls[:, :3].mean(axis=1) + noise * c * rng.standard_normal(t0 + 2)
        covariates = c * rng.standard_normal((t0 + 2, n_controls + 1, 1)) if covariate else None
        panel = PanelData(np.column_stack([treated, controls]), t0=t0, covariates=covariates)
        cfg = SolverConfig(max_iters=max_iters)
        spec = {"sc": EstimatorSpec.sc(cfg), "classo": EstimatorSpec.classo(radius, cfg),
                "lasso": EstimatorSpec.lasso(lam * c**2, cfg),
                "elastic_net": EstimatorSpec.elastic_net(lam * c**2, alpha, cfg)}[kind]
        if grid is not None:
            grid = [c * value for value in grid + grid[:repeats]]
        entry = pointwise_ci(panel, t0 + 2, spec, grid=grid)

        sub = sc.pointwise_slice(panel, t0 + 2)
        start = sc.fit(sub, spec) if grid is None else None
        fits = _oracles.warm_candidate_fits(sub, entry.grid, spec, start)
        expected = [p_value(f.residuals, PermutationScheme.moving_block(), Statistic(), 1).p_value for f in fits]
        np.testing.assert_array_equal(entry.p_values, expected)
        reports = [f.diagnostics for f in ([start] if start else []) + fits]
        assert entry.nonconverged == sum(not report.converged for report in reports)

        X = controls[[*range(t0), t0 + 1]]
        if covariate:
            X = np.column_stack([X, covariates[[*range(t0), t0 + 1], 0]])
        core = sc.estimators._fit_block(
            sub.outcomes, sub.covariates, spec, sc.panel._treated_under_nulls(sub, entry.grid[:, None]), start)
        block = [core.fit(g, spec.label) for g in range(entry.grid.size)]
        for candidate, fitted, alone in zip(entry.grid, block, fits):
            np.testing.assert_array_equal(fitted.residuals, alone.residuals)
            assert fitted.diagnostics == alone.diagnostics
            if not fitted.diagnostics.converged:
                continue
            y = sc.adjust_under_null(sub, [candidate]).treated
            w = np.concatenate([fitted.params["weights"], fitted.params["covariate_coefs"]])
            if kind in ("sc", "classo"):
                ball = None if kind == "sc" else radius
                ref_X, ref_y = (X, y) if kind == "sc" else (X - X.mean(axis=0), y - y.mean())
                gap, free, scale = _oracles.constrained_gap(ref_X, ref_y, w, n_controls, ball)
                assert free <= 1e-10
            else:
                penalty = spec.lam * (1.0 if kind == "lasso" else spec.alpha)
                l1 = np.r_[np.full(n_controls, penalty), np.zeros(X.shape[1] - n_controls)]
                l2 = np.r_[np.full(n_controls, spec.lam - penalty), np.zeros(X.shape[1] - n_controls)]
                gap, scale = _oracles.penalized_gap(X, y, fitted.params["mu"], w, l1, l2, np.arange(n_controls))
            assert gap <= cfg.tol * scale

    @pytest.mark.parametrize("default_grid", [False, True], ids=["grid", "default_grid"])
    @pytest.mark.parametrize("spec", [
        EstimatorSpec.did(), EstimatorSpec.factor(1), EstimatorSpec.interactive_fe(1, SolverConfig(max_iters=20)),
        EstimatorSpec.matrix_completion(), EstimatorSpec.ar(1), EstimatorSpec.fused(EstimatorSpec.did(), 1),
        EstimatorSpec.fused(EstimatorSpec.sc(), 1),
    ], ids=lambda spec: spec.label)
    def test_every_kind_equals_warm_candidate_loop(self, rng, spec, default_grid):
        # Every kind fits the candidates of a period through its array core,
        # one column each; every candidate's residuals, p-value and counts
        # must be, bit for bit, those of its own fit warm from its
        # neighbour's.  The covariate reaches interactive_fe and the sc base.
        panel = random_panel(rng, 14, 5, t0=11, noise=1.0)
        panel = PanelData(panel.outcomes, t0=11, covariates=rng.standard_normal((14, 6, 1)))
        grid = None if default_grid else np.linspace(-2.0, 2.0, 9)
        entry = pointwise_ci(panel, 13, spec, grid=grid)
        sub = sc.pointwise_slice(panel, 13)
        start = sc.fit(sub, spec) if grid is None else None
        fits = _oracles.warm_candidate_fits(sub, entry.grid, spec, start)
        rows = sc.estimators._fit_candidates(sub, sc.panel._treated_under_nulls(sub, entry.grid[:, None]), spec,
                                             start)[0]
        assert rows.tobytes() == np.array([f.residuals for f in fits]).tobytes()
        expected = [p_value(f.residuals, PermutationScheme.moving_block(), Statistic(), 1).p_value for f in fits]
        np.testing.assert_array_equal(entry.p_values, expected)
        reports = [f.diagnostics for f in ([start] if start else []) + fits if f.diagnostics is not None]
        assert entry.iterations == sum(report.iterations for report in reports)
        assert entry.nonconverged == sum(not report.converged for report in reports)

    @pytest.mark.parametrize("spec", [EstimatorSpec.did(), EstimatorSpec.sc()], ids=lambda spec: spec.label)
    def test_custom_callable_fits_each_candidate_cold(self, rng, spec):
        # A callable that wraps a spec fits each candidate's own panel, cold (a
        # callable takes no start), and its counts are those of the cold fits.
        # The grid is the spec's, bit for bit, and so are the p-values: did
        # takes no start, and sc's warm fits agree away from near-exact fits.
        panel = random_panel(rng, 14, 5, t0=11, noise=1.0)
        wrapper = lambda p: sc.fit(p, spec)
        grid = np.linspace(-2.0, 2.0, 9)
        entries = [*sc.confidence_band(panel, wrapper).entries, pointwise_ci(panel, 13, wrapper, grid=grid)]
        expected = [*sc.confidence_band(panel, spec).entries, pointwise_ci(panel, 13, spec, grid=grid)]
        assert len(entries) == len(expected) == 4
        for entry, want in zip(entries, expected):
            assert entry.grid.tobytes() == want.grid.tobytes()
            assert entry.p_values.tobytes() == want.p_values.tobytes()
            sub = sc.pointwise_slice(panel, entry.period)
            fits = [sc.fit(sc.adjust_under_null(sub, [candidate]), spec) for candidate in entry.grid]
            if entry is not entries[-1]:
                fits.append(sc.fit(sub, spec))  # the zero-effect fit that set the default grid
            reports = [f.diagnostics for f in fits if f.diagnostics is not None]
            assert entry.iterations == sum(report.iterations for report in reports)
            assert entry.nonconverged == sum(not report.converged for report in reports)

    @pytest.mark.parametrize("grid", [[math.nan, 1.0], [math.inf]], ids=["nan", "inf"])
    @pytest.mark.parametrize("spec", [EstimatorSpec.sc(), EstimatorSpec.did()], ids=["sc", "did"])
    def test_non_finite_candidate_refused(self, rng, spec, grid):
        panel = random_panel(rng, 12, 3)
        with pytest.raises(DimensionError, match="the effect trajectory must be finite"):
            pointwise_ci(panel, 12, spec, grid=grid)

    def test_reports_solver_steps_and_nonconverged_fits(self, rng):
        panel = random_panel(rng, 12, 6, noise=1.0)
        grid = np.linspace(-2, 2, 9)
        sub = sc.pointwise_slice(panel, 12)
        for spec in (EstimatorSpec.sc(), EstimatorSpec.sc(sc.SolverConfig(max_iters=1))):
            entry = pointwise_ci(panel, 12, spec, grid=grid)
            fits = [None]
            for candidate in grid:
                fits.append(sc.fit(sc.adjust_under_null(sub, [candidate]), spec, fits[-1]))
            reports = [fitted.diagnostics for fitted in fits[1:]]
            assert entry.iterations == sum(report.iterations for report in reports) > 0
            assert entry.nonconverged == sum(not report.converged for report in reports)
            assert (entry.nonconverged > 0) == (spec.solver.max_iters == 1)
        entry = pointwise_ci(panel, 12, EstimatorSpec.did(), grid=grid)
        assert (entry.iterations, entry.nonconverged) == (0, 0)

    def test_default_grid_counts_its_zero_effect_fit(self):
        # Regression: the zero-effect fit that sets the default grid was left
        # out of the counts (nonconverged read 30 though that fit had not
        # converged either).
        panel = PanelData(np.random.default_rng(0).standard_normal((14, 5)), t0=12)
        spec = EstimatorSpec.sc(sc.SolverConfig(max_iters=1))
        entry = pointwise_ci(panel, 13, spec)
        sub = sc.pointwise_slice(panel, 13)
        fits = [sc.fit(sub, spec)]
        for candidate in entry.grid:
            fits.append(sc.fit(sc.adjust_under_null(sub, [candidate]), spec, fits[-1]))
        reports = [fitted.diagnostics for fitted in fits]
        assert not reports[0].converged
        assert entry.iterations == sum(report.iterations for report in reports)
        assert entry.nonconverged == sum(not report.converged for report in reports) == 31
        np.testing.assert_array_equal(entry.p_values, pointwise_ci(panel, 13, spec, grid=entry.grid).p_values)

    def test_default_grid_has_41_points(self, rng):
        panel = random_panel(rng, 14, 3)
        entry = pointwise_ci(panel, 13, EstimatorSpec.did())
        assert entry.grid.shape == (41,)

    def test_default_grid_of_exact_pre_fit_does_not_depend_on_units(self):
        # Regression: with every pre-treatment residual zero the grid fell
        # back to a spread of 1e-8 in the units of Y, so it was 0.1 wide
        # over c at c = 1e-6 and 1e-13 at c = 1e6, where every p-value was 1.
        rng = np.random.default_rng(0)
        controls = rng.standard_normal((8, 12))
        outcomes = np.column_stack([controls[:, :3].mean(axis=1), controls])
        base = pointwise_ci(PanelData(outcomes, t0=7), 8, EstimatorSpec.sc())
        assert base.grid[-1] - base.grid[0] > 1.0
        for c in (1e-6, 2.0**-20, 2.0**20, 1e6):
            entry = pointwise_ci(PanelData(c * outcomes, t0=7), 8, EstimatorSpec.sc())
            np.testing.assert_allclose(entry.grid / c, base.grid, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(entry.p_values, base.p_values)

    def test_lag_consuming_estimator_supported(self, rng):
        # The one-post-period panel has t0+1 rows; an AR(1) proxy consumes
        # one of them, and the permutations act on the shortened window.
        panel = random_panel(rng, 14, 3)
        entry = pointwise_ci(panel, 13, EstimatorSpec.ar(1), grid=np.linspace(-2, 2, 9))
        assert entry.p_values.min() >= 1 / 12


class TestCiEntry:
    """An entry stores the grid, its p-values and the level; the accepted set
    and its hull are read off them."""

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(CiEntry)] == [
            "period", "grid", "p_values", "level", "iterations", "nonconverged"]

    @settings(max_examples=examples(300), deadline=None)
    @given(
        grid=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12),
        n=st.integers(2, 40),
        counts=st.lists(st.integers(1, 40), min_size=1, max_size=12),
        cut=st.integers(1, 39) | st.floats(0.01, 0.99),
    )
    @example(grid=[0.0, 1.0, 2.0], n=10, counts=[10, 10, 10], cut=1)  # all accepted
    @example(grid=[0.0, 1.0, 2.0], n=10, counts=[1, 1, 1], cut=5)  # none
    @example(grid=[0.0, 1.0, 2.0], n=10, counts=[1, 10, 1], cut=5)  # one
    @example(grid=[0.0, 1.0, 2.0, 3.0], n=10, counts=[10, 1, 2, 10], cut=5)  # interior gap
    @example(grid=[0.0, 1.0, 2.0], n=10, counts=[5, 6, 5], cut=5)  # p = 1 - level exactly
    @example(grid=[0.0, 1.0], n=3, counts=[1, 2], cut=1)  # 1 - (1 - 1/3) rounds below 1/3
    def test_derived_attributes(self, grid, n, counts, cut):
        size = min(len(grid), len(counts))
        grid = np.sort(grid[:size])
        p_values = np.array([min(k, n) for k in counts[:size]]) / n
        # An integer cut puts 1 - level on the p-value lattice k/n.
        level = 1.0 - min(cut, n - 1) / n if isinstance(cut, int) else cut
        entry = CiEntry(period=3, grid=grid, p_values=p_values, level=level, iterations=0, nonconverged=0)
        # Reference: the accepted set and its hull, written out directly.
        alpha = 1.0 - level
        accepted = p_values > alpha + 1e-12
        is_empty = not accepted.any()
        if is_empty:
            lower = upper = float("nan")
            has_gaps = False
        else:
            where = np.nonzero(accepted)[0]
            lower = float(grid[where[0]])
            upper = float(grid[where[-1]])
            has_gaps = bool((~accepted[where[0]: where[-1] + 1]).any())
        np.testing.assert_array_equal(entry.accepted, accepted)
        assert entry.is_empty is is_empty and entry.has_gaps is has_gaps
        assert isinstance(entry.lower, float) and isinstance(entry.upper, float)
        np.testing.assert_array_equal([entry.lower, entry.upper], [lower, upper])
        assert entry.accepted is entry.accepted


class TestWarningLocation:
    """A warning names the caller's line, however deep in the package it is raised."""

    @pytest.mark.parametrize("call", [
        lambda panel: sc.pre_treatment_slice(panel, 11),
        lambda panel: placebo_test(panel, 11, EstimatorSpec.did()),
        lambda panel: pointwise_ci(panel, 13, EstimatorSpec.did(), grid=[100.0]),
        lambda panel: sc.confidence_band(panel, EstimatorSpec.did(), grid=[100.0]),
    ], ids=["pre_treatment_slice", "placebo_test", "pointwise_ci", "confidence_band"])
    def test_filename_is_the_callers(self, rng, call):
        panel = PanelData(rng.standard_normal((14, 3)), t0=12)
        with pytest.warns(UserWarning) as record:
            call(panel)
        assert [warning.filename for warning in record] == [__file__] * len(record)


class TestAverageEffect:
    def test_single_post_period_equals_sharp_null(self, rng):
        panel = random_panel(rng, 12, 3, t0=11)
        avg = average_effect(panel, 0.3, EstimatorSpec.did())
        sharp = sharp_null(panel, [0.3], EstimatorSpec.did())
        assert avg.p_value == sharp.p_value
        assert avg.metadata["effective_sample_size"] == 12

    def test_true_average_in_noise_free_data(self, rng):
        controls = rng.standard_normal((12, 3))
        treated = controls.mean(axis=1) + 1.0
        treated[9:] += 2.0
        panel = PanelData(np.column_stack([treated, controls]), t0=9)
        result = average_effect(panel, 2.0, EstimatorSpec.did())
        assert result.p_value == 1.0  # ties everywhere

    def test_indivisible_refused(self, rng):
        panel = random_panel(rng, 11, 3, t0=9)
        with pytest.raises(DimensionError):
            average_effect(panel, 0.0, EstimatorSpec.did())

    def test_structural_identity_with_aggregated_sharp_null(self, rng):
        # The average-effect test is, by construction, the sharp-null test
        # run on the block-aggregated panel; check the identity end to end.
        panel = random_panel(rng, 12, 3, t0=9)
        direct = average_effect(panel, 0.7, EstimatorSpec.sc())
        aggregated = sc.aggregate_time_blocks(panel)
        reference = sharp_null(aggregated, [0.7], EstimatorSpec.sc())
        assert direct.p_value == reference.p_value
        assert direct.statistic == reference.statistic

    def test_simulated_size(self, rng):
        # T = 60 split into 20 blocks of 3; i.i.d. shocks keep the
        # aggregated data exchangeable, so size stays near the level.
        rejections = 0
        n_reps = 2000
        for rep in range(n_reps):
            controls = rng.standard_normal((60, 4))
            treated = controls.mean(axis=1) + rng.standard_normal(60)
            panel = PanelData(np.column_stack([treated, controls]), t0=57)
            result = average_effect(panel, 0.0, EstimatorSpec.did())
            rejections += result.p_value <= 0.1
        assert rejections / n_reps == pytest.approx(0.10, abs=0.03)


class TestMultiUnit:
    def test_copies_reduce_to_single_unit(self, rng):
        controls = rng.standard_normal((10, 3))
        treated = controls.mean(axis=1) + rng.standard_normal(10)
        single = PanelData(np.column_stack([treated, controls]), t0=8)
        double = PanelData(np.column_stack([treated, treated, controls]), t0=8, n_treated=2)
        r1 = sharp_null(single, [0.0, 0.0], EstimatorSpec.did())
        r2 = multi_unit(double, [0.0, 0.0], EstimatorSpec.did())
        assert r1.p_value == r2.p_value

    def test_opposite_effects_cancel(self, rng):
        # Per-unit effects (+a, -a) cancel in the cross-unit average, so the
        # residuals match the single-unit zero-effect case (up to rounding
        # in the averaging).
        controls = rng.standard_normal((10, 3))
        base = controls.mean(axis=1) + rng.standard_normal(10)
        t1, t2 = base.copy(), base.copy()
        t1[8:] += 1.7
        t2[8:] -= 1.7
        panel = PanelData(np.column_stack([t1, t2, controls]), t0=8, n_treated=2)
        result = multi_unit(panel, [0.0, 0.0], EstimatorSpec.did())
        single = PanelData(np.column_stack([base, controls]), t0=8)
        reference = sharp_null(single, [0.0, 0.0], EstimatorSpec.did())
        np.testing.assert_allclose(result.residuals, reference.residuals, atol=1e-12)
        assert result.p_value == reference.p_value

    def test_requires_multiple_treated(self, small_panel):
        with pytest.raises(DimensionError):
            multi_unit(small_panel, [0.0, 0.0], EstimatorSpec.did())

    def test_simulated_size_two_treated(self, rng):
        rejections = 0
        n_reps = 2000
        for rep in range(n_reps):
            controls = rng.standard_normal((20, 4))
            base = controls.mean(axis=1)
            t1 = base + rng.standard_normal(20)
            t2 = base + rng.standard_normal(20)
            panel = PanelData(np.column_stack([t1, t2, controls]), t0=19, n_treated=2)
            rejections += multi_unit(panel, [0.0], EstimatorSpec.did()).p_value <= 0.1
        assert rejections / n_reps == pytest.approx(0.10, abs=0.03)


class TestPlacebo:
    def test_non_integer_period_or_window_refused_by_name(self, rng):
        # Regression: pointwise_ci at t=12.0 raised numpy's IndexError, a
        # placebo window of 2.5 was refused as "t0 must be an integer; got
        # 7.5", and a window of True raised numpy's TypeError.
        panel, did = random_panel(rng, 12, 3), EstimatorSpec.did()
        with pytest.raises(ValueError, match=r"^t must be an integer; got 12\.0$"):
            pointwise_ci(panel, 12.0, did)
        for tau in (2.5, True):
            with pytest.raises(ValueError, match=f"^tau must be an integer; got {tau!r}$"):
                placebo_test(panel, tau, did)
        assert pointwise_ci(panel, np.int64(12), did).period == 12
        assert placebo_test(panel, np.int64(2), did).metadata["tau"] == 2

    def test_smoke_on_empirical_shape(self, rng):
        controls = rng.standard_normal((25, 50))
        treated = controls[:, :3].mean(axis=1) + rng.standard_normal(25)
        panel = PanelData(np.column_stack([treated, controls]), t0=19)
        for tau in (1, 2, 3):
            result = placebo_test(panel, tau, EstimatorSpec.sc())
            assert 0.0 < result.p_value <= 1.0
            assert result.metadata["tau"] == tau
            assert result.residuals.shape == (19,)

    def test_correct_specification_size(self, rng):
        rejections = 0
        n_reps = 2000
        for rep in range(n_reps):
            controls = rng.standard_normal((22, 4))
            treated = controls.mean(axis=1) + rng.standard_normal(22)
            panel = PanelData(np.column_stack([treated, controls]), t0=20)
            rejections += placebo_test(panel, 2, EstimatorSpec.did()).p_value <= 0.1
        assert rejections / n_reps == pytest.approx(0.10, abs=0.03)

    def test_gross_misspecification_detected(self, rng):
        # Intercept-only proxy on a strongly trending treated unit: the last
        # placebo residuals are systematically the largest, so the test
        # rejects far more often than the nominal level.
        rejections = 0
        n_reps = 300
        for rep in range(n_reps):
            controls = rng.standard_normal((22, 3))
            treated = 0.8 * np.arange(22) + rng.standard_normal(22)
            panel = PanelData(np.column_stack([treated, controls]), t0=20)
            result = placebo_test(panel, 2, EstimatorSpec.lasso(1e9))
            rejections += result.p_value <= 0.1
        assert rejections / n_reps >= 0.5
