"""Tests for the panel data model and its transformations."""

import numpy as np
import pytest

from synthconf import (
    DimensionError,
    PanelData,
    adjust_under_null,
    aggregate_time_blocks,
    aggregate_units,
    pointwise_slice,
    pre_treatment_slice,
)


def panel_from_columns(*columns, t0):
    return PanelData(np.column_stack(columns), t0=t0)


class TestPanelData:
    def test_shape_properties(self, small_panel):
        assert small_panel.n_periods == 12
        assert small_panel.n_controls == 4
        assert small_panel.n_post == 2
        assert small_panel.treated.shape == (12,)
        assert small_panel.controls.shape == (12, 4)

    def test_rejects_bad_t0(self):
        with pytest.raises(DimensionError):
            PanelData(np.zeros((5, 2)), t0=5)
        with pytest.raises(DimensionError):
            PanelData(np.zeros((5, 2)), t0=0)

    @pytest.mark.parametrize("counts", [{"t0": 8.5}, {"t0": True}, {"t0": 8.0}, {"t0": 8, "n_treated": 1.5},
                                        {"t0": 8, "n_treated": True}], ids=repr)
    def test_counts_must_be_integers(self, counts):
        # A float t0 built a panel with a fractional n_post, and a float
        # n_treated failed only when the treated series was read.
        with pytest.raises(ValueError, match="must be an integer"):
            PanelData(np.zeros((20, 3)), **counts)

    def test_numpy_integer_counts(self):
        panel = PanelData(np.zeros((20, 3)), t0=np.int64(8), n_treated=np.int32(1))
        assert (panel.n_post, panel.n_controls) == (12, 2)

    def test_rejects_nan(self):
        outcomes = np.zeros((5, 2))
        outcomes[2, 1] = np.nan
        with pytest.raises(DimensionError):
            PanelData(outcomes, t0=3)

    def test_no_controls_allowed_for_time_series(self):
        panel = PanelData(np.arange(6.0)[:, None], t0=4)
        assert panel.n_controls == 0

    def test_outcomes_are_immutable(self, small_panel):
        with pytest.raises(ValueError):
            small_panel.outcomes[0, 0] = 99.0

    def test_covariate_shape_checked(self):
        with pytest.raises(DimensionError):
            PanelData(np.zeros((5, 2)), t0=3, covariates=np.zeros((5, 3, 1)))

    @pytest.mark.parametrize("outcomes, kwargs, match", [
        (np.zeros(5), {}, "must be 2-D"),
        (np.zeros((5, 2)), {"n_treated": 0}, "n_treated must be >= 1; got 0"),
        (np.zeros((5, 2)), {"n_treated": 3}, "2 columns but n_treated=3"),
        (np.zeros((5, 2)), {"covariates": np.full((5, 2, 1), np.inf)}, "covariates contain non-finite"),
    ], ids=["1d_outcomes", "no_treated", "more_treated_than_columns", "non_finite_covariates"])
    def test_malformed_panel_refused(self, outcomes, kwargs, match):
        with pytest.raises(DimensionError, match=match):
            PanelData(outcomes, t0=3, **kwargs)


class TestAdjustUnderNull:
    def test_zero_trajectory_is_identity(self, small_panel):
        adjusted = adjust_under_null(small_panel, np.zeros(2))
        np.testing.assert_array_equal(adjusted.outcomes, small_panel.outcomes)

    def test_subtraction_example(self):
        panel = panel_from_columns([1.0, 2.0, 5.0], [0.0, 0.0, 0.0], t0=2)
        adjusted = adjust_under_null(panel, [3.0])
        np.testing.assert_allclose(adjusted.treated, [1.0, 2.0, 2.0])
        np.testing.assert_array_equal(adjusted.controls, panel.controls)

    def test_pointwise_construction_matches_hand_built(self, rng):
        # Build rows (1..t0, t) by hand and compare against slicing + adjusting.
        outcomes = rng.standard_normal((8, 3))
        panel = PanelData(outcomes, t0=5)
        t, a0 = 7, 0.4
        sub = adjust_under_null(pointwise_slice(panel, t), [a0])

        expected = outcomes[[0, 1, 2, 3, 4, t - 1]].copy()
        expected[-1, 0] -= a0
        np.testing.assert_allclose(sub.outcomes, expected)
        assert sub.t0 == 5 and sub.n_post == 1

    def test_length_mismatch_rejected(self, small_panel):
        with pytest.raises(DimensionError, match="trajectory has 3 values"):
            adjust_under_null(small_panel, [1.0, 2.0, 3.0])

    def test_non_finite_trajectory_rejected(self, small_panel):
        with pytest.raises(DimensionError, match="trajectory must be finite"):
            adjust_under_null(small_panel, [0.0, np.nan])

    def test_two_dimensional_trajectory_rejected(self, small_panel):
        with pytest.raises(DimensionError, match="trajectory must be 1-D"):
            adjust_under_null(small_panel, [[0.0, 1.0]])

    def test_requires_single_treated_unit(self, rng):
        panel = PanelData(rng.standard_normal((6, 4)), t0=4, n_treated=2)
        with pytest.raises(DimensionError):
            adjust_under_null(panel, [0.0, 0.0])

    def test_adjustment_is_invertible(self, small_panel, rng):
        a = rng.standard_normal(2)
        roundtrip = adjust_under_null(adjust_under_null(small_panel, a), -a)
        np.testing.assert_array_equal(roundtrip.outcomes, small_panel.outcomes)


class TestAggregateTimeBlocks:
    def test_single_period_post_is_identity(self, rng):
        panel = PanelData(rng.standard_normal((7, 3)), t0=6)
        aggregated = aggregate_time_blocks(panel)
        np.testing.assert_allclose(aggregated.outcomes, panel.outcomes)
        assert aggregated.t0 == 6

    def test_two_period_blocks(self):
        panel = panel_from_columns([1.0, 3.0, 5.0, 7.0], [2.0, 2.0, 4.0, 4.0], t0=2)
        aggregated = aggregate_time_blocks(panel)
        np.testing.assert_allclose(aggregated.treated, [2.0, 6.0])
        np.testing.assert_allclose(aggregated.controls[:, 0], [2.0, 4.0])
        assert aggregated.t0 == 1 and aggregated.n_post == 1

    def test_matches_direct_block_means(self, rng):
        outcomes = rng.standard_normal((6, 3))
        panel = PanelData(outcomes, t0=4)
        aggregated = aggregate_time_blocks(panel)
        expected = np.stack([outcomes[0:2].mean(0), outcomes[2:4].mean(0), outcomes[4:6].mean(0)])
        np.testing.assert_allclose(aggregated.outcomes, expected)
        assert aggregated.t0 == 2

    def test_covariates_averaged(self, rng):
        cov = rng.standard_normal((4, 2, 3))
        panel = PanelData(rng.standard_normal((4, 2)), t0=2, covariates=cov)
        aggregated = aggregate_time_blocks(panel)
        np.testing.assert_allclose(aggregated.covariates[0], cov[0:2].mean(0))

    def test_indivisible_length_refused(self, rng):
        panel = PanelData(rng.standard_normal((7, 3)), t0=5)  # T=7, post=2
        with pytest.raises(DimensionError):
            aggregate_time_blocks(panel)


class TestAggregateUnits:
    def test_single_treated_is_identity(self, small_panel):
        assert aggregate_units(small_panel) is small_panel

    def test_two_unit_average(self):
        panel = PanelData(
            np.column_stack([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]]), t0=1, n_treated=2
        )
        averaged = aggregate_units(panel)
        np.testing.assert_allclose(averaged.treated, [2.0, 3.0])
        assert averaged.n_treated == 1 and averaged.n_controls == 1

    def test_matches_rowwise_mean(self, rng):
        outcomes = rng.standard_normal((9, 6))
        panel = PanelData(outcomes, t0=7, n_treated=3)
        averaged = aggregate_units(panel)
        np.testing.assert_allclose(averaged.treated, outcomes[:, :3].mean(axis=1))
        np.testing.assert_array_equal(averaged.controls, outcomes[:, 3:])

    def test_commutes_with_adjustment_for_common_trajectory(self, rng):
        outcomes = rng.standard_normal((8, 5))
        panel = PanelData(outcomes, t0=6, n_treated=2)
        a_bar = rng.standard_normal(2)

        adjusted_then_averaged = outcomes.copy()
        adjusted_then_averaged[6:, 0] -= a_bar
        adjusted_then_averaged[6:, 1] -= a_bar
        left = aggregate_units(PanelData(adjusted_then_averaged, t0=6, n_treated=2))

        right = adjust_under_null(aggregate_units(panel), a_bar)
        np.testing.assert_allclose(left.outcomes, right.outcomes)


class TestPreTreatmentSlice:
    def test_empirical_shape(self, rng):
        panel = PanelData(rng.standard_normal((25, 4)), t0=19)
        sliced = pre_treatment_slice(panel, 1)
        assert sliced.n_periods == 19
        assert sliced.t0 == 18
        assert sliced.n_post == 1

    def test_boundary_single_pre_period_warns(self, rng):
        panel = PanelData(rng.standard_normal((6, 3)), t0=4)
        with pytest.warns(UserWarning):
            sliced = pre_treatment_slice(panel, 3)
        assert sliced.t0 == 1 and sliced.n_periods == 4

    def test_invalid_window_rejected(self, rng):
        panel = PanelData(rng.standard_normal((6, 3)), t0=4)
        for tau in (0, 4, 5):
            with pytest.raises(DimensionError):
                pre_treatment_slice(panel, tau)

    def test_window_must_be_an_integer(self, rng):
        # Regression: tau=2.5 was refused as "t0 must be an integer; got 1.5",
        # and True failed inside numpy.
        panel = PanelData(rng.standard_normal((6, 3)), t0=4)
        for tau in (2.5, 2.0, True):
            with pytest.raises(ValueError, match=f"^tau must be an integer; got {tau!r}$"):
                pre_treatment_slice(panel, tau)
        assert pre_treatment_slice(panel, np.int64(2)).t0 == 2

    def test_commutes_with_zero_adjustment(self, rng):
        panel = PanelData(rng.standard_normal((10, 4)), t0=8)
        tau = 2
        left = pre_treatment_slice(adjust_under_null(panel, np.zeros(2)), tau)
        right = adjust_under_null(pre_treatment_slice(panel, tau), np.zeros(tau))
        np.testing.assert_array_equal(left.outcomes, right.outcomes)


class TestPointwiseSlice:
    def test_rejects_pre_period(self, small_panel):
        with pytest.raises(DimensionError):
            pointwise_slice(small_panel, 5)
        with pytest.raises(DimensionError):
            pointwise_slice(small_panel, 13)

    def test_period_must_be_an_integer(self, small_panel):
        # Regression: t=12.0 failed inside numpy with an IndexError.
        for t in (12.0, 11.5, True):
            with pytest.raises(ValueError, match=f"^t must be an integer; got {t!r}$"):
                pointwise_slice(small_panel, t)
        np.testing.assert_array_equal(pointwise_slice(small_panel, np.int32(12)).outcomes[-1],
                                      small_panel.outcomes[11])

    def test_keeps_covariates(self, rng):
        cov = rng.standard_normal((6, 2, 2))
        panel = PanelData(rng.standard_normal((6, 2)), t0=4, covariates=cov)
        sub = pointwise_slice(panel, 6)
        np.testing.assert_array_equal(sub.covariates[-1], cov[5])
