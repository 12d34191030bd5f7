"""Tests for statistics, permutation schemes, p-values, and the test pipelines."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
import synthconf as sc
from synthconf import (
    DimensionError,
    EstimatorSpec,
    PanelData,
    PermutationScheme,
    SolverConfig,
    Statistic,
    p_value,
    placebo_test,
    pointwise_ci,
    statistic_mean,
    statistic_sq,
)
from conftest import random_panel

# module-qualified aliases: bare imports of these would be collected by pytest
sharp_null = sc.test_sharp_null
average_effect = sc.test_average_effect
multi_unit = sc.test_multi_unit


class TestStatistics:
    def test_zero_residuals(self):
        assert statistic_sq(np.zeros(6), slice(4, None)) == 0.0

    def test_single_term(self):
        assert statistic_sq(np.array([1.0, 2.0, 3.0, 4.0]), slice(3, None), q=1) == 4.0

    def test_q2_hand_value(self):
        # ((9 + 16) / sqrt(2)) ** (1/2)
        expected = (25.0 / math.sqrt(2.0)) ** 0.5
        got = statistic_sq(np.array([0.0, 3.0, 4.0]), slice(1, None), q=2)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(4.2045, abs=1e-4)

    def test_mean_cancellation(self):
        assert statistic_mean(np.array([1.0, -1.0]), slice(0, None)) == 0.0

    def test_mean_single(self):
        assert statistic_mean(np.array([2.0]), slice(0, None)) == 2.0

    def test_mean_hand_value(self):
        got = statistic_mean(np.array([1.0, 2.0, 3.0]), slice(0, None))
        assert got == pytest.approx(6.0 / math.sqrt(3.0), abs=1e-12)
        assert got == pytest.approx(3.4641, abs=1e-4)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            statistic_sq(np.ones(4), slice(2, None), q=0.5)
        with pytest.raises(ValueError):
            Statistic("sq", q=0.5)


class TestPermutationScheme:
    def test_moving_block_enumerates_t_shifts(self):
        scheme = PermutationScheme.moving_block()
        perms = list(scheme.iter_permutations(4))
        assert len(perms) == 4 == scheme.size(4)
        np.testing.assert_array_equal(perms[0], [0, 1, 2, 3])
        np.testing.assert_array_equal(perms[1], [1, 2, 3, 0])

    def test_moving_block_shift_example(self):
        u = np.array([1.0, 2.0, 3.0, 4.0])
        shift = list(PermutationScheme.moving_block().iter_permutations(4))[1]
        np.testing.assert_array_equal(u[shift], [2.0, 3.0, 4.0, 1.0])

    def test_moving_block_composition_is_cyclic(self):
        perms = list(PermutationScheme.moving_block().iter_permutations(5))
        for a, b in itertools.product(range(5), repeat=2):
            composed = perms[a][perms[b]]
            np.testing.assert_array_equal(composed, perms[(a + b) % 5])

    def test_group_property(self):
        # Pi * pi = Pi for every pi: composing all elements with a fixed one
        # reproduces the set.
        for scheme, n in ((PermutationScheme.moving_block(), 6), (PermutationScheme.iid_all(), 4)):
            perms = [tuple(p) for p in scheme.iter_permutations(n)]
            assert scheme.is_group
            for pi in perms:
                pi = np.asarray(pi)
                composed = {tuple(np.asarray(sigma)[pi]) for sigma in perms}
                assert composed == set(perms)

    def test_iid_all_counts_and_identity_first(self):
        scheme = PermutationScheme.iid_all()
        perms = list(scheme.iter_permutations(4))
        assert len(perms) == math.factorial(4) == scheme.size(4)
        np.testing.assert_array_equal(perms[0], [0, 1, 2, 3])
        assert len({tuple(p) for p in perms}) == 24

    def test_iid_all_guard(self):
        scheme = PermutationScheme.iid_all()
        assert scheme.size(10) == math.factorial(10)
        with pytest.raises(ValueError):
            scheme.size(11)
        with pytest.raises(ValueError):
            next(iter(scheme.iter_permutations(11)))
        with pytest.raises(ValueError):
            p_value(np.ones(11), scheme, Statistic(), slice(10, None))

    def test_iid_sampled_contains_identity_and_is_seeded(self):
        scheme = PermutationScheme.iid_sampled(n_samples=50, seed=3)
        first = list(scheme.iter_permutations(8))
        again = list(scheme.iter_permutations(8))
        assert len(first) == 50
        np.testing.assert_array_equal(first[0], np.arange(8))
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)
        assert not scheme.is_group


class TestPValue:
    def test_hand_enumerated_moving_block(self):
        u = np.array([1.0, 2.0, 3.0, 4.0])
        result = p_value(u, PermutationScheme.moving_block(), Statistic("sq", 1), slice(3, None))
        assert result.p_value == 0.25
        assert result.statistic == 4.0
        assert sorted(result.permuted_statistics.tolist()) == [1.0, 2.0, 3.0, 4.0]

    def test_total_ties_give_one(self):
        u = np.full(6, 0.7)
        result = p_value(u, PermutationScheme.moving_block(), Statistic(), slice(4, None))
        assert result.p_value == 1.0

    def test_rounding_level_ties_count(self):
        # The six cyclic shifts put the same three values in the post window,
        # so all statistics are equal in exact arithmetic; summation order
        # alone splits them by 1 ulp.
        u = np.array([0.1, 0.2, 0.3, 0.1, 0.2, 0.3])
        result = p_value(u, PermutationScheme.moving_block(), Statistic(), slice(3, None))
        assert result.p_value == 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        block=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=8),
        scale=st.floats(1e-3, 1e3),
    )
    def test_periodic_residuals_give_one(self, block, scale):
        # A residual vector that repeats its post window has every shift of
        # that window as its post window: every permutation is a tie.
        u = scale * np.tile(block, 2)
        result = p_value(u, PermutationScheme.moving_block(), Statistic(), slice(len(block), None))
        assert result.p_value == 1.0

    def test_strict_maximum_gives_lower_bound(self):
        u = np.array([0.1, -0.2, 0.3, 5.0])
        result = p_value(u, PermutationScheme.moving_block(), Statistic(), slice(3, None))
        assert result.p_value == 0.25  # = 1 / |Pi|

    def test_p_values_live_on_grid(self, rng):
        n = 9
        u = rng.standard_normal(n)
        result = p_value(u, PermutationScheme.moving_block(), Statistic(), slice(6, None))
        assert result.p_value in {k / n for k in range(1, n + 1)}
        assert result.p_value >= 1.0 / n

    def test_scale_invariance(self, rng):
        u = rng.standard_normal(8)
        base = p_value(u, PermutationScheme.moving_block(), Statistic(), slice(6, None))
        scaled = p_value(3.7 * u, PermutationScheme.moving_block(), Statistic(), slice(6, None))
        assert scaled.p_value == base.p_value
        assert scaled.statistic == pytest.approx(3.7 * base.statistic, rel=1e-12)

    def test_enumeration_order_irrelevant(self, rng):
        # Evaluating the same set of permutations through a custom callable
        # (loop path) and the built-in statistic (vectorized path) agrees.
        u = rng.standard_normal(7)
        scheme = PermutationScheme.moving_block()
        fast = p_value(u, scheme, Statistic("sq", 1), slice(5, None))
        slow = p_value(u, scheme, lambda r, w: statistic_sq(r, w, 1), slice(5, None))
        assert fast.p_value == slow.p_value
        np.testing.assert_allclose(fast.permuted_statistics, slow.permuted_statistics)

    def test_iid_sampled_end_to_end(self, rng):
        u = rng.standard_normal(30)
        scheme = PermutationScheme.iid_sampled(n_samples=400, seed=12)
        result = p_value(u, scheme, Statistic(), slice(28, None))
        repeat = p_value(u, scheme, Statistic(), slice(28, None))
        assert result.p_value == repeat.p_value
        assert result.n_permutations == 400
        assert result.p_value >= 1 / 400

    def test_iid_all_matches_explicit_enumeration(self, rng):
        u = rng.standard_normal(5)
        result = p_value(u, PermutationScheme.iid_all(), Statistic("sq", 1), slice(3, None))
        stats = []
        for pi in itertools.permutations(range(5)):
            v = u[list(pi)][3:]
            stats.append(np.abs(v).sum() / np.sqrt(2))
        stats = np.asarray(stats)
        expected = (stats >= stats[0]).mean()
        assert result.p_value == expected


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

    @settings(max_examples=60, deadline=None)
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

    @settings(max_examples=150, deadline=None)
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

    @settings(max_examples=150, deadline=None)
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
        expected = [p_value(f.residuals, PermutationScheme.moving_block(), Statistic(),
                            f.post_slice(t0)).p_value for f in fits]
        np.testing.assert_array_equal(entry.p_values, expected)
        reports = [f.diagnostics for f in ([start] if start else []) + fits]
        assert entry.nonconverged == sum(not report.converged for report in reports)

        X = controls[[*range(t0), t0 + 1]]
        if covariate:
            X = np.column_stack([X, covariates[[*range(t0), t0 + 1], 0]])
        block = sc.estimators._fit_candidates(
            sub, sc.panel._treated_under_nulls(sub, entry.grid[:, None]), spec, start)
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

    def test_lag_consuming_estimator_supported(self, rng):
        # The one-post-period panel has t0+1 rows; an AR(1) proxy consumes
        # one of them, and the permutations act on the shortened window.
        panel = random_panel(rng, 14, 3)
        entry = pointwise_ci(panel, 13, EstimatorSpec.ar(1), grid=np.linspace(-2, 2, 9))
        assert entry.p_values.min() >= 1 / 12


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
