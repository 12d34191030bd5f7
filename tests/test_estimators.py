"""Tests for the counterfactual-proxy estimators."""

import dataclasses

import numpy as np
import pytest

import _oracles
import synthconf as sc
from synthconf import (
    DgpSpec,
    DimensionError,
    EstimatorSpec,
    PanelData,
    PermutationScheme,
    SolverConfig,
    Statistic,
    adjust_under_null,
    fit,
    simulation,
)
from synthconf.estimators import (
    _ESTIMATORS,
    _KINDS,
    _REQUIRED,
    default_nuclear_radius,
    parse_estimator,
)
from conftest import random_panel


def make_panel(treated, controls, t0, covariates=None, n_treated=1):
    return PanelData(
        np.column_stack([np.asarray(treated)[:, None], np.asarray(controls)]),
        t0=t0,
        n_treated=n_treated,
        covariates=covariates,
    )


ALL_SPECS = [
    EstimatorSpec.did(),
    EstimatorSpec.sc(),
    EstimatorSpec.classo(),
    EstimatorSpec.lasso(0.5),
    EstimatorSpec.elastic_net(0.5, 0.5),
    EstimatorSpec.factor(2),
    EstimatorSpec.matrix_completion(3.0),
    EstimatorSpec.matrix_completion(),
    EstimatorSpec.ar(1),
    EstimatorSpec.ar(3),
    EstimatorSpec.fused(EstimatorSpec.did(), 1),
    EstimatorSpec.fused(EstimatorSpec.sc(), 2),
    EstimatorSpec.fused(EstimatorSpec.matrix_completion(), 1),
]


class TestCustomEstimator:
    def test_callable_spec_is_dispatched(self, rng):
        from synthconf import ProxyFit

        def mean_proxy(panel):
            proxy = np.full(panel.n_periods, panel.treated.mean())
            return ProxyFit(
                proxy=proxy,
                residuals=panel.treated - proxy,
                start=1,
                estimator_id="mean-only",
            )

        panel = random_panel(rng, 10, 3)
        fitted = fit(panel, mean_proxy)
        assert fitted.estimator_id == "mean-only"
        np.testing.assert_allclose(fitted.proxy, panel.treated.mean())

    def test_bad_return_type_rejected(self, rng):
        panel = random_panel(rng, 10, 3)
        with pytest.raises(TypeError):
            fit(panel, lambda p: p.treated)

    @pytest.mark.parametrize("make, match", [
        (lambda y, t0: dict(residuals=y[t0 + 1:], start=t0 + 2),
         "starts at period 10, after the last pre-treatment period 8"),
        (lambda y, t0: dict(residuals=y[:t0]), "window of periods 1 to 8 must end at period 10"),
        (lambda y, t0: dict(residuals=y[:-1]), "window of periods 1 to 9 must end at period 10"),
        (lambda y, t0: dict(start=2), "window of periods 2 to 11 must end at period 10"),
        (lambda y, t0: dict(residuals=y[:, None]), "residuals must be a finite 1-D array"),
        (lambda y, t0: dict(residuals=np.r_[np.nan, y[1:]]), "residuals must be a finite 1-D array"),
        (lambda y, t0: dict(residuals=np.r_[y[:-1], np.inf]), "residuals must be a finite 1-D array"),
        (lambda y, t0: dict(residuals=list(y)), "residuals must be a finite 1-D array"),
        (lambda y, t0: dict(proxy=np.zeros(y.size + 1)), r"proxy has shape \(11,\), residuals \(10,\)"),
        (lambda y, t0: dict(residuals=np.r_[0.0, y], start=0), "start must be >= 1; got 0"),
        (lambda y, t0: dict(start=1.0), "start must be an integer; got 1.0"),
        (lambda y, t0: dict(start=True), "start must be an integer; got True"),
    ], ids=["starts_after_t0_plus_1", "no_post_period", "ends_before_the_last_period", "ends_after_the_last_period",
            "two_dimensional", "nan", "infinite", "list", "proxy_shape", "start_zero", "fractional_start",
            "boolean_start"])
    def test_window_without_the_post_periods_refused(self, rng, make, match):
        # Only a callable sets its own window: a spec's always holds the post
        # periods.  ``make`` changes the fields of a fit of every period;
        # before the fit was checked, a window that missed periods was ranked
        # on the rest, and other residuals failed inside numpy or were ranked
        # as NaN.
        panel = random_panel(rng, 10, 3)

        def window(panel):
            fields = {"residuals": panel.treated.copy(), "start": 1, **make(panel.treated.copy(), panel.t0)}
            return sc.ProxyFit(fields.pop("proxy", np.zeros(len(fields["residuals"]))), **fields, estimator_id="window")

        with pytest.raises(DimensionError, match=match):
            sc.test_sharp_null(panel, [0.0, 0.0], window)

    @pytest.mark.parametrize("grid", [None, [0.0, 1.0]], ids=["default_grid", "grid"])
    @pytest.mark.parametrize("make", [lambda y: y[:, None], lambda y: np.r_[np.nan, y[1:]]],
                             ids=["two_dimensional", "nan"])
    def test_test_inversion_names_the_estimator(self, rng, make, grid):
        # Regression: 2-D residuals failed inside numpy, and a NaN residual
        # was refused as a non-finite effect trajectory.
        panel = random_panel(rng, 10, 3)

        def window(panel):
            residuals = make(panel.treated.copy())
            return sc.ProxyFit(np.zeros(len(residuals)), residuals, start=1, estimator_id="window")

        with pytest.raises(DimensionError, match="'window': residuals must be a finite 1-D array"):
            sc.pointwise_ci(panel, 10, window, grid=grid)

    def test_default_grid_needs_a_pre_treatment_residual(self, rng):
        # Regression: a fit of the post period alone ended in an IndexError.
        panel = random_panel(rng, 10, 3)

        def post_only(panel):
            return sc.ProxyFit(np.zeros(1), panel.treated[-1:].copy(), start=panel.t0 + 1, estimator_id="post")

        with pytest.raises(DimensionError, match="'post' fits no pre-treatment period, so no default grid"):
            sc.pointwise_ci(panel, 10, post_only)
        assert sc.pointwise_ci(panel, 10, post_only, grid=[0.0]).p_values.tolist() == [1.0]


class TestWarmStart:
    WARM_SPECS = [EstimatorSpec.sc(), EstimatorSpec.classo(), EstimatorSpec.lasso(0.5),
                  EstimatorSpec.elastic_net(0.5, 0.5)]

    @pytest.mark.parametrize("spec", WARM_SPECS, ids=lambda spec: spec.label)
    def test_start_changes_the_steps_not_the_fit(self, rng, spec):
        # The neighbouring candidate of a test inversion: only the last
        # treated entry moved.
        panel = random_panel(rng, 31, 50, t0=30, noise=1.0)
        moved = adjust_under_null(panel, [0.3])
        cold = fit(moved, spec)
        warm = fit(moved, spec, start=fit(panel, spec))
        assert warm.diagnostics.converged
        assert warm.diagnostics.iterations < cold.diagnostics.iterations
        np.testing.assert_allclose(warm.residuals, cold.residuals, rtol=0, atol=1e-9)

    def test_start_is_ignored_by_other_specs(self, rng):
        panel = random_panel(rng, 12, 4)
        start = fit(panel, EstimatorSpec.classo(2.0))

        def mean_proxy(panel):
            return fit(panel, EstimatorSpec.did())

        for spec in ALL_SPECS + [mean_proxy]:
            cold, warm = fit(panel, spec), fit(panel, spec, start=start)
            np.testing.assert_array_equal(warm.residuals, cold.residuals)
            assert warm.diagnostics == cold.diagnostics


def assert_same_bits(got, want):
    """Equal bit for bit: the same keys in the same order, arrays of the same shape and bytes."""
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_same_bits(got[key], want[key])
    elif isinstance(want, np.ndarray):
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
    else:
        assert type(got) is type(want) and got == want


class TestArrayCore:
    #: One spec of every kind, with the params each kind's fit reports.
    KIND_SPECS = [
        (EstimatorSpec.did(), {"mu"}),
        (EstimatorSpec.sc(), {"weights", "covariate_coefs"}),
        (EstimatorSpec.classo(), {"mu", "weights", "covariate_coefs"}),
        (EstimatorSpec.lasso(0.5), {"mu", "weights", "covariate_coefs"}),
        (EstimatorSpec.elastic_net(0.5, 0.5), {"mu", "weights", "covariate_coefs"}),
        (EstimatorSpec.factor(2), {"treated_loading"}),
        (EstimatorSpec.interactive_fe(1, SolverConfig(max_iters=20)), {"treated_loading", "beta"}),
        (EstimatorSpec.matrix_completion(), {"radius"}),
        (EstimatorSpec.ar(1), {"coefficients"}),
        (EstimatorSpec.fused(EstimatorSpec.sc(), 1), {"rho", "base", "base_params"}),
    ]

    def test_every_kind_is_covered(self):
        assert [spec.kind for spec, _ in self.KIND_SPECS] == list(_KINDS)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("covariate", [False, True], ids=["controls", "covariate"])
    @pytest.mark.parametrize("spec, keys", KIND_SPECS, ids=[spec.kind for spec, _ in KIND_SPECS])
    def test_fit_is_column_zero_of_the_core(self, rng, spec, keys, covariate, warm):
        # fit builds its ProxyFit from column 0 of the kind's array core; the
        # other columns (later candidates) must not change it.
        panel = random_panel(rng, 14, 6, noise=1.0)
        if covariate:
            panel = PanelData(panel.outcomes, t0=panel.t0, covariates=rng.standard_normal((14, 7, 1)))
        core = sc.estimators._ESTIMATORS[spec.kind].fitter
        treated = sc.panel._treated_under_nulls(panel, [[0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]])
        if spec.kind == "interactive_fe" and not covariate:
            with pytest.raises(DimensionError, match="requires covariates"):
                fit(panel, spec)
            with pytest.raises(DimensionError, match="requires covariates"):
                core(panel.outcomes, None, treated, spec, None)
            return
        start = fit(adjust_under_null(panel, [0.5, -0.5]), spec) if warm else None
        fitted = fit(panel, spec, start)
        block = core(panel.outcomes, panel.covariates, treated, spec, None if start is None else start.params)
        np.testing.assert_array_equal(block.proxies[0], fitted.proxy)
        np.testing.assert_array_equal(block.residuals[0], fitted.residuals)
        assert set(fitted.params) == keys
        assert_same_bits(block.params(0), fitted.params)
        assert block.report(0) == fitted.diagnostics
        report = fitted.diagnostics
        assert (block.steps[0], block.converged[0]) == ((0, True) if report is None else (
            report.iterations, report.converged))
        assert (block.start, fitted.start) == ((1, 1) if spec.kind not in ("ar", "fused") else (2, 2))

    @pytest.mark.parametrize("n_candidates", [1, 5])
    @pytest.mark.parametrize("covariates", [False, True], ids=["controls", "collinear_covariates"])
    @pytest.mark.parametrize("spec, keys", KIND_SPECS, ids=[spec.kind for spec, _ in KIND_SPECS])
    def test_block_is_its_columns_fitted_alone(self, rng, spec, keys, covariates, n_candidates):
        # Each per-column product of a block is one stacked call that makes
        # the BLAS call of a lone column, so column g of a block is, bit for
        # bit, the block of one of that column warm from column g - 1.  The
        # columns are strided as a test inversion lays them out, and two
        # collinear covariates take the rank cut-off of the free projection.
        panel = random_panel(rng, 41, 30, noise=1.0)
        cov = None
        if covariates:
            cov = rng.standard_normal((41, 31, 2))
            cov[:, :, 1] = 2.0 * cov[:, :, 0]
        elif spec.kind == "interactive_fe":
            with pytest.raises(DimensionError, match="requires covariates"):
                sc.estimators._ESTIMATORS[spec.kind].fitter(panel.outcomes, None, panel.outcomes[:, :1], spec, None)
            return
        treated = sc.panel._treated_under_nulls(panel, rng.standard_normal((n_candidates, 2)))
        core = sc.estimators._ESTIMATORS[spec.kind].fitter
        alone, start = [], None
        for g in range(n_candidates):
            alone.append(core(panel.outcomes, cov, treated[:, g:g + 1], spec, start))
            start = alone[-1].params(0)
        block = core(panel.outcomes, cov, treated, spec, None)
        for field in ("residuals", "proxies", "steps", "converged"):
            got, want = getattr(block, field), np.concatenate([getattr(one, field) for one in alone])
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), field
        for g, one in enumerate(alone):
            assert block.start == one.start
            assert set(block.params(g)) == keys
            assert_same_bits(block.params(g), one.params(0))
            assert block.report(g) == one.report(0)


class TestEstimatorSpec:
    def test_labels(self):
        assert EstimatorSpec.classo(2.0).label == "classo(K=2)"
        assert EstimatorSpec.fused(EstimatorSpec.sc(), 2).label == "fused(sc,lags=2)"

    def test_fused_base_restrictions(self):
        with pytest.raises(ValueError):
            EstimatorSpec.fused(EstimatorSpec.ar(1), 1)
        with pytest.raises(ValueError):
            EstimatorSpec.fused(EstimatorSpec.fused(EstimatorSpec.did(), 1), 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EstimatorSpec("ridge")

    @pytest.mark.parametrize("make", [
        lambda: EstimatorSpec("matrix_completion", solver=SolverConfig(max_iters=1)),
        lambda: EstimatorSpec("did", radius=3.0),
    ], ids=["solver", "radius"])
    def test_field_the_fitter_never_reads_refused(self, make):
        # Regression: such a field was accepted and ignored, so the spec fitted
        # as the default one while comparing unequal to it.
        with pytest.raises(ValueError, match="do not use"):
            make()

    def test_every_constructor_and_notation_builds(self):
        tight = SolverConfig(max_iters=50)
        built = [
            EstimatorSpec.did(), EstimatorSpec.sc(tight), EstimatorSpec.classo(2.0, tight),
            EstimatorSpec.lasso(1.0, tight), EstimatorSpec.elastic_net(1.0, 0.5, tight),
            EstimatorSpec.factor(2), EstimatorSpec.interactive_fe(1, tight),
            EstimatorSpec.matrix_completion(3.0), EstimatorSpec.ar(2),
            EstimatorSpec.fused(EstimatorSpec.classo(2.0, tight), 2),
        ]
        assert [spec.kind for spec in built] == list(_KINDS)
        for text in ("did", "sc", "classo:K=2", "lasso:lam=1", "elastic-net:lam=1,alpha=0.5",
                     "factor:k=2", "interactive-fe:k=1", "matrix-completion", "matrix-completion:K=3",
                     "ar:lags=2", "fused:base=sc,lags=1", "fused:base=elastic-net:lam=1,alpha=0.5,lags=1"):
            parse_estimator(text)
        assert EstimatorSpec("did") == EstimatorSpec.did()

    def test_automatic_radius_notation_parses(self):
        # Regression: the label writes an unset radius as K=auto, and that notation did not parse.
        spec = parse_estimator("matrix-completion:K=auto")
        assert spec == EstimatorSpec.matrix_completion()
        assert spec.label == "matrix_completion(K=auto)"

    @pytest.mark.parametrize("make", [
        lambda: EstimatorSpec.lasso(-1.0),
        lambda: EstimatorSpec.lasso(float("inf")),
        lambda: EstimatorSpec.elastic_net(0.5, 1.5),
        lambda: EstimatorSpec.elastic_net(float("nan"), 0.5),
        lambda: EstimatorSpec.classo(float("inf")),
        lambda: EstimatorSpec.matrix_completion(-1.0),
        lambda: EstimatorSpec.matrix_completion(0.0),
        lambda: EstimatorSpec.matrix_completion(float("nan")),
        lambda: EstimatorSpec.matrix_completion(float("inf")),
        lambda: EstimatorSpec.factor(0),
        lambda: EstimatorSpec.factor(1.5),
        lambda: EstimatorSpec.interactive_fe(0),
        lambda: EstimatorSpec.ar(1.5),
        lambda: EstimatorSpec.ar(True),
        lambda: EstimatorSpec.fused(EstimatorSpec.did(), 1.5),
    ], ids=["negative", "infinite", "alpha_above_one", "nan", "classo_infinite_radius",
            "matrix_completion_negative_radius", "matrix_completion_zero_radius",
            "matrix_completion_nan_radius", "matrix_completion_infinite_radius", "zero_factors",
            "fractional_factors", "zero_interactive_factors", "fractional_lags", "boolean_lags",
            "fractional_fused_lags"])
    def test_bad_penalty_rejected_when_built(self, make):
        # Regression: the penalty, a radius and the counts were checked only
        # at fit time, or not at all: the CLI ended in a traceback for
        # lasso:lam=-1 or matrix-completion:K=-1, classo:K=inf fitted all NaN,
        # matrix-completion:K=inf fitted the treated series exactly (every
        # p-value 1), and ar(1.5) failed inside numpy.
        with pytest.raises(ValueError):
            make()

    def test_counts_accept_numpy_integers(self):
        assert EstimatorSpec.factor(np.int64(2)) == EstimatorSpec.factor(2)
        assert EstimatorSpec.fused(EstimatorSpec.did(), np.int32(1)).n_lags == 1


def row_spec(kind, base=None):
    """A spec of ``kind`` built from its row's CLI parameters: defaults where the
    row has them, 1 for a required count, 0.5 for a required number, ``base``
    for a nested spec."""
    fields = {}
    for _, name, convert, default in _ESTIMATORS[kind].params:
        if convert is EstimatorSpec:
            fields[name] = base
        elif default is _REQUIRED:
            fields[name] = 1 if convert is int else 0.5
        else:
            fields[name] = default
    return getattr(EstimatorSpec, kind)(**fields)


def _row_specs():
    """One spec per row of ``_ESTIMATORS``; a row with a nested spec gets one per
    base: the first base kind that needs controls and the first that does not."""
    bases = [next(kind for kind, row in _ESTIMATORS.items() if row.fused_base and row.controls == needs)
             for needs in (True, False)]
    specs = []
    for kind, row in _ESTIMATORS.items():
        nested = any(convert is EstimatorSpec for _, _, convert, _ in row.params)
        specs += [row_spec(kind, row_spec(base)) for base in bases] if nested else [row_spec(kind)]
    return specs


ROW_SPECS = _row_specs()


class TestKindRows:
    """Each row of ``_ESTIMATORS`` holds what the rest of the package knows of its
    kind: its spec check, whether its core needs controls and whether it fits a
    stack of panels in one call.  Every row is covered, new ones included."""

    #: Values refused by a row's check besides the ones every row refuses (see below).
    REFUSED = {
        "classo": [{"radius": 0.0}, {"radius": np.inf}],
        "matrix_completion": [{"radius": -1.0}, {"radius": np.inf}],
        "lasso": [{"lam": -1.0}],
        "elastic_net": [{"alpha": 1.5}],
    }

    @classmethod
    def refused(cls, spec):
        """Field values the row of ``spec`` must refuse: each listed in
        ``REFUSED``, -1, inf and nan for every number, and as a nested spec
        every kind that cannot be a fused base."""
        values = list(cls.REFUSED.get(spec.kind, []))
        for _, name, convert, _ in _ESTIMATORS[spec.kind].params:
            if convert is EstimatorSpec:
                values += [{name: row_spec(kind, spec.base)} for kind, row in _ESTIMATORS.items() if not row.fused_base]
            elif convert is not int:
                values += [{name: value} for value in (-1.0, np.inf, np.nan)]
        return values

    def test_refused_values_name_rows(self):
        assert set(self.REFUSED) <= set(_ESTIMATORS)

    @pytest.mark.parametrize("spec", ROW_SPECS, ids=lambda spec: spec.label)
    def test_controls_flag(self, rng, spec):
        # One treated unit, no controls, and a covariate for interactive fixed effects.
        panel = PanelData(rng.standard_normal((12, 1)), t0=10, covariates=rng.standard_normal((12, 1, 1)))
        if _ESTIMATORS[(spec.base or spec).kind].controls:  # a fused spec needs what its base needs
            with pytest.raises(DimensionError, match="requires at least one control unit"):
                fit(panel, spec)
        else:
            assert np.isfinite(fit(panel, spec).residuals).all()

    @pytest.mark.parametrize("spec", ROW_SPECS, ids=lambda spec: spec.label)
    def test_check_refuses_bad_values(self, monkeypatch, spec):
        values = self.refused(spec)
        for changes in values:
            with pytest.raises(ValueError):
                dataclasses.replace(spec, **changes)
        # Each of them is refused by the row's check, not on the way to it.
        monkeypatch.setitem(_ESTIMATORS, spec.kind, _ESTIMATORS[spec.kind]._replace(check=lambda spec: None))
        for changes in values:
            dataclasses.replace(spec, **changes)

    @pytest.mark.parametrize("spec", ROW_SPECS, ids=lambda spec: spec.label)
    def test_stacked_chunk_is_its_panels_fitted_alone(self, monkeypatch, spec):
        # A Monte Carlo chunk is time-major, so each panel's rows are strided.
        dgp = DgpSpec(t0=9, n_controls=4, rho_u=0.6, rho_eps=0.3, seed=3)
        block = next(simulation._chunks(dgp, np.random.SeedSequence(dgp.seed).spawn(5)))
        panels = [PanelData(panel, t0=dgp.t0) for panel in block]
        try:
            alone = [fit(panel, spec) for panel in panels]
        except DimensionError as exc:  # a kind that cannot fit a chunk's panels cannot fit the chunk
            with pytest.raises(DimensionError) as caught:
                sc.estimators._fit_block(block, None, spec)
            assert str(caught.value) == str(exc)
            return
        stacked = sc.estimators._fit_block(block, None, spec)
        assert stacked.residuals.shape == (len(block), 1, alone[0].n_fitted)
        assert stacked.steps.shape == stacked.converged.shape == (len(block), 1)
        for b, one in enumerate(alone):
            report = one.diagnostics
            assert stacked.residuals[b, 0].tobytes() == one.residuals.tobytes()
            assert (stacked.steps[b, 0], stacked.converged[b, 0]) == ((0, True) if report is None else (
                report.iterations, report.converged))
        if not _ESTIMATORS[spec.kind].stacks:
            return
        scheme, statistic = PermutationScheme.moving_block(), Statistic()
        got = simulation._pvalues(block, dgp.t0, spec, scheme, statistic)
        monkeypatch.setitem(_ESTIMATORS, spec.kind, _ESTIMATORS[spec.kind]._replace(stacks=False))
        want = simulation._pvalues(block, dgp.t0, spec, scheme, statistic)
        assert (got.shape, got.tobytes()) == ((len(block),), want.tobytes())

    @pytest.mark.parametrize("spec, name", [(spec, name) for spec in ROW_SPECS
                                            for _, name, _, default in _ESTIMATORS[spec.kind].params
                                            if default is _REQUIRED], ids=lambda value: getattr(value, "label", value))
    def test_unset_required_parameter_is_named(self, spec, name):
        # Regression: EstimatorSpec("lasso") and EstimatorSpec("elastic_net", lam=0.5)
        # raised TypeError from the penalty check, with no field named.
        with pytest.raises(ValueError, match=f"{spec.kind} estimators need a value for '{name}'"):
            dataclasses.replace(spec, **{name: None})

    @pytest.mark.parametrize("spec", ROW_SPECS, ids=lambda spec: spec.label)
    def test_two_treated_units_refused_alike(self, rng, spec):
        # Every entry point refuses the panel where it reads the treated series.
        # Controls and a covariate leave nothing else for a kind to refuse.
        panel = PanelData(rng.standard_normal((12, 6)), t0=10, n_treated=2,
                          covariates=rng.standard_normal((12, 6, 1)))
        calls = [lambda: fit(panel, spec), lambda: sc.test_sharp_null(panel, [0.0, 0.0], spec),
                 lambda: sc.pointwise_ci(panel, 11, spec), lambda: sc.pointwise_ci(panel, 11, spec, grid=[0.0, 1.0])]
        messages = set()
        for call in calls:
            with pytest.raises(DimensionError) as caught:
                call()
            messages.add(str(caught.value))
        assert messages == {"panel has 2 treated units; aggregate_units() first"}


class TestReconstructionIdentity:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_proxy_plus_residuals(self, spec, rng):
        panel = random_panel(rng, n_periods=14, n_controls=4)
        fitted = fit(panel, spec)
        treated_window = panel.treated[fitted.start - 1:]
        np.testing.assert_allclose(fitted.proxy + fitted.residuals, treated_window, atol=1e-10)
        assert fitted.estimator_id == spec.label

    def test_rounding_floor_counts_every_outcome(self):
        # The floor is outcomes.size * eps * max|outcomes|, the largest
        # outcome being a control's here; residuals within it are zero.
        outcomes = np.column_stack([np.ones(6), np.full(6, 1e6), np.linspace(1.0, 2.0, 6)])
        panel = PanelData(outcomes, t0=4)
        floor = outcomes.size * np.finfo(float).eps * 1e6
        gaps = np.array([0.5, 0.9, 1.1, -0.5, -1.1, 0.0]) * floor
        residuals = sc.estimators._residuals(panel.treated[None], panel.treated[None] - gaps, panel.outcomes)
        np.testing.assert_array_equal(residuals[0] != 0.0, np.abs(gaps) > floor)


class TestPermutationInvariance:
    @pytest.mark.parametrize("spec", [spec for spec in ROW_SPECS if spec.n_lags is None], ids=lambda s: s.label)
    def test_residuals_permute_with_rows(self, spec, rng):
        # Every kind without lags treats the periods as exchangeable rows, a
        # new kind included: permuting the rows of the panel (and of the
        # covariate that interactive fixed effects needs) permutes the residuals.
        panel = random_panel(rng, n_periods=12, n_controls=4)
        if spec.kind == "interactive_fe":  # the only kind that needs a covariate; the others fit the controls alone
            panel = PanelData(panel.outcomes, t0=panel.t0, covariates=rng.standard_normal((12, 5, 1)))
        perm = rng.permutation(12)
        covariates = None if panel.covariates is None else panel.covariates[perm]
        permuted = PanelData(panel.outcomes[perm], t0=panel.t0, covariates=covariates)
        base = fit(panel, spec)
        shuffled = fit(permuted, spec)
        np.testing.assert_allclose(shuffled.residuals, base.residuals[perm], atol=1e-8)


class TestCovariates:
    #: Kinds whose fit never reads the panel's covariates; a fused spec follows its base.
    IGNORING = {"did", "factor", "matrix_completion", "ar"}

    @pytest.mark.parametrize("spec", ROW_SPECS + [EstimatorSpec.fused(EstimatorSpec.sc(), 1)],
                             ids=lambda spec: spec.label)
    def test_which_kinds_read_covariates(self, rng, spec):
        # As README's estimator table says: sc, classo, lasso and elastic net
        # take the treated unit's covariates as free columns, interactive
        # fixed effects needs them, and the others fit bit for bit as without.
        panel = random_panel(rng, n_periods=12, n_controls=4)
        covariates = PanelData(panel.outcomes, t0=panel.t0, covariates=rng.standard_normal((12, 5, 2)))
        if spec.kind == "interactive_fe":
            with pytest.raises(DimensionError, match="requires covariates"):
                fit(panel, spec)
            return
        without, with_covariates = fit(panel, spec), fit(covariates, spec)
        if (spec.base or spec).kind in self.IGNORING:
            assert with_covariates.residuals.tobytes() == without.residuals.tobytes()
            assert with_covariates.proxy.tobytes() == without.proxy.tobytes()
        else:
            assert not np.allclose(with_covariates.residuals, without.residuals)


class TestDid:
    def test_exact_shift_recovered(self, rng):
        controls = rng.standard_normal((10, 3))
        treated = controls.mean(axis=1) + 2.5
        fitted = fit(make_panel(treated, controls, t0=8), EstimatorSpec.did())
        assert abs(fitted.params["mu"] - 2.5) < 1e-12
        np.testing.assert_allclose(fitted.residuals, 0.0, atol=1e-12)

    def test_single_control(self):
        control = np.array([1.0, 2.0, 3.0, 4.0])
        fitted = fit(make_panel(control + 1.0, control[:, None], t0=3), EstimatorSpec.did())
        assert abs(fitted.params["mu"] - 1.0) < 1e-12
        np.testing.assert_allclose(fitted.residuals, 0.0, atol=1e-12)

    def test_residuals_sum_to_zero(self, rng):
        panel = random_panel(rng, 15, 5)
        fitted = fit(panel, EstimatorSpec.did())
        assert abs(fitted.residuals.sum()) < 1e-10

    def test_requires_controls(self):
        panel = PanelData(np.arange(6.0)[:, None], t0=4)
        with pytest.raises(DimensionError):
            fit(panel, EstimatorSpec.did())


class TestSyntheticControl:
    def test_recovers_realizable_weights(self, rng):
        controls = rng.standard_normal((30, 4))
        treated = 0.5 * controls[:, 0] + 0.5 * controls[:, 1]
        fitted = fit(make_panel(treated, controls, t0=28), EstimatorSpec.sc())
        np.testing.assert_allclose(fitted.params["weights"], [0.5, 0.5, 0.0, 0.0], atol=1e-4)

    def test_single_control_forced_vertex(self, rng):
        controls = rng.standard_normal((8, 1))
        fitted = fit(make_panel(rng.standard_normal(8), controls, t0=6), EstimatorSpec.sc())
        np.testing.assert_allclose(fitted.params["weights"], [1.0], atol=1e-12)
        np.testing.assert_allclose(fitted.proxy, controls[:, 0], atol=1e-12)

    def test_matches_grid_oracle(self, rng):
        controls = rng.standard_normal((12, 2))
        treated = controls @ [0.6, 0.4] + 0.4 * rng.standard_normal(12)
        fitted = fit(make_panel(treated, controls, t0=10), EstimatorSpec.sc())
        grid_best = _oracles.sc_objective_grid_search(controls, treated, step=1e-4)
        assert abs(float((fitted.residuals**2).sum()) - grid_best) < 1e-4

    def test_uses_all_periods(self, rng):
        # Perturbing a post-treatment entry must move the fit: estimation
        # happens on the adjusted full sample, not the pre periods alone.
        panel = random_panel(rng, 12, 3)
        bumped = panel.outcomes.copy()
        bumped[-1, 0] += 1.0
        w0 = fit(panel, EstimatorSpec.sc()).params["weights"]
        w1 = fit(PanelData(bumped, t0=panel.t0), EstimatorSpec.sc()).params["weights"]
        assert np.abs(w1 - w0).max() > 1e-6


class TestConstrainedLasso:
    def test_recovers_realizable_model(self, rng):
        controls = rng.standard_normal((40, 3))
        w_true = np.array([0.4, -0.3, 0.2])
        treated = controls @ w_true
        fitted = fit(make_panel(treated, controls, t0=38), EstimatorSpec.classo())
        np.testing.assert_allclose(fitted.params["weights"], w_true, atol=1e-4)
        assert abs(fitted.params["mu"]) < 1e-4

    def test_nests_did_and_sc(self, rng):
        panel = random_panel(rng, 16, 4)
        obj = lambda f: float((f.residuals**2).sum())
        classo_obj = obj(fit(panel, EstimatorSpec.classo()))
        assert classo_obj <= obj(fit(panel, EstimatorSpec.did())) * (1 + 1e-9) + 1e-9
        assert classo_obj <= obj(fit(panel, EstimatorSpec.sc())) * (1 + 1e-9) + 1e-9

    def test_huge_radius_matches_ols(self, rng):
        controls = rng.standard_normal((12, 3))
        treated = controls @ [0.8, -0.5, 0.3] + 0.2 * rng.standard_normal(12) + 1.0
        panel = make_panel(treated, controls, t0=10)
        fitted = fit(panel, EstimatorSpec.classo(radius=1e6))
        design = np.column_stack([np.ones(12), controls])
        coef = _oracles.ols_via_qr(design, treated)
        np.testing.assert_allclose(fitted.proxy, design @ coef, atol=1e-6)

    def test_matches_grid_oracle(self, rng):
        controls = rng.standard_normal((10, 3))
        treated = controls @ [0.5, -0.2, 0.0] + 0.3 * rng.standard_normal(10) + 0.4
        fitted = fit(make_panel(treated, controls, t0=8), EstimatorSpec.classo())
        grid_best = _oracles.classo_objective_grid_search(controls, treated, step=1e-2)
        assert abs(float((fitted.residuals**2).sum()) - grid_best) < 5e-3


class TestUnitsOfY:
    @pytest.mark.parametrize("spec", [EstimatorSpec.sc(), EstimatorSpec.classo()], ids=lambda s: s.label)
    def test_constrained_fits_do_not_depend_on_units(self, spec):
        # Regression: a stopping bound of tol * (1 + ||X'y||) let both fits
        # stop at their starting point, reporting convergence, once the
        # outcomes were scaled by 1e-6 or 1e6.
        rng = np.random.default_rng(0)
        controls = rng.standard_normal((20, 20))
        treated = controls[:, :3].mean(axis=1) + rng.standard_normal(20)
        outcomes = np.column_stack([treated, controls])
        base = fit(PanelData(outcomes, t0=19), spec)
        assert base.diagnostics.converged and base.diagnostics.iterations > 0
        for c in (1e-6, 1e6):
            scaled = fit(PanelData(c * outcomes, t0=19), spec)
            assert scaled.diagnostics.converged
            assert scaled.diagnostics.iterations == base.diagnostics.iterations
            np.testing.assert_allclose(scaled.params["weights"], base.params["weights"], atol=1e-12)
            np.testing.assert_allclose(scaled.residuals / c, base.residuals, atol=1e-12)


class TestPenalized:
    def test_zero_penalty_is_ols(self, rng):
        controls = rng.standard_normal((20, 3))
        treated = rng.standard_normal(20)
        panel = make_panel(treated, controls, t0=18)
        fitted = fit(panel, EstimatorSpec.lasso(0.0))
        design = np.column_stack([np.ones(20), controls])
        coef = _oracles.ols_via_qr(design, treated)
        np.testing.assert_allclose(fitted.proxy, design @ coef, atol=1e-7)

    def test_huge_penalty_gives_mean(self, rng):
        panel = random_panel(rng, 15, 3)
        fitted = fit(panel, EstimatorSpec.lasso(1e8))
        np.testing.assert_allclose(fitted.proxy, panel.treated.mean(), atol=1e-10)

    def test_elastic_net_alpha_one_equals_lasso(self, rng):
        panel = random_panel(rng, 15, 4)
        lasso = fit(panel, EstimatorSpec.lasso(0.8))
        enet = fit(panel, EstimatorSpec.elastic_net(0.8, 1.0))
        np.testing.assert_allclose(lasso.proxy, enet.proxy, atol=1e-10)


class TestFactor:
    def test_exact_low_rank_data(self, rng):
        factors = rng.standard_normal((20, 2))
        loadings = rng.standard_normal((6, 2))
        Y = factors @ loadings.T
        panel = PanelData(Y, t0=18)
        fitted = fit(panel, EstimatorSpec.factor(2))
        np.testing.assert_allclose(fitted.residuals, 0.0, atol=1e-6)

    def test_zero_factors_rejected(self, rng):
        # Zero factors are refused when the spec is built; more factors than
        # min(T, N) only when the panel is known.
        with pytest.raises(ValueError, match="n_factors"):
            EstimatorSpec.factor(0)
        with pytest.raises(DimensionError):
            fit(random_panel(rng, 10, 3), EstimatorSpec.factor(5))

    def test_treated_row_matches_truncated_svd(self, rng):
        Y = rng.standard_normal((20, 10))
        Y[:, 0] += Y[:, 1:3].sum(axis=1)  # give the panel some structure
        panel = PanelData(Y, t0=18)
        fitted = fit(panel, EstimatorSpec.factor(2))
        u, s, vt = np.linalg.svd(Y, full_matrices=False)
        truncated = (u[:, :2] * s[:2]) @ vt[:2]
        np.testing.assert_allclose(fitted.proxy, truncated[:, 0], atol=1e-8)


class TestInteractiveFe:
    def test_requires_covariates(self, rng):
        with pytest.raises(DimensionError):
            fit(random_panel(rng, 10, 3), EstimatorSpec.interactive_fe(1))

    def test_beta_zero_agrees_with_factor(self, rng):
        factors = rng.standard_normal((18, 2))
        loadings = rng.standard_normal((5, 2))
        Y = factors @ loadings.T
        cov = rng.standard_normal((18, 5, 2))
        panel = PanelData(Y, t0=16, covariates=cov)
        ife = fit(panel, EstimatorSpec.interactive_fe(2))
        pure = fit(PanelData(Y, t0=16), EstimatorSpec.factor(2))
        np.testing.assert_allclose(ife.proxy, pure.proxy, atol=1e-8)
        np.testing.assert_allclose(ife.params["beta"], 0.0, atol=1e-8)

    def test_noise_free_realizable_model(self, rng):
        factors = rng.standard_normal((24, 2))
        loadings = rng.standard_normal((6, 2))
        cov = rng.standard_normal((24, 6, 2))
        beta = np.array([1.5, -0.5])
        Y = factors @ loadings.T + cov @ beta
        panel = PanelData(Y, t0=22, covariates=cov)
        fitted = fit(panel, EstimatorSpec.interactive_fe(2, SolverConfig(tol=1e-12)))
        np.testing.assert_allclose(fitted.residuals, 0.0, atol=1e-5)

    def test_objective_trace_monotone(self, rng):
        Y = rng.standard_normal((16, 5))
        cov = rng.standard_normal((16, 5, 2))
        panel = PanelData(Y, t0=14, covariates=cov)
        fitted = fit(panel, EstimatorSpec.interactive_fe(2))
        trace = np.asarray(fitted.diagnostics.objective_trace)
        assert (np.diff(trace) <= 1e-10 * np.maximum(1.0, trace[:-1])).all()


class TestMatrixCompletion:
    def test_generous_budget_reproduces_data(self, rng):
        panel = random_panel(rng, 10, 4)
        budget = np.linalg.svd(panel.outcomes, compute_uv=False).sum()
        fitted = fit(panel, EstimatorSpec.matrix_completion(budget * 1.01))
        np.testing.assert_allclose(fitted.residuals, 0.0, atol=1e-10)

    def test_vanishing_budget_gives_zero_proxy(self, rng):
        panel = random_panel(rng, 10, 4)
        fitted = fit(panel, EstimatorSpec.matrix_completion(1e-9))
        np.testing.assert_allclose(fitted.proxy, 0.0, atol=1e-9)
        np.testing.assert_allclose(fitted.residuals, panel.treated, atol=1e-9)

    def test_nuclear_norm_constraint_met(self, rng):
        panel = random_panel(rng, 12, 5)
        fit_result = fit(panel, EstimatorSpec.matrix_completion(2.0))
        # reconstruct the full fitted matrix from the treated proxy route
        # by refitting; the constraint is on the whole matrix
        from synthconf.solvers import project_nuclear_ball

        fitted = project_nuclear_ball(panel.outcomes.T, 2.0)
        assert np.linalg.svd(fitted, compute_uv=False).sum() <= 2.0 + 1e-6
        np.testing.assert_allclose(fit_result.proxy, fitted[0], atol=1e-12)

    def test_never_worse_than_rank_truncation_oracle(self, rng):
        # The solution is optimal over the ball, so any feasible point
        # (here: the rank-1 truncation rescaled onto the ball) bounds it.
        u, v = rng.standard_normal(6), rng.standard_normal(15)
        signal = 10.0 * np.outer(v / np.linalg.norm(v), u / np.linalg.norm(u))
        Y = signal + 0.05 * rng.standard_normal((15, 6))
        budget = float(np.linalg.svd(signal.T, compute_uv=False).sum())
        panel = PanelData(Y, t0=13)
        fitted = fit(panel, EstimatorSpec.matrix_completion(budget))

        matrix = Y.T
        uu, s, vt = np.linalg.svd(matrix, full_matrices=False)
        feasible = (uu[:, :1] * s[:1]) @ vt[:1]
        if s[0] > budget:
            feasible *= budget / s[0]
        f_ours = fitted.diagnostics.final_objective
        f_oracle = float(((matrix - feasible) ** 2).sum())
        assert f_ours <= f_oracle * (1.0 + 1e-9)

    def test_matches_rank_oracle_when_budget_binds_hard(self, rng):
        # With the budget well below the dominant singular value and tiny
        # noise, the projection is exactly the rescaled rank-1 truncation.
        u, v = rng.standard_normal(5), rng.standard_normal(12)
        signal = 10.0 * np.outer(v / np.linalg.norm(v), u / np.linalg.norm(u))
        Y = signal + 0.01 * rng.standard_normal((12, 5))
        panel = PanelData(Y, t0=10)
        budget = 5.0
        fitted = fit(panel, EstimatorSpec.matrix_completion(budget))
        matrix = Y.T
        uu, s, vt = np.linalg.svd(matrix, full_matrices=False)
        feasible = (uu[:, :1] * s[:1]) @ vt[:1] * (budget / s[0])
        f_oracle = float(((matrix - feasible) ** 2).sum())
        assert abs(fitted.diagnostics.final_objective - f_oracle) <= 0.01 * f_oracle

    def test_default_radius_heuristic(self, rng):
        matrix = rng.standard_normal((8, 30))
        s = np.linalg.svd(matrix, compute_uv=False)
        assert default_nuclear_radius(matrix) == pytest.approx(1.5 * s[0])


class TestAr:
    def test_deterministic_ar1_recovered(self):
        y = 0.5 ** np.arange(10)
        panel = PanelData(y[:, None], t0=8)
        fitted = fit(panel, EstimatorSpec.ar(1))
        coef = fitted.params["coefficients"]
        assert abs(coef[1] - 0.5) < 1e-10
        assert abs(coef[0]) < 1e-10
        np.testing.assert_allclose(fitted.residuals, 0.0, atol=1e-12)
        assert fitted.start == 2

    def test_constant_series_intercept_only(self):
        panel = PanelData(np.full((9, 1), 3.0), t0=7)
        fitted = fit(panel, EstimatorSpec.ar(2))
        np.testing.assert_allclose(fitted.residuals, 0.0, atol=1e-12)
        np.testing.assert_allclose(fitted.params["coefficients"], [3.0, 0.0, 0.0], atol=1e-12)

    def test_ar2_consistency(self, rng):
        rho = np.array([0.5, 0.2])
        y = np.zeros(600)
        noise = rng.standard_normal(600)
        for t in range(2, 600):
            y[t] = rho[0] * y[t - 1] + rho[1] * y[t - 2] + noise[t]
        panel = PanelData(y[100:, None], t0=498)
        fitted = fit(panel, EstimatorSpec.ar(2))
        np.testing.assert_allclose(fitted.params["coefficients"][1:], rho, atol=0.1)

    def test_custom_lag_model_is_a_callable(self, rng):
        panel = random_panel(rng, 12, 2)

        def mean_of_target(panel):
            target = panel.treated[1:]
            proxy = np.full(target.shape[0], target.mean())
            return sc.ProxyFit(proxy, target - proxy, start=2, estimator_id="mean(lags=1)")

        fitted = fit(panel, mean_of_target)
        np.testing.assert_allclose(fitted.proxy, panel.treated[1:].mean(), atol=1e-12)
        result = sc.test_sharp_null(panel, [0.0, 0.0], mean_of_target)
        assert (result.estimator_id, result.window) == ("mean(lags=1)", (2, 12))

    def test_too_short_series(self):
        with pytest.raises(DimensionError):
            fit(PanelData(np.arange(3.0)[:, None], t0=2), EstimatorSpec.ar(2))

    def test_design_needs_a_row_per_coefficient(self, rng):
        # Regression: ar(3) on 6 periods left 3 rows for 4 coefficients and
        # failed as rank deficient instead of as too short.
        for n_periods in range(3, 10):
            panel = PanelData(rng.standard_normal((n_periods, 1)), t0=n_periods - 1)
            for n_lags in (1, 2, 3):
                if n_periods - n_lags >= n_lags + 1:
                    assert fit(panel, EstimatorSpec.ar(n_lags)).start == n_lags + 1
                else:
                    with pytest.raises(DimensionError, match="too short"):
                        fit(panel, EstimatorSpec.ar(n_lags))

    def test_series_constant_up_to_rounding(self):
        # Regression: a lag column that varies only by rounding (0.1 + 0.2 is
        # not 0.3) was kept beside the intercept and made the design rank
        # deficient.
        y = np.full(12, 0.3)
        y[::3] = 0.1 + 0.2
        panel = PanelData(y[:, None], t0=10)
        for n_lags in (1, 2):
            fitted = fit(panel, EstimatorSpec.ar(n_lags))
            np.testing.assert_allclose(fitted.params["coefficients"], [0.3] + [0.0] * n_lags, atol=1e-15)
            np.testing.assert_allclose(fitted.residuals, 0.0, atol=1e-15)


class TestFused:
    def test_white_noise_errors_leave_small_rho(self, rng):
        controls = rng.standard_normal((400, 5))
        eps = rng.standard_normal(400)
        treated = controls.mean(axis=1) + 1.0 + eps
        panel = make_panel(treated, controls, t0=398)
        fitted = fit(panel, EstimatorSpec.fused(EstimatorSpec.did(), 1))
        rho = fitted.params["rho"]
        assert abs(rho[0]) < 0.15
        # exact two-stage identity: residuals + predicted lag part = stage-1 residuals
        stage1 = fit(panel, EstimatorSpec.did())
        lagged = stage1.residuals[:-1]
        np.testing.assert_allclose(
            fitted.residuals + rho[0] * lagged, stage1.residuals[1:], atol=1e-8
        )

    def test_degenerate_stage_two(self, rng):
        controls = rng.standard_normal((12, 3))
        treated = controls.mean(axis=1) + 2.0
        for n_lags in (1, 2):
            fitted = fit(make_panel(treated, controls, t0=10), EstimatorSpec.fused(EstimatorSpec.did(), n_lags))
            np.testing.assert_array_equal(fitted.params["rho"], np.zeros(n_lags))
            np.testing.assert_allclose(fitted.residuals, 0.0, atol=1e-12)
            assert "degenerate" in fitted.diagnostics.note

    def test_stage_one_residuals_constant_up_to_rounding(self):
        # Regression: sc fits this panel exactly up to a level, leaving
        # residuals that span 5.7e-14; with 2 or 3 lags their lag columns
        # were collinear and the fit failed as rank deficient.
        rng = np.random.default_rng(3)
        control = 100 + 50 * rng.standard_normal(20)
        panel = make_panel(control + 283.03, control[:, None], t0=18)
        for n_lags in (1, 2, 3):
            spec = EstimatorSpec.fused(EstimatorSpec.sc(), n_lags)
            fitted = fit(panel, spec)
            np.testing.assert_array_equal(fitted.params["rho"], np.zeros(n_lags))
            assert "degenerate" in fitted.diagnostics.note
            assert sc.test_sharp_null(panel, np.zeros(2), spec).p_value == 1.0

    @pytest.mark.parametrize("base", [
        EstimatorSpec.sc(SolverConfig(max_iters=1)),
        EstimatorSpec.classo(1.0, SolverConfig(max_iters=1)),
        EstimatorSpec.lasso(0.1, SolverConfig(max_iters=1)),
        EstimatorSpec.elastic_net(0.1, 0.5, SolverConfig(max_iters=1)),
    ], ids=lambda spec: spec.kind)
    def test_counts_its_base_steps_and_convergence(self, base):
        # A fused fit reported stage two's closed form, one step and converged,
        # over a base that had stopped early.
        rng = np.random.default_rng(0)
        controls = rng.standard_normal((20, 15))
        panel = make_panel(controls[:, :3].mean(axis=1) + rng.standard_normal(20), controls, t0=18)
        spec = EstimatorSpec.fused(base, 1)
        alone, fused = fit(panel, base).diagnostics, fit(panel, spec).diagnostics
        assert (alone.iterations, alone.converged) == (1, False)
        assert (fused.iterations, fused.converged, fused.kkt_residual) == (2, False, alone.kkt_residual)
        assert not sc.test_sharp_null(panel, np.zeros(2), spec).diagnostics.converged
        # Every fit of a band takes one base step and one closed-form step.
        base_band, fused_band = sc.pointwise_ci(panel, 19, base), sc.pointwise_ci(panel, 19, spec)
        assert base_band.nonconverged > 0
        assert (fused_band.nonconverged, fused_band.iterations) == (base_band.nonconverged, 2 * base_band.iterations)

    def test_ar1_error_structure_recovered(self):
        rng = np.random.default_rng(0)
        n = 600
        controls = rng.standard_normal((n, 5))
        eps = np.zeros(n)
        innov = rng.standard_normal(n) * np.sqrt(1 - 0.6**2)
        for t in range(1, n):
            eps[t] = 0.6 * eps[t - 1] + innov[t]
        treated = controls.mean(axis=1) + eps
        fitted = fit(make_panel(treated, controls, t0=n - 2), EstimatorSpec.fused(EstimatorSpec.did(), 1))
        assert abs(fitted.params["rho"][0] - 0.6) < 0.1
