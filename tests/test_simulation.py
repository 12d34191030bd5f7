"""Tests for the Monte Carlo designs, experiments, and the oracle bound."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from synthconf import (
    DgpSpec,
    EstimatorSpec,
    PanelData,
    dgp_weights,
    fit,
    oracle_power_bound,
    reproduce_figure_null_vs_pre,
    run_power_curve,
    run_size_experiment,
    simulate_panel,
)
from synthconf import inference, simulation
from conftest import examples


class TestDgpWeights:
    def test_weight_sums(self):
        assert dgp_weights("DGP1", 20).sum() == pytest.approx(1.0)
        assert dgp_weights("DGP3", 20).sum() == pytest.approx(-1.0)
        assert dgp_weights("DGP4", 20).sum() == pytest.approx(0.0)
        np.testing.assert_allclose(dgp_weights("DGP2", 6), [1 / 3, 1 / 3, 1 / 3, 0, 0, 0])

    def test_constraints(self):
        with pytest.raises(ValueError):
            dgp_weights("DGP2", 2)
        with pytest.raises(ValueError):
            DgpSpec(t0=10, n_controls=1, weights_kind="DGP4")

    @pytest.mark.parametrize("kind", ["DGP9", "dgp1", "DGP"])
    def test_unknown_design_refused(self, kind):
        # Any name but DGP1-DGP3 fell through to the DGP4 contrast.
        with pytest.raises(ValueError, match=f"^unknown design '{kind}'; expected one of DGP1, DGP2, DGP3, DGP4$"):
            dgp_weights(kind, 4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DgpSpec(t0=10, n_controls=5, rho_u=1.0)
        with pytest.raises(ValueError):
            DgpSpec(t0=10, n_controls=5, weights_kind="DGP9")
        with pytest.raises(ValueError):
            DgpSpec(t0=10, n_controls=5, factor_trend="quadratic")

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", 3.0), ("seed", True), ("seed", -1),
        ("t0", 2.5), ("t0", 10.0), ("t0", True), ("n_controls", 3.0), ("n_controls", True),
        ("alpha_true", np.nan), ("alpha_true", np.inf), ("alpha_true", -np.inf),
    ])
    def test_bad_value_refused(self, field, value):
        # A seed of 1.5 constructed and failed at the first replication with
        # a TypeError, True ran as seed 1, and a t0 of 2.5 failed in numpy; a
        # NaN effect rejected in every replication and was written as NaN.
        with pytest.raises(ValueError, match=field):
            DgpSpec(**{"t0": 10, "n_controls": 5, field: value})

    def test_numpy_integers_accepted(self):
        spec = DgpSpec(t0=np.int64(10), n_controls=np.int32(5), seed=np.uint64(3))
        np.testing.assert_array_equal(simulate_panel(spec).outcomes,
                                      simulate_panel(DgpSpec(10, 5, seed=3)).outcomes)


def _shocks(spec, n_reps):
    """The treated unit's shocks ``treated - controls @ weights`` in ``n_reps``
    replications of the simulator, one row each."""
    weights = dgp_weights(spec.weights_kind, spec.n_controls)
    seeds = np.random.SeedSequence(spec.seed).spawn(n_reps)
    return np.concatenate([block[:, :, 0] - block[:, :, 1:] @ weights
                           for block in simulation._chunks(spec, seeds)])


class TestSimulatePanel:
    def test_shapes_and_seed_determinism(self):
        spec = DgpSpec(t0=20, n_controls=7, seed=42)
        a = simulate_panel(spec)
        b = simulate_panel(spec)
        assert a.n_periods == 21 and a.n_post == 1 and a.n_controls == 7
        np.testing.assert_array_equal(a.outcomes, b.outcomes)

    def test_effect_enters_post_period_only(self):
        base = DgpSpec(t0=15, n_controls=5, seed=9)
        shifted = dataclasses.replace(base, alpha_true=3.0)
        a, b = simulate_panel(base), simulate_panel(shifted)
        np.testing.assert_array_equal(a.outcomes[:15], b.outcomes[:15])
        assert b.treated[15] == pytest.approx(a.treated[15] + 3.0)

    def test_ar0_shocks_are_iid_standard_normal(self):
        # 20,000 independent replications; tolerances of four Monte Carlo
        # standard errors: sqrt(1/(2n)) for the standard deviation and
        # sqrt(1/n) for the correlation of independent N(0,1) pairs.
        n = 20_000
        draws = _shocks(DgpSpec(t0=3, n_controls=1, rho_u=0.0), n)
        assert draws[:, -1].std() == pytest.approx(1.0, abs=4.0 * np.sqrt(0.5 / n))
        # lag-1 autocorrelation across independent replications
        corr = np.corrcoef(draws[:, -1], draws[:, -2])[0, 1]
        assert abs(corr) < 4.0 * np.sqrt(1.0 / n)

    def test_stationary_marginal_variance(self):
        # Unit marginal variance for any autocorrelation; 10,000 independent
        # replications per rho, tolerance three Monte Carlo standard errors
        # of the variance estimate (sqrt(2/n) for N(0,1) data).
        n = 10_000
        tol = 3.0 * np.sqrt(2.0 / n)
        for rho in (0.0, 0.6, 0.9):
            draws = _shocks(DgpSpec(t0=5, n_controls=1, rho_u=rho, seed=1), n)
            assert draws[:, -1].var() == pytest.approx(1.0, abs=tol)

    def test_trending_factor_shifts_controls(self):
        flat = simulate_panel(DgpSpec(t0=30, n_controls=5, seed=3))
        trend = simulate_panel(
            DgpSpec(t0=30, n_controls=5, seed=3, factor_trend="trending")
        )
        drift = trend.controls.mean(axis=1) - flat.controls.mean(axis=1)
        assert drift[-1] > drift[0]  # loadings are positive, so trend shows up


def _loop_panel(spec, rng):
    """The outcomes of ``simulate_panel``, computed as one replication alone.

    This is the reference: the design written out per period, with the
    draws in the order the simulator makes them.
    """
    def ar1(n, rho, size=None):
        shape = (n,) if size is None else (n, size)
        innov = rng.standard_normal(shape) * np.sqrt(1.0 - rho**2)
        state = rng.standard_normal(shape[1:])
        out = np.empty(shape)
        for t in range(n):
            state = rho * state + innov[t]
            out[t] = state
        return out

    n_periods, J = spec.t0 + 1, spec.n_controls
    factors = rng.standard_normal(n_periods)
    if spec.factor_trend == "trending":
        factors = factors + np.arange(1, n_periods + 1)
    time_effect = rng.standard_normal(n_periods)
    eps = ar1(n_periods, spec.rho_eps, J)
    shock = ar1(n_periods, spec.rho_u)
    unit_effect = np.arange(1, J + 1) / J
    controls = unit_effect + time_effect[:, None] + unit_effect * factors[:, None] + eps
    treated = controls @ dgp_weights(spec.weights_kind, J) + shock
    treated[spec.t0:] += spec.alpha_true
    return np.column_stack([treated, controls])


@st.composite
def small_designs(draw):
    n_controls = draw(st.integers(1, 6))
    least = {"DGP1": 1, "DGP2": 3, "DGP3": 1, "DGP4": 2}
    return DgpSpec(
        t0=draw(st.integers(2, 12)),
        n_controls=n_controls,
        rho_u=draw(st.sampled_from((0.0, 0.3, 0.6))),
        rho_eps=draw(st.sampled_from((0.0, 0.3, 0.6))),
        weights_kind=draw(st.sampled_from([k for k, n in least.items() if n_controls >= n])),
        factor_trend=draw(st.sampled_from(("stationary", "trending"))),
        alpha_true=draw(st.sampled_from((0.0, 1.5))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestChunkedReplications:
    @settings(max_examples=examples(120), deadline=None)
    @given(
        dgp=small_designs(),
        spec=st.sampled_from((
            EstimatorSpec.did(), EstimatorSpec.sc(), EstimatorSpec.ar(1),
            EstimatorSpec.classo(0.5), EstimatorSpec.classo(1.0), EstimatorSpec.classo(2.0),
            EstimatorSpec.lasso(0.5), EstimatorSpec.elastic_net(0.5, 0.5),
            EstimatorSpec.factor(1), EstimatorSpec.matrix_completion(),
            EstimatorSpec.fused(EstimatorSpec.did(), 1),
        )),
        chunk=st.integers(1, 3),
        data=st.data(),
    )
    def test_pvalues_equal_per_replication_tests(self, dgp, spec, chunk, data):
        # Chunks of `chunk` panels; the replications end just before, on or
        # after a chunk boundary, or one past the second chunk.  Every kind
        # takes its rows from the array core, did in one call per chunk;
        # rho_u and rho_eps of 0, 0.3 or 0.6 skip none, one or both
        # recurrences, and run them with one rho or with two.
        n_reps = data.draw(st.sampled_from(sorted({max(1, chunk - 1), chunk, chunk + 1, 2 * chunk + 1})))
        budget = chunk * (dgp.t0 + 1) * (dgp.n_controls + 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulation, "_CHUNK_DOUBLES", budget)
            got = run_size_experiment(dgp, spec, n_reps=n_reps, keep_pvalues=True).p_values
        expected = []
        for seq in np.random.SeedSequence(dgp.seed).spawn(n_reps):
            panel = simulate_panel(dgp, np.random.default_rng(seq))
            np.testing.assert_array_equal(panel.outcomes, _loop_panel(dgp, np.random.default_rng(seq)))
            expected.append(inference.test_sharp_null(panel, 0, spec).p_value)
        np.testing.assert_array_equal(got, expected)


class TestWideDesign:
    """The design of the ``mc_did_wide`` benchmark at full size: in a chunk,
    each panel's rows are strided 12 panels apart, and 13 replications fill
    one default chunk of 12 and start a second."""

    dgp = DgpSpec(t0=100, n_controls=100, rho_u=0.6, rho_eps=0.6, weights_kind="DGP1", seed=11)
    n_reps = 13

    def test_chunk_panels_equal_the_loop(self):
        seeds = np.random.SeedSequence(self.dgp.seed).spawn(self.n_reps)
        blocks = [block.copy() for block in simulation._chunks(self.dgp, seeds)]  # one memory for all
        assert [len(block) for block in blocks] == [12, 1]
        for outcomes, seq in zip(np.concatenate(blocks), seeds):
            np.testing.assert_array_equal(outcomes, _loop_panel(self.dgp, np.random.default_rng(seq)))

    @pytest.mark.parametrize("spec", [EstimatorSpec.did(), EstimatorSpec.sc()], ids=["did", "sc"])
    def test_pvalues_equal_per_replication_tests(self, monkeypatch, spec):
        # The ranked residual rows, not only the p-values, must equal those of
        # a fit of each panel alone.
        rows = []
        monkeypatch.setattr(simulation, "_rank", lambda r, *args: rows.append(r.copy()) or inference._rank(r, *args))
        got = run_size_experiment(self.dgp, spec, n_reps=self.n_reps, keep_pvalues=True).p_values
        panels = [simulate_panel(self.dgp, np.random.default_rng(seq))
                  for seq in np.random.SeedSequence(self.dgp.seed).spawn(self.n_reps)]
        np.testing.assert_array_equal(np.concatenate(rows), [fit(panel, spec).residuals for panel in panels])
        np.testing.assert_array_equal(got, [inference.test_sharp_null(panel, 0, spec).p_value for panel in panels])


class TestRunSizeExperiment:
    def test_deterministic_given_seed(self):
        dgp = DgpSpec(t0=10, n_controls=4, seed=123)
        a = run_size_experiment(dgp, EstimatorSpec.did(), n_reps=50, keep_pvalues=True)
        b = run_size_experiment(dgp, EstimatorSpec.did(), n_reps=50, keep_pvalues=True)
        assert a.rejection_rate == b.rejection_rate
        np.testing.assert_array_equal(a.p_values, b.p_values)

    def test_exchangeable_size_bounded(self):
        # Theorem-style bound: with i.i.d. data and a permutation-invariant
        # estimator, rejection <= level + 3 * sqrt(level(1-level)/n).
        dgp = DgpSpec(t0=20, n_controls=6, seed=7)
        result = run_size_experiment(dgp, EstimatorSpec.did(), n_reps=1000)
        bound = 0.1 + 3.0 * np.sqrt(0.1 * 0.9 / 1000)
        assert result.rejection_rate <= bound

    def test_result_echo(self):
        dgp = DgpSpec(t0=8, n_controls=3, seed=5)
        result = run_size_experiment(dgp, EstimatorSpec.did(), n_reps=10)
        assert result.dgp == dgp
        assert result.estimator_id == "did"
        assert result.scheme_kind == "moving_block"
        assert 0.0 <= result.rejection_rate <= 1.0
        assert result.p_values is None


    def test_rejects_no_reps_and_a_level_outside_unit_interval(self):
        # n_reps of 2.5 and True reached numpy (TypeError); the figure function
        # divided by 0 at 0, overflowed at -1, ran True as one replication and
        # never checked its level.
        dgp = DgpSpec(t0=8, n_controls=3)
        runs = [
            lambda **kw: run_size_experiment(dgp, EstimatorSpec.did(), **kw),
            lambda **kw: run_power_curve(dgp, EstimatorSpec.did(), **kw),
            lambda **kw: reproduce_figure_null_vs_pre(rho_grid=(0.0,), t0=5, n_controls=4, **kw),
        ]
        refusals = [(0, "n_reps must be >= 1; got 0"), (-1, "n_reps must be >= 1; got -1"),
                    (2.5, "n_reps must be an integer; got 2.5"), (True, "n_reps must be an integer; got True")]
        for run in runs:
            for n_reps, message in refusals:
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    run(n_reps=n_reps)
            for level in (0.0, 1.0, 2.0):
                with pytest.raises(ValueError, match="level"):
                    run(n_reps=5, level=level)

    def test_callable_estimator_refused_before_any_replication(self, monkeypatch):
        # A callable reached the first replication and failed there with
        # AttributeError: 'function' object has no attribute 'base'.
        def no_chunks(*args, **kwargs):
            raise AssertionError("a replication ran")

        def mean_proxy(panel):
            return fit(panel, EstimatorSpec.did())

        monkeypatch.setattr(simulation, "_chunks", no_chunks)
        dgp = DgpSpec(t0=8, n_controls=3)
        for run in (run_size_experiment, run_power_curve):
            with pytest.raises(TypeError, match="needs an EstimatorSpec, not function <function"):
                run(dgp, mean_proxy, n_reps=5)
        with pytest.raises(TypeError, match="needs an EstimatorSpec, not str 'did'"):
            run_size_experiment(dgp, "did", n_reps=5)



class TestRunPowerCurve:
    def test_zero_effect_point_reproduces_size_run(self):
        dgp = DgpSpec(t0=12, n_controls=4, seed=77)
        size = run_size_experiment(dgp, EstimatorSpec.did(), n_reps=200)
        curve = run_power_curve(
            dgp, EstimatorSpec.did(), alpha_grid=(0.0, 6.0), n_reps=200
        )
        assert curve[0].rejection_rate == size.rejection_rate

    def test_every_point_equals_a_size_run(self):
        dgp = DgpSpec(t0=12, n_controls=4, rho_u=0.6, rho_eps=0.6, weights_kind="DGP2", seed=79)
        grid = (0.0, 0.5, 1.5, -2.0)
        for spec in (EstimatorSpec.did(), EstimatorSpec.sc()):
            curve = run_power_curve(dgp, spec, alpha_grid=grid, n_reps=80)
            for a, point in zip(grid, curve):
                size = run_size_experiment(dataclasses.replace(dgp, alpha_true=a), spec, n_reps=80)
                assert point == size

    def test_non_finite_effect_refused_before_any_replication(self, monkeypatch):
        # The effect was checked when the results were built, after all
        # 4,000 replications had been simulated and fitted for every effect.
        def no_chunks(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(simulation, "_chunks", no_chunks)
        with pytest.raises(ValueError, match="alpha_true must be finite"):
            run_power_curve(DgpSpec(20, 10), EstimatorSpec.sc(), alpha_grid=(0.0, np.nan), n_reps=4000)

    def test_large_effect_has_power(self):
        dgp = DgpSpec(t0=20, n_controls=4, seed=78)
        curve = run_power_curve(
            dgp, EstimatorSpec.did(), alpha_grid=(0.0, 10.0), n_reps=200
        )
        assert curve[1].rejection_rate >= 0.95


class TestOraclePowerBound:
    def test_size_is_exactly_the_level(self):
        dgp = DgpSpec(t0=19, n_controls=5)
        for level in (0.05, 0.1, 0.2):
            value = oracle_power_bound(dgp, [0.0], level=level)[0]
            assert value == pytest.approx(level, abs=1e-12)

    def test_tends_to_one(self):
        dgp = DgpSpec(t0=19, n_controls=5)
        assert oracle_power_bound(dgp, [50.0])[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_simulation_at_threshold(self):
        # At alpha_true equal to the 0.95 quantile of |N(0,1)| and level 0.1,
        # compare the analytic value against a million-draw simulation.
        dgp = DgpSpec(t0=19, n_controls=5)
        a = float(sps.norm.ppf(0.95))
        analytic = oracle_power_bound(dgp, [a], level=0.1)[0]
        rng = np.random.default_rng(2)
        draws = rng.standard_normal(1_000_000)
        simulated = (np.abs(draws + a) > sps.norm.ppf(0.95)).mean()
        mc_se = np.sqrt(simulated * (1 - simulated) / 1_000_000)
        assert abs(analytic - simulated) <= 3 * mc_se
        assert analytic == pytest.approx(0.5005, abs=1e-3)

    def test_symmetric_in_sign(self):
        dgp = DgpSpec(t0=19, n_controls=5)
        grid = np.array([-2.0, -1.0, 1.0, 2.0])
        values = oracle_power_bound(dgp, grid)
        np.testing.assert_allclose(values[:2], values[:1:-1])

    @pytest.mark.parametrize("grid, got", [([np.nan, np.inf], "nan"), ([0.0, -np.inf], "-inf")], ids=["nan", "inf"])
    def test_non_finite_effect_refused_as_the_power_curve_refuses_it(self, grid, got):
        # Regression: [nan, inf] gave [nan, 1.0]; run_power_curve refuses it through DgpSpec.
        message = f"^alpha_true must be finite; got {got}$"
        with pytest.raises(ValueError, match=message):
            oracle_power_bound(DgpSpec(5, 3), grid)
        with pytest.raises(ValueError, match=message):
            run_power_curve(DgpSpec(5, 3), EstimatorSpec.did(), alpha_grid=grid, n_reps=1)


class TestFigureNullVsPre:
    @pytest.mark.parametrize("seed, message", [
        (2.5, "seed must be an integer; got 2.5"),
        (-1, "seed must be >= 0; got -1"),
        (True, "seed must be an integer; got True"),
    ], ids=["float", "negative", "bool"])
    def test_refuses_a_seed_that_is_not_a_non_negative_integer(self, seed, message):
        # 2.5 raised numpy's TypeError, -1 numpy's ValueError without the
        # argument's name, and True ran as seed 1.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reproduce_figure_null_vs_pre(rho_grid=(0.0,), seed=seed, t0=5, n_controls=4, n_reps=3)

    def test_structure_and_determinism(self):
        rows = reproduce_figure_null_vs_pre(rho_grid=(0.0,), seed=4, n_reps=40)
        again = reproduce_figure_null_vs_pre(rho_grid=(0.0,), seed=4, n_reps=40)
        assert [r["rejection_rate"] for r in rows] == [r["rejection_rate"] for r in again]
        assert {r["mode"] for r in rows} == {"under_null", "pre_only"}

    def test_rates_equal_per_replication_tests(self, monkeypatch):
        # The design written out per replication: i.i.d. standard normal
        # controls, then the shock innovations and start, and a sparse
        # simplex weight; 16 replications in chunks of 7, 7 and 2.
        t0, n_controls, n_reps, level = 12, 8, 16, 0.1
        monkeypatch.setattr(simulation, "_CHUNK_DOUBLES", 7 * (t0 + 1) * (n_controls + 1))
        rows = reproduce_figure_null_vs_pre(rho_grid=(0.0, 0.3, 0.6), seed=5, t0=t0,
                                            n_controls=n_controls, n_reps=n_reps, level=level)
        weights = dgp_weights("DGP2", n_controls)
        scheme = inference.PermutationScheme.moving_block()
        for rho in (0.0, 0.3, 0.6):
            reject_null = reject_pre = 0
            for seq in np.random.SeedSequence((5, int(round(1000 * rho)))).spawn(n_reps):
                rng = np.random.default_rng(seq)
                controls = rng.standard_normal((t0 + 1, n_controls))
                innov = rng.standard_normal(t0 + 1) * np.sqrt(1.0 - rho**2)
                state = rng.standard_normal()
                shock = np.empty(t0 + 1)
                for t in range(t0 + 1):
                    state = rho * state + innov[t]
                    shock[t] = state
                outcomes = np.column_stack([controls @ weights + shock, controls])
                panel = PanelData(outcomes, t0=t0)
                reject_null += inference.test_sharp_null(panel, 0, EstimatorSpec.sc()).p_value <= level
                pre = simulation._pre_only_residuals(outcomes, t0)
                reject_pre += inference.p_value(pre, scheme, inference.Statistic(), 1).p_value <= level
            rates = {r["mode"]: r["rejection_rate"] for r in rows if r["rho_u"] == rho}
            assert rates == {"under_null": reject_null / n_reps, "pre_only": reject_pre / n_reps}

    @pytest.mark.parametrize("t0, n_controls, rho", [(2, 3, 0.0), (2, 12, 0.6), (12, 8, 0.6), (19, 50, 0.0)])
    def test_pre_only_weights_are_the_sc_fit_of_the_pre_rows(self, t0, n_controls, rho):
        # The baseline's weights are those of the sc estimator fitted to a
        # panel of the first t0 rows, bit for bit, more controls than rows included.
        design = DgpSpec(t0, n_controls, rho_u=rho, weights_kind="DGP2")
        for block in simulation._chunks(design, np.random.SeedSequence((t0, n_controls)).spawn(10), iid_controls=True):
            for outcomes in block:
                w = fit(PanelData(outcomes[:t0], t0=t0 - 1), EstimatorSpec.sc()).params["weights"]
                expected = outcomes[:, 0] - outcomes[:, 1:] @ w
                assert simulation._pre_only_residuals(outcomes, t0).tobytes() == expected.tobytes()

    def test_pre_only_overrejects(self):
        # Overfitting 50 weights on 19 points shrinks the in-sample
        # residuals, so the pre-only mode over-rejects markedly even with
        # serially independent shocks.
        rows = reproduce_figure_null_vs_pre(rho_grid=(0.0,), seed=4, n_reps=300)
        rates = {r["mode"]: r["rejection_rate"] for r in rows}
        assert rates["pre_only"] > rates["under_null"] + 0.05
