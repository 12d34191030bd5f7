# The counterfactual-proxy menu beyond regression on controls: factor
# models, interactive fixed effects, nuclear-norm-constrained matrix
# fitting, pure autoregressions, and fused panel+AR two-stage models.
# All of them plug into the same permutation test.

import numpy as np

import synthconf as sc

rng = np.random.default_rng(21)
T, N, k = 40, 12, 2

# Outcomes driven by a two-factor structure shared across units.
factors = rng.standard_normal((T, k))
loadings = rng.standard_normal((N, k))
noise = 0.3 * rng.standard_normal((T, N))
outcomes = factors @ loadings.T + noise
outcomes[38:, 0] += 2.0  # effect on the treated unit
panel = sc.PanelData(outcomes, t0=38)

covariates = rng.standard_normal((T, N, 2))
panel_with_x = sc.PanelData(outcomes, t0=38, covariates=covariates)

menu = {
    "factor (k=2)": (panel, sc.EstimatorSpec.factor(2)),
    "interactive FE (k=2)": (panel_with_x, sc.EstimatorSpec.interactive_fe(2)),
    "matrix completion": (panel, sc.EstimatorSpec.matrix_completion()),  # auto budget
    "AR(2), treated only": (panel, sc.EstimatorSpec.ar(2)),
    "fused: sc + AR(1) errors": (panel, sc.EstimatorSpec.fused(sc.EstimatorSpec.sc(), 1)),
}

print(f"{'estimator':>26} {'p(zero)':>8} {'p(truth)':>9}  fitted window")
for name, (data, spec) in menu.items():
    p0 = sc.test_sharp_null(data, [0.0, 0.0], spec)
    p1 = sc.test_sharp_null(data, [2.0, 2.0], spec)
    print(f"{name:>26} {p0.p_value:8.3f} {p1.p_value:9.3f}  periods {p0.window[0]}..{p0.window[1]}")

# Lag-based models consume a prefix: the AR(2) window starts at period 3 and
# the permutations act on the shortened residual series automatically.

# A model of your own, a tree or a small network as well, is a callable from a
# null-adjusted panel to a ProxyFit, accepted wherever a spec is.  Here, an AR(2)
# fitted to the treated series clipped at its 5% and 95% quantiles: it
# consumes two periods, so the fitted window starts at period 3, and its
# residuals do not permute with the rows.
def winsorized_ar(panel):
    y = panel.treated
    design = np.column_stack([np.ones(len(y) - 2), y[1:-1], y[:-2]])  # 1, y_{t-1}, y_{t-2}
    target = y[2:]
    lo, hi = np.quantile(target, [0.05, 0.95])
    proxy = design @ np.linalg.lstsq(design, np.clip(target, lo, hi), rcond=None)[0]
    return sc.ProxyFit(proxy, target - proxy, start=3, estimator_id="winsorized ar(lags=2)")


custom = sc.test_sharp_null(panel, [0.0, 0.0], winsorized_ar)
print(f"\ncustom lag model p(zero) = {custom.p_value:.3f}  ({custom.estimator_id})")
