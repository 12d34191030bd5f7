"""Monte Carlo designs and experiments for size and power studies.

The designs generate a treated outcome as a weighted combination of
control outcomes plus an AR(1) shock; the controls follow a one-factor
model with unit effects, a common time effect, and AR(1) idiosyncratic
noise.  All AR processes are initialized at their stationary N(0, 1)
distribution so finite samples are exactly stationary.  Replications draw
independent seeds from a spawned seed sequence, so results are identical
whether replications run serially or are distributed by index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .estimators import EstimatorSpec
from .inference import PermutationScheme, Statistic, p_value, test_sharp_null
from .panel import PanelData
from .solvers import simplex_ls

__all__ = [
    "DgpSpec",
    "ExperimentResult",
    "dgp_weights",
    "simulate_panel",
    "run_size_experiment",
    "run_power_curve",
    "oracle_power_bound",
    "reproduce_figure_null_vs_pre",
]

_WEIGHT_KINDS = ("DGP1", "DGP2", "DGP3", "DGP4")


@dataclass(frozen=True)
class DgpSpec:
    """Simulation design for one experiment.

    ``weights_kind`` selects how the treated unit loads on the controls:
    equal weights (DGP1, the difference-in-differences case), a sparse
    simplex vector (DGP2, the synthetic-control case), negated equal
    weights (DGP3, feasible only for the l1-constrained model), and a
    +1/-1 contrast (DGP4, outside every fitted model class).
    ``alpha_true`` is the effect added to the single post-treatment period.
    """

    t0: int
    n_controls: int
    rho_u: float = 0.0
    rho_eps: float = 0.0
    weights_kind: str = "DGP1"
    factor_trend: str = "stationary"
    alpha_true: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.t0 < 2:
            raise ValueError(f"t0 must be >= 2; got {self.t0}")
        for name, rho in (("rho_u", self.rho_u), ("rho_eps", self.rho_eps)):
            if not 0.0 <= rho < 1.0:
                raise ValueError(f"{name} must lie in [0, 1); got {rho}")
        if self.weights_kind not in _WEIGHT_KINDS:
            raise ValueError(f"weights_kind must be one of {_WEIGHT_KINDS}; got {self.weights_kind!r}")
        if self.factor_trend not in ("stationary", "trending"):
            raise ValueError(f"factor_trend must be 'stationary' or 'trending'; got {self.factor_trend!r}")
        dgp_weights(self.weights_kind, self.n_controls)  # validates n_controls


@dataclass(frozen=True)
class ExperimentResult:
    """Rejection rate of one Monte Carlo experiment."""

    rejection_rate: float
    n_reps: int
    dgp: DgpSpec
    estimator_id: str
    scheme_kind: str
    level: float
    p_values: np.ndarray | None = None


def _check_level(level: float) -> None:
    if not 0 < level < 1:
        raise ValueError(f"level must lie in (0, 1); got {level}")


def dgp_weights(kind: str, n_controls: int) -> np.ndarray:
    """Treated-unit weight vector over the controls for each design."""
    if kind == "DGP1":
        if n_controls < 1:
            raise ValueError("DGP1 needs at least one control")
        return np.full(n_controls, 1.0 / n_controls)
    if kind == "DGP2":
        if n_controls < 3:
            raise ValueError("DGP2 needs at least three controls")
        w = np.zeros(n_controls)
        w[:3] = 1.0 / 3.0
        return w
    if kind == "DGP3":
        if n_controls < 1:
            raise ValueError("DGP3 needs at least one control")
        return np.full(n_controls, -1.0 / n_controls)
    if n_controls < 2:
        raise ValueError("DGP4 needs at least two controls")
    w = np.zeros(n_controls)
    w[0], w[1] = 1.0, -1.0
    return w


def _ar1(rng: np.random.Generator, n: int, rho: float, size: int | None = None) -> np.ndarray:
    """Stationary AR(1) path(s) with unit marginal variance.

    The state starts from N(0, 1) and innovations have variance
    ``1 - rho^2``, so every marginal is exactly N(0, 1).
    """
    shape = (n,) if size is None else (n, size)
    innov = rng.standard_normal(shape) * np.sqrt(1.0 - rho**2)
    state = rng.standard_normal(shape[1:] if size is not None else ())
    out = np.empty(shape)
    for t in range(n):
        state = rho * state + innov[t]
        out[t] = state
    return out


def simulate_panel(spec: DgpSpec, rng: np.random.Generator | None = None) -> PanelData:
    """Draw one panel from the design; ``T = t0 + 1`` with a single post period."""
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    n_periods = spec.t0 + 1
    J = spec.n_controls

    factors = rng.standard_normal(n_periods)
    if spec.factor_trend == "trending":
        factors = factors + np.arange(1, n_periods + 1)
    time_effect = rng.standard_normal(n_periods)
    eps = _ar1(rng, n_periods, spec.rho_eps, size=J)
    shock = _ar1(rng, n_periods, spec.rho_u)

    unit_effect = np.arange(1, J + 1) / J
    loadings = unit_effect
    controls = unit_effect + time_effect[:, None] + loadings * factors[:, None] + eps

    treated = controls @ dgp_weights(spec.weights_kind, J) + shock
    treated[spec.t0:] += spec.alpha_true
    outcomes = np.column_stack([treated, controls])
    return PanelData(outcomes=outcomes, t0=spec.t0)


def run_size_experiment(
    dgp: DgpSpec,
    estimator: EstimatorSpec,
    scheme: PermutationScheme | None = None,
    n_reps: int = 5000,
    level: float = 0.1,
    keep_pvalues: bool = False,
) -> ExperimentResult:
    """Rejection rate of the zero-effect test across independent replications.

    Each replication simulates a fresh panel (with ``dgp.alpha_true``
    added to the post period) and tests the null of no effect at the given
    level, so ``alpha_true=0`` measures size and ``alpha_true != 0``
    measures power.  Replication seeds are spawned from ``dgp.seed``.
    Raises ``ValueError`` for ``n_reps < 1`` or a level outside ``(0, 1)``.
    """
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1; got {n_reps}")
    _check_level(level)
    scheme = scheme or PermutationScheme.moving_block()
    statistic = Statistic()
    zero = np.zeros(1)
    seeds = np.random.SeedSequence(dgp.seed).spawn(n_reps)
    pvals = np.empty(n_reps)
    for i, seq in enumerate(seeds):
        panel = simulate_panel(dgp, rng=np.random.default_rng(seq))
        pvals[i] = test_sharp_null(panel, zero, estimator, scheme, statistic).p_value
    return ExperimentResult(
        rejection_rate=float((pvals <= level).mean()),
        n_reps=n_reps,
        dgp=dgp,
        estimator_id=estimator.label,
        scheme_kind=scheme.kind,
        level=level,
        p_values=pvals if keep_pvalues else None,
    )


def run_power_curve(
    dgp: DgpSpec,
    estimator: EstimatorSpec,
    scheme: PermutationScheme | None = None,
    alpha_grid: Sequence[float] = (0.0, 1.0, 2.0, 3.0, 4.0),
    n_reps: int = 5000,
    level: float = 0.1,
) -> list[ExperimentResult]:
    """Rejection rates along a grid of true effects (same seeds at every point).

    The ``alpha_true = 0`` entry reproduces :func:`run_size_experiment`
    exactly because the replication seeds depend only on ``dgp.seed``.
    """
    return [
        run_size_experiment(replace(dgp, alpha_true=float(a)), estimator, scheme, n_reps, level)
        for a in alpha_grid
    ]


def oracle_power_bound(dgp: DgpSpec, alpha_grid: Sequence[float], level: float = 0.1) -> np.ndarray:
    """Power of the infeasible test that observes the post-period shock.

    The designs give the shock a standard normal marginal, so the best
    test of a zero effect rejects when ``|u_T + alpha_true|`` exceeds the
    ``1 - level`` quantile of ``|N(0, 1)|``; its power is evaluated with
    the normal distribution function.  At ``alpha_true = 0`` the bound
    equals the nominal level exactly.
    """
    _check_level(level)
    normal = NormalDist()
    z = normal.inv_cdf(1.0 - level / 2.0)
    cdf = np.vectorize(normal.cdf, otypes=[float])
    a = np.asarray(alpha_grid, dtype=float)
    return cdf(a - z) + cdf(-a - z)


def _simulate_iid_controls_panel(
    t0: int, n_controls: int, rho_u: float, rng: np.random.Generator
) -> PanelData:
    """Single-post-period panel with i.i.d. N(0,1) controls and a sparse simplex weight."""
    n_periods = t0 + 1
    controls = rng.standard_normal((n_periods, n_controls))
    shock = _ar1(rng, n_periods, rho_u)
    w = np.zeros(n_controls)
    w[:3] = 1.0 / 3.0
    treated = controls @ w + shock
    return PanelData(np.column_stack([treated, controls]), t0=t0)


def _pre_only_sc_pvalue(panel: PanelData, statistic: Statistic) -> float:
    """Synthetic-control test that fits the weights on pre-treatment rows only.

    This is the comparison baseline: residuals over the full sample come
    from weights fitted to periods ``1..t0``, then the usual moving-block
    p-value is computed.  It deliberately skips estimation on the adjusted
    full sample.
    """
    y = panel.treated
    X = panel.controls
    w, _ = simplex_ls(X[: panel.t0], y[: panel.t0], X.shape[1])
    residuals = y - X @ w
    result = p_value(
        residuals, PermutationScheme.moving_block(), statistic, slice(panel.t0, None)
    )
    return result.p_value


def reproduce_figure_null_vs_pre(
    rho_grid: Sequence[float] = (0.0, 0.3, 0.6),
    seed: int = 0,
    t0: int = 19,
    n_controls: int = 50,
    n_reps: int = 2000,
    level: float = 0.1,
) -> list[dict]:
    """Rejection rates of full-sample versus pre-only synthetic-control tests.

    For each shock autocorrelation in ``rho_grid``, simulates panels with
    i.i.d. standard normal controls and a sparse simplex weight, then
    tests the true zero-effect null two ways on the *same* draws: fitting
    the weights on the adjusted full sample, and fitting them on the
    pre-treatment rows only.  Returns one row per (rho, mode) pair.
    """
    estimator = EstimatorSpec.sc()
    statistic = Statistic()
    zero = np.zeros(1)
    rows = []
    for rho in rho_grid:
        seeds = np.random.SeedSequence((seed, int(round(1000 * rho)))).spawn(n_reps)
        reject_null = 0
        reject_pre = 0
        for seq in seeds:
            rng = np.random.default_rng(seq)
            panel = _simulate_iid_controls_panel(t0, n_controls, rho, rng)
            p_null = test_sharp_null(panel, zero, estimator, statistic=statistic).p_value
            p_pre = _pre_only_sc_pvalue(panel, statistic)
            reject_null += p_null <= level
            reject_pre += p_pre <= level
        rows.append(
            {"rho_u": float(rho), "mode": "under_null", "rejection_rate": reject_null / n_reps,
             "n_reps": n_reps, "t0": t0, "n_controls": n_controls}
        )
        rows.append(
            {"rho_u": float(rho), "mode": "pre_only", "rejection_rate": reject_pre / n_reps,
             "n_reps": n_reps, "t0": t0, "n_controls": n_controls}
        )
    return rows
