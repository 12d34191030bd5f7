"""Counterfactual-proxy estimators.

Every estimator consumes a null-adjusted panel, fits the proxy model for
the treated unit's counterfactual outcome on *all* periods of that panel,
and returns the fitted proxy series together with the residuals used for
permutation inference.  Estimators whose residuals permute covariantly
with a row permutation of the data carry ``permutation_invariant=True``;
lag-based models consume a prefix of the sample and record the shortened
fitted window instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import DimensionError
from .panel import PanelData
from .solvers import (
    ElasticNetPenalty,
    LassoPenalty,
    SolveReport,
    SolverConfig,
    alternating_ls,
    _centre,
    ols,
    pca_factors,
    penalized_ls,
    project_nuclear_ball,
    simplex_ls,
)

__all__ = ["ProxyFit", "EstimatorSpec", "fit", "default_nuclear_radius"]


@dataclass(frozen=True)
class ProxyFit:
    """Fitted counterfactual proxy and residuals for the treated unit.

    ``start`` is the first fitted period (1-based); panel estimators fit
    all periods (``start=1``) while models with ``K`` lags start at
    ``K+1``.  On the fitted window, ``proxy + residuals`` reconstructs the
    treated null-adjusted outcome exactly.  :func:`fit` sets
    ``estimator_id`` to the spec's label; direct ``fit_*`` calls leave it empty.
    """

    proxy: np.ndarray
    residuals: np.ndarray
    start: int
    permutation_invariant: bool
    estimator_id: str = ""
    diagnostics: SolveReport | None = None
    params: dict = field(default_factory=dict)

    @property
    def n_fitted(self) -> int:
        return self.residuals.shape[0]

    def post_slice(self, t0: int) -> slice:
        """Positions of the post-treatment periods inside the residual vector."""
        first = t0 + 1 - self.start
        if first < 0:
            raise DimensionError(
                f"fitted window starts at period {self.start}, after the last "
                f"pre-treatment period {t0}"
            )
        if first >= self.n_fitted:
            raise DimensionError("fitted window contains no post-treatment periods")
        return slice(first, self.n_fitted)


@dataclass(frozen=True)
class EstimatorSpec:
    """Declarative description of a counterfactual-proxy estimator.

    Build instances through the classmethod constructors (``did()``,
    ``sc()``, ``classo(radius=1)``, ...); the ``kind`` string and the
    parameter fields are what the fitting dispatcher interprets.
    """

    kind: str
    radius: float | None = None           # l1 / nuclear-ball constraint
    lam: float | None = None              # penalty level
    alpha: float | None = None            # elastic-net mixing weight
    n_factors: int | None = None
    n_lags: int | None = None
    base: "EstimatorSpec | None" = None   # first stage of a fused model
    ar_fitter: Callable | None = None     # optional nonlinear lag-model fitter
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "classo" and not (self.radius is not None and self.radius > 0):
            raise ValueError(f"radius must be positive; got {self.radius}")
        if self.kind == "fused":
            if self.base is None or self.base.kind not in _PANEL_KINDS:
                raise ValueError("fused estimators need a panel-model base (not 'ar'/'fused')")
            if self.n_lags is None or self.n_lags < 1:
                raise ValueError("fused estimators need n_lags >= 1")
        if self.kind == "ar" and (self.n_lags is None or self.n_lags < 1):
            raise ValueError("ar estimators need n_lags >= 1")
        if self.ar_fitter is not None and self.kind != "ar":
            raise ValueError("ar_fitter is only meaningful for kind='ar'")

    # -- constructors ----------------------------------------------------
    @classmethod
    def did(cls) -> "EstimatorSpec":
        return cls("did")

    @classmethod
    def sc(cls, solver: SolverConfig | None = None) -> "EstimatorSpec":
        return cls("sc", solver=solver or SolverConfig())

    @classmethod
    def classo(cls, radius: float = 1.0, solver: SolverConfig | None = None) -> "EstimatorSpec":
        return cls("classo", radius=radius, solver=solver or SolverConfig())

    @classmethod
    def lasso(cls, lam: float, solver: SolverConfig | None = None) -> "EstimatorSpec":
        return cls("lasso", lam=lam, solver=solver or SolverConfig())

    @classmethod
    def elastic_net(cls, lam: float, alpha: float, solver: SolverConfig | None = None) -> "EstimatorSpec":
        return cls("elastic_net", lam=lam, alpha=alpha, solver=solver or SolverConfig())

    @classmethod
    def factor(cls, n_factors: int) -> "EstimatorSpec":
        return cls("factor", n_factors=n_factors)

    @classmethod
    def interactive_fe(cls, n_factors: int, solver: SolverConfig | None = None) -> "EstimatorSpec":
        return cls("interactive_fe", n_factors=n_factors, solver=solver or SolverConfig())

    @classmethod
    def matrix_completion(cls, radius: float | None = None, solver: SolverConfig | None = None) -> "EstimatorSpec":
        return cls("matrix_completion", radius=radius, solver=solver or SolverConfig())

    @classmethod
    def ar(cls, n_lags: int, fitter: Callable | None = None) -> "EstimatorSpec":
        return cls("ar", n_lags=n_lags, ar_fitter=fitter)

    @classmethod
    def fused(cls, base: "EstimatorSpec", n_lags: int) -> "EstimatorSpec":
        return cls("fused", base=base, n_lags=n_lags)

    @property
    def label(self) -> str:
        return _ESTIMATORS[self.kind].label(self)


def fit(panel: PanelData, spec, start: ProxyFit | None = None) -> ProxyFit:
    """Fit the proxy model described by ``spec`` on a null-adjusted panel.

    ``spec`` is an :class:`EstimatorSpec` or, for user-supplied estimators,
    any callable mapping a panel to a :class:`ProxyFit`; custom fits are
    responsible for setting their own ``permutation_invariant`` flag.

    ``start`` is an earlier fit of the same spec on a panel with the same
    controls, such as the neighbouring candidate of a test inversion.  The
    ``sc``, ``classo``, lasso and elastic-net fitters start their solver
    from its weights, which changes the steps taken but not the solution
    the certificate accepts; other kinds, custom callables, and a start
    from another spec ignore it.
    """
    if callable(spec) and not isinstance(spec, EstimatorSpec):
        fitted = spec(panel)
        if not isinstance(fitted, ProxyFit):
            raise TypeError(
                f"custom estimator returned {type(fitted).__name__}, expected ProxyFit"
            )
        return fitted
    label = spec.label
    if start is not None and start.estimator_id != label:
        start = None
    fitted = _ESTIMATORS[spec.kind].fitter(panel, spec, start)
    # The fitter built this object a moment ago and nothing else holds it,
    # so naming it in place saves a copy of every fit.
    object.__setattr__(fitted, "estimator_id", label)
    return fitted


def _require_controls(panel: PanelData, who: str) -> None:
    if panel.n_controls < 1:
        raise DimensionError(f"{who} requires at least one control unit")


def _design(panel: PanelData):
    """Control outcomes plus the treated unit's covariates as free columns.

    Returns (y, X, n_constrained): the simplex / l1 constraint applies to
    the first ``n_constrained`` columns only; covariate coefficients are
    unconstrained.
    """
    X = panel.controls
    n_constrained = X.shape[1]
    if panel.covariates is not None:
        X = np.hstack([X, panel.covariates[:, 0, :]])
    return panel.treated, X, n_constrained


def _panel_fit(panel: PanelData, proxy: np.ndarray, diagnostics: SolveReport | None, **params) -> ProxyFit:
    """The fit of a panel estimator: every period fitted, residuals ``treated - proxy``.

    Panel estimators treat the periods as exchangeable rows, so their
    residuals permute with the data and the fit is permutation-invariant.
    A residual no larger than the rounding level of the outcomes,
    ``outcomes.size * eps * max|outcomes|``, is set to zero: where the
    proxy fits a period exactly (``sc`` or ``classo`` with at least as many
    controls as periods can fit them all), rounding noise would otherwise
    rank the permutations, and the p-value would depend on the units.
    """
    residuals = panel.treated - proxy
    floor = panel.outcomes.size * np.finfo(float).eps * np.abs(panel.outcomes).max()
    residuals[np.abs(residuals) <= floor] = 0.0
    return ProxyFit(
        proxy=proxy,
        residuals=residuals,
        start=1,
        permutation_invariant=True,
        diagnostics=diagnostics,
        params=params,
    )


def fit_did(panel: PanelData) -> ProxyFit:
    """Difference-in-differences: equal control weights plus a level shift.

    The level shift is the full-sample mean of the treated-minus-control
    differences, so the residuals sum to zero exactly.
    """
    _require_controls(panel, "difference-in-differences")
    control_mean = panel.controls.mean(axis=1)
    mu = float((panel.treated - control_mean).mean())
    return _panel_fit(panel, mu + control_mean, None, mu=mu)


def _start_weights(start: ProxyFit | None):
    """The control weights of a warm-start fit, or None."""
    return None if start is None else start.params.get("weights")


def fit_sc(panel: PanelData, cfg: SolverConfig = SolverConfig(), start: ProxyFit | None = None) -> ProxyFit:
    """Synthetic control: simplex-constrained least-squares weights on controls.

    The solver starts from the weights of ``start``, if given (see :func:`fit`).
    """
    _require_controls(panel, "synthetic control")
    y, X, n_con = _design(panel)
    w, report = simplex_ls(X, y, n_con, cfg, _start_weights(start))
    return _panel_fit(panel, X @ w, report, weights=w[:n_con], covariate_coefs=w[n_con:])


def fit_classo(panel: PanelData, radius: float = 1.0, cfg: SolverConfig = SolverConfig(),
               start: ProxyFit | None = None) -> ProxyFit:
    """l1-ball-constrained least squares with a free intercept.

    Nests both difference-in-differences (equal weights are feasible) and
    synthetic control (simplex weights are feasible for ``radius >= 1``).
    The intercept is concentrated out by centering, which is exact.

    The weights are ``radius * (v+ - v-)`` for the simplex-constrained
    least-squares fit ``(v+, v-)`` on the columns ``radius * [Xc, -Xc]``: a
    point of the simplex maps into the ball, and every point of the ball is
    the image of one (put the unused budget on both signs of a column), so
    an interior least-squares fit is found the same way.  A warm start
    from the weights ``w`` of ``start`` (see :func:`fit`) puts ``|w_j|`` on
    the sign of ``w_j`` and scales the split to sum to one.
    """
    _require_controls(panel, "constrained lasso")
    y, X, n_con = _design(panel)
    xc, yc, x_mean, y_mean = _centre(X, y)
    head = radius * xc[:, :n_con]
    w0 = _start_weights(start)
    split = None if w0 is None else np.concatenate([w0, -w0])
    v, report = simplex_ls(np.hstack([head, -head, xc[:, n_con:]]), yc, 2 * n_con, cfg, split)
    w = np.concatenate([radius * (v[:n_con] - v[n_con:2 * n_con]), v[2 * n_con:]])
    mu = y_mean - float(x_mean @ w)
    return _panel_fit(panel, mu + X @ w, report, mu=mu, weights=w[:n_con], covariate_coefs=w[n_con:])


def fit_penalized(panel: PanelData, penalty, cfg: SolverConfig = SolverConfig(),
                  start: ProxyFit | None = None) -> ProxyFit:
    """Penalized regression on control outcomes (lasso or elastic net).

    The solver starts from the weights of ``start``, if given (see :func:`fit`).
    """
    _require_controls(panel, "penalized regression")
    y, X, n_con = _design(panel)
    weights = np.zeros(X.shape[1])
    weights[:n_con] = 1.0
    w0 = _start_weights(start)
    if w0 is not None:
        w0 = np.concatenate([w0, start.params["covariate_coefs"]])
    mu, w, report = penalized_ls(X, y, penalty, cfg, penalty_weights=weights, start=w0)
    return _panel_fit(panel, mu + X @ w, report, mu=mu, weights=w[:n_con], covariate_coefs=w[n_con:])


def fit_factor(panel: PanelData, n_factors: int) -> ProxyFit:
    """Pure factor model: principal components of the full outcome matrix."""
    factors, loadings = pca_factors(panel.outcomes, n_factors)
    report = SolveReport(
        iterations=1,
        final_objective=float(((panel.outcomes - factors @ loadings.T) ** 2).sum()),
        converged=True,
        kkt_residual=0.0,
    )
    return _panel_fit(panel, factors @ loadings[0], report, treated_loading=loadings[0])


def fit_interactive_fe(panel: PanelData, n_factors: int, cfg: SolverConfig = SolverConfig()) -> ProxyFit:
    """Interactive fixed effects: latent factors plus observed covariates.

    Raises
    ------
    DimensionError
        If the panel carries no covariates.  There is no silent fallback
        to the pure factor model: a missing covariate block almost always
        indicates a misconfigured pipeline.
    """
    if panel.covariates is None:
        raise DimensionError(
            "interactive fixed effects requires covariates; use a factor spec "
            "for the covariate-free model"
        )
    factors, loadings, beta, report = alternating_ls(
        panel.outcomes, panel.covariates, n_factors, cfg
    )
    proxy = factors @ loadings[0] + panel.covariates[:, 0, :] @ beta
    return _panel_fit(panel, proxy, report, treated_loading=loadings[0], beta=beta)


def default_nuclear_radius(matrix: np.ndarray) -> float:
    """Heuristic nuclear-norm budget: 1.5x the norm of a coarse low-rank sketch.

    Uses the nuclear norm of the rank-``ceil(min(N, T)/10)`` truncated SVD
    of the matrix, inflated by 1.5.  This is a pragmatic default with no
    optimality claim; callers with domain knowledge should pass an
    explicit radius.
    """
    s = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    rank = max(1, int(np.ceil(min(matrix.shape) / 10)))
    return 1.5 * float(s[:rank].sum())


def fit_matrix_completion(
    panel: PanelData, radius: float | None = None, cfg: SolverConfig = SolverConfig()
) -> ProxyFit:
    """Least squares over the nuclear-norm ball on the full outcome matrix.

    With every entry observed the minimizer of ``sum((Y - A)^2)`` subject
    to ``||A||_* <= radius`` is the Euclidean projection of the outcome
    matrix onto the ball, so the projected-gradient recursion lands on the
    solution in a single step; the reported KKT residual is the gradient
    map evaluated at that point.
    """
    matrix = panel.outcomes.T  # units x time
    if radius is None:
        radius = default_nuclear_radius(matrix)
    fitted = project_nuclear_ball(matrix, radius)
    grad = 2.0 * (fitted - matrix)
    kkt = float(np.abs(fitted - project_nuclear_ball(fitted - 0.5 * grad, radius)).max())
    report = SolveReport(
        iterations=1,
        final_objective=float(((matrix - fitted) ** 2).sum()),
        converged=kkt <= cfg.tol * (1.0 + float(np.abs(matrix).max())),
        kkt_residual=kkt,
    )
    return _panel_fit(panel, fitted[0], report, radius=radius)


def _lag_matrix(series: np.ndarray, n_lags: int) -> np.ndarray:
    """Rows t = n_lags+1..T of (y_{t-1}, ..., y_{t-n_lags})."""
    cols = [series[n_lags - m - 1: series.shape[0] - m - 1] for m in range(n_lags)]
    return np.column_stack(cols)


def fit_ar(panel: PanelData, n_lags: int, fitter: Callable | None = None) -> ProxyFit:
    """Autoregression of the treated series on its own lags (with intercept).

    Only the treated unit is used, so panels without controls are
    accepted.  The first ``n_lags`` periods are consumed to build the lag
    design, and the fitted window starts at period ``n_lags + 1``.

    An optional ``fitter(lags, response) -> predict`` callable replaces
    the built-in linear least squares with a user-supplied (possibly
    nonlinear) lag model; ``predict`` must map a lag matrix to fitted
    values.
    """
    if n_lags < 1:
        raise DimensionError(f"n_lags must be >= 1; got {n_lags}")
    y = panel.treated
    if y.shape[0] <= n_lags + 1:
        raise DimensionError(
            f"series of length {y.shape[0]} is too short for {n_lags} lags"
        )
    lags = _lag_matrix(y, n_lags)
    target = y[n_lags:]
    params = {}
    if fitter is not None:
        predict = fitter(lags, target)
        proxy = np.asarray(predict(lags), dtype=float)
        diagnostics = None
    else:
        # Zero-variance lag columns (constant series) carry no signal and
        # would make the design collinear with the intercept; drop them.
        keep = np.ptp(lags, axis=0) > 0
        design = np.column_stack([np.ones(target.shape[0]), lags[:, keep]])
        coef = ols(design, target)
        proxy = design @ coef
        full = np.zeros(n_lags + 1)
        full[0] = coef[0]
        full[1 + np.nonzero(keep)[0]] = coef[1:]
        params["coefficients"] = full
        diagnostics = SolveReport(
            iterations=1,
            final_objective=float(((target - proxy) ** 2).sum()),
            converged=True,
            kkt_residual=0.0,
        )
    return ProxyFit(
        proxy=proxy,
        residuals=target - proxy,
        start=n_lags + 1,
        permutation_invariant=False,
        diagnostics=diagnostics,
        params=params,
    )


def fit_fused(panel: PanelData, base: EstimatorSpec, n_lags: int) -> ProxyFit:
    """Two-stage fit: a panel proxy, then an autoregression on its residuals.

    Stage one fits ``base`` on the full panel; stage two regresses the
    stage-one residuals on their own ``n_lags`` lags without an intercept.
    The final proxy adds the predicted residual to the stage-one proxy,
    and the fitted window starts at period ``n_lags + 1``.

    A zero-variance stage-one residual series (perfect first-stage fit)
    makes stage two degenerate; the lag coefficients are then set to zero,
    which reproduces the base proxy exactly, and the report is flagged.
    """
    if base.kind not in _PANEL_KINDS:
        raise ValueError(f"fused base must be a panel estimator; got {base.kind!r}")
    if n_lags < 1:
        raise DimensionError(f"n_lags must be >= 1; got {n_lags}")
    stage1 = fit(panel, base)
    eps = stage1.residuals
    if eps.shape[0] <= n_lags + 1:
        raise DimensionError(
            f"residual series of length {eps.shape[0]} is too short for {n_lags} lags"
        )
    lags = _lag_matrix(eps, n_lags)
    target = eps[n_lags:]
    note = ""
    if np.ptp(eps) <= 0:
        rho = np.zeros(n_lags)
        note = "degenerate second stage: constant first-stage residuals; lag coefficients set to 0"
    else:
        rho = ols(lags, target)
    predicted = lags @ rho
    proxy = stage1.proxy[n_lags:] + predicted
    diagnostics = SolveReport(
        iterations=1,
        final_objective=float(((target - predicted) ** 2).sum()),
        converged=True,
        kkt_residual=0.0,
        note=note,
    )
    return ProxyFit(
        proxy=proxy,
        residuals=target - predicted,
        start=n_lags + 1,
        permutation_invariant=False,
        diagnostics=diagnostics,
        params={"rho": rho, "base": stage1.estimator_id, "base_params": stage1.params},
    )


_REQUIRED = object()


def _param_label(spec: EstimatorSpec) -> str:
    """``kind(key=value,...)`` over the CLI parameters; an unset value reads ``auto``."""
    items = []
    for key, name, _, _ in _ESTIMATORS[spec.kind].params:
        value = getattr(spec, name)
        items.append(f"{key}={'auto' if value is None else format(value, 'g')}")
    return f"{spec.kind}({','.join(items)})" if items else spec.kind


class _Kind(NamedTuple):
    """How the CLI, ``EstimatorSpec.label`` and :func:`fit` handle one kind.

    ``params`` holds the CLI parameters as ``(key, spec field, type, default)``;
    one of type :class:`EstimatorSpec` is itself in CLI notation.  ``fitter``
    takes the panel, the spec and the warm start of :func:`fit`.  The CLI name
    is the kind with ``-`` for ``_``; the spec comes from the classmethod of the
    kind's name.
    """

    params: tuple
    fitter: Callable[[PanelData, EstimatorSpec, ProxyFit | None], ProxyFit]
    label: Callable[[EstimatorSpec], str] = _param_label
    fused_base: bool = True


_ESTIMATORS = {
    "did": _Kind((), lambda panel, spec, start: fit_did(panel)),
    "sc": _Kind((), lambda panel, spec, start: fit_sc(panel, spec.solver, start)),
    "classo": _Kind(
        (("K", "radius", float, 1.0),),
        lambda panel, spec, start: fit_classo(panel, spec.radius, spec.solver, start),
    ),
    "lasso": _Kind(
        (("lam", "lam", float, _REQUIRED),),
        lambda panel, spec, start: fit_penalized(panel, LassoPenalty(spec.lam), spec.solver, start),
    ),
    "elastic_net": _Kind(
        (("lam", "lam", float, _REQUIRED), ("alpha", "alpha", float, _REQUIRED)),
        lambda panel, spec, start: fit_penalized(panel, ElasticNetPenalty(spec.lam, spec.alpha), spec.solver, start),
    ),
    "factor": _Kind(
        (("k", "n_factors", int, _REQUIRED),),
        lambda panel, spec, start: fit_factor(panel, spec.n_factors),
    ),
    "interactive_fe": _Kind(
        (("k", "n_factors", int, _REQUIRED),),
        lambda panel, spec, start: fit_interactive_fe(panel, spec.n_factors, spec.solver),
    ),
    "matrix_completion": _Kind(
        (("K", "radius", float, None),),
        lambda panel, spec, start: fit_matrix_completion(panel, spec.radius, spec.solver),
    ),
    "ar": _Kind(
        (("lags", "n_lags", int, _REQUIRED),),
        lambda panel, spec, start: fit_ar(panel, spec.n_lags, spec.ar_fitter),
        fused_base=False,
    ),
    "fused": _Kind(
        (("base", "base", EstimatorSpec, _REQUIRED), ("lags", "n_lags", int, _REQUIRED)),
        lambda panel, spec, start: fit_fused(panel, spec.base, spec.n_lags),
        label=lambda spec: f"fused({spec.base.label},lags={spec.n_lags})",
        fused_base=False,
    ),
}
_KINDS = tuple(_ESTIMATORS)
_PANEL_KINDS = tuple(kind for kind, row in _ESTIMATORS.items() if row.fused_base)
