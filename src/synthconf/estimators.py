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

from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import DimensionError, SynthconfError
from .panel import PanelData
from .solvers import (
    ElasticNetPenalty,
    SolveReport,
    SolverConfig,
    alternating_ls,
    _centre,
    _dots,
    _matvecs,
    _negligible,
    _penalized_block,
    _simplex_block,
    ols,
    pca_factors,
    project_nuclear_ball,
)

__all__ = ["ProxyFit", "EstimatorSpec", "fit", "parse_estimator", "default_nuclear_radius"]


@dataclass(frozen=True)
class ProxyFit:
    """Fitted counterfactual proxy and residuals for the treated unit.

    ``start`` is the first fitted period (1-based); panel estimators fit
    all periods (``start=1``) while models with ``K`` lags start at
    ``K+1``.  On the fitted window, ``proxy + residuals`` reconstructs the
    treated null-adjusted outcome exactly.  :func:`fit` sets
    ``estimator_id`` to the spec's label; a custom estimator sets its own.
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
    parameter fields are what the fitting dispatcher interprets.  A field
    that the kind's fitter does not read must keep its default, so two
    specs that fit alike compare equal.
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
        row = _ESTIMATORS[self.kind]
        used = {"kind", *row.reads, *(name for _, name, _, _ in row.params)}
        for unused in (spec_field for spec_field in fields(self) if spec_field.name not in used):
            default = unused.default_factory() if unused.default is MISSING else unused.default
            if getattr(self, unused.name) != default:
                raise ValueError(f"{self.kind} estimators do not use {unused.name!r}")
        if self.kind == "classo" and not (self.radius is not None and self.radius > 0):
            raise ValueError(f"radius must be positive; got {self.radius}")
        if self.kind == "fused":
            if self.base is None or self.base.kind not in _PANEL_KINDS:
                raise ValueError("fused estimators need a panel-model base (not 'ar'/'fused')")
            if self.n_lags is None or self.n_lags < 1:
                raise ValueError("fused estimators need n_lags >= 1")
        if self.kind == "ar" and (self.n_lags is None or self.n_lags < 1):
            raise ValueError("ar estimators need n_lags >= 1")
        if self.kind in ("lasso", "elastic_net"):
            _penalty(self)  # checks lam, alpha

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
    def matrix_completion(cls, radius: float | None = None) -> "EstimatorSpec":
        return cls("matrix_completion", radius=radius)

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
    if _ESTIMATORS[spec.kind].core:
        return _fit_block(panel, panel.treated[:, None], spec, start).fit(0, spec.label)
    fitted = _ESTIMATORS[spec.kind].fitter(panel, spec)
    # The fitter built this object a moment ago and nothing else holds it,
    # so naming it in place saves a copy of every fit.
    object.__setattr__(fitted, "estimator_id", spec.label)
    return fitted


class _Block(NamedTuple):
    """The fits of one panel's controls to each column of a block of treated series (T, G).

    Row or entry ``g`` of each array belongs to column ``g``, with the bits
    of that column fitted alone: ``residuals`` and ``proxies`` (G, T), the
    residuals as :func:`_panel_fit` gives them; ``mu`` (G,), the intercepts
    (None for ``sc``); ``weights`` (G, J) and ``coefs`` (G, k), the control
    weights and covariate coefficients; and ``steps``, ``converged`` and
    ``kkt``, what the solver reports.  ``report(g)`` builds the
    :class:`SolveReport` of column ``g``, final objective included, and
    :meth:`fit` its :class:`ProxyFit`; neither is built until asked for.
    """

    residuals: np.ndarray
    proxies: np.ndarray
    mu: np.ndarray | None
    weights: np.ndarray
    coefs: np.ndarray
    steps: np.ndarray
    converged: np.ndarray
    kkt: np.ndarray
    report: Callable[[int], SolveReport]

    def fit(self, g: int, label: str) -> ProxyFit:
        """The :class:`ProxyFit` of column ``g``, named ``label``."""
        params = {"weights": self.weights[g], "covariate_coefs": self.coefs[g]}
        if self.mu is not None:
            params = {"mu": float(self.mu[g]), **params}
        return ProxyFit(self.proxies[g], self.residuals[g], 1, True, label, self.report(g), params)


def _block_of(outcomes, treated, proxies, mu, W, n_con, solved) -> _Block:
    """The :class:`_Block` of the proxies (G, T), one row per column of ``treated``,
    the intercepts ``mu``, the weights ``W`` (G, p) whose first ``n_con`` are the
    control weights, and ``solved``, the ``(steps, converged, kkt, report)``
    of the solver; ``outcomes`` is the panel's, the treated unit first."""
    residuals = _zero_rounding(treated.T - proxies, outcomes, treated.T)
    return _Block(residuals, proxies, mu, W[:, :n_con], W[:, n_con:], *solved)


def _fit_block(panel: PanelData, treated: np.ndarray, spec: EstimatorSpec,
               start: ProxyFit | None = None) -> _Block:
    """The fits of ``panel`` with its treated series replaced by each column of ``treated``.

    ``spec`` is of a kind with an array core (``sc``, ``classo``, lasso,
    elastic net), and ``treated`` is (T, G), such as the treated series
    under each candidate of a test inversion.  The columns are fitted in
    order as one block against the fixed controls and covariates, each warm
    from the one before and the first from ``start`` (see :func:`fit`).
    Column ``g`` is the fit :func:`fit` gives on that column's panel with
    that start, bit for bit when the columns are strided as a panel's
    treated series is.
    """
    _require_controls(panel, spec.label)
    if start is not None and start.estimator_id != spec.label:
        start = None  # a warm start from another spec is ignored
    covariates = None if panel.covariates is None else panel.covariates[:, 0, :]
    return _ESTIMATORS[spec.kind].fitter(panel.outcomes, covariates, treated, spec,
                                         None if start is None else start.params)


def _fit_candidates(panel: PanelData, treated: np.ndarray, spec, start: ProxyFit | None = None):
    """``(residuals, window, steps, nonconverged)`` of the fits of ``panel`` with
    its treated series replaced by each column of ``treated`` (T, G).

    ``residuals`` (G, n) holds one residual row per column, ``window`` the
    positions of the post-treatment periods in a row, ``steps`` the sum of
    the fits' solver steps and ``nonconverged`` the count of fits that did
    not converge; a fit without a report counts 0 in both.  Kinds with an
    array core fit the block (:func:`_fit_block`, warm from ``start``);
    other kinds and custom callables fit one panel per column.
    """
    if isinstance(spec, EstimatorSpec) and _ESTIMATORS[spec.kind].core:
        block = _fit_block(panel, treated, spec, start)
        return block.residuals, slice(panel.t0, None), int(block.steps.sum()), int((~block.converged).sum())
    fits = []
    for column in treated.T:
        outcomes = panel.outcomes.copy()
        outcomes[:, 0] = column
        fits.append(fit(replace(panel, outcomes=outcomes), spec))
    reports = [fitted.diagnostics for fitted in fits if fitted.diagnostics is not None]
    return (np.array([fitted.residuals for fitted in fits]), fits[0].post_slice(panel.t0),
            sum(report.iterations for report in reports), sum(not report.converged for report in reports))


def _require_controls(panel: PanelData, who: str) -> None:
    """A panel estimator fits the one treated unit on at least one control."""
    if panel.n_treated != 1:
        raise DimensionError(f"{who} fits one treated unit; the panel has {panel.n_treated} "
                             "(aggregate_units() first)")
    if panel.n_controls < 1:
        raise DimensionError(f"{who} requires at least one control unit")


def _design(outcomes: np.ndarray, covariates: np.ndarray | None):
    """Control outcomes plus the treated unit's covariates as free columns.

    ``outcomes`` is a panel's (T, 1 + J), the treated unit first, and
    ``covariates`` the treated unit's (T, k) or None.  Returns (X,
    n_constrained): the simplex / l1 constraint applies to the first
    ``n_constrained`` columns only; covariate coefficients are
    unconstrained.
    """
    X = outcomes[:, 1:]
    n_constrained = X.shape[1]
    if covariates is not None:
        X = np.hstack([X, covariates])
    return X, n_constrained


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
    residuals = _zero_rounding(panel.treated - proxy, panel.outcomes)
    return ProxyFit(proxy, residuals, 1, True, diagnostics=diagnostics, params=params)


def _zero_rounding(residuals: np.ndarray, outcomes: np.ndarray, treated: np.ndarray | None = None) -> np.ndarray:
    """Set ``residuals`` within the rounding level of their panels to zero, in place.

    ``outcomes`` holds one panel (T, N), or panels along leading axes with
    ``residuals`` (..., T) alongside; ``treated`` (..., T), if given, holds
    each panel's treated series in place of the first column of
    ``outcomes``.  The level is that of :func:`_panel_fit`,
    ``outcomes.size * eps * max|outcomes|`` per panel.
    """
    def peak(x, axis):  # max|x| without an x-sized copy: a Monte Carlo chunk is 1 MiB
        return np.maximum(x.max(axis=axis, initial=0.0), -x.min(axis=axis, initial=0.0))

    def panel_peak(x):
        if x.ndim == 2:
            return peak(x, (-2, -1))
        # A stack of panels is reduced periods first: a Monte Carlo chunk is
        # time-major, so each period row of all its panels is contiguous.
        return np.maximum(peak(np.maximum.reduce(x, axis=-2), -1), peak(np.minimum.reduce(x, axis=-2), -1))

    if treated is None:
        level = panel_peak(outcomes)
    else:
        level = np.maximum(peak(treated, -1), panel_peak(outcomes[..., 1:]))
    n = outcomes.shape[-2] * outcomes.shape[-1]
    residuals[_negligible(np.abs(residuals), n, level[..., None])] = 0.0
    return residuals


def _closed_form(objective: float, note: str = "") -> SolveReport:
    """The report of a fit solved in closed form: one step, exact, converged."""
    return SolveReport(iterations=1, final_objective=objective, converged=True, kkt_residual=0.0, note=note)


def _did(outcomes: np.ndarray):
    """Difference-in-differences fits of panels along leading axes.

    ``outcomes`` is (..., T, 1 + J), one panel or a stack of them, the
    treated unit first.  Returns the level shifts (...), proxies (..., T)
    and residuals (..., T), the residuals as :func:`_panel_fit` gives them.
    Each panel's arithmetic is that of a panel alone, so a batch fits bit
    for bit as its panels do; ``outcomes`` may be a strided view, such as a
    time-major Monte Carlo chunk, since the level shift is summed over a
    C-ordered copy of the differences.
    """
    treated = outcomes[..., 0]
    control_mean = outcomes[..., 1:].mean(axis=-1)
    mu = np.subtract(treated, control_mean, order="C").mean(axis=-1)  # a strided mean is not summed pairwise
    proxy = mu[..., None] + control_mean
    return mu, proxy, _zero_rounding(treated - proxy, outcomes)


def _did_fit(panel: PanelData, spec: EstimatorSpec) -> ProxyFit:
    """Difference-in-differences: equal control weights plus a level shift.

    The level shift is the full-sample mean of the treated-minus-control
    differences, so the residuals sum to zero exactly.
    """
    _require_controls(panel, "difference-in-differences")
    mu, proxy, residuals = _did(panel.outcomes)
    return ProxyFit(proxy=proxy, residuals=residuals, start=1, permutation_invariant=True,
                    params={"mu": float(mu)})


def _sc_core(outcomes, covariates, treated, spec, start) -> _Block:
    """Synthetic control: simplex-constrained least-squares weights on controls.

    The array core of ``sc``, as every active-set kind has one: it fits
    each treated series, a column of ``treated`` (T, G), against the
    controls of ``outcomes`` (T, 1 + J, the treated unit first) and the
    treated unit's ``covariates`` (T, k, or None), as one block.  The
    solver starts from ``start``, the params of an earlier fit, if given
    (see :func:`fit`).  Nothing here builds a fit or a report.
    """
    X, n_con = _design(outcomes, covariates)
    W, *solved = _simplex_block(X, treated.T, n_con, spec.solver,
                               None if start is None else start["weights"], lambda v: v)
    return _block_of(outcomes, treated, _matvecs(X, W), None, W, n_con, solved)


def _classo_core(outcomes, covariates, treated, spec, start) -> _Block:
    """l1-ball-constrained least squares with a free intercept (array core as :func:`_sc_core`).

    Nests both difference-in-differences (equal weights are feasible) and
    synthetic control (simplex weights are feasible for ``radius >= 1``).
    The intercept is concentrated out by centering, which is exact.

    The weights are ``radius * (v+ - v-)`` for the simplex-constrained
    least-squares fit ``(v+, v-)`` on the columns ``radius * [Xc, -Xc]``: a
    point of the simplex maps into the ball, and every point of the ball is
    the image of one (put the unused budget on both signs of a column), so
    an interior least-squares fit is found the same way.  A warm start
    from the weights ``w`` of ``start`` (see :func:`fit`) puts ``|w_j|`` on
    the sign of ``w_j`` and scales the split to sum to one; each column
    after the first starts from its neighbour's weights.
    """
    radius = spec.radius
    X, n_con = _design(outcomes, covariates)
    xc, Yc, x_mean, y_means = _centre(X, treated.T)
    head = radius * xc[:, :n_con]
    signed = lambda w: np.concatenate([w, -w])
    V, *solved = _simplex_block(np.hstack([head, -head, xc[:, n_con:]]), Yc, 2 * n_con, spec.solver,
                               None if start is None else signed(start["weights"]),
                               lambda v: signed(radius * (v[:n_con] - v[n_con:])))
    W = np.hstack([radius * (V[:, :n_con] - V[:, n_con:2 * n_con]), V[:, 2 * n_con:]])
    mu = y_means - _dots(W, x_mean)
    return _block_of(outcomes, treated, mu[:, None] + _matvecs(X, W), mu, W, n_con, solved)


def _penalty(spec: EstimatorSpec) -> ElasticNetPenalty:
    """The penalty of a lasso (the elastic net at ``alpha = 1``) or elastic-net spec."""
    return ElasticNetPenalty(spec.lam, 1.0 if spec.kind == "lasso" else spec.alpha)


def _penalized_core(outcomes, covariates, treated, spec, start) -> _Block:
    """Penalized regression on control outcomes, lasso or elastic net (array core
    as :func:`_sc_core`); the covariate coefficients are not penalized."""
    X, n_con = _design(outcomes, covariates)
    weights = np.zeros(X.shape[1])
    weights[:n_con] = 1.0
    w0 = None if start is None else np.concatenate([start["weights"], start["covariate_coefs"]])
    mu, W, *solved = _penalized_block(X, treated.T, _penalty(spec), spec.solver, weights, w0)
    return _block_of(outcomes, treated, mu[:, None] + _matvecs(X, W), mu, W, n_con, solved)


def _factor_fit(panel: PanelData, spec: EstimatorSpec) -> ProxyFit:
    """Pure factor model: principal components of the full outcome matrix."""
    factors, loadings = pca_factors(panel.outcomes, spec.n_factors)
    report = _closed_form(float(((panel.outcomes - factors @ loadings.T) ** 2).sum()))
    return _panel_fit(panel, factors @ loadings[0], report, treated_loading=loadings[0])


def _interactive_fe_fit(panel: PanelData, spec: EstimatorSpec) -> ProxyFit:
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
        panel.outcomes, panel.covariates, spec.n_factors, spec.solver
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


def _matrix_completion_fit(panel: PanelData, spec: EstimatorSpec) -> ProxyFit:
    """Least squares over the nuclear-norm ball on the full outcome matrix.

    With every entry observed the minimizer of ``sum((Y - A)^2)`` subject
    to ``||A||_* <= radius`` is the Euclidean projection of the outcome
    matrix onto the ball, so the fit is exact in one step.  Without a
    radius in the spec, :func:`default_nuclear_radius` sets it.
    """
    matrix = panel.outcomes.T  # units x time
    radius = default_nuclear_radius(matrix) if spec.radius is None else spec.radius
    fitted = project_nuclear_ball(matrix, radius)
    report = _closed_form(float(((matrix - fitted) ** 2).sum()))
    return _panel_fit(panel, fitted[0], report, radius=radius)


def _lag_matrix(series: np.ndarray, n_lags: int) -> np.ndarray:
    """Rows t = n_lags+1..T of (y_{t-1}, ..., y_{t-n_lags})."""
    cols = [series[n_lags - m - 1: series.shape[0] - m - 1] for m in range(n_lags)]
    return np.column_stack(cols)


def _autoregression(series: np.ndarray, n_lags: int, what: str, intercept: bool,
                   fitter: Callable | None = None) -> ProxyFit:
    """Least squares of ``series`` on its own ``n_lags`` lags, from period ``n_lags + 1``.

    The proxy is the predicted series and ``params["coefficients"]`` the
    fitted coefficients.  With ``intercept`` the design leads with a
    constant column, and lag columns that do not vary (a constant series)
    are dropped: they carry no signal and would be collinear with it, so
    their coefficients are 0.  Without it, a series that does not vary
    leaves no second moment to fit, so every lag coefficient is 0 and the
    report says so.  In both cases, as in ``solvers._centre``, a range
    within ``n * eps * max|x|`` is rounding and counts as no variation,
    ``x`` being the lag column (``n`` its rows) or the whole series.  The
    least-squares design must have at least as many rows as coefficients
    (and two rows), or the series is too short.
    ``fitter`` replaces the least squares (see :func:`_ar_fit`).
    """
    n_coefs = 0 if fitter is not None else n_lags + intercept
    if series.shape[0] - n_lags < max(2, n_coefs):
        raise DimensionError(f"{what} of length {series.shape[0]} is too short for {n_lags} lags")
    lags = _lag_matrix(series, n_lags)
    target = series[n_lags:]
    params, note = {}, ""
    if fitter is not None:
        predicted = np.asarray(fitter(lags, target)(lags), dtype=float)
    elif intercept:
        keep = ~_negligible(np.ptp(lags, axis=0), lags.shape[0], np.abs(lags).max(axis=0))
        design = np.column_stack([np.ones(target.shape[0]), lags[:, keep]])
        coef = ols(design, target)
        predicted = design @ coef
        params["coefficients"] = np.zeros(n_lags + 1)
        params["coefficients"][np.r_[True, keep]] = coef
    else:
        if _negligible(np.ptp(series), series.size, np.abs(series).max()):
            coef = np.zeros(n_lags)
            note = "degenerate second stage: constant first-stage residuals; lag coefficients set to 0"
        else:
            coef = ols(lags, target)
        predicted = lags @ coef
        params["coefficients"] = coef
    residuals = target - predicted
    return ProxyFit(
        proxy=predicted,
        residuals=residuals,
        start=n_lags + 1,
        permutation_invariant=False,
        diagnostics=None if fitter is not None else _closed_form(float((residuals ** 2).sum()), note),
        params=params,
    )


def _ar_fit(panel: PanelData, spec: EstimatorSpec) -> ProxyFit:
    """Autoregression of the treated series on its own lags (with intercept).

    Only the treated unit is used, so panels without controls are
    accepted.  The first ``n_lags`` periods are consumed to build the lag
    design, and the fitted window starts at period ``n_lags + 1``.
    ``params["coefficients"]`` holds the intercept, then one coefficient
    per lag.

    An optional ``ar_fitter(lags, response) -> predict`` callable in the
    spec replaces the built-in linear least squares with a user-supplied
    (possibly nonlinear) lag model; ``predict`` must map a lag matrix to
    fitted values.
    """
    return _autoregression(panel.treated, spec.n_lags, "series", intercept=True, fitter=spec.ar_fitter)


def _fused_fit(panel: PanelData, spec: EstimatorSpec) -> ProxyFit:
    """Two-stage fit: a panel proxy, then an autoregression on its residuals.

    Stage one fits the spec's ``base`` on the full panel; stage two
    regresses the stage-one residuals on their own ``n_lags`` lags without
    an intercept.  The final proxy adds the predicted residual to the
    stage-one proxy, and the fitted window starts at period ``n_lags + 1``.

    A stage-one residual series that is constant up to rounding (a perfect
    first-stage fit up to a level) makes stage two degenerate; the lag
    coefficients are then set to zero, which reproduces the base proxy
    exactly, and the report is flagged.
    """
    stage1 = fit(panel, spec.base)
    stage2 = _autoregression(stage1.residuals, spec.n_lags, "residual series", intercept=False)
    return replace(
        stage2,
        proxy=stage1.proxy[spec.n_lags:] + stage2.proxy,
        params={"rho": stage2.params["coefficients"], "base": stage1.estimator_id,
                "base_params": stage1.params},
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
    is the kind's one fitter, and ``reads`` names the spec fields it uses
    besides ``params``; every other field must keep its default.  A fitter
    takes the panel and the spec and returns a :class:`ProxyFit`; with
    ``core`` (the kinds with an active-set solver) it is the kind's array
    core instead, as :func:`_sc_core` documents, which :func:`fit`, test
    inversion and Monte Carlo all reach.  The CLI name is the kind with
    ``-`` for ``_``; the spec comes from the classmethod of the kind's name.
    """

    params: tuple
    fitter: Callable[..., ProxyFit | _Block]
    reads: tuple = ()
    label: Callable[[EstimatorSpec], str] = _param_label
    fused_base: bool = True
    core: bool = False


_ESTIMATORS = {
    "did": _Kind((), _did_fit),
    "sc": _Kind((), _sc_core, ("solver",), core=True),
    "classo": _Kind((("K", "radius", float, 1.0),), _classo_core, ("solver",), core=True),
    "lasso": _Kind((("lam", "lam", float, _REQUIRED),), _penalized_core, ("solver",), core=True),
    "elastic_net": _Kind(
        (("lam", "lam", float, _REQUIRED), ("alpha", "alpha", float, _REQUIRED)),
        _penalized_core,
        ("solver",),
        core=True,
    ),
    "factor": _Kind((("k", "n_factors", int, _REQUIRED),), _factor_fit),
    "interactive_fe": _Kind((("k", "n_factors", int, _REQUIRED),), _interactive_fe_fit, ("solver",)),
    "matrix_completion": _Kind((("K", "radius", float, None),), _matrix_completion_fit),
    "ar": _Kind((("lags", "n_lags", int, _REQUIRED),), _ar_fit, ("ar_fitter",), fused_base=False),
    "fused": _Kind(
        (("base", "base", EstimatorSpec, _REQUIRED), ("lags", "n_lags", int, _REQUIRED)),
        _fused_fit,
        label=lambda spec: f"fused({spec.base.label},lags={spec.n_lags})",
        fused_base=False,
    ),
}
_KINDS = tuple(_ESTIMATORS)
_PANEL_KINDS = tuple(kind for kind, row in _ESTIMATORS.items() if row.fused_base)


def parse_estimator(text: str) -> EstimatorSpec:
    """Build an estimator spec from its CLI notation, e.g. ``classo:K=2``.

    The notation is a kind, with ``-`` for ``_`` (``elastic-net``), then
    optionally ``:`` and comma-separated ``key=value`` parameters; the
    table ``_ESTIMATORS`` above lists each kind's keys.
    A parameter that is itself an estimator (the base of ``fused``) takes
    every key its own kind does not have, so
    ``fused:base=elastic-net:lam=1,alpha=0.5,lags=1`` gives the base both
    ``lam`` and ``alpha``.  Any other unknown key is an error.
    """
    name, _, param_text = text.partition(":")
    kind = name.strip().lower().replace("-", "_")
    params = {}
    if param_text:
        for item in param_text.split(","):
            if "=" not in item:
                raise SynthconfError(f"malformed estimator parameter {item!r} in {text!r}")
            key, _, value = item.partition("=")
            params[key.strip()] = value.strip()
    if kind not in _ESTIMATORS:
        raise SynthconfError(f"unknown estimator {name.strip()!r}")
    row = _ESTIMATORS[kind]
    keys = [key for key, _, _, _ in row.params]
    unknown = [key for key in params if key not in keys]
    nested = next((key for key, _, convert, _ in row.params if convert is EstimatorSpec), None)
    if unknown and nested in params:
        base = params[nested]
        extra = ",".join(f"{key}={params.pop(key)}" for key in unknown)
        params[nested] = f"{base},{extra}" if ":" in base else f"{base}:{extra}"
    elif unknown:
        raise SynthconfError(
            f"estimator {text!r} has unknown parameter {unknown[0]!r}; "
            f"valid parameters: {', '.join(keys) if keys else 'none'}"
        )
    fields = {}
    try:
        for key, attr, convert, default in row.params:
            if key in params:
                raw = params[key]
                fields[attr] = parse_estimator(raw) if convert is EstimatorSpec else convert(raw)
            elif default is _REQUIRED:
                raise SynthconfError(f"estimator {text!r} is missing parameter {key!r}")
            else:
                fields[attr] = default
        return getattr(EstimatorSpec, kind)(**fields)
    except ValueError as exc:
        raise SynthconfError(f"invalid estimator specification {text!r}: {exc}") from None
