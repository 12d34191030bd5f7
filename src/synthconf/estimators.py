"""Counterfactual-proxy estimators.

Every estimator consumes a null-adjusted panel, fits the proxy model for
the treated unit's counterfactual outcome on *all* periods of that panel,
and returns the fitted proxy series together with the residuals used for
permutation inference.  Lag-based models consume a prefix of the sample
and record the shortened fitted window.
"""

from __future__ import annotations

import math
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
    _check_integer,
    _check_real,
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
    estimator_id: str = ""
    diagnostics: SolveReport | None = None
    params: dict = field(default_factory=dict)

    @property
    def n_fitted(self) -> int:
        return self.residuals.shape[0]


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
        for _, name, convert, default in row.params:
            if default is _REQUIRED and getattr(self, name) is None:
                raise ValueError(f"{self.kind} estimators need a value for {name!r}")
            if convert is int:
                _check_integer(name, getattr(self, name), 1)
        row.check(self)

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
    def ar(cls, n_lags: int) -> "EstimatorSpec":
        return cls("ar", n_lags=n_lags)

    @classmethod
    def fused(cls, base: "EstimatorSpec", n_lags: int) -> "EstimatorSpec":
        return cls("fused", base=base, n_lags=n_lags)

    @property
    def label(self) -> str:
        return _ESTIMATORS[self.kind].label(self)


def fit(panel: PanelData, spec, start: ProxyFit | None = None) -> ProxyFit:
    """Fit the proxy model described by ``spec`` on a null-adjusted panel.

    ``spec`` is an :class:`EstimatorSpec` or, for user-supplied estimators,
    any callable mapping a panel to a :class:`ProxyFit`.  A custom fit's
    residuals must be a finite 1-D array, its proxy of their shape, and its
    window, from the integer ``start >= 1``, must end at the panel's last
    period; else ``DimensionError`` names its ``estimator_id``.  A spec's
    fit is column 0 of its kind's array core (see :class:`_Kind`) run on
    the panel's own treated series.  Either fit's window must start by
    period ``t0 + 1``, so its residuals end with the ``n_post``
    post-treatment periods, or ``DimensionError``.

    ``start`` is an earlier fit of the same spec on a panel with the same
    controls, such as the neighbouring candidate of a test inversion.  The
    ``sc``, ``classo``, lasso and elastic-net fitters start their solver
    from its weights, which changes the steps taken but not the solution
    the certificate accepts, and a fused fit hands its base's params to
    its base; other kinds, custom callables, and a start from another
    spec ignore it.
    """
    if callable(spec) and not isinstance(spec, EstimatorSpec):
        fitted = spec(panel)
        if not isinstance(fitted, ProxyFit):
            raise TypeError(f"custom estimator returned {type(fitted).__name__}, expected ProxyFit")
        u, first = fitted.residuals, fitted.start
        try:
            if not (isinstance(u, np.ndarray) and u.ndim == 1 and u.dtype.kind in "fiu" and np.isfinite(u).all()):
                raise ValueError("residuals must be a finite 1-D array")
            if np.shape(fitted.proxy) != u.shape:
                raise ValueError(f"proxy has shape {np.shape(fitted.proxy)}, residuals {u.shape}")
            _check_integer("start", first, 1)
            if first - 1 + u.size != panel.n_periods:
                raise ValueError(f"window of periods {first} to {first - 1 + u.size} must end at period "
                                 f"{panel.n_periods}")
        except ValueError as err:
            raise DimensionError(f"custom estimator {fitted.estimator_id!r}: {err}") from None
    else:
        fitted = _fit_block(panel.outcomes, panel.covariates, spec, panel.treated[:, None], start).fit(0, spec.label)
    if fitted.start > panel.t0 + 1:
        raise DimensionError(f"fitted window starts at period {fitted.start}, "
                             f"after the last pre-treatment period {panel.t0}")
    return fitted


class _Block(NamedTuple):
    """The fits of one panel's controls to each column of a block of treated series (T, G).

    Row or entry ``g`` of each array belongs to column ``g``, with the bits
    of that column fitted alone: ``residuals`` and ``proxies`` (G, n), on
    the fitted window that begins at period ``start``; and ``steps`` and
    ``converged`` (G,), what the solver reports (0 steps and converged for
    a fit without a report).  ``params(g)`` and ``report(g)`` build the
    kind's params and :class:`SolveReport` (or None) of column ``g``, and
    :meth:`fit` its :class:`ProxyFit`; none is built until asked for.  The
    block of a stack of panels (see :func:`_fit_block`) keeps their leading
    axis in every array, and ``g`` is then ``(panel, column)``.
    """

    residuals: np.ndarray
    proxies: np.ndarray
    steps: np.ndarray
    converged: np.ndarray
    params: Callable[[int], dict]
    report: Callable[[int], SolveReport | None]
    start: int = 1

    def fit(self, g: int, label: str) -> ProxyFit:
        """The :class:`ProxyFit` of column ``g``, named ``label``."""
        return ProxyFit(self.proxies[g], self.residuals[g], self.start, label, self.report(g), self.params(g))


def _panels(outcomes: np.ndarray, treated: np.ndarray):
    """A C-ordered copy of ``outcomes`` with its treated series replaced by each column of ``treated``."""
    for column in treated.T:
        panel = outcomes.copy()
        panel[:, 0] = column
        yield panel


def _fit_block(outcomes: np.ndarray, covariates: np.ndarray | None, spec: EstimatorSpec,
               treated: np.ndarray | None = None, start: ProxyFit | None = None) -> _Block:
    """The fits of a panel, ``outcomes`` (T, 1 + J, the treated unit first) and
    ``covariates`` (T, 1 + J, k, or None), with its treated series replaced by
    each column of ``treated`` (T, G), such as a test inversion's candidates.

    This is the one caller of the kinds' array cores.  The core fits the
    columns in order as one block, the active-set kinds each warm from the
    one before and the first from ``start`` (see :func:`fit`).  Column ``g``
    is the fit :func:`fit` gives on that column's panel with that start, bit
    for bit when the columns are strided as a panel's treated series is.
    Without ``treated``, ``outcomes`` is a stack of panels (B, T, 1 + J),
    even a strided Monte Carlo chunk, each fitting its own treated series: in
    one call if the kind's row ``stacks``, else one panel at a time, as it
    is laid out.  Its rows keep a unit column stride, so a panel's BLAS
    calls give the bits of a contiguous copy of it.
    """
    _require_controls(outcomes.shape[-1] - 1, spec)
    if start is not None and start.estimator_id != spec.label:
        start = None  # a warm start from another spec is ignored
    row, start = _ESTIMATORS[spec.kind], None if start is None else start.params
    if treated is not None or row.stacks:
        # did fits a chunk in one call: on 100 panels of T = 101, J = 100, 1.8 ms against about 6 ms one by one.
        return row.fitter(outcomes, covariates, outcomes[..., :1] if treated is None else treated, spec, start)
    blocks = [row.fitter(panel, covariates, panel[:, :1], spec, start) for panel in outcomes]
    return _Block(*map(np.array, zip(*(block[:4] for block in blocks))),
                  lambda i: blocks[i[0]].params(i[1]), lambda i: blocks[i[0]].report(i[1]), blocks[0].start)


def _fit_candidates(panel: PanelData, treated: np.ndarray, spec, start: ProxyFit | None = None):
    """``(residuals, steps, nonconverged)`` of the fits of ``panel`` with
    its treated series replaced by each column of ``treated`` (T, G).

    ``residuals`` (G, n) holds one residual row per column, its last
    ``panel.n_post`` entries the post-treatment periods, ``steps`` the sum
    of the fits' solver steps and ``nonconverged`` the count of fits that did
    not converge; a fit without a report counts 0 in both.  A spec fits
    the block (:func:`_fit_block`, warm from ``start``); a custom callable
    fits one panel per column.
    """
    if isinstance(spec, EstimatorSpec):
        block = _fit_block(panel.outcomes, panel.covariates, spec, treated, start)
    else:
        fits = [fit(replace(panel, outcomes=outcomes), spec) for outcomes in _panels(panel.outcomes, treated)]
        block = _stacked(((f.proxy, f.residuals, f.params, f.diagnostics) for f in fits), fits[0].start)
    return block.residuals, int(block.steps.sum()), int((~block.converged).sum())


def _require_controls(n_controls: int, spec: EstimatorSpec) -> None:
    """A fit whose kind's row sets ``controls`` (see :class:`_Kind`) has at least
    one of the ``n_controls``; a fused fit does if its base does."""
    spec = spec.base or spec
    if _ESTIMATORS[spec.kind].controls and n_controls < 1:
        raise DimensionError(f"{spec.label} requires at least one control unit")


def _design(outcomes: np.ndarray, covariates: np.ndarray | None):
    """Control outcomes plus the treated unit's covariates as free columns.

    ``outcomes`` is a panel's (T, 1 + J), the treated unit first, and
    ``covariates`` the panel's (T, 1 + J, k) or None.  Returns (X,
    n_constrained): the simplex / l1 constraint applies to the first
    ``n_constrained`` columns only; covariate coefficients are
    unconstrained.
    """
    X = outcomes[:, 1:]
    n_constrained = X.shape[1]
    if covariates is not None:
        X = np.hstack([X, covariates[:, 0, :]])
    return X, n_constrained


def _residuals(series: np.ndarray, proxies: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """``series - proxies``, each residual within the rounding level of its panel set to zero.

    ``outcomes`` holds one panel (T, N), with ``series`` and ``proxies``
    (T,) or (G, T), or panels along leading axes, with them (..., G, T): the
    treated series that take the place of its first column and their
    proxies.  A panel with a row of ``series`` for its treated series has
    the rounding level ``outcomes.size * eps * max|outcomes|``.  Panel
    estimators treat the periods as exchangeable rows, so their residuals
    permute with the data, and so must this floor: where the proxy fits a
    period exactly (``sc`` or ``classo`` with at least as many controls as
    periods can fit them all), rounding noise would otherwise rank the
    permutations, and the p-value would depend on the units.
    """
    def peak(x, axis):  # max|x| without an x-sized copy: a Monte Carlo chunk is 1 MiB
        return np.maximum(x.max(axis=axis, initial=0.0), -x.min(axis=axis, initial=0.0))

    if outcomes.ndim == 2:
        level = peak(outcomes[:, 1:], (-2, -1))
    else:
        # Whole period rows are reduced first, and the treated column dropped
        # after: a Monte Carlo chunk is time-major, so each period row of all
        # its panels is contiguous, and a column slice of it is not.
        top, bottom = np.maximum.reduce(outcomes, axis=-2)[..., 1:], np.minimum.reduce(outcomes, axis=-2)[..., 1:]
        level = np.maximum(peak(top, -1), peak(bottom, -1))[..., None]
    level = np.maximum(peak(series, -1), level)
    residuals = series - proxies
    n = outcomes.shape[-2] * outcomes.shape[-1]
    residuals[_negligible(np.abs(residuals), n, level[..., None])] = 0.0
    return residuals


def _closed_form(objective: float, note: str = "") -> SolveReport:
    """The report of a fit solved in closed form: one step, exact, converged."""
    return SolveReport(iterations=1, final_objective=objective, converged=True, kkt_residual=0.0, note=note)


def _did_core(outcomes, covariates, treated, spec, start) -> _Block:
    """Difference-in-differences: equal control weights plus a level shift
    (array core as :func:`_sc_core`).

    The level shift ``params["mu"]`` is the full-sample mean of the
    treated-minus-control differences, so the residuals sum to zero
    exactly.  ``outcomes`` (..., T, 1 + J) may be a stack of panels, even a
    strided one such as a time-major Monte Carlo chunk, with ``treated``
    (..., T, G) alongside; the block keeps the leading axes, and each
    panel's arithmetic is that of a panel alone, so a stack fits bit for
    bit as its panels do.
    """
    control_mean = outcomes[..., 1:].mean(axis=-1)[..., None, :]
    series = np.swapaxes(treated, -1, -2).copy()  # a chunk's treated column is strided: one pass to read it
    mu = (series - control_mean).mean(axis=-1)  # over C-ordered rows: a strided mean is not summed pairwise
    proxies = mu[..., None] + control_mean
    return _Block(_residuals(series, proxies, outcomes), proxies, np.zeros(mu.shape, dtype=int),
                  np.ones(mu.shape, dtype=bool), lambda g: {"mu": float(mu[g])}, lambda g: None)


def _block_of(outcomes, treated, proxies, mu, W, n_con, solved) -> _Block:
    """The :class:`_Block` of an active-set core: the proxies (G, T), one row per
    column of ``treated``, the intercepts ``mu`` (None for ``sc``), the weights
    ``W`` (G, p) whose first ``n_con`` are the control weights and the rest
    the covariate coefficients, and ``solved``, the ``(steps, converged, kkt,
    report)`` of the solver; ``outcomes`` is the panel's, the treated unit first."""
    steps, converged, _, report = solved

    def params(g):
        weights = {"weights": W[g, :n_con], "covariate_coefs": W[g, n_con:]}
        return weights if mu is None else {"mu": float(mu[g]), **weights}

    return _Block(_residuals(treated.T, proxies, outcomes), proxies, steps, converged, params, report)


def _sc_core(outcomes, covariates, treated, spec, start) -> _Block:
    """Synthetic control: simplex-constrained least-squares weights on controls.

    The array core of ``sc``, as every kind has one: it fits each treated
    series, a column of ``treated`` (T, G), against the controls of
    ``outcomes`` (T, 1 + J, the treated unit first) and the treated unit's
    part of the panel's ``covariates`` (T, 1 + J, k, or None), as one
    block.  The solver starts from ``start``, the params of an earlier fit,
    if given (see :func:`fit`).  Nothing here builds a fit or a report.
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
    """The penalty of a lasso or elastic-net spec; lasso's ``alpha`` is unset and reads as 1 (l1 alone)."""
    return ElasticNetPenalty(spec.lam, 1.0 if spec.alpha is None else spec.alpha)


def _penalized_core(outcomes, covariates, treated, spec, start) -> _Block:
    """Penalized regression on control outcomes, lasso or elastic net (array core
    as :func:`_sc_core`); the covariate coefficients are not penalized."""
    X, n_con = _design(outcomes, covariates)
    weights = np.zeros(X.shape[1])
    weights[:n_con] = 1.0
    w0 = None if start is None else np.concatenate([start["weights"], start["covariate_coefs"]])
    mu, W, *solved = _penalized_block(X, treated.T, _penalty(spec), spec.solver, weights, w0)
    return _block_of(outcomes, treated, mu[:, None] + _matvecs(X, W), mu, W, n_con, solved)


def _stacked(fits, start: int = 1) -> _Block:
    """The :class:`_Block` of per-column fits, each ``(proxy, residuals, params, report)``."""
    proxies, residuals, params, reports = zip(*fits)
    steps = np.array([0 if report is None else report.iterations for report in reports], dtype=int)
    converged = np.array([report is None or report.converged for report in reports])
    return _Block(np.array(residuals), np.array(proxies), steps, converged,
                  params.__getitem__, reports.__getitem__, start)


def _factor_core(outcomes, covariates, treated, spec, start) -> _Block:
    """Pure factor model: principal components of the full outcome matrix."""
    def fit_one(panel):
        factors, loadings = pca_factors(panel, spec.n_factors)
        proxy = factors @ loadings[0]
        report = _closed_form(float(((panel - factors @ loadings.T) ** 2).sum()))
        return proxy, _residuals(panel[:, 0], proxy, panel), {"treated_loading": loadings[0]}, report

    return _stacked(map(fit_one, _panels(outcomes, treated)))


def _interactive_fe_core(outcomes, covariates, treated, spec, start) -> _Block:
    """Interactive fixed effects: latent factors plus observed covariates.

    Raises
    ------
    DimensionError
        If the panel carries no covariates.  There is no silent fallback
        to the pure factor model: a missing covariate block almost always
        indicates a misconfigured pipeline.
    """
    if covariates is None:
        raise DimensionError(
            "interactive fixed effects requires covariates; use a factor spec "
            "for the covariate-free model"
        )

    def fit_one(panel):
        factors, loadings, beta, report = alternating_ls(panel, covariates, spec.n_factors, spec.solver)
        proxy = factors @ loadings[0] + covariates[:, 0, :] @ beta
        return proxy, _residuals(panel[:, 0], proxy, panel), {"treated_loading": loadings[0], "beta": beta}, report

    return _stacked(map(fit_one, _panels(outcomes, treated)))


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


def _matrix_completion_core(outcomes, covariates, treated, spec, start) -> _Block:
    """Least squares over the nuclear-norm ball on the full outcome matrix.

    With every entry observed the minimizer of ``sum((Y - A)^2)`` subject
    to ``||A||_* <= radius`` is the Euclidean projection of the outcome
    matrix onto the ball, so the fit is exact in one step.  Without a
    radius in the spec, :func:`default_nuclear_radius` sets it.
    """
    def fit_one(panel):
        matrix = panel.T  # units x time
        radius = default_nuclear_radius(matrix) if spec.radius is None else spec.radius
        fitted = project_nuclear_ball(matrix, radius)
        report = _closed_form(float(((matrix - fitted) ** 2).sum()))
        return fitted[0], _residuals(panel[:, 0], fitted[0], panel), {"radius": radius}, report

    return _stacked(map(fit_one, _panels(outcomes, treated)))


def _autoregression(series: np.ndarray, n_lags: int, what: str, intercept: bool):
    """Least squares of ``series`` on its own ``n_lags`` lags, from period ``n_lags + 1``.

    Returns the predicted series, ``series`` minus it, the params (the
    fitted ``"coefficients"``) and the closed-form report.  With
    ``intercept`` the design leads with a constant column, and lag columns
    that do not vary (a constant series) are dropped: they carry no signal
    and would be collinear with it, so their coefficients are 0.  Without
    it, a series that does not vary leaves no second moment to fit, so every
    lag coefficient is 0 and the report says so.  In both cases, as in
    ``solvers._centre``, a range within ``n * eps * max|x|`` is rounding and
    counts as no variation, ``x`` being the lag column (``n`` its rows) or
    the whole series.  The least-squares design must have at least as many
    rows as coefficients (and two rows), or the series is too short.
    """
    if series.shape[0] - n_lags < max(2, n_lags + intercept):
        raise DimensionError(f"{what} of length {series.shape[0]} is too short for {n_lags} lags")
    lags = np.column_stack([series[n_lags - m - 1: series.shape[0] - m - 1] for m in range(n_lags)])  # y_{t-1}, ...
    target = series[n_lags:]
    params, note = {}, ""
    if intercept:
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
    return predicted, residuals, params, _closed_form(float((residuals ** 2).sum()), note)


def _ar_core(outcomes, covariates, treated, spec, start) -> _Block:
    """Autoregression of the treated series on its own lags, with intercept
    (array core as :func:`_sc_core`, one column at a time).

    Only the treated unit is used, so panels without controls are
    accepted.  The first ``n_lags`` periods are consumed to build the lag
    design, and the fitted window starts at period ``n_lags + 1``.
    ``params["coefficients"]`` holds the intercept, then one coefficient
    per lag.  A lag model of your own is a callable estimator (see :func:`fit`).
    """
    fits = (_autoregression(panel[:, 0], spec.n_lags, "series", True)
            for panel in _panels(outcomes, treated))
    return _stacked(fits, spec.n_lags + 1)


def _fused_core(outcomes, covariates, treated, spec, start) -> _Block:
    """Two-stage fit: a panel proxy, then an autoregression on its residuals
    (array core as :func:`_sc_core`).

    Stage one runs the core of the spec's ``base`` on the block (from the
    base's params in ``start``); stage two regresses each column's
    stage-one residuals on their own ``n_lags`` lags without an intercept.
    The final proxy adds the predicted residual to the stage-one proxy,
    the fitted window starts at period ``n_lags + 1``.  The report is stage
    two's, with stage one's KKT residual, both stages' steps, and converged
    only if both are.

    A stage-one residual series that is constant up to rounding (a perfect
    first-stage fit up to a level) makes stage two degenerate; the lag
    coefficients are then set to zero, which reproduces the base proxy
    exactly, and the report is flagged.
    """
    base, n_lags = spec.base, spec.n_lags
    stage1 = _ESTIMATORS[base.kind].fitter(outcomes, covariates, treated, base,
                                           None if start is None else start["base_params"])
    stage2 = _stacked((_autoregression(row, n_lags, "residual series", intercept=False)
                       for row in stage1.residuals), n_lags + 1)
    def report(g):
        first, second = stage1.report(g), stage2.report(g)
        if first is None:  # a base without a report, such as did, takes no steps and converges
            return second
        return replace(second, iterations=first.iterations + second.iterations,
                       converged=first.converged and second.converged, kkt_residual=first.kkt_residual)

    return stage2._replace(
        proxies=stage1.proxies[:, n_lags:] + stage2.proxies,
        steps=stage1.steps + stage2.steps,
        converged=stage1.converged & stage2.converged,
        params=lambda g: {"rho": stage2.params(g)["coefficients"], "base": base.label,
                          "base_params": stage1.params(g)},
        report=report,
    )


_REQUIRED = object()


def _param_label(spec: EstimatorSpec) -> str:
    """``kind(key=value,...)`` over the CLI parameters; an unset value reads ``auto``."""
    items = []
    for key, name, _, _ in _ESTIMATORS[spec.kind].params:
        value = getattr(spec, name)
        items.append(f"{key}={'auto' if value is None else format(value, 'g')}")
    return f"{spec.kind}({','.join(items)})" if items else spec.kind


def _auto_or_float(text: str) -> float | None:
    """A CLI value: ``auto``, as the label writes an unset one, is None; anything else a float."""
    return None if text == "auto" else float(text)


# Over an unbounded ball a classo fit is all NaN, and a matrix-completion proxy is the treated
# series itself: every residual is 0 and every p-value 1.  None is matrix completion's automatic radius.
def _check_radius(spec: EstimatorSpec) -> None:
    _check_real("radius", spec.radius)
    if not 0 < spec.radius < math.inf:
        raise ValueError(f"radius must be positive and finite; got {spec.radius}")


def _check_fused(spec: EstimatorSpec) -> None:
    if spec.base is None or not _ESTIMATORS[spec.base.kind].fused_base:
        raise ValueError("fused estimators need a panel-model base (not 'ar'/'fused')")


class _Kind(NamedTuple):
    """How the CLI, ``EstimatorSpec``, :func:`fit` and Monte Carlo handle one kind.

    ``params`` holds the CLI parameters as ``(key, spec field, type, default)``;
    one of type :class:`EstimatorSpec` is itself in CLI notation.  ``fitter``
    is the kind's array core, as :func:`_sc_core` documents: it fits a
    block of treated series against one panel and returns a
    :class:`_Block`, and :func:`fit`, test inversion and Monte Carlo all
    reach it through :func:`_fit_block`.  ``reads`` names the spec fields
    it uses besides ``params``; every other field must keep its default.
    ``check`` raises ``ValueError`` on a spec whose values the core cannot
    fit, when the spec is built.  ``controls`` marks a core that needs at
    least one control (a fused spec needs them if its base does), ``stacks``
    one that fits a stack of panels in one call (see :func:`_did_core`), and
    ``fused_base`` a kind that can be a fused spec's base.  The CLI name is
    the kind with ``-`` for ``_``; the spec comes from the classmethod of
    the kind's name.
    """

    params: tuple
    fitter: Callable[..., _Block]
    reads: tuple = ()
    label: Callable[[EstimatorSpec], str] = _param_label
    fused_base: bool = True
    check: Callable[[EstimatorSpec], object] = lambda spec: None
    controls: bool = False
    stacks: bool = False


_ESTIMATORS = {
    "did": _Kind((), _did_core, controls=True, stacks=True),
    "sc": _Kind((), _sc_core, ("solver",), controls=True),
    "classo": _Kind((("K", "radius", float, 1.0),), _classo_core, ("solver",), check=_check_radius, controls=True),
    "lasso": _Kind((("lam", "lam", float, _REQUIRED),), _penalized_core, ("solver",), check=_penalty, controls=True),
    "elastic_net": _Kind((("lam", "lam", float, _REQUIRED), ("alpha", "alpha", float, _REQUIRED)), _penalized_core,
                         ("solver",), check=_penalty, controls=True),
    "factor": _Kind((("k", "n_factors", int, _REQUIRED),), _factor_core),
    "interactive_fe": _Kind((("k", "n_factors", int, _REQUIRED),), _interactive_fe_core, ("solver",)),
    "matrix_completion": _Kind((("K", "radius", _auto_or_float, None),), _matrix_completion_core,
                               check=lambda spec: spec.radius is None or _check_radius(spec)),
    "ar": _Kind((("lags", "n_lags", int, _REQUIRED),), _ar_core, fused_base=False),
    "fused": _Kind((("base", "base", EstimatorSpec, _REQUIRED), ("lags", "n_lags", int, _REQUIRED)), _fused_core,
                   label=lambda spec: f"fused({spec.base.label},lags={spec.n_lags})", fused_base=False,
                   check=_check_fused),
}
_KINDS = tuple(_ESTIMATORS)


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
