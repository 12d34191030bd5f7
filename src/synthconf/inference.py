"""Permutation-based conformal tests and confidence intervals.

The test pipeline composes three pure steps: subtract the hypothesized
effect trajectory from the treated outcome, fit a counterfactual proxy on
the full adjusted sample, and compare the post-treatment residuals against
their permutation distribution.  The p-value is the fraction of
permutations whose statistic is at least the observed one, up to a
relative tolerance that counts rounding-level differences as ties;
because every permutation set contains the identity, p-values are bounded
below by ``1/|Pi|`` and the test is conservative under ties.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np

from .estimators import EstimatorSpec, ProxyFit, _fit_candidates, fit
from .exceptions import DimensionError
from .panel import (
    PanelData,
    _treated_under_nulls,
    adjust_under_null,
    aggregate_time_blocks,
    aggregate_units,
    pointwise_slice,
    pre_treatment_slice,
)
from .solvers import SolveReport

__all__ = [
    "PermutationScheme",
    "Statistic",
    "TestResult",
    "CiEntry",
    "ConfidenceBand",
    "statistic_sq",
    "statistic_mean",
    "p_value",
    "test_sharp_null",
    "pointwise_ci",
    "confidence_band",
    "test_average_effect",
    "test_multi_unit",
    "placebo_test",
]

#: Full enumeration of all permutations is refused above this length.
MAX_ENUMERATED_LENGTH = 10

_CHUNK = 4096

#: Relative tolerance below the observed statistic within which a permuted
#: statistic still counts as a tie (as in ``scipy.stats.permutation_test``).
_TIE_RTOL = 100 * np.finfo(float).eps


@dataclass(frozen=True)
class PermutationScheme:
    """A finite set of permutations of ``{1..n}``, identity included.

    A scheme has no length of its own: ``n`` is the length of the residual
    window it is applied to, which a lag model shortens.  Three kinds are
    supported:

    ``moving_block``
        The ``n`` cyclic shifts of the time indices.  Forms a group, which
        is what exact finite-sample validity rests on, and remains
        appropriate under weak serial dependence.  This is the default.
    ``iid_all``
        All ``n!`` permutations; only permitted for ``n <= 10``.
    ``iid_sampled``
        ``n_samples`` permutations: the identity plus ``n_samples - 1``
        uniform draws with replacement from the full set.
    """

    kind: str
    n_samples: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("moving_block", "iid_all", "iid_sampled"):
            raise ValueError(f"unknown permutation scheme {self.kind!r}")
        if self.kind == "iid_sampled" and self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1; got {self.n_samples}")

    @classmethod
    def moving_block(cls) -> "PermutationScheme":
        return cls("moving_block")

    @classmethod
    def iid_all(cls) -> "PermutationScheme":
        return cls("iid_all")

    @classmethod
    def iid_sampled(cls, n_samples: int = 5000, seed: int = 0) -> "PermutationScheme":
        return cls("iid_sampled", n_samples=n_samples, seed=seed)

    @property
    def is_group(self) -> bool:
        return self.kind in ("moving_block", "iid_all")

    def size(self, n: int) -> int:
        """Number of permutations of a window of ``n`` periods.

        Raises ``DimensionError`` when ``iid_all`` would enumerate more
        than ``MAX_ENUMERATED_LENGTH!`` permutations.
        """
        if self.kind == "moving_block":
            return n
        if self.kind == "iid_all":
            if n > MAX_ENUMERATED_LENGTH:
                raise DimensionError(
                    f"iid_all enumerates T! permutations and is limited to "
                    f"T <= {MAX_ENUMERATED_LENGTH}; got T={n}"
                )
            return math.factorial(n)
        return self.n_samples

    def iter_permutations(self, n: int) -> Iterable[np.ndarray]:
        """Yield each permutation of ``{0..n-1}`` as an index array, identity first."""
        self.size(n)  # refuses a too-long iid_all window
        for chunk in self._iter_chunks(n):
            yield from chunk

    def _iter_chunks(self, n: int) -> Iterable[np.ndarray]:
        """Yield (m, n) matrices of permutation rows, identity in the first row."""
        base = np.arange(n)
        if self.kind == "moving_block":
            yield (base[None, :] + base[:, None]) % n
        elif self.kind == "iid_all":
            source = itertools.permutations(range(n))
            while True:
                block = list(itertools.islice(source, _CHUNK))
                if not block:
                    return
                yield np.asarray(block, dtype=np.intp)
        else:
            rng = np.random.default_rng(self.seed)
            remaining = self.n_samples - 1
            yield base[None, :]
            while remaining > 0:
                m = min(remaining, _CHUNK)
                yield rng.permuted(np.tile(base, (m, 1)), axis=1)
                remaining -= m


def _post_values(residuals, post_window) -> np.ndarray:
    u = np.asarray(residuals, dtype=float)[..., post_window]
    if u.shape[-1] == 0:
        raise DimensionError("post-treatment window is empty")
    return u


def statistic_sq(residuals, post_window, q: float = 1.0):
    """Scaled lq aggregate of the post-treatment residuals.

    Computes ``(T*^{-1/2} * sum |u_t|^q)^(1/q)`` over the post window;
    ``q=1`` is the default and is robust to heavy tails.  Large values
    indicate evidence against the null.  The window indexes the last axis,
    so a matrix of residual rows gives one statistic per row.
    """
    if q < 1:
        raise ValueError(f"statistic order q must be >= 1; got {q}")
    u = _post_values(residuals, post_window)
    return ((np.abs(u) ** q).sum(axis=-1) / np.sqrt(u.shape[-1])) ** (1.0 / q)


def statistic_mean(residuals, post_window):
    """Absolute scaled sum ``|sum u_t| / sqrt(T*)``; targets the average effect.

    Like :func:`statistic_sq`, it reduces over the last axis.
    """
    u = _post_values(residuals, post_window)
    return np.abs(u.sum(axis=-1)) / np.sqrt(u.shape[-1])


@dataclass(frozen=True)
class Statistic:
    """Declarative choice of test statistic: ``sq`` with an order, or ``mean``."""

    kind: str = "sq"
    q: float = 1.0

    def __post_init__(self):
        if self.kind not in ("sq", "mean"):
            raise ValueError(f"unknown statistic kind {self.kind!r}")
        if self.kind == "sq" and self.q < 1:
            raise ValueError(f"statistic order q must be >= 1; got {self.q}")

    @property
    def label(self):
        return f"S_{self.q:g}" if self.kind == "sq" else "mean"

    @property
    def order(self):
        return self.q if self.kind == "sq" else "mean"

    def __call__(self, residuals, post_window):
        if self.kind == "sq":
            return statistic_sq(residuals, post_window, self.q)
        return statistic_mean(residuals, post_window)


@dataclass(frozen=True)
class TestResult:
    """Observed statistic, its permutation distribution, and the p-value.

    ``diagnostics`` is the solver report of the fit that gave the residuals, if any.
    """

    statistic: float
    permuted_statistics: np.ndarray
    p_value: float
    scheme: PermutationScheme
    estimator_id: str | None
    q: float | str
    window: tuple[int, int]
    residuals: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)
    diagnostics: SolveReport | None = None

    @property
    def n_permutations(self) -> int:
        return self.permuted_statistics.shape[0]


def p_value(residuals, scheme: PermutationScheme, statistic, post_window) -> TestResult:
    """Exact permutation p-value of a residual vector.

    Parameters
    ----------
    residuals : array-like
        Residuals on the fitted window.
    scheme : PermutationScheme
    statistic : Statistic or callable
        A callable must accept ``(permuted_residuals, post_window)``.
    post_window : slice
        Positions of the post-treatment periods inside ``residuals``.

    Returns
    -------
    TestResult
        ``p_value = #{pi : S(u_pi) >= S(u) - gamma} / |Pi|`` with
        ``gamma = 100 eps |S(u)|``: statistics that are equal in exact
        arithmetic but were summed in another order count as ties, so the
        test stays conservative.  The identity permutation guarantees
        ``p_value >= 1/|Pi|``.
    """
    residuals = np.asarray(residuals, dtype=float)
    stats, pvals = _rank(residuals[None, :], scheme, statistic, post_window)
    return TestResult(
        statistic=float(stats[0, 0]),
        permuted_statistics=stats[0],
        p_value=float(pvals[0]),
        scheme=scheme,
        estimator_id=None,
        q=statistic.order if isinstance(statistic, Statistic) else "custom",
        window=(1, residuals.shape[0]),
        residuals=residuals,
    )


def _rank(rows: np.ndarray, scheme: PermutationScheme, statistic, post_window):
    """Permuted statistics and p-values of each row of a residual matrix.

    Every row is ranked against the same permutations, generated once, as
    :func:`p_value` documents.  Returns ``(stats, p_values)``: ``stats[i]``
    holds the statistics of row ``i``, identity first.
    """
    n = rows.shape[1]
    stats = np.empty((rows.shape[0], scheme.size(n)))  # size() also refuses a too-long iid_all window
    post_idx = np.arange(n)[post_window]
    offset = 0
    for chunk in scheme._iter_chunks(n):
        if isinstance(statistic, Statistic):
            values = statistic(rows.take(chunk[:, post_idx], axis=1), slice(None))
        else:
            values = [[statistic(row[pi], post_window) for pi in chunk] for row in rows]
        stats[:, offset: offset + chunk.shape[0]] = values
        offset += chunk.shape[0]
    observed = stats[:, :1]
    ties = stats >= observed - _TIE_RTOL * np.abs(observed)
    return stats, np.add.reduce(ties, axis=1) / stats.shape[1]


def test_sharp_null(
    panel: PanelData,
    alpha0,
    spec: EstimatorSpec,
    scheme: PermutationScheme | None = None,
    statistic: Statistic | Callable = Statistic(),
) -> TestResult:
    """Test a fully specified effect trajectory.

    Subtracts ``alpha0`` from the post-treatment treated outcome, fits the
    proxy model on all periods of the adjusted panel, and evaluates the
    permutation p-value of the post-treatment residuals.

    Parameters
    ----------
    panel : PanelData
    alpha0 : array-like
        Hypothesized effects for the post-treatment periods, as
        :func:`~synthconf.panel.adjust_under_null` takes them.
    spec : EstimatorSpec
    scheme : PermutationScheme, default moving-block
    statistic : Statistic or callable
    """
    scheme = scheme or PermutationScheme.moving_block()
    adjusted = adjust_under_null(panel, alpha0)
    fitted = fit(adjusted, spec)
    result = p_value(fitted.residuals, scheme, statistic, fitted.post_slice(panel.t0))
    return replace(
        result,
        estimator_id=fitted.estimator_id,
        window=(fitted.start, panel.n_periods),
        diagnostics=fitted.diagnostics,
    )


def _default_ci_grid(fitted: ProxyFit) -> np.ndarray:
    """41 candidate effects centred on the zero-null point estimate.

    ``fitted`` is the zero-effect fit of a one-post-period panel.  The grid
    spans 5 robust standard deviations (1.4826 * median absolute deviation
    of the pre-treatment residuals) on each side of the point estimate
    ``Y_t - proxy_t``.
    """
    point = float(fitted.residuals[-1])
    pre = fitted.residuals[:-1]
    spread = 1.4826 * float(np.median(np.abs(pre - np.median(pre))))
    if spread <= 0:
        spread = max(float(pre.std()), 1e-8)
    return np.linspace(point - 5.0 * spread, point + 5.0 * spread, 41)


@dataclass(frozen=True)
class CiEntry:
    """Accepted candidate effects for one post-treatment period.

    ``lower`` and ``upper`` are NaN when no candidate is accepted.
    ``iterations`` sums the solver steps of the period's fits, the
    candidates and, without a given grid, the zero-effect fit that set the
    grid; for ``sc``, ``classo``, lasso and elastic net a step is a KKT
    solve of the candidate's own active-set run, warm from its neighbour.
    ``nonconverged`` counts those fits whose report says they did not
    converge.  A fit without a report counts 0 in both.
    """

    period: int
    grid: np.ndarray
    p_values: np.ndarray
    accepted: np.ndarray
    level: float
    lower: float
    upper: float
    has_gaps: bool
    is_empty: bool
    iterations: int
    nonconverged: int


@dataclass(frozen=True)
class ConfidenceBand:
    """Pointwise confidence intervals over the post-treatment window."""

    entries: tuple
    level: float


def pointwise_ci(
    panel: PanelData,
    t: int,
    spec: EstimatorSpec,
    scheme: PermutationScheme | None = None,
    statistic: Statistic | Callable = Statistic(),
    grid=None,
    level: float = 0.9,
) -> CiEntry:
    """Confidence set for the effect in period ``t`` by test inversion.

    For each candidate value the pre-treatment rows plus the adjusted row
    ``t`` form a one-post-period panel, whose residuals are ranked as
    :func:`test_sharp_null` ranks them; candidates whose p-value exceeds
    ``1 - level`` are accepted.  The grid is sorted first and must not be
    empty, and its candidates are checked as any null is (a non-finite one
    is refused).  Without a grid, the period is fitted once at a zero
    effect: the default grid is read off that fit's residuals, and it is
    the warm start of the first candidate.

    The candidates share their design and differ only in the last treated
    entry, so the period is fitted as one block of treated series, in grid
    order, each candidate warm from its neighbour's solution.  For ``sc``,
    ``classo``, lasso and elastic net the design is set up once per period,
    and each candidate gets its own active-set run and certificate (see
    :func:`~synthconf.solvers.simplex_ls`).  Other kinds, and custom
    callables, fit one panel per candidate.  Either way a candidate's fit
    is, bit for bit, :func:`~synthconf.fit` of its own panel warm from its
    neighbour's fit, and all residual rows are ranked in one permutation
    pass.  A p-value is the one :func:`test_sharp_null` gives unless the
    proxy fits almost exactly: a warm start can then stop on another
    support whose certificate also passes, and the p-value can differ from
    that of a cold fit (for ``sc`` on a 9-period panel with 10 controls
    and the treated unit a mean of three of them plus noise of 1e-6, 263 of
    8,200 default-grid candidates over 200 seeds).

    The reported interval is the hull of the accepted set, with a flag when
    the set has interior gaps (and a warning when it is empty, which
    indicates a too-coarse grid or severe misfit).
    """
    if not 0 < level < 1:
        raise ValueError(f"level must lie in (0, 1); got {level}")
    scheme = scheme or PermutationScheme.moving_block()
    sub = pointwise_slice(panel, t)
    start = None
    if grid is None:
        # A zero effect leaves the panel as it is, so sub itself is the zero null.
        start = fit(sub, spec)
        grid = _default_ci_grid(start)
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise DimensionError(f"the candidate grid for period {t} is empty")
    fits = _fit_candidates(sub, _treated_under_nulls(sub, grid[:, None]), spec, start)
    rows = np.array([fitted.residuals for fitted in fits])
    _, pvals = _rank(rows, scheme, statistic, fits[0].post_slice(sub.t0))
    period_fits = fits if start is None else [start, *fits]
    reports = [fitted.diagnostics for fitted in period_fits if fitted.diagnostics is not None]
    alpha = 1.0 - level
    # Strict inequality; the slack absorbs float error in 1 - level so that
    # p-values exactly on the boundary grid k/|Pi| = alpha are rejected.
    accepted = pvals > alpha + 1e-12
    is_empty = not accepted.any()
    if is_empty:
        warnings.warn(
            f"no candidate effect accepted for period {t}: widen or refine the grid",
            UserWarning,
            stacklevel=2,
        )
        lower = upper = float("nan")
        has_gaps = False
    else:
        where = np.nonzero(accepted)[0]
        lower = float(grid[where[0]])
        upper = float(grid[where[-1]])
        has_gaps = bool((~accepted[where[0]: where[-1] + 1]).any())
    return CiEntry(
        period=t,
        grid=grid,
        p_values=pvals,
        accepted=accepted,
        level=level,
        lower=lower,
        upper=upper,
        has_gaps=has_gaps,
        is_empty=is_empty,
        iterations=sum(report.iterations for report in reports),
        nonconverged=sum(not report.converged for report in reports),
    )


def confidence_band(
    panel: PanelData,
    spec: EstimatorSpec,
    scheme: PermutationScheme | None = None,
    statistic: Statistic | Callable = Statistic(),
    grid=None,
    level: float = 0.9,
) -> ConfidenceBand:
    """Pointwise confidence intervals for every post-treatment period."""
    entries = tuple(
        pointwise_ci(panel, t, spec, scheme, statistic, grid, level)
        for t in range(panel.t0 + 1, panel.n_periods + 1)
    )
    return ConfidenceBand(entries=entries, level=level)


def test_average_effect(
    panel: PanelData,
    alpha_bar0: float,
    spec: EstimatorSpec,
    scheme: PermutationScheme | None = None,
    statistic: Statistic | Callable = Statistic(),
) -> TestResult:
    """Test the average post-treatment effect via block aggregation.

    The panel is averaged over consecutive blocks of the post-window
    length (``T`` must be divisible by it), turning the hypothesis about
    the average effect into a one-period sharp null on the aggregated
    panel.  The effective sample size ``T / T*`` is recorded in the result
    metadata.
    """
    aggregated = aggregate_time_blocks(panel)
    result = test_sharp_null(aggregated, [float(alpha_bar0)], spec, scheme, statistic)
    meta = dict(result.metadata)
    meta["effective_sample_size"] = aggregated.n_periods
    return replace(result, metadata=meta)


def test_multi_unit(
    panel: PanelData,
    alpha_bar_traj,
    spec: EstimatorSpec,
    scheme: PermutationScheme | None = None,
    statistic: Statistic | Callable = Statistic(),
) -> TestResult:
    """Test a trajectory of cross-unit average effects with several treated units."""
    if panel.n_treated < 2:
        raise DimensionError(
            f"test_multi_unit needs at least two treated units; got {panel.n_treated}"
        )
    averaged = aggregate_units(panel)
    return test_sharp_null(averaged, alpha_bar_traj, spec, scheme, statistic)


def placebo_test(
    panel: PanelData,
    tau: int,
    spec: EstimatorSpec,
    scheme: PermutationScheme | None = None,
    statistic: Statistic | Callable = Statistic(),
) -> TestResult:
    """Specification check: test a zero effect at a fake treatment date.

    The post-treatment rows are discarded and the last ``tau``
    pre-treatment periods are relabeled as post.  Under correct
    specification the null is true by construction, so rejections signal a
    model or dependence problem.  The returned result carries the full
    residual series for diagnostic plots.
    """
    sub = pre_treatment_slice(panel, tau)
    result = test_sharp_null(sub, np.zeros(tau), spec, scheme, statistic)
    meta = dict(result.metadata)
    meta["tau"] = tau
    return replace(result, metadata=meta)
