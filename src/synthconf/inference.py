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

import functools
import itertools
import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable

import numpy as np

from .estimators import EstimatorSpec, ProxyFit, _fit_candidates, fit
from .exceptions import DimensionError, NumericalError, _warn
from .panel import (
    PanelData,
    _treated_under_nulls,
    adjust_under_null,
    aggregate_time_blocks,
    aggregate_units,
    pointwise_slice,
    pre_treatment_slice,
)
from .solvers import SolveReport, _check_integer, _check_real

__all__ = [
    "PermutationScheme",
    "Statistic",
    "TestResult",
    "CiEntry",
    "ConfidenceBand",
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


def _check_level(level) -> None:
    """Refuse a confidence level or a test's level outside ``(0, 1)``."""
    _check_real("level", level)
    if not 0 < level < 1:
        raise ValueError(f"level must lie in (0, 1); got {level}")


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
        uniform draws with replacement from the full set, drawn from ``seed``.
        Another kind refuses an ``n_samples`` or ``seed`` off its default.

    :meth:`size` counts the permutations of a window and refuses a
    too-long ``iid_all`` window; ``_iter_chunks`` enumerates them.  That is
    the one enumeration: :func:`p_value`, test inversion and the Monte
    Carlo experiments all rank through ``_rank``, which runs it.
    """

    kind: str
    n_samples: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("moving_block", "iid_all", "iid_sampled"):
            raise ValueError(f"unknown permutation scheme {self.kind!r}")
        if self.kind == "iid_sampled":
            _check_integer("n_samples", self.n_samples, 1)
            _check_integer("seed", self.seed, 0)
            return
        for unused in fields(self)[1:]:
            if getattr(self, unused.name) != unused.default:
                raise ValueError(f"{self.kind} permutations do not use {unused.name!r}")

    @classmethod
    def moving_block(cls) -> "PermutationScheme":
        return cls("moving_block")

    @classmethod
    def iid_all(cls) -> "PermutationScheme":
        return cls("iid_all")

    @classmethod
    def iid_sampled(cls, n_samples: int = 5000, seed: int = 0) -> "PermutationScheme":
        return cls("iid_sampled", n_samples=n_samples, seed=seed)

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

    def _iter_chunks(self, n: int, cols: slice | np.ndarray) -> Iterable[np.ndarray]:
        """Yield the columns ``cols`` of the permutation rows in matrices, the identity first.

        A moving block is one matrix of its ``n`` shifts, built only at
        ``cols``.  ``iid_all`` yields ``itertools.permutations`` order in
        matrices of ``_CHUNK`` rows.  ``iid_sampled`` yields the identity
        alone, then its other rows in matrices of at most ``_CHUNK``, all
        drawn from one generator seeded with ``seed``.  The rows of all
        matrices, in order, are the ``size(n)`` permutations; the length is
        not checked here, so call :meth:`size` first.
        """
        base = np.arange(n)
        if self.kind == "moving_block":
            yield (base[:, None] + base[cols]) % n
        elif self.kind == "iid_all":
            source = itertools.permutations(range(n))
            while True:
                block = list(itertools.islice(source, _CHUNK))
                if not block:
                    return
                yield np.asarray(block, dtype=np.intp)[:, cols]
        else:
            rng = np.random.default_rng(self.seed)
            remaining = self.n_samples - 1
            yield base[None, cols]
            while remaining > 0:
                m = min(remaining, _CHUNK)
                yield rng.permuted(np.tile(base, (m, 1)), axis=1)[:, cols]
                remaining -= m


@dataclass(frozen=True)
class Statistic:
    """The test statistic: ``sq`` with an order ``q``, or ``mean``.

    Called with residuals and the post window, it reduces the window's
    values ``u`` over the last axis, so a matrix of residual rows gives one
    statistic per row, and raises ``DimensionError`` for an empty window.
    Large values indicate evidence against the null.

    ``sq``
        The scaled lq aggregate ``(T*^{-1/2} * sum |u_t|^q)^(1/q)``;
        ``q=1`` is the default and is robust to heavy tails.  The order
        must be a real number (not a bool), finite and at least 1: a NaN
        order makes every statistic NaN, which no permutation ties, and an
        infinite one makes every statistic 1.
    ``mean``
        ``|sum u_t| / sqrt(T*)``, which targets the average effect.  It has
        no order and refuses a ``q`` other than the default.
    """

    kind: str = "sq"
    q: float = 1.0

    def __post_init__(self):
        if self.kind not in ("sq", "mean"):
            raise ValueError(f"unknown statistic {self.kind!r}; expected 'sq' or 'mean'")
        _check_real("q", self.q)
        if self.kind == "sq" and not 1 <= self.q < np.inf:
            raise ValueError(f"statistic order q must be finite and >= 1; got {self.q}")
        if self.kind == "mean" and self.q != fields(self)[1].default:
            raise ValueError("mean statistics do not use 'q'")

    @property
    def label(self):
        return f"S_{self.q:g}" if self.kind == "sq" else "mean"

    @property
    def order(self):
        return self.q if self.kind == "sq" else "mean"

    def __call__(self, residuals, post_window):
        u = np.asarray(residuals, dtype=float)[..., post_window]
        if u.shape[-1] == 0:
            raise DimensionError("post-treatment window is empty")
        if self.kind == "sq":
            return ((np.abs(u) ** self.q).sum(axis=-1) / np.sqrt(u.shape[-1])) ** (1.0 / self.q)
        return np.abs(u.sum(axis=-1)) / np.sqrt(u.shape[-1])


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
        Called as ``statistic(values, slice(None))`` once per chunk of
        permutations, where ``values`` holds the post-window values of the
        permuted residuals, of shape (rows, permutations in the chunk, post
        periods).  It returns one value per row and permutation, shape
        (rows, permutations in the chunk), as :class:`Statistic` does by
        reducing the last axis; any other shape raises ``DimensionError``.
    post_window : slice
        Positions of the post-treatment periods inside ``residuals``: a
        non-empty run that ends at the last position, or ``DimensionError``.

    Returns
    -------
    TestResult
        ``p_value = #{pi : S(u_pi) >= S(u) - gamma} / |Pi|`` with
        ``gamma = 100 eps |S(u)|``: statistics that are equal in exact
        arithmetic but were summed in another order count as ties, so the
        test stays conservative.  The identity permutation guarantees
        ``p_value >= 1/|Pi|``.  A residual or a permuted statistic that is
        not finite (an overflowing ``S_q``, say) raises ``NumericalError``.
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

    Every row is ranked against the same permutations, generated once by
    :meth:`PermutationScheme._iter_chunks` at the post-window columns.
    The statistic is called once per chunk on those columns of all rows,
    as :func:`p_value` documents, each chunk's statistics written at its
    offset, and the p-value is the one :func:`p_value` documents.  Returns
    ``(stats, p_values)``: ``stats[i]`` holds the statistics of row ``i``,
    identity first.  A window that is not a non-empty run of the last
    positions, or a statistic of another shape, raises ``DimensionError``;
    a non-finite residual or statistic raises ``NumericalError``.
    """
    n = rows.shape[1]
    try:
        post = np.arange(n)[post_window]
    except IndexError:  # a float, say, or a position past the end
        post = np.empty(0, dtype=np.intp)
    if post.ndim != 1 or post.size == 0 or not np.array_equal(post, np.arange(n - post.size, n)):
        raise DimensionError(f"post window {post_window!r} of {n} residuals is not a non-empty run "
                             f"of the last positions")
    if not np.isfinite(rows).all():
        raise NumericalError("a residual is not finite (NaN or infinite), so it has no rank")
    stats = np.empty((rows.shape[0], scheme.size(n)))  # size() also refuses a too-long iid_all window
    offset = 0
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf too: the error below, no warning first
        for chunk in scheme._iter_chunks(n, post):
            values = rows.take(chunk, axis=1)
            chunk_stats = statistic(values, slice(None))
            if np.shape(chunk_stats) != values.shape[:-1]:
                raise DimensionError(f"a statistic must return one value per row and permutation, shape "
                                     f"{values.shape[:-1]} for post-window values of shape {values.shape} "
                                     f"(rows, permutations, post periods); got shape {np.shape(chunk_stats)}")
            stats[:, offset: offset + chunk.shape[0]] = chunk_stats
            offset += chunk.shape[0]
    if not np.isfinite(stats).all():  # an infinite one's tie bound is NaN: not even the identity would tie
        raise NumericalError("a permuted statistic is not finite: the residuals overflow it, or a custom "
                             "statistic returned NaN or infinity; rescale the outcomes")
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


def _median(x: np.ndarray):
    """``np.median(x)`` of a non-empty 1-D ``x`` by one sort, bit for bit.

    ``np.median`` takes the mean of the middle value or the two middle
    values, a sum that starts from ``0.0`` (so ``-0.0`` comes out ``0.0``)
    divided by the count.  A NaN sorts last and makes the median NaN.
    """
    s = np.sort(x)
    mid = s.size // 2
    if s[-1] != s[-1]:
        return s[-1]
    return 0.0 + s[mid] if s.size % 2 else (0.0 + s[mid - 1] + s[mid]) / 2.0


def _default_ci_grid(fitted: ProxyFit) -> np.ndarray:
    """41 candidate effects centred on the zero-null point estimate.

    ``fitted`` is the zero-effect fit of a one-post-period panel.  The grid
    spans 5 robust standard deviations (1.4826 * median absolute deviation
    of the pre-treatment residuals) on each side of the point estimate
    ``Y_t - proxy_t``.  Where that spread is zero, the first positive one
    of these takes its place: the standard deviation of the pre-treatment
    residuals, that of the treated pre-treatment outcomes, the largest
    treated outcome in magnitude, and 1 when every treated outcome is zero.
    Each but the last is in the units of Y, so the grid scales with them.
    """
    if fitted.n_fitted < 2:  # a custom fit of the post period alone
        raise DimensionError(f"{fitted.estimator_id!r} fits no pre-treatment period, so no default grid; pass a grid")
    point = float(fitted.residuals[-1])
    pre = fitted.residuals[:-1]
    spread = 1.4826 * float(_median(np.abs(pre - _median(pre))))
    if spread <= 0:
        treated = fitted.proxy + fitted.residuals
        spreads = (pre.std(), treated[:-1].std(), np.abs(treated).max())
        spread = next((float(s) for s in spreads if s > 0), 1.0)
    return np.linspace(point - 5.0 * spread, point + 5.0 * spread, 41)


@dataclass(frozen=True)
class CiEntry:
    """Candidate effects tested for one post-treatment period, and the set they accept.

    Stored is what test inversion measured: the sorted ``grid``, each
    candidate's p-value, the ``level`` and the solver counts.
    ``iterations`` sums the solver steps of the period's fits, the
    candidates and, without a given grid, the zero-effect fit that set the
    grid; for ``sc``, ``classo``, lasso and elastic net a step is a KKT
    solve of the candidate's own active-set run, warm from its neighbour.
    ``nonconverged`` counts those fits whose report says they did not
    converge.  A fit without a report counts 0 in both.

    Read off the p-values, each once per entry: ``accepted`` marks the
    candidates whose p-value exceeds ``1 - level``; ``lower`` and ``upper``
    bound their hull (NaN when none is accepted, and then ``is_empty``);
    ``has_gaps`` flags a rejected candidate inside the hull.
    """

    period: int
    grid: np.ndarray
    p_values: np.ndarray
    level: float
    iterations: int
    nonconverged: int

    @functools.cached_property
    def accepted(self) -> np.ndarray:
        # Strict inequality; the slack absorbs float error in 1 - level so that
        # p-values exactly on the boundary grid k/|Pi| = alpha are rejected.
        return self.p_values > 1.0 - self.level + 1e-12

    @functools.cached_property
    def _hull(self) -> tuple[float, float, bool]:
        where = np.flatnonzero(self.accepted)
        if where.size == 0:
            return math.nan, math.nan, False
        first, last = where[0], where[-1]
        return float(self.grid[first]), float(self.grid[last]), not self.accepted[first: last + 1].all()

    lower = property(lambda self: self._hull[0])
    upper = property(lambda self: self._hull[1])
    has_gaps = property(lambda self: self._hull[2])
    is_empty = property(lambda self: not self.accepted.any())


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
    entry, so the kind's array core fits the period as one block of
    treated series, in grid order, each candidate warm from its
    neighbour's solution, and builds no fit object or report per
    candidate.  For ``sc``, ``classo``, lasso and elastic net that is the
    design once per period, then each candidate's own active-set run and
    certificate (see :func:`~synthconf.solvers._simplex_block`), each
    per-candidate product (linear term, certificate scale, proxy,
    intercept) one stacked product over the block; ``did`` is one
    vectorized fit, and the other kinds fit the candidates' panels one by
    one.  A custom callable fits one panel per candidate.  Either way a
    candidate's residuals and counts are, bit for bit, those of
    :func:`~synthconf.fit` of its own panel warm from its neighbour's fit,
    and all residual rows are ranked in one permutation pass.  A p-value
    is the one :func:`test_sharp_null` gives unless the proxy fits almost
    exactly: a warm start can then stop on another support whose
    certificate also passes (for ``sc`` on a 9-period panel with 10
    controls and the treated unit a mean of three of them plus noise of
    1e-6, 263 of 8,200 default-grid candidates over 200 seeds).

    The reported interval is the hull of the accepted set, with a flag when
    the set has interior gaps (and a warning when it is empty, which
    indicates a too-coarse grid or severe misfit).
    """
    _check_level(level)
    scheme = scheme or PermutationScheme.moving_block()
    sub = pointwise_slice(panel, t)
    start = None
    steps = nonconverged = 0
    if grid is None:
        # A zero effect leaves the panel as it is, so sub itself is the zero null.
        start = fit(sub, spec)
        grid = _default_ci_grid(start)
        if start.diagnostics is not None:
            steps, nonconverged = start.diagnostics.iterations, int(not start.diagnostics.converged)
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise DimensionError(f"the candidate grid for period {t} is empty")
    rows, window, block_steps, block_nonconverged = _fit_candidates(
        sub, _treated_under_nulls(sub, grid[:, None]), spec, start)
    _, pvals = _rank(rows, scheme, statistic, window)
    entry = CiEntry(period=t, grid=grid, p_values=pvals, level=level,
                    iterations=steps + block_steps, nonconverged=nonconverged + block_nonconverged)
    if entry.is_empty:
        _warn(f"no candidate effect accepted for period {t}: widen or refine the grid")
    return entry


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
    return replace(result, metadata={"effective_sample_size": aggregated.n_periods})


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
    return replace(result, metadata={"tau": tau})
