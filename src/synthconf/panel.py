"""Panel data model and the transformations used by the testing pipelines.

A panel holds outcomes for one or more treated units followed by control
units, observed over ``T = t0 + n_post`` periods.  Time indices in the
public API are 1-based: periods ``1..t0`` are pre-treatment and periods
``t0+1..T`` are post-treatment.  All containers are immutable after
construction and all operations are pure functions, so values can be
shared freely across threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DimensionError

__all__ = [
    "PanelData",
    "adjust_under_null",
    "aggregate_time_blocks",
    "aggregate_units",
    "pre_treatment_slice",
    "pointwise_slice",
]


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PanelData:
    """Outcomes of treated and control units over a common time window.

    Parameters
    ----------
    outcomes : ndarray of shape (T, n_units)
        One row per period, one column per unit.  The first ``n_treated``
        columns are the treated units, the remaining ``J`` columns are
        controls.  Every entry must be finite (balanced panel).
    t0 : int
        Number of pre-treatment periods, ``1 <= t0 < T``.
    n_treated : int, default=1
        Number of treated units (leading columns).
    covariates : ndarray of shape (T, n_units, k) or None
        Optional per-unit-per-period covariate vectors.

    Notes
    -----
    A panel with no control units (``n_units == n_treated``) is accepted
    so that pure time-series estimators can be used; estimators that need
    controls raise :class:`~synthconf.exceptions.DimensionError` instead.
    """

    outcomes: np.ndarray
    t0: int
    n_treated: int = 1
    covariates: np.ndarray | None = None

    def __post_init__(self):
        outcomes = np.asarray(self.outcomes, dtype=float)
        if outcomes.ndim != 2:
            raise DimensionError(
                f"outcomes must be 2-D (T, n_units); got shape {outcomes.shape}"
            )
        n_periods, n_units = outcomes.shape
        if not np.all(np.isfinite(outcomes)):
            raise DimensionError("outcomes contain non-finite entries; panels must be balanced")
        if not 1 <= self.t0 < n_periods:
            raise DimensionError(f"t0 must satisfy 1 <= t0 < T={n_periods}; got {self.t0}")
        if self.n_treated < 1:
            raise DimensionError(f"n_treated must be >= 1; got {self.n_treated}")
        if n_units < self.n_treated:
            raise DimensionError(
                f"panel has {n_units} columns but n_treated={self.n_treated}"
            )
        object.__setattr__(self, "outcomes", _frozen_array(outcomes))
        if self.covariates is not None:
            cov = np.asarray(self.covariates, dtype=float)
            if cov.ndim != 3 or cov.shape[:2] != (n_periods, n_units):
                raise DimensionError(
                    "covariates must have shape (T, n_units, k); got "
                    f"{cov.shape} for a {n_periods}x{n_units} panel"
                )
            if not np.all(np.isfinite(cov)):
                raise DimensionError("covariates contain non-finite entries")
            object.__setattr__(self, "covariates", _frozen_array(cov))

    @property
    def n_periods(self) -> int:
        return self.outcomes.shape[0]

    @property
    def n_units(self) -> int:
        return self.outcomes.shape[1]

    @property
    def n_controls(self) -> int:
        return self.n_units - self.n_treated

    @property
    def n_post(self) -> int:
        return self.n_periods - self.t0

    @property
    def treated(self) -> np.ndarray:
        """Outcome series of the single treated unit (requires ``n_treated == 1``)."""
        if self.n_treated != 1:
            raise DimensionError(
                f"panel has {self.n_treated} treated units; aggregate_units() first"
            )
        return self.outcomes[:, 0]

    @property
    def controls(self) -> np.ndarray:
        """Outcome matrix of the control units, shape (T, J)."""
        return self.outcomes[:, self.n_treated:]


def adjust_under_null(panel: PanelData, alpha0) -> PanelData:
    """Subtract a hypothesized effect trajectory from the treated outcome.

    Parameters
    ----------
    panel : PanelData
        Panel with a single treated unit.
    alpha0 : array-like
        Hypothesized effects for periods ``t0+1..T``: one finite value per
        post-treatment period (a scalar counts as one value).

    Returns
    -------
    PanelData
        Copy of the panel with the post-treatment treated entries replaced
        by ``Y_t - alpha0_t``.  Pre-treatment rows are untouched, and a zero
        trajectory gives a copy equal to the panel bit for bit.
    """
    values = np.atleast_1d(np.asarray(alpha0, dtype=float))
    outcomes = panel.outcomes.copy()
    outcomes[:, 0] = _treated_under_nulls(panel, values[None])[:, 0]
    return replace(panel, outcomes=outcomes)


def _treated_under_nulls(panel: PanelData, nulls) -> np.ndarray:
    """The treated series under each of ``nulls``, one column per null.

    This is the one place where a null is checked and applied.  ``nulls``
    holds one effect trajectory per row, as :func:`adjust_under_null`
    takes it; column ``g`` of the (T, G) result is the treated outcome with
    ``nulls[g]`` subtracted from its post-treatment entries, as
    :func:`adjust_under_null` subtracts it.
    """
    if panel.n_treated != 1:
        raise DimensionError(
            "adjust_under_null requires a single treated unit; use aggregate_units() "
            "to average multiple treated units first"
        )
    nulls = np.asarray(nulls, dtype=float)
    if nulls.ndim != 2:
        raise DimensionError(f"the effect trajectory must be 1-D; got shape {nulls.shape[1:]}")
    if not np.all(np.isfinite(nulls)):
        raise DimensionError("the effect trajectory must be finite")
    if nulls.shape[1] != panel.n_post:
        raise DimensionError(
            f"the effect trajectory has {nulls.shape[1]} values but the panel has "
            f"{panel.n_post} post-treatment periods"
        )
    # At least two columns are allocated, so that each series is strided as
    # a panel's treated unit is: BLAS sums a contiguous vector in another
    # order, and a candidate must be fitted bit for bit as its own panel.
    treated = np.empty((panel.n_periods, max(2, nulls.shape[0])))[:, :nulls.shape[0]]
    treated[:] = panel.outcomes[:, :1]
    treated[panel.t0:] -= nulls.T
    return treated


def _mapped(panel: PanelData, transform, t0: int, n_treated: int) -> PanelData:
    """The panel whose outcomes and covariates are ``transform`` of ``panel``'s.

    ``transform`` maps an array whose leading axes are (period, unit) to
    another such array, so one period and unit map serves the outcomes
    ``(T, n_units)`` and the covariates ``(T, n_units, k)`` alike.
    """
    covariates = None if panel.covariates is None else transform(panel.covariates)
    return PanelData(transform(panel.outcomes), t0=t0, n_treated=n_treated, covariates=covariates)


def aggregate_time_blocks(panel: PanelData) -> PanelData:
    """Average consecutive blocks of ``n_post`` periods into single rows.

    The panel is partitioned into ``T / n_post`` blocks of equal length;
    outcomes (and covariates) are averaged within each block.  The last
    block is exactly the post-treatment window, so the aggregated panel
    has a single post-treatment row.

    Raises
    ------
    DimensionError
        If ``T`` is not divisible by the post-window length.  No
        truncation rule is applied: dropping periods silently would change
        the hypothesis being tested.
    """
    block = panel.n_post
    n_periods = panel.n_periods
    if n_periods % block != 0:
        raise DimensionError(
            f"cannot aggregate: T={n_periods} is not divisible by the post-window "
            f"length {block}"
        )
    n_blocks = n_periods // block
    return _mapped(panel, lambda a: a.reshape(n_blocks, block, *a.shape[1:]).mean(axis=1),
                   t0=n_blocks - 1, n_treated=panel.n_treated)


def aggregate_units(panel: PanelData) -> PanelData:
    """Average the treated units into a single treated column.

    Control columns are unchanged; covariates of the treated units are
    averaged likewise.  With one treated unit this is the identity.
    """
    n_treated = panel.n_treated
    if n_treated == 1:
        return panel
    def average_treated(a):
        return np.concatenate([a[:, :n_treated].mean(axis=1, keepdims=True), a[:, n_treated:]], axis=1)

    return _mapped(panel, average_treated, t0=panel.t0, n_treated=1)


def pre_treatment_slice(panel: PanelData, tau: int) -> PanelData:
    """Truncate to the pre-treatment window, relabeling the last ``tau`` periods as post.

    Used by placebo specification tests: periods ``1..t0-tau`` become the
    new pre-treatment window and ``t0-tau+1..t0`` the placebo post window.

    Raises
    ------
    DimensionError
        If ``tau`` is not in ``1..t0-1``.
    """
    if not 1 <= tau < panel.t0:
        raise DimensionError(f"placebo window tau must satisfy 1 <= tau < t0={panel.t0}; got {tau}")
    new_t0 = panel.t0 - tau
    if new_t0 == 1:
        warnings.warn(
            "placebo slice leaves a single pre-treatment period", UserWarning, stacklevel=2
        )
    return _mapped(panel, lambda a: a[: panel.t0], t0=new_t0, n_treated=panel.n_treated)


def pointwise_slice(panel: PanelData, t: int) -> PanelData:
    """Keep the pre-treatment rows plus the single post-treatment period ``t``.

    The result has ``t0 + 1`` rows and a one-period post window; it is the
    data layout used when testing a hypothesis about the effect in one
    specific period.
    """
    if not panel.t0 < t <= panel.n_periods:
        raise DimensionError(
            f"period t must lie in the post-treatment window {panel.t0 + 1}..{panel.n_periods}; got {t}"
        )
    rows = np.concatenate([np.arange(panel.t0), [t - 1]])
    return _mapped(panel, lambda a: a[rows], t0=panel.t0, n_treated=panel.n_treated)
