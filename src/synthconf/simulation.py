"""Monte Carlo designs and experiments for size and power studies.

The designs generate a treated outcome as a weighted combination of
control outcomes plus an AR(1) shock; the controls follow a one-factor
model with unit effects, a common time effect, and AR(1) idiosyncratic
noise.  All AR processes are initialized at their stationary N(0, 1)
distribution so finite samples are exactly stationary.  Replications draw
independent seeds from a spawned seed sequence, so results are identical
whether replications run serially or are distributed by index.

Replications run in chunks whose outcome block fits a fixed memory budget
(``_CHUNK_DOUBLES``, 1 MiB), allocated once per experiment.  The block is
time-major, (T, B, 1 + J): one period of all B panels is one contiguous
row.  Each replication makes its draws from its own generator in a fixed
order, and its noise innovations are scaled as they are stored; the chunk
then runs the AR(1) recurrences one period row at a time (only of the
processes whose rho is not 0), the ``did`` fit and the permutation ranking
for all its panels at once, with the elementwise arithmetic of one panel
alone.  Every other estimator fits each panel's residual row from its
strided view in the block, through the entry to the array cores that
:func:`~synthconf.estimators.fit` uses, without building a panel object,
a fit or a solver report per replication.  So results do not depend on
the chunking or the layout: :func:`simulate_panel` is a chunk of one, and
an experiment's p-values equal those of
:func:`~synthconf.inference.test_sharp_null` on each replication's panel,
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .estimators import EstimatorSpec, _fit_block
from .inference import PermutationScheme, Statistic, _check_level, _rank
from .panel import PanelData
from .solvers import _check_integer, _check_real

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

#: Each design's least number of controls, and its treated-unit weights over J controls.
_DESIGNS = {
    "DGP1": (1, lambda J: np.full(J, 1.0 / J)),
    "DGP2": (3, lambda J: np.r_[np.full(3, 1.0 / 3.0), np.zeros(J - 3)]),
    "DGP3": (1, lambda J: np.full(J, -1.0 / J)),
    "DGP4": (2, lambda J: np.r_[1.0, -1.0, np.zeros(J - 2)]),
}

#: Doubles in the outcome block of one chunk of replications (1 MiB).  It
#: bounds memory, not work: a chunk holds ``2**17 // (T * (1 + J))`` panels.
_CHUNK_DOUBLES = 2**17


@dataclass(frozen=True)
class DgpSpec:
    """Simulation design for one experiment.

    ``weights_kind`` selects how the treated unit loads on the controls:
    equal weights (DGP1, the difference-in-differences case), a sparse
    simplex vector (DGP2, the synthetic-control case), negated equal
    weights (DGP3, feasible only for the l1-constrained model), and a
    +1/-1 contrast (DGP4, outside every fitted model class).
    ``alpha_true`` is the effect added to the single post-treatment period.
    ``t0``, ``n_controls`` and ``seed`` must be integers (numpy integers
    too, but not bools), ``seed`` at least 0; ``rho_u``, ``rho_eps`` and
    ``alpha_true`` real numbers (not bools), ``alpha_true`` finite; any
    other value raises ``ValueError``.
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
        _check_integer("t0", self.t0, 2)
        _check_integer("n_controls", self.n_controls)  # dgp_weights checks its least value
        _check_integer("seed", self.seed, 0)
        _check_real("alpha_true", self.alpha_true)
        if not math.isfinite(self.alpha_true):
            raise ValueError(f"alpha_true must be finite; got {self.alpha_true}")
        for name, rho in (("rho_u", self.rho_u), ("rho_eps", self.rho_eps)):
            _check_real(name, rho)
            if not 0.0 <= rho < 1.0:
                raise ValueError(f"{name} must lie in [0, 1); got {rho}")
        dgp_weights(self.weights_kind, self.n_controls)  # validates the design and n_controls
        if self.factor_trend not in ("stationary", "trending"):
            raise ValueError(f"unknown trend {self.factor_trend!r}; expected 'stationary' or 'trending'")


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


def dgp_weights(kind: str, n_controls: int) -> np.ndarray:
    """Treated-unit weight vector over the controls for each design.

    Raises ``ValueError`` for a design not in ``_DESIGNS`` or too few controls.
    """
    if kind not in _DESIGNS:
        raise ValueError(f"unknown design {kind!r}; expected one of {', '.join(_DESIGNS)}")
    least, weights = _DESIGNS[kind]
    if n_controls < least:
        raise ValueError(f"{kind} needs at least {least} control(s); got {n_controls}")
    return weights(n_controls)


def _recur(path: np.ndarray, state: np.ndarray, rho: float | np.ndarray) -> np.ndarray:
    """AR(1) recurrence along axis 0, in place: ``x_t = rho * x_(t-1) + e_t``.

    ``path`` (T, ...) holds the innovations ``e_t`` and ``state`` (...) the
    values before the first period; ``rho`` is a scalar or broadcasts
    against ``state``.
    """
    for row in path:
        row += rho * state
        state = row
    return path


def _simulate(spec: DgpSpec, rngs: Sequence[np.random.Generator], block: np.ndarray,
              scratch: np.ndarray, iid_controls: bool = False) -> np.ndarray:
    """Fill ``block`` (T, B, 1 + J) with one panel per generator, the treated unit first.

    The block is time-major: period ``t`` of all B panels is one contiguous
    row, so each step of the AR(1) recurrences runs over one row, and panel
    ``b`` is the strided view ``block[:, b]``.  Each replication draws from
    its own generator, in this order: the factors, the time effect, the
    noise innovations and starts, then the shock innovations and start.
    ``iid_controls`` draws standard normal controls instead of the first
    four (the design of :func:`reproduce_figure_null_vs_pre`).  The noise
    innovations are scaled by ``sqrt(1 - rho^2)`` as they are stored, the
    shock's in one pass over column 0; the AR(1) paths, control sums and
    weighted treated outcomes are then computed in the outcome block
    itself.  ``scratch`` (2, T, J, C-contiguous, see
    :func:`_scratch`) takes one panel's control draws and factor terms, so a
    panel allocates no (T, J) array.  ``spec.alpha_true`` is left for the
    caller to add.
    """
    n_periods, n_reps, J = block.shape[0], block.shape[1], spec.n_controls
    factors, time_effect = np.empty((n_reps, n_periods)), np.empty((n_reps, n_periods))
    starts = np.empty((n_reps, 1 + J))  # AR(1) starts: the shock's, then each noise's
    draws, term = scratch
    # Innovation variance 1 - rho^2 makes every marginal N(0, 1).  A process
    # with rho = 0 is its innovations, so it is neither scaled nor run
    # through the recurrence: for finite draws, x * 1.0 and x + 0 * y are x.
    rho_u, rho_eps = spec.rho_u, 0.0 if iid_controls else spec.rho_eps
    scale_eps = np.sqrt(1.0 - rho_eps**2)
    for b, rng in enumerate(rngs):
        if not iid_controls:
            factors[b] = rng.standard_normal(n_periods)
            time_effect[b] = rng.standard_normal(n_periods)
        if rho_eps:  # scaled as stored: a pass over the strided controls costs more
            np.multiply(rng.standard_normal(out=draws), scale_eps, out=block[:, b, 1:])
        else:
            block[:, b, 1:] = rng.standard_normal(out=draws)
        if not iid_controls:
            starts[b, 1:] = rng.standard_normal(J)
        block[:, b, 0] = rng.standard_normal(n_periods)  # shock innovations, later the treated outcome
        starts[b, 0] = rng.standard_normal()
    if rho_u:
        block[:, :, 0] *= np.sqrt(1.0 - rho_u**2)

    # One recurrence runs the shock in column 0 and the noise in the others,
    # leaving out a process whose rho is 0; rho is an array only where the
    # two processes move at different rates.
    if rho_u or rho_eps:
        cols = slice(0 if rho_u else 1, 1 + J if rho_eps else 1)
        rho = rho_u or rho_eps
        if rho_u and rho_eps and rho_u != rho_eps:
            rho = np.full(1 + J, rho_eps)
            rho[0] = rho_u
        _recur(block[:, :, cols], starts[:, cols], rho)
    if not iid_controls:
        if spec.factor_trend == "trending":
            factors += np.arange(1, n_periods + 1)
        unit_effect = np.arange(1, J + 1) / J  # also the factor loadings
        for b in range(n_reps):
            # unit_effect + time_effect + unit_effect * factors, summed in that order
            np.add(unit_effect, time_effect[b][:, None], out=draws)
            np.multiply(unit_effect, factors[b][:, None], out=term)
            block[:, b, 1:] += np.add(draws, term, out=draws)
    weights = dgp_weights(spec.weights_kind, J)
    for b in range(n_reps):
        block[:, b, 0] += block[:, b, 1:] @ weights
    return block


def _scratch(spec: DgpSpec) -> np.ndarray:
    """The scratch of :func:`_simulate`: two (T, J) arrays, allocated once per experiment."""
    return np.empty((2, spec.t0 + 1, spec.n_controls))


def _chunks(spec: DgpSpec, seeds: Sequence[np.random.SeedSequence], iid_controls: bool = False):
    """Outcome blocks of :func:`_simulate` for consecutive chunks of the replication seeds.

    A chunk holds as many panels as fit in ``_CHUNK_DOUBLES``, and at least
    one.  Every chunk is simulated into the same time-major memory, with the
    same scratch, so a caller is done with one block when it asks for the
    next.  Each is yielded as the panel-major view (B, T, 1 + J), so
    ``block[b]`` is panel ``b``, with strided rows and unit column stride.
    """
    size = max(1, _CHUNK_DOUBLES // ((spec.t0 + 1) * (spec.n_controls + 1)))
    block = np.empty((spec.t0 + 1, min(size, len(seeds)), spec.n_controls + 1))
    scratch = _scratch(spec)
    for first in range(0, len(seeds), size):
        rngs = [np.random.default_rng(seq) for seq in seeds[first:first + size]]
        yield _simulate(spec, rngs, block[:, :len(rngs)], scratch, iid_controls).transpose(1, 0, 2)


def simulate_panel(spec: DgpSpec, rng: np.random.Generator | None = None) -> PanelData:
    """Draw one panel from the design; ``T = t0 + 1`` with a single post period."""
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    block = _simulate(spec, [rng], np.empty((spec.t0 + 1, 1, spec.n_controls + 1)), _scratch(spec))
    outcomes = block[:, 0]
    outcomes[spec.t0, 0] += spec.alpha_true
    return PanelData(outcomes=outcomes, t0=spec.t0)


def _pvalues(block: np.ndarray, t0: int, estimator: EstimatorSpec, scheme: PermutationScheme,
             statistic: Statistic) -> np.ndarray:
    """Zero-effect p-values of the panels of an outcome block.

    They are those of :func:`~synthconf.inference.test_sharp_null`.
    :func:`~synthconf.estimators._fit_block` fits each panel's residual row,
    with no panel object, fit or report per replication, and all rows are
    then ranked in one permutation pass.
    """
    fitted = _fit_block(block, None, estimator)
    return _rank(fitted.residuals.reshape(-1, fitted.n_fitted), scheme, statistic, fitted.post_slice(t0))[1]


def _experiments(dgp: DgpSpec, effects: Sequence[float], estimator: EstimatorSpec,
                 scheme: PermutationScheme | None, n_reps: int, level: float,
                 keep_pvalues: bool) -> list[ExperimentResult]:
    """One result per effect, for ``dgp`` with that ``alpha_true``.

    Every effect sees the same replications: each chunk is simulated once,
    and each effect is added to its post-period treated entries as
    :func:`simulate_panel` adds it.  Each effect's design is built, and so
    validated, before the first replication, and ``estimator`` must be an
    :class:`EstimatorSpec`: the replications are fitted as blocks of its
    kind's array core, which a callable estimator does not have.
    """
    if not isinstance(estimator, EstimatorSpec):
        raise TypeError(f"Monte Carlo needs an EstimatorSpec, not {type(estimator).__name__} {estimator!r}")
    _check_integer("n_reps", n_reps, 1)
    _check_level(level)
    designs = [replace(dgp, alpha_true=effect) for effect in effects]
    scheme = scheme or PermutationScheme.moving_block()
    statistic = Statistic()
    pvals = np.empty((len(effects), n_reps))
    done = 0
    for block in _chunks(dgp, np.random.SeedSequence(dgp.seed).spawn(n_reps)):
        post = block[:, dgp.t0, 0].copy()
        for row, effect in zip(pvals, effects):
            block[:, dgp.t0, 0] = post + effect
            row[done:done + len(block)] = _pvalues(block, dgp.t0, estimator, scheme, statistic)
        done += len(block)
    return [
        ExperimentResult(
            rejection_rate=float((p <= level).mean()),
            n_reps=n_reps,
            dgp=design,
            estimator_id=estimator.label,
            scheme_kind=scheme.kind,
            level=level,
            p_values=p if keep_pvalues else None,
        )
        for p, design in zip(pvals, designs)
    ]


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
    measures power.  Replication seeds are spawned from ``dgp.seed``, and
    the p-values are those of :func:`~synthconf.inference.test_sharp_null`
    on :func:`simulate_panel` with each seed's generator, whatever the
    chunking: every panel of a chunk is ranked through
    :func:`~synthconf.inference._rank` with the default ``S_1`` statistic.
    Raises ``ValueError`` unless ``n_reps`` is an integer of at least 1
    (a float or a bool is refused) and ``level`` lies in ``(0, 1)``, and
    ``TypeError`` unless ``estimator`` is an :class:`EstimatorSpec`.
    """
    (result,) = _experiments(dgp, [dgp.alpha_true], estimator, scheme, n_reps, level, keep_pvalues)
    return result


def run_power_curve(
    dgp: DgpSpec,
    estimator: EstimatorSpec,
    scheme: PermutationScheme | None = None,
    alpha_grid: Sequence[float] = (0.0, 1.0, 2.0, 3.0, 4.0),
    n_reps: int = 5000,
    level: float = 0.1,
) -> list[ExperimentResult]:
    """Rejection rates along a grid of true effects (same seeds at every point).

    The panels are drawn once and every effect is added to them, so the
    entry for ``a`` equals :func:`run_size_experiment` with
    ``alpha_true = a`` exactly.
    """
    return _experiments(dgp, [float(a) for a in alpha_grid], estimator, scheme, n_reps, level, False)


def oracle_power_bound(dgp: DgpSpec, alpha_grid: Sequence[float], level: float = 0.1) -> np.ndarray:
    """Power of the infeasible test that observes the post-period shock.

    The designs give the shock a standard normal marginal, so the best
    test of a zero effect rejects when ``|u_T + alpha_true|`` exceeds the
    ``1 - level`` quantile of ``|N(0, 1)|``; its power is evaluated with
    the normal distribution function.  At ``alpha_true = 0`` the bound
    equals the nominal level exactly.  A non-finite effect is refused.
    """
    _check_level(level)
    a = np.asarray(alpha_grid, dtype=float)
    for effect in a.flat:
        replace(dgp, alpha_true=float(effect))  # DgpSpec refuses a non-finite effect
    normal = NormalDist()
    z = normal.inv_cdf(1.0 - level / 2.0)
    cdf = np.vectorize(normal.cdf, otypes=[float])
    return cdf(a - z) + cdf(-a - z)


def _pre_only_residuals(outcomes: np.ndarray, t0: int) -> np.ndarray:
    """Residuals of synthetic-control weights fitted on pre-treatment rows only.

    This is the comparison baseline: residuals over the full sample come
    from weights fitted to periods ``1..t0``.  It deliberately skips
    estimation on the adjusted full sample.
    """
    pre = outcomes[:t0]
    w = _fit_block(pre, None, EstimatorSpec.sc(), pre[:, :1]).params(0)["weights"]
    return outcomes[:, 0] - outcomes[:, 1:] @ w


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
    Raises ``ValueError`` unless ``seed`` is an integer of at least 0,
    ``n_reps`` an integer of at least 1 and ``level`` lies in ``(0, 1)``.
    """
    _check_integer("seed", seed, 0)
    _check_integer("n_reps", n_reps, 1)
    _check_level(level)
    estimator = EstimatorSpec.sc()
    scheme = PermutationScheme.moving_block()
    statistic = Statistic()
    rows = []
    for rho in rho_grid:
        design = DgpSpec(t0, n_controls, rho_u=rho, weights_kind="DGP2")
        seeds = np.random.SeedSequence((seed, int(round(1000 * rho)))).spawn(n_reps)
        reject_null = 0
        reject_pre = 0
        for block in _chunks(design, seeds, iid_controls=True):
            reject_null += int((_pvalues(block, t0, estimator, scheme, statistic) <= level).sum())
            pre = np.array([_pre_only_residuals(outcomes, t0) for outcomes in block])
            reject_pre += int((_rank(pre, scheme, statistic, slice(t0, None))[1] <= level).sum())
        rows.append(
            {"rho_u": float(rho), "mode": "under_null", "rejection_rate": reject_null / n_reps,
             "n_reps": n_reps, "t0": t0, "n_controls": n_controls}
        )
        rows.append(
            {"rho_u": float(rho), "mode": "pre_only", "rejection_rate": reject_pre / n_reps,
             "n_reps": n_reps, "t0": t0, "n_controls": n_controls}
        )
    return rows
