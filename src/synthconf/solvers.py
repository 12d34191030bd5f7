"""Constrained and penalized least-squares machinery shared by the estimators.

Everything here is deterministic and pure: Euclidean projections onto the
unit simplex, the l1 ball and the nuclear-norm ball, an exact active-set
method for least squares over the simplex (with free columns), cyclic
coordinate descent for separable penalties with an exact active-set
finish, principal components,
alternating least squares for factor-plus-regression models, and ordinary
least squares via the normal equations.  Problems in this package are small
and dense, so exactness is preferred over speed everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, NumericalError, RankDeficiencyError

__all__ = [
    "SolverConfig",
    "SolveReport",
    "LassoPenalty",
    "ElasticNetPenalty",
    "project_simplex",
    "project_l1_ball",
    "project_nuclear_ball",
    "simplex_ls",
    "coordinate_descent_penalized",
    "pca_factors",
    "alternating_ls",
    "ols",
]

#: Condition-number ceiling above which normal equations are refused.
MAX_CONDITION = 1e12

#: Coordinate-descent sweeps between attempts of the exact active-set step.
_EXACT_EVERY = 3

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls shared by the iterative solvers.

    ``tol`` is interpreted relative to the natural scale of each problem:
    the simplex active-set method stops once its unit-free duality gap
    (see :func:`simplex_ls`) is at most ``tol``, coordinate descent once
    the largest per-coordinate subgradient violation is at most
    ``tol * (1 + 2 ||Xc'yc||_inf)`` on the centred data ``Xc``, ``yc``, and
    alternating least squares once the relative objective decrease falls
    below ``tol``.  Every solver has one step rule; only the iteration cap
    and the tolerance are set here.
    """

    max_iters: int = 10_000
    tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1; got {self.max_iters}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive; got {self.tol}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solver run.

    ``converged`` is True only when ``kkt_residual`` met the documented
    threshold for the routine that produced the report.  ``iterations``
    counts the routine's own steps (active-set steps, sweeps, alternations)
    and ``note`` names the method or how the solve ended.  Alternating
    least squares keeps its objective trace (one value per iteration) for
    monotonicity diagnostics.
    """

    iterations: int
    final_objective: float
    converged: bool
    kkt_residual: float
    objective_trace: tuple = ()
    note: str = ""


@dataclass(frozen=True)
class LassoPenalty:
    """l1 penalty ``lam * ||w||_1``."""

    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0; got {self.lam}")

    @property
    def l1(self) -> float:
        return self.lam

    @property
    def l2(self) -> float:
        return 0.0

    def value(self, w: np.ndarray) -> float:
        return self.lam * np.abs(w).sum()


@dataclass(frozen=True)
class ElasticNetPenalty:
    """Mixed penalty ``lam * ((1 - alpha) * ||w||_2^2 + alpha * ||w||_1)``."""

    lam: float
    alpha: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0; got {self.lam}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1]; got {self.alpha}")

    @property
    def l1(self) -> float:
        return self.lam * self.alpha

    @property
    def l2(self) -> float:
        return self.lam * (1.0 - self.alpha)

    def value(self, w: np.ndarray) -> float:
        return self.l2 * float(w @ w) + self.l1 * np.abs(w).sum()


def _l1_threshold(magnitudes: np.ndarray, radius: float) -> float:
    """Water-filling threshold theta with sum(max(magnitudes - theta, 0)) = radius.

    Assumes ``sum(magnitudes) > radius``.  Stable sort keeps tied entries in
    original order so results are bit-for-bit reproducible.
    """
    u = np.sort(magnitudes, kind="stable")[::-1]
    css = np.cumsum(u) - radius
    idx = np.arange(1, u.shape[0] + 1)
    rho = np.nonzero(u * idx > css)[0][-1]
    return css[rho] / (rho + 1.0)


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the unit simplex {w >= 0, sum(w) = 1}."""
    v = np.asarray(v, dtype=float)
    theta = _l1_threshold(v, 1.0)
    return np.maximum(v - theta, 0.0)


def project_l1_ball(v, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball {w : ||w||_1 <= radius}."""
    if not radius > 0:
        raise ValueError(f"radius must be positive; got {radius}")
    v = np.asarray(v, dtype=float)
    mags = np.abs(v)
    if mags.sum() <= radius:
        return v.copy()
    theta = _l1_threshold(mags, radius)
    return np.sign(v) * np.maximum(mags - theta, 0.0)


def project_nuclear_ball(a, radius: float) -> np.ndarray:
    """Euclidean projection onto {A : nuclear norm of A <= radius}.

    Computed by projecting the singular values onto the l1 ball and
    reassembling the matrix.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive; got {radius}")
    a = np.asarray(a, dtype=float)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        fro = float(np.linalg.norm(a))
        raise NumericalError(
            f"SVD failed on a {a.shape[0]}x{a.shape[1]} matrix "
            f"(Frobenius norm {fro:.3e}, max entry {np.abs(a).max():.3e})"
        ) from exc
    if s.sum() <= radius:
        return a.copy()
    theta = _l1_threshold(s, radius)
    s_proj = np.maximum(s - theta, 0.0)
    return (u * s_proj) @ vt


def _centre(X, y):
    """``(Xc, yc, x_mean, y_mean)``: the data less their column means.

    A column that does not vary is set to exactly zero.  Centring leaves
    rounding noise in it, which must not count as variation: a solver
    would fit that noise with a coefficient of order 1e16.
    """
    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    xc = X - x_mean
    flat = np.abs(xc).max(axis=0, initial=0.0) <= X.shape[0] * _EPS * np.abs(X).max(axis=0, initial=0.0)
    xc[:, flat] = 0.0
    return xc, y - y_mean, x_mean, y_mean


def _step_to_first_zero(x, d, bound, limit):
    """Move ``x`` along ``d`` by at most ``limit`` times ``d``, stopping where a
    ``bound`` entry first reaches zero.

    Returns ``(point, k)``: ``k`` is the entry set to zero, or None if the
    full step was taken.  No ``bound`` entry changes sign.
    """
    toward = np.flatnonzero(bound & (x * d < 0.0))
    ratios = -x[toward] / d[toward]
    if ratios.size and ratios.min() < limit:
        k = int(toward[ratios.argmin()])
        moved = x + ratios.min() * d
        moved[k] = 0.0
    elif np.isfinite(limit):
        k = None
        moved = x + limit * d
    else:
        return x, None
    moved[bound & (moved * x < 0.0)] = 0.0
    return moved, k


def simplex_ls(X, y, n_constrained: int, cfg: SolverConfig = SolverConfig()):
    """Minimize ||y - X w||_2^2 subject to w[:m] >= 0 and sum(w[:m]) = 1.

    ``m`` is ``n_constrained``; the columns after the first ``m`` are free.

    The free coefficients are a least-squares fit to whatever the
    constrained part leaves over, so their span is projected out of ``X``
    and ``y`` first (an SVD with the rank cut-off of ``numpy.linalg.lstsq``,
    which also copes with collinear free columns).  What is left is solved
    by a primal active-set method on the Gram matrix: NNLS of Lawson and
    Hanson (1974, ch. 23) with a sum-to-one row.  It starts at the best
    vertex.  Each step solves the equality-constrained KKT system on the
    support; when the solution leaves the simplex the iterate moves toward
    it up to the first weight that reaches zero, which is dropped, else the
    solution is taken and the coordinate with the largest gradient
    violation joins (the first of tied ones).  A joining column is never
    an affine combination of the support (it would have no violation), so
    the KKT system stays nonsingular in exact arithmetic; ``lstsq`` stands
    in if rounding makes it singular.

    Returns
    -------
    (w, report) : (ndarray, SolveReport)
        The certificate is the Frank-Wolfe duality gap
        ``max_j r_j - w'r`` of the constrained columns, ``r = X'(y - X w)``
        on the projected data, which bounds the excess objective by twice
        itself.  ``report.kkt_residual`` is the gap over
        ``c (||y|| + c)``, where ``c`` is the largest projected column norm,
        so it has no units: scaling ``X`` and ``y`` together changes
        neither it nor the steps.  Convergence is declared when it is at
        most ``cfg.tol``.  ``report.iterations`` counts KKT solves.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DimensionError(f"design {X.shape} and response {y.shape} are incompatible")
    m = n_constrained
    if not 1 <= m <= X.shape[1]:
        raise DimensionError(f"n_constrained must lie in 1..{X.shape[1]}; got {n_constrained}")
    head, target = X[:, :m], y
    if m < X.shape[1]:
        u, s, vt = np.linalg.svd(X[:, m:], full_matrices=False)
        rank = int((s > max(X.shape[0], X.shape[1] - m) * _EPS * s.max(initial=0.0)).sum())
        u, s, vt = u[:, :rank], s[:rank], vt[:rank]
        head = head - u @ (u.T @ head)
        target = y - u @ (u.T @ y)
    gram = head.T @ head
    xty = head.T @ target
    col_max = float(np.sqrt(np.diag(gram).max()))
    scale = col_max * (float(np.linalg.norm(target)) + col_max)
    # The sum-to-one row is scaled like the Gram matrix, which keeps the
    # KKT system balanced in any units.
    pad = col_max**2

    def solve_on(support):
        n = support.size
        system = np.empty((n + 1, n + 1))
        system[:n, :n] = gram[np.ix_(support, support)]
        system[:n, n] = system[n, :n] = pad
        system[n, n] = 0.0
        rhs = np.append(xty[support], pad)
        try:
            return np.linalg.solve(system, rhs)[:n]
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(system, rhs, rcond=None)[0][:n]

    support = np.array([int(np.argmin(np.diag(gram) - 2.0 * xty))])
    w_s = np.ones(1)
    r = xty - gram[:, support] @ w_s
    gap = float(r.max() - w_s @ r[support])
    steps = 0
    while gap > cfg.tol * scale and steps < cfg.max_iters:
        joining = int(np.argmax(r))
        if (support == joining).any():
            break  # the gap is rounding on the support itself
        support = np.append(support, joining)
        w_s = np.append(w_s, 0.0)
        while steps < cfg.max_iters:
            steps += 1
            z = solve_on(support)
            if (z > 0.0).all():
                w_s = z
                break
            w_s, _ = _step_to_first_zero(w_s, z - w_s, np.ones(z.size, dtype=bool), 1.0)
            keep = w_s > 0.0
            support, w_s = support[keep], w_s[keep]
        r = xty - gram[:, support] @ w_s
        gap = float(r.max() - w_s @ r[support])

    w = np.zeros(X.shape[1])
    w[support] = w_s
    if m < X.shape[1]:
        w[m:] = vt.T @ ((u.T @ (y - X[:, :m] @ w[:m])) / s)
    resid = y - X @ w
    report = SolveReport(
        iterations=steps,
        final_objective=float(resid @ resid),
        converged=gap <= cfg.tol * scale,
        kkt_residual=max(gap, 0.0) / scale if scale > 0 else 0.0,
        note="simplex active set",
    )
    return w, report


def coordinate_descent_penalized(
    X,
    y,
    penalty,
    cfg: SolverConfig = SolverConfig(),
    penalty_weights=None,
):
    """Minimize sum((y - mu - X w)^2) + P(w) by cyclic coordinate descent.

    The intercept ``mu`` is unpenalized and handled by centering.
    ``penalty`` is a :class:`LassoPenalty` or :class:`ElasticNetPenalty`;
    ``penalty_weights`` optionally scales the penalty per column (0 leaves
    a column unpenalized).

    The sweeps run on the centred Gram matrix ``G = Xc'Xc`` and ``c = Xc'yc``,
    formed once: the gradient ``c - G w`` is kept up to date with one row of
    ``G`` per changed coordinate (the covariance updates of Friedman, Hastie
    and Tibshirani 2010), so a sweep costs O(p) per changed coordinate
    whatever the number of rows.

    Every few sweeps an exact step is tried on the current support ``A``
    (plus every column without an l1 penalty) and signs ``s``: it solves
    ``(G_AA + diag(l2_A)) w_A = c_A - (l1_A / 2) s`` and ends the solve if
    the solution keeps the signs ``s`` and meets the stopping bound below.
    Otherwise the sweeps go on from the iterate moved toward that solution
    up to the first coefficient that reaches zero, which lowers the
    objective.  When ``G_AA + diag(l2_A)`` is singular (a lasso support on
    more columns than there are rows), the step first moves along its null
    space, where the fit stays fixed, to lower the l1 norm, dropping one
    coefficient at a time until the matrix has full rank.  Constant columns
    keep a zero coefficient.

    Returns
    -------
    (intercept, w, report)
        ``report.kkt_residual`` is the largest per-coordinate subgradient
        violation of the stationarity conditions; convergence is declared
        when it is at most ``cfg.tol * (1 + 2 ||Xc'yc||_inf)``.
        ``report.iterations`` counts sweeps, and ``report.note`` says when the
        exact step ended the solve.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DimensionError(f"design {X.shape} and response {y.shape} are incompatible")
    p = X.shape[1]
    weights = np.ones(p) if penalty_weights is None else np.asarray(penalty_weights, dtype=float)
    if weights.shape != (p,):
        raise DimensionError("penalty_weights must have one entry per column")

    xc, yc, x_mean, y_mean = _centre(X, y)
    gram = xc.T @ xc
    xty = xc.T @ yc
    col_sq = np.diag(gram).copy()
    l1 = penalty.l1 * weights
    l2 = penalty.l2 * weights
    kkt_scale = cfg.tol * (1.0 + 2.0 * float(np.abs(xty).max(initial=0.0)))
    # Constant columns never leave zero.
    varies = xc.any(axis=0)
    live = np.flatnonzero(varies).tolist()
    # Columns with no l1 penalty always join the exact step's support.
    smooth = (l1 == 0.0) & varies

    def kkt_residual(w, grad):
        g = -2.0 * grad + 2.0 * l2 * w
        viol = np.where(
            w != 0.0,
            np.abs(g + l1 * np.sign(w)),
            np.maximum(np.abs(g) - l1, 0.0),
        )
        return float(viol.max(initial=0.0))

    def objective(w):
        """The objective up to the constant ``yc'yc``."""
        return float(w @ (gram @ w)) - 2.0 * float(xty @ w) + float(l2 @ (w * w)) + float(l1 @ np.abs(w))

    def active_set_step(w):
        """Exact solution on the support and signs of ``w``, or a better point.

        Returns ``(point, kkt)``: the solution with its KKT residual when it
        keeps the signs and meets the stopping bound, else a point whose
        objective is no larger than at ``w`` (or None) with ``kkt=inf``.
        """
        support = np.flatnonzero((w != 0.0) | smooth)
        w_a = w[support]
        signs = np.sign(w_a)
        bound = l1[support] > 0.0
        # G_AA + diag(l2_A) is singular only on columns without an l2 penalty.
        unridged = np.flatnonzero(l2[support] == 0.0)
        evals, evecs = np.linalg.eigh(gram[np.ix_(support[unridged], support[unridged])])
        null_unridged = evecs[:, evals <= evals.max(initial=0.0) * evals.size * _EPS]
        null = np.zeros((support.size, null_unridged.shape[1]))
        null[unridged] = null_unridged
        # Along a null direction the fit is fixed and the l1 term linear, so
        # moving against the l1 gradient lowers the objective until a
        # coordinate reaches zero; drop it and go on until the support has
        # full rank (a lasso support on more columns than rows).
        while null.shape[1]:
            d = -(null @ (null.T @ (l1[support] * signs)))
            if np.abs(d).max() <= support.size * _EPS * l1[support].max():
                break  # the objective is flat on what is left of the null space
            w_a, k = _step_to_first_zero(w_a, d, bound, np.inf)
            if k is None:
                return None, np.inf
            q, _ = np.linalg.qr(null[k][:, None], mode="complete")
            null = np.delete(null @ q[:, 1:], k, axis=0)
            support, w_a, signs, bound = (np.delete(a, k) for a in (support, w_a, signs, bound))
        system = gram[np.ix_(support, support)] + np.diag(l2[support])
        rhs = xty[support] - 0.5 * l1[support] * signs
        try:
            # Along flat directions every solution is as good: take the
            # least-norm one, so collinear unpenalized columns stay bounded.
            exact = np.linalg.lstsq(system, rhs, rcond=None)[0] if null.shape[1] else np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            return None, np.inf
        candidate = np.zeros(p)
        if np.all((np.sign(exact) == signs) | ~bound):
            candidate[support] = exact
            kkt = kkt_residual(candidate, xty - gram @ candidate)
            if kkt <= kkt_scale:
                return candidate, kkt
        # On these signs the objective is a convex quadratic minimized at
        # ``exact``, so it falls along the way there while no sign changes.
        candidate[support], _ = _step_to_first_zero(w_a, exact - w_a, bound, 1.0)
        return (candidate if objective(candidate) <= objective(w) else None), np.inf

    # The sweep reads and writes Python floats; only the gradient update
    # is a numpy row operation.
    rows = list(gram)
    thresholds = (l1 / 2.0).tolist()
    diag = col_sq.tolist()
    denominators = (col_sq + l2).tolist()
    coefs = [0.0] * p
    grad = xty.copy()
    converged = False
    note = ""
    for iterations in range(1, cfg.max_iters + 1):
        for j in live:
            old = coefs[j]
            z = grad.item(j) + diag[j] * old
            thr = thresholds[j]
            if z > thr:
                new = (z - thr) / denominators[j]
            elif z < -thr:
                new = (z + thr) / denominators[j]
            else:
                new = 0.0
            if new != old:
                coefs[j] = new
                grad -= rows[j] * (new - old)
        w = np.array(coefs)
        grad = xty - gram @ w
        kkt = kkt_residual(w, grad)
        if kkt <= kkt_scale:
            converged = True
            break
        if iterations % _EXACT_EVERY == 0:
            candidate, candidate_kkt = active_set_step(w)
            if candidate_kkt <= kkt_scale:
                w, kkt = candidate, candidate_kkt
                converged = True
                note = f"ended by the exact active-set step after {iterations} sweeps"
                break
            if candidate is not None:
                w = candidate
                coefs = w.tolist()
                grad = xty - gram @ w

    intercept = y_mean - float(x_mean @ w)
    r = yc - xc @ w
    penalty_value = float(l2 @ (w**2)) + float(l1 @ np.abs(w))
    report = SolveReport(
        iterations=iterations,
        final_objective=float(r @ r) + penalty_value,
        converged=converged,
        kkt_residual=kkt,
        note=note,
    )
    return intercept, w, report


def pca_factors(Y, k: int):
    """Principal-component factors and loadings of a T x N outcome matrix.

    The factor matrix ``F`` (T x k) collects the eigenvectors of ``Y Y'``
    for the k largest eigenvalues, scaled so that ``F'F / T = I_k``; the
    loadings are ``L = Y'F / T``.  Each factor column has its
    largest-magnitude entry made positive so traces are reproducible (the
    fitted values ``F L'`` are invariant to the sign choice).
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise DimensionError(f"Y must be 2-D; got shape {Y.shape}")
    n_periods, n_units = Y.shape
    if not 1 <= k <= min(n_periods, n_units):
        raise DimensionError(
            f"number of factors k={k} must lie in 1..min(T, N)={min(n_periods, n_units)}"
        )
    try:
        u, _, _ = np.linalg.svd(Y, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition failed on a {n_periods}x{n_units} outcome matrix"
        ) from exc
    factors = np.sqrt(n_periods) * u[:, :k]
    flip = np.sign(factors[np.abs(factors).argmax(axis=0), np.arange(k)])
    flip[flip == 0] = 1.0
    factors = factors * flip
    loadings = Y.T @ factors / n_periods
    return factors, loadings


def alternating_ls(Y, X, k: int, cfg: SolverConfig = SolverConfig()):
    """Alternating least squares for the factor-plus-regression model.

    Minimizes ``||Y - X beta - F L'||_F^2`` subject to ``F'F/T = I_k``
    by alternating (i) ``beta`` given the factor structure (pooled OLS on
    the residualized data) and (ii) ``(F, L)`` given ``beta`` (principal
    components of ``Y - X beta``).  Each half step solves its subproblem
    exactly, so the objective is nonincreasing across iterations.

    Parameters
    ----------
    Y : ndarray of shape (T, N)
    X : ndarray of shape (T, N, k_x)
    k : int
    cfg : SolverConfig

    Returns
    -------
    (F, L, beta, report)
    """
    Y = np.asarray(Y, dtype=float)
    X = np.asarray(X, dtype=float)
    n_periods, n_units = Y.shape
    if X.ndim != 3 or X.shape[:2] != (n_periods, n_units):
        raise DimensionError(
            f"covariates must have shape (T, N, k_x); got {X.shape} for a "
            f"{n_periods}x{n_units} outcome matrix"
        )
    design = X.reshape(n_periods * n_units, X.shape[2])

    beta = np.zeros(X.shape[2])
    factors, loadings = pca_factors(Y, k)
    trace = []
    prev = np.inf
    converged = False
    rel_drop = np.inf
    for iteration in range(1, cfg.max_iters + 1):
        target = (Y - factors @ loadings.T).reshape(-1)
        beta, *_ = np.linalg.lstsq(design, target, rcond=None)
        residualized = Y - (design @ beta).reshape(n_periods, n_units)
        factors, loadings = pca_factors(residualized, k)
        f = float(((residualized - factors @ loadings.T) ** 2).sum())
        trace.append(f)
        rel_drop = (prev - f) / max(1.0, abs(prev)) if np.isfinite(prev) else np.inf
        if np.isfinite(prev) and rel_drop <= cfg.tol:
            converged = True
            break
        prev = f
    report = SolveReport(
        iterations=len(trace),
        final_objective=trace[-1],
        converged=converged,
        kkt_residual=max(rel_drop, 0.0) if np.isfinite(rel_drop) else np.inf,
        objective_trace=tuple(trace),
    )
    return factors, loadings, beta, report


def ols(X, y) -> np.ndarray:
    """Least-squares coefficients via the normal equations.

    Raises
    ------
    RankDeficiencyError
        If the Gram matrix has condition number above ``1e12``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DimensionError(f"design {X.shape} and response {y.shape} are incompatible")
    gram = X.T @ X
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise RankDeficiencyError(
            f"design is rank deficient: Gram condition number {cond:.3e} exceeds {MAX_CONDITION:.0e}"
        )
    return np.linalg.solve(gram, X.T @ y)
