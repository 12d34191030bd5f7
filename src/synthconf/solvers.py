"""Constrained and penalized least-squares machinery shared by the estimators.

Everything here is deterministic and pure: Euclidean projections onto the
unit simplex, the l1 ball and the nuclear-norm ball, one exact active-set
method that solves least squares over the simplex (with free columns) and
lasso / elastic-net least squares (on the signed split of the weights),
principal components, alternating least squares for factor-plus-regression
models, and ordinary least squares via the normal equations.  Problems in
this package are small and dense, so exactness is preferred over speed
everywhere.
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
    "penalized_ls",
    "pca_factors",
    "alternating_ls",
    "ols",
]

#: Condition-number ceiling above which normal equations are refused.
MAX_CONDITION = 1e12

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls shared by the iterative solvers.

    ``tol`` is interpreted relative to the natural scale of each problem.
    There is one certificate for ``sc``, ``classo``, lasso and elastic net:
    the active-set method stops once its gap over ``c (||y|| + c)``, ``c``
    the largest column norm, is at most ``tol`` (see :func:`simplex_ls` and
    :func:`penalized_ls`), which has no units.  Alternating least squares
    stops once the relative objective decrease falls below ``tol``.  Every
    solver has one step rule; only the iteration cap and the tolerance are
    set here.
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
    counts the routine's own steps (KKT solves, alternations)
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
class ElasticNetPenalty:
    """Mixed penalty ``lam * ((1 - alpha) * ||w||_2^2 + alpha * ||w||_1)``."""

    lam: float
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and >= 0; got {self.lam}")
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


def LassoPenalty(lam: float) -> ElasticNetPenalty:
    """l1 penalty ``lam * ||w||_1``: the elastic net at ``alpha = 1``."""
    return ElasticNetPenalty(lam, 1.0)


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


def _centre(X, ys):
    """``(Xc, ycs, x_mean, y_means)``: the data less their column means.

    ``ys`` is a sequence of responses, each centred on its own mean.  A
    column of ``X`` that does not vary is set to exactly zero.  Centring
    leaves rounding noise in it, which must not count as variation: a
    solver would fit that noise with a coefficient of order 1e16.
    """
    x_mean = X.mean(axis=0)
    xc = X - x_mean
    flat = np.abs(xc).max(axis=0, initial=0.0) <= X.shape[0] * _EPS * np.abs(X).max(axis=0, initial=0.0)
    xc[:, flat] = 0.0
    y_means = [float(y.mean()) for y in ys]
    return xc, [y - y_mean for y, y_mean in zip(ys, y_means)], x_mean, y_means


def _step_to_first_zero(x, d, limit):
    """``(x + t d, k)`` for the largest ``t <= limit`` at which no entry of ``x``
    has changed sign: ``k`` is the entry set to zero, or None if none is."""
    toward = np.flatnonzero(x * d < 0.0)
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
    moved[moved * x < 0.0] = 0.0
    return moved, k


def _project_free(head, free, ys):
    """Project the span of the free columns out of ``head`` and the responses ``ys``.

    The free coefficients are a least-squares fit to whatever the other
    columns leave over.  The span comes from an SVD with the rank cut-off
    of ``numpy.linalg.lstsq``, which copes with collinear free columns.
    Returns ``(gram, xty, scale, coefs)``: the Gram matrix of the projected
    ``head``, its product with each projected response (one column per
    response), each response's certificate scale ``c (||y|| + c)`` with
    ``c`` the largest projected column norm, and ``coefs(rest)``, the free
    coefficients that best fit ``rest``.  The design work is done once;
    each response gets the arithmetic it would get alone.
    """
    coefs = lambda rest: np.zeros(0)
    if free.shape[1]:
        u, s, vt = np.linalg.svd(free, full_matrices=False)
        rank = int((s > max(free.shape) * _EPS * s[0]).sum())
        u, s, vt = u[:, :rank], s[:rank], vt[:rank]
        head = head - u @ (u.T @ head)
        ys = [y - u @ (u.T @ y) for y in ys]
        coefs = lambda rest: vt.T @ ((u.T @ rest) / s)
    gram = head.T @ head
    col_max = float(np.sqrt(np.diag(gram).max(initial=0.0)))
    xty = np.empty((head.shape[1], len(ys)))
    scale = np.empty(len(ys))
    for g, y in enumerate(ys):
        xty[:, g] = head.T @ y
        scale[g] = col_max * (float(np.linalg.norm(y)) + col_max)
    return gram, xty, scale, coefs


def _solve(system, rhs):
    """``system \\ rhs``, by least squares if rounding made ``system`` singular."""
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(system, rhs, rcond=None)[0]


def _active_set(gram, lin, pad, support, w_s, scale, cfg):
    """Minimize ``v'Gv / 2 - lin'v`` over ``v >= 0`` from ``v[support] = w_s``.

    NNLS of Lawson and Hanson (1974, ch. 23) on the Gram matrix ``G``; with
    ``pad > 0`` the weights also sum to one, a KKT row scaled by ``pad``.
    The start is feasible: ``w_s > 0``, summing to one with that row.  The
    empty support, or one vertex with that row, is the solution on its
    support; any other start (say the solution of an earlier problem with
    the same ``G``) is first solved on its support as below, so a cold
    start takes the same steps whether or not warm starts exist.
    Each step solves the KKT system on the support.  If a weight of the
    solution is not positive, the iterate moves toward it until the first
    weight reaches zero and drops that one; else it takes the solution and
    the largest violation of ``r = lin - G v`` joins (the first of ties).
    A joining column is never an affine combination of the support, so with
    the sum-to-one row the system stays nonsingular.  Without it the column
    can lie in the span of the support (a lasso on more columns than rows;
    its Schur complement is at the rounding level).  Along ``(-a, 1)``, with
    ``a`` the column in terms of the support, the fit is fixed and the
    objective falls at rate ``r_j``: the iterate moves that way until a
    weight reaches zero, and that weight leaves.

    Returns ``(support, w_s, steps, converged, kkt)``.  ``steps`` counts KKT
    solves, ``kkt`` is the gap ``max r - v'r`` over ``scale``, and
    ``converged`` says the last solve was completed and ``kkt <= cfg.tol``.
    """
    border = int(pad > 0)  # the sum-to-one row, if any

    def solve_on(support):
        n = support.size
        system = np.zeros((n + border, n + border))
        system[:n, :n] = gram[support[:, None], support]
        system[:n, n:] = system[n:, :n] = pad
        rhs = np.empty(n + border)
        rhs[:n] = lin[support]
        rhs[n:] = pad
        return _solve(system, rhs)[:n]

    limit = cfg.tol * scale
    steps = 0
    solved = support.size <= border
    while True:
        while not solved and steps < cfg.max_iters:
            steps += 1
            z = solve_on(support)
            solved = bool((z > 0.0).all())
            if solved:
                w_s = z
            else:
                w_s, _ = _step_to_first_zero(w_s, z - w_s, 1.0)
                keep = w_s > 0.0
                support, w_s = support[keep], w_s[keep]
        r = lin - gram[:, support] @ w_s
        gap = float(r.max(initial=-np.inf) - w_s @ r[support])
        if gap <= limit or steps >= cfg.max_iters:
            break
        joining = int(np.argmax(r))
        if (support == joining).any():
            break  # the gap is rounding on the support itself
        old = support
        support, w_s = np.append(support, joining), np.append(w_s, 0.0)
        if not pad and old.size:
            a = _solve(gram[np.ix_(old, old)], gram[old, joining])
            if gram[joining, joining] - gram[old, joining] @ a <= old.size * _EPS * gram[joining, joining]:
                w_s, k = _step_to_first_zero(w_s, np.append(-a, 1.0), np.inf)
                if k is None:
                    break  # no descent along the span: rounding
                support, w_s = np.delete(support, k), np.delete(w_s, k)
        solved = False
    kkt = max(gap, 0.0) / scale if scale > 0 else 0.0
    return support, w_s, steps, solved and gap <= limit, kkt


def _solve_columns(gram, lin, pad, scale, cfg, warm):
    """Solve the problem of :func:`_active_set` for each column of ``lin``, in order.

    ``lin`` (k, G) holds one linear term per response and ``scale`` (G,)
    their certificate scales.  ``warm(g, v)`` is the start ``(support,
    w_s)`` of column ``g`` from ``v``, the solution of column ``g - 1``
    (None for the first column).

    Returns ``(V, steps, converged, kkt)``: the solutions (k, G) and, per
    column, what :func:`_active_set` returns for it.
    """
    k, n_cols = lin.shape
    V = np.zeros((k, n_cols))
    steps = np.zeros(n_cols, dtype=int)
    converged = np.zeros(n_cols, dtype=bool)
    kkt = np.zeros(n_cols)
    v = None
    for g in range(n_cols):
        support, w_s, steps[g], converged[g], kkt[g] = _active_set(
            gram, lin[:, g], pad, *warm(g, v), scale[g], cfg)
        V[support, g] = w_s
        v = V[:, g]
    return V, steps, converged, kkt


def _warm(start, n):
    """A warm start as an array of ``n`` weights."""
    start = np.asarray(start, dtype=float)
    if start.shape != (n,):
        raise DimensionError(f"a warm start needs {n} weights; got shape {start.shape}")
    return start


def _responses(X, y):
    """``(X, ys)``: the design as floats and the responses as a list of 1-D arrays.

    A 1-D ``y`` is a block of one; the columns of an (n, G) ``y`` are the
    block's responses, each used as it is laid out.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim not in (1, 2) or X.shape[0] != y.shape[0]:
        raise DimensionError(f"design {X.shape} and response {y.shape} are incompatible")
    return X, [y] if y.ndim == 1 else list(y.T)


def simplex_ls(X, y, n_constrained: int, cfg: SolverConfig = SolverConfig(), start=None):
    """Minimize ||y - X w||_2^2 subject to w[:m] >= 0 and sum(w[:m]) = 1.

    ``y`` is one response (n,) or a block of responses (n, G) that share
    the design ``X``, such as the candidates of a test inversion.  ``m`` is
    ``n_constrained``; the columns after the first ``m`` are free and are
    projected out (:func:`_project_free`).  That design work is done once
    per block.  The rest is solved by the active-set method of
    :func:`_active_set` with a sum-to-one row, started at the best vertex,
    or warm at ``start``: weights of the ``m`` constrained columns, such as
    ``w[:m]`` of an earlier solve on the same ``X``, whose positive part is
    scaled to sum to one (a start with no positive weight is ignored).  A
    start changes the path, not the certificate, so it saves steps when
    ``y`` moved little.

    A block is solved in column order, ``start`` being the start of the
    first column and each later column started from its neighbour's
    solution (:func:`_solve_columns`).  Every column gets the arithmetic
    of solving it alone, warm from its neighbour, so a block gives those
    solutions and reports bit for bit, and a block of one is the solve of
    its column.

    Returns
    -------
    (w, report) : (ndarray, SolveReport), or (W, reports) for a block
        ``W`` is (p, G), one column and one report per response.
        ``report.kkt_residual`` is the certificate of :func:`_active_set`:
        the Frank-Wolfe duality gap of the constrained columns, which bounds
        the excess objective by twice itself, over ``c (||y|| + c)``.  It
        has no units: scaling ``X`` and ``y`` together changes neither it
        nor the steps.  ``report.iterations`` counts KKT solves.
    """
    return _simplex_ls(X, y, n_constrained, cfg, start, lambda v: v)


def _simplex_ls(X, y, n_constrained, cfg, start, restart):
    """:func:`simplex_ls`, where a column after the first starts from ``restart(v)``.

    ``v`` holds the constrained weights of its solved neighbour, and
    ``restart(v)`` is a start as ``start`` takes it.
    """
    X, ys = _responses(X, y)
    m = n_constrained
    if not 1 <= m <= X.shape[1]:
        raise DimensionError(f"n_constrained must lie in 1..{X.shape[1]}; got {n_constrained}")
    w0 = np.zeros(m) if start is None else _warm(start, m)
    gram, xty, scale, free_coefs = _project_free(X[:, :m], X[:, m:], ys)
    # The sum-to-one row is scaled like the Gram matrix (by the largest
    # squared column norm), which keeps the KKT system balanced in any units.
    # Constrained columns in the span of the free ones project to exactly
    # zero; any simplex point then fits alike, and the row must not vanish.
    pad = float(np.sqrt(np.diag(gram).max())) ** 2 or 1.0

    def warm(g, v):
        weights = w0 if v is None else restart(v)
        support = np.flatnonzero(weights > 0.0)
        if support.size:
            return support, weights[support] / weights[support].sum()
        return np.array([int(np.argmin(np.diag(gram) - 2.0 * xty[:, g]))]), np.ones(1)

    V, steps, converged, kkt = _solve_columns(gram, xty, pad, scale, cfg, warm)
    W = np.zeros((len(ys), X.shape[1]))  # one row per response, each laid out as a lone solve's
    W[:, :m] = V.T
    reports = []
    for g, (response, w) in enumerate(zip(ys, W)):
        if m < X.shape[1]:
            w[m:] = free_coefs(response - X[:, :m] @ w[:m])
        resid = response - X @ w
        reports.append(SolveReport(int(steps[g]), float(resid @ resid), bool(converged[g]), float(kkt[g]),
                                   note="simplex active set"))
    return (W[0], reports[0]) if np.ndim(y) == 1 else (W.T, reports)


def penalized_ls(X, y, penalty, cfg: SolverConfig = SolverConfig(), penalty_weights=None, start=None):
    """Minimize sum((y - mu - X w)^2) + P(w) with a free intercept ``mu``.

    ``y`` is one response (n,) or a block of responses (n, G) that share
    ``X``, solved as :func:`simplex_ls` solves a block: the design work
    once, ``start`` for the first column, each later column from its
    neighbour's solution, and each column bit for bit as if solved alone
    from its neighbour.  ``penalty`` is an :class:`ElasticNetPenalty`
    (:func:`LassoPenalty` for a lasso); ``penalty_weights`` optionally
    scales the penalty per column (0 leaves a column unpenalized).
    ``start`` is an optional warm start, one weight per column, such as the
    ``w`` of an earlier solve on the same ``X``.

    The intercept is concentrated out by centring, and the ridge part of
    the penalty is least squares on extra rows ``sqrt(l2_j) e_j`` with
    target 0.  Columns without an l1 penalty are then free and projected
    out (:func:`_project_free`).  For the others, with ``A`` their Gram
    matrix (``Xc'Xc + diag(l2)``) and ``c`` their product with the target,
    ``w = w+ - w-`` for the nonnegative ``(w+, w-)`` that minimizes the
    quadratic with Gram ``[[A, -A], [-A, A]]`` and linear term
    ``[c - l1/2, -c - l1/2]``, solved by :func:`_active_set` from zero or
    from the signed split of ``start``.  Constant columns keep a zero weight.

    Returns
    -------
    (intercept, w, report), or (intercepts, W, reports) for a block
        ``intercepts`` is (G,) and ``W`` (p, G).  The certificate is the
        gap ``max r - v'r`` of that quadratic, its largest KKT violation
        once a support is solved, over the same ``c (||y|| + c)`` as in
        :func:`simplex_ls`; it has no units when ``lam`` is scaled with the
        squared units of the data.
    """
    X, ys = _responses(X, y)
    p = X.shape[1]
    weights = np.ones(p) if penalty_weights is None else np.asarray(penalty_weights, dtype=float)
    if weights.shape != (p,):
        raise DimensionError("penalty_weights must have one entry per column")
    first = None if start is None else _warm(start, p)

    xc, ycs, x_mean, y_means = _centre(X, ys)
    l1 = penalty.l1 * weights
    l2 = penalty.l2 * weights
    xa = np.vstack([xc, np.diag(np.sqrt(l2))[l2 > 0.0]])
    yas = [np.append(yc, np.zeros(np.count_nonzero(l2))) for yc in ycs]
    varies = xc.any(axis=0)
    split = np.flatnonzero(varies & (l1 > 0.0))
    free = np.flatnonzero(varies & (l1 == 0.0))
    a, c, scale, free_coefs = _project_free(xa[:, split], xa[:, free], yas)
    half = 0.5 * l1[split][:, None]

    def warm(g, v):
        if v is None and first is None:
            return np.zeros(0, dtype=int), np.zeros(0)
        w0 = first[split] if v is None else v[:split.size] - v[split.size:]
        v0 = np.concatenate([w0, -w0])
        support = np.flatnonzero(v0 > 0.0)
        return support, v0[support]

    V, steps, converged, kkt = _solve_columns(
        np.block([[a, -a], [-a, a]]), np.concatenate([c - half, -c - half]), 0.0, scale, cfg, warm)
    W = np.zeros((len(ys), p))  # one row per response, each laid out as a lone solve's
    W[:, split] = (V[:split.size] - V[split.size:]).T
    intercepts, reports = [], []
    for g, (yc, ya, w) in enumerate(zip(ycs, yas, W)):
        w[free] = free_coefs(ya - xa[:, split] @ w[split])
        r = yc - xc @ w
        objective = float(r @ r) + float(l2 @ (w * w)) + float(l1 @ np.abs(w))
        intercepts.append(y_means[g] - float(x_mean @ w))
        reports.append(SolveReport(int(steps[g]), objective, bool(converged[g]), float(kkt[g]),
                                   note="signed active set"))
    return (intercepts[0], W[0], reports[0]) if np.ndim(y) == 1 else (np.array(intercepts), W.T, reports)


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
    """Least-squares coefficients via the normal equations on unit-norm columns.

    Raises
    ------
    RankDeficiencyError
        If the Gram matrix of the columns scaled to unit norm (so whatever
        their units) has condition number above ``1e12``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DimensionError(f"design {X.shape} and response {y.shape} are incompatible")
    norms = np.linalg.norm(X, axis=0)
    norms[norms == 0.0] = 1.0  # a zero column stays zero and fails the check
    scaled = X / norms
    gram = scaled.T @ scaled
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise RankDeficiencyError(
            f"design is rank deficient: Gram condition number {cond:.3e} exceeds {MAX_CONDITION:.0e}"
        )
    return np.linalg.solve(gram, scaled.T @ y) / norms
