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

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg  # the LAPACK gufuncs behind numpy.linalg

from .exceptions import DimensionError, NumericalError, RankDeficiencyError

__all__ = [
    "SolverConfig",
    "SolveReport",
    "ElasticNetPenalty",
    "project_simplex",
    "project_l1_ball",
    "project_nuclear_ball",
    "pca_factors",
    "alternating_ls",
    "ols",
]

#: Condition-number ceiling above which normal equations are refused.
MAX_CONDITION = 1e12

_EPS = float(np.finfo(float).eps)
# A step to the first zero sets to zero each weight it leaves within this
# share of where it started: the rounding of a KKT solve, well below any
# real gap between two weights' distances to zero.
_TIE = math.sqrt(_EPS)
# The entries a join appends: the joining weight, and its term of a direction.
_ZERO = np.zeros(1)
_ONE = np.ones(1)


def _check_integer(name: str, value, least: int | None = None) -> None:
    """Refuse ``value`` with ``ValueError`` unless it is an integer, and at least ``least`` if given.

    A numpy integer is accepted.  A bool is an int to Python, and is
    refused, as is a float: a float count or seed fails inside numpy.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer; got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}; got {value}")


def _check_real(name: str, value) -> None:
    """Refuse ``value`` with ``ValueError`` unless it is a real number.

    A numpy number is accepted.  A bool is refused, as it would count as 0
    or 1, and so is a string, which would fail later in a comparison.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number; got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls shared by the iterative solvers.

    ``tol`` is interpreted relative to the natural scale of each problem.
    There is one certificate for ``sc``, ``classo``, lasso and elastic net:
    the active-set method stops once its gap over ``c (||y|| + c)``, ``c``
    the largest column norm, is at most ``tol`` (see :func:`_simplex_block`),
    which has no units.  Alternating least squares stops once the relative
    objective decrease falls below ``tol``.  Every solver has one step
    rule; only the iteration cap and the tolerance are set here.
    """

    max_iters: int = 10_000
    tol: float = 1e-8

    def __post_init__(self):
        _check_integer("max_iters", self.max_iters, 1)
        _check_real("tol", self.tol)
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite; got {self.tol}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solver run.

    ``converged`` is True only when ``kkt_residual`` met the documented
    threshold for the routine that produced the report.  ``iterations``
    counts the routine's own steps (KKT steps, alternations)
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
        _check_real("lam", self.lam)
        _check_real("alpha", self.alpha)
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


def _negligible(value, n, scale):
    """Whether ``value`` is rounding next to ``scale``, at most ``n * eps * scale``,
    with ``n`` the terms whose rounding can add up in it (arrays broadcast)."""
    return value <= n * _EPS * scale


def _centre(X, Y):
    """``(Xc, Yc, x_mean, y_means)``: the data less their column means.

    ``Y`` holds one response per row, each centred on its own mean; ``Yc``
    is C-ordered.  A column of ``X`` that does not vary is set to exactly
    zero.  Centring leaves rounding noise in it, which must not count as
    variation: a solver would fit that noise with a coefficient of order 1e16.
    """
    x_mean = X.mean(axis=0)
    xc = X - x_mean
    flat = _negligible(np.abs(xc).max(axis=0, initial=0.0), X.shape[0], np.abs(X).max(axis=0, initial=0.0))
    xc[:, flat] = 0.0
    Y = np.ascontiguousarray(Y)  # rows of a strided block are not summed pairwise
    y_means = np.add.reduce(Y, axis=1) / Y.shape[1]  # Y.mean(axis=1) without its wrapper
    return xc, Y - y_means[:, None], x_mean, y_means


# a @ y for each row y of Y, and a @ b for each pair of rows: matmul on a stack makes one gemv or
# dot per row, as a lone product makes it (one gemm over the rows rounds otherwise).
def _matvecs(a, Y):
    return np.matmul(a, Y[..., None])[..., 0]


def _dots(A, B):
    return np.matmul(A[..., None, :], B[..., None])[..., 0, 0]


def _step_to_first_zero(x, d, limit):
    """``(x + t d, k)`` for the largest ``t <= limit`` at which no entry of ``x``
    has changed sign: ``k`` is the entry set to zero, or None if none is.
    An entry that the step leaves within ``_TIE`` of its start reaches zero
    with ``k``, as tied entries (equal columns) do in exact arithmetic, and
    is set to zero too: else which of them drops first, and whether they drop
    in one step or two, is up to the rounding of the solve."""
    toward = (x * d < 0.0).nonzero()[0]
    ratios = -x[toward] / d[toward]
    first = ratios.argmin() if ratios.size else None
    if first is not None and ratios[first] < limit:
        k = int(toward[first])
        moved = x + ratios[first] * d
        moved[k] = 0.0
        moved[np.abs(moved) <= _TIE * x] = 0.0
    elif np.isfinite(limit):
        k = None
        moved = x + limit * d
    else:
        return x, None
    moved[moved * x < 0.0] = 0.0
    return moved, k


def _project_free(head, free, Y):
    """Project the span of the free columns out of ``head`` and the responses ``Y``.

    ``Y`` (G, n) holds one response per row, each used as it is laid out.
    The free coefficients are a least-squares fit to whatever the other
    columns leave over.  The span comes from an SVD with the rank cut-off
    of ``numpy.linalg.lstsq``, which copes with collinear free columns.
    Returns ``(gram, xty, scale, coefs)``: the Gram matrix of the projected
    ``head``, its product with each projected response (one column per
    response), each response's certificate scale ``c (||y|| + c)`` with
    ``c`` the largest projected column norm, and ``coefs(rest)``, the free
    coefficients that best fit each row of ``rest`` (one row each).  The
    design work is done once, and each per-response product is one stacked
    call that gives each response the bits it would get alone.
    """
    coefs = lambda rest: np.zeros((rest.shape[0], 0))
    if free.shape[1]:
        u, s, vt = np.linalg.svd(free, full_matrices=False)
        rank = int((~_negligible(s, max(free.shape), s[0])).sum())
        u, s, vt = u[:, :rank], s[:rank], vt[:rank]
        head = head - u @ (u.T @ head)
        Y = np.subtract(Y, _matvecs(u, _matvecs(u.T, Y)), order="C")  # contiguous rows, as alone
        coefs = lambda rest: _matvecs(vt.T, _matvecs(u.T, rest) / s)
    gram = head.T @ head
    col_max = float(np.sqrt(np.diag(gram).max(initial=0.0)))
    flat = np.ascontiguousarray(Y)  # the sums numpy.linalg.norm(y) takes, in their order
    scale = col_max * (np.sqrt(_dots(flat, flat)) + col_max)
    return gram, _matvecs(head.T, Y).T, scale, coefs


def _solve(system, rhs):
    """``system \\ rhs``, by least squares if rounding made ``system`` singular.

    ``system`` is a square float array and ``rhs`` a float vector.  The
    solve is one call of LAPACK's gesv through ``solve1``, the gufunc that
    :func:`numpy.linalg.solve` itself calls for a vector right-hand side, so
    it gives that function's result bit for bit without its wrapper.  A
    singular system comes back filled with NaN and raises the floating-point
    invalid flag; the caller holds ``np.errstate(invalid="ignore")`` around
    its solves, as :func:`_solve_columns` does for a whole block.
    """
    x = _umath_linalg.solve1(system, rhs)
    if x.size and x[0] != x[0]:
        return np.linalg.lstsq(system, rhs, rcond=None)[0]
    return x


def _active_set(gram, lin, pad, support, w_s, scale, cfg, system, rhs):
    """Minimize ``v'Gv / 2 - lin'v`` over ``v >= 0`` from ``v[support] = w_s``.

    NNLS of Lawson and Hanson (1974, ch. 23) on the Gram matrix ``G``; with
    ``pad > 0`` the weights also sum to one, a KKT row scaled by ``pad``.
    ``system`` and ``rhs`` are ``G`` and ``lin`` bordered by that row (last,
    with a zero corner), or ``G`` and ``lin`` without it: built once per
    block by :func:`_solve_columns`, so a step gathers its KKT system (the
    rows, then the columns, of the support and the border) and solves it
    with one gesv (:func:`_solve`).
    The start is feasible: ``w_s > 0``, summing to one with that row.  The
    empty support, or one vertex with that row, is the solution on its
    support; any other start (say the solution of an earlier problem with
    the same ``G``) is first solved on its support as below, so a cold
    start takes the same steps whether or not warm starts exist.
    Each step takes the solution of the KKT system on the support.  If a
    weight of it is not positive, the iterate moves toward it until the
    first weight reaches zero and drops that one (with any weight tied to
    it up to rounding, see :func:`_step_to_first_zero`); else it takes the
    solution and the largest violation of ``r = lin - G v`` joins (the
    first of ties).  A joining column is never an affine combination of
    the support, so with the sum-to-one row the system stays nonsingular,
    and the step solves it.  Without that row (a lasso or elastic net) the
    column ``j`` can lie in the span of the support ``S`` (more columns than
    rows), so a join first solves ``a = G_SS^-1 g_Sj``, the column in terms
    of the support, and takes the Schur complement ``s = g_jj - g_Sj'a``.
    At the rounding level, the fit is fixed along ``d = (-a, 1)`` and the
    objective falls at rate ``r_j``: the iterate moves that way until a
    weight reaches zero, that weight leaves, and the step solves afresh.
    Otherwise the join borders the solution ``w_S`` just found on ``S``
    (Lawson and Hanson, ch. 24): the KKT solution on the grown support is
    ``(w_S, 0) + (r_j / s) d``, so that step reuses the test's solve.
    ``G`` must be exactly symmetric, as ``X'X`` is: ``r`` takes the rows
    ``G[S]`` for the columns ``G[:, S]``, and a join the row ``G[j, S]``
    for the column ``g_Sj``.  A join gathers ``G_SS`` with ``take`` (two
    one-axis gathers), its vectors by index, and keeps its scalars
    (``g_jj``, ``s``, ``r_j / s``) in Python floats, which round as numpy's
    scalars do, so it costs its arithmetic and little more.

    Returns ``(support, w_s, steps, converged, kkt)``.  ``steps`` counts KKT
    steps, ``kkt`` is the gap ``max r - v'r`` over ``scale``, and
    ``converged`` says the last step was completed and ``kkt <= cfg.tol``.
    """
    border = int(pad > 0)  # the sum-to-one row, if any
    limit = cfg.tol * scale
    steps = 0
    # The support by index: ``support`` is ``index[:n]``, and ``index[n]``
    # is the border's row of ``system`` when a step gathers its KKT system.
    # ``member``, the support's indicator, is set up at the first join,
    # which most warm starts never reach.
    n = support.size
    index = np.empty(lin.size + 1, dtype=np.intp)
    index[:n] = support
    support = index[:n]
    member = None
    solved = n <= border
    z = None  # the KKT solution on the support, when its join bordered it
    while True:
        while not solved and steps < cfg.max_iters:
            steps += 1
            if z is None:
                index[n] = lin.size
                ext = index[:n + border]
                z = _solve(system.take(ext, 0).take(ext, 1), rhs[ext])[:n]
            solved = not n or bool(np.minimum.reduce(z) > 0.0)
            if solved:
                w_s = z
            else:
                w_s, _ = _step_to_first_zero(w_s, z - w_s, 1.0)
                keep = w_s > 0.0
                if member is not None:
                    member[support[~keep]] = False
                kept = support[keep]
                n = kept.size
                index[:n] = kept
                support, w_s = index[:n], w_s[keep]
            z = None
        r = lin - gram.take(support, 0).T @ w_s
        if r.size:
            # The first of ties, or the first NaN.  r[joining] is r.max() unless a
            # -0.0 ties a 0.0, and sums started at +0, as r's terms are, give no -0.0.
            joining = int(r.argmax())
            r_j = float(r[joining])
            gap = float(r_j - w_s @ r[support])
        else:
            gap = -np.inf
        if gap <= limit or steps >= cfg.max_iters:
            break
        if member is None:
            member = np.zeros(lin.size, dtype=bool)
            member[support] = True
        if member[joining]:
            break  # the gap is rounding on the support itself
        index[n] = joining
        member[joining] = True
        support, w_s = index[:n + 1], np.concatenate((w_s, _ZERO))
        if not pad and n:
            on = support[:n]
            g_sj = gram[joining][on]  # the row: G is symmetric
            a = _solve(gram.take(on, 0).take(on, 1), g_sj)
            d = np.concatenate((-a, _ONE))
            g_jj = float(gram[joining, joining])
            schur = g_jj - float(g_sj @ a)
            if not _negligible(schur, n, g_jj):
                z = w_s + r_j / schur * d
            else:
                w_s, k = _step_to_first_zero(w_s, d, np.inf)
                if k is None:
                    break  # no descent along the span: rounding
                member[support[k]] = False
                index[k:n] = index[k + 1:n + 1]
                support, w_s = index[:n], np.delete(w_s, k)
                n -= 1
        n += 1
        solved = False
    kkt = max(gap, 0.0) / scale if scale > 0 else 0.0
    return support, w_s, steps, solved and gap <= limit, kkt


def _solve_columns(gram, lin, pad, scale, cfg, warm):
    """Solve the problem of :func:`_active_set` for each column of ``lin``, in order.

    ``lin`` (k, G) holds one linear term per response and ``scale`` (G,)
    their certificate scales.  ``warm(g, v)`` is the start ``(support,
    w_s)`` of column ``g`` from ``v``, the solution of column ``g - 1``
    (None for the first column).  The bordered KKT matrix and linear terms
    of :func:`_active_set` are built here, once per block, and the block's
    solves run under one ``np.errstate(invalid="ignore")``, which
    :func:`_solve` needs to see a singular system as NaN and not warn.

    Returns ``(V, steps, converged, kkt)``: the solutions (k, G) and, per
    column, what :func:`_active_set` returns for it.
    """
    k, n_cols = lin.shape
    if pad:
        system = np.zeros((k + 1, k + 1))
        system[:k, :k] = gram
        system[:k, k] = system[k, :k] = pad
        rhs = np.empty((n_cols, k + 1))
        rhs[:, :k] = lin.T
        rhs[:, k] = pad
    else:
        system, rhs = gram, lin.T
    V = np.zeros((k, n_cols))
    steps = np.zeros(n_cols, dtype=int)
    converged = np.zeros(n_cols, dtype=bool)
    kkt = np.zeros(n_cols)
    v = None
    with np.errstate(invalid="ignore"):
        for g in range(n_cols):
            support, w_s, steps[g], converged[g], kkt[g] = _active_set(
                gram, lin[:, g], pad, *warm(g, v), scale[g], cfg, system, rhs[g])
            V[support, g] = w_s
            v = V[:, g]
    return V, steps, converged, kkt


def _signed_gram(a):
    """``[[a, -a], [-a, a]]``, the Gram matrix of the signed split ``(w+, w-)``,
    written block by block (negation is exact)."""
    k = a.shape[0]
    gram = np.empty((2 * k, 2 * k))
    gram[:k, :k] = gram[k:, k:] = a
    np.negative(a, out=gram[:k, k:])
    np.negative(a, out=gram[k:, :k])
    return gram


def _warm(start, n):
    """A warm start as an array of ``n`` weights."""
    start = np.asarray(start, dtype=float)
    if start.shape != (n,):
        raise DimensionError(f"a warm start needs {n} weights; got shape {start.shape}")
    return start


def _simplex_block(X, Y, n_constrained, cfg, start, restart):
    """Minimize ||y - X w||_2^2 subject to w[:m] >= 0 and sum(w[:m]) = 1, for
    each response ``y``, a row of ``Y`` (G, n), on the float design ``X``.

    ``m`` is ``n_constrained``; the columns after the first ``m`` are free
    and are projected out (:func:`_project_free`), once per block.  The
    rest is solved by the active-set method of :func:`_active_set` with a
    sum-to-one row, started at the best vertex, or warm at ``start``:
    weights of the ``m`` constrained columns, such as ``w[:m]`` of an
    earlier solve on the same ``X``, whose positive part is scaled to sum
    to one (a start with no positive weight is ignored).  A response after
    the first starts from ``restart(v)``, where ``v`` holds the constrained
    weights of its solved neighbour, and ``restart(v)`` is a start as
    ``start`` takes it.  A start changes the path, not the certificate,
    so it saves steps when ``y`` moved little.  Every response gets the
    arithmetic of solving it alone from its start, so a block gives those
    solutions and reports bit for bit, and a block of one is the solve of
    its response.

    Returns ``(W, steps, converged, kkt, report)``: the weights (G, p), one
    row per response, what :func:`_active_set` returns for each response,
    and ``report(g)``, the :class:`SolveReport` of response ``g``, whose
    objective is only computed when asked for.  ``kkt`` is the certificate:
    the Frank-Wolfe duality gap of the constrained columns, which bounds
    the excess objective by twice itself, over ``c (||y|| + c)``, ``c`` the
    largest column norm.  It has no units: scaling ``X`` and ``y`` together
    changes neither it nor the steps.  ``steps`` counts KKT steps.
    """
    m = n_constrained
    if not 1 <= m <= X.shape[1]:
        raise DimensionError(f"n_constrained must lie in 1..{X.shape[1]}; got {n_constrained}")
    w0 = np.zeros(m) if start is None else _warm(start, m)
    gram, xty, scale, free_coefs = _project_free(X[:, :m], X[:, m:], Y)
    # The sum-to-one row is scaled like the Gram matrix (by the largest
    # squared column norm), which keeps the KKT system balanced in any units.
    # Constrained columns in the span of the free ones project to exactly
    # zero; any simplex point then fits alike, and the row must not vanish.
    pad = float(np.sqrt(np.diag(gram).max())) ** 2 or 1.0

    def warm(g, v):
        weights = w0 if v is None else restart(v)
        support = (weights > 0.0).nonzero()[0]
        if support.size:
            w_s = weights[support]
            return support, w_s / w_s.sum()
        return np.array([int(np.argmin(np.diag(gram) - 2.0 * xty[:, g]))]), np.ones(1)

    V, steps, converged, kkt = _solve_columns(gram, xty, pad, scale, cfg, warm)
    W = np.zeros((len(Y), X.shape[1]))  # one row per response, each laid out as a lone solve's
    W[:, :m] = V.T
    if m < X.shape[1]:
        W[:, m:] = free_coefs(np.subtract(Y, _matvecs(X[:, :m], W[:, :m]), order="C"))  # as alone

    def report(g):
        resid = Y[g] - X @ W[g]
        return SolveReport(int(steps[g]), float(resid @ resid), bool(converged[g]), float(kkt[g]),
                           note="simplex active set")

    return W, steps, converged, kkt, report


def _penalized_block(X, Y, penalty, cfg, weights, start):
    """Minimize sum((y - mu - X w)^2) + P(w) with a free intercept ``mu``, for
    each response ``y``, a row of ``Y`` (G, n), on the float design ``X``.

    ``penalty`` is an :class:`ElasticNetPenalty` (``alpha = 1`` for a
    lasso), and ``weights`` (p,) scales it per column (0 leaves a column
    unpenalized).  The block is solved as :func:`_simplex_block` solves one:
    the design work once, ``start`` for the first response, each later
    response from its neighbour's solution, and each response bit for bit
    as if solved alone from its neighbour.  ``start`` is None or a warm
    start, one weight per column, such as the ``w`` of an earlier solve on
    the same ``X``.

    The intercept is concentrated out by centring, and the ridge part of
    the penalty is least squares on extra rows ``sqrt(l2_j) e_j`` with
    target 0.  Columns without an l1 penalty are then free and projected
    out (:func:`_project_free`).  For the others, with ``A`` their Gram
    matrix (``Xc'Xc + diag(l2)``) and ``c`` their product with the target,
    ``w = w+ - w-`` for the nonnegative ``(w+, w-)`` that minimizes the
    quadratic with Gram ``[[A, -A], [-A, A]]`` and linear term
    ``[c - l1/2, -c - l1/2]``, solved by :func:`_active_set` from zero or
    from the signed split of ``start``.  Constant columns keep a zero weight.

    Returns ``(intercepts, W, steps, converged, kkt, report)``: the
    intercepts (G,) and weights (G, p), one row per response, then as
    :func:`_simplex_block` returns them.  The certificate is the gap
    ``max r - v'r`` of that quadratic, its largest KKT violation once a
    support is solved, over the same ``c (||y|| + c)`` as in
    :func:`_simplex_block`; it has no units when ``lam`` is scaled with the
    squared units of the data.  ``report(g).iterations`` counts KKT steps;
    a join borders the previous solution, so a step costs one linear
    solve, two where the joining column lies in the span of the support.
    """
    p = X.shape[1]
    first = None if start is None else _warm(start, p)
    xc, Yc, x_mean, y_means = _centre(X, Y)
    l1 = penalty.l1 * weights
    l2 = penalty.l2 * weights
    xa = np.vstack([xc, np.diag(np.sqrt(l2))[l2 > 0.0]])
    Ya = np.hstack([Yc, np.zeros((len(Yc), np.count_nonzero(l2)))])
    varies = xc.any(axis=0)
    split = np.flatnonzero(varies & (l1 > 0.0))
    free = np.flatnonzero(varies & (l1 == 0.0))
    a, c, scale, free_coefs = _project_free(xa[:, split], xa[:, free], Ya)
    half = 0.5 * l1[split][:, None]

    def warm(g, v):
        if v is None and first is None:
            return np.zeros(0, dtype=int), np.zeros(0)
        w0 = first[split] if v is None else v[:split.size] - v[split.size:]
        v0 = np.concatenate([w0, -w0])
        support = (v0 > 0.0).nonzero()[0]
        return support, v0[support]

    V, steps, converged, kkt = _solve_columns(
        _signed_gram(a), np.concatenate([c - half, -c - half]), 0.0, scale, cfg, warm)
    W = np.zeros((len(Y), p))  # one row per response, each laid out as a lone solve's
    W[:, split] = W_split = np.ascontiguousarray((V[:split.size] - V[split.size:]).T)  # as a lone w[split]
    W[:, free] = free_coefs(Ya - _matvecs(xa[:, split], W_split))
    intercepts = y_means - _dots(W, x_mean)

    def report(g):
        w = W[g]
        r = Yc[g] - xc @ w
        objective = float(r @ r) + float(l2 @ (w * w)) + float(l1 @ np.abs(w))
        return SolveReport(int(steps[g]), objective, bool(converged[g]), float(kkt[g]), note="signed active set")

    return intercepts, W, steps, converged, kkt, report


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
