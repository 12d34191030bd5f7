"""Independent brute-force oracles used to validate the solvers.

Everything here deliberately avoids the code paths of the package: grids
are enumerated directly, thresholds come from scipy bisection,
linear systems are solved through QR, and constrained least squares has a
first-order reference solver (projected gradient).  Keeping these routes
independent is the point; do not "simplify" them by calling into synthconf.
"""

import numpy as np
from scipy import optimize


def simplex_grid(n: int, step: float) -> np.ndarray:
    """All grid points on the unit simplex in R^n with the given resolution."""
    m = round(1.0 / step)
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        a = np.arange(m + 1)
        return np.column_stack([a, m - a]) / m
    if n == 3:
        a, b = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
        keep = a + b <= m
        return np.column_stack([a[keep], b[keep], m - a[keep] - b[keep]]) / m
    raise ValueError("simplex_grid supports n <= 3")


def simplex_projection_grid_search(v: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Closest simplex grid point to v in Euclidean distance."""
    grid = simplex_grid(v.shape[0], step)
    dists = ((grid - v) ** 2).sum(axis=1)
    return grid[dists.argmin()]


def l1_projection_bisect(v: np.ndarray, radius: float) -> np.ndarray:
    """Projection onto the l1 ball via scipy bisection on the threshold."""
    mags = np.abs(v)
    if mags.sum() <= radius:
        return v.copy()

    def excess(theta):
        return np.maximum(mags - theta, 0.0).sum() - radius

    theta = optimize.bisect(excess, 0.0, mags.max(), xtol=1e-14)
    return np.sign(v) * np.maximum(mags - theta, 0.0)


def simplex_projection_bisect(v: np.ndarray) -> np.ndarray:
    """Projection onto the simplex via bisection on the shift theta."""

    def excess(theta):
        return np.maximum(v - theta, 0.0).sum() - 1.0

    theta = optimize.bisect(excess, v.min() - 1.0, v.max(), xtol=1e-14)
    return np.maximum(v - theta, 0.0)


def _batched_ls_objective(points: np.ndarray, gram: np.ndarray, xty: np.ndarray, yy: float) -> np.ndarray:
    return ((points @ gram) * points).sum(axis=1) - 2.0 * points @ xty + yy


def sc_objective_grid_search(X: np.ndarray, y: np.ndarray, step: float = 1e-2) -> float:
    """Best value of ||y - Xw||^2 over simplex grid points."""
    gram, xty, yy = X.T @ X, X.T @ y, float(y @ y)
    grid = simplex_grid(X.shape[1], step)
    return float(_batched_ls_objective(grid, gram, xty, yy).min())


def l1_ball_objective_grid_search(X: np.ndarray, y: np.ndarray, radius: float = 1.0,
                                  step: float = 1e-2) -> float:
    """Best value of ||y - Xw||^2 over grid points of the l1 ball."""
    gram, xty, yy = X.T @ X, X.T @ y, float(y @ y)
    n = X.shape[1]
    m = round(radius / step)
    best = np.inf
    if n == 1:
        pts = (np.arange(-m, m + 1) * step)[:, None]
        best = _batched_ls_objective(pts, gram, xty, yy).min()
    elif n == 2:
        a, b = np.meshgrid(np.arange(-m, m + 1), np.arange(-m, m + 1), indexing="ij")
        keep = np.abs(a) + np.abs(b) <= m
        pts = np.column_stack([a[keep], b[keep]]) * step
        best = _batched_ls_objective(pts, gram, xty, yy).min()
    elif n == 3:
        rng_b = np.arange(-m, m + 1)
        for a_int in range(-m, m + 1):
            budget = m - abs(a_int)
            b_vals = rng_b[np.abs(rng_b) <= budget]
            bb, cc = np.meshgrid(b_vals, rng_b, indexing="ij")
            keep = np.abs(bb) + np.abs(cc) <= budget
            pts = np.column_stack(
                [np.full(keep.sum(), a_int), bb[keep], cc[keep]]
            ) * step
            if pts.size:
                best = min(best, _batched_ls_objective(pts, gram, xty, yy).min())
    else:
        raise ValueError("l1 ball grid search supports n <= 3")
    return float(best)


def classo_objective_grid_search(X: np.ndarray, y: np.ndarray, radius: float = 1.0,
                                 step: float = 1e-2) -> float:
    """Best value of min_mu ||y - mu - Xw||^2 over l1-ball grid points.

    The intercept is profiled out exactly (mean residual), which is an
    algebraic identity, not a property of the solver under test.
    """
    return l1_ball_objective_grid_search(X - X.mean(axis=0), y - y.mean(), radius, step)


def ols_via_qr(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares through a QR factorization (independent of normal equations)."""
    q, r = np.linalg.qr(X)
    from scipy.linalg import solve_triangular

    return solve_triangular(r, q.T @ y)


def penalized_objective(X: np.ndarray, y: np.ndarray, mu: float, w: np.ndarray,
                        l1: np.ndarray, l2: np.ndarray) -> float:
    """sum((y - mu - Xw)^2) + sum(l2 w^2) + sum(l1 |w|), from the raw data."""
    r = y - mu - X @ w
    return float(r @ r) + float(l2 @ (w * w)) + float(l1 @ np.abs(w))


def penalized_kkt_violation(X: np.ndarray, y: np.ndarray, mu: float, w: np.ndarray,
                            l1: np.ndarray, l2: np.ndarray) -> float:
    """Largest violation of the stationarity conditions of penalized_objective.

    Covers the intercept (the residuals sum to zero) and, per coordinate,
    ``g_j + l1_j sign(w_j) = 0`` on the support and ``|g_j| <= l1_j`` off it,
    where ``g`` is the gradient of the smooth part.
    """
    r = y - mu - X @ w
    g = -2.0 * X.T @ r + 2.0 * l2 * w
    viol = [abs(2.0 * r.sum())]
    for j in range(w.shape[0]):
        if w[j] != 0.0:
            viol.append(abs(g[j] + l1[j] * np.sign(w[j])))
        else:
            viol.append(max(abs(g[j]) - l1[j], 0.0))
    return max(viol)


def penalized_cd_reference(X: np.ndarray, y: np.ndarray, l1: np.ndarray, l2: np.ndarray,
                           max_sweeps: int = 20_000):
    """Plain cyclic coordinate descent on the residual for penalized_objective.

    The intercept is profiled out by centring (an algebraic identity).  Each
    sweep moves every coefficient to its exact one-dimensional minimizer;
    the loop stops when a sweep moves no coefficient by more than 1e-14 of
    the largest, or after ``max_sweeps``.  Returns ``(mu, w)``.
    """
    xc = X - X.mean(axis=0)
    r = y - y.mean()
    w = np.zeros(X.shape[1])
    col_sq = (xc**2).sum(axis=0)
    for _ in range(max_sweeps):
        biggest = 0.0
        for j in range(w.shape[0]):
            if col_sq[j] == 0.0:
                continue
            z = float(xc[:, j] @ r) + col_sq[j] * w[j]
            new = np.sign(z) * max(abs(z) - l1[j] / 2.0, 0.0) / (col_sq[j] + l2[j])
            biggest = max(biggest, abs(new - w[j]))
            r -= xc[:, j] * (new - w[j])
            w[j] = new
        if biggest <= 1e-14 * max(1.0, np.abs(w).max(initial=0.0)):
            break
    return float(y.mean() - X.mean(axis=0) @ w), w


def projected_gradient_reference(X: np.ndarray, y: np.ndarray, n_constrained: int,
                                 radius: float | None = None, max_iters: int = 5000,
                                 tol: float = 1e-12):
    """Reference solver: min ||y - Xw||^2 with w[:m] constrained and w[m:] free.

    The constraint is the unit simplex, or the l1 ball of ``radius``, as in
    :func:`constrained_gap`; its projection is one of the bisection oracles
    above (their 1e-14 threshold is well inside the stopping bound).
    Barzilai-Borwein steps with backtracking on the projected sufficient
    decrease, started at ``project(0)``, so every iterate is feasible and
    the objective never rises.  Stops when the unit-step projected-gradient
    map is below ``tol (1 + ||X'y||_inf)`` or after ``max_iters``.  Returns
    ``(w, objective)``.
    """
    m = n_constrained

    def project(v):
        out = v.copy()
        out[:m] = simplex_projection_bisect(v[:m]) if radius is None else l1_projection_bisect(v[:m], radius)
        return out

    gram, xty, yy = X.T @ X, X.T @ y, float(y @ y)

    def objective(w):
        return float(w @ gram @ w) - 2.0 * float(xty @ w) + yy

    lam_max = float(np.linalg.eigvalsh(gram)[-1]) if gram.size else 0.0
    step = 1.0 / (2.0 * lam_max) if lam_max > 0 else 1.0
    w = project(np.zeros(X.shape[1]))
    f = objective(w)
    grad = 2.0 * (gram @ w - xty)
    stop = tol * (1.0 + float(np.abs(xty).max(initial=0.0)))
    for _ in range(max_iters):
        if np.abs(w - project(w - grad)).max(initial=0.0) <= stop:
            break
        for _ in range(80):
            w_new = project(w - step * grad)
            d = w_new - w
            f_new = objective(w_new)
            if f_new <= f + float(grad @ d) + float(d @ d) / (2.0 * step) + 1e-14 * (1.0 + abs(f)):
                break
            step *= 0.5
        if f_new > f:
            break
        grad_new = 2.0 * (gram @ w_new - xty)
        ddg = float(d @ (grad_new - grad))
        step = float(d @ d) / ddg if ddg > 0 else 2.0 * step
        w, f, grad = w_new, f_new, grad_new
    return w, f


def constrained_gap(X: np.ndarray, y: np.ndarray, w: np.ndarray, n_constrained: int,
                    radius: float | None = None):
    """KKT check of min ||y - Xw||^2 with w[:m] constrained and w[m:] free.

    The constraint is the unit simplex, or the l1 ball of ``radius``.
    Returns ``(gap, free, scale)``.  ``gap`` is the Frank-Wolfe
    duality gap ``max_s g's - w'g`` over the vertices ``s`` of the
    constraint set, with ``g = X[:, :m]'(y - Xw)``: ``max_j g_j - w'g`` on
    the simplex, ``radius * max_j |g_j| - w'g`` on the ball.  It is
    nonnegative and zero exactly at an optimum.  ``scale`` is
    ``c (||y|| + c)``, where ``c`` is the largest constrained column norm
    (times ``radius`` on the ball), and bounds the norm of ``g`` at the
    optimum.  ``free`` is the largest ``|x_j'(y - Xw)| / (||x_j|| (||y|| + c))``
    over the free columns ``x_j``, zero at an optimum.
    """
    m = n_constrained
    resid = y - X @ w
    g = X.T @ resid
    head = g[:m].max() if radius is None else radius * np.abs(g[:m]).max()
    gap = float(head - w[:m] @ g[:m])
    norms = np.linalg.norm(X, axis=0)
    c = float(norms[:m].max()) * (1.0 if radius is None else radius)
    reach = float(np.linalg.norm(y)) + c
    nonzero = norms[m:] > 0
    free = np.abs(g[m:][nonzero]) / (norms[m:][nonzero] * reach)
    return gap, float(free.max(initial=0.0)), c * reach


def penalized_gap(X: np.ndarray, y: np.ndarray, mu: float, w: np.ndarray, l1: np.ndarray,
                  l2: np.ndarray, penalized: np.ndarray):
    """The duality gap of a lasso / elastic-net fit on the signed split, from the raw data.

    With ``g_j = xc_j'(y - mu - Xw) - l2_j w_j`` over the ``penalized``
    columns (``xc`` the centred columns), the split ``(w+, w-)`` has the
    linear residuals ``r+ = g - l1/2`` and ``r- = -g - l1/2``; the gap is
    ``max r - w+'r+ - w-'r-``, nonnegative and zero exactly at an optimum
    when the unpenalized coefficients fit what the others leave over.
    Returns ``(gap, scale)``, ``scale`` being ``c (||y - mean y|| + c)``
    with ``c`` the largest norm of a penalized centred column with its
    ridge row: no smaller than the scale of the solver's certificate.
    """
    xc = X[:, penalized] - X[:, penalized].mean(axis=0)
    resid = y - mu - X @ w
    wp = w[penalized]
    g = xc.T @ resid - l2[penalized] * wp
    r_plus, r_minus = g - l1[penalized] / 2.0, -g - l1[penalized] / 2.0
    gap = float(np.concatenate([r_plus, r_minus]).max(initial=-np.inf)
                - np.maximum(wp, 0.0) @ r_plus - np.maximum(-wp, 0.0) @ r_minus)
    c = float(np.sqrt(((xc ** 2).sum(axis=0) + l2[penalized]).max(initial=0.0)))
    return gap, c * (float(np.linalg.norm(y - y.mean())) + c)


def warm_candidate_fits(sub, grid, spec, start=None):
    """Test inversion one candidate at a time, as ``pointwise_ci`` fitted before it solved blocks.

    ``sub`` is a one-post-period panel.  Each candidate of the sorted
    ``grid`` gets its own adjusted panel and its own :func:`synthconf.fit`,
    warm from the fit of the candidate before it (the first from
    ``start``).  This is the reference for the block fit, so it goes
    through the package's single-fit path on purpose.
    """
    import synthconf as sc

    fits = [start]
    for candidate in np.sort(np.asarray(grid, dtype=float)):
        fits.append(sc.fit(sc.adjust_under_null(sub, [candidate]), spec, fits[-1]))
    return fits[1:]


def signed_active_set_reference(gram, lin, support, w_s, scale, cfg):
    """The active set of ``solvers._active_set`` without a sum-to-one row, solving afresh at every step.

    A reference copy of the loop as it was before joins were bordered:
    after a join passes the span test, the KKT system on the grown support
    is built and solved again.  The same joins, drops and span moves follow
    in exact arithmetic, so the package's bordered steps must reach the
    same supports in the same number of steps.  Returns ``(support, w_s,
    steps, converged, kkt)`` as ``_active_set`` does.
    """

    def solve(system, rhs):
        try:
            return np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(system, rhs, rcond=None)[0]

    def step_to_first_zero(x, d, limit):
        toward = np.flatnonzero(x * d < 0.0)
        ratios = -x[toward] / d[toward]
        if ratios.size and ratios.min() < limit:
            k = int(toward[ratios.argmin()])
            moved = x + ratios.min() * d
            moved[k] = 0.0
            moved[np.abs(moved) <= np.sqrt(eps) * x] = 0.0
        elif np.isfinite(limit):
            k = None
            moved = x + limit * d
        else:
            return x, None
        moved[moved * x < 0.0] = 0.0
        return moved, k

    eps = np.finfo(float).eps
    limit = cfg.tol * scale
    steps = 0
    solved = support.size == 0
    while True:
        while not solved and steps < cfg.max_iters:
            steps += 1
            z = solve(gram[np.ix_(support, support)], lin[support])
            solved = bool((z > 0.0).all())
            if solved:
                w_s = z
            else:
                w_s, _ = step_to_first_zero(w_s, z - w_s, 1.0)
                keep = w_s > 0.0
                support, w_s = support[keep], w_s[keep]
        r = lin - gram[:, support] @ w_s
        gap = float(r.max(initial=-np.inf) - w_s @ r[support])
        if gap <= limit or steps >= cfg.max_iters:
            break
        joining = int(np.argmax(r))
        if (support == joining).any():
            break
        old = support
        support, w_s = np.append(support, joining), np.append(w_s, 0.0)
        if old.size:
            a = solve(gram[np.ix_(old, old)], gram[old, joining])
            if gram[joining, joining] - gram[old, joining] @ a <= old.size * eps * gram[joining, joining]:
                w_s, k = step_to_first_zero(w_s, np.append(-a, 1.0), np.inf)
                if k is None:
                    break
                support, w_s = np.delete(support, k), np.delete(w_s, k)
        solved = False
    kkt = max(gap, 0.0) / scale if scale > 0 else 0.0
    return support, w_s, steps, solved and gap <= limit, kkt
