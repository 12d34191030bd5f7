"""Tests for projections, the active-set solvers for the simplex and for
penalized least squares, principal components, alternating least squares,
and OLS."""

import inspect
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from synthconf import (
    DgpSpec,
    DimensionError,
    ElasticNetPenalty,
    EstimatorSpec,
    PanelData,
    RankDeficiencyError,
    SolverConfig,
    Statistic,
    alternating_ls,
    fit,
    ols,
    pca_factors,
    pointwise_ci,
    project_l1_ball,
    project_nuclear_ball,
    project_simplex,
    solvers,
)
from conftest import examples


def simplex(X, y, m, cfg=SolverConfig(), start=None):
    """``(w, report)`` of a response ``y`` (n,), or ``(W, reports)`` of a block
    (n, G), from the block core that the ``sc`` and ``classo`` fits call, with
    ``m`` constrained columns; each column of a block starts from its
    neighbour's weights."""
    y = np.asarray(y, dtype=float)
    W, *_, report = solvers._simplex_block(np.asarray(X, dtype=float), y[None] if y.ndim == 1 else y.T, m,
                                           cfg, start, lambda v: v)
    return (W[0], report(0)) if y.ndim == 1 else (W.T, [report(g) for g in range(len(W))])


def penalized(X, y, penalty, cfg=SolverConfig(), weights=None, start=None):
    """``(intercept, w, report)`` of one response from the block core that the
    lasso and elastic-net fits call; ``weights`` scales the penalty per column."""
    X = np.asarray(X, dtype=float)
    weights = np.ones(X.shape[1]) if weights is None else weights
    intercepts, W, *_, report = solvers._penalized_block(X, np.asarray(y, dtype=float)[None], penalty, cfg,
                                                         weights, start)
    return float(intercepts[0]), W[0], report(0)


def run_reaching(marker, call):
    """``(call(), reached)``: whether the call ran the line of ``solvers`` that holds ``marker``."""
    lines = inspect.getsource(solvers).splitlines()
    (lineno,) = [i + 1 for i, line in enumerate(lines) if marker in line]
    reached = []

    def trace(frame, event, arg):
        if frame.f_code.co_filename != solvers.__file__:
            return None
        if event == "line" and frame.f_lineno == lineno:
            reached.append(lineno)
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, bool(reached)


class TestProjectSimplex:
    def test_point_on_simplex_unchanged(self):
        v = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(project_simplex(v), v, atol=1e-14)

    def test_vertex_case(self):
        np.testing.assert_allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])

    def test_matches_grid_search(self, rng):
        for n in (2, 3):
            for _ in range(5):
                v = 2.0 * rng.standard_normal(n)
                ours = project_simplex(v)
                grid_best = _oracles.simplex_projection_grid_search(v, step=1e-3)
                assert np.abs(ours - grid_best).max() < 2e-3

    def test_matches_bisection(self, rng):
        for n in (2, 4, 9):
            v = 3.0 * rng.standard_normal(n)
            np.testing.assert_allclose(
                project_simplex(v), _oracles.simplex_projection_bisect(v), atol=1e-6
            )

    def test_output_feasible(self, rng):
        for _ in range(20):
            w = project_simplex(5 * rng.standard_normal(rng.integers(1, 12)))
            assert (w >= 0).all()
            assert abs(w.sum() - 1.0) < 1e-12


class TestProjectL1Ball:
    def test_interior_point_unchanged(self):
        v = np.array([0.3, -0.2])
        np.testing.assert_array_equal(project_l1_ball(v, 1.0), v)

    def test_scalar_clip(self):
        np.testing.assert_allclose(project_l1_ball(np.array([3.0]), 1.0), [1.0])

    def test_matches_bisection(self, rng):
        for _ in range(20):
            v = 4.0 * rng.standard_normal(rng.integers(2, 15))
            radius = float(rng.uniform(0.2, 2.0))
            np.testing.assert_allclose(
                project_l1_ball(v, radius),
                _oracles.l1_projection_bisect(v, radius),
                atol=1e-6,
            )

    def test_norm_bound(self, rng):
        for _ in range(20):
            w = project_l1_ball(5 * rng.standard_normal(8), 1.0)
            assert np.abs(w).sum() <= 1.0 + 1e-12

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            project_l1_ball(np.ones(3), 0.0)


class TestProjectNuclearBall:
    def test_feasible_matrix_unchanged(self, rng):
        a = 0.1 * rng.standard_normal((4, 3))
        np.testing.assert_allclose(project_nuclear_ball(a, 10.0), a, atol=1e-10)

    def test_diagonal_example(self):
        a = np.diag([3.0, 1.0])
        np.testing.assert_allclose(project_nuclear_ball(a, 2.0), np.diag([2.0, 0.0]), atol=1e-12)

    def test_rank_one_rescaling(self, rng):
        u = rng.standard_normal(5)
        v = rng.standard_normal(3)
        a = 4.0 * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        projected = project_nuclear_ball(a, 2.5)
        np.testing.assert_allclose(projected, a * 2.5 / 4.0, atol=1e-10)

    def test_nuclear_norm_bound(self, rng):
        a = rng.standard_normal((6, 4))
        projected = project_nuclear_ball(a, 1.5)
        assert np.linalg.svd(projected, compute_uv=False).sum() <= 1.5 + 1e-9

    def test_zero_radius_refused(self, rng):
        with pytest.raises(ValueError, match="radius must be positive; got 0.0"):
            project_nuclear_ball(rng.standard_normal((4, 3)), 0.0)


class TestProjectionProperties:
    """Idempotence and non-expansiveness on sampled points."""

    def test_idempotent(self, rng):
        for _ in range(10):
            v = 3 * rng.standard_normal(7)
            for proj in (project_simplex, lambda x: project_l1_ball(x, 1.3)):
                once = proj(v)
                np.testing.assert_allclose(proj(once), once, atol=1e-12)
        a = rng.standard_normal((5, 4))
        once = project_nuclear_ball(a, 2.0)
        np.testing.assert_allclose(project_nuclear_ball(once, 2.0), once, atol=1e-9)

    def test_nonexpansive(self, rng):
        for proj in (project_simplex, lambda x: project_l1_ball(x, 0.8)):
            for _ in range(25):
                u, v = 3 * rng.standard_normal((2, 6))
                lhs = np.linalg.norm(proj(u) - proj(v))
                assert lhs <= np.linalg.norm(u - v) + 1e-12
        for _ in range(10):
            a, b = rng.standard_normal((2, 5, 4))
            lhs = np.linalg.norm(project_nuclear_ball(a, 1.0) - project_nuclear_ball(b, 1.0))
            assert lhs <= np.linalg.norm(a - b) + 1e-12


class TestSimplexLS:
    def test_recovers_feasible_noise_free_solution(self, rng):
        X = rng.standard_normal((30, 4))
        w_star = np.array([0.4, 0.3, 0.2, 0.1])
        y = X @ w_star
        w, report = simplex(X, y, 4)
        assert report.converged
        assert report.final_objective < 1e-20
        np.testing.assert_allclose(w, w_star, atol=1e-12)

    def test_simplex_matches_1d_grid(self, rng):
        X = rng.standard_normal((12, 2))
        y = X @ np.array([0.7, 0.3]) + 0.5 * rng.standard_normal(12)
        w, report = simplex(X, y, 2)
        w1 = np.linspace(0.0, 1.0, 10001)
        grid = np.column_stack([w1, 1.0 - w1])
        grid_best = ((y[:, None] - X @ grid.T) ** 2).sum(axis=0).min()
        assert abs(report.final_objective - grid_best) < 1e-4

    def test_l1_ball_matches_grid(self, rng):
        # The l1 ball of radius K is the image of the simplex on [X, -X]
        # under v -> K (v+ - v-).
        X = rng.standard_normal((10, 3))
        y = X @ np.array([0.5, -0.3, 0.1]) + 0.3 * rng.standard_normal(10)
        v, report = simplex(np.hstack([X, -X]), y, 6)
        w = v[:3] - v[3:]
        assert np.abs(w).sum() <= 1.0 + 1e-12
        grid_best = _oracles.l1_ball_objective_grid_search(X, y, radius=1.0, step=1e-2)
        assert abs(report.final_objective - grid_best) < 5e-3

    def test_nonconvergence_reported(self, rng):
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        _, report = simplex(X, y, 3, SolverConfig(max_iters=1))
        assert not report.converged
        assert report.iterations == 1
        assert report.kkt_residual > SolverConfig().tol

    def test_constrained_columns_in_the_free_span_keep_the_simplex(self):
        # Regression: a constrained column equal to a free one projects to
        # exactly zero, which scaled the sum-to-one row by 0; the solver
        # then returned w = 0, reporting convergence.
        rng = np.random.default_rng(37)
        X = rng.standard_normal((3, 2))
        X[:, 0] = X[:, 1]
        y = rng.standard_normal(3)
        w, report = simplex(X, y, 1)
        assert w[0] == 1.0 and report.converged
        np.testing.assert_allclose(X @ w, X[:, 1] * (X[:, 1] @ y) / (X[:, 1] @ X[:, 1]), atol=1e-12)

    @settings(max_examples=examples(200), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(3, 12),
        n_cols=st.integers(1, 15),
        n_free=st.integers(0, 2),
        radius=st.floats(0.05, 5.0),
        kind=st.sampled_from(["sc", "classo"]),
        degenerate=st.sampled_from([None, "constant", "duplicate"]),
    )
    # A free constant column whose centring leaves rounding noise.
    @example(seed=0, n_rows=10, n_cols=3, n_free=1, radius=1.0, kind="classo", degenerate="constant")
    def test_kkt_and_objective_against_projected_gradient(self, seed, n_rows, n_cols, n_free, radius,
                                                          kind, degenerate):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n_rows, n_cols + n_free))
        y = X[:, : min(3, n_cols)].sum(axis=1) + rng.standard_normal(n_rows)
        # A constant last column, or a first column that duplicates the
        # last one; the last column is free when there are free columns.
        if degenerate == "constant":
            X[:, -1] = 0.3  # its mean is not exactly 0.3 for 10 to 12 rows
        elif degenerate == "duplicate" and X.shape[1] > 1:
            X[:, 0] = X[:, -1]
        if kind == "sc":
            w, report = simplex(X, y, n_cols)
            f = report.final_objective
            assert (w[:n_cols] >= 0.0).all() and abs(w[:n_cols].sum() - 1.0) <= 1e-12
            ref_X, ref_y, ball = X, y, None
        else:
            covariates = None if n_free == 0 else np.repeat(X[:, None, n_cols:], n_cols + 1, axis=1)
            panel = PanelData(np.column_stack([y, X[:, :n_cols]]), t0=n_rows - 1, covariates=covariates)
            fitted = fit(panel, EstimatorSpec.classo(radius))
            report = fitted.diagnostics
            w = np.concatenate([fitted.params["weights"], fitted.params["covariate_coefs"]])
            f = float(fitted.residuals @ fitted.residuals)
            assert np.abs(w[:n_cols]).sum() <= radius * (1.0 + 1e-12)
            # The intercept is profiled out by centring, an algebraic identity.
            ref_X, ref_y, ball = X - X.mean(axis=0), y - y.mean(), radius
            np.testing.assert_allclose(fitted.params["mu"], y.mean() - X.mean(axis=0) @ w,
                                       atol=1e-9 * (1.0 + np.abs(y).max()))
            # A constant covariate is the intercept again and keeps a zero
            # coefficient; its centred column holds only rounding noise.
            assert not (degenerate == "constant" and n_free) or w[-1] == 0.0
        assert report.converged
        gap, free, scale = _oracles.constrained_gap(ref_X, ref_y, w, n_cols, ball)
        assert gap <= SolverConfig().tol * scale
        assert free <= 1e-10
        _, f_ref = _oracles.projected_gradient_reference(ref_X, ref_y, n_cols, ball)
        assert f <= f_ref + 1e-9 * (1.0 + abs(f_ref))


class TestWarmStart:
    def test_cold_steps_are_unchanged(self):
        # Step counts of cold solves, frozen from before warm starts existed:
        # a cold start begins at the best vertex (simplex) or at zero.
        steps = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((31, 50) if seed % 2 else (15, 10))
            y = X[:, :3].mean(axis=1) + rng.standard_normal(X.shape[0])
            steps.append((simplex(X, y, X.shape[1])[1].iterations,
                          simplex(np.hstack([X, -X]), y - y.mean(), 2 * X.shape[1])[1].iterations,
                          penalized(X, y, ElasticNetPenalty(0.5, 0.7))[2].iterations))
        assert steps == [(4, 2, 9), (4, 4, 43), (2, 3, 7), (7, 11, 45),
                         (5, 8, 9), (8, 10, 43), (2, 4, 8), (2, 3, 50)]

    @settings(max_examples=examples(150), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(3, 15),
        n_cols=st.integers(1, 20),
        n_free=st.integers(0, 2),
        shift=st.floats(-5.0, 5.0),
        kind=st.sampled_from(["sc", "signed", "lasso", "elastic_net"]),
        lam=st.floats(0.01, 5.0),
    )
    def test_warm_start_from_neighbouring_response(self, seed, n_rows, n_cols, n_free, shift, kind, lam):
        # As in a test inversion: the same design, and a response whose last
        # entry moved.
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n_rows, n_cols + n_free))
        y = X[:, : min(3, n_cols)].mean(axis=1) + rng.standard_normal(n_rows)
        moved = y.copy()
        moved[-1] -= shift
        if kind in ("sc", "signed"):
            design = X if kind == "sc" else np.hstack([X[:, :n_cols], -X[:, :n_cols], X[:, n_cols:]])
            m = n_cols if kind == "sc" else 2 * n_cols
            w_prev, _ = simplex(design, y, m)
            (w, report), (_, cold) = simplex(design, moved, m, start=w_prev[:m]), simplex(design, moved, m)
            assert (w[:m] >= 0.0).all() and abs(w[:m].sum() - 1.0) <= 1e-12
            gap, free, scale = _oracles.constrained_gap(design, moved, w, m)
            assert gap <= SolverConfig().tol * scale and free <= 1e-10
        else:
            penalty = ElasticNetPenalty(lam, 1.0 if kind == "lasso" else 0.5)
            weights = np.ones(n_cols + n_free)
            weights[n_cols:] = 0.0
            _, w_prev, _ = penalized(X, y, penalty, weights=weights)
            mu, w, report = penalized(X, moved, penalty, weights=weights, start=w_prev)
            cold = penalized(X, moved, penalty, weights=weights)[2]
            l1, l2 = penalty.l1 * weights, penalty.l2 * weights
            kkt = _oracles.penalized_kkt_violation(X, moved, mu, w, l1, l2)
            assert kkt <= TestCoordinateDescent.kkt_bound(X, moved)
        assert report.converged
        f, f_cold = report.final_objective, cold.final_objective
        assert abs(f - f_cold) <= 1e-9 * (1.0 + abs(f_cold))

    def test_start_of_wrong_length_is_refused(self, rng):
        X = rng.standard_normal((8, 3))
        with pytest.raises(DimensionError):
            simplex(X, rng.standard_normal(8), 3, start=np.ones(4))
        with pytest.raises(DimensionError):
            penalized(X, rng.standard_normal(8), ElasticNetPenalty(1.0, 1.0), start=np.ones(2))


class TestBlockOfOne:
    @settings(max_examples=examples(150), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(3, 15),
        n_cols=st.integers(1, 20),
        n_free=st.integers(0, 2),
        warm=st.booleans(),
    )
    def test_block_of_one_is_the_single_solve(self, seed, n_rows, n_cols, n_free, warm):
        # A response of shape (n, 1) goes through the block path; its weights
        # and report must be those of the 1-D response, bit for bit, with
        # free columns and from a warm start.
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n_rows, n_cols + n_free))
        y = X[:, : min(3, n_cols)].mean(axis=1) + rng.standard_normal(n_rows)
        neighbour = y + rng.standard_normal(n_rows)
        start = simplex(X, neighbour, n_cols)[0][:n_cols] if warm else None
        w, report = simplex(X, y, n_cols, start=start)
        W, reports = simplex(X, y[:, None], n_cols, start=start)
        assert W.shape == (X.shape[1], 1)
        np.testing.assert_array_equal(W[:, 0], w)
        assert reports == [report]

    def test_stacked_products_are_lone_products(self, rng):
        # _matvecs and _dots make, for each row, the BLAS call of the lone
        # product: C-ordered and strided rows, a transposed design, G = 1.
        for _ in range(50):
            T, n, G = rng.integers(1, 60, size=3)
            a = rng.standard_normal((n, T)) if rng.random() < 0.5 else rng.standard_normal((T, n)).T
            strided = np.empty((T, G + 1))[:, :G].T
            strided[:] = rng.standard_normal((G, T))
            x = rng.standard_normal(T)
            for Y in (rng.standard_normal((G, T)), strided):
                got, dots, with_x = solvers._matvecs(a, Y), solvers._dots(Y, Y[::-1]), solvers._dots(Y, x)
                for g in range(G):
                    assert got[g].tobytes() == (a @ Y[g]).tobytes()
                    assert dots[g].tobytes() == (Y[g] @ Y[G - 1 - g]).tobytes()
                    assert with_x[g].tobytes() == (Y[g] @ x).tobytes()

    @pytest.mark.parametrize("n_responses", [1, 4])
    def test_projection_of_a_block_is_each_response_alone(self, rng, n_responses):
        # _project_free makes each per-response product in one stacked call,
        # which must give every response the bits it gets alone: responses
        # strided as a test inversion lays them out, and two collinear free
        # columns, so the rank cut-off drops one.
        head = rng.standard_normal((41, 30))
        free = rng.standard_normal((41, 2))
        free[:, 1] = 2.0 * free[:, 0]
        assert np.linalg.matrix_rank(free) == 1
        Y = np.empty((41, max(2, n_responses)))[:, :n_responses].T
        Y[:] = rng.standard_normal(Y.shape)
        rest = rng.standard_normal((n_responses, 41))
        gram, xty, scale, coefs = solvers._project_free(head, free, Y)
        fitted = coefs(rest)
        assert xty.shape == (30, n_responses) and fitted.shape == (n_responses, 2)
        for g in range(n_responses):
            gram_g, xty_g, scale_g, coefs_g = solvers._project_free(head, free, Y[g:g + 1])
            for got, want in ((gram, gram_g), (xty[:, g], xty_g[:, 0]), (scale[g], scale_g[0]),
                              (fitted[g], coefs_g(rest[g:g + 1])[0])):
                assert got.tobytes() == want.tobytes()


class TestCoordinateDescent:
    def test_unpenalized_limit_is_ols(self, rng):
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        mu, w, report = penalized(X, y, ElasticNetPenalty(0.0, 1.0))
        design = np.column_stack([np.ones(40), X])
        expected = _oracles.ols_via_qr(design, y)
        assert report.converged
        np.testing.assert_allclose(np.concatenate([[mu], w]), expected, atol=1e-8)

    def test_full_shrinkage_threshold(self, rng):
        X = rng.standard_normal((25, 4))
        y = rng.standard_normal(25)
        lam = 2.0 * np.abs(X.T @ (y - y.mean())).max()
        _, w, _ = penalized(X, y, ElasticNetPenalty(lam * 1.0001, 1.0))
        np.testing.assert_array_equal(w, np.zeros(4))

    def test_stationarity_by_perturbation(self, rng):
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        mu, w, _ = penalized(X, y, ElasticNetPenalty(0.7, 1.0))

        def objective(mu_, w_):
            r = y - mu_ - X @ w_
            return float(r @ r) + 0.7 * np.abs(w_).sum()

        base = objective(mu, w)
        for j in range(3):
            for delta in (1e-4, -1e-4):
                bumped = w.copy()
                bumped[j] += delta
                assert objective(mu, bumped) >= base - 1e-12
        for delta in (1e-4, -1e-4):
            assert objective(mu + delta, w) >= base - 1e-12

    def test_elastic_net_alpha_one_is_lasso(self, rng):
        # The lasso estimator solves the elastic net at alpha = 1.
        X = rng.standard_normal((15, 4))
        y = rng.standard_normal(15)
        lasso = fit(PanelData(np.column_stack([y, X]), t0=14), EstimatorSpec.lasso(0.5))
        mu_e, w_e, _ = penalized(X, y, ElasticNetPenalty(0.5, 1.0))
        assert abs(lasso.params["mu"] - mu_e) < 1e-10
        np.testing.assert_allclose(lasso.params["weights"], w_e, atol=1e-10)

    @staticmethod
    def kkt_bound(X, y, tol=SolverConfig().tol):
        """An oracle bound on the KKT violation, ``tol * (1 + 2 ||Xc'yc||_inf)``."""
        xty = (X - X.mean(axis=0)).T @ (y - y.mean())
        return tol * (1.0 + 2.0 * np.abs(xty).max(initial=0.0))

    @staticmethod
    def certificate_bound(X, y, l2, tol=SolverConfig().tol):
        """The bound on the KKT violation that ``_penalized_block`` documents for
        its certificate, twice ``tol c (||y|| + c)``, plus ``tol`` for the rounding
        of the intercept condition.  ``c`` is the largest column norm of the
        centred design with its ridge rows ``sqrt(l2_j) e_j``, and ``y`` is centred."""
        design = np.vstack([X - X.mean(axis=0), np.diag(np.sqrt(l2))])
        c = np.sqrt((design * design).sum(axis=0)).max(initial=0.0)
        return tol * (1.0 + 2.0 * c * (np.linalg.norm(y - y.mean()) + c))

    def test_lasso_more_columns_than_rows_converges(self):
        # 23 rows, 50 penalized and 2 unpenalized columns, small lam: the
        # fit nearly interpolates, so the support fills the rank of Xc and
        # later joining columns lie in its span.
        rng = np.random.default_rng(9)
        X = rng.standard_normal((23, 52))
        y = X[:, :3].mean(axis=1) + rng.standard_normal(23)
        weights = np.ones(52)
        weights[-2:] = 0.0
        mu, w, report = penalized(X, y, ElasticNetPenalty(0.1, 1.0), weights=weights)
        assert report.converged
        assert report.note == "signed active set"
        kkt = _oracles.penalized_kkt_violation(X, y, mu, w, 0.1 * weights, np.zeros(52))
        assert kkt <= self.kkt_bound(X, y)
        # At most rank(Xc) = 22 nonzero weights, the two unpenalized ones among them.
        assert w[-2:].all() and np.count_nonzero(w) <= 22

    @settings(max_examples=examples(150), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(3, 9),
        n_cols=st.integers(1, 12),
        n_free=st.integers(0, 2),
        lam=st.floats(0.01, 20.0),
        alpha=st.floats(0.0, 1.0),
        degenerate=st.sampled_from([None, "constant", "duplicate"]),
    )
    # An unpenalized constant column whose centring leaves rounding noise.
    @example(seed=0, n_rows=10, n_cols=3, n_free=1, lam=1.0, alpha=0.5, degenerate="constant")
    # A duplicate left at weight 0 under a ridge part of 3.1e-7: the violation, 2 l2 |w0| = 1.5e-7,
    # meets the certificate's bound (1.7e-7) but not tol (1 + 2 ||Xc'yc||_inf) = 7.5e-8.
    @example(seed=1, n_rows=6, n_cols=4, n_free=0, lam=0.03125, alpha=0.99999, degenerate="duplicate")
    def test_kkt_and_objective_against_plain_descent(self, seed, n_rows, n_cols, n_free, lam, alpha,
                                                     degenerate):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n_rows, n_cols))
        y = X[:, : min(3, n_cols)].sum(axis=1) + rng.standard_normal(n_rows)
        # The first n_free columns are unpenalized.  A constant first column
        # must keep a zero weight; a duplicate makes the first two collinear.
        if degenerate == "constant":
            X[:, 0] = 0.3  # its mean is not exactly 0.3 for 10 to 12 rows
        elif degenerate == "duplicate" and n_cols > 1:
            X[:, 0] = X[:, 1]
        weights = np.ones(n_cols)
        weights[: min(n_free, n_cols - 1)] = 0.0
        penalty = ElasticNetPenalty(lam, alpha)
        l1, l2 = penalty.l1 * weights, penalty.l2 * weights
        mu, w, report = penalized(X, y, penalty, weights=weights)
        assert report.converged
        assert degenerate != "constant" or w[0] == 0.0
        assert _oracles.penalized_kkt_violation(X, y, mu, w, l1, l2) <= self.certificate_bound(X, y, l2)
        f = _oracles.penalized_objective(X, y, mu, w, l1, l2)
        f_ref = _oracles.penalized_objective(X, y, *_oracles.penalized_cd_reference(X, y, l1, l2), l1, l2)
        assert f <= f_ref + 1e-9 * (1.0 + abs(f_ref))

    def test_penalty_validation(self):
        with pytest.raises(ValueError):
            ElasticNetPenalty(-1.0, 1.0)
        with pytest.raises(ValueError):
            ElasticNetPenalty(1.0, 1.5)


class TestBorderedJoin:
    @pytest.mark.parametrize("shape, penalty, cold_steps", [
        ((23, 50), ElasticNetPenalty(0.5, 0.5), 43),
        ((30, 8), ElasticNetPenalty(0.1, 1.0), 8),
    ], ids=["elastic_net_23x50", "lasso_30x8"])
    def test_one_linear_solve_per_step(self, monkeypatch, shape, penalty, cold_steps):
        # A join that passes the span test borders the solution on the old
        # support with that test's solve, so every step makes one solve; the
        # 23 x 50 elastic net made 78 for its 43 steps when each join solved
        # afresh.  A lasso with more columns than rows keeps one more solve
        # per join whose column lies in the span of the support: 62 solves
        # for the 51 steps of test_lasso_more_columns_than_rows_converges.
        calls = []
        solve = solvers._solve
        monkeypatch.setattr(solvers, "_solve", lambda *args: calls.append(args) or solve(*args))
        rng = np.random.default_rng(4)
        X = rng.standard_normal(shape)
        y = X[:, :3].mean(axis=1) + rng.standard_normal(shape[0])
        _, w, report = penalized(X, y, penalty)
        assert report.converged and report.iterations == cold_steps
        assert len(calls) == report.iterations
        calls.clear()
        moved = y.copy()
        moved[-1] -= 1.0
        _, _, warm = penalized(X, moved, penalty, start=w)
        assert warm.converged and warm.iterations > 0
        assert len(calls) == warm.iterations

    @settings(max_examples=examples(150), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(3, 12),
        n_cols=st.integers(1, 30),
        n_free=st.integers(0, 2),
        lam=st.floats(0.01, 10.0),
        alpha=st.sampled_from([1.0, 0.5]) | st.floats(0.0, 1.0),
        duplicate=st.booleans(),
        max_iters=st.sampled_from([10_000, 3]),
        warm=st.booleans(),
    )
    # Two equal columns leave one step with two weights that reach zero
    # together; rounding alone used to decide whether both dropped at once.
    @example(seed=131, n_rows=3, n_cols=3, n_free=0, lam=0.03125, alpha=0.03125, duplicate=True,
             max_iters=10_000, warm=True)
    @example(seed=131, n_rows=3, n_cols=3, n_free=0, lam=0.03125, alpha=0.5, duplicate=True,
             max_iters=3, warm=True)
    # A duplicated column with a ridge of 7.5e-6: the final support's KKT
    # matrix has condition number about 2e6, and the weights differ by 1.04e-10.
    @example(seed=0, n_rows=7, n_cols=2, n_free=1, lam=0.75, alpha=0.99999, duplicate=True,
             max_iters=10_000, warm=False)
    def test_bordered_joins_follow_the_loop_that_solves_afresh(self, seed, n_rows, n_cols, n_free, lam, alpha,
                                                               duplicate, max_iters, warm):
        # The bordered KKT solution differs from a fresh solve by rounding
        # only: the same supports in the same steps, with weights within
        # 1e-10 of the largest where the final support's KKT matrix has a
        # condition number up to 1e6, and in proportion to it above that.
        # More columns than rows and a duplicated column send joins through
        # the span branch as well.
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n_rows, n_cols + n_free))
        if duplicate and n_cols > 1:
            X[:, 1] = X[:, 0]
        y = X[:, : min(3, n_cols)].mean(axis=1) + rng.standard_normal(n_rows)
        penalty = ElasticNetPenalty(lam, alpha)
        weights = np.r_[np.ones(n_cols), np.zeros(n_free)]
        start = penalized(X, y + rng.standard_normal(n_rows), penalty, weights=weights)[1] if warm else None
        cfg = SolverConfig(max_iters=max_iters)
        _, w, report = penalized(X, y, penalty, cfg, weights, start)

        def reference(gram, lin, pad, support, w_s, scale, cfg, system, rhs):
            return _oracles.signed_active_set_reference(gram, lin, support, w_s, scale, cfg)

        with mock.patch.object(solvers, "_active_set", reference):
            _, w_ref, ref = penalized(X, y, penalty, cfg, weights, start)
        np.testing.assert_array_equal(w != 0.0, w_ref != 0.0)
        assert (report.iterations, report.converged) == (ref.iterations, ref.converged)
        # That matrix is the Gram matrix of the support's centred columns,
        # with their ridge rows and the free columns projected out.
        xc = X - X.mean(axis=0)
        xa = np.vstack([xc, np.diag(np.sqrt(penalty.l2 * weights))[penalty.l2 * weights > 0.0]])
        on = np.flatnonzero((w_ref != 0.0) & (penalty.l1 * weights > 0.0))
        head, free = xa[:, on], xa[:, n_cols:]
        if free.shape[1]:
            head = head - free @ np.linalg.lstsq(free, head, rcond=None)[0]
        cond = np.linalg.cond(head.T @ head) if on.size else 1.0
        assert np.abs(w - w_ref).max() <= 1e-10 * max(1.0, cond / 1e6) * np.abs(w_ref).max()


class TestRareBranches:
    """The active-set branches that only an exact zero or the rounding of a solve takes."""

    def test_full_step_to_an_exact_zero(self):
        # The KKT solution on the warm support is (0.5, 0.5, 0): the third
        # weight reaches zero at the full step, not before it, and drops.
        (w, report), reached = run_reaching(
            "moved = x + limit * d", lambda: simplex(np.eye(3), [0.5, 0.5, 0.0], 3, start=np.ones(3) / 3))
        assert reached
        np.testing.assert_array_equal(w, [0.5, 0.5, 0.0])
        assert report.converged and report.kkt_residual == 0.0 and report.iterations == 2

    @pytest.mark.parametrize("marker, seed, shape, solve", [
        ("# the gap is rounding on the support itself", 1, (10, 4), lambda X, y, cfg: simplex(X, y, 4, cfg)),
        # A lasso penalty below rounding: the opposite copy of a support column
        # in the signed split can carry the largest violation.
        ("# no descent along the span: rounding", 2, (10, 3),
         lambda X, y, cfg: penalized(X, y, ElasticNetPenalty(1e-20, 1.0), cfg)),
    ], ids=["support", "span"])
    def test_rounding_ends_a_run_below_any_reachable_tolerance(self, marker, seed, shape, solve):
        # With a tolerance below the rounding of a KKT solve, the gap left on a
        # solved support is that rounding, and the run stops there, not
        # converged, with the weights and steps the default tolerance gives.
        # The stop's floor keeps a run above that rounding, so it is lifted here.
        rng = np.random.default_rng(seed)
        X, y = rng.standard_normal(shape), rng.standard_normal(shape[0])
        with mock.patch.object(solvers, "_GAP_ROUNDING", 0.0):
            result, reached = run_reaching(marker, lambda: solve(X, y, SolverConfig(tol=1e-300)))
        expected = solve(X, y, SolverConfig())
        assert reached
        report, ref = result[-1], expected[-1]
        assert not report.converged and 0.0 < report.kkt_residual <= 1e-15
        assert ref.converged and report.iterations == ref.iterations
        for got, want in zip(result[:-1], expected[:-1]):
            np.testing.assert_array_equal(got, want)


class TestKktSolve:
    """Invariants the active-set steps rest on: ``_solve`` is numpy's solve bit for
    bit, a singular system falls back to least squares without a warning, and
    every Gram matrix is exactly symmetric (a step gathers rows for columns)."""

    @settings(max_examples=examples(200), deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), log_cond=st.floats(0.0, 15.0),
           symmetric=st.booleans())
    def test_solve_is_numpy_solve_bit_for_bit(self, seed, n, log_cond, symmetric):
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v = u if symmetric else np.linalg.qr(rng.standard_normal((n, n)))[0]
        system = (u * np.logspace(0, -log_cond, n)) @ v.T  # condition number up to 1e15
        rhs = rng.standard_normal(n) * 10 ** rng.uniform(-3, 3)
        expected = np.linalg.solve(system, rhs)
        with mock.patch.object(np.linalg, "solve", side_effect=AssertionError("the wrapper ran")):
            with np.errstate(invalid="ignore"):  # as _solve_columns holds it
                x = solvers._solve(system, rhs)
        assert x.dtype == expected.dtype and x.tobytes() == expected.tobytes()

    def test_singular_system_takes_least_squares_quietly(self):
        # Two equal columns with the sum-to-one border: exactly singular.
        system = np.array([[2.0, 2.0, 1.0], [2.0, 2.0, 1.0], [1.0, 1.0, 0.0]])
        rhs = np.array([1.0, 3.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(system, rhs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                x = solvers._solve(system, rhs)
        np.testing.assert_array_equal(x, np.linalg.lstsq(system, rhs, rcond=None)[0])

    def test_singular_step_of_a_fit_raises_no_warning(self):
        # A warm start on two equal columns makes the first KKT system exactly
        # singular (integer data, so every Gram entry is exact).
        X = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [0.0, 0.0, 3.0], [1.0, 1.0, 1.0]])
        y = np.array([1.0, 2.0, 2.0, 1.0])
        with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                w, report = simplex(X, y, 3, start=np.array([0.5, 0.5, 0.0]))
        assert lstsq.called
        assert report.converged and w.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("covariates", [False, True], ids=["plain", "covariates"])
    @pytest.mark.parametrize("spec", [
        EstimatorSpec.sc(), EstimatorSpec.classo(1.0), EstimatorSpec.lasso(0.1), EstimatorSpec.elastic_net(0.5, 0.5),
    ], ids=lambda spec: spec.label)
    def test_every_gram_is_exactly_symmetric(self, monkeypatch, spec, covariates):
        grams = []
        columns = solvers._solve_columns
        monkeypatch.setattr(solvers, "_solve_columns", lambda gram, *rest: grams.append(gram) or columns(gram, *rest))
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n_periods, n_controls = int(rng.integers(4, 30)), int(rng.integers(2, 40))
            outcomes = rng.standard_normal((n_periods, 1 + n_controls)) * 10 ** rng.uniform(-3, 3)
            cov = rng.standard_normal((n_periods, 1 + n_controls, 2)) if covariates else None
            fit(PanelData(outcomes, t0=n_periods - 1, covariates=cov), spec)
        assert len(grams) == 20
        for gram in grams:
            assert np.array_equal(gram, gram.T)

    @settings(max_examples=examples(200), deadline=None)
    @given(st.integers(0, 25), st.integers(0, 2**32 - 1))
    def test_signed_gram_is_the_block_matrix(self, k, seed):
        # The signed split's Gram matrix is written block by block; negation
        # is exact, so it is np.block's matrix bit for bit, signed zeros included.
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((k, k)) * 10.0 ** rng.uniform(-3, 3, (k, k))
        b[rng.random((k, k)) < 0.2] = 0.0
        b[rng.random((k, k)) < 0.1] = -0.0
        a = b + b.T  # exactly symmetric, as every Gram matrix here is
        for matrix, symmetric in ((b, False), (a, True)):
            signed = solvers._signed_gram(matrix)
            expected = np.block([[matrix, -matrix], [-matrix, matrix]])
            assert signed.shape == expected.shape and signed.tobytes() == expected.tobytes()
            if symmetric:
                assert signed.tobytes() == np.ascontiguousarray(signed.T).tobytes()


class TestSolverConfig:
    @pytest.mark.parametrize("field, value", [
        ("max_iters", 2.5), ("max_iters", 3.0), ("max_iters", True), ("max_iters", 0),
        ("tol", np.inf), ("tol", np.nan), ("tol", 0.0), ("tol", True), ("tol", "1e-8"),
    ])
    def test_bad_value_refused(self, field, value):
        # A cap of 2.5 ran 3 steps, True ran 1, and an infinite tol let every
        # fit stop converged at its first gap.  A tol of True was read as 1.0,
        # and a string one failed with a bare TypeError.
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_numpy_integer_cap_accepted(self):
        assert SolverConfig(max_iters=np.int64(3)).max_iters == 3

    @pytest.mark.parametrize("seed", [0, 3])
    def test_tol_under_the_rounding_level_stops_at_it(self, seed):
        # Regression: with tol=1e-300 the active set chased rounding for all
        # 10,000 steps and ended not converged, at kkt 0.05, with weights far
        # from the default fit's, which stops after 3 steps at kkt 2e-17.
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((10, 3))
        panel = PanelData(np.column_stack([rng.standard_normal(10), X]), t0=9)
        default = fit(panel, EstimatorSpec.lasso(1e-20))
        tight = fit(panel, EstimatorSpec.lasso(1e-20, SolverConfig(tol=1e-300)))
        assert tight.diagnostics.converged and tight.diagnostics.iterations == default.diagnostics.iterations
        assert tight.params["weights"].tobytes() == default.params["weights"].tobytes()


class TestRealParameters:
    @pytest.mark.parametrize("value", [True, "2"], ids=["bool", "str"])
    @pytest.mark.parametrize("name, make", [
        ("tol", lambda v: SolverConfig(tol=v)),
        ("q", lambda v: Statistic("sq", v)),
        ("lam", lambda v: EstimatorSpec.lasso(v)),
        ("radius", lambda v: EstimatorSpec.classo(v)),
        ("lam", lambda v: EstimatorSpec.elastic_net(v, 0.5)),
        ("alpha", lambda v: EstimatorSpec.elastic_net(0.5, v)),
        ("radius", lambda v: EstimatorSpec.matrix_completion(v)),
        ("rho_u", lambda v: DgpSpec(5, 3, rho_u=v)),
        ("rho_eps", lambda v: DgpSpec(5, 3, rho_eps=v)),
        ("alpha_true", lambda v: DgpSpec(5, 3, alpha_true=v)),
        ("level", lambda v: pointwise_ci(PanelData(np.ones((6, 3)), t0=5), 6, EstimatorSpec.did(), level=v)),
    ], ids=["tol", "q", "lasso_lam", "classo_radius", "elastic_net_lam", "elastic_net_alpha",
            "matrix_completion_radius", "rho_u", "rho_eps", "alpha_true", "level"])
    def test_bool_or_non_real_refused_by_name(self, name, make, value):
        # One rule for every real-valued parameter.  Only tol had it: the
        # others took True as 1 (or refused it as out of range), and a
        # string failed inside a comparison with an unnamed TypeError.
        with pytest.raises(ValueError, match=f"^{name} must be a real number; got {value!r}$"):
            make(value)


class TestPcaFactors:
    def test_exact_rank_one(self, rng):
        f = rng.standard_normal(20)
        lam = rng.standard_normal(6)
        Y = np.outer(f, lam)
        factors, loadings = pca_factors(Y, 1)
        np.testing.assert_allclose(factors @ loadings.T, Y, atol=1e-8)

    def test_full_rank_reconstruction(self, rng):
        Y = rng.standard_normal((7, 5))
        factors, loadings = pca_factors(Y, 5)
        np.testing.assert_allclose(factors @ loadings.T, Y, atol=1e-8)

    def test_normalization_and_diagonal_loadings(self, rng):
        Y = rng.standard_normal((20, 10))
        factors, loadings = pca_factors(Y, 3)
        np.testing.assert_allclose(factors.T @ factors / 20, np.eye(3), atol=1e-8)
        gram = loadings.T @ loadings
        np.testing.assert_allclose(gram, np.diag(np.diag(gram)), atol=1e-8)

    def test_residual_equals_tail_singular_energy(self, rng):
        Y = rng.standard_normal((20, 10))
        factors, loadings = pca_factors(Y, 2)
        resid = ((Y - factors @ loadings.T) ** 2).sum()
        s = np.linalg.svd(Y, compute_uv=False)
        np.testing.assert_allclose(resid, (s[2:] ** 2).sum(), rtol=1e-10)

    def test_sign_convention(self, rng):
        Y = rng.standard_normal((12, 4))
        factors, _ = pca_factors(Y, 2)
        for col in range(2):
            assert factors[np.abs(factors[:, col]).argmax(), col] > 0

    def test_k_bounds(self, rng):
        Y = rng.standard_normal((6, 4))
        for k in (0, 5):
            with pytest.raises(DimensionError):
                pca_factors(Y, k)

    def test_one_dimensional_matrix_refused(self):
        with pytest.raises(DimensionError, match="Y must be 2-D"):
            pca_factors(np.ones(6), 1)


class TestAlternatingLS:
    def test_noise_free_model_reaches_zero(self, rng):
        T, N, k = 25, 8, 2
        F = rng.standard_normal((T, k))
        L = rng.standard_normal((N, k))
        X = rng.standard_normal((T, N, 3))
        beta = np.array([0.5, -1.0, 0.25])
        Y = F @ L.T + X @ beta
        *_, report = alternating_ls(Y, X, k, SolverConfig(tol=1e-12))
        assert report.final_objective < 1e-6

    def test_objective_trace_monotone(self, rng):
        Y = rng.standard_normal((18, 7))
        X = rng.standard_normal((18, 7, 2))
        *_, report = alternating_ls(Y, X, 2)
        trace = np.asarray(report.objective_trace)
        assert (np.diff(trace) <= 1e-10 * np.maximum(1.0, trace[:-1])).all()

    @pytest.mark.parametrize("shape", [(18, 7), (18, 6, 2), (17, 7, 2)])
    def test_covariates_of_the_wrong_shape_refused(self, rng, shape):
        with pytest.raises(DimensionError, match="covariates must have shape"):
            alternating_ls(rng.standard_normal((18, 7)), rng.standard_normal(shape), 2)


class TestOls:
    def test_identity_design(self):
        y = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(ols(np.eye(3), y), y, atol=1e-12)

    def test_exact_solution(self, rng):
        X = rng.standard_normal((20, 4))
        b = rng.standard_normal(4)
        np.testing.assert_allclose(ols(X, X @ b), b, atol=1e-10)

    def test_matches_qr(self, rng):
        X = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)
        np.testing.assert_allclose(ols(X, y), _oracles.ols_via_qr(X, y), atol=1e-9)

    def test_normal_equation_residual(self, rng):
        X = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)
        b = ols(X, y)
        lhs = np.abs(X.T @ (y - X @ b)).max()
        assert lhs <= 1e-8 * np.abs(X.T @ y).max()

    def test_mismatched_rows_refused(self, rng):
        with pytest.raises(DimensionError, match="incompatible"):
            ols(rng.standard_normal((10, 2)), rng.standard_normal(9))

    def test_singular_design_raises(self):
        X = np.ones((10, 2))
        with pytest.raises(RankDeficiencyError, match="condition number"):
            ols(X, np.arange(10.0))
