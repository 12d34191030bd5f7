"""Tests for projections, the active-set solvers for the simplex and for
penalized least squares, principal components, alternating least squares,
and OLS."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from synthconf import (
    DimensionError,
    ElasticNetPenalty,
    LassoPenalty,
    PanelData,
    RankDeficiencyError,
    SolverConfig,
    alternating_ls,
    ols,
    pca_factors,
    penalized_ls,
    project_l1_ball,
    project_nuclear_ball,
    project_simplex,
    simplex_ls,
)
from synthconf.estimators import fit_classo


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
        w, report = simplex_ls(X, y, 4)
        assert report.converged
        assert report.final_objective < 1e-20
        np.testing.assert_allclose(w, w_star, atol=1e-12)

    def test_simplex_matches_1d_grid(self, rng):
        X = rng.standard_normal((12, 2))
        y = X @ np.array([0.7, 0.3]) + 0.5 * rng.standard_normal(12)
        w, report = simplex_ls(X, y, 2)
        w1 = np.linspace(0.0, 1.0, 10001)
        grid = np.column_stack([w1, 1.0 - w1])
        grid_best = ((y[:, None] - X @ grid.T) ** 2).sum(axis=0).min()
        assert abs(report.final_objective - grid_best) < 1e-4

    def test_l1_ball_matches_grid(self, rng):
        # The l1 ball of radius K is the image of the simplex on [X, -X]
        # under v -> K (v+ - v-).
        X = rng.standard_normal((10, 3))
        y = X @ np.array([0.5, -0.3, 0.1]) + 0.3 * rng.standard_normal(10)
        v, report = simplex_ls(np.hstack([X, -X]), y, 6)
        w = v[:3] - v[3:]
        assert np.abs(w).sum() <= 1.0 + 1e-12
        grid_best = _oracles.l1_ball_objective_grid_search(X, y, radius=1.0, step=1e-2)
        assert abs(report.final_objective - grid_best) < 5e-3

    def test_nonconvergence_reported(self, rng):
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        _, report = simplex_ls(X, y, 3, SolverConfig(max_iters=1))
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
        w, report = simplex_ls(X, y, 1)
        assert w[0] == 1.0 and report.converged
        np.testing.assert_allclose(X @ w, X[:, 1] * (X[:, 1] @ y) / (X[:, 1] @ X[:, 1]), atol=1e-12)

    @settings(max_examples=200, deadline=None)
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
            w, report = simplex_ls(X, y, n_cols)
            f = report.final_objective
            assert (w[:n_cols] >= 0.0).all() and abs(w[:n_cols].sum() - 1.0) <= 1e-12
            ref_X, ref_y, ball = X, y, None
        else:
            covariates = None if n_free == 0 else np.repeat(X[:, None, n_cols:], n_cols + 1, axis=1)
            panel = PanelData(np.column_stack([y, X[:, :n_cols]]), t0=n_rows - 1, covariates=covariates)
            fitted = fit_classo(panel, radius)
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
            steps.append((simplex_ls(X, y, X.shape[1])[1].iterations,
                          simplex_ls(np.hstack([X, -X]), y - y.mean(), 2 * X.shape[1])[1].iterations,
                          penalized_ls(X, y, ElasticNetPenalty(0.5, 0.7))[2].iterations))
        assert steps == [(4, 2, 9), (4, 4, 43), (2, 3, 7), (7, 11, 45),
                         (5, 8, 9), (8, 10, 43), (2, 4, 8), (2, 3, 50)]

    @settings(max_examples=150, deadline=None)
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
            w_prev, _ = simplex_ls(design, y, m)
            (w, report), (_, cold) = simplex_ls(design, moved, m, start=w_prev[:m]), simplex_ls(design, moved, m)
            assert (w[:m] >= 0.0).all() and abs(w[:m].sum() - 1.0) <= 1e-12
            gap, free, scale = _oracles.constrained_gap(design, moved, w, m)
            assert gap <= SolverConfig().tol * scale and free <= 1e-10
        else:
            penalty = LassoPenalty(lam) if kind == "lasso" else ElasticNetPenalty(lam, 0.5)
            weights = np.ones(n_cols + n_free)
            weights[n_cols:] = 0.0
            _, w_prev, _ = penalized_ls(X, y, penalty, penalty_weights=weights)
            mu, w, report = penalized_ls(X, moved, penalty, penalty_weights=weights, start=w_prev)
            cold = penalized_ls(X, moved, penalty, penalty_weights=weights)[2]
            l1, l2 = penalty.l1 * weights, penalty.l2 * weights
            kkt = _oracles.penalized_kkt_violation(X, moved, mu, w, l1, l2)
            assert kkt <= TestCoordinateDescent.kkt_bound(X, moved)
        assert report.converged
        f, f_cold = report.final_objective, cold.final_objective
        assert abs(f - f_cold) <= 1e-9 * (1.0 + abs(f_cold))

    def test_start_of_wrong_length_is_refused(self, rng):
        X = rng.standard_normal((8, 3))
        with pytest.raises(DimensionError):
            simplex_ls(X, rng.standard_normal(8), 3, start=np.ones(4))
        with pytest.raises(DimensionError):
            penalized_ls(X, rng.standard_normal(8), LassoPenalty(1.0), start=np.ones(2))


class TestBlockOfOne:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(3, 15),
        n_cols=st.integers(1, 20),
        n_free=st.integers(0, 2),
        kind=st.sampled_from(["sc", "lasso", "elastic_net"]),
        lam=st.floats(0.01, 5.0),
        warm=st.booleans(),
    )
    def test_block_of_one_is_the_single_solve(self, seed, n_rows, n_cols, n_free, kind, lam, warm):
        # A response of shape (n, 1) goes through the block path; its weights
        # and report must be those of the 1-D response, bit for bit, with
        # free (unpenalized) columns and from a warm start.
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n_rows, n_cols + n_free))
        y = X[:, : min(3, n_cols)].mean(axis=1) + rng.standard_normal(n_rows)
        neighbour = y + rng.standard_normal(n_rows)
        if kind == "sc":
            start = simplex_ls(X, neighbour, n_cols)[0][:n_cols] if warm else None
            w, report = simplex_ls(X, y, n_cols, start=start)
            W, reports = simplex_ls(X, y[:, None], n_cols, start=start)
        else:
            penalty = LassoPenalty(lam) if kind == "lasso" else ElasticNetPenalty(lam, 0.5)
            weights = np.r_[np.ones(n_cols), np.zeros(n_free)]
            start = penalized_ls(X, neighbour, penalty, penalty_weights=weights)[1] if warm else None
            mu, w, report = penalized_ls(X, y, penalty, penalty_weights=weights, start=start)
            intercepts, W, reports = penalized_ls(X, y[:, None], penalty, penalty_weights=weights, start=start)
            assert intercepts.shape == (1,) and intercepts[0] == mu
        assert W.shape == (X.shape[1], 1)
        np.testing.assert_array_equal(W[:, 0], w)
        assert reports == [report]


class TestCoordinateDescent:
    def test_unpenalized_limit_is_ols(self, rng):
        X = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        mu, w, report = penalized_ls(X, y, LassoPenalty(0.0))
        design = np.column_stack([np.ones(40), X])
        expected = _oracles.ols_via_qr(design, y)
        assert report.converged
        np.testing.assert_allclose(np.concatenate([[mu], w]), expected, atol=1e-8)

    def test_full_shrinkage_threshold(self, rng):
        X = rng.standard_normal((25, 4))
        y = rng.standard_normal(25)
        lam = 2.0 * np.abs(X.T @ (y - y.mean())).max()
        _, w, _ = penalized_ls(X, y, LassoPenalty(lam * 1.0001))
        np.testing.assert_array_equal(w, np.zeros(4))

    def test_stationarity_by_perturbation(self, rng):
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        penalty = LassoPenalty(0.7)
        mu, w, _ = penalized_ls(X, y, penalty)

        def objective(mu_, w_):
            r = y - mu_ - X @ w_
            return float(r @ r) + penalty.value(w_)

        base = objective(mu, w)
        for j in range(3):
            for delta in (1e-4, -1e-4):
                bumped = w.copy()
                bumped[j] += delta
                assert objective(mu, bumped) >= base - 1e-12
        for delta in (1e-4, -1e-4):
            assert objective(mu + delta, w) >= base - 1e-12

    def test_elastic_net_alpha_one_is_lasso(self, rng):
        X = rng.standard_normal((15, 4))
        y = rng.standard_normal(15)
        mu_l, w_l, _ = penalized_ls(X, y, LassoPenalty(0.5))
        mu_e, w_e, _ = penalized_ls(X, y, ElasticNetPenalty(0.5, 1.0))
        assert abs(mu_l - mu_e) < 1e-10
        np.testing.assert_allclose(w_l, w_e, atol=1e-10)

    @staticmethod
    def kkt_bound(X, y, tol=SolverConfig().tol):
        """An oracle bound on the KKT violation, ``tol * (1 + 2 ||Xc'yc||_inf)``."""
        xty = (X - X.mean(axis=0)).T @ (y - y.mean())
        return tol * (1.0 + 2.0 * np.abs(xty).max(initial=0.0))

    def test_lasso_more_columns_than_rows_converges(self):
        # 23 rows, 50 penalized and 2 unpenalized columns, small lam: the
        # fit nearly interpolates, so the support fills the rank of Xc and
        # later joining columns lie in its span.
        rng = np.random.default_rng(9)
        X = rng.standard_normal((23, 52))
        y = X[:, :3].mean(axis=1) + rng.standard_normal(23)
        weights = np.ones(52)
        weights[-2:] = 0.0
        mu, w, report = penalized_ls(X, y, LassoPenalty(0.1), penalty_weights=weights)
        assert report.converged
        assert report.note == "signed active set"
        kkt = _oracles.penalized_kkt_violation(X, y, mu, w, 0.1 * weights, np.zeros(52))
        assert kkt <= self.kkt_bound(X, y)
        # At most rank(Xc) = 22 nonzero weights, the two unpenalized ones among them.
        assert w[-2:].all() and np.count_nonzero(w) <= 22

    @settings(max_examples=150, deadline=None)
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
        mu, w, report = penalized_ls(X, y, penalty, penalty_weights=weights)
        assert report.converged
        assert degenerate != "constant" or w[0] == 0.0
        assert _oracles.penalized_kkt_violation(X, y, mu, w, l1, l2) <= self.kkt_bound(X, y)
        f = _oracles.penalized_objective(X, y, mu, w, l1, l2)
        f_ref = _oracles.penalized_objective(X, y, *_oracles.penalized_cd_reference(X, y, l1, l2), l1, l2)
        assert f <= f_ref + 1e-9 * (1.0 + abs(f_ref))

    def test_penalty_validation(self):
        with pytest.raises(ValueError):
            LassoPenalty(-1.0)
        with pytest.raises(ValueError):
            ElasticNetPenalty(1.0, 1.5)


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

    def test_singular_design_raises(self):
        X = np.ones((10, 2))
        with pytest.raises(RankDeficiencyError, match="condition number"):
            ols(X, np.arange(10.0))
