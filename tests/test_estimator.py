"""KRR operator fitting, Markov projection, scoring."""

import dataclasses
import logging
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve

from kmeoc import (
    Dataset,
    EstimatedOperators,
    EstimationError,
    InputError,
    KernelConfig,
    build_grams,
    departure_from_normality,
    enforce_markov,
    fit_krr,
    fit_residual,
    gram,
)
from kmeoc.bench import bench_config, fit_and_solve
from kmeoc.fpk import embed_initial
from kmeoc.hjb import policy_interpolate
from kmeoc.systems import generate_dataset, make_system

from conftest import (
    control_gram,
    cross_gram_diffused,
    dense_departure,
    make_static_dataset,
)


class TestFitKrr:
    def test_closed_loop_equals_smoothed_identity_on_static_data(
        self, static_ops
    ):
        ds = static_ops.dataset_ref
        K_U = control_gram(gram(ds.X, 1.0), ds.U)
        expected = solve(K_U + static_ops.jitter * np.eye(ds.N), K_U)
        CL = static_ops.A_hat + sum(
            B_m * u_m for B_m, u_m in zip(static_ops.B_hat_blocks, ds.U)
        )
        # cho_solve and scipy.solve agree only up to the 1e8 condition
        # number of (K_U + 1e-8 I).
        assert np.max(np.abs(CL - expected)) <= 1e-6
        # Acting on a probability vector it is almost the identity.
        z = np.full(ds.N, 1.0 / ds.N)
        assert np.sum(np.abs(CL @ z - z)) <= 1e-5

    def test_given_grams_fit_the_same_operators(self, static_ops):
        ds = static_ops.dataset_ref
        cfg = static_ops.kernel_cfg
        grams = build_grams(ds.X, ds.U, ds.Y, cfg)
        F, L_X = grams.F.copy(), grams.L_X.copy()
        ops = fit_krr(ds, cfg, grams=grams)
        for a, b in zip([ops.A, *ops.B], [static_ops.A, *static_ops.B]):
            assert a.left.tobytes() == b.left.tobytes()
            assert a.right.tobytes() == b.right.tobytes()
        # Left for fit_residual, which checks against the dense K_U.
        assert grams.F.tobytes() == F.tobytes()
        assert grams.L_X.tobytes() == L_X.tobytes()
        K_U = control_gram(gram(ds.X, cfg.sigma), ds.U)
        reg = K_U + ops.jitter * np.eye(ds.N)
        target = cross_gram_diffused(ds.X, ds.Y, cfg)
        dense = np.linalg.norm(reg @ ops.A_hat - target, "fro")
        assert fit_residual(ops, grams) == pytest.approx(dense, abs=1e-8)
        with pytest.raises(InputError, match="N = "):
            fit_krr(make_static_dataset(N=30), cfg, grams=grams)

    @pytest.mark.parametrize("name", ["s1", "s3"])
    def test_matches_the_dense_solve_at_bench_size(self, name):
        # The low-rank solve plus one refinement step against the exact
        # K_U reproduces the dense Cholesky solve of (K_U + gamma I).
        cfg = bench_config(name)
        ds = generate_dataset(
            make_system(name), cfg["N"],
            SimpleNamespace(dt=cfg["dt"], epsilon=cfg["data_epsilon"]),
            substeps=cfg["substeps"], sampler=cfg["sampler"], seed=0,
        )
        kcfg = KernelConfig(
            sigma=cfg["sigma"], epsilon=cfg["epsilon"], dt=cfg["dt"],
            gamma=cfg["gamma"],
        )
        grams = build_grams(ds.X, ds.U, ds.Y, kcfg)
        ops = fit_krr(ds, kcfg, grams=grams)
        assert ops.jitter == kcfg.gamma
        K_U = control_gram(gram(ds.X, kcfg.sigma), ds.U)
        reg = K_U + kcfg.gamma * np.eye(ds.N)
        dense = cho_solve(cho_factor(reg), grams.L_X)
        rel = np.linalg.norm(ops.A.left - dense) / np.linalg.norm(dense)
        assert rel <= 1e-5

    def test_peak_memory_below_one_dense_gram(self):
        # No N x N array: a fit at N = 3000 peaks below the 72 MB one
        # float64 Gram matrix would take.
        ds = make_static_dataset(N=3000, seed=3)
        cfg = KernelConfig(sigma=1.0, epsilon=0.0)
        tracemalloc.start()
        try:
            fit_krr(ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.N * ds.N * 8

    def test_debug_line_reports_the_refinement(self, caplog):
        ds = make_static_dataset(N=40)
        with caplog.at_level(logging.DEBUG, logger="kmeoc.estimator"):
            fit_krr(ds, KernelConfig(sigma=1.0, epsilon=0.0))
        (line,) = [r.getMessage() for r in caplog.records]
        assert "r_X = " in line and "capacitance" in line and "rho = " in line
        assert "residual before refinement" in line

    def test_zero_controls_give_zero_b_blocks(self):
        ds = make_static_dataset(N=30)
        ds = dataclasses.replace(ds, U=np.zeros_like(ds.U))
        ops = fit_krr(ds, KernelConfig(sigma=1.0, epsilon=0.0))
        assert np.all(ops.B_hat_blocks[0] == 0.0)

    def test_normal_equations_hold(self, static_ops):
        ds = static_ops.dataset_ref
        cfg = static_ops.kernel_cfg
        K_U = control_gram(gram(ds.X, cfg.sigma), ds.U)
        target = cross_gram_diffused(ds.X, ds.Y, cfg)
        lhs = (K_U + static_ops.jitter * np.eye(ds.N)) @ static_ops.A_hat
        assert np.max(np.abs(lhs - target)) <= 1e-9

    def test_solution_minimizes_regularized_objective(self, static_ops):
        # J(A) = tr(A' (K_U + g I) A) - 2 tr(A' eK_XY) is strictly convex
        # with the fitted operators as its unique minimizer.
        ds = static_ops.dataset_ref
        cfg = static_ops.kernel_cfg
        reg = control_gram(gram(ds.X, cfg.sigma), ds.U)
        reg = reg + static_ops.jitter * np.eye(ds.N)
        target = cross_gram_diffused(ds.X, ds.Y, cfg)

        def J(A):
            return float(np.trace(A.T @ reg @ A) - 2.0 * np.trace(A.T @ target))

        base = J(static_ops.A_hat)
        rng = np.random.default_rng(11)
        for _ in range(100):
            D = rng.normal(size=static_ops.A_hat.shape)
            D *= 1e-3 / np.linalg.norm(D, "fro")
            assert J(static_ops.A_hat + D) >= base

    def test_row_is_the_only_b_block_orientation(self):
        ds = make_static_dataset(N=25, seed=5)
        cfg = KernelConfig(sigma=1.0, epsilon=0.0)
        row = fit_krr(ds, cfg, b_block_orientation="row")
        default = fit_krr(ds, cfg)
        for a, b in zip([row.A, *row.B], [default.A, *default.B]):
            assert a.left.tobytes() == b.left.tobytes()
            assert a.right.tobytes() == b.right.tobytes()
        for other in ("column", "diag"):
            with pytest.raises(InputError, match='only "row" remains'):
                fit_krr(ds, cfg, b_block_orientation=other)

    def test_too_few_samples(self):
        ds = make_static_dataset(N=30)
        one = dataclasses.replace(
            ds, X=ds.X[:, :1], U=ds.U[:, :1], Y=ds.Y[:, :1], cost=ds.cost[:1]
        )
        with pytest.raises(InputError):
            fit_krr(one, KernelConfig(sigma=1.0))

    def test_jitter_escalates_with_warning_on_duplicates(self):
        # 30 copies of one point make K_U rank deficient; a 1e-30 ridge
        # cannot rescue the factorization so it must escalate and warn.
        X = np.ones((1, 30))
        U = np.linspace(-1, 1, 30)[None, :]
        ds = Dataset(
            X=X, U=U, Y=X.copy(), cost=np.ones(30) * 1e-2,
            dt=1e-2, epsilon=0.0, seed=0,
        )
        cfg = KernelConfig(sigma=1.0, epsilon=0.0, gamma=1e-30)
        with pytest.warns(UserWarning, match="escalating"):
            ops = fit_krr(ds, cfg)
        assert ops.jitter > 1e-30
        assert np.all(np.isfinite(ops.A_hat))

    def test_jitter_escalates_above_the_low_rank_gap(self):
        # A ridge below trace(K_U - W W^T) gives no contraction bound
        # for the refinement step, so it escalates too.
        ds = make_static_dataset(N=400, seed=2)
        cfg = KernelConfig(sigma=0.6, epsilon=0.0)
        gap = build_grams(ds.X, ds.U, ds.Y, cfg).gap_trace
        floor = ds.N * np.finfo(float).eps * np.max(1.0 + ds.U**2)
        assert floor < gap  # so the rounding floor does not trigger
        # Below the floor, and between the floor and the gap.
        for gamma in [floor / 10.0, (floor + gap) / 2.0]:
            with pytest.warns(UserWarning, match="escalating"):
                ops = fit_krr(ds, dataclasses.replace(cfg, gamma=gamma))
            # The ridge clears ten times the gap of K_U, and so of K_X,
            # whose gap is no larger: rho <= 0.1 for both.
            assert gap / ops.jitter <= 0.1
            # The state-Gram solve uses the escalated ridge, so the model
            # still serves it.  One refinement step leaves a residual of
            # at most rho^2 ||b|| and an error of at most rho^2 <= 0.01
            # plus rounding; the dense solve of a matrix this
            # ill-conditioned is itself up to eps cond = 1e-3 off.
            b = np.ones(ds.N)
            z = ops.x_solve(b)
            reg = gram(ds.X, cfg.sigma) + ops.jitter * np.eye(ds.N)
            dense = np.linalg.solve(reg, b)
            rho = ops.x_gram_factor().rho
            assert rho <= 0.1
            assert np.linalg.norm(b - reg @ z) <= rho**2 * np.linalg.norm(b)
            bound = rho**2 + np.finfo(float).eps * np.linalg.cond(reg)
            assert np.linalg.norm(z - dense) <= bound * np.linalg.norm(dense)

    def test_zero_gamma_fails_with_pivot_report(self):
        X = np.zeros((1, 20))
        U = np.zeros((1, 20))
        ds = Dataset(
            X=X, U=U, Y=X.copy(), cost=np.zeros(20),
            dt=1e-2, epsilon=0.0, seed=0,
        )
        cfg = KernelConfig(sigma=1.0, epsilon=0.0, gamma=0.0)
        with pytest.raises(EstimationError) as exc_info:
            fit_krr(ds, cfg)
        assert hasattr(exc_info.value, "smallest_pivot")
        assert exc_info.value.smallest_pivot < 1e-10
        assert "gamma" in str(exc_info.value)


class TestEnforceMarkov:
    def test_column_sums(self, static_ops):
        proj = enforce_markov(static_ops)
        np.testing.assert_allclose(
            proj.A_hat.sum(axis=0), np.ones(proj.N), atol=1e-12
        )
        for Bm in proj.B_hat_blocks:
            np.testing.assert_allclose(Bm.sum(axis=0), 0.0, atol=1e-12)

    def test_idempotent(self, static_ops):
        once = enforce_markov(static_ops)
        twice = enforce_markov(once)
        assert np.max(np.abs(twice.A_hat - once.A_hat)) <= 1e-14

    def test_no_op_when_already_markov(self):
        base = make_static_dataset(N=20)
        ops = fit_krr(base, KernelConfig(sigma=1.0, epsilon=0.0))
        A = np.eye(20)
        B = [np.zeros((20, 20))]
        exact = dataclasses.replace(ops, A=A, B=B)
        proj = enforce_markov(exact)
        assert np.max(np.abs(proj.A_hat - A)) <= 1e-15
        assert np.max(np.abs(proj.B_hat_blocks[0])) <= 1e-15

    def test_original_untouched(self, static_ops):
        before = static_ops.A_hat.copy()
        enforce_markov(static_ops)
        assert np.array_equal(static_ops.A_hat, before)


class TestDeparture:
    def test_symmetric_is_normal(self):
        rng = np.random.default_rng(0)
        S = rng.normal(size=(8, 8))
        S = S + S.T
        assert dense_departure(S) <= 1e-7

    def test_zero_matrix_convention(self):
        assert dense_departure(np.zeros((4, 4))) == 0.0

    def test_shift_is_maximally_non_normal(self):
        J = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert dense_departure(J) == pytest.approx(1.0)

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            departure_from_normality(np.zeros((3, 4)))

    def test_rejects_a_dense_array(self):
        # Only the factored form is computed; the dense formula is the
        # tests' reference (conftest.dense_departure).
        with pytest.raises(InputError, match="LowRank"):
            departure_from_normality(np.eye(3))


class TestFactoredDiagnostics:
    """The identify diagnostics from the factors against dense algebra."""

    @pytest.fixture(params=["static", "s1"])
    def ops(self, request, static_ops, s1_fit):
        return static_ops if request.param == "static" else s1_fit[0]

    def test_departure_matches_dense_eigvals(self, ops):
        dense = dense_departure(ops.A_hat)
        assert departure_from_normality(ops.A) == pytest.approx(
            dense, abs=1e-8
        )

    def test_fit_residual_matches_dense_product(self, ops):
        ds, cfg = ops.dataset_ref, ops.kernel_cfg
        target = cross_gram_diffused(ds.X, ds.Y, cfg)
        bundle = build_grams(ds.X, ds.U, ds.Y, cfg)
        K_U = control_gram(gram(ds.X, cfg.sigma), ds.U)
        reg = K_U + ops.jitter * np.eye(ops.N)
        dense = np.linalg.norm(reg @ ops.A_hat - target, "fro")
        got = fit_residual(ops, bundle)
        assert got == pytest.approx(dense, abs=1e-8)


def _arrays(value):
    """Every ndarray reachable from value through tuples, lists and dataclasses."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))


class TestStateGramSolve:
    """Solves with (K_X + gamma I) through the thin factor of K_X."""

    @pytest.mark.parametrize("name", ["s1", "s3", "s4"])
    def test_matches_the_dense_solve_at_bench_size(self, name):
        system = make_system(name)
        ops, sol = fit_and_solve(system, bench_config(name), data_seed=0)
        X, cfg = ops.dataset_ref.X, ops.kernel_cfg
        reg = gram(X, cfg.sigma) + cfg.gamma * np.eye(ops.N)
        b = sol.policy_row(sol.stationary_step).T
        z = ops.x_solve(b)
        assert np.linalg.norm(b - reg @ z) / np.linalg.norm(b) <= 1e-8
        # The interpolated stationary law against the dense solve's.
        # Imported here: at module level pytest would collect test_grid.
        from kmeoc.bench import test_grid

        grid = test_grid(system)
        K_q = np.exp(
            -np.sum((X.T[:, None, :] - grid.T[None, :, :]) ** 2, axis=2)
            / cfg.sigma**2
        )
        ref = (K_q.T @ cho_solve(cho_factor(reg), b)).T
        if sol.box is not None:
            ref = np.clip(ref, sol.box.lo[:, None], sol.box.hi[:, None])
        got = policy_interpolate(grid, sol, ops)
        assert np.max(np.abs(got - ref)) <= 1e-7 * np.max(np.abs(ref))

    def test_no_field_holds_an_n_by_n_array(self, s1_fit):
        ops, sol = s1_fit
        policy_interpolate(np.array([[0.5, -1.0]]), sol, ops)
        embed_initial(ops, np.array([[1.0]]))
        assert ops.x_factor is not None
        sizes = [a.size for a in _arrays(ops)]
        assert sizes and max(sizes) < ops.N**2

    @pytest.mark.parametrize("gamma", [0.0, 1e-16])
    def test_ridge_below_the_gap_fails_naming_gamma_and_rho(
        self, static_ops, gamma
    ):
        ops = dataclasses.replace(static_ops, jitter=gamma, x_factor=None)
        with pytest.raises(EstimationError, match="gamma") as exc_info:
            ops.x_solve(np.ones(ops.N))
        assert "rho = " in str(exc_info.value)
        assert ops.x_factor is None

    def test_debug_line_reports_the_refinement(self, static_ops, caplog):
        ops = dataclasses.replace(static_ops, x_factor=None)
        with caplog.at_level(logging.DEBUG, logger="kmeoc.estimator"):
            ops.x_solve(np.ones(ops.N))
            ops.x_solve(np.ones(ops.N))
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 2  # one per solve, with or without a new factor
        for line in lines:
            assert "r_X = " in line and "rho = " in line
            assert "residual before refinement" in line
