"""KRR operator fitting, Markov projection, scoring, model selection."""

import dataclasses

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
    control_gram,
    departure_from_normality,
    enforce_markov,
    fit_krr,
    fit_residual,
    gram,
    model_select,
    validation_score,
)
from kmeoc.estimator import _ridge_cholesky
from kmeoc.kernel import cross_gram_diffused

from conftest import make_static_dataset


class TestFitKrr:
    def test_closed_loop_equals_smoothed_identity_on_static_data(
        self, static_ops
    ):
        ds = static_ops.dataset_ref
        K_U = control_gram(gram(ds.X, 1.0), ds.U)
        expected = solve(K_U + static_ops.jitter * np.eye(ds.N), K_U)
        CL = static_ops.closed_loop(ds.U).dense()
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
        K_U = grams.K_U.copy()
        ops = fit_krr(ds, cfg, grams=grams)
        for a, b in zip([ops.A, *ops.B], [static_ops.A, *static_ops.B]):
            assert a.left.tobytes() == b.left.tobytes()
            assert a.right.tobytes() == b.right.tobytes()
        assert grams.K_U.tobytes() == K_U.tobytes()  # left for fit_residual
        with pytest.raises(InputError, match="N = "):
            fit_krr(make_static_dataset(N=30), cfg, grams=grams)

    def test_ridge_factor_in_place_equals_fortran_copy(self, static_ops):
        # The factor of K's transpose view equals the one of a
        # Fortran-ordered copy bit for bit, because K is symmetric.
        K = gram(static_ops.dataset_ref.X, 1.0)
        assert np.array_equal(K, K.T)
        c_ref, _ = cho_factor(np.array(K, order="F") + 1e-8 * np.eye(len(K)))
        kept = K.copy()
        c, lower = _ridge_cholesky(K, 1e-8)
        assert not lower and c.tobytes(order="F") == c_ref.tobytes(order="F")
        assert K.tobytes() == kept.tobytes()
        c, _ = _ridge_cholesky(K, 1e-8, overwrite=True)
        assert np.shares_memory(c, K)
        assert c.tobytes(order="F") == c_ref.tobytes(order="F")

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

    def test_column_orientation_differs(self):
        ds = make_static_dataset(N=25, seed=5)
        cfg = KernelConfig(sigma=1.0, epsilon=0.0)
        row = fit_krr(ds, cfg, b_block_orientation="row")
        col = fit_krr(ds, cfg, b_block_orientation="column")
        assert not np.allclose(row.B_hat_blocks[0], col.B_hat_blocks[0])
        with pytest.raises(InputError):
            fit_krr(ds, cfg, b_block_orientation="diag")

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
        assert departure_from_normality(S) <= 1e-7

    def test_zero_matrix_convention(self):
        assert departure_from_normality(np.zeros((4, 4))) == 0.0

    def test_shift_is_maximally_non_normal(self):
        J = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert departure_from_normality(J) == pytest.approx(1.0)

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            departure_from_normality(np.zeros((3, 4)))


class TestFactoredDiagnostics:
    """The identify diagnostics from the factors against dense algebra."""

    @pytest.fixture(params=["static", "s1"])
    def ops(self, request, static_ops, s1_fit):
        return static_ops if request.param == "static" else s1_fit[0]

    def test_departure_matches_dense_eigvals(self, ops):
        dense = departure_from_normality(np.array(ops.A_hat))
        assert departure_from_normality(ops.A) == pytest.approx(
            dense, abs=1e-8
        )

    def test_fit_residual_matches_dense_product(self, ops):
        ds, cfg = ops.dataset_ref, ops.kernel_cfg
        target = cross_gram_diffused(ds.X, ds.Y, cfg)
        bundle = build_grams(ds.X, ds.U, ds.Y, cfg)
        reg = bundle.K_U + ops.jitter * np.eye(ops.N)
        dense = np.linalg.norm(reg @ ops.A_hat - target, "fro")
        got = fit_residual(ops, bundle)
        assert got == pytest.approx(dense, abs=1e-8)


class TestValidationScore:
    def test_static_self_prediction_is_tiny(self, static_ops):
        holdout = make_static_dataset(N=15, seed=99)
        score = validation_score(static_ops, holdout)
        assert 0.0 <= score <= 1e-6

    def test_rewards_matching_dynamics(self, static_ops):
        matched = make_static_dataset(N=15, seed=7)
        # Same inputs, but successors shifted: a system the fit never saw.
        drifted = dataclasses.replace(matched, Y=matched.X + 0.5)
        assert validation_score(static_ops, matched) < validation_score(
            static_ops, drifted
        )

    def test_empty_holdout_rejected(self, static_ops):
        empty = Dataset(
            X=np.zeros((1, 0)),
            U=np.zeros((1, 0)),
            Y=np.zeros((1, 0)),
            cost=np.zeros(0),
            dt=1e-2,
            epsilon=0.0,
            seed=0,
        )
        with pytest.raises(InputError):
            validation_score(static_ops, empty)

    def test_dimension_mismatch_rejected(self, static_ops):
        bad = Dataset(
            X=np.zeros((2, 5)),
            U=np.zeros((1, 5)),
            Y=np.zeros((2, 5)),
            cost=np.zeros(5),
            dt=1e-2,
            epsilon=0.0,
            seed=0,
        )
        with pytest.raises(InputError):
            validation_score(static_ops, bad)

    def test_builds_the_state_gram_once(self, monkeypatch):
        import kmeoc.estimator

        ops = fit_krr(
            make_static_dataset(N=20), KernelConfig(sigma=1.0, epsilon=0.0)
        )
        holdout = make_static_dataset(N=8, seed=5)
        calls = []

        def counting_gram(*args, **kwargs):
            calls.append(1)
            return gram(*args, **kwargs)

        monkeypatch.setattr(kmeoc.estimator, "gram", counting_gram)
        fresh = validation_score(ops, holdout)
        assert len(calls) == 1
        # Same bits as a score through the model's own cached factor.
        ops.x_gram_factor()
        calls.clear()
        assert validation_score(ops, holdout) == fresh
        assert len(calls) == 1

    def test_permutation_invariance(self):
        ds = make_static_dataset(N=40, seed=2)
        rng = np.random.default_rng(13)
        perm = rng.permutation(40)
        shuffled = Dataset(
            X=ds.X[:, perm], U=ds.U[:, perm], Y=ds.Y[:, perm],
            cost=ds.cost[perm], dt=ds.dt, epsilon=ds.epsilon, seed=ds.seed,
        )
        cfg = KernelConfig(sigma=1.0, epsilon=0.0)
        holdout = make_static_dataset(N=12, seed=77)
        a = validation_score(fit_krr(ds, cfg), holdout)
        b = validation_score(fit_krr(shuffled, cfg), holdout)
        assert a == pytest.approx(b, abs=1e-8)


class TestModelSelect:
    def test_single_candidate(self):
        ds = make_static_dataset(N=40)
        best, scores = model_select(ds, [1.5])
        assert best == 1.5
        assert len(scores) == 1
        assert scores[0].combined == 0.0  # min-max of a singleton

    def test_tie_breaks_to_smaller_sigma(self):
        ds = make_static_dataset(N=40)
        # Zero weights force an exact tie at combined = 0 for every sigma.
        best, scores = model_select(ds, [2.0, 0.5, 1.0], weights=(0.0, 0.0))
        assert best == 0.5
        assert [s.sigma for s in scores] == [0.5, 1.0, 2.0]

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            model_select(make_static_dataset(N=20), [])

    def test_scores_are_finite_and_ordered(self):
        ds = make_static_dataset(N=50, seed=3)
        best, scores = model_select(ds, [0.5, 1.0, 2.0])
        assert best in {0.5, 1.0, 2.0}
        sigmas = [s.sigma for s in scores]
        assert sigmas == sorted(sigmas)
        for s in scores:
            assert np.isfinite(s.validation_error)
            assert np.isfinite(s.departure_from_normality)
            assert 0.0 <= s.combined <= 1.1

    def test_selected_scale_is_competitive_downstream(self):
        # The grid brackets two workable scales with a too-narrow one
        # whose backward recursion diverges outright.  Selection must
        # avoid the divergent scale and land on one whose end-to-end
        # policy error stays within the benchmark tolerance.
        from types import SimpleNamespace

        from kmeoc.bench import (
            bench_config,
            fit_and_solve,
            rmse_policy,
            test_grid,
        )
        from kmeoc.hjb import policy_interpolate
        from kmeoc.systems import generate_dataset, make_system

        system = make_system("s1")
        cfg = bench_config("s1", {"N": 400, "H": 300})
        ds = generate_dataset(
            system,
            400,
            SimpleNamespace(dt=cfg["dt"], epsilon=cfg["data_epsilon"]),
            seed=321,
        )
        ds = dataclasses.replace(ds, epsilon=cfg["epsilon"])
        best, _ = model_select(ds, [0.3, 1.2, 30.0], gamma=cfg["gamma"])
        assert best != 0.3

        ops, sol = fit_and_solve(system, dict(cfg, sigma=best), data_seed=321)
        rmse = rmse_policy(
            lambda x: policy_interpolate(x, sol, ops),
            system.ground_truth_policy,
            test_grid(system),
        )
        assert rmse <= 5e-2
