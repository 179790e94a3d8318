"""Acceptance gate: the package's published accuracy and behavior targets.

One test per criterion.  Each prints a single ``AC-n ... PASS/FAIL``
line (visible with ``-s`` or in captured output) and asserts the stated
bound, so a verbose run gives one line per criterion.  Repetition
counts and tolerances are the advertised targets, not exploratory
numbers; see the benchmark configs for the per-system settings.
"""

import math

import numpy as np
import pytest

from kmeoc import Box, ControlPenalty, Dataset, KernelConfig, fit_krr
from kmeoc.bench import (
    bench_config,
    closed_loop_rollout,
    convergence_sweep,
    fit_and_solve,
    policy_table,
    rmse_table,
    run_benchmark,
)
from kmeoc.bench import test_grid as policy_test_grid
from kmeoc.errors import DivergenceError, RolloutError
from kmeoc.estimator import enforce_markov
from kmeoc.fpk import (
    MeasureWeights,
    embed_initial,
    forecast_observable_path,
    propagate,
)
from kmeoc.hjb import fenchel_conjugate, policy_interpolate
from kmeoc.kernel import gram
from kmeoc.systems import make_system

from conftest import control_gram, diffused_rbf_eval, rbf_eval, riccati_gain


def _line(tag: str, detail: str, ok: bool) -> None:
    print(f"{tag}: {detail} -> {'PASS' if ok else 'FAIL'}")


def _policy_rmse(system, ops, sol) -> float:
    pts = policy_test_grid(system)
    return rmse_table(
        policy_interpolate(pts, sol, ops),
        policy_table(system.ground_truth_policy, pts),
    )


@pytest.fixture(scope="module")
def s1_report():
    return run_benchmark("s1", reps=10, seed=0)


@pytest.fixture(scope="module")
def s1_full_fit():
    return fit_and_solve(make_system("s1"), bench_config("s1"), data_seed=0)


@pytest.fixture(scope="module")
def vdp_run():
    system = make_system("vdp")
    cfg = bench_config("vdp")
    ops, sol = fit_and_solve(system, cfg, data_seed=0)
    return system, cfg, ops, sol


class TestBenchmarkAccuracy:
    def test_ac1_linear_policy_rmse(self, s1_report):
        r = s1_report
        ok = r.rmse_mean <= 5e-2 and not r.flagged_reps
        _line(
            "AC-1",
            f"s1 mean policy RMSE {r.rmse_mean:.4e} over {r.reps} reps"
            f" <= 5e-2, flagged={r.flagged_reps}",
            ok,
        )
        assert ok

    def test_ac2_bistable_policy_rmse(self):
        r = run_benchmark("s2", reps=10, seed=0)
        ok = r.rmse_mean <= 4e-1 and not r.flagged_reps
        _line(
            "AC-2 (s2)",
            f"mean policy RMSE {r.rmse_mean:.4e} over {r.reps} reps <= 4e-1,"
            f" flagged={r.flagged_reps}",
            ok,
        )
        assert ok

    def test_ac2_oscillatory_gain_policy_rmse(self):
        r = run_benchmark("s3", reps=10, seed=0)
        ok = r.rmse_mean <= 1e-1 and not r.flagged_reps
        _line(
            "AC-2 (s3)",
            f"mean policy RMSE {r.rmse_mean:.4e} over {r.reps} reps <= 1e-1,"
            f" flagged={r.flagged_reps}",
            ok,
        )
        assert ok

    def test_ac3_saturating_policy_rmse(self):
        r = run_benchmark("s4", reps=10, seed=0)
        ok = r.rmse_mean <= 5e-2 and not r.flagged_reps
        _line(
            "AC-3",
            f"s4 mean policy RMSE {r.rmse_mean:.4e} over {r.reps} reps"
            f" <= 5e-2, flagged={r.flagged_reps}",
            ok,
        )
        assert ok


class TestVanDerPol:
    def test_ac4_policy_rmse_on_grid(self, vdp_run):
        system, _, ops, sol = vdp_run
        rmse = _policy_rmse(system, ops, sol)
        ok = rmse <= 0.15
        _line("AC-4 (policy)", f"vdp policy RMSE {rmse:.4e} <= 0.15", ok)
        assert ok

    def test_ac4_closed_loop_reaches_origin(self, vdp_run):
        system, cfg, ops, sol = vdp_run
        states = closed_loop_rollout(
            system, sol, ops, [0.1, 0.1], T=20.0, dt=cfg["dt"], epsilon=0.0
        )
        final = float(np.linalg.norm(states[:, -1]))
        ok = final <= 0.1
        _line(
            "AC-4 (closed loop)",
            f"|x(20)| = {final:.4e} <= 0.1 from (0.1, 0.1)",
            ok,
        )
        assert ok

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the uncontrolled drift is locally damped at the origin, so"
            " the u = 0 rollout from (0.1, 0.1) also settles below 0.1;"
            " the stabilization contrast only appears from states outside"
            " the damped neighbourhood (see the companion test)"
        ),
    )
    def test_ac4_open_loop_misses_origin(self, vdp_run):
        system, cfg, _, _ = vdp_run
        states = closed_loop_rollout(
            system, None, None, [0.1, 0.1], T=20.0, dt=cfg["dt"], epsilon=0.0
        )
        final = float(np.linalg.norm(states[:, -1]))
        _line(
            "AC-4 (open loop)",
            f"|x(20)| = {final:.4e} > 0.1 expected from (0.1, 0.1)",
            final > 0.1,
        )
        assert final > 0.1

    def test_ac4_contrast_from_outer_state(self, vdp_run):
        # From (2.5, 0) the uncontrolled flow escapes outright while the
        # learned feedback still lands the state at the origin.
        system, cfg, ops, sol = vdp_run
        with pytest.raises(RolloutError):
            closed_loop_rollout(
                system, None, None, [2.5, 0.0], T=20.0, dt=cfg["dt"],
                epsilon=0.0,
            )
        states = closed_loop_rollout(
            system, sol, ops, [2.5, 0.0], T=20.0, dt=cfg["dt"], epsilon=0.0
        )
        final = float(np.linalg.norm(states[:, -1]))
        ok = final <= 0.1
        _line(
            "AC-4 (outer state)",
            f"open loop escapes, closed loop |x(20)| = {final:.4e} <= 0.1"
            " from (2.5, 0)",
            ok,
        )
        assert ok



_DIVERGES = pytest.mark.xfail(
    strict=True,
    raises=DivergenceError,
    reason=(
        "seed-fragile identification: at bench settings the backward"
        " recursion blows up on these data seeds (s2 at k = 3962, 3773,"
        " 4631, 4589; vdp at k = 1492, 1036).  After the uniform column"
        " shift rho(A_hat) exceeds 1 on every seed, the converging seed 0"
        " included (1.026 on s2, 1.052 on vdp), so whether the recursion"
        " stays finite depends on the data draw; see ROADMAP item 7"
    ),
)

_OVER_BOUND = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "seed-fragile accuracy: at bench settings vdp data seeds 4 and 5"
        " converge above AC-4's policy RMSE bound 0.15 (0.314, the stop"
        " rule never firing in H = 2000, and 0.167); see ROADMAP item 7"
    ),
)


# Each system's AC bound on policy RMSE at bench settings.
_BOUNDS = {"s1": 5e-2, "s2": 4e-1, "s3": 1e-1, "s4": 5e-2, "vdp": 0.15}

# The seeds known to break their bound, each with its cause.
_KNOWN_FAILURES = {
    ("s2", 16): _DIVERGES,
    ("s2", 27): _DIVERGES,
    ("s2", 30): _DIVERGES,
    ("s2", 57): _DIVERGES,
    ("vdp", 1): _DIVERGES,
    ("vdp", 2): _DIVERGES,
    ("vdp", 4): _OVER_BOUND,
    ("vdp", 5): _OVER_BOUND,
}


class TestSeedRobustness:
    """The AC-1 to AC-4 bounds on raw data seeds the gates do not draw.

    Every system runs at its bench settings on data seeds 0-9; s2 also
    on the four seeds past 9 found to diverge.  A seed that breaks its
    bound is a strict xfail naming the cause: ``fit_and_solve`` raises
    ``DivergenceError``, or the policy RMSE exceeds the bound.  Once a
    fix makes one pass, its strict xfail fails, and the marker goes.
    """

    @pytest.mark.parametrize(
        "name, seed, bound",
        [
            pytest.param(
                name, seed, _BOUNDS[name],
                marks=_KNOWN_FAILURES.get((name, seed), ()),
            )
            for name, seed in [(n, s) for n in _BOUNDS for s in range(10)]
            + [("s2", s) for s in (16, 27, 30, 57)]
        ],
    )
    def test_bench_settings_hold_on_seed(self, name, seed, bound):
        system = make_system(name)
        ops, sol = fit_and_solve(system, bench_config(name), data_seed=seed)
        rmse = _policy_rmse(system, ops, sol)
        ok = rmse <= bound
        _line(
            f"seed {seed} ({name})",
            f"policy RMSE {rmse:.4e} <= {bound}",
            ok,
        )
        assert ok

class TestOracles:
    def test_ac5_stationary_gain_matches_riccati(self, s1_full_fit):
        ops, sol = s1_full_fit
        x = ops.dataset_ref.X.ravel()
        pi = sol.stationary_policy().ravel()
        gain = float(x @ pi) / float(x @ x)
        ref = riccati_gain(0.5, math.sqrt(2.0), 1.0, 1.0)
        rel = abs(gain - ref) / abs(ref)
        ok = rel <= 0.05
        _line(
            "AC-5",
            f"learned gain {gain:.5f} vs Riccati {ref:.5f}"
            f" (rel err {rel:.2%} <= 5%)",
            ok,
        )
        assert ok

    def test_ac7_forecast_matches_monte_carlo(self, s1_fit):
        ops, _ = s1_fit
        z0 = embed_initial(ops, np.array([[1.0]]))
        psi = ops.dataset_ref.X.ravel() ** 2
        steps = 50
        forecast = forecast_observable_path(
            ops, z0, np.zeros((ops.n_u, ops.N)), steps, psi
        )

        # Independent Euler-Maruyama estimate of E[x^2] at T = 0.5 for
        # dx = 0.5 x dt + sqrt(2 eps) dW from x(0) = 1.
        rng = np.random.default_rng(2024)
        dt, eps, n_paths = 1e-2, 0.02, 10_000
        paths = np.full(n_paths, 1.0)
        for _ in range(steps):
            paths = paths + 0.5 * paths * dt
            paths = paths + math.sqrt(2.0 * eps * dt) * rng.standard_normal(
                n_paths
            )
        mc = float(np.mean(paths**2))

        err = abs(float(forecast[-1]) - mc)
        ok = err <= 0.1
        _line(
            "AC-7",
            f"forecast E[x^2](0.5) = {forecast[-1]:.4f} vs Monte-Carlo"
            f" {mc:.4f} (|diff| = {err:.2e} <= 0.1)",
            ok,
        )
        assert ok

    def test_ac8_rmse_trend_is_decreasing(self):
        points = convergence_sweep("s1", [100, 250, 500, 1000], reps=5, seed=0)
        Ns = np.array([n for n, _ in points], dtype=float)
        rmses = np.array([r for _, r in points], dtype=float)
        assert np.all(np.isfinite(rmses))
        slope = float(np.polyfit(np.log(Ns), np.log(rmses), 1)[0])
        ok = slope < 0.0
        _line(
            "AC-8",
            "RMSE over N in {100, 250, 500, 1000}: "
            + ", ".join(f"{r:.3e}" for r in rmses)
            + f"; log-log slope {slope:.3f} < 0",
            ok,
        )
        assert ok


class TestPropertySuite:
    def test_ac6_property_suite(self, static_ops):
        rng = np.random.default_rng(11)

        # 1. control Gram: sum form equals the product-kernel dual form.
        X = rng.uniform(-1.0, 1.0, size=(2, 25))
        U = rng.uniform(-1.0, 1.0, size=(2, 25))
        K_X = gram(X, 1.1)
        K_U = control_gram(K_X, U)
        dual = K_X * (1.0 + U.T @ U)
        assert np.abs(K_U - dual).max() <= 1e-12

        # 2. K_U is symmetric positive definite (with the fit ridge).
        assert np.abs(K_U - K_U.T).max() == 0.0
        assert np.linalg.eigvalsh(K_U).min() >= -1e-10
        np.linalg.cholesky(K_U + 1e-8 * np.eye(K_U.shape[0]))

        # 3. Fenchel conjugate beats a fine grid search up to grid
        #    resolution (quadratic objective => h^2 curvature bound).
        pen = ControlPenalty(
            weights=np.array([2.0]), box=Box(-2.0, 2.0)
        )
        h = 1e-3
        grid_u = np.arange(-2.0, 2.0 + h / 2, h)
        for lam in (0.7, -3.0):
            val, _ = fenchel_conjugate(np.array([lam]), pen, 0.25)
            grid_vals = 2.0 * grid_u**2 * 0.25 + lam * grid_u
            gmin = float(grid_vals.min())
            assert val <= gmin + 1e-12
            assert gmin - val <= 2.0 * 0.25 * h**2 + 1e-12

        # 4. Zero diffusion collapses the smoothed kernel to the plain
        #    RBF exactly.
        cfg0 = KernelConfig(sigma=1.3, epsilon=0.0, dt=1e-2, gamma=1e-8)
        for _ in range(5):
            x, y = rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2)
            assert diffused_rbf_eval(x, y, cfg0, n_x=2) == rbf_eval(x, y, 1.3)

        # 5. Markov enforcement: A columns sum to 1, B columns to 0.
        mops = enforce_markov(static_ops)
        assert np.abs(mops.A_hat.sum(axis=0) - 1.0).max() <= 1e-12
        for blk in mops.B_hat_blocks:
            assert np.abs(blk.sum(axis=0)).max() <= 1e-12

        # 6. Mass drift under enforced propagation <= 1e-9 per step.
        z = embed_initial(mops, mops.dataset_ref.X)
        mass = z.mass
        for _ in range(200):
            z = propagate(mops, z, np.zeros((mops.n_u, mops.N)))
            assert abs(z.mass - mass) <= 1e-9
            mass = z.mass

        # 7. Identity transitions are recovered on the static dataset
        #    when propagating at the training controls.
        uniform = MeasureWeights(z=np.full(static_ops.N, 1.0 / static_ops.N))
        stepped = propagate(static_ops, uniform, static_ops.dataset_ref.U)
        assert np.abs(stepped.z - uniform.z).sum() <= 1e-5

        # 8. Relabeling the snapshots permutes the fitted operators.
        N = 30
        Xp = rng.uniform(-1.0, 1.0, size=(2, N))
        Up = rng.uniform(-1.0, 1.0, size=(1, N))
        Yp = Xp + 0.05 * rng.standard_normal((2, N))
        cost = np.sum(Xp**2, axis=0)
        cfg = KernelConfig(sigma=1.0, epsilon=0.0, dt=1e-2, gamma=1e-6)
        base = fit_krr(
            Dataset(
                X=Xp, U=Up, Y=Yp, cost=cost, dt=1e-2, epsilon=0.0, seed=0,
                system="static",
            ),
            cfg,
        )
        p = rng.permutation(N)
        perm = fit_krr(
            Dataset(
                X=Xp[:, p], U=Up[:, p], Y=Yp[:, p], cost=cost[p], dt=1e-2,
                epsilon=0.0, seed=0, system="static",
            ),
            cfg,
        )
        assert np.abs(perm.A_hat - base.A_hat[np.ix_(p, p)]).max() <= 1e-11
        assert (
            np.abs(
                perm.B_hat_blocks[0] - base.B_hat_blocks[0][np.ix_(p, p)]
            ).max()
            <= 1e-11
        )

        _line("AC-6", "property suite 8/8 checks", True)
