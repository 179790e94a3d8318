"""Fenchel conjugate, backward recursion, feedback interpolation."""

import csv
import dataclasses
import functools
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kmeoc import (
    Box,
    ControlAffineSystem,
    ControlPenalty,
    DivergenceError,
    InputError,
    KernelConfig,
    LowRank,
    ValueSolution,
    fenchel_conjugate,
    fit_krr,
    khjb_recursion,
    policy_interpolate,
)
from kmeoc import hjb
from kmeoc.bench import bench_config, fit_and_solve
from kmeoc.estimator import enforce_markov
from kmeoc.hjb import _fenchel_batch
from kmeoc.store import export_value_policy_csv
from kmeoc.systems import generate_dataset, make_system

from conftest import (
    hand_built_solution,
    make_static_dataset,
    policy_rows,
    value_rows,
)

lam_elems = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def box_penalty():
    return ControlPenalty(
        weights=np.array([1.0, 0.5]),
        box=Box(np.array([-1.0, -2.0]), np.array([1.0, 2.0])),
    )


class TestControlPenalty:
    # A box is given as its (lo, hi) bounds and built inside the check,
    # where the Box itself refuses lo >= hi.
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(weights=np.array([0.0])),
            dict(weights=np.array([-1.0])),
            dict(weights=np.array([])),
            dict(weights=np.array([1.0]), box=(1.0, -1.0)),
            dict(weights=np.array([1.0]), box=(0.5, 1.0)),  # excludes 0
            dict(weights=np.array([1.0]), box=(2.0, 2.0)),
            dict(weights=np.array([1.0, 1.0]), box=(-1.0, 1.0)),  # dim 1
        ],
    )
    def test_rejects_bad_penalties(self, kwargs):
        with pytest.raises(InputError):
            if "box" in kwargs:
                kwargs = dict(kwargs, box=Box(*kwargs["box"]))
            ControlPenalty(**kwargs)

    @pytest.mark.parametrize(
        "weights", [[np.inf], [1.0, np.inf], [np.nan]], ids=str
    )
    def test_rejects_non_finite_weights(self, weights):
        with pytest.raises(InputError, match="finite"):
            ControlPenalty(weights=np.array(weights))

    def test_box_is_kept_as_given(self):
        box = Box(np.array([-1.0, -2.0]), np.array([1.0, 2.0]))
        p = ControlPenalty(weights=np.array([1.0, 0.5]), box=box)
        assert p.box is box and p.n_u == 2


class TestFenchelConjugate:
    def test_zero_lambda_is_zero(self):
        val, u = fenchel_conjugate(np.zeros(2), box_penalty(), 0.1)
        assert val == 0.0
        np.testing.assert_array_equal(u, np.zeros(2))

    def test_unconstrained_closed_form(self):
        p = ControlPenalty(weights=np.array([2.0]))
        lam = np.array([3.0])
        dt = 0.25
        val, u = fenchel_conjugate(lam, p, dt)
        # u* = -lam / (2 R dt) = -3, value = -lam^2 / (4 R dt) = -4.5.
        assert u[0] == pytest.approx(-3.0, abs=1e-14)
        assert val == pytest.approx(-4.5, abs=1e-14)

    def test_value_attained_at_minimizer(self):
        rng = np.random.default_rng(0)
        p = box_penalty()
        for _ in range(50):
            lam = rng.normal(scale=4.0, size=2)
            val, u = fenchel_conjugate(lam, p, 0.05)
            attained = float(np.sum(p.weights * u**2) * 0.05 + lam @ u)
            assert abs(val - attained) <= 1e-12

    def test_minimum_over_random_admissible_controls(self):
        rng = np.random.default_rng(1)
        p = box_penalty()
        lam = np.array([2.5, -7.0])
        val, _ = fenchel_conjugate(lam, p, 0.1)
        lo, hi = p.box.lo, p.box.hi
        for _ in range(1000):
            u = lo + (hi - lo) * rng.random(2)
            candidate = float(np.sum(p.weights * u**2) * 0.1 + lam @ u)
            assert val <= candidate + 1e-12

    @settings(deadline=None, max_examples=60)
    @given(
        arrays(np.float64, (2,), elements=lam_elems),
        arrays(np.float64, (2,), elements=lam_elems),
        st.floats(0.01, 0.99),
    )
    def test_concave_in_lambda(self, lam1, lam2, alpha):
        p = box_penalty()
        mix = alpha * lam1 + (1.0 - alpha) * lam2
        v_mix, _ = fenchel_conjugate(mix, p, 0.1)
        v1, _ = fenchel_conjugate(lam1, p, 0.1)
        v2, _ = fenchel_conjugate(lam2, p, 0.1)
        assert v_mix >= alpha * v1 + (1.0 - alpha) * v2 - 1e-9

    def test_rejects_bad_inputs(self):
        p = box_penalty()
        with pytest.raises(InputError):
            fenchel_conjugate(np.zeros(3), p, 0.1)
        with pytest.raises(InputError):
            fenchel_conjugate(np.zeros(2), p, 0.0)


def _ops_with(static_ops, A, B_blocks, dt=None):
    """Clone fitted operators with hand-built dense matrices (and optional dt)."""
    out = dataclasses.replace(static_ops, A=A, B=B_blocks)
    if dt is not None:
        out = dataclasses.replace(
            out, kernel_cfg=dataclasses.replace(static_ops.kernel_cfg, dt=dt)
        )
    return out


class TestKhjbRecursion:
    def test_terminal_and_first_backward_rows(self, static_ops):
        N = static_ops.N
        cost = np.linspace(0.5, 2.0, N)
        penalty = ControlPenalty(weights=np.array([1.0]), box=Box(-1.0, 1.0))
        sol = khjb_recursion(static_ops, cost, penalty, H=40)
        np.testing.assert_array_equal(sol.value_row(40), np.zeros(N))
        # With v_H = 0 the conjugate term vanishes, so v_{H-1} is the
        # weighted stage cost exactly.
        np.testing.assert_array_equal(sol.value_row(39), cost * 1e-2)
        np.testing.assert_array_equal(sol.policy_row(39), np.zeros((1, N)))

    def test_single_step_horizon(self, static_ops):
        cost = np.ones(static_ops.N)
        penalty = ControlPenalty(weights=np.array([1.0]))
        sol = khjb_recursion(static_ops, cost, penalty, H=1)
        assert value_rows(sol).shape == (2, static_ops.N)
        np.testing.assert_array_equal(sol.value_row(0), cost * 1e-2)

    def test_zero_cost_stays_zero(self, static_ops):
        penalty = ControlPenalty(weights=np.array([1.0]), box=Box(-1.0, 1.0))
        sol = khjb_recursion(
            static_ops, np.zeros(static_ops.N), penalty, H=25
        )
        assert np.max(np.abs(value_rows(sol))) == 0.0
        assert np.max(np.abs(policy_rows(sol))) == 0.0

    def test_policy_respects_box(self, s1_fit):
        ops, _ = s1_fit
        ds = ops.dataset_ref
        penalty = ControlPenalty(weights=np.array([1.0]), box=Box(-0.8, 0.8))
        sol = khjb_recursion(ops, ds.cost / ds.dt, penalty, H=100)
        assert sol.box is not None
        lo, hi = sol.box.lo, sol.box.hi
        policy = policy_rows(sol)
        assert np.all(policy >= lo[:, None] - 1e-15)
        assert np.all(policy <= hi[:, None] + 1e-15)
        # The bound actually binds somewhere, so the clip is exercised.
        assert np.any(policy == hi[:, None])

    def test_policy_rows_are_conjugate_minimizers(self, s1_sol_full_horizon):
        ops, sol = s1_sol_full_horizon
        penalty = ControlPenalty(weights=np.array([1.0]), box=sol.box)
        for k in (0, sol.horizon // 2, sol.horizon - 1):
            lam = np.stack(
                [Bm.T @ sol.value_row(k + 1) for Bm in ops.B_hat_blocks]
            )
            u = sol.policy_row(k)
            for i in (0, sol.N - 1):
                _, u_star = fenchel_conjugate(lam[:, i], penalty, sol.dt)
                np.testing.assert_allclose(u[:, i], u_star, atol=1e-13)

    def test_identity_operator_accumulates_stage_cost(self, static_ops):
        N = static_ops.N
        # dt = 2^-7 keeps every partial sum exactly representable, so the
        # H-fold accumulation must match H * cost * dt bit for bit.
        ops = _ops_with(
            static_ops, np.eye(N), [np.zeros((N, N))], dt=1.0 / 128.0
        )
        cost = np.ones(N)
        penalty = ControlPenalty(weights=np.array([1.0]))
        H = 50
        sol = khjb_recursion(ops, cost, penalty, H=H)
        np.testing.assert_array_equal(sol.value_row(0), np.full(N, H / 128.0))

    def test_frozen_policy_still_accrues_value(self, static_ops):
        # B = 0 makes the policy identically zero, so the stopping rule
        # fires at the second computed row; values must keep growing.
        N = static_ops.N
        ops = _ops_with(static_ops, np.eye(N), [np.zeros((N, N))])
        cost = np.ones(N)
        penalty = ControlPenalty(weights=np.array([1.0]))
        sol = khjb_recursion(ops, cost, penalty, H=30, stop_tol=1e-6)
        assert sol.converged_at == 28
        assert sol.stationary_step == 28
        np.testing.assert_allclose(sol.value_row(0), 30 * 1e-2, rtol=1e-12)

    def test_stop_tol_zero_disables_rule(self, s1_sol_full_horizon):
        _, sol = s1_sol_full_horizon
        assert sol.converged_at is None
        assert sol.stationary_step == 0

    def test_divergence_reports_step(self, static_ops, caplog):
        N = static_ops.N
        ops = _ops_with(static_ops, 2.0 * np.eye(N), [np.zeros((N, N))])
        penalty = ControlPenalty(weights=np.array([1.0]))
        with caplog.at_level("DEBUG", logger="kmeoc.hjb"):
            with pytest.raises(DivergenceError) as exc_info:
                khjb_recursion(ops, np.ones(N), penalty, H=2000)
        assert 0 <= exc_info.value.step < 2000
        # The work done before the blow-up is logged once, as on a run
        # that finishes; no count is negative.
        lines = [r.getMessage() for r in caplog.records]
        computed = [line for line in lines if "steps computed" in line]
        assert len(computed) == 1
        assert re.fullmatch(
            r"\d+ steps computed, \d+ recomputed after the stop rule",
            computed[0],
        )
        assert sum("blocks scanned on all" in line for line in lines) == 1

    def test_divergence_says_why(self, static_ops):
        # A = 2 I, B = 0: the policy stays 0 and the closed loop is A.
        N = static_ops.N
        ops = _ops_with(static_ops, 2.0 * np.eye(N), [np.zeros((N, N))])
        penalty = ControlPenalty(weights=np.array([1.0]))
        with pytest.raises(DivergenceError) as exc_info:
            khjb_recursion(ops, np.ones(N), penalty, H=2000)
        err = exc_info.value
        assert err.spectral_radius > 1.0
        assert err.spectral_radius == pytest.approx(2.0, rel=1e-12)
        assert err.max_control == 0.0
        assert err.max_training_control == np.max(np.abs(ops.dataset_ref.U))
        assert f"spectral radius {err.spectral_radius:.6g}" in str(err)
        assert f"max |U| = {err.max_training_control:.4g}" in str(err)
        # Every divergence gets the same advice, whatever A's column sums.
        assert str(err).endswith("(try a different sigma)")

    def test_divergence_reads_a_row_whose_policy_map_is_finite(self):
        # Noisy s1 snapshots at gamma = 1e-4: the lowest finite policy row
        # (|u| near 1e306) overflows u_m * Z_m, so the radius is read
        # from a row above it.
        cfg = bench_config(
            "s1", {"data_epsilon": 0.02, "epsilon": 0.0, "gamma": 1e-4}
        )
        with pytest.raises(DivergenceError) as exc_info:
            fit_and_solve(make_system("s1"), cfg, 0)
        err = exc_info.value
        assert 0 <= err.step < cfg["H"]
        assert 1.0 < err.spectral_radius < np.inf
        assert err.max_control < np.inf
        assert "(try a different sigma)" in str(err)

    def test_divergence_radius_is_inf_when_no_policy_map_is_finite(
        self, static_ops
    ):
        # A NaN in A reaches the policy map of every row.
        N = static_ops.N
        A = np.eye(N)
        A[0, 0] = np.nan
        ops = _ops_with(static_ops, A, [np.zeros((N, N))])
        penalty = ControlPenalty(weights=np.array([1.0]))
        with pytest.raises(DivergenceError) as exc_info:
            khjb_recursion(ops, np.ones(N), penalty, H=10)
        assert exc_info.value.spectral_radius == np.inf

    def test_horizon_too_large_to_allocate(self, static_ops):
        # Its table of coordinates would take terabytes; the error comes
        # from the allocation, before any step runs.
        penalty = ControlPenalty(weights=np.array([1.0]))
        with pytest.raises(InputError, match="H = 100000000000 steps"):
            khjb_recursion(
                static_ops, np.ones(static_ops.N), penalty, H=10**11
            )

    def test_divergence_radius_is_the_dense_closed_loops(self, s1_fit):
        # Factored operators with a nonzero control block, under a finite
        # row of moderate size: five times the learned law, where the
        # closed loop's radius (1.32) is neither A's (1.04) nor the 1 of
        # the learned loop.  The radius read from the policy map's
        # D-square block is max |eig| of A + B diag(u), formed densely.
        ops, sol = s1_fit
        u = 5.0 * sol.policy_row(0)
        held = dataclasses.replace(sol, converged_at=0, frozen=u)
        P_bar, _ = hjb._factor_layout(ops)
        err = hjb._diverged(ops, held, P_bar, 0)
        closed = ops.A_hat + ops.B_hat_blocks[0] * u[0]
        want = np.max(np.abs(np.linalg.eigvals(closed)))
        assert want > 1.2
        assert err.spectral_radius == pytest.approx(want, rel=1e-10)
        assert err.max_control == np.max(np.abs(u))

    @pytest.mark.parametrize("stop_tol", [-1.0, -1e-12, np.nan, np.inf])
    def test_stop_tol_must_be_finite_and_non_negative(
        self, static_ops, stop_tol
    ):
        penalty = ControlPenalty(weights=np.array([1.0]))
        with pytest.raises(InputError, match="stop_tol"):
            khjb_recursion(
                static_ops, np.ones(static_ops.N), penalty, H=10,
                stop_tol=stop_tol,
            )

    def test_input_validation(self, static_ops):
        penalty = ControlPenalty(weights=np.array([1.0]))
        with pytest.raises(InputError):
            khjb_recursion(static_ops, np.ones(3), penalty, H=10)
        with pytest.raises(InputError):
            khjb_recursion(
                static_ops, np.ones(static_ops.N), penalty, H=0
            )
        for H in (10.0, 2.5, "10", None):
            with pytest.raises(InputError, match="H must be an integer"):
                khjb_recursion(static_ops, np.ones(static_ops.N), penalty, H=H)
        # Run, a NaN cost would surface only as a DivergenceError at
        # k = H - 1 that blames the closed loop's spectral radius.
        for bad in (np.nan, np.inf):
            cost = np.ones(static_ops.N)
            cost[7] = bad
            with pytest.raises(InputError, match=r"cost\[7\] = (nan|inf)"):
                khjb_recursion(static_ops, cost, penalty, H=10)
        two_channel = ControlPenalty(weights=np.array([1.0, 1.0]))
        with pytest.raises(InputError):
            khjb_recursion(
                static_ops, np.ones(static_ops.N), two_channel, H=10
            )

    def test_late_backward_increments_stationary(self, s1_sol_full_horizon):
        # Far from the terminal step the value rows grow by a constant
        # per-step increment (the long-run average cost), so the sup-norm
        # increments over the last tenth of the backward pass may vary
        # by at most a few percent.
        _, sol = s1_sol_full_horizon
        window = sol.horizon // 10
        d = np.array(
            [
                np.max(np.abs(sol.value_row(k) - sol.value_row(k + 1)))
                for k in range(window)
            ]
        )
        assert (d.max() - d.min()) / d.mean() < 0.05


def _dense_recursion(A, B_blocks, cost, penalty, H, dt, stop_tol):
    """Reference oracle: the backward recursion on dense N x N matrices.

    Step for step the loop the package ran before operators were
    factored; returns (policy, converged_at) or raises DivergenceError.
    """
    N = A.shape[0]
    A_T = np.ascontiguousarray(A.T)
    B_T = [np.ascontiguousarray(Bm.T) for Bm in B_blocks]
    w = penalty.weights[:, None]
    policy = np.empty((H, len(B_blocks), N))
    v = np.zeros(N)
    stage = cost * dt
    prev_u = frozen = converged_at = None
    for k in range(H - 1, -1, -1):
        with np.errstate(over="ignore", invalid="ignore"):
            lam = np.stack([Bm_T @ v for Bm_T in B_T], axis=0)
            if frozen is None:
                d_val, u = _fenchel_batch(lam, penalty, dt)
                v = A_T @ v + stage + d_val
            else:
                u = frozen
                v = A_T @ v + stage + np.sum(w * u**2 * dt + lam * u, axis=0)
        if not np.all(np.isfinite(v)):
            raise DivergenceError("dense oracle diverged", step=k)
        policy[k] = u
        if frozen is None and stop_tol > 0 and prev_u is not None:
            if np.max(np.abs(u - prev_u)) < stop_tol:
                converged_at = k
                frozen = u
        prev_u = u
    return policy, converged_at


def _table_recursion(ops, cost, penalty, H, stop_tol):
    """Reference oracle: the per-point loop filling dense tables.

    Step for step the loop the package ran while solutions held an
    (H+1) x N value table and an H x n_u x N policy table; returns
    (values, policy, converged_at).
    """
    N, n_u, dt = ops.N, ops.n_u, ops.kernel_cfg.dt
    w = penalty.weights[:, None]
    P_bar, Z = hjb._factor_layout(ops)
    part = hjb._parts(Z)
    stage = cost * dt
    values = np.zeros((H + 1, N))
    policy = np.empty((H, n_u, N))
    v = np.zeros(N)
    lam = np.empty((n_u, N))
    prev_u = frozen = converged_at = None
    for k in range(H - 1, -1, -1):
        y = v @ P_bar
        a = Z[0] @ y[part[0]]
        for m in range(1, len(Z)):
            np.dot(Z[m], y[part[m]], out=lam[m - 1])
        if frozen is None:
            d_val, u = _fenchel_batch(lam, penalty, dt)
        else:
            u = frozen
            d_val = np.sum(w * u**2 * dt + lam * u, axis=0)
        v = a + stage + d_val
        values[k] = v
        policy[k] = u
        if frozen is None and stop_tol > 0 and prev_u is not None:
            if np.max(np.abs(u - prev_u)) < stop_tol:
                converged_at = k
                frozen = u
        prev_u = u
    return values, policy, converged_at


class TestRowsFromCoordinates:
    """A solution keeps y_k and expands value and policy rows on demand."""

    @pytest.mark.parametrize(
        "case", ["boxed", "identity-fires", "s4", "s4-fires-below-a-block"]
    )
    def test_per_point_rows_equal_the_tables(self, static_ops, case):
        N = static_ops.N
        free = ControlPenalty(weights=np.array([1.0]))
        tol = 1e-6
        if case == "boxed":
            ops, cost, H = static_ops, np.linspace(0.5, 2.0, N), 40
            penalty = ControlPenalty(
                weights=np.array([1.0]), box=Box(-1.0, 1.0)
            )
        elif case == "identity-fires":
            ops = _ops_with(static_ops, np.eye(N), [np.zeros((N, N))])
            cost, penalty, H = np.ones(N), free, 30
        else:
            ops = _bench_ops("s4", 0)
            cost = ops.dataset_ref.cost / ops.dataset_ref.dt
            penalty, H = make_system("s4").penalty, bench_config("s4")["H"]
        if case == "s4-fires-below-a-block":
            # The tolerance that fires at step k, inside the second block
            # of steps, so the steps below it are recomputed frozen.
            full = khjb_recursion(ops, cost, penalty, H, stop_tol=0.0)
            change = np.max(
                np.abs(np.diff(policy_rows(full), axis=0)), axis=(1, 2)
            )
            k = 100
            assert k < H - hjb._BLOCK_ROWS
            assert change[k] < np.min(change[k + 1 :])
            tol = 0.5 * (change[k] + np.min(change[k + 1 :]))
        assert not hjb._use_coordinates(ops, penalty, H)
        sol = khjb_recursion(ops, cost, penalty, H, stop_tol=tol)
        values, policy, converged_at = _table_recursion(
            ops, cost, penalty, H, tol
        )
        fires_at = {"identity-fires": 28, "s4-fires-below-a-block": 100}
        assert sol.converged_at == converged_at == fires_at.get(case)
        assert policy_rows(sol).tobytes() == policy.tobytes()
        # Value rows expanded from free steps match bit for bit.  Below
        # the stop rule the recursion steps y through one linear map
        # where the tables project each frozen value row, so the rows
        # expanded from frozen steps agree to rounding.
        top = 0 if converged_at is None else max(converged_at - 1, 0)
        assert value_rows(sol)[top:].tobytes() == values[top:].tobytes()
        err = np.max(
            np.abs(value_rows(sol)[:top] - values[:top]), initial=0.0
        )
        assert err <= 1e-12 * np.max(np.abs(values))

    def test_coordinates_and_row_checks(self, static_ops):
        penalty = ControlPenalty(weights=np.array([1.0]))
        sol = khjb_recursion(static_ops, np.ones(static_ops.N), penalty, H=5)
        D = static_ops.A.rank + 1 + static_ops.B[0].rank + 1
        assert sol.coords.shape == (6, D)
        assert np.all(sol.coords[5] == 0.0)
        with pytest.raises(InputError):
            sol.policy_row(5)
        with pytest.raises(InputError):
            sol.value_row(-1)

    def test_s2_recursion_allocates_no_tables(self):
        # At bench settings the value and policy tables of s2 would take
        # (H+1) N + H N floats, 76 MiB.
        cfg = bench_config("s2")
        ops = _bench_ops("s2", 0)
        ds = ops.dataset_ref
        tracemalloc.start()
        try:
            sol = khjb_recursion(
                ops, ds.cost / ds.dt, make_system("s2").penalty, cfg["H"],
                stop_tol=cfg["stop_tol"],
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.horizon == cfg["H"]
        assert peak < 10 * 2**20


class TestFactoredMatchesDense:
    """The factored recursion against the dense oracle on the same operators."""

    def test_s1(self, s1_fit):
        ops, sol = s1_fit
        assert isinstance(ops.A, LowRank)
        ds = ops.dataset_ref
        policy, converged_at = _dense_recursion(
            ops.A_hat, ops.B_hat_blocks, ds.cost / ds.dt,
            make_system("s1").penalty, 300, ops.kernel_cfg.dt, 1e-6,
        )
        assert sol.converged_at == converged_at
        assert np.max(np.abs(policy_rows(sol) - policy)) <= 1e-5

    def test_s1_where_the_stop_rule_fires(self):
        cfg = bench_config("s1")
        system = make_system("s1")
        ops, sol = fit_and_solve(system, cfg, data_seed=0)
        ds = ops.dataset_ref
        policy, converged_at = _dense_recursion(
            ops.A_hat, ops.B_hat_blocks, ds.cost / ds.dt, system.penalty,
            cfg["H"], ops.kernel_cfg.dt, cfg["stop_tol"],
        )
        assert converged_at is not None
        assert sol.converged_at == converged_at
        assert np.max(np.abs(policy_rows(sol) - policy)) <= 1e-5

    @pytest.mark.parametrize("seed", [0, 1])
    def test_s2_at_n400(self, seed):
        # s2 is seed-fragile at this size too: data seed 0 diverges under
        # both forms (dense at k = 1725, factored at k = 1723), seed 1
        # converges.  Both must fail together or match.
        cfg = bench_config("s2", {"N": 400, "H": 2000})
        system = make_system("s2")
        ds = generate_dataset(
            system, cfg["N"], SimpleNamespace(dt=cfg["dt"], epsilon=0.0),
            seed=seed,
        )
        kcfg = KernelConfig(
            sigma=cfg["sigma"], epsilon=cfg["epsilon"], dt=cfg["dt"],
            gamma=cfg["gamma"],
        )
        ops = enforce_markov(fit_krr(ds, kcfg))
        args = (ds.cost / ds.dt, system.penalty, cfg["H"])
        try:
            sol = khjb_recursion(ops, *args, stop_tol=cfg["stop_tol"])
        except DivergenceError as exc:
            with pytest.raises(DivergenceError) as dense:
                _dense_recursion(
                    ops.A_hat, ops.B_hat_blocks, *args, kcfg.dt,
                    cfg["stop_tol"],
                )
            assert abs(dense.value.step - exc.step) <= 5
            return
        policy, converged_at = _dense_recursion(
            ops.A_hat, ops.B_hat_blocks, *args, kcfg.dt, cfg["stop_tol"]
        )
        assert sol.converged_at == converged_at
        assert np.max(np.abs(policy_rows(sol) - policy)) <= 1e-5

    def test_s1_boxed_per_point_path(self):
        # A box keeps the recursion on the per-point path, which steps
        # through y = P_bar^T v and the Z_j of the factors.
        cfg = bench_config("s1")
        ops = _bench_ops("s1", 0)
        ds = ops.dataset_ref
        penalty = ControlPenalty(
            weights=make_system("s1").penalty.weights, box=Box(-0.8, 0.8)
        )
        assert not hjb._use_coordinates(ops, penalty, cfg["H"])
        args = (ds.cost / ds.dt, penalty, cfg["H"])
        sol = khjb_recursion(ops, *args, stop_tol=cfg["stop_tol"])
        policy, converged_at = _dense_recursion(
            ops.A_hat, ops.B_hat_blocks, *args, ops.kernel_cfg.dt,
            cfg["stop_tol"],
        )
        table = policy_rows(sol)
        assert np.any(np.abs(table) == 0.8)  # the box binds
        assert sol.converged_at == converged_at
        assert np.max(np.abs(table - policy)) <= 1e-5

    def test_s2_boxed_per_point_path_where_the_stop_rule_fires(self):
        # The stop rule fires far above step 0, so the per-point path
        # takes over a thousand frozen steps, each through one linear map.
        ops = _bench_ops("s2", 0)
        ds = ops.dataset_ref
        penalty = ControlPenalty(
            weights=make_system("s2").penalty.weights, box=Box(-0.8, 0.8)
        )
        H = 2000
        assert not hjb._use_coordinates(ops, penalty, H)
        args = (ds.cost / ds.dt, penalty, H)
        sol = khjb_recursion(ops, *args, stop_tol=1e-6)
        policy, converged_at = _dense_recursion(
            ops.A_hat, ops.B_hat_blocks, *args, ops.kernel_cfg.dt, 1e-6
        )
        assert sol.converged_at == converged_at
        assert converged_at > hjb._BLOCK_ROWS
        stationary = sol.stationary_policy()
        assert np.any(np.abs(stationary) == 0.8)  # the box binds
        assert np.max(np.abs(stationary - policy[converged_at])) <= 1e-5
        # Every frozen step is y_k = P_bar^T v_k for the value row v_k
        # expanded from y_{k+1}.
        P_bar, _ = hjb._factor_layout(ops)
        for k in range(converged_at):
            want = sol.value_row(k) @ P_bar
            err = np.linalg.norm(sol.coords[k] - want)
            assert err <= 1e-10 * np.linalg.norm(want), k


@functools.lru_cache(maxsize=1)  # the cases sharing a fit are adjacent
def _bench_ops(name, seed):
    """Markov-projected operators of ``fit_and_solve`` at bench settings."""
    cfg = bench_config(name)
    ds = generate_dataset(
        make_system(name), cfg["N"],
        SimpleNamespace(dt=cfg["dt"], epsilon=cfg["data_epsilon"]),
        substeps=cfg["substeps"], sampler=cfg["sampler"], seed=seed,
    )
    kcfg = KernelConfig(
        sigma=cfg["sigma"], epsilon=cfg["epsilon"], dt=cfg["dt"],
        gamma=cfg["gamma"],
    )
    return enforce_markov(fit_krr(ds, kcfg))


def _block_boundary_case():
    """(ops, cost, penalty, H, tol, k): s1 whose stop rule fires at step k.

    The first row of a block is compared with the last row of the block
    above: the tolerance fires exactly there.  The third block's first
    row lies past s1's transient, where the policy change per step only
    shrinks.
    """
    ops = _bench_ops("s1", 0)
    ds = ops.dataset_ref
    penalty = make_system("s1").penalty
    H = 2 * hjb._BLOCK_ROWS + 101
    full = khjb_recursion(ops, ds.cost / ds.dt, penalty, H, stop_tol=0.0)
    change = np.max(np.abs(np.diff(policy_rows(full), axis=0)), axis=(1, 2))
    k = H - 1 - 2 * hjb._BLOCK_ROWS
    assert change[k] < np.min(change[k + 1 :])
    tol = 0.5 * (change[k] + np.min(change[k + 1 :]))
    return ops, ds.cost / ds.dt, penalty, H, tol, k


def _two_input_system():
    """x' = x - x^3 + u_1 + u_2 / 2: a bistable state with two channels."""
    return ControlAffineSystem(
        name="two-input",
        n_x=1,
        n_u=2,
        dynamics=lambda x, u: x - x**3 + (u[0] + 0.5 * u[1]),
        state_cost=lambda x: x[0] ** 2,
        penalty=ControlPenalty(weights=np.array([1.0, 0.5])),
        domain=Box(np.array([-3.0]), np.array([3.0])),
        control_box=Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
    )


def _two_channel_case():
    """(ops, cost, penalty, H, stop_tol) of the two-input system."""
    system = _two_input_system()
    ds = generate_dataset(
        system, 400, SimpleNamespace(dt=1e-2, epsilon=0.0), seed=0
    )
    ops = enforce_markov(
        fit_krr(ds, KernelConfig(sigma=1.2, epsilon=0.02, dt=1e-2))
    )
    return ops, ds.cost / ds.dt, system.penalty, 500, 1e-6


def _both_paths(monkeypatch, ops, cost, penalty, H, stop_tol):
    """khjb_recursion forced onto the coordinate, then the per-point path.

    Each result is a ValueSolution or the DivergenceError raised.
    """
    out = []
    for coordinates in (True, False):
        monkeypatch.setattr(
            hjb, "_use_coordinates", lambda ops, penalty, H, c=coordinates: c
        )
        try:
            out.append(khjb_recursion(ops, cost, penalty, H, stop_tol=stop_tol))
        except DivergenceError as exc:
            out.append(exc)
    return out


def _assert_paths_agree(coord, point):
    if isinstance(point, DivergenceError):
        assert isinstance(coord, DivergenceError)
        assert coord.step == point.step
        return
    assert not isinstance(coord, DivergenceError)
    assert coord.converged_at == point.converged_at
    assert np.max(np.abs(policy_rows(coord) - policy_rows(point))) <= 1e-9
    row_scale = np.max(np.abs(value_rows(point)), axis=1)
    row_error = np.max(np.abs(value_rows(coord) - value_rows(point)), axis=1)
    assert np.all(row_error <= 1e-9 * row_scale)


class TestCoordinatesMatchPerPoint:
    """The rank-r coordinate recursion against the per-point loop."""

    @pytest.mark.parametrize(
        "name, seed, overrides, outcome",
        [
            pytest.param("s1", 0, {}, "fires", id="s1-fires-at-75"),
            pytest.param("s1", 0, {"H": 100}, "runs through", id="s1-H-below-block"),
            pytest.param("s1", 0, {"stop_tol": 0.0}, "runs through", id="s1-stop-tol-0"),
            pytest.param("s2", 0, {}, "runs through", id="s2-seed0"),
            pytest.param("s2", 1, {}, "runs through", id="s2-seed1"),
            pytest.param("s2", 16, {}, "diverges", id="s2-seed16-diverges-at-3962"),
            pytest.param("s2", 27, {}, "diverges", id="s2-seed27-diverges-at-3773"),
            pytest.param("s3", 0, {}, "runs through", id="s3-seed0"),
            pytest.param("vdp", 0, {}, "fires", id="vdp-fires-at-494"),
            pytest.param("vdp", 1, {}, "diverges", id="vdp-seed1-diverges-at-1492"),
        ],
    )
    def test_bench_operators(self, monkeypatch, name, seed, overrides, outcome):
        cfg = bench_config(name, overrides)
        system = make_system(name)
        ops = _bench_ops(name, seed)
        assert hjb._use_coordinates(ops, system.penalty, cfg["H"])
        ds = ops.dataset_ref
        coord, point = _both_paths(
            monkeypatch, ops, ds.cost / ds.dt, system.penalty, cfg["H"],
            cfg["stop_tol"],
        )
        _assert_paths_agree(coord, point)
        if outcome == "diverges":
            assert isinstance(point, DivergenceError)
        else:
            assert isinstance(point, ValueSolution)
            assert (point.converged_at is not None) == (outcome == "fires")

    def test_stop_rule_fires_at_a_block_boundary(self, monkeypatch):
        ops, cost, penalty, H, tol, k = _block_boundary_case()
        coord, point = _both_paths(monkeypatch, ops, cost, penalty, H, tol)
        _assert_paths_agree(coord, point)
        assert point.converged_at == k

    def test_two_channels(self, monkeypatch):
        coord, point = _both_paths(monkeypatch, *_two_channel_case())
        _assert_paths_agree(coord, point)
        assert point.converged_at is not None

    def test_debug_log_names_the_path(self, caplog):
        self._check_debug_log(caplog, make_system("s1").penalty, "coordinate")

    def test_debug_log_names_the_per_point_path(self, caplog):
        # A box that s1's policy never reaches forces the per-point step.
        weights = make_system("s1").penalty.weights
        boxed = ControlPenalty(weights=weights, box=Box(-5.0, 5.0))
        self._check_debug_log(caplog, boxed, "per-point")

    @staticmethod
    def _check_debug_log(caplog, penalty, path):
        cfg = bench_config("s1")
        ops = _bench_ops("s1", 0)
        ds = ops.dataset_ref
        with caplog.at_level("DEBUG", logger="kmeoc.hjb"):
            sol = khjb_recursion(
                ops, ds.cost / ds.dt, penalty, cfg["H"],
                stop_tol=cfg["stop_tol"],
            )
        text = caplog.text
        assert (
            f"backward recursion on the {path} path: r = {ops.A.rank}, "
            f"n_u = 1, N = {ops.N}" in text
        )
        assert f"policy stationary at step {sol.converged_at} " in text
        # Steps below the firing step were first run with a free policy:
        # s1 fires at k = 75, inside the lowest block, so the steps
        # 0..74 are computed twice.
        assert sol.converged_at < cfg["H"] - hjb._BLOCK_ROWS
        assert (
            f"{cfg['H'] + sol.converged_at} steps computed, "
            f"{sol.converged_at} recomputed after the stop rule" in text
        )

    def test_path_choice(self, static_ops):
        s2 = make_system("s2").penalty
        ops = _bench_ops("s2", 0)
        assert hjb._use_coordinates(ops, s2, 5000)
        # s4's rank 45 at N = 400: 46 * 47 / 2 pair products exceed N.
        assert not hjb._use_coordinates(_bench_ops("s4", 0), s2, 5000)
        # Too short a horizon to repay the D x F map.
        r0, r1 = ops.A.rank, ops.B[0].rank
        D = r0 + 1 + r1 + 1
        F = r0 + 1 + (r1 + 1) * (r1 + 2) // 2 + 1
        H_min = -(-D * F // ops.N)
        assert hjb._use_coordinates(ops, s2, H_min)
        assert not hjb._use_coordinates(ops, s2, H_min - 1)
        boxed = ControlPenalty(weights=np.array([1.0]), box=Box(-1.0, 1.0))
        assert not hjb._use_coordinates(ops, boxed, 5000)
        N = static_ops.N
        dense = _ops_with(static_ops, np.eye(N), [np.zeros((N, N))])
        assert not hjb._use_coordinates(dense, s2, 5000)


def _bench_case(name, seed, overrides=None):
    """(ops, cost, penalty, H, stop_tol) of a system at bench settings."""
    cfg = bench_config(name, overrides)
    ops = _bench_ops(name, seed)
    ds = ops.dataset_ref
    penalty = make_system(name).penalty
    return ops, ds.cost / ds.dt, penalty, cfg["H"], cfg["stop_tol"]


def _boxed_case(name, bound, overrides=None):
    """_bench_case at data seed 0 with the control box [-bound, bound]."""
    ops, cost, penalty, H, stop_tol = _bench_case(name, 0, overrides)
    boxed = ControlPenalty(weights=penalty.weights, box=Box(-bound, bound))
    return ops, cost, boxed, H, stop_tol


def _doubling_case():
    """(ops, cost, penalty, H, stop_tol): A = 2 I and B = 0, which diverge."""
    cfg = KernelConfig(sigma=1.0, epsilon=0.0, dt=1e-2, gamma=1e-8)
    ops = fit_krr(make_static_dataset(), cfg)
    N = ops.N
    ops = _ops_with(ops, 2.0 * np.eye(N), [np.zeros((N, N))])
    penalty = ControlPenalty(weights=np.array([1.0]))
    return ops, np.ones(N), penalty, 2000, 1e-6


def _recurse(ops, cost, penalty, H, stop_tol):
    """khjb_recursion's solution, or the DivergenceError it raised."""
    try:
        return khjb_recursion(ops, cost, penalty, H, stop_tol=stop_tol)
    except DivergenceError as exc:
        return exc


class TestStopRuleScreen:
    """Both paths screen their stop rule on a few points."""

    @pytest.mark.parametrize(
        "case, coordinates",
        [
            pytest.param(
                _block_boundary_case, True, id="s1-fires-at-a-block-boundary"
            ),
            pytest.param(lambda: _bench_case("s2", 0), True, id="s2-seed0"),
            pytest.param(
                lambda: _bench_case("s2", 16), True, id="s2-seed16-diverges"
            ),
            pytest.param(
                lambda: _bench_case("vdp", 0), True, id="vdp-seed0-fires"
            ),
            pytest.param(
                lambda: _bench_case("vdp", 1), True, id="vdp-seed1-diverges"
            ),
            pytest.param(_two_channel_case, True, id="two-channels"),
            pytest.param(
                lambda: _bench_case("s1", 0, {"stop_tol": 0.0}),
                True,
                id="s1-stop-tol-0",
            ),
            # Per point, on the path each case takes by itself.
            pytest.param(
                lambda: _boxed_case("s1", 0.8, {"H": 1000}),
                False,
                id="s1-boxed-fires-at-42",
            ),
            pytest.param(
                lambda: _boxed_case("s3", 1.0),
                False,
                id="s3-boxed-binds-at-screened-points",
            ),
            pytest.param(
                lambda: _bench_case("s4", 0), False, id="s4-rank-above-N"
            ),
            pytest.param(_doubling_case, False, id="doubling-diverges"),
        ],
    )
    def test_screening_changes_no_bit(self, monkeypatch, case, coordinates):
        args = case()[:5]
        if coordinates:
            monkeypatch.setattr(
                hjb, "_use_coordinates", lambda ops, penalty, H: True
            )
        else:
            ops, _, penalty, H, _ = args
            assert not hjb._use_coordinates(ops, penalty, H)
        screened = _recurse(*args)
        # A screen that certifies nothing scans every block in full.
        monkeypatch.setattr(hjb, "_certified", lambda *a: False)
        full = _recurse(*args)
        assert type(screened) is type(full)
        if isinstance(full, DivergenceError):
            assert screened.step == full.step
            return
        assert np.array_equal(screened.coords, full.coords)
        assert screened.converged_at == full.converged_at
        if full.frozen is None:
            assert screened.frozen is None
        else:
            assert np.array_equal(screened.frozen, full.frozen)

    def test_full_scan_below_a_screened_block(self, monkeypatch):
        # The rule fires at the first row of the third block, against the
        # last row of the second.  Let the screen pass the two blocks
        # above, whose steps all change by more than the tolerance: the
        # third block's scan then forms that row itself, from the table
        # of y_k.
        ops, cost, penalty, H, tol, k = _block_boundary_case()
        monkeypatch.setattr(
            hjb, "_use_coordinates", lambda ops, penalty, H: True
        )
        monkeypatch.setattr(hjb, "_certified", lambda *a: False)
        full = khjb_recursion(ops, cost, penalty, H, stop_tol=tol)
        calls = []

        def first_two(*args):
            calls.append(args)
            return len(calls) <= 2

        monkeypatch.setattr(hjb, "_certified", first_two)
        sol = khjb_recursion(ops, cost, penalty, H, stop_tol=tol)
        assert len(calls) == 3
        assert sol.converged_at == full.converged_at == k
        assert np.array_equal(sol.frozen, full.frozen)
        assert np.array_equal(sol.coords, full.coords)

    def test_s2_scans_no_block_in_full(self, caplog):
        # s2 in coordinates and, per point, s2 under a box it never
        # reaches (20 blocks each) and s4, whose rank exceeds what the
        # coordinates repay (2 blocks).
        for ops, cost, penalty, H, stop_tol in [
            _bench_case("s2", 0),
            _boxed_case("s2", 100.0),
            _bench_case("s4", 0),
        ]:
            caplog.clear()
            with caplog.at_level("DEBUG", logger="kmeoc.hjb"):
                khjb_recursion(ops, cost, penalty, H, stop_tol=stop_tol)
            blocks = -(-H // hjb._BLOCK_ROWS)
            assert (
                f"stop rule: 0 of {blocks} blocks scanned on all {ops.N} "
                "points" in caplog.text
            )

    def test_stop_tol_zero_forms_no_policy_row(self, monkeypatch, caplog):
        def never(*args):
            raise AssertionError("a policy row was formed")

        monkeypatch.setattr(hjb, "_policy_rows", never)
        monkeypatch.setattr(hjb, "_certified", never)
        ops, cost, penalty, H, _ = _bench_case("s1", 0)
        assert hjb._use_coordinates(ops, penalty, H)
        with caplog.at_level("DEBUG", logger="kmeoc.hjb"):
            sol = khjb_recursion(ops, cost, penalty, H, stop_tol=0.0)
        assert sol.converged_at is None
        assert "stop rule: 0 of 0 blocks scanned" in caplog.text


class TestPolicyInterpolate:
    def test_reproduces_table_at_training_points(self):
        ds = make_static_dataset(N=40, seed=6)
        cfg = KernelConfig(sigma=1.0, epsilon=0.0, gamma=1e-12)
        ops = fit_krr(ds, cfg)
        penalty = ControlPenalty(weights=np.array([1.0]), box=Box(-1.0, 1.0))
        sol = khjb_recursion(ops, ds.cost / ds.dt, penalty, H=50)
        table = sol.stationary_policy()
        got = policy_interpolate(ds.X, sol, ops, k=sol.stationary_step)
        assert np.max(np.abs(got - table)) <= 1e-3

    def test_single_query_matches_batch(self, s1_fit):
        ops, sol = s1_fit
        pts = np.array([[-1.3, 0.2, 2.4]])
        batch = policy_interpolate(pts, sol, ops)
        for j in range(3):
            single = policy_interpolate(pts[:, j], sol, ops)
            assert single.shape == (1,)
            # GEMV (single) and GEMM (batch) order the sums differently,
            # and the interpolation coefficients are large with heavy
            # cancellation, so agreement is only to ~1e-8 absolute.
            np.testing.assert_allclose(
                single, batch[:, j], rtol=1e-6, atol=1e-7
            )

    def test_clips_to_control_box(self, static_ops):
        # The stop rule "fired" at step 0 with a row of 10s, held as is.
        N = static_ops.N
        sol = hand_built_solution(
            N, box=Box(-0.5, 0.5), frozen=np.full((1, N), 10.0)
        )
        out = policy_interpolate(
            static_ops.dataset_ref.X[:, :5], sol, static_ops, k=0
        )
        assert np.all(out <= 0.5) and np.all(out >= -0.5)
        assert np.any(out == 0.5)

    def test_zero_table_gives_zero(self, static_ops):
        N = static_ops.N
        sol = hand_built_solution(N)
        np.testing.assert_array_equal(sol.policy_row(0), np.zeros((1, N)))
        out = policy_interpolate(np.array([0.3]), sol, static_ops, k=0)
        np.testing.assert_array_equal(out, [0.0])

    def test_step_out_of_range(self, s1_fit):
        ops, sol = s1_fit
        with pytest.raises(InputError):
            policy_interpolate(np.array([0.0]), sol, ops, k=sol.horizon)
        with pytest.raises(InputError):
            policy_interpolate(np.array([0.0]), sol, ops, k=-1)

    def test_dimension_mismatch(self, s1_fit):
        ops, sol = s1_fit
        with pytest.raises(InputError):
            policy_interpolate(np.array([0.0, 1.0]), sol, ops)
        # No states, and a third axis, are refused before any kernel row.
        for query in (np.zeros((1, 0)), np.zeros((1, 2, 2))):
            with pytest.raises(InputError, match="no states|shape"):
                policy_interpolate(query, sol, ops)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, s1_fit, bad):
        # Far off the training states the kernel row is 0, so an
        # infinite query would read as the control 0.
        ops, sol = s1_fit
        with pytest.raises(InputError, match="non-finite"):
            policy_interpolate(np.array([bad]), sol, ops)
        with pytest.raises(InputError, match="non-finite"):
            policy_interpolate(np.array([[1.0, bad]]), sol, ops)

    def test_interpolation_cache_reused(self, s1_fit):
        ops, sol = s1_fit
        sol._interp_cache.clear()
        policy_interpolate(np.array([0.1]), sol, ops)
        assert sol.stationary_step in sol._interp_cache
        cached = sol._interp_cache[sol.stationary_step]
        policy_interpolate(np.array([0.2]), sol, ops)
        assert sol._interp_cache[sol.stationary_step] is cached

    def test_cache_follows_the_operators(self, s1_fit):
        # One solution interpolated with two models of the same N: the
        # second must not reuse the coefficients solved for the first.
        ops_a, sol = s1_fit
        ops_b, _ = fit_and_solve(
            make_system("s1"), bench_config("s1", {"N": 400, "H": 300}),
            data_seed=5,
        )
        pts = np.array([[-1.3, 0.2, 2.4]])
        policy_interpolate(pts, sol, ops_a)
        got = policy_interpolate(pts, sol, ops_b)
        fresh = dataclasses.replace(sol, _interp_cache={})
        alone = policy_interpolate(pts, fresh, ops_b)
        np.testing.assert_array_equal(got, alone)

    def test_operators_of_another_size_rejected(self, s1_fit, static_ops):
        _, sol = s1_fit
        fresh = dataclasses.replace(sol, _interp_cache={})
        with pytest.raises(InputError, match="training points"):
            policy_interpolate(np.array([0.0]), fresh, static_ops)


class TestCsvExport:
    def test_layout_and_round_trip(self, tmp_path, s1_fit):
        ops, sol = s1_fit
        path = tmp_path / "vp.csv"
        steps = [0, sol.horizon - 1]
        export_value_policy_csv(sol, ops.dataset_ref.X, path, steps=steps)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "t", "i", "x1", "v", "u1"]
        N = ops.N
        assert len(rows) == 1 + 2 * N
        # k is the outer loop, i the inner one.
        assert [r[0] for r in rows[1:]] == ["0"] * N + [str(sol.horizon - 1)] * N
        assert [r[2] for r in rows[1 : N + 1]] == [str(i) for i in range(N)]
        # %.17g survives the float round trip bit for bit.
        assert float(rows[1][4]) == sol.value_row(0)[0]
        assert float(rows[1][5]) == sol.policy_row(0)[0, 0]
        assert float(rows[1 + N][1]) == (sol.horizon - 1) * sol.dt

    def test_default_exports_every_step(self, tmp_path, static_ops):
        penalty = ControlPenalty(weights=np.array([1.0]))
        sol = khjb_recursion(
            static_ops, np.ones(static_ops.N), penalty, H=3, stop_tol=0.0
        )
        path = tmp_path / "all.csv"
        export_value_policy_csv(sol, static_ops.dataset_ref.X, path)
        with open(path, newline="") as fh:
            rows = list(fh)
        assert len(rows) == 1 + 3 * static_ops.N

    def test_step_outside_horizon_writes_nothing(self, tmp_path, s1_fit):
        ops, sol = s1_fit
        path = tmp_path / "vp.csv"
        for steps in ([0, sol.horizon], [-1]):
            with pytest.raises(InputError, match="outside"):
                export_value_policy_csv(
                    sol, ops.dataset_ref.X, path, steps=steps
                )
            assert not path.exists()

    def test_states_of_another_size_write_nothing(self, tmp_path, s1_fit):
        ops, sol = s1_fit
        X = ops.dataset_ref.X
        path = tmp_path / "vp.csv"
        for bad in (X[:, :10], np.hstack([X, X[:, :1]])):
            with pytest.raises(InputError, match="shape"):
                export_value_policy_csv(sol, bad, path, steps=[0])
            assert not path.exists()
