"""Independent oracles for every derived constant used elsewhere.

Each test here recomputes an expected value by a *different* method
than the library uses — grid search, Monte Carlo, closed-form algebra —
and freezes the agreement.  Downstream tests may then rely on the
library's own values.
"""

import math

import numpy as np
import pytest

from kmeoc import (
    Box,
    ControlPenalty,
    KernelConfig,
    euler_maruyama_step,
    fenchel_conjugate,
    gram,
    rmse_policy,
)
from kmeoc.systems import make_system

from conftest import (
    control_gram,
    dense_departure,
    diffused_rbf_eval,
    make_static_system,
    rbf_eval,
    riccati_gain,
)


# ---------------------------------------------------------------- Fenchel

def _fenchel_grid_oracle(lam, R, dt, lo=-10.0, hi=10.0, step=1e-4):
    """Brute-force min of R u^2 dt + lam u over a 1-D grid."""
    us = np.arange(lo, hi + step, step)
    vals = R * us**2 * dt + lam * us
    i = int(np.argmin(vals))
    return float(vals[i]), float(us[i])


def test_fenchel_unbounded_matches_grid_search():
    pen = ControlPenalty(weights=np.array([1.0]))
    value, u = fenchel_conjugate([0.04], pen, 0.01)
    g_value, g_u = _fenchel_grid_oracle(0.04, 1.0, 0.01)
    # grid resolution bound: value error <= R dt step^2, u error <= step
    assert value == pytest.approx(-0.04, abs=1e-12)
    assert u[0] == pytest.approx(-2.0, abs=1e-12)
    assert abs(value - g_value) <= 1.0 * 0.01 * 1e-4**2 + 1e-12
    assert abs(u[0] - g_u) <= 1e-4 + 1e-12


def test_fenchel_box_matches_grid_search():
    pen = ControlPenalty(weights=np.array([1.0]), box=Box([-1.0], [1.0]))
    value, u = fenchel_conjugate([0.04], pen, 0.01)
    g_value, g_u = _fenchel_grid_oracle(0.04, 1.0, 0.01, lo=-1.0, hi=1.0)
    assert value == pytest.approx(-0.03, abs=1e-12)
    assert u[0] == pytest.approx(-1.0, abs=1e-12)
    assert abs(value - g_value) <= 1.0 * 0.01 * 1e-4**2 + 1e-12


# ---------------------------------------------------------------- Riccati

def test_riccati_hand_cases():
    # 2ap - b^2 p^2 / r + q = 0; stabilizing root via the quadratic formula.
    assert riccati_gain(0.5, math.sqrt(2.0), 1.0, 1.0) == pytest.approx(
        -math.sqrt(2.0), abs=1e-12
    )
    assert riccati_gain(-1.0, 1.0, 0.0, 1.0) == 0.0
    assert riccati_gain(0.0, 1.0, 1.0, 1.0) == pytest.approx(-1.0, abs=1e-12)


def test_riccati_gain_satisfies_care_residual():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.uniform(-2.0, 2.0)
        b = rng.uniform(0.2, 3.0)
        q = rng.uniform(0.0, 4.0)
        r = rng.uniform(0.1, 3.0)
        gain = riccati_gain(a, b, q, r)
        p = -gain * r / b
        residual = 2 * a * p - b**2 * p**2 / r + q
        assert abs(residual) <= 1e-9 * max(1.0, abs(p)) ** 2
        assert a + b * gain <= 1e-12  # stabilizing


@pytest.mark.parametrize(
    "a, b, q, r",
    [(1.0, 0.0, 1.0, 1.0), (0.0, 1.0, -10.0, 1.0), (1.0, 1.0, 1.0, 0.0)],
    ids=["uncontrollable", "no-real-root", "no-control-weight"],
)
def test_riccati_refuses_a_problem_without_a_stabilizing_gain(a, b, q, r):
    with pytest.raises(ValueError):
        riccati_gain(a, b, q, r)


# ------------------------------------------------- departure from normality

def test_departure_hand_case_jordan_block():
    # ||A||_F = 1, both eigenvalues 0 -> departure exactly 1.
    assert dense_departure(np.array([[0.0, 1.0], [0.0, 0.0]])) == (
        pytest.approx(1.0, abs=1e-12)
    )


# -------------------------------------------------------------- integration

def test_s4_single_euler_step_hand_value():
    # x + dt * (-x^3) = 1 - 0.01 = 0.99
    s4 = make_system("s4")
    rng = np.random.default_rng(0)
    out = euler_maruyama_step(s4, [1.0], [0.0], 0.01, 0.0, 1, rng)
    assert out[0] == pytest.approx(0.99, abs=1e-15)


def test_em_noise_variance_oracle():
    # f = 0, G = 0: increments are pure noise of variance 2 eps dt.
    system = make_static_system()
    eps, dt = 0.3, 0.05
    rng = np.random.default_rng(42)
    draws = np.array(
        [
            euler_maruyama_step(system, [0.0], [0.0], dt, eps, 4, rng)[0]
            for _ in range(100_000)
        ]
    )
    assert np.var(draws) == pytest.approx(2 * eps * dt, rel=0.05)


# ------------------------------------------------------------------- kernel

def test_rbf_unit_distance_value():
    assert rbf_eval(np.array([0.0]), np.array([1.0]), 1.0) == pytest.approx(
        math.exp(-1.0), abs=1e-12
    )
    assert math.exp(-1.0) == pytest.approx(0.367879, abs=5e-7)


def test_diffused_kernel_printed_mode_values():
    cfg = KernelConfig(sigma=1.0, epsilon=0.02, dt=0.01)
    # denominator 1 + 2*0.02*0.01 = 1.0004, prefactor (1/1.0004)^(1/2)
    same = diffused_rbf_eval(np.array([0.3]), np.array([0.3]), cfg, n_x=1)
    assert same == pytest.approx((1 / 1.0004) ** 0.5, abs=1e-12)
    assert same == pytest.approx(0.999800, abs=5e-7)
    apart = diffused_rbf_eval(np.array([0.0]), np.array([1.0]), cfg, n_x=1)
    assert apart == pytest.approx(
        (1 / 1.0004) ** 0.5 * math.exp(-1 / 1.0004), abs=1e-12
    )
    assert apart == pytest.approx(0.367953, abs=5e-7)


def test_diffused_kernel_exact_mode_matches_monte_carlo():
    # The plus_4eps_dt denominator IS E_w[k(x, y + sqrt(2 eps dt) w)]:
    # verified against a large Monte-Carlo average.
    cfg = KernelConfig(
        sigma=1.1, epsilon=0.5, dt=0.2, diffused_mode="plus_4eps_dt"
    )
    x, y = np.array([0.4]), np.array([-0.3])
    rng = np.random.default_rng(11)
    w = rng.standard_normal(400_000)
    mc = np.mean(
        np.exp(-((x[0] - (y[0] + np.sqrt(2 * 0.5 * 0.2) * w)) ** 2) / 1.1**2)
    )
    val = diffused_rbf_eval(x, y, cfg, n_x=1)
    assert val == pytest.approx(mc, rel=5e-3)
    # Same point at the printed denominator: (sigma^2/(sigma^2+2 eps dt))^(1/2)
    same = diffused_rbf_eval(
        x, x, KernelConfig(sigma=1.1, epsilon=0.5, dt=0.2), n_x=1
    )
    assert same == pytest.approx((1.21 / (1.21 + 0.2)) ** 0.5, abs=1e-12)


def test_control_gram_hand_case_and_dual_form():
    # Identical states -> K_X all ones; U = [1, 2] -> K_U = [[2,3],[3,5]].
    X = np.array([[0.7, 0.7]])
    U = np.array([[1.0, 2.0]])
    K_X = gram(X, 1.0)
    K_U = control_gram(K_X, U)
    assert np.allclose(K_U, [[2.0, 3.0], [3.0, 5.0]], atol=1e-14)

    # Dual form K_X + sum_m U_m K_X U_m on random data.
    rng = np.random.default_rng(3)
    X = rng.normal(size=(2, 15))
    U = rng.normal(size=(3, 15))
    K_X = gram(X, 0.8)
    K_U = control_gram(K_X, U)
    dual = K_X.copy()
    for m in range(3):
        dual += np.diag(U[m]) @ K_X @ np.diag(U[m])
    assert np.max(np.abs(K_U - dual)) <= 1e-12


def test_zero_diffusion_reduces_to_plain_kernel():
    cfg = KernelConfig(sigma=1.3, epsilon=0.0, dt=0.01)
    x, y = np.array([0.2, -1.0]), np.array([1.5, 0.3])
    assert diffused_rbf_eval(x, y, cfg, n_x=2) == rbf_eval(x, y, 1.3)


# --------------------------------------------------------------------- rmse

def test_rmse_hand_case_against_summation_oracle():
    pts = np.linspace(-3.0, 3.0, 100)[None, :]
    est = lambda x: -1.4 * x  # noqa: E731
    truth = lambda x: -math.sqrt(2.0) * x  # noqa: E731
    got = rmse_policy(est, truth, pts)
    expected = (math.sqrt(2.0) - 1.4) * math.sqrt(np.mean(pts[0] ** 2))
    oracle = math.sqrt(
        sum((est(x) - truth(x)) ** 2 for x in pts[0]) / pts.shape[1]
    )
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(oracle, rel=1e-12)


# ------------------------------------------------------- forecast moment ODE

def test_s1_second_moment_monte_carlo_matches_analytic():
    """The AC-7 Monte-Carlo oracle agrees with the closed-form moment.

    For dX = 0.5 X dt + sqrt(2*0.02) dW from X_0 = 1, m(t) = E[X_t^2]
    solves m' = m + 0.04, so m(0.5) = 1.04 e^0.5 - 0.04.
    """
    analytic = 1.04 * math.exp(0.5) - 0.04
    rng = np.random.default_rng(99)
    n_paths, steps, dt, eps = 10_000, 50, 0.01, 0.02
    x = np.ones(n_paths)
    for _ in range(steps):
        x = x + dt * 0.5 * x + math.sqrt(2 * eps * dt) * rng.standard_normal(
            n_paths
        )
    mc = float(np.mean(x**2))
    assert mc == pytest.approx(analytic, abs=0.06)
    assert analytic == pytest.approx(1.674670, abs=5e-6)
