"""Shared fixtures and oracles: small fitted models, dense references."""

import math

import numpy as np
import pytest

from kmeoc import (
    Box,
    ControlAffineSystem,
    ControlPenalty,
    Dataset,
    InputError,
    KernelConfig,
    ValueSolution,
    fit_krr,
)
from kmeoc.bench import bench_config, fit_and_solve
from kmeoc.systems import make_system


# Scalar kernel oracles: one pair of states at a time, the formulas the
# vectorized Gram builders of kmeoc.kernel are checked against.


def rbf_eval(x, y, sigma: float) -> float:
    """Evaluate exp(-||x-y||^2 / sigma^2) for a single pair of states."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise InputError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if not sigma > 0:
        raise InputError(f"sigma must be > 0, got {sigma}")
    d2 = float(np.sum((x - y) ** 2))
    return float(np.exp(-d2 / sigma**2))


def diffused_rbf_eval(x, y, cfg: KernelConfig, n_x: int) -> float:
    """Evaluate the diffused kernel for a single pair of states.

    The value is ``(sigma^2/den)^(n_x/2) * exp(-||x-y||^2/den)`` with
    ``den`` given by ``cfg.diffused_denominator``.  At ``epsilon == 0``
    this is bit-for-bit equal to :func:`rbf_eval` in both modes.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise InputError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if x.shape[0] != n_x:
        raise InputError(f"state dimension {x.shape[0]} != n_x = {n_x}")
    den = cfg.diffused_denominator
    pref = (cfg.sigma**2 / den) ** (n_x / 2.0)
    d2 = float(np.sum((x - y) ** 2))
    return float(pref * np.exp(-d2 / den))


# Dense references: what the factored code of kmeoc computes without
# forming N x N arrays, written out directly.


def control_gram(K_X: np.ndarray, U) -> np.ndarray:
    """The control Gram K_U = K_X * (1 + U^T U), entrywise, as an array.

    Equal to ``K_X + sum_m diag(U_m) K_X diag(U_m)``; the package only
    applies it, through :func:`kmeoc.kernel.control_gram_product`.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    return K_X * (1.0 + U.T @ U)


def cross_gram_diffused(X, Y, cfg: KernelConfig) -> np.ndarray:
    """The diffused cross-Gram as an array, rows X and columns Y.

    Entry (i, j) is ``(sigma^2/den)^(n_x/2) * exp(-||x_i - y_j||^2/den)``
    with ``den = cfg.diffused_denominator``, its squared distance summed
    one coordinate at a time as in ``scipy.spatial.distance.cdist``; the
    package only keeps it factored, by :func:`kmeoc.kernel.build_grams`.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] != Y.shape[0]:
        raise InputError(f"shape mismatch: X {X.shape} vs Y {Y.shape}")
    den = cfg.diffused_denominator
    d2 = sum(np.subtract.outer(x, y) ** 2 for x, y in zip(X, Y))
    return (cfg.sigma**2 / den) ** (X.shape[0] / 2.0) * np.exp(-d2 / den)


def dense_departure(A) -> float:
    """Henrici's normalized departure from normality of a square array.

    sqrt(max(0, ||A||_F^2 - sum_i |lambda_i|^2)) / ||A||_F, 0 for the
    zero matrix: the formula :func:`kmeoc.departure_from_normality`
    evaluates through the small core of a LowRank.
    """
    A = np.asarray(A, dtype=float)
    fro = float(np.linalg.norm(A, "fro"))
    if fro == 0.0:
        return 0.0
    gap = max(0.0, fro**2 - float(np.sum(np.abs(np.linalg.eigvals(A)) ** 2)))
    return float(np.sqrt(gap)) / fro


def hand_built_solution(N, box=None, frozen=None) -> ValueSolution:
    """A one-step solution from the zero terminal value: Z_j = [1]."""
    return ValueSolution(
        coords=np.zeros((2, 2)),
        factors=[np.ones((N, 1)), np.ones((N, 1))],
        stage=np.zeros(N),
        penalty=ControlPenalty(weights=np.array([1.0]), box=box),
        dt=1e-2,
        converged_at=None if frozen is None else 0,
        frozen=frozen,
    )


def value_rows(sol) -> np.ndarray:
    """Every value row of a ValueSolution, shape (H+1, N)."""
    return np.stack([sol.value_row(k) for k in range(sol.horizon + 1)])


def policy_rows(sol) -> np.ndarray:
    """Every policy row of a ValueSolution, shape (H, n_u, N)."""
    return np.stack([sol.policy_row(k) for k in range(sol.horizon)])


def riccati_gain(a: float, b: float, q: float, r: float) -> float:
    """Stabilizing scalar LQR gain for dx = (a x + b u) dt, cost q x^2 + r u^2.

    Solves 2 a p - b^2 p^2 / r + q = 0 for the root making the closed
    loop a + b * gain stable and returns gain = -b p / r.  Raises
    ValueError when r <= 0, b = 0 or no real root exists.
    """
    if r <= 0 or b == 0 or a * a + b * b * q / r < 0:
        raise ValueError(f"no stabilizing gain for a={a}, b={b}, q={q}, r={r}")
    p = r * (a + math.sqrt(a * a + b * b * q / r)) / (b * b)
    return -b * p / r


def make_static_dataset(N=60, n_x=1, n_u=1, seed=0):
    """Zero-dynamics snapshots: Y = X exactly, random states and controls."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n_x, N))
    U = rng.uniform(-1.0, 1.0, size=(n_u, N))
    cost = np.sum(X**2, axis=0) * 1e-2
    return Dataset(
        X=X, U=U, Y=X.copy(), cost=cost, dt=1e-2, epsilon=0.0, seed=seed,
        system="static",
    )


def make_static_system():
    """A do-nothing system for rollout and integration edge cases."""
    return ControlAffineSystem(
        name="static",
        n_x=1,
        n_u=1,
        dynamics=lambda x, u: np.zeros_like(x),
        state_cost=lambda x: x[0] ** 2,
        penalty=ControlPenalty(weights=np.array([1.0])),
        domain=Box(np.array([-2.0]), np.array([2.0])),
        control_box=Box(np.array([-1.0]), np.array([1.0])),
    )


@pytest.fixture(scope="session")
def static_ops():
    """Operators fitted on exact identity transitions (epsilon = 0)."""
    ds = make_static_dataset()
    cfg = KernelConfig(sigma=1.0, epsilon=0.0, dt=1e-2, gamma=1e-8)
    return fit_krr(ds, cfg)


@pytest.fixture(scope="session")
def s1_fit():
    """A small S1 pipeline run shared by hjb/fpk/bench tests: (ops, sol)."""
    cfg = bench_config("s1", {"N": 400, "H": 300})
    return fit_and_solve(make_system("s1"), cfg, data_seed=123)


@pytest.fixture(scope="session")
def s1_sol_full_horizon():
    """S1 solution at the full default horizon with the stopping rule
    disabled, so every value/policy row is actually computed."""
    cfg = bench_config("s1", {"N": 300, "H": 500, "stop_tol": 0.0})
    return fit_and_solve(make_system("s1"), cfg, data_seed=7)


@pytest.fixture()
def tmp_out(tmp_path):
    return str(tmp_path)


__all__ = [
    "control_gram",
    "cross_gram_diffused",
    "dense_departure",
    "diffused_rbf_eval",
    "make_static_dataset",
    "make_static_system",
    "policy_rows",
    "rbf_eval",
    "riccati_gain",
    "value_rows",
]
