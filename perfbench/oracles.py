"""Closed forms and output checks, written apart from the program.

Nothing here imports ``kmeoc``: the optimal laws, the Riccati gain and
the closed-loop second moment are derived from the system definitions
in the paper's benchmark (see README.md), so a fault in the program
cannot hide in its own reference values.
"""

from __future__ import annotations

import math
from typing import Iterable, List

import numpy as np

# s1: dx = (a x + b u) dt + sqrt(2 eps) dW, running cost q x^2 + r u^2.
S1_A, S1_B, S1_Q, S1_R, S1_EPS = 0.5, math.sqrt(2.0), 1.0, 1.0, 0.02

#: Accuracy bounds each successful operation must meet.
RMSE_BOUND = {"solve-s2": 0.4, "solve-vdp": 0.15, "cli-s1": 5e-2}
#: Largest |column sum - target| the Markov projection may leave.
MARKOV_TOL = 1e-12
#: Largest |forecast - exact| for E[x(0.5)^2] from x0 = 1 under the
#: learned s1 law.  Data seeds 0-99 give 0.2304-0.2327 against 0.2335.
FORECAST_TOL = 1e-2


def riccati_gain(a: float, b: float, q: float, r: float) -> float:
    """Stabilizing LQR gain k (u = k x) of the scalar Riccati equation.

    0 = 2 a p - b^2 p^2 / r + q has the positive root
    p = r (a + sqrt(a^2 + b^2 q / r)) / b^2, and k = -b p / r.
    """
    p = r * (a + math.sqrt(a * a + b * b * q / r)) / (b * b)
    return -b * p / r


def s1_law(x: np.ndarray) -> np.ndarray:
    return riccati_gain(S1_A, S1_B, S1_Q, S1_R) * np.asarray(x, dtype=float)


def s1_second_moment(t: float, m0: float = 1.0) -> float:
    """E[x(t)^2] under the optimal s1 closed loop from E[x(0)^2] = m0.

    dx = lam x dt + sqrt(2 eps) dW with lam = a + b k gives
    m' = 2 lam m + 2 eps, so m(t) = m0 e^{2 lam t} + eps/(-lam) (1 - e^{2 lam t}).
    """
    lam = S1_A + S1_B * riccati_gain(S1_A, S1_B, S1_Q, S1_R)
    decay = math.exp(2.0 * lam * t)
    return m0 * decay + S1_EPS / (-lam) * (1.0 - decay)


def s2_law(x: np.ndarray) -> np.ndarray:
    """Optimal law of s2: u = -x log(x^2)."""
    x = np.asarray(x, dtype=float)
    return -x * np.log(x * x)


def vdp_law(x: np.ndarray) -> np.ndarray:
    """Optimal law of the planar oscillator: u = -x1 x2 (x is 2 x M)."""
    x = np.asarray(x, dtype=float)
    return -(x[0] * x[1])[None, :]


LAWS = {"s1": s1_law, "s2": s2_law, "vdp": vdp_law}


def truth_table(system: str, points: np.ndarray) -> np.ndarray:
    """The optimal law on an n_x x M point array, as an n_u x M table."""
    out = LAWS[system](points)
    return out.reshape(-1, points.shape[1])


def rmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Root mean square Euclidean error over the columns (the points)."""
    d = np.asarray(estimate, dtype=float) - np.asarray(truth, dtype=float)
    d = d.reshape(-1, d.shape[-1])
    return math.sqrt(float(np.mean(np.sum(d * d, axis=0))))


def column_sums(M: np.ndarray) -> np.ndarray:
    """Column sums with Neumaier compensation, accurate to ~1 ulp.

    Plain summation of N terms can be off by N ulps of the largest
    entry, which at N = 2500 would blur a 1e-12 check.
    """
    M = np.asarray(M, dtype=float)
    s = np.zeros(M.shape[1])
    c = np.zeros(M.shape[1])
    for row in M:
        t = s + row
        big = np.abs(s) >= np.abs(row)
        c += np.where(big, (s - t) + row, (row - t) + s)
        s = t
    return s + c


def markov_errors(A: np.ndarray, blocks: Iterable[np.ndarray]) -> List[str]:
    """Violations of the Markov projection: A columns sum to 1, B to 0."""
    errors = []
    dev = float(np.max(np.abs(column_sums(A) - 1.0)))
    if not dev <= MARKOV_TOL:
        errors.append(f"A_hat column sums miss 1 by {dev:.3e}")
    for m, B in enumerate(blocks):
        dev = float(np.max(np.abs(column_sums(B))))
        if not dev <= MARKOV_TOL:
            errors.append(f"B_hat[{m}] column sums miss 0 by {dev:.3e}")
    return errors


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def spectral_radius(A: np.ndarray, matvecs: int = 48, seed: int = 0) -> float:
    """Power-iteration estimate of rho(A) from ``matvecs`` products.

    The growth of ||A^k v|| over the second half of the iteration, so
    the transient of the first half does not count.
    """
    v = np.random.default_rng(seed).standard_normal(A.shape[0])
    half = matvecs // 2
    log_norm = 0.0
    for k in range(matvecs):
        v = A @ v
        n = float(np.linalg.norm(v))
        if not (n > 0.0 and math.isfinite(n)):
            return n
        v /= n
        if k >= half:
            log_norm += math.log(n)
    return math.exp(log_norm / (matvecs - half))
