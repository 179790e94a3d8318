"""Fenchel conjugates, the backward value recursion, and feedback laws.

The recursion iterates, backwards from a zero terminal value,

    v_k = A_hat^T v_{k+1} + cost * dt + D(B_hat^T v_{k+1}),

where ``D`` is the (step-weighted) Fenchel conjugate of the control
penalty,

    D(lam) = min_{u in U} { r(u) * dt + lam^T u },

and the minimizer of that inner problem *is* the feedback law at the
matching training point and time step.  For diagonal quadratic
penalties with an optional box the minimizer has a closed form: clip
``-lam_m / (2 R_m dt)`` to the box.  One vectorized code path computes
both the conjugate values and the minimizers, so the recorded policy
and the conjugate's argmin can never drift apart.  The transposed
products come from ``EstimatedOperators.apply_T``, O(N r) per operator
for factored operators.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np
from scipy.linalg import cho_solve

from .errors import DivergenceError, InputError
from .kernel import cross_vector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .estimator import EstimatedOperators

__all__ = [
    "ControlPenalty",
    "ValueSolution",
    "fenchel_conjugate",
    "khjb_recursion",
    "value_functional",
    "policy_interpolate",
    "export_value_policy_csv",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ControlPenalty:
    """Diagonal quadratic control penalty r(u) = sum_m weights_m * u_m^2.

    Parameters
    ----------
    weights : array_like
        Strictly positive diagonal of the quadratic form, length n_u.
    box : tuple of (array_like, array_like), optional
        Per-coordinate control bounds ``(lo, hi)``.  When present, each
        interval must be non-degenerate and contain 0 (so that the
        conjugate at lam = 0 is exactly 0, matching the zero terminal
        value of the recursion).
    """

    weights: np.ndarray
    box: Optional[tuple] = None

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.ndim != 1 or w.size == 0 or not np.all(w > 0):
            raise InputError("penalty weights must be strictly positive")
        object.__setattr__(self, "weights", w)
        if self.box is not None:
            lo = np.broadcast_to(
                np.asarray(self.box[0], dtype=float), w.shape
            ).copy()
            hi = np.broadcast_to(
                np.asarray(self.box[1], dtype=float), w.shape
            ).copy()
            if not np.all(lo < hi):
                raise InputError("box must satisfy lo < hi per coordinate")
            if not (np.all(lo <= 0) and np.all(hi >= 0)):
                raise InputError("box must contain 0 in every coordinate")
            object.__setattr__(self, "box", (lo, hi))

    @property
    def n_u(self) -> int:
        return self.weights.size


@dataclass
class ValueSolution:
    """Backward value iterates and the per-step feedback table.

    Attributes
    ----------
    values : ndarray, shape (H+1, N)
        Row k holds v_k at the training points; row H is the zero
        terminal condition.
    policy : ndarray, shape (H, n_u, N)
        Entry (k, m, i) is the m-th control coordinate of the feedback
        law at step k, training point i.
    horizon : int
    dt : float
    converged_at : int or None
        Step index k at which the stationary stopping rule fired, or
        None if the policy kept changing through step 0.
    box : tuple or None
        Control bounds the recursion ran under; interpolated controls
        are clipped back to it.
    """

    values: np.ndarray
    policy: np.ndarray
    horizon: int
    dt: float
    converged_at: Optional[int] = None
    box: Optional[tuple] = None
    _interp_cache: dict = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def stationary_step(self) -> int:
        """The step whose policy row is the long-horizon law."""
        return self.converged_at if self.converged_at is not None else 0

    def stationary_policy(self) -> np.ndarray:
        """Policy table row at :attr:`stationary_step`, shape (n_u, N)."""
        return self.policy[self.stationary_step]


def _fenchel_batch(lam: np.ndarray, penalty: ControlPenalty, dt: float):
    """Conjugate values and minimizers for a batch of lambda columns.

    Parameters
    ----------
    lam : ndarray, shape (n_u, N)
    penalty : ControlPenalty
    dt : float

    Returns
    -------
    value : ndarray, shape (N,)
    minimizer : ndarray, shape (n_u, N)
    """
    w = penalty.weights[:, None]
    u = -lam / (2.0 * w * dt)
    if penalty.box is not None:
        lo, hi = penalty.box
        u = np.clip(u, lo[:, None], hi[:, None])
    value = np.sum(w * u**2 * dt + lam * u, axis=0)
    return value, u


def fenchel_conjugate(lam, penalty: ControlPenalty, dt: float):
    """Minimum of r(u)*dt + lam^T u over the admissible control set.

    Returns the pair ``(value, minimizer)``.  Unconstrained, the
    minimizer is ``-lam_m / (2 R_m dt)`` per coordinate and the value is
    ``-sum_m lam_m^2 / (4 R_m dt)``; with a box the minimizer is clipped
    and the value evaluated at the clipped point (the objective is
    coordinate-wise convex, so clipping is exact).
    """
    if not dt > 0:
        raise InputError(f"dt must be > 0, got {dt}")
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape[0] != penalty.n_u:
        raise InputError(
            f"lambda has length {lam.shape[0]}, penalty has n_u = {penalty.n_u}"
        )
    value, u = _fenchel_batch(lam[:, None], penalty, dt)
    return float(value[0]), u[:, 0]


def khjb_recursion(
    ops: "EstimatedOperators",
    cost,
    penalty: ControlPenalty,
    H: int,
    stop_tol: float = 1e-6,
) -> ValueSolution:
    """Run the backward value recursion over ``H`` steps.

    Parameters
    ----------
    ops : EstimatedOperators
        Fitted transition operators.
    cost : array_like, length N
        Raw stage-cost values at the training points; the recursion
        applies the dt weighting itself.  (Dataset.cost stores the
        pre-weighted product, so divide by dt when feeding it here.)
    penalty : ControlPenalty
    H : int
        Number of backward steps, >= 1.
    stop_tol : float
        Stationary stopping rule: once the sup-norm change of the
        feedback table between consecutive steps falls below this
        tolerance, the policy is frozen for the remaining steps while
        the values continue to accrue under it.  The comparison starts
        with the second computed row (the terminal row is always zero,
        so comparing anything against an implicit zero-filled "previous
        policy" would fire the rule immediately and vacuously).  Pass 0
        to disable.

    Returns
    -------
    ValueSolution

    Raises
    ------
    DivergenceError
        If an iterate stops being finite.  This usually signals an
        unstable learned operator spectrum; enforcing the Markov
        constraints (``enforce_markov``) or picking a different kernel
        scale sigma are the usual remedies.
    """
    cost = np.asarray(cost, dtype=float).ravel()
    N = ops.N
    if cost.size != N:
        raise InputError(f"cost has length {cost.size}, expected N = {N}")
    if H < 1:
        raise InputError(f"H must be >= 1, got {H}")
    dt = ops.kernel_cfg.dt
    n_u = ops.n_u
    w = penalty.weights[:, None]
    if penalty.n_u != n_u:
        raise InputError(
            f"penalty has n_u = {penalty.n_u}, operators have n_u = {n_u}"
        )

    values = np.empty((H + 1, N))
    policy = np.empty((H, n_u, N))
    values[H] = 0.0
    v = np.zeros(N)
    stage = cost * dt
    prev_u = None
    frozen: Optional[np.ndarray] = None
    converged_at: Optional[int] = None

    # Divergence is detected below via the isfinite check and raised as
    # a typed error; keep numpy's own overflow chatter out of it.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(H - 1, -1, -1):
            a, lam = ops.apply_T(v)
            if frozen is None:
                d_val, u = _fenchel_batch(lam, penalty, dt)
            else:
                u = frozen
                d_val = np.sum(w * u**2 * dt + lam * u, axis=0)
            v = a + stage + d_val
            if not np.all(np.isfinite(v)):
                raise DivergenceError(
                    f"value iterate became non-finite at step k={k}; the "
                    "learned operator spectrum is likely unstable (try "
                    "enforce_markov or a different sigma)",
                    step=k,
                )
            policy[k] = u
            values[k] = v
            if frozen is None and stop_tol > 0 and prev_u is not None:
                if np.max(np.abs(u - prev_u)) < stop_tol:
                    converged_at = k
                    frozen = u
                    log.debug(
                        "policy stationary at step %d (tol %.1e)", k, stop_tol
                    )
            prev_u = u

    return ValueSolution(
        values=values,
        policy=policy,
        horizon=H,
        dt=dt,
        converged_at=converged_at,
        box=penalty.box,
    )


def value_functional(v0, z0) -> float:
    """Inner product of a value vector with initial measure weights.

    ``z0`` may be a plain vector or anything with a ``z`` attribute
    (e.g. ``MeasureWeights``).
    """
    z = np.asarray(getattr(z0, "z", z0), dtype=float).ravel()
    v0 = np.asarray(v0, dtype=float).ravel()
    if v0.size != z.size:
        raise InputError(
            f"length mismatch: v0 has {v0.size}, z0 has {z.size}"
        )
    return float(v0 @ z)


def _coefficients_for_step(
    sol: ValueSolution, ops: "EstimatedOperators", k: int
) -> np.ndarray:
    """(K_X + gamma I)^{-1} @ policy-row-k, cached per step on first use."""
    C = sol._interp_cache.get(k)
    if C is None:
        table = sol.policy[k]  # (n_u, N)
        C = cho_solve(ops.x_gram_factor(), table.T)  # (N, n_u)
        sol._interp_cache[k] = C
    return C


def policy_interpolate(
    query, sol: ValueSolution, ops: "EstimatedOperators", k: Optional[int] = None
) -> np.ndarray:
    """Evaluate the learned feedback law off the training points.

    The policy table row at step ``k`` is interpolated in the kernel
    basis over the training states: the returned control is
    ``k_xX (K_X + gamma I)^{-1} table``, clipped to the control box when
    one is configured.  The linear solve against the regularized Gram
    matrix is performed once per step and cached.

    Parameters
    ----------
    query : array_like
        A single state (length n_x) or a batch of M states as an
        ``n_x x M`` array.
    sol, ops :
        The recursion output and the operators it was computed from.
    k : int, optional
        Step index, < horizon.  Defaults to the stationary step (where
        the stopping rule fired, else 0 = the longest-horizon row).

    Returns
    -------
    ndarray
        Control vector of length n_u for a single query, else an
        ``n_u x M`` array.
    """
    if k is None:
        k = sol.stationary_step
    if not 0 <= k < sol.horizon:
        raise InputError(f"step {k} outside [0, {sol.horizon})")
    X = ops.dataset_ref.X
    sigma = ops.kernel_cfg.sigma
    q = np.asarray(query, dtype=float)
    single = q.ndim == 1
    Q = q[:, None] if single else q
    if Q.shape[0] != X.shape[0]:
        raise InputError(
            f"query dimension {Q.shape[0]} != state dimension {X.shape[0]}"
        )
    C = _coefficients_for_step(sol, ops, k)
    K_q = np.stack([cross_vector(Q[:, j], X, sigma) for j in range(Q.shape[1])])
    out = (K_q @ C).T  # (n_u, M)
    if sol.box is not None:
        lo, hi = sol.box
        out = np.clip(out, lo[:, None], hi[:, None])
    return out[:, 0] if single else out


def export_value_policy_csv(
    sol: ValueSolution,
    X,
    path,
    steps: Optional[Sequence[int]] = None,
) -> None:
    """Write ``k,t,i,x1..xn,v,u1..um`` rows, k outermost, then i.

    ``steps`` restricts the export to the given step indices (default:
    all policy steps 0..H-1).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    n_x = X.shape[0]
    n_u = sol.policy.shape[1]
    if steps is None:
        steps = range(sol.horizon)
    header = (
        ["k", "t", "i"]
        + [f"x{d+1}" for d in range(n_x)]
        + ["v"]
        + [f"u{m+1}" for m in range(n_u)]
    )
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for k in steps:
            t = k * sol.dt
            for i in range(X.shape[1]):
                row = [k, f"{t:.17g}", i]
                row += [f"{X[d, i]:.17g}" for d in range(n_x)]
                row += [f"{sol.values[k, i]:.17g}"]
                row += [f"{sol.policy[k, m, i]:.17g}" for m in range(n_u)]
                wr.writerow(row)
