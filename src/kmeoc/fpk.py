"""Forward propagation of state distributions under a feedback law.

A probability measure is represented by a coefficient vector z over the
point masses at the training states: p ~ sum_i z_i delta_{x^(i)}.  The
fitted operators push such weights one step forward,

    z' = A_hat z + sum_m B_hat_m (pi_m(X) * z),

where pi_m(X) is the m-th control coordinate of the feedback law tabled
over the training points.  Expectations of an observable psi are then
kernel-quadrature sums z^T psi(X).  The forecast path and the weights
are written as CSV by :mod:`kmeoc.store`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, PropagationError
from .estimator import EstimatedOperators
from .kernel import _scipy_linalg_getattr, cross_vector, gram  # noqa: F401

# gram, cho_factor and cho_solve are unused: the benchmark tracer patches
# them here, and this resolves the last two without importing
# scipy.linalg.  They go when the benchmark's probes follow the program's
# solves (ROADMAP item 2).
__getattr__ = _scipy_linalg_getattr(globals(), ("cho_factor", "cho_solve"))

__all__ = [
    "MeasureWeights",
    "embed_initial",
    "propagate",
    "observable_forecast",
    "forecast_observable_path",
]


@dataclass(frozen=True)
class MeasureWeights:
    """Coefficients of a measure over the training basis, at time step k."""

    z: np.ndarray
    step: int = 0

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float).ravel()
        if z.size == 0:
            raise InputError("weight vector is empty")
        object.__setattr__(self, "z", z)

    @property
    def mass(self) -> float:
        return float(self.z.sum())


def embed_initial(ops: EstimatedOperators, X0) -> MeasureWeights:
    """Embed the empirical measure of initial samples into basis weights.

    Solves (K_X + jitter I) z0 = K_X(., X0) 1/N0 over the training
    states, through :meth:`~kmeoc.estimator.EstimatedOperators.x_solve`
    (the thin factor of K_X plus one refinement step).  The 1/N0
    normalization makes z0 represent the empirical probability measure,
    so total mass starts at ~1.

    Raises
    ------
    InputError
        Empty X0, X0 of the wrong state dimension, or a non-finite X0.
    """
    X0 = np.asarray(X0, dtype=float)
    if X0.ndim == 1:
        X0 = X0[:, None]
    if X0.size == 0:
        raise InputError("X0 is empty")
    if X0.shape[0] != ops.dataset_ref.n_x:
        raise InputError(
            f"X0 dimension {X0.shape[0]} != state dimension "
            f"{ops.dataset_ref.n_x}"
        )
    if not np.all(np.isfinite(X0)):
        raise InputError("X0 has a non-finite entry")
    N0 = X0.shape[1]
    sigma = ops.kernel_cfg.sigma
    X = ops.dataset_ref.X
    rhs = np.zeros(X.shape[1])
    for j in range(N0):
        rhs += cross_vector(X0[:, j], X, sigma)
    rhs /= N0
    z0 = ops.x_solve(rhs)
    return MeasureWeights(z=z0, step=0)


def propagate(
    ops: EstimatedOperators, z: MeasureWeights, policy_at_X
) -> MeasureWeights:
    """One forward step of the weights under the given policy table.

    ``policy_at_X`` is the n_u x N table of controls at the training
    points (all zeros for the uncontrolled flow); a table of any other
    shape raises InputError.
    """
    pol = np.asarray(policy_at_X, dtype=float)
    if pol.shape != (ops.n_u, ops.N):
        raise InputError(
            f"policy table has shape {pol.shape}, the operators need "
            f"{(ops.n_u, ops.N)}"
        )
    if z.z.size != ops.N:
        raise InputError(
            f"weights have length {z.z.size}, operators have N = {ops.N}"
        )
    # Blow-ups surface as a typed PropagationError via the isfinite
    # check; suppress numpy's raw overflow warnings on the way there.
    with np.errstate(over="ignore", invalid="ignore"):
        out = ops.apply(z.z, pol)
    nxt = z.step + 1
    if not np.all(np.isfinite(out)):
        raise PropagationError(
            f"weights became non-finite at step {nxt}", step=nxt
        )
    return MeasureWeights(z=out, step=nxt)


def observable_forecast(z: MeasureWeights, psi_values) -> float:
    """Kernel-quadrature estimate z^T psi(X) of E[psi(X_t)]."""
    psi = np.asarray(psi_values, dtype=float).ravel()
    if psi.size != z.z.size:
        raise InputError(
            f"psi has length {psi.size}, weights have length {z.z.size}"
        )
    return float(z.z @ psi)


def forecast_observable_path(
    ops: EstimatedOperators,
    z0: MeasureWeights,
    policy_at_X,
    steps: int,
    psi_values,
) -> np.ndarray:
    """Forecasts [z_0^T psi, ..., z_steps^T psi] under a fixed policy.

    A negative ``steps``, or one whose forecast does not fit in memory,
    raises InputError.
    """
    if steps < 0:
        raise InputError(f"steps must be >= 0, got {steps}")
    try:
        out = np.empty(steps + 1)
    except (OverflowError, ValueError, MemoryError):
        raise InputError(
            f"steps = {steps}: the forecast does not fit in memory"
        ) from None
    z = z0
    out[0] = observable_forecast(z, psi_values)
    for _ in range(steps):
        z = propagate(ops, z, policy_at_X)
        out[z.step] = observable_forecast(z, psi_values)
    return out
