"""Fenchel conjugates, the backward value recursion, and feedback laws.

The recursion iterates, backwards from a zero terminal value,

    v_k = A_hat^T v_{k+1} + cost * dt + D(B_hat^T v_{k+1}),

where ``D`` is the (step-weighted) Fenchel conjugate of the control
penalty,

    D(lam) = min_{u in U} { r(u) * dt + lam^T u },

and the minimizer of that inner problem *is* the feedback law at the
matching training point and time step.  For diagonal quadratic
penalties with an optional box the minimizer has a closed form: clip
``-lam_m / (2 R_m dt)`` to the box (:func:`_fenchel_batch`).

Every operator is O_j = P_j R_j^T + 1 s_j^T, so O_j^T v = Z_j y_j with
Z_j = [R_j s_j] and y = [P_0 1 | ... | P_{n_u} 1]^T v
(:func:`_factor_layout`).  A value iterate enters the next step only
through its D = sum_j (r_j + 1) coordinates y, and
:class:`ValueSolution` keeps just those, expanding value and policy
rows on demand.  :func:`khjb_recursion` steps y backwards in blocks of
steps with one of two kinds of step: per point, forming v on all N
points and projecting it, or, under an unboxed penalty, in coordinates,
where the closed form makes y obey a quadratic recursion of its own
(:func:`_use_coordinates` chooses).  Both kinds share one finite check,
stop rule and freeze, and on the same operators agree to rounding.
"""

from __future__ import annotations

import csv
import logging
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np
# Unused: the benchmark tracer patches cho_solve here.  It goes when the
# benchmark's probes follow the program's solves (ROADMAP item 2).
from scipy.linalg import cho_solve  # noqa: F401

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

#: Steps per block of the backward recursion, which is checked for
#: finiteness and the stop rule once per block, and rows per block when
#: building the coordinate path's quadratic maps.
_BLOCK_ROWS = 256


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
    """The backward recursion held in the operators' rank-r coordinates.

    Every value iterate enters the next step only through
    y_k = P_bar^T v_k (:func:`_factor_layout`), so the solution keeps
    those D numbers per step and expands a value or policy row on demand:
    from y = y_{k+1}, a = Z_0 y_0 and lam_m = Z_m y_m give
    v_k = a + stage + D(lam) and the minimizer u_k (:func:`_fenchel_batch`),
    with the frozen policy row in place of the minimizer at steps below
    :attr:`converged_at`.  No H x N table is kept.

    Attributes
    ----------
    coords : ndarray, shape (H+1, D)
        Row k holds y_k; row H is the zero terminal condition.
    factors : list of ndarray
        The right factors Z_j = [R_j s_j], shape (N, r_j + 1), of A and
        then of each B block.
    stage : ndarray, shape (N,)
        Stage cost times dt at the training points.
    penalty : ControlPenalty
        The penalty the recursion ran under; interpolated controls are
        clipped back to its box.
    dt : float
    converged_at : int or None
        Step index k at which the stationary stopping rule fired, or
        None if the policy kept changing through step 0.
    frozen : ndarray, shape (n_u, N), or None
        The policy row at :attr:`converged_at`, held at every step below.
    """

    coords: np.ndarray
    factors: list
    stage: np.ndarray
    penalty: ControlPenalty
    dt: float
    converged_at: Optional[int] = None
    frozen: Optional[np.ndarray] = None
    _interp_cache: dict = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def horizon(self) -> int:
        return self.coords.shape[0] - 1

    @property
    def N(self) -> int:
        return self.stage.size

    @property
    def n_u(self) -> int:
        return len(self.factors) - 1

    @property
    def box(self) -> Optional[tuple]:
        return self.penalty.box

    @property
    def stationary_step(self) -> int:
        """The step whose policy row is the long-horizon law."""
        return self.converged_at if self.converged_at is not None else 0

    def _check_step(self, k: int) -> None:
        if not 0 <= k < self.horizon:
            raise InputError(f"step {k} outside [0, {self.horizon})")

    def _row(self, k: int):
        """(v_k, u_k) expanded from y_{k+1}."""
        self._check_step(k)
        held = self.converged_at is not None and k < self.converged_at
        lam = np.empty((self.n_u, self.N))
        return _expand(
            self.factors, _parts(self.factors), self.coords[k + 1],
            self.stage, self.penalty, self.dt, self.frozen if held else None,
            lam,
        )

    def value_row(self, k: int) -> np.ndarray:
        """v_k at the training points, shape (N,); k = H gives zeros."""
        if k == self.horizon:
            return np.zeros(self.N)
        return self._row(k)[0]

    def policy_row(self, k: int) -> np.ndarray:
        """The feedback law at step k < H, shape (n_u, N)."""
        self._check_step(k)
        if self.converged_at is not None and k <= self.converged_at:
            return self.frozen.copy()
        return self._row(k)[1]

    def stationary_policy(self) -> np.ndarray:
        """Policy row at :attr:`stationary_step`, shape (n_u, N)."""
        return self.policy_row(self.stationary_step)

    @property
    def values(self) -> np.ndarray:
        """All value rows, shape (H+1, N), built read-only on each access."""
        out = np.stack([self.value_row(k) for k in range(self.horizon + 1)])
        out.flags.writeable = False
        return out

    @property
    def policy(self) -> np.ndarray:
        """All policy rows, shape (H, n_u, N), built read-only on each access."""
        out = np.stack([self.policy_row(k) for k in range(self.horizon)])
        out.flags.writeable = False
        return out


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


def _diverged(ops, sol: ValueSolution, k: int) -> DivergenceError:
    """The error for a non-finite v_k, with the closed loop that led there.

    The closed loop is A + sum_m B_m diag(u_m) under the lowest policy
    row at or above k that is still finite; its nonzero eigenvalues are
    those of the ((1 + n_u) r + 1)-square core of its factors.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(k, sol.horizon):
            u = sol.policy_row(j)
            if np.all(np.isfinite(u)):
                break
    left, right = ops.closed_loop(u).augmented()
    radius = float(np.max(np.abs(np.linalg.eigvals(right.T @ left))))
    u_max = float(np.max(np.abs(u)))
    U_max = float(np.max(np.abs(ops.dataset_ref.U)))
    return DivergenceError(
        f"value iterate became non-finite at step k={k}; under the policy "
        f"of step {j} the closed loop has spectral radius {radius:.6g} and "
        f"max |u| = {u_max:.4g} against max |U| = {U_max:.4g} in the "
        "training controls (try enforce_markov or a different sigma)",
        step=k,
        spectral_radius=radius,
        max_control=u_max,
        max_training_control=U_max,
    )


def _use_coordinates(
    ops: "EstimatedOperators", penalty: ControlPenalty, H: int
) -> bool:
    """Whether the recursion runs in rank-r coordinates.

    Only an unboxed penalty qualifies: with a box the conjugate's
    minimizer is piecewise and the recursion in y does not close.  A
    coordinate step multiplies a D x F map by
    F = (r_0 + 1) + sum_m T(r_m + 1) + 1 pair products,
    D = sum_j (r_j + 1) and T(s) = s (s + 1) / 2, where a per-point
    step forms P_bar^T v, N * D multiply-adds.  Two bounds follow:

    * F < N, so that a coordinate step does no more multiply-adds than
      a per-point step.  The bound is conservative: the per-point step
      is mostly call overhead (45-65 us at N = 400-1000, one BLAS
      thread), so coordinates measured faster up to F of about 2-3 N
      (1.3 times at r = 45, N = 400, H = 2000), but the D x F map
      outgrows the cache beyond that and the coordinate step then
      loses without bound (10 times slower at r = 120, N = 400), while
      the per-point step grows only with N * D.
    * D * F <= H * N: building the map costs N * D * F multiply-adds,
      no more than H per-point steps of N multiply-adds each, which a
      short horizon would not repay: at r = 26, N = 1000 the
      coordinate path took 3.1 ms against 1.5 ms per point at H = 20,
      broke even near H = 50, and won 3.4 times at H = 500.

    s4 (r = 45, N = 400) fails the first bound; at its benchmark
    horizon H = 500 coordinates measured 20 ms against 23 ms per point.
    """
    if penalty.box is not None:
        return False
    D = sum(op.rank + 1 for op in [ops.A, *ops.B])
    F = ops.A.rank + 1 + sum(
        (Bm.rank + 1) * (Bm.rank + 2) // 2 for Bm in ops.B
    ) + 1
    return F < ops.N and D * F <= H * ops.N


def _factor_layout(ops):
    """P_bar = [P_0 1 | ... | P_{n_u} 1] and the Z_j = [R_j s_j]."""
    pairs = [op.augmented() for op in [ops.A, *ops.B]]
    return np.hstack([left for left, _ in pairs]), [Zj for _, Zj in pairs]


def _parts(Z):
    """The slices of y = P_bar^T v that hold each y_j."""
    ends = np.cumsum([Zj.shape[1] for Zj in Z])
    return [slice(e - Zj.shape[1], e) for e, Zj in zip(ends, Z)]


def _expand(Z, part, y, stage, penalty, dt, frozen, lam):
    """(v_k, u_k) from y = y_{k+1}; u_k is ``frozen`` when one is given.

    ``lam`` is scratch of shape (n_u, N) for lam_m = Z_m y_m.
    """
    a = Z[0] @ y[part[0]]
    for m in range(1, len(Z)):
        np.dot(Z[m], y[part[m]], out=lam[m - 1])
    if frozen is None:
        d_val, u = _fenchel_batch(lam, penalty, dt)
    else:
        u = frozen
        w = penalty.weights[:, None]
        d_val = np.sum(w * u**2 * dt + lam * u, axis=0)
    return a + stage + d_val, u


def _quadratic_map(P_bar: np.ndarray, Z: np.ndarray, scale: float):
    """Coefficients of ``scale * P_bar^T (Z y)**2`` on the products y_a y_b.

    (Z y)_i^2 = sum_{a <= b} c_ab z_ia z_ib y_a y_b with c_ab = 1 on the
    diagonal and 2 off it, so column (a, b) of the result, in
    ``np.triu_indices`` order, is ``scale * c_ab * P_bar^T (z_a * z_b)``.
    Built over blocks of rows, so no N x (r+1)(r+2)/2 array is formed.
    """
    ia, ib = np.triu_indices(Z.shape[1])
    Q = np.zeros((P_bar.shape[1], ia.size))
    for i in range(0, Z.shape[0], _BLOCK_ROWS):
        Zb = Z[i : i + _BLOCK_ROWS]
        Q += P_bar[i : i + _BLOCK_ROWS].T @ (Zb[:, ia] * Zb[:, ib])
    Q *= scale * np.where(ia == ib, 1.0, 2.0)
    return Q


def _coordinate_map(P_bar, Z, stage, w, dt):
    """(M, pair_a, pair_b): a free step is y_k = M (x[pair_a] * x[pair_b]).

    Under an unboxed quadratic penalty y obeys the closed recursion

        y_k = L y_{0,k+1} + c + sum_m Q_m vec(y_{m,k+1} y_{m,k+1}^T),

    L = P_bar^T Z_0, c = P_bar^T stage and
    Q_m = -P_bar^T (Z_m * Z_m) / (4 w_m dt).  With x = [y_{k+1}; 1] every
    term is a product of two entries of x: y_0 times the 1 (L), pairs
    a <= b within a y_m (Q_m), and 1 times 1 (c).
    """
    D = P_bar.shape[1]
    part = _parts(Z)
    first = np.arange(part[0].start, part[0].stop)
    pair_a, pair_b = [first], [np.full(first.size, D)]
    blocks = [P_bar.T @ Z[0]]
    for m in range(1, len(Z)):
        ia, ib = np.triu_indices(Z[m].shape[1])
        pair_a.append(part[m].start + ia)
        pair_b.append(part[m].start + ib)
        blocks.append(
            _quadratic_map(P_bar, Z[m], -1.0 / (4.0 * w[m - 1] * dt))
        )
    M = np.hstack(blocks + [(P_bar.T @ stage)[:, None]])
    return M, np.concatenate(pair_a + [[D]]), np.concatenate(pair_b + [[D]])


def _recursion(P_bar, Z, stage, penalty, dt, H, stop_tol, coordinates):
    """Fill y_k = P_bar^T v_k for k = H, ..., 0, a block of steps at a time.

    A step computes y_k from y_{k+1}.  Per point it expands v_k and u_k
    on all N points (:func:`_expand`) and projects y_k = P_bar^T v_k; in
    coordinates it is one GEMV on the pair products of [y_{k+1}; 1]
    (:func:`_coordinate_map`), and each free block then forms its policy
    rows u_k = -Z_m y_{m,k+1} / (2 w_m dt) by one GEMM per channel.
    After each block the highest non-finite y_k, if any, is the
    divergence step, unless the stop rule fired above it: then the policy
    row there is frozen and the steps below are recomputed from y_k under
    it (in coordinates its map is linear in [y; 1]).  Returns (coords,
    converged_at, frozen, diverged_at), the last None unless some y_k
    became non-finite.
    """
    w = penalty.weights
    N, D = P_bar.shape
    part = _parts(Z)
    n_u = len(Z) - 1
    if coordinates:
        M, pair_a, pair_b = _coordinate_map(P_bar, Z, stage, w, dt)
    else:
        lam = np.empty((n_u, N))

    ys = np.empty((H + 1, D + 1))
    ys[:, D] = 1.0
    ys[H, :D] = 0.0
    # Scratch for one block, allocated once: fresh block-sized
    # temporaries would page-fault on every block.  us holds the block's
    # policy rows and, after them, the lowest row of the block above.
    rows_max = min(H, _BLOCK_ROWS)
    us = np.empty((rows_max + 1, n_u, N))
    change = np.empty((rows_max, n_u, N))
    frozen: Optional[np.ndarray] = None
    converged_at: Optional[int] = None
    computed = 0
    k_hi = H - 1
    while k_hi >= 0:
        k_lo = max(k_hi - _BLOCK_ROWS + 1, 0)
        n = k_hi - k_lo + 1
        us[n] = us[0]
        for k in range(k_hi, k_lo - 1, -1):
            x = ys[k + 1]
            if not coordinates:
                v, u = _expand(Z, part, x[:D], stage, penalty, dt, frozen, lam)
                ys[k, :D] = v @ P_bar
                us[k - k_lo] = u
            elif frozen is None:
                np.dot(M, x.take(pair_a) * x.take(pair_b), out=ys[k, :D])
            else:
                np.dot(M_frozen, x, out=ys[k, :D])
        computed += n
        if coordinates and frozen is None:
            Y = ys[k_lo + 1 : k_hi + 2]
            for m in range(1, n_u + 1):
                u = np.matmul(Y[:, part[m]], Z[m].T, out=us[:n, m - 1])
                u /= -2.0 * w[m - 1] * dt

        finite = np.isfinite(ys[k_lo : k_hi + 1, :D]).all(axis=1)
        bad = np.flatnonzero(~finite)
        k_bad = k_lo + int(bad[-1]) if bad.size else -1
        k_stop = -1
        if frozen is None and stop_tol > 0:
            # Row k against row k + 1, for every k < H - 1 in the block.
            rows = min(n, H - 1 - k_lo)
            diff = np.subtract(us[:rows], us[1 : rows + 1], out=change[:rows])
            np.abs(diff, out=diff)
            still = np.flatnonzero(diff.max(axis=(1, 2)) < stop_tol)
            k_stop = k_lo + int(still[-1]) if still.size else -1
        if k_stop > k_bad:
            converged_at = k_stop
            frozen = us[k_stop - k_lo].copy()
            log.debug(
                "policy stationary at step %d (tol %.1e)", k_stop, stop_tol
            )
            if coordinates:
                # y_k = sum_j P_bar^T (u_j * Z_j) y_{j,k+1} + c' with
                # u_0 = 1 and c' = P_bar^T (stage + sum_m w_m u_m^2 dt).
                held = [Z[0]] + [
                    frozen[m - 1][:, None] * Z[m] for m in range(1, n_u + 1)
                ]
                accrued = np.sum(w[:, None] * frozen**2 * dt, axis=0)
                M_frozen = P_bar.T @ np.column_stack(held + [stage + accrued])
            k_hi = k_stop - 1
        elif k_bad >= 0:
            return ys[:, :D], converged_at, frozen, k_bad
        else:
            k_hi = k_lo - 1
    log.debug(
        "%d steps computed, %d recomputed after the stop rule",
        computed, computed - H,
    )
    return ys[:, :D], converged_at, frozen, None


def khjb_recursion(
    ops: "EstimatedOperators",
    cost,
    penalty: ControlPenalty,
    H: int,
    stop_tol: float = 1e-6,
) -> ValueSolution:
    """Run the backward value recursion over ``H`` steps.

    The solution keeps only the coordinates y_k (:class:`ValueSolution`),
    computed a block of steps at a time (:func:`_recursion`).  A step
    runs in the operators' rank-r coordinates, O(D r^2) and independent
    of N, under an unboxed penalty when the rank is low enough for N and
    the horizon long enough to repay building the coordinate maps
    (:func:`_use_coordinates`); otherwise it runs per point, O(N r)
    through the same factors.  Both kinds of step give the same rows up
    to rounding and fire the stop rule at the same step.  They raise
    :class:`DivergenceError` at the same step too, unless rounding is
    amplified in the steps just before a blow-up (s2 data seed 57:
    k = 4589 in coordinates, 4591 per point).  At debug level the
    ``kmeoc.hjb`` logger names the path with r, n_u and N, the steps
    computed and recomputed, and the step at which the policy became
    stationary.

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
        feedback law between consecutive steps falls below this
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
        If an iterate stops being finite.  The error carries the
        spectral radius of the closed loop under the last finite policy
        row and that row's largest control against the training
        controls'.  This usually signals an unstable learned operator
        spectrum; enforcing the Markov constraints (``enforce_markov``)
        or picking a different kernel scale sigma are the usual
        remedies.
    """
    cost = np.asarray(cost, dtype=float).ravel()
    N = ops.N
    if cost.size != N:
        raise InputError(f"cost has length {cost.size}, expected N = {N}")
    if H < 1:
        raise InputError(f"H must be >= 1, got {H}")
    n_u = ops.n_u
    if penalty.n_u != n_u:
        raise InputError(
            f"penalty has n_u = {penalty.n_u}, operators have n_u = {n_u}"
        )

    dt = ops.kernel_cfg.dt
    stage = cost * dt
    P_bar, Z = _factor_layout(ops)
    coordinates = _use_coordinates(ops, penalty, H)
    log.debug(
        "backward recursion on the %s path: r = %d, n_u = %d, N = %d",
        "coordinate" if coordinates else "per-point",
        ops.A.rank, n_u, N,
    )
    # Divergence is detected via the isfinite check and raised as a
    # typed error; keep numpy's own overflow chatter out of it.
    with np.errstate(over="ignore", invalid="ignore"):
        coords, converged_at, frozen, diverged_at = _recursion(
            P_bar, Z, stage, penalty, dt, H, stop_tol, coordinates
        )
    sol = ValueSolution(
        coords=coords,
        factors=Z,
        stage=stage,
        penalty=penalty,
        dt=dt,
        converged_at=converged_at,
        frozen=frozen,
    )
    if diverged_at is not None:
        raise _diverged(ops, sol, diverged_at)
    return sol


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
    """(K_X + jitter I)^{-1} @ policy-row-k, cached per step together with
    a weak reference to the operators it was solved for."""
    cached = sol._interp_cache.get(k)
    if cached is None or cached[0]() is not ops:
        C = ops.x_solve(sol.policy_row(k).T)  # (N, n_u)
        cached = (weakref.ref(ops), C)
        sol._interp_cache[k] = cached
    return cached[1]


def policy_interpolate(
    query, sol: ValueSolution, ops: "EstimatedOperators", k: Optional[int] = None
) -> np.ndarray:
    """Evaluate the learned feedback law off the training points.

    The policy row at step ``k`` is interpolated in the kernel
    basis over the training states: the returned control is
    ``k_xX (K_X + jitter I)^{-1} u_k``, clipped to the control box when
    one is configured.  The solve with (K_X + jitter I), through the thin
    factor of K_X plus one refinement step
    (:meth:`~kmeoc.estimator.EstimatedOperators.x_solve`), is performed
    once per step and set of operators, and cached.

    Parameters
    ----------
    query : array_like
        A single state (length n_x) or a batch of M states as an
        ``n_x x M`` array.
    sol, ops :
        The recursion output and the operators it was computed from;
        an ``InputError`` is raised when their N differ.
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
    if sol.N != ops.N:
        raise InputError(
            f"the solution has {sol.N} training points, "
            f"the operators N = {ops.N}"
        )
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
    n_u = sol.n_u
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
            v, u = sol.value_row(k), sol.policy_row(k)
            for i in range(X.shape[1]):
                row = [k, f"{t:.17g}", i]
                row += [f"{X[d, i]:.17g}" for d in range(n_x)]
                row += [f"{v[i]:.17g}"]
                row += [f"{u[m, i]:.17g}" for m in range(n_u)]
                wr.writerow(row)
