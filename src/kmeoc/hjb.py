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
steps with one of two kinds of free step: per point, forming v on all N
points and projecting it, or, under an unboxed penalty, in coordinates,
where the closed form makes y obey a quadratic recursion of its own
(:func:`_use_coordinates` chooses).  Both kinds share one finite check,
stop rule and freeze, and on the same operators agree to rounding.  The
stop rule compares consecutive policy rows on all N points; each block
first screens it on a few points, with a margin that bounds how far
rounding can move a row (:func:`_certified`), and forms the N-point
rows from the y_k only where the rule may fire.  So a coordinate step,
stop rule included, costs the same at any N.
Once the policy is frozen a step is linear in [y; 1], and every frozen
step, on either path, goes through that one linear map.  The value
and policy table is written as CSV by :mod:`kmeoc.store`.
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DivergenceError, InputError
from .estimator import EstimatedOperators
from .kernel import _scipy_linalg_getattr, cross_vector
from .systems import Box, ControlPenalty

# Unused: the benchmark tracer patches cho_solve here, and this resolves
# it without importing scipy.linalg.  It goes when the benchmark's probes
# follow the program's solves (ROADMAP item 2).
__getattr__ = _scipy_linalg_getattr(globals(), ("cho_solve",))

__all__ = [
    "ValueSolution",
    "fenchel_conjugate",
    "khjb_recursion",
    "policy_interpolate",
]

log = logging.getLogger(__name__)

#: Steps per block of the backward recursion, which is checked for
#: finiteness and the stop rule once per block, and rows per block when
#: building the coordinate path's quadratic maps.
_BLOCK_ROWS = 256

#: Training points, spread evenly over the sample, on which the
#: recursion screens the stop rule before forming policy rows on all N
#: points (:func:`_certified`).
_SCREEN_POINTS = 16


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

    A solution loaded from a file (:func:`kmeoc.store.load`) is the
    horizon-1 stationary form: ``coords = [y*; 0]``, where y* are the
    coordinates the stationary policy row was expanded from,
    ``converged_at = 0`` and that row as :attr:`frozen`.  It holds no
    factors or stage, so it gives its stationary policy row and no
    other row.

    Attributes
    ----------
    coords : ndarray, shape (H+1, D)
        Row k holds y_k; row H is the zero terminal condition.
    factors : list of ndarray, or None
        The right factors Z_j = [R_j s_j], shape (N, r_j + 1), of A and
        then of each B block; None in a loaded solution.
    stage : ndarray, shape (N,), or None
        Stage cost times dt at the training points; None in a loaded
        solution.
    penalty : ControlPenalty
        The penalty the recursion ran under; interpolated controls are
        clipped back to its box.
    dt : float
    converged_at : int or None
        Step index k at which the stationary stopping rule fired, or
        None if the policy kept changing through step 0.
    frozen : ndarray, shape (n_u, N), or None
        The policy row at :attr:`converged_at`, held at every step below.
    model_checksum : bytes or None
        The 8-byte payload checksum of the model file the operators were
        saved to or loaded from (:attr:`EstimatedOperators.checksum`).
        :mod:`kmeoc.store` writes it in place of the model, and
        ``kmeoc predict`` refuses a solution whose checksum is not its
        model's.  None for operators never saved or loaded.
    """

    coords: np.ndarray
    factors: Optional[list]
    stage: Optional[np.ndarray]
    penalty: ControlPenalty
    dt: float
    converged_at: Optional[int] = None
    frozen: Optional[np.ndarray] = None
    model_checksum: Optional[bytes] = None
    _interp_cache: dict = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def horizon(self) -> int:
        return self.coords.shape[0] - 1

    @property
    def N(self) -> int:
        return self.frozen.shape[1] if self.stage is None else self.stage.size

    @property
    def n_u(self) -> int:
        return self.penalty.n_u

    @property
    def box(self) -> Optional[Box]:
        return self.penalty.box

    @property
    def stationary_step(self) -> int:
        """The step whose policy row is the long-horizon law."""
        return self.converged_at if self.converged_at is not None else 0

    def _check_step(self, k: int, expand: bool = False) -> None:
        """Refuse a step outside [0, H), or a row a loaded solution lacks:
        any but its stationary policy row, which it holds unexpanded."""
        if self.factors is None and (expand or k != self.stationary_step):
            raise InputError(
                f"step {k}: a value solution loaded from a file holds only "
                "its stationary policy row; rerun kmeoc control to expand "
                "other rows"
            )
        if not 0 <= k < self.horizon:
            raise InputError(f"step {k} outside [0, {self.horizon})")

    def _row(self, k: int):
        """(v_k, u_k) expanded from y_{k+1}."""
        self._check_step(k, expand=True)
        held = self.converged_at is not None and k < self.converged_at
        lam = np.empty((self.n_u, self.N))
        return _expand(
            self.factors, _parts(self.factors), self.coords[k + 1],
            self.stage, self.penalty, self.dt, self.frozen if held else None,
            lam,
        )

    def value_row(self, k: int) -> np.ndarray:
        """v_k at the training points, shape (N,); k = H gives zeros."""
        if k == self.horizon and self.factors is not None:
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


def _fenchel_batch(
    lam: np.ndarray, penalty: ControlPenalty, dt: float, u=None
):
    """Conjugate values and minimizers for a batch of lambda columns.

    Given ``u`` (a frozen policy row), the objective r(u) * dt + lam^T u
    is evaluated at ``u`` in place of the minimizer.

    Parameters
    ----------
    lam : ndarray, shape (n_u, N)
    penalty : ControlPenalty
    dt : float
    u : ndarray, shape (n_u, N), optional

    Returns
    -------
    value : ndarray, shape (N,)
    minimizer : ndarray, shape (n_u, N)
    """
    w = penalty.weights[:, None]
    if u is None:
        u = _minimizer(lam, penalty, dt)
    value = np.sum(w * u**2 * dt + lam * u, axis=0)
    return value, u


def _minimizer(lam, penalty: ControlPenalty, dt: float, out=None):
    """The conjugate's minimizer: lam_m / (-2 w_m dt), clipped to the box.

    ``lam`` has its channels on the second-to-last axis; ``out`` may be
    ``lam`` itself.
    """
    u = np.divide(lam, -2.0 * penalty.weights[:, None] * dt, out=out)
    if penalty.box is not None:
        np.clip(u, penalty.box.lo[:, None], penalty.box.hi[:, None], out=u)
    return u


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


def _diverged(ops, sol: ValueSolution, P_bar, k: int) -> DivergenceError:
    """The error for a non-finite v_k, with the closed loop that led there.

    The closed loop A + sum_m B_m diag(u_m) under a policy row has the
    nonzero eigenvalues of the D-square block M_u of that row's
    :func:`_policy_map`.  The row read is the lowest at or above k whose
    M_u is finite, since a finite row can still overflow it; the radius
    is inf when no row's is.  The accrual column is not read.
    """
    radius = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(k, sol.horizon):
            u = sol.policy_row(j)
            M = _policy_map(
                P_bar, sol.factors, sol.stage, u, sol.penalty.weights, sol.dt
            )[:, :-1]
            if np.all(np.isfinite(M)):
                radius = float(np.max(np.abs(np.linalg.eigvals(M))))
                break
    u_max = float(np.max(np.abs(u)))
    U_max = float(np.max(np.abs(ops.dataset_ref.U)))
    return DivergenceError(
        f"value iterate became non-finite at step k={k}; under the policy "
        f"of step {j} the closed loop has spectral radius {radius:.6g} and "
        f"max |u| = {u_max:.4g} against max |U| = {U_max:.4g} in the "
        "training controls (try a different sigma)",
        step=k,
        spectral_radius=radius,
        max_control=u_max,
        max_training_control=U_max,
    )


def _use_coordinates(
    ops: EstimatedOperators, penalty: ControlPenalty, H: int
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
    d_val, u = _fenchel_batch(lam, penalty, dt, frozen)
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


def _policy_map(P_bar, Z, stage, u, w, dt):
    """[M_u | c_u], shape D x (D + 1): the step under a fixed policy u.

    Under a fixed policy row u (n_u, N) a step is linear in y,
    y_k = M_u y_{k+1} + c_u, with M_u = P_bar^T [Z_0 | u_1 * Z_1 | ...]
    and c_u = P_bar^T (stage + sum_m w_m u_m^2 dt).  M_u is also the
    transposed core of the closed loop A + sum_m B_m diag(u_m) =
    P_bar [Z_0 | u_1 * Z_1 | ...]^T, so the two share their nonzero
    eigenvalues.
    """
    held = [u_m[:, None] * Zm for u_m, Zm in zip(u, Z[1:])]
    accrued = stage + np.sum(w[:, None] * u**2 * dt, axis=0)
    return P_bar.T @ np.column_stack([Z[0], *held, accrued])


def _policy_rows(Y, Z, part, penalty, dt, out):
    """Policy rows u_k into out[:len(Y)], as :class:`ValueSolution` forms them.

    Row i of ``Y`` is y_{k+1} for the i-th step k of a block, counted
    from its lowest.  Each row is one GEMV per channel, lam_m = Z_m y_m,
    then the minimizer (:func:`_minimizer`), so it has the bits of
    :meth:`ValueSolution.policy_row` at its step.
    """
    lam = out[: len(Y)]
    for y, lam_k in zip(Y, lam):
        for m in range(1, len(Z)):
            np.dot(Z[m], y[part[m]], out=lam_k[m - 1])
    _minimizer(lam, penalty, dt, out=lam)


def _certified(Y, Z_S, part, penalty, dt, stop_tol) -> bool:
    """Whether the stop rule's full scan would reject every step of a block.

    Row i of ``Y`` is y_{k+1} for the i-th step k of the block, counted
    from its lowest, plus one row above the last step compared; ``Z_S``
    holds the rows of each Z_m at the screened points S.  On S the
    policy rows are u~ = fl(fl(Z_S y_m) / c), c = -2 w_m dt, against the
    full scan's u = fl(fl(Z_m y_m) / c) (:func:`_policy_rows`), where
    each entry is an evaluation, in some order, of the K = r_m + 1 term
    dot product d = sum_j y_j z_ij.  Any such evaluation lies within
    gamma_K a + K eta of d (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., section 3.1), with a = sum_j |y_j z_ij|, unit
    roundoff u = 2^-53, gamma_K = K u / (1 - K u) and eta = 2^-1074 for
    gradual underflow, so two evaluations differ by at most
    2 gamma_K a + 2 K eta; the division by c adds u |d^| / |c| + eta to
    each.  Hence |u~ - u| <= (2 gamma_{K+1} a + 3 K eta) / |c| + eta.
    Under a box both sides are then clipped to it, which is exact and
    moves no two values further apart, so the bound holds as it stands.
    The margin, from one more product on absolute values a^ = |Z_S| |y_m|
    (a <= (a^ + K eta) / (1 - gamma_K), folded into gamma_{K+2}), is
    twice that bound,

        b = 4 gamma_{K+2} a^ / |c| + 8 (K + 1) eta (1 + 1 / |c|),

    and the factor two covers the rounding of b itself.  Step k is
    certified "not stationary" when at some point i of S and channel m

        |u~_k,i - u~_{k+1},i| >= stop_tol + (b_k,i + b_{k+1},i + 4 u |.|),

    where the 4 u |.| term, four unit roundoffs of the left side, covers
    the rounding of the subtraction and of the sum on the right.  Then
    the full scan's rows differ there by at least stop_tol exactly, so
    by rounding's monotonicity its computed change is at least stop_tol
    too (or NaN), and it rejects step k as well, whatever order its GEMV
    sums in.  A non-finite side certifies nothing.
    """
    u, eta = 2.0**-53, 2.0**-1074
    box = penalty.box
    certified = np.zeros(Y.shape[0] - 1, dtype=bool)
    for m, Zs in enumerate(Z_S, start=1):
        c = -2.0 * penalty.weights[m - 1] * dt
        K = Zs.shape[1]
        Ym = Y[:, part[m]]
        screened = Ym @ Zs.T
        screened /= c
        if box is not None:
            np.clip(screened, box.lo[m - 1], box.hi[m - 1], out=screened)
        b = np.abs(Ym) @ np.abs(Zs.T)
        b *= 4.0 * (K + 2) * u / (1.0 - (K + 2) * u) / abs(c)
        b += 8.0 * (K + 1) * eta * (1.0 + 1.0 / abs(c))
        change = np.abs(screened[1:] - screened[:-1])
        bound = stop_tol + (b[:-1] + b[1:] + 4.0 * u * change)
        ok = (change >= bound) & np.isfinite(bound)
        certified |= ok.any(axis=1)
    return bool(certified.all())


def _recursion(P_bar, Z, stage, penalty, dt, H, stop_tol, coordinates):
    """Fill y_k = P_bar^T v_k for k = H, ..., 0, a block of steps at a time.

    A free step computes y_k from y_{k+1}.  Per point it expands v_k on
    all N points (:func:`_expand`) and projects y_k = P_bar^T v_k; in
    coordinates it is one GEMV on the pair products of [y_{k+1}; 1]
    (:func:`_coordinate_map`).  After each block the highest non-finite
    y_k, if any, is the divergence step, unless the stop rule fired above
    it: then the policy row there is frozen and the steps below are
    recomputed from y_k under it.  Under a frozen policy the step is
    linear in [y; 1] on either path, one GEMV by the frozen row's policy
    map (:func:`_policy_map`).

    The stop rule compares each policy row with the one above on all N
    points, and reads only the table of y_k, so it is the same on both
    paths.  A block first screens it on the ``_SCREEN_POINTS`` points S
    (:func:`_certified`); only a block with a non-finite y_k or a step
    the screen cannot certify forms its policy rows, and the lowest row
    of the block above, on all N points from the y_{k+1}
    (:func:`_policy_rows`), so the decision and the frozen row are those
    of a full scan of every block.

    Returns (coords, converged_at, frozen, diverged_at), the last None
    unless some y_k became non-finite.  A horizon whose table of y_k does
    not fit in memory raises InputError.
    """
    w = penalty.weights
    N, D = P_bar.shape
    part = _parts(Z)
    n_u = len(Z) - 1
    try:
        ys = np.empty((H + 1, D + 1))
    except (OverflowError, ValueError, MemoryError):
        raise InputError(
            f"H = {H} steps: the {H + 1} x {D + 1} table of coordinates "
            "does not fit in memory"
        ) from None
    ys[:, D] = 1.0
    ys[H, :D] = 0.0
    lam = np.empty((n_u, N))
    if coordinates:
        M, pair_a, pair_b = _coordinate_map(P_bar, Z, stage, w, dt)
    S = np.linspace(0, N - 1, min(N, _SCREEN_POINTS)).astype(int)
    Z_S = [Zm[S] for Zm in Z[1:]]
    # Scratch for the full scans, allocated on the first: fresh
    # block-sized temporaries would page-fault on every scanned block.
    us = change = None
    frozen: Optional[np.ndarray] = None
    converged_at: Optional[int] = None
    diverged_at: Optional[int] = None
    computed = checked = scanned = 0
    k_hi = H - 1
    while k_hi >= 0:
        k_lo = max(k_hi - _BLOCK_ROWS + 1, 0)
        n = k_hi - k_lo + 1
        for k in range(k_hi, k_lo - 1, -1):
            x = ys[k + 1]
            if frozen is not None:
                np.dot(M_frozen, x, out=ys[k, :D])
            elif coordinates:
                np.dot(M, x.take(pair_a) * x.take(pair_b), out=ys[k, :D])
            else:
                v, _ = _expand(Z, part, x[:D], stage, penalty, dt, None, lam)
                ys[k, :D] = v @ P_bar
        computed += n

        finite = np.isfinite(ys[k_lo : k_hi + 1, :D]).all(axis=1)
        bad = np.flatnonzero(~finite)
        k_bad = k_lo + int(bad[-1]) if bad.size else -1
        k_stop = -1
        if frozen is None and stop_tol > 0:
            checked += 1
            # Row k against row k + 1, for every k < H - 1 in the block,
            # from y_{k+1} for k = k_lo, ..., k_lo + rows.
            rows = min(n, H - 1 - k_lo)
            Y = ys[k_lo + 1 : k_lo + rows + 2]
            if bad.size or not _certified(Y, Z_S, part, penalty, dt, stop_tol):
                scanned += 1
                if us is None:
                    rows_max = min(H, _BLOCK_ROWS)
                    us = np.empty((rows_max + 1, n_u, N))
                    change = np.empty((rows_max, n_u, N))
                _policy_rows(Y, Z, part, penalty, dt, us)
                diff = np.subtract(
                    us[:rows], us[1 : rows + 1], out=change[:rows]
                )
                np.abs(diff, out=diff)
                still = np.flatnonzero(diff.max(axis=(1, 2)) < stop_tol)
                k_stop = k_lo + int(still[-1]) if still.size else -1
        if k_stop > k_bad:
            converged_at = k_stop
            frozen = us[k_stop - k_lo].copy()
            log.debug(
                "policy stationary at step %d (tol %.1e)", k_stop, stop_tol
            )
            M_frozen = _policy_map(P_bar, Z, stage, frozen, w, dt)
            k_hi = k_stop - 1
        elif k_bad >= 0:
            diverged_at = k_bad
            break
        else:
            k_hi = k_lo - 1
    # Steps k_lo, ..., H - 1 were each computed at least once.
    log.debug(
        "%d steps computed, %d recomputed after the stop rule",
        computed, computed - (H - k_lo),
    )
    log.debug(
        "stop rule: %d of %d blocks scanned on all %d points",
        scanned, checked, N,
    )
    return ys[:, :D], converged_at, frozen, diverged_at


def khjb_recursion(
    ops: EstimatedOperators,
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
    through the same factors.  On either path the stop rule is screened
    on a fixed set of a few training points, with a margin that bounds
    the rounding of the full N-point rows, so a block forms those rows
    only where the rule may fire (:func:`_certified`); the decision is
    the full scan's, and a coordinate step stays independent of N.
    Both kinds of step give the same rows up to rounding and fire the
    stop rule at the same step; below it every step, on either path, is
    one D x (D + 1) product with the frozen map.  Both raise
    :class:`DivergenceError` at the same step too,
    unless rounding is amplified in the steps just before a blow-up
    (s2 data seed 57: k = 4589 in coordinates, 4591 per point).  At
    debug level the ``kmeoc.hjb`` logger names the path with r, n_u and
    N, the steps computed and recomputed, the blocks whose stop rule was
    scanned on all N points, and the step at which the policy became
    stationary.

    Parameters
    ----------
    ops : EstimatedOperators
        Fitted transition operators.
    cost : array_like, length N
        Raw stage-cost values at the training points; the recursion
        applies the dt weighting itself.  (Dataset.cost stores the
        pre-weighted product, so divide by dt when feeding it here.)
        A non-finite entry raises InputError naming its index.
    penalty : ControlPenalty
    H : int
        Number of backward steps, an integer >= 1 whose (H + 1) x D
        table of coordinates fits in memory (else InputError).
    stop_tol : float
        Stationary stopping rule: once the sup-norm change of the
        feedback law between consecutive steps falls below this
        tolerance, the policy is frozen for the remaining steps while
        the values continue to accrue under it.  The comparison starts
        with the second computed row (the terminal row is always zero,
        so comparing anything against an implicit zero-filled "previous
        policy" would fire the rule immediately and vacuously).  Pass 0
        to disable; a negative or non-finite value raises InputError.

    Returns
    -------
    ValueSolution

    Raises
    ------
    DivergenceError
        If an iterate stops being finite.  The error carries the
        spectral radius of the closed loop under the lowest policy row
        whose policy map has a finite D-square block, read from that
        block (inf when no row's is), and that row's largest control
        against the training controls'.  This usually signals an
        unstable learned operator spectrum; picking a different kernel
        scale sigma is the usual remedy.
    """
    cost = np.asarray(cost, dtype=float).ravel()
    N = ops.N
    if cost.size != N:
        raise InputError(f"cost has length {cost.size}, expected N = {N}")
    bad = np.flatnonzero(~np.isfinite(cost))
    if bad.size:
        raise InputError(f"cost[{bad[0]}] = {cost[bad[0]]} is not finite")
    if not isinstance(H, (int, np.integer)) or H < 1:
        raise InputError(f"H must be an integer >= 1, got {H!r}")
    if not 0.0 <= stop_tol < np.inf:
        raise InputError(f"stop_tol must be finite and >= 0, got {stop_tol}")
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
        model_checksum=ops.checksum,
    )
    if diverged_at is not None:
        raise _diverged(ops, sol, P_bar, diverged_at)
    return sol


def _coefficients_for_step(
    sol: ValueSolution, ops: EstimatedOperators, k: int
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
    query, sol: ValueSolution, ops: EstimatedOperators, k: Optional[int] = None
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
        A single state (length n_x) or a batch of M >= 1 states as an
        ``n_x x M`` array, all finite (else ``InputError``).
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
    if q.ndim not in (1, 2):
        raise InputError(
            f"the query must be one state or an n_x x M array, got shape "
            f"{q.shape}"
        )
    single = q.ndim == 1
    Q = q[:, None] if single else q
    if Q.shape[0] != X.shape[0]:
        raise InputError(
            f"query dimension {Q.shape[0]} != state dimension {X.shape[0]}"
        )
    if Q.shape[1] == 0:
        raise InputError("the query holds no states")
    if not np.all(np.isfinite(Q)):
        raise InputError("the query has a non-finite entry")
    C = _coefficients_for_step(sol, ops, k)
    K_q = np.empty((Q.shape[1], ops.N))
    for j in range(Q.shape[1]):
        K_q[j] = cross_vector(Q[:, j], X, sigma)
    out = (K_q @ C).T  # (n_u, M)
    if sol.box is not None:
        out = np.clip(out, sol.box.lo[:, None], sol.box.hi[:, None])
    return out[:, 0] if single else out
