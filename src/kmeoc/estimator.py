"""Kernel ridge regression of the embedded transition operators.

Given snapshot data (X, U, Y), the uncontrolled and control-scaled
operators solve one shared linear system,

    (K_U + gamma I) A_hat   = eK_XY,
    (K_U + gamma I) B_hat_m = U_m * eK_XY,

where U_m scales row i of the cross Gram matrix by the m-th control
coordinate of sample i, and eK_XY is the diffused cross Gram matrix.
The cross Gram matrix comes factored, eK_XY = L_X R^T with R = pref L_Y
of rank r (see :func:`kmeoc.kernel.build_grams`), so each operator is
fitted as thin factors: A_hat = P R^T with (K_U + gamma I) P = L_X,
and B_hat_m = P_m R^T with (K_U + gamma I) P_m = U_m * L_X.  The fit
solves (1 + n_u) r right-hand sides instead of (1 + n_u) N, and
applying an operator costs O(N r) instead of O(N^2).

Every solve with a ridge goes through one solver.  The fit solves with
the control Gram (K_U + gamma I), and measure embedding, policy
interpolation and validation scoring solve with the state Gram
(K_X + jitter I), where jitter is the ridge the fit settled on.  Each
Gram is approximately W W^T for a thin W: the pivoted-Cholesky factor F
of K_X, and W = [F | u_1 * F | ...] for K_U.  The solver applies the
Woodbury identity through one Cholesky factor of the capacitance matrix
ridge I + W^T W, then takes one step of iterative refinement against
the exact Gram.  That step contracts the error by at most
rho = trace(G - W W^T) / ridge, so the result matches a dense solve to
within rho^2 plus rounding; a zero ridge or rho >= 1 fails.  A fit
costs O(N r^2) plus one pass over the N^2 kernel entries, and no model
holds an N x N array.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigvalsh

from .errors import (
    EstimationError,
    InputError,
    ScoringError,
    SelectionError,
)
from .kernel import (
    GramBundle,
    KernelConfig,
    _pivoted_cholesky,
    build_grams,
    control_gram_product,
    cross_gram_diffused,
    gram,
)
from .systems import Dataset

__all__ = [
    "LowRank",
    "EstimatedOperators",
    "ModelScore",
    "fit_krr",
    "enforce_markov",
    "departure_from_normality",
    "fit_residual",
    "validation_score",
    "model_select",
]

log = logging.getLogger(__name__)

_JITTER_CAP = 1e-4


@dataclass(frozen=True)
class LowRank:
    """The N x N operator ``left @ right.T + outer(ones(N), shift)``.

    The rank-1 term adds ``shift[j]`` to every entry of column j: the
    uniform column shift of the Markov projection.  ``M @ x`` and
    ``v @ M`` cost O(N r) and never form the N x N matrix; a numpy
    array on the left of ``@`` defers to :meth:`__rmatmul__`.

    Attributes
    ----------
    left, right : ndarray, shape (N, r)
    shift : ndarray, shape (N,)
    """

    left: np.ndarray
    right: np.ndarray
    shift: np.ndarray

    __array_ufunc__ = None  # make ``ndarray @ LowRank`` use __rmatmul__

    def __post_init__(self):
        # C order throughout, so a fitted and a reloaded operator feed
        # BLAS the same layout and give the same bits.
        for name in ("left", "right", "shift"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)

    @property
    def shape(self) -> Tuple[int, int]:
        N = self.left.shape[0]
        return (N, N)

    @property
    def rank(self) -> int:
        return self.left.shape[1]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """M x for x of shape (N,) or (N, k)."""
        return self.left @ (self.right.T @ x) + self.shift @ x

    def __rmatmul__(self, v: np.ndarray) -> np.ndarray:
        """v M, i.e. M^T v, for v of shape (N,) or (k, N)."""
        total = np.sum(v, axis=-1)[..., None]
        return (v @ self.left) @ self.right.T + total * self.shift

    def augmented(self) -> Tuple[np.ndarray, np.ndarray]:
        """([left 1], [right shift]): the operator as one product L R^T.

        The nonzero eigenvalues of the operator are those of the
        (r+1)-square core R^T L.
        """
        ones = np.ones(self.left.shape[0])
        return (
            np.column_stack([self.left, ones]),
            np.column_stack([self.right, self.shift]),
        )

    def dense(self) -> np.ndarray:
        """The N x N matrix, built anew and read-only."""
        out = self.left @ self.right.T
        out += self.shift
        out.flags.writeable = False
        return out


@dataclass(frozen=True, eq=False)
class _RidgeSolver:
    """Solves with (G + ridge I) for a Gram matrix G ~ W W^T.

    ``cap`` is ``cho_factor(ridge I + W^T W)``, and
    rho = trace(G - W W^T) / ridge bounds the contraction of the
    refinement step.  ``name`` ("K_U" or "K_X") and ``r_X``, the rank of
    K_X's factor inside W, are for messages.
    """

    name: str
    r_X: int
    W: np.ndarray
    cap: tuple
    ridge: float
    rho: float

    @classmethod
    def build(cls, name: str, r_X: int, W, ridge: float, gap: float):
        """Factor the capacitance matrix, given gap = trace(G - W W^T).

        Raises EstimationError if the ridge is 0 or rho >= 1: the
        refinement would not contract.
        """
        rho = gap / ridge if ridge > 0.0 else np.inf
        if not rho < 1.0:
            raise EstimationError(
                f"gamma = {ridge:.1e} is not above the low-rank gap "
                f"{gap:.1e} of {name} (rho = {rho:.1e}); increase gamma"
            )
        cap = W.T @ W
        cap[np.diag_indices_from(cap)] += ridge
        return cls(name, r_X, W, cho_factor(cap, overwrite_a=True), ridge, rho)

    def _woodbury(self, b: np.ndarray) -> np.ndarray:
        """(W W^T + ridge I)^{-1} b."""
        return (b - self.W @ cho_solve(self.cap, self.W.T @ b)) / self.ridge

    def solve(self, b: np.ndarray, apply_exact) -> np.ndarray:
        """(G + ridge I)^{-1} b: a Woodbury solve, then one refinement step
        against the exact G z = ``apply_exact(z)``."""
        z = self._woodbury(b)
        resid = b - apply_exact(z) - self.ridge * z
        b_norm = max(np.linalg.norm(b), np.finfo(float).tiny)
        log.debug(
            "solve with %s: r_X = %d, capacitance %d, rho = %.1e, "
            "relative residual before refinement %.1e",
            self.name, self.r_X, self.W.shape[1], self.rho,
            np.linalg.norm(resid) / b_norm,
        )
        z += self._woodbury(resid)
        return z


@dataclass
class EstimatedOperators:
    """Fitted operators, their training data and the state-Gram solver.

    Attributes
    ----------
    A : LowRank, shape (N, N)
        The uncontrolled operator; a dense array M becomes LowRank(M, I, 0).
    B : list of LowRank
        One control block per control coordinate.
    x_factor : _RidgeSolver or None
        The solver for (K_X + jitter I) from :meth:`x_gram_factor`, or
        None until it is built.  Never persisted.
    dataset_ref : Dataset
        The training data the fit was computed from.
    kernel_cfg : KernelConfig
    jitter : float
        The model's one ridge, for the fit and every state-Gram solve
        (equals ``kernel_cfg.gamma`` unless the fit had to escalate).
    """

    A: LowRank
    B: List[LowRank]
    x_factor: Optional[_RidgeSolver] = field(repr=False, compare=False)
    dataset_ref: Dataset
    kernel_cfg: KernelConfig
    jitter: float

    def __post_init__(self):
        # A hand-built dense N x N matrix M becomes LowRank(M, I, 0).
        if not all(isinstance(op, LowRank) for op in [self.A, *self.B]):
            eye, zero = np.eye(self.N), np.zeros(self.N)
            self.A, *self.B = [
                op if isinstance(op, LowRank) else LowRank(op, eye, zero)
                for op in [self.A, *self.B]
            ]

    @property
    def N(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return len(self.B)

    @property
    def A_hat(self) -> np.ndarray:
        """A as a read-only N x N array, built anew on each access."""
        return self.A.dense()

    @property
    def B_hat_blocks(self) -> List[np.ndarray]:
        """The B blocks as read-only N x N arrays, built on each access."""
        return [Bm.dense() for Bm in self.B]

    def apply(self, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        """(A + sum_m B_m diag(u_m)) z for weights z (N,) and controls u (n_u, N)."""
        out = self.A @ z
        for Bm, u_m in zip(self.B, u):
            out += Bm @ (u_m * z)
        return out

    def x_gram_factor(self) -> _RidgeSolver:
        """The solver for (K_X + jitter I), built on first use.

        Its W is the pivoted-Cholesky factor F (N, r_X) of K_X ~ F F^T,
        rebuilt from the training states alone, so a restored model gets
        the same bits.  trace(K_X - F F^T) is at most the gap of K_U,
        which the fit kept below ``jitter``.

        Raises
        ------
        EstimationError
            If jitter is 0 or rho >= 1: the refinement would not contract.
        """
        if self.x_factor is None:
            X, sigma = self.dataset_ref.X, self.kernel_cfg.sigma
            F, d = _pivoted_cholesky(X, sigma**2)
            gap = float(np.sum(np.maximum(d, 0.0)))
            self.x_factor = _RidgeSolver.build(
                "K_X", F.shape[1], np.ascontiguousarray(F), self.jitter, gap
            )
        return self.x_factor

    def x_solve(
        self, b: np.ndarray, K_X: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """(K_X + jitter I)^{-1} b for b of shape (N,) or (N, k).

        Through the solver of :meth:`x_gram_factor`, refined against the
        exact K_X, which is built by one :func:`gram` call unless given
        and dropped on return.
        """
        solver = self.x_gram_factor()
        if K_X is None:
            K_X = gram(self.dataset_ref.X, self.kernel_cfg.sigma)
        return solver.solve(b, lambda z: K_X @ z)

    def closed_loop(self, u: np.ndarray) -> LowRank:
        """A + sum_m B_m diag(u_m) for a control table u (n_u, N).

        A LowRank of rank (1 + n_u) r.
        """
        u = np.asarray(u, dtype=float).reshape(self.n_u, self.N)
        return LowRank(
            left=np.hstack([self.A.left] + [Bm.left for Bm in self.B]),
            right=np.hstack(
                [self.A.right]
                + [u_m[:, None] * Bm.right for Bm, u_m in zip(self.B, u)]
            ),
            shift=self.A.shift
            + sum(u_m * Bm.shift for Bm, u_m in zip(self.B, u)),
        )


@dataclass(frozen=True)
class ModelScore:
    """Per-sigma scores from model selection."""

    sigma: float
    validation_error: float
    departure_from_normality: float
    combined: float


def fit_krr(
    dataset: Dataset,
    cfg: KernelConfig,
    b_block_orientation: str = "row",
    grams: Optional[GramBundle] = None,
) -> EstimatedOperators:
    """Fit the transition operators by kernel ridge regression.

    Parameters
    ----------
    dataset : Dataset
    cfg : KernelConfig
    b_block_orientation : {"row", "column"}
        How the control coordinate scales the cross Gram matrix on the
        right-hand side of the B-blocks: "row" (default) scales sample
        rows, matching the algebra that makes the closed-loop operator
        consistent with the control Gram matrix, and so scales the left
        factor; "column" scales the columns, i.e. the right factor.

    The ridge escalates tenfold, with a warning, while it is below the
    rounding floor N eps max_i(1 + ||u_i||^2) of K_U or not above the
    gap trace(K_U - W W^T) that bounds the refinement's contraction.

    Raises
    ------
    EstimationError
        If gamma is 0, or the ridge would have to exceed 1e-4; the
        message names gamma and reports the smallest pivot, the smallest
        eigenvalue of W W^T (0 when W has fewer than N columns).
    """
    if dataset.N < 2:
        raise InputError(f"need at least 2 samples, got {dataset.N}")
    if b_block_orientation not in ("row", "column"):
        raise InputError(
            f"b_block_orientation must be 'row' or 'column', "
            f"got {b_block_orientation!r}"
        )
    if grams is None:
        bundle = build_grams(dataset.X, dataset.U, dataset.Y, cfg)
    elif grams.N != dataset.N:
        raise InputError(
            f"the Grams are for N = {grams.N}, the dataset has N = {dataset.N}"
        )
    else:
        bundle = grams
    N = bundle.N

    U = dataset.U
    W = np.hstack([bundle.F] + [u_m[:, None] * bundle.F for u_m in U])
    # Below this ridge, rounding in W^T W (of norm up to trace(K_U)) can
    # cost the capacitance matrix its definiteness.
    floor = N * np.finfo(float).eps * float(np.max(1.0 + np.sum(U * U, 0)))
    gap = bundle.gap_trace
    jitter = cfg.gamma
    while not (jitter >= floor and gap < jitter):
        # A literal zero ridge means the caller disabled regularization
        # on purpose; fail with advice instead of silently adding one.
        nxt = jitter * 10.0 if jitter > 0.0 else _JITTER_CAP * 10.0
        if nxt > _JITTER_CAP:
            # The smallest eigenvalue of W W^T; 0 when W has < N columns.
            eig = eigvalsh(W.T @ W)
            smallest = float(eig[-N]) if len(eig) >= N else 0.0
            raise EstimationError(
                f"the ridge {jitter:.1e} is not above the rounding floor "
                f"{floor:.1e} of K_U and the low-rank gap {gap:.1e} "
                f"(smallest pivot {smallest:.3e}); increase gamma",
                smallest_pivot=smallest,
            )
        warnings.warn(
            f"the ridge {jitter:.1e} is not above the rounding floor "
            f"{floor:.1e} of K_U and the low-rank gap {gap:.1e}; "
            f"escalating to {nxt:.1e}",
            stacklevel=2,
        )
        jitter = nxt
    solver = _RidgeSolver.build("K_U", bundle.F.shape[1], W, jitter, gap)

    L_X = bundle.L_X
    R = bundle.pref * bundle.L_Y
    zero = np.zeros(N)
    if b_block_orientation == "row":
        rhs = np.hstack([L_X] + [u_m[:, None] * L_X for u_m in U])
    else:
        rhs = L_X
    P = solver.solve(
        rhs, lambda Z: control_gram_product(dataset.X, U, cfg.sigma, Z)
    )
    if b_block_orientation == "row":
        P, *P_m = np.hsplit(P, 1 + dataset.n_u)
        B = [LowRank(left, R, zero) for left in P_m]
    else:
        B = [LowRank(P, u_m[:, None] * R, zero) for u_m in U]  # P shared

    return EstimatedOperators(
        A=LowRank(P, R, zero),
        B=B,
        x_factor=None,
        dataset_ref=dataset,
        kernel_cfg=cfg,
        jitter=jitter,
    )


def _shift_columns(op: LowRank, target: float) -> LowRank:
    """op plus the uniform column shift that makes every column sum ``target``."""
    N = op.shape[0]
    sums = np.ones(N) @ op
    return replace(op, shift=op.shift + (target - sums) / N)


def enforce_markov(ops: EstimatedOperators) -> EstimatedOperators:
    """Project the operators onto the Markov constraint set.

    Every column of A_hat is shifted uniformly so it sums to 1, and
    every column of each B-block so it sums to 0; this only updates
    each operator's rank-1 shift.  The input operators
    are left untouched; the returned copies share the training data,
    the factors and the retained factorizations.
    """
    return replace(
        ops,
        A=_shift_columns(ops.A, 1.0),
        B=[_shift_columns(Bm, 0.0) for Bm in ops.B],
    )


def _fro_norm(left: np.ndarray, right: np.ndarray) -> float:
    """||left @ right.T||_F from the two small Gram products.

    ||L R^T||_F^2 = sum((L^T L) * (R^T R)), so the N x N product is
    never formed.
    """
    fro2 = float(np.sum((left.T @ left) * (right.T @ right)))
    return float(np.sqrt(max(0.0, fro2)))


def departure_from_normality(A) -> float:
    """Henrici's normalized departure from normality.

    sqrt(max(0, ||A||_F^2 - sum_i |lambda_i|^2)) / ||A||_F, with the
    convention that the zero matrix departs by 0.  ``A`` is a LowRank or
    a square array.  For a LowRank A = L' R'^T (with L' = [left, 1] and
    R' = [right, shift]) the nonzero eigenvalues are those of the
    (r+1) x (r+1) core R'^T L', so the N x N matrix is never formed.
    """
    if isinstance(A, LowRank):
        left, right = A.augmented()
        fro = _fro_norm(left, right)
        core = right.T @ left
    else:
        core = np.asarray(A, dtype=float)
        if core.ndim != 2 or core.shape[0] != core.shape[1]:
            raise InputError(f"expected a square matrix, got shape {core.shape}")
        fro = float(np.linalg.norm(core, "fro"))
    if fro == 0.0:
        return 0.0
    try:
        eig = np.linalg.eigvals(core)
    except np.linalg.LinAlgError as exc:
        raise ScoringError(f"eigenvalue iteration failed: {exc}") from exc
    gap = max(0.0, fro**2 - float(np.sum(np.abs(eig) ** 2)))
    return float(np.sqrt(gap)) / fro


def fit_residual(ops: EstimatedOperators, bundle: GramBundle) -> float:
    """||(K_U + jitter I) A_hat - eK_XY||_F for operators fitted from bundle.

    A fitted A_hat = P R^T + 1 s^T shares R = pref L_Y with
    eK_XY = L_X R^T, so the residual is [reg(P) - L_X, reg(1)] [R, s]^T,
    reg = (K_U + jitter I), applied by
    :func:`~kmeoc.kernel.control_gram_product`: O(N^2 r), and no N x N
    array.  Raises InputError for operators whose right factor is not
    the bundle's R.
    """
    A = ops.A
    if not np.array_equal(A.right, bundle.pref * bundle.L_Y):
        raise InputError("the operators were not fitted from this GramBundle")
    ds = ops.dataset_ref
    Z = np.column_stack([A.left, np.ones(ops.N)])
    left = control_gram_product(ds.X, ds.U, ops.kernel_cfg.sigma, Z)
    left += ops.jitter * Z
    left[:, :-1] -= bundle.L_X
    return _fro_norm(left, np.column_stack([A.right, A.shift]))


def validation_score(ops: EstimatedOperators, holdout: Dataset) -> float:
    """Held-out one-step embedding residual, lower is better.

    For each holdout transition ((x, u), y) the fitted closed-loop
    operator is applied to the interpolation weights of x,

        c_pred = (A_hat + sum_m B_hat_m u_m) w(x),
        (K_X + jitter I) w(x) = k_X(x),

    and the predicted kernel section K_X c_pred is compared against the
    regression target eK(X, y) on the training points.  Returns the
    mean squared discrepancy over all (training point, holdout sample)
    pairs.  The weights come from :meth:`EstimatedOperators.x_solve`,
    whose refinement step reuses the one K_X built here.
    """
    if holdout.N == 0:
        raise InputError("holdout dataset is empty")
    if holdout.n_x != ops.dataset_ref.n_x or holdout.n_u != ops.dataset_ref.n_u:
        raise InputError("holdout dimensions do not match the training data")
    cfg = ops.kernel_cfg
    X = ops.dataset_ref.X
    # k(x_i_train, x_j_holdout): a zero-diffusion cross Gram matrix.
    zero_diff = replace(cfg, epsilon=0.0)
    K_xq = cross_gram_diffused(X, holdout.X, zero_diff)
    K_X = gram(X, cfg.sigma)
    W = ops.x_solve(K_xq, K_X)  # (N, M)
    C = ops.A @ W
    for Bm, u_m in zip(ops.B, holdout.U):
        C += Bm @ (W * u_m[None, :])
    predicted = K_X @ C
    target = cross_gram_diffused(X, holdout.Y, cfg)
    return float(np.mean((predicted - target) ** 2))


def _split_indices(N: int, val_fraction: float, seed: int):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E1EC7]))
    perm = rng.permutation(N)
    n_val = min(N - 2, max(1, int(round(val_fraction * N))))
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def _subset(ds: Dataset, idx: np.ndarray) -> Dataset:
    return Dataset(
        X=ds.X[:, idx],
        U=ds.U[:, idx],
        Y=None if ds.Y is None else ds.Y[:, idx],
        cost=ds.cost[idx],
        dt=ds.dt,
        epsilon=ds.epsilon,
        seed=ds.seed,
        system=ds.system,
    )


def _minmax(vals: np.ndarray) -> np.ndarray:
    lo, hi = float(np.min(vals)), float(np.max(vals))
    if hi - lo <= 0.0:
        return np.zeros_like(vals)
    return (vals - lo) / (hi - lo)


def model_select(
    dataset: Dataset,
    sigma_grid: Sequence[float],
    weights: Tuple[float, float] = (1.0, 0.1),
    val_fraction: float = 0.2,
    gamma: float = 1e-8,
    diffused_mode: str = "plus_2eps_dt",
) -> Tuple[float, List[ModelScore]]:
    """Pick the kernel scale minimizing a weighted two-part score.

    The dataset is split deterministically (by its own seed) into a
    training part and a ``val_fraction`` holdout.  For every sigma in
    the grid the operators are fitted on the training part and scored
    by the held-out embedding residual and by the departure from
    normality of A_hat.  Both score vectors are min-max normalized
    across the grid, combined with the given weights, and the argmin is
    returned; ties break toward the smaller sigma.

    Returns
    -------
    (best_sigma, scores)
        ``scores`` has one entry per grid point that fitted
        successfully, in ascending sigma order.

    Raises
    ------
    SelectionError
        If every fit fails.
    """
    if len(sigma_grid) == 0:
        raise InputError("sigma grid is empty")
    sigmas = sorted(float(s) for s in sigma_grid)
    train_idx, val_idx = _split_indices(dataset.N, val_fraction, dataset.seed)
    train, val = _subset(dataset, train_idx), _subset(dataset, val_idx)

    def _one(sig: float):
        cfg = KernelConfig(
            sigma=sig,
            epsilon=dataset.epsilon,
            dt=dataset.dt,
            gamma=gamma,
            diffused_mode=diffused_mode,
        )
        ops = fit_krr(train, cfg)
        return (
            sig,
            validation_score(ops, val),
            departure_from_normality(ops.A),
        )

    # One sigma after another: each fit already keeps every core busy
    # through BLAS, so a pool on top only makes them compete.
    results = []
    for sig in sigmas:
        try:
            results.append(_one(sig))
        except (EstimationError, LinAlgError) as exc:
            log.warning("fit failed for sigma=%g: %s", sig, exc)

    if not results:
        raise SelectionError("all candidate fits failed across the sigma grid")
    val_norm = _minmax(np.array([r[1] for r in results]))
    dep_norm = _minmax(np.array([r[2] for r in results]))
    w1, w2 = weights
    combined = w1 * val_norm + w2 * dep_norm

    scores = [
        ModelScore(
            sigma=r[0],
            validation_error=r[1],
            departure_from_normality=r[2],
            combined=float(c),
        )
        for r, c in zip(results, combined)
    ]
    best_i = 0
    for i in range(1, len(scores)):
        if scores[i].combined < scores[best_i].combined:
            best_i = i
    return scores[best_i].sigma, scores
