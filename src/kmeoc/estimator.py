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
the control Gram (K_U + gamma I), and measure embedding and policy
interpolation solve with the state Gram (K_X + jitter I), where jitter
is the ridge the fit settled on.  Each Gram is approximately W W^T for
a thin W: the pivoted-Cholesky factor F of K_X, and
W = [F | u_1 * F | ...] for K_U.  The solver applies the Woodbury
identity through one Cholesky factor of the capacitance matrix
ridge I + W^T W, then takes one step of iterative refinement against
the exact Gram.  That step contracts the error by at most
rho = trace(G - W W^T) / ridge, so the result matches a dense solve to
within rho^2 plus rounding; a zero ridge or rho >= 1 fails, and the fit
raises its ridge until rho <= 0.1.  A fit costs O(N r^2) plus one pass
over the N^2 kernel entries, and no model holds an N x N array.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from .errors import EstimationError, InputError, ScoringError
from .kernel import (
    GramBundle,
    KernelConfig,
    _pivoted_cholesky,
    _scipy_linalg_getattr,
    build_grams,
    control_gram_product,
    gram,
)
from .systems import Dataset

__all__ = [
    "LowRank",
    "EstimatedOperators",
    "fit_krr",
    "enforce_markov",
    "departure_from_normality",
    "fit_residual",
]

log = logging.getLogger(__name__)

_JITTER_CAP = 1e-4
_RHO_MAX = 0.1  # largest gap / ridge a fit settles on

__getattr__ = _scipy_linalg_getattr(globals(), ("cho_factor", "cho_solve"))


def _linalg(name: str):
    """The function bound to ``name`` here, which a caller may have
    patched; scipy.linalg's own on first use."""
    return globals().get(name) or __getattr__(name)


@dataclass(frozen=True)
class LowRank:
    """The N x N operator ``left @ right.T + outer(ones(N), shift)``.

    The rank-1 term adds ``shift[j]`` to every entry of column j: the
    uniform column shift of the Markov projection.  ``M @ x`` costs
    O(N r) and never forms the N x N matrix; products from the left go
    through the factors (:meth:`augmented`).

    Attributes
    ----------
    left, right : ndarray, shape (N, r)
    shift : ndarray, shape (N,)
    """

    left: np.ndarray
    right: np.ndarray
    shift: np.ndarray

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
        cap = _linalg("cho_factor")(cap, overwrite_a=True)
        return cls(name, r_X, W, cap, ridge, rho)

    def _woodbury(self, b: np.ndarray) -> np.ndarray:
        """(W W^T + ridge I)^{-1} b."""
        y = _linalg("cho_solve")(self.cap, self.W.T @ b)
        return (b - self.W @ y) / self.ridge

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
    checksum : bytes or None
        The 8-byte payload checksum of the model file these operators
        were last saved to or loaded from (:mod:`kmeoc.store`), which a
        value solution computed from them records; None before either,
        and in every copy made with :func:`dataclasses.replace`.
    """

    A: LowRank
    B: List[LowRank]
    x_factor: Optional[_RidgeSolver] = field(repr=False, compare=False)
    dataset_ref: Dataset
    kernel_cfg: KernelConfig
    jitter: float
    checksum: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )

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

    def x_solve(self, b: np.ndarray) -> np.ndarray:
        """(K_X + jitter I)^{-1} b for b of shape (N,) or (N, k).

        Through the solver of :meth:`x_gram_factor`, refined against the
        exact K_X, which is built by one :func:`gram` call and dropped on
        return.
        """
        solver = self.x_gram_factor()
        K_X = gram(self.dataset_ref.X, self.kernel_cfg.sigma)
        return solver.solve(b, lambda z: K_X @ z)


def fit_krr(
    dataset: Dataset,
    cfg: KernelConfig,
    b_block_orientation: str = "row",
    grams: Optional[GramBundle] = None,
) -> EstimatedOperators:
    """Fit the transition operators by kernel ridge regression.

    Each control block scales the sample rows of the cross Gram matrix
    by its control coordinate: B_m = P_m R^T with
    (K_U + jitter I) P_m = u_m * L_X, the algebra that makes the
    closed-loop operator consistent with the control Gram matrix.

    Parameters
    ----------
    dataset : Dataset
    cfg : KernelConfig
    b_block_orientation : {"row"}
        The only value left; any other raises InputError.

    The ridge escalates tenfold, with a warning, while it is below the
    rounding floor N eps max_i(1 + ||u_i||^2) of K_U or while
    rho = gap / ridge, with gap = trace(K_U - W W^T), exceeds 0.1, so
    the one refinement step leaves at most rho^2 <= 0.01 of the error.

    Raises
    ------
    EstimationError
        If gamma is 0, or the ridge would have to exceed 1e-4; the
        message names gamma and reports the smallest pivot, the smallest
        eigenvalue of W W^T (0 when W has fewer than N columns).
    """
    if dataset.N < 2:
        raise InputError(f"need at least 2 samples, got {dataset.N}")
    if b_block_orientation != "row":
        raise InputError(
            f"b_block_orientation {b_block_orientation!r} is not supported; "
            'only "row" remains'
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
    while not (jitter >= floor and gap / jitter <= _RHO_MAX):
        # A literal zero ridge means the caller disabled regularization
        # on purpose; fail with advice instead of silently adding one.
        nxt = jitter * 10.0 if jitter > 0.0 else _JITTER_CAP * 10.0
        if nxt > _JITTER_CAP:
            # The smallest eigenvalue of W W^T; 0 when W has < N columns.
            eig = np.linalg.eigvalsh(W.T @ W)
            smallest = float(eig[-N]) if len(eig) >= N else 0.0
            raise EstimationError(
                f"the ridge {jitter:.1e} is not above the rounding floor "
                f"{floor:.1e} of K_U and ten times its low-rank gap "
                f"{gap:.1e} (smallest pivot {smallest:.3e}); increase gamma",
                smallest_pivot=smallest,
            )
        warnings.warn(
            f"the ridge {jitter:.1e} is not above the rounding floor "
            f"{floor:.1e} of K_U and ten times its low-rank gap {gap:.1e}; "
            f"escalating to {nxt:.1e}",
            stacklevel=2,
        )
        jitter = nxt
    solver = _RidgeSolver.build("K_U", bundle.F.shape[1], W, jitter, gap)

    L_X = bundle.L_X
    R = bundle.pref * bundle.L_Y
    zero = np.zeros(N)
    rhs = np.hstack([L_X] + [u_m[:, None] * L_X for u_m in U])
    P = solver.solve(
        rhs, lambda Z: control_gram_product(dataset.X, U, cfg.sigma, Z)
    )
    P, *P_m = np.hsplit(P, 1 + dataset.n_u)
    return EstimatedOperators(
        A=LowRank(P, R, zero),
        B=[LowRank(left, R, zero) for left in P_m],
        x_factor=None,
        dataset_ref=dataset,
        kernel_cfg=cfg,
        jitter=jitter,
    )


def _shift_columns(op: LowRank, target: float) -> LowRank:
    """op plus the uniform column shift that makes every column sum ``target``."""
    N = op.shape[0]
    sums = (np.ones(N) @ op.left) @ op.right.T + N * op.shift
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


def departure_from_normality(A: LowRank) -> float:
    """Henrici's normalized departure from normality of a LowRank.

    sqrt(max(0, ||A||_F^2 - sum_i |lambda_i|^2)) / ||A||_F, with the
    convention that the zero matrix departs by 0.  For A = L' R'^T (with
    L' = [left, 1] and R' = [right, shift]) the nonzero eigenvalues are
    those of the (r+1) x (r+1) core R'^T L', so the N x N matrix is never
    formed.  Anything but a LowRank raises InputError.
    """
    if not isinstance(A, LowRank):
        raise InputError(
            f"expected a LowRank operator, got {type(A).__name__}"
        )
    left, right = A.augmented()
    fro = _fro_norm(left, right)
    core = right.T @ left
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
