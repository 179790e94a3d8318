"""Gaussian RBF kernels and Gram-matrix construction.

All state containers in this package use the column convention: an
``n_x x N`` array holds ``N`` states of dimension ``n_x``, one per
column.  The kernel is

    k(x, y) = exp(-||x - y||^2 / sigma^2),

note the plain ``sigma**2`` denominator (no factor of 2).  The diffused
variant, (sigma^2/den)^(n_x/2) * exp(-||x - y||^2/den), additionally
smooths one argument by the Gaussian increment of an Euler-Maruyama
step: ``den`` enlarges sigma^2 and the prefactor normalizes; two
conventions for the enlargement are supported, see :class:`KernelConfig`.

A fit forms no N x N array.  :func:`build_grams` returns the diffused
cross-Gram as ``pref * L_X @ L_Y.T``, thin factors from a pivoted
Cholesky of the diffused kernel on the joint points ``[X Y]``, and the
state Gram as a pivoted-Cholesky factor ``F`` with K_X ~ F F^T, so the
control Gram K_U = K_X * (1 + U^T U) is approximately W W^T with
W = [F | u_1 * F | ...].  No function builds the exact K_U: it is only
ever applied, a block of rows at a time, by
:func:`control_gram_product`.  Solves with the
state Gram (K_X + jitter I) go through the same F
(:meth:`kmeoc.estimator.EstimatedOperators.x_solve`); :func:`gram`
builds the whole K_X only for one such solve's refinement step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "DIFFUSED_MODES",
    "KernelConfig",
    "GramBundle",
    "gram",
    "control_gram_product",
    "cross_vector",
    "build_grams",
    "right_factor",
    "CHOLESKY_TOL",
]

#: Supported smoothing conventions for the diffused kernel.  The name
#: records the term added to sigma^2 in the exponent denominator:
#:
#: ``plus_2eps_dt``
#:     denominator sigma^2 + 2*eps*dt (default closed form).
#: ``plus_4eps_dt``
#:     denominator sigma^2 + 4*eps*dt; this is the exact Gaussian
#:     expectation E_w[k(x, y + sqrt(2*eps*dt)*w)], w ~ N(0, I).
DIFFUSED_MODES = ("plus_2eps_dt", "plus_4eps_dt")

#: The pivoted Cholesky of the diffused kernel stops once no residual
#: diagonal entry exceeds this.  The residual is positive semidefinite,
#: so every entry of the factored cross-Gram is then within
#: ``pref * CHOLESKY_TOL`` of the exact one (plus rounding).
CHOLESKY_TOL = 1e-14

#: Rows of a kernel matrix built per block: the block's squared distances
#: stay in cache while each coordinate is added to them.
_BLOCK_ROWS = 64

#: Rows of K_X that :func:`control_gram_product` holds at a time.
_PRODUCT_ROWS = 256

#: Side of the square tiles :func:`gram` evaluates above its diagonal.
_GRAM_TILE = 128


def _scipy_linalg_getattr(namespace: dict, names):
    """A module ``__getattr__`` (PEP 562) for the scipy.linalg ``names``.

    scipy.linalg takes longer to import than the rest of the package,
    and only a factorization needs it, so it loads on the first access
    to one of ``names``.  The function is bound in ``namespace``, the
    module's globals, unless a name is bound there already.
    """

    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        import scipy.linalg

        return namespace.setdefault(name, getattr(scipy.linalg, name))

    return __getattr__


@dataclass(frozen=True)
class KernelConfig:
    """Kernel and regression hyperparameters.

    Parameters
    ----------
    sigma : float
        RBF length scale, finite and > 0.
    epsilon : float
        Diffusion parameter, finite and >= 0.  Enters only the diffused
        kernel.
    dt : float
        Sampling time of the snapshot data, finite and > 0.
    gamma : float
        Tikhonov regularization, finite and >= 0.
    diffused_mode : str
        One of :data:`DIFFUSED_MODES`.
    """

    sigma: float
    epsilon: float = 0.02
    dt: float = 1e-2
    gamma: float = 1e-8
    diffused_mode: str = "plus_2eps_dt"

    def __post_init__(self):
        for name in ("sigma", "dt"):
            if not 0 < getattr(self, name) < np.inf:
                raise InputError(
                    f"{name} must be finite and > 0, got {getattr(self, name)}"
                )
        for name in ("epsilon", "gamma"):
            if not 0 <= getattr(self, name) < np.inf:
                raise InputError(
                    f"{name} must be finite and >= 0, got {getattr(self, name)}"
                )
        if self.diffused_mode not in DIFFUSED_MODES:
            raise InputError(
                f"diffused_mode must be one of {DIFFUSED_MODES}, "
                f"got {self.diffused_mode!r}"
            )

    @property
    def diffused_denominator(self) -> float:
        """sigma^2 plus the mode-dependent smoothing term."""
        bump = 2.0 if self.diffused_mode == "plus_2eps_dt" else 4.0
        return self.sigma**2 + bump * self.epsilon * self.dt


@dataclass(frozen=True)
class GramBundle:
    """The thin kernel factors a fit needs, built in one pass.

    ``F`` (N, r_X) factors the state Gram, K_X ~ F F^T, and ``gap_trace``
    is trace(K_U - W W^T) for W = [F | u_1 * F | ...].  That gap,
    (K_X - F F^T) * (1 + U^T U), is positive semidefinite, so its trace
    bounds its spectral norm.  The diffused cross-Gram is kept as
    ``pref * L_X @ L_Y.T`` with ``L_X`` and ``L_Y`` of shape (N, r).
    """

    F: np.ndarray
    gap_trace: float
    L_X: np.ndarray
    L_Y: np.ndarray
    pref: float


def _as_states(X, name: str) -> np.ndarray:
    """Coerce to a 2-D float array of column states."""
    A = np.asarray(X, dtype=float)
    if A.ndim == 1:
        A = A[None, :]
    if A.ndim != 2 or A.size == 0:
        raise InputError(f"{name} must be a non-empty n_x x N array")
    return A


def _exp_sq_dists(
    X: np.ndarray, Y: np.ndarray, den: float, out=None
) -> np.ndarray:
    """exp(-||x_i - y_j||^2 / den) for the columns of X and Y.

    The squared distance is summed one coordinate at a time, in the
    order ``scipy.spatial.distance.cdist(..., "sqeuclidean")`` uses, so
    the result is bit-identical to exponentiating cdist's output; and
    since (x - y)^2 == (y - x)^2 exactly, a Gram matrix comes out
    symmetric.  ``out``, of shape (X columns, Y columns), may be a view
    of a larger array; each block's differences go through one scratch
    block, so no other temporary is formed.
    """
    if out is None:
        out = np.empty((X.shape[1], Y.shape[1]))
    scratch = np.empty((min(X.shape[1], _BLOCK_ROWS), Y.shape[1]))
    for i in range(0, X.shape[1], _BLOCK_ROWS):
        block = out[i : i + _BLOCK_ROWS]
        diff = scratch[: block.shape[0]]
        for d in range(X.shape[0]):
            sq = block if d == 0 else diff
            np.subtract(X[d, i : i + _BLOCK_ROWS, None], Y[d], out=sq)
            np.multiply(sq, sq, out=sq)
            if d:
                block += diff
        np.divide(block, -den, out=block)
        np.exp(block, out=block)
    return out


def gram(X, sigma: float) -> np.ndarray:
    """Pairwise RBF Gram matrix of the columns of ``X``.

    Symmetric by construction; the diagonal is exactly 1.  Only the
    tiles on and above the diagonal are evaluated; each one above is
    copied, transposed, below it, which gives the same bits since
    (x - y)^2 == (y - x)^2 exactly.
    """
    X = _as_states(X, "X")
    if not sigma > 0:
        raise InputError(f"sigma must be > 0, got {sigma}")
    N = X.shape[1]
    K = np.empty((N, N))
    for i in range(0, N, _GRAM_TILE):
        rows = slice(i, i + _GRAM_TILE)
        _exp_sq_dists(X[:, rows], X[:, i:], sigma**2, out=K[rows, i:])
        for j in range(i + _GRAM_TILE, N, _GRAM_TILE):
            cols = slice(j, j + _GRAM_TILE)
            K[cols, rows] = K[rows, cols].T
    np.fill_diagonal(K, 1.0)
    return K


def control_gram_product(X, U, sigma: float, Z: np.ndarray) -> np.ndarray:
    """K_U @ Z for Z of shape (N, k), without forming K_U.

    K_U = K_X * (1 + U^T U) entrywise, with K_X = gram(X, sigma), so
    K_U Z = K_X Z + sum_m u_m * (K_X (u_m * Z)).  K_X is built
    :data:`_PRODUCT_ROWS` rows at a time, into one reused strip, and
    multiplied into [Z | u_1 * Z | ...] in one product, so a call
    evaluates each of the N^2 kernel entries once and holds no N x N
    array.
    """
    X = _as_states(X, "X")
    U = _as_states(U, "U")
    Z = np.asarray(Z, dtype=float)
    N = X.shape[1]
    if U.shape[1] != N or Z.ndim != 2 or Z.shape[0] != N:
        raise InputError(
            f"shape mismatch: X with {N} columns, U {U.shape}, Z {Z.shape}"
        )
    k = Z.shape[1]
    stacked = np.hstack([Z] + [u_m[:, None] * Z for u_m in U])
    out = np.empty_like(Z)
    strip = np.empty((min(N, _PRODUCT_ROWS), N))
    for i in range(0, N, _PRODUCT_ROWS):
        rows = slice(i, i + _PRODUCT_ROWS)
        block = out[rows]
        K = _exp_sq_dists(X[:, rows], X, sigma**2, out=strip[: len(block)])
        KZ = K @ stacked
        block[:] = KZ[:, :k]
        for m, u_m in enumerate(U, start=1):
            block += u_m[rows, None] * KZ[:, m * k : (m + 1) * k]
    return out


def cross_vector(x, X, sigma: float) -> np.ndarray:
    """Row of plain-kernel values of one query state against training columns."""
    X = _as_states(X, "X")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[0] != X.shape[0]:
        raise InputError(f"query dimension {x.shape[0]} != n_x = {X.shape[0]}")
    return _exp_sq_dists(x[:, None], X, sigma**2)[0]


def _pivoted_cholesky(Z: np.ndarray, den: float) -> tuple:
    """Thin factor L, (M, r), with exp(-||z_i - z_j||^2 / den) ~ (L L^T)_ij.

    Greedy on the largest residual diagonal; each step costs one kernel
    column, so the M x M matrix is never formed.  Stops once every
    residual diagonal entry is at most :data:`CHOLESKY_TOL`.  Returns L
    and that residual diagonal, the diagonal of the PSD remainder.
    """
    M = Z.shape[1]
    d = np.ones(M)  # residual diagonal; the kernel's own diagonal is 1
    rows = np.empty((min(M, 64), M))  # row k holds column k of L
    r = 0
    while r < M:
        i = int(np.argmax(d))
        if d[i] <= CHOLESKY_TOL:
            break
        if r == rows.shape[0]:
            rows = np.concatenate([rows, np.empty_like(rows)])[:M]
        col = _exp_sq_dists(Z[:, i : i + 1], Z, den)[0]
        col -= rows[:r, i] @ rows[:r]
        col /= np.sqrt(d[i])
        rows[r] = col
        d -= col**2
        d[i] = 0.0
        r += 1
    return rows[:r].T, d


def _cross_factors(X: np.ndarray, Y: np.ndarray, cfg: KernelConfig) -> tuple:
    """L_X, L_Y and pref of the diffused cross-Gram, pref * L_X @ L_Y.T.

    One pivoted Cholesky of the diffused kernel on the joint points
    ``[X Y]``; the same bits for the same X, Y and cfg.
    """
    den = cfg.diffused_denominator
    L, _ = _pivoted_cholesky(np.hstack([X, Y]), den)
    N = X.shape[1]
    return (
        np.ascontiguousarray(L[:N]),
        np.ascontiguousarray(L[N:]),
        (cfg.sigma**2 / den) ** (X.shape[0] / 2.0),
    )


def right_factor(X, Y, cfg: KernelConfig) -> np.ndarray:
    """R = pref * L_Y, the right factor every fitted operator shares.

    Built by the computation :func:`build_grams` runs, so it equals the
    bundle's ``pref * L_Y`` for the same (X, Y, cfg) bit for bit.
    """
    _, L_Y, pref = _cross_factors(_as_states(X, "X"), _as_states(Y, "Y"), cfg)
    return pref * L_Y


def build_grams(X, U, Y, cfg: KernelConfig) -> GramBundle:
    """Factor the state Gram and the diffused cross-Gram in one call."""
    X = _as_states(X, "X")
    U = _as_states(U, "U")
    Y = _as_states(Y, "Y")
    if not (X.shape[1] == U.shape[1] == Y.shape[1]):
        raise InputError("X, U, Y must have the same number of columns")
    if X.shape[0] != Y.shape[0]:
        raise InputError(f"shape mismatch: X {X.shape} vs Y {Y.shape}")
    F, gap = _pivoted_cholesky(X, cfg.sigma**2)
    L_X, L_Y, pref = _cross_factors(X, Y, cfg)
    return GramBundle(
        F=np.ascontiguousarray(F),
        gap_trace=float(np.maximum(gap, 0.0) @ (1.0 + np.sum(U * U, axis=0))),
        L_X=L_X,
        L_Y=L_Y,
        pref=pref,
    )
