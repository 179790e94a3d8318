"""The control problem: dynamics, boxes, penalty, and snapshot data.

The given part of the problem is the control penalty and its box
(:class:`ControlPenalty`, :class:`Box`); the dynamics and stage cost
are known only to the simulator.  All systems are control-affine,

    dX = (f(X) + G(X) u) dt + sqrt(2 eps) dW,

given as one column-batched map ``dynamics(x, u) = f(x) + G(x) u`` and
a column-batched stage cost; nothing reads f or G apart.  A dataset is
a cloud of one-step transitions: initial states drawn over the
system's state box, controls drawn over its control box, and successors
produced by Euler--Maruyama substepping.  Every sample owns its own
reproducibly derived RNG substream, so the result depends only on
(system, N, seed) — never on sharding or evaluation order.  Datasets
are written and read as CSV by :mod:`kmeoc.store`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InputError, IntegrationError

__all__ = [
    "Box",
    "ControlAffineSystem",
    "ControlPenalty",
    "Dataset",
    "euler_maruyama_step",
    "generate_dataset",
    "lattice",
    "make_system",
    "SYSTEM_NAMES",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, lo <= x <= hi per coordinate."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise InputError("box bounds must be 1-D arrays of equal length")
        if not np.all(lo < hi):
            raise InputError("box must satisfy lo < hi per coordinate")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        pts = x if x.ndim == 2 else x[:, None]
        return bool(
            np.all(pts >= self.lo[:, None]) and np.all(pts <= self.hi[:, None])
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform draws as a dim x n array."""
        span = (self.hi - self.lo)[:, None]
        return self.lo[:, None] + span * rng.random((self.dim, n))


@dataclass(frozen=True)
class ControlPenalty:
    """Diagonal quadratic control penalty r(u) = sum_m weights_m * u_m^2.

    Parameters
    ----------
    weights : array_like
        Strictly positive diagonal of the quadratic form, length n_u.
    box : Box, optional
        Control bounds of dimension n_u.  The box must contain 0, so
        that the conjugate at lam = 0 is exactly 0, matching the zero
        terminal value of the recursion.
    """

    weights: np.ndarray
    box: Optional[Box] = None

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.ndim != 1 or w.size == 0 or not np.all(w > 0):
            raise InputError("penalty weights must be strictly positive")
        object.__setattr__(self, "weights", w)
        if self.box is not None:
            if self.box.dim != w.size:
                raise InputError(
                    f"box dimension {self.box.dim} != n_u = {w.size}"
                )
            if not self.box.contains(np.zeros(w.size)):
                raise InputError("box must contain 0 in every coordinate")

    @property
    def n_u(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class ControlAffineSystem:
    """Dynamics dX = (f(X) + G(X)u) dt + sqrt(2 eps) dW plus its cost data.

    Parameters
    ----------
    name : str
    n_x, n_u : int
    dynamics : callable
        (x, u) -> f(x) + G(x) u, column by column: x of shape (n_x, M)
        and u of shape (n_u, M) give an (n_x, M) array, and one state,
        x of shape (n_x,) with u of shape (n_u,), gives (n_x,).
    state_cost : callable
        State-dependent stage cost, column by column: (n_x, M) -> (M,),
        bounded below on the domain.
    penalty : ControlPenalty
        The control penalty r.
    domain : Box
        State sampling box.
    control_box : Box
        Control sampling box.
    ground_truth_policy : callable, optional
        Known stationary optimal feedback, state -> control, used by
        benchmark scoring only.
    state_filter : callable, optional
        Vectorized predicate over a (n_x, M) batch returning a length-M
        bool mask of admissible states; sampling rejects and redraws
        the rest (used to keep dynamics with isolated singularities away
        from them).
    """

    name: str
    n_x: int
    n_u: int
    dynamics: Callable
    state_cost: Callable
    penalty: ControlPenalty
    domain: Box
    control_box: Box
    ground_truth_policy: Optional[Callable] = None
    state_filter: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self):
        if self.domain.dim != self.n_x:
            raise InputError("domain dimension != n_x")
        if self.control_box.dim != self.n_u:
            raise InputError("control box dimension != n_u")
        if self.penalty.n_u != self.n_u:
            raise InputError("penalty dimension != n_u")


@dataclass(frozen=True)
class Dataset:
    """One-step snapshot data (x^(i), u^(i)) -> x_+^(i) with stage costs.

    ``cost`` holds the pre-weighted products state_cost(x^(i)) * dt.
    Every entry must be finite.
    """

    X: np.ndarray
    U: np.ndarray
    Y: np.ndarray
    cost: np.ndarray
    dt: float
    epsilon: float
    seed: int
    system: str = ""

    def __post_init__(self):
        names = ("X", "U", "Y", "cost")
        for name in names:
            object.__setattr__(
                self, name, np.asarray(getattr(self, name), dtype=float)
            )
        N = self.X.shape[1]
        if self.U.shape[1] != N or self.cost.size != N:
            raise InputError("dataset arrays disagree on sample count")
        if self.Y.shape != self.X.shape:
            raise InputError("X and Y disagree on shape")
        for name in names:
            bad = ~np.isfinite(getattr(self, name))
            if bad.any():
                i = int(np.nonzero(bad)[-1].min())
                raise InputError(
                    f"dataset {name} is not finite at sample {i} "
                    f"(0-based, of {N})"
                )

    @property
    def N(self) -> int:
        return self.X.shape[1]

    @property
    def n_x(self) -> int:
        return self.X.shape[0]

    @property
    def n_u(self) -> int:
        return self.U.shape[0]


def euler_maruyama_step(
    system: ControlAffineSystem,
    x,
    u,
    dt: float,
    epsilon: float,
    substeps: int,
    rng: Optional[np.random.Generator],
) -> np.ndarray:
    """Integrate the SDE over [0, dt] with Euler--Maruyama substeps.

    Each of the ``substeps`` increments of size h = dt/substeps adds
    sqrt(2*epsilon*h) * w with w an independent standard-normal draw,
    so the one-step noise variance is 2*epsilon*dt per coordinate.
    At epsilon == 0 nothing is drawn and ``rng`` may be None.

    Raises
    ------
    IntegrationError
        If the state stops being finite; carries the substep index.
    """
    if substeps < 1:
        raise InputError(f"substeps must be >= 1, got {substeps}")
    if not 0 < dt < math.inf:
        raise InputError(f"dt must be finite and > 0, got {dt}")
    if not 0 <= epsilon < math.inf:
        raise InputError(f"epsilon must be finite and >= 0, got {epsilon}")
    if epsilon > 0 and rng is None:
        raise InputError("epsilon > 0 needs a random generator")
    x = np.asarray(x, dtype=float).reshape(system.n_x)
    u = np.asarray(u, dtype=float).reshape(system.n_u)
    h = dt / substeps
    noise_scale = np.sqrt(2.0 * epsilon * h)
    for j in range(substeps):
        x = x + h * system.dynamics(x, u)
        if noise_scale > 0.0:
            x = x + noise_scale * rng.standard_normal(system.n_x)
        # Checked on Python floats: for a state of one or two entries
        # this is several times cheaper than np.all(np.isfinite(x)).
        if not all(map(math.isfinite, x.tolist())):
            raise IntegrationError(
                f"state became non-finite at substep {j}", step=j
            )
    return x


def lattice(box: Box, n: int):
    """Near-square lattice over the box with at most n points.

    Uses the same number of points per axis (the largest s with
    s**dim <= n) and returns the dim x s**dim array of lattice points
    plus the realized count.
    """
    s = max(1, int(np.floor(n ** (1.0 / box.dim) + 1e-9)))
    axes = [np.linspace(box.lo[d], box.hi[d], s) for d in range(box.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=0)
    return pts, s**box.dim


def generate_dataset(
    system: ControlAffineSystem,
    N: int,
    cfg,
    substeps: int = 10,
    sampler: str = "uniform_iid",
    seed: int = 0,
) -> Dataset:
    """Draw N one-step transitions of the system.

    Parameters
    ----------
    system : ControlAffineSystem
    N : int
        Requested sample count (>= 1).  In ``grid`` mode the count is
        rounded down to the nearest lattice size s**n_x and the actual
        count is reported via the returned dataset (and a log line).
    cfg :
        Anything carrying ``dt`` and ``epsilon`` attributes (a
        KernelConfig works); only those two fields are read.
    substeps : int
        Euler--Maruyama substeps per transition.
    sampler : {"uniform_iid", "grid"}
        Initial-state placement; controls are uniform over the control
        box in both modes.
    seed : int
        An integer >= 0 (else InputError).

    Notes
    -----
    The RNG is split once into a draw stream (states and controls, in
    that order) and one integration substream per sample, all derived
    from (seed, sample index).  Regenerating any subset of samples
    therefore reproduces exactly the same successors.  At epsilon == 0
    the integration draws nothing, so only the draw stream is spawned;
    it is the same first child whatever the count.
    """
    if N < 1:
        raise InputError(f"N must be >= 1, got {N}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    if sampler not in ("uniform_iid", "grid"):
        raise InputError(f"unknown sampler {sampler!r}")
    dt = float(cfg.dt)
    epsilon = float(cfg.epsilon)

    noisy = epsilon > 0
    children = np.random.SeedSequence(seed).spawn(N + 1 if noisy else 1)
    draw_rng = np.random.default_rng(children[0])

    if sampler == "uniform_iid":
        X = system.domain.sample(draw_rng, N)
    else:
        X, actual = lattice(system.domain, N)
        if actual != N:
            log.warning(
                "grid sampler rounded N from %d down to %d (%d per axis)",
                N,
                actual,
                int(round(actual ** (1.0 / system.n_x))),
            )
        N = actual
    # Both samplers redraw rejected states uniformly until all pass.
    if system.state_filter is not None:
        for _ in range(1000):
            bad = ~np.asarray(system.state_filter(X), dtype=bool)
            if not bad.any():
                break
            X[:, bad] = system.domain.sample(draw_rng, int(bad.sum()))
        else:  # pragma: no cover - filter admits ~all of the domain
            raise InputError("state filter rejected too many draws")
    U = system.control_box.sample(draw_rng, N)

    Y = np.empty_like(X)
    for i in range(N):
        rng_i = np.random.default_rng(children[1 + i]) if noisy else None
        Y[:, i] = euler_maruyama_step(
            system, X[:, i], U[:, i], dt, epsilon, substeps, rng_i
        )
    cost = system.state_cost(X) * dt

    return Dataset(
        X=X, U=U, Y=Y, cost=cost, dt=dt, epsilon=epsilon, seed=seed,
        system=system.name,
    )


def _box1(lo: float, hi: float) -> Box:
    return Box(np.array([lo]), np.array([hi]))


def _make_s1() -> ControlAffineSystem:
    return ControlAffineSystem(
        name="s1",
        n_x=1,
        n_u=1,
        dynamics=lambda x, u: 0.5 * x + np.sqrt(2.0) * u,
        state_cost=lambda x: x[0] ** 2,
        penalty=ControlPenalty(weights=np.array([1.0])),
        domain=_box1(-3.0, 3.0),
        control_box=_box1(-1.0, 1.0),
        ground_truth_policy=lambda x: -np.sqrt(2.0) * np.atleast_1d(x),
    )


def _make_s2() -> ControlAffineSystem:
    def dynamics(x, u):
        log_sq = np.log(x**2)
        return -0.5 * x * (1.0 - log_sq**2) + log_sq * u

    return ControlAffineSystem(
        name="s2",
        n_x=1,
        n_u=1,
        dynamics=dynamics,
        state_cost=lambda x: x[0] ** 2,
        penalty=ControlPenalty(weights=np.array([1.0])),
        domain=_box1(-3.0, 3.0),
        control_box=_box1(-1.0, 1.0),
        ground_truth_policy=lambda x: -np.log(np.atleast_1d(x) ** 2)
        * np.atleast_1d(x),
        state_filter=lambda pts: np.abs(pts[0]) >= 1e-6,
    )


def _make_s3() -> ControlAffineSystem:
    def dynamics(x, u):
        s = np.sin(2.0 * x)
        return -0.375 * x + 0.5 * x * s + 0.5 * x * s**2 + (0.5 + s) * u

    def truth(x):
        x = np.atleast_1d(x)
        return -(0.5 + np.sin(2.0 * x)) * x

    return ControlAffineSystem(
        name="s3",
        n_x=1,
        n_u=1,
        dynamics=dynamics,
        state_cost=lambda x: x[0] ** 2,
        penalty=ControlPenalty(weights=np.array([1.0])),
        domain=_box1(-3.0, 3.0),
        control_box=_box1(-1.0, 1.0),
        ground_truth_policy=truth,
    )


def _make_s4() -> ControlAffineSystem:
    def truth(x):
        x = np.atleast_1d(x)
        return x**3 - x * np.sqrt(1.0 + x**4)

    return ControlAffineSystem(
        name="s4",
        n_x=1,
        n_u=1,
        dynamics=lambda x, u: -(x**3) + u,
        state_cost=lambda x: x[0] ** 2,
        penalty=ControlPenalty(weights=np.array([1.0])),
        domain=_box1(-5.0, 5.0),
        control_box=_box1(-1.0, 1.0),
        ground_truth_policy=truth,
    )


def _make_vdp() -> ControlAffineSystem:
    def dynamics(x, u):
        x1, x2 = x[0], x[1]
        return np.array([x2, (-x1 - 0.5 * x2 * (1.0 - x1**2)) + x1 * u[0]])

    return ControlAffineSystem(
        name="vdp",
        n_x=2,
        n_u=1,
        dynamics=dynamics,
        state_cost=lambda x: 0.5 * x[1] ** 2,
        penalty=ControlPenalty(weights=np.array([0.5])),
        domain=Box(np.array([-3.0, -3.0]), np.array([3.0, 3.0])),
        control_box=_box1(-1.0, 1.0),
        ground_truth_policy=lambda x: np.array([-x[0] * x[1]]),
    )


_REGISTRY = {
    "s1": _make_s1,
    "s2": _make_s2,
    "s3": _make_s3,
    "s4": _make_s4,
    "vdp": _make_vdp,
}

SYSTEM_NAMES = tuple(sorted(_REGISTRY))


def make_system(name: str) -> ControlAffineSystem:
    """Build a fresh benchmark system by registry name."""
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise InputError(
            f"unknown system {name!r}; available: {', '.join(SYSTEM_NAMES)}"
        ) from None
    return factory()
