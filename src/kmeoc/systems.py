"""Benchmark dynamics, SDE integration, and snapshot dataset generation.

All systems are control-affine,

    dX = (f(X) + G(X) u) dt + sqrt(2 eps) dW,

and a dataset is a cloud of one-step transitions: initial states drawn
over the system's state box, controls drawn over its control box, and
successors produced by Euler--Maruyama substepping.  Every sample owns
its own reproducibly derived RNG substream, so the result depends only
on (system, N, seed) — never on sharding or evaluation order.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InputError, IntegrationError
from .hjb import ControlPenalty

__all__ = [
    "Box",
    "ControlAffineSystem",
    "Dataset",
    "euler_maruyama_step",
    "generate_dataset",
    "save_dataset_csv",
    "load_dataset_csv",
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

    def contains(self, x, atol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        pts = x if x.ndim == 2 else x[:, None]
        return bool(
            np.all(pts >= self.lo[:, None] - atol)
            and np.all(pts <= self.hi[:, None] + atol)
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform draws as a dim x n array."""
        span = (self.hi - self.lo)[:, None]
        return self.lo[:, None] + span * rng.random((self.dim, n))


@dataclass(frozen=True)
class ControlAffineSystem:
    """Dynamics dX = (f(X) + G(X)u) dt + sqrt(2 eps) dW plus its cost data.

    Parameters
    ----------
    name : str
    n_x, n_u : int
    drift : callable
        f: state -> state velocity, length n_x.
    input_map : callable
        G: state -> (n_x, n_u) matrix.
    state_cost : callable
        State-dependent stage cost, state -> float, bounded below on
        the domain.
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
        the rest (used to keep drifts with isolated singularities away
        from them).
    """

    name: str
    n_x: int
    n_u: int
    drift: Callable
    input_map: Callable
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

    def f(self, x) -> np.ndarray:
        return np.asarray(self.drift(x), dtype=float).reshape(self.n_x)

    def G(self, x) -> np.ndarray:
        return np.asarray(self.input_map(x), dtype=float).reshape(
            self.n_x, self.n_u
        )

    def check_wellposed(self, n: int = 256, seed: int = 0) -> None:
        """Sample the domain and verify f, G finite and cost bounded below."""
        rng = np.random.default_rng(seed)
        pts = self.domain.sample(rng, n)
        if self.state_filter is not None:
            pts = pts[:, self.state_filter(pts)]
        costs = []
        for j in range(pts.shape[1]):
            x = pts[:, j]
            if not np.all(np.isfinite(self.f(x))):
                raise InputError(f"{self.name}: drift not finite at {x}")
            if not np.all(np.isfinite(self.G(x))):
                raise InputError(f"{self.name}: input map not finite at {x}")
            costs.append(float(self.state_cost(x)))
        costs = np.asarray(costs)
        if not np.all(np.isfinite(costs)):
            raise InputError(f"{self.name}: state cost not finite on domain")


@dataclass(frozen=True)
class Dataset:
    """One-step snapshot data (x^(i), u^(i)) -> x_+^(i) with stage costs.

    ``cost`` holds the pre-weighted products state_cost(x^(i)) * dt.
    Every entry must be finite.  ``Y`` is None when the successors are
    not carried, as in a model restored from disk.
    """

    X: np.ndarray
    U: np.ndarray
    Y: Optional[np.ndarray]
    cost: np.ndarray
    dt: float
    epsilon: float
    seed: int
    system: str = ""

    def __post_init__(self):
        names = ("X", "U", "cost") if self.Y is None else ("X", "U", "Y", "cost")
        for name in names:
            object.__setattr__(
                self, name, np.asarray(getattr(self, name), dtype=float)
            )
        N = self.X.shape[1]
        if self.U.shape[1] != N or self.cost.size != N:
            raise InputError("dataset arrays disagree on sample count")
        if self.Y is not None and self.Y.shape != self.X.shape:
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
    if not dt > 0:
        raise InputError(f"dt must be > 0, got {dt}")
    if epsilon < 0:
        raise InputError(f"epsilon must be >= 0, got {epsilon}")
    if epsilon > 0 and rng is None:
        raise InputError("epsilon > 0 needs a random generator")
    x = np.asarray(x, dtype=float).reshape(system.n_x).copy()
    u = np.asarray(u, dtype=float).reshape(system.n_u)
    h = dt / substeps
    noise_scale = np.sqrt(2.0 * epsilon * h)
    for j in range(substeps):
        x = x + h * (system.f(x) + system.G(x) @ u)
        if noise_scale > 0.0:
            x = x + noise_scale * rng.standard_normal(system.n_x)
        # Checked on Python floats: for a state of one or two entries
        # this is several times cheaper than np.all(np.isfinite(x)).
        if not all(map(math.isfinite, x.tolist())):
            raise IntegrationError(
                f"state became non-finite at substep {j}", step=j
            )
    return x


def _lattice(box: Box, n: int):
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
    if sampler not in ("uniform_iid", "grid"):
        raise InputError(f"unknown sampler {sampler!r}")
    dt = float(cfg.dt)
    epsilon = float(cfg.epsilon)

    noisy = epsilon > 0
    children = np.random.SeedSequence(seed).spawn(N + 1 if noisy else 1)
    draw_rng = np.random.default_rng(children[0])

    if sampler == "uniform_iid":
        X = system.domain.sample(draw_rng, N)
        if system.state_filter is not None:
            for _ in range(1000):
                bad = ~np.asarray(system.state_filter(X), dtype=bool)
                if not bad.any():
                    break
                X[:, bad] = system.domain.sample(draw_rng, int(bad.sum()))
            else:  # pragma: no cover - filter admits ~all of the domain
                raise InputError("state filter rejected too many draws")
    else:
        X, actual = _lattice(system.domain, N)
        if actual != N:
            log.warning(
                "grid sampler rounded N from %d down to %d (%d per axis)",
                N,
                actual,
                int(round(actual ** (1.0 / system.n_x))),
            )
        N = actual
        if system.state_filter is not None:
            bad = ~np.asarray(system.state_filter(X), dtype=bool)
            if bad.any():
                X = X.copy()
                X[:, bad] = system.domain.sample(draw_rng, int(bad.sum()))
    U = system.control_box.sample(draw_rng, N)

    Y = np.empty_like(X)
    cost = np.empty(N)
    for i in range(N):
        rng_i = np.random.default_rng(children[1 + i]) if noisy else None
        Y[:, i] = euler_maruyama_step(
            system, X[:, i], U[:, i], dt, epsilon, substeps, rng_i
        )
        cost[i] = float(system.state_cost(X[:, i])) * dt

    return Dataset(
        X=X, U=U, Y=Y, cost=cost, dt=dt, epsilon=epsilon, seed=seed,
        system=system.name,
    )


def save_dataset_csv(ds: Dataset, path) -> None:
    """Write the one-row-per-sample CSV with a leading metadata line."""
    if ds.Y is None:
        raise InputError("a dataset without successors Y has no CSV form")
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# dt={ds.dt:.17g} epsilon={ds.epsilon:.17g} "
            f"seed={ds.seed} system={ds.system}\n"
        )
        wr = csv.writer(fh)
        header = (
            [f"x{d+1}" for d in range(ds.n_x)]
            + [f"u{m+1}" for m in range(ds.n_u)]
            + [f"y{d+1}" for d in range(ds.n_x)]
            + ["cost"]
        )
        wr.writerow(header)
        for i in range(ds.N):
            row = [f"{v:.17g}" for v in ds.X[:, i]]
            row += [f"{v:.17g}" for v in ds.U[:, i]]
            row += [f"{v:.17g}" for v in ds.Y[:, i]]
            row.append(f"{ds.cost[i]:.17g}")
            wr.writerow(row)


def _float_rows(path, numbered_rows, width=None) -> np.ndarray:
    """Stack (line number, fields) pairs into a float array, one row each.

    Every row must have ``width`` fields (the first row's count when
    None).  A ragged or non-numeric row, or no row at all, raises
    InputError naming the file and the line.
    """
    rows = []
    for line, fields in numbered_rows:
        if width is None:
            width = len(fields)
        if len(fields) != width:
            raise InputError(
                f"{path}:{line}: {len(fields)} fields, expected {width}"
            )
        try:
            rows.append([float(v) for v in fields])
        except ValueError as exc:
            raise InputError(f"{path}:{line}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def load_dataset_csv(path) -> Dataset:
    """Inverse of :func:`save_dataset_csv` (bit-exact round trip).

    Malformed input raises InputError naming the file and the line, and
    undecodable text one naming the file.
    """
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None
    meta_line = lines[0] if lines else ""
    if not meta_line.startswith("#"):
        raise InputError(f"{path}:1: dataset CSV missing the metadata line")
    meta = dict(tok.partition("=")[::2] for tok in meta_line[1:].split())
    try:
        dt, epsilon = float(meta["dt"]), float(meta["epsilon"])
        seed = int(meta["seed"])
    except (KeyError, ValueError):
        raise InputError(
            f"{path}:1: metadata needs numeric dt=, epsilon= and seed=, "
            f"got {meta_line.strip()!r}"
        ) from None
    rd = csv.reader(lines[1:])
    header = next(rd, [])
    n_x = sum(1 for h in header if h.startswith("x"))
    n_u = sum(1 for h in header if h.startswith("u"))
    # The reader starts after the metadata line.
    numbered = ((rd.line_num + 1, row) for row in rd if row)
    data = _float_rows(path, numbered, len(header)).T
    X = data[:n_x]
    U = data[n_x : n_x + n_u]
    Y = data[n_x + n_u : 2 * n_x + n_u]
    cost = data[-1]
    return Dataset(
        X=X,
        U=U,
        Y=Y,
        cost=cost,
        dt=dt,
        epsilon=epsilon,
        seed=seed,
        system=meta.get("system", ""),
    )


def _box1(lo: float, hi: float) -> Box:
    return Box(np.array([lo]), np.array([hi]))


def _make_s1() -> ControlAffineSystem:
    return ControlAffineSystem(
        name="s1",
        n_x=1,
        n_u=1,
        drift=lambda x: 0.5 * x,
        input_map=lambda x: np.array([[np.sqrt(2.0)]]),
        state_cost=lambda x: float(x[0] ** 2),
        penalty=ControlPenalty(weights=np.array([1.0])),
        domain=_box1(-3.0, 3.0),
        control_box=_box1(-1.0, 1.0),
        ground_truth_policy=lambda x: -np.sqrt(2.0) * np.atleast_1d(x),
    )


def _make_s2() -> ControlAffineSystem:
    def drift(x):
        return -0.5 * x * (1.0 - np.log(x**2) ** 2)

    def gmap(x):
        return np.array([[np.log(float(x[0]) ** 2)]])

    return ControlAffineSystem(
        name="s2",
        n_x=1,
        n_u=1,
        drift=drift,
        input_map=gmap,
        state_cost=lambda x: float(x[0] ** 2),
        penalty=ControlPenalty(weights=np.array([1.0])),
        domain=_box1(-3.0, 3.0),
        control_box=_box1(-1.0, 1.0),
        ground_truth_policy=lambda x: -np.log(np.atleast_1d(x) ** 2)
        * np.atleast_1d(x),
        state_filter=lambda pts: np.abs(pts[0]) >= 1e-6,
    )


def _make_s3() -> ControlAffineSystem:
    def drift(x):
        s = np.sin(2.0 * x)
        return -0.375 * x + 0.5 * x * s + 0.5 * x * s**2

    def gmap(x):
        return np.array([[0.5 + np.sin(2.0 * float(x[0]))]])

    def truth(x):
        x = np.atleast_1d(x)
        return -(0.5 + np.sin(2.0 * x)) * x

    return ControlAffineSystem(
        name="s3",
        n_x=1,
        n_u=1,
        drift=drift,
        input_map=gmap,
        state_cost=lambda x: float(x[0] ** 2),
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
        drift=lambda x: -(x**3),
        input_map=lambda x: np.array([[1.0]]),
        state_cost=lambda x: float(x[0] ** 2),
        penalty=ControlPenalty(weights=np.array([1.0])),
        domain=_box1(-5.0, 5.0),
        control_box=_box1(-1.0, 1.0),
        ground_truth_policy=truth,
    )


def _make_vdp() -> ControlAffineSystem:
    def drift(x):
        x1, x2 = float(x[0]), float(x[1])
        return np.array([x2, -x1 - 0.5 * x2 * (1.0 - x1**2)])

    def gmap(x):
        return np.array([[0.0], [float(x[0])]])

    return ControlAffineSystem(
        name="vdp",
        n_x=2,
        n_u=1,
        drift=drift,
        input_map=gmap,
        state_cost=lambda x: 0.5 * float(x[1]) ** 2,
        penalty=ControlPenalty(weights=np.array([0.5])),
        domain=Box(np.array([-3.0, -3.0]), np.array([3.0, 3.0])),
        control_box=_box1(-1.0, 1.0),
        ground_truth_policy=lambda x: np.array([-float(x[0]) * float(x[1])]),
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
