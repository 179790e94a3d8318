"""Benchmark harness: repeated fits, policy RMSE, rollouts, sweeps.

Each repetition generates its own dataset from a seed derived as
(seed, rep), fits the operators, runs the backward recursion to the
stationary policy, and scores the interpolated feedback law against the
system's known optimal law on a fixed test grid.  Diverging repetitions
are flagged and excluded from the mean but stay visible in the report,
so reported reps always equal successful + flagged.

Training data is generated noise-free by default (``data_epsilon = 0``):
the process noise enters the estimator through the diffusion parameter
of the kernel, not through the snapshots themselves.  Injecting
integration noise into the targets is still available via the
``data_epsilon`` override, but it inflates the learned spectrum and can
make the long-horizon recursion diverge.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DivergenceError,
    InputError,
    IntegrationError,
    OracleError,
    RolloutError,
)
from .estimator import EstimatedOperators, enforce_markov, fit_krr
from .hjb import ValueSolution, khjb_recursion, policy_interpolate
from .kernel import KernelConfig
from .systems import (
    Box,
    ControlAffineSystem,
    _lattice,
    euler_maruyama_step,
    generate_dataset,
    make_system,
)

__all__ = [
    "BenchReport",
    "BENCH_DEFAULTS",
    "bench_config",
    "policy_table",
    "rmse_policy",
    "rmse_table",
    "run_benchmark",
    "fit_and_solve",
    "test_grid",
    "closed_loop_rollout",
    "riccati_reference",
    "convergence_sweep",
    "save_report_json",
]

log = logging.getLogger(__name__)

_SHARED_DEFAULTS = dict(
    epsilon=0.02,
    data_epsilon=0.0,
    substeps=10,
    stop_tol=1e-6,
    markov_enforce=True,
    diffused_mode="plus_2eps_dt",
    b_block_orientation="row",
)

#: Per-system benchmark settings reproducing the reference experiments.
BENCH_DEFAULTS = {
    "s1": dict(N=1000, sigma=1.2, dt=1e-2, H=500, gamma=1e-8,
               sampler="uniform_iid", reps=10, **_SHARED_DEFAULTS),
    "s2": dict(N=1000, sigma=1.8, dt=1e-3, H=5000, gamma=1e-8,
               sampler="uniform_iid", reps=10, **_SHARED_DEFAULTS),
    "s3": dict(N=1000, sigma=2.0, dt=1e-3, H=5000, gamma=1e-8,
               sampler="uniform_iid", reps=10, **_SHARED_DEFAULTS),
    "s4": dict(N=400, sigma=1.0, dt=1e-2, H=500, gamma=1e-8,
               sampler="uniform_iid", reps=10, **_SHARED_DEFAULTS),
    # The 2-D oscillator needs a larger ridge: at gamma = 1e-8 the
    # closed-loop spectral radius sits above 1 and the recursion blows
    # up; 1e-6 brings it to 1.0 while leaving the fit unchanged at the
    # scale of the score.  Horizon capped with the stationary stopping
    # rule active.
    "vdp": dict(N=2500, sigma=20.0, dt=1e-2, H=2000, gamma=1e-6,
                sampler="grid", reps=1, **_SHARED_DEFAULTS),
}


@dataclass
class BenchReport:
    """Aggregated benchmark outcome for one system."""

    system: str
    reps: int
    rmse_mean: float
    rmse_std: float
    per_rep_rmse: List[float]
    sigma: float
    N: int
    H: int
    dt: float
    wall_time_s: float
    seed: int
    flagged_reps: List[int] = field(default_factory=list)


def bench_config(name: str, overrides: Optional[dict] = None) -> dict:
    """Benchmark settings for a system, with validated overrides applied."""
    name = name.lower()
    if name not in BENCH_DEFAULTS:
        raise InputError(
            f"unknown benchmark system {name!r}; "
            f"available: {', '.join(sorted(BENCH_DEFAULTS))}"
        )
    cfg = dict(BENCH_DEFAULTS[name])
    for key, val in (overrides or {}).items():
        if key not in cfg:
            raise InputError(f"unknown benchmark override {key!r}")
        cfg[key] = val
    return cfg


def policy_table(policy: Callable, points: np.ndarray) -> np.ndarray:
    """A feedback law evaluated at each column of ``points`` (n_u x M)."""
    return np.stack(
        [
            np.asarray(policy(points[:, j]), dtype=float).ravel()
            for j in range(points.shape[1])
        ],
        axis=1,
    )


def rmse_table(estimated: np.ndarray, truth: np.ndarray) -> float:
    """Root mean squared Euclidean discrepancy of two n_u x M policy tables."""
    est = np.asarray(estimated, dtype=float)
    ref = np.asarray(truth, dtype=float)
    if est.shape != ref.shape or est.ndim != 2 or est.shape[1] < 1:
        raise InputError(
            f"need two equal n_u x M tables with M >= 1, got {est.shape} "
            f"and {ref.shape}"
        )
    diff = est - ref
    return math.sqrt(float(np.mean(np.sum(diff**2, axis=0))))


def rmse_policy(
    estimated: Callable,
    truth: Callable,
    test_points: np.ndarray,
) -> float:
    """:func:`rmse_table` of two feedback laws tabulated on the test points."""
    pts = np.asarray(test_points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[1] < 1:
        raise InputError("need at least one test point")
    return rmse_table(policy_table(estimated, pts), policy_table(truth, pts))


def test_grid(system: ControlAffineSystem) -> np.ndarray:
    """The fixed evaluation grid policies are scored on.

    1-D systems: 100 uniformly spaced points over the training domain.
    The 2-D oscillator: the 30 x 30 grid on [-3, 3]^2.
    """
    if system.n_x == 1:
        return np.linspace(system.domain.lo[0], system.domain.hi[0], 100)[
            None, :
        ]
    if system.n_x == 2:
        ax = np.linspace(-3.0, 3.0, 30)
        g1, g2 = np.meshgrid(ax, ax, indexing="ij")
        return np.stack([g1.ravel(), g2.ravel()], axis=0)
    raise InputError(f"no test grid defined for n_x = {system.n_x}")


def _rep_seed(seed: int, rep: int) -> int:
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def fit_and_solve(
    system: ControlAffineSystem, cfg: dict, data_seed: int
) -> Tuple[EstimatedOperators, ValueSolution]:
    """One benchmark repetition up to the value solution.

    Generates the dataset, fits (optionally Markov-enforces) the
    operators, and runs the backward recursion.  Raises DivergenceError
    straight through for the caller to account.
    """
    kcfg = KernelConfig(
        sigma=cfg["sigma"],
        epsilon=cfg["epsilon"],
        dt=cfg["dt"],
        gamma=cfg["gamma"],
        diffused_mode=cfg["diffused_mode"],
    )
    data_cfg = SimpleNamespace(dt=cfg["dt"], epsilon=cfg["data_epsilon"])
    ds = generate_dataset(
        system,
        cfg["N"],
        data_cfg,
        substeps=cfg["substeps"],
        sampler=cfg["sampler"],
        seed=data_seed,
    )
    ops = fit_krr(ds, kcfg, b_block_orientation=cfg["b_block_orientation"])
    if cfg["markov_enforce"]:
        ops = enforce_markov(ops)
    sol = khjb_recursion(
        ops,
        ds.cost / ds.dt,
        system.penalty,
        cfg["H"],
        stop_tol=cfg["stop_tol"],
    )
    return ops, sol


def run_benchmark(
    name: str,
    reps: Optional[int] = None,
    overrides: Optional[dict] = None,
    seed: int = 0,
) -> BenchReport:
    """Repeat the identification experiment and score the learned law.

    Parameters
    ----------
    name : str
        Registry system name.
    reps : int, optional
        Repetition count; defaults to the per-system benchmark setting.
    overrides : dict, optional
        Benchmark-setting overrides (unknown keys are rejected).
    seed : int
        Master seed; repetition r uses a seed derived from (seed, r).
    """
    cfg = bench_config(name, overrides)
    if reps is None:
        reps = cfg["reps"]
    if reps < 1:
        raise InputError(f"reps must be >= 1, got {reps}")
    system = make_system(name)
    pts = test_grid(system)
    truth_table = policy_table(system.ground_truth_policy, pts)

    t0 = time.perf_counter()
    per_rep: List[float] = [math.nan] * reps
    flagged: List[int] = []
    for r in range(reps):
        try:
            ops, sol = fit_and_solve(system, cfg, _rep_seed(seed, r))
            per_rep[r] = rmse_table(policy_interpolate(pts, sol, ops), truth_table)
        except DivergenceError as exc:
            flagged.append(r)
            log.warning("rep %d diverged: %s", r, exc)
    ok = [v for v in per_rep if not math.isnan(v)]
    wall = time.perf_counter() - t0

    # Grid sampling may round the sample count down to a full lattice.
    actual_N = cfg["N"]
    if cfg["sampler"] == "grid":
        actual_N = _lattice(system.domain, actual_N)[1]

    return BenchReport(
        system=name.lower(),
        reps=reps,
        rmse_mean=float(np.mean(ok)) if ok else math.nan,
        rmse_std=float(np.std(ok)) if ok else math.nan,
        per_rep_rmse=per_rep,
        sigma=cfg["sigma"],
        N=actual_N,
        H=cfg["H"],
        dt=cfg["dt"],
        wall_time_s=wall,
        seed=seed,
        flagged_reps=flagged,
    )


def closed_loop_rollout(
    system: ControlAffineSystem,
    sol: Optional[ValueSolution],
    ops: Optional[EstimatedOperators],
    x0,
    T: float,
    dt: float,
    epsilon: float = 0.0,
    seed: int = 0,
    substeps: int = 10,
) -> np.ndarray:
    """Simulate the system under the learned stationary feedback law.

    Pass ``sol = ops = None`` for the open-loop (u = 0) baseline.
    Returns the n_x x (steps+1) array of states sampled every dt.

    Raises
    ------
    RolloutError
        If the state escapes ten times the training domain (measured
        from the domain's center) or stops being finite — both are
        instability diagnostics, not numerical accidents.
    """
    if (sol is None) != (ops is None):
        raise InputError("pass both sol and ops, or neither")
    steps = int(round(T / dt))
    center = 0.5 * (system.domain.lo + system.domain.hi)
    half = 0.5 * (system.domain.hi - system.domain.lo)
    escape = Box(center - 10.0 * half, center + 10.0 * half)
    rng = np.random.default_rng(seed)
    x = np.asarray(x0, dtype=float).reshape(system.n_x)
    traj = np.empty((system.n_x, steps + 1))
    traj[:, 0] = x
    zero_u = np.zeros(system.n_u)
    for k in range(steps):
        u = (
            policy_interpolate(x, sol, ops)
            if sol is not None
            else zero_u
        )
        try:
            x = euler_maruyama_step(system, x, u, dt, epsilon, substeps, rng)
        except IntegrationError as exc:
            raise RolloutError(
                f"trajectory blew up at step {k} (t = {k * dt:.3g}): {exc}"
            ) from exc
        if not escape.contains(x):
            raise RolloutError(
                f"state escaped 10x the domain at step {k + 1} "
                f"(t = {(k + 1) * dt:.3g}, |x| = {np.linalg.norm(x):.3g})"
            )
        traj[:, k + 1] = x
    return traj


def riccati_reference(a: float, b: float, q: float, r: float) -> float:
    """Stabilizing scalar LQR gain for dx = (a x + b u) dt, cost q x^2 + r u^2.

    Solves 2 a p - b^2 p^2 / r + q = 0 for the root making the closed
    loop a + b * gain stable and returns gain = -b p / r.
    """
    if r <= 0:
        raise InputError(f"r must be > 0, got {r}")
    if b == 0:
        raise OracleError("b = 0: system is not controllable")
    disc = a * a + b * b * q / r
    if disc < 0:
        raise OracleError("no real Riccati root exists")
    p = r * (a + math.sqrt(disc)) / (b * b)
    gain = -b * p / r
    if a + b * gain > 1e-12:
        raise OracleError(
            f"no stabilizing root: closed-loop rate {a + b * gain:.3g} > 0"
        )
    return gain


def convergence_sweep(
    name: str,
    N_grid: Sequence[int],
    reps: Optional[int] = None,
    seed: int = 0,
    overrides: Optional[dict] = None,
) -> List[Tuple[int, float]]:
    """run_benchmark across sample counts, for rate-trend analysis.

    ``reps`` None uses the system's own repetition count, as
    :func:`run_benchmark` does.
    """
    grid = [int(n) for n in N_grid]
    if not grid:
        raise InputError("N grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputError("N grid must be strictly ascending")
    out = []
    for n in grid:
        merged = dict(overrides or {})
        merged["N"] = n
        report = run_benchmark(name, reps=reps, overrides=merged, seed=seed)
        out.append((n, report.rmse_mean))
    return out


def _json_safe(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    return value


def save_report_json(report: BenchReport, path) -> None:
    """Summary JSON with every report field (NaN encoded as null)."""
    payload = {k: _json_safe(v) for k, v in asdict(report).items()}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
