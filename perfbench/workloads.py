"""The workloads: their operations, output checks and metrics.

One operation solves one control problem.  ``solve-*`` runs the library
pipeline in this process; ``cli-s1`` runs the README's four CLI
commands as fresh processes (in-process through ``kmeoc.cli.main`` on a
traced run).  A run does a fixed number of whole rounds, set by
``--seconds`` and the reference round time of the workload, so the
same arguments always give the same work and the same counts.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np

import oracles
import tracing
from tracing import Tracer

from kmeoc import bench, cli, estimator, hjb, kernel, store, systems
from kmeoc.errors import DivergenceError, StorageError
from kmeoc.estimator import EstimatedOperators
from kmeoc.hjb import ValueSolution

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIB = float(1 << 20)

#: Fresh set-ups timed per run; setup_s is their median.
SETUP_PROBES = 5


@dataclass(frozen=True)
class Workload:
    system: str
    kind: str  # "solve" or "cli"
    round_s: float  # reference wall time of one round at one BLAS thread


WORKLOADS: Dict[str, Workload] = {
    "solve-s2": Workload("s2", "solve", 5.0),
    "solve-vdp": Workload("vdp", "solve", 35.0),
    "cli-s1": Workload("s1", "cli", 5.0),
}

#: solve-vdp's round: raw data seed 0 converges (k = 494); seed 1 raises
#: DivergenceError at k = 1492 on every run.  They do not follow --seed:
#: vdp diverges on some data seeds and not others (1 and 2 diverge, 0
#: and 3 converge), so seeds counted from --seed would change the
#: share of failed operations from run to run.
VDP_SEEDS = (0, 1)

#: Raw data seeds 0-59 on which s2 converges: 16, 27, 30 and 57 raise
#: DivergenceError (at k = 3962, 3773, 4631 and 4593).  A failure that
#: depends on the seed cannot be counted steadily, so solve-s2 leaves
#: them out.
S2_SEEDS = tuple(s for s in range(60) if s not in (16, 27, 30, 57))

#: The README quickstart for s1.
CLI_N, CLI_H, CLI_STEPS = 1000, 500, 50

UNITS_E2E = {
    "setup_s": "s",
    "op_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "policy_rmse": "1",
}

#: Spans whose self time is a per-layer metric, named <span>_s.
SPAN_TIMES = (
    "systems.generate", "kernel.gram", "kernel.cross", "estimator.fit",
    "estimator.factor", "estimator.solve", "estimator.markov",
    "estimator.normality", "hjb.recursion", "hjb.interp", "fpk.embed",
    "fpk.propagate", "fpk.forecast", "store.save", "store.load",
    "cli.generate", "cli.identify", "cli.control", "cli.predict",
    "bench.score",
)

UNITS_LAYER = {
    "systems.generate_s": "s",
    "systems.euler_steps": "count",
    "kernel.gram_s": "s",
    "kernel.gram_entries": "count",
    "kernel.cross_s": "s",
    "kernel.cross_calls": "count",
    "estimator.fit_s": "s",
    "estimator.factor_s": "s",
    "estimator.factorizations": "count",
    "estimator.solve_s": "s",
    "estimator.markov_s": "s",
    "estimator.normality_s": "s",
    "estimator.jitter": "1",
    "estimator.rho_A": "1",
    "hjb.recursion_s": "s",
    "hjb.steps": "count",
    "hjb.frozen_steps": "count",
    "hjb.converged_at": "step",
    "hjb.step_us": "us",
    "hjb.bytes_computed": "B",
    "hjb.gbps_computed": "GB/s",
    "hjb.interp_s": "s",
    "hjb.interp_points": "count",
    "hjb.u_box_ratio": "1",
    "fpk.embed_s": "s",
    "fpk.propagate_s": "s",
    "fpk.propagate_steps": "count",
    "fpk.forecast_s": "s",
    "store.save_s": "s",
    "store.load_s": "s",
    "store.bytes_written": "B",
    "store.bytes_read": "B",
    "cli.import_s": "s",
    "cli.generate_s": "s",
    "cli.identify_s": "s",
    "cli.control_s": "s",
    "cli.predict_s": "s",
    "cli.csv_bytes": "B",
    "bench.score_s": "s",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.span_us": "us",
}


def plan(name: str, seed: int, seconds: float) -> List[int]:
    """Data seeds of the run's operations, whole rounds only."""
    w = WORKLOADS[name]
    rounds = max(1, round(seconds / w.round_s))
    if name == "solve-vdp":
        return list(VDP_SEEDS) * rounds
    if name == "solve-s2":
        return [S2_SEEDS[(seed + i) % len(S2_SEEDS)] for i in range(rounds)]
    return [seed + i for i in range(rounds)]


@dataclass
class Setup:
    name: str
    system: systems.ControlAffineSystem
    points: np.ndarray
    truth: np.ndarray
    cfg: Optional[dict]


@dataclass
class OpRecord:
    seed: int
    wall: float = math.nan
    failed: bool = False
    error: str = ""
    problems: List[str] = field(default_factory=list)
    rmse: float = math.nan
    artifact_bytes: int = 0
    csv_bytes: int = 0
    peak_rss_kb: int = 0
    base_wall: float = math.nan  # the same operation untraced (traced runs)
    diag: Dict[str, float] = field(default_factory=dict)


def setup(name: str, workdir: Path) -> Setup:
    """Everything done once before the first timed operation."""
    w = WORKLOADS[name]
    system = systems.make_system(w.system)
    points = bench.test_grid(system)
    truth = oracles.truth_table(w.system, points)
    cfg = bench.bench_config(w.system) if w.kind == "solve" else None
    s = Setup(name, system, points, truth, cfg)
    if cfg is not None:
        # Warm-up: the whole pipeline once at toy size.
        solve_op(s, dict(cfg, N=64, H=20), 0, Path(workdir))
    return s


def time_setup(name: str, workdir: Path) -> float:
    """Wall time of one set-up in a fresh interpreter, start to exit."""
    if WORKLOADS[name].kind == "cli":
        code = "import kmeoc.cli"
    else:
        code = (
            f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]; "
            f"import workloads; workloads.setup({name!r}, {str(workdir)!r})"
        )
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), check=True)
    return time.perf_counter() - t0


def child_env() -> Dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else "")
    )


# -- solve-* ----------------------------------------------------------------


def solve_op(
    s: Setup, cfg: dict, seed: int, workdir: Path, tracer: Optional[Tracer] = None
) -> Tuple[OpRecord, dict]:
    """generate -> fit -> Markov -> save/load -> recursion -> interpolate -> score."""
    rec = OpRecord(seed)
    path = workdir / "model.bin"
    kcfg = kernel.KernelConfig(
        sigma=cfg["sigma"],
        epsilon=cfg["epsilon"],
        dt=cfg["dt"],
        gamma=cfg["gamma"],
        diffused_mode=cfg["diffused_mode"],
    )
    data_cfg = SimpleNamespace(dt=cfg["dt"], epsilon=cfg["data_epsilon"])
    out: dict = {}
    t0 = time.perf_counter()
    with tracer.span("op") if tracer else contextlib.nullcontext():
        ds = systems.generate_dataset(
            s.system, cfg["N"], data_cfg, substeps=cfg["substeps"],
            sampler=cfg["sampler"], seed=seed,
        )
        fitted = estimator.enforce_markov(
            estimator.fit_krr(
                ds, kcfg, b_block_orientation=cfg["b_block_orientation"]
            )
        )
        store.save(fitted, path)
        model = store.load(path)
        out.update(fitted=fitted, model=model)
        try:
            sol = hjb.khjb_recursion(
                model, model.dataset_ref.cost / model.dataset_ref.dt,
                s.system.penalty, cfg["H"], stop_tol=cfg["stop_tol"],
            )
        except DivergenceError as exc:
            rec.failed = True
            rec.error = f"DivergenceError at k={exc.step}"
            out["diverged_at"] = exc.step
        else:
            est = hjb.policy_interpolate(s.points, sol, model)
            table = {s.points[:, j].tobytes(): est[:, j] for j in range(est.shape[1])}
            score = bench.rmse_policy(
                lambda x: table[x.tobytes()], s.system.ground_truth_policy, s.points
            )
            out.update(sol=sol, est=est, score=score)
    rec.wall = time.perf_counter() - t0
    rec.artifact_bytes = path.stat().st_size
    path.unlink()
    return rec, out


def reload_problems(fitted: EstimatedOperators, model: EstimatedOperators) -> List[str]:
    pairs = [(fitted.A_hat, model.A_hat)]
    pairs += list(zip(fitted.B_hat_blocks, model.B_hat_blocks))
    if len(fitted.B_hat_blocks) != len(model.B_hat_blocks) or not all(
        oracles.same_bits(a, b) for a, b in pairs
    ):
        return ["reloaded operators are not bit-identical to the fitted ones"]
    return []


def law_problems(est: np.ndarray, truth: np.ndarray, bound: float) -> Tuple[float, List[str]]:
    err = oracles.rmse(est, truth)
    if not err <= bound:
        return err, [f"policy RMSE {err:.4g} exceeds {bound}"]
    return err, []


def check_solve(rec: OpRecord, out: dict, s: Setup) -> None:
    fitted, model = out["fitted"], out["model"]
    rec.problems += oracles.markov_errors(fitted.A_hat, fitted.B_hat_blocks)
    rec.problems += reload_problems(fitted, model)
    if rec.failed:
        return
    rec.rmse, problems = law_problems(out["est"], s.truth, oracles.RMSE_BOUND[s.name])
    rec.problems += problems
    if not abs(out["score"] - rec.rmse) <= 1e-9 * max(1.0, rec.rmse):
        rec.problems.append(
            f"bench.rmse_policy gives {out['score']!r}, the closed form {rec.rmse!r}"
        )


def control_diag(ops: EstimatedOperators, sol: Optional[ValueSolution],
                 s: Setup, H: int, diverged_at: Optional[int]) -> Dict[str, float]:
    """Why an operation converged or diverged, from its outputs."""
    box = s.system.control_box
    half = float(np.max((box.hi - box.lo) / 2.0))
    steps = H - diverged_at if sol is None else sol.horizon
    conv = -1 if sol is None or sol.converged_at is None else sol.converged_at
    return {
        "jitter": ops.jitter,
        "rho_A": oracles.spectral_radius(ops.A_hat),
        "steps": steps,
        "converged_at": conv,
        "frozen_steps": max(conv, 0),
        "bytes_computed": (1 + ops.n_u) * ops.N * ops.N * 8 * steps,
        "u_box_ratio": (
            math.nan if sol is None
            else float(np.max(np.abs(sol.stationary_policy()))) / half
        ),
    }


# -- cli-s1 -----------------------------------------------------------------


def cli_argvs(seed: int, workdir: Path, points: np.ndarray) -> List[List[str]]:
    stem = str(workdir / f"s1_n{CLI_N}_seed{seed}")
    out = ["--out", str(workdir)]
    query = ";".join(repr(float(x)) for x in points[0])
    return [
        ["generate", "--system", "s1", "--n", str(CLI_N), "--seed", str(seed),
         "--epsilon", "0", *out],
        ["identify", "--dataset", stem + ".csv", "--sigma", "1.2",
         "--markov-enforce", "true", *out],
        ["control", "--model", stem + "_model.bin", "--horizon", str(CLI_H),
         "--save-solution", "true", "--query=" + query, *out],
        ["predict", "--model", stem + "_model.bin",
         "--solution", stem + "_model_solution.bin", "--policy", "learned",
         "--x0", "1.0", "--steps", str(CLI_STEPS), *out],
    ]


def _spawn(argv: List[str], log: Path) -> Tuple[int, int, str]:
    """Run one CLI command in a fresh interpreter: exit code, peak RSS, stderr."""
    with open(log, "wb") as fh:
        p = subprocess.Popen(
            [sys.executable, "-m", "kmeoc.cli", *argv],
            stdout=subprocess.DEVNULL, stderr=fh, env=child_env(),
        )
        _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, usage.ru_maxrss, log.read_text(errors="replace")[-300:]


def cli_op(
    s: Setup, seed: int, workdir: Path, in_process: bool,
    tracer: Optional[Tracer] = None,
) -> Tuple[OpRecord, dict]:
    """The four commands, in order; stops at the first that fails."""
    rec = OpRecord(seed)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    log = workdir.parent / "stderr.txt"
    t0 = time.perf_counter()
    with tracer.span("op") if tracer else contextlib.nullcontext():
        for argv in cli_argvs(seed, workdir, s.points):
            if in_process:
                buf = io.StringIO()
                span = tracer.span("cli." + argv[0]) if tracer else contextlib.nullcontext()
                with span, contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                    code = cli.main(argv)
                err = buf.getvalue()[-300:]
            else:
                code, rss, err = _spawn(argv, log)
                rec.peak_rss_kb = max(rec.peak_rss_kb, rss)
            if code != 0:
                rec.failed = True
                rec.error = f"{argv[0]} exited {code}: {err.strip()}"
                break
    rec.wall = time.perf_counter() - t0
    files = [p for p in workdir.iterdir() if p.is_file()]
    rec.artifact_bytes = sum(p.stat().st_size for p in files)
    rec.csv_bytes = sum(p.stat().st_size for p in files if p.suffix == ".csv")
    return rec, {"stem": str(workdir / f"s1_n{CLI_N}_seed{seed}")}


def forecast_problems(t: float, value: float) -> List[str]:
    exact = oracles.s1_second_moment(t)
    if not (abs(t - 0.5) < 1e-12 and abs(value - exact) <= oracles.FORECAST_TOL):
        return [f"forecast E[x({t:g})^2] = {value:.6g}, exact {exact:.6g}"]
    return []


def artifact_problems(path: str, kind: type) -> Tuple[object, List[str]]:
    try:
        obj = store.load(path)
    except StorageError as exc:
        return None, [f"{os.path.basename(path)} does not reload: {exc}"]
    if not isinstance(obj, kind):
        return None, [f"{os.path.basename(path)} is a {type(obj).__name__}"]
    return obj, []


def check_cli(rec: OpRecord, out: dict, s: Setup) -> Tuple[object, object]:
    stem = out["stem"]
    q = np.loadtxt(stem + "_model_queries.csv", delimiter=",", skiprows=1, ndmin=2)
    if not np.array_equal(q[:, 0], s.points[0]):
        rec.problems.append("control --query answered other points than asked")
    rec.rmse, problems = law_problems(
        q[:, 1][None, :], oracles.s1_law(q[:, 0])[None, :], oracles.RMSE_BOUND[s.name]
    )
    rec.problems += problems
    fc = np.loadtxt(stem + "_model_forecast.csv", delimiter=",", skiprows=1, ndmin=2)
    rec.problems += forecast_problems(float(fc[-1, 1]), float(fc[-1, 2]))
    model, p1 = artifact_problems(stem + "_model.bin", EstimatedOperators)
    sol, p2 = artifact_problems(stem + "_model_solution.bin", ValueSolution)
    rec.problems += p1 + p2
    return model, sol


# -- a run ------------------------------------------------------------------


def _one_op(s: Setup, seed: int, work: Path, tracer: Optional[Tracer],
            in_process: bool):
    if s.cfg is not None:
        return solve_op(s, s.cfg, seed, work, tracer)
    return cli_op(s, seed, work / "op", in_process, tracer)


def _check(rec: OpRecord, out: dict, s: Setup, diagnose: bool) -> None:
    if s.cfg is not None:
        check_solve(rec, out, s)
        if diagnose:
            rec.diag = control_diag(
                out["fitted"], out.get("sol"), s, s.cfg["H"], out.get("diverged_at")
            )
    elif not rec.failed:
        model, sol = check_cli(rec, out, s)
        if diagnose and model is not None and sol is not None:
            rec.diag = control_diag(model, sol, s, CLI_H, None)


def layer_metrics(tracer: Tracer, op: int, rec: OpRecord) -> Dict[str, float]:
    """Per-layer figures of one traced operation."""
    st = tracer.self_times(op)
    n = tracer.span_counts(op)
    c = tracer.counters[op]
    d = rec.diag
    rec_s, steps = st.get("hjb.recursion", 0.0), d.get("steps", 0)
    m = {
        "systems.euler_steps": c.get("systems.euler_steps", 0),
        "kernel.gram_entries": c.get("kernel.gram_entries", 0),
        "kernel.cross_calls": n.get("kernel.cross", 0),
        "estimator.factorizations": n.get("estimator.factor", 0),
        "estimator.jitter": d.get("jitter", 0.0),
        "estimator.rho_A": d.get("rho_A", 0.0),
        "hjb.steps": steps,
        "hjb.frozen_steps": d.get("frozen_steps", 0),
        "hjb.converged_at": d.get("converged_at", -1),
        "hjb.step_us": rec_s / steps * 1e6 if steps else 0.0,
        "hjb.bytes_computed": d.get("bytes_computed", 0),
        "hjb.gbps_computed": d.get("bytes_computed", 0) / rec_s / 1e9 if rec_s else 0.0,
        "hjb.interp_points": c.get("hjb.interp_points", 0),
        "hjb.u_box_ratio": d.get("u_box_ratio", 0.0),
        "fpk.propagate_steps": n.get("fpk.propagate", 0),
        "store.bytes_written": c.get("store.bytes_written", 0),
        "store.bytes_read": c.get("store.bytes_read", 0),
        "cli.csv_bytes": rec.csv_bytes,
        "trace.spans": len(tracer.op_spans(op)),
    }
    m.update({span + "_s": st.get(span, 0.0) for span in SPAN_TIMES})
    return m


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: set-up, the planned operations, checks, metrics."""
    w = WORKLOADS[name]
    out_dir = HERE / "out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    records: List[OpRecord] = []
    try:
        setup_times = [time_setup(name, work) for _ in range(SETUP_PROBES)]
        s = setup(name, work)
        for i, data_seed in enumerate(plan(name, seed, seconds)):
            if tracer is not None:
                # The same operation untraced, as the base of the overhead.
                base = _one_op(s, data_seed, work, None, in_process=True)[0]
                tracer.op = i
                with tracer:
                    rec, out = _one_op(s, data_seed, work, tracer, in_process=True)
                rec.base_wall = base.wall
            else:
                rec, out = _one_op(s, data_seed, work, None, in_process=False)
            _check(rec, out, s, diagnose=trace)
            del out
            records.append(rec)
            print(f"op {i} seed {data_seed}: {rec.wall:.3f} s"
                  + (f" FAILED {rec.error}" if rec.failed else f" rmse {rec.rmse:.6g}")
                  + "".join(f"; CHECK {p}" for p in rec.problems), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in records if not r.failed]
    correct = bool(ok) and not any(r.problems for r in records) and all(
        r.error.startswith("DivergenceError") for r in records if r.failed
    )
    if trace:
        metrics = _traced_metrics(tracer, records, w, setup_times)
        units = UNITS_LAYER
    else:
        peak_kb = (
            max(r.peak_rss_kb for r in records) if w.kind == "cli"
            else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        )
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_s": statistics.median(r.wall for r in ok) if ok else math.nan,
            "peak_rss_mb": peak_kb / 1024.0,
            "artifact_mb": statistics.fmean(r.artifact_bytes for r in ok) / MIB if ok else math.nan,
            "policy_rmse": statistics.fmean(r.rmse for r in ok) if ok else math.nan,
        }
        units = UNITS_E2E
    return {
        "result": {
            "correct": correct,
            "attempted": len(records),
            "failed": sum(r.failed for r in records),
            "metrics": {
                k: {"value": _finite(metrics[k]), "unit": units[k]} for k in units
            },
        },
        "records": records,
        "setup_times": setup_times,
        "spans": tracer.dump() if tracer else None,
    }


def _traced_metrics(tracer: Tracer, records: List[OpRecord], w: Workload,
                    setup_times: List[float]) -> Dict[str, float]:
    ok = [(i, r) for i, r in enumerate(records) if not r.failed]
    per_op = [layer_metrics(tracer, i, r) for i, r in ok]
    metrics = dict.fromkeys(UNITS_LAYER, math.nan)
    if per_op:
        metrics.update({k: statistics.median(m[k] for m in per_op) for k in per_op[0]})
        metrics["trace.op_s"] = statistics.median(r.base_wall for _, r in ok)
        metrics["trace.overhead_s"] = statistics.median(r.wall - r.base_wall for _, r in ok)
    rho = [r.diag["rho_A"] for r in records if "rho_A" in r.diag]
    metrics["estimator.rho_A"] = max(rho) if rho else math.nan
    metrics["cli.import_s"] = statistics.median(setup_times) if w.kind == "cli" else 0.0
    metrics["trace.span_us"] = tracing.span_cost() * 1e6
    return metrics


def _finite(v: float) -> Optional[float]:
    v = float(v)
    return v if math.isfinite(v) else None
