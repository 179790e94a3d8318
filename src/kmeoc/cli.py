"""Command-line front end: generate | identify | control | predict | bench | sweep.

Every pipeline stage reads and writes files, so a full experiment is a
sequence of shell commands:

    kmeoc generate --system s1 --n 1000 --seed 7 --out work
    kmeoc identify --dataset work/s1_n1000_seed7.csv --sigma 1.2 --out work
    kmeoc control  --model work/s1_n1000_seed7_model.bin --horizon 500 --out work
    kmeoc predict  --model work/s1_n1000_seed7_model.bin --x0 1.0 --steps 50 --out work

Settings resolve in priority order: command-line flag, then --config
file entry, then the built-in default.  Each key is declared once, in
``_KEYS``, with its parser, default and help line; each command once,
in ``_COMMANDS``, with its function, help line and the keys it reads.
``kmeoc <command> --help`` lists those keys with their defaults.  The
config file is flat ``key=value`` text (``#`` starts a comment); a key
no command reads is an error, never silently ignored, while a key
another command reads is accepted, so one file can serve every command.
bench and sweep pass only the bench settings that were set, so the
others keep the system's benchmark defaults.

Exit codes: 0 success, 2 configuration error (bad flags, unknown
system, missing required setting), 3 runtime error (failed fit,
diverging recursion, unreadable artifact).

``--log-level`` (every command) sends the package's log records at
that level and above to standard error for the command's duration;
``debug`` shows, for example, which path the backward recursion took
and the step at which its policy became stationary.  Without the flag
logging stays as the caller configured it, which in a fresh process
prints warnings and errors only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from . import bench as bench_mod
from . import store
from .errors import ConfigError, InputError, KmeocError
from .estimator import (
    EstimatedOperators,
    departure_from_normality,
    enforce_markov,
    fit_krr,
    fit_residual,
    model_select,
)
from .fpk import (
    embed_initial,
    export_forecast_csv,
    export_weights_csv,
    forecast_observable_path,
    observable_forecast,
    propagate,
)
from .hjb import (
    ControlPenalty,
    ValueSolution,
    export_value_policy_csv,
    khjb_recursion,
    policy_interpolate,
)
from .kernel import DIFFUSED_MODES, KernelConfig, build_grams
from .systems import (
    SYSTEM_NAMES,
    _float_rows,
    generate_dataset,
    load_dataset_csv,
    make_system,
    save_dataset_csv,
)

__all__ = ["main"]

log = logging.getLogger(__name__)

_LOG_LEVELS = ("debug", "info", "warning", "error")


@contextlib.contextmanager
def _log_to_stderr(level: Optional[str]):
    """Show the package's log records at ``level`` and up on stderr.

    With ``level`` None, leave logging as the caller configured it.
    Otherwise the records go to this handler only, not also up to the
    root logger's handlers, so none prints twice; the logger's level
    and propagation are restored afterwards.
    """
    if level is None:
        yield
        return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    package_log = logging.getLogger("kmeoc")
    saved_level, saved_propagate = package_log.level, package_log.propagate
    package_log.addHandler(handler)
    package_log.setLevel(level.upper())
    package_log.propagate = False
    try:
        yield
    finally:
        package_log.removeHandler(handler)
        package_log.setLevel(saved_level)
        package_log.propagate = saved_propagate


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean from {text!r}")


def _parse_floats(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse float list from {text!r}") from None


def _parse_ints(text: str) -> List[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse int list from {text!r}") from None


# Every settable key: its value parser, its default (None: none, or
# the command decides) and its help line.  --help lists each key a
# command reads with its default, and config files are validated
# against this table, so a key any command reads is valid in every
# config file.
_KEYS: Dict[str, tuple] = {
    "system": (str, None, "benchmark system: " + ", ".join(SYSTEM_NAMES)),
    "dataset": (str, None, "path to a dataset CSV"),
    "model": (str, None, "path to a fitted-model artifact"),
    "solution": (str, None, "path to a value-solution artifact"),
    "out": (str, ".", "output directory"),
    "seed": (int, 0, "master RNG seed"),
    "n": (int, None, "number of training samples"),
    "sampler": (str, "uniform_iid", "initial states: uniform_iid | grid"),
    "substeps": (int, 10, "integrator substeps per transition"),
    "data_epsilon": (
        float,
        None,
        "diffusion injected when integrating training snapshots; at the "
        "bench default 0, noise enters through the kernel instead",
    ),
    "sigma": (float, None, "RBF kernel scale"),
    "epsilon": (float, 0.02, "diffusion parameter of the kernel"),
    "dt": (float, 1e-2, "snapshot time step"),
    "gamma": (float, 1e-8, "ridge regularization"),
    "diffused_mode": (
        str,
        "plus_2eps_dt",
        "diffused-kernel denominator: " + " | ".join(DIFFUSED_MODES),
    ),
    "markov_enforce": (_parse_bool, False, "project onto Markov constraints"),
    "b_block_orientation": (str, "row", "control scaling side: row | column"),
    "sigma_grid": (_parse_floats, None, "comma list of sigmas to select from"),
    "val_fraction": (float, 0.2, "holdout fraction for model selection"),
    "penalty_weights": (_parse_floats, [1.0], "diagonal control penalty"),
    "penalty_box": (str, "none", "control bounds 'lo,hi', or 'none'"),
    "horizon": (int, 500, "backward recursion steps H"),
    "stop_tol": (float, 1e-6, "stationary-policy stopping tolerance"),
    "export_steps": (str, "stationary", "policy CSV rows: stationary | all"),
    "save_solution": (_parse_bool, False, "also write the value solution"),
    "query": (str, None, "states to evaluate the policy at, 'x1,..;x1,..'"),
    "x0": (_parse_floats, None, "point-mass initial state, comma-separated"),
    "init_csv": (str, None, "CSV of initial states (one state per row)"),
    "policy": (str, "zero", "forecast policy: zero | training | learned"),
    "steps": (int, 50, "forward propagation steps"),
    "observable": (str, "x2", "forecast observable: x2 | one"),
    "dump_weights": (_parse_bool, False, "also dump per-step measure weights"),
    "reps": (int, None, "benchmark repetitions"),
    "n_grid": (_parse_ints, None, "comma list of sample counts to sweep"),
}

# The keys that name a bench setting, shared by bench and sweep.  Only
# the ones set by flag or config file reach the bench, as overrides;
# the rest keep the system's benchmark defaults.
_BENCH_KEYS = (
    "sigma", "dt", "horizon", "gamma", "epsilon", "data_epsilon", "substeps",
    "stop_tol", "markov_enforce", "sampler", "diffused_mode",
    "b_block_orientation",
)


class _Settings:
    """Layered key lookup: CLI flag > config file > built-in default."""

    def __init__(self, args: argparse.Namespace, command: str):
        self.cli = vars(args)
        self.command = command
        self.file: Dict[str, object] = {}
        cfg_path = self.cli.get("config")
        if cfg_path:
            self.file = _read_config_file(cfg_path)

    def get(self, key: str, required: bool = False):
        val = self.cli.get(key)
        if val is None and key in self.file:
            val = self.file[key]
        if val is None:
            val = _KEYS[key][1]
        if val is None and required:
            raise ConfigError(
                f"{self.command}: required setting {key!r} is missing "
                f"(pass --{key.replace('_', '-')} or set it in --config)"
            )
        return val

    def was_set(self, key: str) -> bool:
        return self.cli.get(key) is not None or key in self.file


def _read_config_file(path: str) -> Dict[str, object]:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    out: Dict[str, object] = {}
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key=value', got {line.rstrip()!r}"
            )
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        parser = _KEYS[key][0]
        try:
            out[key] = parser(value.strip())
        except (ValueError, ConfigError) as exc:
            raise ConfigError(
                f"{path}:{lineno}: bad value for {key!r}: {exc}"
            ) from None
    return out


def _show(value) -> str:
    """A default as it is typed: lowercase booleans, comma lists."""
    if isinstance(value, list):
        return ",".join(map(str, value))
    return str(value).lower() if isinstance(value, bool) else str(value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmeoc",
        description=(
            "Data-driven optimal control of diffusions: fit transition "
            "operators from snapshots, run the backward value recursion "
            "for feedback laws, and push distributions forward."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument(
            "--config",
            metavar="FILE",
            help="flat key=value settings file (flags take precedence)",
        )
        p.add_argument(
            "--log-level",
            choices=_LOG_LEVELS,
            help=(
                "log records shown on stderr (default: logging as "
                "configured; warnings and errors in a fresh process)"
            ),
        )
        for key in keys:
            parse, default, help_text = _KEYS[key]
            if command in ("bench", "sweep") and (
                key in _BENCH_KEYS or key == "reps"
            ):
                help_text += " (default: per system)"
            elif (command, key) == ("identify", "dt"):
                help_text += " (default: the dataset's)"
            elif default is not None:
                help_text += f" (default {_show(default)})"
            flag = "--" + key.replace("_", "-")
            if parse is _parse_bool:
                p.add_argument(
                    flag, type=_parse_bool, metavar="BOOL", help=help_text
                )
            elif parse in (_parse_floats, _parse_ints):
                p.add_argument(flag, type=parse, metavar="LIST", help=help_text)
            else:
                p.add_argument(flag, type=parse, help=help_text)
    return parser


def _ensure_out(settings: _Settings) -> str:
    out = str(settings.get("out"))
    os.makedirs(out, exist_ok=True)
    return out


def _parse_penalty(settings: _Settings) -> ControlPenalty:
    weights = settings.get("penalty_weights")
    box_text = str(settings.get("penalty_box")).strip().lower()
    box = None
    if box_text not in ("none", ""):
        vals = _parse_floats(box_text)
        if len(vals) != 2:
            raise ConfigError(
                f"penalty_box must be 'lo,hi' or 'none', got {box_text!r}"
            )
        box = (np.full(len(weights), vals[0]), np.full(len(weights), vals[1]))
    return ControlPenalty(weights=np.asarray(weights, dtype=float), box=box)


def _load_model(settings: _Settings) -> EstimatedOperators:
    path = settings.get("model", required=True)
    artifact = store.load(path)
    if not isinstance(artifact, EstimatedOperators):
        raise ConfigError(
            f"{path!r} is a {type(artifact).__name__} artifact, not a model"
        )
    return artifact


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(str(path)))[0]


def _read_states(path: str) -> np.ndarray:
    """The n_x x M states of a CSV with one state per row.

    ``#`` starts a comment; blank lines are skipped.  A bad row raises
    InputError naming its line in the file, and undecodable text one
    naming the file.
    """
    try:
        with open(path) as fh:
            lines = [
                (n, t.split("#", 1)[0].strip()) for n, t in enumerate(fh, 1)
            ]
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None
    return _float_rows(path, ((n, t.split(",")) for n, t in lines if t)).T


def cmd_generate(settings: _Settings) -> int:
    system = make_system(str(settings.get("system", required=True)))
    n = int(settings.get("n", required=True))
    seed = int(settings.get("seed"))
    out = _ensure_out(settings)
    cfg = KernelConfig(
        sigma=1.0,  # irrelevant to generation; only dt/epsilon are read
        epsilon=float(settings.get("epsilon")),
        dt=float(settings.get("dt")),
    )
    ds = generate_dataset(
        system,
        n,
        cfg,
        substeps=int(settings.get("substeps")),
        sampler=str(settings.get("sampler")),
        seed=seed,
    )
    path = os.path.join(out, f"{system.name}_n{ds.N}_seed{seed}.csv")
    save_dataset_csv(ds, path)
    print(f"wrote {ds.N} samples to {path}")
    return 0


def cmd_identify(settings: _Settings) -> int:
    ds_path = str(settings.get("dataset", required=True))
    ds = load_dataset_csv(ds_path)
    out = _ensure_out(settings)
    gamma = float(settings.get("gamma"))
    epsilon = float(settings.get("epsilon"))
    dt = float(settings.get("dt")) if settings.was_set("dt") else ds.dt
    mode = str(settings.get("diffused_mode"))

    sigma_grid = settings.get("sigma_grid")
    scores = None
    if sigma_grid:
        sigma, scores = model_select(
            ds,
            sigma_grid,
            val_fraction=float(settings.get("val_fraction")),
            gamma=gamma,
            diffused_mode=mode,
        )
    elif settings.was_set("sigma"):
        sigma = float(settings.get("sigma"))
    else:
        raise ConfigError("identify: provide either sigma or sigma_grid")

    cfg = KernelConfig(
        sigma=sigma, epsilon=epsilon, dt=dt, gamma=gamma, diffused_mode=mode
    )
    grams = build_grams(ds.X, ds.U, ds.Y, cfg)
    ops = fit_krr(
        ds, cfg, b_block_orientation=str(settings.get("b_block_orientation")),
        grams=grams,
    )
    if settings.get("markov_enforce"):
        ops = enforce_markov(ops)

    residual = fit_residual(ops, grams)
    model_path = os.path.join(out, f"{_stem(ds_path)}_model.bin")
    store.save(ops, model_path)

    # Paths relative to the summary's own directory, so the file does not
    # depend on where the run directory lies.
    summary = {
        "dataset": os.path.relpath(ds_path, out),
        "system": ds.system,
        "N": ds.N,
        "sigma": sigma,
        "gamma": gamma,
        "epsilon": epsilon,
        "dt": dt,
        "diffused_mode": mode,
        "jitter": ops.jitter,
        "markov_enforced": bool(settings.get("markov_enforce")),
        "fit_residual_fro": residual,
        "departure_from_normality": departure_from_normality(ops.A),
        "model_path": os.path.relpath(model_path, out),
    }
    if scores is not None:
        summary["sigma_grid_scores"] = [
            {
                "sigma": s.sigma,
                "validation_error": s.validation_error,
                "departure_from_normality": s.departure_from_normality,
                "combined": s.combined,
            }
            for s in scores
        ]
    summary_path = os.path.join(out, f"{_stem(ds_path)}_fit.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"wrote model to {model_path} (summary: {summary_path})")
    return 0


def cmd_control(settings: _Settings) -> int:
    ops = _load_model(settings)
    out = _ensure_out(settings)
    penalty = _parse_penalty(settings)
    H = int(settings.get("horizon"))
    sol = khjb_recursion(
        ops,
        ops.dataset_ref.cost / ops.dataset_ref.dt,
        penalty,
        H,
        stop_tol=float(settings.get("stop_tol")),
    )
    stem = _stem(settings.get("model"))
    which = str(settings.get("export_steps")).lower()
    if which == "all":
        steps = None
    elif which == "stationary":
        steps = [sol.stationary_step]
    else:
        raise ConfigError(
            f"export_steps must be 'stationary' or 'all', got {which!r}"
        )
    csv_path = os.path.join(out, f"{stem}_policy.csv")
    export_value_policy_csv(sol, ops.dataset_ref.X, csv_path, steps=steps)
    lines = [f"wrote policy/value table to {csv_path}"]
    if sol.converged_at is not None:
        lines.append(f"policy stationary from step {sol.converged_at}")
    if settings.get("save_solution"):
        sol_path = os.path.join(out, f"{stem}_solution.bin")
        store.save(sol, sol_path)
        lines.append(f"wrote value solution to {sol_path}")
    query_text = settings.get("query")
    if query_text:
        qpath = os.path.join(out, f"{stem}_queries.csv")
        with open(qpath, "w") as fh:
            n_x = ops.dataset_ref.n_x
            n_u = ops.n_u
            header = [f"x{d+1}" for d in range(n_x)]
            header += [f"u{m+1}" for m in range(n_u)]
            fh.write(",".join(header) + "\n")
            for chunk in str(query_text).split(";"):
                x = np.asarray(_parse_floats(chunk), dtype=float)
                u = policy_interpolate(x, sol, ops)
                row = [f"{v:.17g}" for v in x] + [f"{v:.17g}" for v in u]
                fh.write(",".join(row) + "\n")
                lines.append(f"pi({chunk.strip()}) = {u}")
        lines.append(f"wrote queries to {qpath}")
    print("\n".join(lines))
    return 0


def cmd_predict(settings: _Settings) -> int:
    ops = _load_model(settings)
    out = _ensure_out(settings)
    x0 = settings.get("x0")
    init_csv = settings.get("init_csv")
    if (x0 is None) == (init_csv is None):
        raise ConfigError("predict: provide exactly one of x0 or init_csv")
    if x0 is not None:
        X0 = np.asarray(x0, dtype=float)[:, None]
    else:
        X0 = _read_states(str(init_csv))
    z0 = embed_initial(ops, X0)

    policy_name = str(settings.get("policy")).lower()
    if policy_name == "zero":
        table = np.zeros((ops.n_u, ops.N))
    elif policy_name == "training":
        table = ops.dataset_ref.U
    elif policy_name == "learned":
        sol_path = settings.get("solution")
        if not sol_path:
            raise ConfigError("predict: policy=learned needs --solution")
        sol = store.load(sol_path)
        if not isinstance(sol, ValueSolution):
            raise ConfigError(
                f"{sol_path!r} is a {type(sol).__name__} artifact, "
                "not a value-solution"
            )
        table = sol.stationary_policy()
        if table.shape[1] != ops.N:
            raise ConfigError(
                "solution and model disagree on the training basis size"
            )
    else:
        raise ConfigError(
            f"policy must be zero, training, or learned, got {policy_name!r}"
        )

    obs_name = str(settings.get("observable")).lower()
    X = ops.dataset_ref.X
    if obs_name == "x2":
        psi = np.sum(X**2, axis=0)
    elif obs_name == "one":
        psi = np.ones(ops.N)
    else:
        raise ConfigError(f"observable must be x2 or one, got {obs_name!r}")

    steps = int(settings.get("steps"))
    if settings.get("dump_weights"):
        # One pass keeps every step's weights for the dump.
        zs = [z0]
        for _ in range(steps):
            zs.append(propagate(ops, zs[-1], table))
        values = np.array([observable_forecast(z, psi) for z in zs])
    else:
        zs = None
        values = forecast_observable_path(ops, z0, table, steps, psi)
    stem = _stem(settings.get("model"))
    fpath = os.path.join(out, f"{stem}_forecast.csv")
    export_forecast_csv(values, ops.kernel_cfg.dt, fpath)
    lines = [
        f"forecast[0] = {values[0]:.6g}, forecast[{steps}] = {values[-1]:.6g}",
        f"wrote forecast to {fpath}",
    ]
    if zs is not None:
        wpath = os.path.join(out, f"{stem}_weights.csv")
        export_weights_csv(zs, wpath)
        lines.append(f"wrote weights to {wpath}")
    print("\n".join(lines))
    return 0


def _bench_overrides(settings: _Settings) -> dict:
    """The bench settings given by flag or config file, by bench name."""
    names = {"n": "N", "horizon": "H"}
    return {
        names.get(key, key): settings.get(key)
        for key in ("n",) + _BENCH_KEYS
        if settings.was_set(key)
    }


def _reps(settings: _Settings) -> Optional[int]:
    """The repetition count that was set, or None for the system's own."""
    reps = settings.get("reps")
    if reps is not None and reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    return reps


def cmd_bench(settings: _Settings) -> int:
    system = str(settings.get("system", required=True))
    report = bench_mod.run_benchmark(
        system,
        reps=_reps(settings),
        overrides=_bench_overrides(settings),
        seed=int(settings.get("seed")),
    )
    out = _ensure_out(settings)
    json_path = os.path.join(out, f"bench_{report.system}.json")
    bench_mod.save_report_json(report, json_path)
    print(
        f"{report.system}: rmse_mean = {report.rmse_mean:.6g} "
        f"(std {report.rmse_std:.2g}, {report.reps} reps, "
        f"{len(report.flagged_reps)} flagged) -> {json_path}"
    )
    return 0


def cmd_sweep(settings: _Settings) -> int:
    system = str(settings.get("system", required=True))
    n_grid = settings.get("n_grid", required=True)
    reps = _reps(settings)
    points = bench_mod.convergence_sweep(
        system,
        n_grid,
        reps,
        seed=int(settings.get("seed")),
        overrides=_bench_overrides(settings),
    )
    out = _ensure_out(settings)
    logs = [
        (np.log(n), np.log(r))
        for n, r in points
        if np.isfinite(r) and r > 0
    ]
    slope = None
    if len(logs) >= 2:
        xs, ys = zip(*logs)
        slope = float(np.polyfit(xs, ys, 1)[0])
    json_path = os.path.join(out, f"sweep_{system.lower()}.json")
    with open(json_path, "w") as fh:
        json.dump(
            {
                "system": system.lower(),
                "reps": (
                    bench_mod.bench_config(system)["reps"]
                    if reps is None else reps
                ),
                "seed": int(settings.get("seed")),
                "points": [[n, bench_mod._json_safe(r)] for n, r in points],
                "loglog_slope": slope,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    slope_text = "n/a" if slope is None else f"{slope:.3f}"
    print(f"sweep {system}: loglog slope {slope_text} -> {json_path}")
    return 0


#: Each command: its function, its help line and the keys it reads.
_COMMANDS: Dict[str, tuple] = {
    "generate": (
        cmd_generate,
        "simulate a system and write a snapshot dataset CSV",
        ("system", "n", "seed", "out", "dt", "epsilon", "substeps", "sampler"),
    ),
    "identify": (
        cmd_identify,
        "fit transition operators from a dataset",
        (
            "dataset", "out", "sigma", "sigma_grid", "val_fraction",
            "epsilon", "dt", "gamma", "diffused_mode", "markov_enforce",
            "b_block_orientation",
        ),
    ),
    "control": (
        cmd_control,
        "run the backward recursion and export the feedback law",
        (
            "model", "out", "horizon", "stop_tol", "penalty_weights",
            "penalty_box", "export_steps", "save_solution", "query",
        ),
    ),
    "predict": (
        cmd_predict,
        "propagate a distribution and forecast an observable",
        (
            "model", "solution", "out", "x0", "init_csv", "policy", "steps",
            "observable", "dump_weights",
        ),
    ),
    "bench": (
        cmd_bench,
        "repeat the full pipeline and score it against ground truth",
        ("system", "reps", "seed", "out", "n") + _BENCH_KEYS,
    ),
    "sweep": (
        cmd_sweep,
        "benchmark across sample counts for the convergence trend",
        ("system", "n_grid", "reps", "seed", "out") + _BENCH_KEYS,
    ),
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    with _log_to_stderr(args.log_level):
        try:
            settings = _Settings(args, args.command)
            return _COMMANDS[args.command][0](settings)
        except (ConfigError, InputError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except KmeocError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
