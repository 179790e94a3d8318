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
import logging
import os
import re
import sys
from dataclasses import asdict
from typing import Dict, List, Optional

import numpy as np

from . import bench as bench_mod
from . import store
from .errors import InputError, KmeocError
from .estimator import (
    EstimatedOperators,
    departure_from_normality,
    enforce_markov,
    fit_krr,
)
from .fpk import (
    MeasureWeights,
    embed_initial,
    forecast_observable_path,
    observable_forecast,
    propagate,
)
from .hjb import ValueSolution, khjb_recursion, policy_interpolate
from .kernel import DIFFUSED_MODES, KernelConfig, build_grams  # noqa: F401
from .systems import (
    SYSTEM_NAMES, Box, ControlPenalty, generate_dataset, make_system,
)

# build_grams is unused: the benchmark tracer patches it here, and fails
# when the name is missing.  It goes when the benchmark's probes follow
# the program's calls (ROADMAP item 2).

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


class _BadValue(InputError, argparse.ArgumentTypeError):
    """A value that does not parse; argparse reports its message as is."""


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise _BadValue(
        f"expected a boolean (true/false, yes/no, on/off, 1/0), got {text!r}"
    )


def _parse_floats(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise _BadValue(
            f"expected a comma list of numbers, got {text!r}"
        ) from None


def _parse_ints(text: str) -> List[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise _BadValue(
            f"expected a comma list of integers, got {text!r}"
        ) from None


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise _BadValue(f"expected an integer >= 0, got {text!r}")
    return seed


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
    "seed": (_parse_seed, 0, "master RNG seed, an integer >= 0"),
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
    "epsilon": (
        float,
        0.02,
        "diffusion parameter: the simulated noise for generate, the "
        "kernel's diffusion for the other commands",
    ),
    "dt": (float, 1e-2, "snapshot time step"),
    "gamma": (float, 1e-8, "ridge regularization"),
    "diffused_mode": (
        str,
        "plus_2eps_dt",
        "diffused-kernel denominator: " + " | ".join(DIFFUSED_MODES),
    ),
    "markov_enforce": (_parse_bool, False, "project onto Markov constraints"),
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

# The metavar --help shows for a value parsed by one of the parsers
# above; other values show the flag's own name.
_METAVARS = {_parse_bool: "BOOL", _parse_floats: "LIST", _parse_ints: "LIST"}

# The keys that name a bench setting, shared by bench and sweep.  Only
# the ones set by flag or config file reach the bench, as overrides;
# the rest keep the system's benchmark defaults.
_BENCH_KEYS = (
    "sigma", "dt", "horizon", "gamma", "epsilon", "data_epsilon", "substeps",
    "stop_tol", "markov_enforce", "sampler", "diffused_mode",
)


class _Settings:
    """Layered key lookup: CLI flag > config file > built-in default."""

    def __init__(self, args: argparse.Namespace, command: str):
        self.cli = vars(args)
        self.command = command
        self.file: Dict[str, object] = {}
        cfg_path = self.cli.get("config")
        if cfg_path:
            parsers = {key: spec[0] for key, spec in _KEYS.items()}
            self.file = store.load_config(cfg_path, parsers)

    def get(self, key: str, required: bool = False):
        val = self.cli.get(key)
        if val is None and key in self.file:
            val = self.file[key]
        if val is None:
            val = _KEYS[key][1]
        if val is None and required:
            raise InputError(
                f"{self.command}: required setting {key!r} is missing "
                f"(pass --{key.replace('_', '-')} or set it in --config)"
            )
        return val

    def was_set(self, key: str) -> bool:
        return self.cli.get(key) is not None or key in self.file


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
            elif default is not None:
                help_text += f" (default {_show(default)})"
            p.add_argument(
                "--" + key.replace("_", "-"),
                type=parse,
                metavar=_METAVARS.get(parse),
                help=help_text,
            )
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
            raise InputError(
                f"penalty_box must be 'lo,hi' or 'none', got {box_text!r}"
            )
        n_u = len(weights)
        box = Box(np.full(n_u, vals[0]), np.full(n_u, vals[1]))
    return ControlPenalty(weights=np.asarray(weights, dtype=float), box=box)


def _load_model(settings: _Settings) -> EstimatedOperators:
    path = settings.get("model", required=True)
    artifact = store.load(path)
    if not isinstance(artifact, EstimatedOperators):
        raise InputError(
            f"{path!r} is a {type(artifact).__name__} artifact, not a model"
        )
    return artifact


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(str(path)))[0]


def cmd_generate(settings: _Settings) -> int:
    system = make_system(str(settings.get("system", required=True)))
    n = int(settings.get("n", required=True))
    seed = int(settings.get("seed"))
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
    out = _ensure_out(settings)
    path = os.path.join(out, f"{system.name}_n{ds.N}_seed{seed}.csv")
    store.save_dataset_csv(ds, path)
    print(f"wrote {ds.N} samples to {path}")
    return 0


def cmd_identify(settings: _Settings) -> int:
    ds_path = str(settings.get("dataset", required=True))
    ds = store.load_dataset_csv(ds_path)
    cfg = KernelConfig(
        sigma=float(settings.get("sigma", required=True)),
        epsilon=float(settings.get("epsilon")),
        dt=ds.dt,
        gamma=float(settings.get("gamma")),
        diffused_mode=str(settings.get("diffused_mode")),
    )
    ops = fit_krr(ds, cfg)
    if settings.get("markov_enforce"):
        ops = enforce_markov(ops)

    out = _ensure_out(settings)
    model_path = os.path.join(out, f"{_stem(ds_path)}_model.bin")
    store.save(ops, model_path)

    # Paths relative to the summary's own directory, so the file does not
    # depend on where the run directory lies.
    summary = {
        "dataset": os.path.relpath(ds_path, out),
        "system": ds.system,
        "N": ds.N,
        "sigma": cfg.sigma,
        "gamma": cfg.gamma,
        "epsilon": cfg.epsilon,
        "dt": cfg.dt,
        "diffused_mode": cfg.diffused_mode,
        "jitter": ops.jitter,
        "markov_enforced": bool(settings.get("markov_enforce")),
        "departure_from_normality": departure_from_normality(ops.A),
        "model_path": os.path.relpath(model_path, out),
    }
    summary_path = os.path.join(out, f"{_stem(ds_path)}_fit.json")
    store.write_json(summary, summary_path)
    print(f"wrote model to {model_path} (summary: {summary_path})")
    return 0


def cmd_control(settings: _Settings) -> int:
    ops = _load_model(settings)
    penalty = _parse_penalty(settings)
    H = int(settings.get("horizon"))
    which = str(settings.get("export_steps")).lower()
    if which not in ("stationary", "all"):
        raise InputError(
            f"export_steps must be 'stationary' or 'all', got {which!r}"
        )
    # Every query is parsed and its dimension checked before anything
    # runs; policy_interpolate checks its values before anything is written.
    query_text = settings.get("query")
    queries = [
        (chunk.strip(), np.asarray(_parse_floats(chunk), dtype=float))
        for chunk in (str(query_text).split(";") if query_text else [])
    ]
    n_x = ops.dataset_ref.n_x
    for chunk, x in queries:
        if x.size != n_x:
            raise InputError(
                f"query {chunk!r} has {x.size} coordinates, state has {n_x}"
            )
    sol = khjb_recursion(
        ops,
        ops.dataset_ref.cost / ops.dataset_ref.dt,
        penalty,
        H,
        stop_tol=float(settings.get("stop_tol")),
    )
    answers = [policy_interpolate(x, sol, ops) for _, x in queries]
    out = _ensure_out(settings)
    stem = _stem(settings.get("model"))
    steps = None if which == "all" else [sol.stationary_step]
    csv_path = os.path.join(out, f"{stem}_policy.csv")
    store.export_value_policy_csv(
        sol, ops.dataset_ref.X, csv_path, steps=steps
    )
    lines = [f"wrote policy/value table to {csv_path}"]
    if sol.converged_at is not None:
        lines.append(f"policy stationary from step {sol.converged_at}")
    if settings.get("save_solution"):
        sol_path = os.path.join(out, f"{stem}_solution.bin")
        store.save(sol, sol_path)
        lines.append(f"wrote value solution to {sol_path}")
    if queries:
        qpath = os.path.join(out, f"{stem}_queries.csv")
        chunks, xs = zip(*queries)
        store.export_queries_csv(
            np.column_stack(xs), np.column_stack(answers), qpath
        )
        lines += [f"pi({chunk}) = {u}" for chunk, u in zip(chunks, answers)]
        lines.append(f"wrote queries to {qpath}")
    print("\n".join(lines))
    return 0


def cmd_predict(settings: _Settings) -> int:
    ops = _load_model(settings)
    x0 = settings.get("x0")
    init_csv = settings.get("init_csv")
    if (x0 is None) == (init_csv is None):
        raise InputError("predict: provide exactly one of x0 or init_csv")
    # Every setting is checked before anything runs or is written.
    steps = int(settings.get("steps"))
    if steps < 0:
        raise InputError(f"steps must be >= 0, got {steps}")

    policy_name = str(settings.get("policy")).lower()
    if policy_name == "zero":
        table = np.zeros((ops.n_u, ops.N))
    elif policy_name == "training":
        table = ops.dataset_ref.U
    elif policy_name == "learned":
        sol_path = settings.get("solution")
        if not sol_path:
            raise InputError("predict: policy=learned needs --solution")
        sol = store.load(sol_path)
        if not isinstance(sol, ValueSolution):
            raise InputError(
                f"{sol_path!r} is a {type(sol).__name__} artifact, "
                "not a value-solution"
            )
        if sol.model_checksum != ops.checksum:
            raise InputError(
                f"{sol_path!r} was not computed from this model: it names "
                f"the model file checksum {sol.model_checksum.hex()}, the "
                f"model's is {ops.checksum.hex()}"
            )
        table = sol.stationary_policy()
    else:
        raise InputError(
            f"policy must be zero, training, or learned, got {policy_name!r}"
        )

    obs_name = str(settings.get("observable")).lower()
    X = ops.dataset_ref.X
    if obs_name == "x2":
        psi = np.sum(X**2, axis=0)
    elif obs_name == "one":
        psi = np.ones(ops.N)
    else:
        raise InputError(f"observable must be x2 or one, got {obs_name!r}")

    if x0 is not None:
        X0 = np.asarray(x0, dtype=float)[:, None]
    else:
        X0 = store.load_states_csv(str(init_csv))
    z0 = embed_initial(ops, X0)

    if settings.get("dump_weights"):
        # One pass keeps every step's weights for the dump, in a table
        # allocated before the first step.
        try:
            weights = np.empty((steps + 1, ops.N))
        except (OverflowError, ValueError, MemoryError):
            raise InputError(
                f"steps = {steps}: the {steps + 1} x {ops.N} table of "
                "weights does not fit in memory"
            ) from None
        z = z0
        weights[0] = z.z
        for _ in range(steps):
            z = propagate(ops, z, table)
            weights[z.step] = z.z
        zs = [MeasureWeights(z=row, step=k) for k, row in enumerate(weights)]
        values = np.array([observable_forecast(z, psi) for z in zs])
    else:
        zs = None
        values = forecast_observable_path(ops, z0, table, steps, psi)
    out = _ensure_out(settings)
    stem = _stem(settings.get("model"))
    fpath = os.path.join(out, f"{stem}_forecast.csv")
    store.export_forecast_csv(values, ops.kernel_cfg.dt, fpath)
    lines = [
        f"forecast[0] = {values[0]:.6g}, forecast[{steps}] = {values[-1]:.6g}",
        f"wrote forecast to {fpath}",
    ]
    if zs is not None:
        wpath = os.path.join(out, f"{stem}_weights.csv")
        store.export_weights_csv(zs, wpath)
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


def cmd_bench(settings: _Settings) -> int:
    system = str(settings.get("system", required=True))
    report = bench_mod.run_benchmark(
        system,
        reps=settings.get("reps"),
        overrides=_bench_overrides(settings),
        seed=int(settings.get("seed")),
    )
    out = _ensure_out(settings)
    json_path = os.path.join(out, f"bench_{report.system}.json")
    store.write_json(asdict(report), json_path)
    print(
        f"{report.system}: rmse_mean = {report.rmse_mean:.6g} "
        f"(std {report.rmse_std:.2g}, {report.reps} reps, "
        f"{len(report.flagged_reps)} flagged) -> {json_path}"
    )
    return 0


def cmd_sweep(settings: _Settings) -> int:
    system = str(settings.get("system", required=True))
    n_grid = settings.get("n_grid", required=True)
    reps = settings.get("reps")
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
    store.write_json(
        {
            "system": system.lower(),
            "reps": (
                bench_mod.bench_config(system)["reps"]
                if reps is None else reps
            ),
            "seed": int(settings.get("seed")),
            "points": points,
            "loglog_slope": slope,
        },
        json_path,
    )
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
            "dataset", "out", "sigma", "epsilon", "gamma", "diffused_mode",
            "markov_enforce",
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


def _join_signed_values(argv: List[str]) -> List[str]:
    """``--key value`` joined as ``--key=value`` for a value like ``-0.8,0.8``.

    argparse reads a value that starts with ``-`` as an option unless it
    is one plain negative number, so ``--penalty-box -0.8,0.8`` or
    ``--query "-2.0;1.0"`` would exit 2.  Every key of ``_KEYS`` takes
    exactly one value, so a token after its flag that starts with ``-``
    and a digit or ``.`` is always that value.
    """
    out: List[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (
            prev.startswith("--")
            and prev[2:].replace("-", "_") in _KEYS
            and re.match(r"-[0-9.]", tok)
        ):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(
        _join_signed_values(sys.argv[1:] if argv is None else argv)
    )
    with _log_to_stderr(args.log_level):
        try:
            settings = _Settings(args, args.command)
            return _COMMANDS[args.command][0](settings)
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (KmeocError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
