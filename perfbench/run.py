"""Benchmark of the kmeoc pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload solve-s2 --seed 0 --seconds 25 --trace 0

Run from the repository root.  The program is taken from ``src/`` of
the same checkout, not from an installed package.  The last line of
standard output is the result as one JSON object; ``--trace 1`` reports
per-layer metrics instead of end-to-end ones.  A record of the run (its
environment, every operation, and the spans of a traced run) is written
under ``perfbench/out/``.  See perfbench/README.md.
"""

import os

import envinfo

# One OpenBLAS thread, set before numpy loads, here and (through the
# environment) in every process the benchmark starts.
os.environ.update(envinfo.THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve-s2", "solve-vdp", "cli-s1"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kmeoc" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'kmeoc'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    env = envinfo.environment(ROOT)
    env["args"] = vars(args)
    print("env " + json.dumps(env), flush=True)
    steal = envinfo.steal_seconds()
    run = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if steal is not None:
        env["steal_s_during_run"] = envinfo.steal_seconds() - steal

    record = {
        "env": env,
        "result": run["result"],
        "setup_times": run["setup_times"],
        "operations": [asdict(r) for r in run["records"]],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runs = HERE / "out" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run["spans"] is not None:
        (runs / f"{stem}-spans.json").write_text(json.dumps(run["spans"]) + "\n")
    print(json.dumps(run["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
