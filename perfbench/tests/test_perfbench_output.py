"""The printed result, against BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_names_every_metric_with_its_unit(trace, key):
    p = _run(ROOT, "--workload", "solve-s2", "--seed", "5", "--seconds", "1",
             "--trace", str(trace))
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    assert lines[0].startswith("env ")
    env = json.loads(lines[0][4:])
    assert {"python", "numpy", "scipy", "openblas", "nproc", "thread_env",
            "git_revision", "source_sha256"} <= set(env)
    assert env["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (1, 0)
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = _run(tmp_path, "--workload", "cli-s1", "--seed", "0", "--seconds", "5",
             "--trace", "0")
    assert p.returncode != 0
    assert "correct" not in p.stdout
