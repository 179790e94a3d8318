"""End-to-end command-line pipeline runs, in process via main(argv)."""

import csv
import dataclasses
import json
import logging
import os
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import kmeoc.bench
import kmeoc.cli
import kmeoc.fpk
from kmeoc import (
    EstimatedOperators,
    KernelConfig,
    LowRank,
    fit_krr,
    load,
    save,
)
from kmeoc.cli import main
from kmeoc.fpk import embed_initial, forecast_observable_path, propagate
from kmeoc.store import (
    export_forecast_csv,
    export_weights_csv,
    load_dataset_csv,
)

from conftest import make_static_dataset


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory holding one generated dataset and one fitted model."""
    d = tmp_path_factory.mktemp("cli")
    assert (
        main(
            [
                "generate", "--system", "s1", "--n", "400", "--seed", "3",
                "--epsilon", "0", "--out", str(d),
            ]
        )
        == 0
    )
    dataset = d / "s1_n400_seed3.csv"
    assert dataset.exists()
    assert (
        main(
            [
                "identify", "--dataset", str(dataset), "--sigma", "1.2",
                "--markov-enforce", "true", "--out", str(d),
            ]
        )
        == 0
    )
    return d


@pytest.fixture(scope="module")
def model_path(work):
    return work / "s1_n400_seed3_model.bin"


class TestGenerate:
    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        args = [
            "generate", "--system", "s4", "--n", "12", "--seed", "1",
            "--out", str(tmp_path),
        ]
        assert main(args) == 0
        path = tmp_path / "s4_n12_seed1.csv"
        first = path.read_bytes()
        assert main(args) == 0
        assert path.read_bytes() == first
        assert "12 samples" in capsys.readouterr().out

    def test_unknown_system_exits_2(self, tmp_path, capsys):
        rc = main(
            ["generate", "--system", "nope", "--n", "5", "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--epsilon", "nan", "epsilon"),
            ("--epsilon", "inf", "epsilon"),
            ("--dt", "inf", "dt"),
            ("--n", "0", "N"),
        ],
    )
    def test_bad_setting_exits_2_before_writing(
        self, tmp_path, capsys, flag, value, name
    ):
        out = tmp_path / "out"
        settings = {"--n": "20", flag: value}
        rc = main(
            ["generate", "--system", "s1", "--out", str(out)]
            + [t for item in settings.items() for t in item]
        )
        assert rc == 2
        assert f"{name} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_written_dataset_loads(self, work):
        ds = load_dataset_csv(work / "s1_n400_seed3.csv")
        assert ds.N == 400 and ds.system == "s1" and ds.seed == 3


class TestIdentify:
    def test_model_artifact_and_summary(self, work, model_path):
        ops = load(model_path)
        assert isinstance(ops, EstimatedOperators)
        assert ops.N == 400
        summary = json.loads((work / "s1_n400_seed3_fit.json").read_text())
        assert summary["sigma"] == 1.2
        assert summary["markov_enforced"] is True
        assert np.isfinite(summary["fit_residual_fro"])
        assert np.isfinite(summary["departure_from_normality"])

    def test_grams_built_once(self, work, tmp_path, monkeypatch):
        import kmeoc.estimator
        from kmeoc import KernelConfig, enforce_markov, fit_krr, fit_residual
        from kmeoc.kernel import build_grams

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return build_grams(*args, **kwargs)

        monkeypatch.setattr(kmeoc.cli, "build_grams", counted)
        monkeypatch.setattr(kmeoc.estimator, "build_grams", counted)
        dataset = work / "s1_n400_seed3.csv"
        argv = [
            "identify", "--dataset", str(dataset), "--sigma", "1.2",
            "--markov-enforce", "true", "--out", str(tmp_path),
        ]
        assert main(argv) == 0
        assert len(calls) == 1
        # The residual is the one of Grams built anew for the check.
        monkeypatch.undo()
        ds = load_dataset_csv(dataset)
        cfg = KernelConfig(sigma=1.2, epsilon=0.02, dt=ds.dt)
        ops = enforce_markov(fit_krr(ds, cfg))
        summary = json.loads((tmp_path / "s1_n400_seed3_fit.json").read_text())
        expected = fit_residual(ops, build_grams(ds.X, ds.U, ds.Y, cfg))
        assert summary["fit_residual_fro"] == expected

    def test_summary_does_not_depend_on_the_out_root(self, work, tmp_path):
        # Paths in the summary are relative to its own directory.
        summaries = []
        for root in ("a", "a_much_longer_root_name"):
            data = tmp_path / root / "data"
            data.mkdir(parents=True)
            shutil.copy(work / "s1_n400_seed3.csv", data)
            out = tmp_path / root / "runs"
            argv = [
                "identify", "--dataset", str(data / "s1_n400_seed3.csv"),
                "--sigma", "1.2", "--out", str(out),
            ]
            assert main(argv) == 0
            summaries.append((out / "s1_n400_seed3_fit.json").read_bytes())
        assert summaries[0] == summaries[1]
        summary = json.loads(summaries[0])
        assert summary["dataset"] == os.path.join("..", "data", "s1_n400_seed3.csv")
        assert summary["model_path"] == "s1_n400_seed3_model.bin"

    def test_missing_sigma_exits_2_before_writing(
        self, work, tmp_path, capsys
    ):
        # Neither a flag nor the config file sets sigma.
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma=1e-8\n")
        rc = main(
            [
                "identify", "--dataset", str(work / "s1_n400_seed3.csv"),
                "--config", str(cfg), "--out", str(out),
            ]
        )
        assert rc == 2
        assert (
            "identify: required setting 'sigma' is missing"
            in capsys.readouterr().err
        )
        assert not out.exists()

    def test_sigma_grid_flag_exits_2_before_writing(
        self, work, tmp_path, capsys
    ):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc_info:
            main(
                [
                    "identify", "--dataset", str(work / "s1_n400_seed3.csv"),
                    "--sigma-grid", "0.8,1.6", "--out", str(out),
                ]
            )
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --sigma-grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["sigma_grid=0.8,1.6", "val_fraction=0.2"])
    def test_selection_config_key_exits_2_before_writing(
        self, work, tmp_path, capsys, line
    ):
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# selection\n{line}\n")
        rc = main(
            [
                "identify", "--dataset", str(work / "s1_n400_seed3.csv"),
                "--sigma", "1.2", "--config", str(cfg), "--out", str(out),
            ]
        )
        assert rc == 2
        key = line.split("=")[0]
        assert (
            f"{cfg}:2: unknown config key {key!r}" in capsys.readouterr().err
        )
        assert not out.exists()

    def test_dt_is_the_datasets(self, work, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(
                [
                    "identify", "--dataset", str(work / "s1_n400_seed3.csv"),
                    "--sigma", "1.2", "--dt", "0.5", "--out", str(tmp_path),
                ]
            )
        assert exc_info.value.code == 2

    def test_b_block_orientation_is_no_setting(self, work, tmp_path):
        base = [
            "identify", "--dataset", str(work / "s1_n400_seed3.csv"),
            "--sigma", "1.2", "--out", str(tmp_path),
        ]
        with pytest.raises(SystemExit) as exc_info:
            main(base + ["--b-block-orientation", "row"])
        assert exc_info.value.code == 2
        cfg = tmp_path / "orientation.cfg"
        cfg.write_text("b_block_orientation=row\n")
        assert main(base + ["--config", str(cfg)]) == 2

    def test_needs_sigma_or_grid(self, work, tmp_path, capsys):
        rc = main(
            [
                "identify", "--dataset", str(work / "s1_n400_seed3.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--sigma", "nan"),
            ("--sigma", "inf"),
            ("--gamma", "nan"),
            ("--gamma", "inf"),
            ("--epsilon", "nan"),
        ],
    )
    def test_non_finite_setting_exits_2_before_writing(
        self, work, tmp_path, capsys, flag, value
    ):
        out = tmp_path / "out"
        settings = {"--sigma": "1.2", flag: value}
        rc = main(
            [
                "identify", "--dataset", str(work / "s1_n400_seed3.csv"),
                "--out", str(out),
            ]
            + [t for item in settings.items() for t in item]
        )
        assert rc == 2
        assert f"{flag[2:]} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def _with_y1(self, work, tmp_path, rows, value):
        """The generated dataset with y1 of the given data rows replaced."""
        lines = (work / "s1_n400_seed3.csv").read_text().splitlines()
        header = lines[1].split(",")
        for i in rows:
            fields = lines[2 + i].split(",")
            fields[header.index("y1")] = value
            lines[2 + i] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        return bad

    def test_non_finite_dataset_exits_2(self, work, tmp_path, capsys):
        bad = self._with_y1(work, tmp_path, [7, 30], "nan")
        rc = main(
            [
                "identify", "--dataset", str(bad), "--sigma", "1.2",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "dataset Y is not finite at sample 7" in err
        assert "Traceback" not in err

    def test_dataset_without_successors_exits_2(self, work, tmp_path, capsys):
        bad = self._with_y1(work, tmp_path, range(400), "nan")
        rc = main(
            [
                "identify", "--dataset", str(bad), "--sigma", "1.2",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "dataset Y is not finite at sample 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, where",
        [
            ("# dt=0.01 epsilon=0 seed=0\nx1,u1,y1,cost\n", "no data rows"),
            ("# epsilon=0 seed=0\nx1,u1,y1,cost\n1,0,1,0\n", ":1:"),
            ("# dt=0.01 epsilon=0 seed=0\nx1,u1,y1,cost\n1,0,a,0\n", ":3:"),
            (
                "# dt=0.01 epsilon=0 seed=0\nx1,u1,y1,cost\n1,0,1,0\n1,0,1\n",
                ":4:",
            ),
        ],
        ids=["no-rows", "no-dt", "non-numeric", "ragged"],
    )
    def test_malformed_dataset_exits_2(self, tmp_path, capsys, text, where):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        rc = main(
            [
                "identify", "--dataset", str(bad), "--sigma", "1.0",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert str(bad) in err and where in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "header",
        ["x1,u1,y1", "y1,u1,x1,cost", "x1,u1,y1,z1,cost"],
        ids=["missing-cost", "swapped", "unknown-column"],
    )
    def test_dataset_header_other_than_written_exits_2(
        self, tmp_path, capsys, header
    ):
        # Columns are read by position, so any header but the one
        # save_dataset_csv writes would load columns under wrong names.
        bad = tmp_path / "bad.csv"
        width = header.count(",") + 1
        rows = [",".join(["0.5"] * width)] * 4
        lines = ["# dt=0.01 epsilon=0 seed=0", header, *rows]
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        rc = main(
            [
                "identify", "--dataset", str(bad), "--sigma", "1.0",
                "--out", str(out),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err and "Traceback" not in err
        assert not out.exists()

    def test_undecodable_dataset_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe")
        rc = main(
            [
                "identify", "--dataset", str(bad), "--sigma", "1.0",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err

    def test_singular_gram_with_zero_gamma_exits_3(self, tmp_path, capsys):
        # A dataset of identical rows with regularization disabled: the
        # fit must fail as a runtime error that points at gamma.
        lines = ["# dt=0.01 epsilon=0 seed=0 system=", "x1,u1,y1,cost"]
        lines += ["1,0.5,1,0.01"] * 10
        bad = tmp_path / "dup.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(
            [
                "identify", "--dataset", str(bad), "--sigma", "1.0",
                "--gamma", "0", "--out", str(tmp_path),
            ]
        )
        assert rc == 3
        assert "gamma" in capsys.readouterr().err


class TestLogLevel:
    def test_debug_reports_the_recursion(self, model_path, tmp_path, capsys):
        args = [
            "control", "--model", str(model_path), "--horizon", "500",
            "--out", str(tmp_path),
        ]
        assert main(args + ["--log-level", "debug"]) == 0
        err = capsys.readouterr().err
        assert "DEBUG kmeoc.hjb: backward recursion on the " in err
        assert "n_u = 1, N = 400" in err
        assert "policy stationary at step" in err
        assert "steps computed" in err

    def test_default_level_hides_debug(self, model_path, tmp_path, capsys):
        args = [
            "control", "--model", str(model_path), "--horizon", "500",
            "--out", str(tmp_path),
        ]
        assert main(args) == 0
        assert "DEBUG" not in capsys.readouterr().err

    def test_no_flag_keeps_the_callers_logging(
        self, model_path, tmp_path, caplog
    ):
        args = [
            "control", "--model", str(model_path), "--horizon", "500",
            "--out", str(tmp_path),
        ]
        with caplog.at_level("DEBUG", logger="kmeoc"):
            assert main(args) == 0
        assert "policy stationary at step" in caplog.text

    def test_flag_prints_each_record_once(self, model_path, tmp_path, capsys):
        # An application that logs to stderr through the root logger.
        root_handler = logging.StreamHandler(sys.stderr)
        logging.getLogger().addHandler(root_handler)
        package_log = logging.getLogger("kmeoc")
        level = package_log.level
        try:
            rc = main(
                [
                    "control", "--model", str(model_path), "--horizon",
                    "500", "--out", str(tmp_path), "--log-level", "debug",
                ]
            )
        finally:
            logging.getLogger().removeHandler(root_handler)
        assert rc == 0
        assert capsys.readouterr().err.count("policy stationary at step") == 1
        assert package_log.level == level
        assert package_log.propagate

    def test_unknown_level_exits_2(self, model_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["control", "--model", str(model_path), "--log-level", "loud"])
        assert exc_info.value.code == 2


class TestControl:
    def test_horizon_too_large_to_allocate_exits_2(
        self, model_path, tmp_path, capsys
    ):
        out = tmp_path / "out"
        rc = main(
            [
                "control", "--model", str(model_path),
                "--horizon", "100000000000", "--out", str(out),
            ]
        )
        assert rc == 2
        assert "H = 100000000000 steps" in capsys.readouterr().err
        assert not out.exists()

    def test_policy_table_and_solution(self, work, model_path, capsys):
        rc = main(
            [
                "control", "--model", str(model_path), "--horizon", "200",
                "--save-solution", "true", "--query", "1.0;-2.0",
                "--out", str(work),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "pi(1.0)" in out and "pi(-2.0)" in out

        # The saved solution is the stationary law in the horizon-1 form.
        sol = load(work / "s1_n400_seed3_model_solution.bin")
        assert (sol.horizon, sol.converged_at) == (1, 0)

        with open(work / "s1_n400_seed3_model_policy.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "t", "i", "x1", "v", "u1"]
        assert len(rows) == 1 + 400  # stationary row only
        assert len({r[0] for r in rows[1:]}) == 1
        u = np.array([float(r[-1]) for r in rows[1:]])
        assert u.tobytes() == sol.stationary_policy()[0].tobytes()

        with open(work / "s1_n400_seed3_model_queries.csv", newline="") as fh:
            qrows = list(csv.reader(fh))
        assert qrows[0] == ["x1", "u1"]
        assert len(qrows) == 3
        assert float(qrows[1][0]) == 1.0
        # The learned gain is negative feedback, so signs flip.
        assert float(qrows[1][1]) < 0 < float(qrows[2][1])

    def test_single_step_value_equals_stage_cost(
        self, work, model_path, tmp_path
    ):
        rc = main(
            [
                "control", "--model", str(model_path), "--horizon", "1",
                "--export-steps", "all", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        ds = load_dataset_csv(work / "s1_n400_seed3.csv")
        with open(
            tmp_path / "s1_n400_seed3_model_policy.csv", newline=""
        ) as fh:
            rows = list(csv.reader(fh))[1:]
        got = np.array([float(r[4]) for r in rows])
        np.testing.assert_allclose(got, ds.cost, atol=1e-15)

    def test_unstable_model_exits_3(self, model_path, tmp_path, capsys):
        ops = load(model_path)
        # Only operators over the fitted right factor are persisted:
        # A = 10 times the fitted one and B = 0.
        P, R, s = ops.A.left, ops.A.right, ops.A.shift
        bad = dataclasses.replace(
            ops,
            A=LowRank(10.0 * P, R, s),
            B=[LowRank(0.0 * P, R, 0.0 * s)],
        )
        bad_path = tmp_path / "unstable_model.bin"
        save(bad, bad_path)
        rc = main(
            [
                "control", "--model", str(bad_path), "--horizon", "500",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 3
        assert "sigma" in capsys.readouterr().err

    def test_bad_export_steps_exits_2(self, model_path, tmp_path):
        rc = main(
            [
                "control", "--model", str(model_path), "--horizon", "5",
                "--export-steps", "everything", "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("query", ["1.0;abc", "1.0;0.5,2.0"])
    def test_bad_query_exits_2_before_writing(
        self, model_path, tmp_path, capsys, query
    ):
        # Every query is checked before the recursion runs, so a bad one
        # leaves no policy table, solution or half-written queries file.
        rc = main(
            [
                "control", "--model", str(model_path), "--horizon", "5",
                "--save-solution", "true", "--query", query,
                "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        assert query.split(";")[1] in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


    @pytest.mark.parametrize("query", ["nan;1.0", "1.0;inf"])
    def test_non_finite_query_exits_2_before_writing(
        self, model_path, tmp_path, capsys, query
    ):
        # Far off the training states the kernel row is 0, so inf would
        # otherwise read as the control 0.
        out = tmp_path / "out"
        rc = main(
            [
                "control", "--model", str(model_path), "--horizon", "5",
                "--save-solution", "true", "--query", query, "--out", str(out),
            ]
        )
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stop_tol", ["-1", "nan"])
    def test_bad_stop_tol_exits_2(self, model_path, tmp_path, capsys, stop_tol):
        # A negative or NaN tolerance would turn the stop rule off.
        out = tmp_path / "out"
        rc = main(
            [
                "control", "--model", str(model_path), "--horizon", "5",
                "--stop-tol", stop_tol, "--out", str(out),
            ]
        )
        assert rc == 2
        assert "stop_tol" in capsys.readouterr().err
        assert not out.exists()


def _outputs(argv, out, capsys):
    """(exit code, stdout with ``out`` masked, {file name: bytes})."""
    rc = main(argv + ["--out", str(out)])
    text = capsys.readouterr().out.replace(str(out), "OUT")
    return rc, text, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestSignedValues:
    """A value that starts with '-' follows its flag with or without '='."""

    @pytest.mark.parametrize(
        "flag, value", [("--penalty-box", "-0.8,0.8"), ("--query", "-2.0;1.0")]
    )
    def test_control(self, model_path, tmp_path, capsys, flag, value):
        base = ["control", "--model", str(model_path), "--horizon", "50"]
        separate = _outputs(base + [flag, value], tmp_path / "a", capsys)
        joined = _outputs(base + [f"{flag}={value}"], tmp_path / "b", capsys)
        assert separate[0] == 0
        assert separate == joined

    def test_x0_on_a_2d_model(self, tmp_path, capsys):
        ds = make_static_dataset(N=60, n_x=2)
        cfg = KernelConfig(sigma=1.0, epsilon=0.0, dt=1e-2, gamma=1e-8)
        model = tmp_path / "plane_model.bin"
        save(fit_krr(ds, cfg), model)
        base = ["predict", "--model", str(model), "--steps", "5"]
        separate = _outputs(base + ["--x0", "-1.0,0.5"], tmp_path / "a", capsys)
        joined = _outputs(base + ["--x0=-1.0,0.5"], tmp_path / "b", capsys)
        assert separate[0] == 0
        assert separate == joined


class TestPredict:
    def test_steps_too_many_to_allocate_exit_2(
        self, model_path, tmp_path, capsys
    ):
        out = tmp_path / "out"
        rc = main(
            [
                "predict", "--model", str(model_path), "--x0", "1.0",
                "--steps", "100000000000", "--out", str(out),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "steps = 100000000000: the forecast does not fit" in err
        assert not out.exists()

    def test_weights_too_many_to_allocate_exit_2(
        self, model_path, tmp_path, capsys, monkeypatch
    ):
        # The dump's table is allocated before the first step.
        def never(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(kmeoc.cli, "propagate", never)
        out = tmp_path / "out"
        rc = main(
            [
                "predict", "--model", str(model_path), "--x0", "1.0",
                "--steps", "100000000000", "--dump-weights", "true",
                "--out", str(out),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "steps = 100000000000: the 100000000001 x 400 table" in err
        assert not out.exists()

    @pytest.mark.parametrize("dump", [[], ["--dump-weights", "true"]])
    def test_negative_steps_exit_2_before_writing(
        self, model_path, tmp_path, capsys, dump
    ):
        out = tmp_path / "out"
        rc = main(
            [
                "predict", "--model", str(model_path), "--x0", "1.0",
                "--steps", "-1", "--out", str(out),
            ]
            + dump
        )
        assert rc == 2
        assert "steps must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_constant_observable_mass_is_conserved(
        self, model_path, tmp_path
    ):
        rc = main(
            [
                "predict", "--model", str(model_path), "--x0", "0.5",
                "--observable", "one", "--steps", "30",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        with open(
            tmp_path / "s1_n400_seed3_model_forecast.csv", newline=""
        ) as fh:
            vals = [float(r[2]) for r in list(csv.reader(fh))[1:]]
        assert len(vals) == 31
        # Markov enforcement preserves total mass step to step.
        for v in vals:
            assert v == pytest.approx(vals[0], abs=1e-9)

    def test_dump_weights_propagates_once(
        self, model_path, tmp_path, monkeypatch
    ):
        # Reference files made the earlier way: the forecast path, then a
        # second propagation pass for the weights.
        ops = load(model_path)
        z0 = embed_initial(ops, np.array([[1.0]]))
        table = np.zeros((ops.n_u, ops.N))
        psi = np.sum(ops.dataset_ref.X**2, axis=0)
        steps = 20
        ref_forecast = tmp_path / "ref_forecast.csv"
        export_forecast_csv(
            forecast_observable_path(ops, z0, table, steps, psi),
            ops.kernel_cfg.dt, ref_forecast,
        )
        zs = [z0]
        for _ in range(steps):
            zs.append(propagate(ops, zs[-1], table))
        ref_weights = tmp_path / "ref_weights.csv"
        export_weights_csv(zs, ref_weights)

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return propagate(*args, **kwargs)

        monkeypatch.setattr(kmeoc.cli, "propagate", counting)
        monkeypatch.setattr(kmeoc.fpk, "propagate", counting)
        out = tmp_path / "out"
        rc = main(
            [
                "predict", "--model", str(model_path), "--x0", "1.0",
                "--steps", str(steps), "--dump-weights", "true",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert len(calls) == steps
        stem = out / "s1_n400_seed3_model"
        assert (
            Path(f"{stem}_forecast.csv").read_bytes()
            == ref_forecast.read_bytes()
        )
        assert (
            Path(f"{stem}_weights.csv").read_bytes() == ref_weights.read_bytes()
        )

    def test_plain_predict_goes_through_the_forecast_path(
        self, model_path, tmp_path, monkeypatch
    ):
        calls = {"forecast": 0, "propagate": 0}

        def forecast(*args, **kwargs):
            calls["forecast"] += 1
            return forecast_observable_path(*args, **kwargs)

        def counting(*args, **kwargs):
            calls["propagate"] += 1
            return propagate(*args, **kwargs)

        monkeypatch.setattr(kmeoc.cli, "forecast_observable_path", forecast)
        monkeypatch.setattr(kmeoc.fpk, "propagate", counting)
        rc = main(
            [
                "predict", "--model", str(model_path), "--x0", "1.0",
                "--steps", "12", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert calls == {"forecast": 1, "propagate": 12}

    def test_learned_policy_needs_solution(self, model_path, tmp_path, capsys):
        rc = main(
            [
                "predict", "--model", str(model_path), "--x0", "0.5",
                "--policy", "learned", "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        assert "solution" in capsys.readouterr().err

    def test_learned_policy_runs_with_solution(self, work, model_path, tmp_path):
        sol_path = work / "s1_n400_seed3_model_solution.bin"
        assert sol_path.exists()  # written by the control test above
        rc = main(
            [
                "predict", "--model", str(model_path), "--x0", "1.0",
                "--policy", "learned", "--solution", str(sol_path),
                "--steps", "10", "--out", str(tmp_path),
            ]
        )
        assert rc == 0

    def test_learned_forecast_is_the_in_memory_laws(
        self, model_path, tmp_path
    ):
        # The forecast under a saved solution has the bytes of one under
        # the stationary law of the same recursion held in memory.
        from kmeoc import ControlPenalty, khjb_recursion

        argv = ["--model", str(model_path), "--out", str(tmp_path)]
        assert main(
            ["control", "--horizon", "200", "--save-solution", "true", *argv]
        ) == 0
        assert main(
            [
                "predict", "--x0", "1.0", "--policy", "learned",
                "--solution", str(tmp_path / "s1_n400_seed3_model_solution.bin"),
                "--steps", "20", *argv,
            ]
        ) == 0
        ops = load(model_path)
        ds = ops.dataset_ref
        sol = khjb_recursion(
            ops, ds.cost / ds.dt, ControlPenalty(weights=np.array([1.0])), 200,
            stop_tol=1e-6,
        )
        values = forecast_observable_path(
            ops, embed_initial(ops, np.array([[1.0]])),
            sol.stationary_policy(), 20, ds.X[0] ** 2,
        )
        expected = tmp_path / "expected.csv"
        export_forecast_csv(values, ops.kernel_cfg.dt, expected)
        assert (tmp_path / "s1_n400_seed3_model_forecast.csv").read_bytes() == (
            expected.read_bytes()
        )

    def test_solution_of_another_model_exits_2_before_writing(
        self, model_path, tmp_path, capsys
    ):
        # The same system and N from another data seed: the solution
        # fits the model's shapes but not its factors.
        other = tmp_path / "other"
        stem = other / "s1_n400_seed4"
        for argv in (
            ["generate", "--system", "s1", "--n", "400", "--seed", "4",
             "--epsilon", "0"],
            ["identify", "--dataset", f"{stem}.csv", "--sigma", "1.2",
             "--markov-enforce", "true"],
            ["control", "--model", f"{stem}_model.bin", "--horizon", "50",
             "--save-solution", "true"],
        ):
            assert main(argv + ["--out", str(other)]) == 0
        out = tmp_path / "out"
        rc = main(
            [
                "predict", "--model", str(model_path), "--x0", "1.0",
                "--policy", "learned",
                "--solution", f"{stem}_model_solution.bin",
                "--out", str(out),
            ]
        )
        assert rc == 2
        assert "not computed from this model" in capsys.readouterr().err
        assert not out.exists()

    def test_model_artifact_rejected_as_solution(
        self, model_path, tmp_path, capsys
    ):
        rc = main(
            [
                "predict", "--model", str(model_path), "--x0", "1.0",
                "--policy", "learned", "--solution", str(model_path),
                "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        assert "value-solution" in capsys.readouterr().err

    def test_x0_xor_init_csv(self, model_path, tmp_path, capsys):
        base = ["predict", "--model", str(model_path), "--out", str(tmp_path)]
        assert main(base) == 2
        init = tmp_path / "init.csv"
        init.write_text("0.1\n0.2\n-0.3\n")
        assert main(base + ["--init-csv", str(init)]) == 0
        assert main(base + ["--x0", "0.1", "--init-csv", str(init)]) == 2

    @pytest.mark.parametrize(
        "source",
        [["--x0", "nan"], ["--x0", "inf"], ["--init-csv"]],
        ids=["x0-nan", "x0-inf", "init-csv"],
    )
    def test_non_finite_state_exits_2_before_writing(
        self, model_path, tmp_path, capsys, source
    ):
        if source == ["--init-csv"]:
            init = tmp_path / "init.csv"
            init.write_text("0.1\nnan\n")
            source = source + [str(init)]
        out = tmp_path / "out"
        rc = main(
            ["predict", "--model", str(model_path), "--out", str(out)] + source
        )
        assert rc == 2
        assert "X0 has a non-finite entry" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_init_csv_exits_2(self, model_path, tmp_path, capsys):
        init = tmp_path / "init.csv"
        init.write_text("0.1\nabc\n")
        rc = main(
            [
                "predict", "--model", str(model_path), "--init-csv",
                str(init), "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert str(init) in err and "abc" in err

    @pytest.mark.parametrize(
        "text, line",
        [("0.1\nabc\n", 2), ("# c\n\n0.5\nabc\n", 4), ("0.1\n0.2,0.3\n", 2)],
    )
    def test_bad_init_csv_names_its_line(
        self, model_path, tmp_path, capsys, text, line
    ):
        init = tmp_path / "init.csv"
        init.write_text(text)
        rc = main(
            [
                "predict", "--model", str(model_path), "--init-csv",
                str(init), "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        assert f"{init}:{line}: " in capsys.readouterr().err

    def test_undecodable_init_csv_exits_2(self, model_path, tmp_path, capsys):
        init = tmp_path / "init.csv"
        init.write_bytes(b"\xff\xfe")
        rc = main(
            [
                "predict", "--model", str(model_path), "--init-csv",
                str(init), "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        assert str(init) in capsys.readouterr().err

    def test_basis_is_no_setting(self, model_path, tmp_path):
        base = [
            "predict", "--model", str(model_path), "--x0", "0.1",
            "--out", str(tmp_path),
        ]
        with pytest.raises(SystemExit) as exc_info:
            main(base + ["--basis", "y"])
        assert exc_info.value.code == 2
        cfg = tmp_path / "basis.cfg"
        cfg.write_text("basis=y\n")
        assert main(base + ["--config", str(cfg)]) == 2

    def test_missing_model_file_exits_3(self, tmp_path):
        rc = main(
            [
                "predict", "--model", str(tmp_path / "ghost.bin"),
                "--x0", "0.0", "--out", str(tmp_path),
            ]
        )
        assert rc == 3


class TestBench:
    def test_small_run_writes_reports(self, tmp_path, capsys):
        rc = main(
            [
                "bench", "--system", "s1", "--reps", "2", "--n", "150",
                "--horizon", "60", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert "rmse_mean" in capsys.readouterr().out
        assert not (tmp_path / "bench_s1.csv").exists()  # JSON only
        data = json.loads((tmp_path / "bench_s1.json").read_text())
        assert data["reps"] == 2 and data["N"] == 150

    def test_zero_reps_exits_2(self, tmp_path):
        rc = main(
            ["bench", "--system", "s1", "--reps", "0", "--out", str(tmp_path)]
        )
        assert rc == 2


class TestNegativeSeed:
    """A seed below 0 is a configuration error wherever it enters: exit 2,
    no traceback, and nothing written."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--system", "s1", "--n", "10"],
            [
                "bench", "--system", "s1", "--reps", "1", "--n", "50",
                "--horizon", "20",
            ],
        ],
        ids=["generate", "bench"],
    )
    def test_flag_exits_2_before_writing(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc_info:
            main(argv + ["--seed", "-1", "--out", str(out)])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: expected an integer >= 0, got '-1'" in err
        assert not out.exists()

    def test_config_value_exits_2_before_writing(self, tmp_path, capsys):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("seed=-1\n")
        out = tmp_path / "out"
        rc = main(
            [
                "generate", "--system", "s1", "--n", "10",
                "--config", str(cfg), "--out", str(out),
            ]
        )
        assert rc == 2
        assert f"{cfg}:1: bad value for 'seed'" in capsys.readouterr().err
        assert not out.exists()

    def test_dataset_seed_exits_2_before_writing(self, work, tmp_path, capsys):
        text = (work / "s1_n400_seed3.csv").read_text()
        dataset = tmp_path / "neg.csv"
        dataset.write_text(text.replace("seed=3", "seed=-3", 1))
        out = tmp_path / "out"
        rc = main(
            [
                "identify", "--dataset", str(dataset),
                "--sigma", "1.2", "--out", str(out),
            ]
        )
        assert rc == 2
        assert "seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_two_point_sweep_reports_slope(self, tmp_path, capsys):
        rc = main(
            [
                "sweep", "--system", "s1", "--n-grid", "60,120",
                "--reps", "1", "--horizon", "60", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert "slope" in capsys.readouterr().out
        assert not (tmp_path / "sweep_s1.csv").exists()  # JSON only
        data = json.loads((tmp_path / "sweep_s1.json").read_text())
        assert data["loglog_slope"] is not None
        assert [n for n, _ in data["points"]] == [60, 120]

    def test_unset_reps_use_the_system_count(self, tmp_path, monkeypatch):
        # As in `kmeoc bench`: an unset --reps reaches run_benchmark as
        # None, which takes the system's own count (1 for vdp).
        calls = []

        def fake(name, reps=None, overrides=None, seed=0):
            calls.append(reps)
            return SimpleNamespace(rmse_mean=0.1)

        monkeypatch.setattr(kmeoc.bench, "run_benchmark", fake)
        rc = main(
            ["sweep", "--system", "vdp", "--n-grid", "100,400",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        assert calls == [None, None]
        data = json.loads((tmp_path / "sweep_vdp.json").read_text())
        assert data["reps"] == 1

    def test_diverged_point_is_null(self, tmp_path, monkeypatch):
        # The JSON is the sweep's only record, so it must stay strict
        # JSON when every repetition at some N diverged.
        def fake(name, reps=None, overrides=None, seed=0):
            return SimpleNamespace(
                rmse_mean=np.nan if overrides["N"] == 60 else 0.1
            )

        monkeypatch.setattr(kmeoc.bench, "run_benchmark", fake)
        rc = main(
            ["sweep", "--system", "s1", "--n-grid", "60,120", "--reps", "1",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        text = (tmp_path / "sweep_s1.json").read_text()
        assert "NaN" not in text
        assert json.loads(text)["points"] == [[60, None], [120, 0.1]]


class TestMalformedValues:
    """A bool or list value that does not parse is a configuration error.

    As a flag argparse reports it, naming the flag; in a config file the
    message names the file and line.  Either way: exit 2, no traceback,
    and nothing written.
    """

    # Each bool or list key: its command, the valid arguments it runs
    # with otherwise, and a malformed value.
    CASES = {
        "markov_enforce": ("identify", ["--sigma", "1.2"], "maybe"),
        "save_solution": ("control", [], "maybe"),
        "penalty_weights": ("control", [], "abc"),
        "dump_weights": ("predict", ["--x0", "1.0"], "maybe"),
        "x0": ("predict", [], "1,x"),
        "n_grid": ("sweep", ["--system", "s1"], "1,x"),
    }

    def test_cases_cover_every_bool_and_list_key(self):
        assert set(self.CASES) == {
            key
            for key, (parse, _, _) in kmeoc.cli._KEYS.items()
            if parse in kmeoc.cli._METAVARS
        }

    def _argv(self, work, key, out):
        command, extra, _ = self.CASES[key]
        inputs = {
            "identify": ["--dataset", str(work / "s1_n400_seed3.csv")],
            "control": ["--model", str(work / "s1_n400_seed3_model.bin")],
            "predict": ["--model", str(work / "s1_n400_seed3_model.bin")],
            "sweep": [],
        }
        return [command] + inputs[command] + extra + ["--out", str(out)]

    @pytest.mark.parametrize("key", sorted(CASES))
    def test_flag_exits_2_before_writing(self, work, tmp_path, capsys, key):
        out = tmp_path / "out"
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc_info:
            main(self._argv(work, key, out) + [flag, self.CASES[key][2]])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err and "Traceback" not in err
        # The message names the expected form, not the parser function.
        form = {
            kmeoc.cli._parse_bool: "a boolean",
            kmeoc.cli._parse_floats: "a comma list of numbers",
            kmeoc.cli._parse_ints: "a comma list of integers",
        }[kmeoc.cli._KEYS[key][0]]
        assert f"expected {form}" in err and "_parse_" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key", sorted(CASES))
    def test_config_value_exits_2_before_writing(
        self, work, tmp_path, capsys, key
    ):
        out = tmp_path / "out"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# one bad value\n{key}={self.CASES[key][2]}\n")
        rc = main(self._argv(work, key, out) + ["--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2: bad value for {key!r}" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestConfigPlumbing:
    def test_help_lists_settings(self, capsys):
        # Every command's help lists each key that command reads.
        for command, (_, _, keys) in kmeoc.cli._COMMANDS.items():
            with pytest.raises(SystemExit) as exc_info:
                main([command, "--help"])
            assert exc_info.value.code == 0
            text = capsys.readouterr().out
            for key in keys:
                assert "--" + key.replace("_", "-") in text, (command, key)

    def test_key_registry_has_no_orphans(self):
        used = set()
        for _, _, keys in kmeoc.cli._COMMANDS.values():
            assert len(set(keys)) == len(keys)
            used.update(keys)
        assert set(kmeoc.cli._KEYS) == used

    def test_help_shows_table_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["control", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "stationary-policy stopping tolerance (default 1e-06)" in text
        for key in kmeoc.cli._COMMANDS["control"][2]:
            _, default, help_text = kmeoc.cli._KEYS[key]
            if default is not None:
                shown = f"{help_text} (default {kmeoc.cli._show(default)})"
                assert shown in text, key

    @pytest.mark.parametrize(
        "command, key, shown",
        [
            ("bench", "reps", "benchmark repetitions (default: per system)"),
            ("sweep", "reps", "benchmark repetitions (default: per system)"),
            ("generate", "dt", "snapshot time step (default 0.01)"),
        ],
    )
    def test_help_shows_the_default_the_command_uses(
        self, capsys, command, key, shown
    ):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert shown in " ".join(capsys.readouterr().out.split())

    def test_bench_keys_are_bench_settings(self):
        from kmeoc.bench import bench_config

        for command in ("bench", "sweep"):
            keys = kmeoc.cli._COMMANDS[command][2]
            for key in keys:
                if key in ("system", "reps", "seed", "out", "n_grid"):
                    continue
                settings = kmeoc.cli._Settings(
                    kmeoc.cli._build_parser().parse_args(
                        [command, "--" + key.replace("_", "-"), "1"]
                    ),
                    command,
                )
                overrides = kmeoc.cli._bench_overrides(settings)
                assert len(overrides) == 1, (command, key)
                bench_config("s1", overrides)  # raises on an unknown name

    @pytest.mark.parametrize("command", ["identify", "control", "predict"])
    def test_seed_is_no_flag_of_the_model_commands(self, command, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--seed", "99", "--out", str(tmp_path)])
        assert exc_info.value.code == 2

    def test_shared_config_file_may_set_seed(self, model_path, tmp_path):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(f"seed=99\nout={tmp_path}\n")
        rc = main(
            [
                "predict", "--model", str(model_path), "--x0", "0.1",
                "--steps", "2", "--config", str(cfg),
            ]
        )
        assert rc == 0

    def test_config_file_supplies_values(self, work, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "sigma = 1.0  # kernel scale\nout = {}\n".format(tmp_path)
        )
        rc = main(
            [
                "identify", "--dataset", str(work / "s1_n400_seed3.csv"),
                "--config", str(cfg),
            ]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "s1_n400_seed3_fit.json").read_text())
        assert summary["sigma"] == 1.0

    def test_flag_overrides_config_file(self, work, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"sigma=0.5\nout={tmp_path}\n")
        rc = main(
            [
                "identify", "--dataset", str(work / "s1_n400_seed3.csv"),
                "--config", str(cfg), "--sigma", "2.0",
            ]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "s1_n400_seed3_fit.json").read_text())
        assert summary["sigma"] == 2.0

    def test_unknown_config_key_exits_2(self, work, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bandwidth=1.0\n")
        rc = main(
            [
                "identify", "--dataset", str(work / "s1_n400_seed3.csv"),
                "--config", str(cfg), "--sigma", "1.0",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        assert "bandwidth" in capsys.readouterr().err

    def test_undecodable_config_file_exits_2(self, work, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe")
        rc = main(
            [
                "identify", "--dataset", str(work / "s1_n400_seed3.csv"),
                "--config", str(cfg), "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "Traceback" not in err

    def test_malformed_config_line_exits_2(self, work, tmp_path):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("sigma\n")
        rc = main(
            [
                "identify", "--dataset", str(work / "s1_n400_seed3.csv"),
                "--config", str(cfg), "--out", str(tmp_path),
            ]
        )
        assert rc == 2

    def test_missing_config_file_exits_2_before_writing(
        self, work, tmp_path, capsys
    ):
        cfg, out = tmp_path / "absent.cfg", tmp_path / "out"
        rc = main(
            [
                "identify", "--dataset", str(work / "s1_n400_seed3.csv"),
                "--sigma", "1.2", "--config", str(cfg), "--out", str(out),
            ]
        )
        assert rc == 2
        assert f"cannot read config file {str(cfg)!r}" in capsys.readouterr().err
        assert not out.exists()
