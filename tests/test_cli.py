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
from kmeoc import EstimatedOperators, LowRank, load, save
from kmeoc.cli import main
from kmeoc.fpk import (
    embed_initial,
    export_forecast_csv,
    export_weights_csv,
    forecast_observable_path,
    propagate,
)
from kmeoc.systems import load_dataset_csv


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

    def test_sigma_grid_selection_written(self, work, tmp_path, capsys):
        dataset = work / "s1_n400_seed3.csv"
        rc = main(
            [
                "identify", "--dataset", str(dataset),
                "--sigma-grid", "0.8,1.6", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        summary = json.loads(
            (tmp_path / "s1_n400_seed3_fit.json").read_text()
        )
        assert summary["sigma"] in (0.8, 1.6)
        assert len(summary["sigma_grid_scores"]) == 2
        for entry in summary["sigma_grid_scores"]:
            assert set(entry) == {
                "sigma", "validation_error",
                "departure_from_normality", "combined",
            }

    def test_needs_sigma_or_grid(self, work, tmp_path, capsys):
        rc = main(
            [
                "identify", "--dataset", str(work / "s1_n400_seed3.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        assert "sigma" in capsys.readouterr().err

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

        sol = load(work / "s1_n400_seed3_model_solution.bin")
        assert sol.horizon == 200

        with open(work / "s1_n400_seed3_model_policy.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "t", "i", "x1", "v", "u1"]
        assert len(rows) == 1 + 400  # stationary row only
        assert all(r[0] == str(sol.stationary_step) for r in rows[1:])

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
        N = ops.N
        # Only factored operators are persisted: A = 10 I and B = 0 as
        # rank-N factor pairs.
        eye, zero = np.eye(N), np.zeros(N)
        bad = dataclasses.replace(
            ops,
            A=LowRank(10.0 * eye, eye, zero),
            B=[LowRank(0.0 * eye, eye, zero)],
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


class TestPredict:
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
            ("identify", "dt", "snapshot time step (default: the dataset's)"),
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
