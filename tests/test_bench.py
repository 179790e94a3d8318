"""Benchmark harness: scoring, repetitions, rollouts, reference gains."""

import dataclasses
import json
import logging
import math

import numpy as np
import pytest

from kmeoc import (
    InputError,
    OracleError,
    RolloutError,
    closed_loop_rollout,
    convergence_sweep,
    riccati_reference,
    rmse_policy,
    run_benchmark,
)
from kmeoc import test_grid as policy_test_grid
from kmeoc.bench import (
    BENCH_DEFAULTS,
    bench_config,
    rmse_table,
    save_report_json,
)
from kmeoc.systems import make_system

from conftest import make_static_system


class TestRmsePolicy:
    def test_zero_for_perfect_policy(self):
        pts = np.linspace(-2, 2, 17)[None, :]
        truth = lambda x: -2.0 * x  # noqa: E731
        assert rmse_policy(truth, truth, pts) == 0.0

    def test_constant_offset(self):
        pts = np.linspace(-2, 2, 17)[None, :]
        est = lambda x: -2.0 * x + 0.25  # noqa: E731
        truth = lambda x: -2.0 * x  # noqa: E731
        assert rmse_policy(est, truth, pts) == pytest.approx(0.25, abs=1e-14)

    def test_multichannel_squared_sum(self):
        pts = np.zeros((2, 3))
        est = lambda x: np.array([3.0, 4.0])  # noqa: E731
        truth = lambda x: np.zeros(2)  # noqa: E731
        # Per point the squared Euclidean error is 25.
        assert rmse_policy(est, truth, pts) == pytest.approx(5.0)

    def test_no_points_rejected(self):
        f = lambda x: x  # noqa: E731
        with pytest.raises(InputError):
            rmse_policy(f, f, np.zeros((1, 0)))

    def test_tables_of_different_shape_rejected(self):
        # (1, M) against (M,) would broadcast to an M x M difference.
        with pytest.raises(InputError, match="equal"):
            rmse_table(np.zeros((1, 4)), np.zeros(4))


class TestTestGrid:
    def test_one_dimensional_systems_get_100_points(self):
        for name in ("s1", "s2", "s3", "s4"):
            system = make_system(name)
            pts = policy_test_grid(system)
            assert pts.shape == (1, 100)
            assert pts.min() >= system.domain.lo[0]
            assert pts.max() <= system.domain.hi[0]

    def test_vdp_gets_30_by_30(self):
        pts = policy_test_grid(make_system("vdp"))
        assert pts.shape == (2, 900)
        assert pts.min() >= -3.0 and pts.max() <= 3.0
        # Both coordinates actually vary.
        assert len(np.unique(pts[0])) == 30
        assert len(np.unique(pts[1])) == 30


class TestBenchConfig:
    def test_defaults_cover_all_systems(self):
        assert set(BENCH_DEFAULTS) == {"s1", "s2", "s3", "s4", "vdp"}
        s1 = bench_config("s1")
        assert s1["N"] == 1000 and s1["sigma"] == 1.2
        assert s1["dt"] == 1e-2 and s1["H"] == 500
        vdp = bench_config("vdp")
        assert vdp["sampler"] == "grid" and vdp["sigma"] == 20.0

    def test_override_applied(self):
        cfg = bench_config("s4", {"N": 123})
        assert cfg["N"] == 123
        assert cfg["sigma"] == BENCH_DEFAULTS["s4"]["sigma"]

    def test_unknown_override_rejected(self):
        with pytest.raises(InputError):
            bench_config("s1", {"n_samples": 10})

    def test_unknown_system_rejected(self):
        with pytest.raises(InputError):
            bench_config("pendulum")


class TestRunBenchmark:
    def test_deterministic_across_calls(self):
        kw = dict(reps=2, overrides={"N": 150, "H": 60}, seed=5)
        a = run_benchmark("s1", **kw)
        b = run_benchmark("s1", **kw)
        assert a.per_rep_rmse == b.per_rep_rmse
        assert a.rmse_mean == b.rmse_mean
        assert a.wall_time_s > 0
        assert a.system == "s1" and a.reps == 2 and a.seed == 5

    def test_seed_changes_draws(self):
        a = run_benchmark("s1", reps=1, overrides={"N": 150, "H": 60}, seed=1)
        b = run_benchmark("s1", reps=1, overrides={"N": 150, "H": 60}, seed=2)
        assert a.per_rep_rmse != b.per_rep_rmse

    def test_divergent_reps_are_flagged_not_fatal(self, caplog):
        with caplog.at_level(logging.WARNING):
            rep = run_benchmark(
                "s1",
                reps=2,
                overrides={"N": 300, "H": 500, "data_epsilon": 0.5},
                seed=0,
            )
        assert rep.flagged_reps  # at least one rep diverged
        assert len(rep.per_rep_rmse) == 2
        for r in rep.flagged_reps:
            assert math.isnan(rep.per_rep_rmse[r])
        ok = [v for v in rep.per_rep_rmse if not math.isnan(v)]
        if ok:
            assert rep.rmse_mean == pytest.approx(np.mean(ok))
        else:
            assert math.isnan(rep.rmse_mean)

    def test_zero_reps_rejected(self):
        with pytest.raises(InputError):
            run_benchmark("s1", reps=0)

    def test_grid_rounding_reported_in_N(self):
        rep = run_benchmark(
            "vdp",
            reps=1,
            overrides={"N": 150, "H": 40, "sigma": 5.0, "gamma": 1e-6},
            seed=0,
        )
        assert rep.N == 144  # 12 x 12 lattice


class TestClosedLoopRollout:
    def test_static_system_stays_put(self):
        system = make_static_system()
        traj = closed_loop_rollout(
            system, None, None, np.array([0.5]), T=0.2, dt=0.1
        )
        assert traj.shape == (1, 3)
        np.testing.assert_array_equal(traj, 0.5)

    def test_escape_raises_rollout_error(self):
        system = dataclasses.replace(
            make_static_system(), drift=lambda x: x
        )
        # x(t) = 2 e^t crosses the 10x domain bound (|x| = 20) near
        # t = ln 10 ~ 2.3, well inside the 5 second horizon.
        with pytest.raises(RolloutError, match="escaped"):
            closed_loop_rollout(
                system, None, None, np.array([2.0]), T=5.0, dt=1e-2
            )

    def test_blowup_raises_rollout_error(self):
        system = dataclasses.replace(
            make_static_system(), drift=lambda x: x**5
        )
        with pytest.raises(RolloutError):
            closed_loop_rollout(
                system, None, None, np.array([2.0]), T=5.0, dt=1e-2
            )

    def test_noise_is_reproducible(self):
        system = make_static_system()
        kw = dict(x0=np.array([0.0]), T=0.5, dt=0.1, epsilon=0.1, seed=9)
        a = closed_loop_rollout(system, None, None, **kw)
        b = closed_loop_rollout(system, None, None, **kw)
        np.testing.assert_array_equal(a, b)
        assert np.std(a) > 0  # the noise actually moved the state

    def test_learned_policy_steers(self, s1_fit):
        ops, sol = s1_fit
        system = make_system("s1")
        traj = closed_loop_rollout(
            system, sol, ops, np.array([2.0]), T=5.0, dt=1e-2
        )
        assert abs(traj[0, -1]) < 0.1
        # The uncontrolled system is unstable in comparison.
        open_traj = closed_loop_rollout(
            system, None, None, np.array([2.0]), T=3.0, dt=1e-2
        )
        assert abs(open_traj[0, -1]) > 1.0

    def test_mismatched_pair_rejected(self, s1_fit):
        ops, sol = s1_fit
        with pytest.raises(InputError):
            closed_loop_rollout(
                make_system("s1"), sol, None, np.array([0.0]), T=1.0, dt=0.1
            )


class TestRiccatiReference:
    def test_known_gains(self):
        assert riccati_reference(0.5, math.sqrt(2.0), 1.0, 1.0) == pytest.approx(
            -math.sqrt(2.0), abs=1e-12
        )
        assert riccati_reference(-1.0, 1.0, 0.0, 1.0) == 0.0
        assert riccati_reference(0.0, 1.0, 1.0, 1.0) == pytest.approx(-1.0)

    def test_closed_loop_is_stable(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            a = rng.uniform(-2, 2)
            b = rng.uniform(0.1, 3)
            q = rng.uniform(0.1, 4)
            r = rng.uniform(0.1, 4)
            gain = riccati_reference(a, b, q, r)
            assert a + b * gain <= 1e-12

    def test_uncontrollable_rejected(self):
        with pytest.raises(OracleError):
            riccati_reference(1.0, 0.0, 1.0, 1.0)

    def test_no_real_root_rejected(self):
        with pytest.raises(OracleError):
            riccati_reference(0.0, 1.0, -10.0, 1.0)

    def test_bad_weight_rejected(self):
        with pytest.raises(InputError):
            riccati_reference(1.0, 1.0, 1.0, 0.0)


class TestConvergenceSweep:
    def test_two_point_sweep(self):
        out = convergence_sweep(
            "s1", [60, 120], reps=1, seed=0, overrides={"H": 60}
        )
        assert [n for n, _ in out] == [60, 120]
        assert all(np.isfinite(r) for _, r in out)

    def test_rejects_unordered_grid(self):
        with pytest.raises(InputError):
            convergence_sweep("s1", [100, 100], reps=1)
        with pytest.raises(InputError):
            convergence_sweep("s1", [200, 100], reps=1)
        with pytest.raises(InputError):
            convergence_sweep("s1", [], reps=1)


class TestReportPersistence:
    def test_json_round_trip_with_nan(self, tmp_path):
        rep = run_benchmark(
            "s1",
            reps=2,
            overrides={"N": 300, "H": 500, "data_epsilon": 0.5},
            seed=0,
        )
        path = tmp_path / "report.json"
        save_report_json(rep, path)
        data = json.loads(path.read_text())
        assert data["system"] == "s1"
        for r in rep.flagged_reps:
            assert data["per_rep_rmse"][r] is None
        assert data["flagged_reps"] == rep.flagged_reps
