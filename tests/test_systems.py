"""System registry, integrator, dataset generation, and CSV persistence."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from kmeoc import (
    SYSTEM_NAMES,
    Box,
    Dataset,
    InputError,
    IntegrationError,
    KernelConfig,
    euler_maruyama_step,
    generate_dataset,
    make_system,
)
from kmeoc.store import load_dataset_csv, save_dataset_csv

from conftest import make_static_system


class TestBox:
    def test_contains_and_sample(self):
        box = Box(lo=np.array([-1.0, 0.0]), hi=np.array([1.0, 2.0]))
        assert box.dim == 2
        assert box.contains(np.array([0.0, 1.0]))
        assert not box.contains(np.array([0.0, 2.5]))
        rng = np.random.default_rng(0)
        pts = box.sample(rng, 50)
        assert pts.shape == (2, 50)
        assert np.all(pts >= box.lo[:, None]) and np.all(pts <= box.hi[:, None])

    def test_degenerate_rejected(self):
        with pytest.raises(InputError):
            Box(lo=np.array([1.0]), hi=np.array([1.0]))


class TestRegistry:
    def test_exactly_five_systems(self):
        assert SYSTEM_NAMES == ("s1", "s2", "s3", "s4", "vdp")

    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_wellposed(self, name):
        # Dynamics and stage cost are finite on a sample of the domain,
        # evaluated column by column, and one state gives its column.
        system = make_system(name)
        rng = np.random.default_rng(0)
        X = system.domain.sample(rng, 256)
        if system.state_filter is not None:
            X = X[:, system.state_filter(X)]
        U = system.control_box.sample(rng, X.shape[1])
        F = system.dynamics(X, U)
        cost = system.state_cost(X)
        assert F.shape == X.shape and cost.shape == (X.shape[1],)
        assert np.all(np.isfinite(F)) and np.all(np.isfinite(cost))
        for j in range(X.shape[1]):
            np.testing.assert_allclose(
                system.dynamics(X[:, j], U[:, j]), F[:, j], rtol=1e-13
            )

    def test_unknown_name_lists_options(self):
        with pytest.raises(InputError, match="s1"):
            make_system("lorenz")

    def test_s1_ground_truth_is_lqr_gain(self):
        s1 = make_system("s1")
        for v in (2.0, -1.0, 0.5):
            np.testing.assert_allclose(
                s1.ground_truth_policy(np.array([v])),
                [-np.sqrt(2.0) * v],
                atol=1e-12,
            )
        # Linear drift with gain 1/2 and constant input sqrt(2).
        x, u = np.array([2.0]), np.ones(1)
        np.testing.assert_allclose(s1.dynamics(x, 0 * u), [1.0], atol=1e-15)
        np.testing.assert_allclose(
            s1.dynamics(x, u), [1.0 + np.sqrt(2.0)], atol=1e-15
        )

    def test_s2_truth_and_filter(self):
        s2 = make_system("s2")
        np.testing.assert_allclose(
            s2.ground_truth_policy(np.array([2.0])),
            [-2.0 * np.log(4.0)],
            atol=1e-12,
        )
        assert s2.state_filter is not None
        mask = s2.state_filter(np.array([[0.0, 1.0, -1e-9]]))
        np.testing.assert_array_equal(mask, [False, True, False])

    def test_s3_truth(self):
        s3 = make_system("s3")
        x = 1.0
        np.testing.assert_allclose(
            s3.ground_truth_policy(np.array([x])),
            [-(0.5 + np.sin(2.0)) * x],
            atol=1e-12,
        )
        # The input gain is the response to a unit control.
        x, u = np.array([x]), np.ones(1)
        gain = s3.dynamics(x, u) - s3.dynamics(x, 0 * u)
        np.testing.assert_allclose(gain, [0.5 + np.sin(2.0)], atol=1e-12)

    def test_s4_cubic_drift(self):
        s4 = make_system("s4")
        x, u = np.array([2.0]), np.ones(1)
        np.testing.assert_allclose(s4.dynamics(x, 0 * u), [-8.0], atol=1e-12)
        np.testing.assert_allclose(s4.dynamics(x, u), [-7.0], atol=1e-12)
        # The known optimal feedback at x=1: 1 - sqrt(2).
        np.testing.assert_allclose(
            s4.ground_truth_policy(np.array([1.0])),
            [1.0 - np.sqrt(2.0)],
            atol=1e-12,
        )

    def test_vdp_structure(self):
        vdp = make_system("vdp")
        assert vdp.n_x == 2 and vdp.n_u == 1
        x, u = np.array([1.0, 2.0]), np.ones(1)
        # (x2, -x1 - x2 (1 - x1^2) / 2) = (2, -1) at (1, 2); the control
        # enters the second coordinate with gain x1 = 1.
        np.testing.assert_allclose(vdp.dynamics(x, 0 * u), [2.0, -1.0])
        np.testing.assert_allclose(vdp.dynamics(x, u), [2.0, 0.0])
        np.testing.assert_allclose(vdp.penalty.weights, [0.5])
        assert vdp.state_cost(x) == pytest.approx(2.0)
        np.testing.assert_allclose(
            vdp.ground_truth_policy(x), [-2.0], atol=1e-12
        )


class TestEulerMaruyama:
    def test_deterministic_s4_step(self):
        s4 = make_system("s4")
        rng = np.random.default_rng(0)
        y = euler_maruyama_step(
            s4, np.array([1.0]), np.array([0.0]), 1e-2, 0.0, 1, rng
        )
        # One noiseless Euler step of dx = -x^3 dt from 1: 1 - 1e-2 = 0.99;
        # from 1 with u = 1: 1 + (-1 + 1) * 1e-2 = 1 exactly.
        np.testing.assert_allclose(y, [0.99], atol=1e-15)
        y = euler_maruyama_step(
            s4, np.array([1.0]), np.array([1.0]), 1e-2, 0.0, 1, rng
        )
        np.testing.assert_allclose(y, [1.0], atol=1e-15)

    def test_static_system_is_fixed_point(self):
        sys0 = make_static_system()
        rng = np.random.default_rng(1)
        x = np.array([0.7])
        y = euler_maruyama_step(sys0, x, np.array([0.3]), 0.1, 0.0, 10, rng)
        np.testing.assert_allclose(y, x, atol=1e-15)

    def test_noise_enters_with_sqrt_two_eps_h(self):
        sys0 = make_static_system()
        draws = np.empty(4000)
        for i in range(4000):
            rng = np.random.default_rng(1000 + i)
            draws[i] = euler_maruyama_step(
                sys0, np.zeros(1), np.zeros(1), 0.1, 0.5, 1, rng
            )[0]
        # Var = 2 eps dt = 0.1 for a single substep.
        assert np.var(draws) == pytest.approx(0.1, rel=0.1)

    # The cubic drift overflows on purpose; numpy's own chatter about it
    # is not the behavior under test.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises_integration_error(self):
        import dataclasses

        sys_bad = dataclasses.replace(
            make_static_system(), dynamics=lambda x, u: x**3
        )
        with pytest.raises(IntegrationError) as exc_info:
            euler_maruyama_step(
                sys_bad, np.array([5.0]), np.zeros(1), 10.0, 0.0, 200,
                np.random.default_rng(0),
            )
        assert exc_info.value.step >= 0

    @pytest.mark.parametrize("epsilon", [0.0, 0.3])
    def test_divergence_step_is_the_first_non_finite_substep(self, epsilon):
        # Pure-Python reference on floats: x*x*x overflows to inf (and
        # then inf - inf to nan) without raising, as numpy's does.
        sys_bad = dataclasses.replace(
            make_static_system(), dynamics=lambda x, u: x * x * x
        )
        dt, substeps, seed = 10.0, 200, 4
        h = dt / substeps
        noise_scale = math.sqrt(2.0 * epsilon * h)
        rng = np.random.default_rng(seed)
        x, first = 5.0, None
        for j in range(substeps):
            x = x + h * (x * x * x)
            if noise_scale > 0.0:
                x = x + noise_scale * float(rng.standard_normal(1)[0])
            if not math.isfinite(x):
                first = j
                break
        assert first is not None and first > 0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError) as exc_info:
                euler_maruyama_step(
                    sys_bad, np.array([5.0]), np.zeros(1), dt, epsilon,
                    substeps, np.random.default_rng(seed),
                )
        assert exc_info.value.step == first

    @pytest.mark.parametrize("name", ["dt", "epsilon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_dt_or_epsilon_rejected(self, name, value):
        # NaN noise would be silently off, an infinite one a blow-up.
        kw = dict(dt=0.1, epsilon=0.1)
        kw[name] = value
        with pytest.raises(InputError, match=f"^{name} must be finite"):
            euler_maruyama_step(
                make_static_system(), np.zeros(1), np.zeros(1),
                kw["dt"], kw["epsilon"], 1, np.random.default_rng(0),
            )

    def test_substep_refinement_converges(self):
        s4 = make_system("s4")
        x0 = np.array([0.5])
        u = np.array([0.2])
        ref = euler_maruyama_step(
            s4, x0, u, 0.5, 0.0, 4096, np.random.default_rng(0)
        )
        errs = []
        for substeps in (1, 4, 16, 64):
            y = euler_maruyama_step(
                s4, x0, u, 0.5, 0.0, substeps, np.random.default_rng(0)
            )
            errs.append(abs(y[0] - ref[0]))
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < errs[0] / 10


class TestGenerateDataset:
    def test_shapes_costs_and_determinism(self):
        s1 = make_system("s1")
        cfg = KernelConfig(sigma=1.0, epsilon=0.05, dt=1e-2)
        ds1 = generate_dataset(s1, 64, cfg, seed=42)
        ds2 = generate_dataset(s1, 64, cfg, seed=42)
        assert ds1.N == 64 and ds1.n_x == 1 and ds1.n_u == 1
        assert np.array_equal(ds1.X, ds2.X)
        assert np.array_equal(ds1.U, ds2.U)
        assert np.array_equal(ds1.Y, ds2.Y)
        assert ds1.epsilon == 0.05 and ds1.dt == 1e-2 and ds1.seed == 42
        # Stored cost is the stage cost times dt.
        expected = np.array(
            [s1.state_cost(ds1.X[:, i]) for i in range(ds1.N)]
        ) * ds1.dt
        np.testing.assert_allclose(ds1.cost, expected, atol=1e-14)

    def test_different_seed_differs(self):
        s1 = make_system("s1")
        cfg = KernelConfig(sigma=1.0, epsilon=0.05)
        a = generate_dataset(s1, 32, cfg, seed=1)
        b = generate_dataset(s1, 32, cfg, seed=2)
        assert not np.array_equal(a.X, b.X)

    def test_samples_respect_domains(self):
        s2 = make_system("s2")
        cfg = KernelConfig(sigma=1.0, epsilon=0.0)
        ds = generate_dataset(s2, 128, cfg, seed=3)
        assert np.all(ds.X >= s2.domain.lo[:, None])
        assert np.all(ds.X <= s2.domain.hi[:, None])
        assert np.all(ds.U >= s2.control_box.lo[:, None])
        assert np.all(ds.U <= s2.control_box.hi[:, None])
        # The state filter keeps the singular line out of the sample.
        assert np.all(np.abs(ds.X[0]) >= 1e-6)

    def test_single_step_composition(self):
        # A pencil-thin domain pins X to 1 and U to 0, so the recorded
        # successor must be the integrator output from exactly that pair.
        import dataclasses

        s4 = make_system("s4")
        tiny = dataclasses.replace(
            s4,
            domain=Box(lo=np.array([1.0 - 1e-12]), hi=np.array([1.0 + 1e-12])),
            control_box=Box(lo=np.array([-1e-12]), hi=np.array([1e-12])),
        )
        cfg = KernelConfig(sigma=1.0, epsilon=0.0, dt=1e-2)
        ds = generate_dataset(tiny, 1, cfg, substeps=1, seed=0)
        # dx = (-x^3 + u) dt from x = 1, u ~ 0: one step lands on 0.99.
        np.testing.assert_allclose(ds.Y, [[0.99]], atol=1e-9)

    def test_grid_sampler_rounds_down(self, caplog):
        vdp = make_system("vdp")
        cfg = KernelConfig(sigma=20.0, epsilon=0.0)
        with caplog.at_level(logging.WARNING):
            ds = generate_dataset(vdp, 2600, cfg, sampler="grid", seed=0)
        assert ds.N == 2500  # 50 x 50 lattice
        assert "2500" in caplog.text
        # Lattice covers the corners of the domain.
        assert ds.X[0].min() == pytest.approx(vdp.domain.lo[0])
        assert ds.X[0].max() == pytest.approx(vdp.domain.hi[0])

    def test_grid_sampler_re_checks_redrawn_states(self):
        # The filter rejects half of the domain: the 9-point lattice on
        # [-2, 2] loses its 4 negative points, and the first uniform
        # redraw of this seed lands two of them below 0 again.
        system = dataclasses.replace(
            make_static_system(), state_filter=lambda pts: pts[0] >= 0.0
        )
        seed = 0
        draw_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        assert np.any(system.domain.sample(draw_rng, 4) < 0.0)
        ds = generate_dataset(
            system, 9, KernelConfig(sigma=1.0, epsilon=0.0),
            sampler="grid", seed=seed,
        )
        assert ds.N == 9
        assert np.all(ds.X[0] >= 0.0)

    @pytest.mark.parametrize("sampler", ["uniform_iid", "grid"])
    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_noise_free_data_needs_no_sample_generators(self, name, sampler):
        # At epsilon = 0 only the draw stream is spawned.  It is the
        # first child whatever the count, so X and U equal those of a
        # noisy run, and each Y is the integrator's from a per-sample
        # generator it never draws from.
        system = make_system(name)
        N, seed, substeps = 49, 11, 4
        ds = generate_dataset(
            system, N, KernelConfig(sigma=1.0, epsilon=0.0, dt=1e-2),
            substeps=substeps, sampler=sampler, seed=seed,
        )
        noisy = generate_dataset(
            system, N, KernelConfig(sigma=1.0, epsilon=0.02, dt=1e-2),
            substeps=substeps, sampler=sampler, seed=seed,
        )
        assert ds.X.tobytes() == noisy.X.tobytes()
        assert ds.U.tobytes() == noisy.U.tobytes()
        assert ds.cost.tobytes() == noisy.cost.tobytes()
        children = np.random.SeedSequence(seed).spawn(N + 1)
        Y = np.column_stack([
            euler_maruyama_step(
                system, ds.X[:, i], ds.U[:, i], 1e-2, 0.0, substeps,
                np.random.default_rng(children[1 + i]),
            )
            for i in range(ds.N)
        ])
        assert ds.Y.tobytes() == Y.tobytes()

    @pytest.mark.parametrize("epsilon", [0.0, 0.02])
    @pytest.mark.parametrize("sampler", ["uniform_iid", "grid"])
    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_matches_the_per_sample_reference_loop(self, name, sampler, epsilon):
        # The reference integrates each sample with numpy's own finite
        # check, the way the simulator did before it checked on floats.
        def reference_step(system, x, u, dt, epsilon, substeps, rng):
            x = np.asarray(x, dtype=float).reshape(system.n_x)
            h = dt / substeps
            noise_scale = np.sqrt(2.0 * epsilon * h)
            for j in range(substeps):
                x = x + h * system.dynamics(x, u)
                if noise_scale > 0.0:
                    x = x + noise_scale * rng.standard_normal(system.n_x)
                if not np.all(np.isfinite(x)):
                    raise IntegrationError("non-finite", step=j)
            return x

        # Each system's stage cost in closed form, on the whole of X.
        closed_form_cost = {
            "s1": lambda X: X[0] ** 2,
            "s2": lambda X: X[0] ** 2,
            "s3": lambda X: X[0] ** 2,
            "s4": lambda X: X[0] ** 2,
            "vdp": lambda X: 0.5 * X[1] ** 2,
        }
        system = make_system(name)
        N, seed, dt = 49, 5, 1e-2
        ds = generate_dataset(
            system, N, KernelConfig(sigma=1.0, epsilon=epsilon, dt=dt),
            sampler=sampler, seed=seed,
        )
        children = np.random.SeedSequence(seed).spawn(ds.N + 1)
        Y = np.empty_like(ds.X)
        for i in range(ds.N):
            rng_i = np.random.default_rng(children[1 + i]) if epsilon else None
            Y[:, i] = reference_step(
                system, ds.X[:, i], ds.U[:, i], dt, epsilon, 10, rng_i
            )
        cost = closed_form_cost[name](ds.X) * dt
        assert ds.Y.tobytes() == Y.tobytes()
        assert ds.cost.tobytes() == cost.tobytes()

    def test_unknown_sampler(self):
        with pytest.raises(InputError):
            generate_dataset(
                make_system("s1"), 8, KernelConfig(sigma=1.0), sampler="sobol"
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed must be >= 0, got -1"):
            generate_dataset(
                make_system("s1"), 10, KernelConfig(sigma=1.0), seed=-1
            )


class TestDatasetValidation:
    def test_mismatched_sample_counts(self):
        with pytest.raises(InputError):
            Dataset(
                X=np.zeros((1, 4)),
                U=np.zeros((1, 3)),
                Y=np.zeros((1, 4)),
                cost=np.zeros(4),
                dt=1e-2,
                epsilon=0.0,
                seed=0,
            )

    def test_mismatched_state_dim(self):
        with pytest.raises(InputError):
            Dataset(
                X=np.zeros((2, 4)),
                U=np.zeros((1, 4)),
                Y=np.zeros((1, 4)),
                cost=np.zeros(4),
                dt=1e-2,
                epsilon=0.0,
                seed=0,
            )


    @pytest.mark.parametrize("name", ["X", "U", "Y", "cost"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_names_array_and_sample(self, name, value):
        arrays = dict(
            X=np.zeros((2, 6)), U=np.zeros((1, 6)), Y=np.zeros((2, 6)),
            cost=np.zeros(6),
        )
        arrays[name][..., 4] = value
        arrays[name][..., 5] = value
        with pytest.raises(InputError, match=f"{name} is not finite at sample 4"):
            Dataset(**arrays, dt=1e-2, epsilon=0.0, seed=0)

    def test_missing_successors_are_refused(self):
        X, U, cost = np.zeros((1, 3)), np.zeros((1, 3)), np.zeros(3)
        with pytest.raises(InputError, match="X and Y disagree on shape"):
            Dataset(X=X, U=U, Y=None, cost=cost, dt=1e-2, epsilon=0.0, seed=0)
        # All-NaN successors are refused like any other non-finite entry.
        for value in [np.nan, np.inf]:
            with pytest.raises(InputError, match="Y is not finite at sample 0"):
                Dataset(
                    X=X, U=U, Y=np.full((1, 3), value), cost=cost,
                    dt=1e-2, epsilon=0.0, seed=0,
                )


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        s3 = make_system("s3")
        ds = generate_dataset(s3, 20, KernelConfig(sigma=1.0, epsilon=0.01), seed=9)
        path = tmp_path / "snap.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path)
        assert np.array_equal(ds.X, back.X)
        assert np.array_equal(ds.U, back.U)
        assert np.array_equal(ds.Y, back.Y)
        assert np.array_equal(ds.cost, back.cost)
        assert back.dt == ds.dt and back.epsilon == ds.epsilon
        assert back.seed == ds.seed and back.system == "s3"

    def test_lf_written_and_crlf_read(self, tmp_path):
        ds = generate_dataset(
            make_system("vdp"), 9, KernelConfig(sigma=1.0), seed=2
        )
        path = tmp_path / "snap.csv"
        save_dataset_csv(ds, path)
        text = path.read_bytes()
        assert b"\r" not in text
        path.write_bytes(text.replace(b"\n", b"\r\n"))
        back = load_dataset_csv(path)
        assert np.array_equal(ds.Y, back.Y) and back.system == "vdp"

    def test_missing_metadata_rejected(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("x1,u1,y1,cost\n0.0,0.0,0.0,0.0\n")
        with pytest.raises(InputError):
            load_dataset_csv(path)

    def test_negative_seed_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text(
            "# dt=0.01 epsilon=0 seed=-3 system=s1\n"
            "x1,u1,y1,cost\n0.0,0.0,0.0,0.0\n"
        )
        with pytest.raises(InputError, match=r":1: seed must be >= 0, got -3"):
            load_dataset_csv(path)
