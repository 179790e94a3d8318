"""Measure embedding, forward weight propagation, observable forecasts."""

import csv

import numpy as np
import pytest

from kmeoc import (
    InputError,
    KernelConfig,
    MeasureWeights,
    PropagationError,
    embed_initial,
    enforce_markov,
    fit_krr,
    forecast_observable_path,
    observable_forecast,
    propagate,
)
from kmeoc.store import export_forecast_csv, export_weights_csv

from conftest import make_static_dataset


class TestMeasureWeights:
    def test_mass_and_step(self):
        w = MeasureWeights(z=np.array([0.25, 0.5, 0.25]), step=3)
        assert w.mass == pytest.approx(1.0)
        assert w.step == 3

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            MeasureWeights(z=np.array([]))


class TestEmbedInitial:
    def test_training_cloud_embeds_to_uniform(self, static_ops):
        # Interpolating the mean kernel section of the full training set
        # returns the uniform weights exactly (up to the 1e-8 ridge).
        ds = static_ops.dataset_ref
        z0 = embed_initial(static_ops, ds.X)
        np.testing.assert_allclose(z0.z, np.full(ds.N, 1.0 / ds.N), atol=1e-6)
        assert z0.step == 0
        assert z0.mass == pytest.approx(1.0, abs=1e-6)

    def test_single_point_reproduces_kernel_section(self, static_ops):
        # The coefficient vector itself is not identifiable through the
        # nearly singular Gram matrix, but the embedded function is:
        # K z must reproduce the kernel section at the query point.
        from kmeoc.kernel import cross_vector, gram

        ds = static_ops.dataset_ref
        sigma = static_ops.kernel_cfg.sigma
        z0 = embed_initial(static_ops, ds.X[:, 7])
        section = cross_vector(ds.X[:, 7], ds.X, sigma)
        np.testing.assert_allclose(gram(ds.X, sigma) @ z0.z, section, atol=1e-7)
        # Kernel-section observables therefore evaluate at the point.
        psi = cross_vector(np.array([0.5]), ds.X, static_ops.kernel_cfg.sigma)
        want = float(
            np.exp(-((ds.X[0, 7] - 0.5) ** 2) / static_ops.kernel_cfg.sigma**2)
        )
        assert observable_forecast(z0, psi) == pytest.approx(want, abs=1e-7)

    def test_deterministic(self, static_ops):
        x0 = np.array([[0.3, -0.4]])
        a = embed_initial(static_ops, x0)
        b = embed_initial(static_ops, x0)
        np.testing.assert_array_equal(a.z, b.z)

    def test_bad_inputs(self, static_ops):
        with pytest.raises(InputError):
            embed_initial(static_ops, np.zeros((1, 0)))
        with pytest.raises(InputError):
            embed_initial(static_ops, np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_rejected(self, static_ops, bad):
        with pytest.raises(InputError, match="non-finite"):
            embed_initial(static_ops, np.array([[0.3, bad]]))


class TestPropagate:
    def test_zero_policy_is_plain_transition(self, static_ops):
        rng = np.random.default_rng(0)
        z = MeasureWeights(z=rng.normal(size=static_ops.N))
        out = propagate(static_ops, z, np.zeros((1, static_ops.N)))
        np.testing.assert_array_equal(out.z, static_ops.A @ z.z)
        np.testing.assert_allclose(out.z, static_ops.A_hat @ z.z, atol=1e-12)
        assert out.step == 1

    def test_linear_in_weights(self, static_ops):
        rng = np.random.default_rng(1)
        N = static_ops.N
        pol = rng.normal(size=(1, N))
        z1, z2 = rng.normal(size=(2, N))
        a, b = 0.7, -1.3
        mixed = propagate(static_ops, MeasureWeights(z=a * z1 + b * z2), pol)
        parts = a * propagate(static_ops, MeasureWeights(z=z1), pol).z
        parts += b * propagate(static_ops, MeasureWeights(z=z2), pol).z
        np.testing.assert_allclose(mixed.z, parts, atol=1e-12)

    def test_static_identity_returns_weights(self, static_ops):
        ds = static_ops.dataset_ref
        z = MeasureWeights(z=np.full(ds.N, 1.0 / ds.N))
        out = propagate(static_ops, z, ds.U)
        assert np.sum(np.abs(out.z - z.z)) <= 1e-5

    def test_markov_enforcement_conserves_mass(self):
        ds = make_static_dataset(N=40, seed=8)
        ops = enforce_markov(fit_krr(ds, KernelConfig(sigma=1.0, epsilon=0.0)))
        pol = np.zeros((1, 40))
        z = MeasureWeights(z=np.full(40, 1.0 / 40))
        for k in range(1, 1001):
            z = propagate(ops, z, pol)
            assert abs(z.mass - 1.0) <= 1e-9 * k
        assert z.step == 1000

    def test_non_finite_raises_with_step(self, static_ops):
        z = MeasureWeights(z=np.full(static_ops.N, np.inf), step=4)
        with pytest.raises(PropagationError) as exc_info:
            propagate(static_ops, z, np.zeros((1, static_ops.N)))
        assert exc_info.value.step == 5

    def test_length_mismatch(self, static_ops):
        with pytest.raises(InputError):
            propagate(
                static_ops,
                MeasureWeights(z=np.ones(3)),
                np.zeros((1, static_ops.N)),
            )

    def test_table_of_another_shape_rejected(self, static_ops):
        # Only an (n_u, N) table: a flat one of the right size is not
        # reshaped, and a (2, N) one on an n_u = 1 model names both shapes.
        z = MeasureWeights(z=np.ones(static_ops.N))
        N = static_ops.N
        for table in (np.zeros(N), np.zeros((N, 1)), np.zeros((2, N))):
            with pytest.raises(InputError) as exc_info:
                propagate(static_ops, z, table)
            assert str(table.shape) in str(exc_info.value)
            assert str((1, N)) in str(exc_info.value)


class TestObservables:
    def test_constant_observable_reads_mass(self):
        z = MeasureWeights(z=np.array([0.2, 0.3, 0.1]))
        assert observable_forecast(z, np.ones(3)) == pytest.approx(0.6)

    def test_indicator_reads_single_weight(self):
        z = MeasureWeights(z=np.array([0.2, 0.3, 0.5]))
        psi = np.array([0.0, 1.0, 0.0])
        assert observable_forecast(z, psi) == pytest.approx(0.3)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            observable_forecast(MeasureWeights(z=np.ones(3)), np.ones(4))


class TestForecastPath:
    def test_matches_manual_composition(self, static_ops):
        ds = static_ops.dataset_ref
        psi = ds.X[0] ** 2
        pol = np.zeros((1, ds.N))
        z0 = embed_initial(static_ops, ds.X[:, :10])
        path = forecast_observable_path(static_ops, z0, pol, 5, psi)
        assert path.shape == (6,)
        z = z0
        for k in range(5):
            assert path[k] == pytest.approx(observable_forecast(z, psi))
            z = propagate(static_ops, z, pol)
        assert path[5] == pytest.approx(observable_forecast(z, psi))

    def test_zero_steps(self, static_ops):
        z0 = MeasureWeights(z=np.full(static_ops.N, 1.0 / static_ops.N))
        path = forecast_observable_path(
            static_ops, z0, np.zeros((1, static_ops.N)), 0,
            np.ones(static_ops.N),
        )
        assert path.shape == (1,)
        assert path[0] == pytest.approx(z0.mass)

    def test_negative_steps_rejected(self, static_ops):
        z0 = MeasureWeights(z=np.ones(static_ops.N))
        with pytest.raises(InputError):
            forecast_observable_path(
                static_ops, z0, np.zeros((1, static_ops.N)), -1,
                np.ones(static_ops.N),
            )

    def test_steps_too_many_to_allocate(self, static_ops):
        # The forecast buffer would take 745 GiB; the error comes from
        # the allocation, before any step runs.
        z0 = MeasureWeights(z=np.ones(static_ops.N))
        with pytest.raises(InputError, match="steps = 100000000000"):
            forecast_observable_path(
                static_ops, z0, np.zeros((1, static_ops.N)), 10**11,
                np.ones(static_ops.N),
            )


class TestExports:
    def test_forecast_csv_parses_back(self, tmp_path):
        vals = np.array([1.0, 0.5, 0.25])
        path = tmp_path / "fc.csv"
        export_forecast_csv(vals, 0.1, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "t", "observable_value"]
        assert len(rows) == 4
        assert [float(r[2]) for r in rows[1:]] == [1.0, 0.5, 0.25]
        assert float(rows[2][1]) == pytest.approx(0.1)

    def test_weights_csv_layout(self, tmp_path):
        seq = [
            MeasureWeights(z=np.array([0.5, 0.5]), step=0),
            MeasureWeights(z=np.array([0.25, 0.75]), step=1),
        ]
        path = tmp_path / "w.csv"
        export_weights_csv(seq, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "i", "z_i"]
        assert [r[:2] for r in rows[1:]] == [
            ["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"],
        ]
        assert float(rows[4][2]) == 0.75
