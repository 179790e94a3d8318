"""Kernel primitives: config validation, Gram structure, diffused modes."""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

import kmeoc
from kmeoc import (
    DIFFUSED_MODES,
    InputError,
    KernelConfig,
    build_grams,
    control_gram_product,
    cross_vector,
    gram,
    right_factor,
)
from kmeoc.bench import bench_config
from kmeoc.kernel import CHOLESKY_TOL, _exp_sq_dists
from kmeoc.systems import generate_dataset, make_system

from conftest import (
    control_gram,
    cross_gram_diffused,
    diffused_rbf_eval,
    rbf_eval,
)

finite_floats = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


class TestKernelConfig:
    def test_defaults(self):
        cfg = KernelConfig(sigma=1.2)
        assert cfg.epsilon == 0.02
        assert cfg.dt == 1e-2
        assert cfg.gamma == 1e-8
        assert cfg.diffused_mode == "plus_2eps_dt"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma=0.0),
            dict(sigma=-1.0),
            dict(sigma=1.0, epsilon=-0.1),
            dict(sigma=1.0, dt=0.0),
            dict(sigma=1.0, gamma=-1e-8),
            dict(sigma=1.0, diffused_mode="bogus"),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InputError):
            KernelConfig(**kwargs)

    @pytest.mark.parametrize("name", ["sigma", "epsilon", "dt", "gamma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, name, value):
        kwargs = dict(sigma=1.0)
        kwargs[name] = value
        with pytest.raises(InputError, match=f"^{name} must be finite"):
            KernelConfig(**kwargs)

    def test_denominator_bumps(self):
        c2 = KernelConfig(sigma=2.0, epsilon=0.1, dt=0.5)
        assert c2.diffused_denominator == pytest.approx(4.0 + 2 * 0.1 * 0.5)
        c4 = KernelConfig(
            sigma=2.0, epsilon=0.1, dt=0.5, diffused_mode="plus_4eps_dt"
        )
        assert c4.diffused_denominator == pytest.approx(4.0 + 4 * 0.1 * 0.5)
        assert set(DIFFUSED_MODES) == {"plus_2eps_dt", "plus_4eps_dt"}


class TestGram:
    def test_unit_diagonal_and_symmetry(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(3, 20))
        K = gram(X, 1.5)
        assert np.all(np.diag(K) == 1.0)
        assert np.array_equal(K, K.T)

    def test_identical_columns_all_ones(self):
        X = np.array([[1.3, 1.3]])
        assert np.allclose(gram(X, 0.7), np.ones((2, 2)), atol=1e-15)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(2, 30))
        eig = np.linalg.eigvalsh(gram(X, 1.0))
        assert eig.min() >= -1e-10

    @settings(deadline=None, max_examples=30)
    @given(
        arrays(np.float64, (2, 5), elements=finite_floats),
        st.floats(0.3, 3.0),
    )
    def test_gram_entries_match_rbf_eval(self, X, sigma):
        K = gram(X, sigma)
        for i in range(5):
            for j in range(5):
                expected = 1.0 if i == j else rbf_eval(X[:, i], X[:, j], sigma)
                assert K[i, j] == pytest.approx(expected, abs=1e-12)


class TestSquaredDistances:
    """The numpy distance sums against scipy's cdist, bit for bit."""

    @pytest.mark.parametrize("name", ["s1", "vdp"])
    def test_gram_bits_equal_cdist(self, name):
        cfg = bench_config(name)
        ds = generate_dataset(
            make_system(name), cfg["N"],
            SimpleNamespace(dt=cfg["dt"], epsilon=0.0),
            sampler=cfg["sampler"], seed=0,
        )
        expected = np.exp(
            -cdist(ds.X.T, ds.X.T, "sqeuclidean") / cfg["sigma"] ** 2
        )
        np.fill_diagonal(expected, 1.0)
        assert np.array_equal(gram(ds.X, cfg["sigma"]), expected)
        kcfg = KernelConfig(
            sigma=cfg["sigma"], epsilon=cfg["epsilon"], dt=cfg["dt"]
        )
        den = kcfg.diffused_denominator
        pref = (kcfg.sigma**2 / den) ** (ds.n_x / 2.0)
        expected = pref * np.exp(
            -cdist(ds.X.T, ds.Y.T, "sqeuclidean") / den
        )
        assert np.array_equal(cross_gram_diffused(ds.X, ds.Y, kcfg), expected)

    @pytest.mark.parametrize("n_x", [1, 2, 3])
    @pytest.mark.parametrize("N", [1, 127, 128, 129, 300])
    def test_tiled_gram_bits_equal_cdist_and_symmetric(self, N, n_x):
        # N around gram's 128-column tile: less than one, one, one and a
        # column, and two and a partial one.
        X = np.random.default_rng(10 * N + n_x).normal(size=(n_x, N))
        K = gram(X, 0.9)
        expected = np.exp(-cdist(X.T, X.T, "sqeuclidean") / 0.9**2)
        np.fill_diagonal(expected, 1.0)
        assert K.tobytes() == expected.tobytes()
        assert K.tobytes() == K.T.tobytes()

    def test_out_view_bits_equal_a_fresh_call(self):
        rng = np.random.default_rng(5)
        X, Y = rng.normal(size=(2, 70)), rng.normal(size=(2, 150))
        big = np.full((90, 200), np.nan)
        view = big[10:80, 30:180]
        assert _exp_sq_dists(X, Y, 1.7, out=view) is view
        assert view.tobytes() == _exp_sq_dists(X, Y, 1.7).tobytes()
        # Nothing outside the view is written.
        assert np.isnan(big).sum() == 90 * 200 - 70 * 150

    def test_cli_import_leaves_scipy_spatial_out(self):
        # A fresh interpreter: this test module imports scipy.spatial itself.
        code = (
            "import sys, kmeoc.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.spatial', 'scipy.special'))))"
        )
        assert _run_fresh(code) == "[]"


def _run_fresh(code: str, cwd=None) -> str:
    """The standard output of ``code`` run in a fresh interpreter."""
    src = str(Path(kmeoc.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, cwd=cwd, env=dict(os.environ, PYTHONPATH=src),
    )
    return out.stdout.strip()


class TestScipyLinalgLoadsOnFirstUse:
    """scipy.linalg loads with the first factorization, not with kmeoc."""

    def test_cli_import_leaves_it_out(self):
        code = "import sys, kmeoc.cli; print('scipy.linalg' in sys.modules)"
        assert _run_fresh(code) == "False"

    def test_generate_leaves_it_out_and_identify_loads_it(self, tmp_path):
        code = (
            "import sys\n"
            "from kmeoc.cli import main\n"
            "main(['generate', '--system', 's1', '--n', '50', '--out', 'w'])\n"
            "print('scipy.linalg' in sys.modules)\n"
            "main(['identify', '--dataset', 'w/s1_n50_seed0.csv',\n"
            "      '--sigma', '1.2', '--out', 'w'])\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        lines = _run_fresh(code, cwd=tmp_path).splitlines()
        assert [t for t in lines if t in ("False", "True")] == ["False", "True"]
        assert (tmp_path / "w" / "s1_n50_seed0_model.bin").exists()

    def test_module_names_are_scipys_functions(self):
        # The benchmark's tracer requires these very objects.
        code = (
            "import scipy.linalg as la\n"
            "from kmeoc import estimator, fpk, hjb\n"
            "print([estimator.cho_factor is la.cho_factor,\n"
            "       estimator.cho_solve is la.cho_solve,\n"
            "       hjb.cho_solve is la.cho_solve,\n"
            "       fpk.cho_factor is la.cho_factor,\n"
            "       fpk.cho_solve is la.cho_solve])\n"
        )
        assert _run_fresh(code) == str([True] * 5)

    def test_unknown_attribute_raises(self):
        code = (
            "import sys, kmeoc\n"
            "for mod in (kmeoc.estimator, kmeoc.fpk, kmeoc.hjb):\n"
            "    try:\n"
            "        mod.cho_nothing\n"
            "    except AttributeError as exc:\n"
            "        print(exc)\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        assert _run_fresh(code).splitlines() == [
            "module 'kmeoc.estimator' has no attribute 'cho_nothing'",
            "module 'kmeoc.fpk' has no attribute 'cho_nothing'",
            "module 'kmeoc.hjb' has no attribute 'cho_nothing'",
            "False",
        ]


class TestRbf:
    @settings(deadline=None, max_examples=50)
    @given(
        arrays(np.float64, (3,), elements=finite_floats),
        arrays(np.float64, (3,), elements=finite_floats),
        st.floats(0.2, 4.0),
    )
    def test_symmetric_and_bounded(self, x, y, sigma):
        v = rbf_eval(x, y, sigma)
        # Exactly 0.0 is reachable through exp underflow at large distances.
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(rbf_eval(y, x, sigma), abs=1e-15)

    def test_no_factor_two_in_denominator(self):
        # k(0, 1) at sigma = 1 is exp(-1), NOT exp(-1/2).
        assert rbf_eval(np.zeros(1), np.ones(1), 1.0) == pytest.approx(
            np.exp(-1.0), abs=1e-14
        )


class TestDiffused:
    def test_prefactor_scales_with_dimension(self):
        cfg = KernelConfig(sigma=1.0, epsilon=0.02, dt=0.01)
        one_d = diffused_rbf_eval(np.zeros(1), np.zeros(1), cfg, n_x=1)
        two_d = diffused_rbf_eval(np.zeros(2), np.zeros(2), cfg, n_x=2)
        assert two_d == pytest.approx(one_d**2, abs=1e-14)

    def test_bounded_by_prefactor(self):
        cfg = KernelConfig(sigma=1.0, epsilon=0.5, dt=0.1)
        pref = (1.0 / cfg.diffused_denominator) ** 0.5
        rng = np.random.default_rng(2)
        for _ in range(20):
            x, y = rng.normal(size=(2, 1))
            v = diffused_rbf_eval(np.atleast_1d(x), np.atleast_1d(y), cfg, 1)
            assert 0.0 < v <= pref + 1e-15


class TestCrossGram:
    def test_orientation_rows_inputs_cols_successors(self):
        cfg = KernelConfig(sigma=1.1, epsilon=0.02, dt=0.01)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(2, 4))
        Y = rng.normal(size=(2, 6))
        K = cross_gram_diffused(X, Y, cfg)
        assert K.shape == (4, 6)
        for i in range(4):
            for j in range(6):
                assert K[i, j] == pytest.approx(
                    diffused_rbf_eval(X[:, i], Y[:, j], cfg, 2), abs=1e-13
                )

    def test_cross_vector_matches_rbf(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(3, 8))
        x = rng.normal(size=3)
        v = cross_vector(x, X, 0.9)
        assert v.shape == (8,)
        for i in range(8):
            assert v[i] == pytest.approx(rbf_eval(x, X[:, i], 0.9), abs=1e-13)


class TestControlGram:
    @settings(deadline=None, max_examples=30)
    @given(
        arrays(np.float64, (1, 6), elements=finite_floats),
        arrays(np.float64, (2, 6), elements=finite_floats),
    )
    def test_dual_form_agreement(self, X, U):
        K_X = gram(X, 1.0)
        K_U = control_gram(K_X, U)
        dual = K_X + sum(
            np.diag(U[m]) @ K_X @ np.diag(U[m]) for m in range(2)
        )
        assert np.max(np.abs(K_U - dual)) <= 1e-12

    @pytest.mark.parametrize("n_u", [1, 2])
    def test_bit_identical_to_the_hadamard_expression(self, n_u):
        rng = np.random.default_rng(40 + n_u)
        X = rng.uniform(-3, 3, size=(2, 50))
        U = rng.uniform(-1, 1, size=(n_u, 50))
        K_X = gram(X, 0.9)
        kept = K_X.copy()
        K_U = control_gram(K_X, U)
        assert K_U.tobytes() == (K_X * (1.0 + U.T @ U)).tobytes()
        assert K_X.tobytes() == kept.tobytes()  # the input is not written

    def test_spd_with_ridge(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-3, 3, size=(1, 40))
        U = rng.uniform(-1, 1, size=(1, 40))
        K_U = control_gram(gram(X, 1.2), U)
        eig = np.linalg.eigvalsh(K_U + 1e-8 * np.eye(40))
        assert eig.min() > 0


class TestControlGramProduct:
    @pytest.mark.parametrize("n_u", [1, 2])
    def test_matches_the_dense_product(self, n_u):
        # N = 300 spans two row blocks, the second one partial.
        rng = np.random.default_rng(60 + n_u)
        X = rng.uniform(-3, 3, size=(2, 300))
        U = rng.uniform(-1, 1, size=(n_u, 300))
        Z = rng.normal(size=(300, 5))
        K_U = control_gram(gram(X, 0.9), U)
        got = control_gram_product(X, U, 0.9, Z)
        assert got.shape == Z.shape
        assert np.abs(got - K_U @ Z).max() <= 1e-12 * np.abs(K_U @ Z).max()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            control_gram_product(
                np.zeros((1, 5)), np.zeros((1, 5)), 1.0, np.zeros((4, 2))
            )
        with pytest.raises(InputError):
            control_gram_product(
                np.zeros((1, 5)), np.zeros((1, 5)), 1.0, np.zeros(5)
            )


class TestBuildGrams:
    def test_bundle_shapes_and_consistency(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(2, 12))
        U = rng.normal(size=(1, 12))
        Y = rng.normal(size=(2, 12))
        cfg = KernelConfig(sigma=1.0)
        bundle = build_grams(X, U, Y, cfg)
        assert bundle.N == 12
        r_X = bundle.F.shape[1]
        assert bundle.F.shape == (12, r_X)
        r = bundle.L_X.shape[1]
        assert bundle.L_Y.shape == (12, r)
        # K_U ~ W W^T with W = [F | u * F]; the gap is PSD, so each entry
        # is within its largest diagonal entry, plus rounding.
        K_U = control_gram(gram(X, 1.0), U)
        W = np.hstack([bundle.F, U[0][:, None] * bundle.F])
        gap = K_U - W @ W.T
        scale = 1.0 + np.max(U * U)
        assert np.abs(gap).max() <= (CHOLESKY_TOL + r_X * 2.2e-16) * scale
        assert bundle.gap_trace == pytest.approx(
            np.trace(gap), abs=12 * r_X * 2.2e-16 * scale
        )
        eK_XY = bundle.pref * bundle.L_X @ bundle.L_Y.T
        err = np.abs(eK_XY - cross_gram_diffused(X, Y, cfg)).max()
        assert err <= bundle.pref * (CHOLESKY_TOL + r * 2.2e-16)
        # The right factor a model file leaves out is rebuilt bit for bit.
        R = bundle.pref * bundle.L_Y
        assert right_factor(X, Y, cfg).tobytes() == R.tobytes()

    @pytest.mark.parametrize("name", ["s1", "s2", "s4", "vdp"])
    def test_factor_bound_on_benchmark_data(self, name):
        # |pref L_X L_Y^T - eK_XY| <= pref (1e-14 + r eps) entrywise: the
        # stopping rule bounds the PSD residual's diagonal, the rest is
        # rounding.  The rank stays far below N.
        cfg = bench_config(name)
        ds = generate_dataset(
            make_system(name), cfg["N"],
            SimpleNamespace(dt=cfg["dt"], epsilon=0.0),
            sampler=cfg["sampler"], seed=0,
        )
        kcfg = KernelConfig(
            sigma=cfg["sigma"], epsilon=cfg["epsilon"], dt=cfg["dt"]
        )
        bundle = build_grams(ds.X, ds.U, ds.Y, kcfg)
        r = bundle.L_X.shape[1]
        assert r <= 60
        eK_XY = bundle.pref * bundle.L_X @ bundle.L_Y.T
        err = np.abs(eK_XY - cross_gram_diffused(ds.X, ds.Y, kcfg)).max()
        assert err <= bundle.pref * (CHOLESKY_TOL + r * 2.2e-16)

    def test_sample_count_mismatch_rejected(self):
        cfg = KernelConfig(sigma=1.0)
        with pytest.raises(InputError):
            build_grams(
                np.zeros((1, 5)), np.zeros((1, 4)), np.zeros((1, 5)), cfg
            )
