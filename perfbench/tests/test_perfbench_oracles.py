"""The closed forms against values worked out by hand."""

import math

import numpy as np
import pytest

import oracles


def test_riccati_gain_of_s1_is_minus_sqrt2():
    # 2 (0.5) p - 2 p^2 + 1 = 0  ->  p = 1, k = -sqrt(2) p / 1.
    assert oracles.riccati_gain(0.5, math.sqrt(2.0), 1.0, 1.0) == pytest.approx(
        -math.sqrt(2.0), rel=1e-15
    )
    np.testing.assert_allclose(oracles.s1_law(np.array([2.0])), [-2.0 * math.sqrt(2.0)])


def test_riccati_gain_of_a_stable_plant():
    # a = -1, b = q = r = 1: p^2 + 2p - 1 = 0 -> p = sqrt(2) - 1.
    assert oracles.riccati_gain(-1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0 - math.sqrt(2.0))


def test_second_moment_under_the_optimal_s1_loop():
    # lam = 0.5 - 2 = -1.5: m(t) = e^{-3t} + (0.04/3)(1 - e^{-3t}).
    assert oracles.s1_second_moment(0.0) == pytest.approx(1.0)
    assert oracles.s1_second_moment(0.5) == pytest.approx(0.2334884, abs=1e-7)  # 0.2231302 + 0.0103583
    assert oracles.s1_second_moment(50.0) == pytest.approx(0.04 / 3.0)


def test_nonlinear_laws():
    # s2: u = -x log x^2; at x = e it is -2e.  vdp: u = -x1 x2.
    np.testing.assert_allclose(oracles.s2_law(np.array([[math.e]])), [[-2.0 * math.e]])
    pts = np.array([[2.0, -1.0], [3.0, 4.0]])
    np.testing.assert_array_equal(oracles.truth_table("vdp", pts), [[-6.0, 4.0]])


def test_rmse_is_root_mean_squared_euclidean_error():
    est = np.array([[3.0, 0.0], [4.0, 0.0]])  # errors of norm 5 and 0
    assert oracles.rmse(est, np.zeros((2, 2))) == pytest.approx(math.sqrt(12.5))


def test_compensated_column_sums_keep_small_terms():
    # 1e16 + 1 + ... - 1e16: plain summation loses the ones.
    col = np.array([1e16] + [1.0] * 10 + [-1e16])
    assert oracles.column_sums(col[:, None])[0] == 10.0


def test_spectral_radius_of_known_matrices():
    assert oracles.spectral_radius(np.diag([1.05, 0.5, -0.2])) == pytest.approx(1.05, rel=1e-6)
    c, s = math.cos(0.3), math.sin(0.3)
    rot = 1.05 * np.array([[c, -s], [s, c]])  # complex pair of modulus 1.05
    assert oracles.spectral_radius(rot) == pytest.approx(1.05, rel=1e-9)
