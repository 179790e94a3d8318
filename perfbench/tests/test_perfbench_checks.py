"""Each output check accepts a right answer and rejects a wrong one."""

import numpy as np
import pytest

import oracles
import workloads
from kmeoc import store
from kmeoc.estimator import EstimatedOperators
from kmeoc.hjb import ValueSolution


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """A toy-size solve-s2 operation: (setup, record, outputs)."""
    tmp = tmp_path_factory.mktemp("toy")
    s = workloads.setup("solve-s2", tmp)
    rec, out = workloads.solve_op(s, dict(s.cfg, N=64, H=20), 0, tmp)
    return s, rec, out


def test_perturbed_law_is_rejected(toy):
    s = toy[0]
    assert workloads.law_problems(s.truth, s.truth, 0.4)[1] == []
    err, problems = workloads.law_problems(s.truth + 0.5, s.truth, 0.4)
    assert err == pytest.approx(0.5) and problems


def test_off_forecast_is_rejected():
    exact = oracles.s1_second_moment(0.5)
    assert workloads.forecast_problems(0.5, exact + 0.001) == []
    assert workloads.forecast_problems(0.5, exact + 0.02)
    assert workloads.forecast_problems(0.49, exact)  # wrong time


def test_corrupted_artifact_is_rejected(toy, tmp_path):
    model = toy[2]["model"]
    path = tmp_path / "model.bin"
    store.save(model, path)
    assert workloads.artifact_problems(str(path), EstimatedOperators)[1] == []
    assert workloads.artifact_problems(str(path), ValueSolution)[1]  # wrong kind
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0x01
    path.write_bytes(bytes(blob))
    obj, problems = workloads.artifact_problems(str(path), EstimatedOperators)
    assert obj is None and problems


def test_reload_check_sees_one_ulp(toy):
    fitted, model = toy[2]["fitted"], toy[2]["model"]
    assert workloads.reload_problems(fitted, model) == []
    changed = model.A_hat.copy()
    changed[3, 5] = np.nextafter(changed[3, 5], np.inf)
    assert workloads.reload_problems(fitted, EstimatedOperators(
        changed, model.B_hat_blocks, None, model.dataset_ref, model.kernel_cfg,
        model.jitter,
    ))


def test_markov_check_sees_a_shifted_column(toy):
    fitted = toy[2]["fitted"]
    assert oracles.markov_errors(fitted.A_hat, fitted.B_hat_blocks) == []
    A = fitted.A_hat.copy()
    A[0, 7] += 1e-10
    assert oracles.markov_errors(A, fitted.B_hat_blocks)
    B = fitted.B_hat_blocks[0].copy()
    B[2, 1] -= 1e-10
    assert oracles.markov_errors(fitted.A_hat, [B])


def test_program_score_matches_the_closed_form(toy):
    s, rec, out = toy
    assert not rec.failed
    # bench.rmse_policy scores against the program's own optimal law.
    assert out["score"] == pytest.approx(oracles.rmse(out["est"], s.truth), rel=1e-12)
