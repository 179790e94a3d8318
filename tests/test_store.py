"""Binary artifact persistence: framing, checksums, round trips."""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from kmeoc import (
    BenchReport,
    Box,
    ChecksumError,
    ControlPenalty,
    HeaderError,
    InputError,
    InvariantError,
    KernelConfig,
    VersionError,
    khjb_recursion,
    load,
    save,
)
from kmeoc.store import MAGIC
from kmeoc.systems import generate_dataset, make_system

from conftest import (
    hand_built_solution,
    make_static_dataset,
    policy_rows,
    value_rows,
)


@pytest.fixture(scope="module")
def solution(static_ops_module):
    penalty = ControlPenalty(weights=np.array([1.0]), box=Box(-1.0, 1.0))
    ds = static_ops_module.dataset_ref
    return khjb_recursion(static_ops_module, ds.cost / ds.dt, penalty, H=12)


@pytest.fixture(scope="module")
def s1_bench():
    """(ops, sol) of s1 at bench settings, N = 1000 and H = 500."""
    from kmeoc.bench import bench_config, fit_and_solve

    return fit_and_solve(make_system("s1"), bench_config("s1"), data_seed=0)


@pytest.fixture(scope="module")
def fired(static_ops_module):
    """H = 3 under A = I, B = 0: the policy stays 0, the rule fires at 1."""
    N = static_ops_module.N
    ops = dataclasses.replace(
        static_ops_module, A=np.eye(N), B=[np.zeros((N, N))]
    )
    penalty = ControlPenalty(weights=np.array([1.0]))
    sol = khjb_recursion(ops, np.ones(N), penalty, H=3)
    assert (sol.horizon, sol.converged_at) == (3, 1)
    return sol


@pytest.fixture(scope="module")
def static_ops_module():
    from kmeoc import fit_krr

    ds = make_static_dataset(N=20, seed=31)
    return fit_krr(ds, KernelConfig(sigma=1.0, epsilon=0.0))


class TestRoundTrips:
    def test_model_round_trip_reproduces_recursion(self, tmp_path):
        from kmeoc import fit_krr, policy_interpolate

        ops = fit_krr(
            make_static_dataset(N=20, seed=31),
            KernelConfig(sigma=1.0, epsilon=0.0),
        )
        path = tmp_path / "model.bin"
        save(ops, path)
        back = load(path)
        # Neither model holds an N x N array until the state-Gram factor
        # is asked for.
        for model in (ops, back):
            for f in dataclasses.fields(model):
                value = getattr(model, f.name)
                parts = value if isinstance(value, tuple) else (value,)
                assert not any(
                    np.shape(p) == (ops.N, ops.N)
                    for p in parts
                    if isinstance(p, np.ndarray)
                ), f.name
        assert np.array_equal(back.A_hat, ops.A_hat)
        assert len(back.B_hat_blocks) == 1
        assert np.array_equal(back.B_hat_blocks[0], ops.B_hat_blocks[0])
        assert back.kernel_cfg == ops.kernel_cfg
        assert back.jitter == ops.jitter
        # The successors are stored with the other training data.
        assert back.dataset_ref.Y.tobytes() == ops.dataset_ref.Y.tobytes()
        # The loaded model drives the backward recursion to the exact
        # same output as the in-memory one.
        penalty = ControlPenalty(weights=np.array([1.0]))
        cost = ops.dataset_ref.cost / ops.dataset_ref.dt
        a = khjb_recursion(ops, cost, penalty, H=15)
        b = khjb_recursion(back, cost, penalty, H=15)
        assert np.array_equal(value_rows(a), value_rows(b))
        assert np.array_equal(policy_rows(a), policy_rows(b))
        # The state-Gram factor and the interpolated law match bit for bit.
        assert ops.x_gram_factor().W.tobytes() == (
            back.x_gram_factor().W.tobytes()
        )
        query = np.linspace(-1.0, 1.0, 9)[None, :]
        assert policy_interpolate(query, a, ops).tobytes() == (
            policy_interpolate(query, b, back).tobytes()
        )

    def test_model_factors_and_views_bit_identical(
        self, tmp_path, static_ops_module
    ):
        from kmeoc import enforce_markov

        ops = enforce_markov(static_ops_module)
        path = tmp_path / "model_v2.bin"
        save(ops, path)
        back = load(path)
        for a, b in zip([ops.A, *ops.B], [back.A, *back.B]):
            for name in ("left", "right", "shift"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        # The B block keeps sharing A's right factor.
        assert back.B[0].right is back.A.right
        assert back.A_hat.tobytes() == ops.A_hat.tobytes()
        assert back.B_hat_blocks[0].tobytes() == ops.B_hat_blocks[0].tobytes()

    def test_version_1_model_is_refused(self, tmp_path, static_ops_module):
        path = tmp_path / "model_v1.bin"
        save(static_ops_module, path)
        blob = bytearray(path.read_bytes())
        assert struct.unpack("<II", blob[8:16]) == (3, 2)  # version, kind
        blob[8:12] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load(path)

    def test_version_2_model_is_refused(self, tmp_path, static_ops_module):
        # Version 2 stored the fitted right factor and no successors.
        path = tmp_path / "model_v2.bin"
        save(static_ops_module, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 2)
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError, match="version 2 not supported"):
            load(path)

    def test_s1_model_keeps_successors_not_right_factor(
        self, tmp_path, s1_bench
    ):
        # s1 at bench settings, N = 1000: the loaded model carries the
        # fitted Y bit for bit, and the file holds the successors
        # (n_x x N) in place of the rebuilt right factor (N x r).
        from kmeoc import build_grams, fit_residual

        ops = s1_bench[0]
        ds = ops.dataset_ref
        path = tmp_path / "s1.bin"
        save(ops, path)
        back = load(path)
        assert back.dataset_ref.Y.tobytes() == ds.Y.tobytes()
        assert back.A.right.tobytes() == ops.A.right.tobytes()
        grams = build_grams(ds.X, ds.U, ds.Y, ops.kernel_cfg)
        assert fit_residual(back, grams) == fit_residual(ops, grams)
        N, n_x, n_u, r = ops.N, ds.n_x, ops.n_u, ops.A.rank
        # Version 2: header, 14 settings, X, U, cost, the 2 + n_u
        # distinct factors, their indices and the 1 + n_u shifts.
        v2_bytes = 24 + 8 * (
            14 + (n_x + n_u + 1) * N + (2 + n_u) * N * r
            + 2 * (1 + n_u) + (1 + n_u) * N
        )
        assert v2_bytes - path.stat().st_size == (r - n_x) * N * 8

    def test_s1_model_is_under_one_megabyte(self, tmp_path):
        from types import SimpleNamespace

        from kmeoc import enforce_markov, fit_krr

        ds = generate_dataset(
            make_system("s1"), 1000, SimpleNamespace(dt=1e-2, epsilon=0.0),
            seed=0,
        )
        ops = enforce_markov(
            fit_krr(ds, KernelConfig(sigma=1.2, epsilon=0.02, dt=1e-2))
        )
        path = tmp_path / "s1.bin"
        save(ops, path)
        assert path.stat().st_size < 1_000_000

    def test_rebuild_of_another_rank_is_invariant_error(
        self, tmp_path, static_ops_module, monkeypatch
    ):
        # A machine whose rounding stops the pivoted Cholesky one column
        # later rebuilds a right factor the stored left factors cannot use.
        import kmeoc.store

        path = tmp_path / "model.bin"
        save(static_ops_module, path)
        N, r = static_ops_module.N, static_ops_module.A.rank
        monkeypatch.setattr(
            kmeoc.store, "right_factor", lambda X, Y, cfg: np.zeros((N, r + 1))
        )
        with pytest.raises(InvariantError, match="refit the model"):
            load(path)

    def test_dense_operators_round_trip(self, tmp_path, static_ops_module):
        import dataclasses

        N = static_ops_module.N
        M = np.random.default_rng(4).normal(size=(N, N))
        dense = dataclasses.replace(
            static_ops_module, A=M, B=[np.zeros((N, N))]
        )
        save(dense, tmp_path / "dense.bin")
        back = load(tmp_path / "dense.bin")
        assert np.array_equal(back.A_hat, M)
        assert np.array_equal(back.B_hat_blocks[0], np.zeros((N, N)))

    def test_value_solution_round_trip(self, tmp_path, solution):
        path = tmp_path / "sol.bin"
        save(solution, path)
        back = load(path)
        assert back.coords.tobytes() == solution.coords.tobytes()
        assert value_rows(back).tobytes() == value_rows(solution).tobytes()
        assert policy_rows(back).tobytes() == policy_rows(solution).tobytes()
        assert back.horizon == solution.horizon
        assert back.dt == solution.dt
        assert back.converged_at == solution.converged_at
        np.testing.assert_array_equal(back.box.lo, solution.box.lo)
        np.testing.assert_array_equal(back.box.hi, solution.box.hi)

    def test_coordinate_solution_round_trip(self, tmp_path, s1_bench):
        # s1 at bench settings: coordinate path, the stop rule fires.
        sol = s1_bench[1]
        assert sol.converged_at is not None
        path = tmp_path / "s1_sol.bin"
        save(sol, path)
        back = load(path)
        assert back.coords.tobytes() == sol.coords.tobytes()
        for a, b in zip(back.factors, sol.factors):
            assert a.tobytes() == b.tobytes()
        assert back.stage.tobytes() == sol.stage.tobytes()
        assert back.frozen.tobytes() == sol.frozen.tobytes()
        assert back.penalty.box is None
        assert np.array_equal(back.penalty.weights, sol.penalty.weights)
        assert (back.converged_at, back.dt) == (sol.converged_at, sol.dt)
        for k in (0, sol.converged_at, sol.converged_at + 1, sol.horizon - 1):
            assert back.value_row(k).tobytes() == sol.value_row(k).tobytes()
            assert back.policy_row(k).tobytes() == sol.policy_row(k).tobytes()

    def test_s1_solution_keeps_training_states_not_right_factor(
        self, tmp_path, s1_bench
    ):
        # s1 at bench settings, N = 1000: the reloaded solution carries
        # the fitted X, Y and kernel settings bit for bit, and rebuilds
        # from them the in-memory right factor, which every operator
        # shares.  The file holds X and Y (2 x n_x x N) and six header
        # floats (n_x and the five settings) in place of it (N x r).
        from kmeoc.kernel import right_factor

        ops, sol = s1_bench
        ds = ops.dataset_ref
        path = tmp_path / "s1_sol.bin"
        save(sol, path)
        back = load(path)
        X, Y, cfg = back.training
        assert X.tobytes() == ds.X.tobytes()
        assert Y.tobytes() == ds.Y.tobytes()
        assert cfg == ops.kernel_cfg
        R = ops.A.right
        assert right_factor(X, Y, cfg).tobytes() == R.tobytes()
        for Z, Z_back in zip(sol.factors, back.factors):
            assert Z[:, :-1].tobytes() == R.tobytes()
            assert Z_back.tobytes() == Z.tobytes()
        N, n_x, n_u, r = ops.N, ds.n_x, ops.n_u, ops.A.rank
        D = sum(Z.shape[1] for Z in sol.factors)
        # Version 2: header, 7 counts and settings, the weights, the rank
        # of the one distinct right factor and the 1 + n_u indices, that
        # factor, the 1 + n_u shifts, stage, frozen row and coordinates.
        v2_bytes = 24 + 8 * (
            7 + n_u + 1 + (1 + n_u) + N * r + (1 + n_u) * N + N + n_u * N
            + (sol.horizon + 1) * D
        )
        # 191 952 bytes at r = 26.
        saved = (r * N - 2 * n_x * N - 6) * 8
        assert v2_bytes - path.stat().st_size == saved

    def test_hand_built_solution_writes_its_factors(self, tmp_path):
        # No training data: the right factors are written as they are.
        sol = hand_built_solution(
            5, box=Box(-0.5, 0.5), frozen=np.full((1, 5), 0.25)
        )
        assert sol.training is None
        path = tmp_path / "hand.bin"
        save(sol, path)
        back = load(path)
        assert back.training is None
        for Z_back, Z in zip(back.factors, sol.factors):
            assert Z_back.tobytes() == Z.tobytes()
        assert back.coords.tobytes() == sol.coords.tobytes()
        assert (back.converged_at, back.dt) == (sol.converged_at, sol.dt)
        assert value_rows(back).tobytes() == value_rows(sol).tobytes()
        assert policy_rows(back).tobytes() == policy_rows(sol).tobytes()

    def test_dense_operator_solution_writes_its_factors(
        self, tmp_path, fired
    ):
        # A = I, B = 0 as hand-built dense operators: the factor rebuilt
        # from the training data is not theirs, so both are written.
        path = tmp_path / "dense_sol.bin"
        save(fired, path)
        back = load(path)
        for Z_back, Z in zip(back.factors, fired.factors):
            assert Z_back.tobytes() == Z.tobytes()
        assert back.training[0].tobytes() == fired.training[0].tobytes()
        assert policy_rows(back).tobytes() == policy_rows(fired).tobytes()

    def test_solution_rebuild_of_another_rank_is_invariant_error(
        self, tmp_path, solution, monkeypatch
    ):
        import kmeoc.store

        path = tmp_path / "sol.bin"
        save(solution, path)
        N, r = solution.N, solution.factors[0].shape[1] - 1
        monkeypatch.setattr(
            kmeoc.store, "right_factor", lambda X, Y, cfg: np.zeros((N, r + 1))
        )
        with pytest.raises(InvariantError, match="rerun kmeoc control"):
            load(path)

    def test_s1_solution_is_under_one_megabyte(self, tmp_path, s1_bench):
        # N = 1000, H = 500: the tables alone took 8 MB.
        ops, sol = s1_bench
        assert (ops.N, sol.horizon) == (1000, 500)
        path = tmp_path / "s1_sol.bin"
        save(sol, path)
        assert path.stat().st_size < 1_000_000

    def test_unconverged_flag_survives(self, tmp_path, static_ops_module):
        ds = static_ops_module.dataset_ref
        penalty = ControlPenalty(weights=np.array([1.0]))
        sol = khjb_recursion(
            static_ops_module, ds.cost / ds.dt, penalty, H=5, stop_tol=0.0
        )
        assert sol.converged_at is None
        path = tmp_path / "sol2.bin"
        save(sol, path)
        assert load(path).converged_at is None

    def test_atomic_overwrite(self, tmp_path, solution):
        path = tmp_path / "same.bin"
        save(solution, path)
        save(solution, path)  # second write replaces, not appends
        assert np.array_equal(value_rows(load(path)), value_rows(solution))
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestValidation:
    def test_unsupported_type(self, tmp_path):
        with pytest.raises(InputError):
            save({"not": "an artifact"}, tmp_path / "x.bin")

    def test_dataset_is_not_persisted(self, tmp_path):
        # Datasets persist as CSV only (store.save_dataset_csv).
        path = tmp_path / "ds.bin"
        with pytest.raises(InputError, match="cannot persist"):
            save(make_static_dataset(N=5), path)
        assert not path.exists()

    def test_bench_report_is_not_persisted(self, tmp_path):
        # Reports persist as JSON only (store.write_json).
        report = BenchReport(
            system="s1", reps=1, rmse_mean=0.1, rmse_std=0.0,
            per_rep_rmse=[0.1], sigma=1.2, N=5, H=3, dt=1e-2,
            wall_time_s=0.0, seed=0,
        )
        path = tmp_path / "report.bin"
        with pytest.raises(InputError, match="cannot persist"):
            save(report, path)
        assert not path.exists()

    @pytest.mark.parametrize("kind", [1, 4])
    def test_retired_kind_header_is_refused(self, tmp_path, kind):
        # A well-framed file of the retired dataset (1) or report (4) kind.
        payload = struct.pack("<d", 0.0) * 4
        checksum = hashlib.blake2b(payload, digest_size=8).digest()
        path = tmp_path / "retired.bin"
        path.write_bytes(
            MAGIC + struct.pack("<II", 1, kind) + checksum + payload
        )
        with pytest.raises(HeaderError, match="unknown artifact kind"):
            load(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(MAGIC[:4])
        with pytest.raises(HeaderError):
            load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "magic.bin"
        path.write_bytes(b"NOTMYFMT" + b"\0" * 40)
        with pytest.raises(HeaderError):
            load(path)

    def test_unknown_kind(self, tmp_path, solution):
        path = tmp_path / "kind.bin"
        save(solution, path)
        blob = bytearray(path.read_bytes())
        blob[12:16] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(HeaderError, match="kind"):
            load(path)

    def test_version_1_solution_is_refused(self, tmp_path, solution):
        # Version 1 held the value and policy tables.
        path = tmp_path / "ver.bin"
        save(solution, path)
        blob = bytearray(path.read_bytes())
        assert struct.unpack("<II", blob[8:16]) == (3, 3)  # version, kind
        blob[8:12] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load(path)

    def test_version_2_solution_is_refused(self, tmp_path, solution):
        # Version 2 stored every right factor and no training states.
        path = tmp_path / "ver2.bin"
        save(solution, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 2)
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError, match="version 2 not supported"):
            load(path)

    def test_corrupt_payload_byte(self, tmp_path, solution):
        path = tmp_path / "corrupt.bin"
        save(solution, path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load(path)

    def test_tampered_terminal_row_is_invariant_error(
        self, tmp_path, solution
    ):
        # Flip a terminal-row value and *recompute* the checksum, so the
        # file is well-formed but describes an impossible solution.
        path = tmp_path / "tamper.bin"
        save(solution, path)
        blob = bytearray(path.read_bytes())
        payload = bytearray(blob[24:])
        # The payload ends with the coordinate rows, so its last float
        # belongs to the terminal row H.
        payload[-8:] = struct.pack("<d", 1.0)
        checksum = hashlib.blake2b(bytes(payload), digest_size=8).digest()
        path.write_bytes(bytes(blob[:16]) + checksum + bytes(payload))
        with pytest.raises(InvariantError, match="terminal"):
            load(path)

    @pytest.mark.parametrize("conv", [-2, 3, 10])
    def test_converged_step_outside_horizon_is_invariant_error(
        self, tmp_path, fired, conv
    ):
        # A checksummed file whose stop-rule step lies outside [0, H)
        # would hold the frozen row at steps the recursion never had.
        path = tmp_path / "conv.bin"
        save(fired, path)
        blob = bytearray(path.read_bytes())
        payload = bytearray(blob[24:])
        # The payload opens with H, N, n_u, dt and the converged step.
        assert struct.unpack("<d", payload[32:40]) == (1.0,)
        payload[32:40] = struct.pack("<d", float(conv))
        checksum = hashlib.blake2b(bytes(payload), digest_size=8).digest()
        path.write_bytes(bytes(blob[:16]) + checksum + bytes(payload))
        with pytest.raises(InvariantError, match="converged step"):
            load(path)

    def test_policy_row_checks_the_step_before_the_frozen_row(self, fired):
        stale = dataclasses.replace(fired, converged_at=10)
        with pytest.raises(InputError):
            stale.policy_row(5)
        assert np.array_equal(stale.policy_row(2), fired.frozen)

    def test_garbage_payload_is_invariant_error(self, tmp_path):
        # Well-framed value-solution file whose payload is too short for
        # its own declared shape: decoding must fail as a structural
        # problem.
        payload = struct.pack("<d", 1e6) * 4
        checksum = hashlib.blake2b(payload, digest_size=8).digest()
        blob = MAGIC + struct.pack("<II", 3, 3) + checksum + payload
        path = tmp_path / "garbage.bin"
        path.write_bytes(blob)
        with pytest.raises(InvariantError, match="malformed"):
            load(path)

    def test_infinite_count_is_invariant_error(
        self, tmp_path, static_ops_module
    ):
        # A checksummed model whose header gives N = inf: no count can be
        # read from it, so decoding fails as a structural problem.
        path = tmp_path / "inf.bin"
        save(static_ops_module, path)
        blob = path.read_bytes()
        # The payload, after the 24 header and checksum bytes, opens
        # with N.
        payload = struct.pack("<d", float("inf")) + blob[32:]
        checksum = hashlib.blake2b(payload, digest_size=8).digest()
        path.write_bytes(blob[:16] + checksum + payload)
        with pytest.raises(InvariantError, match="malformed"):
            load(path)

    def test_missing_file_is_storage_error(self, tmp_path):
        from kmeoc import StorageError

        with pytest.raises(StorageError):
            load(tmp_path / "absent.bin")

    def test_unwritable_destination_is_storage_error(self, solution):
        from kmeoc import StorageError

        with pytest.raises(StorageError):
            save(solution, "/proc/definitely/not/writable/x.bin")
