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
from kmeoc.estimator import LowRank
from kmeoc.store import MAGIC, VERSIONS
from kmeoc.systems import generate_dataset, make_system

from conftest import make_static_dataset, policy_rows, value_rows


@pytest.fixture(scope="module")
def solution(static_ops_module, tmp_path_factory):
    """A boxed H = 12 solution of a saved model, so it can be saved too."""
    save(static_ops_module, tmp_path_factory.mktemp("model") / "model.bin")
    penalty = ControlPenalty(weights=np.array([1.0]), box=Box(-1.0, 1.0))
    ds = static_ops_module.dataset_ref
    return khjb_recursion(static_ops_module, ds.cost / ds.dt, penalty, H=12)


@pytest.fixture(scope="module")
def s1_bench(tmp_path_factory):
    """(ops, sol) of s1 at bench settings, N = 1000 and H = 500.

    The model is saved, and the solution names its file's checksum.
    """
    from kmeoc.bench import bench_config, fit_and_solve

    ops, sol = fit_and_solve(
        make_system("s1"), bench_config("s1"), data_seed=0
    )
    save(ops, tmp_path_factory.mktemp("s1") / "model.bin")
    return ops, dataclasses.replace(sol, model_checksum=ops.checksum)


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
        assert struct.unpack("<II", blob[8:16]) == (4, 2)  # version, kind
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

    def test_version_3_model_is_refused(self, tmp_path, static_ops_module):
        # Version 3 also wrote a factor count and a factor index table.
        path = tmp_path / "model_v3.bin"
        save(static_ops_module, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 3)
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError, match="version 3 not supported"):
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
        # Header and checksum, 12 settings and the rank, X, U, Y and
        # cost, then a left factor and a shift per operator.
        size = 24 + 8 * (
            13 + (2 * n_x + n_u + 1) * N + (1 + n_u) * (r + 1) * N
        )
        assert path.stat().st_size == size == 464_128

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

    def test_model_records_its_file_checksum(self, tmp_path):
        from kmeoc import enforce_markov, fit_krr

        ops = fit_krr(
            make_static_dataset(N=20, seed=31),
            KernelConfig(sigma=1.0, epsilon=0.0),
        )
        assert ops.checksum is None
        path = tmp_path / "model.bin"
        save(ops, path)
        recorded = path.read_bytes()[16:24]
        assert ops.checksum == load(path).checksum == recorded
        # A changed copy is not that file's model.
        assert enforce_markov(ops).checksum is None
        # A solution names the checksum of the model it was computed from.
        penalty = ControlPenalty(weights=np.array([1.0]))
        cost = ops.dataset_ref.cost / ops.dataset_ref.dt
        sol = khjb_recursion(ops, cost, penalty, H=3)
        assert sol.model_checksum == recorded

    def test_dense_operators_are_refused(self, tmp_path, static_ops_module):
        # Hand-built dense operators work in memory, as LowRank(M, I, 0),
        # but their right factor is not the one rebuilt from the data.
        N = static_ops_module.N
        M = np.random.default_rng(4).normal(size=(N, N))
        dense = dataclasses.replace(
            static_ops_module, A=M, B=[np.zeros((N, N))]
        )
        assert np.array_equal(dense.A_hat, M)
        # So is a fitted operator whose right factor is one ulp off.
        A = static_ops_module.A
        nudged = dataclasses.replace(
            static_ops_module,
            A=LowRank(A.left, np.nextafter(A.right, np.inf), A.shift),
        )
        for ops in (dense, nudged):
            with pytest.raises(InputError, match="only fitted operators"):
                save(ops, tmp_path / "hand_built.bin")
        assert not any(tmp_path.iterdir())

    def test_value_solution_round_trip(self, tmp_path, solution):
        # A boxed solution reloads in the horizon-1 stationary form: its
        # stationary law bit for bit, the coordinates that law was
        # expanded from, and the checksum of its model's file.
        path = tmp_path / "sol.bin"
        save(solution, path)
        back = load(path)
        assert back.stationary_policy().tobytes() == (
            solution.stationary_policy().tobytes()
        )
        assert (back.horizon, back.converged_at) == (1, 0)
        k = solution.stationary_step
        assert back.coords[0].tobytes() == solution.coords[k + 1].tobytes()
        assert not back.coords[1].any()
        assert (back.N, back.n_u, back.dt) == (solution.N, 1, solution.dt)
        assert back.model_checksum == solution.model_checksum
        np.testing.assert_array_equal(back.box.lo, solution.box.lo)
        np.testing.assert_array_equal(back.box.hi, solution.box.hi)
        # Saved again, it writes the same bytes.
        save(back, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_coordinate_solution_round_trip(self, tmp_path, s1_bench):
        # s1 at bench settings: coordinate path, the stop rule fires.
        from kmeoc import policy_interpolate

        ops, sol = s1_bench
        assert sol.converged_at is not None
        path = tmp_path / "s1_sol.bin"
        save(sol, path)
        back = load(path)
        assert back.stationary_policy().tobytes() == (
            sol.stationary_policy().tobytes()
        )
        assert back.coords[0].tobytes() == (
            sol.coords[sol.converged_at + 1].tobytes()
        )
        assert back.penalty.box is None
        assert np.array_equal(back.penalty.weights, sol.penalty.weights)
        # With the model's operators it gives the same law off the data.
        query = np.linspace(-2.0, 2.0, 11)[None, :]
        assert policy_interpolate(query, back, ops).tobytes() == (
            policy_interpolate(query, sol, ops).tobytes()
        )

    def test_unconverged_solution_round_trip(self, tmp_path, static_ops_module):
        # The stop rule never fires: the law is row 0, expanded from y_1.
        ds = static_ops_module.dataset_ref
        penalty = ControlPenalty(weights=np.array([1.0]))
        save(static_ops_module, tmp_path / "model.bin")
        sol = khjb_recursion(
            static_ops_module, ds.cost / ds.dt, penalty, H=5, stop_tol=0.0
        )
        assert sol.converged_at is None
        path = tmp_path / "sol2.bin"
        save(sol, path)
        back = load(path)
        assert back.stationary_policy().tobytes() == (
            sol.stationary_policy().tobytes()
        )
        assert back.coords[0].tobytes() == sol.coords[1].tobytes()
        assert (back.horizon, back.converged_at) == (1, 0)

    def test_loaded_solution_expands_no_other_row(self, tmp_path, solution):
        path = tmp_path / "sol.bin"
        save(solution, path)
        back = load(path)
        assert back.factors is None and back.stage is None
        rows = [back.value_row] * 3 + [back.policy_row] * 2
        for row, k in zip(rows, [0, 1, 5, 1, 5]):
            with pytest.raises(InputError, match="rerun kmeoc control"):
                row(k)

    def test_solution_of_unsaved_model_is_refused(
        self, tmp_path, static_ops_module
    ):
        # Operators never saved or loaded have no file to name.
        ops = dataclasses.replace(static_ops_module)
        ds = ops.dataset_ref
        sol = khjb_recursion(
            ops, ds.cost / ds.dt, ControlPenalty(weights=np.array([1.0])), H=2
        )
        path = tmp_path / "orphan.bin"
        with pytest.raises(InputError, match="names no model file"):
            save(sol, path)
        assert not path.exists()

    def test_s1_solution_is_under_one_megabyte(self, tmp_path, s1_bench):
        # N = 1000, H = 500: the tables alone took 8 MB, format 3 264 592
        # bytes.  Format 4 holds the header, the model checksum, five
        # counts and settings, the weights, the stationary policy row and
        # its D coordinates: 8 512 bytes.
        ops, sol = s1_bench
        assert (ops.N, sol.horizon) == (1000, 500)
        path = tmp_path / "s1_sol.bin"
        save(sol, path)
        n_u, D = ops.n_u, sol.coords.shape[1]
        assert path.stat().st_size == 24 + 8 + 8 * (5 + n_u + n_u * ops.N + D)
        assert path.stat().st_size == 8512

    def test_atomic_overwrite(self, tmp_path, solution):
        path = tmp_path / "same.bin"
        save(solution, path)
        save(solution, path)  # second write replaces, not appends
        assert np.array_equal(
            load(path).stationary_policy(), solution.stationary_policy()
        )
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
        assert struct.unpack("<II", blob[8:16]) == (4, 3)  # version, kind
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

    def test_version_3_solution_is_refused(self, tmp_path, solution):
        # Version 3 held every step's coordinates and the training states.
        path = tmp_path / "ver3.bin"
        save(solution, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 3)
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError, match="version 3 not supported"):
            load(path)

    @pytest.mark.parametrize("artifact", ["model", "solution"])
    def test_bytes_after_the_payload_are_invariant_error(
        self, tmp_path, static_ops_module, solution, artifact
    ):
        # 800 zero bytes appended under a recomputed checksum.
        path = tmp_path / "long.bin"
        save(static_ops_module if artifact == "model" else solution, path)
        blob = path.read_bytes()
        payload = blob[24:] + bytes(800)
        checksum = hashlib.blake2b(payload, digest_size=8).digest()
        path.write_bytes(blob[:16] + checksum + payload)
        with pytest.raises(InvariantError, match="800 bytes after"):
            load(path)

    def test_corrupt_payload_byte(self, tmp_path, solution):
        path = tmp_path / "corrupt.bin"
        save(solution, path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load(path)

    def test_non_finite_policy_row_is_invariant_error(
        self, tmp_path, solution
    ):
        # Set a policy entry to NaN and *recompute* the checksum, so the
        # file is well-formed but describes an impossible solution.
        path = tmp_path / "tamper.bin"
        save(solution, path)
        blob = path.read_bytes()
        # The payload opens with the model checksum, five counts and
        # settings, the weight and the box; the policy row follows.
        payload = bytearray(blob[24:])
        payload[72:80] = struct.pack("<d", float("nan"))
        checksum = hashlib.blake2b(bytes(payload), digest_size=8).digest()
        path.write_bytes(blob[:16] + checksum + bytes(payload))
        with pytest.raises(InvariantError, match="not finite"):
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
        blob = MAGIC + struct.pack("<II", VERSIONS[3], 3) + checksum + payload
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

    def test_negative_count_is_invariant_error(self, tmp_path):
        # A checksummed solution whose N is -1: numpy would read the
        # count as "the rest" and step the cursor back, so a D chosen to
        # match would load a solution of six points.
        payload = bytes(8) + struct.pack("<12d", -1, 1, 7, 0.01, 0, *[1.0] * 7)
        checksum = hashlib.blake2b(payload, digest_size=8).digest()
        path = tmp_path / "negative.bin"
        path.write_bytes(
            MAGIC + struct.pack("<II", VERSIONS[3], 3) + checksum + payload
        )
        with pytest.raises(InvariantError, match="negative count"):
            load(path)

    def test_missing_file_is_storage_error(self, tmp_path):
        from kmeoc import StorageError

        with pytest.raises(StorageError):
            load(tmp_path / "absent.bin")

    def test_unwritable_destination_is_storage_error(self, solution):
        from kmeoc import StorageError

        with pytest.raises(StorageError):
            save(solution, "/proc/definitely/not/writable/x.bin")
