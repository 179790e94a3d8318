"""Persistence of fitted models and value solutions.

These are the two binary artifact kinds; datasets are CSV files
(:func:`kmeoc.systems.save_dataset_csv`) and bench reports are JSON or
CSV (:mod:`kmeoc.bench`).  Both kinds share one framing: a 16-byte
header (8-byte magic tag, little-endian u32 version, little-endian u32
kind), an 8-byte BLAKE2b checksum of the payload, then the payload
itself.  The version is kept per kind (:data:`VERSIONS`); a model is
stored as the thin factors of its operators, each distinct factor array
once, and a value solution as its coordinates y_k together with the
right factors, stage cost and penalty that expand them into rows.
Payloads are little-endian float64 streams in row-major order, so
files transfer between machines unchanged.  Writes go to a temporary
file in the destination directory and are renamed into place, so
readers never observe a half-written artifact.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from typing import Union

import numpy as np

from .errors import (
    ChecksumError,
    HeaderError,
    InputError,
    InvariantError,
    StorageError,
    VersionError,
)
from .estimator import EstimatedOperators, LowRank
from .hjb import ControlPenalty, ValueSolution
from .kernel import DIFFUSED_MODES, KernelConfig
from .systems import Dataset

__all__ = ["save", "load", "MAGIC", "VERSIONS"]

MAGIC = b"KMEOCART"

# Kinds 1 (datasets) and 4 (bench reports) are retired and not reused:
# a file of either kind is refused as an unknown kind.
_KIND_MODEL = 2
_KIND_VALUE_SOLUTION = 3

#: Format version per artifact kind.  Models are at 2: they hold
#: factored operators; version 1 stored dense N x N matrices.  Value
#: solutions are at 2: they hold the recursion's rank-r coordinates and
#: the right factors that expand them; version 1 stored the value and
#: policy tables.
VERSIONS = {
    _KIND_MODEL: 2,
    _KIND_VALUE_SOLUTION: 2,
}

Persistable = Union[EstimatedOperators, ValueSolution]


def _f64(*vals) -> bytes:
    return np.asarray(vals, dtype="<f8").tobytes()


def _arr(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


class _Reader:
    """Sequential cursor over a float64 payload."""

    def __init__(self, buf: bytes):
        self.buf = buf
        self.off = 0

    def floats(self, n: int) -> np.ndarray:
        out = np.frombuffer(self.buf, dtype="<f8", count=n, offset=self.off)
        self.off += 8 * n
        return out.copy()

    def scalar(self) -> float:
        return float(self.floats(1)[0])

    def intval(self) -> int:
        return int(round(self.scalar()))


def _distinct(arrays) -> tuple:
    """Each distinct array of ``arrays`` once, and the index of each."""
    distinct: list = []
    index = []
    for arr in arrays:
        pos = next(
            (k for k, f in enumerate(distinct) if np.array_equal(f, arr)), None
        )
        if pos is None:
            pos = len(distinct)
            distinct.append(arr)
        index.append(pos)
    return distinct, index


def _encode_model(ops: EstimatedOperators) -> bytes:
    operators = [ops.A, *ops.B]
    # Operators share factor arrays (fitted B blocks reuse A's right
    # factor, hand-built dense ones one identity); each distinct array
    # is written once and referenced by index.
    factors, index = _distinct(
        [arr for op in operators for arr in (op.left, op.right)]
    )
    N, r = ops.N, ops.A.rank
    if any(f.shape != (N, r) for f in factors):
        raise InputError("every operator factor must have shape (N, r)")
    ds = ops.dataset_ref
    cfg = ops.kernel_cfg
    mode_code = DIFFUSED_MODES.index(cfg.diffused_mode)
    parts = [
        _f64(
            N, ds.n_x, ds.n_u,
            cfg.sigma, cfg.epsilon, cfg.dt, cfg.gamma, mode_code,
            ops.jitter, ds.dt, ds.epsilon, ds.seed, r, len(factors),
        ),
        _arr(ds.X),
        _arr(ds.U),
        _arr(ds.cost),
    ]
    parts.extend(_arr(f) for f in factors)
    parts.append(_f64(*index))
    parts.extend(_arr(op.shift) for op in operators)
    return b"".join(parts)


def _decode_model(buf: bytes) -> EstimatedOperators:
    r = _Reader(buf)
    N, n_x, n_u = r.intval(), r.intval(), r.intval()
    sigma, epsilon, dt, gamma = (r.scalar() for _ in range(4))
    mode_code = r.intval()
    jitter = r.scalar()
    ds_dt, ds_epsilon = r.scalar(), r.scalar()
    ds_seed = r.intval()
    rank, n_factors = r.intval(), r.intval()
    if not 0 <= mode_code < len(DIFFUSED_MODES):
        raise InvariantError(
            f"unknown diffused-mode code {mode_code}",
            invariant="valid kernel config",
        )
    X = r.floats(n_x * N).reshape(n_x, N)
    U = r.floats(n_u * N).reshape(n_u, N)
    cost = r.floats(N)
    factors = [r.floats(N * rank).reshape(N, rank) for _ in range(n_factors)]
    index = [r.intval() for _ in range(2 * (1 + n_u))]
    shifts = [r.floats(N) for _ in range(1 + n_u)]
    if not all(0 <= k < n_factors for k in index):
        raise InvariantError(
            "operator refers to a missing factor", invariant="valid factor index"
        )
    if not all(np.all(np.isfinite(a)) for a in factors + shifts):
        raise InvariantError(
            "operator factors contain non-finite entries",
            invariant="finite operators",
        )
    operators = [
        LowRank(factors[index[2 * i]], factors[index[2 * i + 1]], shifts[i])
        for i in range(1 + n_u)
    ]
    # The successor snapshots are not persisted.
    ds = Dataset(
        X=X,
        U=U,
        Y=None,
        cost=cost,
        dt=ds_dt,
        epsilon=ds_epsilon,
        seed=ds_seed,
    )
    cfg = KernelConfig(
        sigma=sigma,
        epsilon=epsilon,
        dt=dt,
        gamma=gamma,
        diffused_mode=DIFFUSED_MODES[mode_code],
    )
    return EstimatedOperators(
        A=operators[0],
        B=operators[1:],
        x_factor=None,
        dataset_ref=ds,
        kernel_cfg=cfg,
        jitter=jitter,
    )


def _encode_value_solution(sol: ValueSolution) -> bytes:
    # The right factors R_j are written once per distinct array (fitted
    # B blocks share A's), then the shifts s_j of Z_j = [R_j s_j].
    rights, index = _distinct([Zj[:, :-1] for Zj in sol.factors])
    conv = -1 if sol.converged_at is None else sol.converged_at
    box = sol.box
    parts = [
        _f64(
            sol.horizon, sol.N, sol.n_u, sol.dt, conv,
            0 if box is None else 1, len(rights),
        ),
        _arr(sol.penalty.weights),
    ]
    if box is not None:
        parts += [_arr(box[0]), _arr(box[1])]
    parts.append(_f64(*(R.shape[1] for R in rights), *index))
    parts.extend(_arr(R) for R in rights)
    parts.extend(_arr(Zj[:, -1]) for Zj in sol.factors)
    parts.append(_arr(sol.stage))
    if sol.converged_at is not None:
        parts.append(_arr(sol.frozen))
    parts.append(_arr(sol.coords))
    return b"".join(parts)


def _decode_value_solution(buf: bytes) -> ValueSolution:
    r = _Reader(buf)
    H, N, n_u = r.intval(), r.intval(), r.intval()
    dt = r.scalar()
    conv = r.intval()
    if not -1 <= conv < H:
        raise InvariantError(
            f"converged step {conv} outside [0, {H})",
            invariant="converged step within the horizon",
        )
    has_box = r.intval()
    n_rights = r.intval()
    weights = r.floats(n_u)
    box = (r.floats(n_u), r.floats(n_u)) if has_box else None
    ranks = [r.intval() for _ in range(n_rights)]
    index = [r.intval() for _ in range(1 + n_u)]
    if not all(0 <= k < n_rights for k in index):
        raise InvariantError(
            "operator refers to a missing factor", invariant="valid factor index"
        )
    rights = [r.floats(N * rank).reshape(N, rank) for rank in ranks]
    factors = [np.column_stack([rights[k], r.floats(N)]) for k in index]
    stage = r.floats(N)
    frozen = r.floats(n_u * N).reshape(n_u, N) if conv >= 0 else None
    D = sum(Zj.shape[1] for Zj in factors)
    coords = r.floats((H + 1) * D).reshape(H + 1, D)
    if not np.all(coords[H] == 0.0):
        raise InvariantError(
            "terminal value row is not zero", invariant="zero terminal value"
        )
    return ValueSolution(
        coords=coords,
        factors=factors,
        stage=stage,
        penalty=ControlPenalty(weights=weights, box=box),
        dt=dt,
        converged_at=None if conv < 0 else conv,
        frozen=frozen,
    )


_ENCODERS = {
    EstimatedOperators: (_KIND_MODEL, _encode_model),
    ValueSolution: (_KIND_VALUE_SOLUTION, _encode_value_solution),
}

_DECODERS = {
    _KIND_MODEL: _decode_model,
    _KIND_VALUE_SOLUTION: _decode_value_solution,
}


def save(artifact: Persistable, path) -> None:
    """Atomically write an artifact file (temp file + rename).

    Raises
    ------
    InputError
        Unsupported artifact type.
    StorageError
        Filesystem failure; carries the path.
    """
    try:
        kind, encode = _ENCODERS[type(artifact)]
    except KeyError:
        raise InputError(
            f"cannot persist objects of type {type(artifact).__name__}"
        ) from None
    payload = encode(artifact)
    checksum = hashlib.blake2b(payload, digest_size=8).digest()
    header = MAGIC + struct.pack("<II", VERSIONS[kind], kind)
    path = os.fspath(path)
    dest_dir = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=dest_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header)
                fh.write(checksum)
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise StorageError(f"cannot write artifact to {path!r}: {exc}") from exc


def load(path) -> Persistable:
    """Read and validate an artifact file.

    Raises
    ------
    HeaderError
        Truncated file, wrong magic, or unknown kind.
    VersionError
        Version other than the one this code writes for the kind.
    ChecksumError
        Payload bytes do not match the recorded checksum.
    InvariantError
        Structurally valid payload describing an invalid object.
    StorageError
        Filesystem failure.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise StorageError(f"cannot read artifact {path!r}: {exc}") from exc
    if len(blob) < 24:
        raise HeaderError(
            f"{path!r}: file too short to hold an artifact header"
        )
    if blob[:8] != MAGIC:
        raise HeaderError(f"{path!r}: bad magic tag {blob[:8]!r}")
    version, kind = struct.unpack("<II", blob[8:16])
    if kind not in _DECODERS:
        raise HeaderError(f"{path!r}: unknown artifact kind {kind}")
    if version != VERSIONS[kind]:
        raise VersionError(
            f"{path!r}: version {version} not supported "
            f"(expected {VERSIONS[kind]})"
        )
    checksum, payload = blob[16:24], blob[24:]
    if hashlib.blake2b(payload, digest_size=8).digest() != checksum:
        raise ChecksumError(f"{path!r}: payload checksum mismatch")
    try:
        return _DECODERS[kind](payload)
    except InvariantError:
        raise
    except InputError as exc:
        raise InvariantError(str(exc), invariant=str(exc)) from exc
    except (ValueError, struct.error) as exc:
        raise InvariantError(
            f"{path!r}: malformed payload: {exc}",
            invariant="well-formed payload",
        ) from exc
