"""Every file the program reads or writes.

Models and value solutions are binary artifacts (:func:`save`,
:func:`load`) with one framing: a 16-byte header (8-byte magic tag,
little-endian u32 version, little-endian u32 kind), an 8-byte BLAKE2b
checksum of the payload, then the payload itself.  The version is kept
per kind (:data:`VERSIONS`).  A model is stored as its training data
(X, U, Y and cost) and the thin factors of its operators, each distinct
factor array once; the fitted right factor R = pref * L_Y is not
written but rebuilt on load by :func:`kmeoc.kernel.right_factor`, the
fit's own code, so it reloads bit for bit on the machine that wrote it
and to rounding elsewhere, like every BLAS result.  :func:`save` runs
that rebuild and writes any factor it does not reproduce bit for bit
(hand-built dense operators) as it is.  A value solution is stored as
its model's stationary law: the stationary policy row, the coordinates
y* it was expanded from, the penalty and dt, after the payload checksum
of the model file it was computed from
(:attr:`kmeoc.hjb.ValueSolution.model_checksum`), which names that
model in place of a copy of it.  It loads in the horizon-1 stationary
form and expands no other row.  Payloads are little-endian float64
streams in row-major order (the model checksum is 8 raw bytes), so
files transfer between machines unchanged; a decoder reads its payload
to the last byte.  Artifacts are written to a
temporary file in the destination directory and renamed into place, so
readers never observe a half-written artifact.  Datasets, value/policy
tables, forecasts, weights and query answers are CSV tables, all
written by :func:`_write_csv`, and the fit, bench and sweep summaries
are JSON, written by :func:`write_json`.  The CLI's ``--config``
settings file is flat ``key=value`` text, read by :func:`load_config`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from typing import Optional, Sequence, Union

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
from .hjb import ValueSolution
from .kernel import DIFFUSED_MODES, KernelConfig, right_factor
from .systems import Box, ControlPenalty, Dataset

__all__ = [
    "save", "load", "MAGIC", "VERSIONS",
    "save_dataset_csv", "load_dataset_csv", "load_states_csv",
    "export_value_policy_csv", "export_forecast_csv", "export_weights_csv",
    "export_queries_csv", "write_json",
]

MAGIC = b"KMEOCART"

# Kinds 1 (datasets) and 4 (bench reports) are retired and not reused:
# a file of either kind is refused as an unknown kind.
_KIND_MODEL = 2
_KIND_VALUE_SOLUTION = 3

#: Format version per artifact kind.  Models are at 3: they hold the
#: successors Y and leave out the right factor rebuilt from them;
#: version 2 stored that factor and no Y, version 1 dense N x N
#: matrices.  Value solutions are at 4: they hold the stationary
#: policy row, its coordinates y* and their model's checksum; version 3
#: held every step's coordinates, the training states X and Y and the
#: kernel settings, version 2 every right factor, version 1 the value
#: and policy tables.
VERSIONS = {
    _KIND_MODEL: 3,
    _KIND_VALUE_SOLUTION: 4,
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
        if n < 0:  # numpy would read a count of -1 as "the rest"
            raise ValueError(f"negative count {n}")
        out = np.frombuffer(self.buf, dtype="<f8", count=n, offset=self.off)
        self.off += 8 * n
        return out.copy()

    def scalar(self) -> float:
        return float(self.floats(1)[0])

    def intval(self) -> int:
        return int(round(self.scalar()))


def _distinct(arrays) -> tuple:
    """Each bitwise-distinct array of ``arrays`` once, and the index of each."""
    distinct: list = []
    index = []
    for arr in arrays:
        pos = next(
            (
                k for k, f in enumerate(distinct)
                if f.shape == arr.shape and f.tobytes() == arr.tobytes()
            ),
            None,
        )
        if pos is None:
            pos = len(distinct)
            distinct.append(arr)
        index.append(pos)
    return distinct, index


def _encode_model(ops: EstimatedOperators) -> bytes:
    operators = [ops.A, *ops.B]
    ds = ops.dataset_ref
    cfg = ops.kernel_cfg
    # Operators share factor arrays (fitted B blocks reuse A's right
    # factor, hand-built dense ones one identity); each distinct array
    # is written once and referenced by index.  Index 0 is the right
    # factor rebuilt from the data, which is not written.
    factors, index = _distinct(
        [right_factor(ds.X, ds.Y, cfg)]
        + [arr for op in operators for arr in (op.left, op.right)]
    )
    factors, index = factors[1:], index[1:]
    N, r = ops.N, ops.A.rank
    if any(f.shape != (N, r) for f in factors):
        raise InputError("every operator factor must have shape (N, r)")
    mode_code = DIFFUSED_MODES.index(cfg.diffused_mode)
    parts = [
        _f64(
            N, ds.n_x, ds.n_u,
            cfg.sigma, cfg.epsilon, cfg.dt, cfg.gamma, mode_code,
            ops.jitter, ds.dt, ds.epsilon, ds.seed, r, len(factors),
        ),
        _arr(ds.X),
        _arr(ds.U),
        _arr(ds.Y),
        _arr(ds.cost),
    ]
    parts.extend(_arr(f) for f in factors)
    parts.append(_f64(*index))
    parts.extend(_arr(op.shift) for op in operators)
    return b"".join(parts)


def _decode_model(r: _Reader) -> EstimatedOperators:
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
    Y = r.floats(n_x * N).reshape(n_x, N)
    cost = r.floats(N)
    stored = [r.floats(N * rank).reshape(N, rank) for _ in range(n_factors)]
    index = [r.intval() for _ in range(2 * (1 + n_u))]
    shifts = [r.floats(N) for _ in range(1 + n_u)]
    if not all(0 <= k <= n_factors for k in index):
        raise InvariantError(
            "operator refers to a missing factor", invariant="valid factor index"
        )
    if not all(np.all(np.isfinite(a)) for a in stored + shifts):
        raise InvariantError(
            "operator factors contain non-finite entries",
            invariant="finite operators",
        )
    ds = Dataset(
        X=X,
        U=U,
        Y=Y,
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
    # A machine whose rounding stops the pivoted Cholesky at another
    # column rebuilds a factor the stored ones cannot use.
    rebuilt = right_factor(X, Y, cfg) if 0 in index else None
    if rebuilt is not None and rebuilt.shape != (N, rank):
        raise InvariantError(
            f"the right factor rebuilt from the data has rank "
            f"{rebuilt.shape[1]}, the stored factors {rank}; refit the model",
            invariant="rebuilt right factor of the stored rank",
        )
    factors = [rebuilt] + stored
    operators = [
        LowRank(factors[index[2 * i]], factors[index[2 * i + 1]], shifts[i])
        for i in range(1 + n_u)
    ]
    return EstimatedOperators(
        A=operators[0],
        B=operators[1:],
        x_factor=None,
        dataset_ref=ds,
        kernel_cfg=cfg,
        jitter=jitter,
    )


def _encode_value_solution(sol: ValueSolution) -> bytes:
    if sol.model_checksum is None:
        raise InputError(
            "the value solution names no model file: save its model "
            "(or load it from a file) before solving"
        )
    # y*: row k* + 1 of a recursion, row 0 of the stationary form a
    # loaded solution is in.
    y = sol.coords[0 if sol.factors is None else sol.stationary_step + 1]
    box = sol.box
    parts = [
        sol.model_checksum,
        _f64(sol.N, sol.n_u, y.size, sol.dt, box is not None),
        _arr(sol.penalty.weights),
    ]
    if box is not None:
        parts += [_arr(box.lo), _arr(box.hi)]
    parts += [_arr(sol.stationary_policy()), _arr(y)]
    return b"".join(parts)


def _decode_value_solution(r: _Reader) -> ValueSolution:
    # The model checksum's 8 bytes, read as one float64 and back
    # unchanged.
    model_checksum = r.floats(1).tobytes()
    N, n_u, D = r.intval(), r.intval(), r.intval()
    dt = r.scalar()
    has_box = r.intval()
    weights = r.floats(n_u)
    box = Box(r.floats(n_u), r.floats(n_u)) if has_box else None
    frozen = r.floats(n_u * N).reshape(n_u, N)
    y = r.floats(D)
    if not np.all(np.isfinite(frozen)):
        raise InvariantError(
            "the stationary policy row is not finite",
            invariant="finite policy",
        )
    return ValueSolution(
        coords=np.vstack([y, np.zeros(D)]),
        factors=None,
        stage=None,
        penalty=ControlPenalty(weights=weights, box=box),
        dt=dt,
        converged_at=0,
        frozen=frozen,
        model_checksum=model_checksum,
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

    A saved model records the file's payload checksum
    (:attr:`~kmeoc.estimator.EstimatedOperators.checksum`), as a loaded
    one does, and a value solution computed from it names that checksum.

    Raises
    ------
    InputError
        Unsupported artifact type, or a value solution that names no
        model file.
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
    if kind == _KIND_MODEL:
        artifact.checksum = checksum


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
        Structurally valid payload describing an invalid object, or
        bytes after its last field.
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
    reader = _Reader(payload)
    try:
        artifact = _DECODERS[kind](reader)
    except InvariantError:
        raise
    except InputError as exc:
        raise InvariantError(str(exc), invariant=str(exc)) from exc
    except (ValueError, OverflowError, struct.error) as exc:
        raise InvariantError(
            f"{path!r}: malformed payload: {exc}",
            invariant="well-formed payload",
        ) from exc
    if reader.off != len(payload):
        raise InvariantError(
            f"{path!r}: {len(payload) - reader.off} bytes after the "
            "payload's last field",
            invariant="payload read to its end",
        )
    if kind == _KIND_MODEL:
        artifact.checksum = checksum
    return artifact


def _write_csv(path, header, blocks, int_cols=(), comment=None) -> None:
    """Write an optional ``# comment`` line, the header, then each block.

    Every block is a 2-D array with one row per table row; integer
    columns (by index) print as ``%d``, the others as ``%.17g``.  The
    rows are formatted one block at a time, so a table of many blocks is
    never held in memory whole.  Every line ends in a bare LF.
    """
    line = ",".join(
        "%d" if j in int_cols else "%.17g" for j in range(len(header))
    ) + "\n"
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for block in blocks:
            block = np.asarray(block, dtype=float)
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _names(prefix: str, n: int) -> list:
    """Column names ``prefix1 .. prefixn``."""
    return [f"{prefix}{d + 1}" for d in range(n)]


def _csv_header(n_x: int, n_u: int) -> list:
    return _names("x", n_x) + _names("u", n_u) + _names("y", n_x) + ["cost"]


def save_dataset_csv(ds: Dataset, path) -> None:
    """Write the one-row-per-sample CSV with a leading metadata line."""
    _write_csv(
        path,
        _csv_header(ds.n_x, ds.n_u),
        [np.vstack([ds.X, ds.U, ds.Y, ds.cost]).T],
        comment=(
            f"dt={ds.dt:.17g} epsilon={ds.epsilon:.17g} "
            f"seed={ds.seed} system={ds.system}"
        ),
    )


def _float_rows(path, numbered_rows, width=None) -> np.ndarray:
    """Stack (line number, fields) pairs into a float array, one row each.

    Every row must have ``width`` fields (the first row's count when
    None).  A ragged or non-numeric row, or no row at all, raises
    InputError naming the file and the line.
    """
    rows = []
    for line, fields in numbered_rows:
        if width is None:
            width = len(fields)
        if len(fields) != width:
            raise InputError(
                f"{path}:{line}: {len(fields)} fields, expected {width}"
            )
        try:
            rows.append([float(v) for v in fields])
        except ValueError as exc:
            raise InputError(f"{path}:{line}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def _numbered_lines(path) -> list:
    """(line number from 1, text) per line; undecodable text: InputError."""
    try:
        with open(path) as fh:
            return [(n, t.rstrip("\n")) for n, t in enumerate(fh, 1)]
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None


def load_dataset_csv(path) -> Dataset:
    """Inverse of :func:`save_dataset_csv` (bit-exact round trip).

    The header must be exactly the one it writes; columns are read by
    position.  Malformed input raises InputError naming the file and the
    line, and undecodable text one naming the file.
    """
    lines = _numbered_lines(path)
    meta_line = lines[0][1] if lines else ""
    if not meta_line.startswith("#"):
        raise InputError(f"{path}:1: dataset CSV missing the metadata line")
    meta = dict(tok.partition("=")[::2] for tok in meta_line[1:].split())
    try:
        dt, epsilon = float(meta["dt"]), float(meta["epsilon"])
        seed = int(meta["seed"])
    except (KeyError, ValueError):
        raise InputError(
            f"{path}:1: metadata needs numeric dt=, epsilon= and seed=, "
            f"got {meta_line.strip()!r}"
        ) from None
    if seed < 0:
        raise InputError(f"{path}:1: seed must be >= 0, got {seed}")
    header = lines[1][1].split(",") if len(lines) > 1 else []
    n_x = sum(1 for h in header if h.startswith("x"))
    n_u = sum(1 for h in header if h.startswith("u"))
    if not (n_x and n_u) or header != _csv_header(n_x, n_u):
        raise InputError(
            f"{path}:2: expected the header x1..xn,u1..um,y1..yn,cost, "
            f"got {','.join(header)!r}"
        )
    numbered = ((n, t.split(",")) for n, t in lines[2:] if t)
    data = _float_rows(path, numbered, len(header)).T
    return Dataset(
        X=data[:n_x],
        U=data[n_x : n_x + n_u],
        Y=data[n_x + n_u : 2 * n_x + n_u],
        cost=data[-1],
        dt=dt,
        epsilon=epsilon,
        seed=seed,
        system=meta.get("system", ""),
    )


def load_states_csv(path) -> np.ndarray:
    """The n_x x M states of a CSV with one state per row.

    ``#`` starts a comment; blank lines are skipped.  A bad row raises
    InputError naming its line in the file, and undecodable text one
    naming the file.
    """
    lines = [(n, t.split("#", 1)[0].strip()) for n, t in _numbered_lines(path)]
    return _float_rows(path, ((n, t.split(",")) for n, t in lines if t)).T


def load_config(path, parsers) -> dict:
    """The settings of a flat ``key=value`` file, each value parsed.

    ``parsers`` maps every accepted key to the callable that parses its
    value.  ``#`` starts a comment; blank lines are skipped.  A file
    that cannot be read or decoded, a line without ``=``, a key
    ``parsers`` lacks, or a value its parser rejects with ValueError
    raises InputError naming the file, and for a bad line the line.
    """
    try:
        lines = _numbered_lines(path)
    except OSError as exc:
        raise InputError(f"cannot read config file {path!r}: {exc}") from exc
    out = {}
    for n, line in lines:
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        if not sep or not key:
            raise InputError(
                f"{path}:{n}: expected 'key=value', got {line.rstrip()!r}"
            )
        if key not in parsers:
            raise InputError(f"{path}:{n}: unknown config key {key!r}")
        try:
            out[key] = parsers[key](value.strip())
        except ValueError as exc:
            raise InputError(
                f"{path}:{n}: bad value for {key!r}: {exc}"
            ) from None
    return out


def export_value_policy_csv(
    sol: ValueSolution, X, path, steps: Optional[Sequence[int]] = None
) -> None:
    """Write ``k,t,i,x1..xn,v,u1..um`` rows, k outermost, then i.

    ``X`` is the n_x x N array of training states.  ``steps`` restricts
    the export to the given step indices (default: all policy steps
    0..H-1).  A step outside [0, H) or an ``X`` of another shape raises
    InputError before the file is opened.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != sol.N:
        raise InputError(
            f"X has shape {X.shape}, the solution needs (n_x, {sol.N})"
        )
    steps = range(sol.horizon) if steps is None else list(steps)
    for k in steps:
        if not 0 <= k < sol.horizon:
            raise InputError(f"step {k} outside [0, {sol.horizon})")
    n_x, N = X.shape
    header = ["k", "t", "i", *_names("x", n_x), "v", *_names("u", sol.n_u)]
    blocks = (
        np.column_stack([
            np.full(N, k), np.full(N, k * sol.dt), np.arange(N), X.T,
            sol.value_row(k), sol.policy_row(k).T,
        ])
        for k in steps
    )
    _write_csv(path, header, blocks, int_cols=(0, 2))


def export_forecast_csv(values, dt: float, path) -> None:
    """Write ``k,t,observable_value`` rows for a forecast path."""
    values = np.asarray(values, dtype=float).ravel()
    k = np.arange(values.size)
    _write_csv(
        path, ["k", "t", "observable_value"],
        [np.column_stack([k, k * dt, values])], int_cols=(0,),
    )


def export_weights_csv(weights_seq, path) -> None:
    """Write ``k,i,z_i`` rows for a sequence of MeasureWeights."""
    blocks = (
        np.column_stack([np.full(w.z.size, w.step), np.arange(w.z.size), w.z])
        for w in weights_seq
    )
    _write_csv(path, ["k", "i", "z_i"], blocks, int_cols=(0, 1))


def export_queries_csv(states, controls, path) -> None:
    """Write ``x1..xn,u1..um`` rows, one per queried state.

    ``states`` is n_x x M and ``controls`` n_u x M, column j the control
    the feedback law gives at state j.
    """
    header = _names("x", len(states)) + _names("u", len(controls))
    _write_csv(path, header, [np.vstack([states, controls]).T])


def _json_safe(value):
    """``value`` with every NaN float, at any depth, replaced by None."""
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def write_json(payload, path) -> None:
    """Write ``payload`` as indented JSON, NaN as null, ending in a newline."""
    with open(path, "w") as fh:
        json.dump(_json_safe(payload), fh, indent=2)
        fh.write("\n")
