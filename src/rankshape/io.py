"""Trajectory file formats (binary HSTB and headerless CSV) plus the flat
key = value run configuration.

HSTB layout, all little-endian: magic "HSTB", u32 version (currently 1),
u32 row count T, u32 column count d, then T*d float32 values row-major,
then optionally a u32 byte length followed by that many bytes of UTF-8
JSON metadata.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import itertools
import json
import math
import os
import struct
import typing
import warnings
from io import StringIO
from pathlib import Path

import numpy as np

from .errors import ConfigError, FileFormatError, InputError
from .rewards import DEFAULT_ALPHA
from .spectral import _all_finite, _check_sequence, validate_trajectory
from .windows import DEFAULT_STRIDE, DEFAULT_WIDTH

MAGIC = b"HSTB"
VERSION = 1
_HEADER = struct.Struct("<4sIII")


@contextlib.contextmanager
def _file_errors(verb: str, path):
    """The one file-error rule: an OSError raised while reading or writing a
    file is an InputError, ``cannot <verb> <file>: <reason>``."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot {verb} {exc.filename or path}: {exc.strerror}") from None


def write_trajectory(path, H, metadata: dict | None = None) -> None:
    """Write a trajectory: HSTB binary, or CSV when the extension is .csv.

    HSTB payloads are float32, so values must fit that range, and T, d and
    the metadata's byte length are u32 fields, refused past 2**32 - 1
    before anything is converted or the file is opened; CSV files cannot
    carry metadata.
    """
    H = validate_trajectory(H)
    path = Path(path)
    if path.suffix.lower() == ".csv":
        if metadata is not None:
            raise InputError("CSV trajectories cannot carry metadata")
        with _file_errors("write", path), open(path, "w", encoding="utf-8", newline="") as fh:
            for row in H:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
        return
    meta = None if metadata is None else json.dumps(metadata).encode("utf-8")
    sizes = {"rows": H.shape[0], "columns": H.shape[1], "metadata bytes": len(meta or b"")}
    for what, n in sizes.items():
        if n >= 2**32:
            raise InputError(f"HSTB cannot hold {n} {what}: a u32 field holds at most {2**32 - 1}")
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(H, dtype="<f4")
    if not _all_finite(payload):
        raise InputError("trajectory values exceed the float32 range")
    with _file_errors("write", path), open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, H.shape[0], H.shape[1]))
        fh.write(payload)  # its buffer, so the payload's bytes are not copied
        if meta is not None:
            fh.write(struct.pack("<I", len(meta)) + meta)


def read_trajectory(path) -> np.ndarray:
    """Read an HSTB or .csv trajectory as a float64 (T, d) matrix."""
    return read_trajectory_with_metadata(path)[0]


def read_trajectory_with_metadata(path) -> tuple[np.ndarray, dict | None]:
    H, metadata = _read_stored(path)
    return H.astype(np.float64, copy=False), metadata


def _read_stored(path) -> tuple[np.ndarray, dict | None]:
    """A trajectory as stored, float32 for HSTB and float64 for CSV, and its
    metadata. The matrix is checked here, once: it is (T, d) with T, d >= 1
    and every value finite, so callers need not validate it again."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"no such file: {path}")
    if path.suffix.lower() == ".csv":
        return _read_csv(path), None
    return _read_hstb(path)


def _read_hstb(path: Path) -> tuple[np.ndarray, dict | None]:
    """Read an HSTB file in one pass: header, then the float32 payload
    straight into its array (sized against the file length first), then
    the metadata block. Returns the finite-checked float32 payload."""
    with _file_errors("read", path), open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < 4 or header[:4] != MAGIC:
            raise FileFormatError("bad_magic", f"bad magic: not an HSTB file: {path}")
        if len(header) < _HEADER.size:
            raise FileFormatError("truncated_payload", f"truncated header: {path}")
        _, version, rows, cols = _HEADER.unpack(header)
        if version != VERSION:
            raise FileFormatError("bad_version", f"unsupported HSTB version {version}")
        if rows < 1 or cols < 1:
            raise FileFormatError("dimension_mismatch", f"invalid dimensions {rows}x{cols}")
        need = rows * cols * 4
        have = os.fstat(fh.fileno()).st_size - _HEADER.size
        if have >= need:
            payload = np.empty((rows, cols), dtype="<f4")
            # The count actually read, in case the file shrank since fstat.
            have = fh.readinto(memoryview(payload).cast("B"))
        if have < need:
            raise FileFormatError(
                "truncated_payload",
                f"truncated payload: need {need} bytes for {rows}x{cols}, have {have}")
        rest = fh.read()
    metadata = None
    if rest:
        if len(rest) < 4:
            raise FileFormatError("truncated_payload", "truncated metadata length field")
        (meta_len,) = struct.unpack_from("<I", rest)
        if len(rest) - 4 < meta_len:
            raise FileFormatError("truncated_payload", "truncated metadata block")
        if len(rest) - 4 > meta_len:
            raise FileFormatError("trailing_data", "unexpected bytes after metadata block")
        try:
            metadata = json.loads(rest[4:4 + meta_len].decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # a decode error, or an int past the limit
            raise FileFormatError("bad_metadata", f"metadata is not valid JSON: {exc}") from None
    if not _all_finite(payload):
        r, c = np.argwhere(~np.isfinite(payload))[0]
        raise FileFormatError("non_finite_value", f"non-finite value at row {r}, column {c}")
    return payload, metadata


def text_lines(path):
    """Stream a UTF-8 text file's lines; InputError if it is missing,
    unreadable or not UTF-8."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"no such file: {path}")
    with _file_errors("read", path), open(path, encoding="utf-8", newline="") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise InputError(f"not UTF-8 text: {path}: {exc.reason}") from None


def _records(lines, parse, where: str = "line", first: int = 1):
    """parse(line) for each non-blank, stripped line, numbered from
    ``first``. The lines are read whole first, so a missing or non-UTF-8
    file fails before any record. The one line-error rule: an InputError
    from parse keeps its class, and so its code, and a ValueError becomes an
    InputError; either way the message reads "<where> <n>: <reason>"."""
    for n, line in [(n, s.strip()) for n, s in enumerate(lines, first) if s.strip()]:
        try:
            record = parse(line)
        except InputError as exc:
            exc.args = (f"{where} {n}: {exc}",)
            raise
        except ValueError as exc:
            raise InputError(f"{where} {n}: {exc}") from None
        yield record  # outside the try: the caller's errors get no line label


def _read_csv(path: Path) -> np.ndarray:
    """Parse with numpy's C reader. If it refuses the file, or the file is
    empty or holds a non-finite value, the per-cell reader reads it again:
    it names the failing row and column, reads the spellings only float()
    accepts (``1_0``, non-ASCII digits), and reports a non-UTF-8 byte only
    if no earlier cell fails (numpy reads the whole file before it looks
    for non-finite values). Each reader's lines are closed as it stops, so a
    refused file leaves no open file for the garbage collector to find."""
    try:
        with warnings.catch_warnings(), contextlib.closing(_loadtxt_lines(path)) as lines:
            # An empty file is reported by the per-cell reader instead.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            H = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2,
                           dtype=np.float64)
    except (ValueError, InputError):
        pass
    else:
        if H.size and _all_finite(H):
            return H
    with contextlib.closing(text_lines(path)) as lines:
        return _read_csv_cells(lines, path)


def _loadtxt_lines(path: Path):
    """text_lines for np.loadtxt, refusing a line with an ASCII information
    separator (\\x1c-\\x1f): numpy strips one next to a number as
    whitespace, float() does not."""
    for line in text_lines(path):
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("ASCII information separator in a CSV line")
        yield line


def _read_csv_cells(lines, path: Path) -> np.ndarray:
    """The matrix that ``lines``, the lines of the file at ``path``, hold.
    Rows and columns are named by 0-based index; blank lines count as rows.
    A field past the csv module's size limit is bad_value naming its row."""
    rows, reader = [], csv.reader(lines)
    for r in itertools.count():
        try:
            line = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            raise FileFormatError("bad_value", f"unparseable value at row {r}: {exc}") from None
        if not line:
            continue
        if rows and len(line) != len(rows[0]):
            raise FileFormatError(
                "dimension_mismatch", f"row {r} has {len(line)} columns, expected {len(rows[0])}")
        parsed = []
        for c, cell in enumerate(line):
            try:
                value = float(cell)
            except ValueError:
                raise FileFormatError(
                    "bad_value", f"unparseable value at row {r}, column {c}") from None
            if not math.isfinite(value):
                raise FileFormatError(
                    "non_finite_value", f"non-finite value at row {r}, column {c}")
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise FileFormatError("dimension_mismatch", f"empty trajectory file: {path}")
    return np.array(rows, dtype=np.float64)


@dataclasses.dataclass
class RunConfig:
    """Flat run configuration for the simulator commands.

    It is also the run record: ``simulate`` writes the resolved config,
    every field under its own name, as the run's JSON. That JSON is not a
    config file itself; written back as ``key = value`` lines, it is one
    that gives the same run.

    Its defaults are also those of sim.build_env, biased_init and train.
    """

    alpha: float = DEFAULT_ALPHA
    window: int = DEFAULT_WIDTH
    stride: int = DEFAULT_STRIDE
    group_size: int = 8
    iterations: int = 500
    learning_rate: float = 0.05
    train_seed: int = 1
    env_seed: int = 0
    dim: int = 16
    vocab: int = 32
    bias_dim: int = 4
    null_tokens: int = 8
    tau: float = 0.3
    horizon: int = 32
    decay: float = 0.7
    bias_logit: float = 2.0
    label: str = ""


_CONFIG_TYPES: dict[str, type] = typing.get_type_hints(RunConfig)


def _config_item(assignment: str) -> tuple[str, object]:
    """One ``key = value`` assignment as its key and typed value; its errors
    name no line."""
    # str.partition, so that an override that is not a string is a TypeError,
    # as any wrong object type is.
    key, eq, value = str.partition(assignment, "=")
    key = key.strip()
    if not eq:
        raise ConfigError(f"expected key = value, got {assignment.strip()!r}")
    if key not in _CONFIG_TYPES:
        accepted = ", ".join(sorted(_CONFIG_TYPES))
        raise ConfigError(f"unknown key {key!r}; accepted keys: {accepted}")
    if "#" in value:
        # A config file cuts each line at "#", so it could not restate this
        # value, and a run record would not reproduce its own file names.
        raise ConfigError(f"key {key}: a value cannot hold '#'")
    typ, value = _CONFIG_TYPES[key], value.strip()
    try:
        return key, typ(value)
    except ValueError:
        raise ConfigError(f"key {key}: expected {typ.__name__}, got {value!r}") from None


def parse_run_config(text: str, source: str = "config") -> RunConfig:
    """Parse key = value lines; '#' starts a comment, unknown keys are
    rejected with the list of accepted keys. Lines break only at line feeds
    and carriage returns, as text_lines reads them, not at a form feed, so
    a bad line's number is the file's."""
    lines = (raw.split("#", 1)[0] for raw in StringIO(text, newline=""))
    return RunConfig(**dict(_records(lines, _config_item, f"{source} line")))


def load_run_config(path) -> RunConfig:
    return parse_run_config("".join(text_lines(path)), source=str(path))


def apply_overrides(cfg: RunConfig, assignments) -> RunConfig:
    """Apply command-line key=value overrides on top of a parsed config."""
    for raw in _check_sequence(assignments, "assignments", ConfigError):
        try:
            key, value = _config_item(raw)
        except ConfigError as exc:
            raise ConfigError(f"override {raw!r}: {exc}") from None
        setattr(cfg, key, value)
    return cfg
